//! Calibration tool: prints the full measurement grid (benchmark × analysis
//! variant) with derivation counts, for tuning workload specs against the
//! standard budget. Not one of the paper's figures — a development aid.
//!
//! Usage: `cargo run --release -p rudoop-bench --bin tune [bench ...]`

use rudoop_bench::measure::{insens_pass, run_variant, AnalysisVariant, STANDARD_BUDGET};
use rudoop_bench::table;
use rudoop_core::driver::Flavor;
use rudoop_ir::ClassHierarchy;
use rudoop_workloads::dacapo;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let specs = if args.is_empty() {
        dacapo::all_nine()
    } else {
        args.iter()
            .map(|n| dacapo::by_name(n).unwrap_or_else(|| panic!("unknown: {n}")))
            .collect()
    };
    let mut rows = Vec::new();
    for spec in specs {
        let program = spec.build();
        let hierarchy = ClassHierarchy::new(&program);
        let insens = insens_pass(&program, &hierarchy, STANDARD_BUDGET);
        eprintln!(
            "{}: {} instructions, insens {} derivs in {:?}",
            spec.name,
            program.instruction_count(),
            insens.stats.derivations,
            insens.stats.duration
        );
        let variants = [
            AnalysisVariant::Insens,
            AnalysisVariant::Base(Flavor::OBJ2H),
            AnalysisVariant::IntroA(Flavor::OBJ2H),
            AnalysisVariant::IntroB(Flavor::OBJ2H),
            AnalysisVariant::Base(Flavor::TYPE2H),
            AnalysisVariant::IntroA(Flavor::TYPE2H),
            AnalysisVariant::IntroB(Flavor::TYPE2H),
            AnalysisVariant::Base(Flavor::CALL2H),
            AnalysisVariant::IntroA(Flavor::CALL2H),
            AnalysisVariant::IntroB(Flavor::CALL2H),
        ];
        for v in variants {
            let run = run_variant(
                &spec.name,
                &program,
                &hierarchy,
                v,
                STANDARD_BUDGET,
                &insens,
            );
            rows.push(vec![
                run.benchmark.clone(),
                run.analysis.clone(),
                if run.complete() {
                    "ok".into()
                } else {
                    "BUDGET".into()
                },
                table::mega(run.derivations),
                table::secs(run.duration),
                run.precision.polymorphic_call_sites.to_string(),
                run.precision.reachable_methods.to_string(),
                run.precision.casts_may_fail.to_string(),
            ]);
            eprintln!("  done {}", rows.last().unwrap().join("  "));
        }
    }
    println!(
        "{}",
        table::render(
            &["bench", "analysis", "outcome", "derivs", "secs", "poly", "reach", "casts"],
            &rows
        )
    );
}
