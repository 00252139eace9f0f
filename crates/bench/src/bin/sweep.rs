//! Ablation: sensitivity of introspective analysis to the heuristic
//! constants — the paper's §3 claim that "even relatively large variations
//! of these numbers make scarcely any difference in the total picture".
//!
//! Sweeps Heuristic A's K/L/M and Heuristic B's P/Q by ×¼ … ×4 around the
//! paper values on two representative hard benchmarks and prints outcome,
//! cost and precision per setting.
//!
//! Usage: `cargo run --release -p rudoop-bench --bin sweep [bench ...]`

use rudoop_bench::measure::{insens_pass, STANDARD_BUDGET};
use rudoop_bench::table;
use rudoop_core::driver::{analyze_introspective_from, Flavor};
use rudoop_core::heuristics::{HeuristicA, HeuristicB, RefinementHeuristic};
use rudoop_core::solver::{Budget, SolverConfig};
use rudoop_core::PrecisionMetrics;
use rudoop_ir::ClassHierarchy;
use rudoop_workloads::dacapo;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.is_empty() {
        vec!["hsqldb", "chart"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let config = SolverConfig {
        budget: Budget::derivations(STANDARD_BUDGET),
        ..SolverConfig::default()
    };

    let mut rows = Vec::new();
    for name in names {
        let spec = dacapo::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
        let program = spec.build();
        let hierarchy = ClassHierarchy::new(&program);
        let insens = insens_pass(&program, &hierarchy, STANDARD_BUDGET);

        let mut heuristics: Vec<(String, Box<dyn RefinementHeuristic>)> = Vec::new();
        for scale in [1u32, 2, 4] {
            heuristics.push((
                format!("A(K={},L={},M={})", 100 / scale, 100 / scale, 200 / scale),
                Box::new(HeuristicA {
                    k: 100 / scale,
                    l: 100 / scale,
                    m: 200 / scale,
                }),
            ));
            if scale > 1 {
                heuristics.push((
                    format!("A(K={},L={},M={})", 100 * scale, 100 * scale, 200 * scale),
                    Box::new(HeuristicA {
                        k: 100 * scale,
                        l: 100 * scale,
                        m: 200 * scale,
                    }),
                ));
            }
            heuristics.push((
                format!("B(P=Q={})", 10_000 / scale),
                Box::new(HeuristicB {
                    p: 10_000 / scale,
                    q: 10_000 / scale,
                }),
            ));
            if scale > 1 {
                heuristics.push((
                    format!("B(P=Q={})", 10_000 * scale),
                    Box::new(HeuristicB {
                        p: 10_000 * scale,
                        q: 10_000 * scale,
                    }),
                ));
            }
        }

        for (label, heuristic) in &heuristics {
            let run = analyze_introspective_from(
                &program,
                &hierarchy,
                Flavor::OBJ2H,
                heuristic.as_ref(),
                &config,
                insens.clone(),
            );
            let pm = PrecisionMetrics::compute(&program, &hierarchy, &run.result);
            rows.push(vec![
                name.to_owned(),
                label.clone(),
                if run.result.outcome.is_complete() {
                    "ok".into()
                } else {
                    "BUDGET".into()
                },
                table::mega(run.result.stats.derivations),
                if run.result.outcome.is_complete() {
                    pm.polymorphic_call_sites.to_string()
                } else {
                    "-".into()
                },
                if run.result.outcome.is_complete() {
                    pm.casts_may_fail.to_string()
                } else {
                    "-".into()
                },
            ]);
        }
    }
    println!("Constant-sweep ablation (2objH, introspective):");
    println!();
    println!(
        "{}",
        table::render(
            &["bench", "heuristic", "outcome", "derivs", "poly", "casts"],
            &rows
        )
    );
    println!("The qualitative picture (which heuristic scales, roughly what precision)");
    println!("should be stable across the sweep — the paper's §3 robustness claim.");
}
