//! **§4 Discussion**: the overheads excluded from the paper's timings —
//! the first (context-insensitive) pass and the metric/selection
//! computation, reported per benchmark. The paper calls these "relatively
//! constant at about 100sec"; here we report them next to the second-pass
//! time so the claim can be checked in relative terms.

use rudoop_bench::measure::{insens_pass, run_variant, AnalysisVariant, STANDARD_BUDGET};
use rudoop_bench::table;
use rudoop_core::driver::Flavor;
use rudoop_ir::ClassHierarchy;
use rudoop_workloads::dacapo;

fn main() {
    println!("Introspection overhead accounting (2objH-IntroA)");
    println!();
    let mut rows = Vec::new();
    for spec in dacapo::hard_six() {
        let program = spec.build();
        let hierarchy = ClassHierarchy::new(&program);
        let insens = insens_pass(&program, &hierarchy, STANDARD_BUDGET);
        let run = run_variant(
            &spec.name,
            &program,
            &hierarchy,
            AnalysisVariant::IntroA(Flavor::OBJ2H),
            STANDARD_BUDGET,
            &insens,
        );
        let overhead = run.overhead.expect("introspective run");
        rows.push(vec![
            spec.name.clone(),
            table::secs(insens.stats.duration),
            table::secs(overhead - insens.stats.duration.min(overhead)),
            table::secs(run.duration),
            format!(
                "{:.0}%",
                100.0 * overhead.as_secs_f64() / run.duration.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "benchmark",
                "pass1 (s)",
                "selection (s)",
                "pass2 (s)",
                "overhead/pass2"
            ],
            &rows
        )
    );
    println!("(The paper factors these out of Figures 5-7; they are shared across");
    println!(" all introspective variants of a benchmark and amortize to once per");
    println!(" benchmark with minor engineering, as §4 notes.)");
}
