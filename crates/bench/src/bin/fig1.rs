//! **Figure 1**: running cost of a context-insensitive analysis vs
//! 2-object-sensitive with context-sensitive heap (`2objH`), across the
//! nine DaCapo benchmarks.
//!
//! The paper's chart shows the bimodality motivating the whole work:
//! `insens` varies little across benchmarks, `2objH` explodes on some
//! (hsqldb and jython never terminate within the 90-minute timeout). Here
//! the timeout is the standard derivation budget; exhausted runs print as
//! `>BUDGET` (the paper's truncated full-height bars).

use rudoop_bench::measure::{insens_pass, run_variant, AnalysisVariant, STANDARD_BUDGET};
use rudoop_bench::table;
use rudoop_core::driver::Flavor;
use rudoop_ir::ClassHierarchy;
use rudoop_workloads::dacapo;

fn main() {
    println!(
        "Figure 1: insens vs 2objH running cost (budget = {})",
        table::mega(STANDARD_BUDGET)
    );
    println!();
    let mut rows = Vec::new();
    for spec in dacapo::all_nine() {
        let program = spec.build();
        let hierarchy = ClassHierarchy::new(&program);
        let insens = insens_pass(&program, &hierarchy, STANDARD_BUDGET);
        let base = run_variant(
            &spec.name,
            &program,
            &hierarchy,
            AnalysisVariant::Insens,
            STANDARD_BUDGET,
            &insens,
        );
        let obj = run_variant(
            &spec.name,
            &program,
            &hierarchy,
            AnalysisVariant::Base(Flavor::OBJ2H),
            STANDARD_BUDGET,
            &insens,
        );
        rows.push(vec![
            spec.name.clone(),
            table::cost_cell(&base, STANDARD_BUDGET),
            table::secs(base.duration),
            table::cost_cell(&obj, STANDARD_BUDGET),
            if obj.complete() {
                table::secs(obj.duration)
            } else {
                "timeout".into()
            },
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "benchmark",
                "insens(derivs)",
                "insens(s)",
                "2objH(derivs)",
                "2objH(s)"
            ],
            &rows
        )
    );
    println!("CSV:");
    println!(
        "{}",
        table::csv(
            &[
                "benchmark",
                "insens_derivs",
                "insens_s",
                "objH_derivs",
                "objH_s"
            ],
            &rows
        )
    );
}
