//! Shared implementation of Figures 5, 6 and 7: for one context flavor,
//! the 4-analysis grid (insens, IntroA, IntroB, full) over the six hard
//! benchmarks, reporting cost plus the three precision metrics.

use rudoop_core::driver::Flavor;
use rudoop_ir::ClassHierarchy;
use rudoop_workloads::dacapo;

use crate::measure::{insens_pass, run_variant, AnalysisVariant, MeasuredRun, STANDARD_BUDGET};
use crate::table;

/// All measured cells of one figure.
#[derive(Debug)]
pub struct FamilyResults {
    /// Flavor under evaluation (`2objH`, `2typeH` or `2callH`).
    pub flavor: Flavor,
    /// Rows: benchmark × 4 variants, in grid order.
    pub runs: Vec<MeasuredRun>,
}

/// Runs the full grid for `flavor` over the hard six benchmarks.
pub fn run_family(flavor: Flavor, budget: u64) -> FamilyResults {
    let mut runs = Vec::new();
    for spec in dacapo::hard_six() {
        let program = spec.build();
        let hierarchy = ClassHierarchy::new(&program);
        let insens = insens_pass(&program, &hierarchy, budget);
        for variant in [
            AnalysisVariant::Insens,
            AnalysisVariant::IntroA(flavor),
            AnalysisVariant::IntroB(flavor),
            AnalysisVariant::Base(flavor),
        ] {
            runs.push(run_variant(
                &spec.name, &program, &hierarchy, variant, budget, &insens,
            ));
        }
    }
    FamilyResults { flavor, runs }
}

/// Prints the figure: a cost table and three precision tables, exactly the
/// four charts of the paper's Figures 5–7.
pub fn print_family(figure: &str, results: &FamilyResults) {
    println!(
        "{figure}: {} family (budget = {})",
        results.runs[1].analysis.trim_end_matches("-IntroA"),
        table::mega(STANDARD_BUDGET)
    );
    println!();

    let grouped: Vec<&[MeasuredRun]> = results.runs.chunks(4).collect();
    let headers: Vec<&str> = {
        let mut h = vec!["benchmark"];
        h.extend(grouped[0].iter().map(|r| r.analysis.as_str()));
        h
    };

    let section = |title: &str, cell: &dyn Fn(&MeasuredRun) -> String| {
        let rows: Vec<Vec<String>> = grouped
            .iter()
            .map(|g| {
                let mut row = vec![g[0].benchmark.clone()];
                row.extend(g.iter().map(cell));
                row
            })
            .collect();
        println!("{title}");
        println!("{}", table::render(&headers, &rows));
    };

    section("Cost (derivations; > budget = did not terminate):", &|r| {
        table::cost_cell(r, STANDARD_BUDGET)
    });
    section("Wall-clock (s, final pass):", &|r| {
        if r.complete() {
            table::secs(r.duration)
        } else {
            "timeout".into()
        }
    });
    section(
        "Calls that cannot be devirtualized (lower is better):",
        &|r| table::precision_cell(r, r.precision.polymorphic_call_sites),
    );
    section("Reachable methods (lower is better):", &|r| {
        table::precision_cell(r, r.precision.reachable_methods)
    });
    section("Reachable casts that may fail (lower is better):", &|r| {
        table::precision_cell(r, r.precision.casts_may_fail)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_is_benchmark_major() {
        // Run with a tiny budget so the test is fast; we only check
        // structure, not outcomes.
        let results = run_family(Flavor::TYPE2H, 50_000);
        assert_eq!(results.runs.len(), 6 * 4);
        assert_eq!(results.runs[0].analysis, "insens");
        assert_eq!(results.runs[3].analysis, "2typeH");
        assert_eq!(results.runs[0].benchmark, "bloat");
        assert_eq!(results.runs[4].benchmark, "chart");
    }
}
