//! **Figure 4** (table): percentage of call sites and objects selected
//! to *not* be refined by each introspective variant.
//!
//! The paper's table shows Heuristic A is aggressive (average ≈ 22% of
//! call sites, ≈ 14% of objects not refined) while Heuristic B is very
//! selective (≈ 1% of call sites, ≈ 9% of objects) — in both cases the
//! refined elements are the overwhelming majority.

use rudoop_bench::measure::{insens_pass, STANDARD_BUDGET};
use rudoop_bench::table;
use rudoop_core::heuristics::{HeuristicA, HeuristicB, RefinementHeuristic, RefinementStats};
use rudoop_core::IntrospectionMetrics;
use rudoop_ir::ClassHierarchy;
use rudoop_workloads::dacapo;

fn main() {
    println!("Figure 4: % of call sites / objects NOT refined (paper-constant heuristics)");
    println!();
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 4];
    let specs = dacapo::figure4_seven();
    let n = specs.len() as f64;
    for spec in specs {
        let program = spec.build();
        let hierarchy = ClassHierarchy::new(&program);
        let insens = insens_pass(&program, &hierarchy, STANDARD_BUDGET);
        let metrics = IntrospectionMetrics::compute(&program, &insens);
        let a = HeuristicA::default().select(&program, &metrics, &insens);
        let b = HeuristicB::default().select(&program, &metrics, &insens);
        let sa = RefinementStats::compute(&program, &insens, &a);
        let sb = RefinementStats::compute(&program, &insens, &b);
        let cells = [
            sa.call_site_pct(),
            sb.call_site_pct(),
            sa.object_pct(),
            sb.object_pct(),
        ];
        for (s, c) in sums.iter_mut().zip(cells) {
            *s += c;
        }
        rows.push(vec![
            spec.name.clone(),
            format!("{:.1} %", cells[0]),
            format!("{:.1} %", cells[1]),
            format!("{:.1} %", cells[2]),
            format!("{:.1} %", cells[3]),
        ]);
    }
    rows.push(vec![
        "average".into(),
        format!("{:.2} %", sums[0] / n),
        format!("{:.2} %", sums[1] / n),
        format!("{:.2} %", sums[2] / n),
        format!("{:.2} %", sums[3] / n),
    ]);
    println!(
        "{}",
        table::render(
            &[
                "benchmark",
                "CallSites A",
                "CallSites B",
                "Objects A",
                "Objects B"
            ],
            &rows
        )
    );
}
