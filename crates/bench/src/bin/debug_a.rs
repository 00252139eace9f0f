//! Debug aid: prints Heuristic-A exclusion causes for one benchmark.
use rudoop_bench::measure::{insens_pass, STANDARD_BUDGET};
use rudoop_core::heuristics::{HeuristicA, RefinementHeuristic};
use rudoop_core::IntrospectionMetrics;
use rudoop_ir::ClassHierarchy;
use rudoop_workloads::dacapo;
use std::collections::HashMap;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "jython".into());
    let spec = dacapo::by_name(&name).unwrap();
    let program = spec.build();
    let h = ClassHierarchy::new(&program);
    let insens = insens_pass(&program, &h, STANDARD_BUDGET);
    let metrics = IntrospectionMetrics::compute(&program, &insens);
    let set = HeuristicA::default().select(&program, &metrics, &insens);
    // Count excluded sites by reason and by target method.
    let mut by_target: HashMap<String, usize> = HashMap::new();
    let mut by_inflow = 0usize;
    let mut total = 0usize;
    for (iid, invoke) in program.invokes.iter() {
        if !insens.reachable_methods.contains(invoke.method) {
            continue;
        }
        total += 1;
        if set.no_refine_invokes.contains(iid) {
            by_inflow += 1;
            continue;
        }
        if let Some(targets) = insens.call_targets.get(&iid) {
            if !targets.is_empty() && targets.iter().all(|&t| set.no_refine_methods.contains(t)) {
                let label = targets
                    .iter()
                    .map(|&t| program.method_display(t))
                    .collect::<Vec<_>>()
                    .join("|");
                let label = if label.len() > 60 {
                    format!("{}...", &label[..60])
                } else {
                    label
                };
                *by_target.entry(label).or_default() += 1;
            }
        }
    }
    println!("total sites {total}, excluded by in-flow {by_inflow}");
    let mut v: Vec<_> = by_target.into_iter().collect();
    v.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    for (t, c) in v.iter().take(25) {
        println!("{c:>6}  {t}");
    }
}
