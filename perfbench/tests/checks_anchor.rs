//! The benchmark's output checks, run on shrunken copies of its workload
//! specs, and anchored to an independent implementation: the solver
//! projections the checks compare (variable and field points-to sets, call
//! graph, reachable methods) must equal the `rudoop-datalog` reference
//! model's, so a check that passes is not merely the code under test
//! agreeing with itself.

use std::time::Duration;

use rudoop_core::cutshortcut::CutSummary;
use rudoop_core::driver::Flavor;
use rudoop_core::heuristics::{HeuristicA, HeuristicB, RefinementHeuristic};
use rudoop_core::introspection::IntrospectionMetrics;
use rudoop_core::policy::{Insensitive, RefinementSet};
use rudoop_core::service::protocol::Response;
use rudoop_core::solver::PointsToResult;
use rudoop_core::summaries::SummaryTable;
use rudoop_datalog::{run_model, run_model_with_cuts, run_model_with_summaries, ModelResult};
use rudoop_ir::{print_program, AllocId, ClassHierarchy, FieldId, Program};
use rudoop_perfbench::batch::{self, Job};
use rudoop_perfbench::daemon;
use rudoop_workloads::WorkloadSpec;

/// A DaCapo-shaped spec shrunk to reference-model scale — the same shrink
/// as the `crates/datalog` differential tests: every pattern stays
/// enabled, just smaller, with the taint battery switched on.
fn shrink(mut spec: WorkloadSpec) -> WorkloadSpec {
    fn cap(v: &mut usize, at: usize) {
        *v = (*v).min(at);
    }
    cap(&mut spec.pool_values, 8);
    cap(&mut spec.pool_readers, 6);
    cap(&mut spec.wrapper_classes, 2);
    cap(&mut spec.creator_classes, 2);
    cap(&mut spec.creator_instances, 3);
    cap(&mut spec.allocator_classes, 2);
    cap(&mut spec.wrapper_sites_per_class, 2);
    cap(&mut spec.process_steps, 2);
    cap(&mut spec.deep_pool_values, 6);
    cap(&mut spec.deep_creator_classes, 2);
    cap(&mut spec.deep_allocator_classes, 2);
    cap(&mut spec.deep_instances, 2);
    cap(&mut spec.deep_sites_per_class, 2);
    cap(&mut spec.deep_steps, 2);
    cap(&mut spec.util_consumers, 3);
    cap(&mut spec.util_dists, 2);
    cap(&mut spec.util_chain, 2);
    cap(&mut spec.util_moves, 2);
    cap(&mut spec.medium_pool, 6);
    cap(&mut spec.probes_clean, 2);
    cap(&mut spec.probes_type_friendly, 2);
    cap(&mut spec.probes_medium, 2);
    cap(&mut spec.listeners, 2);
    cap(&mut spec.visitor_nodes, 2);
    cap(&mut spec.visitor_kinds, 2);
    cap(&mut spec.stream_depth, 2);
    cap(&mut spec.app_classes, 2);
    cap(&mut spec.app_casts, 2);
    spec.taint_flows = 1;
    spec
}

fn shrunk_text(name: &str) -> String {
    let mut program = shrink(rudoop_perfbench::spec(name, 0)).build();
    batch::qualify_fields(&mut program);
    print_program(&program)
}

/// The model run matching `job`'s analysis of `program` (for introspective
/// jobs, under the refinement the heuristic selects from `first_pass`).
fn model_of(job: &Job, program: &Program, first_pass: Option<&PointsToResult>) -> ModelResult {
    let hierarchy = ClassHierarchy::new(program);
    let (flavor, letter) = job.parse().unwrap();
    let refined = flavor.policy(program);
    let refinement = match (letter, first_pass) {
        (Some(letter), Some(first)) => {
            let metrics = IntrospectionMetrics::compute(program, first);
            let heuristic: Box<dyn RefinementHeuristic> = if letter == 'A' {
                Box::new(HeuristicA::default())
            } else {
                Box::new(HeuristicB::default())
            };
            heuristic.select(program, &metrics, first)
        }
        _ => RefinementSet::refine_all(program),
    };
    let model = match flavor {
        Flavor::CutShortcut => run_model_with_cuts(
            program,
            &hierarchy,
            &Insensitive,
            refined.as_ref(),
            &refinement,
            Some(&CutSummary::compute(program)),
        ),
        Flavor::Summaries => run_model_with_summaries(
            program,
            &hierarchy,
            &Insensitive,
            refined.as_ref(),
            &refinement,
            Some(&SummaryTable::compute(program, &hierarchy)),
        ),
        _ => run_model(
            program,
            &hierarchy,
            &Insensitive,
            refined.as_ref(),
            &refinement,
        ),
    };
    model.unwrap()
}

fn assert_matches_model(label: &str, r: &PointsToResult, m: &ModelResult) {
    let vpt: Vec<_> = r
        .var_pts
        .iter()
        .flat_map(|(v, pts)| pts.iter().map(move |&a| (v, a)))
        .collect();
    assert_eq!(vpt, m.var_points_to_projected(), "{label}: var-points-to");

    let mut fpt: Vec<(AllocId, FieldId, AllocId)> = r
        .field_pts
        .iter()
        .flat_map(|(&(base, f), pts)| pts.iter().map(move |&a| (base, f, a)))
        .collect();
    fpt.sort_unstable();
    let mut model_fpt: Vec<(AllocId, FieldId, AllocId)> = m
        .field_points_to
        .iter()
        .map(|&(base, _, f, a, _)| (base, f, a))
        .collect();
    model_fpt.sort_unstable();
    model_fpt.dedup();
    assert_eq!(fpt, model_fpt, "{label}: field-points-to");

    let mut cg: Vec<_> = r
        .call_targets
        .iter()
        .flat_map(|(&i, ms)| ms.iter().map(move |&t| (i, t)))
        .collect();
    cg.sort_unstable();
    assert_eq!(cg, m.call_graph_projected(), "{label}: call graph");

    let reachable: Vec<_> = r.reachable_methods.iter().collect();
    assert_eq!(
        reachable,
        m.reachable_projected(),
        "{label}: reachable methods"
    );
}

#[test]
fn batch_checks_pass_on_shrunken_workloads_and_match_the_model() {
    for job in batch::CTX_DEEP.iter().chain(batch::INTRO_WIDE) {
        let label = job.label();
        let text = shrunk_text(job.program);
        let insens = batch::insens_reference(&text).unwrap();
        let out = batch::run_job(&text, job, &None).unwrap();

        // The checks the benchmark runs on every pass (subset of insens,
        // determinism; the pins hold for the full-size programs only) and
        // on traced passes.
        batch::replay_selection(&out, &None).unwrap();
        let mut first = None;
        batch::check_job(&out, job, &insens, false, &mut first).unwrap();
        let again = batch::run_job(&text, job, &None).unwrap();
        batch::check_job(&again, job, &insens, false, &mut first).unwrap();

        // The projections those checks compare, against the model.
        let insens_job = Job {
            program: job.program,
            analysis: "insens",
        };
        assert_matches_model(
            &format!("{}/insens", job.program),
            &insens,
            &model_of(&insens_job, &out.program, None),
        );
        assert_matches_model(
            &label,
            &out.result,
            &model_of(job, &out.program, out.first_pass.as_ref()),
        );
    }
}

#[test]
fn subset_check_rejects_a_fact_insens_lacks() {
    let text = shrunk_text("bloat");
    let insens = batch::insens_reference(&text).unwrap();
    let out = batch::run_job(&text, &batch::CTX_DEEP[0], &None).unwrap();
    let mut widened = out.result.clone();
    let (var, missing) = widened
        .var_pts
        .iter()
        .find_map(|(v, _)| {
            out.program
                .allocs
                .ids()
                .find(|a| insens.points_to(v).binary_search(a).is_err())
                .map(|a| (v, a))
        })
        .unwrap();
    widened.var_pts[var].push(missing);
    widened.var_pts[var].sort_unstable();
    assert!(batch::check_subset(&widened, &insens).is_err());
}

#[test]
fn daemon_responses_match_batch_rendering_on_shrunken_pmd() {
    let (program, taint) = daemon::load_spec(shrink(rudoop_perfbench::spec(daemon::PROGRAM, 0)));
    let (server, state) = daemon::start(program, taint, &None, None);
    let queries = daemon::plan_queries(&state, 1);
    let spec = state.config.taint_spec.clone().unwrap();
    let warm = daemon::Warm::of(&state);
    let mut expected = Vec::new();
    for q in &queries {
        let label = daemon::KINDS[q.kind];
        let cold = daemon::Warm::default();
        let r = daemon::batch_response(
            &state.program,
            &state.hierarchy,
            &spec,
            &q.request,
            &cold,
            &None,
        );
        // The traced run's replays with the daemon's warm state render the
        // same document.
        let replay = daemon::batch_response(
            &state.program,
            &state.hierarchy,
            &spec,
            &q.request,
            &warm,
            &None,
        );
        assert_eq!(replay.response, r.response, "{label}: warm replay");
        if label == "stats_budget" {
            // At this scale 2objH derives no more than the insensitive
            // floor, so the budget cannot force a degrade; the response
            // must still be a document served byte-identically.
            assert!(
                matches!(r.response, Response::Doc { .. }),
                "{:?}",
                r.response
            );
        } else {
            daemon::check_reference(label, &r, false).unwrap();
        }
        if label == "stats" {
            let job = Job {
                program: daemon::PROGRAM,
                analysis: "2objH",
            };
            let result = r.run.as_ref().and_then(|run| run.result.as_ref()).unwrap();
            assert_matches_model("pmd/2objH", result, &model_of(&job, &state.program, None));
        }
        expected.push(r.response);
    }
    let (samples, _) = daemon::drive(
        server,
        &queries,
        &expected,
        1,
        Duration::from_millis(1500),
        &None,
    );
    assert!(
        samples.len() >= queries.len(),
        "only {} requests",
        samples.len()
    );
    let failures: Vec<_> = samples.iter().filter_map(|s| s.failure.as_ref()).collect();
    assert!(failures.is_empty(), "{failures:?}");
}
