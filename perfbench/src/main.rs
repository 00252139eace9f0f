//! The benchmark command.
//!
//! ```text
//! perfbench --workload <ctx-deep|intro-wide|daemon-mix> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a context line (workload, seed, host CPUs, build profile,
//! commit) and, as the last line of standard output, the result object:
//! `{"correct", "attempted", "failed", "metrics"}`. The untraced run
//! (`--trace 0`) reports the end-to-end metrics, the traced run
//! (`--trace 1`) the per-layer metrics and writes the run's telemetry
//! profile and self-time table to
//! `<target dir>/perfbench-traces/<workload>-seed<n>.{profile,self}.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rudoop_core::driver::{analyze_flavor, Flavor};
use rudoop_core::heuristics::RefinementStats;
use rudoop_core::service::protocol::Response;
use rudoop_core::solver::{PointsToResult, SolverConfig, SolverStats};
use rudoop_core::telemetry::{span_opt, SpanRecord, Telemetry, TelemetryHandle, COORDINATOR_LANE};
use rudoop_ir::ClassHierarchy;
use rudoop_perfbench::trace::{self, time};
use rudoop_perfbench::{batch, daemon, frac, median, peak_rss_mb, quantile, Outcome};

/// Set-up slices per run. Batch workloads spread them evenly over the
/// measuring window: the first before it, the others between jobs. The
/// daemon runs half before its serving window and half after it, so that
/// no set-up program shares the process with the serving daemon.
const SETUP_SLICES: u32 = 8;
/// How long one set-up slice repeats the set-up.
const SETUP_SLICE: Duration = Duration::from_millis(100);
/// Repetitions of the daemon's per-request replays in a traced run (the
/// per-layer samples of the daemon's solver runs and clients).
const REPLAY_REPS: usize = 3;

/// The per-layer metrics, in output order, with their units. Every traced
/// run reports all of them; a layer a workload never enters reads 0.
///
/// Batch workloads take each as the median over the run's traced passes
/// (counts summed over a pass's solver runs, `bytes_estimate` the largest).
///
/// `daemon-mix` cannot time the solver and the clients inside the daemon:
/// `ServiceState::execute` runs them without telemetry. It takes those
/// layers (`solver.*` but `first_pass_s`, `stats.render_s`,
/// `taint`/`races`/`lint.client_ms`) from replays of its
/// eight queries outside the daemon, each given the daemon's warm first
/// pass and warm summary table as `ServiceState::execute` gives them
/// (median of [`REPLAY_REPS`] rounds). So, as in the daemon, no replay
/// recomputes a first pass or a summary table (`summaries.pass_s` reads 0).
/// `solver.first_pass_s` and `ir.hierarchy_s` come from a replay of the
/// warm pass `ServiceState::new` computes; the `service.*` layers from the
/// daemon itself, in the traced half of the window.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("service.state_new_s", "s"),
    ("solver.solve_s", "s"),
    ("solver.derivations_per_s", "1/s"),
    ("solver.project_s", "s"),
    ("solver.first_pass_s", "s"),
    ("solver.bytes_estimate_mb", "MB"),
    ("solver.derivations", "count"),
    ("solver.cs_var_points_to", "count"),
    ("solver.cs_field_points_to", "count"),
    ("solver.contexts", "count"),
    ("solver.nodes", "count"),
    ("solver.edges", "count"),
    ("ir.parse_s", "s"),
    ("ir.hierarchy_s", "s"),
    ("introspection.metrics_s", "s"),
    ("heuristics.select_s", "s"),
    ("heuristics.objects_not_refined_frac", "frac"),
    ("heuristics.objects_total", "count"),
    ("heuristics.call_sites_not_refined_frac", "frac"),
    ("heuristics.call_sites_total", "count"),
    ("cutshortcut.pass_s", "s"),
    ("summaries.pass_s", "s"),
    ("clients.precision_s", "s"),
    ("stats.render_s", "s"),
    ("taint.client_ms", "ms"),
    ("races.client_ms", "ms"),
    ("lint.client_ms", "ms"),
    ("service.stats_ms_p50", "ms"),
    ("service.pts_ms_p50", "ms"),
    ("service.taint_ms_p50", "ms"),
    ("service.races_ms_p50", "ms"),
    ("service.lints_ms_p50", "ms"),
    ("service.dump_ms_p50", "ms"),
    ("service.stats_summaries_ms_p50", "ms"),
    ("service.stats_budget_ms_p50", "ms"),
    ("service.execute_ms_p50", "ms"),
    ("service.overhead_ms_p50", "ms"),
    ("service.summary_cache_hit_frac", "frac"),
    ("service.shed_frac", "frac"),
    ("supervisor.degraded_frac", "frac"),
    ("trace.batch_s_p50_overhead", "s"),
    ("trace.request_ms_p50_overhead", "ms"),
];

/// Per-layer metrics read as the summed duration of the spans of one name
/// (benchmark spans around public calls, or program phases), with a unit
/// scale.
const SPAN_LAYERS: &[(&str, &str, f64)] = &[
    ("ir.parse_s", "parse_program", 1.0),
    ("ir.hierarchy_s", "ClassHierarchy::new", 1.0),
    ("solver.solve_s", "solve", 1.0),
    ("solver.project_s", "project", 1.0),
    ("solver.first_pass_s", "first-pass", 1.0),
    (
        "introspection.metrics_s",
        "IntrospectionMetrics::compute",
        1.0,
    ),
    ("heuristics.select_s", "RefinementHeuristic::select", 1.0),
    ("cutshortcut.pass_s", "cutshortcut-pass", 1.0),
    ("summaries.pass_s", "summaries-pass", 1.0),
    ("clients.precision_s", "PrecisionMetrics::compute", 1.0),
    ("stats.render_s", "ResultStats::render", 1.0),
    ("taint.client_ms", "supervised_taint", 1e3),
    ("races.client_ms", "supervised_races", 1e3),
    ("lint.client_ms", "LintRegistry::run", 1e3),
];

/// The end-to-end metrics, in output order, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("batch_s_p50", "s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p95", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 35.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = value(&mut it, &flag)?,
            "--seed" => {
                args.seed = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if !["ctx-deep", "intro-wide", "daemon-mix"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be ctx-deep, intro-wide or daemon-mix, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// What a workload run produced: the check tally and the metric values by
/// name.
#[derive(Default)]
struct Report {
    outcome: Outcome,
    values: BTreeMap<&'static str, f64>,
    /// Sample counts behind the medians and percentiles.
    samples: Vec<(&'static str, usize)>,
}

/// Deterministic solver and selection counters summed over one pass.
#[derive(Default)]
struct Counts {
    derivations: u64,
    cs_var_points_to: u64,
    cs_field_points_to: u64,
    contexts: u64,
    nodes: u64,
    edges: u64,
    bytes_max: u64,
    objects_not_refined: u64,
    objects_total: u64,
    call_sites_not_refined: u64,
    call_sites_total: u64,
}

impl Counts {
    fn add(&mut self, s: &SolverStats) {
        self.derivations += s.derivations;
        self.cs_var_points_to += s.cs_var_points_to;
        self.cs_field_points_to += s.cs_field_points_to;
        self.contexts += s.contexts;
        self.nodes += s.nodes;
        self.edges += s.edges;
        self.bytes_max = self.bytes_max.max(s.bytes_estimate());
    }

    fn add_refinement(&mut self, r: &RefinementStats) {
        self.objects_not_refined += r.objects_not_refined as u64;
        self.objects_total += r.objects_total as u64;
        self.call_sites_not_refined += r.call_sites_not_refined as u64;
        self.call_sites_total += r.call_sites_total as u64;
    }
}

/// One per-layer sample: span sums since `cursor` plus the pass's counts.
fn layer_sample(
    tele: &TelemetryHandle,
    cursor: usize,
    counts: &Counts,
) -> BTreeMap<&'static str, f64> {
    let spans = trace::spans(tele);
    let mut m: BTreeMap<&'static str, f64> = SPAN_LAYERS
        .iter()
        .map(|&(metric, span, scale)| (metric, trace::sum(&spans[cursor..], span) * scale))
        .collect();
    // `project` runs inside the solver's `solve` span; report them apart.
    let project = m["solver.project_s"];
    let solve = m["solver.solve_s"] - project;
    m.insert("solver.solve_s", solve);
    m.insert(
        "solver.derivations_per_s",
        if solve > 0.0 {
            counts.derivations as f64 / solve
        } else {
            0.0
        },
    );
    m.insert(
        "solver.bytes_estimate_mb",
        counts.bytes_max as f64 / (1 << 20) as f64,
    );
    m.insert("solver.derivations", counts.derivations as f64);
    m.insert("solver.cs_var_points_to", counts.cs_var_points_to as f64);
    m.insert(
        "solver.cs_field_points_to",
        counts.cs_field_points_to as f64,
    );
    m.insert("solver.contexts", counts.contexts as f64);
    m.insert("solver.nodes", counts.nodes as f64);
    m.insert("solver.edges", counts.edges as f64);
    m.insert(
        "heuristics.objects_not_refined_frac",
        frac(counts.objects_not_refined, counts.objects_total),
    );
    m.insert("heuristics.objects_total", counts.objects_total as f64);
    m.insert(
        "heuristics.call_sites_not_refined_frac",
        frac(counts.call_sites_not_refined, counts.call_sites_total),
    );
    m.insert(
        "heuristics.call_sites_total",
        counts.call_sites_total as f64,
    );
    m
}

/// Folds per-layer samples into `values` by their per-metric median.
fn fold_median(values: &mut BTreeMap<&'static str, f64>, samples: &[BTreeMap<&'static str, f64>]) {
    if let Some(first) = samples.first() {
        for &metric in first.keys() {
            let xs: Vec<f64> = samples.iter().map(|s| s[metric]).collect();
            values.insert(metric, median(&xs));
        }
    }
}

/// A run's set-up timings, slice by slice.
#[derive(Default)]
struct Setups(Vec<Vec<f64>>);

impl Setups {
    /// Repeats `set_up` for [`SETUP_SLICE`] (at least once) as one slice
    /// and returns the last product.
    fn slice<T>(&mut self, mut set_up: impl FnMut() -> T) -> T {
        let begin = Instant::now();
        let mut times = Vec::new();
        loop {
            let start = Instant::now();
            let product = set_up();
            times.push(start.elapsed().as_secs_f64());
            if begin.elapsed() >= SETUP_SLICE {
                self.0.push(times);
                return product;
            }
        }
    }

    /// `setup_s`: the mean over slices of each slice's median. The host
    /// switches between a fast and a slow state every few seconds, which
    /// moves a millisecond-scale set-up by up to half; slices spread over
    /// the run sample both states, and the mean weighs them by their share
    /// of the run where a median would jump between them.
    fn value(&self) -> f64 {
        self.0.iter().map(|t| median(t)).sum::<f64>() / self.0.len().max(1) as f64
    }

    /// Set-up repetitions in all slices.
    fn reps(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
}

fn run_batch(jobs: &[batch::Job], args: &Args, tele: &TelemetryHandle) -> Report {
    let mut report = Report::default();
    let out = &mut report.outcome;

    // The first slice is traced, for `workloads.build_s`.
    let mut setup = Setups::default();
    let mut build = Vec::new();
    let texts = setup.slice(|| {
        let cursor = trace::cursor(tele);
        let texts = batch::generate(jobs, args.seed, tele);
        build.push(trace::sum_since(tele, cursor, "WorkloadSpec::build"));
        texts
    });

    let mut insens: Vec<(&str, PointsToResult)> = Vec::new();
    for &(name, ref text) in &texts {
        match batch::insens_reference(text) {
            Ok(r) => insens.push((name, r)),
            Err(e) => out.check(Err(format!("{name}: {e}"))),
        }
    }

    let mut firsts: Vec<Option<(String, String)>> = vec![None; jobs.len()];
    let mut plain_passes = Vec::new();
    let mut traced_passes = Vec::new();
    let mut job_secs: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut samples = Vec::new();
    let min_passes = if args.trace { 2 } else { 1 };
    let window = Instant::now();
    let mut pass = 0;
    while pass < min_passes || window.elapsed().as_secs_f64() < args.seconds {
        // A traced run alternates untraced and traced passes, so both
        // medians come from the same run.
        let traced = args.trace && pass % 2 == 1;
        let ptele = if traced { tele.clone() } else { None };
        let cursor = trace::cursor(tele);
        let mut counts = Counts::default();
        let mut pass_s = 0.0;
        for ((job, first), times) in jobs.iter().zip(firsts.iter_mut()).zip(job_secs.iter_mut()) {
            let due = args.seconds * setup.0.len() as f64 / f64::from(SETUP_SLICES);
            if setup.0.len() < SETUP_SLICES as usize && window.elapsed().as_secs_f64() >= due {
                setup.slice(|| batch::generate(jobs, args.seed, &None));
            }
            let text = &texts
                .iter()
                .find(|(n, _)| *n == job.program)
                .expect("generated")
                .1;
            let start = Instant::now();
            let result = batch::run_job(text, job, &ptele);
            let dt = start.elapsed().as_secs_f64();
            pass_s += dt;
            if !traced {
                times.push(dt);
            }
            let checked = result.and_then(|o| {
                let reference = insens
                    .iter()
                    .find(|(n, _)| *n == job.program)
                    .map(|(_, r)| r)
                    .ok_or("no insensitive reference")?;
                batch::check_job(&o, job, reference, true, first)?;
                if traced {
                    batch::replay_selection(&o, &ptele)?;
                    o.solver_stats().for_each(|s| counts.add(s));
                    if let Some(r) = &o.refinement {
                        counts.add_refinement(r);
                    }
                }
                Ok(())
            });
            out.check(checked.map_err(|e| format!("{}: {e}", job.label())));
        }
        if traced {
            traced_passes.push(pass_s);
            samples.push(layer_sample(tele, cursor, &counts));
        } else {
            plain_passes.push(pass_s);
        }
        pass += 1;
    }

    // A batch run has a handful of passes, too few for a tail percentile of
    // raw job times; the request percentiles are taken over the job list,
    // each job represented by its median time across passes.
    let job_medians: Vec<f64> = job_secs.iter().map(|t| median(t) * 1e3).collect();
    let batch_s = median(&plain_passes);
    let v = &mut report.values;
    v.insert("setup_s", setup.value());
    v.insert("batch_s_p50", batch_s);
    v.insert("request_ms_p50", quantile(&job_medians, 0.5));
    v.insert("request_ms_p95", quantile(&job_medians, 0.95));
    v.insert("requests_per_s", jobs.len() as f64 / batch_s);
    fold_median(v, &samples);
    v.insert("workloads.build_s", median(&build));
    if args.trace {
        v.insert(
            "trace.batch_s_p50_overhead",
            median(&traced_passes) - median(&plain_passes),
        );
    }
    eprintln!(
        "perfbench: untraced passes {plain_passes:.3?} s, traced passes {traced_passes:.3?} s"
    );
    report.samples = vec![
        ("setup_slices", setup.0.len()),
        ("setups", setup.reps()),
        ("passes", plain_passes.len()),
        ("traced_passes", traced_passes.len()),
        ("requests", job_secs.iter().map(Vec::len).sum()),
    ];
    report
}

/// Latency percentiles, throughput and the median complete-round time of
/// a window's samples.
fn request_metrics(samples: &[daemon::Sample], wall: f64) -> (f64, f64, f64, f64) {
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_s * 1e3).collect();
    let mut rounds: BTreeMap<(u32, u64), f64> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.round_complete) {
        *rounds.entry((s.client, s.round)).or_default() += s.latency_s;
    }
    let rounds: Vec<f64> = rounds.into_values().collect();
    (
        quantile(&lat, 0.5),
        quantile(&lat, 0.95),
        samples.len() as f64 / wall,
        median(&rounds),
    )
}

fn run_daemon(args: &Args, tele: &TelemetryHandle) -> Report {
    let mut report = Report::default();
    let out = &mut report.outcome;

    // Each set-up's server and state are dropped before the next set-up,
    // so at most one resident program is alive.
    let mut setup = Setups::default();
    let mut build = Vec::new();
    let mut state_new = Vec::new();
    let mut set_up = || {
        let cursor = trace::cursor(tele);
        let (program, taint) = time(tele, "WorkloadSpec::build", || daemon::load(args.seed));
        let started = daemon::start(program, taint, tele, None);
        build.push(trace::sum_since(tele, cursor, "WorkloadSpec::build"));
        state_new.push(trace::sum_since(tele, cursor, "ServiceState::new"));
        started
    };
    let mut started = None;
    for _ in 0..SETUP_SLICES / 2 {
        drop(started.take());
        started = Some(setup.slice(&mut set_up));
    }
    let (server, state) = started.expect("at least one set-up slice");
    let Some(insens) = state.warm_first_pass() else {
        out.check(Err("the daemon has no warm first pass".to_owned()));
        return report;
    };
    let taint = state
        .config
        .taint_spec
        .clone()
        .expect("taint spec configured");
    let (program, hierarchy) = (&state.program, &state.hierarchy);

    // The batch rendering of each query: a cold run, as the CLI makes it.
    let queries = daemon::plan_queries(&state, args.seed);
    let mut expected: Vec<Response> = Vec::new();
    for q in &queries {
        let label = daemon::KINDS[q.kind];
        let r = daemon::batch_response(
            program,
            hierarchy,
            &taint,
            &q.request,
            &daemon::Warm::default(),
            &None,
        );
        out.check(daemon::check_reference(label, &r, true));
        expected.push(r.response);
    }

    let v = &mut report.values;
    if args.trace {
        // The daemon's per-request work replayed with its warm state; each
        // replay must render its query's batch document too.
        let warm = daemon::Warm::of(&state);
        let mut samples = Vec::new();
        for _ in 0..REPLAY_REPS {
            let cursor = trace::cursor(tele);
            let mut counts = Counts::default();
            for q in &queries {
                let r = daemon::batch_response(program, hierarchy, &taint, &q.request, &warm, tele);
                r.run
                    .iter()
                    .flat_map(daemon::solver_runs)
                    .for_each(|s| counts.add(s));
                out.check(if r.response == expected[q.kind] {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: warm replay differs from the batch rendering",
                        daemon::KINDS[q.kind]
                    ))
                });
            }
            samples.push(layer_sample(tele, cursor, &counts));
        }
        fold_median(v, &samples);

        // The warm first pass ServiceState::new computes, replayed through
        // the public calls so its layers can be timed.
        let cursor = trace::cursor(tele);
        let hierarchy = time(tele, "ClassHierarchy::new", || ClassHierarchy::new(program));
        let config = SolverConfig::default();
        let replay = time(tele, "analyze_flavor", || {
            analyze_flavor(program, &hierarchy, Flavor::Insensitive, &config)
        });
        out.check(if replay.stats.canonical() == insens.stats.canonical() {
            Ok(())
        } else {
            Err("warm first pass differs from a batch insensitive run".to_owned())
        });
        v.insert(
            "ir.hierarchy_s",
            trace::sum_since(tele, cursor, "ClassHierarchy::new"),
        );
        v.insert(
            "solver.first_pass_s",
            trace::sum_since(tele, cursor, "analyze_flavor"),
        );
    }

    let window = Duration::from_secs_f64(args.seconds / if args.trace { 2.0 } else { 1.0 });
    let (plain, wall) = daemon::drive(server, &queries, &expected, args.seed, window, &None);
    let mut counters = service_counters(&state);
    drop(state);
    for _ in 0..SETUP_SLICES / 2 {
        setup.slice(&mut set_up);
    }
    for s in &plain {
        out.check(s.failure.clone().map_or(Ok(()), Err));
    }
    let (p50, p95, rps, round) = request_metrics(&plain, wall);
    v.insert("setup_s", setup.value());
    v.insert("batch_s_p50", round);
    v.insert("request_ms_p50", p50);
    v.insert("request_ms_p95", p95);
    v.insert("requests_per_s", rps);
    v.insert("workloads.build_s", median(&build));
    v.insert("service.state_new_s", median(&state_new));
    eprintln!(
        "perfbench: {} requests in {wall:.2}s ({} beyond p95)",
        plain.len(),
        plain.iter().filter(|s| s.latency_s * 1e3 > p95).count()
    );
    if plain.len() < 200 {
        eprintln!("perfbench: warning: fewer than 200 requests; p95 rests on under 10 samples");
    }
    report.samples = vec![
        ("setup_slices", setup.0.len()),
        ("setups", setup.reps()),
        (
            "rounds",
            plain.iter().filter(|s| s.round_complete).count() / daemon::KINDS.len(),
        ),
        ("requests", plain.len()),
    ];

    if args.trace {
        let (program, taint) = daemon::load(args.seed);
        let (server, state) = daemon::start(program, taint, &None, tele.clone());
        let cursor = trace::cursor(tele);
        let (traced, _) = daemon::drive(server, &queries, &expected, args.seed, window, tele);
        report.samples.push(("traced_requests", traced.len()));
        for s in &traced {
            out.check(s.failure.clone().map_or(Ok(()), Err));
        }
        let lat = |kind: Option<usize>| -> f64 {
            let xs: Vec<f64> = traced
                .iter()
                .filter(|s| kind.is_none_or(|k| s.kind == k))
                .map(|s| s.latency_s * 1e3)
                .collect();
            median(&xs)
        };
        for (k, kind) in daemon::KINDS.iter().enumerate() {
            let name: &'static str = PER_LAYER
                .iter()
                .map(|&(n, _)| n)
                .find(|n| *n == format!("service.{kind}_ms_p50"))
                .expect("per-kind metric listed");
            v.insert(name, lat(Some(k)));
        }
        // The server's own `rung` spans, on its per-connection lanes.
        let execute: Vec<f64> = trace::spans(tele)[cursor..]
            .iter()
            .filter(|s| s.name == "rung" && s.lane != COORDINATOR_LANE)
            .map(|s| s.dur_us() as f64 / 1e3)
            .collect();
        v.insert("service.execute_ms_p50", median(&execute));
        v.insert("service.overhead_ms_p50", lat(None) - median(&execute));
        v.insert("trace.request_ms_p50_overhead", lat(None) - p50);
        for (c, n) in counters.iter_mut().zip(service_counters(&state)) {
            *c += n;
        }
    }
    let [accepted, shed, degraded, hits, misses] = counters;
    v.insert("service.summary_cache_hit_frac", frac(hits, hits + misses));
    v.insert("service.shed_frac", frac(shed, accepted + shed));
    v.insert("supervisor.degraded_frac", frac(degraded, accepted));
    report
}

/// `[accepted, shed, degraded, summary cache hits, misses]`.
fn service_counters(state: &rudoop_core::service::ServiceState) -> [u64; 5] {
    let c = &state.counters;
    [
        c.accepted.load(Ordering::Relaxed),
        c.shed.load(Ordering::Relaxed),
        c.degraded.load(Ordering::Relaxed),
        c.summary_cache_hits.load(Ordering::Relaxed),
        c.summary_cache_misses.load(Ordering::Relaxed),
    ]
}

/// The current commit when run from a git checkout, read from `.git`
/// directly; `unknown` otherwise.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_owned()
        } else {
            head.to_owned()
        };
    };
    std::fs::read_to_string(format!(".git/{reference}"))
        .ok()
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            std::fs::read_to_string(".git/packed-refs")
                .ok()
                .and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_owned)
                })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tele: TelemetryHandle = args.trace.then(|| Arc::new(Telemetry::new()));
    let report = {
        let _run = span_opt(&tele, &args.workload);
        match args.workload.as_str() {
            "ctx-deep" => run_batch(batch::CTX_DEEP, &args, &tele),
            "intro-wide" => run_batch(batch::INTRO_WIDE, &args, &tele),
            _ => run_daemon(&args, &tele),
        }
    };
    let mut outcome = report.outcome;
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    let context =
        format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cpus\": {}, \
         \"profile\": \"{}\", \"commit\": \"{}\", \"derivation_budget\": {}, \"samples\": {{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        commit(),
        rudoop_perfbench::DERIVATION_BUDGET,
        samples.join(", "),
    );
    let mut values = report.values;
    values.insert("peak_rss_mb", peak_rss_mb());
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in table {
        outcome.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
    if let Some(t) = tele.as_deref() {
        let dir = Path::new(
            &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_owned()),
        )
        .join("perfbench-traces");
        let stem = dir.join(format!("{}-seed{}", args.workload, args.seed));
        let spans: Vec<SpanRecord> = t.spans();
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(stem.with_extension("profile.json"), t.profile_json())?;
            std::fs::write(
                stem.with_extension("self.json"),
                trace::render_self_times(&context, &spans),
            )
        });
        match written {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}.{{profile,self}}.json",
                spans.len(),
                stem.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", stem.display()),
        }
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    println!("{context}");
    println!("{}", outcome.render());
    ExitCode::SUCCESS
}
