//! The `daemon-mix` workload: an in-process daemon serving `pmd`, set up
//! as `rudoopd @pmd --taint-spec builtin --races` is (2 workers, queue of
//! 4), driven by two closed-loop clients through the service client,
//! which opens a fresh connection per request as `rudoop query` does.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rudoop_analyses::{LintContext, LintRegistry};
use rudoop_core::driver::Flavor;
use rudoop_core::races::{supervised_races, SupervisedRaces};
use rudoop_core::service::client::send_once;
use rudoop_core::service::protocol::{BudgetSpec, DocFormat, QueryRequest, Request, Response};
use rudoop_core::service::server::{Server, ServerHandle};
use rudoop_core::service::{QueryHandler, ServiceConfig, ServiceState};
use rudoop_core::solver::{Budget, PointsToResult, SolverConfig, SolverStats};
use rudoop_core::stats::{render_dump, render_pts, ResultStats};
use rudoop_core::summaries::SummaryTable;
use rudoop_core::supervisor::{supervise, LadderSpec, SupervisedRun, SupervisorConfig};
use rudoop_core::taint::{supervised_taint, SupervisedTaint};
use rudoop_core::telemetry::TelemetryHandle;
use rudoop_ir::rng::SplitMix64;
use rudoop_ir::{ClassHierarchy, Program, TaintSpec};
use rudoop_workloads::WorkloadSpec;

use crate::trace::time;

/// The served benchmark.
pub const PROGRAM: &str = "pmd";

/// The query kinds of the mix, in index order. `stats_summaries` is
/// `stats` under the `summaries` ladder (warm-cache hits after the first);
/// `stats_budget` is `stats` under a derivation budget below what the top
/// `2objH` rung needs, so the ladder degrades.
pub const KINDS: [&str; 8] = [
    "stats",
    "pts",
    "taint",
    "races",
    "lints",
    "dump",
    "stats_summaries",
    "stats_budget",
];

/// The `pmd` program under `seed` with its taint and concurrency batteries
/// on, and the builtin taint spec.
pub fn load(seed: u64) -> (Program, TaintSpec) {
    load_spec(crate::spec(PROGRAM, seed))
}

/// [`load`] for an explicit spec.
pub fn load_spec(mut spec: WorkloadSpec) -> (Program, TaintSpec) {
    spec.taint_flows = spec.taint_flows.max(1);
    spec.concurrency = spec.concurrency.max(2);
    let program = spec.build();
    let taint = spec.taint_spec(&program);
    (program, taint)
}

/// The `lints` query handler — the default lint suite over the request's
/// completed points-to result, as `rudoopd` registers it.
struct LintsHandler;

impl QueryHandler for LintsHandler {
    fn handle(
        &self,
        program: &Program,
        hierarchy: &ClassHierarchy,
        result: &PointsToResult,
        format: DocFormat,
    ) -> Result<String, String> {
        Ok(render_lints(program, hierarchy, result, format))
    }
}

fn render_lints(
    program: &Program,
    hierarchy: &ClassHierarchy,
    result: &PointsToResult,
    format: DocFormat,
) -> String {
    let cx = LintContext {
        program,
        hierarchy,
        points_to: Some(result),
        taint: None,
        races: None,
    };
    let diags = LintRegistry::with_defaults().run(&cx);
    match format {
        DocFormat::Json => rudoop_analyses::render_json(program, &diags),
        DocFormat::Text => rudoop_analyses::render(program, &diags),
    }
}

/// The daemon's set-up: resident state (interning, hierarchy, warm first
/// pass) and a listener bound to a free localhost port, timed as spans on
/// `tele`; the service itself records its per-connection spans on
/// `service_telemetry`. Returns the server and a handle on its state, for
/// the service counters.
pub fn start(
    program: Program,
    taint: TaintSpec,
    tele: &TelemetryHandle,
    service_telemetry: TelemetryHandle,
) -> (Server, Arc<ServiceState>) {
    let config = ServiceConfig {
        taint_spec: Some(taint),
        telemetry: service_telemetry,
        ..ServiceConfig::default()
    };
    let mut state = time(tele, "ServiceState::new", || {
        ServiceState::new(program, config)
    });
    state.register_handler("lints", Box::new(LintsHandler));
    let state = Arc::new(state);
    let server = time(tele, "Server::bind", || {
        Server::bind(Arc::clone(&state), "127.0.0.1:0")
    })
    .expect("bind a localhost port");
    (server, state)
}

/// One query of the mix.
#[derive(Debug, Clone)]
pub struct Query {
    /// Index into [`KINDS`].
    pub kind: usize,
    /// The wire request.
    pub request: QueryRequest,
}

fn query(kind: usize, wire_kind: &str) -> Query {
    Query {
        kind,
        request: QueryRequest {
            kind: wire_kind.to_owned(),
            format: DocFormat::Json,
            budget: BudgetSpec {
                derivations: Some(crate::DERIVATION_BUDGET),
                ..BudgetSpec::default()
            },
            ..QueryRequest::default()
        },
    }
}

/// The mix's eight queries. The `pts` variable is drawn by `seed` from the
/// variables the insensitive pass `insens` gives a non-empty set;
/// `stats_budget` gets `degrade_budget` derivations.
pub fn queries(
    program: &Program,
    insens: &PointsToResult,
    seed: u64,
    degrade_budget: u64,
) -> Vec<Query> {
    let candidates: Vec<_> = program
        .vars
        .ids()
        .filter(|&v| !insens.points_to(v).is_empty())
        .collect();
    let var = candidates[SplitMix64::new(seed).below(candidates.len())];
    KINDS
        .iter()
        .enumerate()
        .map(|(i, &label)| {
            let mut q = query(i, label.split('_').next().unwrap_or(label));
            match label {
                "pts" => q.request.var = Some(program.var_display(var)),
                "stats_summaries" => q.request.ladder = Some("summaries".to_owned()),
                "stats_budget" => q.request.budget.derivations = Some(degrade_budget),
                _ => {}
            }
            q
        })
        .collect()
}

/// What a resident daemon hands each request's supervised run: its warm
/// insensitive first pass and its warm summary table. The default is a
/// cold batch run's: neither.
#[derive(Clone, Default)]
pub struct Warm {
    /// The warm first pass.
    pub first_pass: Option<Arc<PointsToResult>>,
    /// The warm summary table.
    pub summaries: Option<Arc<SummaryTable>>,
}

impl Warm {
    /// The warm state of `state`: its first pass, and the summary table it
    /// computes on its first `summaries` request (a pure function of the
    /// program, computed here directly so the daemon's cache counters stay
    /// untouched).
    pub fn of(state: &ServiceState) -> Warm {
        Warm {
            first_pass: state.warm_first_pass().cloned(),
            summaries: Some(Arc::new(SummaryTable::compute(
                &state.program,
                &state.hierarchy,
            ))),
        }
    }
}

/// A query's batch rendering and what produced it.
pub struct Reference {
    /// The response a cold batch run renders.
    pub response: Response,
    /// The supervised run behind it.
    pub run: Option<SupervisedRun>,
    /// The leak count of a `taint` query or the race count of a `races`
    /// query.
    pub headline: Option<usize>,
}

/// The batch rendering of `query`: the supervised run a batch invocation
/// makes, given the `warm` state a daemon would supply (a cold run with
/// [`Warm::default`]), rendered with the renderers the CLI prints. The
/// program's phase spans and a span around each client go to `tele`.
pub fn batch_response(
    program: &Program,
    hierarchy: &ClassHierarchy,
    taint: &TaintSpec,
    query: &QueryRequest,
    warm: &Warm,
    tele: &TelemetryHandle,
) -> Reference {
    let ladder = match &query.ladder {
        Some(spec) => match LadderSpec::parse(spec) {
            Ok(l) => l,
            Err(e) => {
                return Reference {
                    response: error(format!("bad ladder spec: {e}")),
                    run: None,
                    headline: None,
                }
            }
        },
        None => LadderSpec::default_for(Flavor::OBJ2H),
    };
    let mut budget = Budget::unlimited();
    if let Some(n) = query.budget.derivations {
        budget = budget.and_derivations(n);
    }
    let cfg = SupervisorConfig {
        ladder,
        budget,
        solver: SolverConfig {
            record_contexts: matches!(query.kind.as_str(), "taint" | "races"),
            telemetry: tele.clone(),
            ..SolverConfig::default()
        },
        warm_first_pass: warm.first_pass.clone(),
        warm_summaries: warm.summaries.clone(),
        ..SupervisorConfig::default()
    };
    let run = supervise(program, hierarchy, &cfg);
    let mut headline = None;
    let no_facts = "no facts to report: every rung exhausted before salvaging anything";
    let doc: Result<String, String> = match query.kind.as_str() {
        "taint" => {
            let t = time(tele, "supervised_taint", || {
                supervised_taint(program, taint, &run)
            });
            if let SupervisedTaint::Analyzed(t) = &t {
                headline = Some(t.leaks.len());
            }
            Ok(rudoop_core::taint::render_json(program, &t))
        }
        "races" => {
            let r = time(tele, "supervised_races", || supervised_races(program, &run));
            if let SupervisedRaces::Analyzed(r) = &r {
                headline = Some(r.races.len());
            }
            Ok(rudoop_core::races::render_json(program, &r))
        }
        "lints" => match &run.result {
            Some(result) => Ok(time(tele, "LintRegistry::run", || {
                render_lints(program, hierarchy, result, query.format)
            })),
            None => {
                Err("analysis did not complete: extension queries need a completed rung".into())
            }
        },
        "stats" => run
            .best_result()
            .map(|r| {
                time(tele, "ResultStats::render", || {
                    ResultStats::compute(program, r, 10).render(program)
                })
            })
            .ok_or_else(|| no_facts.to_owned()),
        "dump" => run
            .best_result()
            .map(|r| time(tele, "render_dump", || render_dump(program, r)))
            .ok_or_else(|| no_facts.to_owned()),
        "pts" => {
            let var = query.var.as_deref().unwrap_or_default();
            match run.best_result() {
                Some(r) => render_pts(program, r, var)
                    .ok_or_else(|| format!("no variable matches {var:?}")),
                None => Err(no_facts.to_owned()),
            }
        }
        other => Err(format!("unknown query kind {other:?}")),
    };
    let response = match doc {
        Ok(doc) => Response::Doc {
            status: run.verdict.to_string(),
            exit_code: run.exit_code(),
            analysis: run.final_analysis().map(str::to_owned),
            doc,
        },
        Err(message) => error(message),
    };
    Reference {
        response,
        run: Some(run),
        headline,
    }
}

fn error(message: String) -> Response {
    Response::Error { message }
}

/// The solver runs a supervised run performed: every attempted rung's
/// final pass (exhausted ones included), and the first pass when the run
/// computed one rather than reusing a warm one.
pub fn solver_runs(run: &SupervisedRun) -> impl Iterator<Item = &SolverStats> {
    let first = run
        .first_pass_stats
        .as_ref()
        .filter(|_| run.first_pass_runs > 0);
    first
        .into_iter()
        .chain(run.attempts.iter().map(|a| &a.stats))
}

/// The mix for a started daemon, drawn from `seed`. The degrading
/// request's budget lies midway between the derivations of the warm
/// insensitive pass and those of the complete top rung of a plain `stats`
/// query: the top rung exhausts it, the insensitive floor fits.
///
/// # Panics
///
/// Panics when the daemon has no warm first pass or no taint spec.
pub fn plan_queries(state: &ServiceState, seed: u64) -> Vec<Query> {
    let insens = state.warm_first_pass().expect("warm first pass");
    let taint = state.config.taint_spec.as_ref().expect("taint spec");
    let probe = queries(&state.program, insens, seed, 0);
    let top = batch_response(
        &state.program,
        &state.hierarchy,
        taint,
        &probe[0].request,
        &Warm::default(),
        &None,
    );
    let top_derivations = top
        .run
        .as_ref()
        .and_then(|r| r.result.as_ref())
        .map_or(0, |r| r.stats.derivations);
    queries(
        &state.program,
        insens,
        seed,
        (insens.stats.derivations + top_derivations) / 2,
    )
}

/// Checks a daemon query's batch rendering: a document, degraded exactly
/// for the budgeted query, and with `pinned` the taint/race headlines
/// [`crate::pins`] holds for the full-size workload (at every seed).
pub fn check_reference(label: &str, r: &Reference, pinned: bool) -> Result<(), String> {
    let Response::Doc { status, .. } = &r.response else {
        return Err(format!("{label}: batch rendering failed: {:?}", r.response));
    };
    let want = if label == "stats_budget" {
        "degraded"
    } else {
        "complete"
    };
    if status != want {
        return Err(format!("{label}: ladder verdict {status}, expected {want}"));
    }
    if matches!(label, "taint" | "races") {
        let n = r
            .headline
            .ok_or_else(|| format!("{label}: the client was skipped"))?;
        eprintln!("perfbench: {label} headline {n}");
        if pinned && crate::pins::headline(label) != Some(n) {
            return Err(format!(
                "{label}: headline {n} differs from pinned {:?}",
                crate::pins::headline(label)
            ));
        }
    }
    Ok(())
}

/// One client-observed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The client (1 or 2).
    pub client: u32,
    /// Index into [`KINDS`].
    pub kind: usize,
    /// Client-observed latency, seconds.
    pub latency_s: f64,
    /// The client's round the request belongs to.
    pub round: u64,
    /// Whether the round was finished before the deadline.
    pub round_complete: bool,
    /// Why the request failed, if it did.
    pub failure: Option<String>,
}

/// The query both clients open with, released together: `races` records
/// full context-sensitive facts, so two of them in flight at once put the
/// daemon at its two-request memory peak in every run, not only when the
/// seeded orders happen to align.
const OPENING: usize = 3;

/// Closed-loop client `lane` (1 or 2): rounds of the eight queries in a
/// seeded order (the first round led by [`OPENING`], sent once every
/// client has reached `start`), each sent through `client::send_once` and
/// its response waited for, until `deadline`. Every response is compared
/// byte for byte to `expected`. Each request is a span on `tele`, on the
/// client's lane, with its request id.
#[allow(clippy::too_many_arguments)]
pub fn client(
    lane: u32,
    addr: &str,
    queries: &[Query],
    expected: &[Response],
    seed: u64,
    start: &Barrier,
    deadline: Instant,
    tele: &TelemetryHandle,
) -> Vec<Sample> {
    let mut rng = SplitMix64::new(seed);
    let mut samples = Vec::new();
    // Request ids are unique across clients: lane × 10^6 + n.
    let mut req = u64::from(lane) * 1_000_000;
    start.wait();
    for round in 0u64.. {
        let mut order: Vec<usize> = (0..queries.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        if round == 0 {
            let at = order
                .iter()
                .position(|&k| k == OPENING)
                .expect("opening kind");
            order.swap(0, at);
        }
        let first = samples.len();
        for k in order {
            if Instant::now() >= deadline {
                return samples;
            }
            req += 1;
            let request = Request::Query(queries[k].request.clone());
            let start = Instant::now();
            let start_us = tele.as_deref().map(|t| t.now_us());
            let response = send_once(addr, &request);
            let latency_s = start.elapsed().as_secs_f64();
            if let (Some(t), Some(start_us)) = (tele.as_deref(), start_us) {
                let args = vec![
                    ("req".to_owned(), req.to_string()),
                    ("kind".to_owned(), KINDS[k].to_owned()),
                ];
                t.complete_span(lane, "client::send_once", start_us, t.now_us(), args);
            }
            let failure = match response {
                Err(e) => Some(format!("{}: transport: {e}", KINDS[k])),
                Ok(Response::Busy { .. }) => Some(format!("{}: shed (busy)", KINDS[k])),
                Ok(r) if r != expected[k] => Some(format!(
                    "{}: response differs from the batch rendering",
                    KINDS[k]
                )),
                Ok(_) => None,
            };
            samples.push(Sample {
                client: lane,
                kind: k,
                latency_s,
                round,
                round_complete: false,
                failure,
            });
        }
        for s in &mut samples[first..] {
            s.round_complete = true;
        }
    }
    samples
}

/// Serves on `server` with two closed-loop clients for `window`, then
/// stops the server and joins every thread. Returns the samples and the
/// wall time of the window.
pub fn drive(
    server: Server,
    queries: &[Query],
    expected: &[Response],
    seed: u64,
    window: Duration,
    tele: &TelemetryHandle,
) -> (Vec<Sample>, f64) {
    let handle: ServerHandle = server.spawn().expect("spawn the server thread");
    let addr = handle.addr().to_string();
    let start = Instant::now();
    let deadline = start + window;
    let opening = &Barrier::new(2);
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = (1..=2u32)
            .map(|lane| {
                let addr = &addr;
                s.spawn(move || {
                    let client_seed = SplitMix64::new(seed ^ (u64::from(lane) << 40)).next_u64();
                    client(
                        lane,
                        addr,
                        queries,
                        expected,
                        client_seed,
                        opening,
                        deadline,
                        tele,
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    handle.stop();
    (samples, wall)
}
