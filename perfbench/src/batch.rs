//! The batch workloads: jobs that take a program from text to a rendered
//! precision report through the public pipeline, and their output checks.

use std::collections::HashMap;

use rudoop_core::clients::PrecisionMetrics;
use rudoop_core::driver::{analyze_flavor, analyze_introspective, Flavor};
use rudoop_core::heuristics::{HeuristicA, HeuristicB, RefinementHeuristic, RefinementStats};
use rudoop_core::introspection::IntrospectionMetrics;
use rudoop_core::solver::{PointsToResult, SolverConfig, SolverStats};
use rudoop_core::stats::ResultStats;
use rudoop_core::telemetry::{span_opt, TelemetryHandle};
use rudoop_ir::{parse_program, print_program, ClassHierarchy, Program};

use crate::trace::time;

/// One batch job: a DaCapo-shaped program and an analysis, either a flavor
/// name (`2objH`, `cutshortcut`, `summaries`, …) or `introA:`/`introB:`
/// followed by the refined flavor — the ladder-string spelling.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// `dacapo.rs` benchmark name.
    pub program: &'static str,
    /// Analysis spec.
    pub analysis: &'static str,
}

const fn job(program: &'static str, analysis: &'static str) -> Job {
    Job { program, analysis }
}

/// `ctx-deep`: the many-contexts regime.
pub const CTX_DEEP: &[Job] = &[job("bloat", "2objH"), job("hsqldb", "introB:2objH")];

/// `intro-wide`: the one-context regime — the two-pass pipeline and the
/// two context-free engines on the same programs.
pub const INTRO_WIDE: &[Job] = &[
    job("jython", "introA:2objH"),
    job("hsqldb", "introA:2objH"),
    job("jython", "cutshortcut"),
    job("hsqldb", "cutshortcut"),
    job("jython", "summaries"),
    job("hsqldb", "summaries"),
];

impl Job {
    /// `program/analysis`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.program, self.analysis)
    }

    /// The flavor and, for introspective jobs, the heuristic letter.
    pub fn parse(&self) -> Result<(Flavor, Option<char>), String> {
        let (heuristic, flavor) = match self.analysis.split_once(':') {
            Some(("introA", rest)) => (Some('A'), rest),
            Some(("introB", rest)) => (Some('B'), rest),
            Some((other, _)) => return Err(format!("unknown rung prefix {other:?}")),
            None => (None, self.analysis),
        };
        let flavor = Flavor::parse(flavor).map_err(|e| e.to_string())?;
        Ok((flavor, heuristic))
    }
}

fn heuristic(letter: char) -> Box<dyn RefinementHeuristic> {
    if letter == 'A' {
        Box::new(HeuristicA::default())
    } else {
        Box::new(HeuristicB::default())
    }
}

/// The distinct programs of `jobs`, generated under `seed` and printed to
/// text (the batch workloads' set-up).
pub fn generate(jobs: &[Job], seed: u64, tele: &TelemetryHandle) -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = Vec::new();
    for j in jobs {
        if out.iter().all(|(name, _)| *name != j.program) {
            let mut program = time(tele, "WorkloadSpec::build", || {
                crate::spec(j.program, seed).build()
            });
            qualify_fields(&mut program);
            let text = time(tele, "print_program", || print_program(&program));
            out.push((j.program, text));
        }
    }
    out
}

/// Renames every field whose name more than one class declares to
/// `name_<field index>`.
///
/// The generated workloads reuse field names across classes (`store`, …),
/// and the textual form resolves fields by bare name, so `print_program`
/// output of these programs does not parse back ("ambiguous field name").
/// Field access is by id, so the renaming changes no analysis result.
pub fn qualify_fields(program: &mut Program) {
    let mut uses: HashMap<String, usize> = HashMap::new();
    for f in program.fields.values() {
        *uses.entry(f.name.clone()).or_default() += 1;
    }
    for (i, f) in program.fields.values_mut().enumerate() {
        if uses[&f.name] > 1 {
            f.name = format!("{}_{i}", f.name);
        }
    }
}

/// Everything one job produced.
pub struct JobOutput {
    /// The parsed program.
    pub program: Program,
    /// The final (refined or context-free) result.
    pub result: PointsToResult,
    /// The insensitive first pass of an introspective job.
    pub first_pass: Option<PointsToResult>,
    /// The heuristic of an introspective job.
    pub heuristic: Option<char>,
    /// The refinement selection statistics of an introspective job.
    pub refinement: Option<RefinementStats>,
    /// The precision clients' triple.
    pub precision: PrecisionMetrics,
    /// The rendered report.
    pub report: String,
}

fn counters(s: &SolverStats) -> String {
    let s = s.canonical();
    format!(
        "{}/{}/{}/{}/{}/{}/{}/{}/{}",
        s.derivations,
        s.cs_var_points_to,
        s.cs_field_points_to,
        s.call_graph_edges,
        s.reachable_contexts,
        s.contexts,
        s.heap_contexts,
        s.nodes,
        s.edges
    )
}

impl JobOutput {
    /// The job's deterministic fingerprint: the precision triple, the
    /// canonical solver counters of every pass, and the selection
    /// statistics — what [`crate::pins`] pins.
    pub fn fingerprint(&self) -> String {
        let p = &self.precision;
        let mut out = format!(
            "prec={}/{}/{} main={}",
            p.polymorphic_call_sites,
            p.reachable_methods,
            p.casts_may_fail,
            counters(&self.result.stats)
        );
        if let Some(fp) = &self.first_pass {
            out.push_str(&format!(" first={}", counters(&fp.stats)));
        }
        if let Some(r) = &self.refinement {
            out.push_str(&format!(
                " unrefined={}/{},{}/{}",
                r.objects_not_refined,
                r.objects_total,
                r.call_sites_not_refined,
                r.call_sites_total
            ));
        }
        out
    }

    /// Every solver run of the job.
    pub fn solver_stats(&self) -> impl Iterator<Item = &SolverStats> {
        self.first_pass
            .iter()
            .chain(std::iter::once(&self.result))
            .map(|r| &r.stats)
    }
}

/// The report a job renders: headline, precision triple, and the
/// points-to statistics the CLI prints under `--stats`.
pub fn render_report(program: &Program, result: &PointsToResult, pm: &PrecisionMetrics) -> String {
    format!(
        "analysis {}: {} derivations, {} contexts\n\
         precision: {} polymorphic virtual call sites, {} reachable methods, {} casts may fail\n\n{}",
        result.analysis,
        result.stats.derivations,
        result.stats.contexts,
        pm.polymorphic_call_sites,
        pm.reachable_methods,
        pm.casts_may_fail,
        ResultStats::compute(program, result, 10).render(program)
    )
}

/// Runs `job` on program `text`: parse, hierarchy, analysis under the
/// standard budget, precision clients, render. Errors on a parse failure
/// or an exhausted budget.
pub fn run_job(text: &str, job: &Job, tele: &TelemetryHandle) -> Result<JobOutput, String> {
    let (flavor, letter) = job.parse()?;
    let _job_span = span_opt(tele, &job.label());
    let program = time(tele, "parse_program", || parse_program(text))
        .map_err(|e| format!("{}: parse: {e}", job.label()))?;
    let hierarchy = time(tele, "ClassHierarchy::new", || {
        ClassHierarchy::new(&program)
    });
    let config = SolverConfig {
        budget: crate::standard_budget(),
        telemetry: tele.clone(),
        ..SolverConfig::default()
    };
    let (result, first_pass, refinement) = match letter {
        None => {
            let result = time(tele, "analyze_flavor", || {
                analyze_flavor(&program, &hierarchy, flavor, &config)
            });
            (result, None, None)
        }
        Some(letter) => {
            let h = heuristic(letter);
            let run = time(tele, "analyze_introspective", || {
                analyze_introspective(&program, &hierarchy, flavor, h.as_ref(), &config)
            });
            (run.result, Some(run.first_pass), Some(run.refinement_stats))
        }
    };
    for r in first_pass.iter().chain(std::iter::once(&result)) {
        if !r.outcome.is_complete() {
            return Err(format!(
                "{}: {} stopped early: {}",
                job.label(),
                r.analysis,
                r.exhaustion
                    .map_or("incomplete".to_owned(), |c| c.to_string())
            ));
        }
    }
    let precision = time(tele, "PrecisionMetrics::compute", || {
        PrecisionMetrics::compute(&program, &hierarchy, &result)
    });
    let report = time(tele, "ResultStats::render", || {
        render_report(&program, &result, &precision)
    });
    Ok(JobOutput {
        program,
        result,
        first_pass,
        heuristic: letter,
        refinement,
        precision,
        report,
    })
}

/// Re-runs an introspective job's selection layers standalone on its first
/// pass — timing `IntrospectionMetrics::compute` and
/// `RefinementHeuristic::select` separately — and checks the selection
/// matches the pipeline's.
pub fn replay_selection(out: &JobOutput, tele: &TelemetryHandle) -> Result<(), String> {
    let (Some(first), Some(letter)) = (&out.first_pass, out.heuristic) else {
        return Ok(());
    };
    let metrics = time(tele, "IntrospectionMetrics::compute", || {
        IntrospectionMetrics::compute(&out.program, first)
    });
    let h = heuristic(letter);
    let set = time(tele, "RefinementHeuristic::select", || {
        h.select(&out.program, &metrics, first)
    });
    let stats = RefinementStats::compute(&out.program, first, &set);
    if Some(stats) == out.refinement {
        Ok(())
    } else {
        Err(format!(
            "standalone selection {stats:?} differs from the pipeline's {:?}",
            out.refinement
        ))
    }
}

/// Checks that every projected points-to set of `result` — variables,
/// fields and statics — is a subset of the insensitive `insens` one: the
/// soundness chain every refined or context-free run must keep.
pub fn check_subset(result: &PointsToResult, insens: &PointsToResult) -> Result<(), String> {
    fn subset(small: &[rudoop_ir::AllocId], big: &[rudoop_ir::AllocId]) -> bool {
        small.iter().all(|a| big.binary_search(a).is_ok())
    }
    for (v, pts) in result.var_pts.iter() {
        if !subset(pts, insens.points_to(v)) {
            return Err(format!(
                "{}: var {v:?} not a subset of insens",
                result.analysis
            ));
        }
    }
    for (key, pts) in &result.field_pts {
        if !subset(pts, insens.field_pts.get(key).map_or(&[], Vec::as_slice)) {
            return Err(format!(
                "{}: field {key:?} not a subset of insens",
                result.analysis
            ));
        }
    }
    for (key, pts) in &result.global_pts {
        if !subset(pts, insens.global_pts.get(key).map_or(&[], Vec::as_slice)) {
            return Err(format!(
                "{}: global {key:?} not a subset of insens",
                result.analysis
            ));
        }
    }
    Ok(())
}

/// Checks one job's outputs: soundness against the insensitive
/// reference, with `pinned` the fingerprint [`crate::pins`] holds for the
/// full-size workload (at every seed), and determinism against the job's
/// first output in this run (`first`, filled on first sight).
pub fn check_job(
    o: &JobOutput,
    job: &Job,
    insens: &PointsToResult,
    pinned: bool,
    first: &mut Option<(String, String)>,
) -> Result<(), String> {
    check_subset(&o.result, insens)?;
    if let Some(fp) = &o.first_pass {
        if fp.stats.canonical() != insens.stats.canonical() {
            return Err("first pass differs from the insensitive reference".to_owned());
        }
    }
    let fingerprint = o.fingerprint();
    if pinned {
        match crate::pins::job(&job.label()) {
            Some(pin) if pin == fingerprint => {}
            Some(pin) => {
                return Err(format!(
                    "fingerprint {fingerprint} differs from pinned {pin}"
                ))
            }
            None => return Err(format!("no pinned fingerprint (got {fingerprint})")),
        }
    }
    match first {
        None => {
            eprintln!("perfbench: {} {fingerprint}", job.label());
            *first = Some((fingerprint, o.report.clone()));
        }
        Some((f, r)) => {
            if *f != fingerprint || *r != o.report {
                return Err("output differs from the run's first pass".to_owned());
            }
        }
    }
    Ok(())
}

/// The insensitive reference result of program `text` (untimed; the
/// subset checks' right-hand side).
pub fn insens_reference(text: &str) -> Result<PointsToResult, String> {
    let program = parse_program(text).map_err(|e| e.to_string())?;
    let hierarchy = ClassHierarchy::new(&program);
    let config = SolverConfig {
        budget: crate::standard_budget(),
        ..SolverConfig::default()
    };
    let r = analyze_flavor(&program, &hierarchy, Flavor::Insensitive, &config);
    if r.outcome.is_complete() {
        Ok(r)
    } else {
        Err("insensitive reference stopped early".to_owned())
    }
}
