//! Shared measurement plumbing for the per-figure harness binaries.

use std::time::Duration;

use rudoop_core::driver::{analyze_flavor, analyze_introspective_from, Flavor};
use rudoop_core::heuristics::{HeuristicA, HeuristicB, RefinementHeuristic, RefinementStats};
use rudoop_core::solver::{Budget, Outcome, PointsToResult, SolverConfig};
use rudoop_core::{analyze, Insensitive, PrecisionMetrics};
use rudoop_ir::{ClassHierarchy, Program};

/// The standard derivation budget, playing the role of the paper's
/// 90-minute timeout on a 24 GB machine. All figures use it.
pub const STANDARD_BUDGET: u64 = 30_000_000;

/// One analysis configuration of the evaluation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisVariant {
    /// Context-insensitive baseline.
    Insens,
    /// A full context-sensitive analysis.
    Base(Flavor),
    /// Introspective with Heuristic A (paper constants).
    IntroA(Flavor),
    /// Introspective with Heuristic B (paper constants).
    IntroB(Flavor),
}

impl AnalysisVariant {
    /// Doop-style display name, e.g. `2objH-IntroA`.
    pub fn name(&self, program: &Program) -> String {
        match self {
            AnalysisVariant::Insens => "insens".to_owned(),
            AnalysisVariant::Base(f) => f.name(program),
            AnalysisVariant::IntroA(f) => format!("{}-IntroA", f.name(program)),
            AnalysisVariant::IntroB(f) => format!("{}-IntroB", f.name(program)),
        }
    }
}

/// One measured cell of an evaluation figure.
#[derive(Debug, Clone)]
pub struct MeasuredRun {
    /// Benchmark name.
    pub benchmark: String,
    /// Analysis name (`insens`, `2objH`, `2objH-IntroA`, …).
    pub analysis: String,
    /// Completion status under the budget.
    pub outcome: Outcome,
    /// Derivations performed (the deterministic cost measure).
    pub derivations: u64,
    /// Wall-clock duration of the final (second, for introspective) pass.
    pub duration: Duration,
    /// The paper's three precision metrics (meaningless when the analysis
    /// exceeded the budget; the paper leaves those bars out, and so do we).
    pub precision: PrecisionMetrics,
    /// Refinement selection statistics (introspective variants only).
    pub refinement: Option<RefinementStats>,
    /// Time of the first (insensitive) pass plus metric/selection time
    /// (introspective variants only) — §4's "constant overheads".
    pub overhead: Option<Duration>,
}

impl MeasuredRun {
    /// Whether this run completed within the budget.
    pub fn complete(&self) -> bool {
        self.outcome.is_complete()
    }
}

fn config(budget: u64) -> SolverConfig {
    SolverConfig {
        budget: Budget::derivations(budget),
        ..SolverConfig::default()
    }
}

/// Runs one analysis variant of `program` under the derivation budget.
///
/// Introspective variants reuse `insens_pass` (the shared first pass), as
/// the paper's §4 discussion describes.
pub fn run_variant(
    benchmark: &str,
    program: &Program,
    hierarchy: &ClassHierarchy,
    variant: AnalysisVariant,
    budget: u64,
    insens_pass: &PointsToResult,
) -> MeasuredRun {
    let name = variant.name(program);
    match variant {
        AnalysisVariant::Insens => {
            let r = analyze(program, hierarchy, &Insensitive, &config(budget));
            let precision = PrecisionMetrics::compute(program, hierarchy, &r);
            MeasuredRun {
                benchmark: benchmark.to_owned(),
                analysis: name,
                outcome: r.outcome,
                derivations: r.stats.derivations,
                duration: r.stats.duration,
                precision,
                refinement: None,
                overhead: None,
            }
        }
        AnalysisVariant::Base(flavor) => {
            let r = analyze_flavor(program, hierarchy, flavor, &config(budget));
            let precision = PrecisionMetrics::compute(program, hierarchy, &r);
            MeasuredRun {
                benchmark: benchmark.to_owned(),
                analysis: name,
                outcome: r.outcome,
                derivations: r.stats.derivations,
                duration: r.stats.duration,
                precision,
                refinement: None,
                overhead: None,
            }
        }
        AnalysisVariant::IntroA(flavor) | AnalysisVariant::IntroB(flavor) => {
            let heuristic: Box<dyn RefinementHeuristic> = match variant {
                AnalysisVariant::IntroA(_) => Box::new(HeuristicA::default()),
                _ => Box::new(HeuristicB::default()),
            };
            let run = analyze_introspective_from(
                program,
                hierarchy,
                flavor,
                heuristic.as_ref(),
                &config(budget),
                insens_pass.clone(),
            );
            let precision = PrecisionMetrics::compute(program, hierarchy, &run.result);
            MeasuredRun {
                benchmark: benchmark.to_owned(),
                analysis: name,
                outcome: run.result.outcome,
                derivations: run.result.stats.derivations,
                duration: run.result.stats.duration,
                precision,
                refinement: Some(run.refinement_stats),
                overhead: Some(run.first_pass.stats.duration + run.selection_time),
            }
        }
    }
}

/// Runs the insensitive pass once for reuse across introspective variants.
pub fn insens_pass(program: &Program, hierarchy: &ClassHierarchy, budget: u64) -> PointsToResult {
    analyze(program, hierarchy, &Insensitive, &config(budget))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rudoop_workloads::dacapo;

    #[test]
    fn variant_names_match_paper_convention() {
        let p = dacapo::antlr().build();
        assert_eq!(AnalysisVariant::Insens.name(&p), "insens");
        assert_eq!(AnalysisVariant::Base(Flavor::OBJ2H).name(&p), "2objH");
        assert_eq!(
            AnalysisVariant::IntroA(Flavor::OBJ2H).name(&p),
            "2objH-IntroA"
        );
        assert_eq!(
            AnalysisVariant::IntroB(Flavor::CALL2H).name(&p),
            "2callH-IntroB"
        );
    }

    #[test]
    fn run_variant_produces_consistent_rows() {
        let p = dacapo::lusearch().build();
        let h = ClassHierarchy::new(&p);
        let insens = insens_pass(&p, &h, STANDARD_BUDGET);
        let row = run_variant(
            "lusearch",
            &p,
            &h,
            AnalysisVariant::Insens,
            STANDARD_BUDGET,
            &insens,
        );
        assert!(row.complete());
        assert!(row.derivations > 0);
        let row = run_variant(
            "lusearch",
            &p,
            &h,
            AnalysisVariant::IntroA(Flavor::OBJ2H),
            STANDARD_BUDGET,
            &insens,
        );
        assert!(row.refinement.is_some());
        assert!(row.overhead.is_some());
    }
}
