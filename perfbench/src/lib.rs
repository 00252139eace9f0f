//! # rudoop-perfbench
//!
//! The repo benchmark: one offline command that generates its inputs from
//! a seed, drives three workloads through the public API of `rudoop-ir`,
//! `rudoop-core` and `rudoop-analyses`, checks every output, and prints
//! end-to-end metrics (untraced run) or per-layer metrics (traced run).
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload ctx-deep --seed 0 --seconds 35 --trace 0
//! ```
//!
//! Workloads (all analysis sequential, at most two threads of load):
//!
//! - `ctx-deep` ([`batch::CTX_DEEP`]): full `2objH` on `bloat` and
//!   `2objH`-IntroB on `hsqldb` — many contexts, the solver's
//!   context-qualified drain loop and `project`.
//! - `intro-wide` ([`batch::INTRO_WIDE`]): the paper's two-pass pipeline
//!   (Heuristic A, refined `2objH`) plus the context-free `cutshortcut` and
//!   `summaries` engines on `jython` and `hsqldb` — few contexts, large sets.
//! - `daemon-mix` ([`daemon`]): an in-process daemon serving `pmd` to two
//!   closed-loop clients, a fresh connection per request.
//!
//! A *request* is one job (program text to rendered report) in the batch
//! workloads and one query in `daemon-mix`; a *pass* is one run over the
//! job list, or one client's round over the eight query kinds. Batch
//! request percentiles are taken over the job list, each job at its median
//! time across the run's passes; daemon percentiles over every request.
//!
//! `--seed 0` keeps the `dacapo.rs` spec seeds; any other seed re-seeds
//! the program generators, the daemon's `pts` variable and its query
//! order. The generated programs are isomorphic at every seed (see
//! [`pins`]), so every run checks its outputs against the pinned values as
//! well as the seed-independent invariants ([`batch::check_subset`],
//! daemon responses byte-identical to batch rendering, run-to-run
//! determinism).

#![forbid(unsafe_code)]

use rudoop_core::solver::Budget;
use rudoop_ir::rng::SplitMix64;
use rudoop_workloads::{dacapo, WorkloadSpec};

pub mod batch;
pub mod daemon;
pub mod pins;
pub mod trace;

/// The standard per-job derivation budget: a context blow-up fails its
/// job instead of hanging the run.
pub const DERIVATION_BUDGET: u64 = 30_000_000;

/// The standard budget.
pub fn standard_budget() -> Budget {
    Budget::derivations(DERIVATION_BUDGET)
}

/// The spec of DaCapo-shaped benchmark `name` under workload seed `seed`:
/// seed 0 is the `dacapo.rs` spec as written, any other seed re-seeds its
/// generator (sizes stay those of the spec).
///
/// # Panics
///
/// Panics on an unknown benchmark name.
pub fn spec(name: &str, seed: u64) -> WorkloadSpec {
    let mut spec = dacapo::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    if seed != 0 {
        spec.seed = SplitMix64::new(seed ^ spec.seed.rotate_left(32)).next_u64();
    }
    spec
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What a workload run reports: the check tally and named metrics with
/// their units, in output order.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outputs were checked (jobs, requests, reference
    /// renderings).
    pub attempted: u64,
    /// Of those, the ones that errored, mismatched, exhausted a budget
    /// unexpectedly, were shed, or failed in transport.
    pub failed: u64,
    /// First few failure descriptions, for stderr.
    pub failures: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records one checked operation; `Err` counts it as failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
