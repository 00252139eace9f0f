//! The traced run's spans.
//!
//! A traced run records into one program [`Telemetry`]: the benchmark's
//! spans around each public call it makes (lane 0, nested RAII spans), the
//! daemon clients' request spans (lanes 1 and 2, with the request id), the
//! service's per-connection spans, and — through `SolverConfig::telemetry`
//! — the program's own phase spans (`solve`, `project`, `first-pass`,
//! `introspection`, `summaries-pass`, `cutshortcut-pass`, …), which nest
//! under the benchmark span open at the time. The benchmark adds no span
//! inside the program.
//!
//! An untraced run passes no handle, so nothing is recorded and the
//! program runs exactly as a user calls it.

use std::collections::BTreeMap;

use rudoop_core::telemetry::{span_opt, SpanRecord, Telemetry, TelemetryHandle};

/// Runs `f` inside a lane-0 span named `name` (nothing is recorded
/// without a handle).
pub fn time<T>(tele: &TelemetryHandle, name: &str, f: impl FnOnce() -> T) -> T {
    let _span = span_opt(tele, name);
    f()
}

/// The spans recorded so far (none without a handle).
pub fn spans(tele: &TelemetryHandle) -> Vec<SpanRecord> {
    tele.as_deref().map(Telemetry::spans).unwrap_or_default()
}

/// Number of spans recorded so far: a cursor for [`sum_since`].
pub fn cursor(tele: &TelemetryHandle) -> usize {
    spans(tele).len()
}

/// Total seconds of the spans named `name` that closed at or after
/// `cursor`.
pub fn sum_since(tele: &TelemetryHandle, cursor: usize, name: &str) -> f64 {
    sum(&spans(tele)[cursor..], name)
}

/// Total seconds of the spans named `name` in `spans`.
pub fn sum(spans: &[SpanRecord], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us() as f64 / 1e6)
        .sum()
}

/// Per-name `(count, total seconds, self seconds)`, where self time is a
/// span's duration minus that of its direct children. A span's parent is
/// the innermost span of the same lane, one level shallower, open when it
/// started.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].lane, spans[i].start_us, spans[i].depth));
    let mut child_us = vec![0u64; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while open
            .last()
            .is_some_and(|&p| spans[p].lane != s.lane || spans[p].depth >= s.depth)
        {
            open.pop();
        }
        if let Some(&p) = open.last() {
            child_us[p] += s.dur_us();
        }
        open.push(i);
    }
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_us) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.dur_us() as f64 / 1e6;
        e.2 += s.dur_us().saturating_sub(children) as f64 / 1e6;
    }
    out
}

/// The self-time document: the run's context and the per-name table.
pub fn render_self_times(context: &str, spans: &[SpanRecord]) -> String {
    let rows: Vec<String> = self_times(spans)
        .iter()
        .map(|(name, (count, total, own))| {
            format!(
                "  {}: {{\"count\": {count}, \"total_s\": {total:.6}, \"self_s\": {own:.6}}}",
                rudoop_core::json::escape(name)
            )
        })
        .collect();
    format!(
        "{{\"context\": {context},\n\"self_time\": {{\n{}\n}}}}\n",
        rows.join(",\n")
    )
}
