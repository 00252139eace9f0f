//! Deterministic fault injection for the service layer.
//!
//! Robustness claims need adversarial inputs, and adversarial inputs
//! need to be *reproducible* — a flaky fault is worse than no fault. The
//! daemon's `--inject` flag takes specs in the grammar
//!
//! ```text
//! spec  ::= name [ "=" value ] [ "@req=" K ]
//! name  ::= "drop-after-bytes" | "stall-ms" | "garbage-frame"
//!         | "cancel-mid-rung" | "hold" | "park-rung"
//! ```
//!
//! where `@req=K` pins the fault to the K-th decoded query (1-based,
//! global arrival order; shed requests consume ordinals too). Faults
//! without `@req=` apply to every request. The six faults:
//!
//! - `drop-after-bytes=N[@req=K]` — write only the first `N` bytes of
//!   the response frame, then shut the socket down (a truncated
//!   response, as a crashing peer would produce),
//! - `stall-ms=T@req=K` — sleep `T` ms *while holding the admission
//!   slot*, before the analysis starts (a slow worker, for forcing
//!   overload shedding on concurrent requests),
//! - `garbage-frame@req=K` — answer with a well-framed payload of
//!   SplitMix64 garbage derived from `K` (a corrupted peer; the client
//!   must treat it as a decode error and retry),
//! - `cancel-mid-rung@req=K` — cancel the request's token shortly after
//!   the analysis starts (a client disconnect mid-rung; the supervisor
//!   must salvage partial facts),
//! - `hold@req=K` — park the request *after* its analysis, still holding
//!   its admission slot, on the service's [`HoldLatch`] until an
//!   in-process caller releases it (or the server shuts down). Unlike a
//!   stall, the slot stays occupied for exactly as long as the caller
//!   needs, so overload scenarios do not depend on timing,
//! - `park-rung@req=K` — park the request's first ladder rung until its
//!   watchdog cancels it (the request's `timeout_ms` elapses, or the client
//!   disconnects): a rung that never finishes on its own, so timeout
//!   degradation does not depend on how fast the solver is.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use rudoop_ir::rng::SplitMix64;

/// What a fault does, minus its targeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Truncate the response frame to this many bytes.
    DropAfterBytes(u64),
    /// Sleep this many milliseconds while holding the admission slot.
    StallMs(u64),
    /// Replace the response with a framed garbage payload.
    GarbageFrame,
    /// Cancel the request token shortly after the analysis starts.
    CancelMidRung,
    /// Park after the analysis, holding the admission slot, until the
    /// [`HoldLatch`] is released.
    Hold,
    /// Park the first ladder rung until its watchdog cancels it.
    ParkRung,
}

/// One parsed `--inject` spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The fault.
    pub kind: FaultKind,
    /// The request ordinal it targets (`None` = every request).
    pub req: Option<u64>,
}

/// The daemon's full fault plan (empty in production).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Parses one `--inject` spec.
    pub fn parse_one(spec: &str) -> Result<FaultSpec, String> {
        let (body, req) = match spec.split_once("@req=") {
            Some((body, ord)) => {
                let ord: u64 = ord
                    .parse()
                    .map_err(|_| format!("bad request ordinal in {spec:?} (want @req=K)"))?;
                if ord == 0 {
                    return Err(format!("request ordinals are 1-based in {spec:?}"));
                }
                (body, Some(ord))
            }
            None => (spec, None),
        };
        let (name, value) = match body.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (body, None),
        };
        let parse_value = |what: &str| -> Result<u64, String> {
            value
                .ok_or_else(|| format!("{name} needs ={what} in {spec:?}"))?
                .parse()
                .map_err(|_| format!("bad {what} in {spec:?}"))
        };
        let kind = match name {
            "drop-after-bytes" => FaultKind::DropAfterBytes(parse_value("N")?),
            "stall-ms" => FaultKind::StallMs(parse_value("T")?),
            "garbage-frame" => {
                if value.is_some() {
                    return Err(format!("garbage-frame takes no value in {spec:?}"));
                }
                FaultKind::GarbageFrame
            }
            "cancel-mid-rung" => {
                if value.is_some() {
                    return Err(format!("cancel-mid-rung takes no value in {spec:?}"));
                }
                FaultKind::CancelMidRung
            }
            "hold" => {
                if value.is_some() {
                    return Err(format!("hold takes no value in {spec:?}"));
                }
                FaultKind::Hold
            }
            "park-rung" => {
                if value.is_some() {
                    return Err(format!("park-rung takes no value in {spec:?}"));
                }
                FaultKind::ParkRung
            }
            other => {
                return Err(format!(
                    "unknown fault {other:?} in {spec:?} (want drop-after-bytes, \
                     stall-ms, garbage-frame, cancel-mid-rung, hold, or park-rung)"
                ));
            }
        };
        Ok(FaultSpec { kind, req })
    }

    /// Parses a full plan from repeated `--inject` values.
    pub fn parse(specs: &[String]) -> Result<FaultPlan, String> {
        let specs = specs
            .iter()
            .map(|s| Self::parse_one(s))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultPlan { specs })
    }

    /// Whether any faults are armed at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    fn targeting(&self, req: u64) -> impl Iterator<Item = &FaultSpec> {
        self.specs
            .iter()
            .filter(move |s| s.req.is_none() || s.req == Some(req))
    }

    /// The stall to apply to request `req`, if any.
    pub fn stall_ms(&self, req: u64) -> Option<u64> {
        self.targeting(req).find_map(|s| match s.kind {
            FaultKind::StallMs(t) => Some(t),
            _ => None,
        })
    }

    /// The response-truncation length for request `req`, if any.
    pub fn drop_after_bytes(&self, req: u64) -> Option<u64> {
        self.targeting(req).find_map(|s| match s.kind {
            FaultKind::DropAfterBytes(n) => Some(n),
            _ => None,
        })
    }

    /// Whether request `req` gets a garbage response frame.
    pub fn garbage_frame(&self, req: u64) -> bool {
        self.targeting(req)
            .any(|s| s.kind == FaultKind::GarbageFrame)
    }

    /// Whether request `req` gets cancelled mid-rung.
    pub fn cancel_mid_rung(&self, req: u64) -> bool {
        self.targeting(req)
            .any(|s| s.kind == FaultKind::CancelMidRung)
    }

    /// Whether request `req` parks on the hold latch after its analysis.
    pub fn hold(&self, req: u64) -> bool {
        self.targeting(req).any(|s| s.kind == FaultKind::Hold)
    }

    /// Whether request `req`'s first rung parks until its watchdog fires.
    pub fn park_rung(&self, req: u64) -> bool {
        self.targeting(req).any(|s| s.kind == FaultKind::ParkRung)
    }
}

/// The latch `hold` faults park on. Requests park until [`release`]
/// (which also lets every later `hold` request pass straight through).
///
/// [`release`]: HoldLatch::release
#[derive(Debug, Default)]
pub struct HoldLatch {
    /// `(requests parked so far, released)`.
    state: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl HoldLatch {
    fn lock(&self) -> std::sync::MutexGuard<'_, (usize, bool)> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parks the calling request until the latch is released.
    pub fn park(&self) {
        let mut state = self.lock();
        state.0 += 1;
        self.changed.notify_all();
        while !state.1 {
            state = self.changed.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Waits until at least one request has parked; `false` on timeout.
    pub fn wait_parked(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        while state.0 == 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            state = self
                .changed
                .wait_timeout(state, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        true
    }

    /// Releases every parked request, now and from here on.
    pub fn release(&self) {
        self.lock().1 = true;
        self.changed.notify_all();
    }
}

/// The garbage payload for `garbage-frame@req=K`: 64 bytes derived from
/// `K` via SplitMix64, so every run of the same plan emits the same
/// corruption. The bytes are framed normally — the fault corrupts the
/// payload, not the framing, which is exactly what a confused-but-alive
/// peer produces.
pub fn garbage_payload(req: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(0x6761_7262_6167_6521 ^ req);
    (0..8).flat_map(|_| rng.next_u64().to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        assert_eq!(
            FaultPlan::parse_one("drop-after-bytes=12").unwrap(),
            FaultSpec {
                kind: FaultKind::DropAfterBytes(12),
                req: None
            }
        );
        assert_eq!(
            FaultPlan::parse_one("stall-ms=250@req=3").unwrap(),
            FaultSpec {
                kind: FaultKind::StallMs(250),
                req: Some(3)
            }
        );
        assert_eq!(
            FaultPlan::parse_one("garbage-frame@req=2").unwrap(),
            FaultSpec {
                kind: FaultKind::GarbageFrame,
                req: Some(2)
            }
        );
        assert_eq!(
            FaultPlan::parse_one("cancel-mid-rung@req=1").unwrap(),
            FaultSpec {
                kind: FaultKind::CancelMidRung,
                req: Some(1)
            }
        );
        assert_eq!(
            FaultPlan::parse_one("hold@req=4").unwrap(),
            FaultSpec {
                kind: FaultKind::Hold,
                req: Some(4)
            }
        );
        assert_eq!(
            FaultPlan::parse_one("park-rung@req=1").unwrap(),
            FaultSpec {
                kind: FaultKind::ParkRung,
                req: Some(1)
            }
        );
        for bad in [
            "explode",
            "stall-ms",
            "stall-ms=abc",
            "garbage-frame=1",
            "cancel-mid-rung=5",
            "hold=1",
            "park-rung=2",
            "stall-ms=5@req=0",
            "stall-ms=5@req=x",
        ] {
            assert!(FaultPlan::parse_one(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn targeting_is_by_ordinal() {
        let plan = FaultPlan::parse(&[
            "stall-ms=100@req=2".to_owned(),
            "drop-after-bytes=4".to_owned(),
        ])
        .unwrap();
        assert_eq!(plan.stall_ms(1), None);
        assert_eq!(plan.stall_ms(2), Some(100));
        assert_eq!(plan.drop_after_bytes(1), Some(4));
        assert_eq!(plan.drop_after_bytes(7), Some(4));
        assert!(!plan.garbage_frame(2));
    }

    #[test]
    fn hold_latch_parks_until_released() {
        let latch = std::sync::Arc::new(HoldLatch::default());
        assert!(!latch.wait_parked(Duration::from_millis(1)));
        let parked = {
            let latch = std::sync::Arc::clone(&latch);
            std::thread::spawn(move || latch.park())
        };
        assert!(latch.wait_parked(Duration::from_secs(60)));
        assert!(!parked.is_finished());
        latch.release();
        parked.join().unwrap();
        // Released for good: later holds pass straight through.
        latch.park();
    }

    #[test]
    fn garbage_is_deterministic_per_ordinal() {
        assert_eq!(garbage_payload(3), garbage_payload(3));
        assert_ne!(garbage_payload(3), garbage_payload(4));
        assert_eq!(garbage_payload(3).len(), 64);
    }
}
