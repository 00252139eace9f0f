//! Bounded admission control: accept, queue, or shed — decided
//! synchronously at arrival.
//!
//! The invariant the tests pin: a request is never *accepted and then
//! dropped*. [`Admission::enter`] either returns a guard (the request
//! holds a worker slot and will run) or returns [`Shed`] immediately —
//! there is no intermediate state the server can later renege on. Up to
//! `workers` requests run concurrently; up to `queue` more block inside
//! `enter` waiting for a slot; everyone past that is shed with a
//! `retry_after_ms` hint proportional to the backlog.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The typed shed decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed {
    /// Backoff floor to report to the client: scaled by the backlog the
    /// request saw, so a deeper queue pushes retries further out.
    pub retry_after_ms: u64,
}

#[derive(Debug)]
struct Slots {
    active: usize,
    waiting: usize,
}

/// The admission gate.
#[derive(Debug)]
pub struct Admission {
    workers: usize,
    queue: usize,
    slots: Mutex<Slots>,
    freed: Condvar,
}

/// Proof of admission: holds one worker slot, released on drop.
#[derive(Debug)]
pub struct AdmissionGuard<'a> {
    gate: &'a Admission,
    /// The 1-based queue position this request waited at, or 0 when it
    /// took a worker slot without queueing.
    pub queued_behind: usize,
}

impl Admission {
    /// Per-shed-request backoff floor unit: multiplied by the backlog.
    pub const RETRY_UNIT_MS: u64 = 25;

    /// A gate with `workers` concurrent slots and `queue` waiting slots.
    pub fn new(workers: usize, queue: usize) -> Admission {
        Admission {
            workers: workers.max(1),
            queue,
            slots: Mutex::new(Slots {
                active: 0,
                waiting: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// The slot counts. Every update under the lock is a complete
    /// counter step, so a lock poisoned by a panicking holder still guards
    /// consistent counts: recover it rather than fail every later request
    /// (or leak a slot on the release path).
    fn slots(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits the request (blocking in the queue if needed) or sheds it.
    /// The decision to shed is made synchronously under the lock: once
    /// this returns a guard, the request *will* run.
    pub fn enter(&self) -> Result<AdmissionGuard<'_>, Shed> {
        let mut slots = self.slots();
        if slots.active < self.workers {
            slots.active += 1;
            return Ok(AdmissionGuard {
                gate: self,
                queued_behind: 0,
            });
        }
        if slots.waiting >= self.queue {
            // Shed: every slot and queue position is taken. The hint
            // scales with the backlog this request saw.
            let backlog = slots.waiting as u64 + 1;
            return Err(Shed {
                retry_after_ms: Self::RETRY_UNIT_MS * backlog,
            });
        }
        slots.waiting += 1;
        let queued_behind = slots.waiting;
        while slots.active >= self.workers {
            slots = self
                .freed
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
        slots.waiting -= 1;
        slots.active += 1;
        Ok(AdmissionGuard {
            gate: self,
            queued_behind,
        })
    }

    /// Current (active, waiting) occupancy — for queue-depth samples.
    pub fn occupancy(&self) -> (usize, usize) {
        let slots = self.slots();
        (slots.active, slots.waiting)
    }
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        let mut slots = self.gate.slots();
        slots.active -= 1;
        drop(slots);
        self.gate.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sheds_only_past_workers_plus_queue() {
        // Both workers busy; the queue has one free slot, so a third
        // request blocks — verify from another thread that it gets in
        // once a slot frees, while a fourth is shed immediately.
        let gate = Arc::new(Admission::new(2, 1));
        let gate2 = Arc::clone(&gate);
        let a = gate.enter().expect("slot 1");
        let _b = gate.enter().expect("slot 2");
        let waiter = std::thread::spawn(move || {
            let g = gate2.enter().expect("queued request runs");
            assert_eq!(g.queued_behind, 1);
        });
        // Give the waiter time to park in the queue, then the next
        // arrival must shed with a backlog-scaled hint.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while gate.occupancy().1 == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(gate.occupancy(), (2, 1));
        let shed = gate.enter().expect_err("fourth request is shed");
        assert_eq!(shed.retry_after_ms, 2 * Admission::RETRY_UNIT_MS);
        drop(a);
        waiter.join().expect("waiter thread");
    }

    #[test]
    fn poisoned_lock_still_grants_and_releases_slots() {
        let gate = Arc::new(Admission::new(1, 0));
        let poisoner = Arc::clone(&gate);
        let panicked = std::thread::spawn(move || {
            let _held = poisoner.slots.lock().unwrap();
            panic!("poison the admission lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(gate.slots.is_poisoned());
        let g = gate.enter().expect("slot granted under a poisoned lock");
        assert_eq!(gate.occupancy(), (1, 0));
        assert!(gate.enter().is_err(), "the only slot is taken");
        drop(g);
        assert_eq!(gate.occupancy(), (0, 0), "released slot is not leaked");
        drop(gate.enter().expect("slot reusable after release"));
        assert_eq!(gate.occupancy(), (0, 0));
    }
}
