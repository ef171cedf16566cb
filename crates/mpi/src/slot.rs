//! World-scoped replicated state.
//!
//! Some results of a collective are the same on every rank: after an
//! allgather every rank holds the same blocks, so every rank would decode
//! them into the same table and derive the same plan from it. Rank threads
//! share one address space, so such a value only needs computing once per
//! world. `Comm::replicated` files it in a once-per-key slot: the first
//! rank to reach the key runs the init closure, every other rank blocks on
//! that key alone and then shares the result by `Arc`.
//! [`Comm::allgatherv_shared`] is its user: one slot per collective.
//!
//! Contract:
//! - The key is the collective's sequence number, symmetric across ranks;
//!   never a pointer address or a rank-local counter.
//! - The init closure does not communicate and reads no rank-local state,
//!   so it does not matter which rank runs it, and waiting on it cannot
//!   deadlock.
//! - Every rank takes every key exactly once; the entry is evicted when
//!   the last of the `nprocs` ranks has taken it, so long sweeps do not
//!   grow the table.
//! - A panic inside init poisons the key. Ranks waiting on it unwind
//!   quietly and the world aborts with the originating rank's message.
//!
//! Virtual time is untouched: a slot moves no message and charges no
//! clock. Only host-side work is shared.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::comm::{lock_unpoisoned as lock, Comm, WorldAborted};

type Value = Arc<dyn Any + Send + Sync>;

enum State {
    /// The owning rank is running init.
    Running,
    Ready(Value),
    /// Init panicked.
    Poisoned,
}

struct Slot {
    state: Mutex<State>,
    ready: Condvar,
    /// Ranks that have taken the value so far.
    taken: AtomicUsize,
}

/// The world's live slots.
#[derive(Default)]
pub(crate) struct Slots {
    /// Keyed by collective sequence number.
    live: Mutex<HashMap<u32, Arc<Slot>>>,
}

impl Slots {
    pub(crate) fn len(&self) -> usize {
        lock(&self.live).len()
    }

    /// Wakes every rank waiting on a slot, so it sees the abort flag.
    /// Locks each state before notifying, like the mailboxes, so a waiter
    /// between its flag check and its wait cannot miss the wakeup.
    pub(crate) fn wake_all(&self) {
        let live: Vec<Arc<Slot>> = lock(&self.live).values().cloned().collect();
        for slot in live {
            let _guard = lock(&slot.state);
            slot.ready.notify_all();
        }
    }
}

impl Comm {
    /// Computes a value every rank would compute identically once per
    /// world: the first rank to reach `key` runs `init`, every rank gets
    /// the same `Arc`. The flag is true on the rank that ran `init`.
    ///
    /// See the [module docs](crate::slot) for the contract on `key` and
    /// `init`. Must be called by every rank, once per key.
    ///
    /// # Panics
    /// Re-raises a panic of `init` on the rank that ran it; peers waiting
    /// on the key unwind as casualties of the world abort. Panics if two
    /// call sites use one key for values of different types.
    pub(crate) fn replicated<T, F>(&self, key: u32, init: F) -> (Arc<T>, bool)
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let shared = self.shared();
        let (slot, owner) = {
            let mut live = lock(&shared.slots.live);
            match live.get(&key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(State::Running),
                        ready: Condvar::new(),
                        taken: AtomicUsize::new(0),
                    });
                    live.insert(key, Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        let value: Value = if owner {
            match catch_unwind(AssertUnwindSafe(init)) {
                Ok(v) => {
                    let v: Value = Arc::new(v);
                    *lock(&slot.state) = State::Ready(Arc::clone(&v));
                    slot.ready.notify_all();
                    v
                }
                Err(payload) => {
                    *lock(&slot.state) = State::Poisoned;
                    slot.ready.notify_all();
                    resume_unwind(payload);
                }
            }
        } else {
            let mut state = lock(&slot.state);
            loop {
                match &*state {
                    State::Ready(v) => break Arc::clone(v),
                    State::Poisoned => {
                        drop(state);
                        resume_unwind(Box::new(WorldAborted));
                    }
                    State::Running if shared.is_aborted() => {
                        drop(state);
                        resume_unwind(Box::new(WorldAborted));
                    }
                    State::Running => {
                        state = slot
                            .ready
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        if slot.taken.fetch_add(1, Ordering::AcqRel) + 1 == self.nprocs() {
            lock(&shared.slots.live).remove(&key);
        }
        let value = value.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "rank {}: replicated slot {key} holds a value of another type",
                self.rank()
            )
        });
        (value, owner)
    }

    /// Slots some rank has opened and not every rank has taken yet. Zero
    /// whenever every rank has passed the same point of the program, e.g.
    /// right after a barrier.
    pub fn live_slots(&self) -> usize {
        self.shared().slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use cc_model::ClusterModel;
    use std::sync::atomic::AtomicU32;
    use std::time::{Duration, Instant};

    #[test]
    fn init_runs_once_and_every_rank_shares_it() {
        let calls = AtomicU32::new(0);
        let world = World::new(8, ClusterModel::test_tiny(8));
        let out = world.run(|comm| {
            let (v, owner) = comm.replicated(1, || {
                calls.fetch_add(1, Ordering::Relaxed);
                vec![1u64, 2, 3]
            });
            (Arc::as_ptr(&v) as usize, owner, v.iter().sum::<u64>())
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(out.iter().filter(|o| o.1).count(), 1, "exactly one owner");
        assert!(
            out.iter().all(|o| o.0 == out[0].0 && o.2 == 6),
            "one shared value"
        );
    }

    #[test]
    fn entries_are_evicted_once_every_rank_took_them() {
        let world = World::new(4, ClusterModel::test_tiny(4));
        let live = world.run(|comm| {
            for seq in 0..100 {
                let (v, _) = comm.replicated(seq, || seq * 2);
                assert_eq!(*v, seq * 2);
            }
            comm.barrier();
            comm.live_slots()
        });
        assert_eq!(live, vec![0; 4]);
    }

    /// Spins until `cond` holds, failing the test after 5 s.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_slow_init_blocks_only_its_own_key() {
        // Rank 0 owns key 1 and sits in its init until every other rank
        // has run key 2's init-or-take: an init holding a lock on the
        // whole table would deadlock here.
        let world = World::new(3, ClusterModel::test_tiny(3));
        let owning = AtomicU32::new(0);
        let passed = AtomicU32::new(0);
        world.run(|comm| {
            if comm.rank() == 0 {
                let (_, owner) = comm.replicated(1, || {
                    owning.store(1, Ordering::Release);
                    wait_for("key 2", || passed.load(Ordering::Acquire) == 2);
                });
                assert!(owner);
                let _ = comm.replicated(2, || ());
            } else {
                wait_for("rank 0's init", || owning.load(Ordering::Acquire) == 1);
                let _ = comm.replicated(2, || ());
                passed.fetch_add(1, Ordering::Release);
                let _ = comm.replicated(1, || ());
            }
        });
    }

    #[test]
    fn init_panic_aborts_the_world_naming_its_rank() {
        let t0 = Instant::now();
        let world = World::new(6, ClusterModel::test_tiny(6));
        let result = catch_unwind(AssertUnwindSafe(|| {
            world.run(|comm| {
                let rank = comm.rank();
                let _ = comm.replicated(3, || -> u8 {
                    panic!("init failed on rank {rank}");
                });
            })
        }));
        let payload = result.expect_err("the world must abort");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        let origin = msg
            .strip_prefix("rank ")
            .and_then(|s| s.split(' ').next())
            .expect("report names a rank");
        assert!(
            msg.contains(&format!(
                "rank {origin} panicked: init failed on rank {origin}"
            )),
            "report must name the rank whose init panicked, got: {msg}"
        );
        assert!(
            msg.contains("clock="),
            "report carries the diagnostic: {msg}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "abort took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn waiters_unwind_when_another_rank_aborts_the_world() {
        // Rank 0 owns the slot and does not finish its init until the
        // world is aborted by rank 1's unrelated panic; the ranks waiting
        // on the slot must unwind instead of hanging.
        let world = World::new(4, ClusterModel::test_tiny(4));
        let owning = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            world.run(|comm| match comm.rank() {
                0 => {
                    let _ = comm.replicated(5, || {
                        owning.store(1, Ordering::Release);
                        wait_for("the abort", || comm.shared().is_aborted());
                    });
                }
                1 => {
                    wait_for("rank 0's init", || owning.load(Ordering::Acquire) == 1);
                    panic!("rank 1 fails elsewhere");
                }
                _ => {
                    wait_for("rank 0's init", || owning.load(Ordering::Acquire) == 1);
                    let _ = comm.replicated(5, || ());
                }
            })
        }));
        let payload = result.expect_err("the world must abort");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("rank 1 panicked: rank 1 fails elsewhere"),
            "got: {msg}"
        );
    }
}
