//! Shared batch worklist for parallel pipeline passes.
//!
//! Extracted from the parallel parser so other stages can reuse the same
//! scheduling discipline (the instrumenter's plan phase fans out over
//! functions with it too). Workers claim work in *batches* to amortise
//! synchronisation — per-item locking dominates on large inputs (the
//! first parallel parser did exactly that and was slower than
//! sequential) — and the batch size adapts to the queue depth so the
//! remaining work is shared fairly across workers instead of drained by
//! whoever gets the lock first.
//!
//! The worklist supports *dynamic discovery*: a worker may push newly
//! found items while completing a batch (the parser pushes callees). A
//! claimed-set dedups pushes so every item is processed exactly once.
//! Static work sets simply never push.

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Condvar, Mutex};

/// Maximum number of items one `next_batch` call may claim.
pub const BATCH: usize = 16;

struct State<T> {
    queue: VecDeque<T>,
    in_flight: usize,
    claimed: BTreeSet<T>,
}

/// A blocking, batch-claiming work queue shared by a fixed pool of
/// workers. Termination is cooperative: `next_batch` returns an empty
/// batch once the queue is empty *and* no batch is still in flight
/// (an in-flight batch may still discover new work).
pub struct Worklist<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    nworkers: usize,
}

impl<T> Worklist<T> {
    /// A worklist over the fixed set `items`, which workers never extend:
    /// batches hand the items out by value, in order, so they need not
    /// be comparable or cloneable.
    pub fn fixed(items: impl IntoIterator<Item = T>, nworkers: usize) -> Worklist<T> {
        Worklist {
            state: Mutex::new(State {
                queue: items.into_iter().collect(),
                in_flight: 0,
                claimed: BTreeSet::new(),
            }),
            cv: Condvar::new(),
            nworkers: nworkers.max(1),
        }
    }

    /// Claim the next batch, blocking while the queue is empty but other
    /// batches are still in flight. An empty return value means the
    /// worklist is drained and the worker should exit. The batch size is
    /// `min(BATCH, ceil(queue_len / nworkers))`, so a deep queue hands
    /// out full batches while a shallow one is spread across workers.
    pub fn next_batch(&self) -> Vec<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if !st.queue.is_empty() {
                let fair = st.queue.len().div_ceil(self.nworkers);
                let n = fair.clamp(1, BATCH);
                st.in_flight += n;
                return st.queue.drain(..n).collect();
            }
            if st.in_flight == 0 {
                // Drained: wake everyone so they observe termination.
                self.cv.notify_all();
                return Vec::new();
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Finish a batch of `done` items that discovered no new work.
    pub fn complete_batch(&self, done: usize) {
        self.state.lock().unwrap().in_flight -= done;
        self.cv.notify_all();
    }
}

impl<T: Ord + Clone> Worklist<T> {
    /// A worklist seeded with `seed` (each seed item counts as claimed)
    /// serviced by `nworkers` workers.
    pub fn new(seed: impl IntoIterator<Item = T>, nworkers: usize) -> Worklist<T> {
        let mut wl = Worklist::fixed(seed, nworkers);
        let st = wl.state.get_mut().unwrap();
        st.claimed = st.queue.iter().cloned().collect();
        wl
    }

    /// Finish a batch of `done` items, enqueueing any newly `discovered`
    /// items that were never claimed before.
    pub fn complete(&self, done: usize, discovered: impl IntoIterator<Item = T>) {
        {
            let mut st = self.state.lock().unwrap();
            for c in discovered {
                if st.claimed.insert(c.clone()) {
                    st.queue.push_back(c);
                }
            }
            st.in_flight -= done;
        }
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn static_work_set_is_fully_processed_once() {
        let wl = Worklist::new(0u64..100, 4);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| loop {
                    let batch = wl.next_batch();
                    if batch.is_empty() {
                        break;
                    }
                    seen.lock().unwrap().extend_from_slice(&batch);
                    wl.complete(batch.len(), std::iter::empty());
                });
            }
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0u64..100).collect::<Vec<_>>());
    }

    #[test]
    fn fixed_set_hands_out_contiguous_runs_by_value() {
        // Neither `Ord` nor `Clone`: a fixed worklist only moves items.
        struct Item(usize);
        let wl = Worklist::fixed((0..100).map(Item), 3);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| loop {
                    let batch = wl.next_batch();
                    if batch.is_empty() {
                        break;
                    }
                    let ids: Vec<usize> = batch.iter().map(|i| i.0).collect();
                    assert!(ids.windows(2).all(|w| w[1] == w[0] + 1), "{ids:?}");
                    seen.lock().unwrap().extend_from_slice(&ids);
                    wl.complete_batch(batch.len());
                });
            }
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn discovery_pushes_are_deduped() {
        // Each item n < 50 discovers n + 50; duplicates must not
        // double-process.
        let wl = Worklist::new(0u64..50, 3);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| loop {
                    let batch = wl.next_batch();
                    if batch.is_empty() {
                        break;
                    }
                    let found: Vec<u64> = batch
                        .iter()
                        .filter(|&&n| n < 50)
                        .flat_map(|&n| [n + 50, n + 50])
                        .collect();
                    seen.lock().unwrap().extend_from_slice(&batch);
                    wl.complete(batch.len(), found);
                });
            }
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0u64..100).collect::<Vec<_>>());
    }
}
