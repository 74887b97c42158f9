//! The batch worklist and the one fork-join every parallel phase runs on.
//!
//! Extracted from the parallel parser so other stages can reuse the same
//! scheduling discipline: the instrumenter's plan and finish phases fan
//! out over functions with it, and a fleet controller over processes.
//! Workers claim work in *batches* to amortise synchronisation —
//! per-item locking dominates on large inputs (the first parallel parser
//! did exactly that and was slower than sequential) — and the batch size
//! adapts to the queue depth so the remaining work is shared fairly
//! across workers instead of drained by whoever gets the lock first.
//!
//! The worklist supports *dynamic discovery*: a worker may push newly
//! found items while completing a batch (the parser pushes callees). A
//! claimed-set dedups pushes so every item is processed exactly once.
//! Static work sets simply never push; [`par_batches`] runs one over a
//! fixed set of items. `on_helpers` is the only place in the toolkit
//! that starts threads: the parser's workers and every [`par_batches`]
//! run start and join through it.

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

/// Run `work` over `items` in contiguous batches, taking them by value,
/// and return the batches' results in item order. Up to `nworkers`
/// helper threads, never more than there are items, claim the batches
/// from a fixed [`Worklist`], and each hands every batch it claims the
/// same scratch `S`. With one worker, one item or none, `work` runs
/// once, inline on the calling thread, over all the items.
///
/// While helpers run, the calling thread only waits. It frees what
/// earlier phases' helpers allocated, so glibc's per-thread cache hands
/// it chunks owned by a helper's arena; working alongside the helpers,
/// it then freed those chunks while a helper was allocating from the
/// same arena, and on the cold-code benchmark the plan phase slept on
/// that arena's lock thousands of times per apply, depending on what
/// the process had run before.
pub fn par_batches<T: Send, S: Default, R: Send>(
    items: Vec<T>,
    nworkers: usize,
    work: impl Fn(&mut S, Vec<T>) -> R + Sync,
) -> Vec<R> {
    let nworkers = nworkers.min(items.len());
    if nworkers <= 1 {
        return vec![work(&mut S::default(), items)];
    }
    let wl = Worklist::fixed(items.into_iter().enumerate(), nworkers);
    let done = on_helpers(nworkers, || {
        let mut scratch = S::default();
        let mut done = Vec::new();
        loop {
            let batch = wl.next_batch();
            let (Some(&(first, _)), n) = (batch.first(), batch.len()) else {
                break done;
            };
            let items = batch.into_iter().map(|(_, t)| t).collect();
            done.push((first, work(&mut scratch, items)));
            wl.complete_batch(n);
        }
    });
    let mut results: Vec<(usize, R)> = done.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(first, _)| first);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Run `worker` on `n` helper threads and return what each returned, in
/// the order they started; a helper's panic resumes on the caller. Each
/// helper is joined explicitly: unlike a scope's implicit join, that
/// waits for the thread to exit, which returns its allocator arena for
/// the next phase's helpers to reuse instead of making the allocator
/// open new ones.
pub(crate) fn on_helpers<R: Send>(n: usize, worker: impl Fn() -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..n).map(|_| scope.spawn(&worker)).collect();
        let join = |h: std::thread::ScopedJoinHandle<R>| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        };
        helpers.into_iter().map(join).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    #[test]
    fn static_work_set_is_fully_processed_once() {
        let wl = Worklist::new(0u64..100, 4);
        let seen = Mutex::new(Vec::new());
        on_helpers(4, || loop {
            let batch = wl.next_batch();
            if batch.is_empty() {
                break;
            }
            seen.lock().unwrap().extend_from_slice(&batch);
            wl.complete(batch.len(), std::iter::empty());
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
        on_helpers(3, || loop {
            let batch = wl.next_batch();
            if batch.is_empty() {
                break;
            }
            let ids: Vec<usize> = batch.iter().map(|i| i.0).collect();
            assert!(ids.windows(2).all(|w| w[1] == w[0] + 1), "{ids:?}");
            seen.lock().unwrap().extend_from_slice(&ids);
            wl.complete_batch(batch.len());
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
        on_helpers(3, || loop {
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
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0u64..100).collect::<Vec<_>>());
    }

    /// Run [`par_batches`] over `0..n` on `nworkers`, returning every
    /// item with the thread that ran it and how many batches that
    /// thread's scratch had seen before the item's batch.
    fn traced(n: usize, nworkers: usize) -> Vec<(usize, ThreadId, usize)> {
        let batches = par_batches((0..n).collect(), nworkers, |seen: &mut usize, items| {
            let id = thread::current().id();
            let out: Vec<_> = items.into_iter().map(|i| (i, id, *seen)).collect();
            *seen += 1;
            out
        });
        batches.into_iter().flatten().collect()
    }

    fn threads_of(run: &[(usize, ThreadId, usize)]) -> HashSet<ThreadId> {
        run.iter().map(|&(_, id, _)| id).collect()
    }

    #[test]
    fn results_come_back_in_item_order_at_every_worker_count() {
        for nworkers in [1, 2, 4] {
            let items: Vec<usize> = traced(100, nworkers).iter().map(|r| r.0).collect();
            assert_eq!(items, (0..100).collect::<Vec<_>>(), "{nworkers} workers");
        }
    }

    #[test]
    fn each_worker_reuses_its_scratch_across_its_batches() {
        // 100 items in batches of at most 16 on two workers: one worker
        // claims several batches, and each sees its scratch count up.
        let run = traced(100, 2);
        let mut most = 0;
        for id in threads_of(&run) {
            let mut seen: Vec<usize> = run
                .iter()
                .filter(|&&(_, t, _)| t == id)
                .map(|&(_, _, s)| s)
                .collect();
            seen.dedup();
            assert_eq!(seen, (0..seen.len()).collect::<Vec<_>>());
            most = most.max(seen.len());
        }
        assert!(most > 1, "no worker claimed a second batch");
    }

    #[test]
    fn one_worker_runs_inline_on_the_calling_thread() {
        let run = traced(100, 1);
        let me = thread::current().id();
        assert!(run.iter().all(|&(_, id, seen)| id == me && seen == 0));
        // No items is one empty batch, inline.
        let empty = par_batches(Vec::<u8>::new(), 4, |_: &mut (), items| {
            (thread::current().id(), items.len())
        });
        assert_eq!(empty, vec![(me, 0)]);
    }

    #[test]
    fn never_more_helpers_than_items() {
        // Every worker makes its scratch once, before it claims a batch.
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Default for Counted {
            fn default() -> Counted {
                STARTED.fetch_add(1, Ordering::Relaxed);
                Counted
            }
        }
        let started = |n: usize, nworkers: usize| {
            STARTED.store(0, Ordering::Relaxed);
            let ids = par_batches((0..n).collect(), nworkers, |_: &mut Counted, items| {
                let ids = items.iter().map(|_: &usize| thread::current().id());
                ids.collect::<Vec<_>>()
            });
            let ids: HashSet<ThreadId> = ids.into_iter().flatten().collect();
            (STARTED.load(Ordering::Relaxed), ids)
        };
        // A fleet of one starts no thread: its one job runs here.
        let me = thread::current().id();
        assert_eq!(started(1, 4), (1, [me].into()));
        let (workers, ids) = started(3, 8);
        assert_eq!(workers, 3);
        assert!(!ids.contains(&me));
    }
}
