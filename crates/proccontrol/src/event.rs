//! Event-driven multiplexing for fleets of mutatees.
//!
//! One controlled [`Process`] is a request/response conversation: the
//! controller calls [`Process::cont`] and blocks until the next event.
//! A tool attached to *N* processes cannot afford that shape — while one
//! mutatee runs, the other N−1 sit idle. This module turns the surface
//! event-driven:
//!
//! * [`EventQueue`] — a minimal park/unpark queue (mutex + condvar):
//!   producers [`EventQueue::push`] and wake any parked consumer;
//!   consumers either poll with [`EventQueue::try_pop`] or park in
//!   [`EventQueue::pop`] until an item arrives. This is the only
//!   synchronisation primitive the fleet machinery uses.
//! * [`ProcessSet`] — owns N processes keyed by a controller-assigned
//!   pid and a worker pool of fixed size, started at the first dispatch
//!   and kept until the set drops. The controller *dispatches* a job (any
//!   `FnOnce(&mut Process) -> O`) against a pid: the process migrates
//!   onto a worker, the job runs to its next stop/trap/exit (or performs
//!   a patch commit), and a [`Completion`] carrying the outcome — and
//!   the process itself — lands on the completion queue. The controller
//!   parks in [`ProcessSet::next_completion`] and reacts to events in
//!   arrival order, exactly the poll/park loop a `waitpid(-1)`-style
//!   debugger runs.
//!
//! Starting the workers at the first dispatch rather than in
//! [`ProcessSet::new`] matters for memory: glibc gives every thread that
//! allocates its own malloc arena and keeps freed memory resident in it.
//! A fleet controller builds its set before it plans the patch, and the
//! plan phase runs helper threads of its own; workers started later
//! reuse the arenas those helpers returned on exit instead of holding
//! extra ones alongside them.
//!
//! With `threads == 1` no workers are spawned at all: `dispatch` runs
//! the job inline and queues the completion, so dispatch order *is*
//! completion order and the whole loop is strictly deterministic — the
//! mode differential tests pin fleet behaviour in. With more workers
//! only the *arrival order* of completions changes; per-process state is
//! confined to one job at a time, so final per-process outcomes are
//! identical for any worker count (see `docs/FLEET.md` for the exact
//! ordering contract).
//!
//! A [`Process`] can migrate like this because it is plain data over a
//! `Send` machine — asserted at compile time below, so a non-`Send`
//! field can never silently sneak back in.

use crate::process::Process;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

// `Process` must stay `Send` for dispatch to move it onto a worker;
// this fails to compile if anyone adds a thread-bound field.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Process>();
};

/// An unbounded multi-producer multi-consumer queue with parking:
/// `push` enqueues and wakes one parked consumer; `pop` parks the caller
/// until an item is available; `try_pop` polls without blocking.
pub struct EventQueue<T> {
    items: Mutex<VecDeque<T>>,
    ready: Condvar,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            items: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    /// Enqueue `item` and unpark one waiting consumer.
    pub fn push(&self, item: T) {
        let mut q = self.items.lock().expect("event queue poisoned");
        q.push_back(item);
        self.ready.notify_one();
    }

    /// Dequeue without blocking; `None` when the queue is empty.
    pub fn try_pop(&self) -> Option<T> {
        self.items.lock().expect("event queue poisoned").pop_front()
    }

    /// Dequeue, parking the calling thread until an item arrives.
    pub fn pop(&self) -> T {
        let mut q = self.items.lock().expect("event queue poisoned");
        loop {
            if let Some(item) = q.pop_front() {
                return item;
            }
            q = self.ready.wait(q).expect("event queue poisoned");
        }
    }

    /// Number of queued items (a snapshot; racy by nature).
    pub fn len(&self) -> usize {
        self.items.lock().expect("event queue poisoned").len()
    }

    /// Whether the queue is currently empty (a snapshot; racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The result of one dispatched job: which process, what the job
/// returned, and how long it ran on its worker.
pub struct Completion<O> {
    /// The controller-assigned pid the job ran against.
    pub pid: u32,
    /// The job's return value (typically a stop/trap/exit event or a
    /// commit outcome).
    pub outcome: O,
    /// Wall-clock nanoseconds the job spent executing (≥ 1).
    pub nanos: u64,
}

/// A dispatched job: the pid, the migrating process, and the closure to
/// run against it. `None` is the worker-shutdown sentinel.
type Job<O> = Option<(u32, Process, Box<dyn FnOnce(&mut Process) -> O + Send>)>;

/// A set of controlled processes multiplexed over a worker pool.
///
/// Processes are **idle** (owned here, directly accessible through
/// [`ProcessSet::get`]/[`ProcessSet::get_mut`]) or **in flight** (moved
/// onto a worker by [`ProcessSet::dispatch`], inaccessible until their
/// [`Completion`] is consumed by [`ProcessSet::next_completion`], which
/// returns them to the idle map). One job per process at a time — the
/// dispatch surface makes aliasing a process across workers impossible
/// by construction.
pub struct ProcessSet<O: Send + 'static> {
    idle: BTreeMap<u32, Process>,
    in_flight: usize,
    /// Pool size: 1 runs jobs inline; more starts that many workers at
    /// the first dispatch.
    threads: usize,
    jobs: Arc<EventQueue<Job<O>>>,
    done: Arc<EventQueue<(Completion<O>, Process)>>,
    /// The started workers: empty until the first dispatch, and always
    /// empty in inline mode.
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<O: Send + 'static> ProcessSet<O> {
    /// A set multiplexed over `threads` workers, started at the first
    /// [`ProcessSet::dispatch`]. `threads <= 1` spawns no threads: jobs
    /// run inline at dispatch, making completion order equal dispatch
    /// order (the strictly deterministic mode).
    pub fn new(threads: usize) -> ProcessSet<O> {
        ProcessSet {
            idle: BTreeMap::new(),
            in_flight: 0,
            threads: threads.max(1),
            jobs: Arc::new(EventQueue::new()),
            done: Arc::new(EventQueue::new()),
            workers: Vec::new(),
        }
    }

    /// Worker threads serving this set (1 when running inline), whether
    /// or not they have started yet.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Start the worker pool (on the first dispatch).
    fn start_workers(&mut self) {
        self.workers = (0..self.threads)
            .map(|_| {
                let jobs = self.jobs.clone();
                let done = self.done.clone();
                std::thread::spawn(move || {
                    while let Some((pid, mut process, job)) = jobs.pop() {
                        let completion = run_job(pid, &mut process, job);
                        done.push((completion, process));
                    }
                })
            })
            .collect();
    }

    /// Add `process` to the set under `pid` (idle). Replaces and returns
    /// any previous idle process under the same pid.
    pub fn insert(&mut self, pid: u32, process: Process) -> Option<Process> {
        self.idle.insert(pid, process)
    }

    /// Borrow the idle process under `pid` (`None` while in flight).
    pub fn get(&self, pid: u32) -> Option<&Process> {
        self.idle.get(&pid)
    }

    /// Mutably borrow the idle process under `pid` (`None` while in
    /// flight).
    pub fn get_mut(&mut self, pid: u32) -> Option<&mut Process> {
        self.idle.get_mut(&pid)
    }

    /// Pids of all idle processes, in ascending order.
    pub fn idle_pids(&self) -> Vec<u32> {
        self.idle.keys().copied().collect()
    }

    /// Jobs dispatched but not yet returned by
    /// [`ProcessSet::next_completion`].
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Move the process under `pid` onto a worker and run `job` against
    /// it; the result arrives as a [`Completion`] via
    /// [`ProcessSet::next_completion`]. Returns `false` (and runs
    /// nothing) when `pid` is unknown or already in flight.
    pub fn dispatch(
        &mut self,
        pid: u32,
        job: impl FnOnce(&mut Process) -> O + Send + 'static,
    ) -> bool {
        let Some(mut process) = self.idle.remove(&pid) else {
            return false;
        };
        self.in_flight += 1;
        if self.threads <= 1 {
            // Inline mode: completion order == dispatch order.
            let completion = run_job(pid, &mut process, Box::new(job));
            self.done.push((completion, process));
        } else {
            if self.workers.is_empty() {
                self.start_workers();
            }
            self.jobs.push(Some((pid, process, Box::new(job))));
        }
        true
    }

    /// Park until the next dispatched job completes; its process returns
    /// to the idle map before the completion is handed back. `None` when
    /// nothing is in flight — the fleet event loop's termination
    /// condition.
    pub fn next_completion(&mut self) -> Option<Completion<O>> {
        if self.in_flight == 0 {
            return None;
        }
        let (completion, process) = self.done.pop();
        self.in_flight -= 1;
        self.idle.insert(completion.pid, process);
        Some(completion)
    }
}

impl<O: Send + 'static> Drop for ProcessSet<O> {
    /// Stop and join every started worker. Joining waits for each thread
    /// to exit, which hands its malloc arena back for later threads.
    fn drop(&mut self) {
        for _ in &self.workers {
            self.jobs.push(None);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Run one job against its process, timing it (the worker-side half of
/// dispatch, shared by the inline path).
fn run_job<O>(
    pid: u32,
    process: &mut Process,
    job: Box<dyn FnOnce(&mut Process) -> O + Send>,
) -> Completion<O> {
    let start = Instant::now();
    let outcome = job(process);
    Completion {
        pid,
        outcome,
        nanos: (start.elapsed().as_nanos() as u64).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Event;
    use rvdyn_asm::fib_program;

    #[test]
    fn queue_push_pop_fifo() {
        let q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.pop(), 2);
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn queue_park_unpark_across_threads() {
        let q: Arc<EventQueue<u64>> = Arc::new(EventQueue::new());
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                for i in 0..100 {
                    q.push(i);
                }
            })
        };
        let mut got: Vec<u64> = (0..100).map(|_| q.pop()).collect();
        producer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn dispatch_runs_processes_to_exit() {
        for threads in [1usize, 4] {
            let mut set: ProcessSet<Result<Event, crate::ProcError>> = ProcessSet::new(threads);
            let bin = fib_program(5);
            for pid in 0..8u32 {
                set.insert(pid, Process::launch(&bin));
            }
            for pid in set.idle_pids() {
                assert!(set.dispatch(pid, |p| p.cont()));
            }
            assert_eq!(set.in_flight(), 8);
            let mut exits = 0;
            while let Some(c) = set.next_completion() {
                assert!(c.nanos >= 1);
                match c.outcome {
                    Ok(Event::Exited(0)) => exits += 1,
                    other => panic!("pid {}: unexpected {other:?}", c.pid),
                }
                // Process is idle again and inspectable.
                assert!(set.get(c.pid).unwrap().exit_code().is_some());
            }
            assert_eq!(exits, 8);
            assert_eq!(set.in_flight(), 0);
        }
    }

    #[test]
    fn inline_mode_completes_in_dispatch_order() {
        let mut set: ProcessSet<u32> = ProcessSet::new(1);
        let bin = fib_program(2);
        for pid in [3u32, 1, 7, 2] {
            set.insert(pid, Process::launch(&bin));
        }
        for pid in [7u32, 2, 3, 1] {
            set.dispatch(pid, move |_| pid);
        }
        let order: Vec<u32> = std::iter::from_fn(|| set.next_completion())
            .map(|c| c.pid)
            .collect();
        assert_eq!(order, vec![7, 2, 3, 1]);
    }

    #[test]
    fn workers_start_at_the_first_dispatch() {
        let mut set: ProcessSet<()> = ProcessSet::new(4);
        set.insert(0, Process::launch(&fib_program(2)));
        assert_eq!(set.threads(), 4);
        assert!(set.workers.is_empty(), "no worker before a dispatch");
        assert!(set.dispatch(0, |_| ()));
        assert_eq!(set.threads(), 4);
        assert_eq!(set.workers.len(), 4);
        assert!(set.next_completion().is_some());
        // Later dispatches reuse the pool.
        assert!(set.dispatch(0, |_| ()));
        assert_eq!(set.workers.len(), 4);
        assert!(set.next_completion().is_some());

        // A set dropped before any dispatch has nothing to stop: no
        // shutdown sentinel is queued and no thread is joined.
        let unused: ProcessSet<()> = ProcessSet::new(4);
        let jobs = unused.jobs.clone();
        assert!(unused.workers.is_empty());
        drop(unused);
        assert!(jobs.is_empty());
    }

    #[test]
    fn dispatch_refuses_unknown_and_in_flight_pids() {
        let mut set: ProcessSet<()> = ProcessSet::new(4);
        let bin = fib_program(2);
        set.insert(0, Process::launch(&bin));
        assert!(!set.dispatch(9, |_| ()), "unknown pid");
        assert!(set.dispatch(0, |p| {
            let _ = p.cont();
        }));
        // In flight: a second dispatch against the same pid must refuse
        // rather than alias the process.
        assert!(!set.dispatch(0, |_| ()));
        assert!(set.get(0).is_none(), "in-flight process is inaccessible");
        assert!(set.next_completion().is_some());
        assert!(set.get(0).is_some(), "completion returns it to idle");
        assert!(set.next_completion().is_none());
    }
}
