//! Live delivery: one controller, N mutatees.
//!
//! Real deployments of the tools the paper targets — profilers,
//! debuggers, whole-workload tracers — attach to *fleets* of processes,
//! not one mutatee at a time. [`FleetController`] instruments
//! dozens-to-hundreds of emulated processes concurrently from one
//! [`Session`]-derived context, and it is the only live delivery path:
//! a [`DynamicInstrumenter`](crate::DynamicInstrumenter) is a fleet of
//! one process.
//!
//! * the **front half** (binary model, CFG, natural loops) is computed
//!   once and shared behind the session's `Arc<Analysis>` — N copies of
//!   the same binary parse exactly once;
//! * the **plan** (snippet lowering against the shared liveness,
//!   relocation, springboards) is also computed once, on the controller's template
//!   session, by the same code as the static
//!   [`Session::instrumented`] — reusing the parallel plan phase and its
//!   deterministic layout, so every process receives the same patch
//!   bytes;
//! * the **per-process back half** — verified patch commits, and each
//!   process's whole run through the one live run loop
//!   (`run_to_end`: breakpoint, step and sampling stops, redirect
//!   resolution, the terminal event) — fans out over the [`ProcessSet`]
//!   worker pool as one job per process, with the controller parked in
//!   a poll/park event loop consuming the completions in arrival order.
//!
//! Failures are isolated per process: a [`FaultPlan`] targeted at one
//! pid mid-fleet produces a typed error attributed to that pid (e.g.
//! [`Error::PatchVerifyFailed`] from that process's commit read-back,
//! or [`Error::FleetProcessLost`] when the process died first) while
//! the other N−1 processes commit, run, and report normally. The full
//! controller contract — event-loop states, per-process lifecycle,
//! ordering and determinism caveats — is written down in
//! `docs/FLEET.md`.

use crate::diag::{self, Diagnostics, Key};
use crate::error::Error;
use crate::session::{self, BlockCounter, Session, SessionOptions};
use crate::telemetry::{TelemetryEvent, TimedStage};
use crate::tools::profile::SampledRun;
use rvdyn_codegen::snippet::{Snippet, Var};
use rvdyn_isa::Op;
use rvdyn_parse::CodeObject;
use rvdyn_patch::{Point, PointKind, RelocationIndex};
use rvdyn_proccontrol::{Event, FaultPlan, ProcError, Process, ProcessSet};
use rvdyn_symtab::Binary;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The patch, frozen once by the template session's apply and shared
/// (behind an `Arc`) by every per-process commit job.
struct CommitPlan {
    /// Patch data area base (mapped before the regions land).
    data_addr: u64,
    /// Bytes of data area to map at `data_addr`.
    data_len: u64,
    /// Coalesced contiguous patch regions, in address order.
    regions: Vec<(u64, Vec<u8>)>,
    /// Trap-springboard redirects to install after a verified commit.
    trap_table: Vec<(u64, u64)>,
    /// Code span covered by the regions (for the machine's executable-
    /// region hint); `None` when there are no regions.
    code_span: Option<(u64, u64)>,
}

/// What one dispatched per-process job reported back.
enum JobOutcome {
    /// A commit job finished: how many regions verified, which region
    /// (if any) failed read-back, whether the process was already gone.
    Committed {
        verified: usize,
        failed: Option<u64>,
        lost: bool,
    },
    /// A run job ran one process to its terminal stop.
    Ran(SampledRun),
}

/// Controller-side state for one fleet process.
struct ProcState {
    /// Per-process diagnostics: shared parse/instrument totals seeded
    /// from the template, plus this process's own commit/run/fault
    /// counters and timings.
    diag: Diagnostics,
    /// Terminal outcome: exit code, or the typed per-process error.
    /// `None` while the process is still live in the fleet.
    result: Option<Result<i64, Error>>,
}

/// One process's row in a [`FleetSummary`].
pub struct ProcessReport {
    /// Controller-assigned pid.
    pub pid: u32,
    /// Clean exit code, when the process ran to completion.
    pub exit_code: Option<i64>,
    /// Rendered form of the typed per-process error, when the process
    /// failed (match on [`FleetController::result`] for the variant).
    pub error: Option<String>,
    /// The per-process diagnostics snapshot.
    pub diag: Diagnostics,
}

/// The fleet-level rollup: totals plus one [`ProcessReport`] per
/// process, sorted by pid (so the summary is identical for every worker
/// count).
pub struct FleetSummary {
    /// Processes spawned into the fleet.
    pub processes: usize,
    /// Completions the controller's event loop consumed and dispatched
    /// to per-process handlers: one per commit delivery and one per
    /// process run.
    pub events_dispatched: u64,
    /// Total debug-interface faults injected across the fleet.
    pub faults_injected: u64,
    /// Processes that reached a terminal per-process error.
    pub processes_failed: usize,
    /// Per-process rows, ascending pid.
    pub per_process: Vec<ProcessReport>,
}

/// The leaf keys of the rollup's `fleet` totals, in emission order.
pub const FLEET_KEYS: &[Key<FleetSummary>] = &[
    ("fleet.processes", |s| s.processes as u64),
    ("fleet.events_dispatched", |s| s.events_dispatched),
    ("fleet.faults_injected", |s| s.faults_injected),
    ("fleet.processes_failed", |s| s.processes_failed as u64),
];

/// The keys of each `per_process` entry, in emission order. Each entry
/// then closes with that process's full `diagnostics` object.
pub const PROCESS_KEYS: &[Key<ProcessReport, i64>] = &[
    ("pid", |p| p.pid.into()),
    ("exited", |p| p.exit_code.is_some().into()),
    ("exit_code", |p| p.exit_code.unwrap_or(-1)),
    ("failed", |p| p.error.is_some().into()),
];

impl FleetSummary {
    /// Serialise the rollup as one line of `rvdyn-diagnostics-v1` JSON:
    /// a `fleet` object with the totals ([`FLEET_KEYS`]) plus a
    /// `per_process` array, one all-numeric entry ([`PROCESS_KEYS`]) per
    /// process embedding that process's full diagnostics object. Entries
    /// are pid-sorted, so the output is stable across worker counts.
    pub fn to_json(&self) -> String {
        let mut out = diag::open_document();
        diag::write_members(&mut out, FLEET_KEYS, self);
        out.push_str(",\"per_process\":[");
        for (i, p) in self.per_process.iter().enumerate() {
            out.push_str(if i == 0 { "{" } else { ",{" });
            diag::write_members(&mut out, PROCESS_KEYS, p);
            out.push_str(",\"diagnostics\":");
            out.push_str(&p.diag.to_json());
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Display for FleetSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet:      {} processes, {} events dispatched, \
             {} faults injected, {} failed",
            self.processes, self.events_dispatched, self.faults_injected, self.processes_failed
        )?;
        for p in &self.per_process {
            match (&p.exit_code, &p.error) {
                (Some(c), _) => writeln!(
                    f,
                    "  pid {:>4}: exited {} ({} instret, {} cycles)",
                    p.pid, c, p.diag.instret, p.diag.cycles
                )?,
                (None, Some(e)) => writeln!(f, "  pid {:>4}: FAILED — {e}", p.pid)?,
                (None, None) => writeln!(f, "  pid {:>4}: live", p.pid)?,
            }
        }
        Ok(())
    }
}

/// Instrument and run N mutatees from one controller: a template
/// [`Session`] (where points, snippets and variables are declared once)
/// plus a [`ProcessSet`] event loop that fans the per-process delivery
/// and run work over the session's worker pool.
///
/// ```
/// use rvdyn::{FleetController, PointKind, SessionOptions, Snippet};
///
/// let bin = rvdyn_asm::matmul_program(4, 1);
/// let mut fleet = FleetController::from_binary(bin, SessionOptions::new());
/// let pids = fleet.spawn(4);
/// let counter = fleet.alloc_var(8);
/// let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
/// fleet.insert(&pts, Snippet::increment(counter));
/// fleet.commit_all().unwrap();   // plan once, deliver+verify per process
/// fleet.run_all();               // poll/park event loop to all exits
/// for pid in pids {
///     assert!(matches!(fleet.result(pid), Some(Ok(0))));
///     assert_eq!(fleet.read_var(pid, counter), Some(1));
/// }
/// ```
pub struct FleetController {
    /// The template session: front half, pending snippets, patch plan,
    /// controller-level diagnostics and telemetry.
    session: Session,
    /// The multiplexer owning every live process.
    set: ProcessSet<JobOutcome>,
    /// Per-pid controller state, keyed by controller-assigned pid.
    states: BTreeMap<u32, ProcState>,
    next_pid: u32,
    events_dispatched: u64,
    /// The frozen commit plan, once [`FleetController::commit_all`] ran.
    commit: Option<Arc<CommitPlan>>,
    /// For each patch code base a commit laid code out from, where that
    /// code ends: the next commit from the same base goes there, after
    /// code a process may still be running.
    text_ends: BTreeMap<u64, u64>,
    /// Entries of the functions committed instrumentation relocated.
    relocated: BTreeSet<u64>,
    /// Inverse writes of every committed patch (springboard and
    /// rewritten call-site originals).
    undo: Vec<(u64, Vec<u8>)>,
    /// Patch-area → original pc translation, merged across commits.
    reloc_index: RelocationIndex,
}

impl FleetController {
    /// Build a fleet controller over an already-constructed template
    /// session. The session's `threads` option sizes the worker pool
    /// (1 = run the event loop inline, strictly deterministically).
    pub fn from_session(session: Session) -> FleetController {
        let threads = session.threads();
        Self::with_pool(session, threads)
    }

    /// As [`FleetController::from_session`], with a process-set pool of
    /// `threads` workers whatever the session's own thread count (which
    /// still sizes the plan phase).
    pub(crate) fn with_pool(session: Session, threads: usize) -> FleetController {
        FleetController {
            session,
            set: ProcessSet::new(threads),
            states: BTreeMap::new(),
            next_pid: 0,
            events_dispatched: 0,
            commit: None,
            text_ends: BTreeMap::new(),
            relocated: BTreeSet::new(),
            undo: Vec::new(),
            reloc_index: RelocationIndex::default(),
        }
    }

    /// Open and analyze an ELF image, then build the controller (see
    /// [`Session::open_with`]).
    pub fn open(elf: &[u8], opts: SessionOptions) -> Result<FleetController, Error> {
        Ok(Self::from_session(Session::open_with(elf, opts)?))
    }

    /// Analyze an in-memory binary model, then build the controller.
    pub fn from_binary(binary: Binary, opts: SessionOptions) -> FleetController {
        Self::from_session(Session::from_binary(binary, opts))
    }

    /// Build the controller on a shared front-half analysis — the
    /// fleet-of-fleets path: any number of controllers (and plain
    /// sessions) share one `Arc<Analysis>`.
    pub fn from_analysis(analysis: Arc<crate::Analysis>, opts: SessionOptions) -> FleetController {
        Self::from_session(Session::from_analysis(analysis, opts))
    }

    /// Launch `n` new mutatees from the fleet's binary, each stopped at
    /// entry, and [`attach`](FleetController::attach) them; returns their
    /// controller-assigned pids.
    pub fn spawn(&mut self, n: usize) -> Vec<u32> {
        let analysis = self.session.analysis().clone();
        (0..n)
            .map(|_| self.attach(Process::launch(analysis.binary())))
            .collect()
    }

    /// Adopt `process` — stopped at entry, or stopped mid-run — as the
    /// next pid. Its machine runs the session's configured engine, and
    /// when the session has a telemetry sink its debug-interface events
    /// (breakpoints, memory writes, injected faults) stream into it.
    pub fn attach(&mut self, mut process: Process) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        // The cached engine sees every debug-interface write through the
        // machine's invalidation hook, so springboard patches and
        // fault-plan corruption both force re-decode.
        process.machine_mut().engine = self.session.engine();
        if let Some(sink) = self.session.sink() {
            process.set_observer(Box::new(move |ev| sink.event(&session::adapt_proc(ev))));
        }
        self.set.insert(pid, process);
        let diag = self.session.analysis().parse_diagnostics().clone();
        self.states.insert(pid, ProcState { diag, result: None });
        self.session
            .emit(TelemetryEvent::FleetProcessSpawned { pid });
        pid
    }

    /// Pids of every process ever spawned into the fleet, ascending.
    pub fn pids(&self) -> Vec<u32> {
        self.states.keys().copied().collect()
    }

    /// Pids without a terminal result, ascending.
    fn live_pids(&self) -> Vec<u32> {
        let live = self.states.iter().filter(|(_, s)| s.result.is_none());
        live.map(|(pid, _)| *pid).collect()
    }

    /// Completions the event loop has consumed so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// The fleet's totals: the shared parse and instrument counters,
    /// fleet-wide stage wall-clock and tool counters, and — summed over
    /// the per-pid rows of [`FleetController::process_diagnostics`] —
    /// the counters each process owns: patch regions written, faults
    /// injected, instret, cycles, and the engine's translations and
    /// invalidations.
    pub fn diagnostics(&self) -> &Diagnostics {
        self.session.diagnostics()
    }

    /// Set the controller's process-owned counters to their sums over
    /// the per-pid rows.
    fn sync_totals(&mut self) {
        let rows = || self.states.values().map(|s| &s.diag);
        let d = self.session.diag_mut();
        d.patch_regions_written = rows().map(|r| r.patch_regions_written).sum();
        d.faults_injected = rows().map(|r| r.faults_injected).sum();
        d.instret = rows().map(|r| r.instret).sum();
        d.cycles = rows().map(|r| r.cycles).sum();
        d.emu_blocks_translated = rows().map(|r| r.emu_blocks_translated).sum();
        d.emu_invalidations = rows().map(|r| r.emu_invalidations).sum();
    }

    /// The per-process diagnostics for `pid`.
    pub fn process_diagnostics(&self, pid: u32) -> Option<&Diagnostics> {
        self.states.get(&pid).map(|s| &s.diag)
    }

    /// The terminal outcome recorded for `pid`: `Ok(exit_code)` after a
    /// clean exit, the typed per-process error after a failure, `None`
    /// while the process is still live.
    pub fn result(&self, pid: u32) -> Option<&Result<i64, Error>> {
        self.states.get(&pid).and_then(|s| s.result.as_ref())
    }

    /// Allocate an instrumentation variable in the (per-process) patch
    /// data area. One allocation covers the whole fleet: every process
    /// gets its own copy at the same address.
    pub fn alloc_var(&mut self, size: u8) -> Var {
        self.session.alloc_var(size)
    }

    /// Allocate a bulk data region fleet-wide (see
    /// [`Session::alloc_region`]): every process gets its own copy of
    /// the region at the same address, mapped zero-filled by the next
    /// [`FleetController::commit_all`].
    pub fn alloc_region(&mut self, len: u64) -> u64 {
        self.session.alloc_region(len)
    }

    /// The shared parsed code object (template session's analysis).
    pub fn code(&self) -> &rvdyn_parse::CodeObject {
        self.session.code()
    }

    /// Mutable access to the per-process diagnostics for `pid` — the
    /// hook tools use to fold their own counters (trace records drained,
    /// samples taken) into the per-process report.
    pub(crate) fn process_diag_mut(&mut self, pid: u32) -> Option<&mut Diagnostics> {
        self.states.get_mut(&pid).map(|s| &mut s.diag)
    }

    /// Crate-internal: the template session.
    pub(crate) fn session(&self) -> &Session {
        &self.session
    }

    /// Crate-internal: mutable session core (tool counter/telemetry hook).
    pub(crate) fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Crate-internal: the idle process under `pid` (`None` when the
    /// pid is unknown or its process is mid-dispatch).
    pub(crate) fn process(&self, pid: u32) -> Option<&Process> {
        self.set.get(pid)
    }

    /// Crate-internal: the idle process under `pid`, mutably.
    pub(crate) fn process_mut(&mut self, pid: u32) -> Option<&mut Process> {
        self.set.get_mut(pid)
    }

    /// Points of `kind` in the named function (template session).
    pub fn find_points(&self, func: &str, kind: PointKind) -> Result<Vec<Point>, Error> {
        self.session.find_points(func, kind)
    }

    /// Queue `snippet` at each point, fleet-wide.
    pub fn insert(&mut self, points: &[Point], snippet: Snippet) {
        self.session.insert(points, snippet);
    }

    /// Queue basic-block counting for the named function, fleet-wide,
    /// under the session's configured
    /// [`CounterPlacement`](rvdyn_patch::CounterPlacement); resolve the
    /// returned handle per pid with [`FleetController::block_counts`]
    /// after the run.
    pub fn count_blocks(&mut self, func: &str) -> Result<BlockCounter, Error> {
        self.session.count_blocks(func)
    }

    /// Exact per-block execution counts for a [`BlockCounter`], read
    /// from the memory of the process under `pid` (reconstructed through
    /// the CFG flow equations under optimal placement).
    pub fn block_counts(
        &mut self,
        pid: u32,
        counter: &BlockCounter,
    ) -> Result<BTreeMap<u64, u64>, Error> {
        let process = self.set.get(pid).ok_or(Error::FleetProcessLost { pid })?;
        self.session
            .block_counts_with(counter, &mut |v| process.read_u64(v.addr))
    }

    /// Arm a deterministic [`FaultPlan`] on the debug interface of the
    /// single process under `pid`, without disturbing the rest of the
    /// fleet. Fails with [`Error::FleetProcessLost`] when the pid is
    /// unknown (or its process is mid-dispatch).
    pub fn set_fault_plan(&mut self, pid: u32, plan: FaultPlan) -> Result<(), Error> {
        match self.set.get_mut(pid) {
            Some(p) => {
                p.set_fault_plan(plan);
                Ok(())
            }
            None => Err(Error::FleetProcessLost { pid }),
        }
    }

    /// Run `f` against the (idle) process under `pid` — the escape
    /// hatch for direct debugger-style interaction with one fleet
    /// member (breakpoints, single mutatee runs, register pokes).
    pub fn with_process<R>(
        &mut self,
        pid: u32,
        f: impl FnOnce(&mut Process) -> R,
    ) -> Result<R, Error> {
        match self.set.get_mut(pid) {
            Some(p) => Ok(f(p)),
            None => Err(Error::FleetProcessLost { pid }),
        }
    }

    /// The coalesced patch regions the last [`FleetController::commit_all`]
    /// delivered into every process (empty before the first commit).
    /// Tests use this to check bit-identity against sequential sessions.
    pub fn commit_regions(&self) -> &[(u64, Vec<u8>)] {
        self.commit.as_ref().map_or(&[], |p| &p.regions)
    }

    /// Lower and relocate the queued snippets **once** on the template
    /// session (the timed `instrument` stage, fanned over the session's
    /// worker pool), then deliver the identical patch into every live
    /// process concurrently (the timed `commit` stage): map the data
    /// area (fresh pages read zero, and the variables of earlier commits
    /// keep their values), write the coalesced regions, read each region
    /// back to verify, install the trap-table redirects. Each verified
    /// region emits [`TelemetryEvent::PatchRegionWritten`].
    ///
    /// Each commit lays its code out after the code earlier commits laid
    /// out from the same patch code base, which a stopped process may be
    /// running. A commit that
    /// instruments a function an earlier commit relocated would replace
    /// that copy and drop its snippets, so it is refused with
    /// [`Error::AlreadyRelocated`] until
    /// [`FleetController::remove_instrumentation`].
    ///
    /// Returns `Err` only when the *plan* fails (nothing was delivered
    /// anywhere). Per-process delivery failures are recorded per pid —
    /// [`Error::PatchVerifyFailed`] for a region whose read-back
    /// disagrees (e.g. under a targeted fault plan),
    /// [`Error::FleetProcessLost`] for a process that exited before
    /// delivery — and leave the rest of the fleet fully committed.
    pub fn commit_all(&mut self) -> Result<(), Error> {
        let funcs = self.session.pending_functions();
        if let Some(&func) = funcs.iter().find(|f| self.relocated.contains(f)) {
            return Err(Error::AlreadyRelocated { func });
        }
        let base = self.session.layout().patch_text;
        let text = self.text_ends.get(&base).copied().unwrap_or(base);
        let result = self.session.apply_at(text, &self.relocated)?;
        self.session.clear_pending();
        self.text_ends.insert(base, result.code_end);
        self.relocated.extend(funcs);
        self.undo.extend(result.undo_writes().iter().cloned());
        self.reloc_index.merge(&result.reloc_index);

        let regions = coalesce_writes(result.memory_writes());
        let code_span = regions
            .iter()
            .fold(None, |span: Option<(u64, u64)>, (addr, bytes)| {
                let end = *addr + bytes.len() as u64;
                Some(match span {
                    None => (*addr, end),
                    Some((lo, hi)) => (lo.min(*addr), hi.max(end)),
                })
            });
        let plan = Arc::new(CommitPlan {
            data_addr: self.session.layout().patch_data,
            data_len: self.session.var_bytes().max(8),
            regions,
            trap_table: result.trap_table.clone(),
            code_span,
        });
        self.commit = Some(plan.clone());

        let timer = self.session.begin_stage(TimedStage::Commit);
        // Seed every live process's diagnostics with the shared
        // instrument totals (the plan is one artifact, delivered N
        // times), then fan the deliveries out.
        for pid in &self.live_pids() {
            if let Some(st) = self.states.get_mut(pid) {
                st.diag.record_patch(&result);
            }
            let plan = plan.clone();
            self.set.dispatch(*pid, move |p| commit_into(p, &plan));
        }
        while let Some(c) = self.set.next_completion() {
            self.events_dispatched += 1;
            self.session
                .emit(TelemetryEvent::FleetEventDispatched { pid: c.pid });
            let faults = self.set.get(c.pid).map_or(0, |p| p.faults_injected());
            let Some(st) = self.states.get_mut(&c.pid) else {
                continue;
            };
            st.diag.timings.record(TimedStage::Commit, c.nanos);
            st.diag.faults_injected = faults;
            // Only commit jobs are in flight here; stay total.
            let JobOutcome::Committed {
                verified,
                failed,
                lost,
            } = c.outcome
            else {
                continue;
            };
            for (addr, bytes) in &plan.regions[..verified] {
                self.session.emit(TelemetryEvent::PatchRegionWritten {
                    addr: *addr,
                    len: bytes.len(),
                });
            }
            st.diag.patch_regions_written += verified;
            let error = if lost {
                Some(Error::FleetProcessLost { pid: c.pid })
            } else {
                failed.map(|addr| Error::PatchVerifyFailed { addr })
            };
            if let Some(error) = error {
                st.result = Some(Err(error));
                self.session
                    .emit(TelemetryEvent::FleetProcessFailed { pid: c.pid });
            }
        }
        self.sync_totals();
        self.session.end_stage(timer);
        Ok(())
    }

    /// The relocated→original address translation, merged across every
    /// commit, for use with `StackWalker::with_translation` when
    /// debugging an instrumented process.
    pub fn reloc_index(&self) -> &RelocationIndex {
        &self.reloc_index
    }

    /// Remove all committed instrumentation from every process: the
    /// springboards and rewritten call sites are overwritten with the
    /// original instructions and the trap redirects cleared, so execution
    /// stops entering the patch area from original code (the area stays
    /// mapped). A frame already running in a relocated copy runs on in it
    /// until it returns, and its calls keep entering the copies of the
    /// callees its commit relocated. Counters keep their values and stay
    /// readable, and a later commit may instrument the same functions
    /// again.
    pub fn remove_instrumentation(&mut self) {
        self.relocated.clear();
        let undo = std::mem::take(&mut self.undo);
        for pid in self.states.keys() {
            if let Some(p) = self.set.get_mut(*pid) {
                for (addr, original) in &undo {
                    p.write_mem(*addr, original);
                }
                p.machine_mut().trap_redirects.clear();
            }
        }
    }

    /// Run every process that has no terminal result yet to its
    /// terminal event (the timed `run` stage): each one's whole run is
    /// one job on the worker pool, through the one live run loop, which
    /// resumes it past breakpoints, emulated steps and delayed-stop
    /// recoveries; the controller then records each pid's result in pid
    /// order. A process whose commit failed or found it gone already
    /// holds its terminal result, so it never runs a half-delivered patch
    /// — failure isolation works both ways. A process that no commit
    /// reached (attached after the last commit, or after a commit whose
    /// plan failed) runs uninstrumented.
    pub fn run_all(&mut self) {
        let timer = self.session.begin_stage(TimedStage::Run);
        let analysis = self.session.analysis().clone();
        let runs = self.run_each(move |p| {
            // run_all has no sampling policy: a cycle interrupt here is a
            // leftover armed interval (a profiler that detached without
            // disarming), so disarm it and let the process run on.
            let result = run_to_end(p, analysis.code(), |p, tick| {
                if tick.is_some() {
                    p.machine_mut().stop_at_cycles = None;
                }
            });
            SampledRun::unsampled(result)
        });
        for (pid, run) in runs {
            self.finish_process(pid, run.result);
        }
        self.session.end_stage(timer);
    }

    /// Run `job` — a whole run of one process, with or without the
    /// profiler's sampling — against every process without a terminal
    /// result, as one job per pid on the worker pool, and return each
    /// pid's run, pid-ascending, once all have ended: the dispatcher
    /// under [`FleetController::run_all`] and the fleet profiler. A pid
    /// that already ended (its commit failed) does not run: its run is
    /// its recorded result, with no samples. Each completion counts as
    /// one dispatched event and records its job's wall-clock as the
    /// pid's run timing; the caller ends each pid through
    /// [`FleetController::finish_process`]. A pid whose process is not in
    /// the set reports [`Error::FleetProcessLost`].
    pub(crate) fn run_each(
        &mut self,
        job: impl Fn(&mut Process) -> SampledRun + Send + Sync + 'static,
    ) -> BTreeMap<u32, SampledRun> {
        let job = Arc::new(job);
        let mut runs = BTreeMap::new();
        for (&pid, st) in &self.states {
            let result = match &st.result {
                Some(ended) => ended.clone(),
                None => {
                    let job = job.clone();
                    if self.set.dispatch(pid, move |p| JobOutcome::Ran(job(p))) {
                        continue;
                    }
                    Err(Error::FleetProcessLost { pid })
                }
            };
            runs.insert(pid, SampledRun::unsampled(result));
        }
        while let Some(c) = self.set.next_completion() {
            self.events_dispatched += 1;
            self.session
                .emit(TelemetryEvent::FleetEventDispatched { pid: c.pid });
            if let Some(st) = self.states.get_mut(&c.pid) {
                st.diag.timings.record(TimedStage::Run, c.nanos);
            }
            // Only run jobs are in flight here; stay total.
            if let JobOutcome::Ran(run) = c.outcome {
                runs.insert(c.pid, run);
            }
        }
        runs
    }

    /// End one run of `pid` with `result`: emit
    /// [`TelemetryEvent::RunExit`], fold its final machine counters and
    /// buffered engine events into its per-process diagnostics (and the
    /// controller's totals), then record the result and emit the fleet
    /// exit/failure telemetry. A pid that already ended did not run, and
    /// keeps its first outcome. [`FleetController::run_all`] and the
    /// fleet profiler end every run here.
    pub(crate) fn finish_process(&mut self, pid: u32, result: Result<i64, Error>) {
        if self.result(pid).is_some() {
            return;
        }
        self.session
            .emit(TelemetryEvent::run_exit(result.as_ref().copied()));
        if let Some(p) = self.set.get_mut(pid) {
            for ev in p.machine_mut().take_emu_events() {
                self.session.emit(session::adapt_emu(ev));
            }
            if let Some(st) = self.states.get_mut(&pid) {
                st.diag.record_run(p.machine().icount, p.machine().cycles);
                st.diag.record_emu(p.machine());
                st.diag.faults_injected = p.faults_injected();
            }
        }
        self.sync_totals();
        let Some(st) = self.states.get_mut(&pid) else {
            return;
        };
        let event = match &result {
            Ok(code) => TelemetryEvent::FleetProcessExited { pid, code: *code },
            Err(_) => TelemetryEvent::FleetProcessFailed { pid },
        };
        st.result = Some(result);
        self.session.emit(event);
    }

    /// Read an instrumentation variable from the process under `pid`.
    pub fn read_var(&self, pid: u32, var: Var) -> Option<u64> {
        self.set.get(pid)?.read_u64(var.addr)
    }

    /// The fleet-level rollup: totals plus one pid-sorted
    /// [`ProcessReport`] per process (identical for every worker
    /// count). Callable at any time; live processes report with neither
    /// exit code nor error.
    pub fn summary(&self) -> FleetSummary {
        let per_process: Vec<ProcessReport> = self
            .states
            .iter()
            .map(|(pid, st)| ProcessReport {
                pid: *pid,
                exit_code: match &st.result {
                    Some(Ok(code)) => Some(*code),
                    _ => None,
                },
                error: match &st.result {
                    Some(Err(e)) => Some(e.to_string()),
                    _ => None,
                },
                diag: st.diag.clone(),
            })
            .collect();
        FleetSummary {
            processes: per_process.len(),
            events_dispatched: self.events_dispatched,
            faults_injected: per_process.iter().map(|p| p.diag.faults_injected).sum(),
            processes_failed: per_process.iter().filter(|p| p.error.is_some()).count(),
            per_process,
        }
    }
}

/// The per-process commit job: deliver the frozen plan into one live
/// process through its debug interface, with read-back verification.
/// Runs on a fleet worker; everything it touches is this one process.
fn commit_into(p: &mut Process, plan: &CommitPlan) -> JobOutcome {
    if p.exit_code().is_some() {
        // The process died before delivery — the fleet analogue of
        // ESRCH from ptrace mid-commit.
        return JobOutcome::Committed {
            verified: 0,
            failed: None,
            lost: true,
        };
    }
    p.map_mem(plan.data_addr, plan.data_len);
    let mut verified = 0usize;
    let mut failed: Option<u64> = None;
    for (addr, bytes) in &plan.regions {
        p.write_mem(*addr, bytes);
        match p.read_mem(*addr, bytes.len()) {
            Ok(back) if back == *bytes => verified += 1,
            _ => {
                failed = Some(*addr);
                break;
            }
        }
    }
    if failed.is_none() {
        if let Some((lo, hi)) = plan.code_span {
            p.machine_mut().ensure_code_region(lo, hi - lo);
        }
        for (from, to) in &plan.trap_table {
            p.machine_mut().trap_redirects.insert(*from, *to);
        }
    }
    JobOutcome::Committed {
        verified,
        failed,
        lost: false,
    }
}

/// Where one `cont` leg of a live run left the mutatee.
enum Stop {
    /// The run is over: the exit code, or the typed error that ended it.
    Done(Result<i64, Error>),
    /// The cycle-count interrupt fired at this pc (a sampling tick).
    CycleLimit(u64),
    /// A breakpoint or emulated step: resume.
    Resume,
}

/// Run `p` to its terminal stop against the mutatee's parsed original
/// `code`: the one live run loop, under [`FleetController::run_all`] and
/// the profiler. Before every `cont` leg it calls `each` with the pc of
/// the cycle interrupt that ended the previous leg (`None` before the
/// first leg and after a breakpoint or emulated step), so the caller
/// can take a sample and arm or disarm the next interrupt.
pub(crate) fn run_to_end(
    p: &mut Process,
    code: &CodeObject,
    mut each: impl FnMut(&mut Process, Option<u64>),
) -> Result<i64, Error> {
    let mut tick = None;
    loop {
        each(p, tick);
        tick = match resume(p, code) {
            Stop::Done(result) => return result,
            Stop::CycleLimit(pc) => Some(pc),
            Stop::Resume => None,
        };
    }
}

/// Resume `p` until its next stop, and classify the stop — the one rule
/// for how a live run ends. The emulator resolves springboard traps
/// through the redirect table in-loop, so a trap that surfaces while
/// redirects are installed, over an original instruction that was not
/// an `ebreak`, is a springboard (or stray write) whose redirect is
/// missing ([`Error::RedirectMiss`]). Any other trap is the mutatee's own
/// `ebreak`, at its original address or relocated into the patch area.
/// A refused debug-interface operation records the mutatee's pc.
fn resume(p: &mut Process, code: &CodeObject) -> Stop {
    let error = match p.cont() {
        Ok(Event::Exited(status)) => return Stop::Done(Ok(status)),
        Ok(Event::Breakpoint(_) | Event::Stepped(_)) => return Stop::Resume,
        Ok(Event::CycleLimit(pc)) => return Stop::CycleLimit(pc),
        Ok(Event::Trap(pc)) if !p.machine().trap_redirects.is_empty() && overwritten(code, pc) => {
            Error::RedirectMiss { pc }
        }
        Ok(Event::Trap(pc)) => Error::UncleanExit {
            reason: format!("unexpected breakpoint trap at {pc:#x}"),
            pc,
            icount: p.machine().icount,
        },
        Ok(Event::Fault { pc, addr }) => Error::MutateeFault { pc, addr },
        Err(ProcError::CacheIncoherent(pc)) => Error::CacheIncoherent { pc },
        Err(source) => Error::Proc {
            source,
            pc: Some(p.pc()),
        },
    };
    Stop::Done(Err(error))
}

/// Whether `code` has an instruction at `pc` other than `ebreak`, so a
/// trap there was written over the mutatee's own code.
fn overwritten(code: &CodeObject, pc: u64) -> bool {
    code.function_containing(pc)
        .and_then(|f| f.block_containing(pc))
        .and_then(|b| b.insts.iter().find(|i| i.address == pc))
        .is_some_and(|i| i.op != Op::Ebreak)
}

/// Coalesce individual patch writes into contiguous regions: sort by
/// address, then merge any write that starts at or before the end of the
/// previous region. Overlapping bytes are resolved in original write
/// order (later writes win), matching the semantics of issuing the
/// writes one by one. The controller computes the regions once and
/// delivers the same bytes into every process.
fn coalesce_writes(writes: &[(u64, Vec<u8>)]) -> Vec<(u64, Vec<u8>)> {
    let mut sorted: Vec<&(u64, Vec<u8>)> = writes.iter().collect();
    sorted.sort_by_key(|(addr, _)| *addr); // stable: preserves write order at equal addresses
    let mut out: Vec<(u64, Vec<u8>)> = Vec::new();
    for (addr, bytes) in sorted {
        match out.last_mut() {
            Some((base, buf)) if *addr <= *base + buf.len() as u64 => {
                let off = (*addr - *base) as usize;
                let end = off + bytes.len();
                if end > buf.len() {
                    buf.resize(end, 0);
                }
                buf[off..end].copy_from_slice(bytes);
            }
            _ => out.push((*addr, bytes.clone())),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_instruments_and_runs() {
        let bin = rvdyn_asm::matmul_program(4, 2);
        let mut fleet = FleetController::from_binary(bin, SessionOptions::new());
        let pids = fleet.spawn(3);
        assert_eq!(pids, vec![0, 1, 2]);
        let counter = fleet.alloc_var(8);
        let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
        fleet.insert(&pts, Snippet::increment(counter));
        fleet.commit_all().unwrap();
        fleet.run_all();
        for pid in pids {
            assert!(matches!(fleet.result(pid), Some(Ok(0))), "pid {pid}");
            assert_eq!(fleet.read_var(pid, counter), Some(2), "pid {pid}");
            let d = fleet.process_diagnostics(pid).unwrap();
            assert!(d.patch_regions_written > 0);
            assert!(d.instret > 0);
            assert!(d.timings.commit_ns > 0 && d.timings.run_ns > 0);
        }
        let s = fleet.summary();
        assert_eq!(s.processes, 3);
        assert_eq!(s.processes_failed, 0);
        assert_eq!(s.faults_injected, 0);
        // One commit completion + at least one run completion per pid.
        assert!(s.events_dispatched >= 6);
        for (row, pid) in s.per_process.iter().zip(0..) {
            assert_eq!((row.pid, row.exit_code, &row.error), (pid, Some(0), &None));
        }
    }

    #[test]
    fn rollup_of_an_exited_and_a_failed_process_is_pinned() {
        let exited = Diagnostics {
            instret: 500,
            cycles: 700,
            patch_regions_written: 3,
            timings: crate::StageTimings {
                run_ns: 900,
                ..Default::default()
            },
            ..Default::default()
        };
        let failed = Diagnostics {
            faults_injected: 1,
            patch_regions_written: 2,
            timings: crate::StageTimings {
                commit_ns: 80,
                ..Default::default()
            },
            ..Default::default()
        };
        let s = FleetSummary {
            processes: 2,
            events_dispatched: 5,
            faults_injected: 1,
            processes_failed: 1,
            per_process: vec![
                ProcessReport {
                    pid: 0,
                    exit_code: Some(0),
                    error: None,
                    diag: exited,
                },
                ProcessReport {
                    pid: 1,
                    exit_code: None,
                    error: Some("patch region at 0x80000 failed read-back verification".into()),
                    diag: failed,
                },
            ],
        };
        // Captured from the hand-written serialiser the key tables
        // replaced (less the since-dropped `emu.chain_links`, plus the
        // later `instrument.calls_retargeted`); the failed row carries
        // the schema's only negative.
        let expected = concat!(
            r#"{"schema":"rvdyn-diagnostics-v1","fleet":{"processes":2,"events_dispatched":5,"#,
            r#""faults_injected":1,"processes_failed":1},"per_process":[{"pid":0,"exited":1,"#,
            r#""exit_code":0,"failed":0,"diagnostics":{"schema":"rvdyn-diagnostics-v1","#,
            r#""parse":{"functions":0,"blocks":0,"instructions":0,"unresolved_indirects":0,"#,
            r#""jump_tables_resolved":0,"gap_functions":0},"instrument":{"points":0,"#,
            r#""dead_register_points":0,"spills":0,"patch_regions_written":3,"#,
            r#""clobbers_audited":0,"redirects_registered":0,"counters_placed":0,"#,
            r#""counters_elided":0,"instrument_workers":0,"plans_built":0,"#,
            r#""calls_retargeted":0,"#,
            r#""springboards":{"compressed_jump":0,"jal":0,"auipc_jalr":0,"trap":0}},"#,
            r#""run":{"instret":500,"cycles":700,"counts_reconstructed":0},"#,
            r#""faults":{"injected":0},"cache":{"analysis_cache_hits":0,"#,
            r#""analysis_cache_misses":0,"analysis_cache_evictions":0},"#,
            r#""emu":{"blocks_translated":0,"invalidations":0},"#,
            r#""tools":{"trace_points_planned":0,"trace_runs":0,"trace_records":0,"#,
            r#""trace_dropped":0,"#,
            r#""profile_samples":0,"profile_max_depth":0},"timings_ns":{"open":0,"parse":0,"#,
            r#""instrument":0,"relocate":0,"commit":0,"run":900}}},{"pid":1,"exited":0,"#,
            r#""exit_code":-1,"failed":1,"diagnostics":{"schema":"rvdyn-diagnostics-v1","#,
            r#""parse":{"functions":0,"blocks":0,"instructions":0,"unresolved_indirects":0,"#,
            r#""jump_tables_resolved":0,"gap_functions":0},"instrument":{"points":0,"#,
            r#""dead_register_points":0,"spills":0,"patch_regions_written":2,"#,
            r#""clobbers_audited":0,"redirects_registered":0,"counters_placed":0,"#,
            r#""counters_elided":0,"instrument_workers":0,"plans_built":0,"#,
            r#""calls_retargeted":0,"#,
            r#""springboards":{"compressed_jump":0,"jal":0,"auipc_jalr":0,"trap":0}},"#,
            r#""run":{"instret":0,"cycles":0,"counts_reconstructed":0},"#,
            r#""faults":{"injected":1},"cache":{"analysis_cache_hits":0,"#,
            r#""analysis_cache_misses":0,"analysis_cache_evictions":0},"#,
            r#""emu":{"blocks_translated":0,"invalidations":0},"#,
            r#""tools":{"trace_points_planned":0,"trace_runs":0,"trace_records":0,"#,
            r#""trace_dropped":0,"#,
            r#""profile_samples":0,"profile_max_depth":0},"timings_ns":{"open":0,"parse":0,"#,
            r#""instrument":0,"relocate":0,"commit":80,"run":0}}}]}"#,
        );
        assert_eq!(s.to_json(), expected);
    }

    #[test]
    fn unknown_pid_is_fleet_process_lost() {
        let bin = rvdyn_asm::matmul_program(4, 1);
        let mut fleet = FleetController::from_binary(bin, SessionOptions::new());
        fleet.spawn(1);
        match fleet.set_fault_plan(99, FaultPlan::new()) {
            Err(Error::FleetProcessLost { pid: 99 }) => {}
            other => panic!("expected FleetProcessLost, got {other:?}"),
        }
        assert!(fleet.read_var(99, Var { addr: 0, size: 8 }).is_none());
    }

    #[test]
    fn coalesce_merges_adjacent_and_overlapping() {
        let writes = vec![
            (0x100u64, vec![1u8, 2, 3, 4]),
            (0x104, vec![5, 6]),    // adjacent: merges
            (0x102, vec![9, 9]),    // overlap: later write wins
            (0x200, vec![7]),       // distinct region
            (0x1f0, vec![8; 0x10]), // adjacent to 0x200 after sort
        ];
        let regions = coalesce_writes(&writes);
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].0, 0x100);
        assert_eq!(regions[0].1, vec![1, 2, 9, 9, 5, 6]);
        assert_eq!(regions[1].0, 0x1f0);
        assert_eq!(regions[1].1.len(), 0x11);
        assert_eq!(regions[1].1[0x10], 7);
    }

    #[test]
    fn coalesce_of_disjoint_writes_is_identity() {
        let writes = vec![(0x200u64, vec![1u8]), (0x100, vec![2, 3])];
        let regions = coalesce_writes(&writes);
        assert_eq!(regions, vec![(0x100, vec![2, 3]), (0x200, vec![1])]);
    }
}
