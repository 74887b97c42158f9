//! Fleet-scale dynamic instrumentation: one controller, N mutatees.
//!
//! Real deployments of the tools the paper targets — profilers,
//! debuggers, whole-workload tracers — attach to *fleets* of processes,
//! not one mutatee at a time. [`FleetController`] instruments
//! dozens-to-hundreds of emulated processes concurrently from one
//! [`Session`]-derived context:
//!
//! * the **front half** (binary model, CFG, natural loops) is computed
//!   once and shared behind the session's `Arc<Analysis>` — N copies of
//!   the same binary parse exactly once;
//! * the **plan** (liveness, snippet lowering, relocation,
//!   springboards) is also computed once, on the controller's template session, by the same
//!   [`Session::apply`] the single-process path uses — reusing the
//!   parallel plan phase and its deterministic layout, so the patch
//!   bytes delivered to every process are bit-identical to what a
//!   sequential [`DynamicInstrumenter`](crate::DynamicInstrumenter)
//!   session would commit;
//! * the **per-process back half** — verified patch commits, run-loop
//!   event handling, redirect resolution — fans out over the
//!   [`ProcessSet`] worker pool, with the controller parked in a
//!   poll/park event loop consuming stop/trap/exit completions in
//!   arrival order.
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
use crate::dynamic::{coalesce_writes, resume, Stop};
use crate::error::Error;
use crate::session::{self, Session, SessionOptions};
use crate::telemetry::{TelemetryEvent, TimedStage};
use crate::tools::profile::SampledRun;
use rvdyn_codegen::snippet::{Snippet, Var};
use rvdyn_patch::{Point, PointKind};
use rvdyn_proccontrol::{FaultPlan, Process, ProcessSet};
use rvdyn_symtab::Binary;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The patch, frozen once by the template session's apply and shared
/// (behind an `Arc`) by every per-process commit job.
struct CommitPlan {
    /// Patch data area base (zero-filled before the regions land).
    data_addr: u64,
    /// Bytes to zero at `data_addr`.
    data_len: usize,
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
    /// A run job finished one `cont` leg, classified by [`resume`].
    Stopped(Stop),
    /// A sampling job ran one process's whole profiling loop to its
    /// terminal stop.
    Sampled(SampledRun),
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
    /// Whether this process holds a verified copy of the patch.
    committed: bool,
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
    /// to per-process handlers (commit outcomes + run stop events).
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
}

impl FleetController {
    /// Build a fleet controller over an already-constructed template
    /// session. The session's `threads` option sizes the worker pool
    /// (1 = run the event loop inline, strictly deterministically).
    pub fn from_session(session: Session) -> FleetController {
        let threads = session.threads();
        FleetController {
            session,
            set: ProcessSet::new(threads),
            states: BTreeMap::new(),
            next_pid: 0,
            events_dispatched: 0,
            commit: None,
        }
    }

    /// Open and analyze an ELF image, then build the controller (see
    /// [`Session::open`]).
    pub fn open(elf: &[u8], opts: SessionOptions) -> Result<FleetController, Error> {
        Ok(Self::from_session(Session::open(elf, opts)?))
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

    /// Launch `n` new mutatees from the fleet's binary (each stopped at
    /// entry, each backed by its own machine running the session's
    /// configured engine) and return their controller-assigned pids.
    pub fn spawn(&mut self, n: usize) -> Vec<u32> {
        let analysis = self.session.analysis().clone();
        let engine = self.session.engine();
        let mut pids = Vec::with_capacity(n);
        for _ in 0..n {
            let pid = self.next_pid;
            self.next_pid += 1;
            let mut process = Process::launch(analysis.binary());
            process.machine_mut().engine = engine;
            // Fleet processes carry no live observer: they migrate
            // across worker threads, so the controller thread emits all
            // telemetry itself, per consumed completion.
            self.set.insert(pid, process);
            let diag = analysis.parse_diagnostics().clone();
            self.states.insert(
                pid,
                ProcState {
                    diag,
                    result: None,
                    committed: false,
                },
            );
            self.session
                .emit(TelemetryEvent::FleetProcessSpawned { pid });
            pids.push(pid);
        }
        pids
    }

    /// Pids of every process ever spawned into the fleet, ascending.
    pub fn pids(&self) -> Vec<u32> {
        self.states.keys().copied().collect()
    }

    /// Completions the event loop has consumed so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// The controller-level (template session) diagnostics: shared
    /// parse and instrument totals, plus fleet-wide commit/run stage
    /// wall-clock. Per-process counters live on
    /// [`FleetController::process_diagnostics`].
    pub fn diagnostics(&self) -> &Diagnostics {
        self.session.diagnostics()
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
    /// the region at the same address, zero-filled by the next
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

    /// Crate-internal: mutable session core (tool counter/telemetry hook).
    pub(crate) fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Points of `kind` in the named function (template session).
    pub fn find_points(&self, func: &str, kind: PointKind) -> Result<Vec<Point>, Error> {
        self.session.find_points(func, kind)
    }

    /// Queue `snippet` at each point, fleet-wide.
    pub fn insert(&mut self, points: &[Point], snippet: Snippet) {
        self.session.insert(points, snippet);
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
    /// process concurrently (the timed `commit` stage): zero the data
    /// area, write the coalesced regions, read each region back to
    /// verify, install the trap-table redirects.
    ///
    /// Returns `Err` only when the *plan* fails (nothing was delivered
    /// anywhere). Per-process delivery failures are recorded per pid —
    /// [`Error::PatchVerifyFailed`] for a region whose read-back
    /// disagrees (e.g. under a targeted fault plan),
    /// [`Error::FleetProcessLost`] for a process that exited before
    /// delivery — and leave the rest of the fleet fully committed.
    pub fn commit_all(&mut self) -> Result<(), Error> {
        let result = self.session.apply()?;
        self.session.clear_pending();

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
            data_len: self.session.var_bytes().max(8) as usize,
            regions,
            trap_table: result.trap_table.clone(),
            code_span,
        });
        self.commit = Some(plan.clone());

        let timer = self.session.begin_stage(TimedStage::Commit);
        // Seed every live process's diagnostics with the shared
        // instrument totals (the plan is one artifact, delivered N
        // times), then fan the deliveries out.
        let live: Vec<u32> = self
            .states
            .iter()
            .filter(|(_, s)| s.result.is_none())
            .map(|(pid, _)| *pid)
            .collect();
        for pid in &live {
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
            match c.outcome {
                JobOutcome::Committed { lost: true, .. } => {
                    st.result = Some(Err(Error::FleetProcessLost { pid: c.pid }));
                    self.session
                        .emit(TelemetryEvent::FleetProcessFailed { pid: c.pid });
                }
                JobOutcome::Committed {
                    verified,
                    failed: Some(addr),
                    ..
                } => {
                    st.diag.patch_regions_written += verified;
                    st.result = Some(Err(Error::PatchVerifyFailed { addr }));
                    self.session
                        .emit(TelemetryEvent::FleetProcessFailed { pid: c.pid });
                }
                JobOutcome::Committed {
                    verified,
                    failed: None,
                    ..
                } => {
                    st.diag.patch_regions_written += verified;
                    st.committed = true;
                }
                // A run or sampling outcome cannot arrive here
                // (commit_all drains its own dispatches), but stay total.
                JobOutcome::Stopped(_) | JobOutcome::Sampled(_) => {}
            }
        }
        self.session.end_stage(timer);
        Ok(())
    }

    /// Run every committed process to its terminal event through the
    /// poll/park event loop (the timed `run` stage): each completion —
    /// stop, trap, or exit — is consumed in arrival order; non-terminal
    /// stops (breakpoints, emulated steps, delayed-stop recoveries) are
    /// re-dispatched; terminal events record the per-process result.
    /// Processes that never committed (or already failed) are left
    /// untouched — failure isolation works both ways.
    pub fn run_all(&mut self) {
        let timer = self.session.begin_stage(TimedStage::Run);
        let runnable: Vec<u32> = self
            .states
            .iter()
            .filter(|(_, s)| s.result.is_none() && s.committed)
            .map(|(pid, _)| *pid)
            .collect();
        let analysis = self.session.analysis().clone();
        let run_leg = move |p: &mut Process| JobOutcome::Stopped(resume(p, analysis.code()));
        for pid in runnable {
            self.set.dispatch(pid, run_leg.clone());
        }
        while let Some(c) = self.set.next_completion() {
            self.events_dispatched += 1;
            self.session
                .emit(TelemetryEvent::FleetEventDispatched { pid: c.pid });
            if let Some(st) = self.states.get_mut(&c.pid) {
                st.diag.timings.record(TimedStage::Run, c.nanos);
            }
            let terminal: Option<Result<i64, Error>> = match c.outcome {
                JobOutcome::Stopped(Stop::Done(result)) => Some(result),
                JobOutcome::Stopped(Stop::Resume) => None,
                JobOutcome::Stopped(Stop::CycleLimit(_)) => {
                    // run_all has no sampling policy — the profiler runs
                    // its own loop as one job per process. A cycle
                    // interrupt arriving here is a leftover armed
                    // interval: disarm it and let the process run on.
                    if let Some(p) = self.set.get_mut(c.pid) {
                        p.machine_mut().stop_at_cycles = None;
                    }
                    None
                }
                // Commit and sampling outcomes cannot arrive here; stay
                // total.
                JobOutcome::Committed { .. } | JobOutcome::Sampled(_) => None,
            };
            match terminal {
                None => {
                    // Non-terminal stop: resume this process; the event
                    // loop keeps multiplexing the others meanwhile.
                    self.set.dispatch(c.pid, run_leg.clone());
                }
                Some(result) => {
                    self.finish_process(c.pid, result);
                }
            }
        }
        self.session.end_stage(timer);
    }

    /// Run `job` — the fleet profiler's sampling loop — against every
    /// process as one job per pid on the worker pool, and return each
    /// pid's run, pid-ascending, once all have ended. Each completion
    /// counts as one dispatched event and records its job's wall-clock
    /// as the pid's run timing; the caller ends each pid through
    /// [`FleetController::finish_process`]. A pid whose process is not
    /// in the set reports [`Error::FleetProcessLost`].
    pub(crate) fn sample_all(
        &mut self,
        job: impl Fn(&mut Process) -> SampledRun + Send + Sync + 'static,
    ) -> BTreeMap<u32, SampledRun> {
        let job = Arc::new(job);
        let mut runs = BTreeMap::new();
        for pid in self.pids() {
            let job = job.clone();
            if !self.set.dispatch(pid, move |p| JobOutcome::Sampled(job(p))) {
                let lost = SampledRun {
                    profile: Default::default(),
                    samples: Vec::new(),
                    result: Err(Error::FleetProcessLost { pid }),
                };
                runs.insert(pid, lost);
            }
        }
        while let Some(c) = self.set.next_completion() {
            self.events_dispatched += 1;
            self.session
                .emit(TelemetryEvent::FleetEventDispatched { pid: c.pid });
            if let Some(st) = self.states.get_mut(&c.pid) {
                st.diag.timings.record(TimedStage::Run, c.nanos);
            }
            // Only sampling jobs are in flight here; stay total.
            if let JobOutcome::Sampled(run) = c.outcome {
                runs.insert(c.pid, run);
            }
        }
        runs
    }

    /// Record a terminal result for `pid`: fold its final machine
    /// counters and buffered engine events into its per-process
    /// diagnostics, then record the result and emit the fleet
    /// exit/failure telemetry — unless the process already ended (a
    /// failed commit the profiler sampled anyway), whose first outcome
    /// stands. [`FleetController::run_all`] and the fleet profiler end
    /// every process here.
    pub(crate) fn finish_process(&mut self, pid: u32, result: Result<i64, Error>) {
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
        let Some(st) = self.states.get_mut(&pid) else {
            return;
        };
        if st.result.is_some() {
            return;
        }
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
    p.write_mem(plan.data_addr, &vec![0u8; plan.data_len]);
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
        // replaced (less the since-dropped `emu.chain_links`); the
        // failed row carries the schema's only negative.
        let expected = concat!(
            r#"{"schema":"rvdyn-diagnostics-v1","fleet":{"processes":2,"events_dispatched":5,"#,
            r#""faults_injected":1,"processes_failed":1},"per_process":[{"pid":0,"exited":1,"#,
            r#""exit_code":0,"failed":0,"diagnostics":{"schema":"rvdyn-diagnostics-v1","#,
            r#""parse":{"functions":0,"blocks":0,"instructions":0,"unresolved_indirects":0,"#,
            r#""jump_tables_resolved":0,"gap_functions":0},"instrument":{"points":0,"#,
            r#""dead_register_points":0,"spills":0,"patch_regions_written":3,"#,
            r#""clobbers_audited":0,"redirects_registered":0,"counters_placed":0,"#,
            r#""counters_elided":0,"instrument_workers":0,"plans_built":0,"#,
            r#""springboards":{"compressed_jump":0,"jal":0,"auipc_jalr":0,"trap":0}},"#,
            r#""run":{"instret":500,"cycles":700,"counts_reconstructed":0},"#,
            r#""faults":{"injected":0},"cache":{"analysis_cache_hits":0,"#,
            r#""analysis_cache_misses":0,"analysis_cache_evictions":0},"#,
            r#""emu":{"blocks_translated":0,"invalidations":0},"#,
            r#""tools":{"trace_points_planned":0,"trace_records":0,"trace_dropped":0,"#,
            r#""profile_samples":0,"profile_max_depth":0},"timings_ns":{"open":0,"parse":0,"#,
            r#""instrument":0,"relocate":0,"commit":0,"run":900}}},{"pid":1,"exited":0,"#,
            r#""exit_code":-1,"failed":1,"diagnostics":{"schema":"rvdyn-diagnostics-v1","#,
            r#""parse":{"functions":0,"blocks":0,"instructions":0,"unresolved_indirects":0,"#,
            r#""jump_tables_resolved":0,"gap_functions":0},"instrument":{"points":0,"#,
            r#""dead_register_points":0,"spills":0,"patch_regions_written":2,"#,
            r#""clobbers_audited":0,"redirects_registered":0,"counters_placed":0,"#,
            r#""counters_elided":0,"instrument_workers":0,"plans_built":0,"#,
            r#""springboards":{"compressed_jump":0,"jal":0,"auipc_jalr":0,"trap":0}},"#,
            r#""run":{"instret":0,"cycles":0,"counts_reconstructed":0},"#,
            r#""faults":{"injected":1},"cache":{"analysis_cache_hits":0,"#,
            r#""analysis_cache_misses":0,"analysis_cache_evictions":0},"#,
            r#""emu":{"blocks_translated":0,"invalidations":0},"#,
            r#""tools":{"trace_points_planned":0,"trace_records":0,"trace_dropped":0,"#,
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
}
