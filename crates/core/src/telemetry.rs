//! Per-stage pipeline telemetry: wall-clock stage timers, a lightweight
//! event stream, and pluggable sinks.
//!
//! The paper's whole evaluation (§4.3) is a timing table, yet a tool
//! built on the facade previously could not report where the *toolkit's*
//! time went — only the mutatee's. This module gives every pipeline a
//! measurement substrate:
//!
//! * [`StageTimings`] — cumulative wall-clock nanoseconds per pipeline
//!   stage (open / parse / instrument / relocate / commit / run), carried
//!   inside [`crate::Diagnostics`] and serialised by
//!   [`crate::Diagnostics::to_json`];
//! * [`TelemetryEvent`] — a stream of fine-grained pipeline events
//!   (stage boundaries, springboards planted, trap redirects registered,
//!   points lowered, spills taken, patch regions delivered, injected
//!   faults, run-loop exit) that tools subscribe to through a
//!   [`TelemetrySink`];
//! * sinks — [`StderrSink`] (human-readable tracing) and
//!   [`CollectSink`] (in-memory capture for tests and tools).
//!
//! The sink is configured once on [`crate::SessionOptions`] and threaded
//! through the shared session core, so both the static and the dynamic
//! entry points — and any future ones — report identically.

use crate::error::Error;
use rvdyn_patch::springboard::SpringboardKind;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A wall-clock-timed pipeline stage. `Relocate` and `Commit` are
/// sub-phases of instrumentation: relocation is measured inside
/// PatchAPI's `apply`, commit is the delivery of patch bytes (ELF
/// serialisation on the static path, debug-interface writes on the
/// dynamic path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimedStage {
    /// Reading and modelling the input ELF.
    Open,
    /// CFG construction (decode, classification, jump tables, gaps).
    Parse,
    /// Snippet lowering + springboard planning (whole PatchAPI pass).
    Instrument,
    /// Function relocation (sub-phase of instrument).
    Relocate,
    /// Patch delivery: ELF serialisation or live memory writes.
    Commit,
    /// Mutatee execution.
    Run,
}

impl TimedStage {
    /// Stable lower-case name, used by event display.
    pub fn name(&self) -> &'static str {
        match self {
            TimedStage::Open => "open",
            TimedStage::Parse => "parse",
            TimedStage::Instrument => "instrument",
            TimedStage::Relocate => "relocate",
            TimedStage::Commit => "commit",
            TimedStage::Run => "run",
        }
    }
}

impl fmt::Display for TimedStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cumulative wall-clock nanoseconds per pipeline stage. Repeated runs
/// of a stage (e.g. two `commit`s on one session) accumulate; stages
/// that have not run report zero. Recorded durations are clamped to a
/// minimum of 1 ns so "this stage ran" is always distinguishable from
/// "this stage never ran", even under a coarse clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    pub open_ns: u64,
    pub parse_ns: u64,
    pub instrument_ns: u64,
    pub relocate_ns: u64,
    pub commit_ns: u64,
    pub run_ns: u64,
}

impl StageTimings {
    /// Add `ns` (clamped to ≥ 1) to the stage's running total.
    pub fn record(&mut self, stage: TimedStage, ns: u64) {
        *self.slot(stage) += ns.max(1);
    }

    /// The cumulative nanoseconds attributed to `stage`.
    pub fn get(&self, stage: TimedStage) -> u64 {
        match stage {
            TimedStage::Open => self.open_ns,
            TimedStage::Parse => self.parse_ns,
            TimedStage::Instrument => self.instrument_ns,
            TimedStage::Relocate => self.relocate_ns,
            TimedStage::Commit => self.commit_ns,
            TimedStage::Run => self.run_ns,
        }
    }

    /// Total time attributed to the pipeline. Relocation is excluded:
    /// it is a sub-phase already counted inside `instrument`.
    pub fn total_ns(&self) -> u64 {
        self.open_ns + self.parse_ns + self.instrument_ns + self.commit_ns + self.run_ns
    }

    fn slot(&mut self, stage: TimedStage) -> &mut u64 {
        match stage {
            TimedStage::Open => &mut self.open_ns,
            TimedStage::Parse => &mut self.parse_ns,
            TimedStage::Instrument => &mut self.instrument_ns,
            TimedStage::Relocate => &mut self.relocate_ns,
            TimedStage::Commit => &mut self.commit_ns,
            TimedStage::Run => &mut self.run_ns,
        }
    }
}

impl fmt::Display for StageTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |ns: u64| ns as f64 / 1e6;
        write!(
            f,
            "open {:.3}ms, parse {:.3}ms, instrument {:.3}ms \
             (relocate {:.3}ms), commit {:.3}ms, run {:.3}ms",
            ms(self.open_ns),
            ms(self.parse_ns),
            ms(self.instrument_ns),
            ms(self.relocate_ns),
            ms(self.commit_ns),
            ms(self.run_ns)
        )
    }
}

/// A running wall-clock timer for one stage. `stop` records the elapsed
/// time into a [`StageTimings`] and returns the recorded nanoseconds.
#[derive(Debug)]
pub struct StageTimer {
    stage: TimedStage,
    start: Instant,
}

impl StageTimer {
    pub fn start(stage: TimedStage) -> StageTimer {
        StageTimer {
            stage,
            start: Instant::now(),
        }
    }

    /// The stage this timer measures.
    pub fn stage(&self) -> TimedStage {
        self.stage
    }

    /// Stop, record into `timings`, and return the recorded (≥ 1) ns.
    pub fn stop(self, timings: &mut StageTimings) -> u64 {
        let ns = (self.start.elapsed().as_nanos() as u64).max(1);
        timings.record(self.stage, ns);
        ns
    }
}

/// One pipeline event. Variants mirror the instrumentation points wired
/// through the component crates: parse (CFG construction, jump-table
/// scans, gap parsing), patch (point lowering, relocation, springboard
/// planting), proccontrol (breakpoint installs, memory writes), and the
/// run loop's exit reason.
#[derive(Debug, Clone)]
pub enum TelemetryEvent {
    /// A timed stage began.
    StageStart { stage: TimedStage },
    /// A timed stage finished; `nanos` is this occurrence's duration.
    StageEnd { stage: TimedStage, nanos: u64 },
    /// ParseAPI finished constructing one function's CFG.
    FunctionParsed {
        entry: u64,
        blocks: usize,
        insts: usize,
    },
    /// A jump table at `block` was resolved to `targets` edges.
    JumpTableScanned { block: u64, targets: usize },
    /// Gap parsing discovered a function at `entry` (stripped-binary path).
    GapFunctionFound { entry: u64 },
    /// A point's snippets were lowered; `dead_scratch` registers came
    /// from the dead pool, `spills` from spill slots.
    PointLowered {
        addr: u64,
        spills: usize,
        dead_scratch: usize,
    },
    /// A point's lowering had to spill `count` registers (§4.3 slow path).
    SpillTaken { addr: u64, count: usize },
    /// The parallel plan phase finished one function's
    /// position-independent plan (`points` snippets lowered into a
    /// symbolic relocation). Events are replayed in entry-address order,
    /// so the stream is identical for every worker count.
    PlanBuilt { entry: u64, points: usize },
    /// A function was relocated into the patch area.
    FunctionRelocated { entry: u64, bytes: usize },
    /// A springboard was planted over original code at `addr`.
    SpringboardPlanted { addr: u64, kind: SpringboardKind },
    /// The clobber audit registered a redirect covering the overwritten
    /// original instruction at `from` with its relocated copy at `to`.
    RedirectRegistered { from: u64, to: u64 },
    /// The direct call at original address `site` enters the relocated
    /// function entry `to` without the callee's springboard: a call
    /// relocated with its caller, or a call site rewritten in original
    /// code. Replayed in entry-address order, so the stream is identical
    /// for every worker count.
    CallRetargeted { site: u64, to: u64 },
    /// An armed `FaultPlan` fault fired on the debug-interface operation
    /// touching `addr`.
    FaultInjected { addr: u64 },
    /// ProcControl installed a breakpoint.
    BreakpointSet { addr: u64 },
    /// ProcControl removed a breakpoint.
    BreakpointRemoved { addr: u64 },
    /// ProcControl wrote mutatee memory.
    MemWritten { addr: u64, len: usize },
    /// One coalesced patch region was delivered and verified (dynamic
    /// commit batching), or one contiguous allocatable span was
    /// serialised into the rewritten ELF (static delivery).
    PatchRegionWritten { addr: u64, len: usize },
    /// A block-count placement was computed for the function at `func`:
    /// `sites` increment snippets cover `blocks` basic blocks
    /// (`sites == blocks` under every-block placement).
    PlacementComputed {
        func: u64,
        blocks: usize,
        sites: usize,
    },
    /// A run of the mutatee ended. `reason` names the typed outcome of
    /// the run, the same for the static and the live delivery:
    ///
    /// | `reason` | outcome |
    /// |---|---|
    /// | `"exited"` | `Ok(exit code)` |
    /// | `"mutatee-fault"` | [`Error::MutateeFault`]: a memory or fetch fault, or an illegal instruction |
    /// | `"unclean-exit"` | [`Error::UncleanExit`]: the mutatee's own `ebreak`, fuel exhausted |
    /// | `"redirect-miss"` | [`Error::RedirectMiss`]: a trap springboard with no redirect |
    /// | `"cache-incoherent"` | [`Error::CacheIncoherent`] |
    /// | `"process-lost"` | [`Error::FleetProcessLost`] |
    /// | `"error"` | any other [`Error`] the run ended with |
    RunExit { reason: &'static str },
    /// The cached execution engine decoded a basic block of `insts`
    /// instructions into its translation cache (DBT back end; see
    /// `docs/EMULATOR.md`).
    BlockTranslated { pc: u64, insts: usize },
    /// A write into executable text killed the cached block at `pc`,
    /// forcing a re-decode on next execution.
    BlockInvalidated { pc: u64 },
    /// An [`AnalysisCache`](crate::AnalysisCache) lookup was answered
    /// from the cache: the session reused a shared front-half analysis
    /// and skipped CFG parsing and loop analysis entirely. `key` is the
    /// leading 64 bits of the content address
    /// ([`AnalysisKey::prefix`](crate::AnalysisKey::prefix)).
    AnalysisCacheHit { key: u64 },
    /// An [`AnalysisCache`](crate::AnalysisCache) lookup missed: the
    /// front half was computed fresh (and inserted, evicting `evicted`
    /// least-recently-used entries to stay within capacity).
    AnalysisCacheMiss { key: u64, evicted: u64 },
    /// A [`FleetController`](crate::FleetController) launched a mutatee
    /// under controller-assigned pid `pid` (stopped at entry, sharing
    /// the fleet's `Arc<Analysis>`).
    FleetProcessSpawned { pid: u32 },
    /// The fleet event loop consumed one completion — a stop, trap,
    /// exit, or commit outcome — from the process under `pid` and
    /// dispatched it to that process's handler. Arrival order varies
    /// with the worker count; the per-pid event sequence does not.
    FleetEventDispatched { pid: u32 },
    /// The fleet process under `pid` exited cleanly with `code`.
    FleetProcessExited { pid: u32, code: i64 },
    /// The fleet process under `pid` reached a terminal per-process
    /// error (patch verification failure, fault, lost process, …); the
    /// typed error is recorded in the controller's per-process results,
    /// and the rest of the fleet is unaffected.
    FleetProcessFailed { pid: u32 },
    /// The memory-access tracer finished planning: `points` load/store
    /// sites were instrumented, `runs` of them in runs that share one
    /// cursor update per basic block, draining into an in-mutatee ring of
    /// `capacity` records (see `docs/TOOLS.md`).
    TraceStarted {
        points: usize,
        runs: usize,
        capacity: u64,
    },
    /// A trace buffer was drained from the mutatee: `records` records
    /// recovered, `dropped` lost to ring exhaustion.
    TraceDrained { records: u64, dropped: u64 },
    /// The sampling profiler took one sample: the mutatee stopped at
    /// `pc` and the stackwalk recovered `depth` frames.
    SampleTaken { pc: u64, depth: usize },
}

impl TelemetryEvent {
    /// The [`TelemetryEvent::RunExit`] of a run that ended with `result`.
    pub(crate) fn run_exit(result: Result<i64, &Error>) -> TelemetryEvent {
        let reason = match result {
            Ok(_) => "exited",
            Err(Error::MutateeFault { .. }) => "mutatee-fault",
            Err(Error::UncleanExit { .. }) => "unclean-exit",
            Err(Error::RedirectMiss { .. }) => "redirect-miss",
            Err(Error::CacheIncoherent { .. }) => "cache-incoherent",
            Err(Error::FleetProcessLost { .. }) => "process-lost",
            Err(_) => "error",
        };
        TelemetryEvent::RunExit { reason }
    }
}

impl fmt::Display for TelemetryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TelemetryEvent::*;
        match self {
            StageStart { stage } => write!(f, "stage {stage} start"),
            StageEnd { stage, nanos } => {
                write!(f, "stage {stage} end ({:.3}ms)", *nanos as f64 / 1e6)
            }
            FunctionParsed {
                entry,
                blocks,
                insts,
            } => write!(
                f,
                "parsed function {entry:#x}: {blocks} blocks, {insts} insts"
            ),
            JumpTableScanned { block, targets } => {
                write!(f, "jump table at {block:#x}: {targets} targets")
            }
            GapFunctionFound { entry } => write!(f, "gap function at {entry:#x}"),
            PointLowered {
                addr,
                spills,
                dead_scratch,
            } => write!(
                f,
                "point {addr:#x} lowered ({dead_scratch} dead-reg, {spills} spills)"
            ),
            SpillTaken { addr, count } => {
                write!(f, "spill at {addr:#x}: {count} registers")
            }
            PlanBuilt { entry, points } => {
                write!(f, "plan built for {entry:#x} ({points} points)")
            }
            FunctionRelocated { entry, bytes } => {
                write!(f, "relocated function {entry:#x} ({bytes} bytes)")
            }
            SpringboardPlanted { addr, kind } => {
                write!(f, "springboard at {addr:#x}: {kind:?}")
            }
            RedirectRegistered { from, to } => {
                write!(f, "redirect registered {from:#x} -> {to:#x}")
            }
            CallRetargeted { site, to } => {
                write!(f, "call at {site:#x} retargeted to {to:#x}")
            }
            FaultInjected { addr } => write!(f, "fault injected at {addr:#x}"),
            BreakpointSet { addr } => write!(f, "breakpoint set at {addr:#x}"),
            BreakpointRemoved { addr } => write!(f, "breakpoint removed at {addr:#x}"),
            MemWritten { addr, len } => write!(f, "wrote {len} bytes at {addr:#x}"),
            PatchRegionWritten { addr, len } => {
                write!(
                    f,
                    "patch region {addr:#x} delivered ({len} bytes, verified)"
                )
            }
            PlacementComputed {
                func,
                blocks,
                sites,
            } => {
                write!(
                    f,
                    "placement for {func:#x}: {sites} counter(s) cover {blocks} block(s)"
                )
            }
            RunExit { reason } => write!(f, "run exit: {reason}"),
            BlockTranslated { pc, insts } => {
                write!(f, "block translated at {pc:#x} ({insts} insts)")
            }
            BlockInvalidated { pc } => {
                write!(f, "block invalidated at {pc:#x}")
            }
            AnalysisCacheHit { key } => {
                write!(f, "analysis cache hit ({key:016x})")
            }
            AnalysisCacheMiss { key, evicted } => {
                write!(f, "analysis cache miss ({key:016x}, {evicted} evicted)")
            }
            FleetProcessSpawned { pid } => write!(f, "fleet: process {pid} spawned"),
            FleetEventDispatched { pid } => {
                write!(f, "fleet: event from process {pid} dispatched")
            }
            FleetProcessExited { pid, code } => {
                write!(f, "fleet: process {pid} exited ({code})")
            }
            FleetProcessFailed { pid } => write!(f, "fleet: process {pid} failed"),
            TraceStarted {
                points,
                runs,
                capacity,
            } => write!(
                f,
                "trace started: {points} point(s), {runs} in runs, ring of {capacity}"
            ),
            TraceDrained { records, dropped } => {
                write!(f, "trace drained: {records} record(s), {dropped} dropped")
            }
            SampleTaken { pc, depth } => {
                write!(f, "sample at {pc:#x}: {depth} frame(s)")
            }
        }
    }
}

/// Receiver for pipeline events. `event` takes `&self` so one sink can
/// be shared (via `Arc`) between a session and the tool observing it.
/// `Send + Sync` is a supertrait bound: a sink can be observed from
/// concurrent sessions and travels with processes that migrate onto
/// fleet worker threads, so every sink must be shareable by contract
/// (both built-in sinks already are).
pub trait TelemetrySink: Send + Sync {
    fn event(&self, ev: &TelemetryEvent);
}

/// A shareable sink handle, as stored on [`crate::SessionOptions`].
pub type SharedSink = Arc<dyn TelemetrySink>;

/// Routes every event to stderr, one line each, prefixed `rvdyn:`.
#[derive(Debug, Default)]
pub struct StderrSink;

impl TelemetrySink for StderrSink {
    fn event(&self, ev: &TelemetryEvent) {
        eprintln!("rvdyn: {ev}");
    }
}

/// Collects every event in memory — the test/tool-facing sink.
#[derive(Default)]
pub struct CollectSink {
    events: Mutex<Vec<TelemetryEvent>>,
}

impl CollectSink {
    pub fn new() -> Arc<CollectSink> {
        Arc::new(CollectSink::default())
    }

    /// Snapshot of everything received so far.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.events.lock().expect("telemetry sink poisoned").clone()
    }

    /// How many received events satisfy `pred`.
    pub fn count(&self, pred: impl Fn(&TelemetryEvent) -> bool) -> usize {
        self.events
            .lock()
            .expect("telemetry sink poisoned")
            .iter()
            .filter(|e| pred(e))
            .count()
    }
}

impl TelemetrySink for CollectSink {
    fn event(&self, ev: &TelemetryEvent) {
        self.events
            .lock()
            .expect("telemetry sink poisoned")
            .push(ev.clone());
    }
}

/// The session-side emitter: an optional shared sink plus helpers that
/// keep call sites one line. A session without a sink pays only an
/// `Option` check per event.
#[derive(Clone, Default)]
pub(crate) struct Telemetry {
    pub(crate) sink: Option<SharedSink>,
}

impl Telemetry {
    pub(crate) fn emit(&self, ev: TelemetryEvent) {
        if let Some(s) = &self.sink {
            s.event(&ev);
        }
    }

    /// Emit `StageStart` and return a running timer for `stage`.
    pub(crate) fn begin(&self, stage: TimedStage) -> StageTimer {
        self.emit(TelemetryEvent::StageStart { stage });
        StageTimer::start(stage)
    }

    /// Stop `timer`, record into `timings`, emit `StageEnd`.
    pub(crate) fn end(&self, timer: StageTimer, timings: &mut StageTimings) -> u64 {
        let stage = timer.stage();
        let nanos = timer.stop(timings);
        self.emit(TelemetryEvent::StageEnd { stage, nanos });
        nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timers_are_monotone_and_accumulate() {
        let mut t = StageTimings::default();
        let timer = StageTimer::start(TimedStage::Parse);
        // Do a little real work so elapsed time is observable.
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let first = timer.stop(&mut t);
        assert!(first >= 1, "recorded durations are clamped to >= 1ns");
        assert_eq!(t.get(TimedStage::Parse), first);

        // A second timer on the same stage accumulates, never rewinds.
        let timer = StageTimer::start(TimedStage::Parse);
        let second = timer.stop(&mut t);
        assert_eq!(t.get(TimedStage::Parse), first + second);
        assert!(t.get(TimedStage::Parse) >= first, "monotone totals");

        // Untouched stages stay zero and the total excludes relocate.
        assert_eq!(t.get(TimedStage::Run), 0);
        t.record(TimedStage::Relocate, 500);
        t.record(TimedStage::Run, 7);
        assert_eq!(t.total_ns(), first + second + 7);
    }

    #[test]
    fn zero_duration_records_as_one_nanosecond() {
        let mut t = StageTimings::default();
        t.record(TimedStage::Commit, 0);
        assert_eq!(t.get(TimedStage::Commit), 1, "ran-at-all is observable");
    }

    #[test]
    fn collect_sink_captures_and_counts() {
        let sink = CollectSink::new();
        let tele = Telemetry {
            sink: Some(sink.clone()),
        };
        let mut timings = StageTimings::default();
        let timer = tele.begin(TimedStage::Instrument);
        tele.emit(TelemetryEvent::SpillTaken {
            addr: 0x1000,
            count: 2,
        });
        tele.end(timer, &mut timings);

        let evs = sink.events();
        assert_eq!(evs.len(), 3);
        assert!(matches!(
            evs[0],
            TelemetryEvent::StageStart {
                stage: TimedStage::Instrument
            }
        ));
        assert!(matches!(
            evs[1],
            TelemetryEvent::SpillTaken { count: 2, .. }
        ));
        match &evs[2] {
            TelemetryEvent::StageEnd { stage, nanos } => {
                assert_eq!(*stage, TimedStage::Instrument);
                assert_eq!(*nanos, timings.get(TimedStage::Instrument));
            }
            other => panic!("expected StageEnd, got {other:?}"),
        }
        assert_eq!(
            sink.count(|e| matches!(e, TelemetryEvent::StageStart { .. })),
            1
        );
    }

    #[test]
    fn events_render_one_line_summaries() {
        let evs = [
            TelemetryEvent::StageStart {
                stage: TimedStage::Open,
            },
            TelemetryEvent::SpringboardPlanted {
                addr: 0x1_0000,
                kind: rvdyn_patch::SpringboardKind::Jal,
            },
            TelemetryEvent::PlacementComputed {
                func: 0x1_0000,
                blocks: 11,
                sites: 4,
            },
            TelemetryEvent::PlanBuilt {
                entry: 0x1_0000,
                points: 3,
            },
            TelemetryEvent::RunExit { reason: "exited" },
        ];
        for ev in &evs {
            let s = ev.to_string();
            assert!(!s.is_empty() && !s.contains('\n'), "one line: {s:?}");
        }
    }
}
