//! The instrumentation session: one pipeline, two deliveries.
//!
//! Static rewriting and live-process patching differ only in *delivery*
//! — everything upstream of it (open, parse, point lookup, variable
//! allocation, the pending-snippet queue, snippet lowering, relocation,
//! springboard planning, diagnostics, telemetry) is one pipeline, and
//! [`Session`] is it. Each delivery has one front end:
//!
//! * static: the session itself — [`BinaryEditor`](crate::BinaryEditor)
//!   is an alias of [`Session`], and `crate::editor` adds the rewrite
//!   and run methods;
//! * live: [`FleetController`](crate::FleetController), which holds a
//!   template session and N processes; a
//!   [`DynamicInstrumenter`](crate::DynamicInstrumenter) is a fleet of
//!   one.
//!
//! The dataflow facts those stages read — a function's loops, liveness
//! and stack heights — are not the session's: they sit in the functions
//! of its shared [`Analysis`], solved by their first reader, so a
//! session over a cached analysis reads what earlier sessions solved.
//!
//! Configuration happens up front through the [`SessionOptions`] builder:
//! patch layout, register-allocation mode, parse options, the
//! conservative-relocation policy, the telemetry sink, the execution
//! engine, and the worker-thread count for the parallel pipeline stages
//! ([`SessionOptions::threads`] — output bytes are bit-identical for
//! every value). A debug-interface fault plan is not a session option:
//! it is armed on the process it targets
//! ([`Process::set_fault_plan`](rvdyn_proccontrol::Process::set_fault_plan)).
//!
//! ## Observer-enum layering
//!
//! Component crates cannot depend on `core`, so none of them know about
//! [`TelemetryEvent`]. Instead each component exposes a lightweight
//! observer enum at its own boundary — [`ParseEvent`],
//! [`PatchEvent`], [`ProcEvent`] — and this module adapts them
//! (`adapt_parse` / `adapt_patch` / `adapt_proc`) into the unified
//! telemetry stream. The adapters are total matches: adding a variant to
//! a component's observer enum is a compile error here until the session
//! decides how to surface it, which is what keeps the telemetry stream
//! and the component boundaries from drifting apart.

use crate::analysis::{Analysis, AnalysisCache, AnalysisKey};
use crate::diag::Diagnostics;
use crate::error::Error;
use crate::telemetry::{
    SharedSink, StageTimer, StageTimings, Telemetry, TelemetryEvent, TimedStage,
};
use rvdyn_codegen::regalloc::RegAllocMode;
use rvdyn_codegen::snippet::{Snippet, Var};
use rvdyn_emu::{EmuEngine, EmuEvent};
use rvdyn_parse::{CodeObject, EdgeKind, ParseEvent, ParseOptions};
use rvdyn_patch::instrument::PatchResult;
use rvdyn_patch::placement::{plan_block_counters, BlockCountPlan, CounterPlacement};
use rvdyn_patch::{find_points, Instrumenter, PatchEvent, PatchLayout, Point, PointKind};
use rvdyn_proccontrol::ProcEvent;
use rvdyn_symtab::Binary;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Construction-time configuration for a [`Session`], shared by both
/// entry points. The builder consumes and returns `self` so options
/// chain:
///
/// ```
/// use rvdyn::{SessionOptions, RegAllocMode};
/// let opts = SessionOptions::new()
///     .mode(RegAllocMode::DeadRegisters)
///     .allow_unresolved(false);
/// ```
#[derive(Clone)]
pub struct SessionOptions {
    pub(crate) layout: PatchLayout,
    pub(crate) mode: RegAllocMode,
    pub(crate) parse: ParseOptions,
    pub(crate) allow_unresolved: bool,
    pub(crate) sink: Option<SharedSink>,
    pub(crate) placement: CounterPlacement,
    pub(crate) threads: usize,
    pub(crate) engine: EmuEngine,
}

impl Default for SessionOptions {
    fn default() -> SessionOptions {
        let opts = SessionOptions {
            layout: PatchLayout::default(),
            mode: RegAllocMode::DeadRegisters,
            parse: ParseOptions::default(),
            allow_unresolved: true,
            sink: None,
            placement: CounterPlacement::EveryBlock,
            threads: 1,
            // `RVDYN_EMU` selects the execution engine fleet-wide the
            // same way RVDYN_THREADS selects the worker count: both
            // engines are observationally identical, so any test or
            // tool can be flipped onto the cached engine from the
            // environment. An explicit `.engine(..)` still wins.
            engine: EmuEngine::from_env(),
        };
        // `RVDYN_THREADS` sets the default worker count for sessions that
        // don't call [`SessionOptions::threads`] — how CI runs the whole
        // test suite through the worker pool (output is bit-identical
        // either way, so this is safe to flip fleet-wide). An explicit
        // `.threads(n)` still wins.
        match std::env::var("RVDYN_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(t) if t >= 1 => opts.threads(t),
            _ => opts,
        }
    }
}

impl SessionOptions {
    pub fn new() -> SessionOptions {
        SessionOptions::default()
    }

    /// Override the patch-area layout.
    pub fn layout(mut self, layout: PatchLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Select the register-allocation mode for generated snippets.
    pub fn mode(mut self, mode: RegAllocMode) -> Self {
        self.mode = mode;
        self
    }

    /// Parse options (gap parsing, parallelism, instruction budget).
    pub fn parse_options(mut self, parse: ParseOptions) -> Self {
        self.parse = parse;
        self
    }

    /// Whether instrumentation may relocate a function that still has
    /// unresolved indirect transfers. Defaults to `true` (the historical
    /// behaviour); pass `false` for the conservative policy, under which
    /// [`Session::instrumented`] refuses with
    /// [`Error::UnresolvedIndirects`] instead of risking orphaned control
    /// flow.
    pub fn allow_unresolved(mut self, yes: bool) -> Self {
        self.allow_unresolved = yes;
        self
    }

    /// Subscribe a telemetry sink to the session's event stream (stage
    /// boundaries, springboards, spills, patch deliveries, …).
    pub fn telemetry(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Fan both parallelisable pipeline stages — CFG parsing and the
    /// instrumenter's plan phase — out over `threads` workers (default
    /// 1: everything inline). The patch-area layout stays sequential and
    /// ordered by entry address, so the rewritten bytes are bit-identical
    /// for every thread count; only wall-clock time changes. A thread
    /// count already set explicitly via
    /// [`SessionOptions::parse_options`] is kept if higher.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.parse.threads = self.parse.threads.max(self.threads);
        self
    }

    /// Select the execution engine the mutatee runs on
    /// ([`EmuEngine::Interpreter`] or the translation-cached
    /// [`EmuEngine::Cached`] DBT back end — see `docs/EMULATOR.md`).
    /// Both engines are bit-identical in architectural state, cycle
    /// counts and trap pcs; `Cached` is the fast one. Defaults from the
    /// `RVDYN_EMU` environment variable.
    pub fn engine(mut self, engine: EmuEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Select the counter-placement strategy used by
    /// [`Session::count_blocks`]. Defaults to
    /// [`CounterPlacement::EveryBlock`];
    /// [`CounterPlacement::Optimal`] places Knuth/Ball–Larus co-tree
    /// counters and reconstructs per-block counts from the CFG flow
    /// equations after the run (see `rvdyn_patch::placement`).
    pub fn counter_placement(mut self, placement: CounterPlacement) -> Self {
        self.placement = placement;
        self
    }
}

/// The instrumentation pipeline: the (possibly shared) front-half
/// analysis + configuration + the pending snippet queue + diagnostics +
/// telemetry. It is the static front end itself
/// ([`BinaryEditor`](crate::BinaryEditor)), and the template of every
/// live one.
///
/// The pipeline is two-phase: the *front half* — binary model, CFG, and
/// each function's loops, liveness and stack heights, solved by their
/// first reader — is a pure function of the binary's content, computed
/// once as an [`Analysis`] and shared behind an `Arc` (see
/// [`Session::from_analysis`] and [`AnalysisCache`]); the *back half* —
/// placement, lowering, layout, delivery — is request-specific and lives
/// on the session itself.
pub struct Session {
    analysis: Arc<Analysis>,
    layout: PatchLayout,
    mode: RegAllocMode,
    allow_unresolved: bool,
    pending: Vec<(Point, Snippet)>,
    var_bytes: u64,
    diag: Diagnostics,
    tele: Telemetry,
    placement: CounterPlacement,
    threads: usize,
    engine: EmuEngine,
}

/// Handle to one per-function basic-block counting request, returned by
/// [`Session::count_blocks`] (or the `FleetController` /
/// `DynamicInstrumenter` one). Holds the allocated counter variables
/// and, under [`CounterPlacement::Optimal`], the reconstruction plan;
/// feed it back to `block_counts` after the run to obtain exact
/// per-block execution counts.
pub struct BlockCounter {
    func: u64,
    /// Block start addresses, in address order (the order counts are
    /// reported in).
    blocks: Vec<u64>,
    /// Counter variables, parallel to the plan's sites (optimal) or to
    /// `blocks` (every-block).
    vars: Vec<Var>,
    plan: Option<BlockCountPlan>,
}

impl BlockCounter {
    /// Entry address of the counted function.
    pub fn func(&self) -> u64 {
        self.func
    }

    /// Number of increment snippets actually placed.
    pub fn counters_placed(&self) -> usize {
        self.vars.len()
    }

    /// Number of blocks covered by the counters.
    pub fn blocks_covered(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when an optimal placement is active (counts will be
    /// reconstructed from the flow equations rather than read directly).
    pub fn is_optimal(&self) -> bool {
        self.plan.is_some()
    }
}

impl Session {
    /// Parse and analyze an ELF image with default options.
    pub fn open(elf: &[u8]) -> Result<Session, Error> {
        Self::open_with(elf, SessionOptions::default())
    }

    /// Parse an ELF image and analyze it under `opts` (timed `open` +
    /// `parse` stages). A thin wrapper over [`Session::from_analysis`]:
    /// the front half is computed fresh here and not shared — use
    /// [`Session::open_cached`] or [`Session::from_analysis`] directly
    /// when serving many requests against few binaries.
    pub fn open_with(elf: &[u8], opts: SessionOptions) -> Result<Session, Error> {
        let tele = Telemetry {
            sink: opts.sink.clone(),
        };
        let mut open_t = StageTimings::default();
        let timer = tele.begin(TimedStage::Open);
        let binary = Binary::parse(elf)?;
        tele.end(timer, &mut open_t);
        let mut s = Session::from_binary(binary, opts);
        s.diag.timings.record(TimedStage::Open, open_t.open_ns);
        Ok(s)
    }

    /// Parse an ELF image, reusing `cache`'s front-half analysis when
    /// the binary's content key is resident. A hit skips CFG parsing
    /// and loop analysis entirely — the session's `parse` stage time
    /// stays exactly zero — and is reported as an
    /// [`TelemetryEvent::AnalysisCacheHit`] event plus the
    /// `analysis_cache_hits` diagnostics counter; a miss computes,
    /// inserts, and reports the miss (and any evictions) the same way.
    pub fn open_cached(
        elf: &[u8],
        opts: SessionOptions,
        cache: &AnalysisCache,
    ) -> Result<Session, Error> {
        let tele = Telemetry {
            sink: opts.sink.clone(),
        };
        let mut open_t = StageTimings::default();
        let timer = tele.begin(TimedStage::Open);
        let binary = Binary::parse(elf)?;
        let key = AnalysisKey::of(&binary, &opts.parse);
        tele.end(timer, &mut open_t);

        if let Some(analysis) = cache.get(key) {
            tele.emit(TelemetryEvent::AnalysisCacheHit { key: key.prefix() });
            let mut s = Session::from_analysis(analysis, opts);
            s.diag.timings.record(TimedStage::Open, open_t.open_ns);
            s.diag.analysis_cache_hits = 1;
            return Ok(s);
        }

        let mut parse_t = StageTimings::default();
        let timer = tele.begin(TimedStage::Parse);
        let obs_tele = tele.clone();
        let analysis = Analysis::with_key(
            Some(key),
            binary,
            &opts.parse,
            &mut |ev| obs_tele.emit(adapt_parse(ev)),
            open_t.open_ns,
        );
        tele.end(timer, &mut parse_t);
        let evicted = cache.insert(analysis.clone());
        tele.emit(TelemetryEvent::AnalysisCacheMiss {
            key: key.prefix(),
            evicted,
        });
        let mut s = Session::from_analysis(analysis, opts);
        s.diag.timings.record(TimedStage::Open, open_t.open_ns);
        s.diag.timings.record(TimedStage::Parse, parse_t.parse_ns);
        s.diag.analysis_cache_misses = 1;
        s.diag.analysis_cache_evictions = evicted;
        Ok(s)
    }

    /// Analyze an in-memory binary model (timed `parse` stage).
    pub fn from_binary(binary: Binary, opts: SessionOptions) -> Session {
        let tele = Telemetry {
            sink: opts.sink.clone(),
        };
        let mut timings = StageTimings::default();
        let timer = tele.begin(TimedStage::Parse);
        let obs_tele = tele.clone();
        let analysis = Analysis::of_binary_observed(
            binary,
            &opts.parse,
            &mut |ev| obs_tele.emit(adapt_parse(ev)),
            0,
        );
        tele.end(timer, &mut timings);
        let mut s = Session::from_analysis(analysis, opts);
        s.diag.timings.record(TimedStage::Parse, timings.parse_ns);
        s
    }

    /// Build a session directly on a shared front-half [`Analysis`] —
    /// the two-phase entry point every other constructor routes
    /// through. No open/parse work happens here (the analysis already
    /// holds the binary model, CFG and loops), so the
    /// session's `open` and `parse` stage timings are zero; only the
    /// request-specific back half (placement → lowering → layout →
    /// delivery) will spend time. Any number of concurrent sessions,
    /// on any threads, may share one `Arc<Analysis>`.
    pub fn from_analysis(analysis: Arc<Analysis>, opts: SessionOptions) -> Session {
        let tele = Telemetry {
            sink: opts.sink.clone(),
        };
        let diag = analysis.parse_diagnostics().clone();
        Session {
            analysis,
            layout: opts.layout,
            mode: opts.mode,
            allow_unresolved: opts.allow_unresolved,
            pending: Vec::new(),
            var_bytes: 0,
            diag,
            tele,
            placement: opts.placement,
            threads: opts.threads,
            engine: opts.engine,
        }
    }

    /// The shared front-half analysis this session runs against.
    pub fn analysis(&self) -> &Arc<Analysis> {
        &self.analysis
    }

    /// The underlying binary model.
    pub fn binary(&self) -> &Binary {
        self.analysis.binary()
    }

    /// The parsed CFG.
    pub fn code(&self) -> &CodeObject {
        self.analysis.code()
    }

    /// The mutatee's ISA profile (§3.2.1).
    pub fn profile(&self) -> rvdyn_isa::IsaProfile {
        self.binary().profile()
    }

    /// Live counters and per-stage timings for everything the pipeline
    /// has done so far: parse totals after the open, instrument totals
    /// after [`Session::instrumented`] or [`Session::rewrite`], run
    /// totals after [`Session::instrument_and_run`]. Clone for a
    /// point-in-time snapshot.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diag
    }

    /// Select the register-allocation mode for generated snippets.
    pub fn set_mode(&mut self, mode: RegAllocMode) {
        self.mode = mode;
    }

    /// The register-allocation mode generated snippets are lowered in.
    pub fn mode(&self) -> RegAllocMode {
        self.mode
    }

    /// Override the patch-area layout.
    pub fn set_layout(&mut self, layout: PatchLayout) {
        self.layout = layout;
    }

    /// The active patch-area layout.
    pub fn layout(&self) -> PatchLayout {
        self.layout
    }

    /// Function entry address by symbol name, from the analysis's name
    /// index: the lowest entry when several functions share the name.
    pub fn function_addr(&self, name: &str) -> Result<u64, Error> {
        self.analysis
            .function_entry(name)
            .ok_or_else(|| Error::NoSuchFunction {
                name: name.to_string(),
            })
    }

    /// Enumerate points of `kind` in the named function.
    pub fn find_points(&self, func: &str, kind: PointKind) -> Result<Vec<Point>, Error> {
        let addr = self.function_addr(func)?;
        Ok(find_points(&self.code().functions[&addr], kind))
    }

    /// Allocate an instrumentation variable in the patch data area.
    pub fn alloc_var(&mut self, size: u8) -> Var {
        // 8-byte align every slot.
        let addr = self.layout.patch_data + self.var_bytes;
        self.var_bytes += ((size as u64) + 7) & !7;
        Var { addr, size }
    }

    /// Allocate a bulk region of `len` bytes in the patch data area
    /// (rounded up to 8-byte granularity) and return its base address.
    /// The region participates in the same zero-initialised data
    /// delivery as [`Session::alloc_var`] slots — the static rewriter
    /// sizes `.rvdyn.data` to cover it and the live commit maps it
    /// zero-filled — so tools can stake out in-mutatee buffers (e.g. the
    /// memory tracer's record ring) without their own delivery path.
    pub fn alloc_region(&mut self, len: u64) -> u64 {
        let addr = self.layout.patch_data + self.var_bytes;
        self.var_bytes += (len + 7) & !7;
        addr
    }

    /// Queue `snippet` at each point (the last point takes it without a
    /// copy).
    pub fn insert(&mut self, points: &[Point], snippet: Snippet) {
        let Some((last, rest)) = points.split_last() else {
            return;
        };
        for p in rest {
            self.pending.push((*p, snippet.clone()));
        }
        self.pending.push((*last, snippet));
    }

    /// Queue basic-block counting for the named function under the
    /// session's [`CounterPlacement`], allocating one 8-byte counter
    /// variable per placed site and returning the [`BlockCounter`]
    /// handle used to retrieve per-block counts after the run.
    ///
    /// Under [`CounterPlacement::Optimal`] the Knuth/Ball–Larus plan
    /// from `rvdyn_patch::placement` decides the sites; when no plan
    /// exists for the function's CFG (indirect edges, unreachable
    /// blocks, no saving) the call silently degrades to every-block
    /// placement, so it never fails for placement reasons. Placement
    /// totals land in `counters_placed` / `counters_elided` and a
    /// [`TelemetryEvent::PlacementComputed`] event is emitted either
    /// way.
    pub fn count_blocks(&mut self, func: &str) -> Result<BlockCounter, Error> {
        let addr = self.function_addr(func)?;
        let analysis = self.analysis.clone();
        let f = &analysis.code().functions[&addr];
        let blocks: Vec<u64> = f.blocks.keys().collect();
        let plan = match self.placement {
            CounterPlacement::EveryBlock => None,
            // The plan reads the function's loops, computed by the first
            // request that reads them and kept in the analysis.
            CounterPlacement::Optimal => plan_block_counters(f),
        };

        let counter = match plan {
            Some(plan) => {
                let vars: Vec<Var> = plan.sites.iter().map(|_| self.alloc_var(8)).collect();
                for (site, var) in plan.sites.iter().zip(&vars) {
                    self.pending
                        .push((site.point(addr), Snippet::increment(*var)));
                }
                self.diag.counters_placed += vars.len() as u64;
                self.diag.counters_elided += (blocks.len() - vars.len()) as u64;
                BlockCounter {
                    func: addr,
                    blocks,
                    vars,
                    plan: Some(plan),
                }
            }
            None => {
                let vars: Vec<Var> = blocks.iter().map(|_| self.alloc_var(8)).collect();
                for (&b, var) in blocks.iter().zip(&vars) {
                    let p = Point {
                        func: addr,
                        addr: b,
                        kind: PointKind::BlockEntry,
                    };
                    self.pending.push((p, Snippet::increment(*var)));
                }
                self.diag.counters_placed += vars.len() as u64;
                BlockCounter {
                    func: addr,
                    blocks,
                    vars,
                    plan: None,
                }
            }
        };
        self.emit(TelemetryEvent::PlacementComputed {
            func: addr,
            blocks: counter.blocks.len(),
            sites: counter.vars.len(),
        });
        Ok(counter)
    }

    /// Resolve a [`BlockCounter`] into exact per-block execution counts,
    /// reading each counter variable through `read` (delivery-specific:
    /// patched-image memory or live process memory). Optimal placements
    /// are reconstructed through the plan's flow equations, counted in
    /// `counts_reconstructed`; a failed read or inconsistent counter
    /// values surface as [`Error::CounterReconstruct`].
    pub(crate) fn block_counts_with(
        &mut self,
        counter: &BlockCounter,
        read: &mut dyn FnMut(Var) -> Option<u64>,
    ) -> Result<std::collections::BTreeMap<u64, u64>, Error> {
        let mut raw = Vec::with_capacity(counter.vars.len());
        for v in &counter.vars {
            raw.push(read(*v).ok_or(Error::CounterReconstruct {
                func: counter.func,
                addr: v.addr,
            })?);
        }
        match &counter.plan {
            Some(plan) => {
                let counts = plan
                    .reconstruct(&raw)
                    .map_err(|e| Error::CounterReconstruct {
                        func: counter.func,
                        addr: match e {
                            rvdyn_patch::placement::PlacementError::InconsistentCounts {
                                block,
                            } => block,
                            _ => counter.func,
                        },
                    })?;
                self.diag.counts_reconstructed += counts.len() as u64;
                Ok(counts)
            }
            None => Ok(counter.blocks.iter().copied().zip(raw).collect()),
        }
    }

    /// [`Session::instrumented`] with the patch code laid out from `text`
    /// instead of the layout's base, leaving alone the call sites in
    /// `relocated`, the functions earlier commits relocated: the live
    /// commit puts each commit's code after the code of the commits
    /// before it, and clears the queue it consumed. A binary that an
    /// earlier rewrite instrumented is refused with
    /// [`Error::AlreadyInstrumented`], on every delivery.
    pub(crate) fn apply_at(
        &mut self,
        text: u64,
        relocated: &BTreeSet<u64>,
    ) -> Result<PatchResult, Error> {
        let patch_sections = [".rvdyn.text", ".rvdyn.data", ".rvdyn.traps"];
        if let Some(&section) = patch_sections
            .iter()
            .find(|s| self.binary().section_by_name(s).is_some())
        {
            return Err(Error::AlreadyInstrumented { section });
        }
        if !self.allow_unresolved {
            for func in self.pending_functions() {
                if let Some(f) = self.code().functions.get(&func) {
                    let count = f
                        .blocks
                        .values()
                        .flat_map(|b| b.edges.iter())
                        .filter(|e| e.kind == EdgeKind::Unresolved)
                        .count();
                    if count > 0 {
                        return Err(Error::UnresolvedIndirects { func, count });
                    }
                }
            }
        }

        let timer = self.tele.begin(TimedStage::Instrument);
        let analysis = self.analysis.clone();
        let layout = PatchLayout {
            patch_text: text,
            ..self.layout
        };
        let mut ins = Instrumenter::new(analysis.binary(), analysis.code())
            .with_layout(layout)
            .with_mode(self.mode)
            .with_threads(self.threads)
            .with_call_sites(analysis.call_sites())
            .with_relocated(relocated);
        // Keep the instrumenter's own allocations (if any) clear of ours.
        ins.alloc_region(self.var_bytes);
        ins.insert_all(&self.pending);
        let obs_tele = self.tele.clone();
        let result = ins.apply_with_observer(&mut |ev| {
            if let PatchEvent::PointLowered { addr, spills, .. } = &ev {
                if *spills > 0 {
                    obs_tele.emit(TelemetryEvent::SpillTaken {
                        addr: *addr,
                        count: *spills,
                    });
                }
            }
            obs_tele.emit(adapt_patch(ev));
        })?;
        self.diag.record_patch(&result);
        if result.relocate_ns > 0 {
            self.diag
                .timings
                .record(TimedStage::Relocate, result.relocate_ns);
        }
        self.tele.end(timer, &mut self.diag.timings);
        Ok(result)
    }

    /// Drop the pending snippet queue (after a delivery consumed it).
    pub(crate) fn clear_pending(&mut self) {
        self.pending.clear();
    }

    /// Entries of the functions the queued snippets instrument (each one
    /// is relocated), ascending.
    pub(crate) fn pending_functions(&self) -> Vec<u64> {
        let mut funcs: Vec<u64> = self.pending.iter().map(|(p, _)| p.func).collect();
        funcs.sort_unstable();
        funcs.dedup();
        funcs
    }

    // -- crate-internal hooks for the deliveries -------------------------

    /// Bytes allocated so far in the patch data area.
    pub(crate) fn var_bytes(&self) -> u64 {
        self.var_bytes
    }

    pub(crate) fn diag_mut(&mut self) -> &mut Diagnostics {
        &mut self.diag
    }

    /// The configured sink, for delivery-side observers (proc events).
    pub(crate) fn sink(&self) -> Option<SharedSink> {
        self.tele.sink.clone()
    }

    /// The configured execution engine, for the deliveries to stamp onto
    /// the machines they run.
    pub(crate) fn engine(&self) -> EmuEngine {
        self.engine
    }

    /// The configured worker-thread count, for the fleet controller to
    /// size its process-set pool to match the plan phase.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Fold the machine's drained engine events and counters into the
    /// telemetry stream and diagnostics (the static path calls this once
    /// per completed run).
    pub(crate) fn record_emu(&mut self, machine: &mut rvdyn_emu::Machine) {
        for ev in machine.take_emu_events() {
            self.tele.emit(adapt_emu(ev));
        }
        self.diag.record_emu(machine);
    }

    pub(crate) fn emit(&self, ev: TelemetryEvent) {
        self.tele.emit(ev);
    }

    /// Start a timed delivery/run stage, emitting `StageStart`.
    pub(crate) fn begin_stage(&self, stage: TimedStage) -> StageTimer {
        self.tele.begin(stage)
    }

    /// Finish a timed stage: record into the diagnostics, emit `StageEnd`.
    pub(crate) fn end_stage(&mut self, timer: StageTimer) {
        let tele = self.tele.clone();
        tele.end(timer, &mut self.diag.timings);
    }
}

fn adapt_parse(ev: ParseEvent) -> TelemetryEvent {
    match ev {
        ParseEvent::FunctionParsed {
            entry,
            blocks,
            insts,
        } => TelemetryEvent::FunctionParsed {
            entry,
            blocks,
            insts,
        },
        ParseEvent::JumpTableScanned { block, targets } => {
            TelemetryEvent::JumpTableScanned { block, targets }
        }
        ParseEvent::GapFunctionFound { entry } => TelemetryEvent::GapFunctionFound { entry },
    }
}

fn adapt_patch(ev: PatchEvent) -> TelemetryEvent {
    match ev {
        PatchEvent::PointLowered {
            addr,
            spills,
            dead_scratch,
        } => TelemetryEvent::PointLowered {
            addr,
            spills,
            dead_scratch,
        },
        PatchEvent::PlanBuilt { entry, points } => TelemetryEvent::PlanBuilt { entry, points },
        PatchEvent::FunctionRelocated { entry, bytes } => {
            TelemetryEvent::FunctionRelocated { entry, bytes }
        }
        PatchEvent::SpringboardPlanted { addr, kind } => {
            TelemetryEvent::SpringboardPlanted { addr, kind }
        }
        PatchEvent::RedirectRegistered { from, to } => {
            TelemetryEvent::RedirectRegistered { from, to }
        }
        PatchEvent::CallRetargeted { site, to } => TelemetryEvent::CallRetargeted { site, to },
    }
}

/// Translate an execution-engine event into the telemetry vocabulary.
/// Engine events are buffered on the machine during the run (keeping
/// the hot loop sink-free) and drained afterwards by
/// [`Session::record_emu`] — or, on the live path, by the fleet
/// controller's thread as each process's run ends.
pub(crate) fn adapt_emu(ev: EmuEvent) -> TelemetryEvent {
    match ev {
        EmuEvent::BlockTranslated { pc, insts } => TelemetryEvent::BlockTranslated { pc, insts },
        EmuEvent::BlockInvalidated { pc } => TelemetryEvent::BlockInvalidated { pc },
    }
}

/// Translate a debug-interface event into the telemetry vocabulary
/// (used by the observer the fleet controller installs on each process
/// it attaches).
pub(crate) fn adapt_proc(ev: ProcEvent) -> TelemetryEvent {
    match ev {
        ProcEvent::BreakpointSet { addr } => TelemetryEvent::BreakpointSet { addr },
        ProcEvent::BreakpointRemoved { addr } => TelemetryEvent::BreakpointRemoved { addr },
        ProcEvent::MemWritten { addr, len } => TelemetryEvent::MemWritten { addr, len },
        ProcEvent::FaultInjected { addr } => TelemetryEvent::FaultInjected { addr },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_name_resolves_to_the_lowest_entry() {
        let mut bin = rvdyn_asm::many_functions_program(8);
        let f1 = bin.symbol_by_name("f_1").unwrap().value;
        let f3 = bin.symbol_by_name("f_3").unwrap().value;
        assert!(f1 < f3);
        bin.symbols
            .iter_mut()
            .find(|s| s.name == "f_3")
            .unwrap()
            .name = "f_1".into();
        let s = Session::from_binary(bin, SessionOptions::new());
        assert_eq!(s.code().functions[&f3].name.as_deref(), Some("f_1"));
        assert_eq!(s.function_addr("f_1").unwrap(), f1);
    }

    #[test]
    fn unknown_or_unnamed_function_is_no_such_function() {
        let no_such = |s: &Session, name: &str| match s.function_addr(name) {
            Err(Error::NoSuchFunction { name: n }) => assert_eq!(n, name),
            other => panic!("{name}: expected NoSuchFunction, got {other:?}"),
        };
        let bin = rvdyn_asm::many_functions_program(8);
        no_such(
            &Session::from_binary(bin.clone(), SessionOptions::new()),
            "f_8",
        );
        // Stripped, f_1 is still parsed (it is called) but has no name.
        let mut stripped = bin;
        stripped.strip();
        let parse = ParseOptions {
            parse_gaps: true,
            ..ParseOptions::default()
        };
        let s = Session::from_binary(stripped, SessionOptions::new().parse_options(parse));
        assert!(s.code().functions.len() >= 8);
        no_such(&s, "f_1");
    }

    #[test]
    fn fresh_cached_and_symbol_lookups_agree() {
        let elf = rvdyn_asm::many_functions_program(64).to_bytes().unwrap();
        let fresh = Session::open_with(&elf, SessionOptions::new()).unwrap();
        let cache = AnalysisCache::new(1);
        Session::open_cached(&elf, SessionOptions::new(), &cache).unwrap();
        let warm = Session::open_cached(&elf, SessionOptions::new(), &cache).unwrap();
        assert_eq!(warm.diagnostics().analysis_cache_hits, 1);
        let bin = Binary::parse(&elf).unwrap();
        let funcs = bin.functions();
        assert!(funcs.len() > 64);
        for sym in funcs {
            let want = bin.symbol_by_name(&sym.name).unwrap().value;
            assert_eq!(
                fresh.function_addr(&sym.name).unwrap(),
                want,
                "{}",
                sym.name
            );
            assert_eq!(warm.function_addr(&sym.name).unwrap(), want, "{}", sym.name);
        }
    }
}
