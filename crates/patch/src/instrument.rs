//! The instrumenter: points + snippets → a rewritten binary.
//!
//! This is the user-facing PatchAPI operation (§2): "code snippet
//! insertion … takes a tuple (P, AST) … Dyninst will convert the AST to
//! native code, optimize the code when possible, generate new versions of
//! the blocks or functions that have been modified, and patch a branch
//! into the original code to jump to the modified code."
//!
//! ## Parallel plan phase, sequential layout phase
//!
//! The pass is split so it scales with cores *without changing a single
//! output byte* (the parse stage's §2 "fast parallel algorithm", applied
//! to the back half of the pipeline):
//!
//! 1. **Plan** (parallel, [`Instrumenter::with_threads`]): each
//!    instrumented function's liveness analysis, snippet lowering, and
//!    relocation planning runs independently on a worker pool (the batch
//!    worklist shared with the parallel parser), producing one
//!    position-independent `FunctionPlan` per function — a
//!    [`RelocationPlan`] whose branch/jump targets are still symbolic.
//! 2. **Layout** (sequential, single-threaded): patch-area bases are
//!    assigned in stable entry-address order, each plan is re-relaxed at
//!    its final base to a whole-area fixpoint, symbolic targets are
//!    resolved into bytes, and springboards are planted and audited.
//!
//! Every output-bearing decision happens in the layout phase from
//! position-independent inputs, so the rewritten bytes are bit-identical
//! for any worker count; worker failures are surfaced lowest-address
//! first so even the error is deterministic. Observer events gathered in
//! the plan phase are replayed in entry-address order for the same
//! reason.

use crate::points::{Point, PointKind};
use crate::relocate::{Insertions, RelocationPlan};
use crate::springboard::{plan_springboard, SpringboardKind, SpringboardStats};
use rvdyn_codegen::emitter::{generate_with_stats, CodeGenError};
use rvdyn_codegen::regalloc::RegAllocMode;
use rvdyn_codegen::snippet::{Snippet, Var};
use rvdyn_dataflow::Liveness;
use rvdyn_isa::{IsaProfile, RegSet};
use rvdyn_parse::worklist::Worklist;
use rvdyn_parse::{CodeObject, EdgeKind, Function};
use rvdyn_symtab::{Binary, Section, SHF_ALLOC, SHF_EXECINSTR, SHF_WRITE};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

/// Observable milestones of one instrumentation pass, for a
/// caller-supplied observer (e.g. the facade's telemetry sink).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchEvent {
    /// One point's snippets were lowered to machine code.
    PointLowered {
        addr: u64,
        spills: usize,
        dead_scratch: usize,
    },
    /// One function's position-independent plan (lowered snippets +
    /// symbolic relocation) is complete; the layout phase takes it from
    /// here. Replayed in entry-address order regardless of which worker
    /// built the plan.
    PlanBuilt { entry: u64, points: usize },
    /// One function was relocated into the patch area.
    FunctionRelocated { entry: u64, bytes: usize },
    /// A springboard was planted over original code.
    SpringboardPlanted { addr: u64, kind: SpringboardKind },
    /// The clobber audit registered a redirect: any control transfer that
    /// lands on the overwritten original instruction at `from` is carried
    /// to its relocated copy at `to`.
    RedirectRegistered { from: u64, to: u64 },
}

/// Where instrumented code and data land in the mutatee's address space.
#[derive(Debug, Clone, Copy)]
pub struct PatchLayout {
    /// Base of the patch code area (`.rvdyn.text`).
    pub patch_text: u64,
    /// Base of the instrumentation data area (`.rvdyn.data` — counters,
    /// variables, spill slots).
    pub patch_data: u64,
}

impl Default for PatchLayout {
    fn default() -> PatchLayout {
        PatchLayout {
            patch_text: 0x8_0000,
            patch_data: 0xC_0000,
        }
    }
}

/// Instrumentation failure.
#[derive(Debug)]
pub enum InstrumentError {
    /// The point's function was not found in the parse.
    UnknownFunction(u64),
    /// Snippet lowering failed.
    CodeGen(CodeGenError),
    /// Function relocation failed.
    Relocate(crate::relocate::RelocateError),
    /// A springboard address fell outside every code section.
    SpringboardOutsideCode { addr: u64 },
    /// The springboard planted at `pc` overwrites original instructions
    /// for which no relocated copy exists — control flow landing on any
    /// address in `clobbered` would execute torn bytes. The audit refuses
    /// to produce an unsound patch.
    SpringboardClobber { pc: u64, clobbered: Vec<u64> },
    /// A patch area runs into the other patch area or into an allocated
    /// section of the input, so the run would execute data as code or
    /// overwrite the input's bytes. `area` is `.rvdyn.text` or
    /// `.rvdyn.data`; each range is `[start, end)`.
    LayoutOverlap {
        area: &'static str,
        range: (u64, u64),
        other: String,
        other_range: (u64, u64),
    },
}

impl fmt::Display for InstrumentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstrumentError::UnknownFunction(a) => {
                write!(f, "no parsed function at {a:#x}")
            }
            InstrumentError::CodeGen(e) => write!(f, "snippet codegen: {e}"),
            InstrumentError::Relocate(e) => write!(f, "relocation: {e}"),
            InstrumentError::SpringboardOutsideCode { addr } => {
                write!(f, "springboard at {addr:#x} is outside every code section")
            }
            InstrumentError::SpringboardClobber { pc, clobbered } => {
                write!(
                    f,
                    "springboard at {pc:#x} clobbers {} instruction(s) with no \
                     redirect coverage:",
                    clobbered.len()
                )?;
                for a in clobbered {
                    write!(f, " {a:#x}")?;
                }
                Ok(())
            }
            InstrumentError::LayoutOverlap {
                area,
                range,
                other,
                other_range,
            } => write!(
                f,
                "patch area {area} [{:#x}, {:#x}) overlaps {other} [{:#x}, {:#x}); \
                 choose a patch layout clear of the image",
                range.0, range.1, other_range.0, other_range.1
            ),
        }
    }
}

impl std::error::Error for InstrumentError {}

impl From<CodeGenError> for InstrumentError {
    fn from(e: CodeGenError) -> Self {
        InstrumentError::CodeGen(e)
    }
}

impl From<crate::relocate::RelocateError> for InstrumentError {
    fn from(e: crate::relocate::RelocateError) -> Self {
        InstrumentError::Relocate(e)
    }
}

/// The original instruction addresses a `len`-byte write at `base` tears:
/// every instruction of `f` whose bytes intersect `[base, base+len)`.
/// Includes compressed instructions a wider springboard straddles and
/// instructions only partially overwritten by a narrower one.
pub fn clobbered_addresses(f: &Function, base: u64, len: usize) -> Vec<u64> {
    let end = base + len as u64;
    let mut out: Vec<u64> = f
        .blocks
        .values()
        .flat_map(|b| b.insts.iter())
        .filter(|i| i.address < end && i.address + i.size as u64 > base)
        .map(|i| i.address)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The springboard soundness audit (ROADMAP: springboard-clobber): for a
/// `len`-byte springboard planted at `base` in `f`, check that *every*
/// clobbered instruction address has a relocated copy in `addr_map`, and
/// return the `(original, relocated)` redirect pair for each. Any
/// clobbered address without coverage makes the patch unsound — control
/// flow landing there (a jump table, a return, a signal) would execute
/// torn bytes — so the audit refuses with
/// [`InstrumentError::SpringboardClobber`] instead.
pub fn audit_redirect_coverage(
    f: &Function,
    base: u64,
    len: usize,
    addr_map: &BTreeMap<u64, u64>,
) -> Result<Vec<(u64, u64)>, InstrumentError> {
    let clobbered = clobbered_addresses(f, base, len);
    let mut cover = Vec::with_capacity(clobbered.len());
    let mut missing = Vec::new();
    for pc in clobbered {
        match addr_map.get(&pc) {
            Some(&to) => cover.push((pc, to)),
            None => missing.push(pc),
        }
    }
    if !missing.is_empty() {
        return Err(InstrumentError::SpringboardClobber {
            pc: base,
            clobbered: missing,
        });
    }
    Ok(cover)
}

/// Run the clobber audit for one planted springboard and fold its
/// redirect pairs into the pass-wide audit state, reporting each newly
/// registered redirect to the observer.
fn audit_springboard(
    f: &Function,
    base: u64,
    len: usize,
    addr_map: &BTreeMap<u64, u64>,
    audited: &mut BTreeSet<u64>,
    redirects: &mut BTreeSet<(u64, u64)>,
    observer: &mut dyn FnMut(PatchEvent),
) -> Result<(), InstrumentError> {
    for (from, to) in audit_redirect_coverage(f, base, len, addr_map)? {
        audited.insert(from);
        if redirects.insert((from, to)) {
            observer(PatchEvent::RedirectRegistered { from, to });
        }
    }
    Ok(())
}

/// Refuse a layout whose patch code area (`code_len` bytes), patch data
/// area (`data_len` bytes) and the input's allocated sections are not
/// pairwise disjoint, except that input sections are not checked against
/// each other. Non-allocated sections have no address in the image, and
/// empty areas overlap nothing.
fn check_layout(
    binary: &Binary,
    layout: PatchLayout,
    code_len: u64,
    data_len: u64,
) -> Result<(), InstrumentError> {
    let span = |start: u64, len: u64| (start, start.saturating_add(len));
    let overlap = |a: (u64, u64), b: (u64, u64)| a.0 < a.1 && b.0 < b.1 && a.0 < b.1 && b.0 < a.1;
    let text = span(layout.patch_text, code_len);
    let data = span(layout.patch_data, data_len);
    let clash = |area, range, other: &str, other_range| InstrumentError::LayoutOverlap {
        area,
        range,
        other: other.to_string(),
        other_range,
    };
    if overlap(text, data) {
        return Err(clash(".rvdyn.text", text, ".rvdyn.data", data));
    }
    for (area, range) in [(".rvdyn.text", text), (".rvdyn.data", data)] {
        for sec in binary.sections.iter().filter(|s| s.flags & SHF_ALLOC != 0) {
            let sec_range = span(sec.addr, sec.data.len() as u64);
            if overlap(range, sec_range) {
                return Err(clash(area, range, &sec.name, sec_range));
            }
        }
    }
    Ok(())
}

/// Maps relocated (patch-area) instruction addresses back to their
/// original addresses — what debuggers and stack walkers need to reason
/// about instrumented code in source terms (Dyninst keeps the same
/// mapping for its `BPatch` address translation).
#[derive(Debug, Clone, Default)]
pub struct RelocationIndex {
    /// new instruction address → original instruction address.
    reverse: BTreeMap<u64, u64>,
}

impl RelocationIndex {
    /// Translate a patch-area pc to its original address. Addresses
    /// outside any relocated range map to themselves. A pc inside snippet
    /// code maps to the instruction the snippet was attached to.
    pub fn to_original(&self, pc: u64) -> u64 {
        match self.reverse.range(..=pc).next_back() {
            // Within 64 bytes of a mapped instruction start: attribute to
            // it (covers multi-instruction expansions and snippet bodies).
            Some((&new, &old)) if pc - new < 64 => old,
            _ => pc,
        }
    }

    /// Is `pc` inside relocated code?
    pub fn is_relocated(&self, pc: u64) -> bool {
        matches!(self.reverse.range(..=pc).next_back(), Some((&new, _)) if pc - new < 64)
    }

    fn absorb(&mut self, addr_map: &BTreeMap<u64, u64>) {
        for (&old, &new) in addr_map {
            self.reverse.insert(new, old);
        }
    }

    /// Merge another index (e.g. from a later commit).
    pub fn merge(&mut self, other: &RelocationIndex) {
        self.reverse.extend(other.reverse.iter());
    }
}

/// The output of [`Instrumenter::apply`].
#[derive(Debug, Clone)]
pub struct PatchResult {
    /// The rewritten binary (new `.rvdyn.*` sections, springboards patched
    /// into `.text`). Serialise with [`Binary::to_bytes`] for the static
    /// path; or apply [`PatchResult::memory_writes`] to a live process for
    /// the dynamic path.
    pub binary: Binary,
    /// Redirect table: `(original, relocated)` pairs covering every
    /// instruction address a springboard overwrote (the clobber audit's
    /// output), plus the entries worst-case trap springboards execute
    /// through. Serialised as `.rvdyn.traps` on the static path and
    /// installed into the machine's trap-redirect map on the dynamic one.
    pub trap_table: Vec<(u64, u64)>,
    /// Diagnostics: total registers spilled across all snippets (0 when
    /// dead-register allocation succeeded everywhere — the §4.3 claim).
    pub spill_count: usize,
    /// Diagnostics: points whose snippets were lowered entirely from dead
    /// registers (the zero-cost path §4.3 credits for RISC-V's overhead
    /// advantage).
    pub dead_register_points: usize,
    /// Diagnostics: total points instrumented.
    pub points_instrumented: usize,
    /// Diagnostics: histogram of springboard strategies planted (§3.1.2).
    pub springboards: SpringboardStats,
    /// Wall-clock nanoseconds spent inside relocation planning and
    /// emission (a sub-phase of the apply pass, reported separately for
    /// telemetry). Under a worker pool this is the *sum* of per-worker
    /// time — CPU time, not wall time.
    pub relocate_ns: u64,
    /// Soundness audit: distinct original instruction addresses the
    /// clobber audit examined under planted springboards.
    pub clobbers_audited: usize,
    /// Soundness audit: distinct `(original, relocated)` redirects
    /// registered in [`PatchResult::trap_table`] to cover them.
    pub redirects_registered: usize,
    /// Position-independent function plans built by the plan phase (one
    /// per instrumented function).
    pub plans_built: usize,
    /// Worker threads the plan phase actually used (1 = inline, no pool).
    pub instrument_workers: usize,
    /// Raw (address, bytes) writes for dynamic instrumentation.
    writes: Vec<(u64, Vec<u8>)>,
    /// The original bytes each springboard overwrote, for removal.
    undo: Vec<(u64, Vec<u8>)>,
    /// Patch-area → original address translation.
    pub reloc_index: RelocationIndex,
}

impl PatchResult {
    /// The memory writes that implement this instrumentation on a live
    /// process (patch area content + springboards).
    pub fn memory_writes(&self) -> &[(u64, Vec<u8>)] {
        &self.writes
    }

    /// The inverse writes: restoring these bytes removes every
    /// springboard, returning the mutatee to uninstrumented execution
    /// (the patch area becomes unreachable dead code). This is Dyninst's
    /// "remove instrumentation" operation.
    pub fn undo_writes(&self) -> &[(u64, Vec<u8>)] {
        &self.undo
    }
}

/// Requested snippets for one function, split by placement semantics.
#[derive(Default)]
struct FuncInsertions {
    /// Before the instruction at the address.
    before: BTreeMap<u64, Vec<Snippet>>,
    /// On the taken edge of the conditional branch at the address.
    taken: BTreeMap<u64, Vec<Snippet>>,
    /// On the not-taken edge of the conditional branch at the address.
    not_taken: BTreeMap<u64, Vec<Snippet>>,
}

/// One function's plan-phase output: lowered snippets spliced into a
/// position-independent [`RelocationPlan`], plus everything the
/// sequential layout phase needs to finish the function without
/// re-running analysis (liveness does not survive the plan phase).
struct FunctionPlan {
    entry: u64,
    reloc: RelocationPlan,
    /// Lowering milestones, replayed to the observer in entry-address
    /// order by the layout phase (deterministic event stream).
    events: Vec<PatchEvent>,
    spills: usize,
    dead_points: usize,
    points: usize,
    /// Wall-clock ns spent building + pre-relaxing the relocation.
    plan_ns: u64,
    /// Dead registers before the function entry (springboard scratch).
    dead_entry: RegSet,
    /// `(target, dead-before-target)` for every indirect-jump edge whose
    /// target is a block of this function (jump-table re-entry sites).
    indirect: Vec<(u64, RegSet)>,
    /// Patch-area base, assigned by the layout phase.
    base: u64,
}

/// Builder for an instrumentation pass over one binary.
pub struct Instrumenter<'b> {
    binary: &'b Binary,
    co: &'b CodeObject,
    layout: PatchLayout,
    mode: RegAllocMode,
    threads: usize,
    liveness: Option<&'b BTreeMap<u64, Liveness>>,
    insertions: BTreeMap<u64, FuncInsertions>,
    var_cursor: u64,
}

impl<'b> Instrumenter<'b> {
    pub fn new(binary: &'b Binary, co: &'b CodeObject) -> Instrumenter<'b> {
        Instrumenter {
            binary,
            co,
            layout: PatchLayout::default(),
            mode: RegAllocMode::DeadRegisters,
            threads: 1,
            liveness: None,
            insertions: BTreeMap::new(),
            var_cursor: 0,
        }
    }

    /// Override the patch-area layout.
    pub fn with_layout(mut self, layout: PatchLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Select the register-allocation mode (ablation A1 uses
    /// [`RegAllocMode::ForceSpill`]).
    pub fn with_mode(mut self, mode: RegAllocMode) -> Self {
        self.mode = mode;
        self
    }

    /// Fan the plan phase out over `threads` workers (1 = run inline on
    /// the calling thread). Output bytes are identical for every value:
    /// only the plan phase parallelises, and the layout phase orders its
    /// results by entry address.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Supply precomputed per-function liveness solutions (keyed by
    /// function entry). The plan phase uses the supplied solution for a
    /// function when present and falls back to running
    /// [`Liveness::analyze`] itself otherwise, so a partial table is
    /// safe. Liveness is a pure function of the CFG, so a table computed
    /// once from `co` (e.g. a shared front-half analysis) yields
    /// bit-identical output to in-plan analysis — only the plan-phase
    /// wall-clock time changes.
    pub fn with_liveness(mut self, liveness: &'b BTreeMap<u64, Liveness>) -> Self {
        self.liveness = Some(liveness);
        self
    }

    /// Allocate an instrumentation variable in the patch data area.
    pub fn alloc_var(&mut self, size: u8) -> Var {
        // 8-byte align every slot.
        let addr = self.layout.patch_data + self.var_cursor;
        self.var_cursor += ((size as u64) + 7) & !7;
        Var { addr, size }
    }

    /// Request `snippet` at `point`. Edge points ([`PointKind::BranchTaken`]
    /// / [`PointKind::BranchNotTaken`]) attach to the branch's edge rather
    /// than the instruction stream.
    pub fn insert(&mut self, point: Point, snippet: Snippet) {
        let fi = self.insertions.entry(point.func).or_default();
        let map = match point.kind {
            PointKind::BranchTaken => &mut fi.taken,
            PointKind::BranchNotTaken => &mut fi.not_taken,
            _ => &mut fi.before,
        };
        map.entry(point.addr).or_default().push(snippet);
    }

    /// Request `snippet` at every point in `points`.
    pub fn insert_at_points(&mut self, points: &[Point], snippet: &Snippet) {
        for p in points {
            self.insert(*p, snippet.clone());
        }
    }

    /// Build one function's position-independent plan: liveness, snippet
    /// lowering, relocation planning, and the dead-register sets the
    /// layout phase will need. Runs on a worker (or inline) — must not
    /// touch anything whose result depends on other functions.
    fn build_plan(
        &self,
        fe: u64,
        fi: &FuncInsertions,
        profile: IsaProfile,
    ) -> Result<FunctionPlan, InstrumentError> {
        let f = self
            .co
            .functions
            .get(&fe)
            .ok_or(InstrumentError::UnknownFunction(fe))?;
        let computed;
        let lv = match self.liveness.and_then(|m| m.get(&fe)) {
            Some(shared) => shared,
            None => {
                computed = Liveness::analyze(f);
                &computed
            }
        };

        // Lower each point's snippets with its dead-register pool.
        // Edge snippets use the dead set before the branch, which is a
        // safe under-approximation of the edge's own dead set.
        let mut events = Vec::new();
        let mut lowered = Insertions::default();
        let mut spills = 0usize;
        let mut dead_points = 0usize;
        let mut points = 0usize;
        for (src_map, dst) in [
            (&fi.before, &mut lowered.before),
            (&fi.taken, &mut lowered.taken_edge),
            (&fi.not_taken, &mut lowered.not_taken_edge),
        ] {
            for (&addr, snippets) in src_map {
                let dead = lv.dead_before(f, addr);
                let seq = Snippet::Seq(snippets.clone());
                let (code, stats) = generate_with_stats(&seq, dead, self.mode, profile)?;
                spills += stats.spills;
                points += 1;
                if stats.spills == 0 {
                    dead_points += 1;
                }
                events.push(PatchEvent::PointLowered {
                    addr,
                    spills: stats.spills,
                    dead_scratch: stats.dead_scratch,
                });
                dst.insert(addr, code);
            }
        }

        // Build the symbolic relocation and pre-relax it at the patch
        // area's base — the best position-independent size estimate, and
        // the one the first laid-out function gets exactly.
        let reloc_start = Instant::now();
        let mut reloc = RelocationPlan::build(f, &lowered)?;
        reloc.relax_at(self.layout.patch_text);
        let plan_ns = (reloc_start.elapsed().as_nanos() as u64).max(1);

        // Springboard scratch sets, captured while liveness is in scope.
        let dead_entry = lv.dead_before(f, fe);
        let mut indirect: Vec<(u64, RegSet)> = Vec::new();
        for b in f.blocks.values() {
            for e in &b.edges {
                if e.kind == EdgeKind::IndirectJump {
                    if let Some(t) = e.target {
                        if f.blocks.contains_key(&t) {
                            indirect.push((t, lv.dead_before(f, t)));
                        }
                    }
                }
            }
        }

        Ok(FunctionPlan {
            entry: fe,
            reloc,
            events,
            spills,
            dead_points,
            points,
            plan_ns,
            dead_entry,
            indirect,
            base: 0,
        })
    }

    /// Plan phase: build every function's plan, fanned out over the
    /// worker pool when `threads > 1`. Errors surface lowest-address
    /// first regardless of which worker hit one first.
    fn build_plans(
        &self,
        nworkers: usize,
        profile: IsaProfile,
    ) -> Result<BTreeMap<u64, FunctionPlan>, InstrumentError> {
        if nworkers <= 1 {
            let mut plans = BTreeMap::new();
            for (&fe, fi) in &self.insertions {
                plans.insert(fe, self.build_plan(fe, fi, profile)?);
            }
            return Ok(plans);
        }

        let wl = Worklist::new(self.insertions.keys().copied(), nworkers);
        let results: Mutex<Vec<(u64, Result<FunctionPlan, InstrumentError>)>> =
            Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..nworkers {
                scope.spawn(|| {
                    let mut local: Vec<(u64, Result<FunctionPlan, InstrumentError>)> = Vec::new();
                    loop {
                        let batch = wl.next_batch();
                        if batch.is_empty() {
                            break;
                        }
                        for &fe in &batch {
                            let fi = &self.insertions[&fe];
                            local.push((fe, self.build_plan(fe, fi, profile)));
                        }
                        wl.complete(batch.len(), std::iter::empty());
                    }
                    if !local.is_empty() {
                        results.lock().unwrap().extend(local);
                    }
                });
            }
        });

        // Deterministic error propagation: order worker results by entry
        // address, then surface the first failure — always the
        // lowest-addressed one, matching the sequential path.
        let by_addr: BTreeMap<u64, Result<FunctionPlan, InstrumentError>> =
            results.into_inner().unwrap().into_iter().collect();
        let mut plans = BTreeMap::new();
        for (fe, r) in by_addr {
            plans.insert(fe, r?);
        }
        Ok(plans)
    }

    /// Generate code, relocate the instrumented functions, plant
    /// springboards, and produce the rewritten binary.
    pub fn apply(&self) -> Result<PatchResult, InstrumentError> {
        self.apply_with_observer(&mut |_| {})
    }

    /// As [`Instrumenter::apply`], reporting pass milestones (point
    /// lowering, plan completion, relocation, springboard planting) to
    /// `observer`.
    pub fn apply_with_observer(
        &self,
        observer: &mut dyn FnMut(PatchEvent),
    ) -> Result<PatchResult, InstrumentError> {
        let profile = self.binary.profile();

        // ---- plan phase (parallel): everything per-function and
        // position-independent. ----
        let nworkers = self.threads.max(1).min(self.insertions.len().max(1));
        let mut plans = self.build_plans(nworkers, profile)?;

        // ---- layout phase (sequential, deterministic from here on) ----
        // Assign patch-area bases in entry-address order, re-relaxing
        // each plan at its final base until the whole-area assignment is
        // a fixpoint: a function that widens shifts everything after it,
        // and slot sizes are monotone, so the loop terminates.
        let layout_start = Instant::now();
        let code_end = loop {
            let mut cursor = self.layout.patch_text;
            let mut changed = false;
            for plan in plans.values_mut() {
                plan.base = cursor;
                changed |= plan.reloc.relax_at(cursor);
                cursor += (plan.reloc.code_size() + 7) & !7;
            }
            if !changed {
                break cursor;
            }
        };
        let mut relocate_ns = (layout_start.elapsed().as_nanos() as u64).max(1);
        let data_size = self.var_cursor.max(8);
        check_layout(
            self.binary,
            self.layout,
            code_end - self.layout.patch_text,
            data_size,
        )?;

        let mut out = self.binary.clone();
        let mut patch_code: Vec<u8> = Vec::new();
        let mut trap_table: Vec<(u64, u64)> = Vec::new();
        let mut spill_count = 0usize;
        let mut dead_register_points = 0usize;
        let mut points_instrumented = 0usize;
        let mut writes: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut undo: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut springs: Vec<(u64, crate::springboard::Springboard)> = Vec::new();
        let mut reloc_index = RelocationIndex::default();
        // Clobber audit state: every original instruction address a
        // springboard tears, and the redirect registered to cover it.
        let mut audited: BTreeSet<u64> = BTreeSet::new();
        let mut redirects: BTreeSet<(u64, u64)> = BTreeSet::new();

        for plan in plans.values() {
            let fe = plan.entry;
            // build_plan proved the function exists.
            let f = &self.co.functions[&fe];

            // Replay the plan's lowering milestones in address order.
            for ev in &plan.events {
                observer(ev.clone());
            }
            spill_count += plan.spills;
            dead_register_points += plan.dead_points;
            points_instrumented += plan.points;
            relocate_ns += plan.plan_ns;
            observer(PatchEvent::PlanBuilt {
                entry: fe,
                points: plan.points,
            });

            // Resolve the plan's symbolic targets at its assigned base.
            debug_assert_eq!(
                self.layout.patch_text + patch_code.len() as u64,
                plan.base,
                "layout cursor drifted from assigned base"
            );
            let emit_start = Instant::now();
            let reloc = plan.reloc.emit(plan.base)?;
            relocate_ns += (emit_start.elapsed().as_nanos() as u64).max(1);
            observer(PatchEvent::FunctionRelocated {
                entry: fe,
                bytes: reloc.code.len(),
            });
            reloc_index.absorb(&reloc.addr_map);
            patch_code.extend_from_slice(&reloc.code);
            // Align the next function.
            while !patch_code.len().is_multiple_of(8) {
                patch_code.push(0);
            }

            // Springboard at the function entry. Soundness: the budget is
            // the entry *block*, not the whole function extent — later
            // blocks start at branch targets whose original bytes must
            // survive, and an entry block that is itself an indirect-jump
            // target re-enters mid-patch if overwritten without coverage.
            let avail = match f.blocks.get(&fe) {
                Some(b) => b.len_bytes() as usize,
                None => {
                    let (lo, hi) = f.extent();
                    (hi - lo) as usize
                }
            };
            let sb = plan_springboard(fe, reloc.new_entry, avail, profile, plan.dead_entry);
            if let Some(t) = sb.trap_entry {
                trap_table.push(t);
            }
            audit_springboard(
                f,
                fe,
                sb.bytes.len(),
                &reloc.addr_map,
                &mut audited,
                &mut redirects,
                observer,
            )?;
            springs.push((fe, sb));

            // Springboards at indirect-jump targets: execution re-enters
            // original code through jump tables; bounce it back into the
            // instrumented copy (§3.2.3 jump tables + code patching).
            for &(t, dead) in &plan.indirect {
                if let Some(&nt) = reloc.addr_map.get(&t) {
                    let tb = &f.blocks[&t];
                    let avail = tb.len_bytes() as usize;
                    let sb = plan_springboard(t, nt, avail, profile, dead);
                    if let Some(tt) = sb.trap_entry {
                        trap_table.push(tt);
                    }
                    audit_springboard(
                        f,
                        t,
                        sb.bytes.len(),
                        &reloc.addr_map,
                        &mut audited,
                        &mut redirects,
                        observer,
                    )?;
                    springs.push((t, sb));
                }
            }
        }

        // Every audited clobber's redirect goes into the trap table, so
        // any control transfer landing on a torn original instruction —
        // not just an executed trap springboard — resolves to relocated
        // code. The runtime charges nothing for entries that never fire.
        trap_table.extend(redirects.iter().copied());

        springs.sort_by_key(|(a, _)| *a);
        springs.dedup_by_key(|(a, _)| *a);
        trap_table.sort();
        trap_table.dedup();
        let mut springboards = SpringboardStats::default();

        // Patch springboards into the text section image, recording the
        // bytes they replace for uninstrumentation.
        for (addr, sb) in &springs {
            let sec = out
                .sections
                .iter_mut()
                .find(|s| s.is_code() && s.contains(*addr))
                .ok_or(InstrumentError::SpringboardOutsideCode { addr: *addr })?;
            let bytes = &sb.bytes;
            let off = (*addr - sec.addr) as usize;
            undo.push((*addr, sec.data[off..off + bytes.len()].to_vec()));
            sec.data[off..off + bytes.len()].copy_from_slice(bytes);
            writes.push((*addr, bytes.clone()));
            springboards.record(&sb.kind);
            observer(PatchEvent::SpringboardPlanted {
                addr: *addr,
                kind: sb.kind.clone(),
            });
        }

        // New sections.
        if !patch_code.is_empty() {
            writes.push((self.layout.patch_text, patch_code.clone()));
            out.sections.push(Section::progbits(
                ".rvdyn.text",
                self.layout.patch_text,
                SHF_ALLOC | SHF_EXECINSTR,
                patch_code,
            ));
        }
        out.sections.push(Section::progbits(
            ".rvdyn.data",
            self.layout.patch_data,
            SHF_ALLOC | SHF_WRITE,
            vec![0; data_size as usize],
        ));
        if !trap_table.is_empty() {
            let mut t = Vec::with_capacity(trap_table.len() * 16);
            for (from, to) in &trap_table {
                t.extend_from_slice(&from.to_le_bytes());
                t.extend_from_slice(&to.to_le_bytes());
            }
            out.sections.push(Section::progbits(
                ".rvdyn.traps",
                0,
                0, // non-alloc metadata; the emulator's loader reads it
                t,
            ));
        }

        Ok(PatchResult {
            binary: out,
            trap_table,
            spill_count,
            dead_register_points,
            points_instrumented,
            springboards,
            relocate_ns,
            clobbers_audited: audited.len(),
            redirects_registered: redirects.len(),
            plans_built: plans.len(),
            instrument_workers: nworkers,
            writes,
            undo,
            reloc_index,
        })
    }
}
