//! The instrumenter: points + snippets → a rewritten binary.
//!
//! This is the user-facing PatchAPI operation (§2): "code snippet
//! insertion … takes a tuple (P, AST) … Dyninst will convert the AST to
//! native code, optimize the code when possible, generate new versions of
//! the blocks or functions that have been modified, and patch a branch
//! into the original code to jump to the modified code."
//!
//! ## Parallel plan and finish phases around a sequential layout
//!
//! The pass is split so it scales with cores *without changing a single
//! output byte* (the parse stage's §2 "fast parallel algorithm", applied
//! to the back half of the pipeline):
//!
//! 1. **Plan** (parallel, [`Instrumenter::with_threads`]): each
//!    instrumented function's snippet lowering and relocation planning
//!    runs independently on a worker pool (the batch worklist shared
//!    with the parallel parser), producing one position-independent
//!    `FunctionPlan` per function — a [`RelocationPlan`] whose
//!    branch/jump targets are slot indices. A point's scratch pool is
//!    its dead registers, read from the function's liveness
//!    ([`Function::liveness`], solved by its first reader and kept with
//!    the parse), less every register that a snippet of the function
//!    writes ([`Snippet::WriteReg`]), so a value one snippet leaves in a
//!    dead register survives the other snippets until a later one reads
//!    it. Each worker keeps one [`Emitter`] and one [`Insertions`] for
//!    every function it plans: a point's code is lowered straight into
//!    the function's word arena as encoded 32-bit words
//!    ([`Emitter::lower_into`]), one run per point, and the relocation
//!    plan copies the arena into its own byte arena once. Planning
//!    allocates per function, not per point.
//! 2. **Base assignment** (sequential): patch-area bases are assigned in
//!    stable entry-address order, and each plan is re-relaxed at its
//!    final base to a whole-area fixpoint. A call from one relocated
//!    function to another enters the callee's relocated entry, so the
//!    fixpoint also covers the callee table — each plan's relocated
//!    entry — that those calls are sized against.
//! 3. **Finish** (parallel, same pool): each function's code is emitted
//!    at its base against the one shared callee table, and its
//!    springboards are planned at its [`springboard_sites`], with
//!    scratch from the same liveness, and audited.
//! 4. **Merge** (sequential): the main thread concatenates the code,
//!    replays the buffered events and merges the trap table, audit and
//!    relocation index, all in entry-address order. It then rewrites
//!    the direct call sites in original code that call a relocated
//!    function ([`CallSites`]) to enter its copy, where a `jal` reaches.
//!
//! Every output-bearing decision depends only on a function's own plan,
//! the bases and the callee table, which are assigned sequentially, so
//! the rewritten bytes are bit-identical for any worker count; failures
//! are surfaced lowest-address first so even the error is deterministic,
//! and observers see the same event stream as a sequential pass.
//!
//! ## Springboards and retargeted calls
//!
//! Every relocated function keeps a springboard at its original entry,
//! for the calls that cannot enter the copy directly: indirect calls,
//! calls whose `jal` cannot reach the patch area, calls from code that an
//! earlier live commit relocated, and the program entry. Direct calls
//! skip it: a call inside the patch area to a function of the same pass
//! (recursion included) is emitted against the callee's relocated entry,
//! and a 4-byte `jal` call site in original code that no relocation
//! covers is rewritten in place — one 4-byte write, with its original
//! bytes in [`PatchResult::undo_writes`] — unless it overlaps a
//! springboard. Compressed call sites, `auipc; jalr` pairs and indirect
//! calls are never rewritten.

use crate::callsites::CallSites;
use crate::points::{Point, PointKind};
use crate::relocate::{
    reaches, relocated_addr, Insertions, Placement, RelocateError, RelocationPlan, JAL_REACH,
};
use crate::springboard::{
    plan_springboard, springboard_sites, Springboard, SpringboardKind, SpringboardStats,
    MAX_SPRINGBOARD_LEN,
};
use rvdyn_codegen::emitter::{CodeGenError, Emitter};
use rvdyn_codegen::regalloc::RegAllocMode;
use rvdyn_codegen::snippet::{Snippet, Var};
use rvdyn_isa::encode::encode32;
use rvdyn_isa::{build, IsaProfile, RegSet};
use rvdyn_parse::worklist::Worklist;
use rvdyn_parse::{CodeObject, Function};
use rvdyn_symtab::{Binary, Section, SHF_ALLOC, SHF_EXECINSTR, SHF_WRITE};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
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
    /// slot-indexed relocation) is complete; base assignment takes it
    /// from here. Replayed in entry-address order regardless of which
    /// worker built the plan.
    PlanBuilt { entry: u64, points: usize },
    /// One function was relocated into the patch area.
    FunctionRelocated { entry: u64, bytes: usize },
    /// A springboard was planted over original code.
    SpringboardPlanted { addr: u64, kind: SpringboardKind },
    /// The clobber audit registered a redirect: any control transfer that
    /// lands on the overwritten original instruction at `from` is carried
    /// to its relocated copy at `to`.
    RedirectRegistered { from: u64, to: u64 },
    /// The direct call at original address `site` enters the relocated
    /// function entry `to` instead of the callee's springboard: a call
    /// relocated with its caller, or a call site rewritten in original
    /// code. Replayed in entry-address order.
    CallRetargeted { site: u64, to: u64 },
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
#[derive(Debug, Clone)]
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
        match e {
            // Code that does not encode is one failure, whether it is
            // snippet code or a copied instruction: `RelocateError::Encode`.
            CodeGenError::Encode(e) => RelocateError::Encode(e.to_string()).into(),
            e => InstrumentError::CodeGen(e),
        }
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
    let mut out = Vec::new();
    clobbered_into(f, base, len, &mut out);
    out
}

/// [`clobbered_addresses`] into `out`, which is cleared first.
fn clobbered_into(f: &Function, base: u64, len: usize, out: &mut Vec<u64>) {
    let end = base + len as u64;
    out.clear();
    out.extend(
        f.blocks
            .values()
            .flat_map(|b| b.insts.iter())
            .filter(|i| i.address < end && i.address + i.size as u64 > base)
            .map(|i| i.address),
    );
    out.sort_unstable();
    out.dedup();
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
    let mut clobbered = Vec::new();
    let cover = audit_cover(
        f,
        base,
        len,
        |pc| addr_map.get(&pc).copied(),
        &mut clobbered,
    )?;
    Ok(cover.collect())
}

/// [`audit_redirect_coverage`] over any original → relocated lookup,
/// gathering the clobbered addresses in `clobbered`: the redirect pairs,
/// in address order.
fn audit_cover<'a>(
    f: &Function,
    base: u64,
    len: usize,
    relocated: impl Fn(u64) -> Option<u64> + 'a,
    clobbered: &'a mut Vec<u64>,
) -> Result<impl Iterator<Item = (u64, u64)> + 'a, InstrumentError> {
    clobbered_into(f, base, len, clobbered);
    let missing: Vec<u64> = clobbered
        .iter()
        .copied()
        .filter(|&pc| relocated(pc).is_none())
        .collect();
    if !missing.is_empty() {
        return Err(InstrumentError::SpringboardClobber {
            pc: base,
            clobbered: missing,
        });
    }
    Ok(clobbered
        .iter()
        .filter_map(move |&pc| Some((pc, relocated(pc)?))))
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
    /// `(relocated, original)` instruction address pairs, ascending and
    /// unique by relocated address.
    entries: Vec<(u64, u64)>,
}

impl RelocationIndex {
    /// The original address of the nearest relocated instruction start
    /// at or below `pc`, if it is within 64 bytes (which covers
    /// multi-instruction expansions and snippet bodies).
    fn covering(&self, pc: u64) -> Option<u64> {
        let i = self.entries.partition_point(|&(new, _)| new <= pc);
        let &(new, old) = self.entries.get(i.checked_sub(1)?)?;
        (pc - new < 64).then_some(old)
    }

    /// Translate a patch-area pc to its original address. Addresses
    /// outside any relocated range map to themselves. A pc inside snippet
    /// code maps to the instruction the snippet was attached to.
    pub fn to_original(&self, pc: u64) -> u64 {
        self.covering(pc).unwrap_or(pc)
    }

    /// Is `pc` inside relocated code?
    pub fn is_relocated(&self, pc: u64) -> bool {
        self.covering(pc).is_some()
    }

    /// Merge another index (e.g. from a later commit); where both map
    /// the same relocated address, `other` wins.
    pub fn merge(&mut self, other: &RelocationIndex) {
        let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len());
        let mut mine = self.entries.iter().copied().peekable();
        for &(new, old) in &other.entries {
            while let Some(e) = mine.next_if(|e| e.0 <= new) {
                if e.0 < new {
                    merged.push(e);
                }
            }
            merged.push((new, old));
        }
        merged.extend(mine);
        self.entries = merged;
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
    /// End of the code this patch lays out in the patch code area (its
    /// base when nothing was relocated), 8-byte aligned.
    pub code_end: u64,
    /// Direct calls that enter a relocated entry instead of a
    /// springboard: calls relocated with their caller plus call sites
    /// rewritten in original code.
    pub calls_retargeted: usize,
    /// The springboard and call-site writes, in planting order.
    writes: Vec<(u64, Vec<u8>)>,
    /// The index in `binary.sections` of `.rvdyn.text`, the patch code
    /// area (none when nothing was relocated).
    code_section: Option<usize>,
    /// The original bytes each springboard and rewritten call site
    /// overwrote, for removal.
    undo: Vec<(u64, Vec<u8>)>,
    /// Patch-area → original address translation.
    pub reloc_index: RelocationIndex,
}

impl PatchResult {
    /// The memory writes that implement this instrumentation on a live
    /// process, as `(address, bytes)`: the springboards and rewritten
    /// call sites, then the patch code area, read from its `.rvdyn.text`
    /// section in [`PatchResult::binary`].
    pub fn memory_writes(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        let code = self.code_section.and_then(|i| self.binary.sections.get(i));
        self.writes
            .iter()
            .map(|(addr, bytes)| (*addr, &bytes[..]))
            .chain(code.map(|sec| (sec.addr, &sec.data[..])))
    }

    /// The inverse writes: restoring these bytes removes every
    /// springboard and rewritten call site, returning the mutatee to
    /// uninstrumented execution (the patch area becomes unreachable dead
    /// code, except to a frame still running in it). This is Dyninst's
    /// "remove instrumentation" operation.
    pub fn undo_writes(&self) -> &[(u64, Vec<u8>)] {
        &self.undo
    }
}

/// Where a request's snippet runs relative to the instruction at its
/// address; the plan phase lowers a function's points in this order.
fn placement(kind: PointKind) -> Placement {
    match kind {
        PointKind::BranchTaken => Placement::TakenEdge,
        PointKind::BranchNotTaken => Placement::NotTakenEdge,
        _ => Placement::Before,
    }
}

/// Sort key of a request: function, placement, address.
fn request_key(p: &Point) -> (u64, Placement, u64) {
    (p.func, placement(p.kind), p.addr)
}

/// What one plan worker reuses from function to function: the emitter
/// (code buffer, label table, allocator pools) and the word arena the
/// function's points are lowered into.
#[derive(Default)]
struct PlanScratch {
    emitter: Emitter,
    insertions: Insertions,
}

/// One function's plan-phase output: lowered snippets spliced into a
/// position-independent [`RelocationPlan`]. The finish phase reads the
/// function's liveness from the parse, where the plan phase left it.
struct FunctionPlan {
    entry: u64,
    reloc: RelocationPlan,
    spills: usize,
    dead_points: usize,
    /// Points lowered: one `PointLowered` milestone each in the plan
    /// batch's event list, which the merge replays in entry-address
    /// order (deterministic event stream).
    points: usize,
    /// Wall-clock ns spent building + pre-relaxing the relocation.
    plan_ns: u64,
    /// Patch-area base, assigned by base assignment.
    base: u64,
}

/// One function's finish-phase output, merged in entry order.
struct Finished {
    /// Nanoseconds spent emitting the relocation.
    emit_ns: u64,
    /// Bytes of relocated code emitted (before alignment padding), or
    /// the error that stopped emission.
    emitted: Result<usize, InstrumentError>,
    /// How many of the batch's `calls` this function retargeted.
    calls: usize,
    /// How many of the batch's `redirects` this function registered.
    redirects: usize,
    /// The audit failure that ended the function after its redirects.
    error: Option<InstrumentError>,
}

/// The finish phase's output for one contiguous run of plans.
#[derive(Default)]
struct FinishedBatch {
    /// The run's patch-area bytes, padding included.
    code: Vec<u8>,
    /// `(relocated, original)` pairs, ascending by relocated address.
    index: Vec<(u64, u64)>,
    /// Springboards in planting order: per function the entry first,
    /// then each indirect-jump target.
    springs: Vec<(u64, Springboard)>,
    /// Trap-table entries the trap springboards execute through.
    traps: Vec<(u64, u64)>,
    /// `(call site, relocated callee entry)` of the relocated calls that
    /// enter another relocated entry, in slot order per function.
    calls: Vec<(u64, u64)>,
    /// Redirects the clobber audits registered, in audit order, each
    /// once per function.
    redirects: Vec<(u64, u64)>,
    functions: Vec<Finished>,
    /// Scratch for the clobber audit: the addresses one springboard
    /// tears.
    clobbered: Vec<u64>,
}

impl FinishedBatch {
    /// An empty batch with room for the code and index of `plans`.
    fn sized_for(plans: &[&FunctionPlan]) -> FinishedBatch {
        let code = plans
            .iter()
            .map(|p| (p.reloc.code_size() + 7) & !7)
            .sum::<u64>();
        let index = plans.iter().map(|p| p.reloc.relocated_count()).sum();
        FinishedBatch {
            code: Vec::with_capacity(code as usize),
            index: Vec::with_capacity(index),
            springs: Vec::with_capacity(plans.len()),
            functions: Vec::with_capacity(plans.len()),
            ..FinishedBatch::default()
        }
    }
}

/// Run `work` over `items` in contiguous batches, taking them by value,
/// on `nworkers` helper threads (inline, as one batch, when `nworkers`
/// is 1), and return the batches' results in item order. Workers claim
/// batches from the worklist the parallel parser uses, and each hands
/// every batch it claims the same scratch `S`.
///
/// The calling thread only waits. It frees what earlier phases' helpers
/// allocated, so glibc's per-thread cache hands it chunks owned by a
/// helper's arena; working alongside the helpers, it then freed those
/// chunks while a helper was allocating from the same arena, and on the
/// cold-code benchmark the plan phase slept on that arena's lock
/// thousands of times per apply, depending on what the process had run
/// before.
fn par_batches<T: Send, S: Default, R: Send>(
    items: Vec<T>,
    nworkers: usize,
    work: impl Fn(&mut S, Vec<T>) -> R + Sync,
) -> Vec<R> {
    if nworkers <= 1 {
        return vec![work(&mut S::default(), items)];
    }
    let wl = Worklist::fixed(items.into_iter().enumerate(), nworkers);
    let worker = || {
        let mut scratch = S::default();
        let mut done = Vec::new();
        loop {
            let batch = wl.next_batch();
            let (Some(&(first, _)), n) = (batch.first(), batch.len()) else {
                break;
            };
            let items = batch.into_iter().map(|(_, t)| t).collect();
            done.push((first, work(&mut scratch, items)));
            wl.complete_batch(n);
        }
        done
    };
    let mut results = std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..nworkers).map(|_| scope.spawn(worker)).collect();
        // Join each helper explicitly: unlike the scope's implicit join,
        // this waits for the thread to exit, which returns its allocator
        // arena for the next phase's helpers to reuse instead of making
        // the allocator open new ones.
        let mut results = Vec::new();
        for h in helpers {
            results.extend(h.join().expect("instrumentation worker panicked"));
        }
        results
    });
    results.sort_unstable_by_key(|&(first, _)| first);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Builder for an instrumentation pass over one binary.
pub struct Instrumenter<'b> {
    binary: &'b Binary,
    co: &'b CodeObject,
    layout: PatchLayout,
    mode: RegAllocMode,
    threads: usize,
    /// Requested `(point, snippet)` pairs in insertion order; snippets
    /// from [`Instrumenter::insert_all`] are borrowed, not copied.
    requests: Vec<(Point, Cow<'b, Snippet>)>,
    var_cursor: u64,
    /// The parse's direct call sites, when the caller keeps the index;
    /// otherwise [`Instrumenter::apply`] builds it.
    call_sites: Option<&'b CallSites>,
    /// Functions an earlier live commit relocated.
    relocated: Option<&'b BTreeSet<u64>>,
}

impl<'b> Instrumenter<'b> {
    pub fn new(binary: &'b Binary, co: &'b CodeObject) -> Instrumenter<'b> {
        Instrumenter {
            binary,
            co,
            layout: PatchLayout::default(),
            mode: RegAllocMode::DeadRegisters,
            threads: 1,
            requests: Vec::new(),
            var_cursor: 0,
            call_sites: None,
            relocated: None,
        }
    }

    /// Read the direct call sites to rewrite from `sites`, an index of
    /// this parse built once ([`CallSites::of`]), instead of indexing
    /// the whole parse on every apply.
    pub fn with_call_sites(mut self, sites: &'b CallSites) -> Self {
        self.call_sites = Some(sites);
        self
    }

    /// Name the functions earlier commits into the same process
    /// relocated. Their original code no longer runs from its entry,
    /// which may hold a springboard, so call sites in it are left as
    /// they are.
    pub fn with_relocated(mut self, funcs: &'b BTreeSet<u64>) -> Self {
        self.relocated = Some(funcs);
        self
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

    /// Fan the plan and finish phases out over `threads` workers (1 =
    /// run inline on the calling thread). Output bytes are identical for
    /// every value: patch-area bases are assigned sequentially, and the
    /// merge orders every per-function result by entry address.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Allocate an instrumentation variable in the patch data area.
    pub fn alloc_var(&mut self, size: u8) -> Var {
        // 8-byte align every slot.
        let addr = self.layout.patch_data + self.var_cursor;
        self.var_cursor += ((size as u64) + 7) & !7;
        Var { addr, size }
    }

    /// Allocate a region of `len` bytes (rounded up to 8-byte
    /// granularity) in the patch data area and return its base address.
    pub fn alloc_region(&mut self, len: u64) -> u64 {
        let addr = self.layout.patch_data + self.var_cursor;
        self.var_cursor += (len + 7) & !7;
        addr
    }

    /// Request `snippet` at `point`. Edge points ([`PointKind::BranchTaken`]
    /// / [`PointKind::BranchNotTaken`]) attach to the branch's edge rather
    /// than the instruction stream.
    pub fn insert(&mut self, point: Point, snippet: Snippet) {
        self.requests.push((point, Cow::Owned(snippet)));
    }

    /// Request `snippet` at every point in `points`.
    pub fn insert_at_points(&mut self, points: &[Point], snippet: &Snippet) {
        for p in points {
            self.insert(*p, snippet.clone());
        }
    }

    /// Request every `(point, snippet)` pair of `queue`, in order, as
    /// [`Instrumenter::insert`] would, reading the snippets in place.
    pub fn insert_all(&mut self, queue: &'b [(Point, Snippet)]) {
        self.requests
            .extend(queue.iter().map(|(p, s)| (*p, Cow::Borrowed(s))));
    }

    /// The request indices sorted by function, placement and address —
    /// stably, so snippets at one point keep their insertion order — and
    /// each function's entry with its run of that order.
    fn grouped_requests(&self) -> (Vec<usize>, Vec<(u64, Range<usize>)>) {
        let mut order: Vec<usize> = (0..self.requests.len()).collect();
        order.sort_by_key(|&i| request_key(&self.requests[i].0));
        let mut groups: Vec<(u64, Range<usize>)> = Vec::new();
        for (pos, &i) in order.iter().enumerate() {
            let func = self.requests[i].0.func;
            match groups.last_mut() {
                Some((f, run)) if *f == func => run.end = pos + 1,
                _ => groups.push((func, pos..pos + 1)),
            }
        }
        (order, groups)
    }

    /// Build one function's position-independent plan: snippet lowering
    /// against the function's liveness, and relocation planning.
    /// `requests` are the function's request indices in [`request_key`]
    /// order; lowering milestones are appended to `events`. Runs on a
    /// worker (or inline) — must not touch anything whose result depends
    /// on other functions.
    fn build_plan(
        &self,
        fe: u64,
        requests: &[usize],
        profile: IsaProfile,
        callees: &[(u64, u64)],
        events: &mut Vec<PatchEvent>,
        scratch: &mut PlanScratch,
    ) -> Result<FunctionPlan, InstrumentError> {
        let f = self
            .co
            .functions
            .get(&fe)
            .ok_or(InstrumentError::UnknownFunction(fe))?;
        let lv = f.liveness();
        // A register any snippet of the function writes is never scratch
        // in it: its writer may read it back at a later point.
        let written = requests.iter().fold(RegSet::EMPTY, |set, &i| {
            set.union(self.requests[i].1.written_registers())
        });

        // Lower each point's snippets with its dead-register pool, into
        // one run of the function's word arena. Edge snippets use the
        // dead set before the branch, which is a safe under-approximation
        // of the edge's own dead set.
        let PlanScratch {
            emitter,
            insertions,
        } = scratch;
        insertions.clear();
        let first_event = events.len();
        let mut spills = 0usize;
        let mut dead_points = 0usize;
        let point = |i: &usize| &self.requests[*i].0;
        for run in requests.chunk_by(|a, b| request_key(point(a)) == request_key(point(b))) {
            let p = point(&run[0]);
            let dead = lv.dead_before(f, p.addr).minus(written);
            let snippets = run.iter().map(|&i| &*self.requests[i].1);
            let stats = insertions.push_with(p.addr, placement(p.kind), |words| {
                emitter.lower_into(snippets, dead, self.mode, profile, words)
            })?;
            spills += stats.spills;
            if stats.spills == 0 {
                dead_points += 1;
            }
            events.push(PatchEvent::PointLowered {
                addr: p.addr,
                spills: stats.spills,
                dead_scratch: stats.dead_scratch,
            });
        }
        let points = events.len() - first_event;

        // Build the symbolic relocation and pre-relax it at the patch
        // area's base — the best position-independent size estimate, and
        // the one the first laid-out function gets exactly. `callees`
        // puts every function of the pass there too, so no call to one
        // widens against the callee's original address first.
        let reloc_start = Instant::now();
        let mut reloc = RelocationPlan::build(f, insertions)?;
        reloc.relax_at(self.layout.patch_text, callees);
        let plan_ns = (reloc_start.elapsed().as_nanos() as u64).max(1);

        Ok(FunctionPlan {
            entry: fe,
            reloc,
            spills,
            dead_points,
            points,
            plan_ns,
            base: 0,
        })
    }

    /// Finish one laid-out plan: emit its code at its base (appending to
    /// `batch.code`, which starts at a plan base) against the pass's
    /// final `callees` table, plan a springboard at each of the
    /// function's [`springboard_sites`] and audit each one's clobbers.
    /// Runs on a worker (or inline).
    fn finish_plan(
        &self,
        plan: &FunctionPlan,
        profile: IsaProfile,
        callees: &[(u64, u64)],
        batch: &mut FinishedBatch,
    ) {
        let fe = plan.entry;
        let mut fin = Finished {
            emit_ns: 0,
            emitted: Ok(0),
            calls: 0,
            redirects: 0,
            error: None,
        };
        let start = batch.code.len();
        let calls_start = batch.calls.len();
        let emit_start = Instant::now();
        let emitted = plan
            .reloc
            .emit_into(plan.base, callees, &mut batch.code, &mut batch.calls);
        if let Err(e) = emitted {
            batch.code.truncate(start);
            batch.calls.truncate(calls_start);
            fin.emitted = Err(e.into());
            batch.functions.push(fin);
            return;
        }
        fin.calls = batch.calls.len() - calls_start;
        fin.emit_ns = (emit_start.elapsed().as_nanos() as u64).max(1);
        let bytes = batch.code.len() - start;
        fin.emitted = Ok(bytes);
        // Align the next function.
        batch.code.resize(start + ((bytes + 7) & !7), 0);

        // build_plan proved the function exists.
        let f = &self.co.functions[&fe];
        // Springboard at the function entry. Soundness: the budget is
        // the entry *block*, not the whole function extent — later
        // blocks start at branch targets whose original bytes must
        // survive, and an entry block that is itself an indirect-jump
        // target re-enters mid-patch if overwritten without coverage.
        let entry_avail = match f.blocks.get(fe) {
            Some(b) => b.len_bytes() as usize,
            None => {
                let (lo, hi) = f.extent();
                (hi - lo) as usize
            }
        };
        let relocated = |pc| plan.reloc.relocated(plan.base, pc);
        let new_entry = relocated(fe).unwrap_or(plan.base);
        // Springboards at indirect-jump targets: execution re-enters
        // original code through jump tables; bounce it back into the
        // instrumented copy (§3.2.3 jump tables + code patching).
        let mut sites = springboard_sites(f);
        let entry = sites.next().map(|at| (at, new_entry, entry_avail));
        let targets = sites.filter_map(|t| {
            let nt = relocated(t)?;
            Some((t, nt, f.blocks.at(t).len_bytes() as usize))
        });
        // The plan phase solved the function's liveness; its dead
        // registers are the springboards' scratch.
        let lv = f.liveness();
        let registered = batch.redirects.len();
        for (at, to, avail) in entry.into_iter().chain(targets) {
            let sb = plan_springboard(at, to, avail, profile, lv.dead_before(f, at));
            batch.traps.extend(sb.trap_entry);
            match audit_cover(f, at, sb.bytes.len(), relocated, &mut batch.clobbered) {
                Ok(cover) => {
                    // A site can be audited twice (an entry block that is
                    // also a jump-table target, a repeated table entry);
                    // each redirect registers once.
                    for pair in cover {
                        if !batch.redirects[registered..].contains(&pair) {
                            batch.redirects.push(pair);
                        }
                    }
                }
                Err(e) => {
                    fin.error = Some(e);
                    break;
                }
            }
            batch.springs.push((at, sb));
        }
        fin.redirects = batch.redirects.len() - registered;

        // Index entries, ascending by relocated address: slot order,
        // which only overlapping blocks make differ from address order.
        let index_start = batch.index.len();
        batch
            .index
            .extend(plan.reloc.pairs(plan.base).map(|(old, new)| (new, old)));
        let part = &mut batch.index[index_start..];
        if !part.is_sorted() {
            part.sort_unstable();
        }
        batch.functions.push(fin);
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
        let (order, groups) = self.grouped_requests();
        let plans_built = groups.len();
        let nworkers = self.threads.max(1).min(plans_built.max(1));
        let mut events: Vec<Vec<PatchEvent>> = Vec::new();
        let mut plans: Vec<FunctionPlan> = Vec::with_capacity(plans_built);
        // The callee table, `(entry, relocated entry)` per plan in entry
        // order: every relocated entry estimated at the patch area's base
        // until base assignment places it.
        let mut callees: Vec<(u64, u64)> = groups
            .iter()
            .map(|&(fe, _)| (fe, self.layout.patch_text))
            .collect();
        let built = par_batches(groups, nworkers, |scratch: &mut PlanScratch, batch| {
            // Solve the batch's liveness before planning it. The solutions
            // stay in the shared parse until the analysis is dropped, and
            // allocated back to back, not between the plans' allocations,
            // they are freed more cheaply then: with ~10k functions on two
            // workers (a 2-vCPU x86-64 host), scattered solutions made the
            // analysis's drop 1.5–3 ms slower.
            for (fe, _) in &batch {
                if let Some(f) = self.co.functions.get(fe) {
                    f.liveness();
                }
            }
            // At most one milestone per request.
            let mut events = Vec::with_capacity(batch.iter().map(|(_, reqs)| reqs.len()).sum());
            let plans: Vec<_> = batch
                .into_iter()
                .map(|(fe, reqs)| {
                    let reqs = &order[reqs];
                    self.build_plan(fe, reqs, profile, &callees, &mut events, scratch)
                })
                .collect();
            (events, plans)
        });
        for (batch_events, batch_plans) in built {
            events.push(batch_events);
            for plan in batch_plans {
                plans.push(plan?);
            }
        }

        // ---- base assignment (sequential) ----
        // Assign patch-area bases in entry-address order, re-relaxing
        // each plan at its final base until the whole-area assignment is
        // a fixpoint: a function that widens shifts everything after it,
        // and slot sizes are monotone, so the loop terminates. The callee
        // table starts from the pre-relaxed sizes and follows each plan's
        // base; a pass ends the loop only when no slot widened and no
        // relocated entry moved, so every call was sized against the
        // table the finish phase emits against.
        let layout_start = Instant::now();
        let mut cursor = self.layout.patch_text;
        for (plan, callee) in plans.iter().zip(&mut callees) {
            callee.1 = plan.reloc.entry_at(cursor);
            cursor += (plan.reloc.code_size() + 7) & !7;
        }
        let code_end = loop {
            let mut cursor = self.layout.patch_text;
            let mut changed = false;
            for (i, plan) in plans.iter_mut().enumerate() {
                plan.base = cursor;
                changed |= plan.reloc.relax_at(cursor, &callees);
                let entry = plan.reloc.entry_at(cursor);
                changed |= callees[i].1 != entry;
                callees[i].1 = entry;
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

        // ---- finish phase (parallel): emission, springboards, audit ----
        // The plans stay with the main thread, which frees them after the
        // merge: workers freeing them concurrently contend in the
        // allocator.
        let batches = par_batches(plans.iter().collect(), nworkers, |_: &mut (), plans| {
            let mut batch = FinishedBatch::sized_for(&plans);
            for plan in plans {
                self.finish_plan(plan, profile, &callees, &mut batch);
            }
            batch
        });

        // ---- merge (sequential, in entry order) ----
        let mut patch_code: Vec<u8> =
            Vec::with_capacity(batches.iter().map(|b| b.code.len()).sum());
        let mut index: Vec<(u64, u64)> =
            Vec::with_capacity(batches.iter().map(|b| b.index.len()).sum());
        let mut trap_table: Vec<(u64, u64)> = Vec::new();
        let mut springs: Vec<(u64, Springboard)> = Vec::new();
        let mut spill_count = 0usize;
        let mut dead_register_points = 0usize;
        let mut points_instrumented = 0usize;
        // Clobber audit state: every original instruction address a
        // springboard tears, and the redirect registered to cover it.
        // Functions register disjoint redirects — each `to` lies in its
        // own function's patch range — so concatenation keeps them
        // distinct.
        let mut audited: Vec<u64> = Vec::new();
        let mut redirects: Vec<(u64, u64)> = Vec::new();
        let mut calls_retargeted = 0usize;
        let mut events = events.into_iter().flatten();
        let mut plans_in_order = plans.iter();
        for batch in batches {
            patch_code.extend_from_slice(&batch.code);
            index.extend_from_slice(&batch.index);
            let mut calls = batch.calls.iter();
            let mut registered = batch.redirects.iter();
            for fin in batch.functions {
                let plan = plans_in_order.next().expect("one finish result per plan");
                // Replay the plan's lowering milestones in address order.
                for ev in events.by_ref().take(plan.points) {
                    observer(ev);
                }
                spill_count += plan.spills;
                dead_register_points += plan.dead_points;
                points_instrumented += plan.points;
                relocate_ns += plan.plan_ns + fin.emit_ns;
                observer(PatchEvent::PlanBuilt {
                    entry: plan.entry,
                    points: plan.points,
                });
                observer(PatchEvent::FunctionRelocated {
                    entry: plan.entry,
                    bytes: fin.emitted?,
                });
                for &(site, to) in calls.by_ref().take(fin.calls) {
                    observer(PatchEvent::CallRetargeted { site, to });
                }
                calls_retargeted += fin.calls;
                for &(from, to) in registered.by_ref().take(fin.redirects) {
                    audited.push(from);
                    observer(PatchEvent::RedirectRegistered { from, to });
                }
                if let Some(e) = fin.error {
                    return Err(e);
                }
            }
            redirects.extend(batch.redirects);
            trap_table.extend(batch.traps);
            springs.extend(batch.springs);
        }
        debug_assert_eq!(
            self.layout.patch_text + patch_code.len() as u64,
            code_end,
            "emitted code drifted from the assigned bases"
        );
        debug_assert!(index.is_sorted(), "relocated addresses must ascend");
        audited.sort_unstable();
        audited.dedup();

        // Every audited clobber's redirect goes into the trap table, so
        // any control transfer landing on a torn original instruction —
        // not just an executed trap springboard — resolves to relocated
        // code. The runtime charges nothing for entries that never fire.
        let redirects_registered = redirects.len();
        trap_table.extend(redirects);

        springs.sort_by_key(|(a, _)| *a);
        springs.dedup_by_key(|(a, _)| *a);
        trap_table.sort();
        trap_table.dedup();
        let mut springboards = SpringboardStats::default();

        let sites = self.call_sites_to_rewrite(&callees, &springs);
        calls_retargeted += sites.len();

        // Patch springboards and call sites into the text section image,
        // recording the bytes they replace for uninstrumentation.
        let mut out = self.binary.clone();
        let mut writes: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut undo: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut patch = |addr: u64, bytes: Vec<u8>| {
            let sec = out
                .sections
                .iter_mut()
                .find(|s| s.is_code() && s.contains(addr))
                .ok_or(InstrumentError::SpringboardOutsideCode { addr })?;
            let off = (addr - sec.addr) as usize;
            let len = bytes.len();
            undo.push((addr, sec.data[off..off + len].to_vec()));
            sec.data[off..off + len].copy_from_slice(&bytes);
            writes.push((addr, bytes));
            Ok::<(), InstrumentError>(())
        };
        for (addr, Springboard { kind, bytes, .. }) in springs {
            patch(addr, bytes)?;
            springboards.record(&kind);
            observer(PatchEvent::SpringboardPlanted { addr, kind });
        }
        for (site, to, bytes) in sites {
            patch(site, bytes)?;
            observer(PatchEvent::CallRetargeted { site, to });
        }

        // New sections. The patch code is written once, into its
        // section, which `memory_writes` reads.
        let mut code_section = None;
        if !patch_code.is_empty() {
            code_section = Some(out.sections.len());
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
            redirects_registered,
            plans_built,
            instrument_workers: nworkers,
            code_end,
            calls_retargeted,
            writes,
            code_section,
            undo,
            reloc_index: RelocationIndex { entries: index },
        })
    }

    /// The direct call sites in original code to rewrite, callee by
    /// callee in entry order, each as `(site, relocated entry, new
    /// bytes)`: every 4-byte `jal` to a function of `callees` (the
    /// pass's final `(entry, relocated entry)` table) whose `jal` reaches
    /// the relocated entry, that lies in no function this pass or an
    /// earlier commit relocated, and that overlaps none of `springs`.
    fn call_sites_to_rewrite(
        &self,
        callees: &[(u64, u64)],
        springs: &[(u64, Springboard)],
    ) -> Vec<(u64, u64, Vec<u8>)> {
        let built;
        let index = match self.call_sites {
            Some(index) => index,
            None => {
                built = CallSites::of(self.co);
                &built
            }
        };
        let relocated = |f: u64| {
            relocated_addr(callees, f).is_some() || self.relocated.is_some_and(|r| r.contains(&f))
        };
        let overlaps_springboard = |site: u64| {
            let before = springs.partition_point(|(a, _)| *a < site + 4);
            springs[..before]
                .iter()
                .rev()
                .take_while(|(a, _)| a + MAX_SPRINGBOARD_LEN > site)
                .any(|(a, sb)| a + sb.len() as u64 > site)
        };
        let mut out = Vec::new();
        for &(callee, to) in callees {
            for run in index.to(callee).chunk_by(|a, b| a.site == b.site) {
                let c = run[0];
                if run.iter().any(|c| relocated(c.caller))
                    || !reaches(c.site, to, JAL_REACH)
                    || overlaps_springboard(c.site)
                {
                    continue;
                }
                let jal = build::jal(c.rd, to.wrapping_sub(c.site) as i64);
                if let Ok(raw) = encode32(&jal) {
                    out.push((c.site, to, raw.to_le_bytes().to_vec()));
                }
            }
        }
        out
    }
}
