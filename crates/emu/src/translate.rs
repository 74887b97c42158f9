//! The translation-cached execution engine (DBT back end).
//!
//! A straight decode-dispatch interpreter pays a fetch, a decode-cache
//! probe and a giant opcode match for every retired instruction. Real
//! dynamic binary translators (MAMBO-V on RISC-V, DynamoRIO, Dyninst's
//! own dynamic path) amortise that cost by translating *basic blocks*
//! once and caching the result.
//!
//! This module is that engine for `rvdyn-emu`, with the full contract
//! written down in `docs/EMULATOR.md`:
//!
//! * **Tier** — translation only pays for code that runs again, so a
//!   block runs on the interpreter's own fetch/exec path until the
//!   dispatcher has entered it [`TIER_UP`] times; only then is it
//!   translated. Cold code costs what the interpreter costs.
//! * **Translate** — decode straight-line instructions from a hot block
//!   start up to the next control transfer (or a size cap) into a
//!   `DecodedBlock` of pre-lowered `Step`s; hot RV64GC opcodes get
//!   specialised step kinds, everything else falls back to the shared
//!   semantic core (`crate::exec`) so the two engines cannot drift.
//!   Unconditional direct jumps (`jal x0`) are followed at translation
//!   time, fusing a loop body and its header into one *superblock* so
//!   the hot path of a loop is a single block that re-enters itself.
//! * **Dispatch** — blocks live in a slot vector; the per-pc code map
//!   (`crate::codemap`) that also holds the decode cache and the entry
//!   counts records which slot starts at each pc, so every block exit
//!   returns to one dispatcher that finds the next block with one array
//!   index. Dead slots are recycled through a free list.
//! * **Invalidate** — any write into executable text (a debugger
//!   `write_mem`, a dynamic springboard patch, a `FaultPlan` corruption,
//!   or the mutatee's own stores) kills every overlapping block and
//!   clears its code-map slot; the next execution re-decodes from current
//!   bytes. A store that kills translated text ends the running block
//!   right after it, so no stale step runs.
//!
//! The engine is **bit-identical** to the interpreter: same architectural
//! state, same retired-instruction counts, same modelled cycles, same
//! trap pcs, same fault addresses — pinned by the differential suite in
//! `tests/engine_diff.rs`.

use crate::codemap::CodeMap;
use crate::cost::CostModel;
use crate::machine::{Machine, StopReason, STACK_SIZE, STACK_TOP};
use rvdyn_isa::{Instruction, Op};

/// Which back end [`Machine::run`] executes on.
///
/// Both engines are observationally identical (state, cycles, traps);
/// `Cached` is the fast one. The default comes from the `RVDYN_EMU`
/// environment variable so every existing test and tool can be flipped
/// onto either engine without code changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmuEngine {
    /// Decode-dispatch interpretation, one instruction at a time.
    #[default]
    Interpreter,
    /// Decoded-basic-block translation cache: cold blocks are
    /// interpreted, hot ones translated.
    Cached,
}

impl EmuEngine {
    /// Engine selected by the `RVDYN_EMU` environment variable:
    /// `cached` (case-insensitive) picks [`EmuEngine::Cached`], anything
    /// else — including unset — picks [`EmuEngine::Interpreter`].
    pub fn from_env() -> EmuEngine {
        match std::env::var("RVDYN_EMU") {
            Ok(v) if v.eq_ignore_ascii_case("cached") => EmuEngine::Cached,
            _ => EmuEngine::Interpreter,
        }
    }

    /// Stable lower-case label (telemetry / JSON / CLI).
    pub fn label(&self) -> &'static str {
        match self {
            EmuEngine::Interpreter => "interpreter",
            EmuEngine::Cached => "cached",
        }
    }
}

/// Engine lifecycle events, buffered by the translation cache and
/// drained via [`Machine::take_emu_events`] for telemetry sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmuEvent {
    /// A basic block was decoded into the translation cache.
    BlockTranslated {
        /// Entry pc of the block.
        pc: u64,
        /// Number of instructions translated into the block.
        insts: usize,
    },
    /// A cached block was invalidated by a write into its byte range.
    BlockInvalidated {
        /// Entry pc of the killed block.
        pc: u64,
    },
}

/// Cap on buffered [`EmuEvent`]s; counters stay exact past the cap.
const EVENT_CAP: usize = 65_536;

/// Dispatcher entries after which the cached engine translates a block:
/// the first `TIER_UP - 1` entries of a block start are interpreted and
/// the `TIER_UP`-th translates it. Entry counts survive invalidation (a
/// killed hot block is translated again on its next entry) and are
/// cleared when the code region changes. Not a setting: tests size
/// their warm-ups with it.
pub const TIER_UP: u32 = 16;

// Entry counts are stored in a saturating byte.
const _: () = assert!(TIER_UP >= 1 && TIER_UP <= u8::MAX as u32);

/// Blocks stop growing after this many instructions even without a
/// control transfer (keeps the fuel pre-check cheap and bounds the cost
/// of an invalidation-triggered partial re-execution).
const MAX_BLOCK_STEPS: usize = 64;

/// Cap on the byte span `[lo, hi)` a superblock may cover. Following an
/// unconditional jump stops when it would stretch the span past this,
/// keeping the invalidation overlap check and the coherence-witness
/// snapshot cheap.
const MAX_SPAN: u64 = 4096;

/// One translated basic block (or superblock): pre-lowered steps and
/// their precomputed totals. A block that followed an unconditional jump
/// covers a byte *span* `[lo, hi)` that may start before its entry pc;
/// the span is what invalidation overlap-checks against.
#[derive(Default)]
pub(crate) struct DecodedBlock {
    /// Entry pc.
    pc: u64,
    /// Lowest byte address covered by any translated instruction.
    lo: u64,
    /// One past the highest byte covered by any translated instruction.
    hi: u64,
    /// The fall-through pc if execution runs off the end of `steps`
    /// (the decode cursor where translation stopped).
    fall: u64,
    /// Pre-lowered instructions, in execution order.
    steps: Vec<Step>,
    /// Guest instructions the whole block retires when it runs to its
    /// terminator — `steps.len()` before the superinstruction peephole
    /// merged fused groups. The dispatcher's fuel check uses this, not
    /// the (smaller) step count.
    insts: u64,
    /// Retired-instruction total over `steps[..len-1]` (all but the
    /// last step). The hot exit paths — terminator arms and the
    /// fall-off-the-end path — add these block totals in O(1) instead
    /// of accumulating per step; rare early exits (faults, fallbacks,
    /// self-invalidating stores) recompute an exact prefix on demand.
    pre_icnt: u64,
    /// Modelled-cycle total over `steps[..len-1]`, using each step's
    /// effective cost ([`Step::eff_cost`]).
    pre_cyc: u64,
    /// Taken-transfer total over `steps[..len-1]` (followed jumps).
    pre_taken: u64,
    /// Conservative upper bound on the cycles one full pass of this
    /// block can charge (each step's worst-case cost, plus the trap
    /// round trip for fallback steps that may resolve a redirect). The
    /// [`Machine::stop_at_cycles`] pre-check uses it: a block is only
    /// entered when even its worst case cannot cross the limit, so the
    /// stop always lands on the interpreter's exact pc.
    cyc_ub: u64,
    /// Source bytes at translation time (the coherence witness checked
    /// when [`Machine::verify_translations`] is armed).
    bytes: Vec<u8>,
    /// Set when an invalidation killed this block; the slot is on the
    /// free list and the code map no longer points at it.
    dead: bool,
}

/// The decoded-basic-block cache: slots, free list and the engine's
/// diagnostics counters. Which slot starts at a pc is recorded in the
/// machine's [`CodeMap`].
#[derive(Default)]
pub(crate) struct TranslationCache {
    blocks: Vec<DecodedBlock>,
    free: Vec<u32>,
    /// Total blocks ever translated (diagnostics `emu.blocks_translated`).
    pub(crate) blocks_translated: u64,
    /// Total blocks killed by text writes (diagnostics
    /// `emu.invalidations`). A running block compares it across each of
    /// its stores: a change means the store killed translated text.
    pub(crate) invalidations: u64,
    /// Buffered lifecycle events (bounded by [`EVENT_CAP`]).
    pub(crate) events: Vec<EmuEvent>,
}

impl TranslationCache {
    /// Kill every live block overlapping `[addr, addr+len)` and clear its
    /// slot from `code`.
    pub(crate) fn kill_range(&mut self, code: &mut CodeMap, addr: u64, len: u64) {
        if self.blocks.len() == self.free.len() {
            return;
        }
        let hi = addr + len;
        for (i, b) in self.blocks.iter_mut().enumerate() {
            if !b.dead && b.lo < hi && b.hi > addr {
                b.dead = true;
                b.steps = Vec::new();
                b.bytes = Vec::new();
                if let Some(at) = code.index(b.pc) {
                    code.set_block(at, None);
                }
                self.free.push(i as u32);
                self.invalidations += 1;
                if self.events.len() < EVENT_CAP {
                    self.events.push(EmuEvent::BlockInvalidated { pc: b.pc });
                }
            }
        }
    }

    /// Drop every block (code region moved/resized). Not counted as
    /// invalidations — nothing was overwritten, the address space
    /// changed shape.
    pub(crate) fn flush(&mut self) {
        self.blocks.clear();
        self.free.clear();
    }
}

/// Sign-extend the low 32 bits (the RV64 `*W` result rule).
#[inline]
fn sw(v: u64) -> u64 {
    v as i32 as i64 as u64
}

/// NaN-box a 32-bit float payload into a 64-bit FPR image.
#[inline]
fn nan_box32(v: u32) -> u64 {
    0xFFFF_FFFF_0000_0000 | v as u64
}

/// Flat micro-opcode of a [`Step`]: one single-level jump-table dispatch
/// per retired instruction, operands in fixed [`Step`] fields. Load and
/// store *widths* are folded into the opcode so the paged-memory fast
/// path const-folds to a fixed-width access after inlining. Hot RV64GC
/// opcodes get direct variants; everything else is [`UopK::Fallback`],
/// which runs the decoded instruction through the shared semantic core
/// ([`Machine::exec`]) — the same code path the interpreter uses, so
/// cold-op semantics are shared by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UopK {
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Addiw,
    Slliw,
    Srliw,
    Sraiw,
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Addw,
    Subw,
    Sllw,
    Srlw,
    Sraw,
    Mul,
    Mulw,
    /// Fused superinstructions, built by the translation-time peephole
    /// ([`fuse_steps`]): one dispatch retires two or three guest
    /// instructions. Only the head (a load) can fault, and it faults
    /// before any architectural state changes, so a fused group's
    /// early-exit behaviour is exactly the unfused head's. `ld rd,
    /// imm(rs1)` then `add d, x, rd` (either operand order).
    LdAdd,
    /// `ld rd, imm(rs1)` then `mul d, x, rd` (either operand order).
    LdMul,
    /// The `-O0` read-modify-write triad: `ld rd, imm(rs1)`, `addi rd,
    /// rd, imm2`, `sd rd, imm(rs1)`. The store re-uses the head's
    /// already-faulted-in address, so it can never fault.
    LdAddiSd,
    /// The `-O0` address-index triad: `ld rd, imm(rs1)`, `add d, x,
    /// rd`, `slli d, d, imm2` (d/x in `rs2`/`rs3`).
    LdAddSlli,
    /// `fld rd, imm(rs1)` then an *independent* `mul d, x, y` (d/x in
    /// `rs2`/`rs3`, y in `imm2`) — legal for any operands because the
    /// integer tail and the FP head touch disjoint state.
    FldMul,
    /// The FP accumulate triad: `fld rd, imm(rs1)`, `fmadd.d rd, rs2,
    /// rs3, rd`, `fsd rd, imm(rs1)`.
    FldFmaddFsd,
    /// Load a pre-computed constant (`lui`, and `auipc` folded at
    /// translation time since the instruction address is static).
    Li,
    Lb,
    Lh,
    Lw,
    Ld,
    Lbu,
    Lhu,
    Lwu,
    Sb,
    Sh,
    Sw,
    Sd,
    Fld,
    Flw,
    Fsd,
    Fsw,
    FaddD,
    FsubD,
    FmulD,
    FdivD,
    FmaddD,
    FmsubD,
    FnmsubD,
    FnmaddD,
    /// Conditional branches; always the last step of their block.
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    /// Direct jump-and-link; always the last step of its block.
    Jal,
    /// Indirect jump-and-link; always the last step of its block.
    Jalr,
    /// A `jal x0` followed at translation time: the next step in this
    /// block *is* the jump target, so retiring it charges the taken-jump
    /// cost and counts the transfer (superblock fusion) — all of which
    /// is folded into the block's precomputed totals, so the arm itself
    /// is empty.
    JumpThrough,
    /// Run the boxed decoded instruction through [`Machine::exec`].
    /// Architectural accumulators are brought exactly up to date first
    /// so CSR reads and syscalls observe precise state.
    Fallback,
}

/// One pre-lowered instruction: a flat [`UopK`] plus its operands and
/// static metadata — guest pc, encoded size, and the cycle costs charged
/// on retire (pre-computed from the cost model at translation time; the
/// model is configuration, set before execution).
struct Step {
    kind: UopK,
    rd: u8,
    rs1: u8,
    rs2: u8,
    rs3: u8,
    /// Encoded instruction size in bytes (2 or 4).
    size: u8,
    cost: u32,
    cost_taken: u32,
    /// Guest pc of this instruction.
    addr: u64,
    /// Immediate; also the folded constant for [`UopK::Li`] and the
    /// static target for branches and [`UopK::Jal`].
    imm: i64,
    /// Second immediate of a fused superinstruction (`addi` tail).
    imm2: i32,
    /// Guest instructions this step retires (1, or 2-3 when fused).
    /// `cost` and `size` are group totals for fused steps.
    ic: u8,
    /// The decoded instruction, present only for [`UopK::Fallback`].
    fb: Option<Box<Instruction>>,
}

impl Step {
    /// The cycles this step charges when it retires mid-block (its
    /// not-taken cost, except a followed jump charges its taken cost).
    #[inline]
    fn eff_cost(&self) -> u64 {
        if self.kind == UopK::JumpThrough {
            self.cost_taken as u64
        } else {
            self.cost as u64
        }
    }
}

/// The translation-time superinstruction peephole: merge hot adjacent
/// pairs and read-modify-write triads into one [`Step`] so the executor
/// pays one dispatch for two or three retired instructions — with no
/// runtime feasibility checks, because every condition (operand overlap,
/// same store-back slot, stable base register) is proven here, once.
/// Fused heads carry group totals in `cost`/`size` and their retire
/// count in `ic`, which is all the block accounting needs.
fn fuse_steps(steps: &mut Vec<Step>) {
    let n = steps.len();
    let mut skip = vec![false; n];
    let mut i = 0;
    while i + 1 < n {
        let l = &steps[i];
        let m = &steps[i + 1];
        let (lk, lrd, lrs1, limm) = (l.kind, l.rd, l.rs1, l.imm);
        let (mk, mrd, mrs1, mrs2, mrs3, mimm) = (m.kind, m.rd, m.rs1, m.rs2, m.rs3, m.imm);
        let (mcost, msize) = (m.cost, m.size);
        // Triads first (they subsume the pair patterns).
        if i + 2 < n {
            let s = &steps[i + 2];
            if lk == UopK::Ld
                && mk == UopK::Addi
                && mrd == lrd
                && mrs1 == lrd
                && lrd != 0
                && lrd != lrs1
                && s.kind == UopK::Sd
                && s.rs1 == lrs1
                && s.imm == limm
                && s.rs2 == lrd
            {
                let (scost, ssize) = (s.cost, s.size);
                let h = &mut steps[i];
                h.kind = UopK::LdAddiSd;
                h.imm2 = mimm as i32;
                h.ic = 3;
                h.cost += mcost + scost;
                h.size += msize + ssize;
                skip[i + 1] = true;
                skip[i + 2] = true;
                i += 3;
                continue;
            }
            if lk == UopK::Ld
                && mk == UopK::Add
                && (mrs1 == lrd || mrs2 == lrd)
                && s.kind == UopK::Slli
                && s.rd == mrd
                && s.rs1 == mrd
            {
                let (scost, ssize, simm) = (s.cost, s.size, s.imm);
                let h = &mut steps[i];
                h.kind = UopK::LdAddSlli;
                h.rs2 = mrd;
                h.rs3 = if mrs1 == lrd { mrs2 } else { mrs1 };
                h.imm2 = simm as i32;
                h.ic = 3;
                h.cost += mcost + scost;
                h.size += msize + ssize;
                skip[i + 1] = true;
                skip[i + 2] = true;
                i += 3;
                continue;
            }
            if lk == UopK::Fld
                && mk == UopK::FmaddD
                && mrd == lrd
                && mrs3 == lrd
                && s.kind == UopK::Fsd
                && s.rs1 == lrs1
                && s.imm == limm
                && s.rs2 == lrd
            {
                let (scost, ssize) = (s.cost, s.size);
                let h = &mut steps[i];
                h.kind = UopK::FldFmaddFsd;
                h.rs2 = mrs1;
                h.rs3 = mrs2;
                h.ic = 3;
                h.cost += mcost + scost;
                h.size += msize + ssize;
                skip[i + 1] = true;
                skip[i + 2] = true;
                i += 3;
                continue;
            }
        }
        // Pairs: the tail's destination goes in `rs2`, its other operand
        // in `rs3` (and `imm2`).
        let fused = if lk == UopK::Ld && mk == UopK::Add && (mrs1 == lrd || mrs2 == lrd) {
            Some((UopK::LdAdd, if mrs1 == lrd { mrs2 } else { mrs1 }, 0i32))
        } else if lk == UopK::Ld && mk == UopK::Mul && (mrs1 == lrd || mrs2 == lrd) {
            Some((UopK::LdMul, if mrs1 == lrd { mrs2 } else { mrs1 }, 0))
        } else if lk == UopK::Fld && mk == UopK::Mul {
            // d in rs2, x in rs3, y in imm2.
            Some((UopK::FldMul, mrs1, mrs2 as i32))
        } else {
            None
        };
        if let Some((kind, x, imm2)) = fused {
            let h = &mut steps[i];
            h.kind = kind;
            h.rs2 = mrd;
            h.rs3 = x;
            h.imm2 = imm2;
            h.ic = 2;
            h.cost += mcost;
            h.size += msize;
            skip[i + 1] = true;
            i += 2;
            continue;
        }
        i += 1;
    }
    let mut k = 0;
    steps.retain(|_| {
        let keep = !skip[k];
        k += 1;
        keep
    });
}

#[inline]
fn is_terminator(op: Op) -> bool {
    matches!(
        op,
        Op::Jal
            | Op::Jalr
            | Op::Beq
            | Op::Bne
            | Op::Blt
            | Op::Bge
            | Op::Bltu
            | Op::Bgeu
            | Op::Ecall
            | Op::Ebreak
    )
}

/// Lower one decoded instruction into a [`Step`].
fn compile_step(inst: &Instruction, pc: u64, cost: &CostModel) -> Step {
    use Op::*;
    let mut s = Step {
        kind: UopK::Fallback,
        rd: inst.rd.map_or(0, |r| r.num()),
        rs1: inst.rs1.map_or(0, |r| r.num()),
        rs2: inst.rs2.map_or(0, |r| r.num()),
        rs3: inst.rs3.map_or(0, |r| r.num()),
        size: inst.size,
        cost: cost.cycles_for(inst, false) as u32,
        cost_taken: cost.cycles_for(inst, true) as u32,
        addr: pc,
        imm: inst.imm,
        imm2: 0,
        ic: 1,
        fb: None,
    };
    s.kind = match inst.op {
        Lui => UopK::Li,
        Auipc => {
            // Fold the pc-relative constant at translation time.
            s.imm = inst.address.wrapping_add(inst.imm as u64) as i64;
            UopK::Li
        }
        Addi => UopK::Addi,
        Slti => UopK::Slti,
        Sltiu => UopK::Sltiu,
        Xori => UopK::Xori,
        Ori => UopK::Ori,
        Andi => UopK::Andi,
        Slli => UopK::Slli,
        Srli => UopK::Srli,
        Srai => UopK::Srai,
        Addiw => UopK::Addiw,
        Slliw => UopK::Slliw,
        Srliw => UopK::Srliw,
        Sraiw => UopK::Sraiw,
        Add => UopK::Add,
        Sub => UopK::Sub,
        Sll => UopK::Sll,
        Slt => UopK::Slt,
        Sltu => UopK::Sltu,
        Xor => UopK::Xor,
        Srl => UopK::Srl,
        Sra => UopK::Sra,
        Or => UopK::Or,
        And => UopK::And,
        Addw => UopK::Addw,
        Subw => UopK::Subw,
        Sllw => UopK::Sllw,
        Srlw => UopK::Srlw,
        Sraw => UopK::Sraw,
        Mul => UopK::Mul,
        Mulw => UopK::Mulw,
        Lb => UopK::Lb,
        Lh => UopK::Lh,
        Lw => UopK::Lw,
        Ld => UopK::Ld,
        Lbu => UopK::Lbu,
        Lhu => UopK::Lhu,
        Lwu => UopK::Lwu,
        Sb => UopK::Sb,
        Sh => UopK::Sh,
        Sw => UopK::Sw,
        Sd => UopK::Sd,
        Fld => UopK::Fld,
        Flw => UopK::Flw,
        Fsd => UopK::Fsd,
        Fsw => UopK::Fsw,
        FaddD => UopK::FaddD,
        FsubD => UopK::FsubD,
        FmulD => UopK::FmulD,
        FdivD => UopK::FdivD,
        FmaddD => UopK::FmaddD,
        FmsubD => UopK::FmsubD,
        FnmsubD => UopK::FnmsubD,
        FnmaddD => UopK::FnmaddD,
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            s.imm = inst.address.wrapping_add(inst.imm as u64) as i64;
            match inst.op {
                Beq => UopK::Beq,
                Bne => UopK::Bne,
                Blt => UopK::Blt,
                Bge => UopK::Bge,
                Bltu => UopK::Bltu,
                _ => UopK::Bgeu,
            }
        }
        Jal => {
            s.imm = inst.address.wrapping_add(inst.imm as u64) as i64;
            UopK::Jal
        }
        Jalr => UopK::Jalr,
        Fence | FenceI => {
            // A fence is architecturally a no-op here: lower it to
            // `addi x0, x0, 0` so it costs one int_alu cycle like the
            // interpreter charges.
            s.rd = 0;
            s.rs1 = 0;
            s.imm = 0;
            UopK::Addi
        }
        _ => {
            s.fb = Some(Box::new(*inst));
            UopK::Fallback
        }
    };
    s
}

impl Machine {
    /// The cached engine's dispatcher, which every block exit returns
    /// to: check the fuel and cycle edges, find the block at `self.pc` in
    /// the code map, then interpret, translate or execute it —
    /// bit-identical to repeated [`Machine::step`].
    pub(crate) fn run_cached(&mut self) -> StopReason {
        loop {
            if let Some(fuel) = self.fuel {
                if self.icount >= fuel {
                    return StopReason::FuelExhausted;
                }
            }
            if let Some(limit) = self.stop_at_cycles {
                if self.cycles >= limit {
                    return StopReason::CycleLimit { pc: self.pc };
                }
            }
            let pc = self.pc;
            // Odd and out-of-region pcs have no code-map entry — the
            // interpreter never caches their decodes either — so they
            // are single-stepped, keeping coherence behaviour identical.
            let Some(at) = self.code.index(pc) else {
                if let Some(r) = self.step() {
                    return r;
                }
                continue;
            };
            let slot = match self.code.block(at) {
                Some(s) => s,
                None if self.code.enter(at) < TIER_UP => {
                    if let Some(r) = self.interpret_block() {
                        return r;
                    }
                    continue;
                }
                None => match self.translate_block(pc) {
                    Ok(s) => s,
                    Err(r) => return r,
                },
            };
            let b = &self.tcache.blocks[slot as usize];
            let stop = if self.pass_fits(b.insts, b.cyc_ub) {
                self.exec_block(slot)
            } else {
                // Near the fuel or cycle edge: interpret one instruction
                // so the stop lands on the interpreter's exact pc.
                self.step()
            };
            if let Some(r) = stop {
                return r;
            }
        }
    }

    /// Whether a full pass of a block retiring `insts` instructions and
    /// charging at most `cyc_ub` cycles stays inside the fuel and the
    /// cycle limit, so no stop can fall inside it.
    #[inline]
    fn pass_fits(&self, insts: u64, cyc_ub: u64) -> bool {
        self.fuel
            .is_none_or(|f| f.saturating_sub(self.icount) >= insts)
            && self
                .stop_at_cycles
                .is_none_or(|limit| self.cycles.saturating_add(cyc_ub) < limit)
    }

    /// The cold tier: run the block at `self.pc` through
    /// [`Machine::step`], to the boundaries translation would stop at —
    /// after a control transfer or [`MAX_BLOCK_STEPS`] instructions.
    /// Each step leaves its decode in the code map, where the block end
    /// is read; a step whose decode is not there (it left the region,
    /// or its own store invalidated it) ends the block too.
    fn interpret_block(&mut self) -> Option<StopReason> {
        for _ in 0..MAX_BLOCK_STEPS {
            let at = self.code.index(self.pc);
            if let Some(r) = self.step() {
                return Some(r);
            }
            let decoded = at.and_then(|i| self.code.inst(i));
            if decoded.is_none_or(|i| is_terminator(i.op)) {
                return None;
            }
        }
        None
    }

    /// Decode a basic block starting at `entry` (which must be an even
    /// pc in the code region) into the cache. Errors on the *first*
    /// instruction surface exactly as the interpreter would surface
    /// them; a decode error later just ends the block early, so the
    /// error surfaces when execution actually reaches that pc.
    fn translate_block(&mut self, entry: u64) -> Result<u32, StopReason> {
        let mut steps = Vec::new();
        let mut pc = entry;
        let mut lo = entry;
        let mut hi = entry;
        while self.code.contains(pc) {
            let inst = match self.fetch(pc) {
                Ok(i) => i,
                Err(r) => {
                    if steps.is_empty() {
                        return Err(r);
                    }
                    break;
                }
            };
            let next = pc + inst.size as u64;
            lo = lo.min(pc);
            hi = hi.max(next);
            // Superblock fusion: follow an unconditional direct jump at
            // translation time, so a loop body and its header become one
            // block — as long as the target stays in-region and the byte
            // span stays small enough for cheap invalidation checks.
            if inst.op == Op::Jal && inst.rd.map_or(0, |r| r.num()) == 0 {
                let target = inst.address.wrapping_add(inst.imm as u64);
                let span_ok = hi.max(target) - lo.min(target) <= MAX_SPAN;
                if self.code.contains(target) && span_ok && steps.len() + 1 < MAX_BLOCK_STEPS {
                    let mut st = compile_step(&inst, pc, &self.cost);
                    st.kind = UopK::JumpThrough;
                    steps.push(st);
                    pc = target;
                    continue;
                }
            }
            let term = is_terminator(inst.op);
            steps.push(compile_step(&inst, pc, &self.cost));
            pc = next;
            if term || steps.len() >= MAX_BLOCK_STEPS {
                break;
            }
        }
        debug_assert!(!steps.is_empty(), "translate_block called out of region");
        let bytes = self
            .mem
            .read_bytes(lo, (hi - lo) as usize)
            .unwrap_or_default();
        let insts = steps.len();
        fuse_steps(&mut steps);
        let mut pre_icnt = 0u64;
        let mut pre_cyc = 0u64;
        let mut pre_taken = 0u64;
        for st in &steps[..steps.len() - 1] {
            pre_icnt += st.ic as u64;
            pre_cyc += st.eff_cost();
            if st.kind == UopK::JumpThrough {
                pre_taken += 1;
            }
        }
        let mut cyc_ub = 0u64;
        for st in &steps {
            let mut ub = st.cost.max(st.cost_taken) as u64;
            if st.kind == UopK::Fallback {
                ub = ub.max(self.cost.trap_redirect);
            }
            cyc_ub += ub;
        }
        let block = DecodedBlock {
            pc: entry,
            lo,
            hi,
            fall: pc,
            steps,
            insts: insts as u64,
            pre_icnt,
            pre_cyc,
            pre_taken,
            cyc_ub,
            bytes,
            dead: false,
        };
        let slot = match self.tcache.free.pop() {
            Some(s) => {
                self.tcache.blocks[s as usize] = block;
                s
            }
            None => {
                self.tcache.blocks.push(block);
                (self.tcache.blocks.len() - 1) as u32
            }
        };
        let at = self
            .code
            .index(entry)
            .expect("blocks start at even in-region pcs");
        self.code.set_block(at, Some(slot));
        self.tcache.blocks_translated += 1;
        if self.tcache.events.len() < EVENT_CAP {
            self.tcache
                .events
                .push(EmuEvent::BlockTranslated { pc: entry, insts });
        }
        Ok(slot)
    }

    /// Execute one cached block. Steps are moved out of the slot for the
    /// duration (and restored unless the block killed itself), so an
    /// invalidation fired by one of its own stores is safe. `None` means
    /// execution continues at `self.pc`.
    fn exec_block(&mut self, slot: u32) -> Option<StopReason> {
        let inv0 = self.tcache.invalidations;
        if self.verify_translations {
            let (entry, lo, len) = {
                let b = &self.tcache.blocks[slot as usize];
                (b.pc, b.lo, b.bytes.len())
            };
            let ok = match self.mem.read_bytes(lo, len) {
                Ok(cur) => cur == self.tcache.blocks[slot as usize].bytes,
                Err(_) => false,
            };
            if !ok {
                return Some(StopReason::CacheIncoherent { pc: entry });
            }
        }
        let (steps, bend, pre, entry, insts, cyc_ub) = {
            let b = &mut self.tcache.blocks[slot as usize];
            (
                std::mem::take(&mut b.steps),
                b.fall,
                (b.pre_icnt, b.pre_cyc, b.pre_taken),
                b.pc,
                b.insts,
                b.cyc_ub,
            )
        };
        // Tight-loop fast path: a block that exits to its own entry (e.g.
        // a fused loop body) re-runs here without a trip through the
        // dispatcher — no code-map lookup, no steps take/restore per
        // iteration. The re-entry conditions are the dispatcher's: no
        // store killed translated text (so this block is provably still
        // the one at its entry) and a full pass fits the fuel and cycles.
        let stop = loop {
            let stop = self.run_steps(&steps, bend, inv0, pre);
            if stop.is_some()
                || self.pc != entry
                || self.tcache.invalidations != inv0
                || !self.pass_fits(insts, cyc_ub)
            {
                break stop;
            }
        };
        let b = &mut self.tcache.blocks[slot as usize];
        if !b.dead {
            b.steps = steps;
        }
        stop
    }

    /// Credit the architectural counters for `steps[from..to]` exactly —
    /// the cold companion of the precomputed block totals, used by rare
    /// mid-block exits (faults, fallbacks, self-invalidating stores).
    #[cold]
    fn credit_range(&mut self, steps: &[Step], from: usize, to: usize) {
        for st in &steps[from..to] {
            self.icount += st.ic as u64;
            self.cycles += st.eff_cost();
            if st.kind == UopK::JumpThrough {
                self.taken_transfers += 1;
            }
        }
    }

    /// The block body executor. The hot loop does *no* per-step counter
    /// bookkeeping: each block's retired-instruction / cycle / transfer
    /// totals are precomputed at translation time and added in O(1) at
    /// the hot exits (the terminator arms and the fall-off-the-end
    /// path), while rare early exits — faults, fallback steps, a store
    /// that invalidates its own block — recompute the exact prefix on
    /// demand via [`Machine::credit_range`]. Architectural state is
    /// therefore exactly up to date before anything that can observe it
    /// (Fallback steps — CSR reads, syscalls — and every exit), which is
    /// what makes the cached engine bit-identical to the interpreter.
    fn run_steps(
        &mut self,
        steps: &[Step],
        bend: u64,
        inv0: u64,
        pre: (u64, u64, u64),
    ) -> Option<StopReason> {
        // First step index whose retirement has not been credited yet.
        // 0 means the precomputed block totals apply; a mid-block
        // fallback bumps it past everything it settled itself.
        let mut acct_from = 0usize;
        for (idx, st) in steps.iter().enumerate() {
            let rs1v = self.gpr[(st.rs1 & 31) as usize];
            // Demand-grow the stack exactly like the interpreter's fault
            // retry: map the page and redo the access.
            macro_rules! mem_retry {
                ($op:expr) => {{
                    loop {
                        match $op {
                            Ok(v) => break v,
                            Err(f) => {
                                if f.addr >= STACK_TOP - STACK_SIZE && f.addr < STACK_TOP {
                                    self.mem.map(f.addr & !0xFFF, 0x1000);
                                    continue;
                                }
                                self.credit_range(steps, acct_from, idx);
                                self.pc = st.addr;
                                return Some(StopReason::MemFault {
                                    pc: st.addr,
                                    addr: f.addr,
                                    write: f.write,
                                });
                            }
                        }
                    }
                }};
            }
            // Settle everything before this (terminal) step: the block
            // totals in O(1) on the hot path, an exact cold prefix sum
            // after a mid-block fallback.
            macro_rules! settle_pre {
                () => {{
                    debug_assert_eq!(idx + 1, steps.len(), "terminator must end the block");
                    if acct_from == 0 {
                        self.icount += pre.0;
                        self.cycles += pre.1;
                        self.taken_transfers += pre.2;
                    } else {
                        self.credit_range(steps, acct_from, idx);
                    }
                }};
            }
            macro_rules! wr {
                ($v:expr) => {{
                    let v = $v;
                    if st.rd != 0 {
                        self.gpr[(st.rd & 31) as usize] = v;
                    }
                }};
            }
            // `rd = f(rs1, rs2)`, for a register-register step.
            macro_rules! rr {
                (|$b:ident| $v:expr) => {{
                    let $b = self.gpr[(st.rs2 & 31) as usize];
                    wr!($v)
                }};
            }
            // A `size`-byte load from `rs1 + imm`.
            macro_rules! load {
                ($size:expr) => {
                    mem_retry!(self.mem.load(rs1v.wrapping_add(st.imm as u64), $size))
                };
            }
            macro_rules! store_arm {
                ($sz:expr) => {{
                    let addr = rs1v.wrapping_add(st.imm as u64);
                    let val = self.gpr[(st.rs2 & 31) as usize];
                    mem_retry!(self.mem.store(addr, $sz, val));
                    self.invalidate(addr, $sz as u64);
                    if self.tcache.invalidations != inv0 {
                        // The store killed translated text (possibly this
                        // very block): credit everything retired so far —
                        // the store included — and re-dispatch at the
                        // next instruction so stale steps never run.
                        self.credit_range(steps, acct_from, idx + 1);
                        self.pc = st.addr.wrapping_add(st.size as u64);
                        return None;
                    }
                }};
            }
            let imm = st.imm;
            match st.kind {
                UopK::Addi => wr!(rs1v.wrapping_add(imm as u64)),
                UopK::Slti => wr!(((rs1v as i64) < imm) as u64),
                UopK::Sltiu => wr!((rs1v < imm as u64) as u64),
                UopK::Xori => wr!(rs1v ^ imm as u64),
                UopK::Ori => wr!(rs1v | imm as u64),
                UopK::Andi => wr!(rs1v & imm as u64),
                UopK::Slli => wr!(rs1v.wrapping_shl(imm as u32)),
                UopK::Srli => wr!(rs1v.wrapping_shr(imm as u32)),
                UopK::Srai => wr!(((rs1v as i64) >> (imm as u32)) as u64),
                UopK::Addiw => wr!(sw(rs1v.wrapping_add(imm as u64))),
                UopK::Slliw => wr!(sw((rs1v as u32).wrapping_shl(imm as u32) as u64)),
                UopK::Srliw => wr!(sw(((rs1v as u32) >> (imm as u32)) as u64)),
                UopK::Sraiw => wr!(sw((((rs1v as i32) >> (imm as u32)) as u32) as u64)),
                UopK::Add => rr!(|b| rs1v.wrapping_add(b)),
                UopK::Sub => rr!(|b| rs1v.wrapping_sub(b)),
                UopK::Sll => rr!(|b| rs1v.wrapping_shl((b & 63) as u32)),
                UopK::Slt => rr!(|b| ((rs1v as i64) < (b as i64)) as u64),
                UopK::Sltu => rr!(|b| (rs1v < b) as u64),
                UopK::Xor => rr!(|b| rs1v ^ b),
                UopK::Srl => rr!(|b| rs1v.wrapping_shr((b & 63) as u32)),
                UopK::Sra => rr!(|b| ((rs1v as i64) >> ((b & 63) as u32)) as u64),
                UopK::Or => rr!(|b| rs1v | b),
                UopK::And => rr!(|b| rs1v & b),
                UopK::Addw => rr!(|b| sw(rs1v.wrapping_add(b))),
                UopK::Subw => rr!(|b| sw(rs1v.wrapping_sub(b))),
                UopK::Sllw => rr!(|b| sw(((rs1v as u32) << (b & 31)) as u64)),
                UopK::Srlw => rr!(|b| sw(((rs1v as u32) >> (b & 31)) as u64)),
                UopK::Sraw => rr!(|b| sw((((rs1v as i32) >> (b & 31)) as u32) as u64)),
                UopK::Mul => rr!(|b| rs1v.wrapping_mul(b)),
                UopK::Mulw => rr!(|b| sw(rs1v.wrapping_mul(b))),
                UopK::Li => wr!(imm as u64),
                UopK::Lb => wr!(load!(1) as u8 as i8 as i64 as u64),
                UopK::Lh => wr!(load!(2) as u16 as i16 as i64 as u64),
                UopK::Lw => wr!(load!(4) as u32 as i32 as i64 as u64),
                UopK::Ld => wr!(load!(8)),
                UopK::Lbu => wr!(load!(1)),
                UopK::Lhu => wr!(load!(2)),
                UopK::Lwu => wr!(load!(4)),
                UopK::Sb => store_arm!(1),
                UopK::Sh => store_arm!(2),
                UopK::Sw => store_arm!(4),
                UopK::Sd => store_arm!(8),
                UopK::Fld => self.fpr[(st.rd & 31) as usize] = load!(8),
                UopK::Flw => self.fpr[(st.rd & 31) as usize] = nan_box32(load!(4) as u32),
                UopK::Fsd => {
                    let addr = rs1v.wrapping_add(imm as u64);
                    let v = self.fpr[(st.rs2 & 31) as usize];
                    // Deliberately no invalidation: the interpreter's
                    // `fsd`/`fsw` path doesn't invalidate either (a
                    // documented, bug-compatible hazard; docs/EMULATOR.md).
                    mem_retry!(self.mem.store(addr, 8, v));
                }
                UopK::Fsw => {
                    let addr = rs1v.wrapping_add(imm as u64);
                    let v = self.fpr[(st.rs2 & 31) as usize];
                    mem_retry!(self.mem.store(addr, 4, v as u32 as u64));
                }
                // Fused superinstructions: the head load faults (if at
                // all) before any state changes, so the early-exit paths
                // are exactly the unfused head's; the tail is plain
                // register arithmetic and cannot fault.
                UopK::LdAdd => {
                    wr!(load!(8));
                    let v = self.gpr[(st.rs3 & 31) as usize]
                        .wrapping_add(self.gpr[(st.rd & 31) as usize]);
                    if st.rs2 != 0 {
                        self.gpr[(st.rs2 & 31) as usize] = v;
                    }
                }
                UopK::LdMul => {
                    wr!(load!(8));
                    let v = self.gpr[(st.rs3 & 31) as usize]
                        .wrapping_mul(self.gpr[(st.rd & 31) as usize]);
                    if st.rs2 != 0 {
                        self.gpr[(st.rs2 & 31) as usize] = v;
                    }
                }
                UopK::LdAddiSd => {
                    let addr = rs1v.wrapping_add(imm as u64);
                    let raw = mem_retry!(self.mem.load(addr, 8));
                    // rd != 0 is a fusion precondition.
                    let v = raw.wrapping_add(st.imm2 as i64 as u64);
                    self.gpr[(st.rd & 31) as usize] = v;
                    // The store-back targets the address the load just
                    // faulted in, same width — it cannot fail.
                    let r = self.mem.store(addr, 8, v);
                    debug_assert!(r.is_ok(), "store-back to a just-loaded address");
                    let _ = r;
                    self.invalidate(addr, 8);
                    if self.tcache.invalidations != inv0 {
                        self.credit_range(steps, acct_from, idx + 1);
                        self.pc = st.addr.wrapping_add(st.size as u64);
                        return None;
                    }
                }
                UopK::LdAddSlli => {
                    wr!(load!(8));
                    let t = self.gpr[(st.rs3 & 31) as usize]
                        .wrapping_add(self.gpr[(st.rd & 31) as usize]);
                    let v = t.wrapping_shl(st.imm2 as u32);
                    if st.rs2 != 0 {
                        self.gpr[(st.rs2 & 31) as usize] = v;
                    }
                }
                UopK::FldMul => {
                    self.fpr[(st.rd & 31) as usize] = load!(8);
                    let v = self.gpr[(st.rs3 & 31) as usize]
                        .wrapping_mul(self.gpr[(st.imm2 & 31) as usize]);
                    if st.rs2 != 0 {
                        self.gpr[(st.rs2 & 31) as usize] = v;
                    }
                }
                UopK::FldFmaddFsd => {
                    let addr = rs1v.wrapping_add(imm as u64);
                    let raw = mem_retry!(self.mem.load(addr, 8));
                    self.fpr[(st.rd & 31) as usize] = raw;
                    let a = f64::from_bits(self.fpr[(st.rs2 & 31) as usize]);
                    let b = f64::from_bits(self.fpr[(st.rs3 & 31) as usize]);
                    let v = a.mul_add(b, f64::from_bits(raw)).to_bits();
                    self.fpr[(st.rd & 31) as usize] = v;
                    let r = self.mem.store(addr, 8, v);
                    debug_assert!(r.is_ok(), "store-back to a just-loaded address");
                    let _ = r;
                    // No invalidation, matching the interpreter's `fsd`
                    // (see the UopK::Fsd arm).
                }
                UopK::FaddD | UopK::FsubD | UopK::FmulD | UopK::FdivD => {
                    let a = f64::from_bits(self.fpr[(st.rs1 & 31) as usize]);
                    let b = f64::from_bits(self.fpr[(st.rs2 & 31) as usize]);
                    let v = match st.kind {
                        UopK::FaddD => a + b,
                        UopK::FsubD => a - b,
                        UopK::FmulD => a * b,
                        _ => a / b,
                    };
                    self.fpr[(st.rd & 31) as usize] = v.to_bits();
                }
                UopK::FmaddD | UopK::FmsubD | UopK::FnmsubD | UopK::FnmaddD => {
                    let a = f64::from_bits(self.fpr[(st.rs1 & 31) as usize]);
                    let b = f64::from_bits(self.fpr[(st.rs2 & 31) as usize]);
                    let c = f64::from_bits(self.fpr[(st.rs3 & 31) as usize]);
                    let v = match st.kind {
                        UopK::FmaddD => a.mul_add(b, c),
                        UopK::FmsubD => a.mul_add(b, -c),
                        UopK::FnmsubD => (-a).mul_add(b, c),
                        _ => (-a).mul_add(b, -c),
                    };
                    self.fpr[(st.rd & 31) as usize] = v.to_bits();
                }
                UopK::Beq | UopK::Bne | UopK::Blt | UopK::Bge | UopK::Bltu | UopK::Bgeu => {
                    let b = self.gpr[(st.rs2 & 31) as usize];
                    let take = match st.kind {
                        UopK::Beq => rs1v == b,
                        UopK::Bne => rs1v != b,
                        UopK::Blt => (rs1v as i64) < (b as i64),
                        UopK::Bge => (rs1v as i64) >= (b as i64),
                        UopK::Bltu => rs1v < b,
                        _ => rs1v >= b,
                    };
                    settle_pre!();
                    self.icount += 1;
                    if take {
                        self.taken_transfers += 1;
                        self.cycles += st.cost_taken as u64;
                        self.pc = imm as u64;
                        return None;
                    }
                    self.cycles += st.cost as u64;
                    self.pc = st.addr.wrapping_add(st.size as u64);
                    return None;
                }
                UopK::Jal => {
                    settle_pre!();
                    wr!(st.addr.wrapping_add(st.size as u64));
                    self.icount += 1;
                    self.taken_transfers += 1;
                    self.cycles += st.cost_taken as u64;
                    self.pc = imm as u64;
                    return None;
                }
                UopK::Jalr => {
                    settle_pre!();
                    // Target before link: `jalr rd, rs1` may have rd == rs1.
                    let target = rs1v.wrapping_add(imm as u64) & !1;
                    wr!(st.addr.wrapping_add(st.size as u64));
                    self.icount += 1;
                    self.taken_transfers += 1;
                    self.cycles += st.cost_taken as u64;
                    self.pc = target;
                    return None;
                }
                UopK::JumpThrough => {
                    // Accounted for in the block's precomputed totals;
                    // the next step is the jump target by construction.
                }
                UopK::Fallback => {
                    // Bring the architectural counters exactly up to
                    // date: the instruction may read a CSR or make a
                    // syscall that observes them.
                    self.credit_range(steps, acct_from, idx);
                    self.pc = st.addr;
                    let inst = st.fb.as_deref().expect("fallback step without instruction");
                    loop {
                        match self.exec(inst) {
                            Ok(crate::exec::Effect::Next) => {
                                self.pc = st.addr.wrapping_add(st.size as u64);
                                self.icount += 1;
                                self.cycles += st.cost as u64;
                                break;
                            }
                            Ok(crate::exec::Effect::Jump(t)) => {
                                self.pc = t;
                                self.taken_transfers += 1;
                                self.icount += 1;
                                self.cycles += st.cost_taken as u64;
                                return None;
                            }
                            Ok(crate::exec::Effect::Stop(r)) => {
                                if let StopReason::Break(at) = r {
                                    if self.trap_redirects.contains_key(&at)
                                        && self.resolve_redirect(at)
                                    {
                                        return None;
                                    }
                                }
                                if let StopReason::Exited(_) = r {
                                    self.icount += 1;
                                    self.cycles += st.cost as u64;
                                }
                                return Some(r);
                            }
                            Err(f) => {
                                if f.addr >= STACK_TOP - STACK_SIZE && f.addr < STACK_TOP {
                                    self.mem.map(f.addr & !0xFFF, 0x1000);
                                    continue;
                                }
                                return Some(StopReason::MemFault {
                                    pc: st.addr,
                                    addr: f.addr,
                                    write: f.write,
                                });
                            }
                        }
                    }
                    if self.tcache.invalidations != inv0 {
                        // A cold-path store killed translated text: same
                        // abort rule as the specialised store.
                        return None;
                    }
                    // This step settled its own accounting.
                    acct_from = idx + 1;
                }
            }
        }
        // Fell off the end of a size-capped block (or past an inline
        // syscall): fall through to the next pc.
        let n = steps.len();
        if acct_from < n {
            if acct_from == 0 {
                self.icount += pre.0;
                self.cycles += pre.1;
                self.taken_transfers += pre.2;
            } else {
                self.credit_range(steps, acct_from, n - 1);
            }
            let last = &steps[n - 1];
            self.icount += last.ic as u64;
            self.cycles += last.eff_cost();
            if last.kind == UopK::JumpThrough {
                self.taken_transfers += 1;
            }
        }
        self.pc = bend;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::EXIT_SYSCALL;
    use rvdyn_isa::encode::encode32;
    use rvdyn_isa::{build, Reg};

    fn machine_with(code: &[u8], base: u64, engine: EmuEngine) -> Machine {
        let mut m = Machine::new();
        m.engine = engine;
        m.mem.write_bytes(base, code);
        m.set_code_region(base, code.len() as u64);
        m.pc = base;
        m
    }

    fn asm(insts: &[Instruction]) -> Vec<u8> {
        let mut out = Vec::new();
        for i in insts {
            out.extend_from_slice(&encode32(i).unwrap().to_le_bytes());
        }
        out
    }

    /// A loop: x5 = 0; do { x5 += 1 } while (x5 != x6); exit(x5).
    fn loop_program(n: i64) -> Vec<u8> {
        asm(&[
            build::addi(Reg::x(5), Reg::X0, 0),
            build::addi(Reg::x(6), Reg::X0, n),
            build::addi(Reg::x(5), Reg::x(5), 1),
            build::b_type(Op::Bne, Reg::x(5), Reg::x(6), -4),
            build::add(Reg::x(10), Reg::X0, Reg::x(5)),
            build::addi(Reg::x(17), Reg::X0, EXIT_SYSCALL as i64),
            build::ecall(),
        ])
    }

    #[test]
    fn engines_agree_on_a_loop() {
        let code = loop_program(100);
        let mut a = machine_with(&code, 0x1000, EmuEngine::Interpreter);
        let mut b = machine_with(&code, 0x1000, EmuEngine::Cached);
        let ra = a.run();
        let rb = b.run();
        assert_eq!(ra, rb);
        assert_eq!(ra, StopReason::Exited(100));
        assert_eq!(a.icount, b.icount);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.gpr, b.gpr);
        assert_eq!(a.taken_transfers, b.taken_transfers);
        assert!(b.emu_blocks_translated() > 0);
    }

    #[test]
    fn fuel_exhaustion_is_engine_invariant() {
        let code = loop_program(2000);
        for fuel in [1u64, 2, 3, 7, 50, 999] {
            let mut a = machine_with(&code, 0x1000, EmuEngine::Interpreter);
            let mut b = machine_with(&code, 0x1000, EmuEngine::Cached);
            a.fuel = Some(fuel);
            b.fuel = Some(fuel);
            assert_eq!(a.run(), StopReason::FuelExhausted);
            assert_eq!(b.run(), StopReason::FuelExhausted);
            assert_eq!(a.icount, b.icount, "fuel={fuel}");
            assert_eq!(a.cycles, b.cycles, "fuel={fuel}");
            assert_eq!(a.pc, b.pc, "fuel={fuel}");
            assert_eq!(a.gpr, b.gpr, "fuel={fuel}");
        }
    }

    #[test]
    fn self_modifying_store_forces_redecode() {
        // The program overwrites its *own* upcoming instruction from a
        // hot, translated block: the store kills the current block
        // mid-flight and execution must resume on fresh bytes in both
        // engines. Every pass stores into the block (the original word
        // until the last pass, which stores the patch), so the block is
        // killed and translated again on each hot pass.
        //
        //   0x1000  lui   x6, 0x1000     ; x6 = code base
        //   0x1004  addi  x8, x0, N      ; passes
        //   0x1008  sltiu x11, x8, 2     ; L: x11 = 1 on the last pass
        //   0x100C  slli  x11, x11, 2
        //   0x1010  add   x11, x11, x6
        //   0x1014  lw    x7, 48(x11)    ; original word, or the patch
        //   0x1018  sw    x7, 32(x6)     ; overwrite the addi below
        //   0x101C  addi  x8, x8, -1
        //   0x1020  addi  x10, x10, 0    ; replaced mid-block!
        //   0x1024  bne   x8, x0, L
        //   0x1028  addi  x17, x0, 93
        //   0x102C  ecall                ; exit(x10)
        //   0x1030  <original word>      ; data, never executed
        //   0x1034  <patch word>
        let original = build::addi(Reg::x(10), Reg::x(10), 0);
        let patch = build::addi(Reg::x(10), Reg::x(10), 9);
        let insts = [
            build::lui(Reg::x(6), 0x1000),
            build::addi(Reg::x(8), Reg::X0, TIER_UP as i64 + 2),
            build::i_type(Op::Sltiu, Reg::x(11), Reg::x(8), 2),
            build::i_type(Op::Slli, Reg::x(11), Reg::x(11), 2),
            build::add(Reg::x(11), Reg::x(11), Reg::x(6)),
            build::i_type(Op::Lw, Reg::x(7), Reg::x(11), 48),
            build::s_type(Op::Sw, Reg::x(6), Reg::x(7), 32),
            build::addi(Reg::x(8), Reg::x(8), -1),
            original,
            build::b_type(Op::Bne, Reg::x(8), Reg::X0, -28),
            build::addi(Reg::x(17), Reg::X0, EXIT_SYSCALL as i64),
            build::ecall(),
            original,
            patch,
        ];
        let code = asm(&insts);
        let mut a = machine_with(&code, 0x1000, EmuEngine::Interpreter);
        let mut b = machine_with(&code, 0x1000, EmuEngine::Cached);
        let ra = a.run();
        let rb = b.run();
        assert_eq!(ra, StopReason::Exited(9), "interpreter must see the patch");
        assert_eq!(rb, StopReason::Exited(9), "cached engine must re-decode");
        assert_eq!(a.icount, b.icount);
        assert_eq!(a.cycles, b.cycles);
        assert!(b.emu_blocks_translated() > 0, "the loop must be hot");
        assert!(b.emu_invalidations() > 0, "the store must kill the block");
    }

    #[test]
    fn a_store_killing_another_block_leaves_the_loop_fast_path() {
        // A hot self-loop stores into a *different* translated block on
        // its last pass: the store must end the loop's pass right after
        // it, and the victim must translate again, from the new bytes.
        let patch = build::addi(Reg::x(10), Reg::x(10), 100);
        let code = asm(&[
            build::addi(Reg::x(10), Reg::x(10), 1), // 0x1000 B: the victim
            build::jalr(Reg::X0, Reg::x(1), 0),
            build::lui(Reg::x(6), 0x1000), // 0x1008 entry: x6 = 0x1000
            build::addi(Reg::x(9), Reg::X0, TIER_UP as i64 + 1),
            build::jal(Reg::x(1), -0x10), // 0x1010 P: call B until hot
            build::addi(Reg::x(9), Reg::x(9), -1),
            build::b_type(Op::Bne, Reg::x(9), Reg::X0, -8),
            build::addi(Reg::x(8), Reg::X0, 2 * TIER_UP as i64),
            build::i_type(Op::Lw, Reg::x(7), Reg::x(6), 0x50), // the patch
            build::i_type(Op::Sltiu, Reg::x(11), Reg::x(8), 2), // 0x1024 L
            build::addi(Reg::x(11), Reg::x(11), -1),
            build::i_type(Op::Andi, Reg::x(11), Reg::x(11), 0x4C),
            build::add(Reg::x(11), Reg::x(11), Reg::x(6)), // last pass ? B : D
            build::s_type(Op::Sw, Reg::x(11), Reg::x(7), 0),
            build::addi(Reg::x(8), Reg::x(8), -1), // 0x1038
            build::b_type(Op::Bne, Reg::x(8), Reg::X0, -0x18),
            build::jal(Reg::x(1), -0x40), // B once more, patched
            build::addi(Reg::x(17), Reg::X0, EXIT_SYSCALL as i64),
            build::ecall(), // exit(x10)
            build::nop(),   // 0x104C D: scratch data
            patch,          // 0x1050: data
        ]);
        let run = |engine| {
            let mut m = machine_with(&code, 0x1000, engine);
            m.pc = 0x1008;
            (stop_state(&mut m), m)
        };
        let (interp, _) = run(EmuEngine::Interpreter);
        let (cached, mut m) = run(EmuEngine::Cached);
        assert_eq!(interp.0, StopReason::Exited(TIER_UP as i64 + 101));
        assert_eq!(interp, cached, "both engines end in the same state");
        let events = m.take_emu_events();
        let loop_translations = events
            .iter()
            .filter(|e| matches!(e, EmuEvent::BlockTranslated { pc: 0x1024, .. }))
            .count();
        assert_eq!(
            loop_translations, 1,
            "the loop runs translated, never killed"
        );
        assert_eq!(m.emu_invalidations(), 1, "the last pass killed B");
        // The loop's pass ended at the store: the pc after it was
        // dispatched once, though it starts no block of its own.
        let after_store = m.code.index(0x1038).unwrap();
        assert_eq!(m.code.entries(after_store), 1);
        // B: translated, killed, and translated on its next entry — the
        // only entry counted after the kill — from the patched bytes.
        let at_b = m.code.index(0x1000).unwrap();
        assert_eq!(m.code.entries(at_b), TIER_UP + 1);
        let b_events: Vec<_> = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    EmuEvent::BlockTranslated { pc: 0x1000, .. }
                        | EmuEvent::BlockInvalidated { pc: 0x1000 }
                )
            })
            .collect();
        assert!(
            matches!(
                b_events[..],
                [
                    EmuEvent::BlockTranslated { .. },
                    EmuEvent::BlockInvalidated { .. },
                    EmuEvent::BlockTranslated { .. }
                ]
            ),
            "{b_events:?}"
        );
        let slot = m.code.block(at_b).expect("B is translated again");
        let word = encode32(&patch).unwrap().to_le_bytes();
        assert_eq!(m.tcache.blocks[slot as usize].bytes[..4], word);
    }

    /// `addi x10, x10, 1; ebreak` at 0x1000 on `engine`.
    fn counter_block(engine: EmuEngine) -> Machine {
        let code = asm(&[build::addi(Reg::x(10), Reg::x(10), 1), build::ebreak()]);
        machine_with(&code, 0x1000, engine)
    }

    /// Enter the [`counter_block`] `entries` times.
    fn enter(m: &mut Machine, entries: u32) {
        for _ in 0..entries {
            m.pc = 0x1000;
            assert_eq!(m.run(), StopReason::Break(0x1004));
        }
    }

    /// A [`counter_block`] entered `entries` times.
    fn entered(entries: u32, engine: EmuEngine) -> Machine {
        let mut m = counter_block(engine);
        enter(&mut m, entries);
        m
    }

    #[test]
    fn blocks_translate_on_their_tier_up_th_entry() {
        let mut m = entered(TIER_UP - 1, EmuEngine::Cached);
        assert_eq!(m.emu_blocks_translated(), 0, "cold entries are interpreted");
        m.pc = 0x1000;
        assert_eq!(m.run(), StopReason::Break(0x1004));
        assert_eq!(m.emu_blocks_translated(), 1);
        assert_eq!(m.gpr[10], TIER_UP as u64);
    }

    #[test]
    fn write_mem_invalidates_hot_block() {
        // Make a block hot, patch it via the debug interface, re-run:
        // the cached engine must execute the new bytes.
        let mut m = entered(TIER_UP, EmuEngine::Cached);
        assert_eq!(m.gpr[10], TIER_UP as u64);
        let before = m.emu_blocks_translated();
        assert!(before > 0);
        let patch = encode32(&build::addi(Reg::x(10), Reg::x(10), 7)).unwrap();
        m.write_mem(0x1000, &patch.to_le_bytes());
        assert!(m.emu_invalidations() > 0);
        m.pc = 0x1000;
        assert_eq!(m.run(), StopReason::Break(0x1004));
        assert_eq!(
            m.gpr[10],
            TIER_UP as u64 + 7,
            "patched instruction must execute"
        );
        assert!(m.emu_blocks_translated() > before, "block was re-decoded");
        // Entry counts survive the kill: the very next entry translated
        // the block again.
        assert_eq!(m.emu_blocks_translated(), before + 1);
    }

    #[test]
    fn verify_translations_catches_incoherent_text() {
        // Scribble on cached text *behind* the debug interface (straight
        // into memory, no invalidation) — the verifier must trip. It is
        // armed from the start, so coherent text must pass it on the
        // translating entry first.
        let mut m = counter_block(EmuEngine::Cached);
        m.verify_translations = true;
        enter(&mut m, TIER_UP);
        assert_eq!(m.emu_blocks_translated(), 1);
        let patch = encode32(&build::addi(Reg::x(10), Reg::x(10), 7)).unwrap();
        m.mem.write_bytes(0x1000, &patch.to_le_bytes()); // bypasses invalidation
        m.pc = 0x1000;
        assert_eq!(m.run(), StopReason::CacheIncoherent { pc: 0x1000 });
    }

    /// Every observable a stop must agree on across engines.
    fn stop_state(m: &mut Machine) -> (StopReason, u64, u64, u64, [u64; 32]) {
        let r = m.run();
        (r, m.pc, m.icount, m.cycles, m.gpr)
    }

    #[test]
    fn stops_at_the_first_translated_entry_match_the_interpreter() {
        let code = loop_program(100);
        let run = |engine, fuel: Option<u64>, limit: Option<u64>| {
            let mut m = machine_with(&code, 0x1000, engine);
            m.fuel = fuel;
            m.stop_at_cycles = limit;
            let state = stop_state(&mut m);
            (state, m.emu_blocks_translated())
        };
        // The retired count at which the loop body is first translated:
        // a run translates iff its fuel is past it.
        let first = (1..1000u64)
            .find(|&f| run(EmuEngine::Cached, Some(f), None).1 > 0)
            .expect("the loop tiers up")
            - 1;
        for fuel in first - 1..=first + 3 {
            let (i, _) = run(EmuEngine::Interpreter, Some(fuel), None);
            let (c, translated) = run(EmuEngine::Cached, Some(fuel), None);
            assert_eq!(i.0, StopReason::FuelExhausted);
            assert_eq!(i, c, "fuel {fuel}");
            assert_eq!(translated > 0, fuel > first, "fuel {fuel}");
        }
        let ((_, _, _, cycles, _), _) = run(EmuEngine::Interpreter, Some(first), None);
        for limit in cycles - 1..=cycles + 4 {
            let (i, _) = run(EmuEngine::Interpreter, None, Some(limit));
            let (c, translated) = run(EmuEngine::Cached, None, Some(limit));
            assert!(matches!(i.0, StopReason::CycleLimit { .. }));
            assert_eq!(i, c, "cycle limit {limit}");
            assert_eq!(translated > 0, limit > cycles, "cycle limit {limit}");
        }
    }

    #[test]
    fn odd_and_out_of_region_pcs_are_stepped_never_translated() {
        // A hot loop outside the code region.
        let code = loop_program(100);
        let states: Vec<_> = [EmuEngine::Interpreter, EmuEngine::Cached]
            .into_iter()
            .map(|engine| {
                let mut m = Machine::new();
                m.engine = engine;
                m.mem.write_bytes(0x1000, &code);
                m.set_code_region(0x8000, 64);
                m.pc = 0x1000;
                (stop_state(&mut m), m.emu_blocks_translated())
            })
            .collect();
        assert_eq!(states[0].0 .0, StopReason::Exited(100));
        assert_eq!(states[0], states[1]);
        // `jal x0, 0` at an odd pc inside the region: a one-instruction
        // loop entered far more than TIER_UP times.
        let mut code = vec![0];
        code.extend_from_slice(&encode32(&build::jal(Reg::X0, 0)).unwrap().to_le_bytes());
        let states: Vec<_> = [EmuEngine::Interpreter, EmuEngine::Cached]
            .into_iter()
            .map(|engine| {
                let mut m = machine_with(&code, 0x1000, engine);
                m.pc = 0x1001;
                m.fuel = Some(100);
                (stop_state(&mut m), m.emu_blocks_translated())
            })
            .collect();
        assert_eq!(states[0].0 .0, StopReason::FuelExhausted);
        assert_eq!(states[0].0 .1, 0x1001);
        assert_eq!(states[0], states[1]);
    }

    #[test]
    fn rewriting_one_pc_does_not_grow_the_code_map() {
        let mut m = entered(1, EmuEngine::Cached);
        let decoded = m.code.decoded();
        for k in 0..10_000i64 {
            let patch = encode32(&build::addi(Reg::x(10), Reg::x(10), k % 64)).unwrap();
            m.write_mem(0x1000, &patch.to_le_bytes());
            m.pc = 0x1000;
            assert_eq!(m.run(), StopReason::Break(0x1004));
        }
        assert_eq!(m.code.decoded(), decoded, "re-decodes reuse their entry");
        assert!(
            m.emu_invalidations() > 9_000,
            "the hot block was killed each time"
        );
        assert_eq!(m.tcache.blocks.len(), 1, "killed slots are recycled");
    }

    #[test]
    fn redirects_resolve_identically() {
        // ebreak with a trap-table redirect: both engines must follow it
        // and charge the same redirect cost.
        let code = asm(&[
            build::addi(Reg::x(5), Reg::x(5), 1),
            build::ebreak(),
            build::addi(Reg::x(10), Reg::X0, 55),
            build::addi(Reg::x(17), Reg::X0, EXIT_SYSCALL as i64),
            build::ecall(),
        ]);
        for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
            let mut m = machine_with(&code, 0x1000, engine);
            m.trap_redirects.insert(0x1004, 0x1008);
            assert_eq!(m.run(), StopReason::Exited(55), "{}", engine.label());
        }
        let mut a = machine_with(&code, 0x1000, EmuEngine::Interpreter);
        a.trap_redirects.insert(0x1004, 0x1008);
        let mut b = machine_with(&code, 0x1000, EmuEngine::Cached);
        b.trap_redirects.insert(0x1004, 0x1008);
        a.run();
        b.run();
        assert_eq!(a.icount, b.icount);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.taken_transfers, b.taken_transfers);
    }

    #[test]
    fn redirects_resolve_identically_in_hot_blocks() {
        // The redirected ebreak ends a loop body run 2 * TIER_UP times,
        // so the cached engine resolves it inside a translated block.
        let n = 2 * TIER_UP as i64;
        let code = asm(&[
            build::addi(Reg::x(6), Reg::X0, n),
            build::addi(Reg::x(5), Reg::x(5), 1),
            build::ebreak(),
            build::addi(Reg::x(6), Reg::x(6), -1),
            build::b_type(Op::Bne, Reg::x(6), Reg::X0, -12),
            build::add(Reg::x(10), Reg::X0, Reg::x(5)),
            build::addi(Reg::x(17), Reg::X0, EXIT_SYSCALL as i64),
            build::ecall(),
        ]);
        let states: Vec<_> = [EmuEngine::Interpreter, EmuEngine::Cached]
            .into_iter()
            .map(|engine| {
                let mut m = machine_with(&code, 0x1000, engine);
                m.trap_redirects.insert(0x1008, 0x100C);
                let state = stop_state(&mut m);
                let hot = m
                    .take_emu_events()
                    .iter()
                    .any(|e| matches!(e, EmuEvent::BlockTranslated { pc: 0x1004, .. }));
                (state, m.taken_transfers, hot)
            })
            .collect();
        assert_eq!(states[0].0 .0, StopReason::Exited(n));
        assert_eq!(states[0].0, states[1].0);
        assert_eq!(states[0].1, states[1].1);
        assert!(states[1].2, "the redirecting block must be translated");
    }

    #[test]
    fn from_env_parses_cached() {
        assert_eq!(EmuEngine::default(), EmuEngine::Interpreter);
        assert_eq!(EmuEngine::Interpreter.label(), "interpreter");
        assert_eq!(EmuEngine::Cached.label(), "cached");
    }
}
