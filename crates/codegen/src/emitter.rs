//! Snippet AST → RV64 instruction lowering.
//!
//! The emitter walks the snippet tree and emits the code a compiler
//! would: an absolute address is a `lui` upper part plus a 12-bit
//! load/store displacement (base `x0` when the upper part is zero), and
//! `expr ± c` folds `c` into the displacement; a constant operand that
//! fits selects the immediate ALU form; a mutatee register is read in
//! place when nothing evaluated before its use can change it;
//! `var = var op c` loads and stores through one address; and an
//! [`Snippet::If`] on a comparison is one compare-and-branch. Values live
//! in scratch registers from the [`RegAllocator`], which never hands out a
//! register the snippet names. A [`Snippet::Let`] holds its value in one
//! such register for the whole body, which reads it in place as
//! [`Snippet::Local`]; while bound, the register is never the
//! destination of another value and is never released.
//!
//! [`Emitter::lower_into`] lowers one point's snippets and appends the
//! point's whole code — the save frame of a call snippet, the spill
//! frame, the body with its intra-snippet branches resolved, and the
//! restores — to a caller's buffer as encoded 32-bit words, ready for
//! PatchAPI to splice into a relocated function. An [`Emitter`] keeps its
//! code buffer, label table, fixups and bound locals across points, and
//! its allocator's register lists are fixed-size, so a plan worker that
//! reuses one emitter allocates nothing per point once the buffers have
//! grown. [`generate`] and [`generate_with_stats`] lower one snippet
//! through the same path and return the instructions instead of words.
//!
//! The frames move `sp` before the body runs, so a read of the mutatee's
//! `sp` is always an `addi` or a load/store displacement off `sp`, and
//! the emitter adds the frame sizes to its immediate once it knows them:
//! the body sees the `sp` the mutatee had.

use crate::imm::load_imm_with;
use crate::regalloc::{frame_size, RegAllocMode, RegAllocator, MAX_SPILLS};
use crate::snippet::{BinaryOp, Snippet, UnaryOp, Var};
use rvdyn_isa::encode::{encode32, EncodeError};
use rvdyn_isa::{build, Instruction, RegClass, RegSet};
use rvdyn_isa::{Extension, IsaProfile, Op, Reg};
use std::fmt;

/// Code generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeGenError {
    /// The snippet needs more scratch registers than exist.
    OutOfRegisters,
    /// The operation requires an extension the mutatee's profile lacks
    /// (§3.1.1: "Dyninst should not generate instrumentation code using
    /// any instructions from that specific extension").
    ExtensionUnavailable { ext: Extension, what: &'static str },
    /// Unsupported operand width.
    BadWidth(u8),
    /// An internal branch target ended up out of B-format range
    /// (snippet too large).
    BranchOutOfRange,
    /// A [`Snippet::Local`] read outside every [`Snippet::Let`] of its id.
    UnboundLocal(u32),
    /// A lowered instruction does not encode (an intra-snippet jump past
    /// a `jal`'s ±1 MiB reach).
    Encode(EncodeError),
}

impl fmt::Display for CodeGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeGenError::OutOfRegisters => {
                write!(f, "snippet requires more scratch registers than available")
            }
            CodeGenError::ExtensionUnavailable { ext, what } => write!(
                f,
                "cannot generate {what}: mutatee profile lacks the {} extension",
                ext.name()
            ),
            CodeGenError::BadWidth(w) => write!(f, "unsupported access width {w}"),
            CodeGenError::BranchOutOfRange => {
                write!(f, "internal snippet branch exceeds ±4 KiB")
            }
            CodeGenError::UnboundLocal(id) => {
                write!(f, "snippet reads local {id} outside any binding of it")
            }
            CodeGenError::Encode(e) => write!(f, "snippet code does not encode: {e}"),
        }
    }
}

impl std::error::Error for CodeGenError {}

/// An instruction buffer with intra-buffer labels, reused across points.
#[derive(Debug, Default)]
struct CodeBuffer {
    insts: Vec<Instruction>,
    /// The position in `insts` each label is bound to, by label id.
    labels: Vec<u32>,
    /// The branches and jumps to labels, in code order.
    fixups: Vec<Fixup>,
    /// Positions in `insts` of the instructions that read the mutatee's
    /// `sp`: their immediates take the frame bias at [`Self::resolve`].
    sp_reads: Vec<u32>,
}

/// A control transfer to a label, placed once every label is bound.
#[derive(Debug, Clone, Copy)]
enum Fixup {
    /// Conditional branch at `at` to `label` when `rs1 op rs2`.
    Branch {
        at: u32,
        op: Op,
        rs1: Reg,
        rs2: Reg,
        label: u32,
    },
    /// Unconditional jump at `at` to `label`.
    Jump { at: u32, label: u32 },
}

impl CodeBuffer {
    fn clear(&mut self) {
        self.insts.clear();
        self.labels.clear();
        self.fixups.clear();
        self.sp_reads.clear();
    }

    fn push(&mut self, i: Instruction) {
        self.insts.push(i);
    }

    /// Position of the next instruction.
    fn here(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Push `i`, an `addi`, load or store whose `rs1` is the mutatee's
    /// `sp`.
    fn push_sp_read(&mut self, i: Instruction) {
        self.sp_reads.push(self.here());
        self.push(i);
    }

    /// Reserve a slot for a transfer to a label; [`Self::resolve`] fills
    /// it.
    fn push_fixup(&mut self, fixup: Fixup) {
        self.fixups.push(fixup);
        self.push(build::nop());
    }

    fn branch(&mut self, op: Op, rs1: Reg, rs2: Reg, label: u32) {
        let at = self.here();
        self.push_fixup(Fixup::Branch {
            at,
            op,
            rs1,
            rs2,
            label,
        });
    }

    fn jump(&mut self, label: u32) {
        let at = self.here();
        self.push_fixup(Fixup::Jump { at, label });
    }

    fn fresh_label(&mut self) -> u32 {
        self.labels.push(u32::MAX);
        self.labels.len() as u32 - 1
    }

    /// Bind `label` to the next instruction.
    fn bind(&mut self, label: u32) {
        self.labels[label as usize] = self.here();
    }

    /// Place every branch and jump at its label (each instruction is 4
    /// bytes wide; snippet code is never compressed so offsets are
    /// trivially stable), and add `sp_bias` to every read of the
    /// mutatee's `sp`.
    fn resolve(&mut self, sp_bias: i64) -> Result<(), CodeGenError> {
        debug_assert!((0..=MAX_SP_BIAS).contains(&sp_bias));
        for &at in &self.sp_reads {
            self.insts[at as usize].imm += sp_bias;
        }
        let delta = |at: u32, label: u32| (self.labels[label as usize] as i64 - at as i64) * 4;
        for &fixup in &self.fixups {
            let (at, inst) = match fixup {
                Fixup::Branch {
                    at,
                    op,
                    rs1,
                    rs2,
                    label,
                } => {
                    let delta = delta(at, label);
                    if !(-4096..4096).contains(&delta) {
                        return Err(CodeGenError::BranchOutOfRange);
                    }
                    (at, build::b_type(op, rs1, rs2, delta))
                }
                Fixup::Jump { at, label } => (at, build::jal(Reg::X0, delta(at, label))),
            };
            self.insts[at as usize] = inst;
        }
        Ok(())
    }
}

/// The snippet emitter: lowers one point's snippets at a time
/// ([`Emitter::lower_into`]), reusing its buffers from point to point.
#[derive(Debug)]
pub struct Emitter {
    buf: CodeBuffer,
    alloc: RegAllocator,
    profile: IsaProfile,
    /// The registers of the enclosing [`Snippet::Let`]s, innermost last.
    locals: Vec<(u32, Reg)>,
}

impl Default for Emitter {
    fn default() -> Emitter {
        Emitter::new()
    }
}

/// Does `v` fit a 12-bit signed immediate (I/S-format)?
fn fits12(v: i64) -> bool {
    (-2048..2048).contains(&v)
}

/// Caller-saved registers, integer and FP: the most a call snippet's
/// save frame holds.
const CALLER_SAVED: usize = 38;

/// The most `sp` sits below the mutatee's while a snippet body runs: a
/// spill frame for every scratch candidate plus a save frame for every
/// caller-saved register.
const MAX_SP_BIAS: i64 = frame_size(MAX_SPILLS) + frame_size(CALLER_SAVED);

/// `sp ± c` (or `sp`) as `c`, when `c` can absorb the frame bias as a
/// 12-bit immediate: a read of the mutatee's `sp` that is one `addi` or a
/// load/store displacement.
fn sp_offset(s: &Snippet) -> Option<i64> {
    let (x, c) = offset_operand(s).unwrap_or((s, 0));
    let sp = matches!(x, Snippet::ReadReg(r) if *r == Reg::X2);
    (sp && (-2048..2048 - MAX_SP_BIAS).contains(&c)).then_some(c)
}

/// Split `v` into `(upper, lo)` with `upper + lo == v` (wrapping), `lo`
/// the sign-extended low 12 bits and `upper` a multiple of 4096 — the
/// `lui`/displacement pair of an absolute address.
fn split12(v: i64) -> (i64, i64) {
    let lo = (v << 52) >> 52;
    (v.wrapping_sub(lo), lo)
}

/// `a op b` with one constant operand, as `(op', x, c)` meaning
/// `x op' c`: a constant right operand as is, a constant left operand
/// swapped across a commutative operator or a mirrored comparison.
fn const_operand<'s>(
    op: BinaryOp,
    a: &'s Snippet,
    b: &'s Snippet,
) -> Option<(BinaryOp, &'s Snippet, i64)> {
    if let Snippet::Const(c) = b {
        return Some((op, a, *c));
    }
    let Snippet::Const(c) = a else {
        return None;
    };
    let swapped = match op {
        BinaryOp::Add
        | BinaryOp::Mul
        | BinaryOp::And
        | BinaryOp::Or
        | BinaryOp::Xor
        | BinaryOp::Eq
        | BinaryOp::Ne => op,
        BinaryOp::LtS => BinaryOp::GtS,
        BinaryOp::GtS => BinaryOp::LtS,
        BinaryOp::LeS => BinaryOp::GeS,
        BinaryOp::GeS => BinaryOp::LeS,
        BinaryOp::Sub | BinaryOp::Div | BinaryOp::Shl | BinaryOp::Shr => return None,
    };
    Some((swapped, b, *c))
}

/// Can evaluating `s` change a mutatee register (a `WriteReg`, or a
/// call's clobbers)? A register read in place must not be read across it.
fn disturbs_registers(s: &Snippet) -> bool {
    s.mutates_registers() || s.contains_call()
}

/// `x ± c` as `(x, c)`: an address that folds `c` into a displacement.
fn offset_operand(s: &Snippet) -> Option<(&Snippet, i64)> {
    match s {
        Snippet::Bin(BinaryOp::Sub, x, c) => match **c {
            Snippet::Const(c) => Some((x, c.wrapping_neg())),
            _ => None,
        },
        Snippet::Bin(BinaryOp::Add, a, b) => {
            const_operand(BinaryOp::Add, a, b).map(|(_, x, c)| (x, c))
        }
        _ => None,
    }
}

/// The immediate form of `x op c`: the I-format instruction and
/// immediate, and whether the 0/1 result is then inverted (`xori 1`).
/// `None` when `c` does not fit, or `op` has no immediate form.
fn imm_form(op: BinaryOp, c: i64) -> Option<(Op, i64, bool)> {
    let lt_succ = c.checked_add(1).filter(|&c1| fits12(c1));
    Some(match op {
        BinaryOp::Add if fits12(c) => (Op::Addi, c, false),
        BinaryOp::Sub if fits12(c.wrapping_neg()) && c != i64::MIN => (Op::Addi, -c, false),
        BinaryOp::And if fits12(c) => (Op::Andi, c, false),
        BinaryOp::Or if fits12(c) => (Op::Ori, c, false),
        BinaryOp::Xor if fits12(c) => (Op::Xori, c, false),
        // Register shifts use the low six bits of the amount.
        BinaryOp::Shl => (Op::Slli, c & 63, false),
        BinaryOp::Shr => (Op::Srli, c & 63, false),
        BinaryOp::LtS if fits12(c) => (Op::Slti, c, false),
        BinaryOp::GeS if fits12(c) => (Op::Slti, c, true),
        // x <= c ⇔ x < c + 1; x > c ⇔ !(x < c + 1).
        BinaryOp::LeS => (Op::Slti, lt_succ?, false),
        BinaryOp::GtS => (Op::Slti, lt_succ?, true),
        _ => return None,
    })
}

/// The branch that skips the then-arm of `if a cmp b`: taken exactly
/// when the comparison is false, as `(op, swap operands)`.
fn skip_branch(cmp: BinaryOp) -> Option<(Op, bool)> {
    Some(match cmp {
        BinaryOp::Eq => (Op::Bne, false),
        BinaryOp::Ne => (Op::Beq, false),
        BinaryOp::LtS => (Op::Bge, false),
        BinaryOp::GeS => (Op::Blt, false),
        // !(a <= b) ⇔ b < a;  !(a > b) ⇔ b >= a.
        BinaryOp::LeS => (Op::Blt, true),
        BinaryOp::GtS => (Op::Bge, true),
        _ => return None,
    })
}

impl Emitter {
    /// An emitter with empty buffers.
    pub fn new() -> Emitter {
        Emitter {
            buf: CodeBuffer::default(),
            alloc: RegAllocator::new(RegSet::EMPTY, RegAllocMode::DeadRegisters),
            profile: IsaProfile::rv64gc(),
            locals: Vec::new(),
        }
    }

    /// Lower the statement sequence `snippets`, read in place (the same
    /// code as lowering a [`Snippet::Seq`] of them), at a point where
    /// `dead` registers are free, and append the point's whole code to
    /// `out` as encoded 32-bit words: the save frame of a snippet that
    /// calls, the spill frame, the body and their restores. Nothing is
    /// appended when lowering fails.
    pub fn lower_into<'s>(
        &mut self,
        snippets: impl Iterator<Item = &'s Snippet> + Clone,
        dead: RegSet,
        mode: RegAllocMode,
        profile: IsaProfile,
        out: &mut Vec<u32>,
    ) -> Result<LowerStats, CodeGenError> {
        let (stats, call_saves) = self.lower(snippets, dead, mode, profile)?;
        let start = out.len();
        let encoded = self.each_inst(call_saves, &mut |i| {
            out.push(encode32(&i).map_err(CodeGenError::Encode)?);
            Ok(())
        });
        if let Err(e) = encoded {
            out.truncate(start);
            return Err(e);
        }
        Ok(stats)
    }

    /// Lower `snippets` into the code buffer, with intra-snippet branches
    /// resolved and reads of the mutatee's `sp` biased by the frames, and
    /// return the allocator's statistics and the registers a snippet
    /// that calls must save around its body.
    fn lower<'s>(
        &mut self,
        snippets: impl Iterator<Item = &'s Snippet> + Clone,
        dead: RegSet,
        mode: RegAllocMode,
        profile: IsaProfile,
    ) -> Result<(LowerStats, RegSet), CodeGenError> {
        // A snippet containing a Call lets the callee clobber the entire
        // caller-saved set, so every *live* caller-saved register (integer
        // and FP, including ra) is preserved in an outer stack frame — the
        // same conservative treatment Dyninst applies to call snippets,
        // pruned here by liveness.
        let mut call_saves = RegSet::EMPTY;
        if snippets.clone().any(|s| s.contains_call()) {
            for r in (0..64u8).map(Reg::from_index) {
                if r.is_caller_saved() && !dead.contains(r) {
                    call_saves.insert(r);
                }
            }
        }
        self.buf.clear();
        self.locals.clear();
        self.profile = profile;
        self.alloc = RegAllocator::new(dead, mode);
        self.alloc.reserve(
            snippets
                .clone()
                .fold(RegSet::EMPTY, |set, s| set.union(s.named_registers())),
        );
        for s in snippets {
            self.emit(s)?;
        }
        // The save frame and the spill prologue both move `sp` before the
        // body runs.
        let sp_bias = frame_size(call_saves.len() as usize) + self.alloc.frame_bytes();
        self.buf.resolve(sp_bias)?;
        let stats = LowerStats {
            spills: self.alloc.spill_count(),
            dead_scratch: self.alloc.dead_grants(),
        };
        Ok((stats, call_saves))
    }

    /// Hand every instruction of the lowered point to `put`, in order:
    /// the save frame for `call_saves`, the spill prologue, the body, the
    /// spill epilogue and the restore of `call_saves`.
    fn each_inst(
        &self,
        call_saves: RegSet,
        put: &mut impl FnMut(Instruction) -> Result<(), CodeGenError>,
    ) -> Result<(), CodeGenError> {
        let spilled = self.alloc.spilled().iter().copied();
        save_frame(call_saves.iter(), put)?;
        save_frame(spilled.clone(), put)?;
        for &i in &self.buf.insts {
            put(i)?;
        }
        restore_frame(spilled, put)?;
        restore_frame(call_saves.iter(), put)
    }

    /// Lower a snippet (as a statement).
    fn emit(&mut self, s: &Snippet) -> Result<(), CodeGenError> {
        match s {
            Snippet::Nop => Ok(()),
            Snippet::Seq(v) => {
                for s in v {
                    self.emit(s)?;
                }
                Ok(())
            }
            Snippet::WriteReg(rd, val) => {
                let r = self.operand(val)?;
                self.buf.push(build::mv(*rd, r));
                self.release(r);
                Ok(())
            }
            Snippet::WriteVar(var, val) => {
                // `var = var op c` loads and stores through one address.
                if let Snippet::Bin(op, a, b) = &**val {
                    if let Some((op, Snippet::ReadVar(src), c)) = const_operand(*op, a, b) {
                        if src == var {
                            return self.update_var(*var, op, c);
                        }
                    }
                }
                let v = self.operand(val)?;
                let (base, off) = self.absolute(var.addr)?;
                self.store(v, base, off, var.size)?;
                self.release(base);
                self.release(v);
                Ok(())
            }
            Snippet::WriteMem { addr, val, size } => {
                let (base, off) = self.address(addr, !disturbs_registers(val))?;
                let v = self.operand(val)?;
                self.store(v, base, off, *size)?;
                self.release(v);
                self.release(base);
                Ok(())
            }
            // The canonical counter: lui a, %hi(var); ld u, %lo(var)(a);
            // addi u, u, 1; sd u, %lo(var)(a).
            Snippet::IncrementVar(var) => self.update_var(*var, BinaryOp::Add, 1),
            Snippet::If { cond, then_, else_ } => {
                let l_else = self.buf.fresh_label();
                let l_end = self.buf.fresh_label();
                self.branch_unless(cond, l_else)?;
                self.emit(then_)?;
                if else_.is_some() {
                    self.buf.jump(l_end);
                }
                self.buf.bind(l_else);
                if let Some(e) = else_ {
                    self.emit(e)?;
                    self.buf.bind(l_end);
                }
                Ok(())
            }
            Snippet::Call { target, args } => {
                let r = self.emit_call(*target, args)?;
                self.release(r);
                Ok(())
            }
            Snippet::Let { id, value, body } => {
                self.bind(*id, value)?;
                self.emit(body)?;
                self.unbind();
                Ok(())
            }
            // Expression used as a statement: evaluate for effect.
            other => {
                let r = self.expr(other)?;
                self.release(r);
                Ok(())
            }
        }
    }

    /// Lower an expression into a scratch register the caller owns (may
    /// overwrite) and must release.
    fn expr(&mut self, s: &Snippet) -> Result<Reg, CodeGenError> {
        if let Some(c) = sp_offset(s) {
            let r = self.acquire()?;
            self.buf.push_sp_read(build::addi(r, Reg::X2, c));
            return Ok(r);
        }
        match s {
            Snippet::Const(v) => {
                let r = self.acquire()?;
                self.load_imm(r, *v);
                Ok(r)
            }
            Snippet::ReadReg(src) => {
                let r = self.acquire()?;
                self.buf.push(build::mv(r, *src));
                Ok(r)
            }
            Snippet::ReadVar(var) => {
                let (base, off) = self.absolute(var.addr)?;
                let r = self.owned(base)?;
                self.load(r, base, off, var.size, false)?;
                Ok(r)
            }
            Snippet::ReadMem { addr, size } => {
                let (base, off) = self.address(addr, true)?;
                let r = self.owned(base)?;
                self.load(r, base, off, *size, true)?;
                Ok(r)
            }
            Snippet::Un(op, a) => {
                let ra = self.operand(a)?;
                let r = self.owned(ra)?;
                match op {
                    UnaryOp::Neg => self.buf.push(build::sub(r, Reg::X0, ra)),
                    UnaryOp::Not => self.buf.push(build::i_type(Op::Xori, r, ra, -1)),
                }
                Ok(r)
            }
            Snippet::Bin(op, a, b) => {
                if let Some((op, x, c)) = const_operand(*op, a, b) {
                    let rx = self.operand(x)?;
                    let r = self.owned(rx)?;
                    self.apply_const(op, r, rx, c)?;
                    return Ok(r);
                }
                let (ra, rb) = self.operands(a, b)?;
                let r = if self.reusable(ra) {
                    ra
                } else {
                    self.owned(rb)?
                };
                self.bin_op(*op, r, ra, rb)?;
                for x in [ra, rb] {
                    if x != r {
                        self.release(x);
                    }
                }
                Ok(r)
            }
            Snippet::Call { target, args } => {
                // The call's value is the callee's a0.
                self.emit_call(*target, args)
            }
            Snippet::Local(id) => {
                let src = self.local(*id)?;
                let r = self.acquire()?;
                self.buf.push(build::mv(r, src));
                Ok(r)
            }
            Snippet::Let { id, value, body } => {
                self.bind(*id, value)?;
                let r = self.expr(body)?;
                self.unbind();
                Ok(r)
            }
            Snippet::If { .. }
            | Snippet::Seq(_)
            | Snippet::WriteReg(..)
            | Snippet::WriteVar(..)
            | Snippet::WriteMem { .. }
            | Snippet::IncrementVar(_)
            | Snippet::Nop => {
                // Statement in expression position: evaluate, yield 0.
                self.emit(s)?;
                let r = self.acquire()?;
                self.buf.push(build::mv(r, Reg::X0));
                Ok(r)
            }
        }
    }

    /// Lower an expression whose value is only read, once, right away:
    /// a mutatee register other than `sp` and a bound local are read in
    /// place and constant 0 is `x0`, with no instruction. The result is
    /// released like [`Self::expr`]'s (releasing a register the allocator
    /// did not hand out, or a bound one, is a no-op), but must not be
    /// written.
    fn operand(&mut self, s: &Snippet) -> Result<Reg, CodeGenError> {
        match s {
            Snippet::ReadReg(r) if *r != Reg::X2 => Ok(*r),
            Snippet::Const(0) => Ok(Reg::X0),
            Snippet::Local(id) => self.local(*id),
            _ => self.expr(s),
        }
    }

    /// Evaluate `value` into a register bound to `id` until the matching
    /// [`Self::unbind`].
    fn bind(&mut self, id: u32, value: &Snippet) -> Result<(), CodeGenError> {
        let r = self.expr(value)?;
        self.locals.push((id, r));
        Ok(())
    }

    /// End the innermost binding and free its register.
    fn unbind(&mut self) {
        if let Some((_, r)) = self.locals.pop() {
            self.release(r);
        }
    }

    /// The register bound to `id` by the innermost enclosing binding.
    fn local(&self, id: u32) -> Result<Reg, CodeGenError> {
        self.locals
            .iter()
            .rev()
            .find(|&&(i, _)| i == id)
            .map(|&(_, r)| r)
            .ok_or(CodeGenError::UnboundLocal(id))
    }

    /// Is `r` a scratch register this snippet holds and may overwrite:
    /// handed out, and bound to no local?
    fn reusable(&self, r: Reg) -> bool {
        self.alloc.holds(r) && self.locals.iter().all(|&(_, b)| b != r)
    }

    /// Give `r` back to the allocator, unless a local is bound to it.
    fn release(&mut self, r: Reg) {
        if self.locals.iter().all(|&(_, b)| b != r) {
            self.alloc.release(r);
        }
    }

    /// Both operands of a binary operation, deeper side first
    /// (Sethi–Ullman order). The side evaluated first is read in place
    /// only when evaluating the other cannot change a register.
    fn operands(&mut self, a: &Snippet, b: &Snippet) -> Result<(Reg, Reg), CodeGenError> {
        let first = |em: &mut Self, s: &Snippet, other: &Snippet| {
            if disturbs_registers(other) {
                em.expr(s)
            } else {
                em.operand(s)
            }
        };
        if a.scratch_needs() >= b.scratch_needs() {
            let ra = first(self, a, b)?;
            Ok((ra, self.operand(b)?))
        } else {
            let rb = first(self, b, a)?;
            Ok((self.operand(a)?, rb))
        }
    }

    /// `r` itself when it is a scratch register this snippet may
    /// overwrite ([`Self::reusable`]), else a fresh one: the destination
    /// for a value computed from `r`.
    fn owned(&mut self, r: Reg) -> Result<Reg, CodeGenError> {
        if self.reusable(r) {
            Ok(r)
        } else {
            self.acquire()
        }
    }

    /// `rd = rs op c`, in immediate form when `c` fits one.
    fn apply_const(&mut self, op: BinaryOp, rd: Reg, rs: Reg, c: i64) -> Result<(), CodeGenError> {
        match (op, imm_form(op, c)) {
            (BinaryOp::Eq | BinaryOp::Ne, _) if fits12(c) => {
                let mut x = rs;
                if c != 0 {
                    self.buf.push(build::i_type(Op::Xori, rd, rs, c));
                    x = rd;
                }
                self.buf.push(if op == BinaryOp::Eq {
                    build::i_type(Op::Sltiu, rd, x, 1)
                } else {
                    build::r_type(Op::Sltu, rd, Reg::X0, x)
                });
            }
            (_, Some((iop, imm, invert))) => {
                self.buf.push(build::i_type(iop, rd, rs, imm));
                if invert {
                    self.buf.push(build::i_type(Op::Xori, rd, rd, 1));
                }
            }
            (_, None) if c == 0 => self.bin_op(op, rd, rs, Reg::X0)?,
            (_, None) => {
                let k = self.acquire()?;
                self.load_imm(k, c);
                self.bin_op(op, rd, rs, k)?;
                self.release(k);
            }
        }
        Ok(())
    }

    /// `var = var op c` through one address.
    fn update_var(&mut self, var: Var, op: BinaryOp, c: i64) -> Result<(), CodeGenError> {
        let (base, off) = self.absolute(var.addr)?;
        let u = self.acquire()?;
        self.load(u, base, off, var.size, false)?;
        self.apply_const(op, u, u, c)?;
        self.store(u, base, off, var.size)?;
        self.release(u);
        self.release(base);
        Ok(())
    }

    /// An absolute address as `(base, displacement)`: `lui` of the upper
    /// part (or a longer sequence above 2^31), or `x0` when it is zero.
    fn absolute(&mut self, addr: u64) -> Result<(Reg, i64), CodeGenError> {
        let (upper, lo) = split12(addr as i64);
        if upper == 0 {
            return Ok((Reg::X0, lo));
        }
        let a = self.acquire()?;
        self.load_imm(a, upper);
        Ok((a, lo))
    }

    /// A computed address as `(base, displacement)`, folding a constant
    /// `± c` into the displacement. The base may be read in place when
    /// `in_place` (nothing evaluated before its use can change it); the
    /// mutatee's `sp` always is, as nothing a snippet runs changes it.
    fn address(&mut self, addr: &Snippet, in_place: bool) -> Result<(Reg, i64), CodeGenError> {
        if let Snippet::Const(c) = addr {
            return self.absolute(*c as u64);
        }
        if let Some(c) = sp_offset(addr) {
            return Ok((Reg::X2, c));
        }
        let (x, c) = offset_operand(addr).unwrap_or((addr, 0));
        let r = if in_place {
            self.operand(x)?
        } else {
            self.expr(x)?
        };
        let (upper, lo) = split12(c);
        if upper == 0 {
            return Ok((r, lo));
        }
        let a = self.acquire()?;
        self.load_imm(a, upper);
        self.buf.push(build::add(a, a, r));
        self.release(r);
        Ok((a, lo))
    }

    /// Branch to `label` when `cond` is false: one compare-and-branch on
    /// the two operands of a comparison, else `beq cond, x0`.
    fn branch_unless(&mut self, cond: &Snippet, label: u32) -> Result<(), CodeGenError> {
        let compare = match cond {
            Snippet::Bin(cmp, a, b) => skip_branch(*cmp).map(|skip| (skip, a, b)),
            _ => None,
        };
        let (op, rs1, rs2) = match compare {
            Some(((op, swap), a, b)) => {
                let (ra, rb) = self.operands(a, b)?;
                if swap {
                    (op, rb, ra)
                } else {
                    (op, ra, rb)
                }
            }
            None => (Op::Beq, self.operand(cond)?, Reg::X0),
        };
        self.buf.branch(op, rs1, rs2, label);
        self.release(rs1);
        self.release(rs2);
        Ok(())
    }

    fn bin_op(&mut self, op: BinaryOp, rd: Reg, a: Reg, b: Reg) -> Result<(), CodeGenError> {
        let push = |buf: &mut CodeBuffer, o: Op| buf.push(build::r_type(o, rd, a, b));
        match op {
            BinaryOp::Add => push(&mut self.buf, Op::Add),
            BinaryOp::Sub => push(&mut self.buf, Op::Sub),
            BinaryOp::And => push(&mut self.buf, Op::And),
            BinaryOp::Or => push(&mut self.buf, Op::Or),
            BinaryOp::Xor => push(&mut self.buf, Op::Xor),
            BinaryOp::Shl => push(&mut self.buf, Op::Sll),
            BinaryOp::Shr => push(&mut self.buf, Op::Srl),
            BinaryOp::Mul | BinaryOp::Div => {
                if !self.profile.has(Extension::M) {
                    return Err(CodeGenError::ExtensionUnavailable {
                        ext: Extension::M,
                        what: "multiply/divide snippet",
                    });
                }
                push(
                    &mut self.buf,
                    if op == BinaryOp::Mul {
                        Op::Mul
                    } else {
                        Op::Div
                    },
                );
            }
            BinaryOp::LtS => push(&mut self.buf, Op::Slt),
            BinaryOp::GeS => {
                push(&mut self.buf, Op::Slt);
                self.buf.push(build::i_type(Op::Xori, rd, rd, 1));
            }
            BinaryOp::GtS => {
                self.buf.push(build::r_type(Op::Slt, rd, b, a));
            }
            BinaryOp::LeS => {
                self.buf.push(build::r_type(Op::Slt, rd, b, a));
                self.buf.push(build::i_type(Op::Xori, rd, rd, 1));
            }
            BinaryOp::Eq => {
                push(&mut self.buf, Op::Sub);
                self.buf.push(build::i_type(Op::Sltiu, rd, rd, 1));
            }
            BinaryOp::Ne => {
                push(&mut self.buf, Op::Sub);
                self.buf.push(build::r_type(Op::Sltu, rd, Reg::X0, rd));
            }
        }
        Ok(())
    }

    fn load(
        &mut self,
        rd: Reg,
        base: Reg,
        off: i64,
        size: u8,
        signed: bool,
    ) -> Result<(), CodeGenError> {
        let op = match (size, signed) {
            (1, false) => Op::Lbu,
            (1, true) => Op::Lb,
            (2, false) => Op::Lhu,
            (2, true) => Op::Lh,
            (4, false) => Op::Lwu,
            (4, true) => Op::Lw,
            (8, _) => Op::Ld,
            (w, _) => return Err(CodeGenError::BadWidth(w)),
        };
        self.push_based(build::i_type(op, rd, base, off), base);
        Ok(())
    }

    fn store(&mut self, val: Reg, base: Reg, off: i64, size: u8) -> Result<(), CodeGenError> {
        let op = match size {
            1 => Op::Sb,
            2 => Op::Sh,
            4 => Op::Sw,
            8 => Op::Sd,
            w => return Err(CodeGenError::BadWidth(w)),
        };
        self.push_based(build::s_type(op, base, val, off), base);
        Ok(())
    }

    /// Push a load or store off `base`; a base of `sp` is the mutatee's
    /// ([`Self::address`]).
    fn push_based(&mut self, i: Instruction, base: Reg) {
        if base == Reg::X2 {
            self.buf.push_sp_read(i);
        } else {
            self.buf.push(i);
        }
    }

    /// Emit a function call and return the scratch register holding the
    /// callee's `a0`.
    ///
    /// The callee may clobber the whole caller-saved set — which is also
    /// where snippet temporaries live — so every in-use scratch register
    /// is preserved in a private stack frame across the call, and the
    /// arguments are routed *through that frame* into `a0..` (a direct
    /// `mv` chain could clobber a temp that happens to be an argument
    /// register). `ra` doubles as the call-address register: it is
    /// clobbered by `jalr` anyway and the whole-snippet wrapper already
    /// preserves it when live.
    fn emit_call(&mut self, target: u64, args: &[Snippet]) -> Result<Reg, CodeGenError> {
        if args.len() > 8 {
            return Err(CodeGenError::OutOfRegisters);
        }
        // Evaluate arguments into scratch registers.
        let mut tmps = [Reg::X0; 8];
        for (t, a) in tmps.iter_mut().zip(args) {
            *t = self.expr(a)?;
        }
        let tmps = &tmps[..args.len()];
        // Everything currently handed out that is NOT an argument temp
        // must survive the call.
        let mut preserve = [Reg::X0; MAX_SPILLS];
        let mut kept = 0;
        for &r in self.alloc.in_use() {
            if !tmps.contains(&r) {
                preserve[kept] = r;
                kept += 1;
            }
        }
        let preserve = &preserve[..kept];
        let frame = frame_size(preserve.len() + tmps.len());
        if frame > 0 {
            self.buf.push(build::addi(Reg::X2, Reg::X2, -frame));
            for (i, &r) in preserve.iter().chain(tmps).enumerate() {
                self.buf.push(build::sd(r, Reg::X2, (i * 8) as i64));
            }
        }
        // Arguments: load from the frame into a0..an.
        for i in 0..tmps.len() {
            let slot = (preserve.len() + i) * 8;
            self.buf
                .push(build::ld(Reg::x(10 + i as u8), Reg::X2, slot as i64));
        }
        for &t in tmps {
            self.release(t);
        }
        // li ra, target ; jalr ra, 0(ra)
        self.load_imm(Reg::X1, target as i64);
        self.buf.push(build::jalr(Reg::X1, Reg::X1, 0));
        // Capture the result before restoring anything it could alias.
        let result = self.acquire()?;
        self.buf.push(build::mv(result, Reg::x(10)));
        if frame > 0 {
            for (i, &r) in preserve.iter().enumerate() {
                if r == result {
                    // The allocator can never hand out a preserved (in-use)
                    // register, but keep the invariant explicit.
                    continue;
                }
                self.buf.push(build::ld(r, Reg::X2, (i * 8) as i64));
            }
            self.buf.push(build::addi(Reg::X2, Reg::X2, frame));
        }
        Ok(result)
    }

    /// Materialise `value` into `rd`.
    fn load_imm(&mut self, rd: Reg, value: i64) {
        load_imm_with(rd, value, &mut |i| self.buf.push(i));
    }

    fn acquire(&mut self) -> Result<Reg, CodeGenError> {
        self.alloc.acquire().ok_or(CodeGenError::OutOfRegisters)
    }
}

/// `addi sp, sp, -frame` for `regs`, then each of them stored at
/// `8 * i(sp)`; nothing when there are none.
fn save_frame(
    regs: impl Iterator<Item = Reg> + Clone,
    put: &mut impl FnMut(Instruction) -> Result<(), CodeGenError>,
) -> Result<(), CodeGenError> {
    let n = regs.clone().count();
    if n == 0 {
        return Ok(());
    }
    put(build::addi(Reg::X2, Reg::X2, -frame_size(n)))?;
    for (i, r) in regs.enumerate() {
        let off = (i * 8) as i64;
        put(match r.class() {
            RegClass::Gpr => build::sd(r, Reg::X2, off),
            RegClass::Fpr => build::fsd(r, Reg::X2, off),
        })?;
    }
    Ok(())
}

/// The inverse of [`save_frame`]: each of `regs` loaded back, then
/// `addi sp, sp, frame`.
fn restore_frame(
    regs: impl Iterator<Item = Reg> + Clone,
    put: &mut impl FnMut(Instruction) -> Result<(), CodeGenError>,
) -> Result<(), CodeGenError> {
    let n = regs.clone().count();
    if n == 0 {
        return Ok(());
    }
    for (i, r) in regs.enumerate() {
        let off = (i * 8) as i64;
        put(match r.class() {
            RegClass::Gpr => build::ld(r, Reg::X2, off),
            RegClass::Fpr => build::fld(r, Reg::X2, off),
        })?;
    }
    put(build::addi(Reg::X2, Reg::X2, frame_size(n)))
}

/// Per-point lowering statistics — what the register allocator did while
/// lowering one snippet sequence (telemetry's `PointLowered` payload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowerStats {
    /// Registers spilled to a stack frame (the §4.3 slow path).
    pub spills: usize,
    /// Scratch grants served from the dead-register pool for free.
    pub dead_scratch: usize,
}

/// Convenience entry point: lower `snippet` at a point with `dead`
/// registers free, returning the complete sequence including any spill
/// frame, plus the spill count (for diagnostics/ablation).
pub fn generate(
    snippet: &Snippet,
    dead: RegSet,
    mode: RegAllocMode,
    profile: IsaProfile,
) -> Result<(Vec<Instruction>, usize), CodeGenError> {
    generate_with_stats(snippet, dead, mode, profile).map(|(code, st)| (code, st.spills))
}

/// As [`generate`], additionally reporting how the scratch registers were
/// obtained (dead pool vs. spill) for per-point telemetry. The code is
/// what [`Emitter::lower_into`] encodes for the same point.
pub fn generate_with_stats(
    snippet: &Snippet,
    dead: RegSet,
    mode: RegAllocMode,
    profile: IsaProfile,
) -> Result<(Vec<Instruction>, LowerStats), CodeGenError> {
    let mut em = Emitter::new();
    let (stats, call_saves) = em.lower(std::iter::once(snippet), dead, mode, profile)?;
    let mut code = Vec::new();
    em.each_inst(call_saves, &mut |i| {
        code.push(i);
        Ok(())
    })?;
    Ok((code, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regalloc::RegAllocMode;
    use crate::snippet::Var;
    use rvdyn_isa::semantics::{eval_int, EvalOutcome, FlatMemory, IntState, MemoryBus};
    use rvdyn_isa::RegSet;

    /// Run generated code on the reference evaluator.
    fn run(insts: &[Instruction], st: &mut IntState, mem: &mut FlatMemory) {
        // Lay the instructions out at pc=0x100 so branches work.
        let mut pc = 0x100u64;
        let mut laid = Vec::new();
        for i in insts {
            let mut j = *i;
            j.address = pc;
            pc += 4;
            laid.push(j);
        }
        let mut ip = 0usize;
        let mut steps = 0;
        while ip < laid.len() {
            steps += 1;
            assert!(steps < 10_000, "runaway snippet");
            st.pc = laid[ip].address;
            match eval_int(&laid[ip], st, mem) {
                EvalOutcome::Next => ip += 1,
                EvalOutcome::Jump(t) => {
                    ip = ((t - 0x100) / 4) as usize;
                }
                o => panic!("unexpected outcome {o:?}"),
            }
        }
    }

    fn dead_all() -> RegSet {
        RegSet::ALL_GPR
    }

    #[test]
    fn increment_var_counts() {
        let var = Var {
            addr: 0x8000,
            size: 8,
        };
        let (code, spills) = generate(
            &Snippet::increment(var),
            dead_all(),
            RegAllocMode::DeadRegisters,
            IsaProfile::rv64gc(),
        )
        .unwrap();
        assert_eq!(spills, 0);
        let mut st = IntState::new(0);
        let mut mem = FlatMemory::new(0x8000, 64);
        run(&code, &mut st, &mut mem);
        run(&code, &mut st, &mut mem);
        run(&code, &mut st, &mut mem);
        assert_eq!(mem.load(0x8000, 8), 3);
    }

    fn ops(code: &[Instruction]) -> Vec<Op> {
        code.iter().map(|i| i.op).collect()
    }

    #[test]
    fn increment_var_is_four_instructions() {
        let lower = |addr| {
            let var = Var { addr, size: 8 };
            generate(
                &Snippet::increment(var),
                dead_all(),
                RegAllocMode::DeadRegisters,
                IsaProfile::rv64gc(),
            )
            .unwrap()
            .0
        };
        let code = lower(0x9_0ff8);
        assert_eq!(ops(&code), [Op::Lui, Op::Ld, Op::Addi, Op::Sd]);
        assert_eq!((code[0].imm, code[1].imm, code[3].imm), (0x9_1000, -8, -8));
        // An address that fits 12 bits needs no base register.
        let code = lower(0x7f8);
        assert_eq!(ops(&code), [Op::Ld, Op::Addi, Op::Sd]);
        assert_eq!((code[0].rs1, code[2].rs1), (Some(Reg::X0), Some(Reg::X0)));
    }

    #[test]
    fn absolute_addresses_land_on_the_right_byte() {
        // 0x7fff_ffff's upper part rounds up to 2^31, which `lui` cannot
        // reach; the others sit below 2^12 with bit 11 set, just under
        // 2^31, and above 2^32.
        for addr in [
            0x7ffu64,
            0x7fff_f7ff,
            0x7fff_ffff,
            0x1_2345_6fff,
            0xdead_beef_0800,
        ] {
            let var = Var { addr, size: 1 };
            let s = Snippet::Seq(vec![
                Snippet::increment(var),
                Snippet::WriteMem {
                    addr: Box::new(Snippet::Const(addr as i64 - 1)),
                    val: Box::new(Snippet::bin(
                        BinaryOp::Add,
                        Snippet::ReadVar(var),
                        Snippet::Const(0x40),
                    )),
                    size: 1,
                },
            ]);
            let (code, _) = generate(
                &s,
                dead_all(),
                RegAllocMode::DeadRegisters,
                IsaProfile::rv64gc(),
            )
            .unwrap();
            let mut st = IntState::new(0);
            let mut mem = FlatMemory::new(addr - 8, 16);
            run(&code, &mut st, &mut mem);
            let bytes = &mem.bytes;
            assert_eq!(bytes[8], 1, "{addr:#x}: counter byte");
            assert_eq!(bytes[7], 0x41, "{addr:#x}: byte below");
            let others = bytes.iter().enumerate().filter(|&(i, _)| i != 7 && i != 8);
            assert!(
                others.clone().all(|(_, &b)| b == 0),
                "{addr:#x}: stray store"
            );
            for i in &code {
                rvdyn_isa::encode::encode32(i).unwrap();
            }
        }
    }

    #[test]
    fn comparison_condition_is_one_branch() {
        // if (a0 < 100) var = a0: the compare feeds the branch directly and
        // a0 is read in place.
        let var = Var {
            addr: 0x8000,
            size: 8,
        };
        let s = Snippet::If {
            cond: Box::new(Snippet::bin(
                BinaryOp::LtS,
                Snippet::ReadReg(Reg::x(10)),
                Snippet::Const(100),
            )),
            then_: Box::new(Snippet::WriteVar(
                var,
                Box::new(Snippet::ReadReg(Reg::x(10))),
            )),
            else_: None,
        };
        let mut dead = dead_all();
        dead.remove(Reg::x(10));
        let (code, _) =
            generate(&s, dead, RegAllocMode::DeadRegisters, IsaProfile::rv64gc()).unwrap();
        assert_eq!(ops(&code), [Op::Addi, Op::Bge, Op::Lui, Op::Sd]);
        assert_eq!(code[1].rs1, Some(Reg::x(10)));
        assert_eq!(code[3].rs2, Some(Reg::x(10)));
    }

    #[test]
    fn arithmetic_expression_value() {
        // v = (7 + 3) * 4 - 1 → 39 stored to var
        let var = Var {
            addr: 0x8000,
            size: 8,
        };
        let e = Snippet::WriteVar(
            var,
            Box::new(Snippet::bin(
                BinaryOp::Sub,
                Snippet::bin(
                    BinaryOp::Mul,
                    Snippet::bin(BinaryOp::Add, Snippet::Const(7), Snippet::Const(3)),
                    Snippet::Const(4),
                ),
                Snippet::Const(1),
            )),
        );
        let (code, _) = generate(
            &e,
            dead_all(),
            RegAllocMode::DeadRegisters,
            IsaProfile::rv64gc(),
        )
        .unwrap();
        let mut st = IntState::new(0);
        let mut mem = FlatMemory::new(0x8000, 64);
        run(&code, &mut st, &mut mem);
        assert_eq!(mem.load(0x8000, 8), 39);
    }

    #[test]
    fn conditional_both_arms() {
        // if (reg a0 < 10) var = 1 else var = 2
        let var = Var {
            addr: 0x8000,
            size: 8,
        };
        let s = Snippet::If {
            cond: Box::new(Snippet::bin(
                BinaryOp::LtS,
                Snippet::ReadReg(Reg::x(10)),
                Snippet::Const(10),
            )),
            then_: Box::new(Snippet::WriteVar(var, Box::new(Snippet::Const(1)))),
            else_: Some(Box::new(Snippet::WriteVar(
                var,
                Box::new(Snippet::Const(2)),
            ))),
        };
        // Exclude a0 from the dead set: the snippet reads it.
        let mut dead = dead_all();
        dead.remove(Reg::x(10));
        let (code, _) =
            generate(&s, dead, RegAllocMode::DeadRegisters, IsaProfile::rv64gc()).unwrap();

        let mut st = IntState::new(0);
        st.set(Reg::x(10), 5);
        let mut mem = FlatMemory::new(0x8000, 64);
        run(&code, &mut st, &mut mem);
        assert_eq!(mem.load(0x8000, 8), 1);

        let mut st = IntState::new(0);
        st.set(Reg::x(10), 50);
        let mut mem = FlatMemory::new(0x8000, 64);
        run(&code, &mut st, &mut mem);
        assert_eq!(mem.load(0x8000, 8), 2);
    }

    #[test]
    fn force_spill_creates_frame_and_preserves_values() {
        let var = Var {
            addr: 0x8000,
            size: 8,
        };
        let (code, spills) = generate(
            &Snippet::increment(var),
            dead_all(),
            RegAllocMode::ForceSpill,
            IsaProfile::rv64gc(),
        )
        .unwrap();
        assert!(spills >= 2);
        // First instruction must build the frame; last must tear it down.
        assert_eq!(code[0].op, Op::Addi);
        assert!(code[0].imm < 0);
        // Execute and verify the scratch registers are preserved.
        let mut st = IntState::new(0);
        st.set(Reg::X2, 0x9000);
        let saved: Vec<(Reg, u64)> = (5..8).map(|n| (Reg::x(n), 0x1111 * n as u64)).collect();
        for &(r, v) in &saved {
            st.set(r, v);
        }
        let mut mem = FlatMemory::new(0x8000, 0x2000);
        run(&code, &mut st, &mut mem);
        assert_eq!(mem.load(0x8000, 8), 1);
        assert_eq!(st.get(Reg::X2), 0x9000, "sp not restored");
        for &(r, v) in &saved {
            assert_eq!(st.get(r), v, "{r:?} clobbered");
        }
    }

    #[test]
    fn sp_reads_see_the_mutatee_sp_under_both_frames() {
        // `v = sp + 8; w = sp` after a call, with no integer register
        // dead: the body runs under a save frame for the live
        // caller-saved registers and a spill frame, and must still read
        // the `sp` the point had. (FP registers are dead: the reference
        // evaluator runs integer code only.)
        let v = Var {
            addr: 0x8000,
            size: 8,
        };
        let w = Var {
            addr: 0x8008,
            size: 8,
        };
        let sp = || Snippet::ReadReg(Reg::X2);
        let snippet = Snippet::Seq(vec![
            Snippet::Call {
                target: 0x104,
                args: vec![],
            },
            Snippet::WriteVar(
                v,
                Box::new(Snippet::bin(BinaryOp::Add, sp(), Snippet::Const(8))),
            ),
            Snippet::WriteVar(w, Box::new(sp())),
        ]);
        for mode in [RegAllocMode::DeadRegisters, RegAllocMode::ForceSpill] {
            let (body, stats) =
                generate_with_stats(&snippet, RegSet::ALL_FPR, mode, IsaProfile::rv64gc()).unwrap();
            assert!(stats.spills > 0);
            // 0x100: jump over the callee; 0x104: the callee, `ret`.
            let mut code = vec![build::jal(Reg::X0, 8), build::jalr(Reg::X0, Reg::X1, 0)];
            code.extend(body);
            let mut st = IntState::new(0);
            st.set(Reg::X2, 0x9000);
            let mut mem = FlatMemory::new(0x8000, 0x2000);
            run(&code, &mut st, &mut mem);
            assert_eq!(mem.load(0x8000, 8), 0x9008, "{mode:?}");
            assert_eq!(mem.load(0x8008, 8), 0x9000, "{mode:?}");
            assert_eq!(st.get(Reg::X2), 0x9000, "sp not restored");
        }
    }

    #[test]
    fn a_binding_survives_a_call_and_a_spill() {
        // let 0 = a0 + 5 in { call; v = local 0 }, where the callee
        // overwrites every scratch candidate and a7.
        let v = Var {
            addr: 0x8000,
            size: 8,
        };
        let s = Snippet::bind(
            0,
            Snippet::bin(
                BinaryOp::Add,
                Snippet::ReadReg(Reg::x(10)),
                Snippet::Const(5),
            ),
            Snippet::Seq(vec![
                Snippet::Call {
                    target: 0x104,
                    args: vec![],
                },
                Snippet::WriteVar(v, Box::new(Snippet::Local(0))),
            ]),
        );
        let clobber: Vec<_> = [5, 6, 7, 28, 29, 30, 31, 10, 11, 12, 13, 14, 15, 16, 17]
            .into_iter()
            .map(|n| build::addi(Reg::x(n), Reg::X0, -1))
            .collect();
        for mode in [RegAllocMode::DeadRegisters, RegAllocMode::ForceSpill] {
            // Every register is dead, so only the call's own frame can
            // keep the binding (FP ones too: the evaluator runs integer
            // code only).
            let dead = RegSet::ALL_GPR.union(RegSet::ALL_FPR);
            let (body, _) = generate(&s, dead, mode, IsaProfile::rv64gc()).unwrap();
            // 0x100: jump over the callee at 0x104, which returns.
            let mut code = vec![build::jal(Reg::X0, 4 * (clobber.len() as i64 + 2))];
            code.extend(clobber.iter().copied());
            code.push(build::jalr(Reg::X0, Reg::X1, 0));
            code.extend(body);
            let mut st = IntState::new(0);
            st.set(Reg::X2, 0x9000);
            st.set(Reg::x(10), 7);
            let mut mem = FlatMemory::new(0x8000, 0x2000);
            run(&code, &mut st, &mut mem);
            assert_eq!(mem.load(0x8000, 8), 12, "{mode:?}");
            assert_eq!(st.get(Reg::X2), 0x9000, "{mode:?}: sp not restored");
        }
    }

    #[test]
    fn unbound_local_is_an_error() {
        let s = Snippet::bind(1, Snippet::Const(1), Snippet::Local(0));
        let err = generate(
            &s,
            dead_all(),
            RegAllocMode::DeadRegisters,
            IsaProfile::rv64gc(),
        );
        assert_eq!(err.unwrap_err(), CodeGenError::UnboundLocal(0));
    }

    #[test]
    fn sp_bias_bound_covers_the_largest_frames() {
        let caller_saved = (0..64u8)
            .map(Reg::from_index)
            .filter(|r| r.is_caller_saved())
            .count();
        assert_eq!(caller_saved, CALLER_SAVED);
        let mut alloc = RegAllocator::new(RegSet::EMPTY, RegAllocMode::ForceSpill);
        while alloc.acquire().is_some() {}
        assert_eq!(alloc.frame_bytes(), frame_size(MAX_SPILLS));
    }

    #[test]
    fn division_requires_m_extension() {
        let e = Snippet::bin(BinaryOp::Div, Snippet::Const(10), Snippet::Const(2));
        let profile: IsaProfile = "rv64ic".parse().unwrap();
        let err = generate(&e, dead_all(), RegAllocMode::DeadRegisters, profile).unwrap_err();
        assert!(matches!(
            err,
            CodeGenError::ExtensionUnavailable {
                ext: Extension::M,
                ..
            }
        ));
    }

    #[test]
    fn comparison_operators() {
        let var = Var {
            addr: 0x8000,
            size: 8,
        };
        for (op, a, b, expect) in [
            (BinaryOp::Eq, 4i64, 4i64, 1u64),
            (BinaryOp::Eq, 4, 5, 0),
            (BinaryOp::Ne, 4, 5, 1),
            (BinaryOp::LtS, -1, 0, 1),
            (BinaryOp::GeS, -1, 0, 0),
            (BinaryOp::GtS, 3, 2, 1),
            (BinaryOp::LeS, 2, 2, 1),
        ] {
            let s = Snippet::WriteVar(
                var,
                Box::new(Snippet::bin(op, Snippet::Const(a), Snippet::Const(b))),
            );
            let (code, _) = generate(
                &s,
                dead_all(),
                RegAllocMode::DeadRegisters,
                IsaProfile::rv64gc(),
            )
            .unwrap();
            let mut st = IntState::new(0);
            let mut mem = FlatMemory::new(0x8000, 64);
            run(&code, &mut st, &mut mem);
            assert_eq!(mem.load(0x8000, 8), expect, "{op:?}({a},{b})");
        }
    }

    #[test]
    fn all_generated_code_encodes() {
        let var = Var {
            addr: 0xDEAD_BEEF_0000,
            size: 4,
        };
        let s = Snippet::Seq(vec![
            Snippet::increment(var),
            Snippet::WriteMem {
                addr: Box::new(Snippet::Const(0x8000)),
                val: Box::new(Snippet::ReadVar(var)),
                size: 4,
            },
        ]);
        let (code, _) = generate(
            &s,
            RegSet::EMPTY,
            RegAllocMode::DeadRegisters,
            IsaProfile::rv64gc(),
        )
        .unwrap();
        for i in &code {
            rvdyn_isa::encode::encode32(i).unwrap();
        }
    }
}
