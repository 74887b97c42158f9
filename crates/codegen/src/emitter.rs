//! Snippet AST → RV64 instruction lowering.
//!
//! The emitter walks the snippet tree, evaluating expressions into scratch
//! registers obtained from the [`RegAllocator`] and emitting straight-line
//! code with small internal branches for [`Snippet::If`]. The output is a
//! list of [`rvdyn_isa::Instruction`] values with intra-buffer branch offsets already
//! resolved; PatchAPI wraps it with the spill frame and splices it into a
//! trampoline.

use crate::imm::load_imm;
use crate::regalloc::RegAllocator;
use crate::snippet::{BinaryOp, Snippet, UnaryOp};
use rvdyn_isa::build;
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
        }
    }
}

impl std::error::Error for CodeGenError {}

/// An instruction buffer with intra-buffer label support.
#[derive(Debug, Default)]
pub struct CodeBuffer {
    insts: Vec<Instrs>,
    next_label: u32,
}

#[derive(Debug)]
enum Instrs {
    Inst(rvdyn_isa::Instruction),
    /// Conditional branch to `label` when `rs1 op rs2` (encoded as the Op).
    Branch {
        op: Op,
        rs1: Reg,
        rs2: Reg,
        label: u32,
    },
    /// Unconditional jump to `label`.
    Jump {
        label: u32,
    },
    /// Label definition.
    Label(u32),
}

impl CodeBuffer {
    pub fn new() -> CodeBuffer {
        CodeBuffer::default()
    }

    pub fn push(&mut self, i: rvdyn_isa::Instruction) {
        self.insts.push(Instrs::Inst(i));
    }

    pub fn extend(&mut self, is: impl IntoIterator<Item = rvdyn_isa::Instruction>) {
        for i in is {
            self.push(i);
        }
    }

    fn fresh_label(&mut self) -> u32 {
        self.next_label += 1;
        self.next_label
    }

    /// Resolve labels to byte offsets and produce final instructions
    /// (each 4 bytes wide; snippet code is never compressed so offsets are
    /// trivially stable).
    fn resolve(self) -> Result<Vec<rvdyn_isa::Instruction>, CodeGenError> {
        // First pass: byte offset of each element; labels occupy 0 bytes.
        let mut offsets = Vec::with_capacity(self.insts.len());
        let mut label_off = std::collections::HashMap::new();
        let mut pos: i64 = 0;
        for e in &self.insts {
            offsets.push(pos);
            match e {
                Instrs::Label(l) => {
                    label_off.insert(*l, pos);
                }
                _ => pos += 4,
            }
        }
        // Second pass: emit.
        let mut out = Vec::with_capacity(self.insts.len());
        for (e, &off) in self.insts.iter().zip(&offsets) {
            match e {
                Instrs::Inst(i) => out.push(*i),
                Instrs::Branch {
                    op,
                    rs1,
                    rs2,
                    label,
                } => {
                    let delta = label_off[label] - off;
                    if !(-4096..4096).contains(&delta) {
                        return Err(CodeGenError::BranchOutOfRange);
                    }
                    out.push(build::b_type(*op, *rs1, *rs2, delta));
                }
                Instrs::Jump { label } => {
                    let delta = label_off[label] - off;
                    out.push(build::jal(Reg::X0, delta));
                }
                Instrs::Label(_) => {}
            }
        }
        Ok(out)
    }
}

/// The snippet emitter.
pub struct Emitter<'a> {
    buf: CodeBuffer,
    alloc: &'a mut RegAllocator,
    profile: IsaProfile,
    uses_call: bool,
}

impl<'a> Emitter<'a> {
    pub fn new(alloc: &'a mut RegAllocator, profile: IsaProfile) -> Emitter<'a> {
        Emitter {
            buf: CodeBuffer::new(),
            alloc,
            profile,
            uses_call: false,
        }
    }

    /// Lower a snippet (as a statement).
    pub fn emit(&mut self, s: &Snippet) -> Result<(), CodeGenError> {
        match s {
            Snippet::Nop => Ok(()),
            Snippet::Seq(v) => {
                for s in v {
                    self.emit(s)?;
                }
                Ok(())
            }
            Snippet::WriteReg(rd, val) => {
                let r = self.expr(val)?;
                self.buf.push(build::mv(*rd, r));
                self.alloc.release(r);
                Ok(())
            }
            Snippet::WriteVar(var, val) => {
                let v = self.expr(val)?;
                let a = self.acquire()?;
                self.buf.extend(load_imm(a, var.addr as i64));
                self.store(v, a, 0, var.size)?;
                self.alloc.release(a);
                self.alloc.release(v);
                Ok(())
            }
            Snippet::WriteMem { addr, val, size } => {
                let a = self.expr(addr)?;
                let v = self.expr(val)?;
                self.store(v, a, 0, *size)?;
                self.alloc.release(v);
                self.alloc.release(a);
                Ok(())
            }
            Snippet::IncrementVar(var) => {
                // The canonical counter: la t, addr; ld u, 0(t);
                // addi u, u, 1; sd u, 0(t).
                let a = self.acquire()?;
                let u = self.acquire()?;
                self.buf.extend(load_imm(a, var.addr as i64));
                self.load(u, a, 0, var.size, false)?;
                self.buf.push(build::addi(u, u, 1));
                self.store(u, a, 0, var.size)?;
                self.alloc.release(u);
                self.alloc.release(a);
                Ok(())
            }
            Snippet::If { cond, then_, else_ } => {
                let c = self.expr(cond)?;
                let l_else = self.buf.fresh_label();
                let l_end = self.buf.fresh_label();
                self.buf.insts.push(Instrs::Branch {
                    op: Op::Beq,
                    rs1: c,
                    rs2: Reg::X0,
                    label: l_else,
                });
                self.alloc.release(c);
                self.emit(then_)?;
                if else_.is_some() {
                    self.buf.insts.push(Instrs::Jump { label: l_end });
                }
                self.buf.insts.push(Instrs::Label(l_else));
                if let Some(e) = else_ {
                    self.emit(e)?;
                    self.buf.insts.push(Instrs::Label(l_end));
                }
                Ok(())
            }
            Snippet::Call { target, args } => {
                let r = self.emit_call(*target, args)?;
                self.alloc.release(r);
                Ok(())
            }
            // Expression used as a statement: evaluate for effect.
            other => {
                let r = self.expr(other)?;
                self.alloc.release(r);
                Ok(())
            }
        }
    }

    /// Lower an expression; the result register must be released by the
    /// caller.
    fn expr(&mut self, s: &Snippet) -> Result<Reg, CodeGenError> {
        match s {
            Snippet::Const(v) => {
                let r = self.acquire()?;
                self.buf.extend(load_imm(r, *v));
                Ok(r)
            }
            Snippet::ReadReg(src) => {
                let r = self.acquire()?;
                self.buf.push(build::mv(r, *src));
                Ok(r)
            }
            Snippet::ReadVar(var) => {
                let r = self.acquire()?;
                self.buf.extend(load_imm(r, var.addr as i64));
                self.load(r, r, 0, var.size, false)?;
                Ok(r)
            }
            Snippet::ReadMem { addr, size } => {
                let a = self.expr(addr)?;
                self.load(a, a, 0, *size, true)?;
                Ok(a)
            }
            Snippet::Un(op, a) => {
                let r = self.expr(a)?;
                match op {
                    UnaryOp::Neg => self.buf.push(build::sub(r, Reg::X0, r)),
                    UnaryOp::Not => self.buf.push(build::i_type(Op::Xori, r, r, -1)),
                }
                Ok(r)
            }
            Snippet::Bin(op, a, b) => {
                // Evaluate the deeper side first (Sethi–Ullman order).
                let (ra, rb) = if a.scratch_needs() >= b.scratch_needs() {
                    let ra = self.expr(a)?;
                    let rb = self.expr(b)?;
                    (ra, rb)
                } else {
                    let rb = self.expr(b)?;
                    let ra = self.expr(a)?;
                    (ra, rb)
                };
                self.bin_op(*op, ra, ra, rb)?;
                self.alloc.release(rb);
                Ok(ra)
            }
            Snippet::Call { target, args } => {
                // The call's value is the callee's a0.
                self.emit_call(*target, args)
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
        self.buf.push(build::i_type(op, rd, base, off));
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
        self.buf.push(build::s_type(op, base, val, off));
        Ok(())
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
        self.uses_call = true;
        if args.len() > 8 {
            return Err(CodeGenError::OutOfRegisters);
        }
        // Evaluate arguments into scratch registers.
        let mut tmps = Vec::with_capacity(args.len());
        for a in args {
            tmps.push(self.expr(a)?);
        }
        // Everything currently handed out that is NOT an argument temp
        // must survive the call.
        let preserve: Vec<Reg> = self
            .alloc
            .in_use()
            .into_iter()
            .filter(|r| !tmps.contains(r))
            .collect();
        let slots = preserve.len() + tmps.len();
        let frame = ((slots * 8 + 15) & !15) as i64;
        if frame > 0 {
            self.buf.push(build::addi(Reg::X2, Reg::X2, -frame));
            for (i, &r) in preserve.iter().chain(tmps.iter()).enumerate() {
                self.buf.push(build::sd(r, Reg::X2, (i * 8) as i64));
            }
        }
        // Arguments: load from the frame into a0..an.
        for (i, _) in tmps.iter().enumerate() {
            let slot = (preserve.len() + i) * 8;
            self.buf
                .push(build::ld(Reg::x(10 + i as u8), Reg::X2, slot as i64));
        }
        for t in tmps {
            self.alloc.release(t);
        }
        // li ra, target ; jalr ra, 0(ra)
        self.buf.extend(load_imm(Reg::X1, target as i64));
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

    fn acquire(&mut self) -> Result<Reg, CodeGenError> {
        self.alloc.acquire().ok_or(CodeGenError::OutOfRegisters)
    }

    /// Did any emitted snippet contain a function call?
    pub fn uses_call(&self) -> bool {
        self.uses_call
    }

    /// Finish: resolve internal branches and return the instruction list
    /// (without the spill frame — the caller composes that from
    /// [`RegAllocator::frame`]).
    pub fn finish(self) -> Result<Vec<rvdyn_isa::Instruction>, CodeGenError> {
        self.buf.resolve()
    }
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
    dead: rvdyn_isa::RegSet,
    mode: crate::regalloc::RegAllocMode,
    profile: IsaProfile,
) -> Result<(Vec<rvdyn_isa::Instruction>, usize), CodeGenError> {
    generate_with_stats(snippet, dead, mode, profile).map(|(code, st)| (code, st.spills))
}

/// As [`generate`], additionally reporting how the scratch registers were
/// obtained (dead pool vs. spill) for per-point telemetry.
pub fn generate_with_stats(
    snippet: &Snippet,
    dead: rvdyn_isa::RegSet,
    mode: crate::regalloc::RegAllocMode,
    profile: IsaProfile,
) -> Result<(Vec<rvdyn_isa::Instruction>, LowerStats), CodeGenError> {
    generate_seq_with_stats(std::iter::once(snippet), dead, mode, profile)
}

/// As [`generate_with_stats`] for the statement sequence `snippets`,
/// read in place: the same code as lowering a [`Snippet::Seq`] of them.
pub fn generate_seq_with_stats<'s>(
    snippets: impl Iterator<Item = &'s Snippet> + Clone,
    dead: rvdyn_isa::RegSet,
    mode: crate::regalloc::RegAllocMode,
    profile: IsaProfile,
) -> Result<(Vec<rvdyn_isa::Instruction>, LowerStats), CodeGenError> {
    let contains_call = snippets.clone().any(|s| s.contains_call());
    let mut alloc = RegAllocator::new(dead, mode);
    let mut em = Emitter::new(&mut alloc, profile);
    for s in snippets {
        em.emit(s)?;
    }
    let body = em.finish()?;
    let stats = LowerStats {
        spills: alloc.spill_count(),
        dead_scratch: alloc.dead_grants(),
    };
    let (pro, epi) = alloc.frame();

    // A snippet containing a Call lets the callee clobber the entire
    // caller-saved set, so every *live* caller-saved register (integer
    // and FP, including ra) is preserved in an outer stack frame — the
    // same conservative treatment Dyninst applies to call snippets,
    // pruned here by liveness.
    let call_saves: Vec<Reg> = if contains_call {
        (0..64u8)
            .map(Reg::from_index)
            .filter(|r| r.is_caller_saved() && !dead.contains(*r))
            .collect()
    } else {
        Vec::new()
    };

    let mut out = Vec::new();
    if !call_saves.is_empty() {
        let frame = ((call_saves.len() * 8 + 15) & !15) as i64;
        out.push(build::addi(Reg::X2, Reg::X2, -frame));
        for (i, &r) in call_saves.iter().enumerate() {
            let off = (i * 8) as i64;
            out.push(match r.class() {
                rvdyn_isa::RegClass::Gpr => build::sd(r, Reg::X2, off),
                rvdyn_isa::RegClass::Fpr => build::fsd(r, Reg::X2, off),
            });
        }
    }
    out.extend(pro);
    out.extend(body);
    out.extend(epi);
    if !call_saves.is_empty() {
        let frame = ((call_saves.len() * 8 + 15) & !15) as i64;
        for (i, &r) in call_saves.iter().enumerate() {
            let off = (i * 8) as i64;
            out.push(match r.class() {
                rvdyn_isa::RegClass::Gpr => build::ld(r, Reg::X2, off),
                rvdyn_isa::RegClass::Fpr => build::fld(r, Reg::X2, off),
            });
        }
        out.push(build::addi(Reg::X2, Reg::X2, frame));
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regalloc::RegAllocMode;
    use crate::snippet::Var;
    use rvdyn_isa::semantics::{eval_int, EvalOutcome, FlatMemory, IntState, MemoryBus};
    use rvdyn_isa::RegSet;

    /// Run generated code on the reference evaluator.
    fn run(insts: &[rvdyn_isa::Instruction], st: &mut IntState, mem: &mut FlatMemory) {
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
