//! Register liveness (§3.2.4 / §4.3).
//!
//! Backward may-analysis over the function CFG:
//! `live_in(b) = use(b) ∪ (live_out(b) − def(b))`,
//! `live_out(b) = ∪ live_in(succ)`, to a fixpoint.
//!
//! Interprocedural boundary conditions follow the psABI:
//!
//! * at a **return**, the return-value registers, `sp` and all
//!   callee-saved registers are live (the caller owns them);
//! * a **call** instruction uses the argument registers and `sp`, defines
//!   the caller-saved set (the callee may clobber it), and its fallthrough
//!   continues the local analysis;
//! * at an **unresolved** transfer, everything is conservatively live —
//!   exactly the caution that makes instrumentation at such points spill.
//!
//! The *dead* set at an instrumentation point — the complement of live —
//! is what CodeGenAPI's register allocator draws from (§4.3).

use crate::block::EdgeKind;
use crate::conventions::{arg_regs, callee_saved, caller_saved, ret_regs};
use crate::function::Function;
use rvdyn_isa::{Instruction, Reg, RegSet};

/// Per-instruction use/def honouring call/return conventions.
fn use_def(inst: &Instruction, edges_kind: Option<EdgeKind>) -> (RegSet, RegSet) {
    // Call-shaped transfers: the callee reads args, clobbers caller-saved.
    if inst.is_call_shaped() || edges_kind == Some(EdgeKind::Call) {
        let mut uses = arg_regs();
        uses.insert(Reg::X2);
        if let Some(r) = inst.rs1 {
            uses.insert(r); // indirect call target register
        }
        return (uses, caller_saved());
    }
    match edges_kind {
        Some(EdgeKind::Return) => {
            let mut uses = ret_regs().union(callee_saved());
            if let Some(r) = inst.rs1 {
                uses.insert(r);
            }
            (uses, RegSet::empty())
        }
        Some(EdgeKind::TailCall) => {
            // Tail call: argument registers flow into the callee.
            let mut uses = arg_regs().union(callee_saved());
            uses.insert(Reg::X2);
            if let Some(r) = inst.rs1 {
                uses.insert(r);
            }
            (uses, RegSet::empty())
        }
        _ => (inst.regs_read(), inst.regs_written()),
    }
}

/// Edge kind of the terminator, if the instruction is one: the last
/// instruction of the latest-starting block that contains it.
fn terminator_kind(f: &Function, inst: &Instruction) -> Option<EdgeKind> {
    let b = f.block_containing(inst.address)?;
    if b.last_inst().map(|l| l.address) != Some(inst.address) {
        return None;
    }
    // Priority: Call > Return > TailCall > Unresolved.
    [
        EdgeKind::Call,
        EdgeKind::Return,
        EdgeKind::TailCall,
        EdgeKind::Unresolved,
    ]
    .into_iter()
    .find(|&k| b.edges.iter().any(|e| e.kind == k))
}

/// The liveness solution for one function: one `(start, live-in,
/// live-out)` row per block, in block (address) order, in one chunk.
///
/// [`Function::liveness`] solves it on its first call and keeps it.
#[derive(Debug, Clone)]
pub struct Liveness {
    rows: Box<[(u64, RegSet, RegSet)]>,
}

impl Liveness {
    /// Solve liveness for `f`. The solution is one allocation; the
    /// solver's scratch is freed before it returns.
    pub fn analyze(f: &Function) -> Liveness {
        let n = f.blocks.len();

        // Block use, def and function-exit liveness, and successor
        // indices; sized up front, so the only chunk that outlives the
        // solve is the solution's.
        let mut facts: Vec<(RegSet, RegSet, RegSet)> = Vec::with_capacity(n);
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ = Vec::with_capacity(f.blocks.values().map(|b| b.edges.len()).sum());
        succ_off.push(0);
        for b in f.blocks.values() {
            // The terminator's kind comes from the latest-starting block
            // containing its address, which is a later, overlapping
            // block when one holds it too.
            let kind = b.last_inst().and_then(|last| terminator_kind(f, last));
            let mut u = RegSet::empty();
            let mut d = RegSet::empty();
            let last = b.insts.len().wrapping_sub(1);
            for (k, inst) in b.insts.iter().enumerate() {
                let (iu, id) = use_def(inst, if k == last { kind } else { None });
                u = u.union(iu.minus(d));
                d = d.union(id);
            }
            // Function-exit boundary liveness: after a return or tail
            // call the post-exit set is empty (the terminator's uses
            // already count); after an unresolved transfer everything
            // is conservatively live.
            let unresolved = b.edges.iter().any(|e| e.kind == EdgeKind::Unresolved);
            let exit = if unresolved {
                RegSet::ALL
            } else {
                RegSet::empty()
            };
            facts.push((u, d, exit));
            succ.extend(b.successors().filter_map(|t| f.blocks.index_of(t)));
            succ_off.push(succ.len());
        }

        // Iterate to fixpoint (blocks in reverse address order is a good
        // heuristic for mostly-forward layouts).
        let mut rows: Vec<_> = f
            .blocks
            .keys()
            .map(|s| (s, RegSet::empty(), RegSet::empty()))
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let (uses, defs, mut out) = facts[i];
                for &s in &succ[succ_off[i]..succ_off[i + 1]] {
                    out = out.union(rows[s].1);
                }
                let inn = uses.union(out.minus(defs));
                let row = &mut rows[i];
                if (inn, out) != (row.1, row.2) {
                    (row.1, row.2) = (inn, out);
                    changed = true;
                }
            }
        }
        Liveness {
            rows: rows.into_boxed_slice(),
        }
    }

    /// The row of the block starting at `block`.
    fn row(&self, block: u64) -> Option<&(u64, RegSet, RegSet)> {
        let i = self.rows.binary_search_by_key(&block, |r| r.0).ok()?;
        Some(&self.rows[i])
    }

    /// Live registers at block entry.
    pub fn live_in(&self, block: u64) -> RegSet {
        self.row(block).map_or(RegSet::ALL, |r| r.1)
    }

    /// Live registers at block exit.
    pub fn live_out(&self, block: u64) -> RegSet {
        self.row(block).map_or(RegSet::ALL, |r| r.2)
    }

    /// Live registers immediately **before** the instruction at `addr`.
    pub fn live_before(&self, f: &Function, addr: u64) -> RegSet {
        let Some(b) = f.block_containing(addr) else {
            return RegSet::ALL;
        };
        // Walk the block backwards from its end.
        let mut live = self.live_out(b.start);
        for inst in b.insts.iter().rev() {
            let kind = if Some(inst.address) == b.last_inst().map(|l| l.address) {
                terminator_kind(f, inst)
            } else {
                None
            };
            let (u, d) = use_def(inst, kind);
            live = u.union(live.minus(d));
            if inst.address == addr {
                return live;
            }
        }
        RegSet::ALL
    }

    /// Dead (free) registers immediately before `addr` — the scratch pool
    /// for instrumentation at that point.
    pub fn dead_before(&self, f: &Function, addr: u64) -> RegSet {
        // At a block start the backward walk composes to the solved
        // `live_in`: the fixpoint holds live_in = use ∪ (live_out − def).
        match f.block_containing(addr) {
            Some(b) if b.insts.first().map(|i| i.address) == Some(addr) => {
                self.live_in(b.start).complement()
            }
            _ => self.live_before(f, addr).complement(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodeObject, ParseOptions};
    use rvdyn_asm::Assembler;
    use rvdyn_symtab::Binary;

    fn parse_one(build: impl FnOnce(&mut Assembler)) -> (Function, u64) {
        let mut a = Assembler::new(0x1000);
        build(&mut a);
        let code = a.finish().unwrap();
        let src = crate::source::RawCode {
            base: 0x1000,
            bytes: code,
            entries: vec![0x1000],
        };
        let co = CodeObject::parse(&src, &ParseOptions::default());
        (co.functions[&0x1000].clone(), 0x1000)
    }

    #[test]
    fn straight_line_liveness() {
        // addi t0, x0, 1 ; addi t1, t0, 2 ; mv a0, t1 ; ret
        let (f, _) = parse_one(|a| {
            a.addi(Reg::x(5), Reg::X0, 1);
            a.addi(Reg::x(6), Reg::x(5), 2);
            a.mv(Reg::x(10), Reg::x(6));
            a.ret();
        });
        let lv = Liveness::analyze(&f);
        // Before the second addi, t0 is live; t1 not yet.
        let live = lv.live_before(&f, 0x1004);
        assert!(live.contains(Reg::x(5)));
        assert!(!live.contains(Reg::x(6)));
        // Before the ret, a0 is live (return value).
        let live = lv.live_before(&f, 0x100C);
        assert!(live.contains(Reg::x(10)));
        // t0/t1 dead before ret → available as scratch.
        let dead = lv.dead_before(&f, 0x100C);
        assert!(dead.contains(Reg::x(5)));
        assert!(dead.contains(Reg::x(6)));
    }

    #[test]
    fn branch_join_unions_liveness() {
        // if (a0) t0=1 else t0=2; a0 = t0; ret — t0 live at the join.
        let (f, _) = parse_one(|a| {
            let else_ = a.label();
            let join = a.label();
            a.beq(Reg::x(10), Reg::X0, else_);
            a.addi(Reg::x(5), Reg::X0, 1);
            a.jump(join);
            a.bind(else_);
            a.addi(Reg::x(5), Reg::X0, 2);
            a.bind(join);
            a.mv(Reg::x(10), Reg::x(5));
            a.ret();
        });
        let lv = Liveness::analyze(&f);
        // At entry, a0 is live (branch condition).
        assert!(lv.live_in(0x1000).contains(Reg::x(10)));
        // t0 live into the join block.
        let join_addr = f
            .blocks
            .values()
            .find(|b| {
                b.insts
                    .first()
                    .map(|i| i.op == rvdyn_isa::Op::Addi && i.rd == Some(Reg::x(10)))
                    .unwrap_or(false)
            })
            .unwrap()
            .start;
        assert!(lv.live_in(join_addr).contains(Reg::x(5)));
    }

    #[test]
    fn call_clobbers_make_temporaries_dead_after() {
        // t0 set before a call, never used after: dead after the call
        // (the call clobbers it anyway).
        let (f, _) = parse_one(|a| {
            let callee = a.label();
            a.addi(Reg::x(5), Reg::X0, 9);
            a.call(callee);
            a.mv(Reg::x(10), Reg::X0);
            a.ret();
            a.bind(callee);
            a.ret();
        });
        let lv = Liveness::analyze(&f);
        // Before the mv (post-call), t0 is dead.
        let dead = lv.dead_before(&f, 0x1008);
        assert!(dead.contains(Reg::x(5)));
    }

    #[test]
    fn callee_saved_live_at_return() {
        let (f, _) = parse_one(|a| {
            a.ret();
        });
        let lv = Liveness::analyze(&f);
        let live = lv.live_before(&f, 0x1000);
        assert!(live.contains(Reg::x(8)), "s0 live at return");
        assert!(live.contains(Reg::x(2)), "sp live at return");
        assert!(live.contains(Reg::x(10)), "a0 live at return");
        assert!(!live.contains(Reg::x(6)), "t1 dead at return");
    }

    #[test]
    fn loop_carried_liveness() {
        // Counter decremented in a loop: live throughout the loop.
        let (f, _) = parse_one(|a| {
            a.addi(Reg::x(5), Reg::X0, 10);
            let head = a.here_label();
            a.addi(Reg::x(5), Reg::x(5), -1);
            a.bne(Reg::x(5), Reg::X0, head);
            a.ret();
        });
        let lv = Liveness::analyze(&f);
        assert!(lv.live_in(0x1004).contains(Reg::x(5)));
        assert!(lv.live_out(0x1004).contains(Reg::x(5)));
    }

    #[test]
    fn matmul_entry_has_dead_temporaries() {
        // The §4.3 claim depends on dead registers existing at the
        // instrumentation points of a real function.
        let bin = rvdyn_asm::matmul_program(8, 1);
        let co = CodeObject::parse(&bin as &Binary, &ParseOptions::default());
        let mm = bin.symbol_by_name("matmul").unwrap().value;
        let f = &co.functions[&mm];
        let lv = Liveness::analyze(f);
        for s in f.blocks.keys() {
            let dead = lv.live_in(s).complement();
            assert!(
                dead.len() >= 2,
                "block {s:#x} has too few dead registers: {:?}",
                lv.live_in(s)
            );
        }
    }
}
