//! Forward and backward slicing (§3.2.4).
//!
//! * A **backward slice** from a use of register `r` at instruction `p`
//!   is the set of instructions whose results can reach that use —
//!   "instructions that affected data". ParseAPI's `jalr` resolution is a
//!   constant-folding specialisation of this.
//! * A **forward slice** from a definition is the set of instructions the
//!   defined value can influence — "instructions affected by data".
//!
//! Both are computed over register dataflow on the ParseAPI CFG (memory
//! dependencies are not chased — the same scope as Dyninst's register
//! slices used for control-flow resolution).

use rvdyn_isa::RegSet;
use rvdyn_parse::Function;
use std::collections::{BTreeSet, VecDeque};

/// A slice member: instruction address.
pub type SliceNode = u64;

/// Location inside a function: (block start, instruction index).
fn locate(f: &Function, addr: u64) -> Option<(u64, usize)> {
    let b = f.block_containing(addr)?;
    let idx = b.insts.iter().position(|i| i.address == addr)?;
    Some((b.start, idx))
}

/// Backward slice from the instruction at `addr` on its *read* set (or a
/// specific register subset if `regs` is non-empty).
pub fn backward_slice(f: &Function, addr: u64, regs: RegSet) -> BTreeSet<SliceNode> {
    let Some((bs, idx)) = locate(f, addr) else {
        return BTreeSet::new();
    };
    let start_inst = &f.blocks.at(bs).insts[idx];
    let wanted = if regs.is_empty() {
        start_inst.regs_read()
    } else {
        regs
    };

    let preds = f.predecessors();
    let mut slice: BTreeSet<SliceNode> = BTreeSet::new();
    // Worklist of (block, index-exclusive-upper-bound, live set to chase).
    let mut work: VecDeque<(u64, usize, RegSet)> = VecDeque::new();
    work.push_back((bs, idx, wanted));
    // Visited (block, chase-set) pairs to guarantee termination.
    let mut seen: BTreeSet<(u64, u64)> = BTreeSet::new();

    while let Some((b, upto, mut chase)) = work.pop_front() {
        let block = f.blocks.at(b);
        for i in (0..upto).rev() {
            if chase.is_empty() {
                break;
            }
            let inst = &block.insts[i];
            let defs = inst.regs_written().intersect(chase);
            if !defs.is_empty() {
                slice.insert(inst.address);
                chase = chase.minus(defs);
                // The defining instruction's own inputs join the chase.
                chase = chase.union(inst.regs_read());
            }
        }
        if chase.is_empty() {
            continue;
        }
        if let Some(ps) = preds.get(&b) {
            for &p in ps {
                if seen.insert((p, chase.0)) {
                    let plen = f.blocks.at(p).insts.len();
                    work.push_back((p, plen, chase));
                }
            }
        }
    }
    slice
}

/// Forward slice from the definition at `addr`: all instructions whose
/// values are (transitively) data-dependent on it.
pub fn forward_slice(f: &Function, addr: u64) -> BTreeSet<SliceNode> {
    let Some((bs, idx)) = locate(f, addr) else {
        return BTreeSet::new();
    };
    let def_inst = &f.blocks.at(bs).insts[idx];
    let tainted0 = def_inst.regs_written();
    if tainted0.is_empty() {
        return BTreeSet::new();
    }

    let mut slice: BTreeSet<SliceNode> = BTreeSet::new();
    let mut work: VecDeque<(u64, usize, RegSet)> = VecDeque::new();
    work.push_back((bs, idx + 1, tainted0));
    let mut seen: BTreeSet<(u64, u64)> = BTreeSet::new();

    while let Some((b, from, mut taint)) = work.pop_front() {
        let block = f.blocks.at(b);
        for i in from..block.insts.len() {
            if taint.is_empty() {
                break;
            }
            let inst = &block.insts[i];
            let reads_tainted = !inst.regs_read().intersect(taint).is_empty();
            if reads_tainted {
                slice.insert(inst.address);
                taint = taint.union(inst.regs_written());
            } else {
                // Overwrites kill taint.
                taint = taint.minus(inst.regs_written());
            }
        }
        if taint.is_empty() {
            continue;
        }
        for succ in block.successors() {
            if f.blocks.contains_key(succ) && seen.insert((succ, taint.0)) {
                work.push_back((succ, 0, taint));
            }
        }
    }
    slice
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn_asm::Assembler;
    use rvdyn_isa::Reg;
    use rvdyn_parse::{CodeObject, ParseOptions};

    fn parse_one(build: impl FnOnce(&mut Assembler)) -> Function {
        let mut a = Assembler::new(0x1000);
        build(&mut a);
        let code = a.finish().unwrap();
        let src = rvdyn_parse::source::RawCode {
            base: 0x1000,
            bytes: code,
            entries: vec![0x1000],
        };
        CodeObject::parse(&src, &ParseOptions::default()).functions[&0x1000].clone()
    }

    #[test]
    fn backward_slice_follows_chain() {
        // 0x1000: li t0, 5
        // 0x1004: li t1, 7          (irrelevant)
        // 0x1008: addi t2, t0, 1
        // 0x100C: add  a0, t2, t0
        // 0x1010: ret
        let f = parse_one(|a| {
            a.addi(Reg::x(5), Reg::X0, 5);
            a.addi(Reg::x(6), Reg::X0, 7);
            a.addi(Reg::x(7), Reg::x(5), 1);
            a.add(Reg::x(10), Reg::x(7), Reg::x(5));
            a.ret();
        });
        let s = backward_slice(&f, 0x100C, RegSet::empty());
        assert!(s.contains(&0x1000));
        assert!(s.contains(&0x1008));
        assert!(!s.contains(&0x1004), "unrelated def must not appear");
    }

    #[test]
    fn backward_slice_across_blocks() {
        let f = parse_one(|a| {
            let skip = a.label();
            a.addi(Reg::x(5), Reg::X0, 5); // 0x1000 — def in earlier block
            a.beq(Reg::x(10), Reg::X0, skip); // 0x1004
            a.addi(Reg::x(6), Reg::X0, 1); // 0x1008
            a.bind(skip);
            a.add(Reg::x(10), Reg::x(5), Reg::X0); // 0x100C — use
            a.ret();
        });
        let s = backward_slice(&f, 0x100C, RegSet::empty());
        assert!(s.contains(&0x1000));
    }

    #[test]
    fn forward_slice_propagates_taint() {
        let f = parse_one(|a| {
            a.addi(Reg::x(5), Reg::X0, 5); // 0x1000: source
            a.addi(Reg::x(6), Reg::x(5), 1); // 0x1004: tainted
            a.addi(Reg::x(7), Reg::X0, 9); // 0x1008: clean
            a.add(Reg::x(28), Reg::x(6), Reg::x(7)); // 0x100C: tainted via t1
            a.ret();
        });
        let s = forward_slice(&f, 0x1000);
        assert!(s.contains(&0x1004));
        assert!(s.contains(&0x100C));
        assert!(!s.contains(&0x1008));
    }

    #[test]
    fn taint_killed_by_overwrite() {
        let f = parse_one(|a| {
            a.addi(Reg::x(5), Reg::X0, 5); // source
            a.addi(Reg::x(5), Reg::X0, 0); // kill (constant overwrite)
            a.add(Reg::x(10), Reg::x(5), Reg::X0); // reads the NEW value
            a.ret();
        });
        let s = forward_slice(&f, 0x1000);
        assert!(s.is_empty(), "overwritten taint must not propagate: {s:?}");
    }

    #[test]
    fn loop_slices_terminate() {
        let f = parse_one(|a| {
            a.addi(Reg::x(5), Reg::X0, 10);
            let head = a.here_label();
            a.addi(Reg::x(5), Reg::x(5), -1);
            a.bne(Reg::x(5), Reg::X0, head);
            a.mv(Reg::x(10), Reg::x(5));
            a.ret();
        });
        // Backward from the bne: includes both the init and the decrement.
        let s = backward_slice(&f, 0x1008, RegSet::empty());
        assert!(s.contains(&0x1000));
        assert!(s.contains(&0x1004));
        // Forward from the init: reaches everything that reads t0.
        let s = forward_slice(&f, 0x1000);
        assert!(s.contains(&0x1004));
        assert!(s.contains(&0x1008));
        assert!(s.contains(&0x100C));
    }
}
