//! Stack height analysis (§3.2.4, consumed by StackwalkerAPI §3.2.7).
//!
//! Forward analysis tracking the displacement of `sp` from its value at
//! function entry. RISC-V compilers frequently use `s0` as a general
//! register instead of a frame pointer, so stack walking must recover
//! frames from `sp` alone: this analysis provides, for every pc,
//!
//! * the current frame height (entry_sp − sp), and
//! * where the return address lives — either still in `ra` or spilled to
//!   a known slot relative to the entry `sp`.

use crate::function::Function;
use rvdyn_isa::{Instruction, Op, Reg};
use std::collections::BTreeMap;

/// Height lattice: bottom (unvisited) is absent; `Known(h)`; `Top`
/// (conflicting or untrackable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Height {
    Known(i64),
    Top,
}

impl Height {
    fn meet(a: Height, b: Height) -> Height {
        match (a, b) {
            (Height::Known(x), Height::Known(y)) if x == y => Height::Known(x),
            _ => Height::Top,
        }
    }
}

/// Per-function stack-height solution.
#[derive(Debug, Clone)]
pub struct StackHeight {
    /// Height at block entry.
    entry: BTreeMap<u64, Height>,
    /// `(ra-slot offset from entry sp, height when stored)` per store of
    /// `ra`, keyed by the store's address.
    ra_saves: BTreeMap<u64, i64>,
    /// Addresses where `ra` is reloaded from the stack.
    ra_restores: Vec<u64>,
}

/// Effect of one instruction on the height.
fn transfer(inst: &Instruction, h: Height) -> Height {
    let Height::Known(h) = h else {
        return Height::Top;
    };
    if inst.regs_written().contains(Reg::X2) {
        // sp-writing instruction: only `addi sp, sp, imm` (and the
        // compressed forms that expand to it) is trackable.
        if inst.op == Op::Addi && inst.rs1 == Some(Reg::X2) {
            return Height::Known(h - inst.imm);
        }
        return Height::Top;
    }
    Height::Known(h)
}

impl StackHeight {
    /// Analyze `f` (entry height 0, growing downwards → positive heights).
    pub fn analyze(f: &Function) -> StackHeight {
        let mut entry: BTreeMap<u64, Height> = BTreeMap::new();
        entry.insert(f.entry, Height::Known(0));
        let mut ra_saves = BTreeMap::new();
        let mut ra_restores = Vec::new();

        // Worklist forward propagation.
        let mut work: Vec<u64> = vec![f.entry];
        while let Some(bs) = work.pop() {
            let Some(b) = f.blocks.get(bs) else { continue };
            let mut h = entry[&bs];
            for inst in b.insts {
                // Record ra spills/reloads while heights are known.
                if inst.op == Op::Sd && inst.rs1 == Some(Reg::X2) && inst.rs2 == Some(Reg::X1) {
                    if let Height::Known(hk) = h {
                        // Slot relative to entry sp: sp + off = entry - h + off.
                        ra_saves.insert(inst.address, inst.imm - hk);
                    }
                }
                if inst.op == Op::Ld && inst.rs1 == Some(Reg::X2) && inst.rd == Some(Reg::X1) {
                    ra_restores.push(inst.address);
                }
                h = transfer(inst, h);
            }
            for succ in b.successors() {
                let new = match entry.get(&succ) {
                    None => h,
                    Some(&old) => Height::meet(old, h),
                };
                if entry.get(&succ) != Some(&new) {
                    entry.insert(succ, new);
                    work.push(succ);
                }
            }
        }
        StackHeight {
            entry,
            ra_saves,
            ra_restores,
        }
    }

    /// Height at block entry.
    pub fn at_block_entry(&self, block: u64) -> Option<Height> {
        self.entry.get(&block).copied()
    }

    /// Height immediately before the instruction at `addr`.
    pub fn before(&self, f: &Function, addr: u64) -> Height {
        let Some(b) = f.block_containing(addr) else {
            return Height::Top;
        };
        let mut h = self.entry.get(&b.start).copied().unwrap_or(Height::Top);
        for inst in b.insts {
            if inst.address == addr {
                return h;
            }
            h = transfer(inst, h);
        }
        Height::Top
    }

    /// Frame description at `addr` for the stack walker.
    pub fn frame_at(&self, f: &Function, addr: u64) -> FrameInfo {
        let height = self.before(f, addr);
        // Is the return address currently spilled? It is if some ra-save
        // dominates `addr` and no ra-restore lies between... we use the
        // address-order approximation standard for prologue/epilogue
        // structured code: saved if a save precedes addr and no restore
        // does at a lower address than addr but above the save.
        let save = self
            .ra_saves
            .range(..addr)
            .next_back()
            .map(|(&a, &slot)| (a, slot));
        let restored = self
            .ra_restores
            .iter()
            .any(|&r| save.map(|(sa, _)| r > sa).unwrap_or(false) && r < addr);
        match save {
            Some((_, slot)) if !restored => FrameInfo {
                height,
                ra_slot: Some(slot),
            },
            _ => FrameInfo {
                height,
                ra_slot: None,
            },
        }
    }
}

/// What the stack walker needs at a pc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// entry_sp − sp at this pc.
    pub height: Height,
    /// If the return address is on the stack: its offset from *entry* sp
    /// (typically negative, e.g. `-8`). `None` → still in `ra`.
    pub ra_slot: Option<i64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodeObject, ParseOptions};
    use rvdyn_asm::Assembler;
    use rvdyn_isa::Reg;

    fn parse_one(build: impl FnOnce(&mut Assembler)) -> Function {
        let mut a = Assembler::new(0x1000);
        build(&mut a);
        let code = a.finish().unwrap();
        let src = crate::source::RawCode {
            base: 0x1000,
            bytes: code,
            entries: vec![0x1000],
        };
        CodeObject::parse(&src, &ParseOptions::default()).functions[&0x1000].clone()
    }

    #[test]
    fn prologue_epilogue_heights() {
        let f = parse_one(|a| {
            a.addi(Reg::X2, Reg::X2, -32); // 0x1000
            a.sd(Reg::X1, Reg::X2, 24); // 0x1004: save ra
            a.addi(Reg::x(10), Reg::X0, 1); // 0x1008
            a.ld(Reg::X1, Reg::X2, 24); // 0x100C: restore ra
            a.addi(Reg::X2, Reg::X2, 32); // 0x1010
            a.ret(); // 0x1014
        });
        let sh = StackHeight::analyze(&f);
        assert_eq!(sh.before(&f, 0x1000), Height::Known(0));
        assert_eq!(sh.before(&f, 0x1004), Height::Known(32));
        assert_eq!(sh.before(&f, 0x1010), Height::Known(32));
        assert_eq!(sh.before(&f, 0x1014), Height::Known(0));
        // Mid-function: ra on the stack at entry_sp - 8 (32 - 24).
        let fi = sh.frame_at(&f, 0x1008);
        assert_eq!(fi.height, Height::Known(32));
        assert_eq!(fi.ra_slot, Some(24 - 32));
        // After the restore, ra is back in the register.
        let fi = sh.frame_at(&f, 0x1010);
        assert_eq!(fi.ra_slot, None);
        // At entry, ra never saved yet.
        let fi = sh.frame_at(&f, 0x1000);
        assert_eq!(fi.ra_slot, None);
    }

    #[test]
    fn branch_join_consistent_heights() {
        let f = parse_one(|a| {
            let else_ = a.label();
            let join = a.label();
            a.addi(Reg::X2, Reg::X2, -16);
            a.beq(Reg::x(10), Reg::X0, else_);
            a.addi(Reg::x(5), Reg::X0, 1);
            a.jump(join);
            a.bind(else_);
            a.addi(Reg::x(5), Reg::X0, 2);
            a.bind(join);
            a.addi(Reg::X2, Reg::X2, 16);
            a.ret();
        });
        let sh = StackHeight::analyze(&f);
        // Find the join block (the one doing the +16).
        let join = f
            .blocks
            .values()
            .find(|b| {
                b.insts
                    .iter()
                    .any(|i| i.op == Op::Addi && i.imm == 16 && i.rd == Some(Reg::X2))
            })
            .unwrap();
        assert_eq!(sh.at_block_entry(join.start), Some(Height::Known(16)));
    }

    #[test]
    fn conflicting_heights_go_top() {
        // One path allocates 16, the other 32, joining — untrackable.
        let f = parse_one(|a| {
            let else_ = a.label();
            let join = a.label();
            a.beq(Reg::x(10), Reg::X0, else_);
            a.addi(Reg::X2, Reg::X2, -16);
            a.jump(join);
            a.bind(else_);
            a.addi(Reg::X2, Reg::X2, -32);
            a.bind(join);
            a.ret();
        });
        let sh = StackHeight::analyze(&f);
        let join = f
            .blocks
            .values()
            .find(|b| b.insts.len() == 1 && b.insts[0].is_canonical_return())
            .unwrap();
        assert_eq!(sh.at_block_entry(join.start), Some(Height::Top));
    }

    #[test]
    fn untrackable_sp_write_goes_top() {
        let f = parse_one(|a| {
            a.add(Reg::X2, Reg::X2, Reg::x(5)); // dynamic adjustment
            a.ret();
        });
        let sh = StackHeight::analyze(&f);
        assert_eq!(sh.before(&f, 0x1004), Height::Top);
    }

    #[test]
    fn matmul_heights_balanced() {
        let bin = rvdyn_asm::matmul_program(4, 1);
        let co = CodeObject::parse(&bin as &rvdyn_symtab::Binary, &ParseOptions::default());
        let mm = bin.symbol_by_name("matmul").unwrap().value;
        let f = &co.functions[&mm];
        let sh = StackHeight::analyze(f);
        // Exit block: height back to the frame size before the final
        // dealloc, 0 before ret.
        for b in f.exit_blocks() {
            let last = b.last_inst().unwrap();
            if last.is_canonical_return() {
                assert_eq!(sh.before(f, last.address), Height::Known(0));
            }
        }
    }
}
