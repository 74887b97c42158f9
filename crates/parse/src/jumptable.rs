//! Jump-table analysis (§3.2.3, rule 5).
//!
//! Recognises the canonical bounded-dispatch shape compilers emit for
//! `switch` statements on RISC-V:
//!
//! ```text
//!     li    tBound, K
//!     bgeu  idx, tBound, default     # bounds check (previous block)
//!     ...
//!     slli  tOff, idx, 3             # scale
//!     <tBase = table base>           # lui/addi or auipc/addi chain
//!     add   tAddr, tBase, tOff
//!     ld    tTgt, 0(tAddr)
//!     jalr  x0, 0(tTgt)
//! ```
//!
//! The table must live in a *read-only* section (entries in writable
//! memory may change at runtime and are not trusted). Each of the `K`
//! entries is validated to land in executable code; any failure aborts the
//! analysis and the `jalr` is reported unresolvable — the conservative
//! behaviour Dyninst's gap-aware CFG requires.
//!
//! Two table layouts are recognised, covering the common compiler idioms
//! (the paper: "different compilers may generate these sequences in
//! different ways"):
//!
//! * **absolute** — 8-byte little-endian code addresses
//!   (`ld` + `slli idx, 3`), as above;
//! * **relative** — 4-byte sign-extended displacements from a constant
//!   base (`lw` + `slli idx, 2`, then `add base, off`), gcc's compact
//!   form.

use crate::source::CodeSource;
use rvdyn_isa::{Instruction, Op, Reg};

/// Maximum table entries we will enumerate (sanity bound).
const MAX_ENTRIES: u64 = 4096;

/// Attempt jump-table analysis for the `jalr` at `insts[at]`. The slice
/// `insts` must contain the linear instruction history leading to the
/// `jalr` (the parser passes every decoded instruction of the function up
/// to and including the dispatch — bounds checks typically sit in a
/// preceding block).
pub fn analyze<S: CodeSource + ?Sized>(
    insts: &[Instruction],
    at: usize,
    src: &S,
) -> Option<Vec<u64>> {
    let jalr = &insts[at];
    debug_assert_eq!(jalr.op, Op::Jalr);
    if jalr.imm != 0 {
        return None; // dispatch form always uses a zero displacement
    }
    let t_tgt = jalr.rs1?;

    // Two compiler idioms are recognised (the paper: "different compilers
    // may generate these sequences in different ways"):
    //   A) absolute:  tTgt = ld(tableBase + idx*8)
    //   B) relative:  tTgt = addrBase + sext(lw(tableBase + idx*4))
    let (def_idx, def) = find_def(insts, at, t_tgt)?;
    match def.op {
        Op::Ld => analyze_absolute(insts, def_idx, def, src),
        Op::Add => analyze_relative(insts, def_idx, def, src),
        _ => None,
    }
}

/// Pattern A: `ld tTgt, off(tAddr)` with `tAddr = add(base, idx << 3)`.
fn analyze_absolute<S: CodeSource + ?Sized>(
    insts: &[Instruction],
    ld_idx: usize,
    ld: &Instruction,
    src: &S,
) -> Option<Vec<u64>> {
    let t_addr = ld.rs1?;
    let (add_idx, add) = find_def(insts, ld_idx, t_addr)?;
    if add.op != Op::Add {
        return None;
    }
    let (base, idx_reg) = const_side(insts, add_idx, add, src)?;
    let base = base.wrapping_add(ld.imm as u64);

    let (slli_idx, slli) = find_def(insts, add_idx, idx_reg)?;
    if slli.op != Op::Slli || slli.imm != 3 {
        return None;
    }
    let raw_idx = slli.rs1?;
    let bound = find_bound(insts, slli_idx, raw_idx, src)?;
    if bound == 0 || bound > MAX_ENTRIES {
        return None;
    }

    let mut targets = Vec::with_capacity(bound as usize);
    for k in 0..bound {
        let entry = src.read_const_u64(base + k * 8)?;
        if !src.is_code(entry) {
            return None; // a single bad entry falsifies the table
        }
        targets.push(entry);
    }
    targets.dedup();
    Some(targets)
}

/// Pattern B: `tTgt = add(rBase, rOff)` where `rBase` is a constant code
/// address and `rOff = lw(tableBase + idx*4)` (sign-extended 32-bit
/// displacements — gcc's compact table form).
fn analyze_relative<S: CodeSource + ?Sized>(
    insts: &[Instruction],
    add_idx: usize,
    add: &Instruction,
    src: &S,
) -> Option<Vec<u64>> {
    // One operand is the constant base address; the other comes from lw.
    let rs1 = add.rs1?;
    let rs2 = add.rs2?;
    let try_order = |base_reg: rvdyn_isa::Reg, off_reg: rvdyn_isa::Reg| -> Option<Vec<u64>> {
        let base = crate::classify::resolve_register(insts, add_idx, base_reg, src, 8)?;
        let (lw_idx, lw) = find_def(insts, add_idx, off_reg)?;
        if lw.op != Op::Lw {
            return None;
        }
        // lw address: add(tableBase, idx << 2).
        let t_addr = lw.rs1?;
        let (tadd_idx, tadd) = find_def(insts, lw_idx, t_addr)?;
        if tadd.op != Op::Add {
            return None;
        }
        let (table, idx_reg) = const_side(insts, tadd_idx, tadd, src)?;
        let table = table.wrapping_add(lw.imm as u64);
        let (slli_idx, slli) = find_def(insts, tadd_idx, idx_reg)?;
        if slli.op != Op::Slli || slli.imm != 2 {
            return None;
        }
        let raw_idx = slli.rs1?;
        let bound = find_bound(insts, slli_idx, raw_idx, src)?;
        if bound == 0 || bound > MAX_ENTRIES {
            return None;
        }
        let mut targets = Vec::with_capacity(bound as usize);
        for k in 0..bound {
            let off = src.read_const_u32(table + k * 4)? as i32 as i64;
            let entry = base.wrapping_add(off as u64);
            if !src.is_code(entry) {
                return None;
            }
            targets.push(entry);
        }
        targets.dedup();
        Some(targets)
    };
    try_order(rs1, rs2).or_else(|| try_order(rs2, rs1))
}

/// Of an `add`'s two operands, resolve the constant one; return
/// (constant, other register).
fn const_side<S: CodeSource + ?Sized>(
    insts: &[Instruction],
    add_idx: usize,
    add: &Instruction,
    src: &S,
) -> Option<(u64, rvdyn_isa::Reg)> {
    let rs1 = add.rs1?;
    let rs2 = add.rs2?;
    if let Some(b) = crate::classify::resolve_register(insts, add_idx, rs1, src, 8) {
        Some((b, rs2))
    } else {
        crate::classify::resolve_register(insts, add_idx, rs2, src, 8).map(|b| (b, rs1))
    }
}

/// Most recent definition of `reg` before index `at`.
fn find_def(insts: &[Instruction], at: usize, reg: Reg) -> Option<(usize, &Instruction)> {
    for idx in (0..at).rev() {
        if insts[idx].regs_written().contains(reg) {
            return Some((idx, &insts[idx]));
        }
        if insts[idx].is_call_shaped() && !reg.is_callee_saved() {
            return None;
        }
    }
    None
}

/// Search backwards for the bounds check guarding `raw_idx` and return the
/// table size. Accepts `bltu raw_idx, B` (guard taken into the dispatch)
/// and `bgeu raw_idx, B` (guard taken *around* the dispatch).
fn find_bound<S: CodeSource + ?Sized>(
    insts: &[Instruction],
    before: usize,
    raw_idx: Reg,
    src: &S,
) -> Option<u64> {
    for idx in (0..before).rev() {
        let i = &insts[idx];
        // The index register must not be redefined between the check and
        // the dispatch.
        if i.regs_written().contains(raw_idx) {
            return None;
        }
        if matches!(i.op, Op::Bltu | Op::Bgeu) && i.rs1 == Some(raw_idx) {
            let bound_reg = i.rs2?;
            return crate::classify::resolve_register(insts, idx, bound_reg, src, 8);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::CodeSource;
    use rvdyn_isa::build;

    /// A code source with a read-only table at 0x8000.
    struct TableSource {
        table: Vec<u64>,
    }

    impl CodeSource for TableSource {
        fn bytes_at(&self, _a: u64, _l: usize) -> Option<&[u8]> {
            None
        }

        fn is_code(&self, addr: u64) -> bool {
            (0x1000..0x2000).contains(&addr)
        }

        fn read_const_u64(&self, addr: u64) -> Option<u64> {
            let idx = addr.checked_sub(0x8000)? / 8;
            self.table.get(idx as usize).copied()
        }

        fn read_const_u32(&self, addr: u64) -> Option<u32> {
            // Reinterpret the u64 table as packed i32 offsets for the
            // relative-pattern tests (table at 0x9000).
            let idx = addr.checked_sub(0x9000)? / 4;
            self.table.get(idx as usize).map(|&v| v as u32)
        }

        fn entry_hints(&self) -> Vec<(u64, Option<String>)> {
            vec![]
        }

        fn code_ranges(&self) -> Vec<(u64, u64)> {
            vec![(0x1000, 0x2000)]
        }
    }

    fn dispatch_seq(bound_op: Op) -> Vec<Instruction> {
        let mut v = vec![
            build::addi(Reg::x(5), Reg::X0, 4),                 // bound
            build::b_type(bound_op, Reg::x(10), Reg::x(5), 32), // guard
            build::i_type(Op::Slli, Reg::x(6), Reg::x(10), 3),
            build::lui(Reg::x(7), 0x8000),
            build::add(Reg::x(7), Reg::x(7), Reg::x(6)),
            build::ld(Reg::x(7), Reg::x(7), 0),
            build::jalr(Reg::X0, Reg::x(7), 0),
        ];
        let mut a = 0x1000u64;
        for i in &mut v {
            i.address = a;
            a += 4;
        }
        v
    }

    #[test]
    fn canonical_table_resolves() {
        let src = TableSource {
            table: vec![0x1100, 0x1110, 0x1120, 0x1130],
        };
        let insts = dispatch_seq(Op::Bgeu);
        let t = analyze(&insts, 6, &src).expect("table should resolve");
        assert_eq!(t, vec![0x1100, 0x1110, 0x1120, 0x1130]);
    }

    #[test]
    fn bad_entry_falsifies_table() {
        let src = TableSource {
            table: vec![0x1100, 0xDEAD_0000, 0x1120, 0x1130],
        };
        let insts = dispatch_seq(Op::Bgeu);
        assert_eq!(analyze(&insts, 6, &src), None);
    }

    #[test]
    fn missing_bounds_check_rejected() {
        let src = TableSource {
            table: vec![0x1100; 4],
        };
        let mut insts = dispatch_seq(Op::Bgeu);
        insts.remove(1); // drop the guard
        let at = insts.len() - 1;
        assert_eq!(analyze(&insts, at, &src), None);
    }

    #[test]
    fn writable_table_rejected() {
        // read_const_u64 returns None for non-RO memory → analysis fails.
        struct NoRo;
        impl CodeSource for NoRo {
            fn bytes_at(&self, _a: u64, _l: usize) -> Option<&[u8]> {
                None
            }
            fn is_code(&self, a: u64) -> bool {
                (0x1000..0x2000).contains(&a)
            }
            fn read_const_u64(&self, _a: u64) -> Option<u64> {
                None
            }
            fn read_const_u32(&self, _a: u64) -> Option<u32> {
                None
            }
            fn entry_hints(&self) -> Vec<(u64, Option<String>)> {
                vec![]
            }
            fn code_ranges(&self) -> Vec<(u64, u64)> {
                vec![(0x1000, 0x2000)]
            }
        }
        let insts = dispatch_seq(Op::Bgeu);
        assert_eq!(analyze(&insts, 6, &NoRo), None);
    }

    #[test]
    fn index_redefinition_between_check_and_dispatch_rejected() {
        let src = TableSource {
            table: vec![0x1100; 4],
        };
        let mut insts = dispatch_seq(Op::Bgeu);
        // Insert a redefinition of the index register after the guard.
        let mut redef = build::addi(Reg::x(10), Reg::x(10), 1);
        redef.address = 0x1008;
        insts.insert(2, redef);
        let at = insts.len() - 1;
        assert_eq!(analyze(&insts, at, &src), None);
    }

    fn rel_dispatch_seq() -> Vec<Instruction> {
        // Pattern B: bound check; slli idx,2; table addr; lw off; base; add; jalr.
        let mut v = vec![
            build::addi(Reg::x(5), Reg::X0, 4),                 // bound
            build::b_type(Op::Bgeu, Reg::x(10), Reg::x(5), 32), // guard
            build::i_type(Op::Slli, Reg::x(6), Reg::x(10), 2),
            build::lui(Reg::x(7), 0x9000),
            build::add(Reg::x(7), Reg::x(7), Reg::x(6)),
            build::lw(Reg::x(7), Reg::x(7), 0),
            build::lui(Reg::x(28), 0x1000),
            build::add(Reg::x(7), Reg::x(28), Reg::x(7)),
            build::jalr(Reg::X0, Reg::x(7), 0),
        ];
        let mut a = 0x1000u64;
        for i in &mut v {
            i.address = a;
            a += 4;
        }
        v
    }

    #[test]
    fn relative_offset_table_resolves() {
        // Offsets 0x100/0x110/0x120/0x130 from base 0x1000 (incl. a
        // negative-looking one exercised via sign extension elsewhere).
        let src = TableSource {
            table: vec![0x100, 0x110, 0x120, 0x130],
        };
        let insts = rel_dispatch_seq();
        let t = analyze(&insts, insts.len() - 1, &src).expect("relative table");
        assert_eq!(t, vec![0x1100, 0x1110, 0x1120, 0x1130]);
    }

    #[test]
    fn relative_table_with_negative_offsets() {
        // -16 as u32 → target base-16; base 0x1000... use 0x1800 base by
        // changing the lui? keep base 0x1000: entry -16 → 0x0FF0: outside
        // code (0x1000..0x2000) → analysis must reject.
        let src = TableSource {
            table: vec![(-16i32) as u32 as u64, 0x110, 0x120, 0x130],
        };
        let insts = rel_dispatch_seq();
        assert_eq!(analyze(&insts, insts.len() - 1, &src), None);
        // In-range negative offsets work when base is higher.
        let mut insts = rel_dispatch_seq();
        // lui x28, 0x1800 instead of 0x1000
        insts[6] = {
            let mut i = build::lui(Reg::x(28), 0x1800);
            i.address = 0x1018;
            i
        };
        let src = TableSource {
            table: vec![(-16i32) as u32 as u64, 0x10, 0x20, 0x30],
        };
        let t = analyze(&insts, insts.len() - 1, &src).expect("neg offsets");
        assert_eq!(t, vec![0x17F0, 0x1810, 0x1820, 0x1830]);
    }

    #[test]
    fn duplicate_targets_deduped() {
        let src = TableSource {
            table: vec![0x1100, 0x1100, 0x1120, 0x1120],
        };
        let insts = dispatch_seq(Op::Bltu);
        let t = analyze(&insts, 6, &src).unwrap();
        assert_eq!(t, vec![0x1100, 0x1120]);
    }
}
