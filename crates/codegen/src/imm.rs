//! Immediate materialisation (§3.2.5).
//!
//! RISC-V has no single "load 64-bit constant" instruction; values are
//! assembled from `lui` (upper 20 bits), `addi(w)` (12-bit signed chunks)
//! and `slli` shifts. The paper singles this out as error-prone because
//! each 12-bit chunk is *signed*: adding a chunk with bit 11 set borrows
//! from everything above it, so the remaining upper part must be
//! pre-compensated.

use rvdyn_isa::{Instruction, Op, Reg};

fn mk(op: Op) -> Instruction {
    Instruction::new(0, 0, 4, op)
}

fn addi(rd: Reg, rs1: Reg, imm: i64) -> Instruction {
    let mut i = mk(Op::Addi);
    i.rd = Some(rd);
    i.rs1 = Some(rs1);
    i.imm = imm;
    i
}

fn addiw(rd: Reg, rs1: Reg, imm: i64) -> Instruction {
    let mut i = mk(Op::Addiw);
    i.rd = Some(rd);
    i.rs1 = Some(rs1);
    i.imm = imm;
    i
}

fn lui(rd: Reg, imm: i64) -> Instruction {
    let mut i = mk(Op::Lui);
    i.rd = Some(rd);
    i.imm = imm;
    i
}

fn slli(rd: Reg, rs1: Reg, sh: i64) -> Instruction {
    let mut i = mk(Op::Slli);
    i.rd = Some(rd);
    i.rs1 = Some(rs1);
    i.imm = sh;
    i
}

/// Materialise `value` into `rd` using only `rd` as scratch.
///
/// Returns the (position-independent) instruction sequence. The sequence
/// is minimal for the common cases: 1 instruction for 12-bit values,
/// 2 for 32-bit, and the standard `lui`+chunked `slli`/`addi` ladder for
/// full 64-bit constants.
pub fn load_imm(rd: Reg, value: i64) -> Vec<Instruction> {
    let mut out = Vec::with_capacity(8);
    load_imm_with(rd, value, &mut |i| out.push(i));
    out
}

/// As [`load_imm`], handing each instruction of the sequence to `put` in
/// order instead of collecting them.
pub(crate) fn load_imm_with(rd: Reg, value: i64, put: &mut impl FnMut(Instruction)) {
    // 12-bit signed: single addi from x0.
    if (-(1 << 11)..(1 << 11)).contains(&value) {
        put(addi(rd, Reg::X0, value));
        return;
    }
    // 32-bit signed: lui + addiw.
    if value >= i32::MIN as i64 && value <= i32::MAX as i64 {
        let lo = (value << 52) >> 52; // sign-extended low 12
        let hi = (value.wrapping_sub(lo) as i32) as i64; // compensated upper 20
        if hi != 0 {
            put(lui(rd, hi));
            if lo != 0 {
                put(addiw(rd, rd, lo));
            }
        } else {
            put(addi(rd, Reg::X0, lo));
        }
        return;
    }
    // 64-bit: materialise the upper part, shift, add 12-bit chunks.
    // Split into (upper = value without the low 12 bits, compensated for
    // the signed chunk) and recurse.
    let lo = (value << 52) >> 52;
    let upper = value.wrapping_sub(lo) >> 12;
    load_imm_with(rd, upper, put);
    put(slli(rd, rd, 12));
    if lo != 0 {
        put(addi(rd, rd, lo));
    }
}

/// Compute the pair for a PC-relative reference: `auipc rd, HI` followed by
/// a `LO`-displacement instruction (`addi`/load/store/`jalr`), such that
/// `pc + sext(HI) + sext(LO) == target`.
///
/// Returns `(hi20, lo12)` where `hi20` is already shifted into U-format
/// position (a multiple of 0x1000), or `None` when the displacement is
/// outside `auipc` range — note the reachable window is
/// `[-2^31 - 2^11, 2^31 - 2^11)`, *not* a symmetric ±2 GiB, because the
/// low chunk is signed (§3.2.5's "not straightforward" immediates).
pub fn pcrel_parts(pc: u64, target: u64) -> Option<(i64, i64)> {
    let off = target.wrapping_sub(pc) as i64;
    let lo = (off << 52) >> 52;
    let hi = off.wrapping_sub(lo);
    debug_assert_eq!(hi & 0xFFF, 0);
    if hi < i32::MIN as i64 || hi > i32::MAX as i64 {
        return None;
    }
    Some((hi, lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn_isa::semantics::{eval_int, FlatMemory, IntState};

    /// Execute a materialisation sequence and return the resulting value.
    fn run(seq: &[Instruction], rd: Reg) -> u64 {
        let mut st = IntState::new(0);
        let mut mem = FlatMemory::new(0, 8);
        for i in seq {
            eval_int(i, &mut st, &mut mem);
        }
        st.get(rd)
    }

    fn check(v: i64) {
        let rd = Reg::x(10);
        let seq = load_imm(rd, v);
        assert_eq!(
            run(&seq, rd) as i64,
            v,
            "materialisation of {v:#x} wrong (seq: {seq:?})"
        );
        // All encodings must be valid.
        for i in &seq {
            rvdyn_isa::encode::encode32(i).unwrap();
        }
    }

    #[test]
    fn small_values_single_instruction() {
        for v in [0i64, 1, -1, 2047, -2048] {
            assert_eq!(load_imm(Reg::x(5), v).len(), 1);
            check(v);
        }
    }

    #[test]
    fn thirty_two_bit_values() {
        for v in [
            2048i64,
            -2049,
            0x12345,
            0x1234_5678,
            -0x1234_5678,
            i32::MAX as i64,
            i32::MIN as i64,
            0x7FFF_F800,
            0x7FFF_F7FF,
        ] {
            let n = load_imm(Reg::x(5), v).len();
            assert!(n <= 2, "{v:#x} took {n} instructions");
            check(v);
        }
    }

    #[test]
    fn sixty_four_bit_values() {
        for v in [
            0x1_0000_0000i64,
            i64::MAX,
            i64::MIN,
            0x1234_5678_9ABC_DEF0,
            -0x1234_5678_9ABC_DEF0,
            0x8000_0000_0000_0001u64 as i64,
            0xDEAD_BEEF_CAFE_F00Du64 as i64,
        ] {
            check(v);
        }
    }

    #[test]
    fn boundary_carries() {
        // Values whose low 12 bits have bit 11 set force the signed-chunk
        // compensation — the exact case the paper flags as error-prone.
        for v in [
            0x800i64,
            0xFFF,
            0x7FF_FFF,
            0x800_0800,
            -0x800,
            0xFFFF_F800u32 as i64,
        ] {
            check(v);
        }
    }

    #[test]
    fn pcrel_window_boundaries() {
        // The reachable window is asymmetric: [-2^31 - 2^11, 2^31 - 2^11),
        // because the low 12-bit chunk is signed. Pin all four edges
        // (these cover the proptest-regressions seed `pc = 0,
        // target = 2147481600`, i.e. off = 2^31 - 2^11).
        let hi_in = (1i64 << 31) - (1 << 11) - 1; // largest reachable
        let hi_out = (1i64 << 31) - (1 << 11); // first unreachable above
        let lo_in = -(1i64 << 31) - (1 << 11); // smallest reachable
        let lo_out = -(1i64 << 31) - (1 << 11) - 1; // first unreachable below
        for (off, expect_some) in [
            (hi_in, true),
            (hi_out, false),
            (lo_in, true),
            (lo_out, false),
        ] {
            let pc = 0x4000_0000_0000u64;
            let target = pc.wrapping_add(off as u64);
            match pcrel_parts(pc, target) {
                Some((hi, lo)) => {
                    assert!(expect_some, "off={off:#x} should be rejected");
                    assert_eq!(hi & 0xFFF, 0);
                    assert!((-2048..=2047).contains(&lo));
                    assert!((i32::MIN as i64..=i32::MAX as i64).contains(&hi));
                    assert_eq!(
                        pc.wrapping_add(hi as u64).wrapping_add(lo as u64),
                        target,
                        "off={off:#x}"
                    );
                }
                None => {
                    assert!(!expect_some, "off={off:#x} should be reachable");
                }
            }
        }
    }

    #[test]
    fn pcrel_parts_reconstruct_target() {
        for (pc, target) in [
            (0x10000u64, 0x10800u64),
            (0x10000, 0x0F800),
            (0x10000, 0x7FFF_FFFF),
            (0x7FFF_0000, 0x10),
            (0x10_0000, 0x10_0000),
        ] {
            let (hi, lo) = pcrel_parts(pc, target).unwrap();
            assert_eq!(hi % 0x1000, 0);
            assert!((-2048..=2047).contains(&lo));
            assert_eq!(
                pc.wrapping_add(hi as u64).wrapping_add(lo as u64),
                target,
                "pc={pc:#x} target={target:#x}"
            );
        }
    }
}
