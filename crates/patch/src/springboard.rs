//! Springboard planning (§3.1.2).
//!
//! A springboard overwrites the first bytes of original code with a jump
//! to relocated code. Compressed instructions make this delicate: the
//! overwritten region may be as small as 2 bytes, and `c.j` reaches only
//! ±2 KiB. The planner picks the cheapest form that fits both the
//! available byte budget and the displacement, "ultimately resorting to
//! the inefficient 2-byte trap instructions in the worst case".
//!
//! Where springboards go is fixed by the CFG alone
//! ([`springboard_sites`]), and none is longer than
//! [`MAX_SPRINGBOARD_LEN`], so code that must stay clear of the bytes a
//! springboard may tear — rewritten call sites, the memory tracer's runs
//! — reads both from here.

use rvdyn_isa::encode::{compress, encode32};
use rvdyn_isa::{build, Extension, IsaProfile, Reg, RegSet};
use rvdyn_parse::{EdgeKind, Function};

/// The longest springboard, `auipc; jalr`, in bytes: a springboard
/// tears at most this much original code from its site.
pub const MAX_SPRINGBOARD_LEN: u64 = 8;

/// Where instrumenting `f` plants springboards, in planting order: its
/// entry, then each indirect-jump target that is one of its blocks (in
/// block and edge order, repeats kept), where a jump table re-enters
/// original code. A trap redirect can enter any of them past its first
/// instruction.
pub fn springboard_sites(f: &Function) -> impl Iterator<Item = u64> + '_ {
    let targets = f
        .blocks
        .values()
        .flat_map(|b| b.edges)
        .filter(|e| e.kind == EdgeKind::IndirectJump)
        .filter_map(|e| e.target)
        .filter(|&t| f.blocks.contains_key(t));
    std::iter::once(f.entry).chain(targets)
}

/// The chosen springboard form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpringboardKind {
    /// 2-byte compressed jump (±2 KiB, requires the C extension).
    CompressedJump,
    /// 4-byte `jal x0` (±1 MiB).
    Jal,
    /// 8-byte `auipc scratch; jalr x0, lo(scratch)` (±2 GiB). Clobbers
    /// `scratch`, which must be dead at the patch site.
    AuipcJalr(Reg),
    /// 2-byte `c.ebreak` / 4-byte `ebreak` trap, resolved through the trap
    /// table at run time — the worst case.
    Trap,
}

/// Histogram of springboard strategies chosen across one instrumentation
/// pass — the "springboard strategy" diagnostic the paper's worst-case
/// discussion (§3.1.2) calls for: traps should be rare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpringboardStats {
    pub compressed_jump: usize,
    pub jal: usize,
    pub auipc_jalr: usize,
    pub trap: usize,
}

impl SpringboardStats {
    pub fn record(&mut self, kind: &SpringboardKind) {
        match kind {
            SpringboardKind::CompressedJump => self.compressed_jump += 1,
            SpringboardKind::Jal => self.jal += 1,
            SpringboardKind::AuipcJalr(_) => self.auipc_jalr += 1,
            SpringboardKind::Trap => self.trap += 1,
        }
    }

    pub fn total(&self) -> usize {
        self.compressed_jump + self.jal + self.auipc_jalr + self.trap
    }
}

/// A planned springboard: its form and encoded bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Springboard {
    pub kind: SpringboardKind,
    pub bytes: Vec<u8>,
    /// If `kind == Trap`, the (from, to) pair the trap table must contain.
    pub trap_entry: Option<(u64, u64)>,
}

impl Springboard {
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Plan a springboard at `from` jumping to `to`, with `avail` bytes of
/// overwritable code, targeting `profile`, with `dead` registers free.
pub fn plan_springboard(
    from: u64,
    to: u64,
    avail: usize,
    profile: IsaProfile,
    dead: RegSet,
) -> Springboard {
    let delta = to.wrapping_sub(from) as i64;

    // 1. c.j: ±2 KiB, 2 bytes, C extension required.
    if profile.has(Extension::C) && avail >= 2 && (-2048..2048).contains(&delta) {
        let j = build::jal(Reg::X0, delta);
        if let Some(c) = compress(&j) {
            return Springboard {
                kind: SpringboardKind::CompressedJump,
                bytes: c.to_le_bytes().to_vec(),
                trap_entry: None,
            };
        }
    }

    // 2. jal x0: ±1 MiB, 4 bytes.
    if avail >= 4 && (-(1 << 20)..(1 << 20)).contains(&delta) {
        let j = build::jal(Reg::X0, delta);
        if let Ok(raw) = encode32(&j) {
            return Springboard {
                kind: SpringboardKind::Jal,
                bytes: raw.to_le_bytes().to_vec(),
                trap_entry: None,
            };
        }
    }

    // 3. auipc + jalr: ±2 GiB, 8 bytes, needs a dead scratch register.
    if avail >= 8 {
        // Prefer temporaries.
        let scratch = [5u8, 6, 7, 28, 29, 30, 31]
            .iter()
            .map(|&n| Reg::x(n))
            .find(|&r| dead.contains(r));
        if let Some(s) = scratch {
            if let Some((hi, lo)) = rvdyn_codegen::imm::pcrel_parts(from, to) {
                let a = build::auipc(s, hi);
                let j = build::jalr(Reg::X0, s, lo);
                // pcrel_parts guarantees encodable hi/lo; if either still
                // refuses to encode, fall through to the trap plan rather
                // than abort.
                if let (Ok(ra), Ok(rj)) = (encode32(&a), encode32(&j)) {
                    let mut bytes = Vec::with_capacity(8);
                    bytes.extend_from_slice(&ra.to_le_bytes());
                    bytes.extend_from_slice(&rj.to_le_bytes());
                    return Springboard {
                        kind: SpringboardKind::AuipcJalr(s),
                        bytes,
                        trap_entry: None,
                    };
                }
            }
        }
    }

    // 4. Trap (the paper's worst case, "fortunately, does not occur
    //    often"): c.ebreak if 2 bytes and C, else ebreak. The spec
    //    constants back up the encoder for these fixed instructions.
    let bytes = if profile.has(Extension::C) && avail < 4 {
        compress(&build::ebreak())
            .unwrap_or(0x9002) // c.ebreak
            .to_le_bytes()
            .to_vec()
    } else {
        encode32(&build::ebreak())
            .unwrap_or(0x0010_0073) // ebreak
            .to_le_bytes()
            .to_vec()
    };
    Springboard {
        kind: SpringboardKind::Trap,
        bytes,
        trap_entry: Some((from, to)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dead_all() -> RegSet {
        RegSet::ALL_GPR
    }

    #[test]
    fn short_hop_uses_compressed_jump() {
        let s = plan_springboard(0x1000, 0x1400, 8, IsaProfile::rv64gc(), dead_all());
        assert_eq!(s.kind, SpringboardKind::CompressedJump);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn no_c_extension_skips_compressed() {
        let s = plan_springboard(0x1000, 0x1400, 8, IsaProfile::rv64g(), dead_all());
        assert_eq!(s.kind, SpringboardKind::Jal);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn medium_hop_uses_jal() {
        let s = plan_springboard(0x1_0000, 0x8_0000, 8, IsaProfile::rv64gc(), dead_all());
        assert_eq!(s.kind, SpringboardKind::Jal);
    }

    #[test]
    fn far_hop_uses_auipc_pair() {
        let s = plan_springboard(0x1_0000, 0x4000_0000, 8, IsaProfile::rv64gc(), dead_all());
        assert!(matches!(s.kind, SpringboardKind::AuipcJalr(_)));
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn far_hop_without_dead_registers_traps() {
        let s = plan_springboard(
            0x1_0000,
            0x4000_0000,
            8,
            IsaProfile::rv64gc(),
            RegSet::empty(),
        );
        assert_eq!(s.kind, SpringboardKind::Trap);
        assert_eq!(s.trap_entry, Some((0x1_0000, 0x4000_0000)));
    }

    #[test]
    fn tiny_function_traps() {
        // §3.1.2: "functions that are shorter than four bytes" — only a
        // 2-byte budget and an out-of-c.j-range target.
        let s = plan_springboard(0x1_0000, 0x8_0000, 2, IsaProfile::rv64gc(), dead_all());
        assert_eq!(s.kind, SpringboardKind::Trap);
        assert_eq!(s.len(), 2, "must fit the 2-byte budget");
    }

    /// Experiment A2: the shortest jump that reaches wins. c.j reaches
    /// [-2048, +2046] and jal [-2^20, +2^20 - 2]; both ranges are half
    /// open, so +2048 and +2^20 fall to the next rung.
    #[test]
    fn ladder_picks_the_shortest_jump_that_reaches() {
        use SpringboardKind::{CompressedJump, Jal};
        let far = || SpringboardKind::AuipcJalr(Reg::x(5));
        let ladder = [
            (1 << 8, CompressedJump),
            (1 << 11, Jal),
            (1 << 12, Jal),
            (1 << 16, Jal),
            (1 << 20, far()),
            (1 << 21, far()),
            (1 << 24, far()),
            (1 << 30, far()),
        ];
        let edges = [
            (2046, CompressedJump),
            (-2048, CompressedJump),
            (2048, Jal),
            (-2050, Jal),
            ((1 << 20) - 2, Jal),
            (-(1 << 20), Jal),
        ];
        let from = 0x4000_0000u64;
        for (delta, kind) in ladder.into_iter().chain(edges) {
            let to = from.wrapping_add_signed(delta);
            let s = plan_springboard(from, to, 8, IsaProfile::rv64gc(), dead_all());
            assert_eq!(s.kind, kind, "displacement {delta:+}");
        }
    }

    #[test]
    fn springboard_decodes_to_jump_with_right_target() {
        for (from, to) in [(0x1000u64, 0x1800u64), (0x1_0000, 0x9_0000)] {
            let s = plan_springboard(from, to, 8, IsaProfile::rv64gc(), dead_all());
            let i = rvdyn_isa::decode(&s.bytes, from).unwrap();
            match i.control_flow() {
                rvdyn_isa::ControlFlow::DirectJump { target, link } => {
                    assert_eq!(target, to);
                    assert_eq!(link, Reg::X0);
                }
                cf => panic!("unexpected {cf:?}"),
            }
        }
    }

    #[test]
    fn auipc_pair_computes_target() {
        use rvdyn_isa::semantics::{eval_int, FlatMemory, IntState};
        let (from, to) = (0x1_0000u64, 0x4000_0800u64);
        let s = plan_springboard(from, to, 8, IsaProfile::rv64gc(), dead_all());
        let i1 = rvdyn_isa::decode(&s.bytes[..4], from).unwrap();
        let i2 = rvdyn_isa::decode(&s.bytes[4..], from + 4).unwrap();
        let mut st = IntState::new(from);
        let mut mem = FlatMemory::new(0, 8);
        st.pc = from;
        eval_int(&i1, &mut st, &mut mem);
        st.pc = from + 4;
        match eval_int(&i2, &mut st, &mut mem) {
            rvdyn_isa::semantics::EvalOutcome::Jump(t) => assert_eq!(t, to),
            o => panic!("{o:?}"),
        }
    }
}
