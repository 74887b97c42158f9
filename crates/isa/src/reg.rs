//! Register model: 32 integer registers, 32 floating-point registers, and
//! dense register sets used by the liveness analysis in DataflowAPI.

use std::fmt;

/// Register class: integer (`x`) or floating-point (`f`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// General-purpose integer registers `x0`–`x31`.
    Gpr,
    /// Floating-point registers `f0`–`f31`.
    Fpr,
}

/// A RISC-V architectural register.
///
/// Encoded as a single index: `0..32` are the integer registers, `32..64`
/// the floating-point registers. This dense encoding makes [`RegSet`] a
/// single `u64` bitset, which keeps liveness analysis allocation-free.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    pub const X0: Reg = Reg(0);
    pub const X1: Reg = Reg(1);
    pub const X2: Reg = Reg(2);
    pub const X5: Reg = Reg(5);
    pub const X8: Reg = Reg(8);
    pub const X10: Reg = Reg(10);

    /// Integer register `x{n}`. Panics if `n >= 32`.
    #[inline]
    pub const fn x(n: u8) -> Reg {
        assert!(n < 32, "GPR index out of range");
        Reg(n)
    }

    /// Floating-point register `f{n}`. Panics if `n >= 32`.
    #[inline]
    pub const fn f(n: u8) -> Reg {
        assert!(n < 32, "FPR index out of range");
        Reg(32 + n)
    }

    /// Dense index in `0..64` (see [`RegSet`]).
    #[inline]
    pub const fn index(self) -> u8 {
        self.0
    }

    /// Construct from a dense index produced by [`Reg::index`].
    #[inline]
    pub const fn from_index(i: u8) -> Reg {
        assert!(i < 64, "register index out of range");
        Reg(i)
    }

    /// Register number within its class (`0..32`).
    #[inline]
    pub const fn num(self) -> u8 {
        self.0 & 31
    }

    #[inline]
    pub const fn class(self) -> RegClass {
        if self.0 < 32 {
            RegClass::Gpr
        } else {
            RegClass::Fpr
        }
    }

    /// True for `x0`, the hard-wired zero register.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// ABI mnemonic (`ra`, `sp`, `a0`, `fs3`, ...).
    pub fn abi_name(self) -> &'static str {
        const X: [&str; 32] = [
            "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3",
            "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
            "t3", "t4", "t5", "t6",
        ];
        const F: [&str; 32] = [
            "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1", "fa0", "fa1",
            "fa2", "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7",
            "fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
        ];
        match self.class() {
            RegClass::Gpr => X[self.num() as usize],
            RegClass::Fpr => F[self.num() as usize],
        }
    }

    /// True if this GPR is callee-saved under the standard calling convention
    /// (`sp`, `s0`–`s11`). Used by stack walking and codegen.
    pub fn is_callee_saved(self) -> bool {
        match self.class() {
            RegClass::Gpr => {
                matches!(self.num(), 2 | 8 | 9 | 18..=27)
            }
            RegClass::Fpr => matches!(self.num(), 8 | 9 | 18..=27),
        }
    }

    /// True if this register is caller-saved (temporaries and argument
    /// registers) — the pool dead-register allocation draws from first.
    pub fn is_caller_saved(self) -> bool {
        !self.is_callee_saved() && !self.is_zero()
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            RegClass::Gpr => write!(f, "x{}", self.num()),
            RegClass::Fpr => write!(f, "f{}", self.num()),
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

/// A set of registers as a 64-bit bitset (bits `0..32` GPRs, `32..64` FPRs).
///
/// All set operations are branch-free; DataflowAPI's liveness fixpoint
/// iterates these by the million.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegSet(pub u64);

impl RegSet {
    pub const EMPTY: RegSet = RegSet(0);
    /// All registers, both classes. Note `x0` is deliberately excluded: it
    /// can be neither live nor dead in any useful sense.
    pub const ALL: RegSet = RegSet(!1u64);
    /// All integer registers except `x0`.
    pub const ALL_GPR: RegSet = RegSet(0xFFFF_FFFE);
    /// All floating-point registers.
    pub const ALL_FPR: RegSet = RegSet(0xFFFF_FFFF_0000_0000);

    #[inline]
    pub const fn empty() -> RegSet {
        RegSet(0)
    }

    #[inline]
    pub fn of(regs: &[Reg]) -> RegSet {
        let mut s = RegSet::empty();
        for &r in regs {
            s.insert(r);
        }
        s
    }

    #[inline]
    pub fn insert(&mut self, r: Reg) {
        // x0 never participates: writes to it are discarded, reads yield 0.
        if !r.is_zero() {
            self.0 |= 1u64 << r.index();
        }
    }

    #[inline]
    pub fn remove(&mut self, r: Reg) {
        self.0 &= !(1u64 << r.index());
    }

    #[inline]
    pub const fn contains(self, r: Reg) -> bool {
        self.0 & (1u64 << r.index()) != 0
    }

    #[inline]
    pub const fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    #[inline]
    pub const fn intersect(self, other: RegSet) -> RegSet {
        RegSet(self.0 & other.0)
    }

    #[inline]
    pub const fn minus(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    #[inline]
    pub const fn complement(self) -> RegSet {
        RegSet(!self.0 & !1)
    }

    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub const fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterate the members in ascending dense-index order.
    pub fn iter(self) -> impl Iterator<Item = Reg> + Clone {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                Some(Reg::from_index(i))
            }
        })
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<T: IntoIterator<Item = Reg>>(iter: T) -> Self {
        let mut s = RegSet::empty();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_names_match_spec() {
        assert_eq!(Reg::x(0).abi_name(), "zero");
        assert_eq!(Reg::x(1).abi_name(), "ra");
        assert_eq!(Reg::x(2).abi_name(), "sp");
        assert_eq!(Reg::x(8).abi_name(), "s0");
        assert_eq!(Reg::x(10).abi_name(), "a0");
        assert_eq!(Reg::x(31).abi_name(), "t6");
        assert_eq!(Reg::f(10).abi_name(), "fa0");
        assert_eq!(Reg::f(31).abi_name(), "ft11");
    }

    #[test]
    fn dense_index_round_trip() {
        for i in 0..64u8 {
            let r = Reg::from_index(i);
            assert_eq!(r.index(), i);
            if i < 32 {
                assert_eq!(r.class(), RegClass::Gpr);
                assert_eq!(r.num(), i);
            } else {
                assert_eq!(r.class(), RegClass::Fpr);
                assert_eq!(r.num(), i - 32);
            }
        }
    }

    #[test]
    fn regset_excludes_x0() {
        let mut s = RegSet::empty();
        s.insert(Reg::x(0));
        assert!(s.is_empty());
        assert!(!RegSet::ALL.contains(Reg::x(0)));
    }

    #[test]
    fn regset_ops() {
        let a = RegSet::of(&[Reg::x(1), Reg::x(5), Reg::f(0)]);
        let b = RegSet::of(&[Reg::x(5), Reg::f(1)]);
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersect(b).len(), 1);
        assert!(a.intersect(b).contains(Reg::x(5)));
        assert_eq!(a.minus(b).len(), 2);
        let members: Vec<Reg> = a.iter().collect();
        assert_eq!(members, vec![Reg::x(1), Reg::x(5), Reg::f(0)]);
    }

    #[test]
    fn callee_saved_classification() {
        assert!(Reg::x(2).is_callee_saved()); // sp
        assert!(Reg::x(8).is_callee_saved()); // s0
        assert!(Reg::x(18).is_callee_saved()); // s2
        assert!(!Reg::x(10).is_callee_saved()); // a0
        assert!(!Reg::x(5).is_callee_saved()); // t0
        assert!(Reg::f(9).is_callee_saved()); // fs1
        assert!(!Reg::f(0).is_callee_saved()); // ft0
    }

    #[test]
    fn complement_excludes_x0() {
        let s = RegSet::of(&[Reg::x(1)]);
        let c = s.complement();
        assert!(!c.contains(Reg::x(0)));
        assert!(!c.contains(Reg::x(1)));
        assert!(c.contains(Reg::x(2)));
        assert_eq!(c.len(), 62);
    }
}
