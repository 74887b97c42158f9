//! The cycle cost model (DESIGN.md §5.4).
//!
//! The paper's numbers come from a 1.4 GHz SiFive P550, a triple-issue
//! out-of-order core. This model is a single-issue, additive
//! approximation of it: every retired instruction is charged the latency
//! of its class, one after another, so it cannot credit the P550 for
//! overlapping independent work (say, counter loads and stores under a
//! floating-point chain). "Seconds" are `cycles / freq_hz`. Absolute
//! values are not expected to match the paper's testbed — the *ratios*
//! between the base and instrumented runs (the table's overhead
//! percentages) are the reproduction target, and those depend only on
//! the instruction mix.

use rvdyn_isa::{Extension, Instruction, Op};

/// Per-class cycle weights.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Core clock in Hz (P550: 1.4 GHz).
    pub freq_hz: u64,
    /// Integer ALU op (add/shift/logic, LUI/AUIPC, fences).
    pub int_alu: u64,
    /// Integer or FP load.
    pub load: u64,
    /// Integer or FP store.
    pub store: u64,
    /// Conditional branch that is taken (pipeline redirect).
    pub branch_taken: u64,
    /// Conditional branch that falls through.
    pub branch_not_taken: u64,
    /// Unconditional jump (`jal`/`jalr`).
    pub jump: u64,
    /// Integer multiply family.
    pub mul: u64,
    /// Integer divide/remainder family.
    pub div: u64,
    /// FP arithmetic other than divide/sqrt (incl. FMA, compares, moves).
    pub fp_alu: u64,
    /// FP divide and square root.
    pub fp_div: u64,
    /// Atomic memory operation (`lr`/`sc`/`amo*`).
    pub amo: u64,
    /// `ecall` service cost (kernel round trip).
    pub syscall: u64,
    /// Cost of a trap-table redirect (SIGTRAP round trip on hardware).
    pub trap_redirect: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            freq_hz: 1_400_000_000,
            int_alu: 1,
            load: 3,
            store: 1,
            branch_taken: 3,
            branch_not_taken: 1,
            jump: 2,
            mul: 3,
            div: 20,
            fp_alu: 4,
            fp_div: 28,
            amo: 5,
            syscall: 600,
            trap_redirect: 2000,
        }
    }
}

impl CostModel {
    /// Cycles charged for one dynamic instance of `inst`.
    /// `taken` applies to conditional branches only.
    #[inline]
    pub fn cycles_for(&self, inst: &Instruction, taken: bool) -> u64 {
        use Op::*;
        match inst.op {
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                if taken {
                    self.branch_taken
                } else {
                    self.branch_not_taken
                }
            }
            Jal | Jalr => self.jump,
            Mul | Mulh | Mulhsu | Mulhu | Mulw => self.mul,
            Div | Divu | Rem | Remu | Divw | Divuw | Remw | Remuw => self.div,
            FdivS | FdivD | FsqrtS | FsqrtD => self.fp_div,
            Ecall => self.syscall,
            op if op.is_atomic() => self.amo,
            op if op.is_load() => self.load,
            op if op.is_store() => self.store,
            op if matches!(op.extension(), Extension::F | Extension::D) => self.fp_alu,
            _ => self.int_alu,
        }
    }

    /// Convert a cycle count to modelled seconds.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz as f64
    }

    /// Convert a cycle count to modelled nanoseconds.
    pub fn nanos(&self, cycles: u64) -> u64 {
        ((cycles as u128) * 1_000_000_000u128 / self.freq_hz as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn_isa::build;

    #[test]
    fn class_weights() {
        let m = CostModel::default();
        assert_eq!(
            m.cycles_for(
                &build::addi(rvdyn_isa::Reg::x(1), rvdyn_isa::Reg::x(1), 1),
                false
            ),
            1
        );
        assert_eq!(
            m.cycles_for(
                &build::ld(rvdyn_isa::Reg::x(1), rvdyn_isa::Reg::X2, 0),
                false
            ),
            3
        );
        let b = build::b_type(Op::Beq, rvdyn_isa::Reg::x(1), rvdyn_isa::Reg::x(2), 8);
        assert_eq!(m.cycles_for(&b, true), 3);
        assert_eq!(m.cycles_for(&b, false), 1);
        let fd = build::f_type(
            Op::FdivD,
            rvdyn_isa::Reg::f(0),
            rvdyn_isa::Reg::f(1),
            rvdyn_isa::Reg::f(2),
        );
        assert_eq!(m.cycles_for(&fd, false), 28);
    }

    #[test]
    fn time_conversion() {
        let m = CostModel::default();
        assert_eq!(m.nanos(1_400_000_000), 1_000_000_000);
        assert!((m.seconds(1_400_000_000) - 1.0).abs() < 1e-12);
        assert_eq!(m.nanos(14), 10);
    }
}
