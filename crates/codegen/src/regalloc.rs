//! Scratch-register allocation for instrumentation code (§4.3).
//!
//! "When instrumentation needs registers, we attempt to use dead registers
//! (ones that do not contain values used later in the execution). If such
//! registers are available, spilling the contents can be avoided." — this
//! is the optimisation the paper credits for RISC-V's 15.3% per-block
//! overhead vs x86's 66.9%.
//!
//! The allocator receives the dead-register set at the instrumentation
//! point from DataflowAPI's liveness analysis and hands scratch registers
//! to the emitter. When the dead pool is exhausted — or in
//! [`RegAllocMode::ForceSpill`], the ablation mode used by benchmark A1 —
//! registers are spilled to a small stack frame the trampoline creates.

use rvdyn_isa::{Instruction, Op, Reg, RegSet};

/// Allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegAllocMode {
    /// Prefer dead registers; spill only when the pool runs dry.
    DeadRegisters,
    /// Ignore liveness and spill every scratch register (models the
    /// pre-optimisation x86 Dyninst behaviour; ablation A1).
    ForceSpill,
}

/// The per-point scratch register allocator.
#[derive(Debug, Clone)]
pub struct RegAllocator {
    /// Registers free for use without saving.
    dead_pool: Vec<Reg>,
    /// Registers handed out that must be spilled/restored.
    spilled: Vec<Reg>,
    /// Registers currently handed out.
    in_use: Vec<Reg>,
    /// Scratch grants satisfied from the dead pool (zero-cost path).
    dead_grants: usize,
    /// Registers never handed out (see [`RegAllocator::reserve`]).
    reserved: RegSet,
    mode: RegAllocMode,
}

/// Candidate scratch registers, in preference order: temporaries first,
/// then argument registers. `ra`/`sp`/`gp`/`tp` are never used as scratch.
pub const CANDIDATES: [u8; 14] = [5, 6, 7, 28, 29, 30, 31, 10, 11, 12, 13, 14, 15, 16];

/// The most registers one snippet can spill: every scratch candidate.
pub const MAX_SPILLS: usize = CANDIDATES.len();

/// Bytes of a stack frame holding `slots` 8-byte registers, 16-byte
/// aligned per the RISC-V ABI.
pub const fn frame_size(slots: usize) -> i64 {
    ((slots * 8 + 15) & !15) as i64
}

impl RegAllocator {
    /// Build an allocator for a point where `dead` registers are free
    /// (as computed by liveness; pass `RegSet::EMPTY` when liveness is
    /// unavailable — e.g. analysis of a gap region — to force spills).
    pub fn new(dead: RegSet, mode: RegAllocMode) -> RegAllocator {
        let dead_pool = match mode {
            RegAllocMode::DeadRegisters => CANDIDATES
                .iter()
                .map(|&n| Reg::x(n))
                .filter(|r| dead.contains(*r))
                .collect(),
            RegAllocMode::ForceSpill => Vec::new(),
        };
        RegAllocator {
            dead_pool,
            spilled: Vec::new(),
            in_use: Vec::new(),
            dead_grants: 0,
            reserved: RegSet::EMPTY,
            mode,
        }
    }

    /// Never hand out `regs`: the mutatee registers a snippet reads or
    /// writes by name, which scratch use (or a spill slot's restore)
    /// would otherwise clobber.
    pub fn reserve(&mut self, regs: RegSet) {
        self.reserved = self.reserved.union(regs);
        self.dead_pool.retain(|r| !regs.contains(*r));
    }

    /// Is `r` a scratch register currently handed out?
    pub fn holds(&self, r: Reg) -> bool {
        self.in_use.contains(&r)
    }

    /// Number of registers that had to be spilled so far.
    pub fn spill_count(&self) -> usize {
        self.spilled.len()
    }

    /// Number of scratch grants satisfied from the dead pool so far (the
    /// §4.3 zero-cost path; the complement of [`Self::spill_count`]).
    pub fn dead_grants(&self) -> usize {
        self.dead_grants
    }

    /// Registers currently handed out (live snippet temporaries). The
    /// emitter preserves these across snippet-internal function calls.
    pub fn in_use(&self) -> Vec<Reg> {
        self.in_use.clone()
    }

    pub fn mode(&self) -> RegAllocMode {
        self.mode
    }

    /// Acquire a scratch register. Dead registers come for free; otherwise
    /// the register is recorded for spilling and the trampoline prologue /
    /// epilogue (from [`RegAllocator::frame`]) saves and restores it.
    pub fn acquire(&mut self) -> Option<Reg> {
        if let Some(r) = self.dead_pool.pop() {
            self.in_use.push(r);
            self.dead_grants += 1;
            return Some(r);
        }
        // Pick the next candidate not already handed out: one spilled
        // earlier and since released is already saved, so reuse it.
        for &n in &CANDIDATES {
            let r = Reg::x(n);
            if !self.in_use.contains(&r) && !self.reserved.contains(r) {
                if !self.spilled.contains(&r) {
                    self.spilled.push(r);
                }
                self.in_use.push(r);
                return Some(r);
            }
        }
        None
    }

    /// Release a scratch register back to the allocator.
    pub fn release(&mut self, r: Reg) {
        if let Some(pos) = self.in_use.iter().position(|&x| x == r) {
            self.in_use.remove(pos);
            if !self.spilled.contains(&r) {
                self.dead_pool.push(r);
            }
        }
    }

    /// Bytes the spill prologue moves `sp` down by (0 without spills).
    pub fn frame_bytes(&self) -> i64 {
        frame_size(self.spilled.len())
    }

    /// The spill frame: `(prologue, epilogue)` instruction sequences that
    /// save and restore every spilled register on a private stack frame.
    /// Empty when nothing was spilled — the zero-cost dead-register path.
    pub fn frame(&self) -> (Vec<Instruction>, Vec<Instruction>) {
        if self.spilled.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let frame = self.frame_bytes();
        let mut pro = Vec::with_capacity(self.spilled.len() + 1);
        let mut epi = Vec::with_capacity(self.spilled.len() + 1);
        let mut addi = Instruction::new(0, 0, 4, Op::Addi);
        addi.rd = Some(Reg::X2);
        addi.rs1 = Some(Reg::X2);
        addi.imm = -frame;
        pro.push(addi);
        for (i, &r) in self.spilled.iter().enumerate() {
            let mut sd = Instruction::new(0, 0, 4, Op::Sd);
            sd.rs1 = Some(Reg::X2);
            sd.rs2 = Some(r);
            sd.imm = (i * 8) as i64;
            pro.push(sd);
            let mut ld = Instruction::new(0, 0, 4, Op::Ld);
            ld.rd = Some(r);
            ld.rs1 = Some(Reg::X2);
            ld.imm = (i * 8) as i64;
            epi.push(ld);
        }
        let mut undo = Instruction::new(0, 0, 4, Op::Addi);
        undo.rd = Some(Reg::X2);
        undo.rs1 = Some(Reg::X2);
        undo.imm = frame;
        epi.push(undo);
        (pro, epi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_registers_cost_nothing() {
        let dead = RegSet::of(&[Reg::x(5), Reg::x(6), Reg::x(7)]);
        let mut a = RegAllocator::new(dead, RegAllocMode::DeadRegisters);
        let r1 = a.acquire().unwrap();
        let r2 = a.acquire().unwrap();
        assert!(dead.contains(r1) && dead.contains(r2));
        assert_eq!(a.spill_count(), 0);
        let (pro, epi) = a.frame();
        assert!(pro.is_empty() && epi.is_empty());
    }

    #[test]
    fn exhausted_pool_spills() {
        let dead = RegSet::of(&[Reg::x(5)]);
        let mut a = RegAllocator::new(dead, RegAllocMode::DeadRegisters);
        let _r1 = a.acquire().unwrap();
        let r2 = a.acquire().unwrap(); // must spill
        assert_eq!(a.spill_count(), 1);
        assert!(!dead.contains(r2));
        let (pro, epi) = a.frame();
        // addi + 1 sd / 1 ld + addi
        assert_eq!(pro.len(), 2);
        assert_eq!(epi.len(), 2);
        assert_eq!(pro[0].op, Op::Addi);
        assert_eq!(pro[0].imm, -16);
        assert_eq!(epi[1].imm, 16);
    }

    #[test]
    fn force_spill_spills_everything() {
        let dead = RegSet::ALL_GPR;
        let mut a = RegAllocator::new(dead, RegAllocMode::ForceSpill);
        a.acquire().unwrap();
        a.acquire().unwrap();
        assert_eq!(a.spill_count(), 2);
    }

    #[test]
    fn release_and_reuse() {
        let dead = RegSet::of(&[Reg::x(5)]);
        let mut a = RegAllocator::new(dead, RegAllocMode::DeadRegisters);
        let r = a.acquire().unwrap();
        a.release(r);
        let r2 = a.acquire().unwrap();
        assert_eq!(r, r2);
        assert_eq!(a.spill_count(), 0);
    }

    #[test]
    fn released_spill_is_reused() {
        let mut a = RegAllocator::new(RegSet::ALL_GPR, RegAllocMode::ForceSpill);
        for _ in 0..3 * CANDIDATES.len() {
            let r = a.acquire().unwrap();
            a.release(r);
        }
        assert_eq!(a.spill_count(), 1);
    }

    #[test]
    fn reserved_registers_are_never_handed_out() {
        let named = RegSet::of(&[Reg::x(5), Reg::x(10)]);
        for mode in [RegAllocMode::DeadRegisters, RegAllocMode::ForceSpill] {
            let mut a = RegAllocator::new(RegSet::ALL_GPR, mode);
            a.reserve(named);
            let mut n = 0;
            while let Some(r) = a.acquire() {
                assert!(!named.contains(r), "{mode:?} handed out reserved {r:?}");
                n += 1;
            }
            assert_eq!(n, CANDIDATES.len() - 2, "{mode:?}");
        }
    }

    #[test]
    fn never_hands_out_duplicates() {
        let mut a = RegAllocator::new(RegSet::EMPTY, RegAllocMode::DeadRegisters);
        let mut seen = std::collections::HashSet::new();
        while let Some(r) = a.acquire() {
            assert!(seen.insert(r), "duplicate scratch {r:?}");
        }
        assert_eq!(seen.len(), CANDIDATES.len());
    }
}
