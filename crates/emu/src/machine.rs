//! The emulated RV64GC hart: architectural state, the fetch/step
//! interpreter loop, its syscall layer and the debug interface.
//!
//! Instruction *semantics* live in `crate::exec` (`Machine::exec`) and
//! are shared by both execution engines; the translation-cached engine —
//! decoded basic blocks, one dispatcher over the code map, precise
//! invalidation — lives in [`crate::translate`]. Which engine
//! [`Machine::run`] uses is selected by [`Machine::engine`]
//! ([`EmuEngine`], default from the `RVDYN_EMU` environment variable).
//! Both engines are bit-identical in architectural state *and* in the
//! cycle cost model; see `docs/EMULATOR.md` for the written contract.

use crate::codemap::CodeMap;
use crate::cost::CostModel;
use crate::memory::{MemFault, Memory};
use crate::translate::{EmuEngine, EmuEvent, TranslationCache};
use rvdyn_isa::decode::decode;
use rvdyn_isa::{DecodeError, Instruction};

pub use rvdyn_isa::Reg;

/// Linux RISC-V syscall number for `exit`.
pub const EXIT_SYSCALL: u64 = 93;

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program called `exit(code)`.
    Exited(i64),
    /// An `ebreak` executed at this pc (pc is *not* advanced — the
    /// ptrace-like contract ProcControlAPI expects).
    Break(u64),
    /// Undecodable instruction bytes at pc.
    IllegalInstruction(u64),
    /// A data access faulted.
    MemFault {
        /// pc of the faulting instruction.
        pc: u64,
        /// The faulting data address.
        addr: u64,
        /// True for a store, false for a load.
        write: bool,
    },
    /// An instruction fetch faulted.
    FetchFault {
        /// The unfetchable pc.
        pc: u64,
    },
    /// The configured fuel (max instruction count) ran out.
    FuelExhausted,
    /// The translation cache's coherence check failed: a cached block's
    /// source bytes changed without an invalidation (only possible when
    /// text is mutated behind the debug interface, e.g. by poking
    /// [`Machine::mem`] directly). Raised only when
    /// [`Machine::verify_translations`] is armed.
    CacheIncoherent {
        /// Entry pc of the stale cached block.
        pc: u64,
    },
    /// The modelled cycle counter reached [`Machine::stop_at_cycles`].
    /// The stop lands on an instruction boundary *before* executing the
    /// instruction at `pc`, on either engine at exactly the same pc —
    /// the sampling-profiler interrupt (see `rvdyn::tools::profile`).
    CycleLimit {
        /// pc of the next (unexecuted) instruction.
        pc: u64,
    },
}

impl StopReason {
    /// Stable lower-case label for the exit reason (telemetry / JSON).
    pub fn label(&self) -> &'static str {
        match self {
            StopReason::Exited(_) => "exited",
            StopReason::Break(_) => "break",
            StopReason::IllegalInstruction(_) => "illegal-instruction",
            StopReason::MemFault { .. } => "mem-fault",
            StopReason::FetchFault { .. } => "fetch-fault",
            StopReason::FuelExhausted => "fuel-exhausted",
            StopReason::CacheIncoherent { .. } => "cache-incoherent",
            StopReason::CycleLimit { .. } => "cycle-limit",
        }
    }
}

/// One memory access recorded by the interpreter-side oracle
/// ([`Machine::arm_mem_oracle`]): the ground truth a memory-access
/// tracer's instrumentation output is differenced against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// pc of the load/store instruction.
    pub pc: u64,
    /// Effective data address.
    pub addr: u64,
    /// Access width in bytes (1, 2, 4 or 8).
    pub len: u8,
    /// True for a store, false for a load.
    pub is_store: bool,
}

/// The emulated machine.
pub struct Machine {
    /// Program counter.
    pub pc: u64,
    /// Integer registers; `gpr[0]` (x0) is kept zero by construction.
    pub gpr: [u64; 32],
    /// FP registers as raw bits (f32 values NaN-boxed).
    pub fpr: [u64; 32],
    /// Floating-point control/status register (fflags + frm).
    pub fcsr: u64,
    /// The process address space.
    pub mem: Memory,
    /// The cycle cost model both engines charge identically.
    pub cost: CostModel,
    /// Retired instruction count.
    pub icount: u64,
    /// Modelled cycle count.
    pub cycles: u64,
    /// Bytes the program wrote to fd 1/2.
    pub stdout: Vec<u8>,
    /// Optional execution budget (instructions).
    pub fuel: Option<u64>,
    /// Optional cycle-count interrupt: once [`Machine::cycles`] reaches
    /// this value, execution stops with [`StopReason::CycleLimit`]
    /// *before* the next instruction executes. Both engines stop at the
    /// exact same pc and cycle count (the cached engine falls back to
    /// single-stepping near the edge, mirroring its fuel-edge rule).
    /// Re-arm with a larger value to keep sampling; the controller owns
    /// the cadence.
    pub stop_at_cycles: Option<u64>,
    /// Interpreter-side memory-op oracle: when armed, every load/store
    /// the *program* performs (excluding atomics and syscall-internal
    /// traffic) is appended here. See [`Machine::arm_mem_oracle`].
    pub(crate) mem_oracle: Option<Vec<MemOp>>,
    /// Interpreter-side shadow call stack: return addresses pushed by
    /// `jal`/`jalr` linking x1/x5 and popped by `jalr x0` through
    /// x1/x5. See [`Machine::arm_call_oracle`].
    pub(crate) call_oracle: Option<Vec<u64>>,
    /// Dynamic count of taken control transfers (diagnostics: the number
    /// of basic-block entries is `taken_transfers + fallthroughs`).
    pub taken_transfers: u64,
    /// Which execution engine [`Machine::run`] uses. Defaults from the
    /// `RVDYN_EMU` environment variable (see [`EmuEngine::from_env`]);
    /// [`Machine::step`] is always the interpreter.
    pub engine: EmuEngine,
    /// When set, the cached engine re-checks every cached block's source
    /// bytes on entry and stops with [`StopReason::CacheIncoherent`] on a
    /// mismatch. Off by default (it re-reads text per block entry).
    pub verify_translations: bool,
    /// Trap-table redirects: `ebreak` at a key address transfers control
    /// to the value address instead of stopping. This is the runtime half
    /// of PatchAPI's worst-case 2-byte trap springboard (§3.1.2) — on real
    /// hardware a SIGTRAP handler injected by the rewriter; here, the
    /// equivalent kernel-side redirect. Each redirect is charged
    /// [`CostModel::trap_redirect`] cycles to model the trap round trip.
    pub trap_redirects: std::collections::BTreeMap<u64, u64>,
    /// Count of injected redirect-resolution faults (see
    /// [`Machine::inject_redirect_drop`]).
    pub redirect_faults_injected: u64,
    /// Fault injection: when `Some(n)`, the `n`-th (0-based) trap-redirect
    /// resolution is dropped — the `ebreak` surfaces as if the trap table
    /// had no entry for it, exercising the mutator's `RedirectMiss` path.
    pub(crate) redirect_drop_nth: Option<u64>,
    /// Running count of trap-redirect resolutions attempted.
    pub(crate) redirect_resolutions: u64,
    pub(crate) brk: u64,
    /// The code region and everything known per pc in it: decoded
    /// instructions (both engines), tier-up counts and translated-block
    /// slots (the cached engine).
    pub(crate) code: CodeMap,
    /// Translated-block storage (the cached engine's state).
    pub(crate) tcache: TranslationCache,
}

/// Stack placement: top just below 2 GiB. The stack region is 8 MiB, but
/// only the top 64 KiB is mapped eagerly — the rest materialises on
/// demand (see the fault-retry path in `step`), keeping machine creation
/// cheap.
pub(crate) const STACK_TOP: u64 = 0x7FFF_F000;
pub(crate) const STACK_SIZE: u64 = 8 * 1024 * 1024;
const STACK_EAGER: u64 = 64 * 1024;

impl Machine {
    /// A bare machine: empty memory, stack mapped, sp initialised.
    pub fn new() -> Machine {
        let mut m = Machine {
            pc: 0,
            gpr: [0; 32],
            fpr: [0; 32],
            fcsr: 0,
            mem: Memory::new(),
            cost: CostModel::default(),
            icount: 0,
            cycles: 0,
            stdout: Vec::new(),
            fuel: None,
            stop_at_cycles: None,
            mem_oracle: None,
            call_oracle: None,
            taken_transfers: 0,
            engine: EmuEngine::from_env(),
            verify_translations: false,
            trap_redirects: std::collections::BTreeMap::new(),
            redirect_faults_injected: 0,
            redirect_drop_nth: None,
            redirect_resolutions: 0,
            brk: 0x6000_0000,
            code: CodeMap::default(),
            tcache: TranslationCache::default(),
        };
        m.mem.map(STACK_TOP - STACK_EAGER, STACK_EAGER);
        m.gpr[2] = STACK_TOP - 64; // sp, with a little headroom
        m
    }

    /// Read a register (x0 reads as zero).
    #[inline]
    pub fn get(&self, r: Reg) -> u64 {
        match r.class() {
            rvdyn_isa::RegClass::Gpr => {
                if r.is_zero() {
                    0
                } else {
                    self.gpr[r.num() as usize]
                }
            }
            rvdyn_isa::RegClass::Fpr => self.fpr[r.num() as usize],
        }
    }

    /// Write a register (writes to x0 are dropped).
    #[inline]
    pub fn set(&mut self, r: Reg, v: u64) {
        match r.class() {
            rvdyn_isa::RegClass::Gpr => {
                if !r.is_zero() {
                    self.gpr[r.num() as usize] = v;
                }
            }
            rvdyn_isa::RegClass::Fpr => self.fpr[r.num() as usize] = v,
        }
    }

    /// Register the executable address range the code map (decode cache,
    /// tier-up counts, translated blocks) covers, starting it empty.
    /// Writes into the range invalidate affected entries (self-modifying
    /// code / dynamic instrumentation work correctly).
    pub fn set_code_region(&mut self, base: u64, len: u64) {
        self.code = CodeMap::new(base, len);
        self.tcache.flush();
    }

    /// Extend the code region if `addr..addr+len` lies outside it.
    pub fn ensure_code_region(&mut self, addr: u64, len: u64) {
        let (base, end) = (self.code.base(), self.code.end());
        if base == end {
            self.set_code_region(addr, len);
            return;
        }
        let nb = base.min(addr);
        let ne = end.max(addr + len);
        if nb != base || ne != end {
            self.set_code_region(nb, ne - nb);
        }
    }

    /// Write memory through the debug interface: updates bytes *and*
    /// invalidates any cached decodes covering them — the per-address
    /// interpreter cache entries and every overlapping translated block
    /// (required for breakpoint insertion, §3.2.6, and for dynamic
    /// springboard writes into already-hot text).
    pub fn write_mem(&mut self, addr: u64, bytes: &[u8]) {
        self.mem.write_bytes(addr, bytes);
        self.invalidate(addr, bytes.len() as u64);
    }

    /// Read memory through the debug interface.
    pub fn read_mem(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemFault> {
        self.mem.read_bytes(addr, len)
    }

    /// Arm a one-shot fault: the `nth` (0-based) trap-redirect resolution
    /// is dropped, surfacing the `ebreak` to the controller as if its
    /// trap-table entry were missing. Used by the `FaultPlan` debug-side
    /// fault-injection hook to make the `RedirectMiss` recovery path
    /// reachable from tests without test-only code in the resolver.
    pub fn inject_redirect_drop(&mut self, nth: u64) {
        self.redirect_drop_nth = Some(nth);
    }

    /// Arm the memory-op oracle: from now on every load/store the
    /// program itself performs is recorded as a [`MemOp`], in retirement
    /// order. Ground truth for differential tracer tests.
    ///
    /// Scope (deliberately matching what `rvdyn::tools::memtrace`
    /// instruments): plain integer and FP loads/stores only — atomics
    /// (LR/SC/AMO) and memory traffic internal to emulated syscalls
    /// (`write` reading its buffer, `clock_gettime` storing its result)
    /// are *not* recorded. While any oracle is armed, [`Machine::run`]
    /// always interprets, whatever [`Machine::engine`] says: the oracle
    /// observes the semantic core directly, and both engines are
    /// bit-identical anyway (`tests/engine_diff.rs`).
    pub fn arm_mem_oracle(&mut self) {
        self.mem_oracle = Some(Vec::new());
    }

    /// Take the memory ops recorded since [`Machine::arm_mem_oracle`],
    /// leaving the oracle armed with an empty buffer.
    pub fn take_mem_oracle(&mut self) -> Vec<MemOp> {
        match self.mem_oracle.as_mut() {
            Some(v) => std::mem::take(v),
            None => Vec::new(),
        }
    }

    /// Arm the shadow call stack: `jal`/`jalr` writing a link register
    /// (x1/x5) push their return address; `jalr x0` through a link
    /// register (a `ret`) pops. The resulting stack is the emulator's
    /// ground-truth call chain, which a sampling profiler's walked
    /// frames are differenced against. Forces interpretation like
    /// [`Machine::arm_mem_oracle`].
    pub fn arm_call_oracle(&mut self) {
        self.call_oracle = Some(Vec::new());
    }

    /// The shadow call stack (innermost return address last). Empty when
    /// the oracle is not armed or execution is back at top level.
    pub fn call_stack(&self) -> &[u64] {
        self.call_oracle.as_deref().unwrap_or(&[])
    }

    #[inline]
    fn oracle_armed(&self) -> bool {
        self.mem_oracle.is_some() || self.call_oracle.is_some()
    }

    /// Record one program-level memory access when the oracle is armed.
    #[inline]
    pub(crate) fn oracle_mem(&mut self, pc: u64, addr: u64, len: u8, is_store: bool) {
        if let Some(ops) = self.mem_oracle.as_mut() {
            ops.push(MemOp {
                pc,
                addr,
                len,
                is_store,
            });
        }
    }

    /// Maintain the shadow call stack across a `jal`/`jalr` when the
    /// oracle is armed (standard RISC-V link-register convention: rd in
    /// {x1, x5} is a call; `jalr x0` via {x1, x5} is a return).
    #[inline]
    pub(crate) fn oracle_call(&mut self, rd: Reg, rs1: Option<Reg>, ret: u64) {
        let Some(stack) = self.call_oracle.as_mut() else {
            return;
        };
        let is_link = |r: Reg| {
            matches!(r.class(), rvdyn_isa::RegClass::Gpr) && (r.num() == 1 || r.num() == 5)
        };
        if is_link(rd) {
            stack.push(ret);
        } else if rd.is_zero() && rs1.is_some_and(is_link) {
            stack.pop();
        }
    }

    /// Translated blocks populated by the cached engine so far.
    pub fn emu_blocks_translated(&self) -> u64 {
        self.tcache.blocks_translated
    }

    /// Translated blocks invalidated by writes into executable text.
    pub fn emu_invalidations(&self) -> u64 {
        self.tcache.invalidations
    }

    /// Drain the engine's buffered [`EmuEvent`]s (block translations and
    /// invalidations) for a telemetry sink. The buffer is bounded; the
    /// counters above are always exact.
    pub fn take_emu_events(&mut self) -> Vec<EmuEvent> {
        std::mem::take(&mut self.tcache.events)
    }

    #[inline]
    pub(crate) fn invalidate(&mut self, addr: u64, len: u64) {
        if self.code.invalidate(addr, len) {
            self.tcache.kill_range(&mut self.code, addr, len);
        }
    }

    /// The decode of the instruction at `pc`, from the code map when it
    /// holds one. Only this hit path is inlined into [`Machine::step`];
    /// a miss decodes out of line.
    #[inline]
    pub(crate) fn fetch(&mut self, pc: u64) -> Result<Instruction, StopReason> {
        if let Some(i) = self.code.index(pc).and_then(|i| self.code.inst(i)) {
            return Ok(*i);
        }
        self.fetch_miss(pc)
    }

    /// Decode `pc` and record it in the code map.
    #[inline(never)]
    fn fetch_miss(&mut self, pc: u64) -> Result<Instruction, StopReason> {
        let inst = self.decode_at(pc)?;
        if let Some(i) = self.code.index(pc) {
            self.code.set_inst(i, inst);
        }
        Ok(inst)
    }

    /// Decode the instruction at `pc` from memory: 4 bytes when they are
    /// mapped, else 2, else a fetch fault.
    fn decode_at(&self, pc: u64) -> Result<Instruction, StopReason> {
        let (word, len) = match self.mem.load(pc, 4) {
            Ok(w) => (w, 4),
            Err(_) => match self.mem.load(pc, 2) {
                Ok(w) => (w, 2),
                Err(_) => return Err(StopReason::FetchFault { pc }),
            },
        };
        let bytes = (word as u32).to_le_bytes();
        decode(&bytes[..len], pc).map_err(|e| match e {
            DecodeError::Truncated { .. } => StopReason::FetchFault { pc },
            _ => StopReason::IllegalInstruction(pc),
        })
    }

    /// Execute instructions until something stops the machine, on the
    /// engine selected by [`Machine::engine`]. An armed oracle
    /// ([`Machine::arm_mem_oracle`] / [`Machine::arm_call_oracle`])
    /// forces interpretation — the oracles observe the semantic core
    /// directly, and the engines are bit-identical regardless.
    pub fn run(&mut self) -> StopReason {
        if self.oracle_armed() {
            loop {
                if let Some(r) = self.step() {
                    return r;
                }
            }
        }
        match self.engine {
            EmuEngine::Interpreter => loop {
                if let Some(r) = self.step() {
                    return r;
                }
            },
            EmuEngine::Cached => self.run_cached(),
        }
    }

    /// Execute one instruction through the interpreter. `None` means
    /// "keep going". Single-stepping is always interpreted — the cached
    /// engine in [`Machine::run`] produces identical architectural state
    /// and cycle counts, block by block.
    #[inline]
    pub fn step(&mut self) -> Option<StopReason> {
        if let Some(fuel) = self.fuel {
            if self.icount >= fuel {
                return Some(StopReason::FuelExhausted);
            }
        }
        if let Some(limit) = self.stop_at_cycles {
            if self.cycles >= limit {
                return Some(StopReason::CycleLimit { pc: self.pc });
            }
        }
        let pc = self.pc;
        let inst = match self.fetch(pc) {
            Ok(i) => i,
            Err(r) => return Some(r),
        };
        match self.exec(&inst) {
            Ok(crate::exec::Effect::Next) => {
                self.pc = pc.wrapping_add(inst.size as u64);
                self.retire(&inst, false);
                None
            }
            Ok(crate::exec::Effect::Jump(t)) => {
                self.pc = t;
                self.taken_transfers += 1;
                self.retire(&inst, true);
                None
            }
            Ok(crate::exec::Effect::Stop(r)) => {
                if let StopReason::Break(at) = r {
                    if self.trap_redirects.contains_key(&at) && self.resolve_redirect(at) {
                        return None;
                    }
                }
                if let StopReason::Exited(_) = r {
                    self.retire(&inst, false);
                }
                Some(r)
            }
            Err(f) => {
                // Demand-grow the stack: accesses within the stack region
                // map fresh zero pages and retry (what the kernel's stack
                // VMA does for a real process).
                if f.addr >= STACK_TOP - STACK_SIZE && f.addr < STACK_TOP {
                    self.mem.map(f.addr & !0xFFF, 0x1000);
                    return self.step();
                }
                Some(StopReason::MemFault {
                    pc,
                    addr: f.addr,
                    write: f.write,
                })
            }
        }
    }

    /// Attempt the trap-table redirect for an `ebreak` at `at`. Returns
    /// true when control was transferred (charging the modelled trap
    /// round trip), false when the resolution was dropped by an armed
    /// fault and the Break must surface. Both engines funnel through
    /// here, so redirect accounting is engine-invariant.
    #[inline]
    pub(crate) fn resolve_redirect(&mut self, at: u64) -> bool {
        let Some(&t) = self.trap_redirects.get(&at) else {
            return false;
        };
        let n = self.redirect_resolutions;
        self.redirect_resolutions += 1;
        if self.redirect_drop_nth == Some(n) {
            // Injected fault: drop this resolution so the Break surfaces
            // exactly as a missing redirect would (the mutator's
            // RedirectMiss path).
            self.redirect_drop_nth = None;
            self.redirect_faults_injected += 1;
            false
        } else {
            // Trap-table springboard: redirect, keep going.
            self.pc = t;
            self.taken_transfers += 1;
            self.icount += 1;
            self.cycles += self.cost.trap_redirect;
            true
        }
    }

    #[inline]
    fn retire(&mut self, inst: &Instruction, taken: bool) {
        self.icount += 1;
        self.cycles += self.cost.cycles_for(inst, taken);
    }

    /// Modelled nanoseconds since start (what `clock_gettime` returns).
    pub fn now_ns(&self) -> u64 {
        self.cost.nanos(self.cycles)
    }

    /// Modelled seconds since start.
    pub fn now_seconds(&self) -> f64 {
        self.cost.seconds(self.cycles)
    }
}

impl Default for Machine {
    fn default() -> Machine {
        Machine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn_isa::build;
    use rvdyn_isa::encode::encode32;
    use rvdyn_isa::Op;

    fn machine_with(code: &[u8], base: u64) -> Machine {
        let mut m = Machine::new();
        m.mem.write_bytes(base, code);
        m.set_code_region(base, code.len() as u64);
        m.pc = base;
        m
    }

    fn asm(insts: &[Instruction]) -> Vec<u8> {
        let mut out = Vec::new();
        for i in insts {
            out.extend_from_slice(&encode32(i).unwrap().to_le_bytes());
        }
        out
    }

    #[test]
    fn exit_syscall_stops() {
        let code = asm(&[
            build::addi(Reg::x(10), Reg::X0, 42),
            build::addi(Reg::x(17), Reg::X0, EXIT_SYSCALL as i64),
            build::ecall(),
        ]);
        let mut m = machine_with(&code, 0x1000);
        assert_eq!(m.run(), StopReason::Exited(42));
        assert_eq!(m.icount, 3);
    }

    #[test]
    fn write_collects_stdout() {
        let mut m = Machine::new();
        m.mem.write_bytes(0x2000, b"hello");
        let code = asm(&[
            build::addi(Reg::x(10), Reg::X0, 1),
            build::lui(Reg::x(11), 0x2000),
            build::addi(Reg::x(12), Reg::X0, 5),
            build::addi(Reg::x(17), Reg::X0, 64),
            build::ecall(),
            build::addi(Reg::x(17), Reg::X0, 93),
            build::ecall(),
        ]);
        m.mem.write_bytes(0x1000, &code);
        m.set_code_region(0x1000, code.len() as u64);
        m.pc = 0x1000;
        // write() returns the byte count in a0, which exit() then uses.
        assert_eq!(m.run(), StopReason::Exited(5));
        assert_eq!(m.stdout, b"hello");
    }

    #[test]
    fn ebreak_reports_pc_unadvanced() {
        let code = asm(&[build::nop(), build::ebreak()]);
        let mut m = machine_with(&code, 0x1000);
        assert_eq!(m.run(), StopReason::Break(0x1004));
        assert_eq!(m.pc, 0x1004, "pc must point at the ebreak");
    }

    #[test]
    fn illegal_instruction_detected() {
        let mut m = machine_with(&[0, 0, 0, 0], 0x1000);
        assert_eq!(m.run(), StopReason::IllegalInstruction(0x1000));
    }

    #[test]
    fn mem_fault_reported() {
        let code = asm(&[build::ld(Reg::x(10), Reg::X0, 0x10)]);
        let mut m = machine_with(&code, 0x1000);
        assert_eq!(
            m.run(),
            StopReason::MemFault {
                pc: 0x1000,
                addr: 0x10,
                write: false
            }
        );
    }

    #[test]
    fn fuel_limit() {
        // Infinite loop: jal x0, 0
        let code = asm(&[build::jal(Reg::X0, 0)]);
        let mut m = machine_with(&code, 0x1000);
        m.fuel = Some(1000);
        assert_eq!(m.run(), StopReason::FuelExhausted);
        assert_eq!(m.icount, 1000);
    }

    #[test]
    fn fp_double_arithmetic() {
        let mut m = Machine::new();
        m.set_f64(Reg::f(1), 2.5);
        m.set_f64(Reg::f(2), 4.0);
        let code = asm(&[
            build::f_type(Op::FmulD, Reg::f(0), Reg::f(1), Reg::f(2)),
            build::f_type(Op::FaddD, Reg::f(3), Reg::f(0), Reg::f(2)),
            build::fma(Op::FmaddD, Reg::f(4), Reg::f(1), Reg::f(2), Reg::f(3)),
        ]);
        m.mem.write_bytes(0x1000, &code);
        m.set_code_region(0x1000, code.len() as u64);
        m.pc = 0x1000;
        for _ in 0..3 {
            assert!(m.step().is_none());
        }
        assert_eq!(m.f64v(Reg::f(0)), 10.0);
        assert_eq!(m.f64v(Reg::f(3)), 14.0);
        assert_eq!(m.f64v(Reg::f(4)), 2.5f64.mul_add(4.0, 14.0));
    }

    #[test]
    fn fp_conversions_saturate() {
        let mut m = Machine::new();
        m.set_f64(Reg::f(0), f64::NAN);
        let code = asm(&[build::f_unary(Op::FcvtWD, Reg::x(10), Reg::f(0))]);
        m.mem.write_bytes(0x1000, &code);
        m.set_code_region(0x1000, code.len() as u64);
        m.pc = 0x1000;
        m.step();
        assert_eq!(m.gpr[10] as i64, i32::MAX as i64);
    }

    #[test]
    fn nan_boxing_flw() {
        let mut m = Machine::new();
        m.mem.write_bytes(0x2000, &1.5f32.to_bits().to_le_bytes());
        let code = asm(&[
            build::lui(Reg::x(5), 0x2000),
            build::i_type(Op::Flw, Reg::f(0), Reg::x(5), 0),
        ]);
        m.mem.write_bytes(0x1000, &code);
        m.set_code_region(0x1000, code.len() as u64);
        m.pc = 0x1000;
        for _ in 0..2 {
            m.step();
        }
        assert_eq!(m.f32v(Reg::f(0)), 1.5);
        assert_eq!(m.fpr[0] >> 32, 0xFFFF_FFFF);
    }

    #[test]
    fn clock_gettime_reflects_cycle_model() {
        let mut m = Machine::new();
        // Burn some cycles, then clock_gettime(1, 0x3000).
        let mut insts = vec![];
        for _ in 0..100 {
            insts.push(build::addi(Reg::x(5), Reg::x(5), 1));
        }
        insts.push(build::addi(Reg::x(10), Reg::X0, 1));
        insts.push(build::lui(Reg::x(11), 0x3000));
        insts.push(build::i_type(Op::Srli, Reg::x(11), Reg::x(11), 0)); // keep addr
        insts.push(build::addi(Reg::x(17), Reg::X0, 113));
        insts.push(build::ecall());
        insts.push(build::addi(Reg::x(17), Reg::X0, 93));
        insts.push(build::ecall());
        let code = asm(&insts);
        m.mem.map(0x3000, 16);
        m.mem.write_bytes(0x1000, &code);
        m.set_code_region(0x1000, code.len() as u64);
        m.pc = 0x1000;
        m.run();
        let ns = m.mem.load(0x3008, 8).unwrap();
        // ~104 cheap instructions at 1.4 GHz ≈ 74 ns (the in-flight ecall
        // has not retired when the timestamp is taken).
        assert!(ns > 50 && ns < 2000, "modelled ns = {ns}");
    }

    #[test]
    fn code_writes_invalidate_icache() {
        // Execute a nop twice; between runs, overwrite it with addi x5+=7.
        let code = asm(&[build::nop(), build::ebreak()]);
        let mut m = machine_with(&code, 0x1000);
        assert_eq!(m.run(), StopReason::Break(0x1004));
        // Patch the nop (already cached) via the debug interface.
        let patch = encode32(&build::addi(Reg::x(5), Reg::x(5), 7)).unwrap();
        m.write_mem(0x1000, &patch.to_le_bytes());
        m.pc = 0x1000;
        assert_eq!(m.run(), StopReason::Break(0x1004));
        assert_eq!(m.gpr[5], 7, "stale icache entry executed");
    }

    #[test]
    fn compressed_instructions_execute() {
        // c.addi x10, 3 ; c.mv x11, x10 ; ebreak
        let mut code = Vec::new();
        let ca = rvdyn_isa::encode::compress(&build::addi(Reg::x(10), Reg::x(10), 3)).unwrap();
        let cm = rvdyn_isa::encode::compress(&build::add(Reg::x(11), Reg::X0, Reg::x(10))).unwrap();
        code.extend_from_slice(&ca.to_le_bytes());
        code.extend_from_slice(&cm.to_le_bytes());
        code.extend_from_slice(&encode32(&build::ebreak()).unwrap().to_le_bytes());
        let mut m = machine_with(&code, 0x1000);
        assert_eq!(m.run(), StopReason::Break(0x1004));
        assert_eq!(m.gpr[10], 3);
        assert_eq!(m.gpr[11], 3);
    }

    #[test]
    fn csr_cycle_instret_readable() {
        let mut insts = vec![build::nop(); 5];
        let mut csr = build::i_type(Op::Csrrs, Reg::x(10), Reg::X0, 0);
        csr.csr = Some(0xC02); // instret
        csr.rs1 = Some(Reg::X0);
        insts.push(csr);
        insts.push(build::ebreak());
        let code = asm(&insts);
        let mut m = machine_with(&code, 0x1000);
        m.run();
        assert_eq!(m.gpr[10], 5);
    }
}

#[cfg(test)]
mod syscall_edge_tests {
    use super::*;
    use rvdyn_isa::build;
    use rvdyn_isa::encode::encode32;

    fn run_syscall(nr: i64, a0: u64, a1: u64, a2: u64) -> (Machine, StopReason) {
        let mut m = Machine::new();
        m.gpr[10] = a0;
        m.gpr[11] = a1;
        m.gpr[12] = a2;
        // a7 = nr via lui/addi-free path: materialise small values only.
        let insts = [
            build::addi(Reg::x(17), Reg::X0, nr),
            build::ecall(),
            build::ebreak(),
        ];
        let code: Vec<u8> = insts
            .iter()
            .flat_map(|i| encode32(i).unwrap().to_le_bytes())
            .collect();
        m.mem.write_bytes(0x1000, &code);
        m.set_code_region(0x1000, code.len() as u64);
        m.pc = 0x1000;
        let r = m.run();
        (m, r)
    }

    #[test]
    fn write_to_bad_fd_returns_ebadf() {
        let mut m = Machine::new();
        m.mem.map(0x3000, 16);
        let (m, r) = {
            let mut mm = m;
            mm.mem.write_bytes(0x3000, b"abc");
            let mut insts = vec![
                build::addi(Reg::x(10), Reg::X0, 7), // fd 7
                build::lui(Reg::x(11), 0x3000),
                build::addi(Reg::x(12), Reg::X0, 3),
                build::addi(Reg::x(17), Reg::X0, 64),
                build::ecall(),
                build::ebreak(),
            ];
            let code: Vec<u8> = insts
                .drain(..)
                .flat_map(|i| rvdyn_isa::encode::encode32(&i).unwrap().to_le_bytes())
                .collect();
            mm.mem.write_bytes(0x1000, &code);
            mm.set_code_region(0x1000, code.len() as u64);
            mm.pc = 0x1000;
            let r = mm.run();
            (mm, r)
        };
        assert!(matches!(r, StopReason::Break(_)));
        assert_eq!(m.gpr[10] as i64, -9, "EBADF");
        assert!(m.stdout.is_empty());
    }

    #[test]
    fn unknown_syscall_returns_enosys() {
        let (m, r) = run_syscall(999, 0, 0, 0);
        assert!(matches!(r, StopReason::Break(_)));
        assert_eq!(m.gpr[10] as i64, -38, "ENOSYS");
    }

    #[test]
    fn brk_grows_the_heap() {
        // brk(0) queries; brk(query + 0x2000) grows; memory then usable.
        let (m, r) = run_syscall(214, 0, 0, 0);
        assert!(matches!(r, StopReason::Break(_)));
        let cur = m.gpr[10];
        assert!(cur >= 0x6000_0000);
        let (mut m2, r2) = run_syscall(214, cur + 0x2000, 0, 0);
        assert!(matches!(r2, StopReason::Break(_)));
        assert_eq!(m2.gpr[10], cur + 0x2000);
        assert!(
            m2.mem.store(cur + 0x1000, 8, 42).is_ok(),
            "grown heap usable"
        );
    }

    #[test]
    fn stack_grows_on_demand() {
        // Touch memory 1 MiB below the initial sp: a fresh page must
        // appear (the demand-grow path), not a fault.
        let mut m = Machine::new();
        let sp = m.gpr[2];
        let insts = [
            build::lui(Reg::x(5), -(1 << 20) as i64 & !0xFFF),
            build::add(Reg::x(5), Reg::x(5), Reg::X2),
            build::sd(Reg::x(6), Reg::x(5), 0),
            build::ebreak(),
        ];
        let code: Vec<u8> = insts
            .iter()
            .flat_map(|i| rvdyn_isa::encode::encode32(i).unwrap().to_le_bytes())
            .collect();
        m.mem.write_bytes(0x1000, &code);
        m.set_code_region(0x1000, code.len() as u64);
        m.pc = 0x1000;
        m.gpr[6] = 0x1234;
        assert!(matches!(m.run(), StopReason::Break(_)));
        let addr = sp.wrapping_sub(1 << 20) & !0xFFF_u64 | (sp & 0xFFF);
        let _ = addr;
        assert!(m.mem.is_mapped(sp - (1 << 20)), "stack page must be mapped");
    }
}
