//! The controlled process.

use crate::fault::{FaultPlan, WriteFault, WriteFaultMode};
use rvdyn_emu::{load_binary, Machine, StopReason};
use rvdyn_isa::encode::{compress, encode32};
use rvdyn_isa::{build, decode, ControlFlow, Reg};
use rvdyn_symtab::Binary;
use std::collections::BTreeMap;
use std::fmt;

/// Debug events delivered to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Stopped at a user breakpoint.
    Breakpoint(u64),
    /// One emulated single-step completed; stopped at this pc.
    Stepped(u64),
    /// The mutatee executed its own `ebreak` (not one of ours).
    Trap(u64),
    /// Process exited with this code.
    Exited(i64),
    /// The mutatee faulted.
    Fault {
        /// Faulting program counter.
        pc: u64,
        /// The address the faulting access touched.
        addr: u64,
    },
    /// The machine's cycle-count interrupt fired ([`Machine::stop_at_cycles`]):
    /// stopped on an instruction boundary *before* executing the
    /// instruction at this pc. Non-terminal — the process can be resumed
    /// (typically after re-arming the next sample interval).
    CycleLimit(u64),
}

/// Observable debug-interface operations, for a caller-supplied observer
/// (e.g. the facade's telemetry sink). Only *controller-initiated*
/// operations through the public surface are reported; internal
/// single-step machinery (temporary successor breakpoints) stays silent,
/// matching how a ptrace-based tool would count its own requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcEvent {
    /// A user breakpoint was installed at `addr`.
    BreakpointSet {
        /// Breakpoint address.
        addr: u64,
    },
    /// The user breakpoint at `addr` was removed.
    BreakpointRemoved {
        /// Breakpoint address.
        addr: u64,
    },
    /// `len` bytes were written into mutatee memory at `addr`.
    MemWritten {
        /// Write target address.
        addr: u64,
        /// Bytes actually delivered (shorter than requested under an
        /// armed short-write fault).
        len: usize,
    },
    /// An armed [`FaultPlan`] fault fired on the
    /// operation touching `addr` (the write target, or the pc for a
    /// delayed stop event).
    FaultInjected {
        /// The address the faulted operation touched.
        addr: u64,
    },
}

/// Process-control errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcError {
    /// The process has already exited.
    NotRunning,
    /// Address not readable/writable.
    BadAddress(u64),
    /// A breakpoint already exists at the address.
    BreakpointExists(u64),
    /// No breakpoint at the address.
    NoBreakpoint(u64),
    /// The current instruction could not be decoded.
    Undecodable(u64),
    /// The emulator's translation-cache coherence check failed at this
    /// pc: cached text changed without an invalidation (only reachable
    /// when the machine's `verify_translations` assertion is armed).
    CacheIncoherent(u64),
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcError::NotRunning => write!(f, "process has exited"),
            ProcError::BadAddress(a) => write!(f, "bad address {a:#x}"),
            ProcError::BreakpointExists(a) => {
                write!(f, "breakpoint already at {a:#x}")
            }
            ProcError::NoBreakpoint(a) => write!(f, "no breakpoint at {a:#x}"),
            ProcError::Undecodable(a) => write!(f, "undecodable instruction at {a:#x}"),
            ProcError::CacheIncoherent(a) => {
                write!(f, "translation cache incoherent at {a:#x}")
            }
        }
    }
}

impl std::error::Error for ProcError {}

struct Breakpoint {
    original: Vec<u8>,
}

/// Encoded trap bytes for a `size`-byte slot: `c.ebreak` (2) or `ebreak`
/// (4). Fixed instructions, so the spec constants back up the encoder.
fn trap_bytes(size: usize) -> Vec<u8> {
    if size == 2 {
        compress(&build::ebreak())
            .unwrap_or(0x9002)
            .to_le_bytes()
            .to_vec()
    } else {
        encode32(&build::ebreak())
            .unwrap_or(0x0010_0073)
            .to_le_bytes()
            .to_vec()
    }
}

/// A mutatee under debugger-style control.
///
/// All interaction flows through the ptrace-like surface of the emulated
/// machine: byte-level memory access, register access, and
/// run-until-stop. In particular there is **no** hardware single-step —
/// see [`Process::single_step`].
///
/// A process is plain data over a `Send` machine, so a fleet controller
/// can lend it to a worker thread for one job.
pub struct Process {
    machine: Machine,
    breakpoints: BTreeMap<u64, Breakpoint>,
    exited: Option<i64>,
    observer: Option<Box<dyn FnMut(ProcEvent) + Send>>,
    fault_plan: FaultPlan,
    /// Count of controller-initiated `write_mem` calls (fault targeting).
    writes_seen: u64,
    /// Count of breakpoint/trap stop events delivered (fault targeting).
    stops_seen: u64,
    /// Faults this process's debug interface has injected so far,
    /// including redirect-resolution drops armed on the machine.
    faults_injected: u64,
    /// A stop event withheld by a `delay_stop` fault, delivered on the
    /// next `cont`.
    pending_event: Option<Event>,
}

// `Process` must stay `Send` for a fleet worker to run a job on it; this
// fails to compile if anyone adds a thread-bound field.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Process>();
};

impl Process {
    /// Launch a new process from a binary (Figure 1: "process is spawned").
    pub fn launch(bin: &Binary) -> Process {
        Process::attach(load_binary(bin))
    }

    /// Attach to an already-running machine (Figure 1: "already running
    /// process is attached to").
    pub fn attach(machine: Machine) -> Process {
        Process {
            machine,
            breakpoints: BTreeMap::new(),
            exited: None,
            observer: None,
            fault_plan: FaultPlan::new(),
            writes_seen: 0,
            stops_seen: 0,
            faults_injected: 0,
            pending_event: None,
        }
    }

    /// Arm a deterministic [`FaultPlan`] on this debug interface;
    /// replaces any previous plan. Redirect-drop faults are forwarded to
    /// the machine's trap-redirect resolver.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if let Some(nth) = plan.drop_redirect_nth {
            self.machine.inject_redirect_drop(nth);
        }
        self.fault_plan = plan;
    }

    /// Total debug-interface faults injected so far (write faults,
    /// delayed stops, and machine-side redirect-resolution drops).
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected + self.machine.redirect_faults_injected
    }

    /// Subscribe to debug-interface operations ([`ProcEvent`]); replaces
    /// any previous observer. Pass-through cost is one `Option` check per
    /// operation when unset. The observer must be `Send`: a fleet
    /// controller lends the process to a worker thread for its commit
    /// and run jobs, and the observer fires there.
    pub fn set_observer(&mut self, observer: Box<dyn FnMut(ProcEvent) + Send>) {
        self.observer = Some(observer);
    }

    fn notify(&mut self, ev: ProcEvent) {
        if let Some(obs) = &mut self.observer {
            obs(ev);
        }
    }

    /// Detach, returning the underlying machine (breakpoints removed).
    pub fn detach(mut self) -> Machine {
        let addrs: Vec<u64> = self.breakpoints.keys().copied().collect();
        for a in addrs {
            let _ = self.remove_breakpoint(a);
        }
        self.machine
    }

    /// The mutatee's current program counter.
    pub fn pc(&self) -> u64 {
        self.machine.pc
    }

    /// Redirect the mutatee to continue from `pc`.
    pub fn set_pc(&mut self, pc: u64) {
        self.machine.pc = pc;
    }

    /// Read a mutatee register.
    pub fn get_reg(&self, r: Reg) -> u64 {
        self.machine.get(r)
    }

    /// Write a mutatee register.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.machine.set(r, v);
    }

    /// Read mutatee memory.
    pub fn read_mem(&self, addr: u64, len: usize) -> Result<Vec<u8>, ProcError> {
        self.machine
            .read_mem(addr, len)
            .map_err(|f| ProcError::BadAddress(f.addr))
    }

    /// Read a little-endian `u64` of mutatee memory, or `None` when any
    /// of its bytes is unmapped. Loads straight from the machine's
    /// memory, so a read allocates nothing.
    pub fn read_u64(&self, addr: u64) -> Option<u64> {
        self.machine.mem.load(addr, 8).ok()
    }

    /// Write mutatee memory (code writes invalidate its decoded cache).
    ///
    /// This is the *debug-interface* write — the surface an armed
    /// [`FaultPlan`] write fault fires on. Internal breakpoint byte
    /// patching bypasses it (it writes the machine directly), so injected
    /// faults hit only controller-visible deliveries, the ones commit
    /// read-back verification is responsible for.
    pub fn write_mem(&mut self, addr: u64, bytes: &[u8]) {
        let n = self.writes_seen;
        self.writes_seen += 1;
        let fault = match self.fault_plan.write {
            Some(WriteFault { nth, mode }) if nth == n => Some(mode),
            _ => None,
        };
        let corrupted: Vec<u8>;
        let delivered: &[u8] = match fault {
            None => bytes,
            Some(WriteFaultMode::CorruptByte { offset }) => {
                let mut b = bytes.to_vec();
                if let Some(last) = b.len().checked_sub(1) {
                    b[offset.min(last)] = !b[offset.min(last)];
                }
                corrupted = b;
                &corrupted
            }
            Some(WriteFaultMode::ShortWrite { len }) => &bytes[..len.min(bytes.len())],
            Some(WriteFaultMode::DropWrite) => &[],
        };
        if !delivered.is_empty() {
            self.machine.write_mem(addr, delivered);
        }
        if fault.is_some() {
            self.fault_plan.write = None;
            self.faults_injected += 1;
            self.notify(ProcEvent::FaultInjected { addr });
        }
        self.notify(ProcEvent::MemWritten {
            addr,
            len: delivered.len(),
        });
    }

    /// Map zero-filled memory over `[addr, addr+len)` where none is
    /// mapped yet; mapped bytes keep their values. This is how a live
    /// commit provides its data area. It writes nothing, so it is no
    /// `write_mem`: no [`FaultPlan`] write fault counts it, and it
    /// emits no event.
    pub fn map_mem(&mut self, addr: u64, len: u64) {
        self.machine.mem.map(addr, len);
    }

    /// The machine, for inspection (cycle counts, stdout, …).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The machine, mutably (for trap-redirect installs, engine
    /// selection, and other controller-side configuration).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Has the process exited?
    pub fn exit_code(&self) -> Option<i64> {
        self.exited
    }

    /// Insert a breakpoint at `addr`, honouring the footprint of the
    /// instruction being replaced (2-byte `c.ebreak` over compressed
    /// instructions).
    pub fn set_breakpoint(&mut self, addr: u64) -> Result<(), ProcError> {
        if self.breakpoints.contains_key(&addr) {
            return Err(ProcError::BreakpointExists(addr));
        }
        let bytes = self.read_mem(addr, 2)?;
        let size = if bytes[0] & 0b11 == 0b11 { 4 } else { 2 };
        let original = self.read_mem(addr, size)?;
        self.machine.write_mem(addr, &trap_bytes(size));
        self.breakpoints.insert(addr, Breakpoint { original });
        self.notify(ProcEvent::BreakpointSet { addr });
        Ok(())
    }

    /// Remove the breakpoint at `addr`, restoring the original bytes.
    pub fn remove_breakpoint(&mut self, addr: u64) -> Result<(), ProcError> {
        let bp = self
            .breakpoints
            .remove(&addr)
            .ok_or(ProcError::NoBreakpoint(addr))?;
        self.machine.write_mem(addr, &bp.original);
        self.notify(ProcEvent::BreakpointRemoved { addr });
        Ok(())
    }

    /// Continue execution until the next event.
    ///
    /// A stop event withheld by a `delay_stop` fault is delivered here,
    /// before the mutatee runs any further — the controller sees one
    /// spurious [`Event::Stepped`], continues, and gets the real event.
    pub fn cont(&mut self) -> Result<Event, ProcError> {
        if let Some(ev) = self.pending_event.take() {
            return Ok(ev);
        }
        if self.exited.is_some() {
            return Err(ProcError::NotRunning);
        }
        // If we're parked on one of our breakpoints, step over it first.
        if self.breakpoints.contains_key(&self.machine.pc) {
            match self.step_over_current()? {
                Event::Stepped(_) => {}
                other => return Ok(self.maybe_delay(other)),
            }
        }
        let ev = self.run_until_event()?;
        Ok(self.maybe_delay(ev))
    }

    /// Apply an armed `delay_stop` fault: withhold the Nth breakpoint or
    /// trap stop, report a spurious step instead, and queue the real
    /// event for the next `cont`.
    fn maybe_delay(&mut self, ev: Event) -> Event {
        if !matches!(ev, Event::Breakpoint(_) | Event::Trap(_)) {
            return ev;
        }
        let n = self.stops_seen;
        self.stops_seen += 1;
        if self.fault_plan.delay_stop_nth != Some(n) {
            return ev;
        }
        self.fault_plan.delay_stop_nth = None;
        self.faults_injected += 1;
        self.pending_event = Some(ev);
        let pc = self.machine.pc;
        self.notify(ProcEvent::FaultInjected { addr: pc });
        Event::Stepped(pc)
    }

    /// Emulated single-step (§3.2.6): temporary breakpoints on every
    /// possible successor of the current instruction, continue, clean up.
    pub fn single_step(&mut self) -> Result<Event, ProcError> {
        if self.exited.is_some() {
            return Err(ProcError::NotRunning);
        }
        self.step_over_current()
    }

    /// Step over the instruction at the current pc using the
    /// breakpoint-emulation scheme.
    fn step_over_current(&mut self) -> Result<Event, ProcError> {
        let pc = self.machine.pc;
        // If a user breakpoint covers pc, temporarily restore it.
        let had_bp = self.breakpoints.contains_key(&pc);
        if had_bp {
            let orig = self.breakpoints[&pc].original.clone();
            self.machine.write_mem(pc, &orig);
        }

        let insn_bytes = self.read_mem(pc, 4).or_else(|_| self.read_mem(pc, 2))?;
        let inst = decode(&insn_bytes, pc).map_err(|_| ProcError::Undecodable(pc))?;

        // Possible successors.
        let succs: Vec<u64> = match inst.control_flow() {
            ControlFlow::None | ControlFlow::Syscall => vec![inst.next_pc()],
            ControlFlow::ConditionalBranch {
                target,
                fallthrough,
            } => {
                vec![target, fallthrough]
            }
            ControlFlow::DirectJump { target, .. } => vec![target],
            ControlFlow::IndirectJump { base, offset, .. } => {
                let t = self.machine.get(base).wrapping_add(offset as u64) & !1;
                vec![t]
            }
            ControlFlow::Trap => {
                // A genuine mutatee ebreak: report it, don't execute it.
                if had_bp {
                    // Re-arm our breakpoint before reporting.
                    self.rearm(pc);
                }
                return Ok(Event::Trap(pc));
            }
        };

        // Plant temporary breakpoints (skipping any that collide with
        // user breakpoints — those are already trap bytes).
        let mut temps: Vec<(u64, Vec<u8>)> = Vec::new();
        for &s in &succs {
            if s == pc || self.breakpoints.contains_key(&s) {
                continue;
            }
            if let Ok(b2) = self.read_mem(s, 2) {
                let size = if b2[0] & 0b11 == 0b11 { 4 } else { 2 };
                if let Ok(orig) = self.read_mem(s, size) {
                    self.machine.write_mem(s, &trap_bytes(size));
                    temps.push((s, orig));
                }
            }
        }

        // Run until the trap at a successor.
        let stop = self.machine.run();

        // Remove temporary breakpoints.
        for (a, orig) in &temps {
            self.machine.write_mem(*a, orig);
        }
        // Re-arm the user breakpoint we lifted.
        if had_bp {
            self.rearm(pc);
        }

        match stop {
            StopReason::Break(at) => {
                if self.breakpoints.contains_key(&at) {
                    Ok(Event::Breakpoint(at))
                } else if temps.iter().any(|(a, _)| *a == at) {
                    Ok(Event::Stepped(at))
                } else {
                    Ok(Event::Trap(at))
                }
            }
            StopReason::Exited(c) => {
                self.exited = Some(c);
                Ok(Event::Exited(c))
            }
            StopReason::MemFault { pc, addr, .. } => Ok(Event::Fault { pc, addr }),
            StopReason::FetchFault { pc } => Ok(Event::Fault { pc, addr: pc }),
            StopReason::IllegalInstruction(pc) => Ok(Event::Fault { pc, addr: pc }),
            StopReason::CycleLimit { pc } => Ok(Event::CycleLimit(pc)),
            StopReason::FuelExhausted => Err(ProcError::NotRunning),
            StopReason::CacheIncoherent { pc } => Err(ProcError::CacheIncoherent(pc)),
        }
    }

    fn rearm(&mut self, addr: u64) {
        if let Some(bp) = self.breakpoints.get(&addr) {
            let size = bp.original.len();
            self.machine.write_mem(addr, &trap_bytes(size));
        }
    }

    fn run_until_event(&mut self) -> Result<Event, ProcError> {
        match self.machine.run() {
            StopReason::Break(at) => {
                if self.breakpoints.contains_key(&at) {
                    Ok(Event::Breakpoint(at))
                } else {
                    Ok(Event::Trap(at))
                }
            }
            StopReason::Exited(c) => {
                self.exited = Some(c);
                Ok(Event::Exited(c))
            }
            StopReason::MemFault { pc, addr, .. } => Ok(Event::Fault { pc, addr }),
            StopReason::FetchFault { pc } => Ok(Event::Fault { pc, addr: pc }),
            StopReason::IllegalInstruction(pc) => Ok(Event::Fault { pc, addr: pc }),
            StopReason::CycleLimit { pc } => Ok(Event::CycleLimit(pc)),
            StopReason::FuelExhausted => Err(ProcError::NotRunning),
            StopReason::CacheIncoherent { pc } => Err(ProcError::CacheIncoherent(pc)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn_asm::{deep_call_program, fib_program, matmul_program};

    #[test]
    fn breakpoint_at_function_entry_fires_per_call() {
        let bin = fib_program(6);
        let fib = bin.symbol_by_name("fib").unwrap().value;
        let mut p = Process::launch(&bin);
        p.set_breakpoint(fib).unwrap();
        let mut hits = 0;
        loop {
            match p.cont().unwrap() {
                Event::Breakpoint(at) => {
                    assert_eq!(at, fib);
                    assert_eq!(p.pc(), fib);
                    hits += 1;
                }
                Event::Exited(0) => break,
                e => panic!("unexpected event {e:?}"),
            }
        }
        // fib(6) makes 25 calls (2*fib(n) - 1 where fib(6)=13 invocations
        // counted as call tree nodes).
        assert_eq!(hits, 25);
    }

    #[test]
    fn single_step_walks_instructions() {
        let bin = fib_program(2);
        let mut p = Process::launch(&bin);
        // Step 10 instructions from the entry.
        let mut pcs = vec![p.pc()];
        for _ in 0..10 {
            match p.single_step().unwrap() {
                Event::Stepped(at) => pcs.push(at),
                e => panic!("unexpected {e:?}"),
            }
        }
        // All pcs distinct addresses executed in order; the first step
        // enters main via the call.
        assert_eq!(pcs.len(), 11);
        assert!(pcs.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn single_step_through_branch_both_ways() {
        let bin = fib_program(3);
        let fib = bin.symbol_by_name("fib").unwrap().value;
        let mut p = Process::launch(&bin);
        p.set_breakpoint(fib).unwrap();
        assert!(matches!(p.cont().unwrap(), Event::Breakpoint(_)));
        p.remove_breakpoint(fib).unwrap();
        // Step until we exit fib's prologue and take the blt.
        for _ in 0..12 {
            match p.single_step().unwrap() {
                Event::Stepped(_) => {}
                Event::Exited(_) => break,
                e => panic!("unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn mutatee_trap_reported_distinctly() {
        let bin = deep_call_program(3);
        let mut p = Process::launch(&bin);
        match p.cont().unwrap() {
            Event::Trap(pc) => {
                let d = bin.symbol_by_name("descend").unwrap();
                assert!(pc >= d.value && pc < d.value + d.size);
            }
            e => panic!("expected mutatee trap, got {e:?}"),
        }
    }

    #[test]
    fn memory_and_register_access() {
        let bin = fib_program(4);
        let mut p = Process::launch(&bin);
        // Write a recognizable value into memory and read it back.
        p.write_mem(0x2_0000, &[1, 2, 3, 4]);
        assert_eq!(p.read_mem(0x2_0000, 4).unwrap(), vec![1, 2, 3, 4]);
        p.set_reg(Reg::x(10), 0xABCD);
        assert_eq!(p.get_reg(Reg::x(10)), 0xABCD);
        // Registers actually affect execution: overwrite fib's argument.
        let fib = bin.symbol_by_name("fib").unwrap().value;
        p.set_breakpoint(fib).unwrap();
        assert!(matches!(p.cont().unwrap(), Event::Breakpoint(_)));
        p.set_reg(Reg::x(10), 1); // fib(1) = 1, immediately returns
        p.remove_breakpoint(fib).unwrap();
        assert!(matches!(p.cont().unwrap(), Event::Exited(0)));
        let result = bin.symbol_by_name("result").unwrap().value;
        let v = p.read_u64(result).unwrap();
        assert_eq!(v, 1, "modified argument must change the result");
    }

    #[test]
    fn breakpoint_on_compressed_instruction_uses_2_bytes() {
        let bin = matmul_program(4, 1);
        // Find a compressed instruction inside matmul.
        let text = bin.section_by_name(".text").unwrap();
        let c_addr = rvdyn_isa::decode::InstructionIter::new(&text.data, text.addr)
            .filter_map(|r| r.ok())
            .find(|i| i.size == 2)
            .map(|i| i.address)
            .expect("program has compressed instructions");
        let mut p = Process::launch(&bin);
        let before = p.read_mem(c_addr, 4).unwrap();
        p.set_breakpoint(c_addr).unwrap();
        let after = p.read_mem(c_addr, 4).unwrap();
        assert_ne!(before[..2], after[..2], "c.ebreak must be written");
        assert_eq!(before[2..], after[2..], "next instruction untouched");
        // Execution stops there and resumes correctly.
        match p.cont().unwrap() {
            Event::Breakpoint(at) => assert_eq!(at, c_addr),
            e => panic!("{e:?}"),
        }
        p.remove_breakpoint(c_addr).unwrap();
        assert!(matches!(p.cont().unwrap(), Event::Exited(0)));
    }

    #[test]
    fn detach_restores_all_breakpoints() {
        let bin = fib_program(5);
        let fib = bin.symbol_by_name("fib").unwrap().value;
        let original = Process::launch(&bin).read_mem(fib, 4).unwrap();
        let mut p = Process::launch(&bin);
        p.set_breakpoint(fib).unwrap();
        let mut m = p.detach();
        // Original bytes restored; the machine runs to completion.
        assert_eq!(m.read_mem(fib, 4).unwrap(), original);
        assert_eq!(m.run(), StopReason::Exited(0));
    }

    #[test]
    fn errors_on_double_breakpoint_and_missing_removal() {
        let bin = fib_program(3);
        let fib = bin.symbol_by_name("fib").unwrap().value;
        let mut p = Process::launch(&bin);
        p.set_breakpoint(fib).unwrap();
        assert!(matches!(
            p.set_breakpoint(fib),
            Err(ProcError::BreakpointExists(_))
        ));
        assert!(matches!(
            p.remove_breakpoint(fib + 4),
            Err(ProcError::NoBreakpoint(_))
        ));
    }
}
