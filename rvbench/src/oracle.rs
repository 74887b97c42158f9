//! Ground truth that does not come from the instrumenter.
//!
//! The uninstrumented binary is stepped one instruction at a time on the
//! interpreter through the public `Machine::step`, keeping a per-pc
//! execution histogram and, for every conditional branch found by a
//! linear decode of the text (the ISA crate, not the CFG parser), the
//! number of times it was taken. Block and function-entry counts are the
//! histogram at the block's or function's first instruction. The final
//! exit, stdout and data memory are kept for comparison too.

use rvdyn_emu::{Machine, StopReason};
use rvdyn_isa::InstructionIter;
use rvdyn_symtab::{Binary, SHF_ALLOC, SHF_WRITE};
use std::collections::{BTreeMap, HashSet};

/// Instruction budget for every run the benchmark makes.
pub const FUEL: u64 = 4_000_000_000;

/// How a run ended, in the terms both runs can be compared in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    Exited(i64),
    /// Stopped at an `ebreak` (the mutatee's own debugger stop).
    Trapped,
}

pub struct Oracle {
    pub terminal: Terminal,
    pub stdout: Vec<u8>,
    pub cycles: u64,
    pub data_hash: u64,
    volatile: Volatile,
    /// Writable data sections, `(addr, len)`.
    data: Vec<(u64, usize)>,
    base: u64,
    hist: Vec<u64>,
    taken: BTreeMap<u64, u64>,
}

/// FNV-1a, used to compare memory images without keeping them.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Parts of a mutatee's output that depend on its own modelled clock or
/// instruction count, which instrumentation changes by design.
#[derive(Clone, Default)]
pub struct Volatile {
    /// stdout is the mutatee's elapsed modelled nanoseconds (matmul).
    pub clock_stdout: bool,
    /// Data bytes `[lo, hi)` left out of the memory comparison.
    pub skip: Vec<(u64, u64)>,
}

impl Volatile {
    /// matmul: `.data` holds only its clock readings and the elapsed
    /// time it prints.
    pub fn matmul(bin: &Binary) -> Volatile {
        let data = bin.section_by_name(".data").expect("matmul has .data");
        Volatile {
            clock_stdout: true,
            skip: vec![(data.addr, data.addr + data.data.len() as u64)],
        }
    }

    /// atomics: `result+24` holds a `rdinstret` reading.
    pub fn atomics(bin: &Binary) -> Volatile {
        let r = bin
            .symbol_by_name("result")
            .expect("atomics has result")
            .value;
        Volatile {
            clock_stdout: false,
            skip: vec![(r + 24, r + 32)],
        }
    }
}

/// Code span `[lo, hi)` over every code section.
fn code_span(bin: &Binary) -> (u64, u64) {
    let mut lo = u64::MAX;
    let mut hi = 0;
    for s in bin.code_sections() {
        lo = lo.min(s.addr);
        hi = hi.max(s.addr + s.data.len() as u64);
    }
    (lo.min(hi), hi)
}

/// Step `bin` to its end on the interpreter and record everything the
/// benchmark checks instrumented runs against.
pub fn step_oracle(bin: &Binary, volatile: Volatile) -> Oracle {
    let (lo, hi) = code_span(bin);
    let mut cond = HashSet::new();
    let mut size = vec![0u8; ((hi - lo) / 2 + 1) as usize];
    for s in bin.code_sections() {
        for inst in InstructionIter::new(&s.data, s.addr).flatten() {
            size[((inst.address - lo) / 2) as usize] = inst.size;
            if inst.op.is_conditional_branch() {
                cond.insert(inst.address);
            }
        }
    }
    let mut hist = vec![0u64; size.len()];
    let mut taken = BTreeMap::new();
    let mut m = rvdyn_emu::load_binary(bin);
    m.fuel = Some(FUEL);
    let stop = loop {
        let pc = m.pc;
        let r = m.step();
        if pc >= lo && pc < hi {
            let i = ((pc - lo) / 2) as usize;
            hist[i] += 1;
            if r.is_none() && cond.contains(&pc) && m.pc != pc + size[i] as u64 {
                *taken.entry(pc).or_insert(0) += 1;
            }
        }
        if let Some(stop) = r {
            break stop;
        }
    };
    let terminal = terminal_of(stop).unwrap_or_else(|e| panic!("oracle run failed: {e}"));
    let data = bin
        .sections
        .iter()
        .filter(|s| s.flags & SHF_ALLOC != 0 && s.flags & SHF_WRITE != 0 && !s.data.is_empty())
        .map(|s| (s.addr, s.data.len()))
        .collect();
    let mut o = Oracle {
        terminal,
        stdout: m.stdout.clone(),
        cycles: m.cycles,
        data_hash: 0,
        volatile,
        data,
        base: lo,
        hist,
        taken,
    };
    o.data_hash = o.hash_data(&mut |a, n| m.read_mem(a, n).ok());
    o
}

/// Map a stop to a comparable terminal state; anything else is an error.
pub fn terminal_of(stop: StopReason) -> Result<Terminal, String> {
    match stop {
        StopReason::Exited(c) => Ok(Terminal::Exited(c)),
        StopReason::Break(_) => Ok(Terminal::Trapped),
        other => Err(format!("run stopped abnormally: {other:?}")),
    }
}

impl Oracle {
    /// Hash of the program's writable data as `read` sees it, volatile
    /// bytes zeroed.
    pub fn hash_data(&self, read: &mut dyn FnMut(u64, usize) -> Option<Vec<u8>>) -> u64 {
        let mut h = FNV_SEED;
        for &(addr, len) in &self.data {
            let Some(mut bytes) = read(addr, len) else {
                return fnv1a(b"unreadable", h);
            };
            for &(lo, hi) in &self.volatile.skip {
                for (i, b) in bytes.iter_mut().enumerate() {
                    let a = addr + i as u64;
                    if a >= lo && a < hi {
                        *b = 0;
                    }
                }
            }
            h = fnv1a(&bytes, h);
        }
        h
    }

    /// Times the instruction at `pc` executed.
    pub fn count(&self, pc: u64) -> u64 {
        pc.checked_sub(self.base)
            .and_then(|d| self.hist.get((d / 2) as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Times conditional branches inside `[lo, hi)` were taken.
    pub fn taken_in(&self, lo: u64, hi: u64) -> u64 {
        self.taken.range(lo..hi).map(|(_, n)| n).sum()
    }

    /// Check an instrumented run's observable behaviour against the
    /// uninstrumented one.
    pub fn check_run(
        &self,
        terminal: Terminal,
        stdout: &[u8],
        data_hash: u64,
    ) -> Result<(), String> {
        if terminal != self.terminal {
            return Err(format!("ended {terminal:?}, oracle {:?}", self.terminal));
        }
        if data_hash != self.data_hash {
            return Err("data memory differs from the oracle".into());
        }
        let stdout_ok = if self.volatile.clock_stdout {
            // The mutatee prints its own modelled elapsed nanoseconds.
            // Instrumentation changes it either way (relocated code may
            // take fewer branches), so only the shape is compared.
            stdout.len() == self.stdout.len()
        } else {
            stdout == self.stdout.as_slice()
        };
        if !stdout_ok {
            return Err("stdout differs from the oracle".into());
        }
        Ok(())
    }

    /// Check per-block counts (block start → count) against the histogram.
    pub fn check_blocks(&self, counts: &BTreeMap<u64, u64>) -> Result<(), String> {
        for (&b, &n) in counts {
            let want = self.count(b);
            if n != want {
                return Err(format!("block {b:#x}: counted {n}, oracle {want}"));
            }
        }
        Ok(())
    }
}

/// Run an instrumented image to its end on `engine` and return the
/// machine, for callers that need its final state.
pub fn run_machine(bin: &Binary, engine: rvdyn_emu::EmuEngine) -> (StopReason, Machine) {
    let mut m = rvdyn_emu::load_binary(bin);
    m.engine = engine;
    m.fuel = Some(FUEL);
    let stop = m.run();
    (stop, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_gives_entry_and_block_counts() {
        let bin = rvdyn_asm::fib_program(6);
        let o = step_oracle(&bin, Volatile::default());
        assert_eq!(o.terminal, Terminal::Exited(0));
        let fib = bin.symbol_by_name("fib").unwrap();
        // fib(6) has a call tree of 25 nodes.
        assert_eq!(o.count(fib.value), 25);
        assert!(o.taken_in(fib.value, fib.value + fib.size) > 0);
        assert!(o.cycles > 0);
    }
}
