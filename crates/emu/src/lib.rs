//! # rvdyn-emu — RV64GC execution substrate
//!
//! The paper evaluates on a 1.4 GHz SiFive P550; this workspace has no
//! RISC-V hardware, so this crate provides the documented substitute
//! (DESIGN.md §2): a complete RV64GC emulator that
//!
//! * executes the ELF binaries produced by `rvdyn-asm`/PatchAPI (the full
//!   I, M, A, F, D, Zicsr-subset and C instruction sets);
//! * services the Linux syscalls the mutatees use (`write`, `exit`,
//!   `brk`, `clock_gettime` — the latter returning *modelled* time derived
//!   from the cycle model, so the mutatee's own elapsed-time measurement
//!   works exactly as it does on hardware);
//! * charges each instruction through a P550-flavoured in-order cost model
//!   ([`cost::CostModel`]) clocked at 1.4 GHz, making "seconds" a
//!   deterministic function of the executed instruction stream — the
//!   quantity the paper's wall-clock numbers estimate, minus the noise;
//! * exposes the **debug interface** ProcControlAPI builds on: memory and
//!   register access and `ebreak` trap reporting. Deliberately ptrace-like
//!   and deliberately *without* hardware single-step, reproducing the
//!   RISC-V ptrace limitation the paper reports (§3.2.6) — single-stepping
//!   must be emulated with breakpoints by ProcControlAPI.
//!
//! Execution has **two engines** behind one contract ([`EmuEngine`],
//! documented in `docs/EMULATOR.md`): the decode-dispatch
//! [interpreter](machine::Machine::step) and a decoded-basic-block
//! [translation cache](translate) (the DBT back end), which interprets a
//! block until it has been entered [`TIER_UP`] times and translates it
//! then. They are bit-identical in
//! architectural state, retired counts, modelled cycles and trap pcs;
//! the `RVDYN_EMU` environment variable selects the default.

#![deny(missing_docs)]

mod codemap;
pub mod cost;
mod exec;
pub mod loader;
pub mod machine;
pub mod memory;
pub mod translate;

pub use cost::CostModel;
pub use loader::load_binary;
pub use machine::{Machine, MemOp, StopReason, EXIT_SYSCALL};
pub use memory::Memory;
pub use translate::{EmuEngine, EmuEvent, TIER_UP};
