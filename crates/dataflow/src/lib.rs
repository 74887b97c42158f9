//! # rvdyn-dataflow — dataflow analyses (DataflowAPI)
//!
//! The rvdyn equivalent of Dyninst's *DataflowAPI* (§3.2.4): analyses over
//! the ParseAPI CFG, with instruction semantics sourced from
//! `rvdyn_isa::semantics` (the SAIL-pipeline substitute).
//!
//! Analyses, as enumerated by the paper:
//!
//! * **register liveness** ([`liveness`]) — the backward may-analysis whose
//!   complement (*dead* registers) feeds CodeGenAPI's register allocation,
//!   the optimisation credited for the low RISC-V instrumentation
//!   overhead (§4.3);
//! * **stack height analysis** ([`stackheight`]) — forward tracking of the
//!   stack-pointer displacement, consumed by StackwalkerAPI's SP-based
//!   frame stepper (§3.2.7: RISC-V compilers commonly use `s0` as a plain
//!   GPR, so walking must work without a frame pointer);
//! * **forward and backward slicing** ([`slicing`]) — instructions
//!   affected by / affecting a register value, available to tools
//!   (ParseAPI's `jalr` resolution does not use them: `rvdyn-parse`
//!   does not depend on this crate);
//! * **loop analysis** — natural loops, computed in `rvdyn-parse` and
//!   re-exported here for the DataflowAPI-shaped interface.

pub mod conventions;
pub mod liveness;
pub mod slicing;
pub mod stackheight;

pub use conventions::{arg_regs, callee_saved, caller_saved, ret_regs};
pub use liveness::Liveness;
pub use rvdyn_parse::{dominators, natural_loops, Loop};
pub use slicing::{backward_slice, forward_slice, SliceNode};
pub use stackheight::{FrameInfo, StackHeight};
