//! # rvdyn-dataflow — dataflow analyses (DataflowAPI)
//!
//! The DataflowAPI-shaped paths of rvdyn's dataflow analyses. Dyninst's
//! *DataflowAPI* (§3.2.4) computes register liveness and stack heights
//! over ParseAPI's CFG for CodeGen and StackwalkerAPI to consume. In
//! rvdyn the analyses live in `rvdyn-parse`, next to the natural loops,
//! because each [`Function`](rvdyn_parse::Function) solves them on first
//! use and keeps the answer: [`Function::liveness`], and
//! [`Function::stack_heights`]. Every holder of the parse — each session,
//! fleet and worker on one `Arc<Analysis>` — then reads one solution per
//! function. This crate re-exports them under the paths it has always
//! offered:
//!
//! * [`liveness`] — register liveness, whose complement (the dead
//!   registers) feeds CodeGenAPI's register allocation (§4.3);
//! * [`stackheight`] — stack-pointer displacement per pc, read by
//!   StackwalkerAPI's SP-based frame stepper (§3.2.7);
//! * [`conventions`] — the psABI register sets the analyses use as
//!   boundary conditions;
//! * natural loops and dominators.
//!
//! The solvers stay callable, and a fresh solve equals the kept one:
//!
//! ```
//! use rvdyn_parse::source::RawCode;
//! use rvdyn_parse::{CodeObject, ParseOptions};
//!
//! // One function at 0x1000: `ret`.
//! let src = RawCode {
//!     base: 0x1000,
//!     bytes: 0x0000_8067u32.to_le_bytes().to_vec(),
//!     entries: vec![0x1000],
//! };
//! let co = CodeObject::parse(&src, &ParseOptions::default());
//! let f = &co.functions[&0x1000];
//! let fresh = rvdyn_dataflow::Liveness::analyze(f);
//! assert_eq!(fresh.live_in(0x1000), f.liveness().live_in(0x1000));
//! let heights = rvdyn_dataflow::StackHeight::analyze(f);
//! assert_eq!(heights.frame_at(f, 0x1000), f.stack_heights().frame_at(f, 0x1000));
//! ```
//!
//! [`Function::liveness`]: rvdyn_parse::Function::liveness
//! [`Function::stack_heights`]: rvdyn_parse::Function::stack_heights

pub use conventions::{arg_regs, callee_saved, caller_saved, ret_regs};
pub use liveness::Liveness;
pub use rvdyn_parse::{conventions, liveness, stackheight};
pub use rvdyn_parse::{dominators, natural_loops, Loop};
pub use stackheight::{FrameInfo, StackHeight};
