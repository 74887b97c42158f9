//! # rvdyn-parse — control-flow analysis (ParseAPI)
//!
//! The rvdyn equivalent of Dyninst's *ParseAPI* (§3.2.3): traversal
//! ("recursive descent") construction of an annotated CFG — functions,
//! basic blocks and edges — from the machine code of a mutatee.
//!
//! A [`Function`] holds its blocks in one [`Blocks`] collection sorted
//! by start, with every block's instructions and edges in two arenas;
//! a [`BasicBlock`] is a view into them.
//!
//! The analyses of Dyninst's *DataflowAPI* (§3.2.4) live here, next to
//! the CFG they run over, and each function solves its own on first use
//! and keeps the answer ([`Function::loops`], [`Function::liveness`],
//! [`Function::stack_heights`]), so every holder of a parse shares one
//! solution per function:
//!
//! * **natural loops** ([`loops`]) — instrumentation points of their own
//!   and the frequency estimate of optimal counter placement;
//! * **register liveness** ([`liveness`]) — a backward may-analysis
//!   whose complement (the *dead* registers) feeds CodeGenAPI's register
//!   allocation, the optimisation credited for the low RISC-V
//!   instrumentation overhead (§4.3), with psABI boundary conditions
//!   from [`conventions`];
//! * **stack heights** ([`stackheight`]) — forward tracking of the
//!   stack-pointer displacement, which StackwalkerAPI's SP-based frame
//!   stepper reads (§3.2.7: RISC-V compilers commonly use `s0` as a
//!   plain GPR, so walking must work without a frame pointer).
//!
//! RISC-V specific machinery reproduced from the paper:
//!
//! * **Multi-use `jal`/`jalr` classification.** RISC-V has only two
//!   unconditional control-transfer instructions, used for jumps, calls,
//!   returns, tail calls and jump tables alike (§3.1.3). [`classify`]
//!   implements the six context rules of §3.2.3, including the backward
//!   slice that resolves `auipc`+`jalr` pairs and `lui`/`addi` chains to
//!   constant targets.
//! * **Jump-table analysis** ([`jumptable`]): bounded-index dispatch
//!   through a table in a read-only section is recognised and its edge set
//!   fully resolved.
//! * **Traversal + gap parsing** ([`parser`], [`gaps`]): parsing starts
//!   from known entry points and follows control flow; unreached
//!   executable gaps are then scanned for function prologues and parsed
//!   speculatively — the stripped-binary path.
//! * **Parallel parsing** ([`parallel`]): independent functions are parsed
//!   concurrently over a shared batch [`worklist`], the "fast parallel
//!   algorithm" §2 credits for gigabyte-scale binaries. The same worklist,
//!   through [`worklist::par_batches`], runs the instrumenter's parallel
//!   plan and finish phases in `rvdyn-patch` and a fleet's per-process
//!   jobs in `rvdyn`. Each worker keeps one [`ParseScratch`] for every
//!   function it parses.

pub mod block;
pub mod classify;
pub mod conventions;
pub mod function;
pub mod gaps;
pub mod jumptable;
pub mod liveness;
pub mod loops;
pub mod parallel;
pub mod parser;
pub mod source;
pub mod stackheight;
pub mod worklist;

pub use block::{BasicBlock, Blocks, Edge, EdgeKind};
pub use classify::BranchPurpose;
pub use function::Function;
pub use liveness::Liveness;
pub use loops::{dominators, loop_depths, natural_loops, nesting_depths, Loop};
pub use parser::{CodeObject, ParseEvent, ParseOptions, ParseScratch};
pub use source::CodeSource;
pub use stackheight::{FrameInfo, StackHeight};
