//! # rvdyn-parse — control-flow analysis (ParseAPI)
//!
//! The rvdyn equivalent of Dyninst's *ParseAPI* (§3.2.3): traversal
//! ("recursive descent") construction of an annotated CFG — functions,
//! basic blocks and edges — from the machine code of a mutatee, with
//! natural loops ([`loops`]) computed per function on first use.
//!
//! A [`Function`] holds its blocks in one [`Blocks`] collection sorted
//! by start, with every block's instructions and edges in two arenas;
//! a [`BasicBlock`] is a view into them.
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
//!   algorithm" §2 credits for gigabyte-scale binaries. The same worklist
//!   drives the instrumenter's parallel plan phase in `rvdyn-patch`. Each
//!   worker keeps one [`ParseScratch`] for every function it parses.

pub mod block;
pub mod classify;
pub mod function;
pub mod gaps;
pub mod jumptable;
pub mod loops;
pub mod parallel;
pub mod parser;
pub mod source;
pub mod worklist;

pub use block::{BasicBlock, Blocks, Edge, EdgeKind};
pub use classify::BranchPurpose;
pub use function::Function;
pub use loops::{dominators, loop_depths, natural_loops, nesting_depths, Loop};
pub use parser::{CodeObject, ParseEvent, ParseOptions, ParseScratch};
pub use source::CodeSource;
