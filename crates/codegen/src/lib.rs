//! # rvdyn-codegen — snippet code generation (CodeGenAPI)
//!
//! The rvdyn equivalent of Dyninst's *CodeGenAPI* (§3.2.5): it transforms
//! the machine-independent snippet AST into RV64 instruction sequences,
//! honouring the mutatee's ISA profile (never emitting instructions from
//! extensions the target lacks) and drawing scratch registers from the
//! dead-register sets produced by DataflowAPI's liveness analysis — the
//! register-allocation optimisation the paper credits for the low RISC-V
//! instrumentation overhead (§4.3).
//!
//! Layers:
//!
//! * [`imm`] — immediate materialisation: the `lui`/`addi`/`slli` sequence
//!   construction the paper calls "one of the more error-prone aspects of
//!   code generation" for RISC-V; property-tested for exactness over all
//!   of `u64`.
//! * [`snippet`] — the machine-independent AST (Dyninst's `BPatch_snippet`
//!   analogue): arithmetic, memory, variables, conditionals, sequences.
//! * [`regalloc`] — scratch-register pools built from liveness information
//!   with explicit spill fallback (ablation A1 forces the spill path).
//! * [`emitter`] — AST → instruction lowering: [`Emitter::lower_into`]
//!   appends one point's code as encoded words to a caller's buffer, and
//!   one emitter serves any number of points.

pub mod emitter;
pub mod imm;
pub mod regalloc;
pub mod snippet;

pub use emitter::{generate, generate_with_stats, CodeGenError, Emitter, LowerStats};
pub use regalloc::{RegAllocMode, RegAllocator};
pub use snippet::{BinaryOp, Snippet, UnaryOp, Var};
