//! # rvdyn-asm — assembler and mutatee program suite
//!
//! The paper's experiments run gcc-compiled C programs on RISC-V hardware.
//! This workspace has neither a RISC-V compiler nor hardware, so this crate
//! provides the substitute (documented in DESIGN.md §2): a small assembler
//! over `rvdyn-isa`'s instruction builders, and a suite of *program
//! builders* that emit complete, runnable ELF executables — most
//! importantly the matrix-multiply application of §4.1, constructed with
//! exactly the 11-basic-block multiply function and ~2M dynamically
//! executed blocks per call that the paper reports.
//!
//! The produced binaries are real ELF64/RISC-V files (with symbols,
//! `.riscv.attributes`, and program headers); they can be parsed by
//! ParseAPI, instrumented by PatchAPI, rewritten by SymtabAPI, and executed
//! by the `rvdyn-emu` substrate.

pub mod assembler;
pub mod programs;

pub use assembler::{AsmError, Assembler, Label};
pub use programs::{
    atomics_program, deep_call_program, fib_program, indirect_entry_program,
    many_functions_program, matmul_program, memcpy_program, nested_call_program, switch_program,
    switch_rel_program, tailcall_program, tiny_function_program, tiny_indirect_program, Layout,
};
