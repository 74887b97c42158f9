//! Shared test infrastructure: the random structured-program generator
//! used by the placement proptests and the parallel-rewrite parity
//! proptests.
//!
//! [`Stmt`] trees lower to *reducible* CFGs by construction. Two
//! lowerings exist: `tests/placement.rs` keeps a synthetic
//! [`rvdyn_parse::Function`] lowering (for pure-placement math), while
//! [`stmt_program`] here assembles a **real runnable mutatee** whose
//! `work` function walks the same shape deterministically — every `If`
//! flips on a bit of an in-program LCG and every `Loop` runs an
//! LCG-derived 0..=3 trips — so instrumented runs are reproducible for
//! a given seed. [`stmt_program_hot`] calls `work` often enough that the
//! cached engine translates its blocks.

#![allow(dead_code)]

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rvdyn_asm::{Assembler, Layout};
use rvdyn_emu::TIER_UP;
use rvdyn_isa::{build, IsaProfile, Op, Reg};
use rvdyn_symtab::{
    Binary, RiscvAttributes, Section, Symbol, SymbolBinding, SymbolKind, SHF_ALLOC, SHF_EXECINSTR,
    SHF_WRITE,
};

/// 64-bit FNV-1a, written out so that digests pinned by the parity
/// tests do not depend on the standard library's hasher.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed string, so adjacent fields cannot alias.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Structured program shapes lower to reducible CFGs by construction.
#[derive(Debug, Clone)]
pub enum Stmt {
    Block,
    If(Vec<Stmt>, Vec<Stmt>),
    Loop(Vec<Stmt>),
}

/// Recursive strategy for whole programs (the vendored proptest shim has
/// no `prop_recursive`, so the recursion is hand-rolled over its RNG).
#[derive(Debug, Clone, Copy)]
pub struct ProgramStrategy;

impl Strategy for ProgramStrategy {
    type Value = Vec<Stmt>;
    fn generate(&self, rng: &mut TestRng) -> Vec<Stmt> {
        gen_seq(rng, 0)
    }
}

fn gen_seq(rng: &mut TestRng, depth: usize) -> Vec<Stmt> {
    let n = 1 + rng.below(3) as usize;
    (0..n).map(|_| gen_stmt(rng, depth)).collect()
}

fn gen_stmt(rng: &mut TestRng, depth: usize) -> Stmt {
    if depth >= 3 {
        return Stmt::Block;
    }
    match rng.below(3) {
        0 => Stmt::Block,
        1 => Stmt::If(gen_seq(rng, depth + 1), gen_seq(rng, depth + 1)),
        _ => Stmt::Loop(gen_seq(rng, depth + 1)),
    }
}

const T0: Reg = Reg::x(5);
const T1: Reg = Reg::x(6);
const S0: Reg = Reg::x(8);
const S1: Reg = Reg::x(9);
const A0: Reg = Reg::x(10);
const A7: Reg = Reg::x(17);
const RA: Reg = Reg::X1;
const SP: Reg = Reg::X2;

fn step_lcg(a: &mut Assembler) {
    a.li(T0, 25173);
    a.mul(S0, S0, T0);
    a.li(T1, 13849);
    a.add(S0, S0, T1);
}

fn emit_seq(a: &mut Assembler, stmts: &[Stmt], id: &mut i64) {
    for s in stmts {
        emit_stmt(a, s, id);
    }
}

fn emit_stmt(a: &mut Assembler, s: &Stmt, id: &mut i64) {
    match s {
        Stmt::Block => {
            // acc = acc * 3 + block_id — order-sensitive, so a wrong walk
            // (or a miscompiled relocation) changes the final value.
            let k = *id % 512;
            *id += 1;
            a.li(T0, 3);
            a.mul(S1, S1, T0);
            a.addi(S1, S1, k);
        }
        Stmt::If(then_, else_) => {
            step_lcg(a);
            a.inst(build::i_type(Op::Andi, T0, S0, 1 << 7));
            let l_then = a.label();
            let l_join = a.label();
            a.bne(T0, Reg::X0, l_then);
            emit_seq(a, else_, id);
            a.jump(l_join);
            a.bind(l_then);
            emit_seq(a, then_, id);
            a.bind(l_join);
        }
        Stmt::Loop(body) => {
            // Trip count 0..=3 from the LCG; the counter lives in a stack
            // slot so nested loops don't clobber each other.
            step_lcg(a);
            a.addi(SP, SP, -16);
            a.inst(build::i_type(Op::Andi, T0, S0, 3));
            a.sd(T0, SP, 0);
            let l_head = a.here_label();
            let l_exit = a.label();
            a.ld(T0, SP, 0);
            a.beq(T0, Reg::X0, l_exit);
            emit_seq(a, body, id);
            a.ld(T0, SP, 0);
            a.addi(T0, T0, -1);
            a.sd(T0, SP, 0);
            a.jump(l_head);
            a.bind(l_exit);
            a.addi(SP, SP, 16);
        }
    }
}

/// Assemble a [`Stmt`] tree into a real mutatee: `main` calls
/// `work(seed)` and stores the accumulator at the `result` data slot
/// (exit code is always 0). Execution is fully determined by `seed`.
pub fn stmt_program(stmts: &[Stmt], seed: u64) -> Binary {
    assemble(stmts, seed, 1)
}

/// The hot form of [`stmt_program`]: `main` calls `work` `2 * TIER_UP`
/// times, on seeds `seed + 2k`, and folds the results into the `result`
/// slot (`result = result * 3 + work(..)`), so blocks `work` enters on
/// every call are hot enough for the cached engine to translate.
pub fn stmt_program_hot(stmts: &[Stmt], seed: u64) -> Binary {
    assemble(stmts, seed, 2 * TIER_UP)
}

/// A mutatee whose `main` calls `work(1)` once and stores its `a0` at
/// the `result` data slot, with `work`'s code (its `ret` included) from
/// `body`.
pub fn work_program(body: impl FnOnce(&mut Assembler)) -> Binary {
    assemble_with(1, 1, body)
}

fn assemble(stmts: &[Stmt], seed: u64, calls: u32) -> Binary {
    // work(a0 = seed): the deterministic walk. s0 = LCG state, s1 = acc.
    assemble_with(seed, calls, |a| {
        a.mv(S0, A0);
        a.li(S1, 0);
        let mut id = 1i64;
        emit_seq(a, stmts, &mut id);
        a.mv(A0, S1);
        a.ret();
    })
}

fn assemble_with(seed: u64, calls: u32, work: impl FnOnce(&mut Assembler)) -> Binary {
    let layout = Layout::default();
    let result = layout.data;
    let mut a = Assembler::new(layout.text);
    let l_main = a.label();
    let l_work = a.label();

    let start_addr = a.here();
    a.call(l_main);
    a.li(A7, 93); // exit
    a.ecall();
    let start_size = a.here() - start_addr;

    a.bind(l_main);
    let main_addr = a.here();
    a.addi(SP, SP, -16);
    a.sd(RA, SP, 8);
    let seed = ((seed & 0x7fff_ffff) | 1) as i64;
    if calls == 1 {
        a.li(A0, seed);
        a.call(l_work);
        a.li(T0, result as i64);
        a.sd(A0, T0, 0);
    } else {
        // The call counter lives in main's frame: work saves nothing.
        a.li(T0, calls as i64);
        a.sd(T0, SP, 0);
        let l_call = a.here_label();
        a.slli(T0, T0, 1);
        a.li(A0, seed);
        a.add(A0, A0, T0);
        a.call(l_work);
        a.li(T0, result as i64);
        a.ld(T1, T0, 0);
        a.li(S1, 3);
        a.mul(T1, T1, S1);
        a.add(T1, T1, A0);
        a.sd(T1, T0, 0);
        a.ld(T0, SP, 0);
        a.addi(T0, T0, -1);
        a.sd(T0, SP, 0);
        a.bne(T0, Reg::X0, l_call);
    }
    a.mv(A0, Reg::X0);
    a.ld(RA, SP, 8);
    a.addi(SP, SP, 16);
    a.ret();
    let main_size = a.here() - main_addr;

    a.bind(l_work);
    let work_addr = a.here();
    work(&mut a);
    let work_size = a.here() - work_addr;

    let code = a.finish().expect("stmt program assembles");
    let sections = vec![
        Section::progbits(".text", layout.text, SHF_ALLOC | SHF_EXECINSTR, code),
        Section::progbits(".data", layout.data, SHF_ALLOC | SHF_WRITE, vec![0; 8]),
    ];
    let sym = |name: &str, addr: u64, size: u64, kind| Symbol {
        name: name.to_string(),
        value: addr,
        size,
        kind,
        binding: SymbolBinding::Global,
    };
    let profile = IsaProfile::rv64gc();
    Binary {
        entry: layout.text,
        e_flags: Binary::eflags_for(profile),
        e_type: rvdyn_symtab::elf::ET_EXEC,
        sections,
        symbols: vec![
            sym("_start", start_addr, start_size, SymbolKind::Function),
            sym("main", main_addr, main_size, SymbolKind::Function),
            sym("work", work_addr, work_size, SymbolKind::Function),
            sym("result", result, 8, SymbolKind::Object),
        ],
        attributes: Some(RiscvAttributes::for_profile(profile)),
    }
}
