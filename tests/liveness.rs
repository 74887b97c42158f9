//! Dead registers at a block start: the instrumenter asks `dead_before`
//! at every block start under every-block counting, so it must answer
//! exactly what the backward walk through the block answers.

mod common;

use common::ProgramStrategy;
use proptest::prelude::*;
use rvdyn::{CodeObject, Liveness, ParseOptions};
use rvdyn_asm::Assembler;
use rvdyn_isa::{build, Op, Reg};
use rvdyn_parse::source::RawCode;
use rvdyn_symtab::Binary;

/// `dead_before(f, b.start)` is the complement of the walked
/// `live_before(f, b.start)` for every block of every function of `bin`.
fn assert_block_starts_agree(bin: &Binary, what: &str) {
    let co = CodeObject::parse(bin, &ParseOptions::default());
    for f in co.functions.values() {
        let lv = Liveness::analyze(f);
        for b in f.blocks.values() {
            assert_eq!(
                lv.dead_before(f, b.start),
                lv.live_before(f, b.start).complement(),
                "{what}: block {:#x} of {:#x}",
                b.start,
                f.entry
            );
        }
    }
}

#[test]
fn block_start_dead_sets_match_the_walk_on_the_mutatee_suite() {
    let suite: Vec<(&str, Binary)> = vec![
        ("matmul", rvdyn_asm::matmul_program(8, 2)),
        ("fib", rvdyn_asm::fib_program(12)),
        ("switch", rvdyn_asm::switch_program(64)),
        ("switch_rel", rvdyn_asm::switch_rel_program(64)),
        ("indirect", rvdyn_asm::indirect_entry_program(32)),
        ("tiny", rvdyn_asm::tiny_function_program(32)),
        ("tailcall", rvdyn_asm::tailcall_program()),
        ("memcpy", rvdyn_asm::memcpy_program()),
        ("deep", rvdyn_asm::deep_call_program(16)),
        ("atomics", rvdyn_asm::atomics_program(100)),
        ("many", rvdyn_asm::many_functions_program(32)),
        ("nested", rvdyn_asm::nested_call_program(&[16, 32, 0], true)),
    ];
    for (what, bin) in &suite {
        assert_block_starts_agree(bin, what);
    }
}

/// At 0x1000: `first; addi a0, a0, 3; addi a1, x5, -2040; addi a0,
/// a0, 1; ret`. With `first` a `beq a0, x0, +10`, the branch lands on
/// the upper half of `addi a1, x5, -2040` (0x80828593), which decodes
/// as `c.jr ra`: the parse holds the fall-through block [0x1004,
/// 0x1014) and, starting inside it, the short block [0x100a, 0x100c).
fn overlapped(first: rvdyn_isa::Instruction) -> CodeObject {
    let mut a = Assembler::new(0x1000);
    a.inst(first);
    a.addi(Reg::x(10), Reg::x(10), 3);
    a.addi(Reg::x(11), Reg::x(5), -2040);
    a.addi(Reg::x(10), Reg::x(10), 1);
    a.ret();
    let src = RawCode {
        base: 0x1000,
        bytes: a.finish().unwrap(),
        entries: vec![0x1000],
    };
    CodeObject::parse(&src, &ParseOptions::default())
}

#[test]
fn a_shorter_overlapping_block_does_not_hide_the_block_that_holds_an_address() {
    let co = overlapped(build::b_type(Op::Beq, Reg::x(10), Reg::X0, 10));
    let f = &co.functions[&0x1000];
    let spans: Vec<(u64, u64)> = f.blocks.values().map(|b| (b.start, b.end)).collect();
    assert!(spans.contains(&(0x1004, 0x1014)) && spans.contains(&(0x100a, 0x100c)));
    // The same instructions as one straight-line block, with no
    // overlapping code.
    let plain = overlapped(build::nop());
    let g = &plain.functions[&0x1000];
    assert_eq!(g.blocks.len(), 1);
    let (lf, lg) = (Liveness::analyze(f), Liveness::analyze(g));
    for addr in [0x100c, 0x1010] {
        assert_eq!(f.block_containing(addr).map(|b| b.start), Some(0x1004));
        assert_eq!(co.function_containing(addr).map(|f| f.entry), Some(0x1000));
        assert_eq!(
            lf.dead_before(f, addr),
            lg.dead_before(g, addr),
            "dead set before {addr:#x}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn block_start_dead_sets_match_the_walk_on_random_cfgs(
        stmts in ProgramStrategy,
        seed in any::<u64>(),
    ) {
        assert_block_starts_agree(&common::stmt_program(&stmts, seed), "random");
    }
}
