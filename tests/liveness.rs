//! Dead registers at a block start: the instrumenter asks `dead_before`
//! at every block start under every-block counting, so it must answer
//! exactly what the backward walk through the block answers.

mod common;

use common::ProgramStrategy;
use proptest::prelude::*;
use rvdyn::{CodeObject, Liveness, ParseOptions};
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
