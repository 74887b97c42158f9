//! Correctness of the optimal counter-placement pass
//! (`rvdyn_patch::placement`): reconstructed per-block counts must be
//! *identical* to every-block ground truth —
//!
//! 1. end to end on the emulator, on both the static (`rewrite`) and
//!    dynamic delivery paths (matmul, fib),
//! 2. on a deterministic pin of the matmul kernel's 11-block CFG
//!    (exactly 4 counters, at the three loop latches + the exit block),
//! 3. under proptest, over random reducible CFGs (structured seq/if/loop
//!    composition) with simulated executions, and over random matmul
//!    sizes on the emulator.

mod common;

use common::{ProgramStrategy, Stmt};
use proptest::prelude::*;
use rvdyn::telemetry::CollectSink;
use rvdyn::{
    plan_block_counters, BinaryEditor, CounterPlacement, CounterSite, DynamicInstrumenter,
    SessionOptions, TelemetryEvent,
};
use rvdyn_parse::block::{BasicBlock, Edge, EdgeKind};
use rvdyn_parse::Function;
use std::collections::BTreeMap;

fn optimal_opts() -> SessionOptions {
    SessionOptions::new().counter_placement(CounterPlacement::Optimal)
}

/// Closed-form per-call execution counts for matmul's 11 blocks in
/// address order (entry, i-header, i-body, j-header, j-body, k-header,
/// k-body, j-store, j-inc, i-inc, exit) — same counting as the
/// closed-form totals pinned in the seed's dynamic tests.
fn matmul_truth(n: u64, reps: u64) -> Vec<u64> {
    [
        1,
        n + 1,
        n,
        n * (n + 1),
        n * n,
        n * n * (n + 1),
        n * n * n,
        n * n,
        n * n,
        n,
        1,
    ]
    .iter()
    .map(|c| c * reps)
    .collect()
}

// --- deterministic pin of the matmul CFG -----------------------------------

#[test]
fn matmul_plan_pins_four_cold_counters() {
    let elf = rvdyn_asm::matmul_program(4, 1).to_bytes().unwrap();
    let ed = BinaryEditor::open(&elf).unwrap();
    let addr = ed.function_addr("matmul").unwrap();
    let f = &ed.code().functions[&addr];
    assert_eq!(f.blocks.len(), 11, "matmul is the paper's 11-block kernel");

    let plan = plan_block_counters(f).expect("matmul must be plannable");
    assert_eq!(plan.counters_placed(), 4, "cyclomatic number of the CFG");
    assert_eq!(plan.counters_elided(), 7);

    // Every site lands on a single-successor block (the three loop
    // latches and the function exit) — no branch-edge probes needed.
    let blocks: Vec<u64> = f.blocks.keys().collect();
    let site_blocks: Vec<u64> = plan
        .sites
        .iter()
        .map(|s| match *s {
            CounterSite::Block { block } => block,
            other => panic!("expected a block-entry site, got {other:?}"),
        })
        .collect();
    // Address order: k-body (n³), j-inc (n²), i-inc (n), exit (1).
    assert_eq!(
        site_blocks,
        vec![blocks[6], blocks[8], blocks[9], blocks[10]]
    );

    // The reconstruction matrix recovers the closed form from the four
    // cold counts: with counters (n³·r, n²·r, n·r, r) the full 11-block
    // profile falls out exactly.
    let (n, reps) = (7u64, 3u64);
    let counters = [n * n * n * reps, n * n * reps, n * reps, reps];
    let counts = plan.reconstruct(&counters).unwrap();
    let truth = matmul_truth(n, reps);
    for (i, b) in blocks.iter().enumerate() {
        assert_eq!(counts[b], truth[i], "block {i} ({b:#x})");
    }
}

// --- end to end, static path ------------------------------------------------

#[test]
fn static_optimal_counts_match_every_block() {
    let (n, reps) = (6usize, 3usize);
    let elf = rvdyn_asm::matmul_program(n, reps).to_bytes().unwrap();

    // Ground truth: one counter per block.
    let mut ed = BinaryEditor::open(&elf).unwrap();
    let bc = ed.count_blocks("matmul").unwrap();
    assert!(!bc.is_optimal());
    let r = ed.instrument_and_run(1_000_000_000).unwrap();
    let truth = ed.block_counts(&bc, &r).unwrap();

    // Optimal placement on a fresh session over the same image.
    let sink = CollectSink::new();
    let mut ed = BinaryEditor::open_with(&elf, optimal_opts().telemetry(sink.clone())).unwrap();
    let bc = ed.count_blocks("matmul").unwrap();
    assert!(bc.is_optimal());
    assert_eq!(bc.counters_placed(), 4);
    assert_eq!(bc.blocks_covered(), 11);
    let r = ed.instrument_and_run(1_000_000_000).unwrap();
    let counts = ed.block_counts(&bc, &r).unwrap();

    assert_eq!(counts, truth, "reconstructed counts must match exactly");
    let expected: Vec<u64> = matmul_truth(n as u64, reps as u64);
    assert_eq!(counts.values().copied().collect::<Vec<_>>(), expected);

    // Diagnostics and telemetry tell the same story.
    let d = ed.diagnostics();
    assert_eq!(d.counters_placed, 4);
    assert_eq!(d.counters_elided, 7);
    assert_eq!(d.counts_reconstructed, 11);
    assert!(sink.events().iter().any(|e| matches!(
        e,
        TelemetryEvent::PlacementComputed {
            blocks: 11,
            sites: 4,
            ..
        }
    )));
    // Satellite: the static delivery now reports its region structure.
    assert!(d.patch_regions_written > 0);
}

#[test]
fn static_optimal_fib_matches_every_block() {
    // fib exercises call/call-fallthrough block shapes and recursion.
    let elf = rvdyn_asm::fib_program(9).to_bytes().unwrap();

    let mut ed = BinaryEditor::open(&elf).unwrap();
    let bc = ed.count_blocks("fib").unwrap();
    let r = ed.instrument_and_run(1_000_000_000).unwrap();
    let truth = ed.block_counts(&bc, &r).unwrap();

    let mut ed = BinaryEditor::open_with(&elf, optimal_opts()).unwrap();
    let bc = ed.count_blocks("fib").unwrap();
    let r = ed.instrument_and_run(1_000_000_000).unwrap();
    let counts = ed.block_counts(&bc, &r).unwrap();
    assert_eq!(counts, truth);
    // The entry block count is the fib call-tree size.
    let entry = ed.function_addr("fib").unwrap();
    assert!(counts[&entry] > 1);
}

// --- end to end, dynamic path ----------------------------------------------

#[test]
fn dynamic_optimal_counts_match_every_block() {
    let (n, reps) = (5usize, 2usize);

    let bin = rvdyn_asm::matmul_program(n, reps);
    let mut dy = DynamicInstrumenter::create(bin);
    let bc = dy.count_blocks("matmul").unwrap();
    dy.commit().unwrap();
    assert_eq!(dy.run_to_exit().unwrap(), 0);
    let truth = dy.block_counts(&bc).unwrap();

    let bin = rvdyn_asm::matmul_program(n, reps);
    let mut dy = DynamicInstrumenter::create_with(bin, optimal_opts());
    let bc = dy.count_blocks("matmul").unwrap();
    assert!(bc.is_optimal());
    dy.commit().unwrap();
    assert_eq!(dy.run_to_exit().unwrap(), 0);
    let counts = dy.block_counts(&bc).unwrap();

    assert_eq!(counts, truth);
    assert_eq!(
        counts.values().copied().collect::<Vec<_>>(),
        matmul_truth(n as u64, reps as u64)
    );
    assert_eq!(dy.diagnostics().counts_reconstructed, 11);
}

// --- proptest: random reducible CFGs ---------------------------------------

// The structured-program generator ([`Stmt`], [`ProgramStrategy`]) lives
// in `tests/common/mod.rs`, shared with the parallel-rewrite parity
// suite; the synthetic-Function lowering below stays local because only
// the placement math needs it.

struct Lowered {
    func: Function,
    /// Loop-header blocks, where `Taken` exits the loop (used to force
    /// termination in long simulated walks).
    headers: Vec<u64>,
}

fn lower(stmts: &[Stmt]) -> Lowered {
    struct B {
        blocks: BTreeMap<u64, Vec<Edge>>,
        headers: Vec<u64>,
        next: u64,
    }
    impl B {
        fn new_block(&mut self) -> u64 {
            let a = self.next;
            self.next += 4;
            self.blocks.insert(a, Vec::new());
            a
        }
        /// Lower a statement list; returns (entry, open exit block).
        fn seq(&mut self, stmts: &[Stmt]) -> (u64, u64) {
            let mut entry = None;
            let mut tail: Option<u64> = None;
            for s in stmts {
                let (e, x) = self.stmt(s);
                if let Some(t) = tail {
                    self.blocks
                        .get_mut(&t)
                        .unwrap()
                        .push(Edge::to(EdgeKind::Jump, e));
                }
                entry.get_or_insert(e);
                tail = Some(x);
            }
            (entry.unwrap(), tail.unwrap())
        }
        fn stmt(&mut self, s: &Stmt) -> (u64, u64) {
            match s {
                Stmt::Block => {
                    let b = self.new_block();
                    (b, b)
                }
                Stmt::If(a, b) => {
                    let cond = self.new_block();
                    let (ae, ax) = self.seq(a);
                    let (be, bx) = self.seq(b);
                    let join = self.new_block();
                    self.blocks.get_mut(&cond).unwrap().extend([
                        Edge::to(EdgeKind::Taken, ae),
                        Edge::to(EdgeKind::NotTaken, be),
                    ]);
                    for x in [ax, bx] {
                        self.blocks
                            .get_mut(&x)
                            .unwrap()
                            .push(Edge::to(EdgeKind::Jump, join));
                    }
                    (cond, join)
                }
                Stmt::Loop(body) => {
                    let header = self.new_block();
                    self.headers.push(header);
                    let (be, bx) = self.seq(body);
                    let after = self.new_block();
                    self.blocks.get_mut(&header).unwrap().extend([
                        Edge::to(EdgeKind::Taken, after),
                        Edge::to(EdgeKind::NotTaken, be),
                    ]);
                    self.blocks
                        .get_mut(&bx)
                        .unwrap()
                        .push(Edge::to(EdgeKind::Jump, header));
                    (header, after)
                }
            }
        }
    }
    let mut b = B {
        blocks: BTreeMap::new(),
        headers: Vec::new(),
        next: 0x1000,
    };
    let (entry, exit) = b.seq(stmts);
    b.blocks
        .get_mut(&exit)
        .unwrap()
        .push(Edge::out(EdgeKind::Return));
    let nops: Vec<_> = b
        .blocks
        .keys()
        .map(|&start| {
            let mut inst = rvdyn_isa::build::nop();
            inst.address = start;
            inst
        })
        .collect();
    let f = Function::from_blocks(
        entry,
        b.blocks
            .iter()
            .zip(&nops)
            .map(|((&start, edges), inst)| BasicBlock {
                start,
                end: start + 4,
                insts: std::slice::from_ref(inst),
                edges,
            }),
    );
    Lowered {
        func: f,
        headers: b.headers,
    }
}

/// Execute `invocations` random walks over the CFG; return the true
/// per-block counts and the values each planned counter site would hold.
fn simulate(
    low: &Lowered,
    sites: &[CounterSite],
    seed: u64,
    invocations: u64,
) -> (BTreeMap<u64, u64>, Vec<u64>) {
    let f = &low.func;
    let mut rng = seed | 1;
    let mut flip = || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) & 1 == 0
    };
    let mut counts: BTreeMap<u64, u64> = f.blocks.keys().map(|b| (b, 0)).collect();
    let mut taken: BTreeMap<u64, u64> = BTreeMap::new();
    let mut not_taken: BTreeMap<u64, u64> = BTreeMap::new();
    let mut steps = 0u64;
    for _ in 0..invocations {
        let mut cur = f.entry;
        loop {
            *counts.get_mut(&cur).unwrap() += 1;
            steps += 1;
            let b = f.blocks.at(cur);
            let intra: Vec<&Edge> = b
                .edges
                .iter()
                .filter(|e| e.kind.is_intraprocedural())
                .collect();
            if intra.is_empty() {
                break; // return block
            }
            if intra.len() == 1 {
                cur = intra[0].target.unwrap();
                continue;
            }
            // Conditional: coin flip, except that long walks force loop
            // headers to exit (Taken leaves the loop in this lowering).
            let take = if steps > 20_000 && low.headers.contains(&cur) {
                true
            } else {
                flip()
            };
            let kind = if take {
                EdgeKind::Taken
            } else {
                EdgeKind::NotTaken
            };
            *if take {
                taken.entry(cur).or_default()
            } else {
                not_taken.entry(cur).or_default()
            } += 1;
            cur = intra
                .iter()
                .find(|e| e.kind == kind)
                .unwrap()
                .target
                .unwrap();
        }
    }
    let counters = sites
        .iter()
        .map(|s| match *s {
            CounterSite::Block { block } => counts[&block],
            CounterSite::TakenEdge { block, .. } => taken.get(&block).copied().unwrap_or(0),
            CounterSite::NotTakenEdge { block, .. } => not_taken.get(&block).copied().unwrap_or(0),
        })
        .collect();
    (counts, counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// For any structured (reducible) CFG and any execution, the counts
    /// reconstructed from the placed counters equal the true counts of
    /// every block — the every-block ground truth.
    #[test]
    fn random_reducible_cfgs_reconstruct_exactly(
        stmts in ProgramStrategy,
        seed in any::<u64>(),
        invocations in 1u64..4,
    ) {
        let low = lower(&stmts);
        let Some(plan) = plan_block_counters(&low.func) else {
            // No saving over every-block for this shape — a legal
            // outcome (callers fall back), nothing to verify.
            return Ok(());
        };
        prop_assert!(plan.counters_placed() < low.func.blocks.len());
        let (truth, counters) = simulate(&low, &plan.sites, seed, invocations);
        let counts = plan.reconstruct(&counters).unwrap();
        prop_assert_eq!(counts, truth);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Both placement modes, run for real on the emulator over random
    /// matmul sizes, agree block for block.
    #[test]
    fn emulator_matmul_sizes_agree(n in 2usize..7, reps in 1usize..3) {
        let elf = rvdyn_asm::matmul_program(n, reps).to_bytes().unwrap();

        let mut ed = BinaryEditor::open(&elf).unwrap();
        let bc = ed.count_blocks("matmul").unwrap();
        let r = ed.instrument_and_run(1_000_000_000).unwrap();
        let truth = ed.block_counts(&bc, &r).unwrap();

        let mut ed = BinaryEditor::open_with(&elf, optimal_opts()).unwrap();
        let bc = ed.count_blocks("matmul").unwrap();
        prop_assert!(bc.is_optimal());
        let r = ed.instrument_and_run(1_000_000_000).unwrap();
        let counts = ed.block_counts(&bc, &r).unwrap();
        prop_assert_eq!(counts, truth);
    }
}
