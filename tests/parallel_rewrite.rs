//! Determinism and parity of the parallel instrumentation back half:
//! the plan phase fans out over a worker pool, but the sequential layout
//! phase must make the output **bit-identical for any thread count** —
//! on the static (`rewrite`) path, on the dynamic (`commit`) path, and
//! observably (same telemetry order, same diagnostics, same emulator
//! results) — pinned here over the whole mutatee suite and over random
//! reducible CFGs.

mod common;

use common::ProgramStrategy;
use proptest::prelude::*;
use rvdyn::telemetry::CollectSink;
use rvdyn::{
    Binary, BinaryEditor, DynamicInstrumenter, PointKind, SessionOptions, Snippet, TelemetryEvent,
};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The mutatee suite under test: (name, binary, functions to instrument).
type Mutatee = (&'static str, Binary, Vec<(String, PointKind)>);

fn mutatees() -> Vec<Mutatee> {
    let b = PointKind::BlockEntry;
    let many_funcs: Vec<(String, PointKind)> = (0..24)
        .map(|i| (format!("f_{i}"), b))
        .chain([("main".to_string(), b), ("selector".to_string(), b)])
        .collect();
    vec![
        (
            "matmul",
            rvdyn_asm::matmul_program(4, 1),
            vec![
                ("matmul".to_string(), b),
                ("init_arrays".to_string(), b),
                ("main".to_string(), b),
            ],
        ),
        (
            "indirect",
            rvdyn_asm::indirect_entry_program(6),
            vec![("spin".to_string(), b), ("main".to_string(), b)],
        ),
        (
            "tiny",
            rvdyn_asm::tiny_function_program(8),
            vec![
                ("tiny".to_string(), PointKind::FuncEntry),
                ("main".to_string(), b),
            ],
        ),
        ("many", rvdyn_asm::many_functions_program(24), many_funcs),
    ]
}

fn insert_counters(ed: &mut BinaryEditor, funcs: &[(String, PointKind)]) -> rvdyn::Var {
    let c = ed.alloc_var(8);
    let mut pts = Vec::new();
    for (f, kind) in funcs {
        pts.extend(ed.find_points(f, *kind).unwrap());
    }
    ed.insert(&pts, Snippet::increment(c));
    c
}

#[test]
fn static_rewrite_is_bit_identical_across_thread_counts() {
    for (name, bin, funcs) in mutatees() {
        let elf = bin.to_bytes().unwrap();
        let mut outputs = Vec::new();
        for t in THREADS {
            let mut ed = BinaryEditor::open_with(&elf, SessionOptions::new().threads(t)).unwrap();
            insert_counters(&mut ed, &funcs);
            let out = ed.rewrite().unwrap();
            let d = ed.diagnostics().clone();
            assert_eq!(
                d.instrument_workers,
                t.min(funcs.len()),
                "{name}: worker count at threads={t}"
            );
            assert_eq!(d.plans_built, funcs.len(), "{name}: one plan per function");
            outputs.push(out);
        }
        for (i, out) in outputs.iter().enumerate().skip(1) {
            assert_eq!(
                out, &outputs[0],
                "{name}: threads={} bytes differ from threads=1",
                THREADS[i]
            );
        }
        // The deterministic output must also still run correctly.
        let r = rvdyn::run_elf(&outputs[0], 1_000_000_000).unwrap();
        assert_eq!(r.exit_code, 0, "{name} exit");
    }
}

#[test]
fn static_memory_writes_are_identical_across_thread_counts() {
    // One level below the ELF serializer: the raw (address, bytes) patch
    // writes — what the dynamic path delivers — must match exactly.
    for (name, bin, funcs) in mutatees() {
        let reference = {
            let mut ed = BinaryEditor::from_binary(bin.clone(), SessionOptions::new());
            insert_counters(&mut ed, &funcs);
            ed.instrumented().unwrap()
        };
        for t in [2usize, 4, 8] {
            let mut ed = BinaryEditor::from_binary(bin.clone(), SessionOptions::new().threads(t));
            insert_counters(&mut ed, &funcs);
            let got = ed.instrumented().unwrap();
            assert_eq!(
                got.memory_writes(),
                reference.memory_writes(),
                "{name}: memory writes differ at threads={t}"
            );
            assert_eq!(
                got.trap_table, reference.trap_table,
                "{name}: trap table differs at threads={t}"
            );
        }
    }
}

#[test]
fn dynamic_commit_is_bit_identical_across_thread_counts() {
    for (name, bin, funcs) in mutatees() {
        // Reference payload from a single-threaded plan.
        let reference = {
            let mut ed = BinaryEditor::from_binary(bin.clone(), SessionOptions::new());
            insert_counters(&mut ed, &funcs);
            ed.instrumented().unwrap()
        };
        let mut counters = Vec::new();
        for t in THREADS {
            let mut dy =
                DynamicInstrumenter::create_with(bin.clone(), SessionOptions::new().threads(t));
            let c = dy.alloc_var(8);
            let mut pts = Vec::new();
            for (f, kind) in &funcs {
                pts.extend(dy.find_points(f, *kind).unwrap());
            }
            dy.insert(&pts, Snippet::increment(c));
            dy.commit().unwrap();
            // Every byte the reference plan wrote must be in the live
            // process, exactly.
            for (addr, bytes) in reference.memory_writes() {
                let got = dy.process().read_mem(*addr, bytes.len()).unwrap();
                assert_eq!(
                    &got, bytes,
                    "{name}: committed bytes at {addr:#x} differ at threads={t}"
                );
            }
            assert_eq!(dy.run_to_exit().unwrap(), 0, "{name} exit at threads={t}");
            counters.push(dy.read_var(c).unwrap());
        }
        assert!(
            counters.windows(2).all(|w| w[0] == w[1]),
            "{name}: counter values diverge across thread counts: {counters:?}"
        );
        assert!(counters[0] > 0, "{name}: counted nothing");
    }
}

#[test]
fn telemetry_event_order_is_deterministic() {
    // The plan phase runs on a pool, but events are buffered per plan and
    // replayed in entry order by the layout phase — so the observable
    // event stream is identical for any thread count, including the
    // per-function PlanBuilt markers.
    let bin = rvdyn_asm::many_functions_program(16);
    let funcs: Vec<(String, PointKind)> = (0..16)
        .map(|i| (format!("f_{i}"), PointKind::BlockEntry))
        .collect();
    let trace = |t: usize| {
        let sink = CollectSink::new();
        let mut ed = BinaryEditor::from_binary(
            bin.clone(),
            SessionOptions::new().threads(t).telemetry(sink.clone()),
        );
        insert_counters(&mut ed, &funcs);
        ed.rewrite().unwrap();
        sink.events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TelemetryEvent::PlanBuilt { .. }
                        | TelemetryEvent::PointLowered { .. }
                        | TelemetryEvent::FunctionRelocated { .. }
                        | TelemetryEvent::SpringboardPlanted { .. }
                        | TelemetryEvent::CallRetargeted { .. }
                )
            })
            .map(|e| format!("{e:?}"))
            .collect::<Vec<_>>()
    };
    let baseline = trace(1);
    assert!(
        baseline
            .iter()
            .filter(|s| s.starts_with("PlanBuilt"))
            .count()
            == 16,
        "one PlanBuilt per instrumented function"
    );
    assert!(
        baseline.iter().any(|s| s.starts_with("CallRetargeted")),
        "main's call to f_0 enters its copy"
    );
    for t in [2, 4, 8] {
        assert_eq!(trace(t), baseline, "event order differs at threads={t}");
    }
}

#[test]
fn many_functions_mutatee_computes_its_closed_form() {
    // The stress mutatee's architectural result is 30 + 4n at `result`.
    let n = 24u64;
    let bin = rvdyn_asm::many_functions_program(n as usize);
    let result = bin.symbol_by_name("result").unwrap().value;
    let elf = bin.to_bytes().unwrap();
    let r = rvdyn::run_elf(&elf, 1_000_000_000).unwrap();
    assert_eq!(r.exit_code, 0);
    assert_eq!(r.read_u64(result), Some(30 + 4 * n));
}

// --- parity over random reducible CFGs --------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any structured program, instrumenting with a worker pool
    /// produces the same bytes, the same architectural result, and the
    /// same per-block counts as the sequential instrumenter.
    #[test]
    fn random_cfgs_run_identically_under_parallel_instrumentation(
        stmts in ProgramStrategy,
        seed in any::<u64>(),
    ) {
        let bin = common::stmt_program(&stmts, seed);
        let result_addr = bin.symbol_by_name("result").unwrap().value;
        let elf = bin.to_bytes().unwrap();

        let run = |threads: usize| {
            let mut ed = BinaryEditor::open_with(
                &elf,
                SessionOptions::new().threads(threads),
            ).unwrap();
            let bc_work = ed.count_blocks("work").unwrap();
            let bc_main = ed.count_blocks("main").unwrap();
            let r = ed.instrument_and_run(1_000_000_000).unwrap();
            let counts_work = ed.block_counts(&bc_work, &r).unwrap();
            let counts_main = ed.block_counts(&bc_main, &r).unwrap();
            (r.exit_code, r.read_u64(result_addr), counts_work, counts_main)
        };
        let sequential = run(1);
        prop_assert_eq!(sequential.0, 0, "mutatee must exit cleanly");
        for t in [2usize, 4] {
            let parallel = run(t);
            prop_assert_eq!(&parallel, &sequential,
                "threads={} diverged from sequential", t);
        }

        // And the rewritten images themselves are bit-identical.
        let rewrite = |threads: usize| {
            let mut ed = BinaryEditor::open_with(
                &elf,
                SessionOptions::new().threads(threads),
            ).unwrap();
            let c = ed.alloc_var(8);
            let pts = ed.find_points("work", PointKind::BlockEntry).unwrap();
            ed.insert(&pts, Snippet::increment(c));
            let pts = ed.find_points("main", PointKind::BlockEntry).unwrap();
            ed.insert(&pts, Snippet::increment(c));
            ed.rewrite().unwrap()
        };
        let base = rewrite(1);
        prop_assert_eq!(rewrite(4), base, "rewritten bytes differ at threads=4");
    }
}
