//! Differential ground truth for the memory-access tracer
//! (`rvdyn::tools::MemTracer`): the trace an *instrumented* mutatee
//! emits must be record-identical — pc, effective address, width,
//! direction, **and order** — to the interpreter-side memory-op oracle
//! ([`rvdyn_emu::Machine::arm_mem_oracle`]) recorded from an
//! uninstrumented run of the same binary, restricted to the planned
//! sites. The comparison is engine-differential (interpreter and cached
//! DBT produce the same trace, including with mid-run invalidations)
//! and worker-count-invariant (threads 1 and 4 plan identical traces).

mod common;

use common::{stmt_program, ProgramStrategy, Stmt};
use proptest::prelude::*;
use rvdyn::tools::{MemTracer, TraceOptions, TraceReader};
use rvdyn::{
    BinaryEditor, DynamicInstrumenter, EmuEngine, FleetController, RegAllocMode, SessionOptions,
    TraceRecord,
};
use rvdyn_emu::{load_binary, MemOp, StopReason};
use rvdyn_symtab::Binary;

/// The oracle: run `bin` uninstrumented with the interpreter-side
/// memory-op oracle armed, and keep only the ops at the planned pcs.
fn oracle_records(bin: &Binary, pcs: &[u64]) -> Vec<TraceRecord> {
    let set: std::collections::BTreeSet<u64> = pcs.iter().copied().collect();
    let mut m = load_binary(bin);
    m.arm_mem_oracle();
    m.fuel = Some(50_000_000);
    let stop = m.run();
    assert!(
        matches!(stop, StopReason::Exited(0)),
        "oracle run must exit cleanly: {stop:?}"
    );
    m.take_mem_oracle()
        .into_iter()
        .filter(|op| set.contains(&op.pc))
        .map(record)
        .collect()
}

fn record(op: MemOp) -> TraceRecord {
    TraceRecord {
        pc: op.pc,
        addr: op.addr,
        len: op.len,
        is_store: op.is_store,
    }
}

/// Instrument `bin` with a full-program tracer under `opts`, run it to
/// exit on the dynamic path, and drain the ring.
fn traced_run(bin: &Binary, opts: SessionOptions, cap: u64) -> (Vec<u64>, Vec<TraceRecord>, u64) {
    let mut dy = DynamicInstrumenter::create_with(bin.clone(), opts);
    let tracer = MemTracer::plan_dynamic(
        &mut dy,
        &TraceOptions {
            capacity: cap,
            funcs: None,
        },
    )
    .expect("plan");
    dy.commit().expect("commit");
    assert_eq!(dy.run_to_exit().expect("run"), 0);
    let drained = tracer.drain_dynamic(&mut dy).expect("drain");
    (tracer.pcs(), drained.records, drained.dropped)
}

#[test]
fn matmul_trace_matches_oracle_on_both_engines() {
    let bin = rvdyn_asm::matmul_program(6, 2);
    for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
        let (pcs, records, dropped) =
            traced_run(&bin, SessionOptions::new().engine(engine), 1 << 16);
        assert!(!records.is_empty(), "matmul must touch memory");
        assert_eq!(dropped, 0, "capacity must hold the whole run");
        let expected = oracle_records(&bin, &pcs);
        assert_eq!(
            records.len(),
            expected.len(),
            "{engine:?}: record count vs oracle"
        );
        assert_eq!(records, expected, "{engine:?}: trace vs oracle");
    }
}

/// At a point that spills, the record snippet runs under the spill
/// frame, which moves `sp`; the addresses it records for the mutatee's
/// `sp`-relative accesses must still be the ones the mutatee used.
#[test]
fn spilling_points_record_sp_relative_addresses() {
    // Every access of this call chain is `sp`-relative; it stops at the
    // leaf's `ebreak` with all frames live.
    let bin = rvdyn_asm::nested_call_program(&[16, 32, 0], false);
    let mut m = load_binary(&bin);
    m.arm_mem_oracle();
    assert!(matches!(m.run(), StopReason::Break(_)));
    let expected: Vec<TraceRecord> = m.take_mem_oracle().into_iter().map(record).collect();
    assert_eq!(expected.len(), 10);
    for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
        let opts = SessionOptions::new()
            .mode(RegAllocMode::ForceSpill)
            .engine(engine);
        let mut dy = DynamicInstrumenter::create_with(bin.clone(), opts);
        let tracer = MemTracer::plan_dynamic(&mut dy, &TraceOptions::default()).expect("plan");
        dy.commit().expect("commit");
        assert!(dy.diagnostics().spills > 0, "every point spills");
        let stop = dy.run_to_exit();
        assert!(
            matches!(stop, Err(rvdyn::Error::UncleanExit { .. })),
            "{stop:?}"
        );
        let drained = tracer.drain_dynamic(&mut dy).expect("drain");
        assert_eq!(drained.records, expected, "{engine:?}");
    }
}

/// The tracer's cost on the hot path, pinned: every traced access runs
/// the record snippet (one cursor load, a compare-and-branch on it, two
/// record stores, one cursor update), so a change to its lowering moves
/// this count.
#[test]
fn traced_matmul_instruction_count_is_pinned() {
    let mut dy = DynamicInstrumenter::create(rvdyn_asm::matmul_program(16, 2));
    MemTracer::plan_dynamic(&mut dy, &TraceOptions::default()).expect("plan");
    dy.commit().expect("commit");
    assert_eq!(dy.run_to_exit().expect("run"), 0);
    assert_eq!(dy.diagnostics().instret, 1_471_227);
}

#[test]
fn static_rewrite_trace_matches_oracle() {
    // The same contract through the static path: plan on a
    // BinaryEditor, rewrite, run the rewritten ELF, drain the ring from
    // the final memory image.
    let bin = rvdyn_asm::matmul_program(5, 1);
    let mut ed = BinaryEditor::from_binary(bin.clone(), SessionOptions::new());
    let tracer = MemTracer::plan_editor(&mut ed, &TraceOptions::default()).expect("plan");
    let out = ed.instrument_and_run(50_000_000).expect("run");
    assert_eq!(out.exit_code, 0);
    let drained = tracer.drain_output(&mut ed, &out).expect("drain");
    assert_eq!(drained.dropped, 0);
    assert_eq!(drained.records, oracle_records(&bin, &tracer.pcs()));
    let d = ed.diagnostics();
    assert_eq!(d.trace_points_planned, tracer.sites() as u64);
    assert_eq!(d.trace_records, drained.records.len() as u64);
}

/// The ring starts on a 4 KiB boundary; a variable allocated before the
/// tracer leaves the data area unaligned, so the ring goes past a pad,
/// and the variable keeps working next to it.
#[test]
fn tracer_planned_after_a_variable_matches_oracle() {
    let bin = rvdyn_asm::matmul_program(5, 2);
    let mut dy = DynamicInstrumenter::create(bin.clone());
    let calls = dy.alloc_var(8);
    let pts = dy
        .find_points("matmul", rvdyn::PointKind::FuncEntry)
        .unwrap();
    dy.insert(&pts, rvdyn::Snippet::increment(calls));
    let tracer = MemTracer::plan_dynamic(&mut dy, &TraceOptions::default()).expect("plan");
    dy.commit().expect("commit");
    assert_eq!(dy.run_to_exit().expect("run"), 0);
    assert_eq!(dy.read_var(calls), Some(2));
    let drained = tracer.drain_dynamic(&mut dy).expect("drain");
    assert_eq!(drained.records, oracle_records(&bin, &tracer.pcs()));
}

#[test]
fn ring_exhaustion_keeps_a_faithful_prefix() {
    let bin = rvdyn_asm::matmul_program(6, 1);
    let (pcs, records, dropped) = traced_run(&bin, SessionOptions::new(), 8);
    let expected = oracle_records(&bin, &pcs);
    assert!(expected.len() > 8, "mutatee must overflow the tiny ring");
    assert_eq!(records.len(), 8, "ring holds exactly its capacity");
    assert_eq!(records[..], expected[..8], "the prefix is untorn");
    assert_eq!(
        dropped,
        (expected.len() - 8) as u64,
        "every lost access is counted"
    );
}

#[test]
fn function_filter_traces_only_named_function() {
    let bin = rvdyn_asm::matmul_program(5, 2);
    let mut dy = DynamicInstrumenter::create(bin.clone());
    let matmul = bin.symbol_by_name("matmul").unwrap().value;
    let tracer = MemTracer::plan_dynamic(
        &mut dy,
        &TraceOptions {
            capacity: 1 << 16,
            funcs: Some(vec!["matmul".into()]),
        },
    )
    .expect("plan");
    let f = &dy.code().functions[&matmul];
    let (lo, hi) = f.extent();
    assert!(tracer.pcs().iter().all(|pc| *pc >= lo && *pc < hi));
    dy.commit().expect("commit");
    assert_eq!(dy.run_to_exit().unwrap(), 0);
    let drained = tracer.drain_dynamic(&mut dy).expect("drain");
    assert_eq!(drained.records, oracle_records(&bin, &tracer.pcs()));
    assert!(drained.records.iter().all(|r| r.pc >= lo && r.pc < hi));
}

#[test]
fn unknown_function_filter_fails_loudly() {
    let bin = rvdyn_asm::matmul_program(4, 1);
    let mut dy = DynamicInstrumenter::create(bin);
    let err = MemTracer::plan_dynamic(
        &mut dy,
        &TraceOptions {
            capacity: 64,
            funcs: Some(vec!["no_such_fn".into()]),
        },
    );
    match err {
        Err(rvdyn::Error::NoSuchFunction { name }) => assert_eq!(name, "no_such_fn"),
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("planning against a missing function must fail"),
    }
}

#[test]
fn mid_run_commit_trace_is_engine_invariant() {
    // Attach-style tracing with a mid-run commit: run the mutatee up to
    // `work`, THEN commit the tracer (whose springboard writes
    // invalidate already-translated blocks in the cached engine), and
    // run on. Both engines must drain the identical post-commit trace.
    let stmts = vec![
        Stmt::Loop(vec![
            Stmt::Block,
            Stmt::If(vec![Stmt::Block], vec![Stmt::Block]),
        ]),
        Stmt::Block,
    ];
    let bin = stmt_program(&stmts, 0xDEAD_BEEF);
    let work = bin.symbol_by_name("work").unwrap().value;
    let run = |engine: EmuEngine| -> (Vec<TraceRecord>, u64) {
        let mut p = rvdyn::Process::launch(&bin);
        p.machine_mut().engine = engine;
        p.set_breakpoint(work).unwrap();
        assert!(matches!(p.cont().unwrap(), rvdyn::Event::Breakpoint(_)));
        p.remove_breakpoint(work).unwrap();
        let mut dy =
            DynamicInstrumenter::attach_with(bin.clone(), p, SessionOptions::new().engine(engine));
        let tracer = MemTracer::plan_dynamic(&mut dy, &TraceOptions::default()).expect("plan");
        dy.commit().expect("commit");
        assert_eq!(dy.run_to_exit().expect("run"), 0);
        let d = tracer.drain_dynamic(&mut dy).expect("drain");
        (d.records, d.dropped)
    };
    let interp = run(EmuEngine::Interpreter);
    let cached = run(EmuEngine::Cached);
    assert!(!interp.0.is_empty(), "work's loop must touch the stack");
    assert_eq!(interp, cached, "mid-run-commit traces diverge");
}

#[test]
fn fleet_traces_are_identical_per_process_and_match_oracle() {
    let bin = rvdyn_asm::matmul_program(5, 1);
    let mut fc = FleetController::from_binary(bin.clone(), SessionOptions::new().threads(4));
    let pids = fc.spawn(3);
    let tracer = MemTracer::plan_fleet(&mut fc, &TraceOptions::default()).expect("plan");
    fc.commit_all().expect("commit_all");
    fc.run_all();
    let expected = oracle_records(&bin, &tracer.pcs());
    for pid in pids {
        assert!(matches!(fc.result(pid), Some(Ok(0))), "pid {pid}");
        let d = tracer.drain_fleet(&mut fc, pid).expect("drain");
        assert_eq!(d.records, expected, "pid {pid} trace vs oracle");
        let pd = fc.process_diagnostics(pid).unwrap();
        assert_eq!(pd.trace_records, expected.len() as u64);
    }
}

#[test]
fn drained_trace_round_trips_through_the_v1_stream() {
    let bin = rvdyn_asm::matmul_program(4, 1);
    let (_, records, _) = traced_run(&bin, SessionOptions::new(), 1 << 16);
    let bytes = rvdyn::tools::serialize_trace(&records);
    let reader = TraceReader::parse(&bytes).expect("round trip");
    assert_eq!(reader.records(), &records[..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole differential: over random reducible programs, the
    /// instrumented trace equals the interpreter oracle on BOTH engines
    /// and at BOTH worker counts — four configurations, one answer.
    #[test]
    fn random_programs_trace_equals_oracle(stmts in ProgramStrategy, seed in 0u64..1u64<<30) {
        let bin = stmt_program(&stmts, seed);
        let mut baseline: Option<(Vec<TraceRecord>, u64)> = None;
        for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
            for threads in [1usize, 4] {
                let opts = SessionOptions::new().engine(engine).threads(threads);
                let (pcs, records, dropped) = traced_run(&bin, opts, 1 << 16);
                prop_assert_eq!(dropped, 0, "dropped at {:?}/t{}", engine, threads);
                match &baseline {
                    None => {
                        let expected = oracle_records(&bin, &pcs);
                        prop_assert_eq!(
                            &records, &expected,
                            "trace vs oracle at {:?}/t{}", engine, threads
                        );
                        baseline = Some((records, dropped));
                    }
                    Some((recs, drop)) => {
                        prop_assert_eq!(&records, recs,
                            "trace differs at {:?}/t{}", engine, threads);
                        prop_assert_eq!(dropped, *drop);
                    }
                }
            }
        }
    }
}
