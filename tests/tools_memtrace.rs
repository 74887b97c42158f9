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

use common::{stmt_program, work_program, ProgramStrategy, Stmt};
use proptest::prelude::*;
use rvdyn::tools::{MemTracer, TraceOptions, TraceReader};
use rvdyn::{
    BinaryEditor, Drained, DynamicInstrumenter, EmuEngine, FleetController, PointKind,
    RegAllocMode, SessionOptions, TraceRecord,
};
use rvdyn_emu::{load_binary, MemOp, StopReason};
use rvdyn_isa::Reg;
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
    let tracer = MemTracer::plan_fleet(
        dy.fleet_mut(),
        &TraceOptions {
            capacity: cap,
            funcs: None,
        },
    )
    .expect("plan");
    dy.commit().expect("commit");
    assert_eq!(dy.run_to_exit().expect("run"), 0);
    let drained = tracer
        .drain_fleet(dy.fleet_mut(), DynamicInstrumenter::PID)
        .expect("drain");
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
        let tracer = MemTracer::plan_fleet(dy.fleet_mut(), &TraceOptions::default()).expect("plan");
        dy.commit().expect("commit");
        assert!(dy.diagnostics().spills > 0, "every point spills");
        let stop = dy.run_to_exit();
        assert!(
            matches!(stop, Err(rvdyn::Error::UncleanExit { .. })),
            "{stop:?}"
        );
        let drained = tracer
            .drain_fleet(dy.fleet_mut(), DynamicInstrumenter::PID)
            .expect("drain");
        assert_eq!(drained.records, expected, "{engine:?}");
    }
}

/// The tracer's cost on the hot path, pinned: a run's first access reads
/// the cursor, points a dead register at the run's slots and moves the
/// cursor past them, each access stores its two record words, and a lone
/// access runs the whole single record, so a change to either lowering or
/// to the run planning moves this count.
#[test]
fn traced_matmul_instruction_count_is_pinned() {
    let mut dy = DynamicInstrumenter::create(rvdyn_asm::matmul_program(16, 2));
    MemTracer::plan_fleet(dy.fleet_mut(), &TraceOptions::default()).expect("plan");
    dy.commit().expect("commit");
    assert_eq!(dy.run_to_exit().expect("run"), 0);
    assert_eq!(dy.diagnostics().instret, 913_297);
}

/// The benchmark's traced fleet process, pinned: matmul(16, 2) at a ring
/// of 2^17 records on the cached engine, every access recorded (it
/// retired 1,805,834 instructions with a single record at every access).
#[test]
fn traced_fleet_matmul_instruction_count_is_pinned() {
    let bin = rvdyn_asm::matmul_program(16, 2);
    let opts = SessionOptions::new().engine(EmuEngine::Cached);
    let mut fc = FleetController::from_binary(bin.clone(), opts);
    let pid = fc.spawn(1)[0];
    let topts = TraceOptions {
        capacity: 1 << 17,
        funcs: None,
    };
    let tracer = MemTracer::plan_fleet(&mut fc, &topts).expect("plan");
    fc.commit_all().expect("commit_all");
    fc.run_all();
    assert!(matches!(fc.result(pid), Some(Ok(0))));
    let d = tracer.drain_fleet(&mut fc, pid).expect("drain");
    assert_eq!(d.dropped, 0);
    assert_eq!(d.records, oracle_records(&bin, &tracer.pcs()));
    assert_eq!(fc.process_diagnostics(pid).unwrap().instret, 895_581);
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
    let tracer = MemTracer::plan_fleet(dy.fleet_mut(), &TraceOptions::default()).expect("plan");
    dy.commit().expect("commit");
    assert_eq!(dy.run_to_exit().expect("run"), 0);
    assert_eq!(dy.read_var(calls), Some(2));
    let drained = tracer
        .drain_fleet(dy.fleet_mut(), DynamicInstrumenter::PID)
        .expect("drain");
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
    let tracer = MemTracer::plan_fleet(
        dy.fleet_mut(),
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
    let drained = tracer
        .drain_fleet(dy.fleet_mut(), DynamicInstrumenter::PID)
        .expect("drain");
    assert_eq!(drained.records, oracle_records(&bin, &tracer.pcs()));
    assert!(drained.records.iter().all(|r| r.pc >= lo && r.pc < hi));
}

#[test]
fn unknown_function_filter_fails_loudly() {
    let bin = rvdyn_asm::matmul_program(4, 1);
    let mut dy = DynamicInstrumenter::create(bin);
    let err = MemTracer::plan_fleet(
        dy.fleet_mut(),
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
        let tracer = MemTracer::plan_fleet(dy.fleet_mut(), &TraceOptions::default()).expect("plan");
        dy.commit().expect("commit");
        assert_eq!(dy.run_to_exit().expect("run"), 0);
        let d = tracer
            .drain_fleet(dy.fleet_mut(), DynamicInstrumenter::PID)
            .expect("drain");
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

/// The oracle up to the mutatee's own stop (an exit or its `ebreak`),
/// restricted to the planned pcs.
fn oracle_to_stop(bin: &Binary, pcs: &[u64]) -> Vec<TraceRecord> {
    let set: std::collections::BTreeSet<u64> = pcs.iter().copied().collect();
    let mut m = load_binary(bin);
    m.arm_mem_oracle();
    m.fuel = Some(50_000_000);
    let stop = m.run();
    assert!(
        matches!(stop, StopReason::Exited(0) | StopReason::Break(_)),
        "{stop:?}"
    );
    let ops = m.take_mem_oracle().into_iter();
    ops.filter(|op| set.contains(&op.pc)).map(record).collect()
}

/// The three ways a tracer plan reaches a mutatee.
#[derive(Debug, Clone, Copy)]
enum Path {
    Static,
    Live,
    Fleet,
}

/// Trace all of `bin` at `cap` records on `path` and `engine`, run it to
/// its own stop, and drain. The static path runs the rewritten ELF as a
/// process and drains it through an attached instrumenter, which also
/// serves a mutatee that stops at its `ebreak`.
fn trace_on(bin: &Binary, path: Path, engine: EmuEngine, cap: u64) -> (MemTracer, Drained) {
    let opts = SessionOptions::new().engine(engine);
    let topts = TraceOptions {
        capacity: cap,
        funcs: None,
    };
    match path {
        Path::Static => {
            let mut ed = BinaryEditor::from_binary(bin.clone(), opts.clone());
            let tracer = MemTracer::plan_editor(&mut ed, &topts).expect("plan");
            let elf = ed.rewrite().expect("rewrite");
            let mut p = rvdyn::Process::launch(&Binary::parse(&elf).expect("reparse"));
            p.machine_mut().engine = engine;
            p.machine_mut().fuel = Some(50_000_000);
            let stop = p.cont().expect("run");
            assert!(
                matches!(stop, rvdyn::Event::Exited(0) | rvdyn::Event::Trap(_)),
                "{stop:?}"
            );
            let mut dy = DynamicInstrumenter::attach_with(bin.clone(), p, opts);
            let d = tracer
                .drain_fleet(dy.fleet_mut(), DynamicInstrumenter::PID)
                .expect("drain");
            (tracer, d)
        }
        Path::Live => {
            let mut dy = DynamicInstrumenter::create_with(bin.clone(), opts);
            let tracer = MemTracer::plan_fleet(dy.fleet_mut(), &topts).expect("plan");
            dy.commit().expect("commit");
            let _ = dy.run_to_exit();
            let d = tracer
                .drain_fleet(dy.fleet_mut(), DynamicInstrumenter::PID)
                .expect("drain");
            (tracer, d)
        }
        Path::Fleet => {
            let mut fc = FleetController::from_binary(bin.clone(), opts.threads(2));
            let pids = fc.spawn(2);
            let tracer = MemTracer::plan_fleet(&mut fc, &topts).expect("plan");
            fc.commit_all().expect("commit_all");
            fc.run_all();
            let d = tracer.drain_fleet(&mut fc, pids[0]).expect("drain");
            let d1 = tracer.drain_fleet(&mut fc, pids[1]).expect("drain");
            assert_eq!((&d.records, d.dropped), (&d1.records, d1.dropped));
            (tracer, d)
        }
    }
}

/// Each block's traced sites (`pcs`), split at its `ecall`s and
/// `ebreak`s, that hold two or more: the runs of a planner that batches
/// every multi-access block, sorted.
fn multi_access_segments(bin: &Binary, pcs: &[u64]) -> Vec<Vec<u64>> {
    let dy = DynamicInstrumenter::create(bin.clone());
    let mut segments = Vec::new();
    for f in dy.code().functions.values() {
        for b in f.blocks.values() {
            let mut seg: Vec<u64> = Vec::new();
            for inst in b.insts {
                if matches!(inst.op, rvdyn_isa::Op::Ecall | rvdyn_isa::Op::Ebreak) {
                    segments.push(std::mem::take(&mut seg));
                } else if pcs.contains(&inst.address) {
                    seg.push(inst.address);
                }
            }
            segments.push(seg);
        }
    }
    segments.retain(|s| s.len() > 1);
    segments.sort();
    segments
}

#[test]
fn every_multi_access_block_is_one_run_and_traces_equal_the_oracle() {
    for bin in [
        rvdyn_asm::matmul_program(16, 2),
        rvdyn_asm::nested_call_program(&[16, 32, 0], false),
    ] {
        let mut expected: Option<Vec<TraceRecord>> = None;
        for path in [Path::Static, Path::Live, Path::Fleet] {
            for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
                let (tracer, d) = trace_on(&bin, path, engine, 1 << 17);
                let segments = multi_access_segments(&bin, &tracer.pcs());
                assert!(segments.iter().any(|s| s.len() >= 3));
                let mut runs = tracer.runs();
                runs.sort();
                assert_eq!(runs, segments, "{path:?}/{engine:?}");
                let expected = expected.get_or_insert_with(|| oracle_to_stop(&bin, &tracer.pcs()));
                assert_eq!(d.dropped, 0, "{path:?}/{engine:?}");
                assert_eq!(&d.records, expected, "{path:?}/{engine:?}");
            }
        }
    }
}

#[test]
fn the_planner_reports_the_sites_it_batched() {
    let bin = rvdyn_asm::matmul_program(4, 1);
    let mut dy = DynamicInstrumenter::create(bin.clone());
    let tracer = MemTracer::plan_fleet(dy.fleet_mut(), &TraceOptions::default()).expect("plan");
    let batched: usize = tracer.runs().iter().map(Vec::len).sum();
    assert!(batched > 0);
    assert_eq!(dy.diagnostics().trace_runs, batched as u64);

    // Forced spilling keeps the single record at every site.
    let mut dy =
        DynamicInstrumenter::create_with(bin, SessionOptions::new().mode(RegAllocMode::ForceSpill));
    let tracer = MemTracer::plan_fleet(dy.fleet_mut(), &TraceOptions::default()).expect("plan");
    assert!(tracer.runs().is_empty());
    assert_eq!(dy.diagnostics().trace_runs, 0);
}

/// The planned run of matmul's k-loop body: its twelve accesses.
fn k_loop_run(tracer: &MemTracer) -> Vec<u64> {
    let runs = tracer.runs();
    let run = runs
        .iter()
        .find(|r| r.len() == 12)
        .expect("the 12-access run");
    run.clone()
}

/// A counter inside a run must not take the run's register as scratch:
/// the plan phase keeps a register any snippet of the function writes out
/// of every scratch pool there.
#[test]
fn a_counter_inside_a_run_keeps_its_count_and_the_trace() {
    let bin = rvdyn_asm::matmul_program(6, 2);
    let matmul = bin.symbol_by_name("matmul").unwrap().value;
    for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
        let mut dy =
            DynamicInstrumenter::create_with(bin.clone(), SessionOptions::new().engine(engine));
        let tracer = MemTracer::plan_fleet(dy.fleet_mut(), &TraceOptions::default()).expect("plan");
        let run = k_loop_run(&tracer);
        // The first instruction after the run's second access that is no
        // access itself.
        let f = &dy.code().functions[&matmul];
        let inside = f
            .blocks
            .values()
            .flat_map(|b| b.insts)
            .find(|i| i.address > run[1] && i.address < run[11] && !run.contains(&i.address))
            .expect("a non-access inside the run")
            .address;
        let counter = dy.alloc_var(8);
        let point = rvdyn::Point {
            func: matmul,
            addr: inside,
            kind: PointKind::InstBefore(inside),
        };
        dy.insert(&[point], rvdyn::Snippet::increment(counter));
        dy.commit().expect("commit");
        assert_eq!(dy.run_to_exit().expect("run"), 0);
        let d = tracer
            .drain_fleet(dy.fleet_mut(), DynamicInstrumenter::PID)
            .expect("drain");
        let expected = oracle_records(&bin, &tracer.pcs());
        assert_eq!(d.records, expected, "{engine:?}: trace vs oracle");
        let bodies = expected.iter().filter(|r| r.pc == run[0]).count();
        assert_eq!(dy.read_var(counter), Some(bodies as u64), "{engine:?}");
    }
}

/// The ring ends inside the 12-access run: the run writes its overflow
/// to the slack, and the drain keeps exactly `capacity` records.
#[test]
fn a_capacity_inside_the_longest_run_keeps_exactly_its_prefix() {
    let bin = rvdyn_asm::matmul_program(4, 1);
    let (tracer, _) = trace_on(&bin, Path::Live, EmuEngine::Interpreter, 1 << 16);
    let expected = oracle_records(&bin, &tracer.pcs());
    let run = k_loop_run(&tracer);
    let first = expected.iter().position(|r| r.pc == run[0]).unwrap();
    for cut in [1, 5, 11] {
        let cap = (first + cut) as u64;
        for path in [Path::Static, Path::Live, Path::Fleet] {
            for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
                let (_, d) = trace_on(&bin, path, engine, cap);
                assert_eq!(
                    d.records[..],
                    expected[..cap as usize],
                    "{path:?}/{engine:?}"
                );
                assert_eq!(
                    d.dropped,
                    expected.len() as u64 - cap,
                    "{path:?}/{engine:?}"
                );
            }
        }
    }
}

#[test]
fn no_run_reaches_past_the_leaf_ebreak() {
    for frames in [&[16u16, 32, 0][..], &[0], &[7, 300, 11, 90]] {
        let bin = rvdyn_asm::nested_call_program(frames, false);
        let dy = DynamicInstrumenter::create(bin.clone());
        let breaks: Vec<u64> = dy
            .code()
            .functions
            .values()
            .flat_map(|f| f.blocks.values().flat_map(|b| b.insts))
            .filter(|i| i.op == rvdyn_isa::Op::Ebreak)
            .map(|i| i.address)
            .collect();
        assert_eq!(breaks.len(), 1, "one leaf ebreak");
        for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
            let (tracer, d) = trace_on(&bin, Path::Live, engine, 1 << 16);
            for run in tracer.runs() {
                let (lo, hi) = (run[0], run[run.len() - 1]);
                assert!(
                    !(lo < breaks[0] && breaks[0] < hi),
                    "{run:x?} spans the ebreak"
                );
            }
            // The leaf's own prologue run ends right before its ebreak.
            let leaf_run = |r: &Vec<u64>| r[r.len() - 1] < breaks[0] && r[0] > breaks[0] - 16;
            assert!(tracer.runs().iter().any(leaf_run));
            assert_eq!(d.records, oracle_to_stop(&bin, &tracer.pcs()), "{engine:?}");
        }
    }
}

/// A trap redirect can carry control into a springboard's first 8 bytes
/// past the run's first snippet, so no later access of a run lies there.
#[test]
fn no_run_takes_a_later_access_from_a_redirect_targets_first_8_bytes() {
    let mut programs = vec![
        rvdyn_asm::matmul_program(4, 1),
        rvdyn_asm::nested_call_program(&[3, 5], true),
        rvdyn_asm::fib_program(8),
        rvdyn_asm::switch_program(16),
        rvdyn_asm::switch_rel_program(16),
        rvdyn_asm::indirect_entry_program(8),
        rvdyn_asm::memcpy_program(),
    ];
    for seed in 0..6 {
        programs.push(stmt_program(
            &[Stmt::Loop(vec![
                Stmt::Block,
                Stmt::If(vec![Stmt::Block], vec![]),
            ])],
            seed,
        ));
    }
    // Two stores in `work`'s first 8 bytes: the second starts a run.
    let (sp, a0, t0, t1) = (Reg::X2, Reg::x(10), Reg::x(5), Reg::x(6));
    let spills = work_program(|a| {
        a.sd(a0, sp, -8);
        a.sd(a0, sp, -16);
        a.ld(t0, sp, -8);
        a.ld(t1, sp, -16);
        a.add(a0, t0, t1);
        a.ret();
    });
    let work = spills.symbol_by_name("work").unwrap().value;
    let mut dy = DynamicInstrumenter::create(spills.clone());
    let tracer = MemTracer::plan_fleet(dy.fleet_mut(), &TraceOptions::default()).expect("plan");
    assert!(tracer.runs().contains(&vec![work + 4, work + 8, work + 12]));
    programs.push(spills);
    let mut guarded_heads = 0;
    for bin in programs {
        let mut dy = DynamicInstrumenter::create(bin.clone());
        let tracer = MemTracer::plan_fleet(dy.fleet_mut(), &TraceOptions::default()).expect("plan");
        let mut entered: Vec<u64> = Vec::new();
        for f in dy.code().functions.values() {
            entered.push(f.entry);
            for b in f.blocks.values() {
                let targets = b
                    .edges
                    .iter()
                    .filter(|e| e.kind == rvdyn::EdgeKind::IndirectJump);
                entered.extend(targets.filter_map(|e| e.target));
            }
        }
        for run in tracer.runs() {
            for &start in &entered {
                let guard = start..start + 8;
                assert!(
                    run[1..].iter().all(|pc| !guard.contains(pc)),
                    "{run:x?} takes a later access from {start:#x}'s first 8 bytes"
                );
                guarded_heads += guard.contains(&run[0]) as usize;
            }
        }
        dy.commit().expect("commit");
        let _ = dy.run_to_exit();
        let d = tracer
            .drain_fleet(dy.fleet_mut(), DynamicInstrumenter::PID)
            .expect("drain");
        assert_eq!(d.records, oracle_to_stop(&bin, &tracer.pcs()));
    }
    assert!(guarded_heads > 0, "some run starts in a guarded span");
}

/// Fuel stops the mutatee at every instruction of a stretch of the
/// k-loop: whatever the drain returns is a prefix of the oracle, however
/// far the open run got, and some stops fall inside a run.
#[test]
fn a_run_cut_short_leaves_only_records_its_snippets_wrote() {
    let bin = rvdyn_asm::matmul_program(4, 1);
    let mut dy = DynamicInstrumenter::create(bin.clone());
    let tracer = MemTracer::plan_fleet(dy.fleet_mut(), &TraceOptions::default()).expect("plan");
    dy.commit().expect("commit");
    assert_eq!(dy.run_to_exit().expect("run"), 0);
    let half = dy.diagnostics().instret / 2;
    let expected = oracle_records(&bin, &tracer.pcs());
    let runs = tracer.runs();
    let next_in_run = |a: u64, b: u64| runs.iter().any(|r| r.windows(2).any(|w| w == [a, b]));
    let mut inside = 0;
    for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
        for fuel in half..half + 100 {
            let opts = SessionOptions::new().engine(engine);
            let mut dy = DynamicInstrumenter::create_with(bin.clone(), opts);
            let tracer =
                MemTracer::plan_fleet(dy.fleet_mut(), &TraceOptions::default()).expect("plan");
            dy.commit().expect("commit");
            dy.process_mut().machine_mut().fuel = Some(fuel);
            let _ = dy.process_mut().cont();
            let d = tracer
                .drain_fleet(dy.fleet_mut(), DynamicInstrumenter::PID)
                .expect("drain");
            let n = d.records.len();
            assert!(n > 0 && n < expected.len(), "fuel {fuel}");
            assert_eq!(d.records[..], expected[..n], "{engine:?}, fuel {fuel}");
            assert_eq!(d.dropped, 0);
            inside += next_in_run(expected[n - 1].pc, expected[n].pc) as usize;
        }
    }
    assert!(inside > 0, "no stop fell inside a run");
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
