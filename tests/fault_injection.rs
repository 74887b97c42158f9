//! Debug-interface fault injection (the ISSUE's FaultPlan hook): the
//! recovery paths a real ptrace transport exercises — a corrupted or
//! short `write_mem`, a dropped trap-redirect resolution, a delayed stop
//! event — must be reachable end to end through the *public* pipeline,
//! with no test-only code paths in the library crates. Each fault here
//! produces the real typed error ([`Error::PatchVerifyFailed`],
//! [`Error::RedirectMiss`]) or a recoverable spurious stop, and the
//! injection is counted in the session diagnostics.

use rvdyn::telemetry::CollectSink;
use rvdyn::{
    DynamicInstrumenter, Error, Event, FaultPlan, PointKind, Process, SessionOptions, Snippet,
    TelemetryEvent,
};
use rvdyn_asm::{many_functions_program, matmul_program, tiny_indirect_program};

/// Write 0 of a commit is its first verified patch region (the data area
/// is mapped, not written): here `main`'s call to `matmul`, rewritten to
/// enter the relocated copy. Corrupting one byte of it must fail
/// read-back verification as `PatchVerifyFailed` at that region's
/// address.
#[test]
fn corrupted_patch_write_is_a_verify_failure() {
    let bin = matmul_program(4, 1);
    let plan = FaultPlan::new().corrupt_write(0, 0);
    let mut dy = DynamicInstrumenter::create_with(bin, SessionOptions::new());
    dy.process_mut().set_fault_plan(plan);
    let counter = dy.alloc_var(8);
    let pts = dy.find_points("matmul", PointKind::FuncEntry).unwrap();
    dy.insert(&pts, Snippet::increment(counter));
    let failed_at = match dy.commit() {
        Err(Error::PatchVerifyFailed { addr }) => addr,
        other => panic!("expected PatchVerifyFailed, got {other:?}"),
    };
    assert!(failed_at > 0);

    // The injection is visible in the diagnostics and the JSON schema.
    let d = dy.diagnostics();
    assert_eq!(d.faults_injected, 1);
    assert!(d.to_json().contains("\"faults\":{\"injected\":1}"));
    // The failed region was not counted as written.
    assert_eq!(d.patch_regions_written, 0);
}

/// A short write (transport delivered fewer bytes than asked) fails the
/// same way: the truncated region's read-back cannot match.
#[test]
fn short_patch_write_is_a_verify_failure() {
    let bin = matmul_program(4, 1);
    let plan = FaultPlan::new().short_write(0, 1);
    let mut dy = DynamicInstrumenter::create_with(bin, SessionOptions::new());
    dy.process_mut().set_fault_plan(plan);
    let counter = dy.alloc_var(8);
    let pts = dy.find_points("matmul", PointKind::FuncEntry).unwrap();
    dy.insert(&pts, Snippet::increment(counter));
    assert!(matches!(dy.commit(), Err(Error::PatchVerifyFailed { .. })));
    assert_eq!(dy.diagnostics().faults_injected, 1);
}

/// Dropping the Nth trap-redirect resolution: the mutatee's 2-byte
/// function uses the trap springboard, and `main` calls it through a
/// register, so every call resolves through the redirect table. Dropping resolution 3 surfaces the trap as a real
/// `RedirectMiss` at the springboard pc, after exactly 3 counted visits.
#[test]
fn dropped_redirect_resolution_is_a_redirect_miss() {
    let bin = tiny_indirect_program(50);
    let tiny = bin.symbol_by_name("tiny").unwrap().value;
    let plan = FaultPlan::new().drop_redirect(3);
    let mut dy = DynamicInstrumenter::create_with(bin, SessionOptions::new());
    dy.process_mut().set_fault_plan(plan);
    let counter = dy.alloc_var(8);
    let pts = dy.find_points("tiny", PointKind::FuncEntry).unwrap();
    dy.insert(&pts, Snippet::increment(counter));
    dy.commit().unwrap();
    assert!(
        dy.process().machine().trap_redirects.contains_key(&tiny),
        "trap springboard registered"
    );

    match dy.run_to_exit() {
        Err(Error::RedirectMiss { pc }) => assert_eq!(pc, tiny),
        other => panic!("expected RedirectMiss, got {other:?}"),
    }
    // Resolutions 0..3 went through before the drop: 3 counted visits.
    assert_eq!(dy.read_var(counter), Some(3));
    assert_eq!(dy.diagnostics().faults_injected, 1);
    assert!(dy
        .diagnostics()
        .to_json()
        .contains("\"faults\":{\"injected\":1}"));
}

/// A delayed stop on the raw debug interface: the Nth stop event comes
/// back as a spurious `Stepped`, and the real event is delivered on the
/// next `cont` — the shape a mutator's event loop must tolerate.
#[test]
fn delayed_stop_surfaces_as_spurious_step_then_real_event() {
    let bin = matmul_program(4, 1);
    let main = bin.symbol_by_name("main").unwrap().value;
    let mut p = Process::launch(&bin);
    p.set_fault_plan(FaultPlan::new().delay_stop(0));
    p.set_breakpoint(main).unwrap();

    match p.cont().unwrap() {
        Event::Stepped(_) => {}
        other => panic!("expected spurious Stepped, got {other:?}"),
    }
    assert_eq!(p.faults_injected(), 1);
    match p.cont().unwrap() {
        Event::Breakpoint(at) => assert_eq!(at, main),
        other => panic!("expected the delayed Breakpoint, got {other:?}"),
    }
}

/// The facade's run loop recovers from a delayed stop without help: the
/// spurious `Stepped` is just continued, the pending breakpoint event is
/// consumed on the next iteration, and the instrumented run finishes with
/// exact counters — an unclean-*looking* stop that is fully recoverable.
#[test]
fn run_loop_recovers_from_delayed_stop() {
    let bin = matmul_program(4, 2);
    let main = bin.symbol_by_name("main").unwrap().value;
    let sink = CollectSink::new();
    let plan = FaultPlan::new().delay_stop(0);
    let opts = SessionOptions::new().telemetry(sink.clone());
    let mut dy = DynamicInstrumenter::create_with(bin, opts);
    dy.process_mut().set_fault_plan(plan);
    let counter = dy.alloc_var(8);
    let pts = dy.find_points("matmul", PointKind::FuncEntry).unwrap();
    dy.insert(&pts, Snippet::increment(counter));
    dy.commit().unwrap();
    // Plant a breakpoint so the run actually stops mid-flight; the run
    // loop treats both the spurious step and the real breakpoint as
    // continue-and-go.
    dy.process_mut().set_breakpoint(main).unwrap();

    assert_eq!(dy.run_to_exit().unwrap(), 0);
    assert_eq!(dy.read_var(counter), Some(2));
    assert_eq!(dy.diagnostics().faults_injected, 1);

    // The injection was streamed to telemetry as it happened.
    assert!(sink
        .events()
        .iter()
        .any(|e| matches!(e, TelemetryEvent::FaultInjected { .. })));
}

/// Delivery faults against a parallel-planned patch: because the layout
/// phase emits bit-identical writes for any thread count, a corrupted
/// write must fail verification at the *same region address* whether the
/// plans were built sequentially or on a 4-worker pool. Write 1 is the
/// second patch region: `f_0`'s entry springboard, after `main`'s
/// rewritten call to `f_0`.
#[test]
fn corrupted_write_fails_at_the_same_region_for_any_thread_count() {
    let fail_addr = |threads: usize| {
        let bin = many_functions_program(16);
        let plan = FaultPlan::new().corrupt_write(1, 0);
        let mut dy = DynamicInstrumenter::create_with(bin, SessionOptions::new().threads(threads));
        dy.process_mut().set_fault_plan(plan);
        let counter = dy.alloc_var(8);
        let mut pts = Vec::new();
        for i in 0..16 {
            pts.extend(
                dy.find_points(&format!("f_{i}"), PointKind::BlockEntry)
                    .unwrap(),
            );
        }
        dy.insert(&pts, Snippet::increment(counter));
        let addr = match dy.commit() {
            Err(Error::PatchVerifyFailed { addr }) => addr,
            other => panic!("expected PatchVerifyFailed at threads={threads}, got {other:?}"),
        };
        assert_eq!(dy.diagnostics().faults_injected, 1);
        assert_eq!(dy.diagnostics().instrument_workers, threads.min(16));
        addr
    };
    let sequential = fail_addr(1);
    for t in [2usize, 4] {
        assert_eq!(
            fail_addr(t),
            sequential,
            "verify failure must land on the same region at threads={t}"
        );
    }
}

/// The trap-redirect drop under a worker pool: the tiny-function trap
/// springboard still resolves through the same redirect, so the miss
/// surfaces at the same pc after the same number of counted visits.
#[test]
fn dropped_redirect_under_worker_pool_matches_sequential() {
    let bin = tiny_indirect_program(50);
    let tiny = bin.symbol_by_name("tiny").unwrap().value;
    let plan = FaultPlan::new().drop_redirect(3);
    let mut dy = DynamicInstrumenter::create_with(bin, SessionOptions::new().threads(4));
    dy.process_mut().set_fault_plan(plan);
    let counter = dy.alloc_var(8);
    let pts = dy.find_points("tiny", PointKind::FuncEntry).unwrap();
    dy.insert(&pts, Snippet::increment(counter));
    dy.commit().unwrap();
    match dy.run_to_exit() {
        Err(Error::RedirectMiss { pc }) => assert_eq!(pc, tiny),
        other => panic!("expected RedirectMiss, got {other:?}"),
    }
    assert_eq!(dy.read_var(counter), Some(3));
    assert_eq!(dy.diagnostics().faults_injected, 1);
}

/// A plan-phase failure inside a worker (snippet lowering running out of
/// registers) propagates as the same typed instrument-stage error the
/// sequential path reports — workers never panic or hang the pool. The
/// balanced tree of depth 15 needs 15 scratch registers (its leaf pairs
/// fold into `addi`), one more than the 14 candidates.
#[test]
fn plan_phase_worker_errors_propagate_as_the_same_typed_error() {
    fn deep(depth: u32) -> Snippet {
        if depth == 0 {
            Snippet::Const(1)
        } else {
            Snippet::bin(rvdyn::BinaryOp::Add, deep(depth - 1), deep(depth - 1))
        }
    }
    let msg = |threads: usize| {
        let bin = many_functions_program(8);
        let mut dy = DynamicInstrumenter::create_with(bin, SessionOptions::new().threads(threads));
        let mut pts = Vec::new();
        for i in 0..8 {
            pts.extend(
                dy.find_points(&format!("f_{i}"), PointKind::FuncEntry)
                    .unwrap(),
            );
        }
        dy.insert(&pts, deep(15));
        match dy.commit() {
            Err(e) => e.to_string(),
            Ok(()) => panic!("expected an out-of-registers failure"),
        }
    };
    let sequential = msg(1);
    assert!(
        sequential.contains("register"),
        "expected an out-of-registers diagnosis, got: {sequential}"
    );
    assert_eq!(msg(4), sequential, "worker error differs from sequential");
}

/// A default (empty) plan injects nothing: the armed-but-idle hook leaves
/// the pipeline bit-for-bit on its normal path.
#[test]
fn empty_fault_plan_is_inert() {
    let bin = matmul_program(4, 2);
    let opts = SessionOptions::new();
    let mut dy = DynamicInstrumenter::create_with(bin, opts);
    dy.process_mut().set_fault_plan(FaultPlan::new());
    let counter = dy.alloc_var(8);
    let pts = dy.find_points("matmul", PointKind::FuncEntry).unwrap();
    dy.insert(&pts, Snippet::increment(counter));
    dy.commit().unwrap();
    assert_eq!(dy.run_to_exit().unwrap(), 0);
    assert_eq!(dy.read_var(counter), Some(2));
    assert_eq!(dy.diagnostics().faults_injected, 0);
    assert!(dy
        .diagnostics()
        .to_json()
        .contains("\"faults\":{\"injected\":0}"));
}
