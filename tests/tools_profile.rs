//! Differential ground truth for the sampling profiler and its
//! StackwalkerAPI substrate: (a) unwind proptests over random call-depth
//! mutatees, with and without frame pointers, exercising both the
//! `SpHeightStepper` (stack-height analysis, §3.2.7's "no frame pointer
//! required" walk) and the `FpStepper` (classic fp chain); (b) the
//! sampling harness itself — every cycle-interrupt's walked stack must
//! match the emulator's shadow call stack at the interrupt pc; (c) the
//! profiler's engine-identity witness (`sample_pcs` equal on interpreter
//! and cached DBT) and fleet aggregation.

use proptest::prelude::*;
use rvdyn::{
    CodeObject, DynamicInstrumenter, EmuEngine, Error, Event, FaultPlan, FleetController,
    ParseOptions, PointKind, Process, Profile, ProfileOptions, Profiler, SessionOptions, Snippet,
    StackWalker,
};
use rvdyn_stackwalker::{FpStepper, SpHeightStepper};
use rvdyn_symtab::Binary;

/// Run `bin` to its leaf `ebreak` and return (process, trap pc).
fn run_to_trap(bin: &Binary) -> (Process, u64) {
    let mut p = Process::launch(bin);
    match p.cont().expect("cont") {
        Event::Trap(pc) => (p, pc),
        e => panic!("expected the leaf ebreak, got {e:?}"),
    }
}

/// The call chain `nested_call_program(frames, _)` is trapped inside:
/// innermost first, as the walker reports it.
fn expected_chain(n: usize) -> Vec<String> {
    let mut v: Vec<String> = (0..n).rev().map(|i| format!("g_{i}")).collect();
    v.push("main".into());
    v.push("_start".into());
    v
}

fn names(frames: &[rvdyn::Frame]) -> Vec<String> {
    frames
        .iter()
        .map(|f| {
            f.func_name
                .clone()
                .unwrap_or_else(|| format!("{:#x}", f.pc))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Height-based unwinding needs no frame pointer: the default
    /// pipeline and the bare `SpHeightStepper` both recover the exact
    /// call chain from random-depth, random-frame-size mutatees,
    /// whether or not the binary maintains an fp chain.
    #[test]
    fn sp_height_walk_recovers_random_call_chains(
        frames in proptest::collection::vec(0u16..500, 1..7),
        fp in proptest::bool::ANY,
    ) {
        let bin = rvdyn_asm::nested_call_program(&frames, fp);
        let co = CodeObject::parse(&bin, &ParseOptions::default());
        let (p, pc) = run_to_trap(&bin);
        let want = expected_chain(frames.len());

        for walker in [
            StackWalker::new(),
            StackWalker::with_steppers(vec![Box::new(SpHeightStepper)]),
        ] {
            let fr = walker.walk_process(&p, &co);
            prop_assert_eq!(fr[0].pc, pc, "innermost pc is the trap pc");
            prop_assert_eq!(&names(&fr), &want, "fp={}", fp);
        }
    }

    /// The classic fp chain agrees with the height-based walk whenever
    /// the mutatee keeps frame pointers — and degrades to a single
    /// (innermost) frame when it does not, instead of fabricating one.
    #[test]
    fn fp_walk_follows_the_chain_only_when_present(
        frames in proptest::collection::vec(0u16..500, 1..7),
    ) {
        let walker = StackWalker::with_steppers(vec![Box::new(FpStepper)]);

        let with_fp = rvdyn_asm::nested_call_program(&frames, true);
        let co = CodeObject::parse(&with_fp, &ParseOptions::default());
        let (p, _) = run_to_trap(&with_fp);
        prop_assert_eq!(&names(&walker.walk_process(&p, &co)), &expected_chain(frames.len()));

        let without = rvdyn_asm::nested_call_program(&frames, false);
        let co = CodeObject::parse(&without, &ParseOptions::default());
        let (p, pc) = run_to_trap(&without);
        let fr = walker.walk_process(&p, &co);
        prop_assert_eq!(fr.len(), 1, "no fp chain to follow");
        prop_assert_eq!(fr[0].pc, pc);
    }
}

/// The stack_sampler example's STAT-style workflow, promoted into a
/// tested path: breakpoint-driven sampling of the fib recursion must
/// see every depth up to 8 fib frames + main + _start.
#[test]
fn breakpoint_sampling_sees_full_recursion_depth() {
    let bin = rvdyn_asm::fib_program(8);
    let co = CodeObject::parse(&bin, &ParseOptions::default());
    let fib = bin.symbol_by_name("fib").unwrap().value;

    let mut p = Process::launch(&bin);
    p.set_breakpoint(fib).unwrap();
    let walker = StackWalker::new();
    let mut deepest = 0usize;
    let mut samples = 0u32;
    loop {
        match p.cont().expect("process control") {
            Event::Breakpoint(_) => {
                samples += 1;
                let fr = walker.walk_process(&p, &co);
                assert_eq!(fr[0].func_name.as_deref(), Some("fib"));
                assert_eq!(fr.last().unwrap().func_name.as_deref(), Some("_start"));
                deepest = deepest.max(fr.len());
            }
            Event::Exited(code) => {
                assert_eq!(code, 0);
                break;
            }
            e => panic!("unexpected event {e:?}"),
        }
        if samples > 200 {
            p.remove_breakpoint(fib).unwrap();
        }
    }
    assert!(samples > 0);
    assert_eq!(deepest, 8 + 2, "8 fib frames + main + _start");
}

/// The tentpole ground truth: interrupt the mutatee on a cycle
/// interval and, at EVERY interrupt, the walked stack's caller pcs must
/// equal the emulator's shadow call stack (armed oracle, innermost
/// return address last) — and the innermost frame must sit at the
/// interrupt pc.
#[test]
fn every_sample_matches_the_shadow_call_stack() {
    // Interval scaled to each mutatee's run length so every binary
    // actually gets interrupted many times before it finishes.
    for (bin, interval) in [
        (rvdyn_asm::matmul_program(6, 2), 997),
        (rvdyn_asm::nested_call_program(&[3, 7, 250, 11], false), 5),
        (rvdyn_asm::deep_call_program(40), 11),
    ] {
        let co = CodeObject::parse(&bin, &ParseOptions::default());
        let walker = StackWalker::new();
        let mut p = Process::launch(&bin);
        p.machine_mut().arm_call_oracle();
        let mut samples = 0u64;
        loop {
            let now = p.machine().cycles;
            p.machine_mut().stop_at_cycles = Some(now + interval);
            match p.cont().expect("cont") {
                Event::CycleLimit(pc) => {
                    samples += 1;
                    let fr = walker.walk_process(&p, &co);
                    assert_eq!(fr[0].pc, pc, "sample {samples}: innermost pc");
                    let walked: Vec<u64> = fr.iter().skip(1).map(|f| f.pc).collect();
                    let mut shadow: Vec<u64> = p.machine().call_stack().to_vec();
                    shadow.reverse();
                    assert_eq!(
                        walked, shadow,
                        "sample {samples} at {pc:#x}: walked callers vs shadow stack"
                    );
                }
                Event::Trap(pc) => {
                    // nested_call_program ends in its leaf ebreak; the
                    // shadow stack must still agree there.
                    let fr = walker.walk_process(&p, &co);
                    assert_eq!(fr[0].pc, pc);
                    let walked: Vec<u64> = fr.iter().skip(1).map(|f| f.pc).collect();
                    let mut shadow: Vec<u64> = p.machine().call_stack().to_vec();
                    shadow.reverse();
                    assert_eq!(walked, shadow);
                    break;
                }
                Event::Exited(code) => {
                    assert_eq!(code, 0);
                    break;
                }
                e => panic!("unexpected event {e:?}"),
            }
        }
        assert!(
            samples > 3,
            "interval must actually fire ({samples} samples)"
        );
    }
}

/// `sample_pcs` is the reproducibility witness: the same binary sampled
/// at the same interval interrupts at the same pcs on both engines.
#[test]
fn profiler_is_engine_identical() {
    let bin = rvdyn_asm::matmul_program(6, 2);
    let profiler = Profiler::new(ProfileOptions {
        interval_cycles: 2_500,
        max_samples: 1 << 20,
    });
    let mut runs: Vec<Profile> = Vec::new();
    for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
        let mut dy =
            DynamicInstrumenter::create_with(bin.clone(), SessionOptions::new().engine(engine));
        let out = profiler.sample_fleet(dy.fleet_mut()).expect("sample");
        assert!(matches!(out.outcomes[&DynamicInstrumenter::PID], Ok(0)));
        assert!(out.profile.samples > 10, "{engine:?}: too few samples");
        let d = dy.diagnostics();
        assert_eq!(d.profile_samples, out.profile.samples);
        assert_eq!(d.profile_max_depth, out.profile.max_depth);
        runs.push(out.profile);
    }
    assert_eq!(
        runs[0].sample_pcs, runs[1].sample_pcs,
        "interrupt pcs diverge between engines"
    );
    assert_eq!(runs[0].folded, runs[1].folded);
}

/// The aggregate report is well-formed: matmul dominates self samples,
/// every function's total ≥ self, folded lines parse as `stack count`.
#[test]
fn profile_report_shape() {
    let bin = rvdyn_asm::matmul_program(8, 2);
    let mut dy = DynamicInstrumenter::create(bin);
    let out = Profiler::new(ProfileOptions {
        interval_cycles: 1_000,
        max_samples: 1 << 20,
    })
    .sample_fleet(dy.fleet_mut())
    .expect("sample");
    assert!(out.outcomes[&DynamicInstrumenter::PID].is_ok());
    let p = &out.profile;
    assert!(p.max_depth >= 3, "matmul under main under _start");
    let matmul = p.funcs.get("matmul").expect("matmul sampled");
    assert!(matmul.self_samples > 0);
    for (name, c) in &p.funcs {
        assert!(c.total_samples >= c.self_samples, "{name}");
        assert!(c.total_samples <= p.samples, "{name}");
    }
    let folded_total: u64 = p.folded.values().sum();
    assert_eq!(folded_total, p.samples, "every sample folds exactly once");
    for line in p.folded_lines().lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`stack count` shape");
        assert!(stack.starts_with("_start"), "outermost first: {line}");
        count.parse::<u64>().expect("numeric count");
    }
    assert!(p.report().contains("matmul"));
}

/// Fleet sampling: N identical processes, one merged profile whose
/// totals are the per-process sums, every outcome clean.
#[test]
fn fleet_profile_aggregates_per_process() {
    let bin = rvdyn_asm::matmul_program(5, 1);
    let mut fc = FleetController::from_binary(bin, SessionOptions::new());
    let pids = fc.spawn(3);
    let out = Profiler::new(ProfileOptions {
        interval_cycles: 2_000,
        max_samples: 1 << 20,
    })
    .sample_fleet(&mut fc)
    .expect("sample_fleet");
    assert_eq!(out.per_process.len(), 3);
    let mut sum = 0;
    for pid in &pids {
        assert!(matches!(out.outcomes.get(pid), Some(Ok(0))), "pid {pid}");
        let pp = &out.per_process[pid];
        assert!(pp.samples > 0, "pid {pid} never sampled");
        sum += pp.samples;
    }
    assert_eq!(out.profile.samples, sum, "merged profile is the sum");
    // Identical mutatees sampled at the same interval behave alike.
    let first = &out.per_process[&pids[0]];
    for pid in &pids[1..] {
        assert_eq!(out.per_process[pid].sample_pcs, first.sample_pcs);
    }
}

/// A profiled run records the run stage as `run_to_exit` does: instret
/// and cycles from the machine and the `run` timing, on the
/// single-process path and for every fleet member.
#[test]
fn sampled_runs_record_the_run_stage() {
    let bin = rvdyn_asm::matmul_program(8, 2);
    let profiler = Profiler::new(ProfileOptions {
        interval_cycles: 2_000,
        max_samples: 1 << 20,
    });
    let mut dy = DynamicInstrumenter::create(bin.clone());
    let out = profiler.sample_fleet(dy.fleet_mut()).expect("sample");
    assert!(out.outcomes[&DynamicInstrumenter::PID].is_ok());
    let m = dy.process().machine();
    let d = dy.diagnostics();
    assert!(m.icount > 0);
    assert_eq!((d.instret, d.cycles), (m.icount, m.cycles));
    assert!(d.timings.run_ns > 0);

    let mut fc = FleetController::from_binary(bin, SessionOptions::new());
    let pids = fc.spawn(2);
    profiler.sample_fleet(&mut fc).expect("sample_fleet");
    assert!(fc.diagnostics().timings.run_ns > 0);
    for pid in pids {
        let icount = fc.with_process(pid, |p| p.machine().icount).unwrap();
        let d = fc.process_diagnostics(pid).unwrap();
        assert!(icount > 0, "pid {pid}");
        assert_eq!(d.instret, icount, "pid {pid}");
        assert!(d.timings.run_ns > 0, "pid {pid}");
    }
}

/// The profiler ends a run by the same rule as `run_to_exit`: a trap
/// that surfaces while trap-table redirects are installed is a missing
/// redirect (docs/FAILURE-MODES.md), on the single-process path and for
/// the one sabotaged fleet member alike.
#[test]
fn surfaced_trap_with_redirects_is_a_redirect_miss_when_sampling() {
    // Overwrite main's first instruction with a bare 4-byte ebreak that
    // has no redirect, and plant one unrelated entry so the table is
    // non-empty (matmul's springboards all fit direct jumps).
    fn sabotage(p: &mut Process, main: u64) {
        p.write_mem(main, &0x0010_0073u32.to_le_bytes());
        p.machine_mut()
            .trap_redirects
            .insert(0xdead_0000, 0xdead_0004);
    }
    let bin = rvdyn_asm::matmul_program(4, 1);
    let main = bin.symbol_by_name("main").unwrap().value;
    let profiler = Profiler::new(ProfileOptions::default());

    let mut dy = DynamicInstrumenter::create(bin.clone());
    let counter = dy.alloc_var(8);
    let pts = dy.find_points("matmul", PointKind::FuncEntry).unwrap();
    dy.insert(&pts, Snippet::increment(counter));
    dy.commit().unwrap();
    sabotage(dy.process_mut(), main);
    let out = profiler.sample_fleet(dy.fleet_mut()).expect("sample");
    match &out.outcomes[&DynamicInstrumenter::PID] {
        Err(Error::RedirectMiss { pc }) => assert_eq!(*pc, main),
        other => panic!("expected RedirectMiss, got {other:?}"),
    }

    let mut fc = FleetController::from_binary(bin, SessionOptions::new());
    let pids = fc.spawn(3);
    let counter = fc.alloc_var(8);
    let pts = fc.find_points("matmul", PointKind::FuncEntry).unwrap();
    fc.insert(&pts, Snippet::increment(counter));
    fc.commit_all().unwrap();
    fc.with_process(pids[1], |p| sabotage(p, main)).unwrap();
    let out = profiler.sample_fleet(&mut fc).expect("sample_fleet");
    // The profile and the fleet controller record the same ends.
    for pid in pids {
        for outcome in [out.outcomes.get(&pid), fc.result(pid)] {
            match outcome {
                Some(Err(Error::RedirectMiss { pc })) if pid == 1 => assert_eq!(*pc, main),
                Some(Ok(0)) if pid != 1 => {}
                other => panic!("pid {pid}: unexpected outcome {other:?}"),
            }
        }
    }
    let summary = fc.summary();
    assert_eq!(summary.processes_failed, 1);
    let codes: Vec<_> = summary.per_process.iter().map(|r| r.exit_code).collect();
    assert_eq!(codes, [Some(0), None, Some(0)]);
}

/// A process that failed its commit keeps that failure as its fleet
/// result when the profiler samples the fleet: the profiler does not run
/// its torn patch, reports the failure as its outcome, and takes no
/// samples of it.
#[test]
fn sampling_keeps_a_failed_commit_as_the_fleet_result() {
    let mut fc =
        FleetController::from_binary(rvdyn_asm::matmul_program(4, 1), SessionOptions::new());
    let pids = fc.spawn(2);
    let counter = fc.alloc_var(8);
    let pts = fc.find_points("matmul", PointKind::FuncEntry).unwrap();
    fc.insert(&pts, Snippet::increment(counter));
    // Write 0 is the first patch region: `main`'s rewritten call to
    // `matmul`.
    fc.set_fault_plan(pids[1], FaultPlan::new().corrupt_write(0, 0))
        .unwrap();
    fc.commit_all().unwrap();
    let out = Profiler::new(ProfileOptions::default())
        .sample_fleet(&mut fc)
        .expect("sample_fleet");
    assert!(matches!(fc.result(pids[0]), Some(Ok(0))));
    assert!(matches!(
        fc.result(pids[1]),
        Some(Err(Error::PatchVerifyFailed { .. }))
    ));
    assert_eq!(fc.summary().processes_failed, 1);
    assert!(matches!(
        out.outcomes.get(&pids[1]),
        Some(Err(Error::PatchVerifyFailed { .. }))
    ));
    assert_eq!(out.per_process[&pids[1]].samples, 0);
    assert_eq!(out.profile.samples, out.per_process[&pids[0]].samples);
}

/// The other half of that rule: the mutatee's own `ebreak` stays an
/// `UncleanExit` in an instrumented process, also once its function was
/// relocated into the patch area, on every live path.
#[test]
fn own_ebreak_under_instrumentation_is_an_unclean_exit() {
    let bin = rvdyn_asm::nested_call_program(&[16, 32, 0], false);
    let own = |r: Option<&Result<i64, Error>>| matches!(r, Some(Err(Error::UncleanExit { reason, .. })) if reason.contains("breakpoint"));
    let redirect = |p: &mut Process| {
        p.machine_mut()
            .trap_redirects
            .insert(0xdead_0000, 0xdead_0004);
    };
    let dynamic = || {
        let mut dy = DynamicInstrumenter::create(bin.clone());
        let counter = dy.alloc_var(8);
        let pts = dy.find_points("g_2", PointKind::BlockEntry).unwrap();
        dy.insert(&pts, Snippet::increment(counter));
        dy.commit().unwrap();
        redirect(dy.process_mut());
        dy
    };
    let fleet = || {
        let mut fc = FleetController::from_binary(bin.clone(), SessionOptions::new());
        let pids = fc.spawn(2);
        let counter = fc.alloc_var(8);
        let pts = fc.find_points("g_2", PointKind::BlockEntry).unwrap();
        fc.insert(&pts, Snippet::increment(counter));
        fc.commit_all().unwrap();
        for pid in &pids {
            fc.with_process(*pid, redirect).unwrap();
        }
        (fc, pids)
    };
    let profiler = Profiler::new(ProfileOptions::default());

    assert!(own(Some(&dynamic().run_to_exit())));
    let out = profiler
        .sample_fleet(dynamic().fleet_mut())
        .expect("sample");
    let sampled = &out.outcomes[&DynamicInstrumenter::PID];
    assert!(own(Some(sampled)), "{sampled:?}");
    let (mut fc, pids) = fleet();
    fc.run_all();
    assert!(pids.iter().all(|pid| own(fc.result(*pid))));
    let (mut fc, pids) = fleet();
    let out = profiler.sample_fleet(&mut fc).expect("sample_fleet");
    assert!(pids.iter().all(|pid| own(out.outcomes.get(pid))));
}
