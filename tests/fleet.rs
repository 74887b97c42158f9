//! Fleet-scale dynamic instrumentation, end to end through the public
//! API: one [`FleetController`] must instrument N mutatees with the
//! exact bytes a sequential [`DynamicInstrumenter`] session delivers and
//! the static rewriter writes into a file, isolate injected faults to
//! the targeted process, produce identical results at every worker
//! count, and survive a process dying in the middle of a fleet-wide
//! patch commit. The contract under test is written down in
//! `docs/FLEET.md`.

use rvdyn::telemetry::CollectSink;
use rvdyn::tools::{FuncCounts, MemTracer, TraceOptions};
use rvdyn::{
    Binary, BinaryEditor, Diagnostics, DynamicInstrumenter, EmuEngine, Error, Event, FaultPlan,
    FleetController, PointKind, Process, Profile, ProfileOptions, Profiler, SessionOptions,
    Snippet, TelemetryEvent, Var,
};
use rvdyn_asm::matmul_program;
use std::collections::BTreeMap;

/// Drive one sequential single-process session over the same binary and
/// snippet the fleet uses; returns (exit_code, counter, process) so
/// callers can compare memory against fleet processes.
fn sequential_reference() -> (i64, u64, DynamicInstrumenter) {
    let mut di = DynamicInstrumenter::create(matmul_program(8, 2));
    let c = di.alloc_var(8);
    let pts = di.find_points("matmul", PointKind::FuncEntry).unwrap();
    di.insert(&pts, Snippet::increment(c));
    di.commit().unwrap();
    let code = di.run_to_exit().unwrap();
    let counter = di.read_var(c).unwrap();
    (code, counter, di)
}

fn instrumented_fleet(n: usize, opts: SessionOptions) -> (FleetController, Vec<u32>, rvdyn::Var) {
    let mut fleet = FleetController::from_binary(matmul_program(8, 2), opts);
    let pids = fleet.spawn(n);
    let c = fleet.alloc_var(8);
    let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
    fleet.insert(&pts, Snippet::increment(c));
    (fleet, pids, c)
}

/// The tentpole parity claim: a fleet of 100 processes ends up with
/// patch regions *bit-identical* to a sequential session's, in every
/// process, and every process computes the same result. A sequential
/// session is itself a fleet of one, so the regions are also checked
/// against an independent delivery: the same counter written into a
/// file by the static rewriter and loaded as a fresh image.
#[test]
fn fleet_of_100_matches_sequential_sessions_bit_for_bit() {
    let (seq_code, seq_counter, seq) = sequential_reference();
    assert_eq!(seq_code, 0);

    let (mut fleet, pids, c) = instrumented_fleet(100, SessionOptions::new());
    fleet.commit_all().unwrap();
    fleet.run_all();

    let regions = fleet.commit_regions().to_vec();
    assert!(!regions.is_empty(), "commit must deliver patch regions");
    let elf = {
        let mut ed = BinaryEditor::from_binary(matmul_program(8, 2), SessionOptions::new());
        let c = ed.alloc_var(8);
        let pts = ed.find_points("matmul", PointKind::FuncEntry).unwrap();
        ed.insert(&pts, Snippet::increment(c));
        ed.rewrite().unwrap()
    };
    let image = rvdyn_emu::load_binary(&Binary::parse(&elf).unwrap());
    for (addr, bytes) in &regions {
        let static_bytes = image.read_mem(*addr, bytes.len()).unwrap();
        assert_eq!(static_bytes, *bytes, "region {addr:#x} vs static image");
    }
    for pid in &pids {
        assert!(
            matches!(fleet.result(*pid), Some(Ok(code)) if *code == seq_code),
            "pid {pid}: {:?}",
            fleet.result(*pid)
        );
        assert_eq!(fleet.read_var(*pid, c), Some(seq_counter), "pid {pid}");
        // Every delivered region must read back byte-identical to the
        // sequential process's memory at the same addresses.
        for (addr, bytes) in &regions {
            let fleet_bytes = fleet
                .with_process(*pid, |p| p.read_mem(*addr, bytes.len()).unwrap())
                .unwrap();
            let seq_bytes = seq.process().read_mem(*addr, bytes.len()).unwrap();
            assert_eq!(fleet_bytes, *bytes, "pid {pid} region {addr:#x} vs plan");
            assert_eq!(
                fleet_bytes, seq_bytes,
                "pid {pid} region {addr:#x} vs sequential"
            );
        }
    }

    let s = fleet.summary();
    assert_eq!(s.processes, 100);
    assert_eq!(s.processes_failed, 0);
    // One commit completion and at least one run completion per process.
    assert!(s.events_dispatched >= 200, "got {}", s.events_dispatched);
}

/// Fault isolation: a write-corruption fault plan targeted at exactly
/// one pid mid-fleet must surface as that pid's typed
/// `PatchVerifyFailed` — and the other N−1 processes commit, run, and
/// count as if nothing happened.
#[test]
fn targeted_fault_hits_one_process_and_spares_the_rest() {
    let (_, seq_counter, _) = sequential_reference();
    let (mut fleet, pids, c) = instrumented_fleet(8, SessionOptions::new());
    let victim = pids[3];
    // Write 0 is the first patch region: `main`'s rewritten call to
    // `matmul`.
    fleet
        .set_fault_plan(victim, FaultPlan::new().corrupt_write(0, 0))
        .unwrap();
    fleet.commit_all().unwrap();
    fleet.run_all();

    match fleet.result(victim) {
        Some(Err(Error::PatchVerifyFailed { addr })) => assert!(*addr > 0),
        other => panic!("victim must fail patch verification, got {other:?}"),
    }
    let s = fleet.summary();
    assert_eq!(s.processes_failed, 1);
    assert_eq!(s.faults_injected, 1);
    for pid in pids {
        if pid == victim {
            continue;
        }
        assert!(matches!(fleet.result(pid), Some(Ok(0))), "pid {pid}");
        assert_eq!(fleet.read_var(pid, c), Some(seq_counter), "pid {pid}");
        assert_eq!(
            fleet.process_diagnostics(pid).unwrap().faults_injected,
            0,
            "pid {pid} must see no injected faults"
        );
    }
    // The victim's per-process diagnostics carry the injection.
    assert_eq!(
        fleet.process_diagnostics(victim).unwrap().faults_injected,
        1
    );
}

/// Worker-count determinism: per-process results, counters, and the
/// dispatched-event total must be identical whether the fleet's back
/// half runs inline (threads=1, one job after another) or on 4 workers
/// (jobs end in any order; outcomes may not differ).
#[test]
fn worker_count_does_not_change_any_observable_outcome() {
    let run = |threads: usize| {
        let (mut fleet, pids, c) = instrumented_fleet(12, SessionOptions::new().threads(threads));
        fleet.commit_all().unwrap();
        fleet.run_all();
        let s = fleet.summary();
        let per_pid: Vec<(u32, i64, u64, u64)> = pids
            .iter()
            .map(|pid| {
                let code = match fleet.result(*pid) {
                    Some(Ok(code)) => *code,
                    other => panic!("pid {pid}: {other:?}"),
                };
                let d = fleet.process_diagnostics(*pid).unwrap();
                (*pid, code, fleet.read_var(*pid, c).unwrap(), d.instret)
            })
            .collect();
        (per_pid, s.events_dispatched, s.processes_failed)
    };
    let (seq1, events1, failed1) = run(1);
    let (seq4, events4, failed4) = run(4);
    assert_eq!(seq1, seq4, "per-process outcomes must be thread-invariant");
    assert_eq!(events1, events4, "event totals must be thread-invariant");
    assert_eq!((failed1, failed4), (0, 0));
}

/// Controller events come in pid order at every worker count. Pid 5 of
/// a 6-pid fleet fails its first patch write, so its commit job ends
/// first; still, once the debug-interface events the workers raise and
/// the stage wall-clock are left out, the fleet streams the same events
/// at threads 1, 2 and 4.
#[test]
fn controller_events_come_in_pid_order_at_every_worker_count() {
    let stream = |threads: usize| {
        let sink = CollectSink::new();
        let opts = SessionOptions::new()
            .threads(threads)
            .telemetry(sink.clone());
        let mut fleet = FleetController::from_binary(matmul_program(24, 2), opts);
        let pids = fleet.spawn(6);
        fleet.count_blocks("matmul").unwrap();
        fleet
            .set_fault_plan(pids[5], FaultPlan::new().corrupt_write(0, 0))
            .unwrap();
        fleet.commit_all().unwrap();
        fleet.run_all();
        assert!(matches!(
            fleet.result(pids[5]),
            Some(Err(Error::PatchVerifyFailed { .. }))
        ));
        let events = sink.events();
        let kept = events.iter().filter_map(|e| match e {
            TelemetryEvent::MemWritten { .. }
            | TelemetryEvent::BreakpointSet { .. }
            | TelemetryEvent::BreakpointRemoved { .. }
            | TelemetryEvent::FaultInjected { .. } => None,
            TelemetryEvent::StageEnd { stage, .. } => Some(format!("StageEnd({stage})")),
            e => Some(format!("{e:?}")),
        });
        kept.collect::<Vec<String>>()
    };
    let inline = stream(1);
    let dispatched = |s: &[String]| {
        s.iter()
            .filter(|e| e.starts_with("FleetEventDispatched"))
            .count()
    };
    assert_eq!(
        dispatched(&inline),
        6 + 5,
        "one commit per pid, one run per survivor"
    );
    for threads in [2, 4] {
        assert_eq!(stream(threads), inline, "threads {threads}");
    }
}

/// The counters each process owns, as the controller totals them.
fn process_owned(d: &Diagnostics) -> [u64; 6] {
    [
        d.instret,
        d.cycles,
        d.patch_regions_written as u64,
        d.faults_injected,
        d.emu_blocks_translated,
        d.emu_invalidations,
    ]
}

/// What the fleet took over from the single-process path, on 3-pid
/// matmul fleets with an entry counter: removing the instrumentation
/// before the run, attaching a process stopped mid-run, controller
/// diagnostics that total the per-pid rows at any worker count, and
/// drained trace records counted once.
#[test]
fn fleet_removes_attaches_and_totals_its_processes() {
    let bin = matmul_program(8, 2);
    let main = bin.symbol_by_name("main").unwrap().value;

    // Removed before the run: no call is counted, every pid exits clean.
    let (mut fleet, pids, c) = instrumented_fleet(3, SessionOptions::new());
    fleet.commit_all().unwrap();
    fleet.remove_instrumentation();
    fleet.run_all();
    for pid in &pids {
        assert!(matches!(fleet.result(*pid), Some(Ok(0))), "pid {pid}");
        assert_eq!(fleet.read_var(*pid, c), Some(0), "pid {pid}");
    }

    for threads in [1usize, 4] {
        let opts = SessionOptions::new()
            .threads(threads)
            .engine(EmuEngine::Cached);
        let mut fleet = FleetController::from_binary(bin.clone(), opts);
        let spawned = fleet.spawn(2);
        // A process run to a breakpoint on `main`, then attached.
        let mut p = Process::launch(&bin);
        p.set_breakpoint(main).unwrap();
        assert_eq!(p.cont().unwrap(), Event::Breakpoint(main));
        p.remove_breakpoint(main).unwrap();
        let attached = fleet.attach(p);
        assert_eq!(fleet.pids(), vec![spawned[0], spawned[1], attached]);
        // One pid stops on a breakpoint whose stop is delayed: a fault
        // for the totals to carry.
        fleet
            .with_process(spawned[0], |p| p.set_breakpoint(main))
            .unwrap()
            .unwrap();
        fleet
            .set_fault_plan(spawned[0], FaultPlan::new().delay_stop(0))
            .unwrap();
        let c = fleet.alloc_var(8);
        let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
        fleet.insert(&pts, Snippet::increment(c));
        fleet.commit_all().unwrap();
        fleet.run_all();

        let mut sums = [0u64; 6];
        for pid in fleet.pids() {
            assert!(matches!(fleet.result(pid), Some(Ok(0))), "pid {pid}");
            assert_eq!(
                fleet.read_var(pid, c),
                Some(2),
                "threads {threads} pid {pid}"
            );
            let row = process_owned(fleet.process_diagnostics(pid).unwrap());
            for (sum, v) in sums.iter_mut().zip(row) {
                *sum += v;
            }
        }
        let totals = fleet.diagnostics();
        assert_eq!(process_owned(totals), sums, "threads {threads}");
        assert_eq!(totals.faults_injected, 1, "threads {threads}");
        assert!(totals.instret > 0 && totals.emu_blocks_translated > 0);
    }

    // Drained trace records land once on the controller and once on
    // their pid's row.
    let (mut fleet, pids, c) = instrumented_fleet(3, SessionOptions::new());
    let tracer = MemTracer::plan_fleet(&mut fleet, &TraceOptions::default()).unwrap();
    fleet.commit_all().unwrap();
    fleet.run_all();
    let mut drained = 0;
    for pid in &pids {
        assert_eq!(fleet.read_var(*pid, c), Some(2), "pid {pid}");
        let records = tracer.drain_fleet(&mut fleet, *pid).unwrap().records.len() as u64;
        assert!(records > 0, "pid {pid}");
        let row = fleet.process_diagnostics(*pid).unwrap();
        assert_eq!(row.trace_records, records, "pid {pid}");
        drained += records;
    }
    assert_eq!(fleet.diagnostics().trace_records, drained);
}

/// A process that exits *before* the fleet-wide commit reaches it is a
/// per-process `FleetProcessLost`, not a fleet failure: the commit job
/// detects the dead process, skips delivery, and the rest of the fleet
/// commits and runs normally.
#[test]
fn process_exit_during_patch_is_recovered_per_process() {
    let sink = CollectSink::new();
    let (mut fleet, pids, c) = instrumented_fleet(6, SessionOptions::new().telemetry(sink.clone()));
    let dead = pids[1];
    // Run the victim to exit through the debugger escape hatch while
    // the rest of the fleet is still stopped at entry.
    let code = fleet
        .with_process(dead, |p| loop {
            match p.cont().unwrap() {
                rvdyn::Event::Exited(code) => break code,
                _ => continue,
            }
        })
        .unwrap();
    assert_eq!(code, 0);

    fleet.commit_all().unwrap();
    fleet.run_all();

    match fleet.result(dead) {
        Some(Err(Error::FleetProcessLost { pid })) => assert_eq!(*pid, dead),
        other => panic!("expected FleetProcessLost, got {other:?}"),
    }
    for pid in pids {
        if pid == dead {
            continue;
        }
        assert!(matches!(fleet.result(pid), Some(Ok(0))), "pid {pid}");
        assert!(fleet.read_var(pid, c).unwrap() > 0, "pid {pid}");
    }
    let s = fleet.summary();
    assert_eq!(s.processes_failed, 1);
    // The failure is typed in telemetry too: exactly one FleetProcessFailed.
    let failed: Vec<u32> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::FleetProcessFailed { pid } => Some(*pid),
            _ => None,
        })
        .collect();
    assert_eq!(failed, vec![dead]);
}

/// Tool/fault interaction: a `FaultPlan` corrupting one process's patch
/// delivery must not perturb a single record of the other N−1 memory
/// traces. The victim surfaces its typed commit failure; every survivor
/// drains a trace identical to the uninstrumented interpreter oracle.
#[test]
fn fault_in_one_process_leaves_other_traces_intact() {
    let bin = matmul_program(5, 1);
    let mut fleet = FleetController::from_binary(bin.clone(), SessionOptions::new().threads(4));
    let pids = fleet.spawn(6);
    let tracer = MemTracer::plan_fleet(&mut fleet, &TraceOptions::default()).unwrap();
    let victim = pids[2];
    fleet
        .set_fault_plan(victim, FaultPlan::new().corrupt_write(0, 0))
        .unwrap();
    fleet.commit_all().unwrap();
    fleet.run_all();

    // The clean-run ground truth, from an uninstrumented machine.
    let site_set: std::collections::BTreeSet<u64> = tracer.pcs().into_iter().collect();
    let mut m = rvdyn_emu::load_binary(&bin);
    m.arm_mem_oracle();
    m.fuel = Some(50_000_000);
    assert!(matches!(m.run(), rvdyn::StopReason::Exited(0)));
    let expected: Vec<rvdyn::TraceRecord> = m
        .take_mem_oracle()
        .into_iter()
        .filter(|op| site_set.contains(&op.pc))
        .map(|op| rvdyn::TraceRecord {
            pc: op.pc,
            addr: op.addr,
            len: op.len,
            is_store: op.is_store,
        })
        .collect();
    assert!(!expected.is_empty());

    match fleet.result(victim) {
        Some(Err(Error::PatchVerifyFailed { .. })) => {}
        other => panic!("victim must fail its commit, got {other:?}"),
    }
    for pid in pids {
        if pid == victim {
            continue;
        }
        assert!(matches!(fleet.result(pid), Some(Ok(0))), "pid {pid}");
        let d = tracer.drain_fleet(&mut fleet, pid).unwrap();
        assert_eq!(d.dropped, 0, "pid {pid}");
        assert_eq!(d.records, expected, "pid {pid}: trace perturbed by fault");
    }
    assert_eq!(fleet.summary().processes_failed, 1);
}

/// Tool/fault interaction, profiler side: one process dying before the
/// fleet is sampled yields a typed per-pid error — and the other N−1
/// profiles are exactly the profiles an undisturbed fleet produces.
#[test]
fn dead_process_does_not_perturb_other_fleet_profiles() {
    let bin = matmul_program(5, 1);
    let profiler = Profiler::new(ProfileOptions {
        interval_cycles: 2_000,
        max_samples: 1 << 20,
    });

    // Reference: an undisturbed 1-process fleet's sample pcs.
    let mut ref_fleet = FleetController::from_binary(bin.clone(), SessionOptions::new());
    let ref_pid = ref_fleet.spawn(1)[0];
    let reference = profiler.sample_fleet(&mut ref_fleet).unwrap();
    let ref_pcs = &reference.per_process[&ref_pid].sample_pcs;
    assert!(!ref_pcs.is_empty());

    let mut fleet = FleetController::from_binary(bin, SessionOptions::new());
    let pids = fleet.spawn(4);
    let dead = pids[1];
    let code = fleet
        .with_process(dead, |p| loop {
            match p.cont().unwrap() {
                rvdyn::Event::Exited(code) => break code,
                _ => continue,
            }
        })
        .unwrap();
    assert_eq!(code, 0);

    let out = profiler.sample_fleet(&mut fleet).unwrap();
    assert!(
        matches!(out.outcomes.get(&dead), Some(Err(_))),
        "dead pid must surface a typed error, got {:?}",
        out.outcomes.get(&dead)
    );
    let mut live_samples = 0;
    for pid in pids {
        if pid == dead {
            continue;
        }
        assert!(matches!(out.outcomes.get(&pid), Some(Ok(0))), "pid {pid}");
        assert_eq!(
            &out.per_process[&pid].sample_pcs, ref_pcs,
            "pid {pid}: profile perturbed by the dead neighbour"
        );
        live_samples += out.per_process[&pid].samples;
    }
    assert_eq!(out.profile.samples, live_samples);
}

/// Everything a [`Profile`] holds, in comparable form.
type ProfileKey = (
    u64,
    u64,
    BTreeMap<String, u64>,
    BTreeMap<String, FuncCounts>,
    Vec<u64>,
);

fn profile_key(p: &Profile) -> ProfileKey {
    (
        p.samples,
        p.max_depth,
        p.folded.clone(),
        p.funcs.clone(),
        p.sample_pcs.clone(),
    )
}

const SAMPLED_PIDS: usize = 6;

fn sampling_profiler() -> Profiler {
    Profiler::new(ProfileOptions {
        interval_cycles: 1_500,
        max_samples: 1 << 20,
    })
}

/// A committed fleet of matmul(8, 2) processes with every load and
/// store traced, sampled to the end; `arm` runs on the controller
/// before the commit and `tamper` after it.
fn sampled_fleet(
    threads: usize,
    arm: impl FnOnce(&mut FleetController),
    tamper: impl FnOnce(&mut FleetController),
) -> (FleetController, rvdyn::FleetProfile) {
    let mut fc =
        FleetController::from_binary(matmul_program(8, 2), SessionOptions::new().threads(threads));
    fc.spawn(SAMPLED_PIDS);
    MemTracer::plan_fleet(&mut fc, &TraceOptions::default()).unwrap();
    arm(&mut fc);
    fc.commit_all().unwrap();
    tamper(&mut fc);
    let out = sampling_profiler().sample_fleet(&mut fc).unwrap();
    (fc, out)
}

/// Everything a sampled fleet reports that must not depend on the
/// worker count: per-pid profiles, the merged profile, the profiler's
/// outcomes and the fleet's results (as their rendered forms), the
/// dispatched-event total, and the rollup without its wall-clock
/// timings and without the plan phase's worker count, which is the
/// thread count by definition.
fn sampled_observables(
    fc: &FleetController,
    out: &rvdyn::FleetProfile,
) -> (
    BTreeMap<u32, ProfileKey>,
    ProfileKey,
    Vec<String>,
    u64,
    String,
) {
    let per = out
        .per_process
        .iter()
        .map(|(pid, p)| (*pid, profile_key(p)))
        .collect();
    let ends = fc
        .pids()
        .iter()
        .map(|pid| format!("{pid}: {:?} / {:?}", out.outcomes.get(pid), fc.result(*pid)))
        .collect();
    let mut summary = fc.summary();
    for row in &mut summary.per_process {
        row.diag.timings = Default::default();
        row.diag.instrument_workers = 0;
    }
    (
        per,
        profile_key(&out.profile),
        ends,
        fc.events_dispatched(),
        summary.to_json(),
    )
}

/// The fleet profiler runs each pid's sampling loop as one job on the
/// worker pool. Whatever the worker count, every per-pid profile, the
/// merged profile, every outcome and the rollup are those of the inline
/// (`threads(1)`) run — and each per-pid profile is the one the profiler
/// takes of an identically instrumented single process.
#[test]
fn fleet_profiles_are_identical_at_every_worker_count() {
    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let (fc, out) = sampled_fleet(threads, |_| {}, |_| {});
            for pid in fc.pids() {
                assert!(matches!(out.outcomes.get(&pid), Some(Ok(0))), "pid {pid}");
                assert!(matches!(fc.result(pid), Some(Ok(0))), "pid {pid}");
            }
            // One commit and one sampling completion per pid.
            assert_eq!(fc.events_dispatched(), 2 * SAMPLED_PIDS as u64);
            sampled_observables(&fc, &out)
        })
        .collect();
    assert_eq!(runs[0], runs[1], "threads(2) differs from threads(1)");
    assert_eq!(runs[0], runs[2], "threads(4) differs from threads(1)");

    let mut dy = DynamicInstrumenter::create(matmul_program(8, 2));
    MemTracer::plan_fleet(dy.fleet_mut(), &TraceOptions::default()).unwrap();
    dy.commit().unwrap();
    let single = sampling_profiler().sample_fleet(dy.fleet_mut()).unwrap();
    assert!(matches!(single.outcomes[&DynamicInstrumenter::PID], Ok(0)));
    assert!(single.profile.samples > 10, "too few samples to compare");
    let (per, merged, ..) = &runs[0];
    for (pid, p) in per {
        assert_eq!(
            *p,
            profile_key(&single.profile),
            "pid {pid} vs the single process"
        );
    }
    assert_eq!(merged.0, single.profile.samples * SAMPLED_PIDS as u64);
}

/// Failure isolation under a 4-worker sampler: a pid whose commit was
/// corrupted keeps `PatchVerifyFailed` as its fleet result, a pid with a
/// stray trap over its entry reports `RedirectMiss`, and every other
/// pid's profile is exactly its profile from an undisturbed inline run.
/// The disturbed fleet also reports exactly what it reports inline: one
/// pid has run most of its course before sampling starts, so its job
/// ends first on the workers and its samples differ from its
/// neighbours', which pins the merged profile to pid order rather than
/// completion order.
#[test]
fn sampling_on_workers_isolates_failed_pids() {
    const CORRUPTED: u32 = 1;
    const ADVANCED: u32 = 2;
    const SABOTAGED: u32 = 4;
    let disturbed = |threads: usize| {
        let mut entry = 0;
        let (fc, out) = sampled_fleet(
            threads,
            |fc| {
                // Write 0 is the first patch region: `_start`'s
                // rewritten call to `main`.
                fc.set_fault_plan(CORRUPTED, FaultPlan::new().corrupt_write(0, 0))
                    .unwrap();
            },
            |fc| {
                // A bare 4-byte ebreak over the entry instruction, with a
                // redirect table that has no entry for it.
                entry = fc
                    .with_process(SABOTAGED, |p: &mut Process| {
                        let pc = p.pc();
                        p.write_mem(pc, &0x0010_0073u32.to_le_bytes());
                        p.machine_mut()
                            .trap_redirects
                            .insert(0xdead_0000, 0xdead_0004);
                        pc
                    })
                    .unwrap();
                // About two thirds of the traced run's 173,387 cycles.
                fc.with_process(ADVANCED, |p| {
                    p.machine_mut().stop_at_cycles = Some(110_000);
                    assert!(matches!(p.cont(), Ok(Event::CycleLimit(_))));
                })
                .unwrap();
            },
        );
        (fc, out, entry)
    };
    let (fc, out, entry) = disturbed(4);

    assert!(
        matches!(
            fc.result(CORRUPTED),
            Some(Err(Error::PatchVerifyFailed { .. }))
        ),
        "corrupted pid: {:?}",
        fc.result(CORRUPTED)
    );
    for outcome in [out.outcomes.get(&SABOTAGED), fc.result(SABOTAGED)] {
        match outcome {
            Some(Err(Error::RedirectMiss { pc })) => assert_eq!(*pc, entry),
            other => panic!("sabotaged pid: expected RedirectMiss, got {other:?}"),
        }
    }
    let (_, clean) = sampled_fleet(1, |_| {}, |_| {});
    let advanced = out.per_process[&ADVANCED].samples;
    assert!(matches!(out.outcomes.get(&ADVANCED), Some(Ok(0))));
    assert!(advanced > 0 && advanced < clean.per_process[&ADVANCED].samples);
    for pid in fc.pids() {
        if [CORRUPTED, ADVANCED, SABOTAGED].contains(&pid) {
            continue;
        }
        assert!(matches!(out.outcomes.get(&pid), Some(Ok(0))), "pid {pid}");
        assert!(matches!(fc.result(pid), Some(Ok(0))), "pid {pid}");
        assert_eq!(
            profile_key(&out.per_process[&pid]),
            profile_key(&clean.per_process[&pid]),
            "pid {pid}: profile perturbed by a failed neighbour"
        );
    }
    assert_eq!(fc.summary().processes_failed, 2);

    let (inline_fc, inline_out, _) = disturbed(1);
    assert_eq!(
        sampled_observables(&fc, &out),
        sampled_observables(&inline_fc, &inline_out),
        "the disturbed fleet differs between threads(4) and threads(1)"
    );
}

/// Resume `pid` in short legs until it stops inside relocated code with
/// `var` reading `n`, and return that pc.
fn stop_in_relocated_code(fc: &mut FleetController, pid: u32, var: Var, n: u64) -> u64 {
    let index = fc.reloc_index().clone();
    fc.with_process(pid, |p| loop {
        let now = p.machine().cycles;
        p.machine_mut().stop_at_cycles = Some(now + 100);
        match p.cont() {
            Ok(Event::CycleLimit(pc))
                if index.is_relocated(pc) && p.read_u64(var.addr) == Some(n) =>
            {
                p.machine_mut().stop_at_cycles = None;
                return pc;
            }
            Ok(Event::CycleLimit(_)) => {}
            other => panic!("the run ended before the stop: {other:?}"),
        }
    })
    .unwrap()
}

/// A matmul(8, 6) process with a `matmul` entry counter committed, then
/// stopped inside the relocated `matmul` halfway through its six calls.
fn stopped_in_relocated_matmul(engine: EmuEngine) -> (FleetController, u32, Var, u64) {
    let mut fc =
        FleetController::from_binary(matmul_program(8, 6), SessionOptions::new().engine(engine));
    let pid = fc.spawn(1)[0];
    let calls = fc.alloc_var(8);
    let pts = fc.find_points("matmul", PointKind::FuncEntry).unwrap();
    fc.insert(&pts, Snippet::increment(calls));
    fc.commit_all().unwrap();
    let pc = stop_in_relocated_code(&mut fc, pid, calls, 3);
    (fc, pid, calls, pc)
}

/// A later live commit lays its code out after the code of the commits
/// before it and maps, rather than rewrites, the data area: a process
/// stopped inside a copy an earlier commit relocated runs on through it,
/// and the earlier commit's counter keeps its value and keeps counting.
#[test]
fn a_later_commit_leaves_earlier_code_and_variables_in_place() {
    for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
        let (mut fc, pid, calls, pc) = stopped_in_relocated_matmul(engine);
        let first = fc.commit_regions().to_vec();
        let main_calls = fc.alloc_var(8);
        let pts = fc.find_points("main", PointKind::FuncEntry).unwrap();
        fc.insert(&pts, Snippet::increment(main_calls));
        fc.commit_all().unwrap();
        assert_eq!(fc.read_var(pid, calls), Some(3), "{engine:?}");
        // No byte of the first commit's patch area is written again.
        let patch_area = |r: &&(u64, Vec<u8>)| r.0 >= rvdyn::PatchLayout::default().patch_text;
        let first_end = first
            .iter()
            .filter(patch_area)
            .map(|(a, b)| a + b.len() as u64);
        let first_end = first_end.max().unwrap();
        assert!(pc < first_end, "{engine:?}: stopped at {pc:#x}");
        for (addr, _) in fc.commit_regions().iter().filter(patch_area) {
            assert!(
                *addr >= first_end,
                "{engine:?}: {addr:#x} overwrites commit 1"
            );
        }
        fc.run_all();
        assert!(
            matches!(fc.result(pid), Some(Ok(0))),
            "{engine:?}: {:?}",
            fc.result(pid)
        );
        assert_eq!(fc.read_var(pid, calls), Some(6), "{engine:?}");
    }
}

/// A later live commit that instruments a function an earlier commit
/// relocated is refused, so the earlier snippets are never dropped;
/// once the instrumentation is removed, the function may be instrumented
/// again, and its new copy goes after the old one.
#[test]
fn recommitting_a_relocated_function_is_refused_until_removal() {
    for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
        let (mut fc, pid, calls, _) = stopped_in_relocated_matmul(engine);
        let matmul = fc.find_points("matmul", PointKind::FuncEntry).unwrap();
        let again = fc.alloc_var(8);
        fc.insert(&matmul, Snippet::increment(again));
        match fc.commit_all() {
            Err(Error::AlreadyRelocated { func }) => assert_eq!(func, matmul[0].func),
            other => panic!("{engine:?}: expected AlreadyRelocated, got {other:?}"),
        }
        fc.remove_instrumentation();
        fc.commit_all().unwrap();
        fc.run_all();
        assert!(
            matches!(fc.result(pid), Some(Ok(0))),
            "{engine:?}: {:?}",
            fc.result(pid)
        );
        assert_eq!(fc.read_var(pid, calls), Some(3), "{engine:?}");
        assert_eq!(fc.read_var(pid, again), Some(3), "{engine:?}");
    }
}

/// A 3-pid fleet of uninstrumented matmul(4, 2) processes whose runs
/// stop on their own: pid 0 runs straight through, pid 1 stops at a
/// user breakpoint on each call of `matmul`, and pid 2 stops at one on
/// `init_arrays` and has that stop delayed (a spurious `Stepped` first).
fn stopping_fleet(opts: SessionOptions) -> FleetController {
    let bin = matmul_program(4, 2);
    let matmul = bin.symbol_by_name("matmul").unwrap().value;
    let init = bin.symbol_by_name("init_arrays").unwrap().value;
    let mut fc = FleetController::from_binary(bin, opts);
    fc.spawn(3);
    fc.with_process(1, |p| p.set_breakpoint(matmul))
        .unwrap()
        .unwrap();
    fc.with_process(2, |p| p.set_breakpoint(init))
        .unwrap()
        .unwrap();
    fc.set_fault_plan(2, FaultPlan::new().delay_stop(0))
        .unwrap();
    fc
}

/// The profiler re-arms its interval before every leg of a run, also
/// after a breakpoint stop and after a delayed stop's spurious step, so
/// such a stop moves every later sample. The pc and walked depth of each
/// sample of the stopping pids (from the `SampleTaken` events, which
/// come pid by pid) are pinned as the profiler's own loop took them
/// before it and `run_all` shared one run loop, on both engines and at
/// threads {1, 4}.
#[test]
fn samples_after_breakpoint_and_delayed_stops_are_pinned() {
    let at_breakpoints: &[(u64, usize)] = &[
        (0x101d6, 3),
        (0x101d6, 3),
        (0x101d6, 3),
        (0x101d6, 3),
        (0x101d6, 3),
        (0x101d6, 3),
        (0x101d6, 3),
        (0x101d6, 3),
        (0x10074, 2),
    ];
    let after_delayed_stop: &[(u64, usize)] = &[
        (0x101aa, 3),
        (0x101d6, 3),
        (0x10172, 3),
        (0x101d6, 3),
        (0x101d6, 3),
        (0x1019a, 3),
        (0x10196, 3),
        (0x10218, 3),
        (0x101c2, 3),
        (0x101ba, 3),
        (0x10088, 2),
    ];
    for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
        for threads in [1usize, 4] {
            let sink = CollectSink::new();
            let opts = SessionOptions::new()
                .threads(threads)
                .engine(engine)
                .telemetry(sink.clone());
            let mut fc = stopping_fleet(opts);
            let out = Profiler::new(ProfileOptions {
                interval_cycles: 1_000,
                max_samples: 1 << 20,
            })
            .sample_fleet(&mut fc)
            .unwrap();
            let taken: Vec<(u64, usize)> = sink
                .events()
                .into_iter()
                .filter_map(|e| match e {
                    TelemetryEvent::SampleTaken { pc, depth } => Some((pc, depth)),
                    _ => None,
                })
                .collect();
            let mut per_pid = Vec::new();
            let mut rest = &taken[..];
            for (pid, profile) in &out.per_process {
                assert!(matches!(out.outcomes[pid], Ok(0)), "pid {pid}");
                let (mine, later) = rest.split_at(profile.samples as usize);
                let pcs: Vec<u64> = mine.iter().map(|s| s.0).collect();
                assert_eq!(pcs, profile.sample_pcs, "pid {pid}");
                per_pid.push(mine);
                rest = later;
            }
            let case = format!("{engine:?}, threads {threads}");
            assert_eq!(per_pid[1], at_breakpoints, "{case}");
            assert_eq!(per_pid[2], after_delayed_stop, "{case}");
            // Both stops moved the samples off the undisturbed run's.
            assert_ne!(per_pid[0], per_pid[1], "{case}");
            assert_ne!(per_pid[0], per_pid[2], "{case}");
            assert_eq!(fc.diagnostics().faults_injected, 1, "{case}");
        }
    }
}

/// `run_all` runs each live pid to its end as one job, so it dispatches
/// exactly one completion per live pid, also for pids that stop at
/// breakpoints or have a stop delayed on the way, at threads {1, 4}. A
/// cycle interrupt left armed (pid 0's, as a profiler that detached
/// without disarming would leave it) is disarmed on the way, and the
/// process runs on to its exit.
#[test]
fn run_all_dispatches_one_completion_per_live_pid() {
    for threads in [1usize, 4] {
        let mut fc = stopping_fleet(SessionOptions::new().threads(threads));
        fc.with_process(0, |p| p.machine_mut().stop_at_cycles = Some(1_000))
            .unwrap();
        fc.run_all();
        for pid in fc.pids() {
            assert!(matches!(fc.result(pid), Some(Ok(0))), "pid {pid}");
        }
        let armed = fc.with_process(0, |p| p.machine().stop_at_cycles);
        assert_eq!(armed.unwrap(), None, "threads {threads}");
        assert_eq!(fc.diagnostics().faults_injected, 1, "threads {threads}");
        assert_eq!(fc.events_dispatched(), 3, "threads {threads}");
        // A second run finds no live pid, and dispatches nothing.
        fc.run_all();
        assert_eq!(fc.events_dispatched(), 3, "threads {threads}");
    }
}
