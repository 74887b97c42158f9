//! T2: tool overhead, the memory tracer and the sampling profiler, on
//! matmul(SIZE, 2) and the cached engine. Three legs:
//!
//! - **baseline**: the uninstrumented binary run to exit, the
//!   denominator of every overhead figure;
//! - **memtrace**: every load and store traced by the [`MemTracer`],
//!   the ring drained and serialised to `rvdyn-trace-v1` and read back:
//!   records per second, slowdown, and serializer throughput;
//! - **sample**: the [`Profiler`] interrupting every 10k modelled cycles
//!   with a full stack walk: samples, slowdown, samples per second.
//!
//! Correctness is asserted before anything is reported: the drained
//! trace must equal the interpreter-side memory-op oracle record for
//! record, and both tool runs must exit 0.
//!
//! [`MemTracer`]: rvdyn::MemTracer
//! [`Profiler`]: rvdyn::Profiler

use crate::{timed, Bound, Fields, Op, Report};
use rvdyn::tools::{serialize_trace, MemTracer, TraceOptions, TraceReader};
use rvdyn::{
    DynamicInstrumenter, EmuEngine, ProfileOptions, Profiler, SessionOptions, StopReason,
    TraceRecord,
};
use std::collections::BTreeSet;

/// `tools [SIZE]`: matmul(SIZE, 2).
pub fn run(args: &[usize]) -> Report {
    let size = args[0];
    eprintln!("tools: matmul({size}, 2) mutatee, cached engine — measuring…");
    let binary = rvdyn_asm::matmul_program(size, 2);
    let opts = || SessionOptions::new().engine(EmuEngine::Cached);

    // Baseline: the uninstrumented mutatee, warm then timed.
    let exits = |m: &mut rvdyn::Machine| m.run() == StopReason::Exited(0);
    assert!(exits(&mut rvdyn_emu::load_binary(&binary)));
    let mut m = rvdyn_emu::load_binary(&binary);
    m.engine = EmuEngine::Cached;
    let (clean, baseline_ns) = timed(|| exits(&mut m));
    assert!(clean, "baseline mutatee must exit cleanly");

    // Memtrace leg: the whole program traced, the ring sized for the run.
    let mut dy = DynamicInstrumenter::create_with(binary.clone(), opts());
    let trace = TraceOptions {
        capacity: 1 << 21,
        funcs: None,
    };
    let tracer = MemTracer::plan_fleet(dy.fleet_mut(), &trace).expect("plan");
    dy.commit().expect("commit");
    let (code, trace_wall_ns) = timed(|| dy.run_to_exit().expect("traced run"));
    assert_eq!(code, 0, "traced mutatee must exit cleanly");
    let drained = tracer
        .drain_fleet(dy.fleet_mut(), DynamicInstrumenter::PID)
        .expect("drain");
    assert_eq!(drained.dropped, 0, "ring must hold the whole run");

    // The trace must equal the interpreter-side oracle.
    let sites: BTreeSet<u64> = tracer.pcs().into_iter().collect();
    let mut m = rvdyn_emu::load_binary(&binary);
    m.arm_mem_oracle();
    assert!(exits(&mut m));
    let expected: Vec<TraceRecord> = m
        .take_mem_oracle()
        .into_iter()
        .filter(|op| sites.contains(&op.pc))
        .map(|op| TraceRecord {
            pc: op.pc,
            addr: op.addr,
            len: op.len,
            is_store: op.is_store,
        })
        .collect();
    assert_eq!(drained.records, expected, "trace diverged from the oracle");

    // Serializer round trip: records → rvdyn-trace-v1 bytes → records.
    let records = drained.records.len();
    let (bytes, serialize_ns) = timed(|| serialize_trace(&drained.records));
    let (reader, validate_ns) = timed(|| TraceReader::parse(&bytes).expect("validate"));
    assert_eq!(reader.len(), records);

    // Profiler leg: 10k-cycle sampling over a fresh process.
    let mut dy = DynamicInstrumenter::create_with(binary, opts());
    let profiler = Profiler::new(ProfileOptions {
        interval_cycles: 10_000,
        max_samples: 1 << 20,
    });
    let (run, profile_wall_ns) =
        timed(|| profiler.sample_fleet(dy.fleet_mut()).expect("sampled run"));
    assert!(
        matches!(run.outcomes[&DynamicInstrumenter::PID], Ok(0)),
        "sampled mutatee must exit cleanly"
    );

    let samples = run.profile.samples as f64;
    let records_per_s = records as f64 / (trace_wall_ns as f64 / 1e9);
    let trace_overhead = trace_wall_ns as f64 / baseline_ns as f64;
    let bytes_per_record = bytes.len() as f64 / records.max(1) as f64;
    let profile_overhead = profile_wall_ns as f64 / baseline_ns as f64;
    let fields = Fields::default()
        .int("size", size)
        .text("engine", "cached")
        .int("baseline_ns", baseline_ns)
        .int("trace_records", records)
        .int("trace_dropped", drained.dropped)
        .int("trace_wall_ns", trace_wall_ns)
        .real("trace_records_per_s", records_per_s, 0)
        .real("trace_overhead", trace_overhead, 3)
        .int("trace_bytes", bytes.len())
        .real("trace_bytes_per_record", bytes_per_record, 2)
        .int("serialize_ns", serialize_ns)
        .int("validate_ns", validate_ns)
        .int("profile_samples", run.profile.samples)
        .int("profile_max_depth", run.profile.max_depth)
        .int("profile_wall_ns", profile_wall_ns)
        .real("profile_overhead", profile_overhead, 3)
        .real("samples_per_s", samples / (profile_wall_ns as f64 / 1e9), 0);
    let bounds = vec![
        Bound("trace records", records as f64, Op::Above, 0.0),
        Bound("trace records per second", records_per_s, Op::AtLeast, 1e6),
        Bound("profile samples", samples, Op::Above, 0.0),
        Bound(
            "profile overhead (x baseline)",
            profile_overhead,
            Op::Above,
            0.0,
        ),
    ];
    Report::new(fields, bounds)
}
