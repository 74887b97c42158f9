//! Experiment T1: tool overhead — memory tracer and sampling profiler.
//!
//! Usage: `cargo run -p rvdyn-bench --release --bin tools -- [--json] [SIZE]`
//! (default SIZE=16: the matmul mutatee's matrix dimension).
//!
//! Three measured legs over the same mutatee:
//!
//! - **baseline** — the uninstrumented binary run to exit on the cached
//!   engine: the denominator for every overhead figure.
//! - **memtrace** — every load/store instrumented with the
//!   [`MemTracer`] ring snippet, run on the cached engine, ring drained
//!   and serialized to `rvdyn-trace-v1`. Reports records/second
//!   sustained by the instrumented mutatee (the CI gate: ≥ 1M/s), the
//!   slowdown vs baseline, and the serializer round-trip throughput.
//! - **sample** — the [`Profiler`] interrupting every 10k modelled
//!   cycles with a full stack walk per interrupt. Reports samples
//!   taken, wall-clock overhead vs baseline, and samples/second.
//!
//! Correctness is asserted before anything is reported: the drained
//! trace must equal the interpreter-side memory-op oracle record for
//! record, and both tool runs must exit 0 — a run that diverged never
//! reports a throughput.
//!
//! [`MemTracer`]: rvdyn::MemTracer
//! [`Profiler`]: rvdyn::Profiler

use rvdyn::tools::{serialize_trace, MemTracer, TraceOptions, TraceReader};
use rvdyn::{DynamicInstrumenter, EmuEngine, ProfileOptions, Profiler, SessionOptions};
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: tools [--json] [SIZE]");
    eprintln!("  SIZE  matmul matrix dimension (default 16)");
    std::process::exit(2);
}

fn main() {
    let mut json = false;
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| {
            if a == "--json" {
                json = true;
                false
            } else {
                true
            }
        })
        .collect();
    if args.len() > 1 || args.iter().any(|a| a.starts_with('-')) {
        usage();
    }
    let size: usize = match args.first() {
        None => 16,
        Some(a) => match a.parse() {
            Ok(v) if v > 0 => v,
            _ => usage(),
        },
    };
    let binary = rvdyn_asm::matmul_program(size, 2);
    let opts = || SessionOptions::new().engine(EmuEngine::Cached);

    eprintln!("tools: matmul({size}, 2) mutatee, cached engine — measuring…");

    // Baseline: the uninstrumented mutatee, warm then timed.
    let baseline_ns = {
        let mut warm = rvdyn_emu::load_binary(&binary);
        assert!(matches!(warm.run(), rvdyn_emu::StopReason::Exited(0)));
        let mut m = rvdyn_emu::load_binary(&binary);
        m.engine = EmuEngine::Cached;
        let t0 = Instant::now();
        assert!(matches!(m.run(), rvdyn_emu::StopReason::Exited(0)));
        t0.elapsed().as_nanos() as u64
    };

    // Memtrace leg: full-program tracer, ring sized for the whole run.
    let mut dy = DynamicInstrumenter::create_with(binary.clone(), opts());
    let tracer = MemTracer::plan_fleet(
        dy.fleet_mut(),
        &TraceOptions {
            capacity: 1 << 21,
            funcs: None,
        },
    )
    .expect("plan");
    dy.commit().expect("commit");
    let t0 = Instant::now();
    let code = dy.run_to_exit().expect("traced run");
    let trace_wall_ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(code, 0, "traced mutatee must exit cleanly");
    let drained = tracer
        .drain_fleet(dy.fleet_mut(), DynamicInstrumenter::PID)
        .expect("drain");
    assert_eq!(drained.dropped, 0, "ring must hold the whole run");

    // Parity gate: the trace must equal the interpreter-side oracle.
    {
        let sites: std::collections::BTreeSet<u64> = tracer.pcs().into_iter().collect();
        let mut m = rvdyn_emu::load_binary(&binary);
        m.arm_mem_oracle();
        assert!(matches!(m.run(), rvdyn_emu::StopReason::Exited(0)));
        let expected: Vec<rvdyn::TraceRecord> = m
            .take_mem_oracle()
            .into_iter()
            .filter(|op| sites.contains(&op.pc))
            .map(|op| rvdyn::TraceRecord {
                pc: op.pc,
                addr: op.addr,
                len: op.len,
                is_store: op.is_store,
            })
            .collect();
        assert_eq!(drained.records, expected, "trace diverged from the oracle");
    }

    let records = drained.records.len() as u64;
    let records_per_s = records as f64 / (trace_wall_ns as f64 / 1e9);

    // Serializer round trip: records → rvdyn-trace-v1 bytes → records.
    let t0 = Instant::now();
    let bytes = serialize_trace(&drained.records);
    let serialize_ns = t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let reader = TraceReader::parse(&bytes).expect("validate");
    let parse_ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(reader.len() as u64, records);

    // Profiler leg: 10k-cycle sampling over a fresh process.
    let mut dy = DynamicInstrumenter::create_with(binary, opts());
    let profiler = Profiler::new(ProfileOptions {
        interval_cycles: 10_000,
        max_samples: 1 << 20,
    });
    let t0 = Instant::now();
    let run = profiler.sample_fleet(dy.fleet_mut()).expect("sampled run");
    let profile_wall_ns = t0.elapsed().as_nanos() as u64;
    assert!(
        matches!(run.outcomes[&DynamicInstrumenter::PID], Ok(0)),
        "sampled mutatee must exit cleanly"
    );
    assert!(run.profile.samples > 0, "interval must fire");
    let samples_per_s = run.profile.samples as f64 / (profile_wall_ns as f64 / 1e9);
    let trace_overhead = trace_wall_ns as f64 / baseline_ns as f64;
    let profile_overhead = profile_wall_ns as f64 / baseline_ns as f64;

    if json {
        println!(
            "{{\"config\":\"tools\",\"size\":{},\"engine\":\"cached\",\
             \"baseline_ns\":{},\
             \"trace_records\":{},\"trace_dropped\":{},\"trace_wall_ns\":{},\
             \"trace_records_per_s\":{:.0},\"trace_overhead\":{:.3},\
             \"trace_bytes\":{},\"trace_bytes_per_record\":{:.2},\
             \"serialize_ns\":{},\"validate_ns\":{},\
             \"profile_samples\":{},\"profile_max_depth\":{},\
             \"profile_wall_ns\":{},\"profile_overhead\":{:.3},\
             \"samples_per_s\":{:.0}}}",
            size,
            baseline_ns,
            records,
            drained.dropped,
            trace_wall_ns,
            records_per_s,
            trace_overhead,
            bytes.len(),
            bytes.len() as f64 / records.max(1) as f64,
            serialize_ns,
            parse_ns,
            run.profile.samples,
            run.profile.max_depth,
            profile_wall_ns,
            profile_overhead,
            samples_per_s,
        );
        return;
    }
    println!("baseline run:      {:.3} ms", baseline_ns as f64 / 1e6);
    println!(
        "memtrace:          {} records in {:.3} ms — {:.2}M records/s, {:.2}x baseline",
        records,
        trace_wall_ns as f64 / 1e6,
        records_per_s / 1e6,
        trace_overhead
    );
    println!(
        "trace stream:      {} bytes ({:.2}/record), serialize {:.3} ms, validate {:.3} ms",
        bytes.len(),
        bytes.len() as f64 / records.max(1) as f64,
        serialize_ns as f64 / 1e6,
        parse_ns as f64 / 1e6
    );
    println!(
        "profiler:          {} samples (depth ≤ {}) in {:.3} ms — {:.0} samples/s, {:.2}x baseline",
        run.profile.samples,
        run.profile.max_depth,
        profile_wall_ns as f64 / 1e6,
        samples_per_s,
        profile_overhead
    );
}
