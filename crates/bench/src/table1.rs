//! T1: the §4.3 results table. matmul N×N, called REPS times, runs
//! uninstrumented, with a function-entry counter and with a counter in
//! every basic block: on the RISC-V emulator, where the optimal counter
//! placement (an rvdyn extension, docs/OVERHEAD.md) is a fourth
//! configuration, and in the host's native x86 model. The A1 sidebar
//! adds the per-block counter with forced spills in place of dead
//! registers.
//!
//! Absolute seconds differ from the paper's testbed by construction; the
//! comparison targets are the overhead percentages and their order
//! (EXPERIMENTS.md). N defaults to the paper's 100 scaled up 10×.

use crate::riscv::{self, Config, Measurement};
use crate::x86::{self, Probe};
use crate::{Bound, Fields, Op, Report};
use rvdyn::RegAllocMode;

/// `table1 [N] [REPS]`: matmul N×N called REPS times.
pub fn run(args: &[usize]) -> Report {
    let (n, reps) = (args[0], args[1]);
    eprintln!("table1: matmul {n}x{n}, {reps} call(s) — measuring…");
    let rv = |config| riscv::measure(n, reps, config, RegAllocMode::DeadRegisters);
    let configs = [
        ("base", rv(Config::Base)),
        ("function_count", rv(Config::FunctionCount)),
        ("bb_count", rv(Config::BasicBlockCount)),
        ("bb_count_optimal", rv(Config::BasicBlockCountOptimal)),
        (
            "bb_count_force_spill",
            riscv::measure(n, reps, Config::BasicBlockCount, RegAllocMode::ForceSpill),
        ),
    ];
    // The native reps are scaled up so the host timings are measurable.
    let x86 =
        [Probe::None, Probe::FunctionEntry, Probe::PerBlock].map(|p| x86::measure(n, reps * 40, p));

    let seconds = |i: usize| configs[i].1.mutatee_seconds;
    let pct = |v: f64, base: f64| (v - base) / base * 100.0;
    let row = |(config, m): &(&str, Measurement)| {
        Fields::default()
            .text("config", config)
            .real("mutatee_seconds", m.mutatee_seconds, 9)
            .real("overhead_pct", pct(m.mutatee_seconds, seconds(0)), 1)
            .int("instret", m.icount)
            .int("counter", m.counter)
            .int("spills", m.spills)
            .int("counters_placed", m.diag.counters_placed)
            .int("counters_elided", m.diag.counters_elided)
            .int("counts_reconstructed", m.diag.counts_reconstructed)
    };
    let fields = Fields::default()
        .int("n", n)
        .int("reps", reps)
        .rows("riscv", configs.iter().map(row).collect())
        .real("x86_base_seconds", x86[0], 6)
        .real("x86_function_count_seconds", x86[1], 6)
        .real("x86_bb_count_seconds", x86[2], 6)
        .real("a1_spill_cost_pct", pct(seconds(4), seconds(2)), 1);

    // The paper's layout; the x86 model has no optimal-placement row.
    let cell = |v: f64, base: f64, i: usize| match i {
        0 => String::new(),
        _ => format!("{:.1}%", pct(v, base)),
    };
    let mut table = format!(
        "Table 1 (§4.3) reproduction — matmul {n}x{n}, {reps} call(s):\n\n\
         |                 | x86      |        | RISC-V   |        |\n\
         |-----------------|----------|--------|----------|--------|\n"
    );
    for (i, label) in ["Base", "Function count", "BB count", "BB count (opt)"]
        .iter()
        .enumerate()
    {
        let (xs, xo) = x86.get(i).map_or_else(Default::default, |&x| {
            (format!("{x:.4}"), cell(x, x86[0], i))
        });
        let (rs, ro) = (seconds(i), cell(seconds(i), seconds(0), i));
        table += &format!("| {label:<15} | {xs:>8} | {xo:>6} | {rs:>8.4} | {ro:>6} |\n");
    }
    table += "\npaper: x86 1.4% / 66.9%, RISC-V 0.8% / 15.3% (function / BB count overhead)\n\n";

    let overhead = |i: usize| seconds(i) - seconds(0);
    let opt = &configs[3].1.diag;
    let reconstructed = opt.counts_reconstructed as f64;
    Report {
        fields,
        table,
        bounds: vec![
            Bound("every-block overhead (s)", overhead(2), Op::Above, 0.0),
            Bound("optimal overhead (s)", overhead(3), Op::Below, overhead(2)),
            Bound(
                "counters elided",
                opt.counters_elided as f64,
                Op::Above,
                0.0,
            ),
            Bound("counts reconstructed", reconstructed, Op::Above, 0.0),
        ],
    }
}
