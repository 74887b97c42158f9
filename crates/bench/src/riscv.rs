//! RISC-V measurement harness: build the §4.1 application, instrument it
//! four ways, execute on the emulator, read modelled seconds.

use rvdyn::{
    Binary, BinaryEditor, CounterPlacement, PatchLayout, PointKind, RegAllocMode, SessionOptions,
    Snippet,
};
use rvdyn_asm::matmul_program;

/// Which instrumentation configuration to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Uninstrumented baseline.
    Base,
    /// Counter at the entry of the multiply function.
    FunctionCount,
    /// Counter at the start of each of its 11 basic blocks
    /// ([`CounterPlacement::EveryBlock`]).
    BasicBlockCount,
    /// Same per-block profile, but with counters only on the
    /// Knuth-optimal site set ([`CounterPlacement::Optimal`]); the
    /// remaining block counts are reconstructed after the run. See
    /// docs/OVERHEAD.md for the methodology.
    BasicBlockCountOptimal,
}

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Modelled wall-clock seconds of the *whole program* (what §4.3
    /// reports: the mutatee's own elapsed-time measurement).
    pub seconds: f64,
    /// Modelled seconds as measured by the mutatee itself via
    /// `clock_gettime` around the call loop.
    pub mutatee_seconds: f64,
    /// Retired instructions.
    pub icount: u64,
    /// Final counter value (0 for the base configuration).
    pub counter: u64,
    /// Registers spilled by instrumentation codegen.
    pub spills: usize,
    /// Full pipeline diagnostics for the run, including the per-stage
    /// wall-clock attribution of the *toolkit's own* work (parse,
    /// instrument, relocate) — the mutator-side counterpart of the
    /// mutatee-side overhead columns.
    pub diag: rvdyn::Diagnostics,
}

/// Build, (optionally) instrument, and run `matmul(n)` called `reps`
/// times; return the measurement.
pub fn measure(n: usize, reps: usize, config: Config, mode: RegAllocMode) -> Measurement {
    let bin = matmul_program(n, reps);
    let fuel = 4_000_000_000;

    if config == Config::Base {
        let r = rvdyn::editor::run_binary(&bin, fuel).expect("base run");
        assert_eq!(r.exit_code, 0);
        let mut diag = rvdyn::Diagnostics::default();
        diag.record_run(r.icount, r.cycles);
        return Measurement {
            seconds: r.seconds,
            mutatee_seconds: mutatee_elapsed(&r),
            icount: r.icount,
            counter: 0,
            spills: 0,
            diag,
        };
    }

    let placement = if config == Config::BasicBlockCountOptimal {
        CounterPlacement::Optimal
    } else {
        CounterPlacement::EveryBlock
    };
    let opts = SessionOptions::new()
        .counter_placement(placement)
        .layout(layout_above(&bin));
    let mut ed = BinaryEditor::from_binary(bin, opts);
    ed.set_mode(mode);

    if config == Config::FunctionCount {
        let counter = ed.alloc_var(8);
        let pts = ed
            .find_points("matmul", PointKind::FuncEntry)
            .expect("points");
        ed.insert(&pts, Snippet::increment(counter));
        let patched = ed.instrumented().expect("instrumentation");
        let r = rvdyn::editor::run_binary(&patched.binary, fuel).expect("instrumented run");
        assert_eq!(r.exit_code, 0);
        let mut diag = ed.diagnostics().clone();
        diag.record_run(r.icount, r.cycles);
        return Measurement {
            seconds: r.seconds,
            mutatee_seconds: mutatee_elapsed(&r),
            icount: r.icount,
            counter: r.read_u64(counter.addr).unwrap_or(0),
            spills: patched.spill_count,
            diag,
        };
    }

    // Per-block profile through the counter-placement API: every-block
    // places one counter per block, optimal places the Knuth-minimal site
    // set and reconstructs the rest from the flow equations. Either way
    // `counter` reports the total dynamic block count, so the two
    // configurations are directly comparable.
    let bc = ed.count_blocks("matmul").expect("block counters");
    let patched = ed.instrumented().expect("instrumentation");
    let r = rvdyn::editor::run_binary(&patched.binary, fuel).expect("instrumented run");
    assert_eq!(r.exit_code, 0);
    let counts = ed.block_counts(&bc, &r).expect("per-block counts");
    let mut diag = ed.diagnostics().clone();
    diag.record_run(r.icount, r.cycles);
    Measurement {
        seconds: r.seconds,
        mutatee_seconds: mutatee_elapsed(&r),
        icount: r.icount,
        counter: counts.values().sum(),
        spills: patched.spill_count,
        diag,
    }
}

/// A patch layout with both areas above every section of `bin`, on the
/// next 1 MiB boundary. matmul's `.bss` holds three n×n matrices and
/// reaches the default patch areas for every n > 116.
fn layout_above(bin: &Binary) -> PatchLayout {
    let top = bin
        .sections
        .iter()
        .map(|s| s.addr + s.data.len() as u64)
        .max()
        .unwrap_or(0);
    let patch_text = (top + 0xF_FFFF) & !0xF_FFFF;
    PatchLayout {
        patch_text,
        patch_data: patch_text + 0x100_0000,
    }
}

/// The elapsed nanoseconds the mutatee itself reported on stdout.
fn mutatee_elapsed(r: &rvdyn::editor::RunOutput) -> f64 {
    if r.stdout.len() >= 8 {
        let ns = u64::from_le_bytes(r.stdout[..8].try_into().unwrap());
        ns as f64 / 1e9
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_are_deterministic_and_ordered() {
        let base = measure(10, 1, Config::Base, RegAllocMode::DeadRegisters);
        let base2 = measure(10, 1, Config::Base, RegAllocMode::DeadRegisters);
        assert_eq!(base.icount, base2.icount);
        let f = measure(10, 1, Config::FunctionCount, RegAllocMode::DeadRegisters);
        let bb = measure(10, 1, Config::BasicBlockCount, RegAllocMode::DeadRegisters);
        assert!(base.seconds < f.seconds);
        assert!(f.seconds < bb.seconds);
        assert_eq!(f.counter, 1);
        assert!(bb.counter > 2000); // ~2.3k blocks at n=10
        assert_eq!(f.spills, 0);
        assert_eq!(bb.spills, 0);
    }

    #[test]
    fn measurement_carries_stage_attribution() {
        let m = measure(8, 1, Config::FunctionCount, RegAllocMode::DeadRegisters);
        assert!(m.diag.timings.parse_ns > 0, "parse stage timed");
        assert!(m.diag.timings.instrument_ns > 0, "instrument stage timed");
        assert_eq!(m.diag.instret, m.icount, "run counters recorded");
        assert_eq!(m.diag.points_instrumented, 1);
    }

    #[test]
    fn optimal_placement_is_cheaper_and_exact() {
        let bb = measure(10, 1, Config::BasicBlockCount, RegAllocMode::DeadRegisters);
        let opt = measure(
            10,
            1,
            Config::BasicBlockCountOptimal,
            RegAllocMode::DeadRegisters,
        );
        // Same total dynamic block count, recovered from fewer counters,
        // at a strictly lower mutatee-observed cost.
        assert_eq!(opt.counter, bb.counter);
        assert!(opt.mutatee_seconds < bb.mutatee_seconds);
        assert_eq!(opt.diag.counters_placed, 4);
        assert_eq!(opt.diag.counters_elided, 7);
        assert_eq!(opt.diag.counts_reconstructed, 11);
        assert_eq!(opt.spills, 0);
    }

    #[test]
    fn force_spill_costs_more() {
        let dead = measure(8, 1, Config::BasicBlockCount, RegAllocMode::DeadRegisters);
        let spill = measure(8, 1, Config::BasicBlockCount, RegAllocMode::ForceSpill);
        assert!(spill.seconds > dead.seconds);
        assert!(spill.spills > 0);
        assert_eq!(dead.counter, spill.counter, "same dynamic block count");
    }

    #[test]
    fn mutatee_observes_its_own_slowdown() {
        // The mutatee measures the call loop with clock_gettime; the
        // instrumented version must report a longer elapsed time — the
        // exact mechanism of the paper's table.
        let base = measure(10, 2, Config::Base, RegAllocMode::DeadRegisters);
        let bb = measure(10, 2, Config::BasicBlockCount, RegAllocMode::DeadRegisters);
        assert!(base.mutatee_seconds > 0.0);
        assert!(bb.mutatee_seconds > base.mutatee_seconds);
    }
}
