//! `cold-code`: `many_functions_program(n)`, n drawn from the seed near
//! 10k. Every block of every function is counted with two worker
//! threads, the binary is rewritten statically and run once on the
//! cached engine.
//!
//! With the default `PatchLayout` (text 0x80000, data 0xC0000) the patch
//! area overlaps an image this large: every-block counters on
//! `many_functions(4096)` end executing the data area (illegal
//! instruction at 0xc0002), and entry counters on
//! `many_functions(10000)` reach an illegal instruction at 0x87004, in
//! neither case with a typed error from planning. This workload
//! therefore places the patch area above the image's highest section.

use crate::common::{
    check_region_total, err, pct, probe_cached_speedup, probe_front_half, probe_regions,
    record_regions, static_job, Deterministic, Layer, Plan, StaticRun, Workload,
};
use crate::oracle::{step_oracle, Oracle};
use crate::regions::RegionCycles;
use crate::rng::Rng;
use crate::spans::Spans;
use rvdyn::{CounterPlacement, EmuEngine, PatchLayout, SessionOptions};
use rvdyn_parse::ParseOptions;
use rvdyn_symtab::{Binary, SymbolKind};

const THREADS: usize = 2;

pub struct Cold {
    elf: Vec<u8>,
    bin: Binary,
    oracle: Oracle,
    funcs: Vec<String>,
    layout: PatchLayout,
    bb_cycles: u64,
    bb_size: usize,
    regions: Option<RegionCycles>,
}

/// A patch layout whose code and data areas both sit above every
/// section of `bin`.
pub fn layout_above(bin: &Binary) -> PatchLayout {
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

impl Cold {
    pub fn setup(seed: u64) -> Result<Cold, String> {
        let n = 9_968 + Rng::new(seed, 2).below(64) as usize;
        let bin = rvdyn_asm::many_functions_program(n);
        let elf = bin.to_bytes().map_err(err)?;
        let oracle = step_oracle(&bin, Default::default());
        let mut funcs: Vec<(u64, String)> = bin
            .symbols
            .iter()
            .filter(|s| s.kind == SymbolKind::Function)
            .map(|s| (s.value, s.name.clone()))
            .collect();
        funcs.sort();
        let mut w = Cold {
            layout: layout_above(&bin),
            elf,
            bin,
            oracle,
            funcs: funcs.into_iter().map(|(_, n)| n).collect(),
            bb_cycles: 0,
            bb_size: 0,
            regions: None,
        };
        // Warm-up: one job; it also fixes the cycles later jobs must
        // reproduce.
        let run = w.run(
            Plan::Blocks(&w.funcs),
            CounterPlacement::EveryBlock,
            &mut Spans::new(false),
            &mut Layer::default(),
        )?;
        w.bb_cycles = run.cycles;
        w.bb_size = run.bytes.len();
        Ok(w)
    }

    fn run(
        &self,
        plan: Plan,
        placement: CounterPlacement,
        sp: &mut Spans,
        layer: &mut Layer,
    ) -> Result<StaticRun, String> {
        let opts = SessionOptions::new()
            .threads(THREADS)
            .layout(self.layout)
            .engine(EmuEngine::Cached)
            .counter_placement(placement);
        static_job(&self.elf, opts, &plan, &self.oracle, sp, layer)
    }
}

impl Workload for Cold {
    fn job(&mut self, _i: u64, sp: &mut Spans, layer: &mut Layer) -> Result<(), String> {
        let run = self.run(
            Plan::Blocks(&self.funcs),
            CounterPlacement::EveryBlock,
            sp,
            layer,
        )?;
        if run.cycles != self.bb_cycles {
            return Err(format!(
                "{} cycles, warm-up had {}",
                run.cycles, self.bb_cycles
            ));
        }
        if let Some(rc) = &self.regions {
            check_region_total(rc, run.cycles)?;
            record_regions(layer, rc);
        }
        Ok(())
    }

    fn deterministic(&mut self) -> Result<Deterministic, String> {
        // Function-entry and optimal counters are not part of this
        // workload's jobs; they are measured once here, on the same
        // binary and layout, so the Table-1 row exists for cold code too.
        let mut sp = Spans::new(false);
        let mut layer = Layer::default();
        let f = self.run(
            Plan::Entries(&self.funcs),
            CounterPlacement::EveryBlock,
            &mut sp,
            &mut layer,
        )?;
        let o = self.run(
            Plan::Blocks(&self.funcs),
            CounterPlacement::Optimal,
            &mut sp,
            &mut layer,
        )?;
        let base = self.oracle.cycles as f64;
        Ok(Deterministic {
            code_growth_pct: pct(self.bb_size as f64, self.elf.len() as f64),
            overhead_fn_pct: pct(f.cycles as f64, base),
            overhead_bb_pct: pct(self.bb_cycles as f64, base),
            overhead_bb_opt_pct: pct(o.cycles as f64, base),
        })
    }

    fn probes(&mut self, sp: &mut Spans, layer: &mut Layer) -> Result<(), String> {
        let parse = ParseOptions {
            threads: THREADS,
            ..ParseOptions::default()
        };
        probe_front_half(&self.elf, &parse, 2, sp, layer)?;
        let run = self.run(
            Plan::Blocks(&self.funcs),
            CounterPlacement::EveryBlock,
            &mut Spans::new(false),
            &mut Layer::default(),
        )?;
        self.regions = Some(probe_regions(&self.bin, &run)?);
        layer.add("emu.cached_speedup", probe_cached_speedup(&run.bytes)?);
        Ok(())
    }
}
