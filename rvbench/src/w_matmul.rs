//! `paper-matmul`: the §4.3 application, matmul N=100, one Table-1
//! configuration per job.
//!
//! Base, function count, every-block count and optimal count go through
//! the static path; every-block count is also delivered live through
//! `DynamicInstrumenter::commit` → `run_to_exit`, and the two delivery
//! paths must agree on counts and modelled cycles.

use crate::common::{
    check_region_total, err, in_span, pct, probe_cached_speedup, probe_front_half, probe_regions,
    record_regions, record_run, static_job, Deterministic, Layer, Plan, StaticRun, Workload,
};
use crate::oracle::{step_oracle, Oracle, Terminal, Volatile};
use crate::regions::RegionCycles;
use crate::rng::Rng;
use crate::spans::Spans;
use rvdyn::{Analysis, CounterPlacement, DynamicInstrumenter, EmuEngine, SessionOptions};
use rvdyn_parse::ParseOptions;
use rvdyn_symtab::Binary;
use std::collections::BTreeMap;
use std::time::Instant;

const N: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Config {
    Base,
    FnCount,
    BbCount,
    BbOptimal,
    BbDynamic,
}

const CONFIGS: [Config; 5] = [
    Config::Base,
    Config::FnCount,
    Config::BbCount,
    Config::BbOptimal,
    Config::BbDynamic,
];

pub struct Matmul {
    elf: Vec<u8>,
    bin: Binary,
    oracle: Oracle,
    funcs: Vec<String>,
    /// Job `i` runs `order[i % 5]`.
    order: [Config; 5],
    /// Modelled cycles and rewritten size per configuration, from the
    /// warm-up; every later job must reproduce its cycles exactly.
    cycles: BTreeMap<Config, u64>,
    sizes: BTreeMap<Config, usize>,
    regions: BTreeMap<Config, RegionCycles>,
}

fn opts(placement: CounterPlacement) -> SessionOptions {
    SessionOptions::new()
        .engine(EmuEngine::Cached)
        .counter_placement(placement)
}

impl Matmul {
    pub fn setup(seed: u64) -> Result<Matmul, String> {
        let bin = rvdyn_asm::matmul_program(N, 1);
        let elf = bin.to_bytes().map_err(err)?;
        let oracle = step_oracle(&bin, Volatile::matmul(&bin));
        let mut order = CONFIGS;
        Rng::new(seed, 1).shuffle(&mut order);
        let mut w = Matmul {
            elf,
            bin,
            oracle,
            funcs: vec!["matmul".to_string()],
            order,
            cycles: BTreeMap::new(),
            sizes: BTreeMap::new(),
            regions: BTreeMap::new(),
        };
        // Warm-up: one job of each configuration; it also fixes the
        // cycles every later job is held to.
        let mut sp = Spans::new(false);
        let mut layer = Layer::default();
        for c in CONFIGS {
            let (cycles, size) = w.run_config(c, &mut sp, &mut layer)?;
            w.cycles.insert(c, cycles);
            w.sizes.insert(c, size);
        }
        if w.cycles[&Config::Base] != w.oracle.cycles {
            return Err("cached engine and interpreter disagree on base cycles".into());
        }
        if w.cycles[&Config::BbDynamic] != w.cycles[&Config::BbCount] {
            return Err("static and dynamic delivery disagree on cycles".into());
        }
        Ok(w)
    }

    fn static_run(
        &self,
        c: Config,
        sp: &mut Spans,
        layer: &mut Layer,
    ) -> Result<StaticRun, String> {
        let (plan, placement) = match c {
            Config::Base => (Plan::Base, CounterPlacement::EveryBlock),
            Config::FnCount => (Plan::Entries(&self.funcs), CounterPlacement::EveryBlock),
            Config::BbCount => (Plan::Blocks(&self.funcs), CounterPlacement::EveryBlock),
            Config::BbOptimal => (Plan::Blocks(&self.funcs), CounterPlacement::Optimal),
            Config::BbDynamic => unreachable!("the dynamic configuration has its own path"),
        };
        static_job(&self.elf, opts(placement), &plan, &self.oracle, sp, layer)
    }

    /// Every-block counts delivered into a live process.
    fn dynamic_run(&self, sp: &mut Spans, layer: &mut Layer) -> Result<u64, String> {
        let bin = sp
            .time("symtab.open", || Binary::parse(&self.elf))
            .map_err(err)?;
        let analysis = sp.time("analysis.compute", || {
            Analysis::of_binary(bin, &ParseOptions::default())
        });
        let mut dy = sp.time("proccontrol.spawn", || {
            DynamicInstrumenter::from_analysis(analysis, opts(CounterPlacement::EveryBlock))
        });
        let bc = sp
            .time("session.find_points", || dy.count_blocks("matmul"))
            .map_err(err)?;
        sp.time("proccontrol.commit", || dy.commit()).map_err(err)?;
        let t0 = Instant::now();
        let code = sp.time("emu.run", || dy.run_to_exit()).map_err(err)?;
        let run_ns = t0.elapsed().as_nanos() as u64;
        in_span(sp, "check", |_| -> Result<(), String> {
            let p = dy.process();
            let hash = self.oracle.hash_data(&mut |a, n| p.read_mem(a, n).ok());
            self.oracle
                .check_run(Terminal::Exited(code), &p.machine().stdout, hash)?;
            self.oracle
                .check_blocks(&dy.block_counts(&bc).map_err(err)?)
        })?;
        let m = dy.process().machine();
        record_run(layer, m.icount, run_ns, m);
        layer.add(
            "proccontrol.regions_written",
            dy.diagnostics().patch_regions_written as f64,
        );
        Ok(m.cycles)
    }

    /// Run one configuration; returns its modelled cycles and the size
    /// of the image it produced (the input size for the dynamic path).
    fn run_config(
        &self,
        c: Config,
        sp: &mut Spans,
        layer: &mut Layer,
    ) -> Result<(u64, usize), String> {
        if c == Config::BbDynamic {
            let cycles = in_span(sp, "job", |sp| self.dynamic_run(sp, layer))?;
            return Ok((cycles, self.elf.len()));
        }
        let run = self.static_run(c, sp, layer)?;
        Ok((run.cycles, run.bytes.len()))
    }
}

impl Workload for Matmul {
    fn cycle(&self) -> usize {
        CONFIGS.len()
    }

    fn job(&mut self, i: u64, sp: &mut Spans, layer: &mut Layer) -> Result<(), String> {
        let c = self.order[(i % 5) as usize];
        let (cycles, _) = self.run_config(c, sp, layer)?;
        if cycles != self.cycles[&c] {
            return Err(format!(
                "{c:?}: {cycles} cycles, warm-up had {}",
                self.cycles[&c]
            ));
        }
        if let Some(rc) = self.regions.get(&c) {
            check_region_total(rc, cycles)?;
            record_regions(layer, rc);
        }
        Ok(())
    }

    fn deterministic(&mut self) -> Result<Deterministic, String> {
        let base = self.cycles[&Config::Base] as f64;
        let over = |c: Config| pct(self.cycles[&c] as f64, base);
        let growth: Vec<f64> = [Config::FnCount, Config::BbCount, Config::BbOptimal]
            .iter()
            .map(|c| pct(self.sizes[c] as f64, self.elf.len() as f64))
            .collect();
        Ok(Deterministic {
            code_growth_pct: growth.iter().sum::<f64>() / growth.len() as f64,
            overhead_fn_pct: over(Config::FnCount),
            overhead_bb_pct: over(Config::BbCount),
            overhead_bb_opt_pct: over(Config::BbOptimal),
        })
    }

    fn probes(&mut self, sp: &mut Spans, layer: &mut Layer) -> Result<(), String> {
        probe_front_half(&self.elf, &ParseOptions::default(), 5, sp, layer)?;
        let mut quiet = Spans::new(false);
        let mut scratch = Layer::default();
        let base = self.oracle.cycles;
        self.regions.insert(
            Config::Base,
            RegionCycles {
                by_region: [base, 0, 0, 0, 0],
                total: base,
            },
        );
        for c in [Config::FnCount, Config::BbCount, Config::BbOptimal] {
            let run = self.static_run(c, &mut quiet, &mut scratch)?;
            let rc = probe_regions(&self.bin, &run)?;
            self.regions.insert(c, rc);
            if c == Config::BbCount {
                self.regions.insert(Config::BbDynamic, rc);
                layer.add("emu.cached_speedup", probe_cached_speedup(&run.bytes)?);
            }
        }
        Ok(())
    }
}
