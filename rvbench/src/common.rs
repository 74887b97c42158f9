//! What the workloads share: the workload interface, per-layer counters,
//! the static-path job, and the front-half probes of the traced run.

use crate::oracle::{self, Oracle, Terminal, FUEL};
use crate::regions::{self, RegionCycles};
use crate::spans::Spans;
use rvdyn::{Analysis, BinaryEditor, EmuEngine, PointKind, SessionOptions, Snippet};
use rvdyn_parse::{CodeObject, ParseOptions};
use rvdyn_patch::instrument::PatchResult;
use rvdyn_symtab::Binary;
use std::collections::BTreeMap;
use std::time::Instant;

pub trait Workload {
    /// Jobs `i` and `i + cycle()` do the same work on the same inputs.
    fn cycle(&self) -> usize {
        1
    }
    /// One user request, from ELF bytes to a checked result.
    fn job(&mut self, i: u64, sp: &mut Spans, layer: &mut Layer) -> Result<(), String>;
    /// The deterministic end-to-end figures of this workload.
    fn deterministic(&mut self) -> Result<Deterministic, String>;
    /// Traced run only: per-layer measurements that are not spans
    /// around a job (front-half probes, the region split).
    fn probes(&mut self, sp: &mut Spans, layer: &mut Layer) -> Result<(), String>;
}

/// End-to-end figures that are exact functions of the inputs.
pub struct Deterministic {
    pub code_growth_pct: f64,
    pub overhead_fn_pct: f64,
    pub overhead_bb_pct: f64,
    pub overhead_bb_opt_pct: f64,
}

/// Per-layer counters: each metric is the mean of the values recorded.
#[derive(Default)]
pub struct Layer {
    sums: BTreeMap<&'static str, (f64, u64)>,
}

impl Layer {
    pub fn add(&mut self, name: &'static str, v: f64) {
        let e = self.sums.entry(name).or_default();
        e.0 += v;
        e.1 += 1;
    }

    /// Replace `name` with a single value (for running totals).
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.sums.insert(name, (v, 1));
    }

    pub fn mean(&self, name: &str) -> f64 {
        match self.sums.get(name) {
            Some(&(s, n)) if n > 0 => s / n as f64,
            _ => 0.0,
        }
    }
}

/// `100 * (a / b - 1)`.
pub fn pct(a: f64, b: f64) -> f64 {
    (a / b - 1.0) * 100.0
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Bytes of the patch code area in a patched binary.
pub fn patch_code_bytes(bin: &Binary) -> u64 {
    bin.section_by_name(".rvdyn.text")
        .map_or(0, |s| s.data.len() as u64)
}

/// What one instrumentation pass did, as either delivery path reports it.
pub struct PatchStats<'a> {
    pub points: usize,
    pub dead_register_points: usize,
    pub spills: usize,
    pub workers: usize,
    pub plans_built: usize,
    pub relocate_ns: u64,
    pub springboards: &'a rvdyn_patch::SpringboardStats,
    pub code_bytes: u64,
}

impl<'a> PatchStats<'a> {
    /// From a static pass's result.
    pub fn of_result(r: &'a PatchResult) -> PatchStats<'a> {
        PatchStats {
            points: r.points_instrumented,
            dead_register_points: r.dead_register_points,
            spills: r.spill_count,
            workers: r.instrument_workers,
            plans_built: r.plans_built,
            relocate_ns: r.relocate_ns,
            springboards: &r.springboards,
            code_bytes: patch_code_bytes(&r.binary),
        }
    }

    /// From a live session's diagnostics, which do not carry the patch
    /// image: `code_bytes` is what the commit delivered.
    pub fn of_diag(d: &'a rvdyn::Diagnostics, code_bytes: u64) -> PatchStats<'a> {
        PatchStats {
            points: d.points_instrumented,
            dead_register_points: d.dead_register_points,
            spills: d.spills,
            workers: d.instrument_workers,
            plans_built: d.plans_built,
            relocate_ns: d.timings.relocate_ns,
            springboards: &d.springboards,
            code_bytes,
        }
    }

    pub fn record(&self, layer: &mut Layer) {
        let points = self.points as f64;
        if points == 0.0 {
            return;
        }
        let code = self.code_bytes as f64;
        layer.add("patch.relocate_cpu_us", self.relocate_ns as f64 / 1e3);
        layer.add("patch.workers", self.workers as f64);
        layer.add("patch.plans_built", self.plans_built as f64);
        layer.add("patch.code_bytes", code);
        layer.add("patch.bytes_per_point", code / points);
        let sb = self.springboards;
        layer.add("patch.springboard.compressed", sb.compressed_jump as f64);
        layer.add("patch.springboard.jal", sb.jal as f64);
        layer.add("patch.springboard.auipc_jalr", sb.auipc_jalr as f64);
        layer.add("patch.springboard.trap", sb.trap as f64);
        layer.add("codegen.spills", self.spills as f64);
        layer.add(
            "codegen.dead_register_ratio",
            self.dead_register_points as f64 / points,
        );
    }
}

/// Record what one emulator run did.
pub fn record_run(layer: &mut Layer, icount: u64, run_ns: u64, m: &rvdyn_emu::Machine) {
    let blocks = m.emu_blocks_translated();
    layer.add(
        "emu.guest_mips",
        icount as f64 / (run_ns.max(1) as f64 / 1e3),
    );
    layer.add("emu.blocks_translated", blocks as f64);
    if blocks > 0 {
        layer.add(
            "emu.insts_per_translated_block",
            icount as f64 / blocks as f64,
        );
    }
    layer.add("emu.invalidations", m.emu_invalidations() as f64);
}

pub fn record_regions(layer: &mut Layer, rc: &RegionCycles) {
    const NAMES: [&str; 5] = [
        "emu.cycles.original",
        "emu.cycles.springboard",
        "emu.cycles.snippet",
        "emu.cycles.relocated",
        "emu.cycles.trap",
    ];
    for (name, v) in NAMES.iter().zip(rc.by_region) {
        layer.add(name, v as f64);
    }
}

/// What a static-path job instruments.
pub enum Plan<'a> {
    /// Nothing: open, rewrite and run the binary as is.
    Base,
    /// One counter at the entry of each named function.
    Entries(&'a [String]),
    /// Per-block counts of each named function, under the session's
    /// counter placement.
    Blocks(&'a [String]),
}

pub struct StaticRun {
    pub bytes: Vec<u8>,
    pub cycles: u64,
    pub result: PatchResult,
}

/// Run `f` inside a span named `name`, closing it on every return path.
pub fn in_span<R>(sp: &mut Spans, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
    let h = sp.enter(name);
    let r = f(sp);
    sp.exit(h);
    r
}

/// The static path: `BinaryEditor::open_with` → points / counters →
/// `instrumented` → `Binary::to_bytes` (together, what `rewrite` does) →
/// `run_elf_with(Cached)` → counts, each checked against the oracle.
pub fn static_job(
    elf: &[u8],
    opts: SessionOptions,
    plan: &Plan,
    want: &Oracle,
    sp: &mut Spans,
    layer: &mut Layer,
) -> Result<StaticRun, String> {
    in_span(sp, "job", |sp| {
        static_job_inner(elf, opts, plan, want, sp, layer)
    })
}

fn static_job_inner(
    elf: &[u8],
    opts: SessionOptions,
    plan: &Plan,
    want: &Oracle,
    sp: &mut Spans,
    layer: &mut Layer,
) -> Result<StaticRun, String> {
    let mut ed = sp
        .time("editor.open", || BinaryEditor::open_with(elf, opts))
        .map_err(err)?;

    let h = sp.enter("session.find_points");
    let mut entries = Vec::new();
    let mut counters = Vec::new();
    match plan {
        Plan::Base => {}
        Plan::Entries(names) => {
            for name in names.iter() {
                let v = ed.alloc_var(8);
                let pts = ed.find_points(name, PointKind::FuncEntry).map_err(err)?;
                ed.insert(&pts, Snippet::increment(v));
                let entry = pts.first().ok_or(format!("{name}: no entry point"))?.addr;
                entries.push((entry, v));
            }
        }
        Plan::Blocks(names) => {
            for name in names.iter() {
                counters.push(ed.count_blocks(name).map_err(err)?);
            }
        }
    }
    sp.exit(h);

    let result = sp.time("patch.apply", || ed.instrumented()).map_err(err)?;
    let bytes = sp
        .time("symtab.write", || result.binary.to_bytes())
        .map_err(err)?;
    let t0 = Instant::now();
    let run = sp
        .time("emu.run", || {
            rvdyn::run_elf_with(&bytes, FUEL, EmuEngine::Cached)
        })
        .map_err(err)?;
    let run_ns = t0.elapsed().as_nanos() as u64;

    let h = sp.enter("check");
    let hash = want.hash_data(&mut |a, n| run.machine().read_mem(a, n).ok());
    want.check_run(Terminal::Exited(run.exit_code), &run.stdout, hash)?;
    for (entry, v) in &entries {
        let (got, exp) = (run.read_u64(v.addr).unwrap_or(u64::MAX), want.count(*entry));
        if got != exp {
            return Err(format!("entry {entry:#x}: counted {got}, oracle {exp}"));
        }
    }
    for bc in &counters {
        want.check_blocks(&ed.block_counts(bc, &run).map_err(err)?)?;
    }
    sp.exit(h);

    PatchStats::of_result(&result).record(layer);
    record_run(layer, run.icount, run_ns, run.machine());
    Ok(StaticRun {
        bytes,
        cycles: run.cycles,
        result,
    })
}

/// Traced run only: time the front half's layers one by one on `elf`
/// (the facade runs them inside one `open` call), `reps` times.
pub fn probe_front_half(
    elf: &[u8],
    parse: &ParseOptions,
    reps: usize,
    sp: &mut Spans,
    layer: &mut Layer,
) -> Result<(), String> {
    for _ in 0..reps {
        let bin = sp.time("symtab.open", || Binary::parse(elf)).map_err(err)?;
        let a = sp.time("analysis.compute", || Analysis::of_binary(bin, parse));
        let bin = a.binary();
        let t0 = Instant::now();
        let co = sp.time("parse.cfg", || CodeObject::parse(bin, parse));
        let cfg_ns = t0.elapsed().as_nanos() as f64;
        let insts = co.num_insts() as f64;
        layer.add("parse.ns_per_inst", cfg_ns / insts.max(1.0));
        layer.add("parse.insts", insts);
        layer.add("parse.blocks", co.num_blocks() as f64);
        layer.add("parse.functions", co.functions.len() as f64);
        sp.time("dataflow.liveness", || {
            for f in co.functions.values() {
                std::hint::black_box(rvdyn_dataflow::Liveness::analyze(f));
            }
        });
        sp.time("dataflow.loops", || {
            for f in co.functions.values() {
                std::hint::black_box(rvdyn_parse::loop_depths(f));
            }
        });
        let t0 = Instant::now();
        let mut decoded = 0u64;
        for s in bin.code_sections() {
            for inst in rvdyn_isa::InstructionIter::new(&s.data, s.addr).flatten() {
                std::hint::black_box(inst);
                decoded += 1;
            }
        }
        let ns = t0.elapsed().as_nanos() as f64;
        layer.add("isa.decode_ns_per_inst", ns / decoded.max(1) as f64);
    }
    Ok(())
}

/// Traced run only: the region split of one static run, checked to sum
/// to the run's own modelled cycles.
pub fn probe_regions(original: &Binary, run: &StaticRun) -> Result<RegionCycles, String> {
    let patched = Binary::parse(&run.bytes).map_err(err)?;
    let rc = regions::split_cycles(original, &run.result, &patched);
    if rc.sum() != rc.total || rc.total != run.cycles {
        return Err(format!(
            "regions sum to {} of {} cycles (run: {})",
            rc.sum(),
            rc.total,
            run.cycles
        ));
    }
    Ok(rc)
}

/// A traced job's modelled cycles must equal the total its region split
/// was taken from.
pub fn check_region_total(rc: &RegionCycles, cycles: u64) -> Result<(), String> {
    if rc.total != cycles {
        return Err(format!("{cycles} cycles, region split covers {}", rc.total));
    }
    Ok(())
}

/// Traced run only: interpreter time over cached-engine time for one
/// image, after checking both engines end in the same state.
pub fn probe_cached_speedup(elf: &[u8]) -> Result<f64, String> {
    let bin = Binary::parse(elf).map_err(err)?;
    let t0 = Instant::now();
    let (stop_i, mi) = oracle::run_machine(&bin, EmuEngine::Interpreter);
    let interp = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let (stop_c, mc) = oracle::run_machine(&bin, EmuEngine::Cached);
    let cached = t0.elapsed().as_secs_f64();
    if stop_i != stop_c || mi.cycles != mc.cycles {
        return Err("engines disagree".into());
    }
    Ok(interp / cached)
}
