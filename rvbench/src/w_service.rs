//! `service-mix`: a seeded sequence of instrument requests over a pool
//! of small, distinct binaries, sharing one bounded `AnalysisCache` that
//! is smaller than the pool.
//!
//! Popularity follows Zipf(1) over a fixed rank order; the seed drives
//! the request sequence (which binary, function and point kind) and the
//! nested-call mutatees' frame sizes. The sequence is drawn once and
//! replayed, so after the first pass job `i` and job `i + SEQUENCE_LEN`
//! are the same request against the same cache state. A request is
//! `BinaryEditor::open_cached` → points or counters on one function →
//! `instrumented` + `to_bytes` (what `rewrite` does). Nothing runs in
//! the timed loop: every response in the request space is run and
//! checked against the oracle once during set-up, and every timed
//! response must be byte-identical to it.

use crate::common::{
    err, in_span, pct, probe_front_half, Deterministic, Layer, PatchStats, Workload,
};
use crate::oracle::{self, step_oracle, Oracle, Terminal, Volatile};
use crate::rng::{Rng, Zipf};
use crate::spans::Spans;
use rvdyn::{
    AnalysisCache, BinaryEditor, BlockCounter, CounterPlacement, EmuEngine, PointKind,
    SessionOptions, Snippet, Var,
};
use rvdyn_parse::ParseOptions;
use rvdyn_symtab::{Binary, SymbolKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Resident analyses; smaller than the pool, so requests both hit and
/// miss and the cache evicts.
const CACHE_CAPACITY: usize = 8;
/// Requests in the replayed sequence: enough that its 99th percentile
/// has forty requests beyond it and that its mix of cheap and expensive
/// requests (cache hits and misses) varies little from seed to seed.
const SEQUENCE_LEN: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Entry,
    EveryBlock,
    Optimal,
    Edges,
}

struct Target {
    elf: Vec<u8>,
    bin: Binary,
    oracle: Oracle,
    /// (name, entry, end) of the functions requests may name.
    funcs: Vec<(String, u64, u64)>,
}

/// One request of the request space: (target, function, kind).
type Key = (usize, usize, Kind);

struct Response {
    bytes: Vec<u8>,
    cycles: u64,
}

pub struct Service {
    pool: Vec<Target>,
    cache: Arc<AnalysisCache>,
    /// The replayed request sequence.
    sequence: Vec<Key>,
    /// The request space, verified against the oracle during set-up.
    space: BTreeMap<Key, Response>,
    /// Valid kinds per (target, function).
    kinds: BTreeMap<(usize, usize), Vec<Kind>>,
    cache_base: rvdyn::CacheStats,
}

/// Which of a mutatee's outputs depend on its own clock.
type VolatileOf = fn(&Binary) -> Volatile;

/// The pool, in Zipf rank order. Small and large binaries alternate so
/// that popularity does not simply track size.
fn pool(seed: u64) -> Vec<(Binary, VolatileOf)> {
    // Frame sizes are seeded: they change immediates, not instruction
    // counts, so the deterministic figures do not depend on the seed.
    let mut r = Rng::new(seed, 3);
    let frames: Vec<u16> = (0..24).map(|_| r.below(400) as u16).collect();
    let frames2: Vec<u16> = (0..12).map(|_| r.below(400) as u16).collect();
    use rvdyn_asm::*;
    let plain: VolatileOf = |_| Volatile::default();
    let matmul: VolatileOf = Volatile::matmul;
    vec![
        (matmul_program(6, 1), matmul),
        (many_functions_program(64), plain),
        (fib_program(8), plain),
        (switch_program(12), plain),
        (many_functions_program(256), plain),
        (switch_rel_program(12), plain),
        (indirect_entry_program(8), plain),
        (many_functions_program(16), plain),
        (tiny_function_program(8), plain),
        (tailcall_program(), plain),
        (many_functions_program(512), plain),
        (memcpy_program(), plain),
        (deep_call_program(12), plain),
        (atomics_program(8), Volatile::atomics),
        (many_functions_program(128), plain),
        (nested_call_program(&frames, false), plain),
        (matmul_program(10, 1), matmul),
        (many_functions_program(32), plain),
        (fib_program(11), plain),
        (nested_call_program(&frames2, true), plain),
        (deep_call_program(20), plain),
        (switch_program(24), plain),
        (many_functions_program(384), plain),
        (tiny_function_program(16), plain),
    ]
}

/// The functions requests may name: the first, middle and last named
/// function by address, `_start` excluded.
fn candidate_funcs(bin: &Binary) -> Vec<(String, u64, u64)> {
    let mut f: Vec<(u64, u64, String)> = bin
        .symbols
        .iter()
        .filter(|s| s.kind == SymbolKind::Function && s.name != "_start" && s.size > 0)
        .map(|s| (s.value, s.value + s.size, s.name.clone()))
        .collect();
    f.sort();
    let mut picks = vec![0, f.len() / 2, f.len().saturating_sub(1)];
    picks.dedup();
    picks
        .into_iter()
        .filter_map(|i| f.get(i).cloned())
        .map(|(lo, hi, name)| (name, lo, hi))
        .collect()
}

fn opts(kind: Kind) -> SessionOptions {
    let placement = match kind {
        Kind::Optimal => CounterPlacement::Optimal,
        _ => CounterPlacement::EveryBlock,
    };
    SessionOptions::new()
        .engine(EmuEngine::Cached)
        .counter_placement(placement)
}

/// What a response carries for checking.
enum Handle {
    Var(Var),
    Blocks(BlockCounter),
}

/// One request: the timed unit of this workload.
fn request(
    elf: &[u8],
    func: &str,
    kind: Kind,
    cache: &AnalysisCache,
    sp: &mut Spans,
    layer: &mut Layer,
) -> Result<(BinaryEditor, Handle, Vec<u8>), String> {
    let mut ed = sp
        .time("editor.open_cached", || {
            BinaryEditor::open_cached(elf, opts(kind), cache)
        })
        .map_err(err)?;
    let handle = in_span(sp, "session.find_points", |_| -> Result<Handle, String> {
        let point = match kind {
            Kind::EveryBlock | Kind::Optimal => {
                return Ok(Handle::Blocks(ed.count_blocks(func).map_err(err)?))
            }
            Kind::Entry => PointKind::FuncEntry,
            Kind::Edges => PointKind::BranchTaken,
        };
        let v = ed.alloc_var(8);
        let pts = ed.find_points(func, point).map_err(err)?;
        if pts.is_empty() {
            return Err(format!("{func}: no {kind:?} points"));
        }
        ed.insert(&pts, Snippet::increment(v));
        Ok(Handle::Var(v))
    })?;
    let result = sp.time("patch.apply", || ed.instrumented()).map_err(err)?;
    let bytes = sp
        .time("symtab.write", || result.binary.to_bytes())
        .map_err(err)?;
    PatchStats::of_result(&result).record(layer);
    Ok((ed, handle, bytes))
}

/// Run a response and check it against the target's oracle; returns its
/// modelled cycles.
fn verify(
    t: &Target,
    func: usize,
    kind: Kind,
    ed: &mut BinaryEditor,
    handle: &Handle,
    bytes: &[u8],
) -> Result<u64, String> {
    let (name, lo, hi) = &t.funcs[func];
    if let Handle::Blocks(bc) = handle {
        let run = rvdyn::run_elf_with(bytes, oracle::FUEL, EmuEngine::Cached).map_err(err)?;
        let hash = t
            .oracle
            .hash_data(&mut |a, n| run.machine().read_mem(a, n).ok());
        t.oracle
            .check_run(Terminal::Exited(run.exit_code), &run.stdout, hash)?;
        t.oracle
            .check_blocks(&ed.block_counts(bc, &run).map_err(err)?)?;
        return Ok(run.cycles);
    }
    let Handle::Var(v) = handle else {
        unreachable!()
    };
    let patched = Binary::parse(bytes).map_err(err)?;
    let (stop, m) = oracle::run_machine(&patched, EmuEngine::Cached);
    let hash = t.oracle.hash_data(&mut |a, n| m.read_mem(a, n).ok());
    t.oracle
        .check_run(oracle::terminal_of(stop)?, &m.stdout, hash)?;
    let got = m
        .mem
        .load(v.addr, 8)
        .map_err(|_| "counter unreadable".to_string())?;
    let want = match kind {
        Kind::Edges => t.oracle.taken_in(*lo, *hi),
        _ => t.oracle.count(*lo),
    };
    if got != want {
        return Err(format!("{name}: counted {got}, oracle {want}"));
    }
    Ok(m.cycles)
}

impl Service {
    pub fn setup(seed: u64) -> Result<Service, String> {
        let mut targets = Vec::new();
        for (bin, volatile) in pool(seed) {
            let elf = bin.to_bytes().map_err(err)?;
            let oracle = step_oracle(&bin, volatile(&bin));
            let funcs = candidate_funcs(&bin);
            targets.push(Target {
                elf,
                bin,
                oracle,
                funcs,
            });
        }

        // Build and check the whole request space once.
        let check_cache = AnalysisCache::new(targets.len());
        let mut space = BTreeMap::new();
        let mut kinds: BTreeMap<(usize, usize), Vec<Kind>> = BTreeMap::new();
        let mut sp = Spans::new(false);
        let mut layer = Layer::default();
        for (ti, t) in targets.iter().enumerate() {
            for fi in 0..t.funcs.len() {
                for kind in [Kind::Entry, Kind::EveryBlock, Kind::Optimal, Kind::Edges] {
                    if !kind_applies(t, fi, kind) {
                        continue;
                    }
                    let (mut ed, handle, bytes) = request(
                        &t.elf,
                        &t.funcs[fi].0,
                        kind,
                        &check_cache,
                        &mut sp,
                        &mut layer,
                    )
                    .map_err(|e| format!("target {ti} {}: {e}", t.funcs[fi].0))?;
                    let cycles = verify(t, fi, kind, &mut ed, &handle, &bytes)
                        .map_err(|e| format!("target {ti} {kind:?}: {e}"))?;
                    space.insert((ti, fi, kind), Response { bytes, cycles });
                    kinds.entry((ti, fi)).or_default().push(kind);
                }
            }
        }

        let zipf = Zipf::new(targets.len(), 1.0);
        let mut stream = Rng::new(seed, 4);
        let sequence = (0..SEQUENCE_LEN)
            .map(|_| {
                let ti = zipf.sample(&mut stream);
                let fi = stream.below(targets[ti].funcs.len() as u64) as usize;
                let ks = &kinds[&(ti, fi)];
                (ti, fi, ks[stream.below(ks.len() as u64) as usize])
            })
            .collect();
        let w = Service {
            pool: targets,
            cache: AnalysisCache::new(CACHE_CAPACITY),
            sequence,
            space,
            kinds,
            cache_base: Default::default(),
        };
        // Warm-up: one untimed request per binary through the shared cache.
        for ti in 0..w.pool.len() {
            w.serve((ti, 0, w.kinds[&(ti, 0)][0]), &mut sp, &mut layer)?;
        }
        Ok(w)
    }

    fn serve(&self, key: Key, sp: &mut Spans, layer: &mut Layer) -> Result<(), String> {
        let (ti, fi, kind) = key;
        let t = &self.pool[ti];
        let (_, _, bytes) = request(&t.elf, &t.funcs[fi].0, kind, &self.cache, sp, layer)?;
        if bytes != self.space[&key].bytes {
            return Err(format!(
                "target {ti} {kind:?}: response differs from the checked one"
            ));
        }
        Ok(())
    }
}

/// Point kinds a (target, function) supports: edges need a conditional
/// branch, and per-block counts are read from a finished run's memory,
/// so they need a mutatee that exits rather than stopping at `ebreak`.
fn kind_applies(t: &Target, fi: usize, kind: Kind) -> bool {
    let (_, lo, hi) = t.funcs[fi];
    match kind {
        Kind::Entry => true,
        Kind::Edges => has_cond_branch(&t.bin, lo, hi),
        Kind::EveryBlock | Kind::Optimal => t.oracle.terminal != Terminal::Trapped,
    }
}

fn has_cond_branch(bin: &Binary, lo: u64, hi: u64) -> bool {
    bin.code_sections().any(|s| {
        rvdyn_isa::InstructionIter::new(&s.data, s.addr)
            .flatten()
            .any(|i| i.address >= lo && i.address < hi && i.op.is_conditional_branch())
    })
}

impl Workload for Service {
    fn cycle(&self) -> usize {
        self.sequence.len()
    }

    fn job(&mut self, i: u64, sp: &mut Spans, layer: &mut Layer) -> Result<(), String> {
        let key = self.sequence[i as usize % self.sequence.len()];
        in_span(sp, "job", |sp| self.serve(key, sp, layer))?;
        if sp.enabled() {
            let s = self.cache.stats();
            let (h, m) = (
                s.hits - self.cache_base.hits,
                s.misses - self.cache_base.misses,
            );
            layer.set("cache.hits", h as f64);
            layer.set("cache.misses", m as f64);
            layer.set(
                "cache.evictions",
                (s.evictions - self.cache_base.evictions) as f64,
            );
            layer.set("cache.hit_ratio", h as f64 / (h + m).max(1) as f64);
        }
        Ok(())
    }

    fn deterministic(&mut self) -> Result<Deterministic, String> {
        let mut growth = Vec::new();
        let mut over: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
        for (&(ti, _, kind), r) in &self.space {
            let t = &self.pool[ti];
            growth.push(pct(r.bytes.len() as f64, t.elf.len() as f64));
            over.entry(kind)
                .or_default()
                .push(pct(r.cycles as f64, t.oracle.cycles as f64));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        Ok(Deterministic {
            code_growth_pct: mean(&growth),
            overhead_fn_pct: mean(&over[&Kind::Entry]),
            overhead_bb_pct: mean(&over[&Kind::EveryBlock]),
            overhead_bb_opt_pct: mean(&over[&Kind::Optimal]),
        })
    }

    fn probes(&mut self, sp: &mut Spans, layer: &mut Layer) -> Result<(), String> {
        for t in &self.pool {
            probe_front_half(&t.elf, &ParseOptions::default(), 3, sp, layer)?;
        }
        self.cache_base = self.cache.stats();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elfs(seed: u64) -> Vec<Vec<u8>> {
        pool(seed)
            .into_iter()
            .map(|(b, _)| b.to_bytes().unwrap())
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_and_figures() {
        assert_eq!(elfs(11), elfs(11));
        assert_ne!(elfs(11), elfs(12));
        let (mut a, mut b) = (Service::setup(11).unwrap(), Service::setup(11).unwrap());
        let (da, db) = (a.deterministic().unwrap(), b.deterministic().unwrap());
        assert_eq!(da.code_growth_pct.to_bits(), db.code_growth_pct.to_bits());
        assert_eq!(da.overhead_bb_pct.to_bits(), db.overhead_bb_pct.to_bits());
        // The request sequence is seeded too.
        assert_eq!(a.sequence, b.sequence);
        assert_ne!(a.sequence, Service::setup(12).unwrap().sequence);
    }
}
