//! `fleet-tools`: the memory tracer and the sampling profiler delivered
//! live into a fleet of mutatees.
//!
//! A job is `FleetController::open` → `spawn` → `MemTracer::plan_fleet`
//! over every load/store → `commit_all` → `Profiler::sample_fleet` to the
//! end → per pid `drain_fleet` → `serialize_trace` → `TraceReader::parse`.
//! Each job does this for a fleet of a seeded `nested_call_program`
//! (which ends at its leaf `ebreak`, the debugger stop) and then for a
//! fleet of matmul. Each drained trace
//! must equal `Machine::arm_mem_oracle`'s record of the uninstrumented
//! run, and each process must end as the uninstrumented run did.

use crate::common::{
    err, in_span, pct, probe_front_half, Deterministic, Layer, PatchStats, Workload,
};
use crate::oracle::{self, step_oracle, Oracle, Terminal, Volatile};
use crate::rng::Rng;
use crate::spans::Spans;
use rvdyn::tools::{serialize_trace, MemTracer, TraceOptions, TraceReader, TraceRecord};
use rvdyn::{
    BinaryEditor, CounterPlacement, EmuEngine, Error, FleetController, PointKind, ProfileOptions,
    Profiler, SessionOptions, Snippet,
};
use rvdyn_parse::ParseOptions;
use rvdyn_symtab::{Binary, SymbolKind};
use std::time::Instant;

/// Processes per fleet.
const PROCESSES: usize = 4;
/// Worker threads of the fleet's process set.
const WORKERS: usize = 2;
/// Modelled cycles between profiler samples.
const INTERVAL: u64 = 4_000;

struct Mutatee {
    elf: Vec<u8>,
    oracle: Oracle,
    /// Every load/store of the uninstrumented run, in order.
    mem_ops: Vec<TraceRecord>,
    funcs: Vec<String>,
}

pub struct Fleet {
    m: Vec<Mutatee>,
}

fn opts() -> SessionOptions {
    SessionOptions::new()
        .threads(WORKERS)
        .engine(EmuEngine::Cached)
}

fn trace_opts() -> TraceOptions {
    TraceOptions {
        capacity: 1 << 17,
        funcs: None,
    }
}

fn mutatee(bin: Binary, volatile: Volatile) -> Result<Mutatee, String> {
    let elf = bin.to_bytes().map_err(err)?;
    let oracle = step_oracle(&bin, volatile);
    let mut m = rvdyn_emu::load_binary(&bin);
    m.arm_mem_oracle();
    m.fuel = Some(oracle::FUEL);
    oracle::terminal_of(m.run())?;
    let mem_ops = m
        .take_mem_oracle()
        .into_iter()
        .map(|op| TraceRecord {
            pc: op.pc,
            addr: op.addr,
            len: op.len,
            is_store: op.is_store,
        })
        .collect();
    let funcs = bin
        .symbols
        .iter()
        .filter(|s| s.kind == SymbolKind::Function)
        .map(|s| s.name.clone())
        .collect();
    Ok(Mutatee {
        elf,
        oracle,
        mem_ops,
        funcs,
    })
}

struct JobOut {
    records: u64,
    cycles: Vec<u64>,
    region_bytes: usize,
}

impl Fleet {
    pub fn setup(seed: u64) -> Result<Fleet, String> {
        let mut r = Rng::new(seed, 5);
        let frames: Vec<u16> = (0..48).map(|_| r.below(400) as u16).collect();
        let w = Fleet {
            m: vec![
                mutatee(
                    rvdyn_asm::nested_call_program(&frames, false),
                    Volatile::default(),
                )?,
                {
                    let bin = rvdyn_asm::matmul_program(16, 2);
                    let v = Volatile::matmul(&bin);
                    mutatee(bin, v)?
                },
            ],
        };
        // Warm-up: one job per mutatee.
        for i in 0..w.m.len() {
            w.fleet_job(i, &mut Spans::new(false), &mut Layer::default())?;
        }
        Ok(w)
    }

    fn fleet_job(&self, which: usize, sp: &mut Spans, layer: &mut Layer) -> Result<JobOut, String> {
        let t0 = Instant::now();
        let mt = &self.m[which];
        let mut fc = sp
            .time("editor.open", || FleetController::open(&mt.elf, opts()))
            .map_err(err)?;
        let pids = sp.time("proccontrol.spawn", || fc.spawn(PROCESSES));
        let tracer = sp
            .time("session.find_points", || {
                MemTracer::plan_fleet(&mut fc, &trace_opts())
            })
            .map_err(err)?;
        sp.time("proccontrol.commit", || fc.commit_all())
            .map_err(err)?;
        let profiler = Profiler::new(ProfileOptions {
            interval_cycles: INTERVAL,
            max_samples: 1 << 20,
        });
        let prof = sp
            .time("stackwalker.sample", || profiler.sample_fleet(&mut fc))
            .map_err(err)?;
        let mut out = JobOut {
            records: 0,
            cycles: Vec::new(),
            region_bytes: fc.commit_regions().iter().map(|(_, b)| b.len()).sum(),
        };
        for pid in pids {
            let drained = sp
                .time("tools.drain", || tracer.drain_fleet(&mut fc, pid))
                .map_err(err)?;
            let t = Instant::now();
            let bytes = sp.time("tools.serialize", || serialize_trace(&drained.records));
            let ser_ns = t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            let reader = sp
                .time("tools.validate", || TraceReader::parse(&bytes))
                .map_err(err)?;
            let val_ns = t.elapsed().as_nanos() as f64;

            in_span(sp, "check", |_| -> Result<(), String> {
                // Every plain load/store is traced, so the trace is the
                // whole oracle record, not a filtered part of it.
                if drained.dropped != 0 || reader.records() != mt.mem_ops.as_slice() {
                    return Err(format!("pid {pid}: trace differs from the memory oracle"));
                }
                let terminal = match prof.outcomes.get(&pid) {
                    Some(Ok(code)) => Terminal::Exited(*code),
                    Some(Err(Error::UncleanExit { reason, .. }))
                        if reason.contains("breakpoint") =>
                    {
                        Terminal::Trapped
                    }
                    other => return Err(format!("pid {pid}: ended {other:?}")),
                };
                let (stdout, hash) = fc
                    .with_process(pid, |p| {
                        let hash = mt.oracle.hash_data(&mut |a, n| p.read_mem(a, n).ok());
                        (p.machine().stdout.clone(), hash)
                    })
                    .map_err(err)?;
                mt.oracle.check_run(terminal, &stdout, hash)
            })?;

            let n = drained.records.len() as f64;
            out.records += drained.records.len() as u64;
            let (cycles, icount, blocks, inval) = fc
                .with_process(pid, |p| {
                    let m = p.machine();
                    (
                        m.cycles,
                        m.icount,
                        m.emu_blocks_translated(),
                        m.emu_invalidations(),
                    )
                })
                .map_err(err)?;
            if blocks > 0 {
                layer.add(
                    "emu.insts_per_translated_block",
                    icount as f64 / blocks as f64,
                );
            }
            out.cycles.push(cycles);
            layer.add("tools.serialize_ns_per_record", ser_ns / n.max(1.0));
            layer.add("tools.validate_ns_per_record", val_ns / n.max(1.0));
            layer.add("tools.bytes_per_record", bytes.len() as f64 / n.max(1.0));
            layer.add("tools.dropped", drained.dropped as f64);
            layer.add(
                "tools.overhead_trace_pct",
                pct(cycles as f64, mt.oracle.cycles as f64),
            );
            layer.add("emu.blocks_translated", blocks as f64);
            layer.add("emu.invalidations", inval as f64);
            if let Some(d) = fc.process_diagnostics(pid) {
                layer.add(
                    "proccontrol.regions_written",
                    d.patch_regions_written as f64,
                );
            }
        }
        PatchStats::of_diag(fc.diagnostics(), out.region_bytes as u64).record(layer);
        layer.add("stackwalker.samples", prof.profile.samples as f64);
        layer.add("stackwalker.max_depth", prof.profile.max_depth as f64);
        layer.add(
            "proccontrol.events_dispatched",
            fc.events_dispatched() as f64,
        );
        layer.add(
            "tools.records_per_s",
            out.records as f64 / t0.elapsed().as_secs_f64(),
        );
        Ok(out)
    }

    /// The static path over every function of one mutatee, run to its
    /// terminal stop: the Table-1 configurations for this workload.
    fn table1_cycles(
        &self,
        which: usize,
        plan: PointKind,
        placement: CounterPlacement,
    ) -> Result<(u64, usize), String> {
        let mt = &self.m[which];
        let mut ed = BinaryEditor::open_with(
            &mt.elf,
            SessionOptions::new()
                .engine(EmuEngine::Cached)
                .counter_placement(placement),
        )
        .map_err(err)?;
        for f in &mt.funcs {
            if plan == PointKind::FuncEntry {
                let v = ed.alloc_var(8);
                let pts = ed.find_points(f, plan).map_err(err)?;
                ed.insert(&pts, Snippet::increment(v));
            } else {
                ed.count_blocks(f).map_err(err)?;
            }
        }
        let result = ed.instrumented().map_err(err)?;
        let bytes = result.binary.to_bytes().map_err(err)?;
        let patched = Binary::parse(&bytes).map_err(err)?;
        let (stop, m) = oracle::run_machine(&patched, EmuEngine::Cached);
        let hash = mt.oracle.hash_data(&mut |a, n| m.read_mem(a, n).ok());
        mt.oracle
            .check_run(oracle::terminal_of(stop)?, &m.stdout, hash)?;
        Ok((m.cycles, bytes.len()))
    }
}

impl Workload for Fleet {
    fn job(&mut self, _i: u64, sp: &mut Spans, layer: &mut Layer) -> Result<(), String> {
        in_span(sp, "job", |sp| {
            for which in 0..self.m.len() {
                self.fleet_job(which, sp, layer)?;
            }
            Ok(())
        })
    }

    fn deterministic(&mut self) -> Result<Deterministic, String> {
        let mut acc = [0.0f64; 4];
        for which in 0..self.m.len() {
            let base = self.m[which].oracle.cycles as f64;
            let (f, _) =
                self.table1_cycles(which, PointKind::FuncEntry, CounterPlacement::EveryBlock)?;
            let (b, _) =
                self.table1_cycles(which, PointKind::BlockEntry, CounterPlacement::EveryBlock)?;
            let (o, _) =
                self.table1_cycles(which, PointKind::BlockEntry, CounterPlacement::Optimal)?;
            let job = self.fleet_job(which, &mut Spans::new(false), &mut Layer::default())?;
            acc[0] += pct(
                (self.m[which].elf.len() + job.region_bytes) as f64,
                self.m[which].elf.len() as f64,
            );
            acc[1] += pct(f as f64, base);
            acc[2] += pct(b as f64, base);
            acc[3] += pct(o as f64, base);
        }
        let n = self.m.len() as f64;
        Ok(Deterministic {
            code_growth_pct: acc[0] / n,
            overhead_fn_pct: acc[1] / n,
            overhead_bb_pct: acc[2] / n,
            overhead_bb_opt_pct: acc[3] / n,
        })
    }

    fn probes(&mut self, sp: &mut Spans, layer: &mut Layer) -> Result<(), String> {
        for mt in &self.m {
            probe_front_half(&mt.elf, &ParseOptions::default(), 3, sp, layer)?;
        }
        // Stack-walk cost: the same traced fleet run to the end with and
        // without sampling.
        let mt = &self.m[1];
        let fleet = || -> Result<FleetController, String> {
            let mut fc = FleetController::open(&mt.elf, opts()).map_err(err)?;
            fc.spawn(PROCESSES);
            MemTracer::plan_fleet(&mut fc, &trace_opts()).map_err(err)?;
            fc.commit_all().map_err(err)?;
            Ok(fc)
        };
        let mut plain = fleet()?;
        let t0 = Instant::now();
        plain.run_all();
        let unsampled = t0.elapsed().as_secs_f64();
        let mut sampled = fleet()?;
        let profiler = Profiler::new(ProfileOptions {
            interval_cycles: INTERVAL,
            max_samples: 1 << 20,
        });
        let t0 = Instant::now();
        let prof = profiler.sample_fleet(&mut sampled).map_err(err)?;
        let with = t0.elapsed().as_secs_f64();
        layer.add(
            "stackwalker.us_per_sample",
            (with - unsampled) * 1e6 / prof.profile.samples.max(1) as f64,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_figures() {
        let (mut a, mut b) = (Fleet::setup(3).unwrap(), Fleet::setup(3).unwrap());
        let c = Fleet::setup(4).unwrap();
        assert_eq!(a.m[0].elf, b.m[0].elf);
        assert_ne!(a.m[0].elf, c.m[0].elf);
        assert_eq!(a.m[0].mem_ops, b.m[0].mem_ops);
        let (da, db) = (a.deterministic().unwrap(), b.deterministic().unwrap());
        assert_eq!(da.overhead_fn_pct.to_bits(), db.overhead_fn_pct.to_bits());
        assert_eq!(da.code_growth_pct.to_bits(), db.code_growth_pct.to_bits());
        // Jobs of the same seed reproduce each other's traces and cycles.
        let mut layer = Layer::default();
        let j1 = a.fleet_job(1, &mut Spans::new(false), &mut layer).unwrap();
        let j2 = b.fleet_job(1, &mut Spans::new(false), &mut layer).unwrap();
        assert_eq!((j1.records, &j1.cycles), (j2.records, &j2.cycles));
    }
}
