//! Static binary rewriting (BPatch_binaryEdit): the static delivery of
//! a [`Session`].
//!
//! A [`BinaryEditor`] *is* a [`Session`]: open, parse, point lookup,
//! variable allocation, the pending queue, diagnostics and telemetry are
//! the session's own methods (see [`crate::session`]). This module adds
//! the static delivery — serialise the patched binary model back to an
//! ELF, run it on the emulator substrate, read its counters back — as
//! more methods of the session.

use crate::error::{Error, Stage};
use crate::fleet::surfaced_trap;
use crate::session::{BlockCounter, Session};
use crate::telemetry::{TelemetryEvent, TimedStage};
use rvdyn_parse::CodeObject;
use rvdyn_patch::instrument::PatchResult;
use rvdyn_symtab::Binary;
use std::collections::{BTreeMap, BTreeSet};

/// Open a binary, analyze it, queue snippet insertions, write a new
/// binary — the static-instrumentation workflow of Figure 1. The editor
/// is the session: [`Session::open`] opens one, [`Session::rewrite`]
/// writes the new ELF.
pub type BinaryEditor = Session;

impl Session {
    /// Lower every queued snippet, relocate the touched functions, plant
    /// springboards (timed `instrument` stage with a `relocate`
    /// sub-timing), and return the rewritten binary model with its
    /// patch. Under the conservative policy
    /// ([`SessionOptions::allow_unresolved`](crate::SessionOptions::allow_unresolved)`(false)`),
    /// refuses to touch a function that still has unresolved indirect
    /// transfers. The queue is left intact, so it may be applied again.
    pub fn instrumented(&mut self) -> Result<PatchResult, Error> {
        self.apply_at(self.layout().patch_text, &BTreeSet::new())
    }

    /// Exact per-block execution counts for a [`BlockCounter`], read from
    /// a finished run's memory image (reconstructed through the CFG flow
    /// equations under optimal placement).
    pub fn block_counts(
        &mut self,
        counter: &BlockCounter,
        run: &RunOutput,
    ) -> Result<BTreeMap<u64, u64>, Error> {
        self.block_counts_with(counter, &mut |v| run.read_u64(v.addr))
    }

    /// Serialise a patched binary model (timed `commit` stage), recording
    /// the written per-region structure in the diagnostics — the static
    /// mirror of the dynamic commit's `patch_regions_written`.
    fn serialise(&mut self, binary: &Binary) -> Result<Vec<u8>, Error> {
        let timer = self.begin_stage(TimedStage::Commit);
        let (bytes, stats) = binary
            .to_bytes_with_stats()
            .map_err(|source| Error::Symtab {
                stage: Stage::Rewrite,
                source,
            })?;
        for r in stats.written() {
            self.emit(TelemetryEvent::PatchRegionWritten {
                addr: r.vaddr,
                len: r.file_size as usize,
            });
        }
        self.diag_mut().patch_regions_written += stats.regions_written();
        self.end_stage(timer);
        Ok(bytes)
    }

    /// Apply all queued insertions and serialise the new ELF (the static
    /// path's timed `commit` stage).
    pub fn rewrite(&mut self) -> Result<Vec<u8>, Error> {
        let patched = self.instrumented()?;
        self.serialise(&patched.binary)
    }

    /// Full static round trip with stage attribution: apply the queued
    /// insertions (`instrument`), serialise + reload (`commit`), and
    /// execute the instrumented binary on the emulator substrate (`run`).
    /// Run totals land in [`Session::diagnostics`], so one session
    /// reports wall-clock timings for every pipeline stage.
    pub fn instrument_and_run(&mut self, fuel: u64) -> Result<RunOutput, Error> {
        let patched = self.instrumented()?;
        let elf = self.serialise(&patched.binary)?;

        let bin = Binary::parse(&elf)?;
        let timer = self.begin_stage(TimedStage::Run);
        let mut res = run_binary_engine(&bin, fuel, self.engine(), Some(self.code()));
        self.emit(TelemetryEvent::run_exit(res.as_ref().map(|r| r.exit_code)));
        self.end_stage(timer);
        if let Ok(r) = &mut res {
            self.diag_mut().record_run(r.icount, r.cycles);
            self.record_emu(&mut r.machine);
        }
        res
    }
}

/// Result of a convenience run on the emulator substrate.
pub struct RunOutput {
    pub exit_code: i64,
    pub stdout: Vec<u8>,
    pub cycles: u64,
    pub icount: u64,
    pub seconds: f64,
    machine: rvdyn_emu::Machine,
}

impl RunOutput {
    /// Read a u64 from the final memory image (e.g. a counter variable).
    pub fn read_u64(&self, addr: u64) -> Option<u64> {
        self.machine.mem.load(addr, 8).ok()
    }

    /// The final machine state.
    pub fn machine(&self) -> &rvdyn_emu::Machine {
        &self.machine
    }
}

/// Load an ELF image into the execution substrate and run it to exit.
pub fn run_elf(elf: &[u8], fuel: u64) -> Result<RunOutput, Error> {
    let bin = Binary::parse(elf)?;
    run_binary(&bin, fuel)
}

/// As [`run_elf`] with an explicit execution engine (the programmatic
/// equivalent of the `RVDYN_EMU` environment knob).
pub fn run_elf_with(
    elf: &[u8],
    fuel: u64,
    engine: rvdyn_emu::EmuEngine,
) -> Result<RunOutput, Error> {
    let bin = Binary::parse(elf)?;
    run_binary_engine(&bin, fuel, engine, None)
}

/// As [`run_elf`] for an in-memory binary model.
///
/// A mutatee that faults or stops without exiting is reported as a typed
/// error carrying the faulting pc (and address, for memory faults) — the
/// mutator never aborts on mutatee behaviour. A fetch fault or an
/// illegal instruction is [`Error::MutateeFault`] at that pc, as on the
/// live path. In an instrumented binary (one carrying trap-table
/// redirects), a breakpoint trap that surfaces outside the patch code
/// means a springboard whose redirect is missing: that is
/// [`Error::RedirectMiss`], distinct from the generic unclean exit. A
/// free-standing run has no original code to consult, so unlike a
/// session's run it cannot tell the mutatee's own `ebreak` in original
/// code from a torn springboard.
pub fn run_binary(bin: &Binary, fuel: u64) -> Result<RunOutput, Error> {
    // Free-standing runs keep the machine's own default engine, which
    // honours the `RVDYN_EMU` environment knob.
    run_binary_engine(bin, fuel, rvdyn_emu::EmuEngine::from_env(), None)
}

/// As [`run_binary`] with an explicit execution engine — the
/// session-driven path, where `SessionOptions::engine` wins over the
/// environment. A session passes its parsed `original` code, and a
/// surfaced trap is then classified by the live run's rule.
pub(crate) fn run_binary_engine(
    bin: &Binary,
    fuel: u64,
    engine: rvdyn_emu::EmuEngine,
    original: Option<&CodeObject>,
) -> Result<RunOutput, Error> {
    let mut m = rvdyn_emu::load_binary(bin);
    m.engine = engine;
    m.fuel = Some(fuel);
    let stop = m.run();
    let exit_code = match stop {
        rvdyn_emu::StopReason::Exited(c) => c,
        rvdyn_emu::StopReason::MemFault { pc, addr, .. } => {
            return Err(Error::MutateeFault { pc, addr });
        }
        rvdyn_emu::StopReason::FetchFault { pc }
        | rvdyn_emu::StopReason::IllegalInstruction(pc) => {
            return Err(Error::MutateeFault { pc, addr: pc });
        }
        rvdyn_emu::StopReason::Break(pc) => {
            if let Some(code) = original {
                return Err(surfaced_trap(code, &m, pc));
            }
            // With no original to consult: the emulator resolves
            // trap-springboard redirects internally, so a Break that
            // *surfaces* from a binary carrying redirects is
            // a springboard whose table entry is missing — unless it lies
            // in the patch code section, which holds no springboards: that
            // is the mutatee's own `ebreak`, relocated.
            let relocated = bin
                .section_by_name(".rvdyn.text")
                .is_some_and(|s| (s.addr..s.addr + s.data.len() as u64).contains(&pc));
            if !m.trap_redirects.is_empty() && !relocated {
                return Err(Error::RedirectMiss { pc });
            }
            return Err(Error::UncleanExit {
                reason: format!("unexpected breakpoint trap at {pc:#x}"),
                pc: m.pc,
                icount: m.icount,
            });
        }
        rvdyn_emu::StopReason::CycleLimit { pc } => {
            // Free runs never arm the cycle-count interrupt; the
            // sampling profiler drives its own resumable loop through
            // ProcControl instead of this path.
            return Err(Error::UncleanExit {
                reason: format!("cycle limit reached at {pc:#x}"),
                pc: m.pc,
                icount: m.icount,
            });
        }
        rvdyn_emu::StopReason::FuelExhausted => {
            return Err(Error::UncleanExit {
                reason: format!("fuel exhausted after {} instructions", m.icount),
                pc: m.pc,
                icount: m.icount,
            });
        }
        rvdyn_emu::StopReason::CacheIncoherent { pc } => {
            return Err(Error::CacheIncoherent { pc });
        }
    };
    Ok(RunOutput {
        exit_code,
        stdout: m.stdout.clone(),
        cycles: m.cycles,
        icount: m.icount,
        seconds: m.now_seconds(),
        machine: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use crate::session::SessionOptions;
    use rvdyn_codegen::snippet::Snippet;
    use rvdyn_parse::ParseOptions;
    use rvdyn_patch::PointKind;

    #[test]
    fn full_static_workflow() {
        let elf = rvdyn_asm::matmul_program(6, 3).to_bytes().unwrap();
        let mut ed = BinaryEditor::open(&elf).unwrap();
        assert_eq!(ed.profile(), rvdyn_isa::IsaProfile::rv64gc());
        let counter = ed.alloc_var(8);
        let pts = ed.find_points("matmul", PointKind::FuncEntry).unwrap();
        ed.insert(&pts, Snippet::increment(counter));
        let out = ed.rewrite().unwrap();
        let r = run_elf(&out, 500_000_000).unwrap();
        assert_eq!(r.exit_code, 0);
        assert_eq!(r.read_u64(counter.addr), Some(3));
        assert_eq!(r.stdout.len(), 8); // the mutatee's own timing output
    }

    #[test]
    fn unknown_function_is_an_error() {
        let elf = rvdyn_asm::fib_program(3).to_bytes().unwrap();
        let ed = BinaryEditor::open(&elf).unwrap();
        let err = ed
            .find_points("nonexistent", PointKind::FuncEntry)
            .unwrap_err();
        assert!(matches!(err, Error::NoSuchFunction { .. }));
        assert_eq!(err.stage(), Stage::Parse);
    }

    #[test]
    fn garbage_input_is_an_error() {
        let err = match BinaryEditor::open(b"definitely not an elf") {
            Err(e) => e,
            Ok(_) => panic!("garbage parsed as an ELF"),
        };
        assert!(matches!(
            err,
            Error::Symtab {
                stage: Stage::Open,
                ..
            }
        ));
        assert_eq!(err.stage(), Stage::Open);
    }

    #[test]
    fn fuel_exhaustion_is_an_unclean_exit() {
        let elf = rvdyn_asm::fib_program(20).to_bytes().unwrap();
        match run_elf(&elf, 10) {
            Err(Error::UncleanExit { icount, .. }) => assert_eq!(icount, 10),
            Err(other) => panic!("expected UncleanExit, got {other:?}"),
            Ok(_) => panic!("expected UncleanExit, got a clean exit"),
        }
    }

    #[test]
    fn diagnostics_track_parse_and_patch() {
        let elf = rvdyn_asm::matmul_program(4, 2).to_bytes().unwrap();
        let mut ed = BinaryEditor::open(&elf).unwrap();
        let d = ed.diagnostics();
        assert!(d.functions_parsed > 0);
        assert!(d.blocks_parsed >= d.functions_parsed);
        assert!(d.instructions_decoded as usize >= d.blocks_parsed);
        assert_eq!(d.points_instrumented, 0); // nothing instrumented yet
        assert!(d.timings.open_ns > 0, "open stage was timed");
        assert!(d.timings.parse_ns > 0, "parse stage was timed");
        assert_eq!(d.timings.instrument_ns, 0, "not instrumented yet");

        let counter = ed.alloc_var(8);
        let pts = ed.find_points("matmul", PointKind::FuncEntry).unwrap();
        ed.insert(&pts, Snippet::increment(counter));
        ed.rewrite().unwrap();
        let d = ed.diagnostics();
        assert_eq!(d.points_instrumented, pts.len());
        assert_eq!(d.springboards.total(), 1); // one function relocated
        assert!(d.timings.instrument_ns > 0, "instrument stage was timed");
        assert!(d.timings.commit_ns > 0, "serialisation timed as commit");
        // Static delivery reports its per-region structure too (one
        // region per contiguous allocatable span in the written ELF).
        assert!(
            d.patch_regions_written >= 2,
            "rewrite must count written regions, got {}",
            d.patch_regions_written
        );
    }

    #[test]
    fn static_block_counts_every_block() {
        let elf = rvdyn_asm::matmul_program(4, 2).to_bytes().unwrap();
        let mut ed = BinaryEditor::open(&elf).unwrap();
        let bc = ed.count_blocks("matmul").unwrap();
        assert!(!bc.is_optimal());
        assert_eq!(bc.counters_placed(), bc.blocks_covered());
        let r = ed.instrument_and_run(500_000_000).unwrap();
        let counts = ed.block_counts(&bc, &r).unwrap();
        assert_eq!(counts.len(), bc.blocks_covered());
        // Entry block runs once per call.
        let entry = ed.function_addr("matmul").unwrap();
        assert_eq!(counts[&entry], 2);
        assert_eq!(ed.diagnostics().counts_reconstructed, 0);
    }

    #[test]
    fn warm_editor_from_analysis_skips_the_front_half() {
        let elf = rvdyn_asm::matmul_program(5, 2).to_bytes().unwrap();
        let analysis = Analysis::compute(&elf, &ParseOptions::default()).unwrap();

        let mut ed = BinaryEditor::from_analysis(analysis.clone(), SessionOptions::default());
        // Warm sessions spend zero time in open/parse: the front half was
        // computed once, outside the session.
        assert_eq!(ed.diagnostics().timings.open_ns, 0);
        assert_eq!(ed.diagnostics().timings.parse_ns, 0);
        // Parse *counters* still describe the shared CFG.
        assert!(ed.diagnostics().functions_parsed > 0);

        let counter = ed.alloc_var(8);
        let pts = ed.find_points("matmul", PointKind::FuncEntry).unwrap();
        ed.insert(&pts, Snippet::increment(counter));
        let warm = ed.rewrite().unwrap();

        // Bit-identical to a cold open of the same ELF.
        let mut cold = BinaryEditor::open(&elf).unwrap();
        let c = cold.alloc_var(8);
        let pts = cold.find_points("matmul", PointKind::FuncEntry).unwrap();
        cold.insert(&pts, Snippet::increment(c));
        assert_eq!(warm, cold.rewrite().unwrap());
    }

    #[test]
    fn instrument_and_run_times_every_stage() {
        let elf = rvdyn_asm::matmul_program(5, 2).to_bytes().unwrap();
        let mut ed = BinaryEditor::open(&elf).unwrap();
        let counter = ed.alloc_var(8);
        let pts = ed.find_points("matmul", PointKind::FuncEntry).unwrap();
        ed.insert(&pts, Snippet::increment(counter));
        let r = ed.instrument_and_run(500_000_000).unwrap();
        assert_eq!(r.exit_code, 0);
        assert_eq!(r.read_u64(counter.addr), Some(2));
        let d = ed.diagnostics();
        assert_eq!(d.instret, r.icount);
        for (name, ns) in [
            ("open", d.timings.open_ns),
            ("parse", d.timings.parse_ns),
            ("instrument", d.timings.instrument_ns),
            ("commit", d.timings.commit_ns),
            ("run", d.timings.run_ns),
        ] {
            assert!(ns > 0, "{name} stage must have nonzero wall-clock");
        }
    }

    #[test]
    fn multiple_vars_do_not_collide() {
        let elf = rvdyn_asm::fib_program(5).to_bytes().unwrap();
        let mut ed = BinaryEditor::open(&elf).unwrap();
        let v1 = ed.alloc_var(8);
        let v2 = ed.alloc_var(8);
        assert_ne!(v1.addr, v2.addr);
        let entry = ed.find_points("fib", PointKind::FuncEntry).unwrap();
        let exit = ed.find_points("fib", PointKind::FuncExit).unwrap();
        ed.insert(&entry, Snippet::increment(v1));
        ed.insert(&exit, Snippet::increment(v2));
        let out = ed.rewrite().unwrap();
        let r = run_elf(&out, 100_000_000).unwrap();
        // Every call returns exactly once.
        assert_eq!(r.read_u64(v1.addr), r.read_u64(v2.addr));
        assert_eq!(r.read_u64(v1.addr), Some(15)); // fib(5) call-tree size
    }
}
