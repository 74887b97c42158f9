//! The unified error taxonomy for the instrumentation pipeline.
//!
//! Every component crate reports failures through its own typed error
//! (`SymtabError`, `DecodeError`, `CodeGenError`, `InstrumentError`,
//! `RelocateError`, `ProcError`); this module folds them into one
//! [`Error`] so a tool built on the facade can match on a single enum,
//! ask [`Error::stage`] where in open→parse→instrument→run the failure
//! happened, and read the faulting pc/address without string parsing.
//!
//! The design rule (ROADMAP north star: survive production binaries): a
//! mutatee that faults, traps unexpectedly, or exits uncleanly is *data*,
//! not a reason for the mutator to abort — those conditions surface as
//! [`Error::MutateeFault`] / [`Error::UncleanExit`], never as panics.

use rvdyn_codegen::emitter::CodeGenError;
use rvdyn_isa::DecodeError;
use rvdyn_patch::relocate::RelocateError;
use rvdyn_patch::InstrumentError;
use rvdyn_proccontrol::ProcError;
use rvdyn_symtab::SymtabError;
use std::fmt;

/// Pipeline stage an error was raised in (Figure 1's workflow steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reading and modelling the input ELF (SymtabAPI).
    Open,
    /// Decoding and CFG construction (InstructionAPI / ParseAPI).
    Parse,
    /// Snippet lowering, relocation, springboard planting (CodeGen/Patch).
    Instrument,
    /// Serialising the rewritten binary (static path).
    Rewrite,
    /// Executing or controlling the mutatee (ProcControl / emulator).
    Run,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Open => "open",
            Stage::Parse => "parse",
            Stage::Instrument => "instrument",
            Stage::Rewrite => "rewrite",
            Stage::Run => "run",
        };
        f.write_str(s)
    }
}

/// A pipeline failure, with stage and (where known) pc/address context.
#[derive(Debug, Clone)]
pub enum Error {
    /// ELF / symbol-table failure while opening or re-serialising.
    Symtab { stage: Stage, source: SymtabError },
    /// An instruction failed to decode during analysis.
    Decode { source: DecodeError },
    /// No function with the requested name in the parse.
    NoSuchFunction { name: String },
    /// Snippet lowering, relocation or springboard planting failed.
    Instrument { source: InstrumentError },
    /// The clobber audit refused the patch: the springboard at `pc`
    /// overwrites the original instructions listed in `clobbered` without
    /// redirect coverage, so control flow landing on any of them would
    /// execute torn bytes. Surfaced as its own variant (not a generic
    /// [`Error::Instrument`]) because it is the soundness contract of the
    /// springboard scheme — see `docs/FAILURE-MODES.md`.
    SpringboardClobber { pc: u64, clobbered: Vec<u64> },
    /// Conservative refusal: the function at `func` has `count` indirect
    /// transfers whose targets could not be resolved, so relocating it
    /// may orphan live control flow. Opt in with
    /// `SessionOptions::allow_unresolved(true)` to proceed anyway.
    UnresolvedIndirects { func: u64, count: usize },
    /// The mutatee hit a trap springboard whose redirect is missing from
    /// the trap table — instrumented code the runtime cannot reach.
    RedirectMiss { pc: u64 },
    /// A delivered patch region read back different bytes than were
    /// written (partial/failed delivery through the debug interface).
    PatchVerifyFailed { addr: u64 },
    /// The debug interface refused an operation; `pc` is the mutatee's
    /// program counter at the time, when a process was attached.
    Proc { source: ProcError, pc: Option<u64> },
    /// The mutatee took a memory / fetch / illegal-instruction fault at
    /// `pc` while touching `addr`.
    MutateeFault { pc: u64, addr: u64 },
    /// The mutatee stopped without exiting cleanly (fuel exhaustion, an
    /// unexpected trap, …); `pc`/`icount` locate how far it got.
    UncleanExit {
        reason: String,
        pc: u64,
        icount: u64,
    },
    /// The emulator's translation-cache coherence assertion tripped: a
    /// cached basic block's source bytes changed without an invalidation.
    /// Only reachable when `verify_translations` is armed on the machine
    /// and executable text is mutated behind the debug interface — a
    /// mutator bug, never a mutatee condition. See `docs/EMULATOR.md`.
    CacheIncoherent { pc: u64 },
    /// A fleet operation targeted the process under controller-assigned
    /// pid `pid`, but that process is gone — it exited before (or while)
    /// the operation could be delivered, or the pid was never part of
    /// the fleet. The per-process analogue of a `waitpid` race: the
    /// failure is attributed to exactly one mutatee, and the rest of the
    /// fleet is unaffected (see `docs/FLEET.md` fault isolation).
    FleetProcessLost { pid: u32 },
    /// A serialized memory-trace stream (`rvdyn-trace-v1`, produced by
    /// [`crate::tools::TraceSink`]) failed validation while being read
    /// back: bad magic, a truncated record, a count mismatch, or a
    /// checksum failure. `offset` is the byte offset at which decoding
    /// stopped making sense. Corrupt trace files are *data* for the
    /// reader to reject, never a panic — see `docs/FAILURE-MODES.md`.
    TraceCorrupt { offset: u64, reason: String },
    /// A live commit would instrument the function at `func`, which an
    /// earlier commit already relocated: its new copy would carry only
    /// the new snippets and silently drop the earlier ones. Remove the
    /// instrumentation first, or instrument the function in one commit.
    AlreadyRelocated { func: u64 },
    /// Per-block count recovery failed for the function at `func`: a
    /// counter variable could not be read back, or the placed counter
    /// values violate the CFG flow equations (a negative reconstructed
    /// count). `addr` is the unreadable variable or the inconsistent
    /// block. Indicates a torn run (early exit mid-function) or counter
    /// memory corruption — the counts cannot have come from a complete
    /// execution of the planned CFG.
    CounterReconstruct { func: u64, addr: u64 },
}

impl Error {
    /// The pipeline stage the error belongs to.
    pub fn stage(&self) -> Stage {
        match self {
            Error::Symtab { stage, .. } => *stage,
            Error::Decode { .. } => Stage::Parse,
            Error::NoSuchFunction { .. } => Stage::Parse,
            Error::Instrument { .. }
            | Error::SpringboardClobber { .. }
            | Error::UnresolvedIndirects { .. }
            | Error::AlreadyRelocated { .. }
            | Error::PatchVerifyFailed { .. } => Stage::Instrument,
            Error::Proc { .. }
            | Error::MutateeFault { .. }
            | Error::UncleanExit { .. }
            | Error::RedirectMiss { .. }
            | Error::CacheIncoherent { .. }
            | Error::FleetProcessLost { .. }
            | Error::TraceCorrupt { .. }
            | Error::CounterReconstruct { .. } => Stage::Run,
        }
    }

    /// The mutatee/analysis address most relevant to the error, if any:
    /// the faulting pc, the undecodable instruction, the bad address.
    pub fn pc(&self) -> Option<u64> {
        match self {
            Error::Decode { source } => Some(source.address()),
            Error::Proc { pc, .. } => *pc,
            Error::MutateeFault { pc, .. }
            | Error::UncleanExit { pc, .. }
            | Error::RedirectMiss { pc }
            | Error::CacheIncoherent { pc }
            | Error::SpringboardClobber { pc, .. } => Some(*pc),
            Error::UnresolvedIndirects { func, .. } | Error::AlreadyRelocated { func } => {
                Some(*func)
            }
            Error::PatchVerifyFailed { addr } => Some(*addr),
            Error::CounterReconstruct { addr, .. } => Some(*addr),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Symtab { stage, source } => write!(f, "[{stage}] {source}"),
            Error::Decode { source } => write!(f, "[parse] {source}"),
            Error::NoSuchFunction { name } => {
                write!(f, "[parse] no function named {name:?}")
            }
            Error::Instrument { source } => write!(f, "[instrument] {source}"),
            Error::SpringboardClobber { pc, clobbered } => {
                write!(
                    f,
                    "[instrument] springboard at {pc:#x} clobbers {} \
                     instruction(s) without redirect coverage:",
                    clobbered.len()
                )?;
                for a in clobbered {
                    write!(f, " {a:#x}")?;
                }
                Ok(())
            }
            Error::UnresolvedIndirects { func, count } => write!(
                f,
                "[instrument] function {func:#x} has {count} unresolved \
                 indirect transfer(s); refusing to relocate (opt in with \
                 allow_unresolved)"
            ),
            Error::AlreadyRelocated { func } => write!(
                f,
                "[instrument] function {func:#x} was relocated by an earlier \
                 commit; instrumenting it again would drop that commit's \
                 snippets (remove the instrumentation first)"
            ),
            Error::RedirectMiss { pc } => {
                write!(f, "[run] trap springboard at {pc:#x} has no redirect entry")
            }
            Error::PatchVerifyFailed { addr } => write!(
                f,
                "[instrument] patch region at {addr:#x} failed read-back \
                 verification"
            ),
            Error::Proc {
                source,
                pc: Some(pc),
            } => {
                write!(f, "[run] {source} (mutatee pc {pc:#x})")
            }
            Error::Proc { source, pc: None } => write!(f, "[run] {source}"),
            Error::MutateeFault { pc, addr } => {
                write!(f, "[run] mutatee faulted at {pc:#x} touching {addr:#x}")
            }
            Error::UncleanExit { reason, pc, icount } => write!(
                f,
                "[run] mutatee did not exit cleanly: {reason} \
                 (pc {pc:#x} after {icount} instructions)"
            ),
            Error::CacheIncoherent { pc } => write!(
                f,
                "[run] translation cache incoherent at {pc:#x}: cached text \
                 changed without invalidation"
            ),
            Error::FleetProcessLost { pid } => write!(
                f,
                "[run] fleet process {pid} is gone: it exited before the \
                 operation could be delivered (or was never in the fleet)"
            ),
            Error::TraceCorrupt { offset, reason } => {
                write!(f, "[run] trace stream corrupt at byte {offset}: {reason}")
            }
            Error::CounterReconstruct { func, addr } => write!(
                f,
                "[run] per-block count reconstruction failed for function \
                 {func:#x} at {addr:#x}"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Symtab { source, .. } => Some(source),
            Error::Decode { source } => Some(source),
            Error::Instrument { source } => Some(source),
            Error::Proc { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SymtabError> for Error {
    fn from(source: SymtabError) -> Error {
        Error::Symtab {
            stage: Stage::Open,
            source,
        }
    }
}

impl From<DecodeError> for Error {
    fn from(source: DecodeError) -> Error {
        Error::Decode { source }
    }
}

impl From<InstrumentError> for Error {
    fn from(source: InstrumentError) -> Error {
        match source {
            // The clobber audit's refusal is a first-class contract
            // violation, promoted out of the generic instrument wrapper.
            InstrumentError::SpringboardClobber { pc, clobbered } => {
                Error::SpringboardClobber { pc, clobbered }
            }
            source => Error::Instrument { source },
        }
    }
}

impl From<CodeGenError> for Error {
    fn from(source: CodeGenError) -> Error {
        Error::Instrument {
            source: InstrumentError::CodeGen(source),
        }
    }
}

impl From<RelocateError> for Error {
    fn from(source: RelocateError) -> Error {
        Error::Instrument {
            source: InstrumentError::Relocate(source),
        }
    }
}

impl From<ProcError> for Error {
    fn from(source: ProcError) -> Error {
        match source {
            // The coherence assertion is a first-class contract violation
            // (like SpringboardClobber), not a generic proc failure.
            ProcError::CacheIncoherent(pc) => Error::CacheIncoherent { pc },
            source => Error::Proc { source, pc: None },
        }
    }
}
