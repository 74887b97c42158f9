//! # rvdyn-proccontrol — process control (ProcControlAPI)
//!
//! The rvdyn equivalent of Dyninst's *ProcControlAPI* (§3.2.6): an
//! OS-independent, debugger-like interface to a running mutatee — launch
//! or attach, read and write memory and registers, insert breakpoints,
//! continue, and catch events.
//!
//! On Linux/RISC-V the paper implements this over `ptrace`, and reports a
//! key gap: **the RISC-V `ptrace` has no hardware single-step**, so
//! "single-stepping must be emulated by a series of breakpoints created by
//! ProcControlAPI, which decreases performance." This crate reproduces
//! that constraint faithfully: the underlying [`rvdyn_emu::Machine`] debug
//! interface offers only run-until-stop plus memory/register access (the
//! ptrace surface), and [`Process::single_step`] is implemented exactly as
//! described — decode the current instruction, plant temporary breakpoints
//! on every possible successor, continue, and clean up. Benchmark A5
//! quantifies the cost.
//!
//! Breakpoints are byte-patched `ebreak`s matching the footprint of the
//! instruction they replace (a 2-byte `c.ebreak` over compressed
//! instructions — overwriting 4 bytes would corrupt the following
//! instruction, §3.1.2's space problem in miniature).
//!
//! ## Fault injection
//!
//! [`FaultPlan`] arms deterministic Nth-call faults on the debug
//! interface itself (corrupt/short/dropped writes, delayed stop events,
//! dropped trap-redirect resolutions) so the failure paths a real
//! `ptrace` transport can take — and the typed errors the facade maps
//! them to — are reachable from tests without any test-only code in the
//! mutatee-facing paths.
//!
//! ## Fleets
//!
//! Controlling one mutatee is a blocking conversation, and so is
//! controlling N: `rvdyn`'s `FleetController` owns every [`Process`]
//! and runs each fleet-wide step — one commit, or one whole run — as a
//! fork-join over its processes. Each job borrows one process on a
//! worker thread (a [`Process`] is `Send`), and the controller handles
//! the outcomes in pid order once every job has ended. The workers are
//! the ones the parser and the instrumenter's plan phase use
//! (`rvdyn_parse::worklist::par_batches`), so this crate needs no pool
//! of its own. See `docs/FLEET.md` for the controller contract.

#![deny(missing_docs)]

pub mod fault;
pub mod process;

pub use fault::{FaultPlan, WriteFault, WriteFaultMode};
pub use process::{Event, ProcError, ProcEvent, Process};
