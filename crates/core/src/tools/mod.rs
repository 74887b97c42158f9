//! Production tools built **on** the public instrumentation pipeline —
//! the paper's §2 motivation made concrete: "tools such as performance
//! profilers, debuggers, and memory-access tracing tools" as thin
//! clients of Session/Analysis, not privileged extensions of it.
//!
//! Two tools ship (contracts in `docs/TOOLS.md`):
//!
//! * [`MemTracer`] — plans record-emitting snippets before every plain
//!   load/store, drains an in-mutatee ring after the run, and
//!   serialises the result as the versioned `rvdyn-trace-v1` stream
//!   ([`TraceSink`] / [`TraceReader`]). Ground truth: record-identical
//!   to the emulator's interpreter-side memory-op oracle.
//! * [`Profiler`] — interrupts the mutatee on a modelled-cycle
//!   interval, walks stacks with the StackwalkerAPI stepper pipeline,
//!   and aggregates folded flame-style profiles with per-function
//!   self/total counts. Ground truth: every walked stack matches the
//!   emulator's shadow call stack at the interrupt pc.
//!
//! Each tool has one entry point per kind of delivery — `_editor` /
//! `_output` for the static [`BinaryEditor`], `_fleet` for a
//! [`FleetController`] (N processes, fault-isolated) — and a
//! [`DynamicInstrumenter`] is reached as the fleet of one it is,
//! through its `fleet_mut` and `PID`:
//!
//! | tool | static | live |
//! |---|---|---|
//! | [`MemTracer`] | `plan_editor`, `drain_output` | `plan_fleet`, `drain_fleet` |
//! | [`Profiler`] | — | `sample_fleet` |
//!
//! Both report through the standard `tools.*` diagnostics counters and
//! telemetry events.
//!
//! [`BinaryEditor`]: crate::BinaryEditor
//! [`DynamicInstrumenter`]: crate::DynamicInstrumenter
//! [`FleetController`]: crate::FleetController

pub mod memtrace;
pub mod profile;
pub mod trace;

pub use memtrace::{Drained, MemTracer, TraceOptions};
pub use profile::{FleetProfile, FuncCounts, Profile, ProfileOptions, Profiler};
pub use trace::{serialize_trace, TraceReader, TraceRecord, TraceSink, TRACE_MAGIC};
