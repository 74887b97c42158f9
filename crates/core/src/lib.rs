//! # rvdyn — binary analysis and instrumentation for RISC-V
//!
//! A from-scratch Rust reproduction of the system described in *"Dyninst
//! on the RISC-V: Binary Instrumentation in Support of Performance,
//! Debugging, and Other Tools"* (He, Chauhan, Kupsch, Wu, Miller — SC
//! Workshops '25): the Dyninst toolkit suite ported to RV64GC.
//!
//! This crate is the machine-independent facade (Dyninst's `BPatch`
//! layer). The component crates mirror Figure 2:
//!
//! | paper component  | crate              |
//! |------------------|--------------------|
//! | SymtabAPI        | `rvdyn-symtab`     |
//! | InstructionAPI   | `rvdyn-isa`        |
//! | ParseAPI         | `rvdyn-parse`      |
//! | DataflowAPI      | `rvdyn-parse` (`rvdyn-dataflow` re-exports it) |
//! | CodeGenAPI       | `rvdyn-codegen`    |
//! | PatchAPI         | `rvdyn-patch`      |
//! | ProcControlAPI   | `rvdyn-proccontrol`|
//! | StackwalkerAPI   | `rvdyn-stackwalker`|
//!
//! plus the substrates this reproduction had to build (DESIGN.md §2):
//! `rvdyn-emu` (an RV64GC machine standing in for RISC-V hardware) and
//! `rvdyn-asm` (an assembler + mutatee suite standing in for gcc).
//!
//! ## Quickstart: static binary rewriting (Figure 1, left)
//!
//! ```
//! use rvdyn::{BinaryEditor, PointKind, Snippet};
//!
//! // A RISC-V ELF image (here: the paper's matmul application).
//! let elf = rvdyn_asm::matmul_program(8, 2).to_bytes().unwrap();
//!
//! // Open → analyze → instrument → write.
//! let mut editor = BinaryEditor::open(&elf).unwrap();
//! let counter = editor.alloc_var(8);
//! let points = editor.find_points("matmul", PointKind::FuncEntry).unwrap();
//! editor.insert(&points, Snippet::increment(counter));
//! let rewritten: Vec<u8> = editor.rewrite().unwrap();
//!
//! // Run the instrumented binary on the execution substrate.
//! let out = rvdyn::run_elf(&rewritten, 100_000_000).unwrap();
//! assert_eq!(out.exit_code, 0);
//! assert_eq!(out.read_u64(counter.addr), Some(2)); // two matmul calls
//! ```
//!
//! ## Dynamic instrumentation (Figure 1, right)
//!
//! See [`DynamicInstrumenter`]: create or attach to a process, insert the
//! same snippets at the same abstract points, and continue execution —
//! the patch is applied through the process-control interface instead of
//! being written to a file. [`FleetController`] does the same for N
//! processes at once, and is the one live delivery path: a
//! `DynamicInstrumenter` is a fleet of one.
//!
//! ## Sessions and telemetry
//!
//! The pipeline is one [`Session`], configured through
//! [`SessionOptions`]: the static front end is the session itself
//! ([`BinaryEditor`] is an alias of it), and every live one holds a
//! session as its template. A session keeps live
//! [`Diagnostics`] — counters *and* per-stage wall-clock timings — and
//! can stream [`telemetry::TelemetryEvent`]s to any
//! [`telemetry::TelemetrySink`] (e.g. [`telemetry::StderrSink`] for a
//! human trace, [`telemetry::CollectSink`] for tests and tools):
//!
//! ```
//! use rvdyn::telemetry::CollectSink;
//! use rvdyn::{BinaryEditor, SessionOptions};
//!
//! let elf = rvdyn_asm::fib_program(5).to_bytes().unwrap();
//! let sink = CollectSink::new();
//! let ed = BinaryEditor::open_with(
//!     &elf,
//!     SessionOptions::new().telemetry(sink.clone()),
//! ).unwrap();
//! assert!(ed.diagnostics().timings.parse_ns > 0);
//! assert!(!sink.events().is_empty());
//! ```

pub mod analysis;
pub mod diag;
pub mod dynamic;
pub mod editor;
pub mod error;
pub mod fleet;
pub mod session;
pub mod telemetry;
pub mod tools;

pub use analysis::{
    Analysis, AnalysisCache, AnalysisKey, AnalysisTimings, CacheOutcome, CacheStats,
};
pub use diag::Diagnostics;
pub use dynamic::DynamicInstrumenter;
pub use editor::{run_binary, run_elf, run_elf_with, BinaryEditor, RunOutput};
pub use error::{Error, Stage};
pub use fleet::{FleetController, FleetSummary, ProcessReport};
pub use session::{BlockCounter, Session, SessionOptions};
pub use telemetry::{
    CollectSink, SharedSink, StageTimings, StderrSink, TelemetryEvent, TelemetrySink, TimedStage,
};
pub use tools::{
    Drained, FleetProfile, MemTracer, Profile, ProfileOptions, Profiler, TraceOptions, TraceReader,
    TraceRecord, TraceSink,
};

// Re-export the component APIs under their Dyninst-flavoured names.
pub use rvdyn_codegen::regalloc::RegAllocMode;
pub use rvdyn_codegen::snippet::{BinaryOp, Snippet, UnaryOp, Var};
pub use rvdyn_emu::{CostModel, EmuEngine, Machine, StopReason};
pub use rvdyn_isa::{decode, IsaProfile, Reg};
pub use rvdyn_parse::{
    CodeObject, EdgeKind, Function, Liveness, ParseEvent, ParseOptions, StackHeight,
};
pub use rvdyn_patch::{
    audit_redirect_coverage, clobbered_addresses, find_points, plan_block_counters, BlockCountPlan,
    CounterPlacement, CounterSite, InstrumentError, PatchEvent, PatchLayout, Point, PointKind,
};
pub use rvdyn_proccontrol::{
    Completion, Event, EventQueue, FaultPlan, ProcEvent, Process, ProcessSet, WriteFault,
    WriteFaultMode,
};
pub use rvdyn_stackwalker::{Frame, StackWalker};
pub use rvdyn_symtab::Binary;
