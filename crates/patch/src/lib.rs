//! # rvdyn-patch — snippet insertion (PatchAPI)
//!
//! The rvdyn equivalent of Dyninst's *PatchAPI*: given a parsed mutatee, a
//! set of instrumentation **points** and machine-independent **snippets**,
//! produce a safely transformed binary (static rewriting) or a patch plan
//! applied to a live process (dynamic instrumentation).
//!
//! rvdyn uses the *code patching* strategy the paper describes for Dyninst
//! (§1): instrumented functions are **relocated** — a new version with the
//! snippets inlined is placed in a patch area, and the original entry (plus
//! every indirect-jump target) is overwritten with a **springboard** jump
//! to the new version. Direct calls skip the springboard where a `jal`
//! reaches: calls in relocated code enter the relocated callees of the same
//! pass, and `jal` call sites in original code are rewritten to
//! ([`CallSites`]), so springboards serve indirect calls, calls that cannot
//! reach, and the program entry. The pass is split into a *parallel plan phase*
//! (per-function liveness + lowering + slot-indexed relocation plans,
//! fanned out over a worker pool), a *sequential base assignment*
//! (deterministic patch-area addresses), a *parallel finish phase*
//! (emission + springboards + clobber audit) and a *sequential merge*
//! in entry order, so it scales with cores while producing bit-identical
//! bytes for any thread count — see [`instrument`]. The springboard planner implements §3.1.2's
//! size/range ladder:
//!
//! | form            | size | reach       |
//! |-----------------|------|-------------|
//! | `c.j`           | 2 B  | ±2 KiB      |
//! | `jal x0`        | 4 B  | ±1 MiB      |
//! | `auipc`+`jalr`  | 8 B  | ±2 GiB (needs a dead register) |
//! | `ebreak` trap   | 2 B  | anywhere (slow; "worst case")  |
//!
//! Relocation rewrites PC-relative material for its new home: branches and
//! `jal`s are retargeted (with automatic inverted-branch + `jal` widening
//! when displacements outgrow B-format), and every `auipc` is replaced by
//! an exact materialisation of the value it produced at its *original*
//! address — immune to the pairing ambiguity of `auipc`/`lo12` sequences.
//!
//! ## The springboard redirect invariant
//!
//! Planting a springboard overwrites bytes, and those bytes may *straddle*
//! instructions: a 4-byte `jal` over two compressed instructions clobbers
//! both, and an entry block that is also an indirect-jump target (a
//! same-function jump table dispatching back to the function head) keeps
//! every clobbered address reachable at runtime. The invariant every
//! `apply` upholds:
//!
//! > **Every instruction address overlapped by springboard bytes has a
//! > redirect registered in the trap table, mapping it to its relocated
//! > equivalent.**
//!
//! [`clobbered_addresses`] enumerates the overlapped set for a site and
//! [`audit_redirect_coverage`] proves coverage against the relocation
//! address map, returning the redirect pairs to register;
//! [`InstrumentError::SpringboardClobber`] is the refusal when coverage
//! cannot be established — an unsound patch is never produced silently.
//! The audit totals surface as `clobbers_audited` /
//! `redirects_registered` in [`instrument::PatchResult`] and the facade's
//! diagnostics. Entry springboards are budgeted to the entry *block* (not
//! the whole function extent), so a springboard can never spill past the
//! code whose relocation map covers it.

pub mod callsites;
pub mod instrument;
pub mod placement;
pub mod points;
pub mod relocate;
pub mod springboard;

pub use callsites::{CallSite, CallSites};
pub use instrument::{
    audit_redirect_coverage, clobbered_addresses, InstrumentError, Instrumenter, PatchEvent,
    PatchLayout, RelocationIndex,
};
pub use placement::{
    plan_block_counters, plan_block_counters_with_depths, BlockCountPlan, CounterPlacement,
    CounterSite,
};
pub use points::{find_points, Point, PointKind};
pub use relocate::{relocate_function, Insertions, RelocatedFunction, RelocationPlan};
pub use springboard::{plan_springboard, Springboard, SpringboardKind, SpringboardStats};
