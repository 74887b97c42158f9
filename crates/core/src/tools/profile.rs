//! The sampling profiler: §2's "performance tool" built on the
//! cycle-count interrupt and StackwalkerAPI.
//!
//! The profiler runs each mutatee through the fleet's one live run loop,
//! arming the machine's cycle-count interrupt
//! ([`stop_at_cycles`](rvdyn_emu::Machine::stop_at_cycles)) one sampling
//! interval ahead before every leg; on each
//! [`rvdyn_proccontrol::Event::CycleLimit`] stop it walks the stack with
//! the [`StackWalker`] stepper pipeline and folds the frames into a
//! flame-style profile — until the mutatee exits. Because the interrupt
//! fires on an instruction boundary and modelled cycles are a
//! deterministic function of the executed stream, the sample sequence
//! is **reproducible**: the same binary and interval produce the same
//! interrupt pcs on both execution engines (pinned by
//! `tests/tools_profile.rs`).
//!
//! [`Profiler::sample_fleet`] hands each process's whole sampling loop
//! to the fleet's workers as one job, so N mutatees are sampled in
//! parallel (one after another with `threads(1)`), then folds the
//! per-pid profiles on the controller thread in pid order into an
//! overall profile plus per-pid profiles; a process that faults records
//! its typed error without disturbing the other N−1 (fault isolation,
//! `docs/FLEET.md`). A [`DynamicInstrumenter`]'s process is sampled as
//! the fleet of one it is ([`DynamicInstrumenter::fleet_mut`]).
//!
//! [`DynamicInstrumenter`]: crate::DynamicInstrumenter
//! [`DynamicInstrumenter::fleet_mut`]: crate::DynamicInstrumenter::fleet_mut
//!
//! Sampling skew caveat (documented in `docs/TOOLS.md`): the interrupt
//! stops *before* the instruction at the sampled pc executes, so a
//! sample attributes the cycles of the preceding instructions to the pc
//! about to run — standard sampling semantics, ±1 instruction.

use crate::error::Error;
use crate::fleet::{run_to_end, FleetController};
use crate::telemetry::{TelemetryEvent, TimedStage};
use rvdyn_stackwalker::{Frame, StackWalker};
use std::collections::BTreeMap;

/// Sampling knobs for [`Profiler`].
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Modelled cycles between samples.
    pub interval_cycles: u64,
    /// Stop sampling (but keep running) after this many samples — the
    /// runaway guard for unexpectedly long mutatees.
    pub max_samples: u64,
}

impl Default for ProfileOptions {
    fn default() -> ProfileOptions {
        ProfileOptions {
            interval_cycles: 10_000,
            max_samples: 1 << 20,
        }
    }
}

/// Per-function tallies: `self_samples` counts samples whose innermost
/// frame was in the function; `total_samples` counts samples with the
/// function anywhere on the stack (each function counted once per
/// sample, so recursion does not double-count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncCounts {
    pub self_samples: u64,
    pub total_samples: u64,
}

/// An aggregated sampling profile.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Samples taken.
    pub samples: u64,
    /// Deepest walked stack, in frames.
    pub max_depth: u64,
    /// Folded stacks (`outermost;…;innermost` → sample count) — the
    /// flamegraph input format.
    pub folded: BTreeMap<String, u64>,
    /// Per-function self/total tallies, keyed by name (or `0x…` entry
    /// address for nameless frames).
    pub funcs: BTreeMap<String, FuncCounts>,
    /// The interrupt pc of every sample, in order — the reproducibility
    /// witness the engine-identity tests compare.
    pub sample_pcs: Vec<u64>,
}

fn frame_label(f: &Frame) -> String {
    match (&f.func_name, f.func_entry) {
        (Some(n), _) => n.clone(),
        (None, Some(e)) => format!("{e:#x}"),
        (None, None) => format!("{:#x}", f.pc),
    }
}

impl Profile {
    /// Fold one walked stack (innermost frame first, as
    /// [`StackWalker::walk`] returns it) into the profile.
    pub fn add_sample(&mut self, pc: u64, frames: &[Frame]) {
        self.samples += 1;
        self.max_depth = self.max_depth.max(frames.len() as u64);
        self.sample_pcs.push(pc);
        if frames.is_empty() {
            return;
        }
        let labels: Vec<String> = frames.iter().rev().map(frame_label).collect();
        *self.folded.entry(labels.join(";")).or_insert(0) += 1;
        self.funcs
            .entry(labels[labels.len() - 1].clone())
            .or_default()
            .self_samples += 1;
        let mut seen: Vec<&str> = Vec::with_capacity(labels.len());
        for l in &labels {
            if !seen.contains(&l.as_str()) {
                seen.push(l);
                self.funcs.entry(l.clone()).or_default().total_samples += 1;
            }
        }
    }

    /// Merge `other` into `self` (fleet aggregation). The merged
    /// `sample_pcs` concatenates in call order.
    pub fn merge(&mut self, other: &Profile) {
        self.samples += other.samples;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.sample_pcs.extend_from_slice(&other.sample_pcs);
        for (k, v) in &other.folded {
            *self.folded.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.funcs {
            let e = self.funcs.entry(k.clone()).or_default();
            e.self_samples += v.self_samples;
            e.total_samples += v.total_samples;
        }
    }

    /// The folded-stack lines (`stack count`), one per line — feedable
    /// straight into flamegraph tooling.
    pub fn folded_lines(&self) -> String {
        let mut out = String::new();
        for (stack, n) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&n.to_string());
            out.push('\n');
        }
        out
    }

    /// Human-readable per-function report, heaviest self time first.
    pub fn report(&self) -> String {
        let mut rows: Vec<(&String, &FuncCounts)> = self.funcs.iter().collect();
        rows.sort_by(|a, b| b.1.self_samples.cmp(&a.1.self_samples).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{} samples, deepest stack {} frames\n{:>8} {:>8}  {:>6}  function\n",
            self.samples, self.max_depth, "self", "total", "self%"
        );
        for (name, c) in rows {
            let pct = if self.samples > 0 {
                100.0 * c.self_samples as f64 / self.samples as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:>8} {:>8}  {:>5.1}%  {}\n",
                c.self_samples, c.total_samples, pct, name
            ));
        }
        out
    }
}

/// A profiled fleet run: the aggregate, the per-pid profiles, and each
/// pid's terminal outcome.
#[derive(Debug)]
pub struct FleetProfile {
    /// All processes' samples merged, pid-ascending.
    pub profile: Profile,
    /// Each pid's own profile.
    pub per_process: BTreeMap<u32, Profile>,
    /// Each pid's terminal outcome (exit code or typed error).
    pub outcomes: BTreeMap<u32, Result<i64, Error>>,
}

/// What one fleet process's run job reports back to the controller:
/// how its run ended and, when the profiler ran it, its profile and the
/// pc and walked depth of every sample (emitted as telemetry once the
/// job ends).
pub(crate) struct SampledRun {
    pub(crate) profile: Profile,
    pub(crate) samples: Vec<(u64, usize)>,
    pub(crate) result: Result<i64, Error>,
}

impl SampledRun {
    /// A run that took no samples and ended with `result`.
    pub(crate) fn unsampled(result: Result<i64, Error>) -> SampledRun {
        SampledRun {
            profile: Profile::default(),
            samples: Vec::new(),
            result,
        }
    }
}

/// The sampling profiler. Holds only options and the stackwalker; all
/// mutatee state lives in the host.
pub struct Profiler {
    opts: ProfileOptions,
    /// Borrowed by every sampling job of a fleet run.
    walker: StackWalker,
}

impl Profiler {
    /// A profiler with the default stepper pipeline.
    pub fn new(opts: ProfileOptions) -> Profiler {
        Profiler {
            opts,
            walker: StackWalker::new(),
        }
    }

    /// Replace the stackwalker (e.g. to install a relocation-index pc
    /// translation for instrumented mutatees, or a custom stepper
    /// pipeline).
    pub fn with_walker(mut self, walker: StackWalker) -> Profiler {
        self.walker = walker;
        self
    }

    /// Sample every fleet process without a terminal result to its
    /// terminal event; a process that already has one (its commit
    /// failed) is not run, and reports that result with no samples.
    /// Each pid's whole sampling loop is one job on the fleet's
    /// workers, so the N mutatees are sampled in parallel (inline, pid by
    /// pid, with `threads(1)`); the jobs share this profiler's walker. The
    /// controller thread then folds the results in pid order: it emits
    /// each pid's [`TelemetryEvent::SampleTaken`] events, ends the pid
    /// through the fleet's terminal-result path and merges its profile,
    /// so every profile and outcome is the same for any worker count.
    /// Per-pid errors (a `FaultPlan` firing, a lost process) terminate
    /// only that pid's sampling.
    pub fn sample_fleet(&self, fc: &mut FleetController) -> Result<FleetProfile, Error> {
        let timer = fc.session_mut().begin_stage(TimedStage::Run);
        let runs = fc.run_each(|p, code| {
            let (mut profile, mut samples) = (Profile::default(), Vec::new());
            // At each cycle interrupt walk the stack and fold the sample;
            // before every leg (also after a breakpoint or step stop)
            // re-arm the interval, and past `max_samples` let the mutatee
            // run on unsampled.
            let result = run_to_end(p, code, |p, tick| {
                if let Some(pc) = tick {
                    let frames = self.walker.walk_process(p, code);
                    profile.add_sample(pc, &frames);
                    samples.push((pc, frames.len()));
                }
                let next = p.machine().cycles + self.opts.interval_cycles.max(1);
                let sampling = profile.samples < self.opts.max_samples;
                p.machine_mut().stop_at_cycles = sampling.then_some(next);
            });
            // Disarmed whatever ended the run.
            p.machine_mut().stop_at_cycles = None;
            SampledRun {
                profile,
                samples,
                result,
            }
        });
        let mut per: BTreeMap<u32, Profile> = BTreeMap::new();
        let mut outcomes: BTreeMap<u32, Result<i64, Error>> = BTreeMap::new();
        let mut total = Profile::default();
        for (pid, run) in runs {
            for (pc, depth) in run.samples {
                fc.session_mut()
                    .emit(TelemetryEvent::SampleTaken { pc, depth });
            }
            fc.finish_process(pid, run.result.clone());
            outcomes.insert(pid, run.result);
            if let Some(diag) = fc.process_diag_mut(pid) {
                diag.profile_samples += run.profile.samples;
                diag.profile_max_depth = diag.profile_max_depth.max(run.profile.max_depth);
            }
            total.merge(&run.profile);
            per.insert(pid, run.profile);
        }
        fc.session_mut().end_stage(timer);
        let diag = fc.session_mut().diag_mut();
        diag.profile_samples += total.samples;
        diag.profile_max_depth = diag.profile_max_depth.max(total.max_depth);
        Ok(FleetProfile {
            profile: total,
            per_process: per,
            outcomes,
        })
    }
}
