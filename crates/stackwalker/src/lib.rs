//! # rvdyn-stackwalker — call-stack walking (StackwalkerAPI)
//!
//! The rvdyn equivalent of Dyninst's *StackwalkerAPI* (§3.2.7): collect
//! the call stack of a stopped mutatee, one frame per executing function.
//!
//! The paper flags the RISC-V difficulty precisely: although the ABI
//! designates `x8`/`s0` as a frame pointer, "many compilers choose to use
//! x8 as a general purpose register … most compilers handle stack frames
//! using only the stack pointer register", so new *frame steppers* are
//! needed. StackwalkerAPI is plugin-based; this crate ships two steppers
//! in the architecture the paper describes:
//!
//! * [`SpHeightStepper`] — the primary RISC-V stepper: uses DataflowAPI's
//!   stack-height analysis to recover the frame size and the saved-`ra`
//!   slot at any pc, requiring no frame pointer at all;
//! * [`FpStepper`] — the classic frame-pointer chain (`s0` →
//!   `[fp-8]=ra, [fp-16]=old fp`), for code compiled with frame pointers.
//!
//! Steppers are tried in order; the first that produces a caller frame
//! wins — exactly Dyninst's plugin protocol.
//!
//! ## Consumers
//!
//! `examples/stack_sampler.rs` is the STAT-style consumer: it stops a
//! running mutatee at a planted breakpoint and, on each hit, walks the
//! stack with the stepper chain to profile recursion depth. The walker
//! operates on any stopped [`rvdyn_proccontrol::Process`], which
//! includes every member of a `FleetController` fleet: the fleet
//! profiler shares one walker across the sampling jobs it runs on the
//! fleet's workers, one job per process (see `docs/FLEET.md`).

use rvdyn_dataflow::{stackheight::Height, StackHeight};
use rvdyn_isa::Reg;
use rvdyn_parse::CodeObject;
use rvdyn_proccontrol::Process;

/// One frame of a walked stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Program counter in this frame (return address for outer frames).
    pub pc: u64,
    /// Stack pointer on entry to this frame's function (best effort).
    pub sp: u64,
    /// Entry address of the function, when known.
    pub func_entry: Option<u64>,
    /// Function name, when known.
    pub func_name: Option<String>,
    /// This frame's frame pointer (`s0` on entry), when recovered by a
    /// stepper. The innermost frame leaves it `None` (the live register
    /// is the source of truth there); [`FpStepper`] fills it for outer
    /// frames so the saved-fp chain can be followed past the first
    /// caller instead of re-reading the live register at every depth.
    pub fp: Option<u64>,
}

/// The source of truth a stepper consults: registers + memory of the
/// stopped mutatee.
pub trait WalkTarget {
    fn reg(&self, r: Reg) -> u64;
    fn read_u64(&self, addr: u64) -> Option<u64>;
}

impl WalkTarget for Process {
    fn reg(&self, r: Reg) -> u64 {
        self.get_reg(r)
    }

    fn read_u64(&self, addr: u64) -> Option<u64> {
        Process::read_u64(self, addr)
    }
}

/// A frame stepper: given the current frame, produce the caller's frame.
/// Steppers are `Send + Sync` so one walker can serve sampling jobs on
/// several threads at once.
pub trait FrameStepper: Send + Sync {
    /// A short identifier for diagnostics.
    fn name(&self) -> &'static str;

    /// Step from `frame` (with `ra_live` true only for the innermost
    /// frame, where the return address may still be in the register).
    fn step(
        &self,
        target: &dyn WalkTarget,
        co: &CodeObject,
        frame: &Frame,
        ra_live: bool,
    ) -> Option<Frame>;
}

/// SP-based stepper driven by stack-height analysis (§3.2.7).
pub struct SpHeightStepper;

impl FrameStepper for SpHeightStepper {
    fn name(&self) -> &'static str {
        "sp-height"
    }

    fn step(
        &self,
        target: &dyn WalkTarget,
        co: &CodeObject,
        frame: &Frame,
        ra_live: bool,
    ) -> Option<Frame> {
        let f = co.function_containing(frame.pc)?;
        let sh = StackHeight::analyze(f);
        let info = sh.frame_at(f, frame.pc);
        let Height::Known(h) = info.height else {
            return None;
        };
        let entry_sp = frame.sp.wrapping_add(h as u64);
        let ra = match info.ra_slot {
            Some(off) => target.read_u64(entry_sp.wrapping_add(off as u64))?,
            None if ra_live => target.reg(Reg::X1),
            None => return None,
        };
        if ra == 0 {
            return None;
        }
        Some(mk_frame(co, ra, entry_sp))
    }
}

/// Frame-pointer chain stepper: `s0` points just above the frame;
/// `[fp-8] = ra`, `[fp-16] = caller s0` (the standard gcc layout when
/// `-fno-omit-frame-pointer`).
pub struct FpStepper;

impl FrameStepper for FpStepper {
    fn name(&self) -> &'static str {
        "frame-pointer"
    }

    fn step(
        &self,
        target: &dyn WalkTarget,
        co: &CodeObject,
        frame: &Frame,
        _ra_live: bool,
    ) -> Option<Frame> {
        // Innermost frame: the live register holds this frame's fp.
        // Outer frames: the chain value recovered from `[fp-16]` below —
        // the live register belongs to the innermost function only.
        let fp = frame.fp.unwrap_or_else(|| target.reg(Reg::X8));
        if fp <= frame.sp || fp - frame.sp > 1 << 20 {
            return None; // s0 is clearly not a frame pointer here
        }
        let ra = target.read_u64(fp.wrapping_sub(8))?;
        if ra == 0 {
            return None;
        }
        let caller_fp = target.read_u64(fp.wrapping_sub(16))?;
        let mut fr = mk_frame(co, ra, fp);
        fr.fp = Some(caller_fp);
        Some(fr)
    }
}

fn mk_frame(co: &CodeObject, pc: u64, sp: u64) -> Frame {
    let f = co.function_containing(pc);
    Frame {
        pc,
        sp,
        func_entry: f.map(|f| f.entry),
        func_name: f.and_then(|f| f.name.clone()),
        fp: None,
    }
}

/// The walker: an ordered stepper pipeline.
pub struct StackWalker {
    steppers: Vec<Box<dyn FrameStepper>>,
    max_frames: usize,
    /// Optional pc translation applied before frame resolution — used to
    /// map patch-area (relocated) addresses back to original code when
    /// walking an *instrumented* process (PatchAPI's `RelocationIndex`).
    translate: Option<Box<dyn Fn(u64) -> u64 + Send + Sync>>,
}

// A fleet profiler shares one walker across its sampling jobs; this
// fails to compile if a stepper or the translator loses `Send + Sync`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StackWalker>();
};

impl Default for StackWalker {
    fn default() -> StackWalker {
        StackWalker {
            steppers: vec![Box::new(SpHeightStepper), Box::new(FpStepper)],
            max_frames: 1024,
            translate: None,
        }
    }
}

impl StackWalker {
    pub fn new() -> StackWalker {
        StackWalker::default()
    }

    /// Replace the stepper pipeline (plugin architecture, §3.2.7).
    pub fn with_steppers(steppers: Vec<Box<dyn FrameStepper>>) -> StackWalker {
        StackWalker {
            steppers,
            max_frames: 1024,
            translate: None,
        }
    }

    /// Install a pc translator (e.g.
    /// `move |pc| reloc_index.to_original(pc)`) so walks through
    /// instrumented code resolve frames against the original binary.
    pub fn with_translation(
        mut self,
        f: impl Fn(u64) -> u64 + Send + Sync + 'static,
    ) -> StackWalker {
        self.translate = Some(Box::new(f));
        self
    }

    fn xlate(&self, pc: u64) -> u64 {
        match &self.translate {
            Some(f) => f(pc),
            None => pc,
        }
    }

    /// Walk the stack of a stopped target. The first frame is the current
    /// pc/sp; walking stops at `_start`-like frames (no known caller).
    pub fn walk(&self, target: &dyn WalkTarget, co: &CodeObject, pc: u64, sp: u64) -> Vec<Frame> {
        let pc = self.xlate(pc);
        let mut frames = vec![mk_frame(co, pc, sp)];
        let mut ra_live = true;
        while frames.len() < self.max_frames {
            let cur = frames.last().unwrap().clone();
            let mut next = None;
            for s in &self.steppers {
                if let Some(fr) = s.step(target, co, &cur, ra_live) {
                    next = Some(fr);
                    break;
                }
            }
            match next {
                Some(mut fr) => {
                    let t = self.xlate(fr.pc);
                    if t != fr.pc {
                        let fp = fr.fp;
                        fr = mk_frame(co, t, fr.sp);
                        fr.fp = fp;
                    }
                    // A frame that doesn't resolve to a known function ends
                    // the walk (returned into runtime scaffolding).
                    let done = fr.func_entry.is_none();
                    frames.push(fr);
                    if done {
                        break;
                    }
                }
                None => break,
            }
            ra_live = false;
        }
        frames
    }

    /// Convenience: walk a stopped [`Process`].
    pub fn walk_process(&self, p: &Process, co: &CodeObject) -> Vec<Frame> {
        self.walk(p, co, p.pc(), p.get_reg(Reg::X2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn_asm::{deep_call_program, fib_program};
    use rvdyn_parse::ParseOptions;
    use rvdyn_proccontrol::Event;

    #[test]
    fn walk_deep_recursion_at_trap() {
        let depth = 12u64;
        let bin = deep_call_program(depth);
        let co = CodeObject::parse(&bin, &ParseOptions::default());
        let mut p = Process::launch(&bin);
        match p.cont().unwrap() {
            Event::Trap(_) => {}
            e => panic!("expected trap, got {e:?}"),
        }
        let frames = StackWalker::new().walk_process(&p, &co);
        // descend × (depth+1), then main, then _start.
        let descend: usize = frames
            .iter()
            .filter(|f| f.func_name.as_deref() == Some("descend"))
            .count();
        assert_eq!(descend, depth as usize + 1, "frames: {frames:?}");
        assert!(frames
            .iter()
            .any(|f| f.func_name.as_deref() == Some("main")));
        let names: Vec<_> = frames.iter().map(|f| f.func_name.clone()).collect();
        assert_eq!(
            names.last().unwrap().as_deref(),
            Some("_start"),
            "walk should reach _start: {names:?}"
        );
    }

    #[test]
    fn walk_mid_function_with_ra_in_register() {
        // Stop at a function entry (prologue not yet run): the return
        // address is still in ra.
        let bin = fib_program(4);
        let co = CodeObject::parse(&bin, &ParseOptions::default());
        let fib = bin.symbol_by_name("fib").unwrap().value;
        let mut p = Process::launch(&bin);
        p.set_breakpoint(fib).unwrap();
        assert!(matches!(p.cont().unwrap(), Event::Breakpoint(_)));
        let frames = StackWalker::new().walk_process(&p, &co);
        assert!(frames.len() >= 3, "fib, main, _start: {frames:?}");
        assert_eq!(frames[0].func_name.as_deref(), Some("fib"));
        assert_eq!(frames[1].func_name.as_deref(), Some("main"));
    }

    #[test]
    fn recursive_frames_counted_exactly() {
        // Break deep inside the recursion and count fib frames.
        let bin = fib_program(5);
        let co = CodeObject::parse(&bin, &ParseOptions::default());
        let fib = bin.symbol_by_name("fib").unwrap().value;
        let mut p = Process::launch(&bin);
        p.set_breakpoint(fib).unwrap();
        // Hit the breakpoint several times: recursion deepens leftwards
        // fib(5)→fib(4)→fib(3)→fib(2): at the 4th hit the stack holds 4
        // fib frames.
        for _ in 0..4 {
            assert!(matches!(p.cont().unwrap(), Event::Breakpoint(_)));
        }
        let frames = StackWalker::new().walk_process(&p, &co);
        let fib_frames = frames
            .iter()
            .filter(|f| f.func_name.as_deref() == Some("fib"))
            .count();
        assert_eq!(fib_frames, 4, "{frames:?}");
    }

    #[test]
    fn custom_stepper_pipeline() {
        // A pipeline with only the FP stepper fails on sp-only code
        // (our programs never maintain s0 as a frame pointer).
        let bin = deep_call_program(3);
        let co = CodeObject::parse(&bin, &ParseOptions::default());
        let mut p = Process::launch(&bin);
        assert!(matches!(p.cont().unwrap(), Event::Trap(_)));
        let w = StackWalker::with_steppers(vec![Box::new(FpStepper)]);
        let frames = w.walk_process(&p, &co);
        assert_eq!(frames.len(), 1, "FP stepper alone cannot walk sp-only code");
        // The default pipeline succeeds (sp-height stepper first).
        let frames = StackWalker::new().walk_process(&p, &co);
        assert!(frames.len() > 3);
    }
}

#[cfg(test)]
mod instrumented_walk_tests {
    use super::*;
    use rvdyn_parse::ParseOptions;
    use rvdyn_proccontrol::Event;

    #[test]
    fn walk_through_instrumented_code_with_translation() {
        // Instrument `descend` per-block (relocating it into the patch
        // area), run to its own `ebreak` — which now executes at a
        // PATCH-AREA pc — and walk the stack with the relocation
        // translation installed. Without translation the walk dies at
        // frame 0; with it, every recursion level resolves.
        let depth = 9u64;
        let bin = rvdyn_asm::deep_call_program(depth);
        let co = CodeObject::parse(&bin, &ParseOptions::default());
        let desc = bin.symbol_by_name("descend").unwrap().value;

        let mut ins = rvdyn_patch::Instrumenter::new(&bin, &co);
        let counter = ins.alloc_var(8);
        let pts =
            rvdyn_patch::find_points(&co.functions[&desc], rvdyn_patch::PointKind::BlockEntry);
        for p in pts {
            ins.insert(p, rvdyn_codegen::snippet::Snippet::increment(counter));
        }
        let patched = ins.apply().unwrap();

        let mut p = Process::launch(&patched.binary);
        match p.cont().unwrap() {
            Event::Trap(pc) => {
                assert!(
                    patched.reloc_index.is_relocated(pc),
                    "the ebreak must execute inside the relocated copy ({pc:#x})"
                );
            }
            e => panic!("expected trap, got {e:?}"),
        }

        // Untranslated: frame 0 is unresolvable (pc in the patch area).
        let plain = StackWalker::new().walk_process(&p, &co);
        assert!(plain[0].func_name.is_none());

        // Translated: full stack.
        let idx = patched.reloc_index.clone();
        let walker = StackWalker::new().with_translation(move |pc| idx.to_original(pc));
        let frames = walker.walk_process(&p, &co);
        let descend_frames = frames
            .iter()
            .filter(|f| f.func_name.as_deref() == Some("descend"))
            .count();
        assert_eq!(descend_frames, depth as usize + 1, "{frames:#?}");
        assert!(frames
            .iter()
            .any(|f| f.func_name.as_deref() == Some("main")));
    }
}
