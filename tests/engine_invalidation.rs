//! Precise invalidation of the DBT translation cache under the dynamic
//! instrumentation path (docs/EMULATOR.md §"Invalidation"): springboard
//! patches delivered through the debug interface land in basic blocks
//! the cached engine has *already* translated and chained, and both the
//! direct-jump and trap-springboard redirect paths must take effect on
//! the very next execution — never a stale cached step. The FaultPlan
//! corrupt-write case pins the same hook for torn deliveries.

use rvdyn::telemetry::{CollectSink, TelemetryEvent};
use rvdyn::{
    BinaryEditor, DynamicInstrumenter, EmuEngine, Error, Event, FaultPlan, PointKind, Process,
    SessionOptions, Snippet,
};
use rvdyn_asm::{matmul_program, tiny_indirect_program};
use rvdyn_emu::{EmuEvent, TIER_UP};

/// Breakpoint hits at `matmul`'s entry that leave its blocks hot: the
/// body has then run `TIER_UP + 1` times, so every block it enters on
/// each call is past the cached engine's tier-up.
const HOT_HITS: usize = TIER_UP as usize + 2;

/// Warm a process's translation cache by running it to the `nth` hit of
/// a breakpoint at `addr` (the function body before `addr`'s nth visit
/// has then executed n-1 times — translated, chained, hot).
fn warm_to(p: &mut Process, addr: u64, hits: usize) {
    p.set_breakpoint(addr).unwrap();
    for _ in 0..hits {
        match p.cont().unwrap() {
            Event::Breakpoint(at) => assert_eq!(at, addr),
            other => panic!("expected breakpoint during warmup, got {other:?}"),
        }
    }
    p.remove_breakpoint(addr).unwrap();
}

/// Springboard writes into a hot cached block: warm the mutatee under an
/// engine until `matmul`'s blocks are hot and translated, then attach and commit
/// jump springboards *into those blocks* and finish the run. The counter
/// must come out identical on both engines, and the cached engine must
/// report invalidations for the patched blocks.
#[test]
fn springboard_write_into_hot_block_redirects_on_both_engines() {
    let reps = HOT_HITS + 4;
    let mut counters = Vec::new();
    for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
        let bin = matmul_program(5, reps);
        let mm = bin.symbol_by_name("matmul").unwrap().value;
        let mut p = Process::launch(&bin);
        p.machine_mut().engine = engine;
        // TIER_UP + 1 full executions of matmul's body: its blocks are
        // translated and chained before instrumentation exists.
        warm_to(&mut p, mm, HOT_HITS);
        if engine == EmuEngine::Cached {
            assert!(
                p.machine().emu_blocks_translated() > 0,
                "warmup must have populated the translation cache"
            );
        }

        let mut dy = DynamicInstrumenter::attach_with(bin, p, SessionOptions::new().engine(engine));
        let counter = dy.alloc_var(8);
        let pts = dy.find_points("matmul", PointKind::FuncEntry).unwrap();
        dy.insert(&pts, Snippet::increment(counter));
        dy.commit().unwrap();
        if engine == EmuEngine::Cached {
            assert!(
                dy.process().machine().emu_invalidations() > 0,
                "committing springboards into hot blocks must invalidate them"
            );
        }
        assert_eq!(dy.run_to_exit().unwrap(), 0);
        counters.push(dy.read_var(counter).unwrap());
        // The redirect was taken on the remaining calls, through freshly
        // re-decoded blocks — the counter saw every post-commit entry.
        assert!(counters.last().copied().unwrap() > 0);
    }
    assert_eq!(
        counters[0], counters[1],
        "engines disagree on post-patch entry counts: {counters:?}"
    );
}

/// Same shape through the *trap* springboard path: the 2-byte `tiny`
/// function forces an ebreak springboard, and `main` calls it through a
/// register, so every post-commit call resolves through the trap-redirect
/// table — inside the cached engine's
/// block dispatcher, not the interpreter loop. Two warmups: *cold* stops
/// at `tiny`'s 5th entry, so its block is still interpreted; *hot* stops
/// at the call's return site after `TIER_UP + 2` calls, so the commit's
/// springboard lands in `tiny`'s translated block and kills it.
#[test]
fn trap_springboard_into_hot_block_resolves_on_both_engines() {
    let iters = 40u64;
    let bin = tiny_indirect_program(iters);
    let tiny = bin.symbol_by_name("tiny").unwrap().value;
    let return_site = BinaryEditor::open(&bin.to_bytes().unwrap())
        .unwrap()
        .find_points("main", PointKind::PostCall)
        .unwrap()[0]
        .addr;
    // (form, breakpoint, hits, calls the counter sees after the warmup)
    let hot_hits = TIER_UP as usize + 2;
    let forms = [
        ("cold", tiny, 5usize, iters - 5 + 1),
        ("hot", return_site, hot_hits, iters - hot_hits as u64),
    ];
    let translated_at_tiny = |evs: &[EmuEvent]| {
        evs.iter()
            .any(|e| matches!(e, EmuEvent::BlockTranslated { pc, .. } if *pc == tiny))
    };
    for (form, at, warm_hits, counted) in forms {
        let mut counters = Vec::new();
        for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
            let bin = tiny_indirect_program(iters);
            let mut p = Process::launch(&bin);
            p.machine_mut().engine = engine;
            warm_to(&mut p, at, warm_hits);
            let hot = form == "hot" && engine == EmuEngine::Cached;
            if hot {
                let evs = p.machine_mut().take_emu_events();
                assert!(translated_at_tiny(&evs), "tiny must be translated");
            }

            let sink = CollectSink::new();
            let opts = SessionOptions::new().engine(engine).telemetry(sink.clone());
            let mut dy = DynamicInstrumenter::attach_with(bin, p, opts);
            let counter = dy.alloc_var(8);
            let pts = dy.find_points("tiny", PointKind::FuncEntry).unwrap();
            dy.insert(&pts, Snippet::increment(counter));
            dy.commit().unwrap();
            assert!(
                dy.process().machine().trap_redirects.contains_key(&tiny),
                "tiny must use the trap springboard"
            );
            if hot {
                let evs = dy.process_mut().machine_mut().take_emu_events();
                assert!(
                    evs.iter()
                        .any(|e| matches!(e, EmuEvent::BlockInvalidated { pc } if *pc == tiny)),
                    "the springboard must kill tiny's translated block"
                );
            }
            assert_eq!(dy.run_to_exit().unwrap(), 0, "{form}");
            if hot {
                // The springboard block itself tiers up after the commit,
                // so later redirects resolve in translated code.
                assert!(
                    sink.events().iter().any(|e| matches!(
                        e,
                        TelemetryEvent::BlockTranslated { pc, .. } if *pc == tiny
                    )),
                    "the springboard must be translated"
                );
            }
            counters.push(dy.read_var(counter).unwrap());
        }
        assert_eq!(
            counters[0], counters[1],
            "{form}: engines disagree on trap-redirect counts: {counters:?}"
        );
        // Exactly the calls made after the warmup stop are counted.
        assert_eq!(counters[0], counted, "{form}");
    }
}

/// A FaultPlan-corrupted patch write still goes through the machine's
/// invalidation hook: the torn bytes kill every overlapping cached
/// block, so the engine re-decodes rather than executing stale steps —
/// pinned by arming `verify_translations`, whose coherence assertion
/// would trip if a stale block survived the corrupt write.
#[test]
fn corrupt_write_invalidates_hot_cached_blocks() {
    let bin = matmul_program(5, HOT_HITS + 4);
    let mm = bin.symbol_by_name("matmul").unwrap().value;
    let mut p = Process::launch(&bin);
    p.machine_mut().engine = EmuEngine::Cached;
    p.machine_mut().verify_translations = true;
    warm_to(&mut p, mm, HOT_HITS);
    let warm_blocks = p.machine().emu_blocks_translated();
    assert!(warm_blocks > 0);

    // Write 0 is the first patch region: `main`'s rewritten call to
    // `matmul`, in a block the warmup made hot.
    let plan = FaultPlan::new().corrupt_write(0, 0);
    p.set_fault_plan(plan);
    let mut dy =
        DynamicInstrumenter::attach_with(bin, p, SessionOptions::new().engine(EmuEngine::Cached));
    let counter = dy.alloc_var(8);
    let pts = dy.find_points("matmul", PointKind::FuncEntry).unwrap();
    dy.insert(&pts, Snippet::increment(counter));
    // The corrupted region fails read-back verification…
    assert!(matches!(dy.commit(), Err(Error::PatchVerifyFailed { .. })));
    // …but the bytes *were* delivered, and the invalidation hook killed
    // the overlapping cached blocks — the coherence invariant holds even
    // for torn writes the commit refused.
    assert!(
        dy.process().machine().emu_invalidations() > 0,
        "corrupt write must invalidate overlapping cached blocks"
    );
    assert_eq!(dy.diagnostics().faults_injected, 1);
}
