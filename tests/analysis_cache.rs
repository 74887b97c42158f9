//! The content-addressed analysis cache: keying is *semantic* (two
//! ELFs that decode to the same code, data and symbols share one cached
//! front half, whatever their section names, alignment padding or
//! non-loadable baggage), misses are *sensitive* (one byte of text is a
//! different program), eviction is bounded, and a warm session built
//! over a shared [`rvdyn::Analysis`] is bit-identical — in output bytes
//! and in telemetry-visible behaviour — to a cold `Session::open`.

mod common;

use common::{ProgramStrategy, Stmt};
use proptest::prelude::*;
use rvdyn::telemetry::CollectSink;
use rvdyn::{
    AnalysisCache, AnalysisKey, BinaryEditor, CounterPlacement, ParseOptions, PointKind, Session,
    SessionOptions, Snippet, TelemetryEvent,
};
use rvdyn_symtab::{Binary, Section};
use std::sync::Arc;

/// A fixed structured program used by the deterministic tests.
fn base_stmts() -> Vec<Stmt> {
    vec![
        Stmt::Block,
        Stmt::Loop(vec![Stmt::If(vec![Stmt::Block], vec![Stmt::Block])]),
        Stmt::Block,
    ]
}

/// Cosmetically reshape a binary without changing its semantics:
/// rename every section, change alignment (and therefore file
/// padding), reorder the section table, and bolt on a non-allocatable
/// note section. `Binary::parse` sees a very different file;
/// [`AnalysisKey`] must not.
fn cosmetic_variant(mut bin: Binary) -> Binary {
    for s in &mut bin.sections {
        s.name = format!(".renamed{}", s.name.replace('.', "_"));
        s.addralign *= 2;
    }
    bin.sections.reverse();
    bin.sections.push(Section {
        name: ".comment".to_string(),
        sh_type: rvdyn_symtab::elf::SHT_PROGBITS,
        flags: 0, // not SHF_ALLOC: never mapped, never hashed
        addr: 0,
        data: b"built by a different toolchain entirely".to_vec(),
        addralign: 1,
    });
    bin
}

#[test]
fn cosmetic_elf_variants_hit_the_same_cache_entry() {
    let base = common::stmt_program(&base_stmts(), 7);
    let variant = cosmetic_variant(base.clone());
    let elf_a = base.to_bytes().unwrap();
    let elf_b = variant.to_bytes().unwrap();
    assert_ne!(
        elf_a, elf_b,
        "the variant must be a genuinely different file"
    );

    let parse = ParseOptions::default();
    assert_eq!(
        AnalysisKey::of(&base, &parse),
        AnalysisKey::of(&variant, &parse),
        "cosmetic reshaping must not move the content key"
    );

    let cache = AnalysisCache::new(8);
    let s1 = Session::open_cached(&elf_a, SessionOptions::default(), &cache).unwrap();
    let s2 = Session::open_cached(&elf_b, SessionOptions::default(), &cache).unwrap();

    assert!(
        Arc::ptr_eq(s1.analysis(), s2.analysis()),
        "both sessions must share the one cached Analysis"
    );
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));

    // The warm session did no front-half work at all...
    assert_eq!(s2.diagnostics().timings.parse_ns, 0);
    assert_eq!(s2.diagnostics().analysis_cache_hits, 1);
    // ...but still reports the shared CFG through its counters.
    assert_eq!(
        s2.diagnostics().functions_parsed,
        s1.diagnostics().functions_parsed
    );
}

#[test]
fn one_byte_text_mutation_misses() {
    let base = common::stmt_program(&base_stmts(), 7);

    // One-byte text mutation that stays decodable: the final `ret`
    // (jalr x0, ra, 0 = 0x00008067) becomes jalr x0, gp, 0
    // (0x00018067) — same opcode, different link register, one byte
    // apart in the image.
    let mut mutated = base.clone();
    let text = mutated
        .sections
        .iter_mut()
        .find(|s| s.is_code())
        .expect("text section");
    let pos = text
        .data
        .windows(4)
        .rposition(|w| w == [0x67, 0x80, 0x00, 0x00])
        .expect("a final ret in text");
    text.data[pos + 2] = 0x01;

    let parse = ParseOptions::default();
    assert_ne!(
        AnalysisKey::of(&base, &parse),
        AnalysisKey::of(&mutated, &parse),
        "one byte of text must move the content key"
    );

    let cache = AnalysisCache::new(8);
    let s1 =
        Session::open_cached(&base.to_bytes().unwrap(), SessionOptions::default(), &cache).unwrap();
    let s2 = Session::open_cached(
        &mutated.to_bytes().unwrap(),
        SessionOptions::default(),
        &cache,
    )
    .unwrap();

    assert!(!Arc::ptr_eq(s1.analysis(), s2.analysis()));
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits, stats.entries), (2, 0, 2));
    assert_eq!(s2.diagnostics().analysis_cache_misses, 1);
    assert_eq!(s2.diagnostics().analysis_cache_hits, 0);
}

#[test]
fn cache_evicts_least_recently_used_at_capacity() {
    let elves: Vec<Vec<u8>> = (0..3)
        .map(|i| {
            common::stmt_program(&base_stmts(), 11 + 10 * i)
                .to_bytes()
                .unwrap()
        })
        .collect();

    let cache = AnalysisCache::new(2);
    let open = |elf: &[u8]| Session::open_cached(elf, SessionOptions::default(), &cache).unwrap();

    open(&elves[0]); // miss, {0}
    open(&elves[1]); // miss, {0,1}
    open(&elves[0]); // hit, refreshes 0
    open(&elves[2]); // miss, evicts 1 (LRU), {0,2}
    let s = open(&elves[0]); // hit: 0 must have survived the eviction
    assert_eq!(s.diagnostics().analysis_cache_hits, 1);
    open(&elves[1]); // miss again: 1 was the one evicted

    let stats = cache.stats();
    assert_eq!(stats.misses, 4, "0, 1, 2, then 1 again");
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.evictions, 2, "1 evicted by 2, then 2 evicted by 1");
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.capacity, 2);
}

#[test]
fn concurrent_sessions_share_one_cached_analysis() {
    let elf = common::stmt_program(&base_stmts(), 21).to_bytes().unwrap();
    let cache = AnalysisCache::new(4);
    // Half the sessions count `work`'s blocks under optimal placement,
    // which reads the function's natural loops: the first such read
    // computes them in the shared analysis, whichever thread makes it.
    let optimal = || SessionOptions::new().counter_placement(CounterPlacement::Optimal);
    let count_blocks = |ed: &mut BinaryEditor| {
        ed.count_blocks("work").unwrap();
        ed.instrumented().unwrap().binary.to_bytes().unwrap()
    };
    let sequential = count_blocks(&mut Session::open_with(&elf, optimal()).unwrap());
    let start = std::sync::Barrier::new(8);

    let (counters, rewrites): (Vec<_>, Vec<_>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (elf, cache, start) = (&elf, &cache, &start);
                scope.spawn(move || {
                    if i % 2 == 1 {
                        let mut ed = BinaryEditor::open_cached(elf, optimal(), cache).unwrap();
                        start.wait();
                        return (None, Some(count_blocks(&mut ed)));
                    }
                    let mut ed =
                        BinaryEditor::open_cached(elf, SessionOptions::default(), cache).unwrap();
                    start.wait();
                    let c = ed.alloc_var(8);
                    let pts = ed.find_points("work", PointKind::FuncEntry).unwrap();
                    ed.insert(&pts, Snippet::increment(c));
                    let out = ed.instrument_and_run(100_000_000).unwrap();
                    assert_eq!(out.exit_code, 0);
                    (Some(out.read_u64(c.addr).unwrap()), None)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).unzip()
    });

    let counters: Vec<u64> = counters.into_iter().flatten().collect();
    assert_eq!(counters, vec![1; 4], "every session saw one call");
    let rewrites: Vec<Vec<u8>> = rewrites.into_iter().flatten().collect();
    assert_eq!(rewrites.len(), 4);
    assert!(
        rewrites.iter().all(|r| *r == sequential),
        "optimal counting on the shared analysis rewrites as a sequential session does"
    );
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, 8);
    assert_eq!(stats.entries, 1, "one binary, one resident analysis");
    assert!(stats.misses >= 1, "someone had to populate the cache");
}

/// Cold path: open the ELF from scratch at `threads`, instrument every
/// block of `work`, rewrite. Returns (bytes, telemetry, session).
fn cold_rewrite(elf: &[u8], threads: usize) -> (Vec<u8>, Vec<TelemetryEvent>, Session) {
    let sink = CollectSink::new();
    let mut s = Session::open_with(
        elf,
        SessionOptions::new()
            .threads(threads)
            .telemetry(sink.clone()),
    )
    .unwrap();
    let bytes = rewrite_work(&mut s);
    (bytes, sink.events(), s)
}

fn rewrite_work(s: &mut Session) -> Vec<u8> {
    let c = s.alloc_var(8);
    let pts = s.find_points("work", PointKind::BlockEntry).unwrap();
    s.insert(&pts, Snippet::increment(c));
    let patched = s.instrumented().unwrap();
    patched.binary.to_bytes().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any structured program, a warm session built from a shared
    /// cached analysis produces bit-identical output to a cold
    /// `Session::open`, at every thread count, with the same
    /// instrument-phase telemetry — while reporting *zero* front-half
    /// time of its own.
    #[test]
    fn warm_from_analysis_matches_cold_open(
        stmts in ProgramStrategy,
        seed in any::<u64>(),
    ) {
        let elf = common::stmt_program(&stmts, seed).to_bytes().unwrap();

        // One shared front half, computed once.
        let cache = AnalysisCache::new(1);
        let shared = Session::open_cached(&elf, SessionOptions::default(), &cache)
            .unwrap()
            .analysis()
            .clone();

        for threads in [1usize, 4] {
            let (cold_bytes, cold_events, cold) = cold_rewrite(&elf, threads);

            let sink = CollectSink::new();
            let mut warm = Session::from_analysis(
                shared.clone(),
                SessionOptions::new().threads(threads).telemetry(sink.clone()),
            );
            let warm_bytes = rewrite_work(&mut warm);

            prop_assert_eq!(&warm_bytes, &cold_bytes, "threads={}", threads);

            // Warm did no front-half work...
            prop_assert_eq!(warm.diagnostics().timings.open_ns, 0);
            prop_assert_eq!(warm.diagnostics().timings.parse_ns, 0);
            // ...yet is telemetry-indistinguishable from the cold
            // session past the open/parse stages, and reports the same
            // parse-shaped counters.
            prop_assert_eq!(
                warm.diagnostics().functions_parsed,
                cold.diagnostics().functions_parsed
            );
            prop_assert_eq!(
                warm.diagnostics().plans_built,
                cold.diagnostics().plans_built
            );
            let back_half = |evs: &[TelemetryEvent]| -> Vec<String> {
                evs.iter()
                    .filter(|e| {
                        matches!(
                            e,
                            TelemetryEvent::PlanBuilt { .. }
                                | TelemetryEvent::PointLowered { .. }
                                | TelemetryEvent::FunctionRelocated { .. }
                                | TelemetryEvent::SpringboardPlanted { .. }
                                | TelemetryEvent::CallRetargeted { .. }
                        )
                    })
                    .map(|e| format!("{e:?}"))
                    .collect()
            };
            prop_assert_eq!(back_half(&sink.events()), back_half(&cold_events));
        }
    }
}
