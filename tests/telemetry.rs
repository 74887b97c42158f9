//! Integration coverage for the instrumentation-session API: the shared
//! `Session` core behind both delivery shells, per-stage wall-clock
//! timing, the telemetry event stream, and the conservative-mode /
//! delivery-verification error paths.

use rvdyn::telemetry::CollectSink;
use rvdyn::{
    BinaryEditor, DynamicInstrumenter, Error, PointKind, SessionOptions, Snippet, Stage,
    TelemetryEvent, TimedStage,
};

// --- shared session core ---------------------------------------------------

#[test]
fn static_and_dynamic_paths_report_identical_counters() {
    // Both entry points are shells over the same Session core, so the
    // parse and instrument counters must agree exactly for the same
    // program and the same insertions.
    let elf = rvdyn_asm::matmul_program(5, 2).to_bytes().unwrap();
    let mut ed = BinaryEditor::open(&elf).unwrap();
    let c1 = ed.alloc_var(8);
    let pts = ed.find_points("matmul", PointKind::BlockEntry).unwrap();
    ed.insert(&pts, Snippet::increment(c1));
    ed.rewrite().unwrap();
    let sd = ed.diagnostics().clone();

    let bin = rvdyn_asm::matmul_program(5, 2);
    let mut dy = DynamicInstrumenter::create(bin);
    let c2 = dy.alloc_var(8);
    let pts = dy.find_points("matmul", PointKind::BlockEntry).unwrap();
    dy.insert(&pts, Snippet::increment(c2));
    dy.commit().unwrap();
    let dd = dy.diagnostics();

    assert_eq!(sd.functions_parsed, dd.functions_parsed);
    assert_eq!(sd.blocks_parsed, dd.blocks_parsed);
    assert_eq!(sd.instructions_decoded, dd.instructions_decoded);
    assert_eq!(sd.unresolved_indirects, dd.unresolved_indirects);
    assert_eq!(sd.points_instrumented, dd.points_instrumented);
    assert_eq!(sd.dead_register_points, dd.dead_register_points);
    assert_eq!(sd.spills, dd.spills);
    assert_eq!(sd.springboards.total(), dd.springboards.total());
    // Both deliveries report their region structure now: the dynamic
    // commit counts coalesced write_mem regions, the static rewrite
    // counts serialised PT_LOAD segments.
    assert!(sd.patch_regions_written > 0);
    assert!(dd.patch_regions_written > 0);
}

#[test]
fn stage_timings_are_populated_and_consistent() {
    let elf = rvdyn_asm::matmul_program(6, 2).to_bytes().unwrap();
    let mut ed = BinaryEditor::open(&elf).unwrap();
    let c = ed.alloc_var(8);
    let pts = ed.find_points("matmul", PointKind::FuncEntry).unwrap();
    ed.insert(&pts, Snippet::increment(c));
    ed.instrument_and_run(1_000_000_000).unwrap();

    let t = ed.diagnostics().timings;
    for (stage, ns) in [
        (TimedStage::Open, t.open_ns),
        (TimedStage::Parse, t.parse_ns),
        (TimedStage::Instrument, t.instrument_ns),
        (TimedStage::Commit, t.commit_ns),
        (TimedStage::Run, t.run_ns),
    ] {
        assert!(ns > 0, "{stage} stage must have nonzero wall-clock");
        assert_eq!(t.get(stage), ns);
    }
    // Relocation is a sub-phase of instrument, never longer than it.
    assert!(t.relocate_ns <= t.instrument_ns);
    // The total covers each top-level stage.
    let total = t.total_ns();
    for ns in [
        t.open_ns,
        t.parse_ns,
        t.instrument_ns,
        t.commit_ns,
        t.run_ns,
    ] {
        assert!(total >= ns);
    }
}

// --- the event stream ------------------------------------------------------

/// A static rewrite counts, and reports, only the segments it writes
/// bytes for: matmul's `.bss` segment is mapped, not written.
#[test]
fn static_rewrite_counts_only_regions_with_file_bytes() {
    let elf = rvdyn_asm::matmul_program(4, 1).to_bytes().unwrap();
    let sink = CollectSink::new();
    let mut ed =
        BinaryEditor::open_with(&elf, SessionOptions::new().telemetry(sink.clone())).unwrap();
    let c = ed.alloc_var(8);
    let pts = ed.find_points("matmul", PointKind::FuncEntry).unwrap();
    ed.insert(&pts, Snippet::increment(c));
    ed.rewrite().unwrap();
    assert_eq!(ed.diagnostics().patch_regions_written, 4);
    let written = |e: &TelemetryEvent| matches!(e, TelemetryEvent::PatchRegionWritten { .. });
    assert_eq!(sink.count(written), 4);
    let empty = |e: &TelemetryEvent| matches!(e, TelemetryEvent::PatchRegionWritten { len: 0, .. });
    assert_eq!(sink.count(empty), 0);
}

#[test]
fn static_pipeline_streams_events_to_the_sink() {
    let elf = rvdyn_asm::matmul_program(5, 1).to_bytes().unwrap();
    let sink = CollectSink::new();
    let mut ed =
        BinaryEditor::open_with(&elf, SessionOptions::new().telemetry(sink.clone())).unwrap();
    let c = ed.alloc_var(8);
    let pts = ed.find_points("matmul", PointKind::BlockEntry).unwrap();
    ed.insert(&pts, Snippet::increment(c));
    ed.instrument_and_run(1_000_000_000).unwrap();

    let d = ed.diagnostics();
    // Stage boundaries arrive paired.
    for stage in [
        TimedStage::Open,
        TimedStage::Parse,
        TimedStage::Instrument,
        TimedStage::Commit,
        TimedStage::Run,
    ] {
        let starts =
            sink.count(|e| matches!(e, TelemetryEvent::StageStart { stage: s } if *s == stage));
        let ends =
            sink.count(|e| matches!(e, TelemetryEvent::StageEnd { stage: s, .. } if *s == stage));
        assert_eq!(starts, 1, "one {stage} start");
        assert_eq!(ends, 1, "one {stage} end");
    }
    // Parse events mirror the parse counters.
    assert_eq!(
        sink.count(|e| matches!(e, TelemetryEvent::FunctionParsed { .. })),
        d.functions_parsed
    );
    // Every instrumented point was reported as it lowered.
    assert_eq!(
        sink.count(|e| matches!(e, TelemetryEvent::PointLowered { .. })),
        d.points_instrumented
    );
    assert_eq!(
        sink.count(|e| matches!(e, TelemetryEvent::SpringboardPlanted { .. })),
        d.springboards.total()
    );
    assert_eq!(
        sink.count(|e| matches!(e, TelemetryEvent::CallRetargeted { .. })),
        d.calls_retargeted
    );
    assert!(sink.count(|e| matches!(e, TelemetryEvent::FunctionRelocated { .. })) > 0);
    // The run loop reported a clean exit.
    assert_eq!(
        sink.count(|e| matches!(e, TelemetryEvent::RunExit { reason: "exited" })),
        1
    );
}

#[test]
fn dynamic_delivery_streams_proc_and_region_events() {
    let bin = rvdyn_asm::matmul_program(4, 1);
    let sink = CollectSink::new();
    let mut dy =
        DynamicInstrumenter::create_with(bin, SessionOptions::new().telemetry(sink.clone()));
    let c = dy.alloc_var(8);
    let pts = dy.find_points("matmul", PointKind::BlockEntry).unwrap();
    dy.insert(&pts, Snippet::increment(c));
    dy.commit().unwrap();
    assert_eq!(dy.run_to_exit().unwrap(), 0);

    // Delivery goes through the observed debug interface…
    assert!(sink.count(|e| matches!(e, TelemetryEvent::MemWritten { .. })) > 0);
    // …as coalesced, verified regions, matching the diagnostics counter.
    assert_eq!(
        sink.count(|e| matches!(e, TelemetryEvent::PatchRegionWritten { .. })),
        dy.diagnostics().patch_regions_written
    );
    assert_eq!(
        sink.count(|e| matches!(e, TelemetryEvent::RunExit { reason: "exited" })),
        1
    );
    // Controller breakpoints stream too.
    let main = dy.code().functions.values().next().unwrap().entry;
    let _ = dy.process_mut().set_breakpoint(main);
    assert_eq!(
        sink.count(|e| matches!(e, TelemetryEvent::BreakpointSet { .. })),
        1
    );
}

// --- conservative mode -----------------------------------------------------

/// A program whose `main` contains a never-taken indirect jump the parser
/// cannot resolve (no jump-table pattern behind it).
fn program_with_unresolved_indirect() -> rvdyn::Binary {
    use rvdyn_isa::Reg;
    use rvdyn_symtab::{
        Section, Symbol, SymbolBinding, SymbolKind, SHF_ALLOC, SHF_EXECINSTR, SHF_WRITE,
    };
    let mut a = rvdyn_asm::Assembler::new(0x1_0000);
    let l_main = a.label();
    a.call(l_main);
    a.li(Reg::x(17), 93);
    a.ecall();
    a.bind(l_main);
    let main_addr = a.here();
    let l_done = a.label();
    a.beq(Reg::X0, Reg::X0, l_done); // always skip the indirect jump
    a.jalr(Reg::X0, Reg::x(10), 0); // parsed, never executed, unresolvable
    a.bind(l_done);
    a.ret();
    let main_size = a.here() - main_addr;
    let code = a.finish().unwrap();
    let profile = rvdyn_isa::IsaProfile::rv64gc();
    rvdyn::Binary {
        entry: 0x1_0000,
        e_flags: rvdyn::Binary::eflags_for(profile),
        e_type: rvdyn_symtab::elf::ET_EXEC,
        sections: vec![
            Section::progbits(".text", 0x1_0000, SHF_ALLOC | SHF_EXECINSTR, code),
            Section::progbits(".data", 0x2_0000, SHF_ALLOC | SHF_WRITE, vec![0; 8]),
        ],
        symbols: vec![Symbol {
            name: "main".into(),
            value: main_addr,
            size: main_size,
            kind: SymbolKind::Function,
            binding: SymbolBinding::Global,
        }],
        attributes: Some(rvdyn_symtab::RiscvAttributes::for_profile(profile)),
    }
}

#[test]
fn conservative_mode_refuses_unresolved_indirects() {
    let bin = program_with_unresolved_indirect();

    // Conservative session: refuse to relocate.
    let mut ed =
        BinaryEditor::from_binary(bin.clone(), SessionOptions::new().allow_unresolved(false));
    assert!(ed.diagnostics().unresolved_indirects > 0);
    let c = ed.alloc_var(8);
    let pts = ed.find_points("main", PointKind::FuncEntry).unwrap();
    let func = pts[0].func;
    ed.insert(&pts, Snippet::increment(c));
    match ed.instrumented() {
        Err(Error::UnresolvedIndirects { func: f, count }) => {
            assert_eq!(f, func);
            assert!(count > 0);
        }
        other => panic!("expected UnresolvedIndirects, got {other:?}"),
    }
    let err = ed.instrumented().unwrap_err();
    assert_eq!(err.stage(), Stage::Instrument);
    assert_eq!(err.pc(), Some(func));

    // Default (permissive) session: same insertions go through, and the
    // instrumented program still runs — the indirect path is never taken.
    let mut ed = BinaryEditor::from_binary(bin, SessionOptions::default());
    let c = ed.alloc_var(8);
    let pts = ed.find_points("main", PointKind::FuncEntry).unwrap();
    ed.insert(&pts, Snippet::increment(c));
    let out = ed.rewrite().unwrap();
    let r = rvdyn::run_elf(&out, 10_000_000).unwrap();
    assert_eq!(r.exit_code, 0);
    assert_eq!(r.read_u64(c.addr), Some(1));
}

// --- redirect misses -------------------------------------------------------

#[test]
fn static_redirect_miss_is_typed_not_generic() {
    use rvdyn_symtab::{Section, SHF_ALLOC, SHF_EXECINSTR};
    // A binary whose entry is a bare ebreak while its trap table redirects
    // a *different* address: the run must report the miss, with the pc.
    let mut a = rvdyn_asm::Assembler::new(0x1_0000);
    a.ebreak();
    let code = a.finish().unwrap();
    let profile = rvdyn_isa::IsaProfile::rv64gc();
    let mut traps = Vec::new();
    traps.extend_from_slice(&0x9999_0000u64.to_le_bytes()); // from: elsewhere
    traps.extend_from_slice(&0x9999_0004u64.to_le_bytes()); // to
    let bin = rvdyn::Binary {
        entry: 0x1_0000,
        e_flags: rvdyn::Binary::eflags_for(profile),
        e_type: rvdyn_symtab::elf::ET_EXEC,
        sections: vec![
            Section::progbits(".text", 0x1_0000, SHF_ALLOC | SHF_EXECINSTR, code),
            Section::progbits(".rvdyn.traps", 0x9000_0000, SHF_ALLOC, traps),
        ],
        symbols: vec![],
        attributes: Some(rvdyn_symtab::RiscvAttributes::for_profile(profile)),
    };
    match rvdyn::run_binary(&bin, 1_000) {
        Err(Error::RedirectMiss { pc }) => assert_eq!(pc, 0x1_0000),
        Err(other) => panic!("expected RedirectMiss, got {other:?}"),
        Ok(_) => panic!("expected RedirectMiss, got a clean exit"),
    }
    let err = match rvdyn::run_binary(&bin, 1_000) {
        Err(e) => e,
        Ok(_) => unreachable!(),
    };
    assert_eq!(err.stage(), Stage::Run);
    assert_eq!(err.pc(), Some(0x1_0000));

    // The same trap in a binary with NO redirect table is the mutatee's
    // own ebreak — still the generic unclean exit, not a miss.
    let mut a = rvdyn_asm::Assembler::new(0x1_0000);
    a.ebreak();
    let code = a.finish().unwrap();
    let plain = rvdyn::Binary {
        entry: 0x1_0000,
        e_flags: rvdyn::Binary::eflags_for(profile),
        e_type: rvdyn_symtab::elf::ET_EXEC,
        sections: vec![Section::progbits(
            ".text",
            0x1_0000,
            SHF_ALLOC | SHF_EXECINSTR,
            code,
        )],
        symbols: vec![],
        attributes: Some(rvdyn_symtab::RiscvAttributes::for_profile(profile)),
    };
    assert!(matches!(
        rvdyn::run_binary(&plain, 1_000),
        Err(Error::UncleanExit { .. })
    ));
}

#[test]
fn static_own_ebreak_in_patch_code_is_an_unclean_exit() {
    // Block counters in every function relocate the leaf's own `ebreak`
    // into `.rvdyn.text` while trap springboards install redirects. The
    // patch code holds no springboards, so the trap is the mutatee's own,
    // reported as it is without instrumentation.
    let bin = rvdyn_asm::nested_call_program(&[16, 32, 0], false);
    let own = |r: &Result<rvdyn::RunOutput, Error>| matches!(r, Err(Error::UncleanExit { reason, .. }) if reason.contains("breakpoint"));
    assert!(own(&rvdyn::run_binary(&bin, 1_000_000)));

    let mut ed = BinaryEditor::from_binary(bin, SessionOptions::new());
    let names: Vec<String> = ed
        .code()
        .functions
        .values()
        .filter_map(|f| f.name.clone())
        .collect();
    for name in &names {
        ed.count_blocks(name).unwrap();
    }
    let elf = ed.rewrite().unwrap();
    let patched = rvdyn::Binary::parse(&elf).unwrap();
    assert!(patched.section_by_name(".rvdyn.traps").is_some());
    let text = patched.section_by_name(".rvdyn.text").unwrap();
    let r = rvdyn::run_elf(&elf, 1_000_000);
    assert!(own(&r), "{:?}", r.as_ref().err());
    let pc = r.err().and_then(|e| e.pc()).unwrap();
    assert!((text.addr..text.addr + text.data.len() as u64).contains(&pc));
}

#[test]
fn each_run_end_has_one_run_exit_label_on_both_deliveries() {
    // `li a0, 5` and then an all-zero word (a `MutateeFault`), or `li a0,
    // 5; ebreak` (an `UncleanExit`): each end reads one label, through
    // the static run and the live run alike, on both engines.
    use rvdyn_isa::Reg;
    let mutatee = |ebreak: bool| {
        let mut a = rvdyn_asm::Assembler::new(0x1_0000);
        a.li(Reg::x(10), 5);
        if ebreak {
            a.ebreak();
        }
        let mut code = a.finish().unwrap();
        if !ebreak {
            code.extend([0u8; 4]);
        }
        let mut bin = rvdyn_asm::fib_program(1);
        bin.entry = 0x1_0000;
        let flags = rvdyn_symtab::SHF_ALLOC | rvdyn_symtab::SHF_EXECINSTR;
        bin.sections = vec![rvdyn_symtab::Section::progbits(
            ".text", 0x1_0000, flags, code,
        )];
        bin.symbols.clear();
        bin
    };
    let exits = |sink: &CollectSink| -> Vec<&'static str> {
        let events = sink.events();
        let reasons = events.iter().filter_map(|e| match e {
            TelemetryEvent::RunExit { reason } => Some(*reason),
            _ => None,
        });
        reasons.collect()
    };
    for (ebreak, label) in [(false, "mutatee-fault"), (true, "unclean-exit")] {
        for engine in [rvdyn::EmuEngine::Interpreter, rvdyn::EmuEngine::Cached] {
            let sink = CollectSink::new();
            let opts = SessionOptions::new().engine(engine).telemetry(sink.clone());
            let mut ed = BinaryEditor::from_binary(mutatee(ebreak), opts);
            assert!(ed.instrument_and_run(1_000).is_err());
            assert_eq!(exits(&sink), [label], "static run, {engine:?}");

            let sink = CollectSink::new();
            let opts = SessionOptions::new().engine(engine).telemetry(sink.clone());
            let mut dy = DynamicInstrumenter::create_with(mutatee(ebreak), opts);
            assert!(dy.run_to_exit().is_err());
            assert_eq!(exits(&sink), [label], "live run, {engine:?}");
        }
    }
}

// --- error taxonomy + JSON -------------------------------------------------

#[test]
fn delivery_errors_carry_stage_and_address() {
    let e = Error::PatchVerifyFailed { addr: 0x420 };
    assert_eq!(e.stage(), Stage::Instrument);
    assert_eq!(e.pc(), Some(0x420));
    assert!(e.to_string().contains("0x420"));

    let e = Error::RedirectMiss { pc: 0x1234 };
    assert!(e.to_string().contains("0x1234"));
}

#[test]
fn diagnostics_json_round_trips_a_real_pipeline() {
    let elf = rvdyn_asm::matmul_program(4, 1).to_bytes().unwrap();
    let mut ed = BinaryEditor::open(&elf).unwrap();
    let c = ed.alloc_var(8);
    let pts = ed.find_points("matmul", PointKind::FuncEntry).unwrap();
    ed.insert(&pts, Snippet::increment(c));
    ed.instrument_and_run(1_000_000_000).unwrap();
    let j = ed.diagnostics().to_json();
    for key in [
        "\"schema\":\"rvdyn-diagnostics-v1\"",
        "\"parse\":",
        "\"instrument\":",
        "\"run\":",
        "\"timings_ns\":",
    ] {
        assert!(j.contains(key), "JSON missing {key}: {j}");
    }
    // Timings in the JSON are the live ones, not zeros.
    assert!(!j.contains("\"run\":{\"instret\":0"));
}

// --- the documented schema -------------------------------------------------

/// The first backticked cell of each table row between a doc's
/// `<!-- {marker}:start -->` and `<!-- {marker}:end -->` lines.
fn doc_column(doc: &str, marker: &str) -> Vec<String> {
    let block = doc
        .split_once(&format!("<!-- {marker}:start -->"))
        .and_then(|(_, rest)| rest.split_once(&format!("<!-- {marker}:end -->")))
        .unwrap_or_else(|| panic!("no {marker} markers"))
        .0;
    block
        .lines()
        .filter_map(|l| Some(l.strip_prefix("| `")?.split_once('`')?.0.to_string()))
        .collect()
}

fn assert_column(doc: &str, marker: &str, expected: Vec<String>) {
    let column: String = expected.iter().map(|k| format!("| `{k}` |\n")).collect();
    assert_eq!(
        doc_column(doc, marker),
        expected,
        "the {marker} table must list these keys, in this order:\n{column}"
    );
}

#[test]
fn documented_keys_and_events_match_the_code() {
    use rvdyn::fleet::{FLEET_KEYS, PROCESS_KEYS};
    let diagnostics = include_str!("../docs/DIAGNOSTICS.md");
    let schema = ["schema"]
        .into_iter()
        .chain(rvdyn::diag::KEYS.iter().map(|k| k.0));
    assert_column(
        diagnostics,
        "schema-keys",
        schema.map(String::from).collect(),
    );
    let per_process = PROCESS_KEYS.iter().map(|k| k.0).chain(["diagnostics"]);
    let fleet = FLEET_KEYS.iter().map(|k| k.0.to_string());
    let fleet = fleet.chain(per_process.map(|k| format!("per_process[].{k}")));
    assert_column(diagnostics, "fleet-keys", fleet.collect());

    // EMULATOR.md names the telemetry events the execution engine emits.
    let events = [
        TelemetryEvent::BlockTranslated { pc: 0, insts: 0 },
        TelemetryEvent::BlockInvalidated { pc: 0 },
    ];
    let names = events.iter().map(|ev| {
        let debug = format!("{ev:?}");
        debug.split([' ', '{']).next().unwrap().to_string()
    });
    assert_column(
        include_str!("../docs/EMULATOR.md"),
        "emu-events",
        names.collect(),
    );
}
