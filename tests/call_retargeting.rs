//! Direct calls enter a relocated function's copy without the springboard
//! hop. A call relocated with its caller (recursion included) is emitted
//! against the callee's relocated entry, and a 4-byte `jal` call site in
//! original code is rewritten in place, so an entry counter costs only
//! the counter on every direct call. The springboard stays planted for
//! indirect calls, and removal restores the rewritten sites with the
//! springboards. These tests pin that contract on both engines, on the
//! static and the live path.

use rvdyn::telemetry::{CollectSink, TelemetryEvent};
use rvdyn::{
    Binary, BinaryEditor, DynamicInstrumenter, EmuEngine, Event, FaultPlan, PointKind,
    SessionOptions, Snippet, Var,
};
use rvdyn_asm::{fib_program, matmul_program, tiny_function_program};

const ENGINES: [EmuEngine; 2] = [EmuEngine::Interpreter, EmuEngine::Cached];

/// Modelled cycles of a `lui; ld; addi; sd` entry counter.
const COUNTER_CYCLES: u64 = 6;

/// Cycles of an uninstrumented run of `bin`.
fn base_cycles(bin: &Binary, engine: EmuEngine) -> u64 {
    let elf = bin.to_bytes().unwrap();
    let r = rvdyn::run_elf_with(&elf, 1_000_000_000, engine).unwrap();
    assert_eq!(r.exit_code, 0);
    r.cycles
}

/// (cycles, count) of a static rewrite of `bin` with an entry counter on
/// `func`.
fn static_entry_count(bin: &Binary, func: &str, engine: EmuEngine) -> (u64, u64) {
    let opts = SessionOptions::new().engine(engine);
    let mut ed = BinaryEditor::from_binary(bin.clone(), opts);
    let c = ed.alloc_var(8);
    ed.insert(
        &ed.find_points(func, PointKind::FuncEntry).unwrap(),
        Snippet::increment(c),
    );
    let r = ed.instrument_and_run(1_000_000_000).unwrap();
    assert_eq!(r.exit_code, 0);
    assert!(ed.diagnostics().calls_retargeted >= 1, "{func}");
    (r.cycles, r.read_u64(c.addr).unwrap())
}

/// As [`static_entry_count`], committed into a live process.
fn live_entry_count(bin: &Binary, func: &str, engine: EmuEngine) -> (u64, u64) {
    let opts = SessionOptions::new().engine(engine);
    let mut dy = DynamicInstrumenter::create_with(bin.clone(), opts);
    let c = commit_entry_counter(&mut dy, func);
    assert_eq!(dy.run_to_exit().unwrap(), 0);
    assert!(dy.diagnostics().calls_retargeted >= 1, "{func}");
    (dy.diagnostics().cycles, dy.read_var(c).unwrap())
}

/// An entry counter on recursive `fib` (entered from `main` and from
/// its own copy) and on directly called `tiny` (a 2-byte function whose
/// springboard is a trap) costs exactly the counter per counted call:
/// no springboard, no trap, and no far-call glue on any direct call.
#[test]
fn entry_counting_costs_only_the_counter_on_direct_calls() {
    let iters = 40;
    let cases = [
        ("fib", fib_program(10), 177),
        ("tiny", tiny_function_program(iters), iters),
    ];
    for (func, bin, calls) in cases {
        for engine in ENGINES {
            let base = base_cycles(&bin, engine);
            for (path, (cycles, count)) in [
                ("static", static_entry_count(&bin, func, engine)),
                ("live", live_entry_count(&bin, func, engine)),
            ] {
                assert_eq!(count, calls, "{func} {path} {engine:?}");
                assert_eq!(
                    cycles - base,
                    COUNTER_CYCLES * count,
                    "{func} {path} {engine:?}: base {base}, instrumented {cycles}"
                );
            }
        }
    }
}

/// The trap springboard stays planted at `tiny`'s entry, for indirect
/// calls, but the direct calls never reach it: with the first redirect
/// resolution dropped, the run still exits cleanly and counts every call.
#[test]
fn direct_calls_never_resolve_the_planted_trap() {
    let iters = 50;
    for engine in ENGINES {
        let bin = tiny_function_program(iters);
        let tiny = bin.symbol_by_name("tiny").unwrap().value;
        let opts = SessionOptions::new().engine(engine);
        let mut dy = DynamicInstrumenter::create_with(bin, opts);
        dy.process_mut()
            .set_fault_plan(FaultPlan::new().drop_redirect(0));
        let c = commit_entry_counter(&mut dy, "tiny");
        assert!(dy.process().machine().trap_redirects.contains_key(&tiny));
        assert_eq!(dy.run_to_exit().unwrap(), 0, "{engine:?}");
        assert_eq!(dy.read_var(c), Some(iters), "{engine:?}");
        let d = dy.diagnostics();
        assert_eq!(d.springboards.trap, 1, "{engine:?}");
        assert_eq!(d.calls_retargeted, 1, "{engine:?}: main's jal tiny");
        assert_eq!(d.faults_injected, 0, "{engine:?}: no redirect resolved");
    }
}

/// The text section of `bin` as the process under `dy` holds it now.
fn live_text(dy: &DynamicInstrumenter, bin: &Binary) -> Vec<u8> {
    let text = bin.section_by_name(".text").unwrap();
    dy.process().read_mem(text.addr, text.data.len()).unwrap()
}

/// Removal restores every call site a commit rewrote along with the
/// springboards: the text reads back the input's bytes, and the process
/// then runs its original code and counts nothing.
#[test]
fn removal_restores_rewritten_call_sites() {
    for engine in ENGINES {
        let bin = fib_program(8);
        let main = bin.symbol_by_name("main").unwrap().value;
        let sink = CollectSink::new();
        let opts = SessionOptions::new().engine(engine).telemetry(sink.clone());
        let mut dy = DynamicInstrumenter::create_with(bin.clone(), opts);
        let c = commit_entry_counter(&mut dy, "fib");
        let main_size = bin.symbol_by_name("main").unwrap().size;
        let rewritten: Vec<u64> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::CallRetargeted { site, .. } => Some(*site),
                _ => None,
            })
            .filter(|site| (main..main + main_size).contains(site))
            .collect();
        assert_eq!(rewritten.len(), 1, "{engine:?}: main's jal fib");
        let original = bin.section_by_name(".text").unwrap().data.clone();
        assert_ne!(live_text(&dy, &bin), original, "{engine:?}");

        dy.remove_instrumentation();
        assert_eq!(live_text(&dy, &bin), original, "{engine:?}");
        assert_eq!(dy.run_to_exit().unwrap(), 0, "{engine:?}");
        assert_eq!(dy.read_var(c), Some(0), "{engine:?}");
    }
}

/// Resume the process under `dy` in short legs until `var` reads `n`,
/// then step until the pc is in the relocated copy of the function at
/// `entry`.
fn stop_in_relocated(dy: &mut DynamicInstrumenter, var: Var, n: u64, entry: u64) {
    let index = dy.reloc_index().clone();
    let f = &dy.analysis().code().functions[&entry];
    let (lo, hi) = f.extent();
    let p = dy.process_mut();
    let mut leg = 100;
    loop {
        let now = p.machine().cycles;
        p.machine_mut().stop_at_cycles = Some(now + leg);
        match p.cont() {
            Ok(Event::CycleLimit(pc)) if p.read_u64(var.addr) == Some(n) => {
                let original = index.to_original(pc);
                if index.is_relocated(pc) && (lo..hi).contains(&original) {
                    p.machine_mut().stop_at_cycles = None;
                    return;
                }
                leg = 1;
            }
            Ok(Event::CycleLimit(_)) => {}
            other => panic!("the run ended before the stop: {other:?}"),
        }
    }
}

/// A frame already running inside a relocated copy keeps calling that
/// commit's relocated callees until it returns, even after removal: stopped
/// inside relocated `main` after three of its six `matmul` calls, the
/// process has its instrumentation removed, and the three calls `main`'s
/// copy still makes enter `matmul`'s copy and are counted.
#[test]
fn a_frame_in_a_relocated_copy_keeps_its_relocated_callees_after_removal() {
    for engine in ENGINES {
        let bin = matmul_program(8, 6);
        let main = bin.symbol_by_name("main").unwrap().value;
        let opts = SessionOptions::new().engine(engine);
        let mut dy = DynamicInstrumenter::create_with(bin, opts);
        let main_calls = dy.alloc_var(8);
        let matmul_calls = dy.alloc_var(8);
        for (func, var) in [("main", main_calls), ("matmul", matmul_calls)] {
            let pts = dy.find_points(func, PointKind::FuncEntry).unwrap();
            dy.insert(&pts, Snippet::increment(var));
        }
        dy.commit().unwrap();
        stop_in_relocated(&mut dy, matmul_calls, 3, main);
        dy.remove_instrumentation();
        assert_eq!(dy.run_to_exit().unwrap(), 0, "{engine:?}");
        assert_eq!(dy.read_var(main_calls), Some(1), "{engine:?}");
        assert_eq!(dy.read_var(matmul_calls), Some(6), "{engine:?}");
    }
}

/// A call site in a function an earlier commit relocated is left alone:
/// `_start`'s `jal main` shares its bytes with the springboard that
/// commit 1 planted at `_start`'s entry, so rewriting it for commit 2's
/// copy of `main` would tear that springboard and skip `_start`'s copy.
#[test]
fn a_later_commit_leaves_call_sites_in_earlier_relocated_code_alone() {
    for engine in ENGINES {
        let bin = fib_program(6);
        let opts = SessionOptions::new().engine(engine);
        let mut dy = DynamicInstrumenter::create_with(bin, opts);
        let start = commit_entry_counter(&mut dy, "_start");
        let main = commit_entry_counter(&mut dy, "main");
        assert_eq!(dy.diagnostics().calls_retargeted, 0, "{engine:?}");
        assert_eq!(dy.run_to_exit().unwrap(), 0, "{engine:?}");
        assert_eq!(dy.read_var(start), Some(1), "{engine:?}");
        assert_eq!(dy.read_var(main), Some(1), "{engine:?}");
    }
}

/// Calls between functions of one pass are sized against the callees'
/// relocated entries, never first against their original ones: with every
/// function relocated, a patch area 4 MiB from the text (out of a `jal`'s
/// reach of every original entry) holds exactly as many bytes as one next
/// to it, with no `auipc; jalr` far call, and the far image still runs.
#[test]
fn calls_between_relocated_functions_stay_near_in_a_far_patch_area() {
    let bin = rvdyn_asm::many_functions_program(8);
    let funcs: Vec<String> = bin.functions().iter().map(|s| s.name.clone()).collect();
    let image = |patch_text: u64| {
        let mut ed = BinaryEditor::from_binary(bin.clone(), SessionOptions::new());
        ed.set_layout(rvdyn::PatchLayout {
            patch_text,
            patch_data: 0x80_0000,
        });
        for f in &funcs {
            ed.count_blocks(f).unwrap();
        }
        let patched = ed.instrumented().unwrap();
        assert!(patched.calls_retargeted > funcs.len(), "{patch_text:#x}");
        (patched.code_end - patch_text, ed.rewrite().unwrap())
    };
    let (near, _) = image(rvdyn::PatchLayout::default().patch_text);
    let (far, elf) = image(0x40_0000);
    assert_eq!(far, near, "a call between relocated functions widened");
    let r = rvdyn::run_elf(&elf, 1_000_000_000).unwrap();
    assert_eq!(r.exit_code, 0);
}

/// Commit an entry counter on `func` into the process under `dy`.
fn commit_entry_counter(dy: &mut DynamicInstrumenter, func: &str) -> Var {
    let var = dy.alloc_var(8);
    let pts = dy.find_points(func, PointKind::FuncEntry).unwrap();
    dy.insert(&pts, Snippet::increment(var));
    dy.commit().unwrap();
    var
}
