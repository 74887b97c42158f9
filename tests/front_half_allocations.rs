//! What building the front half costs the heap. A function's CFG is one
//! sorted block vector and two arenas (instructions and edges), the
//! traversal reuses one scratch across functions, and natural loops are
//! computed by the first [`Function::loops`] call rather than by the
//! parser. So parsing makes a few allocations per function, dropping
//! the result frees a few chunks per function, and a second `loops()`
//! call allocates nothing.
//!
//! The dataflow facts follow the loops: the first
//! [`Function::liveness`] call keeps one chunk, the first
//! [`Function::stack_heights`] call keeps its solution, and later calls
//! allocate nothing. The memory tracer, the commit and every session on
//! one `Arc<Analysis>` read the same slot, and so does the stack walker.
//!
//! The global allocator here counts the calling thread's allocations
//! and frees only, so tests running on other threads do not disturb the
//! figures. Parses run at one thread, on the calling thread.

use rvdyn::tools::{MemTracer, TraceOptions};
use rvdyn::{
    Analysis, CodeObject, FleetController, ParseOptions, ProfileOptions, Profiler, Session,
    SessionOptions,
};
use rvdyn_parse::{Function, Liveness, StackHeight};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The most allocations one function may cost a parse or an
/// instrumentation pass, and the most chunks dropping a parse may free.
const PER_FUNCTION: usize = 8;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    // `try_with`: a thread being torn down still allocates and frees.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the allocations (reallocations
/// included) and frees it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let (a0, f0) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let r = f();
    (r, ALLOCS.with(Cell::get) - a0, FREES.with(Cell::get) - f0)
}

/// `many_functions(512)` with its symbols, as a cache miss in the
/// service workload parses it.
fn parse_many() -> (CodeObject, usize) {
    let bin = rvdyn_asm::many_functions_program(512);
    let opts = ParseOptions::default();
    assert_eq!(opts.threads, 1);
    let (co, allocs, _) = counted(|| CodeObject::parse(&bin, &opts));
    assert!(co.functions.len() > 512);
    (co, allocs)
}

#[test]
fn parsing_makes_a_few_allocations_per_function() {
    let (co, allocs) = parse_many();
    let n = co.functions.len();
    assert!(
        allocs <= PER_FUNCTION * n,
        "{allocs} allocations for {n} functions ({:.1} each)",
        allocs as f64 / n as f64
    );
}

#[test]
fn dropping_a_parse_frees_a_few_chunks_per_function() {
    let (co, _) = parse_many();
    let n = co.functions.len();
    let ((), _, frees) = counted(|| drop(co));
    assert!(
        frees <= PER_FUNCTION * n,
        "{frees} frees for {n} functions ({:.1} each)",
        frees as f64 / n as f64
    );
}

#[test]
fn loops_are_built_by_their_first_reader_and_kept() {
    let (co, _) = parse_many();
    let first_call = |f: &Function| counted(|| f.loops().as_ptr_range());
    for f in co.functions.values() {
        // Every function has blocks, so computing its loops allocates:
        // the parse did not build them.
        let (first, allocs, _) = first_call(f);
        assert!(allocs > 0, "{:#x}: loops built by the parse", f.entry);
        let (again, allocs, frees) = counted(|| f.loops().as_ptr_range());
        assert_eq!((again, allocs, frees), (first, 0, 0), "{:#x}", f.entry);
    }
    // f_i of many_functions holds one loop.
    assert!(
        co.functions
            .values()
            .filter(|f| f.loops().len() == 1)
            .count()
            >= 512
    );
}

#[test]
fn liveness_is_one_chunk_solved_by_its_first_reader_and_kept() {
    let (co, _) = parse_many();
    for f in co.functions.values() {
        let (first, allocs, frees) = counted(|| f.liveness() as *const Liveness);
        assert_eq!(allocs - frees, 1, "{:#x}: chunks kept", f.entry);
        let (again, allocs, frees) = counted(|| f.liveness() as *const Liveness);
        assert_eq!((allocs, frees), (0, 0), "{:#x}", f.entry);
        assert!(std::ptr::eq(first, again), "{:#x}", f.entry);
    }
}

#[test]
fn stack_heights_are_solved_by_their_first_reader_and_kept() {
    let (co, _) = parse_many();
    for f in co.functions.values() {
        let (first, allocs, _) = counted(|| f.stack_heights() as *const StackHeight);
        assert!(allocs > 0, "{:#x}: heights built by the parse", f.entry);
        let (again, allocs, frees) = counted(|| f.stack_heights() as *const StackHeight);
        assert_eq!((allocs, frees), (0, 0), "{:#x}", f.entry);
        assert!(std::ptr::eq(first, again), "{:#x}", f.entry);
    }
}

#[test]
fn the_tracer_the_commit_and_a_second_session_share_one_liveness() {
    let analysis = Analysis::of_binary(rvdyn_asm::matmul_program(8, 2), &ParseOptions::default());
    let entry = |name| analysis.function_entry(name).unwrap();
    let (mm, main) = (entry("matmul"), entry("main"));
    let slot =
        |co: &CodeObject, at: u64| counted(|| co.functions[&at].liveness() as *const Liveness);

    let mut fleet = FleetController::from_analysis(analysis.clone(), SessionOptions::new());
    fleet.spawn(2);
    let opts = TraceOptions {
        funcs: Some(vec!["matmul".into()]),
        ..TraceOptions::default()
    };
    MemTracer::plan_fleet(&mut fleet, &opts).unwrap();
    // The tracer solved matmul's liveness into the shared analysis, so
    // reading it now allocates nothing.
    let (planned, allocs, _) = slot(fleet.code(), mm);
    assert_eq!(allocs, 0, "the tracer left matmul's slot empty");
    // Every-block counting reads no liveness: the commit is the first
    // reader of main's.
    fleet.count_blocks("main").unwrap();
    fleet.commit_all().unwrap();
    let (_, allocs, _) = slot(fleet.code(), main);
    assert_eq!(allocs, 0, "the commit left main's slot empty");
    let (committed, ..) = slot(fleet.code(), mm);
    let second = Session::from_analysis(analysis.clone(), SessionOptions::new());
    let (seen, ..) = slot(second.code(), mm);
    assert!(std::ptr::eq(planned, committed));
    assert!(std::ptr::eq(committed, seen));
    assert!(std::ptr::eq(
        seen,
        analysis.code().functions[&mm].liveness()
    ));
}

#[test]
fn the_stack_walker_solves_a_function_once_for_every_sample() {
    let analysis = Analysis::of_binary(rvdyn_asm::matmul_program(8, 2), &ParseOptions::default());
    let mm = analysis.function_entry("matmul").unwrap();
    let mut fleet = FleetController::from_analysis(analysis.clone(), SessionOptions::new());
    fleet.spawn(2);
    let profile = Profiler::new(ProfileOptions {
        interval_cycles: 1_000,
        ..ProfileOptions::default()
    })
    .sample_fleet(&mut fleet)
    .unwrap();
    assert!(profile.profile.samples > 1);
    // The walks solved matmul's heights into the shared analysis.
    let f = &analysis.code().functions[&mm];
    let ((), allocs, _) = counted(|| {
        f.stack_heights();
    });
    assert_eq!(allocs, 0, "no walk read matmul's heights");
}

/// Instrumenting allocates per function, not per point: a worker lowers
/// every point into one reused emitter and one word arena, a function's
/// relocation plan is three vectors, and the finish phase's audit reuses
/// its scratch. Every block of `many_functions(512)` is counted (2,573
/// points in 515 functions).
#[test]
fn the_plan_phase_makes_a_few_allocations_per_function() {
    let bin = rvdyn_asm::many_functions_program(512);
    let mut ed = Session::from_binary(bin, SessionOptions::new());
    let names: Vec<String> = ed
        .code()
        .functions
        .values()
        .filter_map(|f| f.name.clone())
        .collect();
    for name in &names {
        ed.count_blocks(name).unwrap();
    }
    // Liveness is the analysis's, solved by its first reader: solve it
    // here so that only the instrumenter's own allocations count.
    for f in ed.code().functions.values() {
        f.liveness();
    }
    let (result, allocs, _) = counted(|| ed.instrumented().unwrap());
    let n = result.plans_built;
    assert_eq!(n, names.len());
    assert!(
        allocs <= PER_FUNCTION * n,
        "{allocs} allocations for {n} functions ({:.1} each)",
        allocs as f64 / n as f64
    );
}
