//! What building the front half costs the heap. A function's CFG is one
//! sorted block vector and two arenas (instructions and edges), the
//! traversal reuses one scratch across functions, and natural loops are
//! computed by the first [`Function::loops`] call rather than by the
//! parser. So parsing makes a few allocations per function, dropping
//! the result frees a few chunks per function, and a second `loops()`
//! call allocates nothing.
//!
//! The global allocator here counts the calling thread's allocations
//! and frees only, so tests running on other threads do not disturb the
//! figures. Parses run at one thread, on the calling thread.

use rvdyn::{CodeObject, ParseOptions};
use rvdyn_parse::Function;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The most allocations one function may cost a parse, and the most
/// chunks dropping it may free.
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
