//! Loop profiler: per-loop iteration counts via loop-back-edge points —
//! the §2 "loop back edges" point class, in the shape performance tools
//! like HPCToolkit use to find hot loops.
//!
//! ```sh
//! cargo run --release --example loop_profiler
//! ```

use rvdyn::{BinaryEditor, PointKind, SessionOptions, Snippet};

fn main() {
    let n = 24usize;
    let bin = rvdyn_asm::matmul_program(n, 1);
    let mut ed = BinaryEditor::from_binary(bin, SessionOptions::default());

    // One counter per natural loop of matmul, attached to its latch. The
    // loops are computed on this first request and kept with the function.
    let mm_entry = ed.function_addr("matmul").unwrap();
    let loops: Vec<(u64, usize)> = ed.code().functions[&mm_entry]
        .loops()
        .iter()
        .map(|l| (l.header, l.body.len()))
        .collect();
    println!("matmul has {} natural loops:", loops.len());

    let all_latch_points = ed.find_points("matmul", PointKind::LoopBackEdge).unwrap();
    let mut counters = Vec::new();
    for p in &all_latch_points {
        let c = ed.alloc_var(8);
        ed.insert(&[*p], Snippet::increment(c));
        counters.push((*p, c));
    }

    let out = ed.rewrite().expect("instrumentation applies");
    let r = rvdyn::run_elf(&out, 2_000_000_000).expect("runs");
    assert_eq!(r.exit_code, 0);

    println!("{:<12} {:>14}  note", "latch @", "iterations");
    let mut rows: Vec<(u64, u64)> = counters
        .iter()
        .map(|(p, c)| (p.addr, r.read_u64(c.addr).unwrap()))
        .collect();
    rows.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    for (addr, count) in &rows {
        let note = match *count as usize {
            c if c == n * n * n => "k-loop (hottest)",
            c if c == n * n => "j-loop",
            c if c == n => "i-loop",
            _ => "",
        };
        println!("{addr:#12x} {count:>14}  {note}");
    }
    // The triple nest: n³ + n² + n latch executions.
    let total: u64 = rows.iter().map(|&(_, c)| c).sum();
    assert_eq!(total as usize, n * n * n + n * n + n);
    println!("\ntotal loop iterations: {total}");
}
