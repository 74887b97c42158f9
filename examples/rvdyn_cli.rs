//! A small command-line front end over the rvdyn toolkits, working on
//! RISC-V ELF *files* — the shape of tool a downstream user builds first.
//!
//! ```sh
//! cargo run --release --example rvdyn_cli -- gen matmul /tmp/mm.elf 50 2
//! cargo run --release --example rvdyn_cli -- info /tmp/mm.elf
//! cargo run --release --example rvdyn_cli -- disasm /tmp/mm.elf matmul
//! cargo run --release --example rvdyn_cli -- cfg /tmp/mm.elf matmul
//! cargo run --release --example rvdyn_cli -- count /tmp/mm.elf matmul blocks /tmp/mm-instr.elf
//! cargo run --release --example rvdyn_cli -- run /tmp/mm-instr.elf
//! cargo run --release --example rvdyn_cli -- --json profile /tmp/mm.elf matmul entry
//! ```
//!
//! Global flags: `--json` switches the diagnostics output of `info`,
//! `count`, `run` and `profile` to the machine-readable
//! `rvdyn-diagnostics-v1` schema; `--trace` streams telemetry events to
//! stderr as the pipeline runs; `--engine <interpreter|cached>` selects
//! the execution engine for `run`/`profile` (defaults to the `RVDYN_EMU`
//! environment knob, see docs/EMULATOR.md).

use rvdyn::{BinaryEditor, CounterPlacement, EmuEngine, PointKind, SessionOptions, Snippet};
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: rvdyn_cli [--json] [--trace] [--threads N] [--engine E] <command> ...\n\
         \n\
         gen <matmul|fib|switch|memcpy|atomics|indirect|tiny|tiny-indirect|many> <out.elf> [args…]\n\
         info <elf>\n\
         disasm <elf> [function]\n\
         cfg <elf> <function> [--dot]\n\
         count <elf> <function> <entry|blocks|blocks-optimal|edges> <out.elf>\n\
         run <elf>   (prints exit code, modelled time, and the counter at\n\
                      the patch-data base if the binary was instrumented)\n\
         profile <elf> <function> <entry|blocks|blocks-optimal|edges>\n\
                     (instrument + run in one session: full per-stage\n\
                      wall-clock attribution in the diagnostics; the two\n\
                      blocks classes also print exact per-block counts —\n\
                      blocks-optimal places counters only on the Knuth-\n\
                      minimal site set and reconstructs the rest)\n\
         memtrace <elf> <out.trace> [function] [capacity]\n\
         \x20            (attach the memory-access tracer to a fresh process:\n\
         \x20             every load/store — optionally only in <function> —\n\
         \x20             is recorded (pc, address, width, direction) into an\n\
         \x20             in-mutatee ring of [capacity] records, drained after\n\
         \x20             exit and written to <out.trace> as the validated\n\
         \x20             rvdyn-trace-v1 stream — see docs/TOOLS.md)\n\
         sample <elf> [interval] [N]\n\
         \x20            (cycle-interval sampling profiler: interrupt every\n\
         \x20             [interval] modelled cycles — default 10000 — walk\n\
         \x20             the stack with the RISC-V frame steppers, and print\n\
         \x20             the folded flame-style profile with per-function\n\
         \x20             self/total counts; N>1 samples a fleet of N\n\
         \x20             processes, one sampling job per process on\n\
         \x20             --threads workers — see docs/TOOLS.md)\n\
         cache <elf> [elf…]\n\
                     (open every file twice through one shared analysis\n\
                      cache: prints each file's content key and whether\n\
                      the front half was recomputed or reused — files\n\
                      with identical code/data/symbols share one entry)\n\
         fleet <elf> <function> [N]\n\
                     (instrument a fleet of N mutatees — default 8 —\n\
                      from one controller: the function-entry counter is\n\
                      planned once, delivered into every process with\n\
                      read-back verification, and all processes run to\n\
                      exit through the event loop; --threads sizes the\n\
                      worker pool, --json prints the fleet rollup —\n\
                      see docs/FLEET.md for the controller contract)\n\
         \n\
         --json        emit diagnostics as one rvdyn-diagnostics-v1 JSON line\n\
         --trace       stream telemetry events to stderr\n\
         --threads N   fan the parse and instrument plan phases over N\n\
                       workers (the output bytes are identical for any N)\n\
         --engine E    execution engine for run/profile: interpreter (the\n\
                       reference) or cached (the block-translating DBT\n\
                       back end — same counts/cycles, much faster);\n\
                       defaults to the RVDYN_EMU environment knob"
    );
    exit(2);
}

fn main() {
    let mut json = false;
    let mut trace = false;
    let mut threads = 1usize;
    let mut engine = EmuEngine::from_env();
    let mut args = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--json" => json = true,
            "--trace" => trace = true,
            "--threads" => {
                threads = raw
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--engine" => {
                engine = match raw.next().as_deref() {
                    Some("interpreter") => EmuEngine::Interpreter,
                    Some("cached") => EmuEngine::Cached,
                    other => {
                        eprintln!("unknown engine {other:?}");
                        usage()
                    }
                }
            }
            _ => args.push(a),
        }
    }
    let opts = || {
        let o = SessionOptions::new().threads(threads).engine(engine);
        if trace {
            o.telemetry(Arc::new(rvdyn::StderrSink))
        } else {
            o
        }
    };
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "gen" => {
            let (prog, out) = (arg(&args, 1), arg(&args, 2));
            let bin = match prog.as_str() {
                "matmul" => rvdyn_asm::matmul_program(
                    num(&args, 3).unwrap_or(100) as usize,
                    num(&args, 4).unwrap_or(1) as usize,
                ),
                "fib" => rvdyn_asm::fib_program(num(&args, 3).unwrap_or(20)),
                "switch" => rvdyn_asm::switch_program(num(&args, 3).unwrap_or(64)),
                "switch_rel" => rvdyn_asm::switch_rel_program(num(&args, 3).unwrap_or(64)),
                "deep" => rvdyn_asm::deep_call_program(num(&args, 3).unwrap_or(16)),
                "memcpy" => rvdyn_asm::memcpy_program(),
                "atomics" => rvdyn_asm::atomics_program(num(&args, 3).unwrap_or(100)),
                "indirect" => rvdyn_asm::indirect_entry_program(num(&args, 3).unwrap_or(32)),
                "tiny" => rvdyn_asm::tiny_function_program(num(&args, 3).unwrap_or(32)),
                "tiny-indirect" => rvdyn_asm::tiny_indirect_program(num(&args, 3).unwrap_or(32)),
                "many" => rvdyn_asm::many_functions_program(num(&args, 3).unwrap_or(64) as usize),
                other => {
                    eprintln!("unknown program {other:?}");
                    usage()
                }
            };
            write(&out, &bin.to_bytes().unwrap_or_else(die));
            println!("wrote {out}");
        }
        "info" => {
            let ed = open(&arg(&args, 1), opts());
            if json {
                println!("{}", ed.diagnostics().to_json());
                return;
            }
            let b = ed.binary();
            println!("entry:   {:#x}", b.entry);
            println!("profile: {}", ed.profile().arch_string());
            println!("sections:");
            for s in &b.sections {
                println!(
                    "  {:<18} {:#10x}  {:>7} bytes  flags {:#x}",
                    s.name,
                    s.addr,
                    s.data.len(),
                    s.flags
                );
            }
            println!("functions:");
            for f in ed.code().functions.values() {
                let (lo, hi) = f.extent();
                println!(
                    "  {:#10x}  {:<16} {:>5} bytes, {} blocks, {} loops",
                    f.entry,
                    f.name.as_deref().unwrap_or("?"),
                    hi - lo,
                    f.blocks.len(),
                    f.loops.len()
                );
            }
            println!("--- pipeline diagnostics ---");
            println!("{}", ed.diagnostics());
        }
        "disasm" => {
            let ed = open(&arg(&args, 1), opts());
            match args.get(2) {
                Some(name) => {
                    let addr = ed.function_addr(name).unwrap_or_else(die);
                    let f = &ed.code().functions[&addr];
                    for b in f.blocks.values() {
                        for i in &b.insts {
                            println!(
                                "{:#10x}:  {}",
                                i.address,
                                rvdyn_isa::disasm::format_instruction(i)
                            );
                        }
                    }
                }
                None => {
                    for s in ed.binary().code_sections() {
                        print!("{}", rvdyn_isa::disasm::disassemble(&s.data, s.addr));
                    }
                }
            }
        }
        "cfg" => {
            let ed = open(&arg(&args, 1), opts());
            let addr = ed.function_addr(&arg(&args, 2)).unwrap_or_else(die);
            let f = &ed.code().functions[&addr];
            if args.get(3).map(String::as_str) == Some("--dot") {
                print!("{}", f.to_dot());
                return;
            }
            for b in f.blocks.values() {
                println!("block {:#x}..{:#x}", b.start, b.end);
                for e in &b.edges {
                    match e.target {
                        Some(t) => println!("  {:?} → {:#x}", e.kind, t),
                        None => println!("  {:?}", e.kind),
                    }
                }
            }
            for l in &f.loops {
                println!("loop header {:#x}: {} blocks", l.header, l.body.len());
            }
        }
        "count" => {
            let class = arg(&args, 3);
            let mut ed = open(&arg(&args, 1), class_opts(&class, opts()));
            let func = arg(&args, 2);
            if class == "blocks-optimal" {
                let bc = ed.count_blocks(&func).unwrap_or_else(die);
                if !json {
                    println!(
                        "placing {} counter(s) over {} block(s) in {func}",
                        bc.counters_placed(),
                        bc.blocks_covered()
                    );
                }
                let out = arg(&args, 4);
                write(&out, &ed.rewrite().unwrap_or_else(die));
                if json {
                    println!("{}", ed.diagnostics().to_json());
                    return;
                }
                println!("wrote {out}");
                println!("--- pipeline diagnostics ---");
                println!("{}", ed.diagnostics());
                return;
            }
            let kind = point_kind(&class);
            let counter = ed.alloc_var(8);
            let pts = ed.find_points(&func, kind).unwrap_or_else(die);
            if !json {
                println!("instrumenting {} point(s) in {func}", pts.len());
            }
            ed.insert(&pts, Snippet::increment(counter));
            let out = arg(&args, 4);
            write(&out, &ed.rewrite().unwrap_or_else(die));
            if json {
                println!("{}", ed.diagnostics().to_json());
                return;
            }
            println!("wrote {out} (counter lives at {:#x})", counter.addr);
            println!("--- pipeline diagnostics ---");
            println!("{}", ed.diagnostics());
        }
        "run" => {
            let elf = read(&arg(&args, 1));
            let r = rvdyn::run_elf_with(&elf, 10_000_000_000, engine).unwrap_or_else(die);
            if json {
                let mut d = rvdyn::Diagnostics::default();
                d.record_run(r.icount, r.cycles);
                println!("{}", d.to_json());
                return;
            }
            println!("exit code:     {}", r.exit_code);
            println!("instructions:  {}", r.icount);
            println!("modelled time: {:.6}s @1.4GHz", r.seconds);
            if !r.stdout.is_empty() {
                match std::str::from_utf8(&r.stdout) {
                    Ok(s) if s.chars().all(|c| !c.is_control() || c == '\n') => {
                        println!("stdout:        {s:?}")
                    }
                    _ => println!("stdout:        {} raw bytes", r.stdout.len()),
                }
            }
            // Counter convention: the first slot of the patch data area.
            if let Some(v) = r.read_u64(rvdyn::PatchLayout::default().patch_data) {
                println!("counter[0]:    {v}");
            }
            let mut d = rvdyn::Diagnostics::default();
            d.record_run(r.icount, r.cycles);
            println!("--- pipeline diagnostics ---");
            println!("{d}");
        }
        "profile" => {
            // The full pipeline in one session: open → parse → instrument
            // → commit → run, so the diagnostics carry wall-clock timings
            // for every stage.
            let class = arg(&args, 3);
            let mut ed = open(&arg(&args, 1), class_opts(&class, opts()));
            let func = arg(&args, 2);
            if class == "blocks" || class == "blocks-optimal" {
                // Per-block profile through the counter-placement API:
                // exact counts for every block, from however many
                // counters the placement mode asks for.
                let bc = ed.count_blocks(&func).unwrap_or_else(die);
                let r = ed.instrument_and_run(10_000_000_000).unwrap_or_else(die);
                let counts = ed.block_counts(&bc, &r).unwrap_or_else(die);
                if json {
                    println!("{}", ed.diagnostics().to_json());
                    return;
                }
                println!("exit code:  {}", r.exit_code);
                println!(
                    "counters:   {} placed over {} block(s)",
                    bc.counters_placed(),
                    bc.blocks_covered()
                );
                for (block, count) in &counts {
                    println!("  block {block:#10x}: {count}");
                }
                println!("--- pipeline diagnostics ---");
                println!("{}", ed.diagnostics());
                return;
            }
            let kind = point_kind(&class);
            let counter = ed.alloc_var(8);
            let pts = ed.find_points(&func, kind).unwrap_or_else(die);
            ed.insert(&pts, Snippet::increment(counter));
            let r = ed.instrument_and_run(10_000_000_000).unwrap_or_else(die);
            if json {
                println!("{}", ed.diagnostics().to_json());
                return;
            }
            println!("exit code:  {}", r.exit_code);
            println!("counter:    {:?}", r.read_u64(counter.addr));
            println!("--- pipeline diagnostics ---");
            println!("{}", ed.diagnostics());
        }
        "fleet" => {
            // Fleet-scale dynamic instrumentation (docs/FLEET.md): one
            // controller, one shared plan, N verified deliveries, one
            // event loop running every mutatee to exit.
            let elf = read(&arg(&args, 1));
            let func = arg(&args, 2);
            let n = num(&args, 3).unwrap_or(8) as usize;
            let mut fleet = rvdyn::FleetController::open(&elf, opts()).unwrap_or_else(die);
            let pids = fleet.spawn(n);
            let counter = fleet.alloc_var(8);
            let pts = fleet
                .find_points(&func, PointKind::FuncEntry)
                .unwrap_or_else(die);
            fleet.insert(&pts, Snippet::increment(counter));
            fleet.commit_all().unwrap_or_else(die);
            fleet.run_all();
            let summary = fleet.summary();
            if json {
                println!("{}", summary.to_json());
                return;
            }
            println!(
                "fleet of {} over {func} ({} point(s), {} worker thread(s))",
                pids.len(),
                pts.len(),
                threads
            );
            for pid in &pids {
                if let Some(v) = fleet.read_var(*pid, counter) {
                    println!("  pid {pid:>4}: counter {v}");
                }
            }
            println!("--- fleet rollup ---");
            print!("{summary}");
            println!("--- controller diagnostics ---");
            println!("{}", fleet.diagnostics());
            if summary.processes_failed > 0 {
                exit(1);
            }
        }
        "memtrace" => {
            // Memory-access tracing (docs/TOOLS.md): plan record-emitting
            // snippets at every load/store, run the mutatee, drain the
            // ring, and persist the validated rvdyn-trace-v1 stream.
            let elf = read(&arg(&args, 1));
            let out_path = arg(&args, 2);
            let funcs = args.get(3).map(|f| vec![f.clone()]);
            let capacity = num(&args, 4).unwrap_or(1 << 16);
            let bin = rvdyn::Binary::parse(&elf).unwrap_or_else(die);
            let mut dy = rvdyn::DynamicInstrumenter::create_with(bin, opts());
            let topts = rvdyn::TraceOptions { capacity, funcs };
            let tracer = rvdyn::MemTracer::plan_fleet(dy.fleet_mut(), &topts).unwrap_or_else(die);
            dy.commit().unwrap_or_else(die);
            let code = dy.run_to_exit().unwrap_or_else(die);
            let drained = tracer
                .drain_fleet(dy.fleet_mut(), rvdyn::DynamicInstrumenter::PID)
                .unwrap_or_else(die);
            write_trace(&out_path, &drained.records);
            // Close the loop: the file we just wrote must validate.
            let reader = rvdyn::TraceReader::parse(&read(&out_path)).unwrap_or_else(die);
            if json {
                println!("{}", dy.diagnostics().to_json());
                return;
            }
            let (lb, sb) = reader.bytes_moved();
            println!("exit code: {code}");
            println!(
                "sites:     {} instrumented load/store site(s)",
                tracer.sites()
            );
            println!("records:   {} ({} dropped)", reader.len(), drained.dropped);
            println!("loads:     {} ({lb} bytes)", reader.loads().count());
            println!("stores:    {} ({sb} bytes)", reader.stores().count());
            println!("wrote {out_path}");
            println!("--- pipeline diagnostics ---");
            println!("{}", dy.diagnostics());
        }
        "sample" => {
            // Sampling profiler (docs/TOOLS.md): cycle-interval
            // interrupts, stackwalker frames, folded flame-style output.
            let elf = read(&arg(&args, 1));
            let interval = num(&args, 2).unwrap_or(10_000);
            let n = num(&args, 3).unwrap_or(1) as usize;
            let profiler = rvdyn::Profiler::new(rvdyn::ProfileOptions {
                interval_cycles: interval,
                max_samples: 1 << 20,
            });
            if n > 1 {
                let mut fleet = rvdyn::FleetController::open(&elf, opts()).unwrap_or_else(die);
                fleet.spawn(n);
                let out = profiler.sample_fleet(&mut fleet).unwrap_or_else(die);
                if json {
                    println!("{}", fleet.diagnostics().to_json());
                    return;
                }
                println!(
                    "fleet of {n}: {} sample(s), max depth {}",
                    out.profile.samples, out.profile.max_depth
                );
                for (pid, p) in &out.per_process {
                    println!("  pid {pid:>4}: {} sample(s)", p.samples);
                }
                print!("{}", out.profile.report());
                println!("--- controller diagnostics ---");
                println!("{}", fleet.diagnostics());
                return;
            }
            let bin = rvdyn::Binary::parse(&elf).unwrap_or_else(die);
            let mut dy = rvdyn::DynamicInstrumenter::create_with(bin, opts());
            let mut r = profiler.sample_fleet(dy.fleet_mut()).unwrap_or_else(die);
            let pid = rvdyn::DynamicInstrumenter::PID;
            let outcome = r
                .outcomes
                .remove(&pid)
                .expect("a sampled fleet reports every pid");
            let exit_code = outcome.unwrap_or_else(die);
            if json {
                println!("{}", dy.diagnostics().to_json());
                return;
            }
            println!("exit code: {exit_code}");
            println!(
                "samples:   {} every {interval} cycle(s), max depth {}",
                r.profile.samples, r.profile.max_depth
            );
            print!("{}", r.profile.report());
            println!("--- folded stacks (flamegraph input) ---");
            print!("{}", r.profile.folded_lines());
            println!("--- pipeline diagnostics ---");
            println!("{}", dy.diagnostics());
        }
        "cache" => {
            // Two passes over the file list through one shared cache:
            // the first pass computes (or shares) each analysis, the
            // second demonstrates which opens are now free.
            let paths: Vec<String> = args[1..].to_vec();
            if paths.is_empty() {
                usage();
            }
            let cache = rvdyn::AnalysisCache::new(paths.len());
            let mut last = None;
            for pass in 1..=2 {
                if !json {
                    println!("pass {pass}:");
                }
                for path in &paths {
                    let bytes = read(path);
                    let ed = BinaryEditor::open_cached(&bytes, opts(), &cache).unwrap_or_else(die);
                    let d = ed.diagnostics();
                    if !json {
                        println!(
                            "  {:016x}  {}  {path}",
                            ed.analysis().key().prefix(),
                            if d.analysis_cache_hits > 0 {
                                "hit "
                            } else {
                                "miss"
                            }
                        );
                    }
                    last = Some(ed);
                }
            }
            let stats = cache.stats();
            if json {
                // The last session's diagnostics line carries the
                // rvdyn-diagnostics-v1 schema; cache totals follow the
                // per-session convention (this one session's view).
                println!(
                    "{}",
                    last.expect("at least one file").diagnostics().to_json()
                );
                return;
            }
            println!(
                "cache: {} hits, {} misses, {} evictions, {}/{} entries resident",
                stats.hits, stats.misses, stats.evictions, stats.entries, stats.capacity
            );
        }
        _ => usage(),
    }
}

/// Session options for a point class: `blocks-optimal` switches the
/// counter-placement mode, everything else keeps the defaults.
fn class_opts(class: &str, o: SessionOptions) -> SessionOptions {
    if class == "blocks-optimal" {
        o.counter_placement(CounterPlacement::Optimal)
    } else {
        o
    }
}

fn point_kind(s: &str) -> PointKind {
    match s {
        "entry" => PointKind::FuncEntry,
        "blocks" => PointKind::BlockEntry,
        "edges" => PointKind::BranchTaken,
        other => {
            eprintln!("unknown point class {other:?}");
            usage()
        }
    }
}

fn arg(args: &[String], i: usize) -> String {
    args.get(i).cloned().unwrap_or_else(|| usage())
}

fn num(args: &[String], i: usize) -> Option<u64> {
    args.get(i).map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad numeric argument: {s:?}");
            exit(2)
        })
    })
}

fn open(path: &str, opts: SessionOptions) -> BinaryEditor {
    BinaryEditor::open_with(&read(path), opts).unwrap_or_else(die)
}

/// Read a whole file; a file error ends the tool with exit status 1.
fn read(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")))
}

/// Write a whole file; a file error ends the tool with exit status 1.
fn write(path: &str, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap_or_else(|e| die(format!("cannot write {path}: {e}")))
}

/// Write `records` as an `rvdyn-trace-v1` file, as [`write`] does.
fn write_trace(path: &str, records: &[rvdyn::TraceRecord]) {
    let written = std::fs::File::create(path).and_then(|file| {
        let mut sink = rvdyn::TraceSink::new(std::io::BufWriter::new(file));
        for r in records {
            sink.push(*r)?;
        }
        sink.finish().map(drop)
    });
    written.unwrap_or_else(|e| die(format!("cannot write {path}: {e}")))
}

fn die<T>(e: impl std::fmt::Display) -> T {
    eprintln!("error: {e}");
    exit(1)
}
