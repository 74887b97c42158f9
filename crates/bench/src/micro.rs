//! The component ablations: parallel CFG parsing (A3), decoder
//! throughput (A4) and the cost of software single-stepping (A5). Each
//! reports the best of [`ROUNDS`](crate::ROUNDS) timed runs.

use crate::{best_of, ncpu, Fields, Report};
use rvdyn::decode::InstructionIter;
use rvdyn::{Event, Process, Reg};
use rvdyn_asm::Assembler;
use rvdyn_parse::source::RawCode;
use rvdyn_parse::{CodeObject, ParseOptions};

/// `funcs` functions of about 40 basic blocks each (twenty diamonds of
/// straight-line code), each calling the next two. Every entry is a
/// hint, as with a symbol table present: the large-binary case ParseAPI
/// parallelises over (discovery-only chains serialise any parallel
/// parser).
fn synthetic(funcs: usize) -> RawCode {
    let mut a = Assembler::new(0x1_0000);
    let labels: Vec<_> = (0..funcs).map(|_| a.label()).collect();
    for i in 0..funcs {
        a.bind(labels[i]);
        a.addi(Reg::X2, Reg::X2, -16);
        a.sd(Reg::X1, Reg::X2, 8);
        for d in 0..20 {
            let (else_, join) = (a.label(), a.label());
            a.addi(Reg::x(5), Reg::X0, d);
            a.beq(Reg::x(5), Reg::x(10), else_);
            for _ in 0..4 {
                a.addi(Reg::x(6), Reg::x(6), 1);
                a.add(Reg::x(7), Reg::x(6), Reg::x(5));
            }
            a.jump(join);
            a.bind(else_);
            for _ in 0..4 {
                a.sub(Reg::x(7), Reg::x(7), Reg::x(5));
            }
            a.bind(join);
        }
        for callee in labels.iter().skip(i + 1).take(2) {
            a.call(*callee);
        }
        a.ld(Reg::X1, Reg::X2, 8);
        a.addi(Reg::X2, Reg::X2, 16);
        a.ret();
    }
    let entries = labels
        .iter()
        .map(|l| a.label_addr(*l).expect("bound"))
        .collect();
    RawCode {
        base: 0x1_0000,
        bytes: a.finish().expect("every label bound"),
        entries,
    }
}

/// A3: parse 600 synthetic functions on 1, 2, 4 and 8 workers. Every
/// parallel parse must find the sequential parse's functions and blocks.
pub fn parse(_: &[usize]) -> Report {
    let src = synthetic(600);
    let runs = [1, 2, 4, 8].map(|threads| {
        let opts = ParseOptions {
            threads,
            ..Default::default()
        };
        (threads, best_of(|| CodeObject::parse(&src, &opts)))
    });
    let (seq, seq_ns) = &runs[0].1;
    let mut rows = Vec::new();
    for (threads, (co, ns)) in &runs {
        assert_eq!(co.functions.len(), seq.functions.len(), "{threads} workers");
        assert_eq!(co.num_blocks(), seq.num_blocks(), "{threads} workers");
        rows.push(
            Fields::default()
                .int("threads", *threads)
                .int("parse_ns", *ns)
                .real("speedup", *seq_ns as f64 / *ns as f64, 3),
        );
    }
    let fields = Fields::default()
        .int("functions", seq.functions.len())
        .int("blocks", seq.num_blocks())
        .int("instructions", seq.num_insts())
        .int("bytes", src.bytes.len())
        .int("ncpu", ncpu())
        .rows("runs", rows);
    Report::new(fields, vec![])
}

/// A4: decode the matmul application's text, tiled to 1 MiB, with the
/// mixed-width RV64GC decoder.
pub fn decode(_: &[usize]) -> Report {
    let bin = rvdyn_asm::matmul_program(16, 1);
    let text = bin.section_by_name(".text").expect("matmul has .text");
    let mut buf = Vec::with_capacity(1 << 20);
    while buf.len() < (1 << 20) {
        buf.extend_from_slice(&text.data);
    }
    let (insts, ns) = best_of(|| {
        InstructionIter::new(&buf, text.addr)
            .filter(|r| r.is_ok())
            .count()
    });
    let fields = Fields::default()
        .int("bytes", buf.len())
        .int("instructions_per_pass", insts)
        .int("pass_ns", ns)
        .real(
            "mib_per_s",
            buf.len() as f64 / 1048576.0 / (ns as f64 / 1e9),
            1,
        )
        .real("ns_per_instruction", ns as f64 / insts as f64, 2);
    Report::new(fields, vec![])
}

/// A5: RISC-V ptrace has no hardware single-step, so ProcControlAPI
/// emulates it with breakpoints. Advance fib(20) by 2000 emulated
/// single-steps, and by one free run to the first hit of a breakpoint
/// planted where those steps end (what hardware assistance allows).
pub fn step(_: &[usize]) -> Report {
    const STEPS: usize = 2000;
    let bin = rvdyn_asm::fib_program(20);
    let (target, stepped_ns) = best_of(|| {
        let mut p = Process::launch(&bin);
        for _ in 0..STEPS {
            match p.single_step().expect("single step") {
                Event::Stepped(_) => {}
                e => panic!("single step: unexpected {e:?}"),
            }
        }
        p.pc()
    });
    let ((), direct_ns) = best_of(|| {
        let mut p = Process::launch(&bin);
        p.set_breakpoint(target).expect("breakpoint");
        match p.cont().expect("continue") {
            Event::Breakpoint(at) => assert_eq!(at, target),
            e => panic!("direct run: unexpected {e:?}"),
        }
    });
    let fields = Fields::default()
        .int("steps", STEPS)
        .int("single_step_ns", stepped_ns)
        .int("direct_run_ns", direct_ns)
        .real("ns_per_step", stepped_ns as f64 / STEPS as f64, 1)
        .real("slowdown", stepped_ns as f64 / direct_ns as f64, 1);
    Report::new(fields, vec![])
}
