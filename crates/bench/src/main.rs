//! # rvdyn-bench — the evaluation harness
//!
//! One binary regenerates every measured artifact of the paper's §4 and
//! of the ablations DESIGN.md §4 lists (EXPERIMENTS.md records the
//! figures):
//!
//! ```text
//! cargo run -p rvdyn-bench --release -- <experiment> [--json] [ARGS]
//! ```
//!
//! An experiment runs its workload and asserts its correctness
//! conditions first, so a run that diverged reports nothing. It returns
//! its figures once, as a [`Report`], which is printed either as one
//! JSON document (`--json`) or as text. Then the experiment's CI bounds
//! are checked: each is printed on stderr with its measured value, and
//! if one fails the harness exits 1. A malformed command line prints the
//! usage and exits 2.
//!
//! The RISC-V figures are measured on the emulator substrate with its
//! deterministic P550-flavoured cycle model. T1's x86 column is measured
//! natively on the host (see [`x86`]), with the pre-optimisation Dyninst
//! trampoline modelled by explicit spill traffic; DESIGN.md §2 says why
//! each substitution preserves the paper's comparison.

mod emu;
mod micro;
mod riscv;
mod scale;
mod table1;
mod tools;
mod x86;

use std::fmt;
use std::time::Instant;

/// An experiment: its name, its positional arguments with their
/// defaults, the function that runs it, and what it measures.
type Experiment = (
    &'static str,
    &'static [(&'static str, usize)],
    fn(&[usize]) -> Report,
    &'static str,
);

#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    ("table1", &[("N", 1000), ("REPS", 1)], table1::run, "T1: the §4.3 overhead table, and the A1 spill sidebar"),
    ("emu", &[("N", 100), ("REPS", 1)], emu::run, "E-DBT: the cached engine against the interpreter"),
    ("tools", &[("SIZE", 16)], tools::run, "T2: memory tracer and sampling profiler overhead"),
    ("parallel", &[("FUNCS", 256), ("ITERS", 7)], scale::parallel, "P2: instrument-stage scaling over worker threads"),
    ("service", &[("REQUESTS", 2000)], scale::service, "S1: instrument requests, cold open against the cache"),
    ("fleet", &[("PROCESSES", 100)], scale::fleet, "FL1: one fleet against sequential sessions"),
    ("parse", &[], micro::parse, "A3: CFG parsing over worker threads"),
    ("decode", &[], micro::decode, "A4: decoder throughput"),
    ("step", &[], micro::step, "A5: software single-step against a direct run"),
];

/// Read `<experiment> [--json] [ARGS]`, with `--json` anywhere: the
/// experiment, whether to print JSON, and its arguments with the
/// defaults filled in. Every argument is a positive integer.
fn parse_args(args: &[String]) -> Result<(&'static Experiment, bool, Vec<usize>), String> {
    let json = args.iter().any(|a| a == "--json");
    let mut words = args.iter().filter(|a| *a != "--json");
    let name = words.next().ok_or("no experiment given")?;
    let exp = EXPERIMENTS
        .iter()
        .find(|e| e.0 == name)
        .ok_or_else(|| format!("unknown experiment {name:?}"))?;
    let given: Vec<&String> = words.collect();
    if given.len() > exp.1.len() {
        return Err(format!("{name} takes at most {} argument(s)", exp.1.len()));
    }
    let values = exp
        .1
        .iter()
        .enumerate()
        .map(|(i, &(arg, default))| match given.get(i) {
            None => Ok(default),
            Some(a) => match a.parse() {
                Ok(v) if v > 0 => Ok(v),
                _ => Err(format!(
                    "{name}: invalid {arg} {a:?}: expected a positive integer"
                )),
            },
        })
        .collect::<Result<_, _>>()?;
    Ok((exp, json, values))
}

fn usage() -> String {
    let mut s = String::from("usage: rvdyn-bench <experiment> [--json] [ARGS]\n");
    for (name, args, _, about) in EXPERIMENTS {
        let args: Vec<String> = args.iter().map(|(a, d)| format!("[{a}={d}]")).collect();
        s += &format!("  {name:<9} {:<26} {about}\n", args.join(" "));
    }
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ((name, _, run, _), json, values) = parse_args(&args).unwrap_or_else(|e| {
        eprint!("rvdyn-bench: {e}\n{}", usage());
        std::process::exit(2)
    });
    let report = run(&values);
    if json {
        println!("{}", report.fields.to_json(name));
    } else {
        print!("{}{}", report.table, report.fields.to_text(name));
    }
    let mut failed = false;
    for b in &report.bounds {
        let holds = b.check().0;
        failed |= !holds;
        eprintln!("bound {}: {b}", if holds { "holds" } else { "FAILED" });
    }
    if failed {
        std::process::exit(1);
    }
}

/// What an experiment returns: its figures, a layout printed before
/// them in text mode (T1's paper table, else empty), and its CI bounds.
pub struct Report {
    pub fields: Fields,
    pub table: String,
    pub bounds: Vec<Bound>,
}

impl Report {
    pub fn new(fields: Fields, bounds: Vec<Bound>) -> Report {
        let table = String::new();
        Report {
            fields,
            table,
            bounds,
        }
    }
}

/// One figure.
enum Value {
    Int(u64),
    /// A real number and the decimals it is printed with.
    Real(f64, usize),
    Text(String),
    /// Records with the same keys, written as a JSON array of objects
    /// (or, in text mode, one line each).
    Rows(Vec<Fields>),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v, decimals) => write!(f, "{v:.decimals$}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Rows(rows) => {
                let rows: Vec<String> = rows.iter().map(|r| r.to_json("")).collect();
                write!(f, "[{}]", rows.join(","))
            }
        }
    }
}

/// Named figures, in print order.
#[derive(Default)]
pub struct Fields(Vec<(&'static str, Value)>);

impl Fields {
    pub fn int(mut self, key: &'static str, v: impl TryInto<u64, Error: fmt::Debug>) -> Self {
        self.0
            .push((key, Value::Int(v.try_into().expect("a count fits in u64"))));
        self
    }

    pub fn real(mut self, key: &'static str, v: f64, decimals: usize) -> Self {
        self.0.push((key, Value::Real(v, decimals)));
        self
    }

    pub fn text(mut self, key: &'static str, v: &str) -> Self {
        self.0.push((key, Value::Text(v.to_string())));
        self
    }

    pub fn rows(mut self, key: &'static str, rows: Vec<Fields>) -> Self {
        self.0.push((key, Value::Rows(rows)));
        self
    }

    /// One JSON object, led by `"config": name` when a name is given. A
    /// real that is not finite has no JSON number and is written `null`.
    fn to_json(&self, name: &str) -> String {
        let lead = (!name.is_empty()).then(|| format!("\"config\":\"{name}\""));
        let fields = self.0.iter().map(|(k, v)| match v {
            Value::Text(s) => format!("\"{k}\":{s:?}"),
            Value::Real(r, _) if !r.is_finite() => format!("\"{k}\":null"),
            v => format!("\"{k}\":{v}"),
        });
        let all: Vec<String> = lead.into_iter().chain(fields).collect();
        format!("{{{}}}", all.join(","))
    }

    /// `name`, then one line per figure, and one per row of a list.
    fn to_text(&self, name: &str) -> String {
        let mut s = format!("{name}\n");
        for (k, v) in &self.0 {
            match v {
                Value::Rows(rows) => {
                    s += &format!("  {k}:\n");
                    for r in rows {
                        let cells: Vec<String> =
                            r.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
                        s += &format!("    {}\n", cells.join(" "));
                    }
                }
                v => s += &format!("  {k:<32} {v}\n"),
            }
        }
        s
    }
}

/// A CI bound on one measured figure: what it is, the measured value,
/// and how it must compare with the limit.
pub struct Bound(pub &'static str, pub f64, pub Op, pub f64);

#[derive(Clone, Copy)]
pub enum Op {
    AtLeast,
    Above,
    Below,
    Equals,
}

impl Bound {
    /// Whether the bound holds, and how it is written.
    fn check(&self) -> (bool, &'static str) {
        let Bound(_, v, op, limit) = *self;
        match op {
            Op::AtLeast => (v >= limit, ">="),
            Op::Above => (v > limit, ">"),
            Op::Below => (v < limit, "<"),
            Op::Equals => (v == limit, "=="),
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Bound(what, value, _, limit) = self;
        let op = self.check().1;
        write!(f, "{what}: measured {value}, bound {op} {limit}")
    }
}

/// Timed rounds per measurement; the best (for `fleet`, the median) is
/// reported, so one burst of host load moves no figure much.
pub const ROUNDS: usize = 5;

/// `f`'s result and its wall-clock nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_nanos() as u64)
}

/// The fastest of [`ROUNDS`] timed runs of `f`, with its result.
pub fn best_of<T>(mut f: impl FnMut() -> T) -> (T, u64) {
    (0..ROUNDS)
        .map(|_| timed(&mut f))
        .min_by_key(|r| r.1)
        .expect("ROUNDS > 0")
}

/// The host's available parallelism, reported with every figure that
/// depends on threads.
pub fn ncpu() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(&'static str, bool, Vec<usize>), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args).map(|(e, json, v)| (e.0, json, v))
    }

    #[test]
    fn parser_fills_defaults_and_reads_json_anywhere() {
        assert_eq!(parse("table1"), Ok(("table1", false, vec![1000, 1])));
        assert_eq!(parse("table1 32"), Ok(("table1", false, vec![32, 1])));
        assert_eq!(parse("--json tools 8"), Ok(("tools", true, vec![8])));
        assert_eq!(parse("fleet 100 --json"), Ok(("fleet", true, vec![100])));
        assert_eq!(parse("parse"), Ok(("parse", false, vec![])));
        for (name, args, _, _) in EXPERIMENTS {
            assert_eq!(parse(name).map(|p| p.2.len()), Ok(args.len()));
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for line in [
            "",
            "--json",
            "tabel1",
            "table1 0",
            "table1 -3",
            "table1 x",
            "table1 1 2 3",
            "tools --verbose",
            "decode 1",
        ] {
            assert!(parse(line).is_err(), "{line:?} was accepted");
        }
    }

    #[test]
    fn one_set_of_figures_prints_as_json_or_text() {
        let row = |t: u64| Fields::default().int("threads", t).real("speedup", 1.5, 3);
        let f = Fields::default()
            .text("engine", "cached")
            .int("n", 3usize)
            .rows("rows", vec![row(1), row(16)]);
        assert_eq!(
            f.to_json("x"),
            "{\"config\":\"x\",\"engine\":\"cached\",\"n\":3,\"rows\":\
             [{\"threads\":1,\"speedup\":1.500},{\"threads\":16,\"speedup\":1.500}]}"
        );
        let odd = Fields::default()
            .real("nan", f64::NAN, 2)
            .real("inf", f64::INFINITY, 2);
        assert_eq!(odd.to_json(""), "{\"nan\":null,\"inf\":null}");
        let text = f.to_text("x");
        assert!(text.starts_with("x\n  engine "), "{text}");
        assert!(
            text.ends_with("  rows:\n    threads=1 speedup=1.500\n    threads=16 speedup=1.500\n")
        );
    }

    #[test]
    fn bounds_compare_as_written() {
        assert!(Bound("s", 5.0, Op::AtLeast, 5.0).check().0);
        assert!(!Bound("s", 1.0, Op::Above, 1.0).check().0);
        assert!(Bound("s", 0.5, Op::Below, 1.0).check().0);
        assert!(!Bound("s", 3.0, Op::Equals, 4.0).check().0);
        let b = Bound("speedup", 4.5, Op::AtLeast, 5.0);
        assert_eq!(b.to_string(), "speedup: measured 4.5, bound >= 5");
    }
}
