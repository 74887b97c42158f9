//! Pipeline diagnostics: one struct of counters *and clocks* threaded
//! through open→parse→instrument→run, so a tool (and `rvdyn_cli`) can
//! report *what the toolkit actually did* — how much code it decoded, how
//! it planted springboards, whether dead-register allocation held up,
//! what the mutatee executed, and where the toolkit's own wall-clock time
//! went. The categories follow the paper's own evaluation axes: parse
//! coverage (§3.2.3), springboard strategy (§3.1.2), dead registers vs.
//! spills (§4.3), and the emulator's instret/cycle model (§4); the
//! [`StageTimings`] section gives perf work the per-stage attribution the
//! §4.3 table demands of the tool itself.

use crate::telemetry::StageTimings;
use rvdyn_parse::{CodeObject, EdgeKind};
use rvdyn_patch::instrument::PatchResult;
use rvdyn_patch::springboard::SpringboardStats;
use std::fmt::{self, Write as _};

/// Counters and per-stage timings for one instrumentation pipeline,
/// grouped by stage. Stages that have not run yet report zeros.
///
/// Not `Copy`: accessors hand out `&Diagnostics` so callers always see
/// live totals; take an explicit `.clone()` for a point-in-time snapshot.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    // -- parse stage --
    /// Functions discovered by ParseAPI.
    pub functions_parsed: usize,
    /// Basic blocks across all functions.
    pub blocks_parsed: usize,
    /// Instructions decoded into those blocks.
    pub instructions_decoded: u64,
    /// Indirect transfers whose targets could not be resolved (each one a
    /// soundness hazard instrumentation must treat conservatively).
    pub unresolved_indirects: usize,
    /// Blocks whose jump-table dispatch was fully resolved to edges.
    pub jump_tables_resolved: usize,
    /// Functions discovered only by gap parsing (stripped-binary path).
    pub gap_functions: usize,

    // -- instrument stage --
    /// Points that received snippets.
    pub points_instrumented: usize,
    /// Points lowered entirely from dead registers (no spill frame).
    pub dead_register_points: usize,
    /// Total registers spilled across all snippets.
    pub spills: usize,
    /// Springboard strategy histogram.
    pub springboards: SpringboardStats,
    /// Coalesced patch regions delivered (dynamic commit batching; the
    /// static path serialises an ELF instead and leaves this 0).
    pub patch_regions_written: usize,
    /// Distinct original instruction addresses the springboard clobber
    /// audit examined (soundness invariant: every one gained a redirect).
    pub clobbers_audited: usize,
    /// Distinct `(original, relocated)` redirects the audit registered in
    /// the trap table to cover the clobbered addresses.
    pub redirects_registered: usize,
    /// Block-count increment snippets actually placed by `count_blocks`
    /// (every-block: one per block; optimal: one per co-tree edge).
    pub counters_placed: u64,
    /// Counters the optimal placement avoided versus one-per-block
    /// (0 under `CounterPlacement::EveryBlock` or after a fallback).
    pub counters_elided: u64,
    /// Worker threads the instrumenter's parallel plan phase used for
    /// the most recent apply (1 = inline, no pool was spun up).
    pub instrument_workers: usize,
    /// Position-independent function plans the plan phase built (one per
    /// instrumented function; the finish phase consumed all of them).
    pub plans_built: usize,
    /// Direct calls that enter a relocated function's copy without its
    /// springboard: calls relocated with their caller, plus call sites
    /// rewritten in original code.
    pub calls_retargeted: usize,

    // -- fault injection --
    /// Debug-interface faults injected by an armed `FaultPlan` (0 in
    /// normal operation; nonzero only when a test or tool deliberately
    /// exercises the failure paths).
    pub faults_injected: u64,

    // -- analysis cache --
    /// Front-half analyses this session reused from an
    /// [`AnalysisCache`](crate::AnalysisCache) (1 for a warm
    /// `open_cached` session; 0 for cold/uncached sessions).
    pub analysis_cache_hits: u64,
    /// Cache lookups by this session that computed a fresh analysis.
    pub analysis_cache_misses: u64,
    /// Entries this session's cache insertions evicted to stay within
    /// the cache's capacity bound.
    pub analysis_cache_evictions: u64,

    // -- run stage --
    /// Instructions the mutatee retired.
    pub instret: u64,
    /// Modelled cycles the mutatee consumed.
    pub cycles: u64,
    /// Per-block counts recovered from placed counters via the CFG flow
    /// equations (0 when every block carried its own counter).
    pub counts_reconstructed: u64,

    // -- execution engine (DBT back end; all 0 under the interpreter) --
    /// Basic blocks the cached engine decoded into its translation cache.
    pub emu_blocks_translated: u64,
    /// Cached blocks killed by writes into executable text (springboard
    /// patches, `FaultPlan` corruption, self-modifying stores).
    pub emu_invalidations: u64,

    // -- tools (memory tracer / sampling profiler; see docs/TOOLS.md) --
    /// Load/store sites the memory tracer instrumented.
    pub trace_points_planned: u64,
    /// Of those, the sites planned into runs that share one cursor update
    /// per basic block.
    pub trace_runs: u64,
    /// Trace records recovered from the mutatee's ring buffer.
    pub trace_records: u64,
    /// Trace records lost because the in-mutatee ring filled up.
    pub trace_dropped: u64,
    /// Stack samples the profiler took (one per cycle-limit interrupt).
    pub profile_samples: u64,
    /// Deepest stack (in frames) any profiler sample walked.
    pub profile_max_depth: u64,

    /// Per-stage wall-clock attribution for the whole pipeline.
    pub timings: StageTimings,
}

impl Diagnostics {
    /// Fill the parse-stage counters from a parsed code object.
    pub(crate) fn record_parse(&mut self, co: &CodeObject) {
        self.functions_parsed = co.functions.len();
        self.blocks_parsed = 0;
        self.instructions_decoded = 0;
        self.unresolved_indirects = 0;
        self.jump_tables_resolved = 0;
        self.gap_functions = co.gap_functions.len();
        for f in co.functions.values() {
            self.blocks_parsed += f.blocks.len();
            for b in f.blocks.values() {
                self.instructions_decoded += b.insts.len() as u64;
                self.unresolved_indirects += b
                    .edges
                    .iter()
                    .filter(|e| e.kind == EdgeKind::Unresolved)
                    .count();
                if b.edges.iter().any(|e| e.kind == EdgeKind::IndirectJump) {
                    self.jump_tables_resolved += 1;
                }
            }
        }
    }

    /// Fill the instrument-stage counters from a patch result.
    pub(crate) fn record_patch(&mut self, r: &PatchResult) {
        self.points_instrumented = r.points_instrumented;
        self.dead_register_points = r.dead_register_points;
        self.spills = r.spill_count;
        self.springboards = r.springboards;
        self.clobbers_audited = r.clobbers_audited;
        self.redirects_registered = r.redirects_registered;
        self.instrument_workers = r.instrument_workers;
        self.plans_built = r.plans_built;
        self.calls_retargeted = r.calls_retargeted;
    }

    /// Fill the run-stage counters from the mutatee's final machine state.
    pub fn record_run(&mut self, icount: u64, cycles: u64) {
        self.instret = icount;
        self.cycles = cycles;
    }

    /// Fill the execution-engine counters from the machine's translation
    /// cache (all zero when the run used the interpreter).
    pub fn record_emu(&mut self, machine: &rvdyn_emu::Machine) {
        self.emu_blocks_translated = machine.emu_blocks_translated();
        self.emu_invalidations = machine.emu_invalidations();
    }

    /// Serialise the full diagnostics — counters and per-stage timings —
    /// as a self-describing JSON object (schema `rvdyn-diagnostics-v1`),
    /// one member per row of [`KEYS`]. Every value is a JSON number, so
    /// the output needs no escaping and is stable across platforms.
    pub fn to_json(&self) -> String {
        let mut out = open_document();
        write_members(&mut out, KEYS, self);
        out.push('}');
        out
    }
}

/// One leaf key of a diagnostics document: its dotted path from the JSON
/// root and how to read its value from a `T`.
pub type Key<T, V = u64> = (&'static str, fn(&T) -> V);

/// Every leaf key of `rvdyn-diagnostics-v1`, in emission order. The JSON
/// and the `Display` summary are both derived from this list, and a test
/// holds docs/DIAGNOSTICS.md's `schema-keys` table to it.
pub const KEYS: &[Key<Diagnostics>] = &[
    ("parse.functions", |d| d.functions_parsed as u64),
    ("parse.blocks", |d| d.blocks_parsed as u64),
    ("parse.instructions", |d| d.instructions_decoded),
    ("parse.unresolved_indirects", |d| {
        d.unresolved_indirects as u64
    }),
    ("parse.jump_tables_resolved", |d| {
        d.jump_tables_resolved as u64
    }),
    ("parse.gap_functions", |d| d.gap_functions as u64),
    ("instrument.points", |d| d.points_instrumented as u64),
    ("instrument.dead_register_points", |d| {
        d.dead_register_points as u64
    }),
    ("instrument.spills", |d| d.spills as u64),
    ("instrument.patch_regions_written", |d| {
        d.patch_regions_written as u64
    }),
    ("instrument.clobbers_audited", |d| d.clobbers_audited as u64),
    ("instrument.redirects_registered", |d| {
        d.redirects_registered as u64
    }),
    ("instrument.counters_placed", |d| d.counters_placed),
    ("instrument.counters_elided", |d| d.counters_elided),
    ("instrument.instrument_workers", |d| {
        d.instrument_workers as u64
    }),
    ("instrument.plans_built", |d| d.plans_built as u64),
    ("instrument.calls_retargeted", |d| d.calls_retargeted as u64),
    ("instrument.springboards.compressed_jump", |d| {
        d.springboards.compressed_jump as u64
    }),
    ("instrument.springboards.jal", |d| d.springboards.jal as u64),
    ("instrument.springboards.auipc_jalr", |d| {
        d.springboards.auipc_jalr as u64
    }),
    ("instrument.springboards.trap", |d| {
        d.springboards.trap as u64
    }),
    ("run.instret", |d| d.instret),
    ("run.cycles", |d| d.cycles),
    ("run.counts_reconstructed", |d| d.counts_reconstructed),
    ("faults.injected", |d| d.faults_injected),
    ("cache.analysis_cache_hits", |d| d.analysis_cache_hits),
    ("cache.analysis_cache_misses", |d| d.analysis_cache_misses),
    ("cache.analysis_cache_evictions", |d| {
        d.analysis_cache_evictions
    }),
    ("emu.blocks_translated", |d| d.emu_blocks_translated),
    ("emu.invalidations", |d| d.emu_invalidations),
    ("tools.trace_points_planned", |d| d.trace_points_planned),
    ("tools.trace_runs", |d| d.trace_runs),
    ("tools.trace_records", |d| d.trace_records),
    ("tools.trace_dropped", |d| d.trace_dropped),
    ("tools.profile_samples", |d| d.profile_samples),
    ("tools.profile_max_depth", |d| d.profile_max_depth),
    ("timings_ns.open", |d| d.timings.open_ns),
    ("timings_ns.parse", |d| d.timings.parse_ns),
    ("timings_ns.instrument", |d| d.timings.instrument_ns),
    ("timings_ns.relocate", |d| d.timings.relocate_ns),
    ("timings_ns.commit", |d| d.timings.commit_ns),
    ("timings_ns.run", |d| d.timings.run_ns),
];

/// A key's section (its path up to the last dot; empty at the root) and
/// its leaf name.
fn split(path: &str) -> (&str, &str) {
    path.rsplit_once('.').unwrap_or(("", path))
}

/// Start a diagnostics document: the opening brace and the schema tag.
pub(crate) fn open_document() -> String {
    String::from(r#"{"schema":"rvdyn-diagnostics-v1""#)
}

/// Append one value per key, read from `of`, as members of the JSON
/// object left open at the end of `out`. Consecutive keys that share a
/// section share its nested object: `a.b.c` then `a.b.d` become
/// `"a":{"b":{"c":…,"d":…}}`.
pub(crate) fn write_members<T, V: fmt::Display>(out: &mut String, keys: &[Key<T, V>], of: &T) {
    let mut open: Vec<&str> = Vec::new();
    for (path, get) in keys {
        let (section, leaf) = split(path);
        let section = section.split('.').filter(|s| !s.is_empty());
        let shared = open
            .iter()
            .zip(section.clone())
            .take_while(|(a, b)| **a == *b)
            .count();
        for _ in shared..open.len() {
            out.push('}');
        }
        open.truncate(shared);
        for name in section.skip(shared) {
            push_name(out, name);
            out.push('{');
            open.push(name);
        }
        push_name(out, leaf);
        let _ = write!(out, "{}", get(of));
    }
    out.extend(open.iter().map(|_| '}'));
}

/// Append `"name":`, after a comma unless it opens its object.
fn push_name(out: &mut String, name: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
}

impl fmt::Display for Diagnostics {
    /// One line per section with a nonzero key, listing every key of that
    /// section as `leaf=value`, then the stage timings.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = KEYS
            .iter()
            .map(|k| split(k.0).0.len() + 1)
            .max()
            .unwrap_or(0);
        for rows in KEYS.chunk_by(|a, b| split(a.0).0 == split(b.0).0) {
            let section = split(rows[0].0).0;
            if section == "timings_ns" || rows.iter().all(|(_, get)| get(self) == 0) {
                continue;
            }
            write!(f, "{:<width$}", format!("{section}:"))?;
            for (path, get) in rows {
                write!(f, " {}={}", split(path).1, get(self))?;
            }
            writeln!(f)?;
        }
        write!(f, "{:<width$} {}", "timings:", self.timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TimedStage;

    /// Minimal structural JSON checker: validates object/array nesting,
    /// string/number tokens, and separators. Enough to guarantee the
    /// hand-rolled emitter never produces unparseable output.
    fn check_json(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        fn skip_ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && (b[*i] as char).is_whitespace() {
                *i += 1;
            }
        }
        fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
            skip_ws(b, i);
            match b.get(*i) {
                Some(b'{') => {
                    *i += 1;
                    skip_ws(b, i);
                    if b.get(*i) == Some(&b'}') {
                        *i += 1;
                        return Ok(());
                    }
                    loop {
                        skip_ws(b, i);
                        if b.get(*i) != Some(&b'"') {
                            return Err(format!("expected key at {i}"));
                        }
                        string(b, i)?;
                        skip_ws(b, i);
                        if b.get(*i) != Some(&b':') {
                            return Err(format!("expected ':' at {i}"));
                        }
                        *i += 1;
                        value(b, i)?;
                        skip_ws(b, i);
                        match b.get(*i) {
                            Some(b',') => *i += 1,
                            Some(b'}') => {
                                *i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("expected ',' or '}}' at {i}")),
                        }
                    }
                }
                Some(b'"') => string(b, i),
                Some(c) if c.is_ascii_digit() || *c == b'-' => {
                    *i += 1;
                    while *i < b.len() && (b[*i].is_ascii_digit() || b[*i] == b'.' || b[*i] == b'e')
                    {
                        *i += 1;
                    }
                    Ok(())
                }
                other => Err(format!("unexpected {other:?} at {i}")),
            }
        }
        fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
            *i += 1; // opening quote
            while *i < b.len() && b[*i] != b'"' {
                if b[*i] == b'\\' {
                    *i += 1;
                }
                *i += 1;
            }
            if *i >= b.len() {
                return Err("unterminated string".into());
            }
            *i += 1;
            Ok(())
        }
        value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing garbage at {i}"));
        }
        Ok(())
    }

    /// Every counter distinct and nonzero, with fixed timings, so a
    /// swapped, dropped or renamed key changes the pinned JSON.
    fn distinct() -> Diagnostics {
        Diagnostics {
            functions_parsed: 1,
            blocks_parsed: 2,
            instructions_decoded: 3,
            unresolved_indirects: 4,
            jump_tables_resolved: 5,
            gap_functions: 6,
            points_instrumented: 7,
            dead_register_points: 8,
            spills: 9,
            springboards: SpringboardStats {
                compressed_jump: 10,
                jal: 11,
                auipc_jalr: 12,
                trap: 13,
            },
            patch_regions_written: 14,
            clobbers_audited: 15,
            redirects_registered: 16,
            counters_placed: 17,
            counters_elided: 18,
            instrument_workers: 19,
            plans_built: 20,
            calls_retargeted: 42,
            faults_injected: 21,
            analysis_cache_hits: 22,
            analysis_cache_misses: 23,
            analysis_cache_evictions: 24,
            instret: 25,
            cycles: 26,
            counts_reconstructed: 27,
            emu_blocks_translated: 28,
            emu_invalidations: 29,
            trace_points_planned: 31,
            trace_runs: 43,
            trace_records: 32,
            trace_dropped: 33,
            profile_samples: 34,
            profile_max_depth: 35,
            timings: StageTimings {
                open_ns: 36,
                parse_ns: 37,
                instrument_ns: 38,
                relocate_ns: 39,
                commit_ns: 40,
                run_ns: 41,
            },
        }
    }

    /// `to_json` for [`distinct`], as the hand-written serialiser
    /// printed it before the key table replaced it (less the
    /// `emu.chain_links` member the schema has since dropped, plus the
    /// later `instrument.calls_retargeted` and `tools.trace_runs`).
    const DISTINCT_JSON: &str = concat!(
        r#"{"schema":"rvdyn-diagnostics-v1","#,
        r#""parse":{"functions":1,"blocks":2,"instructions":3,"unresolved_indirects":4,"#,
        r#""jump_tables_resolved":5,"gap_functions":6},"#,
        r#""instrument":{"points":7,"dead_register_points":8,"spills":9,"#,
        r#""patch_regions_written":14,"clobbers_audited":15,"redirects_registered":16,"#,
        r#""counters_placed":17,"counters_elided":18,"instrument_workers":19,"plans_built":20,"#,
        r#""calls_retargeted":42,"#,
        r#""springboards":{"compressed_jump":10,"jal":11,"auipc_jalr":12,"trap":13}},"#,
        r#""run":{"instret":25,"cycles":26,"counts_reconstructed":27},"#,
        r#""faults":{"injected":21},"#,
        r#""cache":{"analysis_cache_hits":22,"analysis_cache_misses":23,"#,
        r#""analysis_cache_evictions":24},"#,
        r#""emu":{"blocks_translated":28,"invalidations":29},"#,
        r#""tools":{"trace_points_planned":31,"trace_runs":43,"trace_records":32,"#,
        r#""trace_dropped":33,"#,
        r#""profile_samples":34,"profile_max_depth":35},"#,
        r#""timings_ns":{"open":36,"parse":37,"instrument":38,"relocate":39,"commit":40,"#,
        r#""run":41}}"#,
    );

    #[test]
    fn json_is_byte_identical_to_the_v1_serialiser() {
        let j = distinct().to_json();
        check_json(&j).expect("diagnostics JSON must parse");
        assert_eq!(j, DISTINCT_JSON);
    }

    #[test]
    fn display_shows_every_nonzero_key_by_section() {
        let text = distinct().to_string();
        for (path, get) in KEYS.iter().filter(|(p, _)| !p.starts_with("timings_ns.")) {
            let (section, leaf) = split(path);
            let line = text
                .lines()
                .find(|l| l.starts_with(&format!("{section}:")))
                .unwrap_or_else(|| panic!("no {section} line in:\n{text}"));
            let shown = format!(" {leaf}={}", get(&distinct()));
            assert!(line.contains(&shown), "{path} missing from {line:?}");
        }
        assert!(text.ends_with(&format!("{}", distinct().timings)));

        // A section whose keys are all zero gets no line.
        let mut d = Diagnostics {
            instret: 5,
            ..Default::default()
        };
        d.timings.record(TimedStage::Run, 3_000);
        let text = d.to_string();
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.starts_with("run:"), "{text}");
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains(" instret=5 cycles=0 "));
    }

    #[test]
    fn default_json_parses_too() {
        check_json(&Diagnostics::default().to_json()).expect("default JSON");
    }
}
