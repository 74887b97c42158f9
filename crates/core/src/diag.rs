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
use std::fmt;

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
    /// Direct-branch chain links installed between cached blocks.
    pub emu_chain_links: u64,

    // -- tools (memory tracer / sampling profiler; see docs/TOOLS.md) --
    /// Load/store sites the memory tracer instrumented.
    pub trace_points_planned: u64,
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
    }

    /// Fill the run-stage counters from the mutatee's final machine state.
    pub fn record_run(&mut self, icount: u64, cycles: u64) {
        self.instret = icount;
        self.cycles = cycles;
    }

    /// Fill the execution-engine counters from the machine's translation
    /// cache (all zero when the run used the interpreter).
    pub fn record_emu(&mut self, blocks_translated: u64, invalidations: u64, chain_links: u64) {
        self.emu_blocks_translated = blocks_translated;
        self.emu_invalidations = invalidations;
        self.emu_chain_links = chain_links;
    }

    /// Serialise the full diagnostics — counters and per-stage timings —
    /// as a self-describing JSON object (schema `rvdyn-diagnostics-v1`).
    /// Every value is a JSON number, so the output needs no escaping and
    /// is stable across platforms.
    pub fn to_json(&self) -> String {
        let t = &self.timings;
        format!(
            concat!(
                "{{\"schema\":\"rvdyn-diagnostics-v1\",",
                "\"parse\":{{\"functions\":{},\"blocks\":{},\"instructions\":{},",
                "\"unresolved_indirects\":{},\"jump_tables_resolved\":{},",
                "\"gap_functions\":{}}},",
                "\"instrument\":{{\"points\":{},\"dead_register_points\":{},",
                "\"spills\":{},\"patch_regions_written\":{},",
                "\"clobbers_audited\":{},\"redirects_registered\":{},",
                "\"counters_placed\":{},\"counters_elided\":{},",
                "\"instrument_workers\":{},\"plans_built\":{},",
                "\"springboards\":{{\"compressed_jump\":{},\"jal\":{},",
                "\"auipc_jalr\":{},\"trap\":{}}}}},",
                "\"run\":{{\"instret\":{},\"cycles\":{},",
                "\"counts_reconstructed\":{}}},",
                "\"faults\":{{\"injected\":{}}},",
                "\"cache\":{{\"analysis_cache_hits\":{},",
                "\"analysis_cache_misses\":{},",
                "\"analysis_cache_evictions\":{}}},",
                "\"emu\":{{\"blocks_translated\":{},",
                "\"invalidations\":{},\"chain_links\":{}}},",
                "\"tools\":{{\"trace_points_planned\":{},",
                "\"trace_records\":{},\"trace_dropped\":{},",
                "\"profile_samples\":{},\"profile_max_depth\":{}}},",
                "\"timings_ns\":{{\"open\":{},\"parse\":{},\"instrument\":{},",
                "\"relocate\":{},\"commit\":{},\"run\":{}}}}}"
            ),
            self.functions_parsed,
            self.blocks_parsed,
            self.instructions_decoded,
            self.unresolved_indirects,
            self.jump_tables_resolved,
            self.gap_functions,
            self.points_instrumented,
            self.dead_register_points,
            self.spills,
            self.patch_regions_written,
            self.clobbers_audited,
            self.redirects_registered,
            self.counters_placed,
            self.counters_elided,
            self.instrument_workers,
            self.plans_built,
            self.springboards.compressed_jump,
            self.springboards.jal,
            self.springboards.auipc_jalr,
            self.springboards.trap,
            self.instret,
            self.cycles,
            self.counts_reconstructed,
            self.faults_injected,
            self.analysis_cache_hits,
            self.analysis_cache_misses,
            self.analysis_cache_evictions,
            self.emu_blocks_translated,
            self.emu_invalidations,
            self.emu_chain_links,
            self.trace_points_planned,
            self.trace_records,
            self.trace_dropped,
            self.profile_samples,
            self.profile_max_depth,
            t.open_ns,
            t.parse_ns,
            t.instrument_ns,
            t.relocate_ns,
            t.commit_ns,
            t.run_ns,
        )
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "parse:      {} functions, {} blocks, {} instructions, \
             {} unresolved indirects",
            self.functions_parsed,
            self.blocks_parsed,
            self.instructions_decoded,
            self.unresolved_indirects
        )?;
        if self.jump_tables_resolved > 0 || self.gap_functions > 0 {
            writeln!(
                f,
                "            {} jump tables resolved, {} gap functions",
                self.jump_tables_resolved, self.gap_functions
            )?;
        }
        writeln!(
            f,
            "instrument: {} points ({} dead-register, {} spilled registers)",
            self.points_instrumented, self.dead_register_points, self.spills
        )?;
        if self.instrument_workers > 1 {
            writeln!(
                f,
                "            {} plans built on {} workers",
                self.plans_built, self.instrument_workers
            )?;
        }
        writeln!(
            f,
            "springboards: {} c.j, {} jal, {} auipc+jalr, {} trap",
            self.springboards.compressed_jump,
            self.springboards.jal,
            self.springboards.auipc_jalr,
            self.springboards.trap
        )?;
        if self.clobbers_audited > 0 {
            writeln!(
                f,
                "soundness:  {} clobbered addresses audited, {} redirects registered",
                self.clobbers_audited, self.redirects_registered
            )?;
        }
        if self.counters_placed > 0 {
            writeln!(
                f,
                "placement:  {} counters placed, {} elided \
                 ({} counts reconstructed)",
                self.counters_placed, self.counters_elided, self.counts_reconstructed
            )?;
        }
        if self.faults_injected > 0 {
            writeln!(f, "faults:     {} injected", self.faults_injected)?;
        }
        if self.analysis_cache_hits > 0 || self.analysis_cache_misses > 0 {
            writeln!(
                f,
                "cache:      {} hits, {} misses, {} evictions",
                self.analysis_cache_hits, self.analysis_cache_misses, self.analysis_cache_evictions
            )?;
        }
        if self.patch_regions_written > 0 {
            writeln!(
                f,
                "delivery:   {} coalesced patch regions written + verified",
                self.patch_regions_written
            )?;
        }
        writeln!(
            f,
            "run:        {} instret, {} cycles",
            self.instret, self.cycles
        )?;
        if self.emu_blocks_translated > 0 {
            writeln!(
                f,
                "engine:     {} blocks translated, {} chain links, {} invalidations",
                self.emu_blocks_translated, self.emu_chain_links, self.emu_invalidations
            )?;
        }
        if self.trace_points_planned > 0 {
            writeln!(
                f,
                "trace:      {} points, {} records recovered, {} dropped",
                self.trace_points_planned, self.trace_records, self.trace_dropped
            )?;
        }
        if self.profile_samples > 0 {
            writeln!(
                f,
                "profile:    {} samples, deepest stack {} frames",
                self.profile_samples, self.profile_max_depth
            )?;
        }
        write!(f, "timings:    {}", self.timings)
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

    #[test]
    fn json_is_parseable_and_schema_stable() {
        let mut d = Diagnostics {
            functions_parsed: 3,
            blocks_parsed: 17,
            instructions_decoded: 411,
            unresolved_indirects: 1,
            jump_tables_resolved: 2,
            gap_functions: 1,
            points_instrumented: 11,
            dead_register_points: 11,
            spills: 0,
            patch_regions_written: 4,
            clobbers_audited: 6,
            redirects_registered: 5,
            counters_placed: 4,
            counters_elided: 7,
            instrument_workers: 4,
            plans_built: 9,
            faults_injected: 2,
            instret: 123_456,
            cycles: 234_567,
            counts_reconstructed: 11,
            analysis_cache_hits: 8,
            analysis_cache_misses: 2,
            analysis_cache_evictions: 1,
            emu_blocks_translated: 42,
            emu_invalidations: 3,
            emu_chain_links: 40,
            trace_points_planned: 12,
            trace_records: 900,
            trace_dropped: 5,
            profile_samples: 64,
            profile_max_depth: 9,
            ..Default::default()
        };
        d.timings.record(TimedStage::Parse, 1_000);
        d.timings.record(TimedStage::Instrument, 2_000);
        d.timings.record(TimedStage::Run, 3_000);
        let j = d.to_json();
        check_json(&j).expect("diagnostics JSON must parse");

        // Schema stability: every v1 key present, in its section.
        for key in [
            "\"schema\":\"rvdyn-diagnostics-v1\"",
            "\"parse\":{",
            "\"functions\":3",
            "\"blocks\":17",
            "\"instructions\":411",
            "\"unresolved_indirects\":1",
            "\"jump_tables_resolved\":2",
            "\"gap_functions\":1",
            "\"instrument\":{",
            "\"points\":11",
            "\"dead_register_points\":11",
            "\"spills\":0",
            "\"patch_regions_written\":4",
            "\"clobbers_audited\":6",
            "\"redirects_registered\":5",
            "\"counters_placed\":4",
            "\"counters_elided\":7",
            "\"instrument_workers\":4",
            "\"plans_built\":9",
            "\"springboards\":{",
            "\"compressed_jump\":",
            "\"jal\":",
            "\"auipc_jalr\":",
            "\"trap\":",
            "\"run\":{",
            "\"instret\":123456",
            "\"cycles\":234567",
            "\"counts_reconstructed\":11",
            "\"faults\":{",
            "\"injected\":2",
            "\"cache\":{",
            "\"analysis_cache_hits\":8",
            "\"analysis_cache_misses\":2",
            "\"analysis_cache_evictions\":1",
            "\"emu\":{",
            "\"blocks_translated\":42",
            "\"invalidations\":3",
            "\"chain_links\":40",
            "\"tools\":{",
            "\"trace_points_planned\":12",
            "\"trace_records\":900",
            "\"trace_dropped\":5",
            "\"profile_samples\":64",
            "\"profile_max_depth\":9",
            "\"timings_ns\":{",
            "\"open\":0",
            "\"parse\":1000",
            "\"instrument\":2000",
            "\"relocate\":0",
            "\"commit\":0",
            "\"run\":3000",
        ] {
            assert!(j.contains(key), "JSON missing {key}: {j}");
        }
    }

    #[test]
    fn default_json_parses_too() {
        check_json(&Diagnostics::default().to_json()).expect("default JSON");
    }
}
