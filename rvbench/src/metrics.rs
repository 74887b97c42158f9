//! The metric vocabulary and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step.

use crate::common::{Deterministic, Layer};
use crate::spans::Spans;
use crate::stats;

/// End-to-end metrics, printed with tracing off.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("code_growth_pct", "%"),
    ("overhead_fn_pct", "%"),
    ("overhead_bb_pct", "%"),
    ("overhead_bb_opt_pct", "%"),
];

/// Per-layer metrics, printed by the traced run. A metric whose span
/// name is given is the mean self time of that span; every other one
/// is the per-job mean of the counter the workload recorded.
pub const PER_LAYER: [(&str, &str, Option<&str>); 54] = [
    ("symtab.open_us", "us", Some("symtab.open")),
    ("symtab.write_us", "us", Some("symtab.write")),
    ("parse.cfg_us", "us", Some("parse.cfg")),
    ("parse.ns_per_inst", "ns", None),
    ("parse.insts", "count", None),
    ("parse.blocks", "count", None),
    ("parse.functions", "count", None),
    ("isa.decode_ns_per_inst", "ns", None),
    ("dataflow.liveness_us", "us", Some("dataflow.liveness")),
    ("dataflow.loops_us", "us", Some("dataflow.loops")),
    ("analysis.compute_us", "us", Some("analysis.compute")),
    ("cache.hits", "count", None),
    ("cache.misses", "count", None),
    ("cache.evictions", "count", None),
    ("cache.hit_ratio", "ratio", None),
    ("session.find_points_us", "us", Some("session.find_points")),
    ("patch.apply_us", "us", Some("patch.apply")),
    ("patch.relocate_cpu_us", "us", None),
    ("patch.workers", "count", None),
    ("patch.plans_built", "count", None),
    ("patch.code_bytes", "bytes", None),
    ("patch.bytes_per_point", "bytes", None),
    ("patch.springboard.compressed", "count", None),
    ("patch.springboard.jal", "count", None),
    ("patch.springboard.auipc_jalr", "count", None),
    ("patch.springboard.trap", "count", None),
    ("codegen.spills", "count", None),
    ("codegen.dead_register_ratio", "ratio", None),
    ("proccontrol.spawn_us", "us", Some("proccontrol.spawn")),
    ("proccontrol.commit_us", "us", Some("proccontrol.commit")),
    ("proccontrol.regions_written", "count", None),
    ("proccontrol.events_dispatched", "count", None),
    ("emu.run_us", "us", Some("emu.run")),
    ("emu.guest_mips", "MIPS", None),
    ("emu.cached_speedup", "x", None),
    ("emu.blocks_translated", "count", None),
    ("emu.insts_per_translated_block", "count", None),
    ("emu.invalidations", "count", None),
    ("emu.cycles.original", "cycles", None),
    ("emu.cycles.springboard", "cycles", None),
    ("emu.cycles.snippet", "cycles", None),
    ("emu.cycles.relocated", "cycles", None),
    ("emu.cycles.trap", "cycles", None),
    ("stackwalker.samples", "count", None),
    ("stackwalker.max_depth", "count", None),
    ("stackwalker.us_per_sample", "us", None),
    ("tools.drain_us", "us", Some("tools.drain")),
    ("tools.serialize_ns_per_record", "ns", None),
    ("tools.validate_ns_per_record", "ns", None),
    ("tools.bytes_per_record", "bytes", None),
    ("tools.dropped", "count", None),
    ("tools.records_per_s", "1/s", None),
    ("tools.overhead_trace_pct", "%", None),
    ("bench.trace_overhead_pct", "%", None),
];

#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// A `/proc/self/status` memory figure of this process (`VmHWM:`, the
/// peak resident set, or `VmRSS:`, the current one), in MiB.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Report {
    /// `medians[p]` is the median time, on the quiet machine, of the jobs
    /// at position `p` of the workload's repeating job cycle; the cycle's
    /// medians are the job-time distribution the timings are taken from.
    /// `reference_mb` is resident memory the benchmark's reference
    /// kernels held for the whole run, left out of `peak_rss_mb`.
    pub fn end_to_end(
        &mut self,
        medians: &[f64],
        setup_s: f64,
        reference_mb: f64,
        attempted: usize,
        failures: &[String],
        det: &Deterministic,
    ) {
        let values = [
            setup_s,
            medians.len() as f64 / (medians.iter().sum::<f64>() / 1e3),
            stats::median(medians),
            stats::percentile(medians, 99.0),
            (attempted - failures.len()) as f64 / attempted as f64,
            status_mb("VmHWM:") - reference_mb,
            det.code_growth_pct,
            det.overhead_fn_pct,
            det.overhead_bb_pct,
            det.overhead_bb_opt_pct,
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            self.metrics.push((name, v, unit));
        }
    }

    pub fn per_layer(&mut self, sp: &Spans, layer: &Layer, trace_overhead_pct: f64) {
        for (name, unit, span) in PER_LAYER {
            let v = match (name, span) {
                ("bench.trace_overhead_pct", _) => trace_overhead_pct,
                (_, Some(span)) => sp.mean_self_us(span),
                (_, None) => layer.mean(name),
            };
            self.metrics.push((name, v, unit));
        }
    }

    pub fn to_json(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must agree name for
    /// name and unit for unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = rest[open..].find('"').expect("value end") + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        assert_eq!(section("per_layer"), layer);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut r = Report::default();
        r.metrics.push(("jobs_per_s", 12.5, "1/s"));
        r.metrics.push(("x", f64::NAN, "s"));
        let line = r.to_json(true, 3, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"jobs_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"x\": {\"value\": 0.0"));
    }
}
