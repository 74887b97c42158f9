//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! each crate's public functions; nothing inside the program is
//! instrumented. Each span records its name, start, end, parent and the
//! job it belongs to. A layer's self time is its span's duration minus
//! the time covered by its child spans. Spans are written out only when
//! the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Job id given to spans recorded outside any job (per-layer probes).
pub const PROBE_JOB: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

/// Handle for an open span; `usize::MAX` when recording is off.
#[derive(Clone, Copy)]
pub struct Open(usize);

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: PROBE_JOB,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(idx);
        Open(idx)
    }

    pub fn exit(&mut self, h: Open) {
        if h.0 == usize::MAX {
            return;
        }
        let end = self.now();
        self.spans[h.0].end_ns = end;
        // Close any span left open inside this one (an early return).
        while let Some(top) = self.open.pop() {
            if top == h.0 {
                break;
            }
            self.spans[top].end_ns = end;
        }
    }

    /// Run `f` inside a leaf span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let h = self.enter(name);
        let r = f();
        self.exit(h);
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (instances, total self nanoseconds).
    pub fn self_time(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        out
    }

    /// Mean self time per instance of `name`, in microseconds (0 when the
    /// span never occurred).
    pub fn mean_self_us(&self, name: &str) -> f64 {
        match self.self_time().get(name) {
            Some(&(n, ns)) if n > 0 => ns as f64 / n as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Serialise every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let job = if s.job == PROBE_JOB {
                "\"probe\"".to_string()
            } else {
                s.job.to_string()
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}\n",
                s.name, s.start_ns, s.end_ns, parent, job
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(true);
        sp.set_job(7);
        let outer = sp.enter("outer");
        sp.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.exit(outer);
        let st = sp.self_time();
        let (n_in, inner) = st["inner"];
        let (n_out, outer_self) = st["outer"];
        assert_eq!((n_in, n_out), (1, 1));
        assert!(inner >= 2_000_000);
        let total = sp.spans()[0].end_ns - sp.spans()[0].start_ns;
        assert_eq!(outer_self + inner, total);
        assert_eq!(sp.spans()[1].parent, Some(0));
        assert!(sp.to_jsonl().contains("\"job\":7"));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut sp = Spans::new(false);
        let h = sp.enter("x");
        sp.exit(h);
        assert!(sp.spans().is_empty());
        assert_eq!(sp.mean_self_us("x"), 0.0);
    }
}
