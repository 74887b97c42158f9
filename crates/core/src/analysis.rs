//! The immutable, shareable front half of the instrumentation pipeline.
//!
//! Every instrumentation request against the same binary repeats the
//! same work: model the ELF, build the CFG, compute loop depths, solve
//! per-function liveness. None of that depends on *what* is being
//! instrumented — it is a pure function of the binary's content — so a
//! service handling many requests against few binaries should do it
//! once. This module splits the pipeline accordingly:
//!
//! * [`Analysis`] — the complete front-half artifact (binary model +
//!   CFG + function-name index + loop depths + liveness), immutable and
//!   shared behind an `Arc`. Any number of concurrent
//!   [`Session`](crate::Session)s can run their request-specific back
//!   halves (placement, lowering, layout, delivery) against one
//!   `Arc<Analysis>` from different threads.
//! * [`AnalysisKey`] — a SHA-256 over the binary's *semantic* content:
//!   the entry point, the ISA profile material, allocatable section
//!   bytes ordered by address, and the symbol table. File-layout
//!   padding, section names, section-header order and the session's
//!   worker-thread count do not participate, so two byte-different
//!   ELFs that load identically share a key, while a single flipped
//!   text byte changes it.
//! * [`AnalysisCache`] — a bounded, least-recently-used, thread-safe
//!   map from key to `Arc<Analysis>` with hit/miss/eviction counters,
//!   the substrate for [`Session::open_cached`](crate::Session) and the
//!   `rvdyn-bench --bin service` replay harness.
//!
//! The cache key also folds in the semantic parse options
//! ([`ParseOptions::parse_gaps`] and the instruction budget — *not* the
//! thread count, which never changes the parse result), so requests
//! with different analysis policies never alias.

use crate::diag::Diagnostics;
use crate::error::Error;
use rvdyn_dataflow::Liveness;
use rvdyn_parse::worklist::Worklist;
use rvdyn_parse::{nesting_depths, CodeObject, Function, ParseEvent, ParseOptions};
use rvdyn_symtab::Binary;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4), hand-rolled: the workspace carries no external
// dependencies, and a content-addressed cache needs a real collision-
// resistant digest, not a 64-bit mixer.
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256, fed by the canonical-content serialiser.
struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
}

impl Sha256 {
    fn new() -> Sha256 {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, c) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        self.update(&bit_len.to_be_bytes());
        let mut out = [0u8; 32];
        for (c, s) in out.chunks_exact_mut(4).zip(self.state) {
            c.copy_from_slice(&s.to_be_bytes());
        }
        out
    }

    /// Length-prefixed field, so adjacent variable-length fields can
    /// never alias each other's boundaries.
    fn field(&mut self, bytes: &[u8]) {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes);
    }
}

// ---------------------------------------------------------------------------
// AnalysisKey
// ---------------------------------------------------------------------------

/// Content address of one binary's analysis: a SHA-256 over the loaded
/// semantic content (see [`AnalysisKey::of`]). Two ELF files that load
/// identically — regardless of file padding, section names or
/// section-header order — share a key; any change to loaded bytes,
/// symbols, the entry point or the ISA profile produces a new one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AnalysisKey(pub [u8; 32]);

impl AnalysisKey {
    /// Compute the content key of a binary model under the given parse
    /// options.
    ///
    /// Hashed (each field length-prefixed): a schema tag; entry point,
    /// `e_flags`, `e_type`; the `.riscv.attributes` arch string (the
    /// profile source); the *semantic* parse options (`parse_gaps`,
    /// instruction budget — not the worker-thread count, which never
    /// changes a parse result); every allocatable section ordered by
    /// address as `(sh_type, flags, addr, data)`; every symbol ordered
    /// by `(value, size, name)` with its kind and binding.
    ///
    /// Deliberately *not* hashed: section names, section order and
    /// alignment, non-allocatable payload, and file-layout padding —
    /// none of which a loaded mutatee can observe.
    pub fn of(binary: &Binary, parse: &ParseOptions) -> AnalysisKey {
        let mut h = Sha256::new();
        h.field(b"rvdyn-analysis-key-v1");
        h.update(&binary.entry.to_le_bytes());
        h.update(&binary.e_flags.to_le_bytes());
        h.update(&binary.e_type.to_le_bytes());
        let arch = binary
            .attributes
            .as_ref()
            .and_then(|a| a.arch.clone())
            .unwrap_or_default();
        h.field(arch.as_bytes());
        h.update(&[parse.parse_gaps as u8]);
        h.update(&(parse.max_insts_per_function as u64).to_le_bytes());

        let mut alloc: Vec<&rvdyn_symtab::Section> = binary
            .sections
            .iter()
            .filter(|s| s.flags & rvdyn_symtab::SHF_ALLOC != 0)
            .collect();
        alloc.sort_by_key(|s| s.addr);
        h.update(&(alloc.len() as u64).to_le_bytes());
        for s in alloc {
            h.update(&s.sh_type.to_le_bytes());
            h.update(&s.flags.to_le_bytes());
            h.update(&s.addr.to_le_bytes());
            h.field(&s.data);
        }

        let mut syms: Vec<&rvdyn_symtab::Symbol> = binary.symbols.iter().collect();
        syms.sort_by(|a, b| (a.value, a.size, &a.name).cmp(&(b.value, b.size, &b.name)));
        h.update(&(syms.len() as u64).to_le_bytes());
        for s in syms {
            h.update(&s.value.to_le_bytes());
            h.update(&s.size.to_le_bytes());
            h.update(&[s.kind as u8, s.binding as u8]);
            h.field(s.name.as_bytes());
        }
        AnalysisKey(h.finish())
    }

    /// Lowercase hex rendering of the full 256-bit key.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// The leading 8 bytes as an integer — the short form carried by
    /// telemetry events and log lines.
    pub fn prefix(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().unwrap())
    }
}

impl fmt::Debug for AnalysisKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AnalysisKey({:016x}…)", self.prefix())
    }
}

impl fmt::Display for AnalysisKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Wall-clock attribution for one front-half computation, kept on the
/// artifact so a cold session can report where its time went and a warm
/// session can prove it spent none.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisTimings {
    /// Nanoseconds modelling the ELF (`Binary::parse`).
    pub open_ns: u64,
    /// Nanoseconds building the CFG plus the name index, loop depths and
    /// liveness.
    pub parse_ns: u64,
}

/// The complete immutable front half of the pipeline for one binary:
/// everything instrumentation needs that depends only on the binary's
/// content. Construct with [`Analysis::compute`] (or through an
/// [`AnalysisCache`]) and share behind an `Arc` — every
/// [`Session::from_analysis`](crate::Session::from_analysis) against the
/// same artifact skips the parse, loop and liveness work entirely, from
/// any number of threads at once.
pub struct Analysis {
    key: AnalysisKey,
    binary: Binary,
    code: CodeObject,
    /// Function entry by symbol name; the lowest entry wins a shared
    /// name. Unnamed (gap-parsed) functions are absent.
    names: HashMap<String, u64>,
    /// Natural-loop nesting depth per block, per function entry.
    loop_depths: BTreeMap<u64, BTreeMap<u64, usize>>,
    /// Liveness solution per function entry.
    liveness: BTreeMap<u64, Liveness>,
    timings: AnalysisTimings,
    /// The parse-stage counters of `code`, every other field zero: the
    /// diagnostics every session on this analysis starts from.
    parse_diag: Diagnostics,
}

// The whole point of the artifact is cross-thread sharing; fail the
// build, not the deployment, if a field ever stops being shareable.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Analysis>();
};

impl Analysis {
    /// Model an ELF image and compute its full front-half analysis.
    pub fn compute(elf: &[u8], parse: &ParseOptions) -> Result<Arc<Analysis>, Error> {
        Self::compute_observed(elf, parse, &mut |_| {})
    }

    /// As [`Analysis::compute`], reporting parse milestones to
    /// `observer` (the facade's telemetry adapter).
    pub fn compute_observed(
        elf: &[u8],
        parse: &ParseOptions,
        observer: &mut dyn FnMut(ParseEvent),
    ) -> Result<Arc<Analysis>, Error> {
        let open_start = std::time::Instant::now();
        let binary = Binary::parse(elf)?;
        let open_ns = (open_start.elapsed().as_nanos() as u64).max(1);
        Ok(Self::of_binary_observed(binary, parse, observer, open_ns))
    }

    /// Analyze an in-memory binary model (no `open` stage).
    pub fn of_binary(binary: Binary, parse: &ParseOptions) -> Arc<Analysis> {
        Self::of_binary_observed(binary, parse, &mut |_| {}, 0)
    }

    /// As [`Analysis::of_binary`] with a parse observer and a
    /// caller-measured `open` duration to carry on the artifact.
    pub fn of_binary_observed(
        binary: Binary,
        parse: &ParseOptions,
        observer: &mut dyn FnMut(ParseEvent),
        open_ns: u64,
    ) -> Arc<Analysis> {
        let key = AnalysisKey::of(&binary, parse);
        Self::with_key(key, binary, parse, observer, open_ns)
    }

    /// As [`Analysis::of_binary_observed`] for a caller that already
    /// computed the binary's `key`.
    pub(crate) fn with_key(
        key: AnalysisKey,
        binary: Binary,
        parse: &ParseOptions,
        observer: &mut dyn FnMut(ParseEvent),
        open_ns: u64,
    ) -> Arc<Analysis> {
        let parse_start = std::time::Instant::now();
        let code = CodeObject::parse_with_observer(&binary, parse, observer);

        // Ascending entry order makes the first insert of a shared name
        // the lowest entry.
        let mut names: HashMap<String, u64> = HashMap::new();
        for f in code.functions.values() {
            if let Some(n) = &f.name {
                names.entry(n.clone()).or_insert(f.entry);
            }
        }

        // Loop depths + liveness per function. Independent across
        // functions, so fan out over the same batch worklist the
        // parallel parser and the instrumenter's plan phase use; the
        // results land in BTreeMaps keyed by entry, so the artifact is
        // identical for every worker count. The depths count over the
        // loops the parser already found.
        let depths = |f: &Function| nesting_depths(f, &f.loops);
        let entries: Vec<u64> = code.functions.keys().copied().collect();
        let nworkers = parse.threads.max(1).min(entries.len().max(1));
        let mut loop_depths_map = BTreeMap::new();
        let mut liveness_map = BTreeMap::new();
        if nworkers <= 1 {
            for &fe in &entries {
                let f = &code.functions[&fe];
                loop_depths_map.insert(fe, depths(f));
                liveness_map.insert(fe, Liveness::analyze(f));
            }
        } else {
            type PerFn = (u64, BTreeMap<u64, usize>, Liveness);
            let wl = Worklist::new(entries.iter().copied(), nworkers);
            let results: Mutex<Vec<PerFn>> = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for _ in 0..nworkers {
                    scope.spawn(|| {
                        let mut local: Vec<PerFn> = Vec::new();
                        loop {
                            let batch = wl.next_batch();
                            if batch.is_empty() {
                                break;
                            }
                            for &fe in &batch {
                                let f = &code.functions[&fe];
                                local.push((fe, depths(f), Liveness::analyze(f)));
                            }
                            wl.complete(batch.len(), std::iter::empty());
                        }
                        if !local.is_empty() {
                            results.lock().unwrap().extend(local);
                        }
                    });
                }
            });
            for (fe, d, lv) in results.into_inner().unwrap() {
                loop_depths_map.insert(fe, d);
                liveness_map.insert(fe, lv);
            }
        }
        let parse_ns = (parse_start.elapsed().as_nanos() as u64).max(1);
        let mut parse_diag = Diagnostics::default();
        parse_diag.record_parse(&code);

        Arc::new(Analysis {
            key,
            binary,
            code,
            names,
            loop_depths: loop_depths_map,
            liveness: liveness_map,
            timings: AnalysisTimings { open_ns, parse_ns },
            parse_diag,
        })
    }

    /// The content address of this analysis.
    pub fn key(&self) -> AnalysisKey {
        self.key
    }

    /// The modelled binary.
    pub fn binary(&self) -> &Binary {
        &self.binary
    }

    /// The parsed CFG.
    pub fn code(&self) -> &CodeObject {
        &self.code
    }

    /// Entry of the function named `name`: the lowest entry when
    /// several functions share the name. Functions without a symbol
    /// name (found by gap parsing) cannot be looked up.
    pub fn function_entry(&self, name: &str) -> Option<u64> {
        self.names.get(name).copied()
    }

    /// Natural-loop nesting depths for the function at `entry`.
    pub fn loop_depths(&self, entry: u64) -> Option<&BTreeMap<u64, usize>> {
        self.loop_depths.get(&entry)
    }

    /// The liveness solution for the function at `entry`.
    pub fn liveness(&self, entry: u64) -> Option<&Liveness> {
        self.liveness.get(&entry)
    }

    /// The full per-function liveness table (the instrumenter's
    /// precomputed-analysis input).
    pub fn liveness_table(&self) -> &BTreeMap<u64, Liveness> {
        &self.liveness
    }

    /// What the front half cost to compute, in wall-clock nanoseconds.
    pub fn timings(&self) -> AnalysisTimings {
        self.timings
    }

    /// Diagnostics holding only this analysis's parse-stage counters.
    pub(crate) fn parse_diagnostics(&self) -> &Diagnostics {
        &self.parse_diag
    }
}

impl fmt::Debug for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Analysis")
            .field("key", &self.key)
            .field("functions", &self.code.functions.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// AnalysisCache
// ---------------------------------------------------------------------------

/// Point-in-time counters of one [`AnalysisCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute a fresh analysis.
    pub misses: u64,
    /// Entries dropped to enforce the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// The capacity bound.
    pub capacity: usize,
}

/// Outcome of one [`AnalysisCache::analyze`] request.
pub struct CacheOutcome {
    /// The (possibly shared) analysis artifact.
    pub analysis: Arc<Analysis>,
    /// Whether the artifact came from the cache.
    pub hit: bool,
    /// Entries evicted while inserting this artifact (0 on a hit).
    pub evicted: u64,
}

struct CacheEntry {
    analysis: Arc<Analysis>,
    last_used: u64,
}

struct CacheInner {
    entries: HashMap<AnalysisKey, CacheEntry>,
    tick: u64,
}

/// A bounded, thread-safe, least-recently-used map from
/// [`AnalysisKey`] to `Arc<Analysis>`: the shared front-half store a
/// long-running instrumentation service keeps between requests.
///
/// Capacity is counted in entries (distinct binaries), not bytes —
/// analyses for the same workload are of similar size, and an entry
/// count is what the replay benchmarks and tests reason about. A
/// capacity of 0 disables retention entirely (every request misses).
///
/// Misses compute *outside* the lock, so concurrent sessions analysing
/// different binaries do not serialise; if two threads race to fill the
/// same key, both compute and the artifacts are interchangeable (the
/// analysis is a pure function of the key's content).
pub struct AnalysisCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl AnalysisCache {
    /// An empty cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Arc<AnalysisCache> {
        Arc::new(AnalysisCache {
            capacity,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// Model `elf` and return its analysis, from the cache when the
    /// content key is resident, computing and inserting it otherwise.
    pub fn analyze(&self, elf: &[u8], parse: &ParseOptions) -> Result<CacheOutcome, Error> {
        self.analyze_observed(elf, parse, &mut |_| {})
    }

    /// As [`AnalysisCache::analyze`], reporting parse milestones of a
    /// miss's computation to `observer` (hits emit nothing — no parse
    /// happens).
    pub fn analyze_observed(
        &self,
        elf: &[u8],
        parse: &ParseOptions,
        observer: &mut dyn FnMut(ParseEvent),
    ) -> Result<CacheOutcome, Error> {
        let binary = Binary::parse(elf)?;
        let key = AnalysisKey::of(&binary, parse);
        if let Some(analysis) = self.get(key) {
            return Ok(CacheOutcome {
                analysis,
                hit: true,
                evicted: 0,
            });
        }
        let analysis = Analysis::with_key(key, binary, parse, observer, 0);
        let evicted = self.insert(analysis.clone());
        Ok(CacheOutcome {
            analysis,
            hit: false,
            evicted,
        })
    }

    /// Look `key` up, refreshing its recency on a hit. Counts a hit or
    /// a miss either way.
    pub fn get(&self, key: AnalysisKey) -> Option<Arc<Analysis>> {
        let mut inner = self.inner.lock().expect("analysis cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&key) {
            Some(e) => {
                e.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.analysis.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `analysis` under its own key, evicting
    /// least-recently-used entries to stay within capacity. Returns how
    /// many entries were evicted.
    pub fn insert(&self, analysis: Arc<Analysis>) -> u64 {
        let key = analysis.key();
        let mut inner = self.inner.lock().expect("analysis cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(
            key,
            CacheEntry {
                analysis,
                last_used: tick,
            },
        );
        let mut evicted = 0u64;
        while inner.entries.len() > self.capacity {
            let lru = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("nonempty over-capacity cache has an LRU entry");
            inner.entries.remove(&lru);
            evicted += 1;
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        evicted
    }

    /// Is `key` resident? Does not touch recency or the counters.
    pub fn contains(&self, key: AnalysisKey) -> bool {
        self.inner
            .lock()
            .expect("analysis cache poisoned")
            .entries
            .contains_key(&key)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("analysis cache poisoned")
            .entries
            .len()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound (entries).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 180-4 test vectors pin the digest implementation.
    #[test]
    fn sha256_known_vectors() {
        let hex = |bytes: &[u8]| {
            let mut h = Sha256::new();
            h.update(bytes);
            h.finish()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<String>()
        };
        assert_eq!(
            hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Multi-block + incremental feeding agree.
        let mut h = Sha256::new();
        for chunk in b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".chunks(7) {
            h.update(chunk);
        }
        assert_eq!(
            h.finish()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<String>(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn key_is_stable_and_content_sensitive() {
        let opts = ParseOptions::default();
        let a = rvdyn_asm::matmul_program(6, 2);
        let k1 = AnalysisKey::of(&a, &opts);
        let k2 = AnalysisKey::of(&a, &opts);
        assert_eq!(k1, k2, "keying is deterministic");
        assert_eq!(k1.to_hex().len(), 64);

        let b = rvdyn_asm::matmul_program(7, 2);
        assert_ne!(k1, AnalysisKey::of(&b, &opts), "different content");

        // Thread count is not semantic; gap parsing is.
        let threads = ParseOptions {
            threads: 8,
            ..ParseOptions::default()
        };
        assert_eq!(k1, AnalysisKey::of(&a, &threads));
        let gaps = ParseOptions {
            parse_gaps: true,
            ..ParseOptions::default()
        };
        assert_ne!(k1, AnalysisKey::of(&a, &gaps));
    }

    #[test]
    fn cache_hits_and_counts() {
        let cache = AnalysisCache::new(4);
        let elf = rvdyn_asm::fib_program(5).to_bytes().unwrap();
        let opts = ParseOptions::default();
        let cold = cache.analyze(&elf, &opts).unwrap();
        assert!(!cold.hit);
        let warm = cache.analyze(&elf, &opts).unwrap();
        assert!(warm.hit);
        assert!(Arc::ptr_eq(&cold.analysis, &warm.analysis), "shared Arc");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 1, 0, 1));
    }

    #[test]
    fn zero_capacity_cache_never_retains() {
        let cache = AnalysisCache::new(0);
        let elf = rvdyn_asm::fib_program(4).to_bytes().unwrap();
        let opts = ParseOptions::default();
        assert!(!cache.analyze(&elf, &opts).unwrap().hit);
        assert!(!cache.analyze(&elf, &opts).unwrap().hit);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn analysis_precomputes_per_function_artifacts() {
        let elf = rvdyn_asm::matmul_program(5, 1).to_bytes().unwrap();
        let analysis = Analysis::compute(&elf, &ParseOptions::default()).unwrap();
        assert!(analysis.timings().open_ns > 0);
        assert!(analysis.timings().parse_ns > 0);
        for (&fe, f) in &analysis.code().functions {
            let depths = analysis.loop_depths(fe).expect("depths precomputed");
            assert_eq!(depths.len(), f.blocks.len());
            // Counted over the parser's loops, equal to a recomputation
            // from the CFG.
            assert_eq!(*depths, rvdyn_parse::loop_depths(f));
            assert!(analysis.liveness(fe).is_some(), "liveness precomputed");
        }
    }

    #[test]
    fn parallel_and_sequential_analysis_agree() {
        let bin = rvdyn_asm::many_functions_program(23);
        let seq = Analysis::of_binary(bin.clone(), &ParseOptions::default());
        let par_opts = ParseOptions {
            threads: 4,
            ..ParseOptions::default()
        };
        let par = Analysis::of_binary(bin, &par_opts);
        assert_eq!(seq.key(), par.key());
        assert_eq!(seq.loop_depths, par.loop_depths);
        assert_eq!(
            seq.code().functions.keys().collect::<Vec<_>>(),
            par.code().functions.keys().collect::<Vec<_>>()
        );
    }
}
