//! The immutable, shareable front half of the instrumentation pipeline.
//!
//! Every instrumentation request against the same binary repeats the
//! same work: model the ELF, build the CFG and find its natural loops.
//! None of that depends on *what* is being instrumented — it is a pure
//! function of the binary's content — so a service handling many
//! requests against few binaries should do it once. This module splits
//! the pipeline accordingly:
//!
//! * [`Analysis`] — the complete front-half artifact (binary model +
//!   CFG with each function's loops + function-name index + the direct
//!   call sites by callee), immutable and shared behind an `Arc`. Any
//!   number of concurrent [`Session`](crate::Session)s can run their
//!   request-specific back halves (liveness of the functions they
//!   instrument, placement, lowering, layout, delivery) against one
//!   `Arc<Analysis>` from different threads. Liveness is solved in the
//!   plan phase, for the functions a request instruments only, because
//!   a request touches a handful of a binary's functions.
//! * [`AnalysisKey`] — a SHA-256 over the binary's *semantic* content:
//!   the entry point, the ISA profile material, allocatable section
//!   bytes ordered by address (a zero-filled NOBITS section by its
//!   size), and the symbol table. File-layout padding, section names,
//!   section-header order and the session's worker-thread count do not
//!   participate, so two byte-different ELFs that load identically
//!   share a key, while a single flipped text byte changes it. An
//!   analysis built outside a cache computes its key only when asked.
//! * [`AnalysisCache`] — a bounded, least-recently-used, thread-safe
//!   map from key to `Arc<Analysis>` with hit/miss/eviction counters,
//!   the substrate for [`Session::open_cached`](crate::Session) and the
//!   `rvdyn-bench service` replay experiment.
//!
//! The cache key also folds in the semantic parse options
//! ([`ParseOptions::parse_gaps`] and the instruction budget — *not* the
//! thread count, which never changes the parse result), so requests
//! with different analysis policies never alias.

use crate::diag::Diagnostics;
use crate::error::Error;
use rvdyn_parse::{CodeObject, ParseEvent, ParseOptions};
use rvdyn_patch::CallSites;
use rvdyn_symtab::Binary;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

/// A SHA-256 compression function over a whole number of 64-byte
/// blocks.
type Compress = fn(&mut [u32; 8], &[u8]);

/// The portable compression function: runs on every host, and is the
/// reference the hardware path is tested against.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
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
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
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
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86 SHA extensions' compression function.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::SHA256_K;
    use std::arch::x86_64::*;

    /// Four rounds on message words `w` (already byte-swapped) with the
    /// round constants of group `i`. `abef` and `cdgh` hold the working
    /// variables in the order the SHA instructions take them.
    ///
    /// # Safety
    /// The CPU must support SHA and SSE2, and `i` must be below 16.
    #[inline(always)]
    unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = _mm_loadu_si128(SHA256_K.as_ptr().add(4 * i).cast());
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    /// Compress `blocks`, a whole number of 64-byte blocks, into `state`.
    ///
    /// # Safety
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // Big-endian message words.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let dcba = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().cast()), 0xb1);
        let efgh = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().add(4).cast()), 0x1b);
        let mut abef = _mm_alignr_epi8(dcba, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, dcba, 0xf0);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let load = |i: usize| {
                _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * i).cast()), bswap)
            };
            let mut w = [load(0), load(1), load(2), load(3)];
            for (i, &wi) in w.iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, wi, i);
            }
            for i in 4..16 {
                // W[t..t+4] from W[t-16..t].
                let sigma0 = _mm_sha256msg1_epu32(w[0], w[1]);
                let w7 = _mm_alignr_epi8(w[3], w[2], 4);
                let next = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w7), w[3]);
                rounds4(&mut abef, &mut cdgh, next, i);
                w = [w[1], w[2], w[3], next];
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

/// The hardware compression function, when this CPU has one.
fn compress_hardware() -> Option<Compress> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the features `sha_ni::compress` needs were detected.
        return Some(|state, blocks| unsafe { sha_ni::compress(state, blocks) });
    }
    None
}

/// The compression function this process uses: the hardware one where
/// the CPU has it, else the portable one. Decided on first use.
fn compress_default() -> Compress {
    static CHOSEN: OnceLock<Compress> = OnceLock::new();
    *CHOSEN.get_or_init(|| compress_hardware().unwrap_or(compress_scalar))
}

/// Incremental SHA-256, fed by the canonical-content serialiser.
struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
    compress: Compress,
}

impl Sha256 {
    fn new() -> Sha256 {
        Sha256::with(compress_default())
    }

    fn with(compress: Compress) -> Sha256 {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total: 0,
            compress,
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
                (self.compress)(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let whole = data.len() / 64 * 64;
        if whole > 0 {
            (self.compress)(&mut self.state, &data[..whole]);
            data = &data[whole..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
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
    /// A NOBITS section carries a byte that says whether its model data
    /// is all zero — always so for a section read by `Binary::parse`.
    /// A zero-filled one is hashed by its size instead of its bytes, and
    /// any other by its bytes, so the key stays an exact content
    /// address for hand-built models too.
    ///
    /// Deliberately *not* hashed: section names, section order and
    /// alignment, non-allocatable payload, and file-layout padding —
    /// none of which a loaded mutatee can observe.
    pub fn of(binary: &Binary, parse: &ParseOptions) -> AnalysisKey {
        let mut h = Sha256::new();
        h.field(b"rvdyn-analysis-key-v2");
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
            if s.sh_type == rvdyn_symtab::elf::SHT_NOBITS {
                let zero = is_zero(&s.data);
                h.update(&[zero as u8]);
                if zero {
                    h.update(&(s.data.len() as u64).to_le_bytes());
                    continue;
                }
            }
            h.field(&s.data);
        }

        // The symbol table is serialised into one buffer and hashed in a
        // single call: the same bytes, without per-field call overhead.
        let mut syms: Vec<&rvdyn_symtab::Symbol> = binary.symbols.iter().collect();
        syms.sort_by(|a, b| (a.value, a.size, &a.name).cmp(&(b.value, b.size, &b.name)));
        // Per symbol: value, size, kind and binding, name length, name.
        let bytes: usize = syms.iter().map(|s| 8 + 8 + 2 + 8 + s.name.len()).sum();
        let mut buf = Vec::with_capacity(8 + bytes);
        buf.extend_from_slice(&(syms.len() as u64).to_le_bytes());
        for s in syms {
            buf.extend_from_slice(&s.value.to_le_bytes());
            buf.extend_from_slice(&s.size.to_le_bytes());
            buf.extend_from_slice(&[s.kind as u8, s.binding as u8]);
            buf.extend_from_slice(&(s.name.len() as u64).to_le_bytes());
            buf.extend_from_slice(s.name.as_bytes());
        }
        h.update(&buf);
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

/// Is every byte zero? ORs a page at a time, which vectorises, rather
/// than stopping at the first nonzero byte.
fn is_zero(bytes: &[u8]) -> bool {
    bytes
        .chunks(4096)
        .all(|page| page.iter().fold(0u8, |acc, &b| acc | b) == 0)
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
    /// Nanoseconds building the CFG (natural loops included), the name
    /// index and the call-site index.
    pub parse_ns: u64,
}

/// The immutable front half of the pipeline for one binary: the binary
/// model, its CFG with every function's natural loops, the
/// function-name index, and the direct call sites by callee. Construct
/// with [`Analysis::compute`] (or through an [`AnalysisCache`]) and
/// share behind an `Arc` — every
/// [`Session::from_analysis`](crate::Session::from_analysis) against the
/// same artifact skips the ELF modelling and CFG construction entirely,
/// from any number of threads at once. Per-function liveness is not
/// part of it: the plan phase solves it for the functions a request
/// instruments.
pub struct Analysis {
    /// The content address: set by a cache that computed it for the
    /// lookup, else computed on the first [`Analysis::key`] call.
    key: OnceLock<AnalysisKey>,
    /// The options `code` was parsed under; the key folds in their
    /// semantic part.
    parse: ParseOptions,
    binary: Binary,
    code: CodeObject,
    /// Function entry by symbol name; the lowest entry wins a shared
    /// name. Unnamed (gap-parsed) functions are absent.
    names: HashMap<String, u64>,
    /// Direct call sites by callee.
    call_sites: CallSites,
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
        Self::with_key(None, binary, parse, observer, open_ns)
    }

    /// As [`Analysis::of_binary_observed`], carrying the binary's `key`
    /// when the caller already computed it.
    pub(crate) fn with_key(
        key: Option<AnalysisKey>,
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
        let call_sites = CallSites::of(&code);

        let parse_ns = (parse_start.elapsed().as_nanos() as u64).max(1);
        let mut parse_diag = Diagnostics::default();
        parse_diag.record_parse(&code);

        Arc::new(Analysis {
            key: key.map(OnceLock::from).unwrap_or_default(),
            parse: parse.clone(),
            binary,
            code,
            names,
            call_sites,
            timings: AnalysisTimings { open_ns, parse_ns },
            parse_diag,
        })
    }

    /// The content address of this analysis, computed on first use
    /// when the analysis was built outside a cache.
    pub fn key(&self) -> AnalysisKey {
        *self
            .key
            .get_or_init(|| AnalysisKey::of(&self.binary, &self.parse))
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

    /// Every direct call site of the CFG by callee: what instrumentation
    /// reads to let original code call a relocated function's copy.
    /// Indexed once, with the CFG, and shared by every session on this
    /// analysis.
    pub(crate) fn call_sites(&self) -> &CallSites {
        &self.call_sites
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
            .field("key", &self.key.get())
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
        let analysis = Analysis::with_key(Some(key), binary, parse, observer, 0);
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
    ///
    /// Dropping an analysis frees its whole CFG, so the entries this
    /// call replaces or evicts are dropped after the lock is released:
    /// other threads' lookups do not wait on it.
    pub fn insert(&self, analysis: Arc<Analysis>) -> u64 {
        let key = analysis.key();
        let mut dropped: Vec<CacheEntry> = Vec::new();
        let mut inner = self.inner.lock().expect("analysis cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        dropped.extend(inner.entries.insert(
            key,
            CacheEntry {
                analysis,
                last_used: tick,
            },
        ));
        let mut evicted = 0u64;
        while inner.entries.len() > self.capacity {
            let lru = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("nonempty over-capacity cache has an LRU entry");
            dropped.extend(inner.entries.remove(&lru));
            evicted += 1;
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        drop(inner);
        drop(dropped);
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
    use rvdyn_parse::nesting_depths;

    const MATMUL_KEY: &str = "4b24b1be91be22a94f5c72c84c275d63b4b1c91770528c6d58a6986d756a79b1";
    const FIB_KEY: &str = "1fade12cf691732aeed42beccdca7405e6e3feab92ccce422694eb644dc095be";
    const MANY_KEY: &str = "9a88340ddc9aef0bd66ef6168e9df557f2c605de171f2f1140e127df950bc901";

    /// Every compression function this host can run: the portable one,
    /// and the hardware one where the CPU has it.
    fn compress_paths() -> Vec<(&'static str, Compress)> {
        let mut paths: Vec<(&'static str, Compress)> = vec![("scalar", compress_scalar)];
        paths.extend(compress_hardware().map(|c| ("hardware", c)));
        paths
    }

    fn digest_with(compress: Compress, chunks: &mut dyn Iterator<Item = &[u8]>) -> String {
        let mut h = Sha256::with(compress);
        for chunk in chunks {
            h.update(chunk);
        }
        h.finish().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-4 test vectors pin the digest, on every compress path.
    #[test]
    fn sha256_known_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (path, compress) in compress_paths() {
            for (input, want) in vectors {
                let got = digest_with(compress, &mut std::iter::once(input));
                assert_eq!(got, want, "{path}: {} bytes", input.len());
            }
            // Multi-block + incremental feeding agree.
            let got = digest_with(compress, &mut vectors[2].0.chunks(7));
            assert_eq!(got, vectors[2].1, "{path}: fed in 7-byte chunks");
        }
    }

    /// Both compress paths give the same digest for every input length
    /// up to 1,000 bytes, fed whole or in pieces of several sizes.
    #[test]
    fn sha256_paths_agree_on_every_length_and_split() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        let paths = compress_paths();
        for len in 0..=data.len() {
            let input = &data[..len];
            let want = digest_with(compress_scalar, &mut std::iter::once(input));
            for &(path, compress) in &paths {
                for split in [1, 7, 63, 64, 65, 1000] {
                    let got = digest_with(compress, &mut input.chunks(split));
                    assert_eq!(got, want, "{path}: {len} bytes fed in {split}-byte chunks");
                }
            }
        }
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

    /// A binary's `.bss` section, by name.
    fn bss(bin: &mut Binary) -> &mut rvdyn_symtab::Section {
        bin.sections
            .iter_mut()
            .find(|s| s.name == ".bss")
            .expect("program has a .bss")
    }

    #[test]
    fn nobits_sections_are_keyed_by_size() {
        let opts = ParseOptions::default();
        let base = rvdyn_asm::matmul_program(6, 2);
        let key = AnalysisKey::of(&base, &opts);

        let mut grown = base.clone();
        let len = bss(&mut grown).data.len();
        bss(&mut grown).data.resize(len + 8, 0);
        assert_ne!(key, AnalysisKey::of(&grown, &opts), ".bss size is keyed");

        // Nonzero model data is keyed by content, apart from all zeros.
        let mut dirty = base.clone();
        bss(&mut dirty).data[0] = 1;
        assert_ne!(key, AnalysisKey::of(&dirty, &opts), ".bss content is keyed");

        // An ELF round trip zero-fills NOBITS, and keeps the key.
        let reparsed = Binary::parse(&base.to_bytes().unwrap()).unwrap();
        assert_eq!(key, AnalysisKey::of(&reparsed, &opts), "ELF round trip");
    }

    /// The v2 keys of three binaries, pinned.
    #[test]
    fn v2_keys_are_pinned() {
        let opts = ParseOptions::default();
        for (bin, want) in [
            (rvdyn_asm::matmul_program(6, 2), MATMUL_KEY),
            (rvdyn_asm::fib_program(5), FIB_KEY),
            (rvdyn_asm::many_functions_program(8), MANY_KEY),
        ] {
            assert_eq!(AnalysisKey::of(&bin, &opts).to_hex(), want);
        }
    }

    #[test]
    fn key_is_computed_on_first_use_outside_a_cache() {
        let opts = ParseOptions::default();
        let bin = rvdyn_asm::fib_program(5);
        let want = AnalysisKey::of(&bin, &opts);
        let fresh = Analysis::of_binary(bin, &opts);
        assert!(fresh.key.get().is_none(), "no key before it is asked for");
        assert_eq!(fresh.key(), want);

        let elf = rvdyn_asm::fib_program(5).to_bytes().unwrap();
        let cached = AnalysisCache::new(1).analyze(&elf, &opts).unwrap();
        assert_eq!(cached.analysis.key.get(), Some(&want), "set by the cache");
    }

    #[test]
    fn evicted_analyses_are_dropped() {
        let cache = AnalysisCache::new(1);
        let opts = ParseOptions::default();
        let elf = rvdyn_asm::fib_program(4).to_bytes().unwrap();
        let first = Arc::downgrade(&cache.analyze(&elf, &opts).unwrap().analysis);
        assert!(first.upgrade().is_some(), "resident");
        let second = rvdyn_asm::fib_program(5).to_bytes().unwrap();
        assert_eq!(cache.analyze(&second, &opts).unwrap().evicted, 1);
        assert!(first.upgrade().is_none(), "dropped on eviction");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn analysis_loops_give_the_recomputed_depths() {
        let elf = rvdyn_asm::matmul_program(5, 1).to_bytes().unwrap();
        let analysis = Analysis::compute(&elf, &ParseOptions::default()).unwrap();
        assert!(analysis.timings().open_ns > 0);
        assert!(analysis.timings().parse_ns > 0);
        for f in analysis.code().functions.values() {
            // Counted over the function's kept loops, equal to a
            // recomputation from the CFG.
            assert_eq!(nesting_depths(f, f.loops()), rvdyn_parse::loop_depths(f));
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
        assert_eq!(
            seq.code().functions.keys().collect::<Vec<_>>(),
            par.code().functions.keys().collect::<Vec<_>>()
        );
        for (s, p) in seq
            .code()
            .functions
            .values()
            .zip(par.code().functions.values())
        {
            assert_eq!(nesting_depths(s, s.loops()), nesting_depths(p, p.loops()));
        }
    }
}
