//! The per-pc code map both execution engines share.
//!
//! One compact entry per half-word of the code region holds everything
//! the engines know about that pc: its decoded instruction (the
//! interpreter's decode cache), how often the cached engine's
//! dispatcher has entered a block there (its tier-up counter), and the
//! translated block that starts there. The dispatch path therefore
//! indexes an array where it used to hash a pc.
//!
//! Entries live in lazily allocated chunks of [`CHUNK`] half-words. The
//! code region routinely spans the gap between the original text and a
//! high patch area (dynamic instrumentation extends it across both), so
//! a flat array would cost megabytes per machine for the never-executed
//! middle — ruinous for fleets of processes held live concurrently.
//! Decoded instructions are stored densely in their chunk, one per
//! decoded pc. A chunk reserves room for 512 (2 KiB of 4-byte
//! instructions) and grows once, to 1,024, only if compressed code
//! fills it. An entry keeps its index across invalidation and a
//! re-decode overwrites it in place, so rewriting text never grows the
//! map. Per-chunk storage rather than one growing vector per machine:
//! doubling a vector of tens of megabytes copies it, and the allocator
//! keeps the pages of the abandoned copies resident (on the cold-code
//! benchmark one vector cost ≈20 MB of peak RSS over per-chunk storage).

use rvdyn_isa::Instruction;

/// Half-words per chunk: 1024 entries = 2 KiB of code text. Small
/// enough that sparse code regions stay cheap, large enough that a hot
/// loop lives in one chunk.
const CHUNK: usize = 1024;

/// What the engines know about one half-word (8 bytes).
#[derive(Clone, Copy, Default)]
struct PcEntry {
    /// Slot + 1 of the translated block entered at this pc; 0 = none.
    block: u32,
    /// Index + 1 of this pc's decoded instruction in its chunk; 0 =
    /// never decoded. Kept when the decode is invalidated.
    inst: u16,
    /// Whether `inst` holds the current decode of this pc.
    valid: bool,
    /// Dispatcher entries at this pc, saturating.
    entries: u8,
}

struct Chunk {
    pcs: [PcEntry; CHUNK],
    /// Decoded instructions, at most one per entry.
    insts: Vec<Instruction>,
}

/// The code map over `[base, end)`.
#[derive(Default)]
pub(crate) struct CodeMap {
    base: u64,
    end: u64,
    chunks: Vec<Option<Box<Chunk>>>,
}

impl CodeMap {
    /// An empty map covering `len` bytes of code from `base`.
    pub(crate) fn new(base: u64, len: u64) -> CodeMap {
        let slots = (len / 2 + 2) as usize;
        let mut chunks = Vec::new();
        chunks.resize_with(slots.div_ceil(CHUNK), || None);
        CodeMap {
            base,
            end: base + len,
            chunks,
        }
    }

    /// First byte of the code region.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// One past the last byte of the code region.
    pub(crate) fn end(&self) -> u64 {
        self.end
    }

    /// Whether `pc` lies in the code region.
    #[inline]
    pub(crate) fn contains(&self, pc: u64) -> bool {
        pc >= self.base && pc < self.end
    }

    /// The entry index of `pc`, for an even pc in the code region — the
    /// only pcs the map describes.
    #[inline]
    pub(crate) fn index(&self, pc: u64) -> Option<usize> {
        (self.contains(pc) && pc & 1 == 0).then(|| ((pc - self.base) / 2) as usize)
    }

    #[inline]
    fn entry(&self, idx: usize) -> Option<(&Chunk, PcEntry)> {
        let chunk = self.chunks.get(idx / CHUNK)?.as_deref()?;
        Some((chunk, chunk.pcs[idx % CHUNK]))
    }

    /// The entry at `idx` and its chunk's decodes, allocating the chunk
    /// on first touch.
    fn entry_mut(&mut self, idx: usize) -> (&mut PcEntry, &mut Vec<Instruction>) {
        let chunk = self.chunks[idx / CHUNK].get_or_insert_with(|| {
            Box::new(Chunk {
                pcs: [PcEntry::default(); CHUNK],
                insts: Vec::with_capacity(CHUNK / 2),
            })
        });
        (&mut chunk.pcs[idx % CHUNK], &mut chunk.insts)
    }

    /// The current decode at `idx`, if there is one.
    #[inline]
    pub(crate) fn inst(&self, idx: usize) -> Option<&Instruction> {
        let (chunk, e) = self.entry(idx)?;
        if e.valid {
            chunk.insts.get(e.inst as usize - 1)
        } else {
            None
        }
    }

    /// Record the decode at `idx`, reusing the entry's storage if it was
    /// decoded before.
    pub(crate) fn set_inst(&mut self, idx: usize, inst: Instruction) {
        let (e, insts) = self.entry_mut(idx);
        e.valid = true;
        if e.inst == 0 {
            insts.push(inst);
            // At most one decode per entry of the chunk.
            e.inst = insts.len() as u16;
        } else {
            insts[e.inst as usize - 1] = inst;
        }
    }

    /// Drop the decodes of every instruction that may overlap
    /// `addr..addr + len` (their storage and every other field stay):
    /// an instruction starting up to 2 bytes before `addr` may cover it.
    /// Returns whether the range touches the code region at all.
    pub(crate) fn invalidate(&mut self, addr: u64, len: u64) -> bool {
        if addr + len <= self.base || addr >= self.end {
            return false;
        }
        let start = addr.saturating_sub(2).max(self.base);
        let stop = (addr + len).min(self.end);
        let first = ((start - self.base) / 2) as usize;
        let end = first + (stop - start).div_ceil(2) as usize;
        let mut i = first;
        while i < end {
            let next = ((i / CHUNK + 1) * CHUNK).min(end);
            match self.chunks.get_mut(i / CHUNK) {
                Some(Some(chunk)) => {
                    for e in &mut chunk.pcs[i % CHUNK..=(next - 1) % CHUNK] {
                        e.valid = false;
                    }
                }
                // Never materialised: nothing decoded to drop.
                Some(None) => {}
                None => break,
            }
            i = next;
        }
        true
    }

    /// Count one dispatcher entry at `idx`; returns the entries so far.
    #[inline]
    pub(crate) fn enter(&mut self, idx: usize) -> u32 {
        let (e, _) = self.entry_mut(idx);
        e.entries = e.entries.saturating_add(1);
        u32::from(e.entries)
    }

    /// The translated block entered at `idx`.
    #[inline]
    pub(crate) fn block(&self, idx: usize) -> Option<u32> {
        self.entry(idx)?.1.block.checked_sub(1)
    }

    /// Set (or with `None`, clear) the translated block entered at `idx`.
    pub(crate) fn set_block(&mut self, idx: usize, slot: Option<u32>) {
        self.entry_mut(idx).0.block = slot.map_or(0, |s| s + 1);
    }

    /// Decoded instructions held, current or stale.
    #[cfg(test)]
    pub(crate) fn decoded(&self) -> usize {
        self.chunks.iter().flatten().map(|c| c.insts.len()).sum()
    }

    /// Dispatcher entries counted at `idx` so far.
    #[cfg(test)]
    pub(crate) fn entries(&self, idx: usize) -> u32 {
        self.entry(idx).map_or(0, |(_, e)| u32::from(e.entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvdyn_isa::{build, Reg};

    #[test]
    fn index_covers_even_in_region_pcs_only() {
        let m = CodeMap::new(0x1000, 0x10);
        assert_eq!(m.index(0x1000), Some(0));
        assert_eq!(m.index(0x100E), Some(7));
        assert_eq!(m.index(0x1001), None);
        assert_eq!(m.index(0x1010), None);
        assert_eq!(m.index(0xFFE), None);
        assert_eq!(CodeMap::default().index(0), None);
    }

    #[test]
    fn invalidation_keeps_counts_slots_and_storage() {
        let mut m = CodeMap::new(0x1000, 3 * CHUNK as u64 * 2);
        let idx = CHUNK + 5;
        m.set_inst(idx, build::addi(Reg::x(5), Reg::x(5), 1));
        m.set_block(idx, Some(0));
        assert_eq!(m.enter(idx), 1);
        // Spans an unallocated chunk on either side.
        assert!(m.invalidate(0x1000, 3 * CHUNK as u64 * 2));
        assert!(m.inst(idx).is_none());
        assert_eq!(m.block(idx), Some(0));
        assert_eq!(m.enter(idx), 2);
        m.set_inst(idx, build::addi(Reg::x(5), Reg::x(5), 2));
        assert_eq!(m.inst(idx).map(|i| i.imm), Some(2));
        assert_eq!(m.decoded(), 1);
        m.set_block(idx, None);
        assert_eq!(m.block(idx), None);
    }

    #[test]
    fn invalidation_clips_to_the_region_and_reaches_back_one_half_word() {
        let mut m = CodeMap::new(0x1000, 0x20);
        for idx in 0..16 {
            m.set_inst(idx, build::nop());
        }
        let valid = |m: &CodeMap| (0..16).filter(|&i| m.inst(i).is_some()).collect::<Vec<_>>();
        assert!(!m.invalidate(0xFF0, 0x10), "ends at the base");
        assert!(!m.invalidate(0x1020, 4), "starts at the end");
        assert_eq!(valid(&m).len(), 16);
        // One byte at 0x1008: the instruction there and a 4-byte one
        // starting at 0x1006.
        assert!(m.invalidate(0x1008, 1));
        assert!(m.inst(3).is_none() && m.inst(4).is_none());
        assert_eq!(valid(&m).len(), 14);
        // Straddling either edge: clipped to the region.
        assert!(m.invalidate(0xFF0, 0x12));
        assert!(m.invalidate(0x101E, 8));
        assert_eq!(valid(&m), [1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13]);
    }

    #[test]
    fn a_chunk_holds_a_decode_per_half_word() {
        // Past the 512 a chunk reserves, and into the next chunk.
        let n = CHUNK + 3;
        let mut m = CodeMap::new(0, 2 * n as u64);
        let inst = |k: usize| build::addi(Reg::x(5), Reg::x(5), (k % 2000) as i64);
        for idx in 0..n {
            m.set_inst(idx, inst(idx));
        }
        m.set_inst(600, inst(7));
        assert_eq!(m.decoded(), n);
        for idx in 0..n {
            let want = if idx == 600 { 7 } else { idx % 2000 };
            assert_eq!(m.inst(idx).map(|i| i.imm), Some(want as i64), "entry {idx}");
        }
    }

    #[test]
    fn entry_counts_saturate() {
        let mut m = CodeMap::new(0, 8);
        for _ in 0..1000 {
            m.enter(1);
        }
        assert_eq!(m.enter(1), u8::MAX as u32);
    }
}
