//! Sparse paged memory for the emulated process.
//!
//! Pages live in a vector sorted by page number and are found by binary
//! search behind a small direct-mapped hint cache, so the hot load/store
//! path of both execution engines (see [`crate::translate`]) costs a few
//! compares instead of a hash per access.

use std::cell::Cell;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Hint-cache entries; must be a power of two. Sized so a workload
/// touching a few dozen pages per loop iteration (e.g. a matrix kernel
/// striding three arrays) doesn't thrash slots back into binary search.
const HINT_SLOTS: usize = 64;

/// Byte-addressed little-endian sparse memory. Pages materialise
/// zero-filled on first write; reads of unmapped memory fault unless the
/// page was mapped (matching a process whose loader mapped its segments).
pub struct Memory {
    /// Mapped pages, sorted by page number.
    pages: Vec<(u64, Box<[u8; PAGE_SIZE]>)>,
    /// Direct-mapped cache of recent `pages` indices, keyed by the low
    /// bits of the page number. Entries are validated on use, so stale
    /// indices after an insert cost a binary search, never a wrong page.
    /// Per-slot cells so a hit touches one word, not the whole array.
    hints: [Cell<usize>; HINT_SLOTS],
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            pages: Vec::new(),
            hints: std::array::from_fn(|_| Cell::new(0)),
        }
    }
}

/// An access fault: address and whether it was a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting byte address.
    pub addr: u64,
    /// True for a store, false for a load.
    pub write: bool,
}

impl Memory {
    /// An empty memory: nothing mapped.
    pub fn new() -> Memory {
        Memory::default()
    }

    #[inline]
    fn page_of(addr: u64) -> (u64, usize) {
        (addr >> PAGE_SHIFT, (addr as usize) & (PAGE_SIZE - 1))
    }

    /// Index of the page `pno` in `self.pages`, hint-cached.
    #[inline(always)]
    fn find(&self, pno: u64) -> Option<usize> {
        let slot = (pno as usize) & (HINT_SLOTS - 1);
        let h = self.hints[slot].get();
        if let Some(p) = self.pages.get(h) {
            if p.0 == pno {
                return Some(h);
            }
        }
        match self.pages.binary_search_by_key(&pno, |p| p.0) {
            Ok(i) => {
                self.hints[slot].set(i);
                Some(i)
            }
            Err(_) => None,
        }
    }

    /// The page `pno` by reference — the hint-hit path hands back the
    /// entry it already validated, so the caller never re-indexes (and
    /// never pays a second bounds check) on the hot path.
    #[inline(always)]
    fn page(&self, pno: u64) -> Option<&[u8; PAGE_SIZE]> {
        let slot = (pno as usize) & (HINT_SLOTS - 1);
        if let Some(p) = self.pages.get(self.hints[slot].get()) {
            if p.0 == pno {
                return Some(&p.1);
            }
        }
        match self.pages.binary_search_by_key(&pno, |p| p.0) {
            Ok(i) => {
                self.hints[slot].set(i);
                Some(&self.pages[i].1)
            }
            Err(_) => None,
        }
    }

    /// Mutable variant of [`Memory::page`].
    #[inline(always)]
    fn page_mut(&mut self, pno: u64) -> Option<&mut [u8; PAGE_SIZE]> {
        let slot = (pno as usize) & (HINT_SLOTS - 1);
        let h = self.hints[slot].get();
        if let Some(p) = self.pages.get(h) {
            if p.0 == pno {
                return Some(&mut self.pages[h].1);
            }
        }
        match self.pages.binary_search_by_key(&pno, |p| p.0) {
            Ok(i) => {
                self.hints[slot].set(i);
                Some(&mut self.pages[i].1)
            }
            Err(_) => None,
        }
    }

    /// Map (zero-fill) the pages covering `[addr, addr+len)`.
    pub fn map(&mut self, addr: u64, len: u64) {
        let first = addr >> PAGE_SHIFT;
        let last = (addr + len.max(1) - 1) >> PAGE_SHIFT;
        for p in first..=last {
            if let Err(i) = self.pages.binary_search_by_key(&p, |e| e.0) {
                self.pages.insert(i, (p, Box::new([0; PAGE_SIZE])));
            }
        }
    }

    /// Is the page containing `addr` mapped?
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.find(addr >> PAGE_SHIFT).is_some()
    }

    /// Copy `data` to `addr`, mapping as needed.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        self.map(addr, data.len() as u64);
        let mut off = 0usize;
        while off < data.len() {
            let (pno, poff) = Self::page_of(addr + off as u64);
            let n = (PAGE_SIZE - poff).min(data.len() - off);
            let i = self.find(pno).expect("mapped above");
            self.pages[i].1[poff..poff + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
    }

    /// Read `len` bytes at `addr` (fault if any page unmapped).
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::with_capacity(len);
        let mut off = 0usize;
        while off < len {
            let (pno, poff) = Self::page_of(addr + off as u64);
            let i = self.find(pno).ok_or(MemFault {
                addr: addr + off as u64,
                write: false,
            })?;
            let n = (PAGE_SIZE - poff).min(len - off);
            out.extend_from_slice(&self.pages[i].1[poff..poff + n]);
            off += n;
        }
        Ok(out)
    }

    /// Load a `size`-byte little-endian scalar (1/2/4/8), zero-extended.
    ///
    /// The in-page path is specialised per width so each access compiles
    /// to a fixed-size load instead of a variable-length `memcpy` — this
    /// is the hottest function in both execution engines.
    #[inline(always)]
    pub fn load(&self, addr: u64, size: u8) -> Result<u64, MemFault> {
        let (pno, poff) = Self::page_of(addr);
        let size_us = size as usize;
        if poff + size_us <= PAGE_SIZE {
            let p = self.page(pno).ok_or(MemFault { addr, write: false })?;
            // Byte-wise so the dominating range check above is the only
            // bounds check; LLVM merges these into one fixed-width load.
            Ok(match size {
                1 => p[poff] as u64,
                2 => u16::from_le_bytes([p[poff], p[poff + 1]]) as u64,
                4 => u32::from_le_bytes([p[poff], p[poff + 1], p[poff + 2], p[poff + 3]]) as u64,
                _ => u64::from_le_bytes([
                    p[poff],
                    p[poff + 1],
                    p[poff + 2],
                    p[poff + 3],
                    p[poff + 4],
                    p[poff + 5],
                    p[poff + 6],
                    p[poff + 7],
                ]),
            })
        } else {
            // Crosses a page boundary — slow path.
            let bytes = self.read_bytes(addr, size_us)?;
            let mut buf = [0u8; 8];
            buf[..size_us].copy_from_slice(&bytes);
            Ok(u64::from_le_bytes(buf))
        }
    }

    /// Store the low `size` bytes of `val` (page must be mapped).
    ///
    /// Width-specialised like [`Memory::load`], for the same reason.
    #[inline(always)]
    pub fn store(&mut self, addr: u64, size: u8, val: u64) -> Result<(), MemFault> {
        let (pno, poff) = Self::page_of(addr);
        let size_us = size as usize;
        if poff + size_us <= PAGE_SIZE {
            let p = self.page_mut(pno).ok_or(MemFault { addr, write: true })?;
            // Byte-wise for the same reason as [`Memory::load`].
            let b = val.to_le_bytes();
            match size {
                1 => p[poff] = b[0],
                2 => {
                    p[poff] = b[0];
                    p[poff + 1] = b[1];
                }
                4 => {
                    p[poff] = b[0];
                    p[poff + 1] = b[1];
                    p[poff + 2] = b[2];
                    p[poff + 3] = b[3];
                }
                _ => {
                    p[poff] = b[0];
                    p[poff + 1] = b[1];
                    p[poff + 2] = b[2];
                    p[poff + 3] = b[3];
                    p[poff + 4] = b[4];
                    p[poff + 5] = b[5];
                    p[poff + 6] = b[6];
                    p[poff + 7] = b[7];
                }
            }
            Ok(())
        } else {
            // Page-crossing store: both pages must exist.
            let bytes = val.to_le_bytes();
            for (k, b) in bytes[..size_us].iter().enumerate() {
                let a = addr + k as u64;
                let (pno, poff) = Self::page_of(a);
                let i = self.find(pno).ok_or(MemFault {
                    addr: a,
                    write: true,
                })?;
                self.pages[i].1[poff] = *b;
            }
            Ok(())
        }
    }

    /// Iterate every mapped page as `(base_address, bytes)`, ascending by
    /// address. Used by tests (the engine-differential suite compares
    /// whole memory images) and debug tooling.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages
            .iter()
            .map(|(p, data)| (p << PAGE_SHIFT, &data[..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_fault() {
        let m = Memory::new();
        assert_eq!(
            m.load(0x1000, 8),
            Err(MemFault {
                addr: 0x1000,
                write: false
            })
        );
    }

    #[test]
    fn write_then_read() {
        let mut m = Memory::new();
        m.write_bytes(0x1000, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.load(0x1000, 8).unwrap(), 0x0807060504030201);
        assert_eq!(m.load(0x1004, 4).unwrap(), 0x08070605);
        assert_eq!(m.load(0x1007, 1).unwrap(), 8);
    }

    #[test]
    fn page_crossing_access() {
        let mut m = Memory::new();
        m.map(0x1000, 0x2000);
        m.store(0x1FFC, 8, 0x1122334455667788).unwrap();
        assert_eq!(m.load(0x1FFC, 8).unwrap(), 0x1122334455667788);
        assert_eq!(m.load(0x2000, 4).unwrap(), 0x11223344);
    }

    #[test]
    fn store_to_unmapped_faults() {
        let mut m = Memory::new();
        assert!(m.store(0x5000, 4, 1).is_err());
        m.map(0x5000, 1);
        assert!(m.store(0x5000, 4, 1).is_ok());
    }

    #[test]
    fn bulk_round_trip_across_pages() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        m.write_bytes(0xFF0, &data);
        assert_eq!(m.read_bytes(0xFF0, data.len()).unwrap(), data);
    }

    #[test]
    fn pages_stay_sorted_under_interleaved_maps() {
        let mut m = Memory::new();
        // Map out of order, including duplicates.
        for base in [0x9000u64, 0x1000, 0x5000, 0x1000, 0x7000] {
            m.map(base, 1);
        }
        let bases: Vec<u64> = m.pages().map(|(b, _)| b).collect();
        assert_eq!(bases, vec![0x1000, 0x5000, 0x7000, 0x9000]);
        // The hint cache survives inserts: reads still land correctly.
        m.write_bytes(0x5004, &[0xAB]);
        m.map(0x3000, 1); // shifts indices of later pages
        assert_eq!(m.load(0x5004, 1).unwrap(), 0xAB);
    }
}
