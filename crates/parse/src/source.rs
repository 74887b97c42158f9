//! The parser's view of the mutatee's memory.

use rvdyn_symtab::Binary;

/// Read-only access to the mutatee's address space, as ParseAPI needs it:
/// instruction bytes, the "valid code region" predicate used by `jalr`
/// classification (§3.2.3), and constant reads from *read-only* data (for
/// jump tables — entries in writable sections can change at runtime and
/// are never trusted).
pub trait CodeSource: Sync {
    /// Up to `len` bytes at `addr` (fewer at the end of a section), or
    /// `None` if unmapped.
    fn bytes_at(&self, addr: u64, len: usize) -> Option<&[u8]>;

    /// Is `addr` inside executable code?
    fn is_code(&self, addr: u64) -> bool;

    /// Read a little-endian u64 from a *read-only* (non-writable) section.
    fn read_const_u64(&self, addr: u64) -> Option<u64>;

    /// Read a little-endian u32 from a *read-only* section (relative
    /// jump-table entries).
    fn read_const_u32(&self, addr: u64) -> Option<u32>;

    /// Known function entry addresses with optional names (symbols).
    fn entry_hints(&self) -> Vec<(u64, Option<String>)>;

    /// The executable ranges, for gap scanning.
    fn code_ranges(&self) -> Vec<(u64, u64)>;
}

fn read_const_n(bin: &Binary, addr: u64, n: usize) -> Option<u128> {
    for s in &bin.sections {
        if s.flags & rvdyn_symtab::SHF_ALLOC != 0
            && s.flags & rvdyn_symtab::SHF_WRITE == 0
            && s.contains(addr)
        {
            let off = (addr - s.addr) as usize;
            let b = s.data.get(off..off + n)?;
            let mut buf = [0u8; 16];
            buf[..n].copy_from_slice(b);
            return Some(u128::from_le_bytes(buf));
        }
    }
    None
}

impl CodeSource for Binary {
    fn bytes_at(&self, addr: u64, len: usize) -> Option<&[u8]> {
        // The first allocatable section holding `addr`, as `read_at`
        // finds it; a read past its end comes back short.
        let s = self
            .sections
            .iter()
            .find(|s| s.flags & rvdyn_symtab::SHF_ALLOC != 0 && s.contains(addr))?;
        let off = (addr - s.addr) as usize;
        Some(&s.data[off..(off + len).min(s.data.len())])
    }

    fn is_code(&self, addr: u64) -> bool {
        self.is_code_address(addr)
    }

    fn read_const_u64(&self, addr: u64) -> Option<u64> {
        read_const_n(self, addr, 8).map(|v| v as u64)
    }

    fn read_const_u32(&self, addr: u64) -> Option<u32> {
        read_const_n(self, addr, 4).map(|v| v as u32)
    }

    fn entry_hints(&self) -> Vec<(u64, Option<String>)> {
        let mut v: Vec<(u64, Option<String>)> = self
            .functions()
            .iter()
            .map(|s| (s.value, Some(s.name.clone())))
            .collect();
        v.push((self.entry, None));
        // Sort named entries first per address so dedup keeps the name.
        v.sort_by_key(|a| (a.0, a.1.is_none()));
        v.dedup_by_key(|e| e.0);
        v
    }

    fn code_ranges(&self) -> Vec<(u64, u64)> {
        self.code_sections()
            .map(|s| (s.addr, s.addr + s.data.len() as u64))
            .collect()
    }
}

/// A bare in-memory code buffer (tests and gap-parsing experiments).
pub struct RawCode {
    pub base: u64,
    pub bytes: Vec<u8>,
    pub entries: Vec<u64>,
}

impl CodeSource for RawCode {
    fn bytes_at(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let off = addr.checked_sub(self.base)? as usize;
        if off >= self.bytes.len() {
            return None;
        }
        let end = (off + len).min(self.bytes.len());
        Some(&self.bytes[off..end])
    }

    fn is_code(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.bytes.len() as u64
    }

    fn read_const_u64(&self, _addr: u64) -> Option<u64> {
        None
    }

    fn read_const_u32(&self, _addr: u64) -> Option<u32> {
        None
    }

    fn entry_hints(&self) -> Vec<(u64, Option<String>)> {
        self.entries.iter().map(|&a| (a, None)).collect()
    }

    fn code_ranges(&self) -> Vec<(u64, u64)> {
        vec![(self.base, self.base + self.bytes.len() as u64)]
    }
}
