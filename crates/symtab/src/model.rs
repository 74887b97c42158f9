//! The abstract binary model exposed by SymtabAPI.

use crate::attributes::RiscvAttributes;
use crate::elf;
use rvdyn_isa::{Extension, ExtensionSet, IsaProfile, Xlen};

pub const SHF_WRITE: u64 = 0x1;
pub const SHF_ALLOC: u64 = 0x2;
pub const SHF_EXECINSTR: u64 = 0x4;

/// A named section with its data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    pub name: String,
    pub sh_type: u32,
    pub flags: u64,
    pub addr: u64,
    pub data: Vec<u8>,
    pub addralign: u64,
}

impl Section {
    /// Convenience constructor for an allocatable PROGBITS section.
    pub fn progbits(name: &str, addr: u64, flags: u64, data: Vec<u8>) -> Section {
        Section {
            name: name.to_string(),
            sh_type: elf::SHT_PROGBITS,
            flags,
            addr,
            data,
            addralign: if flags & SHF_EXECINSTR != 0 { 4 } else { 8 },
        }
    }

    pub fn is_code(&self) -> bool {
        self.sh_type == elf::SHT_PROGBITS
            && self.flags & SHF_ALLOC != 0
            && self.flags & SHF_EXECINSTR != 0
    }

    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.addr && addr < self.addr + self.data.len() as u64
    }
}

/// Symbol kind (subset of STT_*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolKind {
    Function,
    Object,
    Section,
    NoType,
}

/// Symbol binding (subset of STB_*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolBinding {
    Local,
    Global,
    Weak,
}

/// A symbol-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    pub name: String,
    pub value: u64,
    pub size: u64,
    pub kind: SymbolKind,
    pub binding: SymbolBinding,
}

/// A loadable segment (PT_LOAD view of the binary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    pub vaddr: u64,
    pub data: Vec<u8>,
    /// Total in-memory size (≥ data.len(); the excess is zero-filled .bss).
    pub memsz: u64,
    pub flags: u32,
}

/// The parsed binary: SymtabAPI's top-level object.
#[derive(Debug, Clone, Default)]
pub struct Binary {
    pub entry: u64,
    pub e_flags: u32,
    pub e_type: u16,
    pub sections: Vec<Section>,
    pub symbols: Vec<Symbol>,
    /// `.riscv.attributes`, if present.
    pub attributes: Option<RiscvAttributes>,
}

impl Binary {
    /// The ISA profile of this binary (§3.2.1): prefer the
    /// `.riscv.attributes` arch string; fall back to the `e_flags`
    /// heuristic when the section is absent.
    pub fn profile(&self) -> IsaProfile {
        if let Some(p) = self.attributes.as_ref().and_then(|a| a.profile()) {
            return p;
        }
        self.profile_from_eflags()
    }

    /// Extension information derived from `e_flags` alone. `e_flags` only
    /// encodes the presence of compressed instructions and the float ABI,
    /// so the base I/M/A/Zicsr/Zifencei set is assumed — the same
    /// conservative fallback the paper describes for attribute-less
    /// binaries.
    pub fn profile_from_eflags(&self) -> IsaProfile {
        let mut exts = ExtensionSet::of(&[
            Extension::I,
            Extension::M,
            Extension::A,
            Extension::Zicsr,
            Extension::Zifencei,
        ]);
        let fabi = self.e_flags & elf::EF_RISCV_FLOAT_ABI_MASK;
        if fabi == elf::EF_RISCV_FLOAT_ABI_SINGLE || fabi == elf::EF_RISCV_FLOAT_ABI_DOUBLE {
            exts.insert(Extension::F);
        }
        if fabi == elf::EF_RISCV_FLOAT_ABI_DOUBLE {
            exts.insert(Extension::D);
        }
        if self.e_flags & elf::EF_RISCV_RVC != 0 {
            exts.insert(Extension::C);
        }
        IsaProfile {
            xlen: Xlen::Rv64,
            extensions: exts,
        }
    }

    /// Compute the canonical `e_flags` for a profile.
    pub fn eflags_for(profile: IsaProfile) -> u32 {
        let mut f = 0;
        if profile.has(Extension::C) {
            f |= elf::EF_RISCV_RVC;
        }
        if profile.has(Extension::D) {
            f |= elf::EF_RISCV_FLOAT_ABI_DOUBLE;
        } else if profile.has(Extension::F) {
            f |= elf::EF_RISCV_FLOAT_ABI_SINGLE;
        }
        f
    }

    pub fn section_by_name(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// All executable sections (code regions for ParseAPI).
    pub fn code_sections(&self) -> impl Iterator<Item = &Section> {
        self.sections.iter().filter(|s| s.is_code())
    }

    /// Is `addr` inside any executable section? ParseAPI's jalr
    /// classification uses this "valid code region" test (§3.2.3).
    pub fn is_code_address(&self, addr: u64) -> bool {
        self.code_sections().any(|s| s.contains(addr))
    }

    /// Read `len` bytes at virtual address `addr` from section data.
    pub fn read_at(&self, addr: u64, len: usize) -> Option<&[u8]> {
        for s in &self.sections {
            if s.flags & SHF_ALLOC != 0 && s.contains(addr) {
                let off = (addr - s.addr) as usize;
                return s.data.get(off..off + len);
            }
        }
        None
    }

    /// Function symbols, sorted by address.
    pub fn functions(&self) -> Vec<&Symbol> {
        let mut v: Vec<&Symbol> = self
            .symbols
            .iter()
            .filter(|s| s.kind == SymbolKind::Function)
            .collect();
        v.sort_by_key(|s| s.value);
        v
    }

    /// The function symbol covering `addr`, if any.
    pub fn function_at(&self, addr: u64) -> Option<&Symbol> {
        self.symbols.iter().find(|s| {
            s.kind == SymbolKind::Function
                && addr >= s.value
                && (s.size == 0 && addr == s.value || addr < s.value + s.size)
        })
    }

    /// The symbol whose name matches exactly.
    pub fn symbol_by_name(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Drop all symbols (produce a stripped binary — used to exercise
    /// ParseAPI's symbol-less traversal + gap parsing).
    pub fn strip(&mut self) {
        self.symbols.clear();
    }

    /// Loadable segments, synthesised from allocatable sections. Adjacent
    /// sections with compatible permissions coalesce into one segment.
    pub fn load_segments(&self) -> Vec<Segment> {
        let mut alloc: Vec<&Section> = self
            .sections
            .iter()
            .filter(|s| s.flags & SHF_ALLOC != 0)
            .collect();
        alloc.sort_by_key(|s| s.addr);
        let mut segs: Vec<Segment> = Vec::new();
        for s in alloc {
            let flags = elf::PF_R
                | if s.flags & SHF_WRITE != 0 {
                    elf::PF_W
                } else {
                    0
                }
                | if s.flags & SHF_EXECINSTR != 0 {
                    elf::PF_X
                } else {
                    0
                };
            let (data, filesz) = if s.sh_type == elf::SHT_NOBITS {
                (Vec::new(), 0u64)
            } else {
                (s.data.clone(), s.data.len() as u64)
            };
            // NOBITS sections occupy memory but no file bytes; either way
            // the in-memory size is the model's data length.
            let memsz = s.data.len() as u64;
            if let Some(last) = segs.last_mut() {
                let end = last.vaddr + last.memsz;
                if last.flags == flags && s.addr >= end && s.addr - end < 0x1000 {
                    // Coalesce with zero padding.
                    let pad = (s.addr - last.vaddr) as usize - last.data.len();
                    last.data.extend(std::iter::repeat_n(0, pad));
                    last.data.extend_from_slice(&data);
                    last.memsz = (s.addr - last.vaddr) + memsz.max(filesz);
                    continue;
                }
            }
            segs.push(Segment {
                vaddr: s.addr,
                data,
                memsz: memsz.max(filesz),
                flags,
            });
        }
        segs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_binary() -> Binary {
        Binary {
            entry: 0x10000,
            e_flags: elf::EF_RISCV_RVC | elf::EF_RISCV_FLOAT_ABI_DOUBLE,
            e_type: elf::ET_EXEC,
            sections: vec![
                Section::progbits(".text", 0x10000, SHF_ALLOC | SHF_EXECINSTR, vec![0x13; 64]),
                Section::progbits(".rodata", 0x11000, SHF_ALLOC, vec![1, 2, 3, 4]),
                Section::progbits(".data", 0x12000, SHF_ALLOC | SHF_WRITE, vec![9; 16]),
            ],
            symbols: vec![
                Symbol {
                    name: "main".into(),
                    value: 0x10000,
                    size: 32,
                    kind: SymbolKind::Function,
                    binding: SymbolBinding::Global,
                },
                Symbol {
                    name: "helper".into(),
                    value: 0x10020,
                    size: 32,
                    kind: SymbolKind::Function,
                    binding: SymbolBinding::Local,
                },
            ],
            attributes: None,
        }
    }

    #[test]
    fn eflags_profile_fallback() {
        let b = mk_binary();
        let p = b.profile();
        assert!(p.has(Extension::C));
        assert!(p.has(Extension::F));
        assert!(p.has(Extension::D));
        assert!(p.has(Extension::M));
    }

    #[test]
    fn attributes_take_precedence() {
        let mut b = mk_binary();
        b.attributes = Some(RiscvAttributes {
            arch: Some("rv64imac".into()), // no F/D despite e_flags
            ..Default::default()
        });
        let p = b.profile();
        assert!(!p.has(Extension::F));
        assert!(p.has(Extension::C));
    }

    #[test]
    fn eflags_round_trip_from_profile() {
        let f = Binary::eflags_for(IsaProfile::rv64gc());
        assert_eq!(f, elf::EF_RISCV_RVC | elf::EF_RISCV_FLOAT_ABI_DOUBLE);
        let f = Binary::eflags_for(IsaProfile::rv64g());
        assert_eq!(f, elf::EF_RISCV_FLOAT_ABI_DOUBLE);
    }

    #[test]
    fn code_address_queries() {
        let b = mk_binary();
        assert!(b.is_code_address(0x10000));
        assert!(b.is_code_address(0x1003F));
        assert!(!b.is_code_address(0x10040));
        assert!(!b.is_code_address(0x11000)); // rodata is not code
    }

    #[test]
    fn function_lookup() {
        let b = mk_binary();
        assert_eq!(b.function_at(0x10005).unwrap().name, "main");
        assert_eq!(b.function_at(0x10020).unwrap().name, "helper");
        assert!(b.function_at(0x10080).is_none());
        let fns = b.functions();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "main");
    }

    #[test]
    fn read_at_spans_sections() {
        let b = mk_binary();
        assert_eq!(b.read_at(0x11001, 2), Some(&[2u8, 3][..]));
        assert!(b.read_at(0x11003, 4).is_none()); // crosses end
    }

    #[test]
    fn load_segments_coalesce_by_permission() {
        let b = mk_binary();
        let segs = b.load_segments();
        // text (RX), rodata (R), data (RW) → three segments.
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].flags, elf::PF_R | elf::PF_X);
        assert_eq!(segs[1].flags, elf::PF_R);
        assert_eq!(segs[2].flags, elf::PF_R | elf::PF_W);
    }

    #[test]
    fn strip_removes_symbols() {
        let mut b = mk_binary();
        b.strip();
        assert!(b.functions().is_empty());
    }
}
