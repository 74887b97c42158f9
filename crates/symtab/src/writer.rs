//! ELF writer: [`Binary`] → bytes.
//!
//! Produces a fully loadable ELF64/RISC-V executable: program headers are
//! synthesised from the allocatable sections, a `.symtab`/`.strtab` pair is
//! emitted from the symbol list, and `.riscv.attributes` is written from
//! the attribute model. The static-rewriting path (Figure 1, left) is
//! `Binary::parse → instrument → Binary::to_bytes`.

use crate::elf::{self, Ehdr, ElfSym, Phdr, Shdr};
use crate::error::SymtabError;
use crate::model::{Binary, SymbolBinding, SymbolKind};

fn align_up(v: usize, a: usize) -> usize {
    debug_assert!(a.is_power_of_two());
    (v + a - 1) & !(a - 1)
}

/// A string table under construction.
#[derive(Default)]
struct StrTab {
    data: Vec<u8>,
}

impl StrTab {
    fn new() -> StrTab {
        StrTab { data: vec![0] } // index 0 = empty string
    }

    fn add(&mut self, s: &str) -> u32 {
        if s.is_empty() {
            return 0;
        }
        let off = self.data.len() as u32;
        self.data.extend_from_slice(s.as_bytes());
        self.data.push(0);
        off
    }
}

/// One contiguous allocatable span serialised into the output image —
/// the static path's equivalent of a coalesced dynamic patch region
/// (identical coalescing rule: adjacent same-permission sections merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRegion {
    /// Load address of the span.
    pub vaddr: u64,
    /// Bytes of file data emitted for the span.
    pub file_size: u64,
    /// In-memory size (≥ `file_size` when the span ends in NOBITS).
    pub mem_size: u64,
}

/// Serialisation statistics for one [`Binary::to_bytes_with_stats`] pass:
/// the per-region structure of the written image, mirroring the dynamic
/// commit's region counters so the static `rewrite` path can report
/// `patch_regions_written` too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Contiguous allocatable spans, in address order (one per PT_LOAD).
    pub regions: Vec<WriteRegion>,
}

impl WriteStats {
    /// The spans that carry file bytes: a segment that is all NOBITS
    /// (`.bss`) is mapped, not written.
    pub fn written(&self) -> impl Iterator<Item = &WriteRegion> {
        self.regions.iter().filter(|r| r.file_size > 0)
    }

    /// Number of spans serialised with file bytes.
    pub fn regions_written(&self) -> usize {
        self.written().count()
    }
}

impl Binary {
    /// Serialise this binary to a loadable ELF image.
    ///
    /// Layout: ehdr | phdrs | section data (aligned) | shdrs. Allocatable
    /// sections keep `file offset ≡ vaddr (mod 4096)` so PT_LOAD mapping is
    /// straightforward for any loader.
    pub fn to_bytes(&self) -> Result<Vec<u8>, SymtabError> {
        self.to_bytes_with_stats().map(|(bytes, _)| bytes)
    }

    /// As [`Binary::to_bytes`], also reporting the per-region structure
    /// of the written image ([`WriteStats`]): one [`WriteRegion`] per
    /// contiguous allocatable span (= PT_LOAD segment). This is what the
    /// static delivery path counts as `patch_regions_written`.
    pub fn to_bytes_with_stats(&self) -> Result<(Vec<u8>, WriteStats), SymtabError> {
        // Assemble the synthetic sections first.
        let mut strtab = StrTab::new();
        let mut syms: Vec<ElfSym> = vec![ElfSym::default()]; // null symbol
        let mut locals = 1u32;
        // ELF requires local symbols before globals.
        let mut ordered: Vec<&crate::model::Symbol> = self.symbols.iter().collect();
        ordered.sort_by_key(|s| matches!(s.binding, SymbolBinding::Global | SymbolBinding::Weak));
        for s in ordered {
            let typ = match s.kind {
                SymbolKind::Function => elf::STT_FUNC,
                SymbolKind::Object => elf::STT_OBJECT,
                SymbolKind::Section => elf::STT_SECTION,
                SymbolKind::NoType => elf::STT_NOTYPE,
            };
            let bind = match s.binding {
                SymbolBinding::Local => elf::STB_LOCAL,
                SymbolBinding::Global => elf::STB_GLOBAL,
                SymbolBinding::Weak => elf::STB_WEAK,
            };
            if bind == elf::STB_LOCAL {
                locals += 1;
            }
            // Find the section containing the symbol for st_shndx
            // (1-based over our section list, +0 for the null header).
            let shndx = self
                .sections
                .iter()
                .position(|sec| {
                    sec.contains(s.value) || (sec.addr == s.value && !sec.data.is_empty())
                })
                .map(|i| (i + 1) as u16)
                .unwrap_or(elf::SHN_ABS);
            syms.push(ElfSym {
                st_name: strtab.add(&s.name),
                st_info: ElfSym::info(bind, typ),
                st_other: 0,
                st_shndx: shndx,
                st_value: s.value,
                st_size: s.size,
            });
        }
        let symdata: Vec<u8> = syms.iter().flat_map(|s| s.emit()).collect();

        let attr_data = self.attributes.as_ref().map(|a| a.emit());

        // Full section list: user sections + .symtab/.strtab
        // (+ .riscv.attributes if not already a user section) + .shstrtab.
        struct OutSec {
            name: String,
            sh_type: u32,
            flags: u64,
            addr: u64,
            data: Vec<u8>,
            /// In-memory size; differs from data.len() for SHT_NOBITS
            /// (.bss occupies memory but no file bytes).
            mem_size: u64,
            addralign: u64,
            link: u32,
            info: u32,
            entsize: u64,
        }
        let mut out: Vec<OutSec> = Vec::new();
        let mut has_attr_section = false;
        for s in &self.sections {
            if s.name == ".riscv.attributes" {
                has_attr_section = true;
                // Re-emit from the parsed model if we have one (it may have
                // been updated), else pass the raw data through.
                let data = attr_data.clone().unwrap_or_else(|| s.data.clone());
                let mem_size = data.len() as u64;
                out.push(OutSec {
                    name: s.name.clone(),
                    sh_type: elf::SHT_RISCV_ATTRIBUTES,
                    flags: 0,
                    addr: 0,
                    data,
                    mem_size,
                    addralign: 1,
                    link: 0,
                    info: 0,
                    entsize: 0,
                });
                continue;
            }
            if s.name == ".symtab" || s.name == ".strtab" || s.name == ".shstrtab" {
                continue; // regenerated below
            }
            out.push(OutSec {
                name: s.name.clone(),
                sh_type: s.sh_type,
                flags: s.flags,
                addr: s.addr,
                data: if s.sh_type == elf::SHT_NOBITS {
                    Vec::new()
                } else {
                    s.data.clone()
                },
                mem_size: s.data.len() as u64,
                addralign: s.addralign.max(1),
                link: 0,
                info: 0,
                entsize: 0,
            });
        }
        if !has_attr_section {
            if let Some(data) = attr_data {
                let mem_size = data.len() as u64;
                out.push(OutSec {
                    name: ".riscv.attributes".into(),
                    sh_type: elf::SHT_RISCV_ATTRIBUTES,
                    flags: 0,
                    addr: 0,
                    data,
                    mem_size,
                    addralign: 1,
                    link: 0,
                    info: 0,
                    entsize: 0,
                });
            }
        }
        let strtab_index = out.len() + 2; // after .symtab
        let symdata_len = symdata.len() as u64;
        out.push(OutSec {
            name: ".symtab".into(),
            sh_type: elf::SHT_SYMTAB,
            flags: 0,
            addr: 0,
            data: symdata,
            mem_size: symdata_len,
            addralign: 8,
            link: strtab_index as u32,
            info: locals,
            entsize: elf::SYM_SIZE as u64,
        });
        let strtab_len = strtab.data.len() as u64;
        out.push(OutSec {
            name: ".strtab".into(),
            sh_type: elf::SHT_STRTAB,
            flags: 0,
            addr: 0,
            data: strtab.data,
            mem_size: strtab_len,
            addralign: 1,
            link: 0,
            info: 0,
            entsize: 0,
        });
        // .shstrtab built after names are final.
        let mut shstr = StrTab::new();
        let mut name_offs: Vec<u32> = out.iter().map(|s| shstr.add(&s.name)).collect();
        name_offs.push(shstr.add(".shstrtab"));
        let shstr_len = shstr.data.len() as u64;
        out.push(OutSec {
            name: ".shstrtab".into(),
            sh_type: elf::SHT_STRTAB,
            flags: 0,
            addr: 0,
            data: shstr.data,
            mem_size: shstr_len,
            addralign: 1,
            link: 0,
            info: 0,
            entsize: 0,
        });

        // Program headers from allocatable sections; each segment is one
        // contiguous written region, reported back to the caller.
        let segments = self.load_segments();
        let phnum = segments.len();
        let stats = WriteStats {
            regions: segments
                .iter()
                .map(|seg| WriteRegion {
                    vaddr: seg.vaddr,
                    file_size: seg.data.len() as u64,
                    mem_size: seg.memsz,
                })
                .collect(),
        };

        // Layout pass.
        let mut pos = elf::EHDR_SIZE + phnum * elf::PHDR_SIZE;
        let mut offsets = Vec::with_capacity(out.len());
        for s in &out {
            let align = if s.flags & crate::model::SHF_ALLOC != 0 {
                // Keep offset congruent to vaddr mod page size.
                pos = align_up(pos, 4096);
                let want = (s.addr % 4096) as usize;
                if pos % 4096 != want {
                    pos += want;
                }
                pos
            } else {
                pos = align_up(pos, s.addralign as usize);
                pos
            };
            offsets.push(align);
            pos = align + s.data.len();
        }
        let shoff = align_up(pos, 8);

        // Emit.
        let total = shoff + (out.len() + 1) * elf::SHDR_SIZE;
        let mut bytes = vec![0u8; total];

        let ehdr = Ehdr {
            e_type: if self.e_type == 0 {
                elf::ET_EXEC
            } else {
                self.e_type
            },
            e_machine: elf::EM_RISCV,
            e_entry: self.entry,
            e_phoff: if phnum > 0 { elf::EHDR_SIZE as u64 } else { 0 },
            e_shoff: shoff as u64,
            e_flags: self.e_flags,
            e_phnum: phnum as u16,
            e_shnum: (out.len() + 1) as u16,
            e_shstrndx: out.len() as u16, // .shstrtab is last
        };
        bytes[..elf::EHDR_SIZE].copy_from_slice(&ehdr.emit());

        // Program headers: locate each segment's file span via the section
        // that starts it.
        for (i, seg) in segments.iter().enumerate() {
            // Find the allocatable output section at this vaddr.
            let file_off = out
                .iter()
                .zip(&offsets)
                .filter(|(s, _)| s.flags & crate::model::SHF_ALLOC != 0)
                .find(|(s, _)| s.addr == seg.vaddr)
                .map(|(_, off)| *off as u64)
                .unwrap_or(0);
            let ph = Phdr {
                p_type: elf::PT_LOAD,
                p_flags: seg.flags,
                p_offset: file_off,
                p_vaddr: seg.vaddr,
                p_filesz: seg.data.len() as u64,
                p_memsz: seg.memsz,
                p_align: 4096,
            };
            let off = elf::EHDR_SIZE + i * elf::PHDR_SIZE;
            bytes[off..off + elf::PHDR_SIZE].copy_from_slice(&ph.emit());
        }

        // Section data.
        for (s, &off) in out.iter().zip(&offsets) {
            bytes[off..off + s.data.len()].copy_from_slice(&s.data);
        }

        // Section headers (null first).
        let mut hoff = shoff;
        bytes[hoff..hoff + elf::SHDR_SIZE].copy_from_slice(&Shdr::default().emit());
        hoff += elf::SHDR_SIZE;
        for (i, (s, &off)) in out.iter().zip(&offsets).enumerate() {
            let sh = Shdr {
                sh_name: name_offs[i],
                sh_type: s.sh_type,
                sh_flags: s.flags,
                sh_addr: s.addr,
                sh_offset: off as u64,
                sh_size: s.mem_size,
                sh_link: s.link,
                sh_info: s.info,
                sh_addralign: s.addralign,
                sh_entsize: s.entsize,
            };
            bytes[hoff..hoff + elf::SHDR_SIZE].copy_from_slice(&sh.emit());
            hoff += elf::SHDR_SIZE;
        }

        Ok((bytes, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::RiscvAttributes;
    use crate::model::{Section, Symbol, SHF_ALLOC, SHF_EXECINSTR, SHF_WRITE};
    use rvdyn_isa::IsaProfile;

    fn sample() -> Binary {
        Binary {
            entry: 0x10000,
            e_flags: Binary::eflags_for(IsaProfile::rv64gc()),
            e_type: elf::ET_EXEC,
            sections: vec![
                Section::progbits(
                    ".text",
                    0x10000,
                    SHF_ALLOC | SHF_EXECINSTR,
                    0x0000_0073u32.to_le_bytes().to_vec(), // ecall
                ),
                Section::progbits(".data", 0x20000, SHF_ALLOC | SHF_WRITE, vec![42; 8]),
            ],
            symbols: vec![
                Symbol {
                    name: "_start".into(),
                    value: 0x10000,
                    size: 4,
                    kind: SymbolKind::Function,
                    binding: SymbolBinding::Global,
                },
                Symbol {
                    name: "local_helper".into(),
                    value: 0x10000,
                    size: 0,
                    kind: SymbolKind::NoType,
                    binding: SymbolBinding::Local,
                },
            ],
            attributes: Some(RiscvAttributes::for_profile(IsaProfile::rv64gc())),
        }
    }

    #[test]
    fn write_parse_round_trip() {
        let b = sample();
        let bytes = b.to_bytes().unwrap();
        let r = Binary::parse(&bytes).unwrap();
        assert_eq!(r.entry, b.entry);
        assert_eq!(r.e_flags, b.e_flags);
        assert_eq!(r.profile(), IsaProfile::rv64gc());
        let text = r.section_by_name(".text").unwrap();
        assert_eq!(text.addr, 0x10000);
        assert_eq!(text.data, b.sections[0].data);
        assert!(text.is_code());
        let s = r.symbol_by_name("_start").unwrap();
        assert_eq!(s.value, 0x10000);
        assert_eq!(s.kind, SymbolKind::Function);
        assert_eq!(
            r.symbol_by_name("local_helper").unwrap().binding,
            SymbolBinding::Local
        );
    }

    #[test]
    fn segments_loadable_and_page_congruent() {
        let bytes = sample().to_bytes().unwrap();
        let ehdr = Ehdr::parse(&bytes).unwrap();
        assert_eq!(ehdr.e_phnum, 2);
        for i in 0..ehdr.e_phnum as usize {
            let ph = Phdr::parse(&bytes, ehdr.e_phoff as usize + i * elf::PHDR_SIZE).unwrap();
            assert_eq!(ph.p_type, elf::PT_LOAD);
            assert_eq!(
                ph.p_offset % 4096,
                ph.p_vaddr % 4096,
                "segment {i} not page-congruent"
            );
            // File data must be in range.
            let end = ph.p_offset + ph.p_filesz;
            assert!(end as usize <= bytes.len());
        }
    }

    #[test]
    fn write_stats_report_one_region_per_segment() {
        let b = sample();
        let (bytes, stats) = b.to_bytes_with_stats().unwrap();
        let ehdr = Ehdr::parse(&bytes).unwrap();
        // sample() has .text and .data a page apart → two regions, in
        // address order, matching the PT_LOAD headers exactly.
        assert_eq!(stats.regions_written(), ehdr.e_phnum as usize);
        assert_eq!(stats.regions.len(), 2);
        assert_eq!(stats.regions[0].vaddr, 0x10000);
        assert_eq!(stats.regions[0].file_size, 4);
        assert_eq!(stats.regions[1].vaddr, 0x20000);
        assert_eq!(stats.regions[1].file_size, 8);
        assert!(stats.regions.iter().all(|r| r.mem_size >= r.file_size));
        // And the plain to_bytes path produces identical bytes.
        assert_eq!(bytes, b.to_bytes().unwrap());
    }

    #[test]
    fn attributes_survive_round_trip() {
        let mut b = sample();
        b.attributes.as_mut().unwrap().arch = Some("rv64imac_zicsr".into());
        let r = Binary::parse(&b.to_bytes().unwrap()).unwrap();
        assert_eq!(
            r.attributes.unwrap().arch.as_deref(),
            Some("rv64imac_zicsr")
        );
    }

    #[test]
    fn stripped_binary_round_trips() {
        let mut b = sample();
        b.strip();
        let r = Binary::parse(&b.to_bytes().unwrap()).unwrap();
        assert!(r.functions().is_empty());
        assert_eq!(r.entry, 0x10000);
    }
}
