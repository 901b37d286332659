//! Parse input: code region, readable data sections, function seeds.

use pba_cfg::CodeRegion;
use pba_elf::types::{ElfError, SecFlags, SecType};
use pba_elf::Elf;
use pba_isa::Arch;
use std::sync::Arc;

/// Function names conventionally known never to return; matching is the
/// paper's first non-returning heuristic ("match function names against
/// known non-returning functions such as exit and abort").
pub const KNOWN_NORETURN: &[&str] = &[
    "exit",
    "_exit",
    "abort",
    "__assert_fail",
    "__stack_chk_fail",
    "longjmp",
    "siglongjmp",
    "panic",
];

/// Everything the parser reads.
pub struct ParseInput {
    /// Executable code.
    pub code: Arc<CodeRegion>,
    /// Readable non-code sections (jump tables live here): `(vaddr,
    /// bytes)`.
    pub data: Vec<(u64, Vec<u8>)>,
    /// Function seeds: `(entry, symbol name)` from the symbol table plus
    /// the ELF entry point.
    pub seeds: Vec<(u64, String)>,
}

impl ParseInput {
    /// Build from a parsed ELF image. Takes `.text` as the code region
    /// (machine → architecture) and every allocated non-executable
    /// progbits section as data.
    pub fn from_elf(elf: &Elf) -> Result<ParseInput, ElfError> {
        let text = elf.section(".text").ok_or(ElfError::BadOffset { what: ".text", value: 0 })?;
        let arch = match elf.machine {
            pba_elf::types::EM_RVLITE => Arch::RvLite,
            _ => Arch::X86_64,
        };
        let code = Arc::new(CodeRegion::new(arch, text.addr, elf.data(text).to_vec()));

        let data = elf
            .sections
            .iter()
            .filter(|s| {
                s.sec_type == SecType::ProgBits
                    && s.flags.has(SecFlags::ALLOC)
                    && !s.flags.has(SecFlags::EXEC)
            })
            .map(|s| (s.addr, elf.data(s).to_vec()))
            .collect();

        let mut seeds: Vec<(u64, String)> = elf
            .symbols
            .iter()
            .filter(|s| s.is_defined_func() && code.contains(s.value))
            .map(|s| (s.value, s.name.clone()))
            .collect();
        if elf.entry != 0 && code.contains(elf.entry) && !seeds.iter().any(|(a, _)| *a == elf.entry)
        {
            seeds.push((elf.entry, "_start".to_string()));
        }
        seeds.sort();
        seeds.dedup_by_key(|(a, _)| *a);

        Ok(ParseInput { code, data, seeds })
    }

    /// Construct directly (tests, rv-lite programs).
    pub fn from_parts(
        code: CodeRegion,
        data: Vec<(u64, Vec<u8>)>,
        seeds: Vec<(u64, String)>,
    ) -> ParseInput {
        ParseInput { code: Arc::new(code), data, seeds }
    }

    /// Read `len` bytes of initialized data (or code) at `addr`. Any
    /// range that does not fit — including one whose end overflows,
    /// as a garbage jump-table address can — is `None`, never a panic.
    pub fn read(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let within = |base: u64, bytes: &[u8]| -> Option<usize> {
            let off = usize::try_from(addr.checked_sub(base)?).ok()?;
            (off.checked_add(len)? <= bytes.len()).then_some(off)
        };
        self.data
            .iter()
            .map(|(base, bytes)| (*base, bytes.as_slice()))
            .chain([(self.code.base, self.code.bytes.as_slice())])
            .find_map(|(base, bytes)| within(base, bytes).map(|off| &bytes[off..off + len]))
    }

    /// Is `addr` a plausible control-flow target (inside the code
    /// region)?
    pub fn valid_code_addr(&self, addr: u64) -> bool {
        self.code.contains(addr)
    }

    /// Is this seed name a known non-returning function?
    pub fn known_noreturn(name: &str) -> bool {
        let pretty = pba_elf::demangle::pretty_name(name);
        KNOWN_NORETURN.contains(&pretty.as_str()) || KNOWN_NORETURN.contains(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_noreturn_matching() {
        assert!(ParseInput::known_noreturn("exit"));
        assert!(ParseInput::known_noreturn("abort"));
        assert!(ParseInput::known_noreturn("_Z5abortv"));
        assert!(!ParseInput::known_noreturn("main"));
    }

    #[test]
    fn read_spans_data_and_code() {
        let code = CodeRegion::new(Arch::X86_64, 0x1000, vec![0xC3, 0x90]);
        let input = ParseInput::from_parts(code, vec![(0x2000, vec![1, 2, 3, 4])], vec![]);
        assert_eq!(input.read(0x2001, 2), Some(&[2u8, 3][..]));
        assert_eq!(input.read(0x1000, 2), Some(&[0xC3u8, 0x90][..]));
        assert!(input.read(0x2003, 2).is_none());
        assert!(input.read(0x3000, 1).is_none());
        assert!(input.valid_code_addr(0x1001));
        assert!(!input.valid_code_addr(0x2000));
    }

    #[test]
    fn read_rejects_overflowing_and_empty_ranges() {
        let code = CodeRegion::new(Arch::X86_64, 0x1000, vec![0xC3, 0x90]);
        let input = ParseInput::from_parts(code, vec![(0x2000, vec![1, 2, 3, 4])], vec![]);
        // addr + len wraps past u64::MAX: out of range, not a panic.
        assert!(input.read(u64::MAX, 8).is_none());
        assert!(input.read(u64::MAX - 3, 8).is_none());
        assert!(input.read(u64::MAX - 7, 8).is_none());
        assert!(input.read(0x2001, usize::MAX).is_none());
        // Zero-length reads: an empty slice inside a region, else None.
        assert_eq!(input.read(0x2004, 0), Some(&[][..]));
        assert_eq!(input.read(0x1000, 0), Some(&[][..]));
        assert!(input.read(u64::MAX, 0).is_none());
    }
}
