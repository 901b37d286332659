//! Corrupted `.text` must not panic the parser.
//!
//! Each case overwrites 1–64 bytes of `.text` in the 24-function,
//! seed-7 generated binary, at positions and with values drawn from a
//! per-case seed, and parses the mutant serially and on 2 threads. A
//! garbage jump-table address read from corrupted code used to wrap
//! `addr + len` in `ParseInput::read` and panic on the slice index
//! (`jumptable::eval_targets` ← jump-table refinement); the seeds in
//! `REGRESSIONS` reproduced that panic.

use pba_gen::{generate, GenConfig};
use pba_parse::{parse, ParseConfig, ParseInput};

/// Mutant seeds that panicked before `ParseInput::read` checked its
/// arithmetic.
const REGRESSIONS: &[u64] = &[771, 1443];

/// Deterministic generator for mutation positions and bytes.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The seed-7 binary with `.text` mutated by `seed`.
fn mutant(base: &[u8], text: (usize, usize), seed: u64) -> Vec<u8> {
    let mut elf = base.to_vec();
    let mut rng = Lcg(seed ^ 0x9E37_79B9_7F4A_7C15);
    let count = 1 + rng.next() as usize % 64;
    for _ in 0..count {
        let at = text.0 + rng.next() as usize % text.1;
        elf[at] = rng.next() as u8;
    }
    elf
}

fn parse_mutant(elf: Vec<u8>) {
    let Ok(elf) = pba_elf::Elf::parse(elf) else { return };
    let Ok(input) = ParseInput::from_elf(&elf) else { return };
    for threads in [1, 2] {
        parse(&input, &ParseConfig { threads, ..Default::default() });
    }
}

fn seed7() -> (Vec<u8>, (usize, usize)) {
    let g = generate(&GenConfig { num_funcs: 24, seed: 7, ..Default::default() });
    let elf = pba_elf::Elf::parse(g.elf.clone()).expect("generated ELF parses");
    let text = elf.section(".text").expect(".text");
    let span = (text.offset as usize, text.size as usize);
    (g.elf.to_vec(), span)
}

#[test]
fn regression_mutants_parse_without_panicking() {
    let (base, text) = seed7();
    for &seed in REGRESSIONS {
        parse_mutant(mutant(&base, text, seed));
    }
}

#[test]
fn random_text_mutants_parse_without_panicking() {
    let (base, text) = seed7();
    for seed in 0..64 {
        parse_mutant(mutant(&base, text, seed));
    }
}
