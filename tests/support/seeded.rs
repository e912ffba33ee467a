//! Seeded randomness shared by the property suites: one xorshift64*
//! generator and the seed-loop harness that names the failing seed.
//!
//! Each suite includes this file as a module of its own test crate:
//!
//! ```text
//! #[path = "<relative path to>/tests/support/seeded.rs"]
//! mod seeded;
//! use seeded::{check, for_each_seed, Rng};
//! ```
//!
//! Suites draw their domain values (poses, matrices, covariance
//! scales) through local extension traits on [`Rng`], so a change to
//! the generator or the seeding pattern is made here once.

// Each including suite uses a subset of the helpers.
#![allow(dead_code)]

/// Seeds per property in [`for_each_seed`].
pub const CASES: u64 = 256;

/// xorshift64* — deterministic, dependency-free randomness.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`. Any non-zero state works; the seed is
    /// mixed so neighbouring seeds diverge at once.
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// A generator started at the raw state `state` (non-zero), without
    /// the seed mixing of [`Rng::new`] — for suites whose cases were
    /// first drawn from a raw xorshift64* state and must stay the same
    /// cases.
    pub fn from_state(state: u64) -> Self {
        assert_ne!(state, 0, "xorshift64* is stuck at state 0");
        Rng(state)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`0` when `n` is 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Uniform in `lo..hi`.
    pub fn index(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }

    /// Uniform in [lo, hi), from the top 53 bits of one draw.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next() >> 63 == 1
    }
}

/// Runs `property` once for each of the seeds `0..CASES`, naming the
/// seed in any failure.
pub fn for_each_seed(property: impl Fn(&mut Rng) -> Result<(), String>) {
    for seed in 0..CASES {
        if let Err(msg) = property(&mut Rng::new(seed)) {
            panic!("seed {seed}: {msg}");
        }
    }
}

/// `Err` naming `what` and the offending value unless `ok`.
pub fn check(ok: bool, what: &str, value: impl std::fmt::Debug) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{what} ({value:?})"))
    }
}
