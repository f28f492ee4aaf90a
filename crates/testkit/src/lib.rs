//! The workspace's one seeded generator, for tests only.
//!
//! The workspace builds without registry access, so the property tests
//! cannot pull in `proptest`. Every randomized test — the crates' unit
//! tests and the suites under `tests/` — instead draws its cases from this
//! xorshift64*-based [`Rng`]: the same seed generates the same cases on
//! every run, which keeps failures reproducible (re-run the named test)
//! while still exploring a few hundred random inputs per property.

#![forbid(unsafe_code)]

/// A deterministic xorshift64* generator.
pub struct Rng(u64);

impl Rng {
    /// Seeded generator; distinct seeds give independent-looking streams.
    pub fn new(seed: u64) -> Self {
        // Splash the seed so small consecutive seeds diverge immediately.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// A generator whose state is `state` as given, unsplashed: the stream
    /// a test pinned by its raw state keeps. `state` must not be zero.
    pub fn from_state(state: u64) -> Self {
        Rng(state)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform `u64` in `lo..hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `i64` in `lo..hi`.
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform choice from a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// A vector of `len ∈ lo..hi` elements drawn from `f`.
    pub fn vec_of<T>(&mut self, lo: usize, hi: usize, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = lo + self.below(hi - lo);
        (0..n).map(|_| f(self)).collect()
    }
}
