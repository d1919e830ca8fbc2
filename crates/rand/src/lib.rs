//! In-tree stand-in for the subset of the `rand` 0.8 API this workspace
//! uses, so the whole repository builds and tests offline (the build
//! machines cannot reach a cargo registry).
//!
//! Only the surface the simulator actually calls is provided:
//! [`rngs::SmallRng`], [`SeedableRng::seed_from_u64`],
//! [`Rng::gen_range`] over integer `Range`s, and [`Rng::gen_bool`].
//! The generator is xoshiro256++ (the same family the real `SmallRng`
//! uses on 64-bit targets) seeded through SplitMix64, so streams are
//! deterministic, well-distributed, and cheap — but they are **not**
//! bit-identical to upstream `rand`'s streams. All in-repo tests seed
//! explicitly and assert statistical or structural properties, never
//! exact upstream sequences, so this distinction is invisible here.

use std::ops::Range;

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed. Identical seeds yield
    /// identical streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 step — used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Integer types that can be drawn uniformly from a half-open range.
pub trait SampleUniform: Copy {
    /// Draw uniformly from `[low, high)`. Panics if the range is empty.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

/// Draw uniformly from `[0, span)` with Lemire's rejection method
/// (unbiased; at most one extra draw in expectation even for worst-case
/// spans).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let threshold = span.wrapping_neg() % span;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(span);
        let low = m as u64;
        if low >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                let span = u64::from(high) - u64::from(low);
                low + uniform_below(rng, span) as $t
            }
        }
    )*};
}

impl_sample_uniform_unsigned!(u8, u16, u32, u64);

impl SampleUniform for usize {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low < high, "gen_range: empty range");
        let span = (high - low) as u64;
        low + uniform_below(rng, span) as usize
    }
}

macro_rules! impl_sample_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                // Two's-complement span: reinterpret as unsigned, widen.
                let wide = <$u>::from_ne_bytes((high.wrapping_sub(low)).to_ne_bytes());
                low.wrapping_add(uniform_below(rng, u64::from(wide)) as $t)
            }
        }
    )*};
}

impl_sample_uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64);

/// High-level sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from a half-open integer range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// Panics if `p` is not in `[0, 1]` (matching upstream `rand`).
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p not in [0, 1]");
        if p >= 1.0 {
            return true;
        }
        // Compare against p scaled to the full 64-bit range; exact for
        // every representable p well beyond f64's 53-bit mantissa.
        let scaled = (p * (u64::MAX as f64 + 1.0)) as u64;
        self.next_u64() < scaled
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// A small, fast, non-cryptographic PRNG — xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // xoshiro state must not be all zero; SplitMix64 cannot
            // produce four consecutive zeros, but guard anyway.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    /// The standard generator. For this shim it is the same engine as
    /// [`SmallRng`]; nothing in the workspace relies on `StdRng` being
    /// cryptographically strong.
    pub type StdRng = SmallRng;
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_given_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1_000_000u64), b.gen_range(0..1_000_000u64));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64)
            .filter(|_| a.gen_range(0..u64::MAX) == b.gen_range(0..u64::MAX))
            .count();
        assert!(same < 4);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(10..17u16);
            assert!((10..17).contains(&x));
            let y = rng.gen_range(0..3usize);
            assert!(y < 3);
            let z = rng.gen_range(-5..5i32);
            assert!((-5..5).contains(&z));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..7usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_rate_is_close() {
        let mut rng = SmallRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SmallRng::seed_from_u64(13);
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
    }
}
