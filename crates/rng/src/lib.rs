//! # bedom-rng
//!
//! A small, dependency-free, deterministic pseudo-random number generator for
//! the bedom graph generators, identifier shufflers and experiment probes.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — the standard
//! construction recommended by the xoshiro authors. Quality is far beyond
//! what graph sampling needs, streams are stable across platforms and Rust
//! versions (pure integer arithmetic, no platform entropy), and the whole
//! implementation fits in a page so it can be audited at a glance.
//!
//! Everything downstream (generator determinism tests, the simulator's
//! shuffled identifier assignments, the distributed algorithms' results on a
//! fixed seed) relies only on the *stability* of these streams, never on any
//! specific values.

/// Deterministic xoshiro256++ generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed (SplitMix64 state expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        DetRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value below `bound` (Lemire's unbiased rejection method).
    /// Returns 0 when `bound` is 0.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in a half-open or inclusive integer range, e.g.
    /// `rng.gen_range(0..n)` or `rng.gen_range(0..=r)`. Panics on an empty
    /// range.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: RangeValue,
        R: IntoBounds<T>,
    {
        let (lo, hi_inclusive) = range.into_bounds();
        let (lo64, hi64) = (lo.to_u64(), hi_inclusive.to_u64());
        assert!(lo64 <= hi64, "gen_range called with an empty range");
        let span = hi64 - lo64;
        let value = if span == u64::MAX {
            self.next_u64()
        } else {
            lo64 + self.gen_below(span + 1)
        };
        T::from_u64(value)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// Integer types usable with [`DetRng::gen_range`].
pub trait RangeValue: Copy {
    /// Widens to `u64` (values are always non-negative in this workspace).
    fn to_u64(self) -> u64;
    /// Narrows back from `u64`.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_range_value {
    ($($t:ty),*) => {$(
        impl RangeValue for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}
impl_range_value!(usize, u64, u32, u16, u8);

/// Range forms accepted by [`DetRng::gen_range`].
pub trait IntoBounds<T> {
    /// `(low, high)` with `high` inclusive.
    fn into_bounds(self) -> (T, T);
}

impl<T: RangeValue> IntoBounds<T> for std::ops::Range<T> {
    fn into_bounds(self) -> (T, T) {
        let hi = self.end.to_u64();
        assert!(hi > 0, "gen_range called with an empty range");
        (self.start, T::from_u64(hi - 1))
    }
}

impl<T: RangeValue> IntoBounds<T> for std::ops::RangeInclusive<T> {
    fn into_bounds(self) -> (T, T) {
        (*self.start(), *self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        let mut c = DetRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = DetRng::seed_from_u64(1);
        for _ in 0..2000 {
            let x: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y: u32 = rng.gen_range(0..=4);
            assert!(y <= 4);
        }
        let z: u64 = rng.gen_range(9..10);
        assert_eq!(z, 9);
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = DetRng::seed_from_u64(42);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn f64_in_unit_interval_with_sane_mean() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..50_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 50_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut rng = DetRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let shuffled = v.clone();
        let mut sorted = v;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        let mut rng2 = DetRng::seed_from_u64(11);
        let mut w: Vec<u32> = (0..100).collect();
        rng2.shuffle(&mut w);
        assert_eq!(shuffled, w);
        assert_ne!(shuffled, (0..100).collect::<Vec<u32>>());
    }
}
