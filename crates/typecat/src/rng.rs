//! A tiny deterministic PRNG (xorshift64\*) for catalog generation.
//!
//! The catalogs must be bit-for-bit reproducible across platforms and
//! releases — every experiment in `EXPERIMENTS.md` depends on it — so we
//! use a hand-rolled generator with a frozen algorithm instead of an
//! external crate whose stream might change between versions.

/// Deterministic xorshift64\* generator.
///
/// # Examples
///
/// ```
/// use wsinterop_typecat::rng::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed (zero is remapped internally).
    pub fn new(seed: u64) -> DetRng {
        DetRng {
            state: seed.wrapping_mul(GOLDEN_GAMMA) | 1,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..bound` (`bound` must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Modulo bias is irrelevant at catalog scale.
        self.next_u64() % bound
    }

    /// Uniform value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Stable 64-bit FNV-1a hash, used to derive per-class deterministic
/// attributes from fully-qualified names.
///
/// This is the workspace's one FNV-1a: `wsinterop-core` calls it as
/// `doccache::content_hash` for journal and snapshot checksums, config
/// hashes and virtual-clock span keys.
pub fn fnv1a(bytes: impl AsRef<[u8]>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes.as_ref() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// 2^64 / φ, the odd increment of the splitmix64 stream.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 step: advances `x` by [`GOLDEN_GAMMA`] and returns it
/// through the splitmix64 finalizer (full 64-bit avalanche,
/// bijective). Calling it on `x`, `x + GOLDEN_GAMMA`,
/// `x + 2 * GOLDEN_GAMMA`, … yields the standard splitmix64 stream
/// seeded with `x`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::new(3);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn range_inclusive() {
        let mut rng = DetRng::new(4);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = rng.range(1, 6);
            assert!((1..=6).contains(&v));
            saw_lo |= v == 1;
            saw_hi |= v == 6;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn below_zero_panics() {
        DetRng::new(1).below(0);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a("java.lang.String"), fnv1a("java.lang.String"));
        assert_ne!(fnv1a("a"), fnv1a("b"));
        // Frozen reference value: guards against accidental algorithm
        // changes that would silently reshuffle every catalog.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
    }
}
