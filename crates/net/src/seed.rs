//! Deterministic seed derivation.
//!
//! All randomness in the workspace flows from a single campaign seed. Each
//! entity (site, third party, visit, …) derives its own seed by mixing the
//! parent seed with a stable label; the derived seed feeds a
//! `rand::rngs::SmallRng`. Re-running anything with the same seed and
//! configuration is bit-identical, which the integration tests rely on.

/// One round of the splitmix64 output function. Good avalanche behaviour
/// and cheap; this is the standard generator used to expand a single `u64`
/// seed into independent streams.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Incremental FNV-1a (64-bit): the digest [`fnv1a`] computes, fed in
/// chunks so a streaming writer (shard segments, the columnar store's
/// section checksums) can hash as it goes.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// Start a fresh digest (FNV-1a offset basis).
    #[inline]
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Absorb bytes.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.0 = h;
    }

    /// The digest over everything absorbed so far.
    #[inline]
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// FNV-1a hash of a byte string, used to turn stable labels (domain names,
/// purposes) into seed material.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.update(bytes);
    fnv.digest()
}

/// Derive a child seed from a parent seed and a stable string label.
///
/// `derive(s, "a")` and `derive(s, "b")` are statistically independent, and
/// the mapping is stable across runs and platforms.
///
/// ```
/// use topics_net::seed::derive;
///
/// assert_eq!(derive(42, "dns"), derive(42, "dns"));
/// assert_ne!(derive(42, "dns"), derive(42, "http"));
/// ```
#[inline]
pub fn derive(parent: u64, label: &str) -> u64 {
    splitmix64(parent ^ fnv1a(label.as_bytes()))
}

/// Derive a child seed from a parent seed and an index.
#[inline]
pub fn derive_idx(parent: u64, index: u64) -> u64 {
    splitmix64(parent ^ splitmix64(index ^ 0xA076_1D64_78BD_642F))
}

/// Map a seed to a uniform `f64` in `[0, 1)`.
///
/// Uses the top 53 bits so every representable double in the range is
/// reachable with equal probability.
#[inline]
pub fn unit_f64(seed: u64) -> f64 {
    (splitmix64(seed) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministic Bernoulli draw: returns `true` with probability `p` for
/// this `(seed, label)` pair.
#[inline]
pub fn bernoulli(seed: u64, label: &str, p: f64) -> bool {
    unit_f64(derive(seed, label)) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        // Reference values from the canonical splitmix64 implementation.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn incremental_fnv_matches_one_shot() {
        for input in [&b""[..], b"a", b"hello segment", b"\n\n\n"] {
            let mut f = Fnv::new();
            f.update(input);
            assert_eq!(f.digest(), fnv1a(input));
        }
        // Chunked feeding gives the same digest as one shot.
        let mut f = Fnv::new();
        f.update(b"hello ");
        f.update(b"segment");
        assert_eq!(f.digest(), fnv1a(b"hello segment"));
    }

    #[test]
    fn derive_differs_by_label() {
        let s = 42;
        assert_ne!(derive(s, "x"), derive(s, "y"));
        assert_eq!(derive(s, "x"), derive(s, "x"));
    }

    #[test]
    fn derive_idx_differs_by_index() {
        let s = 42;
        assert_ne!(derive_idx(s, 0), derive_idx(s, 1));
    }

    #[test]
    fn unit_f64_in_range() {
        for i in 0..10_000u64 {
            let x = unit_f64(i);
            assert!((0.0..1.0).contains(&x), "out of range: {x}");
        }
    }

    #[test]
    fn bernoulli_rate_is_close() {
        let p = 0.3;
        let hits = (0..20_000u64)
            .filter(|i| bernoulli(derive_idx(7, *i), "b", p))
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - p).abs() < 0.02, "rate {rate} too far from {p}");
    }

    #[test]
    fn bernoulli_extremes() {
        assert!(!bernoulli(1, "z", 0.0));
        assert!(bernoulli(1, "z", 1.0));
    }
}
