//! The suite's only randomness source: a seeded **splitmix64** generator.
//!
//! Every stochastic element of the workspace — app input data, scripted
//! sensor peripherals, generated test programs, campaign seed sweeps —
//! draws from this one deterministic stream so that simulations are
//! bit-reproducible and the workspace needs no external `rand` crate
//! (the build must succeed on air-gapped machines).
//!
//! Its deterministic sibling lives here too: [`Fnv1a`], the one byte-wise
//! FNV-1a hasher behind every content-addressed key in the workspace
//! (campaign run keys and spec fingerprints, checker chunk keys, program
//! fingerprints, memo directory names, report digests).

/// Seeded splitmix64 pseudo-random generator.
///
/// The raw `state` is the splitmix64 counter; `next_u64` applies the
/// standard finalizer. Callers that historically pre-mixed their seed
/// (e.g. `seed * GOLDEN + k`) can reproduce their exact streams via
/// [`SplitMix64::from_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The splitmix64 increment (the 64-bit golden ratio).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// A generator whose counter starts at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// A generator resuming from a raw counter value (for callers that
    /// derive the initial state themselves).
    pub fn from_state(state: u64) -> SplitMix64 {
        SplitMix64 { state }
    }

    /// The raw counter (serializable; `from_state` restores it).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..hi` (half-open; `hi > lo`).
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// A uniform integer in `lo..hi` (half-open; `hi > lo`).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(hi > lo, "empty range {lo}..{hi}");
        // Span in u64 via wrapping two's-complement subtraction: correct
        // even when `hi - lo` exceeds i64::MAX (e.g. i64::MIN..i64::MAX).
        let span = (hi as u64).wrapping_sub(lo as u64);
        lo.wrapping_add((self.next_u64() % span) as i64)
    }

    /// A uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        // 53 mantissa bits of uniformity.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Picks an index by integer weight (weights need not be normalized).
    pub fn pick_weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "weights must not all be zero");
        let mut roll = self.next_u64() % total;
        for (i, &w) in weights.iter().enumerate() {
            if roll < w as u64 {
                return i;
            }
            roll -= w as u64;
        }
        unreachable!("roll exhausted the weight table")
    }

    /// A fresh, decorrelated child generator (for per-item streams).
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

/// Streaming 64-bit FNV-1a over bytes. Integers hash as their 8
/// little-endian bytes and strings as their length followed by their
/// bytes, so `("ab", "c")` and `("a", "bc")` hash differently.
///
/// The values key on-disk journals and memo slabs, so every byte fed in
/// is part of the persistent format — and so is the multiplier: the
/// workspace has always used `0x1000_0000_01b3`, not the published
/// 64-bit FNV prime `0x100_0000_01b3`, and keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(Fnv1a::OFFSET)
    }

    /// Folds raw bytes (no length prefix).
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv1a {
        for &byte in bytes {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(Fnv1a::PRIME);
        }
        self
    }

    /// Folds a `u64` as its 8 little-endian bytes.
    pub fn u64(&mut self, v: u64) -> &mut Fnv1a {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a string as its length (a `u64`) followed by its bytes.
    pub fn str(&mut self, s: &str) -> &mut Fnv1a {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_keeps_the_historical_constants() {
        // Pinned: the offset basis, and the workspace multiplier applied
        // to "a" and "foobar" (the published-prime values would be
        // 0xaf63dc4c8601ec8c and 0x85944171f73967e8).
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().bytes(b"a").finish(), 0xaf74_d84c_8601_ec8c);
        assert_eq!(
            Fnv1a::new().bytes(b"foobar").finish(),
            0xf8ac_2471_f739_67e8
        );
        // Length-prefixed strings keep field boundaries.
        let ab_c = Fnv1a::new().str("ab").str("c").finish();
        let a_bc = Fnv1a::new().str("a").str("bc").finish();
        assert_ne!(ab_c, a_bc);
        assert_eq!(
            Fnv1a::new().u64(7).finish(),
            Fnv1a::new().bytes(&7u64.to_le_bytes()).finish()
        );
    }

    #[test]
    fn stream_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "no short cycles: {xs:?}");
    }

    #[test]
    fn known_vector() {
        // Reference value of splitmix64(seed=0), first output.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn ranges_are_in_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let u = r.range_u64(10, 20);
            assert!((10..20).contains(&u));
            let i = r.range_i64(-5, 5);
            assert!((-5..5).contains(&i));
            let f = r.range_f64(1.5, 2.5);
            assert!((1.5..2.5).contains(&f));
            let w = r.pick_weighted(&[4, 3, 2, 1]);
            assert!(w < 4);
        }
    }

    #[test]
    fn range_i64_survives_extreme_spans() {
        let mut r = SplitMix64::new(99);
        for _ in 0..1000 {
            let full = r.range_i64(i64::MIN, i64::MAX);
            assert!(full < i64::MAX);
            let wide = r.range_i64(i64::MIN, 1);
            assert!(wide < 1);
        }
    }

    #[test]
    fn split_decorrelates() {
        let mut r = SplitMix64::new(1);
        let mut c1 = r.split();
        let mut c2 = r.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
