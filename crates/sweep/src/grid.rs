//! Job grids and counter-based per-point seeding.
//!
//! A [`Grid`] is an ordered list of job points — corner × parameter ×
//! seed combinations — plus a base seed. Each point owns a
//! deterministic RNG seed derived *by counter* from the base seed and
//! the point's grid index ([`point_seed`]), never from a shared
//! sequential stream. That is the property the whole execution engine
//! rests on: a point's randomness depends only on `(base_seed, index)`,
//! so results are bit-identical regardless of how many workers run the
//! grid or in which order they pick points up.

/// Mixes a 64-bit state with the SplitMix64 finalizer — the same
/// construction the vendored `rand` stub uses to expand seeds, reused
/// here to decorrelate per-point seeds.
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the RNG seed of grid point `index` from the grid's
/// `base_seed`.
///
/// The derivation is counter-based (a SplitMix64 walk evaluated at
/// `index`, folded with the mixed base seed), so any point's seed can
/// be computed independently in O(1) — no shared generator, no
/// order dependence, no cross-worker coordination.
///
/// # Examples
///
/// ```
/// // Same (base, index) → same seed; neighbours decorrelate.
/// assert_eq!(sweep::point_seed(7, 3), sweep::point_seed(7, 3));
/// assert_ne!(sweep::point_seed(7, 3), sweep::point_seed(7, 4));
/// assert_ne!(sweep::point_seed(7, 3), sweep::point_seed(8, 3));
/// ```
#[must_use]
pub fn point_seed(base_seed: u64, index: u64) -> u64 {
    let counter = index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64_mix(splitmix64_mix(base_seed) ^ counter)
}

/// The standard 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The standard 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a hasher — the engine's stable fingerprint primitive.
///
/// [`fingerprint`] and [`fingerprint_bytes`] are one-shot wrappers; the
/// struct form exists so callers hashing composite keys (canonical
/// request bytes, grid descriptions assembled from parts) can feed
/// chunks without building an intermediate `String`.
///
/// # Examples
///
/// ```
/// let mut h = sweep::Fnv1a::new();
/// h.update(b"wer current=63uA ");
/// h.update(b"pulses=6");
/// assert_eq!(h.finish(), sweep::fingerprint("wer current=63uA pulses=6"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a {
    hash: u64,
}

impl Fnv1a {
    /// A hasher at the standard FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::with_basis(FNV_OFFSET)
    }

    /// A hasher starting from an arbitrary basis — distinct bases yield
    /// independent hash streams over the same bytes, which is how
    /// [`fingerprint128`] widens the digest.
    #[must_use]
    pub(crate) fn with_basis(basis: u64) -> Self {
        Self { hash: basis }
    }

    /// Feeds `bytes` into the hash state.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current 64-bit digest. The hasher remains usable.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a hash of a byte string, used to bind a
/// checkpoint to the grid description it was taken
/// over.
///
/// # Examples
///
/// ```
/// let a = sweep::fingerprint("wer current=63uA pulses=6 trials=2000");
/// assert_eq!(a, sweep::fingerprint("wer current=63uA pulses=6 trials=2000"));
/// assert_ne!(a, sweep::fingerprint("wer current=63uA pulses=6 trials=4000"));
/// ```
#[must_use]
pub fn fingerprint(description: &str) -> u64 {
    fingerprint_bytes(description.as_bytes())
}

/// FNV-1a hash over raw bytes — identical to [`fingerprint`] for UTF-8
/// input, provided for callers keying on non-textual material.
#[must_use]
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.update(bytes);
    hasher.finish()
}

/// 128-bit content fingerprint: two independent FNV-1a streams over the
/// same bytes (the standard basis in the high half, a decorrelated
/// basis in the low half). 64 bits is plenty for checkpoint tags, but a
/// content-addressed cache lives or dies on collision resistance, so
/// cache keys get the wide digest.
///
/// # Examples
///
/// ```
/// let a = sweep::fingerprint128(b"{\"variant\":\"proposed\"}");
/// assert_eq!(a, sweep::fingerprint128(b"{\"variant\":\"proposed\"}"));
/// assert_ne!(a, sweep::fingerprint128(b"{\"variant\":\"standard\"}"));
/// // High half is the plain 64-bit fingerprint.
/// assert_eq!((a >> 64) as u64, sweep::fingerprint_bytes(b"{\"variant\":\"proposed\"}"));
/// ```
#[must_use]
pub fn fingerprint128(bytes: &[u8]) -> u128 {
    let mut high = Fnv1a::new();
    high.update(bytes);
    // The low half starts from the standard basis remixed by the
    // SplitMix64 finalizer, giving an independent stream over the same
    // bytes without inventing a second FNV constant.
    let mut low = Fnv1a::with_basis(splitmix64_mix(FNV_OFFSET));
    low.update(bytes);
    (u128::from(high.finish()) << 64) | u128::from(low.finish())
}

/// An ordered list of job points with a base seed.
///
/// The grid is the unit of execution: [`crate::run`] walks its points
/// (in any order, on any number of workers) and returns results in
/// **grid order**. Point `i` receives the deterministic seed
/// [`Grid::seed_of`]`(i)`.
///
/// # Examples
///
/// ```
/// let grid = sweep::Grid::with_seed(vec!["SS", "TT", "FF"], 42);
/// assert_eq!(grid.len(), 3);
/// assert_eq!(grid.seed_of(1), sweep::point_seed(42, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid<P> {
    points: Vec<P>,
    base_seed: u64,
}

impl<P> Grid<P> {
    /// A grid over `points` with base seed 0.
    #[must_use]
    pub fn new(points: Vec<P>) -> Self {
        Self::with_seed(points, 0)
    }

    /// A grid over `points` seeded with `base_seed`.
    #[must_use]
    pub fn with_seed(points: Vec<P>, base_seed: u64) -> Self {
        Self { points, base_seed }
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points, in grid order.
    #[must_use]
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// The base seed the per-point seeds derive from.
    #[must_use]
    pub(crate) fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The deterministic RNG seed of point `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn seed_of(&self, index: usize) -> u64 {
        assert!(index < self.points.len(), "point {index} out of range");
        point_seed(self.base_seed, index as u64)
    }
}

impl Grid<()> {
    /// A grid of `n` unit points — the shape of a pure Monte-Carlo run,
    /// where a point is nothing but its index and seed.
    #[must_use]
    pub fn samples(n: usize, base_seed: u64) -> Self {
        Self::with_seed(vec![(); n], base_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_seeds_are_stable_and_decorrelated() {
        let seeds: Vec<u64> = (0..64).map(|i| point_seed(11, i)).collect();
        let again: Vec<u64> = (0..64).map(|i| point_seed(11, i)).collect();
        assert_eq!(seeds, again);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "no seed collisions");
        // A different base seed reroutes every point.
        assert!((0..64).all(|i| point_seed(12, i) != seeds[i as usize]));
    }

    #[test]
    fn grid_seed_of_matches_free_function() {
        let grid = Grid::with_seed(vec![10, 20, 30], 99);
        for i in 0..grid.len() {
            assert_eq!(grid.seed_of(i), point_seed(99, i as u64));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_seed_panics() {
        let _ = Grid::new(vec![1]).seed_of(1);
    }

    #[test]
    fn samples_grid_is_unit_points() {
        let grid = Grid::samples(5, 3);
        assert_eq!(grid.len(), 5);
        assert_eq!(grid.base_seed(), 3);
    }

    #[test]
    fn fingerprint_discriminates() {
        assert_ne!(fingerprint("a"), fingerprint("b"));
        assert_ne!(fingerprint(""), fingerprint("a"));
    }

    #[test]
    fn streaming_hasher_matches_one_shot_for_any_chunking() {
        let text = "wer current=63uA pulses=6 trials=2000";
        let expect = fingerprint(text);
        for split in 0..=text.len() {
            let mut h = Fnv1a::new();
            h.update(&text.as_bytes()[..split]);
            h.update(&text.as_bytes()[split..]);
            assert_eq!(h.finish(), expect, "split at {split}");
        }
        assert_eq!(fingerprint_bytes(text.as_bytes()), expect);
    }

    #[test]
    fn wide_fingerprint_halves_are_independent() {
        let a = fingerprint128(b"request-a");
        let b = fingerprint128(b"request-b");
        assert_ne!(a, b);
        assert_eq!((a >> 64) as u64, fingerprint_bytes(b"request-a"));
        // The two halves must not be the same stream.
        assert_ne!((a >> 64) as u64, a as u64);
        // Empty input still yields a stable, nonzero digest.
        assert_eq!(fingerprint128(b""), fingerprint128(b""));
        assert_ne!(fingerprint128(b""), 0);
    }
}
