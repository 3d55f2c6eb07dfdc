//! Pairwise distances between flat weight vectors.
//!
//! These are the primitives Eq. 3 of the paper is built on: the server
//! receives one flat vector of (partial) model weights per client and
//! computes an `m×m` proximity matrix (`fedclust::proximity`) from
//! [`Pairwise`], which runs sixteen pairs per pass and gives every pair
//! the bits [`Metric::eval`] gives it.

/// Euclidean (L2) distance between two equal-length vectors.
///
/// # Panics
/// Panics if lengths differ.
pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2 distance length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt() as f32
}

/// Cosine *distance* `1 - cos(a, b)` between two equal-length vectors.
/// Returns 1.0 when either vector is (numerically) zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine distance length mismatch");
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    cosine_of(dot, na, nb)
}

/// Cosine distance from the dot product and the two squared norms.
fn cosine_of(dot: f64, na: f64, nb: f64) -> f32 {
    let denom = (na.sqrt() * nb.sqrt()).max(1e-30);
    (1.0 - dot / denom) as f32
}

/// Which metric a proximity matrix uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Euclidean distance — the paper's Eq. 3.
    L2,
    /// Cosine distance — used by the CFL (Sattler et al.) baseline.
    Cosine,
}

impl Metric {
    /// Evaluate the metric on a pair of vectors.
    pub fn eval(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::L2 => l2(a, b),
            Metric::Cosine => cosine(a, b),
        }
    }
}

/// Pairs [`Pairwise`] sums in one pass: one `f64` accumulator per lane, so
/// four AVX2 registers (eight SSE2 ones). Columns are padded to a multiple
/// of it, so every pass is whole.
const LANES: usize = 16;

/// The pairwise distances of `n` equal-length vectors under one metric,
/// sixteen pairs (`LANES`) per pass, each pair bit-identical to
/// [`Metric::eval`].
///
/// The vectors are copied once into k-major panels of `LANES` columns
/// (`n·len·4` bytes, `n` rounded up to whole panels): row `k` of a panel
/// holds the `k`-th value of its `LANES` vectors side by side, and the
/// columns past `n` are zero. Row `i` of the matrix broadcasts `w_i[k]`
/// against row `k` of each panel, and lane `l` adds pair `(i, j)`'s `k`-th
/// term to its own `f64` sum. So each pair is summed alone and in the
/// order of [`l2`] (or [`cosine`]), and no sum is reordered: the square of
/// an `f32` difference, and the product of two `f32`s, are exact in `f64`,
/// and each sum starts where the scalar one does (`-0.0`, as
/// `Iterator::sum` does, for L2; `0.0` for cosine). Cosine's squared
/// norms are summed once per vector, in [`cosine`]'s order.
pub struct Pairwise {
    metric: Metric,
    n: usize,
    len: usize,
    /// Vector `j`'s `k`-th value sits at [`slot`]`(len, j, k)`.
    panels: Vec<f32>,
    /// Each vector's squared norm (cosine only).
    sq_norms: Vec<f64>,
}

/// Where vector `j`'s `k`-th value sits in panels of `len` rows.
fn slot(len: usize, j: usize, k: usize) -> usize {
    (j / LANES * len + k) * LANES + j % LANES
}

/// One copy of the lane body: the sums of `x` against every panel of
/// `panels`, `LANES` per panel, into `sums`.
type LaneSums = fn(Metric, &[f32], &[f32], &mut [f64]);

impl Pairwise {
    /// Copy `vectors` into panels for `metric`.
    ///
    /// # Panics
    /// Panics if two of the vectors differ in length.
    pub fn new<V: AsRef<[f32]>>(metric: Metric, vectors: &[V]) -> Self {
        let n = vectors.len();
        let len = vectors.first().map_or(0, |v| v.as_ref().len());
        let mut panels = vec![0.0f32; n.div_ceil(LANES) * len * LANES];
        for (j, v) in vectors.iter().enumerate() {
            let v = v.as_ref();
            assert!(
                v.len() == len,
                "{metric:?} distance length mismatch: vector {j} has {} values, vector 0 has {len}",
                v.len()
            );
            for (k, &x) in v.iter().enumerate() {
                panels[slot(len, j, k)] = x;
            }
        }
        let sq_norms = match metric {
            Metric::L2 => Vec::new(),
            Metric::Cosine => vectors
                .iter()
                .map(|v| {
                    let mut sq = 0.0f64;
                    for &x in v.as_ref() {
                        sq += x as f64 * x as f64;
                    }
                    sq
                })
                .collect(),
        };
        Pairwise {
            metric,
            n,
            len,
            panels,
            sq_norms,
        }
    }

    /// Row `i`'s upper triangle: the distance from vector `i` to each
    /// vector `j > i`, in `j` order, on the calling thread.
    pub fn row(&self, i: usize) -> Vec<f32> {
        self.row_on(i, lane_sums)
    }

    /// [`Pairwise::row`] on the lane body `body`.
    fn row_on(&self, i: usize, body: LaneSums) -> Vec<f32> {
        let (len, first) = (self.len, (i + 1) / LANES);
        let x: Vec<f32> = (0..len).map(|k| self.panels[slot(len, i, k)]).collect();
        let panels = &self.panels[first * len * LANES..];
        let mut sums = vec![0.0f64; (self.n.div_ceil(LANES) - first) * LANES];
        body(self.metric, &x, panels, &mut sums);
        let sums = &sums[i + 1 - first * LANES..];
        (i + 1..self.n)
            .zip(sums)
            .map(|(j, &s)| match self.metric {
                Metric::L2 => s.sqrt() as f32,
                Metric::Cosine => cosine_of(s, self.sq_norms[i], self.sq_norms[j]),
            })
            .collect()
    }
}

/// The lane body, once: for each `LANES`-column panel of `panels` (k-major,
/// `x.len()` rows), lane `l` sums pair `(x, column l)`'s terms in `k` order —
/// `(x[k] − y[k])²` from `-0.0` for L2, `x[k]·y[k]` from `0.0` for cosine.
#[inline(always)]
fn lane_sums_body(metric: Metric, x: &[f32], panels: &[f32], sums: &mut [f64]) {
    match metric {
        Metric::L2 => sum_panels::<false>(x, panels, sums),
        Metric::Cosine => sum_panels::<true>(x, panels, sums),
    }
}

#[inline(always)]
fn sum_panels<const COSINE: bool>(x: &[f32], panels: &[f32], sums: &mut [f64]) {
    let len = x.len();
    for (p, out) in sums.chunks_exact_mut(LANES).enumerate() {
        let panel = &panels[p * len * LANES..][..len * LANES];
        let mut acc = [if COSINE { 0.0f64 } else { -0.0 }; LANES];
        for (&xk, row) in x.iter().zip(panel.chunks_exact(LANES)) {
            for (a, &y) in acc.iter_mut().zip(row) {
                if COSINE {
                    *a += xk as f64 * y as f64;
                } else {
                    let d = (xk - y) as f64;
                    *a += d * d;
                }
            }
        }
        out.copy_from_slice(&acc);
    }
}

/// The same body compiled with AVX2 codegen: the sixteen lanes' `f32`
/// differences, widenings, squares and adds run as YMM vectors (the
/// baseline x86-64 target is SSE2-only).
///
/// # Safety
/// `unsafe` comes solely from `#[target_feature]`: the CPU must support
/// AVX2 (checked at the one dispatch site, [`lane_sums`]). The body is
/// safe Rust over range-checked slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_sums_avx2(metric: Metric, x: &[f32], panels: &[f32], sums: &mut [f64]) {
    lane_sums_body(metric, x, panels, sums)
}

/// The body this host runs: the AVX2 copy where the CPU has AVX2, the
/// portable one elsewhere.
fn lane_sums(metric: Metric, x: &[f32], panels: &[f32], sums: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        // The detection macro caches its answer, as for the GEMM kernel.
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was verified immediately above, which is
            // `lane_sums_avx2`'s only precondition.
            return unsafe { lane_sums_avx2(metric, x, panels, sums) };
        }
    }
    lane_sums_body(metric, x, panels, sums)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_known_values() {
        assert_eq!(l2(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(l2(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn cosine_known_values() {
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 2.0], &[2.0, 4.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_max_distance() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
    }

    /// A vector (zero-padded to `len`) whose squares, summed in order from
    /// −0.0, come to `M² − 2 ulp`, where `M = 1 + 2⁻²⁴` is the midpoint
    /// between 1.0 and the next `f32`: 1, two 2⁻²⁴ and fourteen 2⁻⁵² add
    /// exactly, and the 32 trailing 2⁻⁵⁴ are each lost against a running sum
    /// near 1. Split over interleaved accumulators, half of those tiny terms
    /// land in one that holds only small values and survive, so the sum
    /// comes to `M² + 2 ulp`. `sqrt` then rounds to 1.0 in order and to
    /// `1 + 2⁻²³` out of it: a reordered sum shows in the `f32` result of
    /// the vector's L2 distance to a zero vector and of its cosine with a
    /// copy of itself, where random data almost never shows it.
    fn rounding_probe(len: usize) -> Vec<f32> {
        let terms = [
            (1.0f32, 1),
            (2f32.powi(-12), 2),
            (2f32.powi(-26), 14),
            (2f32.powi(-27), 32),
        ];
        let probe = terms
            .iter()
            .flat_map(|&(d, count)| std::iter::repeat_n(d, count));
        let mut v = vec![0.0f32; len];
        for (slot, d) in v.iter_mut().zip(probe) {
            *slot = d;
        }
        v
    }

    /// Vector `j` of `m`, `len` values long: random, except that the first
    /// two are [`rounding_probe`]s, every fifth carries a NaN, ±∞ or −0.0
    /// at a random position, every seventh is all zero and every eleventh
    /// all −0.0 (cosine's 1.0 rule).
    fn oracle_vectors(m: usize, len: usize, rng: &mut impl rand::Rng) -> Vec<Vec<f32>> {
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        (0..m)
            .map(|j| {
                let mut v: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect();
                if j < 2 {
                    v = rounding_probe(len);
                } else if j % 7 == 3 {
                    v.fill(0.0);
                } else if j % 11 == 5 {
                    v.fill(-0.0);
                } else if j % 5 == 2 && len > 0 {
                    let at = rng.gen_range(0..len);
                    v[at] = specials[j / 5 % specials.len()];
                }
                v
            })
            .collect()
    }

    /// The pairwise oracle: every pair of every row, `to_bits`, against
    /// `Metric::eval`, for both metrics, on the portable body on every host
    /// and on the dispatched one (the AVX2 copy where the host has it).
    /// Counts below, at, just above and well above a lane block; lengths 0
    /// (L2's `-0.0`), 1, a final layer's 250 and LeNet-5's 5,938 values.
    #[test]
    fn every_pair_is_its_metric_eval_to_the_bit_on_both_bodies() {
        use rand::SeedableRng;
        let bodies: [(&str, LaneSums); 2] =
            [("portable", lane_sums_body), ("dispatched", lane_sums)];
        let mut rng = rand::rngs::SmallRng::seed_from_u64(52);
        let counts = [0, 1, 2, LANES - 1, LANES, LANES + 1, 2 * LANES + 3, 200];
        for m in counts {
            for len in [0, 1, 250, 5938] {
                let vectors = oracle_vectors(m, len, &mut rng);
                for metric in [Metric::L2, Metric::Cosine] {
                    let pairwise = Pairwise::new(metric, &vectors);
                    for i in 0..m {
                        let want: Vec<u32> = vectors[i + 1..]
                            .iter()
                            .map(|w| metric.eval(&vectors[i], w).to_bits())
                            .collect();
                        for (name, body) in bodies {
                            let got: Vec<u32> = pairwise
                                .row_on(i, body)
                                .iter()
                                .map(|d| d.to_bits())
                                .collect();
                            assert_eq!(got, want, "{name} {metric:?} m={m} len={len} row {i}");
                        }
                    }
                }
            }
        }
    }

    /// The probe does what its doc says on the scalar metric itself.
    #[test]
    fn the_rounding_probe_sits_on_an_f32_midpoint() {
        let (probe, zero) = (rounding_probe(49), vec![0.0f32; 49]);
        assert_eq!(l2(&probe, &zero), 1.0);
        let split: f64 = (0..2)
            .map(|start| {
                let mut sum = -0.0f64;
                for &d in probe.iter().skip(start).step_by(2) {
                    sum += d as f64 * d as f64;
                }
                sum
            })
            .sum();
        assert_eq!(split.sqrt() as f32, 1.0 + f32::EPSILON);
    }

    #[test]
    fn an_empty_l2_pair_is_negative_zero_and_zero_vectors_are_cosine_one() {
        let empty: [&[f32]; 2] = [&[], &[]];
        assert_eq!(
            Pairwise::new(Metric::L2, &empty).row(0)[0].to_bits(),
            (-0.0f32).to_bits()
        );
        assert_eq!(Pairwise::new(Metric::Cosine, &empty).row(0), [1.0]);
        let zeros: [&[f32]; 3] = [&[0.0, 0.0], &[1.0, 1.0], &[-0.0, 0.0]];
        assert_eq!(Pairwise::new(Metric::Cosine, &zeros).row(0), [1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "vector 2 has 3 values, vector 0 has 4")]
    fn unequal_lengths_panic_with_both_lengths() {
        let vectors: [&[f32]; 3] = [&[1.0; 4], &[2.0; 4], &[3.0; 3]];
        let _ = Pairwise::new(Metric::L2, &vectors);
    }

    #[test]
    fn metric_dispatch() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((Metric::L2.eval(&a, &b) - std::f32::consts::SQRT_2).abs() < 1e-6);
        assert!((Metric::Cosine.eval(&a, &b) - 1.0).abs() < 1e-6);
    }
}
