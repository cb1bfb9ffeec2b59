//! Synthetic data generators.
//!
//! Reproduces the data sets of the thesis' evaluation sections:
//!
//! * [`SyntheticSpec`] — `T` tuples, `S` selection dimensions of cardinality
//!   `C`, `R` ranking dimensions with distribution `S ∈ {E, C, A}`
//!   (uniform / correlated / anti-correlated — the standard skyline
//!   benchmark distributions; Table 3.8, Section 7.3.1).
//! * [`forest_cover`] — a statistical surrogate for the UCI Forest CoverType
//!   data set: 12 selection dimensions with the published cardinalities
//!   (255, 207, 185, 67, 7, 2×7) and 3 quantitative ranking dimensions with
//!   ≈2k–6k distinct values, mildly skewed. The real file is not available
//!   offline; the experiments only depend on these distributional facts
//!   (cardinality mix and value skew), which the surrogate preserves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::relation::{Relation, RelationBuilder};
use crate::schema::{Dim, Schema};

/// Ranking-dimension distribution (`S` in the thesis' parameter tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataDist {
    /// `E`: independent uniform.
    Uniform,
    /// `C`: correlated — good in one dimension implies good in the others.
    Correlated,
    /// `A`: anti-correlated — good in one dimension implies bad in another.
    AntiCorrelated,
}

/// Parameters of a synthetic data set (Table 3.8 defaults).
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Number of tuples `T`.
    pub tuples: usize,
    /// Number of selection dimensions `S`.
    pub selection_dims: usize,
    /// Cardinality `C` of every selection dimension.
    pub cardinality: u32,
    /// Number of ranking dimensions `R`.
    pub ranking_dims: usize,
    /// Ranking-value distribution.
    pub dist: DataDist,
    /// RNG seed (experiments are reproducible).
    pub seed: u64,
}

impl Default for SyntheticSpec {
    /// Table 3.8 defaults scaled to laptop size: `S=3, R=2, C=20`,
    /// uniform distribution. `T` defaults to 30 000, the paper's 3M divided
    /// by 100.
    fn default() -> Self {
        Self {
            tuples: 30_000,
            selection_dims: 3,
            cardinality: 20,
            ranking_dims: 2,
            dist: DataDist::Uniform,
            seed: 42,
        }
    }
}

impl SyntheticSpec {
    /// Generates the relation.
    pub fn generate(&self) -> Relation {
        let schema = Schema::synthetic(self.selection_dims, self.cardinality, self.ranking_dims);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = RelationBuilder::with_capacity(schema, self.tuples);
        let mut sel = vec![0u32; self.selection_dims];
        for _ in 0..self.tuples {
            for v in sel.iter_mut() {
                *v = rng.gen_range(0..self.cardinality);
            }
            let rank = sample_point(&mut rng, self.ranking_dims, self.dist);
            b.push(&sel, &rank);
        }
        b.finish()
    }
}

/// Samples one ranking point in `[0,1]^d` under `dist`.
pub fn sample_point(rng: &mut impl Rng, dims: usize, dist: DataDist) -> Vec<f64> {
    match dist {
        DataDist::Uniform => (0..dims).map(|_| rng.gen::<f64>()).collect(),
        DataDist::Correlated => {
            // Common base value plus small Gaussian jitter per dimension.
            let base: f64 = rng.gen();
            (0..dims).map(|_| (base + 0.12 * gaussian(rng)).clamp(0.0, 1.0)).collect()
        }
        DataDist::AntiCorrelated => {
            // Points near the hyper-plane Σxi = d/2 with large spread along
            // it (the standard Börzsönyi-style construction).
            loop {
                let plane = 0.5 * dims as f64 + 0.06 * gaussian(rng);
                let mut raw: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
                let sum: f64 = raw.iter().sum();
                if sum <= f64::EPSILON {
                    continue;
                }
                let scale = plane / sum;
                for v in raw.iter_mut() {
                    *v *= scale;
                }
                if raw.iter().all(|&v| (0.0..=1.0).contains(&v)) {
                    return raw;
                }
            }
        }
    }
}

/// Standard normal via Box–Muller (keeps the dependency set minimal).
fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Cardinalities of the 12 CoverType attributes used as selection
/// dimensions in Sections 3.5.1/4.4.1.
pub const FOREST_SELECTION_CARDS: [u32; 12] = [255, 207, 185, 67, 7, 2, 2, 2, 2, 2, 2, 2];

/// Cardinalities of the 3 quantitative attributes used as ranking
/// dimensions (distinct-value counts reported in the thesis).
pub const FOREST_RANKING_CARDS: [u32; 3] = [1_989, 5_787, 5_827];

/// Generates the Forest CoverType surrogate with `tuples` rows.
///
/// Selection values follow a truncated-geometric (skewed) distribution —
/// real CoverType attributes are heavily skewed toward a few frequent soil
/// and area codes. Ranking values are drawn on a lattice of the published
/// distinct-value counts with a mild central tendency.
pub fn forest_cover(tuples: usize, seed: u64) -> Relation {
    let schema = Schema::new(
        FOREST_SELECTION_CARDS
            .iter()
            .enumerate()
            .map(|(i, &c)| Dim::cat(format!("F{}", i + 1), c))
            .collect(),
        vec!["elevation", "h_dist_road", "h_dist_fire"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = RelationBuilder::with_capacity(schema, tuples);
    let mut sel = vec![0u32; FOREST_SELECTION_CARDS.len()];
    for _ in 0..tuples {
        for (d, v) in sel.iter_mut().enumerate() {
            *v = skewed_value(&mut rng, FOREST_SELECTION_CARDS[d]);
        }
        let rank: Vec<f64> = FOREST_RANKING_CARDS
            .iter()
            .map(|&card| {
                // Average two uniforms for a gentle central mode, then snap
                // to the attribute's value lattice.
                let v = 0.5 * (rng.gen::<f64>() + rng.gen::<f64>());
                (v * (card - 1) as f64).round() / (card - 1) as f64
            })
            .collect();
        b.push(&sel, &rank);
    }
    b.finish()
}

/// Truncated-geometric sample over `0..card` (p = 0.25 per step, cycling).
fn skewed_value(rng: &mut impl Rng, card: u32) -> u32 {
    if card <= 2 {
        // Binary attributes in CoverType are ~85/15 splits.
        return u32::from(rng.gen::<f64>() < 0.15);
    }
    let mut v = 0u32;
    while rng.gen::<f64>() < 0.75 {
        v += 1;
    }
    v % card
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_defaults_generate_correct_shape() {
        let spec = SyntheticSpec { tuples: 500, ..Default::default() };
        let r = spec.generate();
        assert_eq!(r.len(), 500);
        assert_eq!(r.schema().num_selection(), 3);
        assert_eq!(r.schema().num_ranking(), 2);
        for tid in r.tids() {
            for d in 0..3 {
                assert!(r.selection_value(tid, d) < 20);
            }
            for d in 0..2 {
                let v = r.ranking_value(tid, d);
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = SyntheticSpec { tuples: 200, ..Default::default() };
        let a = spec.generate();
        let b = spec.generate();
        for tid in a.tids() {
            assert_eq!(a.ranking_point(tid), b.ranking_point(tid));
        }
        let c = SyntheticSpec { seed: 7, ..spec }.generate();
        let differs = a.tids().any(|t| a.ranking_point(t) != c.ranking_point(t));
        assert!(differs);
    }

    #[test]
    fn correlated_points_cluster_on_diagonal() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut max_spread: f64 = 0.0;
        let mut avg_spread = 0.0;
        for _ in 0..500 {
            let p = sample_point(&mut rng, 2, DataDist::Correlated);
            let spread = (p[0] - p[1]).abs();
            max_spread = max_spread.max(spread);
            avg_spread += spread;
        }
        avg_spread /= 500.0;
        assert!(avg_spread < 0.2, "correlated spread too large: {avg_spread}");
    }

    #[test]
    fn anticorrelated_points_hug_the_antidiagonal() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let p = sample_point(&mut rng, 2, DataDist::AntiCorrelated);
            let sum = p[0] + p[1];
            assert!((sum - 1.0).abs() < 0.45, "sum {sum} too far from plane");
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn forest_surrogate_respects_domains() {
        let r = forest_cover(1_000, 3);
        assert_eq!(r.schema().num_selection(), 12);
        assert_eq!(r.schema().num_ranking(), 3);
        for tid in r.tids() {
            for (d, &card) in FOREST_SELECTION_CARDS.iter().enumerate() {
                assert!(r.selection_value(tid, d) < card);
            }
        }
        // Binary dims are skewed (mostly zero).
        let ones = r.tids().filter(|&t| r.selection_value(t, 5) == 1).count();
        assert!(ones < 300, "binary attribute should be skewed, got {ones}/1000 ones");
    }

    #[test]
    fn gaussian_has_roughly_zero_mean() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| gaussian(&mut rng)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }
}
