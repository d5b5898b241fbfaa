//! Property-based parity tests for the SoA distance kernel: the packed
//! kernel must rank the same nearest cluster and report the same distances
//! as the paper's formulas (`distance::expected_sq_distance`,
//! `similarity::dimension_counting_similarity`), within 1e-9 relative,
//! across random streams for UMicro, DecayedUMicro and CluStream —
//! including after budget-driven merges and retirements, after decay
//! synchronisation marks the kernel stale, and at every absorbing
//! insertion of a stream. Every SIMD backend must match the scalar
//! backend bit for bit.

use clustream::{CluStream, CluStreamConfig};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use umicro::distance::expected_sq_distance;
use umicro::kernel::simd::{self, Backend};
use umicro::similarity::{dimension_counting_similarity, GlobalVariance};
use umicro::{DecayedUMicro, MicroCluster, SimilarityMode, UMicro, UMicroConfig};
use ustream_common::UncertainPoint;

const DIMS: usize = 3;
const REL_TOL: f64 = 1e-9;

/// Every backend this binary can exercise on the host CPU (always at
/// least Scalar).
fn compiled_available() -> Vec<Backend> {
    Backend::compiled()
        .iter()
        .copied()
        .filter(|b| b.available())
        .collect()
}

/// Awkward dimensionalities around every backend's lane width: 1, 3,
/// 4 ± 1, 8 ± 1, and a long tail.
const AWKWARD_DIMS: [usize; 8] = [1, 3, 4, 5, 7, 8, 9, 17];

fn arb_awkward_dims() -> impl Strategy<Value = usize> {
    (0usize..AWKWARD_DIMS.len()).prop_map(|i| AWKWARD_DIMS[i])
}

fn arb_point() -> impl Strategy<Value = UncertainPoint> {
    (
        pvec(-100.0..100.0f64, DIMS),
        pvec(0.0..10.0f64, DIMS),
        1u64..1000,
    )
        .prop_map(|(values, errors, t)| UncertainPoint::new(values, errors, t, None))
}

fn arb_points(min: usize, max: usize) -> impl Strategy<Value = Vec<UncertainPoint>> {
    pvec(arb_point(), min..max)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

fn arb_similarity() -> impl Strategy<Value = SimilarityMode> {
    (0usize..2).prop_map(|i| match i {
        0 => SimilarityMode::ExpectedDistance,
        _ => SimilarityMode::DimensionCounting { thresh: 2.0 },
    })
}

/// Ranks `clusters` for `p` with the paper's formulas alone and returns
/// `(best score, score of clusters[chosen])`, higher always winning
/// (distances are negated). Dimension counting (§II-B) needs an
/// informative global variance and some cluster earning credit;
/// otherwise, like expected-distance mode, it ranks by Lemma 2.2.
fn oracle_scores(
    similarity: SimilarityMode,
    clusters: &[MicroCluster],
    variances: &[f64],
    p: &UncertainPoint,
    chosen: usize,
) -> (f64, f64) {
    let by_distance = || -> Vec<f64> {
        clusters
            .iter()
            .map(|c| -expected_sq_distance(p, &c.ecf))
            .collect()
    };
    let scores = match similarity {
        SimilarityMode::ExpectedDistance => by_distance(),
        SimilarityMode::DimensionCounting { thresh } => {
            let mut global = GlobalVariance::new(p.dims());
            global.restore_variances(variances);
            let sims: Vec<f64> = clusters
                .iter()
                .map(|c| dimension_counting_similarity(p, &c.ecf, &global, thresh))
                .collect();
            if global.is_informative() && sims.iter().any(|s| *s > 0.0) {
                sims
            } else {
                by_distance()
            }
        }
    };
    let best = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (best, scores[chosen])
}

/// splitmix64 → uniform f64 in `[0, 1)`: deterministic matrix data from a
/// proptest-drawn seed without deep tuple-strategy nesting.
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn fill(state: &mut u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| lo + (hi - lo) * unit(state)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// UMicro: after a random stream through a tight budget (forcing
    /// retirements), every kernel distance and the kernel-ranked nearest
    /// cluster agree with the scalar Lemma 2.2 evaluation.
    #[test]
    fn umicro_kernel_matches_scalar(
        stream in arb_points(4, 40),
        probes in arb_points(1, 6),
    ) {
        let mut alg = UMicro::new(UMicroConfig::new(4, DIMS).unwrap());
        for p in &stream {
            alg.insert(p);
        }
        let kernel = alg.kernel_synced().clone();
        let clusters = alg.micro_clusters();
        prop_assert_eq!(kernel.len(), clusters.len());
        for probe in &probes {
            let scalar: Vec<f64> = clusters
                .iter()
                .map(|c| expected_sq_distance(probe, &c.ecf))
                .collect();
            for (i, &s) in scalar.iter().enumerate() {
                let k = kernel.expected_sq_distance(probe.values(), probe.errors(), i);
                prop_assert!(close(k, s), "cluster {i}: kernel {k} vs scalar {s}");
            }
            let (idx, kd) = kernel
                .nearest_expected(probe.values(), probe.errors())
                .expect("non-empty cluster set");
            let min_scalar = scalar.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert!(close(kd, min_scalar),
                "nearest distance: kernel {kd} vs scalar min {min_scalar}");
            prop_assert!(close(scalar[idx], min_scalar),
                "kernel picked cluster {idx} at scalar {} but min is {min_scalar}",
                scalar[idx]);
        }
    }

    /// Step-wise oracle: at every post-bootstrap insertion that absorbs,
    /// the cluster the kernel chose must score within `REL_TOL` of the
    /// best cluster under the paper's own formulas, in both similarity
    /// modes.
    #[test]
    fn umicro_absorbs_into_oracle_best(
        stream in arb_points(4, 60),
        similarity in arb_similarity(),
    ) {
        let mut cfg = UMicroConfig::new(4, DIMS).unwrap();
        cfg.similarity = similarity;
        // Refresh often, so dimension counting ranks most of the stream.
        cfg.variance_refresh_interval = 5;
        let mut alg = UMicro::new(cfg);
        for p in &stream {
            let before = alg.micro_clusters().to_vec();
            let out = alg.insert(p);
            if out.created {
                continue;
            }
            let chosen = before
                .iter()
                .position(|c| c.id == out.cluster_id)
                .expect("absorbed into a live cluster");
            // `insert` refreshes the global variances before it ranks, so
            // the ones it ranked with are readable afterwards.
            let (best, got) =
                oracle_scores(similarity, &before, alg.global_variances(), p, chosen);
            prop_assert!(close(got, best),
                "t={}: kernel chose cluster {chosen} scoring {got}, oracle best {best}",
                p.timestamp());
        }
    }

    /// Batched insertion must follow the exact same trajectory as the
    /// per-point loop.
    #[test]
    fn umicro_batch_matches_loop(stream in arb_points(4, 40)) {
        let mut looped = UMicro::new(UMicroConfig::new(4, DIMS).unwrap());
        let mut batched = UMicro::new(UMicroConfig::new(4, DIMS).unwrap());
        let loop_out: Vec<_> = stream.iter().map(|p| looped.insert(p)).collect();
        let mut batch_out = Vec::new();
        batched.insert_batch(&stream, &mut batch_out);
        prop_assert_eq!(loop_out, batch_out);
        prop_assert_eq!(looped.micro_clusters().len(), batched.micro_clusters().len());
    }

    /// DecayedUMicro: a mid-stream `synchronize` rescales every cluster and
    /// marks the kernel stale; after the rebuild the kernel must still match
    /// the scalar distances over the decayed statistics.
    #[test]
    fn decayed_kernel_matches_scalar_after_synchronize(
        head in arb_points(3, 20),
        tail in arb_points(3, 20),
        probes in arb_points(1, 5),
    ) {
        let mut alg = DecayedUMicro::with_half_life(UMicroConfig::new(4, DIMS).unwrap(), 300.0);
        for p in &head {
            alg.insert(p);
        }
        let mid = head.iter().map(|p| p.timestamp()).max().unwrap_or(0) + 50;
        alg.synchronize(mid);
        for p in &tail {
            alg.insert(p);
        }
        let kernel = alg.kernel_synced().clone();
        let clusters = alg.micro_clusters();
        prop_assert_eq!(kernel.len(), clusters.len());
        for probe in &probes {
            for (i, c) in clusters.iter().enumerate() {
                let s = expected_sq_distance(probe, &c.ecf);
                let k = kernel.expected_sq_distance(probe.values(), probe.errors(), i);
                prop_assert!(close(k, s), "cluster {i}: kernel {k} vs scalar {s}");
            }
            if let Some((idx, kd)) = kernel.nearest_expected(probe.values(), probe.errors()) {
                let scalar: Vec<f64> = clusters
                    .iter()
                    .map(|c| expected_sq_distance(probe, &c.ecf))
                    .collect();
                let min_scalar = scalar.iter().cloned().fold(f64::INFINITY, f64::min);
                prop_assert!(close(kd, min_scalar));
                prop_assert!(close(scalar[idx], min_scalar));
            }
        }
    }

    /// CluStream: the deterministic geometry (zero noise rows) must agree
    /// with the scalar centroid distance after budget-driven merges and
    /// deletions.
    #[test]
    fn clustream_kernel_matches_scalar(
        stream in arb_points(6, 50),
        probes in arb_points(1, 6),
    ) {
        let mut alg = CluStream::new(CluStreamConfig::new(4, DIMS).unwrap());
        for p in &stream {
            alg.insert(p);
        }
        let kernel = alg.kernel_synced().clone();
        let clusters = alg.micro_clusters();
        prop_assert_eq!(kernel.len(), clusters.len());
        for probe in &probes {
            let scalar: Vec<f64> = clusters
                .iter()
                .map(|c| c.cf.sq_distance_to(probe.values()))
                .collect();
            for (i, &s) in scalar.iter().enumerate() {
                // Deterministic rows publish zero noise, so the expected
                // distance with zero probe error is the plain Euclidean one.
                let k = kernel.expected_sq_distance(probe.values(), &[0.0; DIMS], i);
                prop_assert!(close(k, s), "cluster {i}: kernel {k} vs scalar {s}");
            }
            let (idx, kd) = kernel
                .nearest_deterministic(probe.values())
                .expect("non-empty cluster set");
            let min_scalar = scalar.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert!(close(kd, min_scalar),
                "nearest distance: kernel {kd} vs scalar min {min_scalar}");
            prop_assert!(close(scalar[idx], min_scalar));
        }
    }

    /// Every compiled-and-available SIMD backend produces the *bitwise*
    /// identical dot product as the canonical scalar reduction on lengths
    /// straddling every lane width (tails of 1–3 elements included).
    #[test]
    fn dot_bitwise_identical_across_backends(n in 1usize..20, seed in 0u64..u64::MAX) {
        let mut s = seed;
        let a = fill(&mut s, n, -1e6, 1e6);
        let b = fill(&mut s, n, -1e6, 1e6);
        let want = simd::dot_with(Backend::Scalar, &a, &b).to_bits();
        for backend in compiled_available() {
            let got = simd::dot_with(backend, &a, &b).to_bits();
            prop_assert_eq!(got, want, "backend {}", backend.name());
        }
    }

    /// Every backend agrees bitwise with scalar on both halves of the
    /// fused sweep — winner indices AND winner scores — over awkward
    /// dimensionalities, with every third similarity coefficient forced
    /// infinite (the dead-dimension sentinel the sweep must skip).
    #[test]
    fn rank_bitwise_identical_across_backends(
        dims in arb_awkward_dims(),
        rows in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let mut s = seed;
        let centroids = fill(&mut s, dims * rows, -100.0, 100.0);
        let noise = fill(&mut s, dims * rows, 0.0, 10.0);
        let sm = fill(&mut s, rows, -50.0, 5000.0);
        let x = fill(&mut s, dims, -100.0, 100.0);
        let errs = fill(&mut s, dims, 0.1, 10.0);
        let inv: Vec<f64> = fill(&mut s, dims, 0.5, 50.0).iter().enumerate()
            .map(|(j, &v)| if j % 3 == 2 { f64::INFINITY } else { v })
            .collect();
        let want_min = simd::rank_min_score_with(Backend::Scalar, &centroids, &sm, dims, &x);
        let want_fused =
            simd::rank_fused_with(Backend::Scalar, &centroids, &noise, dims, &x, &errs, &inv);
        for backend in compiled_available() {
            let got = simd::rank_min_score_with(backend, &centroids, &sm, dims, &x);
            prop_assert_eq!(got.0, want_min.0, "rank_min idx on {}", backend.name());
            prop_assert_eq!(got.1.to_bits(), want_min.1.to_bits(),
                "rank_min score on {}", backend.name());
            let gf =
                simd::rank_fused_with(backend, &centroids, &noise, dims, &x, &errs, &inv);
            prop_assert_eq!(gf.dist_idx, want_fused.dist_idx, "dist idx on {}", backend.name());
            prop_assert_eq!(gf.dist_score.to_bits(), want_fused.dist_score.to_bits(),
                "dist score on {}", backend.name());
            prop_assert_eq!(gf.sim_idx, want_fused.sim_idx, "sim idx on {}", backend.name());
            prop_assert_eq!(gf.sim.to_bits(), want_fused.sim.to_bits(),
                "sim on {}", backend.name());
        }
    }

    /// NaN-poisoned centroid rows must never win the ranking, and every
    /// backend must agree bitwise on what does win despite the poison.
    #[test]
    fn nan_rows_never_win_and_backends_agree(
        dims in arb_awkward_dims(),
        rows in 2usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let mut s = seed;
        let mut centroids = fill(&mut s, dims * rows, -100.0, 100.0);
        let noise = fill(&mut s, dims * rows, 0.0, 10.0);
        let sm = fill(&mut s, rows, -50.0, 5000.0);
        let x = fill(&mut s, dims, -100.0, 100.0);
        let errs = fill(&mut s, dims, 0.1, 10.0);
        let inv = fill(&mut s, dims, 0.5, 50.0);
        let poison = (seed as usize) % rows;
        for v in &mut centroids[poison * dims..(poison + 1) * dims] {
            *v = f64::NAN;
        }
        let want = simd::rank_min_score_with(Backend::Scalar, &centroids, &sm, dims, &x);
        // rows >= 2, so some finite row exists and the NaN row cannot win.
        prop_assert!(rows < 2 || want.0 != poison || want.1.is_finite());
        let want_fused =
            simd::rank_fused_with(Backend::Scalar, &centroids, &noise, dims, &x, &errs, &inv);
        for backend in compiled_available() {
            let got = simd::rank_min_score_with(backend, &centroids, &sm, dims, &x);
            prop_assert_eq!(got.0, want.0, "rank_min idx on {}", backend.name());
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits(),
                "rank_min score on {}", backend.name());
            let gf =
                simd::rank_fused_with(backend, &centroids, &noise, dims, &x, &errs, &inv);
            prop_assert_eq!(gf.dist_idx, want_fused.dist_idx, "dist idx on {}", backend.name());
            prop_assert_eq!(gf.sim_idx, want_fused.sim_idx, "sim idx on {}", backend.name());
        }
    }

    /// CluStream twin of the step-wise oracle: every absorbing insertion
    /// lands in a cluster whose centroid is, within `REL_TOL`, the
    /// nearest by plain squared Euclidean distance.
    #[test]
    fn clustream_absorbs_into_oracle_nearest(stream in arb_points(6, 50)) {
        let mut alg = CluStream::new(CluStreamConfig::new(4, DIMS).unwrap());
        for p in &stream {
            let before = alg.micro_clusters().to_vec();
            let out = alg.insert(p);
            if out.created {
                continue;
            }
            let dist: Vec<f64> = before
                .iter()
                .map(|c| c.cf.sq_distance_to(p.values()))
                .collect();
            let chosen = before
                .iter()
                .position(|c| c.id == out.cluster_id)
                .expect("absorbed into a live cluster");
            let best = dist.iter().copied().fold(f64::INFINITY, f64::min);
            prop_assert!(close(dist[chosen], best),
                "t={}: kernel chose cluster {chosen} at {}, oracle nearest {best}",
                p.timestamp(), dist[chosen]);
        }
    }

    /// CluStream batched insertion follows the per-point trajectory exactly.
    #[test]
    fn clustream_batch_matches_loop(stream in arb_points(6, 50)) {
        let mut looped = CluStream::new(CluStreamConfig::new(4, DIMS).unwrap());
        let mut batched = CluStream::new(CluStreamConfig::new(4, DIMS).unwrap());
        let loop_out: Vec<_> = stream.iter().map(|p| looped.insert(p)).collect();
        let mut batch_out = Vec::new();
        batched.insert_batch(&stream, &mut batch_out);
        prop_assert_eq!(loop_out, batch_out);
        prop_assert_eq!(looped.micro_clusters().len(), batched.micro_clusters().len());
    }
}
