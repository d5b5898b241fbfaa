//! Property-based parity tests for the SoA distance kernel: the packed
//! kernel must rank the same nearest cluster and report the same distances
//! as the paper's formulas (`distance::expected_sq_distance`,
//! `similarity::dimension_counting_similarity`), within 1e-9 relative,
//! across random streams for UMicro, DecayedUMicro and CluStream —
//! including after budget-driven merges and retirements, after decay
//! synchronisation marks the kernel stale, and at every absorbing
//! insertion of a stream. Every SIMD backend must match the scalar
//! backend bit for bit. The novelty isolation each clusterer serves from
//! its kernel's corrected sweep must match the minimum of
//! `distance::corrected_sq_distance` (plain squared Euclidean distance for
//! CluStream) before every insertion and right after the kernel goes
//! stale.

use clustream::{CluStream, CluStreamConfig};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use umicro::distance::{corrected_sq_distance, expected_sq_distance};
use umicro::kernel::simd::{self, Backend};
use umicro::kernel::{ClusterKernel, KernelRow};
use umicro::similarity::{dimension_counting_similarity, GlobalVariance};
use umicro::{DecayedUMicro, MicroCluster, SimilarityMode, UMicro, UMicroConfig};
use ustream_common::point::sq_euclidean;
use ustream_common::{AdditiveFeature, UncertainPoint};

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

/// A seeded stream over `dims` dimensions: values in `[-100, 100)`,
/// errors in `[0, 10)`, timestamps `first, first + 1, …`.
fn seeded_stream(dims: usize, n: usize, seed: u64, first: u64) -> Vec<UncertainPoint> {
    let mut s = seed;
    (0..n as u64)
        .map(|t| {
            let values = fill(&mut s, dims, -100.0, 100.0);
            let errors = fill(&mut s, dims, 0.0, 10.0);
            UncertainPoint::new(values, errors, first + t, None)
        })
        .collect()
}

/// Isolation by the paper's formula alone: the square root of the
/// minimum error-corrected squared distance over `clusters`, `None` when
/// no cluster is finitely near.
fn oracle_isolation(p: &UncertainPoint, clusters: &[MicroCluster]) -> Option<f64> {
    let best = clusters
        .iter()
        .map(|c| corrected_sq_distance(p, &c.ecf))
        .fold(f64::INFINITY, f64::min);
    best.is_finite().then(|| best.sqrt())
}

fn close_opt(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => close(a, b),
        (None, None) => true,
        _ => false,
    }
}

/// A raw kernel row, for feeding hand-built (poisoned) rows to a kernel.
struct RawRow {
    centroid: Vec<f64>,
    noise: Vec<f64>,
}

impl KernelRow for RawRow {
    fn write_row(&self, centroid: &mut [f64], noise: &mut [f64]) {
        centroid.copy_from_slice(&self.centroid);
        noise.copy_from_slice(&self.noise);
    }

    fn radii(&self) -> (f64, f64) {
        (0.0, 0.0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// UMicro: before every insertion of a stream over an awkward
    /// dimensionality the kernel-served isolation matches the oracle, and
    /// so does a fresh instance probed right after `import_state` (stale
    /// kernel, rebuilt by the isolation call itself).
    #[test]
    fn umicro_isolation_matches_oracle(
        dims in arb_awkward_dims(),
        n in 2usize..50,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = UMicroConfig::new(4, dims).unwrap();
        let mut alg = UMicro::new(cfg.clone());
        for p in &seeded_stream(dims, n, seed, 1) {
            let want = oracle_isolation(p, alg.micro_clusters());
            let got = alg.isolation(p);
            prop_assert!(close_opt(got, want), "t={}: kernel {got:?} vs oracle {want:?}",
                p.timestamp());
            alg.insert(p);
        }
        let mut restored = UMicro::new(cfg);
        restored.import_state(&alg.export_state()).unwrap();
        for p in &seeded_stream(dims, 4, seed ^ 0x5eed, n as u64 + 1) {
            let want = oracle_isolation(p, restored.micro_clusters());
            let got = restored.isolation(p);
            prop_assert!(close_opt(got, want), "after import: kernel {got:?} vs oracle {want:?}");
            restored.insert(p);
        }
    }

    /// DecayedUMicro: `synchronize` rescales every cluster behind the
    /// kernel's back; the isolation right after it, at every later
    /// insertion, and after `import_state` still matches the oracle over
    /// the statistics as stored.
    #[test]
    fn decayed_isolation_matches_oracle_after_synchronize(
        dims in arb_awkward_dims(),
        seed in 0u64..u64::MAX,
    ) {
        let cfg = UMicroConfig::new(4, dims).unwrap();
        let mut alg = DecayedUMicro::with_half_life(cfg.clone(), 300.0);
        for p in &seeded_stream(dims, 12, seed, 1) {
            alg.insert(p);
        }
        alg.synchronize(80);
        for p in &seeded_stream(dims, 12, seed ^ 0xd3ca, 81) {
            let want = oracle_isolation(p, alg.micro_clusters());
            let got = alg.isolation(p);
            prop_assert!(close_opt(got, want), "t={}: kernel {got:?} vs oracle {want:?}",
                p.timestamp());
            alg.insert(p);
        }
        let mut restored = DecayedUMicro::with_half_life(cfg, 300.0);
        restored.import_state(&alg.export_state()).unwrap();
        for p in &seeded_stream(dims, 3, seed ^ 0x5eed, 100) {
            let want = oracle_isolation(p, restored.micro_clusters());
            let got = restored.isolation(p);
            prop_assert!(close_opt(got, want), "after import: kernel {got:?} vs oracle {want:?}");
        }
    }

    /// CluStream: the corrected sweep with a zero error row is plain
    /// Euclidean isolation, before every insertion and right after k-means
    /// seeding leaves the kernel stale.
    #[test]
    fn clustream_isolation_matches_oracle(
        dims in arb_awkward_dims(),
        n in 2usize..50,
        seed in 0u64..u64::MAX,
    ) {
        let oracle = |p: &UncertainPoint, alg: &CluStream| {
            let best = alg
                .micro_clusters()
                .iter()
                .map(|c| sq_euclidean(p.values(), &c.cf.centroid()))
                .fold(f64::INFINITY, f64::min);
            best.is_finite().then(|| best.sqrt())
        };
        let stream = seeded_stream(dims, n, seed, 1);
        let mut alg = CluStream::new(CluStreamConfig::new(4, dims).unwrap());
        for p in &stream {
            let want = oracle(p, &alg);
            let got = alg.isolation(p);
            prop_assert!(close_opt(got, want), "t={}: kernel {got:?} vs oracle {want:?}",
                p.timestamp());
            alg.insert(p);
        }
        let mut seeded = CluStream::new(CluStreamConfig::new(4, dims).unwrap());
        seeded.seed_with_kmeans(&stream, seed);
        for p in &seeded_stream(dims, 3, seed ^ 0x5eed, n as u64 + 1) {
            let want = oracle(p, &seeded);
            let got = seeded.isolation(p);
            prop_assert!(close_opt(got, want), "after seeding: kernel {got:?} vs oracle {want:?}");
        }
    }

    /// Every backend's corrected sweep is bitwise identical to scalar
    /// over awkward dimensionalities.
    #[test]
    fn rank_corrected_bitwise_identical_across_backends(
        dims in arb_awkward_dims(),
        rows in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let mut s = seed;
        let centroids = fill(&mut s, dims * rows, -100.0, 100.0);
        let noise = fill(&mut s, dims * rows, 0.0, 10.0);
        let x = fill(&mut s, dims, -100.0, 100.0);
        let errs = fill(&mut s, dims, 0.0, 10.0);
        let want = simd::rank_corrected_with(Backend::Scalar, &centroids, &noise, dims, &x, &errs);
        for backend in compiled_available() {
            let got = simd::rank_corrected_with(backend, &centroids, &noise, dims, &x, &errs);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "backend {}", backend.name());
        }
    }

    /// A row whose term overflows to NaN (a squared deviation and a
    /// centroid-noise entry both overflowing to +∞) never wins the
    /// corrected sweep on any backend, and a kernel whose every row is so
    /// poisoned reports no isolation at all.
    #[test]
    fn corrected_nan_rows_never_win(
        dims in arb_awkward_dims(),
        rows in 2usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let mut s = seed;
        let mut centroids = fill(&mut s, dims * rows, -100.0, 100.0);
        let mut noise = fill(&mut s, dims * rows, 0.0, 10.0);
        let x = fill(&mut s, dims, -100.0, 100.0);
        let errs = fill(&mut s, dims, 0.0, 10.0);
        let huge = 1e300;
        let poison = |centroids: &mut [f64], noise: &mut [f64], row: usize| {
            let j = row * dims + (seed as usize) % dims;
            centroids[j] = huge;
            noise[j] = huge * huge;
        };
        let victim = (seed as usize) % rows;
        // The healthy rows' minimum, from the scalar reference.
        let mut healthy = f64::INFINITY;
        for i in (0..rows).filter(|&i| i != victim) {
            let r = i * dims..(i + 1) * dims;
            healthy = healthy.min(simd::rank_corrected_with(
                Backend::Scalar, &centroids[r.clone()], &noise[r], dims, &x, &errs));
        }
        poison(&mut centroids, &mut noise, victim);
        for backend in compiled_available() {
            let got = simd::rank_corrected_with(backend, &centroids, &noise, dims, &x, &errs);
            prop_assert_eq!(got.to_bits(), healthy.to_bits(), "backend {}", backend.name());
        }
        for i in 0..rows {
            poison(&mut centroids, &mut noise, i);
        }
        let mut kernel = ClusterKernel::new(dims);
        for i in 0..rows {
            kernel.push(&RawRow {
                centroid: centroids[i * dims..(i + 1) * dims].to_vec(),
                noise: noise[i * dims..(i + 1) * dims].to_vec(),
            });
        }
        prop_assert_eq!(kernel.nearest_corrected_sq(&x, &errs), None);
        for backend in compiled_available() {
            let got = simd::rank_corrected_with(backend, &centroids, &noise, dims, &x, &errs);
            prop_assert_eq!(got, f64::INFINITY, "backend {}", backend.name());
        }
    }

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
