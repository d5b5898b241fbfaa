//! Explicit SIMD backends for the [`ClusterKernel`](super::ClusterKernel)
//! hot path, behind one safe runtime-dispatch point.
//!
//! # Backend matrix
//!
//! | Backend    | Compiled on        | Selected when                         |
//! |------------|--------------------|---------------------------------------|
//! | `Scalar`   | everywhere         | forced, or no wider unit detected     |
//! | `Avx2`     | `x86_64`           | `is_x86_feature_detected!("avx2")`    |
//! | `Avx512`   | `x86_64`           | `avx512f` (+`avx2` for odd rows)      |
//! | `Neon`     | `aarch64`          | always (NEON is baseline on aarch64)  |
//!
//! # The canonical reduction contract
//!
//! Every backend — scalar included — computes dot products and
//! dimension-counting credits with the *same* floating-point operation
//! sequence, so results are **bitwise identical** across backends:
//!
//! * four independent accumulator lanes; chunk element `j` feeds lane
//!   `j % 4` as `lane += a[j] * b[j]` (separate mul then add — never FMA,
//!   which would change rounding);
//! * tail elements (length not divisible by 4) feed the same
//!   `j % 4` lane they would have occupied in a full chunk;
//! * the final reduction is `(l0 + l1) + (l2 + l3)`.
//!
//! AVX2 maps the four lanes onto one `__m256d`. AVX-512 processes *two
//! cluster rows per `__m512d`* (row `i` in lanes 0–3, row `i+1` in lanes
//! 4–7) so each row still reduces over exactly four canonical lanes.
//! NEON uses two `float64x2_t` halves.
//!
//! Similarity credits clamp with `max(credit, 0.0)` where a NaN credit
//! (skipped dimension: `0 · ∞`) must clamp to `0`. `f64::max`,
//! `_mm256_max_pd`/`_mm512_max_pd` (NaN in the first operand returns the
//! second) and NEON `vmaxnmq_f64` (IEEE maxNum) all agree on that.
//!
//! The error-corrected isolation sweep ([`rank_corrected`]) must not
//! clamp a poisoned term to zero: each backend compares `t > −∞` (false
//! for NaN and `−∞`) and blends `+∞` into those lanes
//! (`_mm256_blendv_pd`, `_mm512_mask_blend_pd`, `vbslq_f64`), exactly
//! the scalar branch, so a poisoned row sums to `+∞` on every backend.
//!
//! # Dispatch
//!
//! [`active`] resolves the backend once (env override
//! [`BACKEND_ENV`], else CPU feature detection) and caches it in an
//! atomic; [`force`] overrides it process-wide (tests and benches). The
//! `_with` variants take an explicit backend and never touch the global
//! — parity tests use those. Calling a `_with` function with a backend
//! that is not compiled in or whose CPU features are absent falls back
//! to the scalar path rather than executing unsupported instructions, so
//! every entry point stays safe.
//!
//! This is the single workspace module sanctioned to contain `unsafe`
//! (the workspace otherwise denies `unsafe_code`); every `unsafe` site
//! carries a `// SAFETY:` justification, enforced by the `safety-comment`
//! ustream-lint rule.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable consulted on first dispatch: `scalar`, `avx2`,
/// `avx512`, `neon`, or `auto` (detect). Unknown values and unavailable
/// backends degrade to `scalar`, never to UB.
pub const BACKEND_ENV: &str = "USTREAM_KERNEL_BACKEND";

/// A kernel compute backend. All backends produce bitwise-identical
/// results (see the module docs for the canonical reduction contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Backend {
    /// Canonical four-accumulator scalar Rust; the always-correct
    /// fallback and the parity reference for every other backend.
    Scalar = 1,
    /// `std::arch` AVX2 intrinsics, 4 × f64 per register.
    Avx2 = 2,
    /// `std::arch` AVX-512F intrinsics, two cluster rows per register
    /// (each row keeps its own four canonical lanes).
    Avx512 = 3,
    /// `std::arch` NEON intrinsics (aarch64), 2 × 2 × f64 per row sweep.
    Neon = 4,
}

#[cfg(target_arch = "x86_64")]
const COMPILED: &[Backend] = &[Backend::Scalar, Backend::Avx2, Backend::Avx512];
#[cfg(target_arch = "aarch64")]
const COMPILED: &[Backend] = &[Backend::Scalar, Backend::Neon];
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
const COMPILED: &[Backend] = &[Backend::Scalar];

impl Backend {
    /// Stable lower-case name, also accepted by [`Backend::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }

    /// Parses a backend name (case-insensitive). Returns `None` for
    /// unknown names, including `auto` — callers decide what detection
    /// means in their context.
    pub fn parse(s: &str) -> Option<Backend> {
        let s = s.trim();
        [
            Backend::Scalar,
            Backend::Avx2,
            Backend::Avx512,
            Backend::Neon,
        ]
        .into_iter()
        .find(|b| s.eq_ignore_ascii_case(b.name()))
    }

    /// Whether this backend is both compiled into the binary and
    /// supported by the running CPU.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                // The odd-row helper and `dot` use AVX2 registers, so
                // the 512-bit backend requires both feature bits.
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2")
            }
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => true,
            #[cfg(not(all(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
        }
    }

    /// All backends compiled into this binary (availability still
    /// depends on the running CPU — see [`Backend::available`]).
    pub fn compiled() -> &'static [Backend] {
        COMPILED
    }

    fn from_u8(v: u8) -> Backend {
        match v {
            2 => Backend::Avx2,
            3 => Backend::Avx512,
            4 => Backend::Neon,
            _ => Backend::Scalar,
        }
    }
}

/// Best rows found by the fused expected-distance + dimension-counting
/// sweep ([`rank_fused`]): both rankings from one pass over the
/// centroid and error-moment matrices.
#[derive(Clone, Copy, Debug)]
pub struct FusedBest {
    /// Row with the lowest exact expected squared distance (lowest
    /// index wins ties; NaN scores never win).
    pub dist_idx: usize,
    /// Exact expected squared distance `E[‖X − Zᵢ‖²]` of `dist_idx`:
    /// `Σⱼ (xⱼ−cⱼ)² + ψⱼ(x)² + eᵢⱼ` — the per-dimension `v` terms the
    /// similarity credit already computes, summed (Lemma 2.2).
    /// `INFINITY` when the kernel is empty or every score is NaN.
    pub dist_score: f64,
    /// Row with the highest dimension-counting similarity credit
    /// (lowest index wins ties; NaN credits never win).
    pub sim_idx: usize,
    /// Similarity credit of `sim_idx` (`NEG_INFINITY` when empty).
    pub sim: f64,
}

impl FusedBest {
    fn empty() -> FusedBest {
        FusedBest {
            dist_idx: 0,
            dist_score: f64::INFINITY,
            sim_idx: 0,
            sim: f64::NEG_INFINITY,
        }
    }
}

// == Dispatch ===========================================================

/// The resolved backend, cached process-wide. `0` means "not yet
/// resolved"; any other value is a `Backend` discriminant.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// Returns the live backend, resolving it on first call from
/// [`BACKEND_ENV`] and CPU feature detection and caching the result.
pub fn active() -> Backend {
    let v = ACTIVE.load(Ordering::Acquire);
    if v != 0 {
        return Backend::from_u8(v);
    }
    let b = resolve();
    ACTIVE.store(b as u8, Ordering::Release);
    b
}

/// Overrides the cached dispatch decision process-wide and returns what
/// is now live. `Some(backend)` forces that backend (an unavailable one
/// degrades to `Scalar`); `None` re-resolves from the environment and
/// CPU detection. Used by tests and benches.
pub fn force(choice: Option<Backend>) -> Backend {
    let b = match choice {
        Some(b) if b.available() => b,
        Some(_) => Backend::Scalar,
        None => resolve(),
    };
    ACTIVE.store(b as u8, Ordering::Release);
    b
}

fn resolve() -> Backend {
    if let Ok(raw) = std::env::var(BACKEND_ENV) {
        let raw = raw.trim();
        if !raw.is_empty() && !raw.eq_ignore_ascii_case("auto") {
            match Backend::parse(raw) {
                Some(b) if b.available() => return b,
                // Unknown or unavailable requests degrade to the
                // always-correct path instead of guessing.
                Some(_) | None => return Backend::Scalar,
            }
        }
    }
    detect()
}

/// Feature-detects the widest available backend for this machine,
/// ignoring the environment override and the cached decision.
#[cfg(target_arch = "x86_64")]
pub fn detect() -> Backend {
    if Backend::Avx512.available() {
        Backend::Avx512
    } else if Backend::Avx2.available() {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

/// Feature-detects the widest available backend for this machine,
/// ignoring the environment override and the cached decision.
#[cfg(target_arch = "aarch64")]
pub fn detect() -> Backend {
    Backend::Neon
}

/// Feature-detects the widest available backend for this machine,
/// ignoring the environment override and the cached decision.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub fn detect() -> Backend {
    Backend::Scalar
}

// == Public entry points ================================================

/// Dot product `⟨a, b⟩` on the [`active`] backend.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dot_with(active(), a, b)
}

/// Dot product on an explicit backend. All backends are bitwise
/// identical; an uncompiled/unavailable backend runs the scalar path.
pub fn dot_with(backend: Backend, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot operand length mismatch");
    match backend {
        #[cfg(target_arch = "x86_64")]
        // AVX-512 reuses the AVX2 dot: a single vector pair has only
        // four canonical lanes, so a 512-bit register cannot help.
        Backend::Avx2 | Backend::Avx512 if backend.available() => {
            // SAFETY: the guard above confirmed the CPU supports the
            // feature set `dot_avx2` is compiled with.
            unsafe { x86::dot_avx2(a, b) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            // SAFETY: NEON is baseline on aarch64, and this arm only
            // compiles for aarch64 targets.
            unsafe { neon::dot_neon(a, b) }
        }
        _ => scalar::dot(a, b),
    }
}

/// Expected-distance ranking sweep on the [`active`] backend: returns
/// `(row, score)` minimizing `self_moment[i] − 2·⟨x, cᵢ⟩` (strictly
/// decreasing scan, so the lowest index wins ties and NaN scores never
/// win). An empty kernel returns `(0, INFINITY)`.
pub fn rank_min_score(
    centroids: &[f64],
    self_moment: &[f64],
    dims: usize,
    x: &[f64],
) -> (usize, f64) {
    rank_min_score_with(active(), centroids, self_moment, dims, x)
}

/// [`rank_min_score`] on an explicit backend.
pub fn rank_min_score_with(
    backend: Backend,
    centroids: &[f64],
    self_moment: &[f64],
    dims: usize,
    x: &[f64],
) -> (usize, f64) {
    assert_eq!(x.len(), dims, "point dimensionality mismatch");
    assert_eq!(
        centroids.len(),
        self_moment.len() * dims,
        "centroid matrix shape mismatch"
    );
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if backend.available() => {
            // SAFETY: the guard above confirmed AVX2 support.
            unsafe { x86::rank_min_avx2(centroids, self_moment, dims, x) }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if backend.available() => {
            // SAFETY: the guard above confirmed AVX-512F + AVX2 support.
            unsafe { x86::rank_min_avx512(centroids, self_moment, dims, x) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            // SAFETY: NEON is baseline on aarch64, and this arm only
            // compiles for aarch64 targets.
            unsafe { neon::rank_min_neon(centroids, self_moment, dims, x) }
        }
        _ => scalar::rank_min(centroids, self_moment, dims, x),
    }
}

/// Fused ranking sweep on the [`active`] backend: one pass over the
/// centroid and per-dimension error matrices yields both the
/// expected-distance argmin and the dimension-counting argmax (see
/// [`FusedBest`]). The distance ranking is a byproduct of the
/// similarity sweep: the per-dimension term `v = (x−c)² + ψ² + e`
/// that feeds the credit clamp sums to the exact expected squared
/// distance, so ranking costs one extra add per lane — no separate
/// dot product. `noise` is the kernel's per-row `EF2/W²` matrix,
/// `errs` the point's per-dimension errors, `inv` the cached
/// `1/(thresh·σ²)` coefficients (`INFINITY` marks skipped dimensions —
/// their credit clamps to zero).
pub fn rank_fused(
    centroids: &[f64],
    noise: &[f64],
    dims: usize,
    x: &[f64],
    errs: &[f64],
    inv: &[f64],
) -> FusedBest {
    rank_fused_with(active(), centroids, noise, dims, x, errs, inv)
}

/// [`rank_fused`] on an explicit backend.
#[allow(clippy::too_many_arguments)]
pub fn rank_fused_with(
    backend: Backend,
    centroids: &[f64],
    noise: &[f64],
    dims: usize,
    x: &[f64],
    errs: &[f64],
    inv: &[f64],
) -> FusedBest {
    assert_eq!(x.len(), dims, "point dimensionality mismatch");
    assert_eq!(errs.len(), dims, "error vector dimensionality mismatch");
    assert_eq!(
        inv.len(),
        dims,
        "coefficient vector dimensionality mismatch"
    );
    assert_eq!(noise.len(), centroids.len(), "noise matrix shape mismatch");
    if dims == 0 {
        return FusedBest::empty();
    }
    assert_eq!(centroids.len() % dims, 0, "centroid matrix shape mismatch");
    let rows = centroids.len() / dims;
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if backend.available() => {
            // SAFETY: the guard above confirmed AVX2 support.
            unsafe { x86::rank_fused_avx2(centroids, noise, rows, dims, x, errs, inv) }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if backend.available() => {
            // SAFETY: the guard above confirmed AVX-512F + AVX2 support.
            unsafe { x86::rank_fused_avx512(centroids, noise, rows, dims, x, errs, inv) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            // SAFETY: NEON is baseline on aarch64, and this arm only
            // compiles for aarch64 targets.
            unsafe { neon::rank_fused_neon(centroids, noise, rows, dims, x, errs, inv) }
        }
        _ => scalar::rank_fused(centroids, noise, rows, dims, x, errs, inv),
    }
}

/// Error-corrected isolation sweep on the [`active`] backend: the minimum
/// over rows of `Σⱼ max(0, ((xⱼ−cᵢⱼ)² − ψⱼ²) − eᵢⱼ)`, the clean-position
/// squared distance of
/// [`corrected_sq_distance`](crate::distance::corrected_sq_distance)
/// served from the kernel's cached centroid and `EF2/W²` rows — no
/// division. A NaN or `−∞` term (a non-finite coordinate, error or noise
/// entry) makes its row infinitely far instead of clamping to zero, so a
/// poisoned row never wins. Returns `INFINITY` for an empty matrix or when
/// every row is poisoned.
pub fn rank_corrected(
    centroids: &[f64],
    noise: &[f64],
    dims: usize,
    x: &[f64],
    errs: &[f64],
) -> f64 {
    rank_corrected_with(active(), centroids, noise, dims, x, errs)
}

/// [`rank_corrected`] on an explicit backend.
pub fn rank_corrected_with(
    backend: Backend,
    centroids: &[f64],
    noise: &[f64],
    dims: usize,
    x: &[f64],
    errs: &[f64],
) -> f64 {
    assert_eq!(x.len(), dims, "point dimensionality mismatch");
    assert_eq!(errs.len(), dims, "error vector dimensionality mismatch");
    assert_eq!(noise.len(), centroids.len(), "noise matrix shape mismatch");
    if dims == 0 {
        return f64::INFINITY;
    }
    assert_eq!(centroids.len() % dims, 0, "centroid matrix shape mismatch");
    let rows = centroids.len() / dims;
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if backend.available() => {
            // SAFETY: the guard above confirmed AVX2 support.
            unsafe { x86::rank_corrected_avx2(centroids, noise, rows, dims, x, errs) }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if backend.available() => {
            // SAFETY: the guard above confirmed AVX-512F + AVX2 support.
            unsafe { x86::rank_corrected_avx512(centroids, noise, rows, dims, x, errs) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            // SAFETY: NEON is baseline on aarch64, and this arm only
            // compiles for aarch64 targets.
            unsafe { neon::rank_corrected_neon(centroids, noise, rows, dims, x, errs) }
        }
        _ => scalar::rank_corrected(centroids, noise, rows, dims, x, errs),
    }
}

// == Scalar backend (the parity reference) ==============================

mod scalar {
    use super::FusedBest;

    /// Canonical four-lane dot product; every other backend must match
    /// this bitwise.
    pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
        let d = a.len();
        let chunks = d / 4;
        let (mut l0, mut l1, mut l2, mut l3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for i in 0..chunks {
            let j = 4 * i;
            l0 += a[j] * b[j];
            l1 += a[j + 1] * b[j + 1];
            l2 += a[j + 2] * b[j + 2];
            l3 += a[j + 3] * b[j + 3];
        }
        // Tail elements land in the lane they would occupy in a full
        // chunk (j % 4 ∈ {0, 1, 2} — a tail is at most 3 long).
        for j in 4 * chunks..d {
            let t = a[j] * b[j];
            match j % 4 {
                0 => l0 += t,
                1 => l1 += t,
                _ => l2 += t,
            }
        }
        (l0 + l1) + (l2 + l3)
    }

    pub(super) fn rank_min(centroids: &[f64], sm: &[f64], dims: usize, x: &[f64]) -> (usize, f64) {
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, m) in sm.iter().enumerate() {
            let row = &centroids[i * dims..i * dims + dims];
            let score = *m - 2.0 * dot(x, row);
            if score < best_score {
                best = i;
                best_score = score;
            }
        }
        (best, best_score)
    }

    /// Canonical fused row sweep: the per-dimension deviation moment
    /// `vⱼ = (xⱼ−cⱼ)² + ψⱼ² + eⱼ` feeds BOTH rankings — `Σⱼ vⱼ` *is* the
    /// exact expected squared distance (Lemma 2.2), and the clamped
    /// `1 − vⱼ/(t·σⱼ²)` is the dimension-counting credit — so the second
    /// ranking costs one extra add per lane, not a second dot product.
    pub(super) fn row_fused(
        c: &[f64],
        e: &[f64],
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> (f64, f64) {
        let d = x.len();
        let chunks = d / 4;
        let (mut d0, mut d1, mut d2, mut d3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for i in 0..chunks {
            let j = 4 * i;
            let f0 = x[j] - c[j];
            let f1 = x[j + 1] - c[j + 1];
            let f2 = x[j + 2] - c[j + 2];
            let f3 = x[j + 3] - c[j + 3];
            let v0 = (f0 * f0 + errs[j] * errs[j]) + e[j];
            let v1 = (f1 * f1 + errs[j + 1] * errs[j + 1]) + e[j + 1];
            let v2 = (f2 * f2 + errs[j + 2] * errs[j + 2]) + e[j + 2];
            let v3 = (f3 * f3 + errs[j + 3] * errs[j + 3]) + e[j + 3];
            d0 += v0;
            d1 += v1;
            d2 += v2;
            d3 += v3;
            s0 += (1.0 - v0 * inv[j]).max(0.0);
            s1 += (1.0 - v1 * inv[j + 1]).max(0.0);
            s2 += (1.0 - v2 * inv[j + 2]).max(0.0);
            s3 += (1.0 - v3 * inv[j + 3]).max(0.0);
        }
        for j in 4 * chunks..d {
            let f = x[j] - c[j];
            let v = (f * f + errs[j] * errs[j]) + e[j];
            let credit = (1.0 - v * inv[j]).max(0.0);
            match j % 4 {
                0 => {
                    d0 += v;
                    s0 += credit;
                }
                1 => {
                    d1 += v;
                    s1 += credit;
                }
                _ => {
                    d2 += v;
                    s2 += credit;
                }
            }
        }
        ((d0 + d1) + (d2 + d3), (s0 + s1) + (s2 + s3))
    }

    pub(super) fn rank_fused(
        centroids: &[f64],
        noise: &[f64],
        rows: usize,
        dims: usize,
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> FusedBest {
        let mut out = FusedBest::empty();
        for i in 0..rows {
            let row = &centroids[i * dims..i * dims + dims];
            let erow = &noise[i * dims..i * dims + dims];
            let (dist, sim) = row_fused(row, erow, x, errs, inv);
            if dist < out.dist_score {
                out.dist_idx = i;
                out.dist_score = dist;
            }
            if sim > out.sim {
                out.sim_idx = i;
                out.sim = sim;
            }
        }
        out
    }

    /// One dimension's error-corrected term: `max(0, t)` for
    /// `t = ((x−c)² − ψ²) − e`, or `+∞` when `t` is NaN or `−∞` (the
    /// poisoned-row rule every backend reproduces with a compare mask).
    #[inline]
    pub(super) fn corrected_term(x: f64, c: f64, err: f64, e: f64) -> f64 {
        let f = x - c;
        let t = (f * f - err * err) - e;
        if t > f64::NEG_INFINITY {
            t.max(0.0)
        } else {
            f64::INFINITY
        }
    }

    /// Canonical corrected row sweep: the four-lane sum of
    /// [`corrected_term`] over one row.
    pub(super) fn row_corrected(c: &[f64], e: &[f64], x: &[f64], errs: &[f64]) -> f64 {
        let mut l = [0.0f64; 4];
        for j in 0..x.len() {
            l[j % 4] += corrected_term(x[j], c[j], errs[j], e[j]);
        }
        let [l0, l1, l2, l3] = l;
        (l0 + l1) + (l2 + l3)
    }

    pub(super) fn rank_corrected(
        centroids: &[f64],
        noise: &[f64],
        rows: usize,
        dims: usize,
        x: &[f64],
        errs: &[f64],
    ) -> f64 {
        let mut best = f64::INFINITY;
        for i in 0..rows {
            let row = &centroids[i * dims..i * dims + dims];
            let erow = &noise[i * dims..i * dims + dims];
            best = best.min(row_corrected(row, erow, x, errs));
        }
        best
    }
}

// == AVX2 / AVX-512 backends ============================================

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m512d, _mm256_add_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_max_pd,
        _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
        _mm512_add_pd, _mm512_broadcast_f64x4, _mm512_castpd256_pd512, _mm512_cmp_pd_mask,
        _mm512_insertf64x4, _mm512_mask_blend_pd, _mm512_max_pd, _mm512_mul_pd, _mm512_set1_pd,
        _mm512_setzero_pd, _mm512_storeu_pd, _mm512_sub_pd, _CMP_GT_OQ,
    };

    use super::scalar::corrected_term;
    use super::FusedBest;

    // SAFETY: every function in this module is `unsafe fn` gated on
    // `#[target_feature]`; the dispatch arms in the parent module only
    // call them after `is_x86_feature_detected!` confirms support.

    // SAFETY: caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
        let d = a.len();
        let chunks = d / 4;
        let mut acc = _mm256_setzero_pd();
        for i in 0..chunks {
            let j = 4 * i;
            // In-bounds: j + 3 < 4 * chunks <= d.
            let va = _mm256_loadu_pd(a.as_ptr().add(j));
            let vb = _mm256_loadu_pd(b.as_ptr().add(j));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
        }
        let mut l = [0.0f64; 4];
        _mm256_storeu_pd(l.as_mut_ptr(), acc);
        for j in 4 * chunks..d {
            l[j % 4] += a[j] * b[j];
        }
        let [l0, l1, l2, l3] = l;
        (l0 + l1) + (l2 + l3)
    }

    // SAFETY: caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rank_min_avx2(
        centroids: &[f64],
        sm: &[f64],
        dims: usize,
        x: &[f64],
    ) -> (usize, f64) {
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, m) in sm.iter().enumerate() {
            let row = &centroids[i * dims..i * dims + dims];
            let score = *m - 2.0 * dot_avx2(x, row);
            if score < best_score {
                best = i;
                best_score = score;
            }
        }
        (best, best_score)
    }

    // SAFETY: caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    unsafe fn row_fused_avx2(
        c: &[f64],
        e: &[f64],
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> (f64, f64) {
        let d = x.len();
        let chunks = d / 4;
        let mut dacc = _mm256_setzero_pd();
        let mut sacc = _mm256_setzero_pd();
        let ones = _mm256_set1_pd(1.0);
        let zero = _mm256_setzero_pd();
        for i in 0..chunks {
            let j = 4 * i;
            // In-bounds: j + 3 < 4 * chunks <= d for all five slices
            // (the dispatcher asserted matching lengths).
            let vx = _mm256_loadu_pd(x.as_ptr().add(j));
            let vc = _mm256_loadu_pd(c.as_ptr().add(j));
            let verr = _mm256_loadu_pd(errs.as_ptr().add(j));
            let ve = _mm256_loadu_pd(e.as_ptr().add(j));
            let vinv = _mm256_loadu_pd(inv.as_ptr().add(j));
            let diff = _mm256_sub_pd(vx, vc);
            let vj = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(diff, diff), _mm256_mul_pd(verr, verr)),
                ve,
            );
            dacc = _mm256_add_pd(dacc, vj);
            // max_pd(NaN, 0) = 0, matching `f64::max` on skipped dims.
            let credit = _mm256_max_pd(_mm256_sub_pd(ones, _mm256_mul_pd(vj, vinv)), zero);
            sacc = _mm256_add_pd(sacc, credit);
        }
        let mut dl = [0.0f64; 4];
        let mut sl = [0.0f64; 4];
        _mm256_storeu_pd(dl.as_mut_ptr(), dacc);
        _mm256_storeu_pd(sl.as_mut_ptr(), sacc);
        for j in 4 * chunks..d {
            let f = x[j] - c[j];
            let v = (f * f + errs[j] * errs[j]) + e[j];
            dl[j % 4] += v;
            sl[j % 4] += (1.0 - v * inv[j]).max(0.0);
        }
        let [d0, d1, d2, d3] = dl;
        let [s0, s1, s2, s3] = sl;
        ((d0 + d1) + (d2 + d3), (s0 + s1) + (s2 + s3))
    }

    // SAFETY: caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rank_fused_avx2(
        centroids: &[f64],
        noise: &[f64],
        rows: usize,
        dims: usize,
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> FusedBest {
        let mut out = FusedBest::empty();
        for i in 0..rows {
            let row = &centroids[i * dims..i * dims + dims];
            let erow = &noise[i * dims..i * dims + dims];
            let (dist, sim) = row_fused_avx2(row, erow, x, errs, inv);
            if dist < out.dist_score {
                out.dist_idx = i;
                out.dist_score = dist;
            }
            if sim > out.sim {
                out.sim_idx = i;
                out.sim = sim;
            }
        }
        out
    }

    /// Packs two 256-bit row chunks into one zmm: row A in lanes 0–3,
    /// row B in lanes 4–7. Pure bit moves — no rounding.
    // SAFETY: caller must ensure AVX-512F is available.
    #[target_feature(enable = "avx512f")]
    unsafe fn pair(lo: std::arch::x86_64::__m256d, hi: std::arch::x86_64::__m256d) -> __m512d {
        _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(lo), hi)
    }

    // SAFETY: caller must ensure AVX-512F and AVX2 are available.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub(super) unsafe fn rank_min_avx512(
        centroids: &[f64],
        sm: &[f64],
        dims: usize,
        x: &[f64],
    ) -> (usize, f64) {
        let len = sm.len();
        let chunks = dims / 4;
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        let mut i = 0usize;
        while i + 1 < len {
            let ra = &centroids[i * dims..i * dims + dims];
            let rb = &centroids[(i + 1) * dims..(i + 1) * dims + dims];
            let mut acc = _mm512_setzero_pd();
            for k in 0..chunks {
                let j = 4 * k;
                // In-bounds: j + 3 < 4 * chunks <= dims.
                let vx = _mm512_broadcast_f64x4(_mm256_loadu_pd(x.as_ptr().add(j)));
                let vc = pair(
                    _mm256_loadu_pd(ra.as_ptr().add(j)),
                    _mm256_loadu_pd(rb.as_ptr().add(j)),
                );
                acc = _mm512_add_pd(acc, _mm512_mul_pd(vx, vc));
            }
            let mut l = [0.0f64; 8];
            _mm512_storeu_pd(l.as_mut_ptr(), acc);
            for j in 4 * chunks..dims {
                l[j % 4] += x[j] * ra[j];
                l[4 + j % 4] += x[j] * rb[j];
            }
            let [a0, a1, a2, a3, b0, b1, b2, b3] = l;
            let sa = sm[i] - 2.0 * ((a0 + a1) + (a2 + a3));
            if sa < best_score {
                best = i;
                best_score = sa;
            }
            let sb = sm[i + 1] - 2.0 * ((b0 + b1) + (b2 + b3));
            if sb < best_score {
                best = i + 1;
                best_score = sb;
            }
            i += 2;
        }
        if i < len {
            let row = &centroids[i * dims..i * dims + dims];
            let s = sm[i] - 2.0 * dot_avx2(x, row);
            if s < best_score {
                best = i;
                best_score = s;
            }
        }
        (best, best_score)
    }

    // SAFETY: caller must ensure AVX-512F and AVX2 are available.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub(super) unsafe fn rank_fused_avx512(
        centroids: &[f64],
        noise: &[f64],
        rows: usize,
        dims: usize,
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> FusedBest {
        let len = rows;
        let chunks = dims / 4;
        let mut out = FusedBest::empty();
        let ones = _mm512_set1_pd(1.0);
        let zero = _mm512_setzero_pd();
        let mut i = 0usize;
        while i + 1 < len {
            let ca = &centroids[i * dims..i * dims + dims];
            let cb = &centroids[(i + 1) * dims..(i + 1) * dims + dims];
            let ea = &noise[i * dims..i * dims + dims];
            let eb = &noise[(i + 1) * dims..(i + 1) * dims + dims];
            let mut dacc = _mm512_setzero_pd();
            let mut sacc = _mm512_setzero_pd();
            for k in 0..chunks {
                let j = 4 * k;
                // In-bounds: j + 3 < 4 * chunks <= dims everywhere.
                let vx = _mm512_broadcast_f64x4(_mm256_loadu_pd(x.as_ptr().add(j)));
                let verr = _mm512_broadcast_f64x4(_mm256_loadu_pd(errs.as_ptr().add(j)));
                let vinv = _mm512_broadcast_f64x4(_mm256_loadu_pd(inv.as_ptr().add(j)));
                let vc = pair(
                    _mm256_loadu_pd(ca.as_ptr().add(j)),
                    _mm256_loadu_pd(cb.as_ptr().add(j)),
                );
                let ve = pair(
                    _mm256_loadu_pd(ea.as_ptr().add(j)),
                    _mm256_loadu_pd(eb.as_ptr().add(j)),
                );
                let diff = _mm512_sub_pd(vx, vc);
                let vj = _mm512_add_pd(
                    _mm512_add_pd(_mm512_mul_pd(diff, diff), _mm512_mul_pd(verr, verr)),
                    ve,
                );
                dacc = _mm512_add_pd(dacc, vj);
                let credit = _mm512_max_pd(_mm512_sub_pd(ones, _mm512_mul_pd(vj, vinv)), zero);
                sacc = _mm512_add_pd(sacc, credit);
            }
            let mut dl = [0.0f64; 8];
            let mut sl = [0.0f64; 8];
            _mm512_storeu_pd(dl.as_mut_ptr(), dacc);
            _mm512_storeu_pd(sl.as_mut_ptr(), sacc);
            for j in 4 * chunks..dims {
                let fa = x[j] - ca[j];
                let fb = x[j] - cb[j];
                let ee = errs[j] * errs[j];
                let va = (fa * fa + ee) + ea[j];
                let vb = (fb * fb + ee) + eb[j];
                dl[j % 4] += va;
                dl[4 + j % 4] += vb;
                sl[j % 4] += (1.0 - va * inv[j]).max(0.0);
                sl[4 + j % 4] += (1.0 - vb * inv[j]).max(0.0);
            }
            let [da0, da1, da2, da3, db0, db1, db2, db3] = dl;
            let [sa0, sa1, sa2, sa3, sb0, sb1, sb2, sb3] = sl;
            let dist_a = (da0 + da1) + (da2 + da3);
            let sim_a = (sa0 + sa1) + (sa2 + sa3);
            if dist_a < out.dist_score {
                out.dist_idx = i;
                out.dist_score = dist_a;
            }
            if sim_a > out.sim {
                out.sim_idx = i;
                out.sim = sim_a;
            }
            let dist_b = (db0 + db1) + (db2 + db3);
            let sim_b = (sb0 + sb1) + (sb2 + sb3);
            if dist_b < out.dist_score {
                out.dist_idx = i + 1;
                out.dist_score = dist_b;
            }
            if sim_b > out.sim {
                out.sim_idx = i + 1;
                out.sim = sim_b;
            }
            i += 2;
        }
        if i < len {
            let row = &centroids[i * dims..i * dims + dims];
            let erow = &noise[i * dims..i * dims + dims];
            let (dist, sim) = row_fused_avx2(row, erow, x, errs, inv);
            if dist < out.dist_score {
                out.dist_idx = i;
                out.dist_score = dist;
            }
            if sim > out.sim {
                out.sim_idx = i;
                out.sim = sim;
            }
        }
        out
    }
    // SAFETY: caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    unsafe fn row_corrected_avx2(c: &[f64], e: &[f64], x: &[f64], errs: &[f64]) -> f64 {
        let d = x.len();
        let chunks = d / 4;
        let mut acc = _mm256_setzero_pd();
        let zero = _mm256_setzero_pd();
        let inf = _mm256_set1_pd(f64::INFINITY);
        let neg_inf = _mm256_set1_pd(f64::NEG_INFINITY);
        for i in 0..chunks {
            let j = 4 * i;
            // In-bounds: j + 3 < 4 * chunks <= d for all four slices
            // (the dispatcher asserted matching lengths).
            let vx = _mm256_loadu_pd(x.as_ptr().add(j));
            let vc = _mm256_loadu_pd(c.as_ptr().add(j));
            let verr = _mm256_loadu_pd(errs.as_ptr().add(j));
            let ve = _mm256_loadu_pd(e.as_ptr().add(j));
            let diff = _mm256_sub_pd(vx, vc);
            let t = _mm256_sub_pd(
                _mm256_sub_pd(_mm256_mul_pd(diff, diff), _mm256_mul_pd(verr, verr)),
                ve,
            );
            // `t > −∞` is false exactly for NaN and −∞: those lanes take +∞.
            let live = _mm256_cmp_pd::<_CMP_GT_OQ>(t, neg_inf);
            acc = _mm256_add_pd(acc, _mm256_blendv_pd(inf, _mm256_max_pd(t, zero), live));
        }
        let mut l = [0.0f64; 4];
        _mm256_storeu_pd(l.as_mut_ptr(), acc);
        for j in 4 * chunks..d {
            l[j % 4] += corrected_term(x[j], c[j], errs[j], e[j]);
        }
        let [l0, l1, l2, l3] = l;
        (l0 + l1) + (l2 + l3)
    }

    // SAFETY: caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rank_corrected_avx2(
        centroids: &[f64],
        noise: &[f64],
        rows: usize,
        dims: usize,
        x: &[f64],
        errs: &[f64],
    ) -> f64 {
        let mut best = f64::INFINITY;
        for i in 0..rows {
            let row = &centroids[i * dims..i * dims + dims];
            let erow = &noise[i * dims..i * dims + dims];
            best = best.min(row_corrected_avx2(row, erow, x, errs));
        }
        best
    }

    // SAFETY: caller must ensure AVX-512F and AVX2 are available.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub(super) unsafe fn rank_corrected_avx512(
        centroids: &[f64],
        noise: &[f64],
        rows: usize,
        dims: usize,
        x: &[f64],
        errs: &[f64],
    ) -> f64 {
        let chunks = dims / 4;
        let zero = _mm512_setzero_pd();
        let inf = _mm512_set1_pd(f64::INFINITY);
        let neg_inf = _mm512_set1_pd(f64::NEG_INFINITY);
        let mut best = f64::INFINITY;
        let mut i = 0usize;
        while i + 1 < rows {
            let ca = &centroids[i * dims..i * dims + dims];
            let cb = &centroids[(i + 1) * dims..(i + 1) * dims + dims];
            let ea = &noise[i * dims..i * dims + dims];
            let eb = &noise[(i + 1) * dims..(i + 1) * dims + dims];
            let mut acc = _mm512_setzero_pd();
            for k in 0..chunks {
                let j = 4 * k;
                // In-bounds: j + 3 < 4 * chunks <= dims everywhere.
                let vx = _mm512_broadcast_f64x4(_mm256_loadu_pd(x.as_ptr().add(j)));
                let verr = _mm512_broadcast_f64x4(_mm256_loadu_pd(errs.as_ptr().add(j)));
                let vc = pair(
                    _mm256_loadu_pd(ca.as_ptr().add(j)),
                    _mm256_loadu_pd(cb.as_ptr().add(j)),
                );
                let ve = pair(
                    _mm256_loadu_pd(ea.as_ptr().add(j)),
                    _mm256_loadu_pd(eb.as_ptr().add(j)),
                );
                let diff = _mm512_sub_pd(vx, vc);
                let t = _mm512_sub_pd(
                    _mm512_sub_pd(_mm512_mul_pd(diff, diff), _mm512_mul_pd(verr, verr)),
                    ve,
                );
                // `t > −∞` is false exactly for NaN and −∞: those lanes
                // take +∞.
                let live = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(t, neg_inf);
                acc = _mm512_add_pd(acc, _mm512_mask_blend_pd(live, inf, _mm512_max_pd(t, zero)));
            }
            let mut l = [0.0f64; 8];
            _mm512_storeu_pd(l.as_mut_ptr(), acc);
            for j in 4 * chunks..dims {
                l[j % 4] += corrected_term(x[j], ca[j], errs[j], ea[j]);
                l[4 + j % 4] += corrected_term(x[j], cb[j], errs[j], eb[j]);
            }
            let [a0, a1, a2, a3, b0, b1, b2, b3] = l;
            best = best.min((a0 + a1) + (a2 + a3));
            best = best.min((b0 + b1) + (b2 + b3));
            i += 2;
        }
        if i < rows {
            let row = &centroids[i * dims..i * dims + dims];
            let erow = &noise[i * dims..i * dims + dims];
            best = best.min(row_corrected_avx2(row, erow, x, errs));
        }
        best
    }
}

// == NEON backend (aarch64) =============================================

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::{
        vaddq_f64, vbslq_f64, vcgtq_f64, vdupq_n_f64, vld1q_f64, vmaxnmq_f64, vmulq_f64, vst1q_f64,
        vsubq_f64,
    };

    use super::scalar::corrected_term;
    use super::FusedBest;

    // SAFETY: NEON is mandatory on aarch64; the dispatch arms calling
    // into this module only compile for aarch64 targets.

    // SAFETY: caller must be on aarch64 (NEON is baseline there).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_neon(a: &[f64], b: &[f64]) -> f64 {
        let d = a.len();
        let chunks = d / 4;
        let mut lo = vdupq_n_f64(0.0);
        let mut hi = vdupq_n_f64(0.0);
        for i in 0..chunks {
            let j = 4 * i;
            // In-bounds: j + 3 < 4 * chunks <= d.
            lo = vaddq_f64(
                lo,
                vmulq_f64(vld1q_f64(a.as_ptr().add(j)), vld1q_f64(b.as_ptr().add(j))),
            );
            hi = vaddq_f64(
                hi,
                vmulq_f64(
                    vld1q_f64(a.as_ptr().add(j + 2)),
                    vld1q_f64(b.as_ptr().add(j + 2)),
                ),
            );
        }
        let mut l = [0.0f64; 4];
        vst1q_f64(l.as_mut_ptr(), lo);
        vst1q_f64(l.as_mut_ptr().add(2), hi);
        for j in 4 * chunks..d {
            l[j % 4] += a[j] * b[j];
        }
        let [l0, l1, l2, l3] = l;
        (l0 + l1) + (l2 + l3)
    }

    // SAFETY: caller must be on aarch64 (NEON is baseline there).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn rank_min_neon(
        centroids: &[f64],
        sm: &[f64],
        dims: usize,
        x: &[f64],
    ) -> (usize, f64) {
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, m) in sm.iter().enumerate() {
            let row = &centroids[i * dims..i * dims + dims];
            let score = *m - 2.0 * dot_neon(x, row);
            if score < best_score {
                best = i;
                best_score = score;
            }
        }
        (best, best_score)
    }

    // SAFETY: caller must be on aarch64 (NEON is baseline there).
    #[target_feature(enable = "neon")]
    unsafe fn row_fused_neon(
        c: &[f64],
        e: &[f64],
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> (f64, f64) {
        let d = x.len();
        let chunks = d / 4;
        let zero = vdupq_n_f64(0.0);
        let ones = vdupq_n_f64(1.0);
        let mut dlo = zero;
        let mut dhi = zero;
        let mut slo = zero;
        let mut shi = zero;
        for i in 0..chunks {
            let j = 4 * i;
            for half in 0..2 {
                let o = j + 2 * half;
                // In-bounds: o + 1 < 4 * chunks <= d for all slices.
                let vx = vld1q_f64(x.as_ptr().add(o));
                let vc = vld1q_f64(c.as_ptr().add(o));
                let verr = vld1q_f64(errs.as_ptr().add(o));
                let ve = vld1q_f64(e.as_ptr().add(o));
                let vinv = vld1q_f64(inv.as_ptr().add(o));
                let diff = vsubq_f64(vx, vc);
                let vj = vaddq_f64(vaddq_f64(vmulq_f64(diff, diff), vmulq_f64(verr, verr)), ve);
                // vmaxnmq (IEEE maxNum) clamps NaN credits to 0 like
                // `f64::max`; vmaxq would propagate the NaN instead.
                let credit = vmaxnmq_f64(vsubq_f64(ones, vmulq_f64(vj, vinv)), zero);
                if half == 0 {
                    dlo = vaddq_f64(dlo, vj);
                    slo = vaddq_f64(slo, credit);
                } else {
                    dhi = vaddq_f64(dhi, vj);
                    shi = vaddq_f64(shi, credit);
                }
            }
        }
        let mut dl = [0.0f64; 4];
        let mut sl = [0.0f64; 4];
        vst1q_f64(dl.as_mut_ptr(), dlo);
        vst1q_f64(dl.as_mut_ptr().add(2), dhi);
        vst1q_f64(sl.as_mut_ptr(), slo);
        vst1q_f64(sl.as_mut_ptr().add(2), shi);
        for j in 4 * chunks..d {
            let f = x[j] - c[j];
            let v = (f * f + errs[j] * errs[j]) + e[j];
            dl[j % 4] += v;
            sl[j % 4] += (1.0 - v * inv[j]).max(0.0);
        }
        let [d0, d1, d2, d3] = dl;
        let [s0, s1, s2, s3] = sl;
        ((d0 + d1) + (d2 + d3), (s0 + s1) + (s2 + s3))
    }

    // SAFETY: caller must be on aarch64 (NEON is baseline there).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn rank_fused_neon(
        centroids: &[f64],
        noise: &[f64],
        rows: usize,
        dims: usize,
        x: &[f64],
        errs: &[f64],
        inv: &[f64],
    ) -> FusedBest {
        let mut out = FusedBest::empty();
        for i in 0..rows {
            let row = &centroids[i * dims..i * dims + dims];
            let erow = &noise[i * dims..i * dims + dims];
            let (dist, sim) = row_fused_neon(row, erow, x, errs, inv);
            if dist < out.dist_score {
                out.dist_idx = i;
                out.dist_score = dist;
            }
            if sim > out.sim {
                out.sim_idx = i;
                out.sim = sim;
            }
        }
        out
    }

    // SAFETY: caller must be on aarch64 (NEON is baseline there).
    #[target_feature(enable = "neon")]
    unsafe fn row_corrected_neon(c: &[f64], e: &[f64], x: &[f64], errs: &[f64]) -> f64 {
        let d = x.len();
        let chunks = d / 4;
        let zero = vdupq_n_f64(0.0);
        let inf = vdupq_n_f64(f64::INFINITY);
        let neg_inf = vdupq_n_f64(f64::NEG_INFINITY);
        let mut acc = [zero, zero];
        for i in 0..chunks {
            let j = 4 * i;
            for (half, lanes) in acc.iter_mut().enumerate() {
                let o = j + 2 * half;
                // In-bounds: o + 1 < 4 * chunks <= d for all slices.
                let vx = vld1q_f64(x.as_ptr().add(o));
                let vc = vld1q_f64(c.as_ptr().add(o));
                let verr = vld1q_f64(errs.as_ptr().add(o));
                let ve = vld1q_f64(e.as_ptr().add(o));
                let diff = vsubq_f64(vx, vc);
                let t = vsubq_f64(vsubq_f64(vmulq_f64(diff, diff), vmulq_f64(verr, verr)), ve);
                // `t > −∞` is false exactly for NaN and −∞: those lanes
                // take +∞.
                let live = vcgtq_f64(t, neg_inf);
                *lanes = vaddq_f64(*lanes, vbslq_f64(live, vmaxnmq_f64(t, zero), inf));
            }
        }
        let [lo, hi] = acc;
        let mut l = [0.0f64; 4];
        vst1q_f64(l.as_mut_ptr(), lo);
        vst1q_f64(l.as_mut_ptr().add(2), hi);
        for j in 4 * chunks..d {
            l[j % 4] += corrected_term(x[j], c[j], errs[j], e[j]);
        }
        let [l0, l1, l2, l3] = l;
        (l0 + l1) + (l2 + l3)
    }

    // SAFETY: caller must be on aarch64 (NEON is baseline there).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn rank_corrected_neon(
        centroids: &[f64],
        noise: &[f64],
        rows: usize,
        dims: usize,
        x: &[f64],
        errs: &[f64],
    ) -> f64 {
        let mut best = f64::INFINITY;
        for i in 0..rows {
            let row = &centroids[i * dims..i * dims + dims];
            let erow = &noise[i * dims..i * dims + dims];
            best = best.min(row_corrected_neon(row, erow, x, errs));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic splitmix64-derived doubles in [-1, 1); the core
    /// crate has no rand dependency and parity tests must be seedable.
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn vec_of(n: usize, state: &mut u64) -> Vec<f64> {
        (0..n).map(|_| splitmix(state) * 3.0).collect()
    }

    fn usable() -> Vec<Backend> {
        Backend::compiled()
            .iter()
            .copied()
            .filter(|b| b.available())
            .collect()
    }

    #[test]
    fn parse_and_name_round_trip() {
        for b in Backend::compiled() {
            assert_eq!(Backend::parse(b.name()), Some(*b));
            assert_eq!(Backend::parse(&b.name().to_uppercase()), Some(*b));
        }
        assert_eq!(Backend::parse("auto"), None);
        assert_eq!(Backend::parse("sse9"), None);
    }

    #[test]
    fn scalar_always_available() {
        assert!(Backend::Scalar.available());
        assert!(detect().available());
    }

    #[test]
    fn dot_bitwise_parity_across_backends_and_lengths() {
        let mut st = 0x5eed_u64;
        for len in 0..=19 {
            let a = vec_of(len, &mut st);
            let b = vec_of(len, &mut st);
            let want = dot_with(Backend::Scalar, &a, &b);
            for be in usable() {
                let got = dot_with(be, &a, &b);
                assert_eq!(got.to_bits(), want.to_bits(), "dot parity {be:?} len {len}");
            }
        }
    }

    #[test]
    fn rank_min_bitwise_parity_across_backends() {
        let mut st = 0xfeed_u64;
        for dims in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 17] {
            for rows in [0usize, 1, 2, 3, 5, 8, 33] {
                let centroids = vec_of(rows * dims, &mut st);
                let sm = vec_of(rows, &mut st);
                let x = vec_of(dims, &mut st);
                let (wi, ws) = rank_min_score_with(Backend::Scalar, &centroids, &sm, dims, &x);
                for be in usable() {
                    let (gi, gs) = rank_min_score_with(be, &centroids, &sm, dims, &x);
                    assert_eq!(
                        (gi, gs.to_bits()),
                        (wi, ws.to_bits()),
                        "{be:?} d{dims} r{rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn rank_fused_bitwise_parity_across_backends() {
        let mut st = 0xabcd_u64;
        for dims in [1usize, 3, 4, 5, 7, 8, 9, 20] {
            for rows in [0usize, 1, 2, 3, 7, 25] {
                let centroids = vec_of(rows * dims, &mut st);
                let noise: Vec<f64> = vec_of(rows * dims, &mut st)
                    .iter()
                    .map(|v| v.abs())
                    .collect();
                let x = vec_of(dims, &mut st);
                let errs: Vec<f64> = vec_of(dims, &mut st).iter().map(|v| v.abs()).collect();
                // Mix of finite coefficients and the ∞ skip sentinel.
                let inv: Vec<f64> = (0..dims)
                    .map(|j| {
                        if j % 3 == 2 {
                            f64::INFINITY
                        } else {
                            splitmix(&mut st).abs() * 4.0
                        }
                    })
                    .collect();
                let w = rank_fused_with(Backend::Scalar, &centroids, &noise, dims, &x, &errs, &inv);
                for be in usable() {
                    let g = rank_fused_with(be, &centroids, &noise, dims, &x, &errs, &inv);
                    assert_eq!(
                        (
                            g.dist_idx,
                            g.dist_score.to_bits(),
                            g.sim_idx,
                            g.sim.to_bits()
                        ),
                        (
                            w.dist_idx,
                            w.dist_score.to_bits(),
                            w.sim_idx,
                            w.sim.to_bits()
                        ),
                        "{be:?} d{dims} r{rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn nan_scores_never_win_on_any_backend() {
        let dims = 5usize;
        let mut st = 0x11_u64;
        let mut centroids = vec_of(3 * dims, &mut st);
        centroids[dims] = f64::NAN; // poison row 1
        let sm = vec![1.0, f64::NAN, 0.5];
        let x = vec_of(dims, &mut st);
        for be in usable() {
            let (i, s) = rank_min_score_with(be, &centroids, &sm, dims, &x);
            assert_ne!(i, 1, "{be:?} picked the NaN row");
            assert!(s.is_finite(), "{be:?} returned a non-finite winner");
        }
        // All-NaN: nothing wins, the sentinel result is (0, INFINITY).
        let sm_nan = vec![f64::NAN; 3];
        for be in usable() {
            let (i, s) = rank_min_score_with(be, &centroids, &sm_nan, dims, &x);
            assert_eq!((i, s), (0, f64::INFINITY), "{be:?} all-NaN sentinel");
        }
    }

    #[test]
    fn rank_corrected_poisoned_rows_never_win() {
        let dims = 6usize;
        let mut st = 0x99_u64;
        let x = vec_of(dims, &mut st);
        let errs = vec![0.1; dims];
        // Row 0 far away, row 1 NaN centroid, row 2 infinite noise (a −∞
        // term), row 3 a NaN in its tail element.
        let mut centroids = vec![50.0; 4 * dims];
        centroids[dims + 2] = f64::NAN;
        centroids[3 * dims..].copy_from_slice(&x);
        centroids[4 * dims - 1] = f64::NAN;
        let mut noise = vec![0.0; 4 * dims];
        noise[2 * dims + 1] = f64::INFINITY;
        centroids[2 * dims..3 * dims].copy_from_slice(&x);
        let far = rank_corrected_with(
            Backend::Scalar,
            &centroids[..dims],
            &noise[..dims],
            dims,
            &x,
            &errs,
        );
        assert!(far.is_finite() && far > 0.0);
        for be in usable() {
            let got = rank_corrected_with(be, &centroids, &noise, dims, &x, &errs);
            assert_eq!(got.to_bits(), far.to_bits(), "{be:?} picked a poisoned row");
            let all_poisoned =
                rank_corrected_with(be, &centroids[dims..], &noise[dims..], dims, &x, &errs);
            assert_eq!(all_poisoned, f64::INFINITY, "{be:?} all-poisoned sentinel");
        }
    }

    #[test]
    fn fused_sweep_skips_infinite_coefficients() {
        // inv = ∞ on every dim ⇒ every credit clamps to 0 on every row.
        let dims = 6usize;
        let mut st = 0x77_u64;
        let centroids = vec_of(4 * dims, &mut st);
        let noise = vec![0.1; 4 * dims];
        let x = vec_of(dims, &mut st);
        let errs = vec![0.2; dims];
        let inv = vec![f64::INFINITY; dims];
        for be in usable() {
            let g = rank_fused_with(be, &centroids, &noise, dims, &x, &errs, &inv);
            assert_eq!(
                g.sim.to_bits(),
                0.0f64.to_bits(),
                "{be:?} credit not clamped"
            );
        }
    }

    #[test]
    fn forced_unavailable_backend_degrades_to_scalar() {
        let before = active();
        let got = force(Some(Backend::Neon));
        #[cfg(not(target_arch = "aarch64"))]
        assert_eq!(got, Backend::Scalar);
        #[cfg(target_arch = "aarch64")]
        assert_eq!(got, Backend::Neon);
        // Restore the detected backend for other tests in this binary.
        force(Some(before));
        assert_eq!(active(), before);
    }
}
