//! Measures what the SIMD backends of the SoA distance kernel buy:
//! single-shard insertion throughput (points/second) once per compiled
//! and available backend (packed centroid/noise matrices, forced vector
//! ISA), per-point and with mini-batch insertion, across dimensionalities
//! and micro-cluster budgets.
//!
//! ```text
//! cargo run -p ustream-bench --release --bin fig_kernel_speedup -- \
//!     --len 50000 --reps 3 [--strict]
//! ```
//!
//! `--strict` exits non-zero when the auto-dispatched SIMD backend fails
//! to clear 1.5x over the scalar backend on any sweep point with
//! `dims >= 8` — the CI regression gate for the vector backends.
//! Narrower rows are excluded deliberately: at d=5 a row is one 4-lane
//! chunk plus a tail element, so per-row vector setup costs as much as
//! the arithmetic it saves and the scalar backend wins — no vector ISA
//! can help rows the canonical 4-lane reduction already covers.
//!
//! Emits `results/BENCH_kernel.json` plus a table on stdout. Run with
//! `--release`; debug-build rates are meaningless.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;
use umicro::kernel::simd::{self, Backend};
use umicro::{UMicro, UMicroConfig};
use ustream_bench::Args;
use ustream_common::UncertainPoint;
use ustream_synth::{NoisyStream, SynDriftConfig};

/// Mini-batch size for the batched column — large enough to amortise the
/// per-call kernel synchronisation check, small enough to stay cache-warm.
const BATCH: usize = 256;

/// SIMD-over-scalar-backend floor enforced by `--strict`.
const STRICT_FLOOR: f64 = 1.5;

/// `--strict` only gates sweep points at least this wide: below it a row
/// fits in the canonical four scalar lanes and vector ISAs cannot win.
const STRICT_MIN_DIMS: usize = 8;

/// One backend at one sweep point.
#[derive(Debug, Serialize)]
struct Row {
    dims: usize,
    n_micro: usize,
    /// Kernel backend forced for this measurement.
    backend: String,
    /// Per-point insertion throughput.
    kernel_pps: f64,
    /// Mini-batch insertion throughput.
    batched_pps: f64,
    /// `kernel_pps` over the scalar backend's at the same sweep point.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    bench: String,
    len: usize,
    reps: usize,
    eta: f64,
    /// Backend the runtime dispatcher picked on this machine.
    auto_backend: String,
    rows: Vec<Row>,
}

fn stream(dims: usize, len: usize, eta: f64, seed: u64) -> Vec<UncertainPoint> {
    let mut cfg = SynDriftConfig::paper();
    cfg.dims = dims;
    cfg.len = len;
    NoisyStream::new(cfg.build(seed), eta, StdRng::seed_from_u64(seed ^ 0x0e7a)).collect()
}

/// Best-of-`reps` insertion throughput on a fresh instance per rep, fed
/// in blocks of `block` points (`1` = per-point `insert`).
fn measure(
    points: &[UncertainPoint],
    n_micro: usize,
    dims: usize,
    reps: usize,
    block: usize,
) -> f64 {
    let mut best = 0.0f64;
    let mut out = Vec::with_capacity(block);
    for _ in 0..reps {
        let mut alg = UMicro::new(UMicroConfig::new(n_micro, dims).expect("valid config"));
        let started = Instant::now();
        if block == 1 {
            for p in points {
                black_box(alg.insert(p));
            }
        } else {
            for chunk in points.chunks(block) {
                out.clear();
                alg.insert_batch(chunk, &mut out);
                black_box(out.len());
            }
        }
        let rate = points.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);
        best = best.max(rate);
    }
    best
}

fn main() {
    let args = Args::parse();
    let len: usize = args.get("len", 50_000);
    let reps: usize = args.get("reps", 3);
    let eta: f64 = args.get("eta", 0.5);
    let seed: u64 = args.get("seed", 11);
    let strict: bool = args.get("strict", false);

    let dims_sweep = [5usize, 20, 50];
    let micro_sweep = [25usize, 100];
    let auto = simd::force(None);
    let backends: Vec<Backend> = Backend::compiled()
        .iter()
        .copied()
        .filter(|b| b.available())
        .collect();

    let mut rows = Vec::new();
    let mut strict_ok = true;
    println!(
        "{:>5} {:>8} {:>8} {:>12} {:>12} {:>8}",
        "dims", "n_micro", "backend", "kernel_pps", "batched_pps", "speedup"
    );
    for &dims in &dims_sweep {
        let points = stream(dims, len, eta, seed);
        for &n_micro in &micro_sweep {
            let mut scalar_pps = f64::NAN;
            for &backend in &backends {
                simd::force(Some(backend));
                let kernel_pps = measure(&points, n_micro, dims, reps, 1);
                let batched_pps = measure(&points, n_micro, dims, reps, BATCH);
                if backend == Backend::Scalar {
                    scalar_pps = kernel_pps;
                }
                let row = Row {
                    dims,
                    n_micro,
                    backend: backend.name().to_string(),
                    kernel_pps,
                    batched_pps,
                    speedup: kernel_pps / scalar_pps,
                };
                println!(
                    "{:>5} {:>8} {:>8} {:>12.0} {:>12.0} {:>8.2}",
                    row.dims,
                    row.n_micro,
                    row.backend,
                    row.kernel_pps,
                    row.batched_pps,
                    row.speedup
                );
                let below_floor = row.speedup < STRICT_FLOOR || row.speedup.is_nan();
                if strict && backend == auto && dims >= STRICT_MIN_DIMS && below_floor {
                    strict_ok = false;
                    eprintln!(
                        "STRICT: dims={dims} n_micro={n_micro}: auto backend {} is only \
                         {:.2}x the scalar backend (floor {STRICT_FLOOR}x)",
                        auto.name(),
                        row.speedup
                    );
                }
                rows.push(row);
            }
        }
    }
    simd::force(None);

    let report = Report {
        bench: "kernel_speedup".to_string(),
        len,
        reps,
        eta,
        auto_backend: auto.name().to_string(),
        rows,
    };
    let out = PathBuf::from("results/BENCH_kernel.json");
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).expect("create results dir");
    }
    std::fs::write(
        &out,
        serde_json::to_string(&report).expect("serialize report"),
    )
    .expect("write BENCH_kernel.json");
    eprintln!("wrote {}", out.display());
    if strict && !strict_ok {
        eprintln!("STRICT: SIMD speedup floor violated; failing");
        std::process::exit(1);
    }
}
