//! Measures what the SIMD backends of the SoA distance kernel buy, once
//! per compiled and available backend (forced vector ISA), across
//! dimensionalities and micro-cluster budgets:
//!
//! * per-point insertion throughput (points/second);
//! * mini-batch insertion throughput;
//! * the isolation sweep novelty detection runs before every insertion
//!   (`UMicro::isolation`, the kernel's corrected sweep), against the
//!   model the per-point pass built.
//!
//! ```text
//! cargo run -p ustream-bench --release --bin fig_kernel_speedup -- \
//!     --len 10000 --reps 21 [--strict]
//! ```
//!
//! Method: a rep measures every backend once, each on a fresh instance
//! fed `--len` points, and the backend order rotates by one per rep, so a
//! slow stretch of the host lands on every backend alike rather than on
//! whichever ran then. Each figure is the median over `--reps` reps, with
//! its spread as the interquartile range over the median. A speedup is
//! the median over reps of the ratio to the scalar backend's run in the
//! same rep, so host drift between reps cancels out of it.
//!
//! `--strict` exits non-zero when the auto-dispatched SIMD backend's
//! per-point insertion speedup fails to clear 1.5x the scalar backend on
//! any sweep point with `dims >= 8` — the CI regression gate for the
//! vector backends. Narrower rows are excluded deliberately: at d=5 a row
//! is one 4-lane chunk plus a tail element, so per-row vector setup costs
//! as much as the arithmetic it saves and the scalar backend wins — no
//! vector ISA can help rows the canonical 4-lane reduction already covers.
//!
//! Emits `results/BENCH_kernel.json` (with the host and commit it ran on)
//! plus a table on stdout. Run with `--release`; debug-build rates are
//! meaningless.

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

/// One backend at one sweep point. Rates are medians over reps; spreads
/// are interquartile range over median.
#[derive(Debug, Serialize)]
struct Row {
    dims: usize,
    n_micro: usize,
    /// Kernel backend forced for this measurement.
    backend: String,
    /// Per-point insertion throughput.
    kernel_pps: f64,
    kernel_spread: f64,
    /// Mini-batch insertion throughput.
    batched_pps: f64,
    batched_spread: f64,
    /// Isolation-sweep throughput against a full model.
    isolation_pps: f64,
    isolation_spread: f64,
    /// Per-point insertion throughput over the scalar backend's: the
    /// median over reps of the ratio to the scalar run of the same rep.
    speedup: f64,
    speedup_spread: f64,
    /// Isolation-sweep throughput over the scalar backend's, paired the
    /// same way.
    isolation_speedup: f64,
}

/// The machine and commit a report was measured on (`-dirty` marks
/// uncommitted changes on top of that commit).
#[derive(Debug, Serialize)]
struct Host {
    nproc: usize,
    cpu_model: String,
    commit: String,
}

#[derive(Debug, Serialize)]
struct Report {
    bench: String,
    host: Host,
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

/// One rep on the live backend: per-point insertion, the isolation sweep
/// over the model that pass built, and mini-batch insertion on a second
/// fresh instance — each as points per second.
fn rep(points: &[UncertainPoint], n_micro: usize, dims: usize) -> [f64; 3] {
    let cfg = UMicroConfig::new(n_micro, dims).expect("valid config");
    let rate = |started: Instant| points.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);

    let mut alg = UMicro::new(cfg.clone());
    let started = Instant::now();
    for p in points {
        black_box(alg.insert(p));
    }
    let kernel = rate(started);

    let started = Instant::now();
    for p in points {
        black_box(alg.isolation(p));
    }
    let isolation = rate(started);

    let mut alg = UMicro::new(cfg);
    let mut out = Vec::with_capacity(BATCH);
    let started = Instant::now();
    for chunk in points.chunks(BATCH) {
        out.clear();
        alg.insert_batch(chunk, &mut out);
        black_box(out.len());
    }
    [kernel, rate(started), isolation]
}

/// `(median, (q3 − q1) / median)` with linearly interpolated quartiles.
fn median_spread(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let pos = p * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    let median = q(0.5);
    (median, (q(0.75) - q(0.25)) / median)
}

fn host() -> Host {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        commit,
    }
}

fn main() {
    let args = Args::parse();
    let len: usize = args.get("len", 10_000);
    let reps: usize = args.get("reps", 21).max(1);
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
        "{:>5} {:>8} {:>8} {:>12} {:>7} {:>12} {:>7} {:>12} {:>7} {:>8} {:>7} {:>8}",
        "dims",
        "n_micro",
        "backend",
        "kernel_pps",
        "spread",
        "batched_pps",
        "spread",
        "isol_pps",
        "spread",
        "speedup",
        "spread",
        "isol_x"
    );
    for &dims in &dims_sweep {
        let points = stream(dims, len, eta, seed);
        for &n_micro in &micro_sweep {
            // samples[backend][column][rep]
            let mut samples = vec![[(); 3].map(|_| Vec::with_capacity(reps)); backends.len()];
            for r in 0..reps {
                for k in 0..backends.len() {
                    let b = (r + k) % backends.len();
                    simd::force(Some(backends[b]));
                    for (col, v) in rep(&points, n_micro, dims).into_iter().enumerate() {
                        samples[b][col].push(v);
                    }
                }
            }
            let scalar = backends.iter().position(|&b| b == Backend::Scalar);
            // Speedups pair each rep with the scalar backend's run in the
            // same rep, adjacent in time, so a slow stretch of the host
            // cancels out of the ratio.
            let paired = |b: usize, col: usize| -> (f64, f64) {
                scalar.map_or((f64::NAN, f64::NAN), |s| {
                    let ratios: Vec<f64> = samples[b][col]
                        .iter()
                        .zip(&samples[s][col])
                        .map(|(v, base)| v / base)
                        .collect();
                    median_spread(&ratios)
                })
            };
            for (b, backend) in backends.iter().enumerate() {
                let [(kernel_pps, kernel_spread), (batched_pps, batched_spread), (isolation_pps, isolation_spread)] =
                    [0, 1, 2].map(|col| median_spread(&samples[b][col]));
                let (speedup, speedup_spread) = paired(b, 0);
                let row = Row {
                    dims,
                    n_micro,
                    backend: backend.name().to_string(),
                    kernel_pps,
                    kernel_spread,
                    batched_pps,
                    batched_spread,
                    isolation_pps,
                    isolation_spread,
                    speedup,
                    speedup_spread,
                    isolation_speedup: paired(b, 2).0,
                };
                println!(
                    "{:>5} {:>8} {:>8} {:>12.0} {:>7.3} {:>12.0} {:>7.3} {:>12.0} {:>7.3} {:>8.2} {:>7.3} {:>8.2}",
                    row.dims,
                    row.n_micro,
                    row.backend,
                    row.kernel_pps,
                    row.kernel_spread,
                    row.batched_pps,
                    row.batched_spread,
                    row.isolation_pps,
                    row.isolation_spread,
                    row.speedup,
                    row.speedup_spread,
                    row.isolation_speedup
                );
                let below_floor = row.speedup < STRICT_FLOOR || row.speedup.is_nan();
                if strict && *backend == auto && dims >= STRICT_MIN_DIMS && below_floor {
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
        host: host(),
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
