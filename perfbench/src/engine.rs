//! `engine-syndrift20`: the sharded stream engine with no codec and no
//! network in the way.
//!
//! A 1-shard [`StreamEngine`] (the producer plus one worker: 2 threads) is
//! restored from a checkpoint of a SynDrift prefix (paper config, d=20,
//! η=0.5; n_micro=100 and the `EngineConfig` defaults, except a snapshot
//! every 1024 ticks as `ustream stream` does) and fed the rest of the
//! stream with `push_slice` in fixed batches, with a `horizon_clusters`
//! read every fixed number of points.
//!
//! The stream is generated in 8192-point chunks so the generator's live
//! working set stays bounded. Generation happens between timed windows:
//! each window pushes one chunk and waits for the worker to drain it, so
//! neither the generator's time nor its CPU lands in the figures. Between
//! windows the same points also go through a bare `UMicro`, which is both
//! the correctness reference and the kernel's own cost per point.

use crate::host::{self, Reading};
use crate::report::TierReport;
use crate::stats::{self, Accounting, Windows};
use crate::trace::{traces_window, Tracer};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use umicro::{Ecf, UMicro, UMicroConfig};
use ustream_common::{UStreamError, UncertainPoint};
use ustream_engine::{EngineBuilder, EngineReport, StreamEngine};
use ustream_synth::{NoisyStream, SynDriftConfig};

const DIMS: usize = 20;
const N_MICRO: usize = 100;
/// Noise level η of the paper's runs.
const ETA: f64 = 0.5;
/// Ticks between pyramid snapshots (the `ustream stream` default).
const SNAPSHOT_EVERY: u64 = 1024;
/// Points per generated chunk (one timed window each).
const CHUNK: usize = 8192;
/// Points per `push_slice` call.
const BATCH: usize = 512;
/// A `horizon_clusters` read every this many points.
const QUERY_EVERY: usize = 2048;
/// Window of the horizon reads, in ticks.
const HORIZON: u64 = 16_384;
/// Stream prefix the checkpoint covers.
const PREFIX: usize = 200_000;
/// Timed points per second of `--seconds`, fixed so a run's work never
/// depends on how fast the host happens to be.
const POINTS_PER_S: f64 = 100_000.0;
/// Untraced passes restore a second engine after every this many timed
/// windows (48 extra restores at `--seconds 40`); see [`pass`].
const RESTORE_EVERY: u64 = 10;

fn timed_points(scale: f64) -> usize {
    let chunks = ((scale * POINTS_PER_S) / CHUNK as f64).round() as usize;
    chunks.max(1) * CHUNK
}

fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("engine.ckpt")
}

fn config() -> Result<UMicroConfig, String> {
    UMicroConfig::new(N_MICRO, DIMS).map_err(|e| e.to_string())
}

/// The seeded SynDrift stream with η-noise, `len` points long. Its first
/// points do not depend on `len`, so the prefix is the same in every run.
fn stream(seed: u64, len: usize) -> impl Iterator<Item = UncertainPoint> {
    let mut cfg = SynDriftConfig::paper();
    cfg.dims = DIMS;
    cfg.len = len;
    NoisyStream::new(
        cfg.build(seed),
        ETA,
        rand::rngs::StdRng::seed_from_u64(seed ^ 0x0e7a),
    )
}

fn chunks(
    gen: &mut impl Iterator<Item = UncertainPoint>,
) -> impl Iterator<Item = Vec<UncertainPoint>> + '_ {
    std::iter::from_fn(move || {
        let c: Vec<UncertainPoint> = gen.by_ref().take(CHUNK).collect();
        (!c.is_empty()).then_some(c)
    })
}

/// Feeds the prefix to a fresh engine and checkpoints it.
pub fn prepare(seed: u64, dir: &Path) -> Result<(), String> {
    let engine = EngineBuilder::new(config()?)
        .shards(1)
        .snapshot_every(SNAPSHOT_EVERY)
        .build()
        .map_err(|e| e.to_string())?;
    let mut gen = stream(seed, PREFIX);
    for chunk in chunks(&mut gen) {
        engine.push_slice(&chunk).map_err(|e| e.to_string())?;
    }
    let path = checkpoint_path(dir);
    engine
        .checkpoint(&path.to_string_lossy())
        .map_err(|e| format!("write checkpoint: {e}"))?;
    engine.shutdown();
    Ok(())
}

/// What one pass measured.
struct Pass {
    /// One window per untraced chunk.
    windows: Windows,
    /// One window per traced chunk (traced passes only).
    traced_windows: Windows,
    insert_s: f64,
    setup_s: Vec<f64>,
    query_ms: Vec<f64>,
    unavailable: u64,
    before: EngineReport,
    after: EngineReport,
    /// Clusters on which engine and reference disagree, and the totals.
    mismatched: usize,
    clusters: (usize, usize),
    tracer: Tracer,
}

/// One pass over the timed stream. `setup_s` is the median of several
/// restores: the first starts the engine the run drives; untraced passes
/// then restore a second one, and shut it down, between timed windows.
/// On the reference host restore time moves with the host's load over
/// minutes (85 ms to 140 ms), so restores spread through the run see
/// more of it than back-to-back ones, which land in one moment.
fn pass(seed: u64, dir: &Path, scale: f64, traced: bool) -> Result<Pass, String> {
    let path = checkpoint_path(dir).to_string_lossy().into_owned();
    let restore = || {
        let t0 = Instant::now();
        let e = StreamEngine::restore(&path).map_err(|e| format!("restore: {e}"))?;
        Ok::<_, String>((e, t0.elapsed().as_secs_f64()))
    };
    let (engine, first) = restore()?;
    let mut setup_s = vec![first];
    let threads = host::threads();
    let n = timed_points(scale);

    // The reference replays the prefix from the seed, independently of
    // the checkpoint, so the gate also covers the restore.
    let mut reference = UMicro::new(config()?);
    let mut gen = stream(seed, PREFIX + n);
    for p in gen.by_ref().take(PREFIX) {
        reference.insert(&p);
    }
    let before = engine.stats();

    let mut tracer = Tracer::new(false);
    let mut windows = Windows::default();
    let mut traced_windows = Windows::default();
    let mut insert_s = 0.0;
    let mut query_ms = Vec::new();
    let mut unavailable = 0u64;
    for (k, chunk) in (1u64..).zip(chunks(&mut gen)) {
        // Only the producer and the shard worker run inside a window; the
        // worker is idle between windows, so the CPU of all threads over
        // the window is the engine's.
        tracer.set_enabled(traces_window(traced, k));
        let r0 = Reading::now();
        let root = tracer.open("engine.chunk", 0, k);
        for (i, batch) in chunk.chunks(BATCH).enumerate() {
            let s = tracer.open("engine.push_slice", root, k);
            engine.push_slice(batch).map_err(|e| e.to_string())?;
            tracer.close(s);
            if ((i + 1) * BATCH).is_multiple_of(QUERY_EVERY) {
                let s = tracer.open("engine.horizon_query", root, k);
                let q0 = Instant::now();
                let r = engine.horizon_clusters(HORIZON);
                query_ms.push(q0.elapsed().as_secs_f64() * 1e3);
                tracer.close(s);
                match r {
                    Ok(_) => {}
                    Err(UStreamError::HorizonUnavailable { .. }) => unavailable += 1,
                    Err(e) => return Err(format!("horizon query: {e}")),
                }
            }
        }
        let s = tracer.open("engine.flush_wait", root, k);
        engine.flush();
        tracer.close(s);
        tracer.close(root);
        let (wall, cpu, steal) = r0.until(&Reading::now());
        let w = if traces_window(traced, k) {
            &mut traced_windows
        } else {
            &mut windows
        };
        w.push(chunk.len() as u64, wall, cpu, steal);

        let i0 = Instant::now();
        let s = tracer.open("core.umicro.insert", 0, k);
        for p in &chunk {
            reference.insert(p);
        }
        tracer.close(s);
        insert_s += i0.elapsed().as_secs_f64();

        if !traced && k.is_multiple_of(RESTORE_EVERY) {
            let (extra, t) = restore()?;
            extra.shutdown();
            host::settle_threads(threads);
            setup_s.push(t);
        }
    }
    let after = engine.stats();

    let got: BTreeMap<u64, Ecf> = engine
        .micro_clusters()
        .into_iter()
        .map(|m| (m.id, m.ecf))
        .collect();
    let want: BTreeMap<u64, Ecf> = reference
        .micro_clusters()
        .iter()
        .map(|m| (m.id, m.ecf.clone()))
        .collect();
    let mismatched = want
        .iter()
        .filter(|(id, ecf)| got.get(id) != Some(ecf))
        .count()
        + got.keys().filter(|id| !want.contains_key(id)).count();
    engine.shutdown();
    Ok(Pass {
        windows,
        traced_windows,
        insert_s,
        setup_s,
        query_ms,
        unavailable,
        before,
        after,
        mismatched,
        clusters: (got.len(), want.len()),
        tracer,
    })
}

fn report_e2e(rep: &mut TierReport, p: &Pass) {
    let w = &p.windows;
    rep.e2e("throughput_pts_s", w.throughput(), "1/s");
    rep.e2e("cpu_us_per_pt", w.cpu_us_per_pt(), "us");
    rep.e2e("setup_s", stats::median(&p.setup_s).unwrap_or(0.0), "s");
    let q = stats::sorted(p.query_ms.clone());
    rep.tail_ms("query_p50_ms", stats::percentile(&q, 0.5));
    rep.notes.push(format!(
        "{} points; chunk {}; setups {:?} s",
        w.points(),
        w.describe(),
        p.setup_s
    ));
    // One push_slice per batch and one read per QUERY_EVERY points.
    rep.outcomes.attempted += w.points() / BATCH as u64 + p.query_ms.len() as u64;
    rep.outcomes.unavailable += p.unavailable;
    rep.gate(
        "ecf_equal_to_bare_umicro",
        p.mismatched == 0,
        format!(
            "{} engine / {} reference micro-clusters, {} differ",
            p.clusters.0, p.clusters.1, p.mismatched
        ),
    );
}

/// Runs the tier: one pass for the end-to-end figures and, when `traced`,
/// spans on every other chunk for the layers.
pub fn run(
    seed: u64,
    dir: &Path,
    scale: f64,
    traced: bool,
    trace_dir: &Path,
) -> Result<TierReport, String> {
    let mut rep = TierReport::default();
    let base = pass(seed, dir, scale, traced)?;
    report_e2e(&mut rep, &base);
    if !traced {
        return Ok(rep);
    }
    rep.notes.push(format!(
        "tracing overhead (traced against untraced chunks, wall per point): {:+.2}%",
        stats::overhead(
            1.0 / base.windows.throughput(),
            1.0 / base.traced_windows.throughput()
        ) * 100.0
    ));
    let sum = base.tracer.summary();
    let get = |n: &str| sum.get(n).copied().unwrap_or_default();
    // Spans cover the traced chunks; the reference fed every chunk.
    let pts = base.traced_windows.points() as f64;
    let all_pts = (base.windows.points() + base.traced_windows.points()) as f64;
    let insert_us = base.insert_s * 1e6 / all_pts;
    let cpu_us = base.windows.cpu_us_per_pt();
    rep.layer("core.umicro.insert_us_per_pt", insert_us, "us");
    rep.layer("engine.overhead_us_per_pt", cpu_us - insert_us, "us");
    rep.layer(
        "engine.push_slice_us",
        get("engine.push_slice").total_us(),
        "us",
    );
    rep.layer(
        "engine.flush_wait_us",
        get("engine.flush_wait").total_us(),
        "us",
    );
    rep.layer(
        "engine.horizon_query_us",
        get("engine.horizon_query").total_us(),
        "us",
    );
    let ckpt_bytes = std::fs::metadata(checkpoint_path(dir)).map_or(0, |m| m.len());
    rep.layer("engine.checkpoint_bytes", ckpt_bytes as f64, "B");
    let (b, a) = (&base.before, &base.after);
    rep.layer(
        "engine.merges",
        a.merges.saturating_sub(b.merges) as f64,
        "count",
    );
    rep.layer("engine.mean_merge_us", a.mean_merge_micros, "us");
    rep.layer(
        "engine.clusters_created",
        a.clusters_created.saturating_sub(b.clusters_created) as f64,
        "count",
    );
    rep.layer(
        "engine.clusters_evicted",
        a.clusters_evicted.saturating_sub(b.clusters_evicted) as f64,
        "count",
    );
    rep.layer(
        "engine.snapshots_retained",
        a.snapshots_retained as f64,
        "count",
    );
    rep.layer(
        "engine.alerts_raised",
        a.alerts_raised.saturating_sub(b.alerts_raised) as f64,
        "count",
    );

    // Wall: the producer's calls tile each window; what they leave is the
    // benchmark's own loop. CPU: the kernel's share and the engine's.
    let chunk_ns = get("engine.chunk").total_ns as f64;
    let wall = Accounting::new(
        chunk_ns,
        &[
            get("engine.push_slice").total_ns as f64,
            get("engine.horizon_query").total_ns as f64,
            get("engine.flush_wait").total_ns as f64,
        ],
    );
    rep.notes.push(format!(
        "accounting, wall per point: {:.3} us = push_slice {:.3} + horizon reads {:.3} + flush wait {:.3} + producer residual {:.3} (layers cover {:.1}%)",
        wall.total / pts / 1e3,
        get("engine.push_slice").total_ns as f64 / pts / 1e3,
        get("engine.horizon_query").total_ns as f64 / pts / 1e3,
        get("engine.flush_wait").total_ns as f64 / pts / 1e3,
        wall.residual / pts / 1e3,
        wall.covered() * 100.0
    ));
    let cpu = Accounting::new(cpu_us, &[insert_us]);
    rep.notes.push(format!(
        "accounting, CPU per point: {:.3} us = core.umicro insert {:.3} + engine overhead {:.3}",
        cpu.total, insert_us, cpu.residual
    ));
    base.tracer
        .write_csv(&trace_dir.join("trace-engine-syndrift20.csv"))
        .map_err(|e| format!("write trace: {e}"))?;
    Ok(rep)
}
