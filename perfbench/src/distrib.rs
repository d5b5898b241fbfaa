//! `distrib-commit`: sites shipping exact ECF deltas to a durable
//! coordinator.
//!
//! A [`Coordinator`] with the CLI's `DurabilityPolicy` defaults (3
//! generations, a durable snapshot every 32 epochs, merged snapshots every
//! 4) writes its WAL on the real filesystem. It is resumed from the
//! durable state a preparation run left behind (a WAL tail of 20 epochs
//! over a snapshot) and serves 2 sites at the `ustream distrib-site`
//! defaults: 1 shard, n_micro=100, an epoch every 256 points, engine
//! snapshots every tick. One load thread pushes `fig_distrib_bench`'s
//! d=8 stream to the sites alternately. A commit runs from an epoch
//! falling due to its ack: the push that ships it, which flushes the
//! site's engine, diffs, encodes, sends, and waits while the coordinator
//! applies, WALs (with fsync) and acks.

use crate::host::{self, Reading};
use crate::report::TierReport;
use crate::stats::{self, Accounting, Windows};
use crate::trace::{traces_window, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use umicro::{Ecf, UMicroConfig};
use ustream_common::backoff::splitmix64;
use ustream_common::{UStreamError, UncertainPoint};
use ustream_distrib::{
    wal, Coordinator, CoordinatorConfig, DurabilityPolicy, Site, SiteConfig, Wal,
};
use ustream_engine::EngineBuilder;

const SITES: usize = 2;
const DIMS: usize = 8;
const N_MICRO: usize = 100;
/// Points per site between epochs (the `distrib-site` default).
const DELTA_EVERY: u64 = 256;
/// Prefix of the preparation run: 116 epochs, so the durable state is
/// three snapshots' worth of epochs plus a 20-record WAL tail.
const PREFIX: u64 = 116 * DELTA_EVERY;
/// Points per timed window: 32 epochs, so every window holds one durable
/// coordinator snapshot and eight merged ones.
const WINDOW: u64 = 32 * DELTA_EVERY;
/// Timed points per second of `--seconds`, fixed so a run's work never
/// depends on how fast the host happens to be.
const POINTS_PER_S: f64 = 14_000.0;
/// Fewest WAL appends the traced pass times.
const MIN_WAL_APPENDS: usize = 32;

fn timed_points(scale: f64) -> u64 {
    let windows = (scale * POINTS_PER_S / WINDOW as f64).round() as u64;
    windows.max(1) * WINDOW
}

/// `fig_distrib_bench`'s stream: a few drifting centres plus noise.
fn point(t: u64, seed: u64) -> UncertainPoint {
    let values = (0..DIMS)
        .map(|d| {
            let r = splitmix64(seed ^ t.wrapping_mul(0x9e37_79b9) ^ ((d as u64) << 32));
            let centre = ((r >> 8) % 5) as f64 * 12.0;
            let drift = (t as f64) * 1e-4;
            let noise = (r & 0xffff) as f64 / 65_536.0 - 0.5;
            centre + drift + noise
        })
        .collect();
    UncertainPoint::new(values, vec![0.3; DIMS], t, None)
}

fn state_dir(dir: &Path) -> PathBuf {
    dir.join("distrib")
}

fn coord_config(state: &Path) -> CoordinatorConfig {
    CoordinatorConfig {
        snapshot_every_epochs: 4,
        durability: Some(DurabilityPolicy {
            base: state.join("coord").to_string_lossy().into_owned(),
            generations: 3,
            snapshot_every_epochs: 32,
        }),
        ..CoordinatorConfig::default()
    }
}

fn wal_path(state: &Path) -> String {
    coord_config(state)
        .durability
        .map(|d| d.wal_path())
        .unwrap_or_default()
}

fn attach_site(id: usize, addr: &str) -> Result<Site, String> {
    let umicro = UMicroConfig::new(N_MICRO, DIMS).map_err(|e| e.to_string())?;
    let engine = EngineBuilder::new(umicro)
        .shards(1)
        .build()
        .map_err(|e| e.to_string())?;
    let mut cfg = SiteConfig::new(id as u64, addr);
    cfg.delta_every = DELTA_EVERY;
    Site::attach(engine, cfg).map_err(|e| format!("site {id}: {e}"))
}

/// Runs the prefix through a fresh durable coordinator and kills it, so
/// the state holds snapshots plus a WAL tail to replay.
pub fn prepare(seed: u64, dir: &Path) -> Result<(), String> {
    let state = state_dir(dir);
    std::fs::create_dir_all(&state).map_err(|e| e.to_string())?;
    let coord =
        Coordinator::bind("127.0.0.1:0", coord_config(&state)).map_err(|e| e.to_string())?;
    let addr = coord.addr().to_string();
    let mut sites = (0..SITES)
        .map(|i| attach_site(i, &addr))
        .collect::<Result<Vec<_>, _>>()?;
    for k in 0..PREFIX {
        sites[(k % SITES as u64) as usize]
            .push(point(k + 1, seed))
            .map_err(|e| e.to_string())?;
    }
    for s in sites {
        s.finish().map_err(|e| e.to_string())?;
    }
    coord.kill();
    Ok(())
}

/// Copies the prepared durable state, so every pass resumes from the
/// same files.
fn fresh_state(dir: &Path, name: &str) -> Result<PathBuf, String> {
    let from = state_dir(dir);
    let to = dir.join(name);
    std::fs::create_dir_all(&to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(&from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(to)
}

struct Pass {
    /// One window per 32 untraced epochs.
    windows: Windows,
    /// One window per 32 traced epochs (traced passes only).
    traced_windows: Windows,
    setup_s: Vec<f64>,
    resume_s: Vec<f64>,
    commit_ms: Vec<f64>,
    bytes_sent: u64,
    epochs: u64,
    full_resyncs: u64,
    send_retries: u64,
    sync_failures: u64,
    wal_records: u64,
    wal: WalGrowth,
    coord_snapshots: u64,
    /// Sites whose coordinator map differs from their live map.
    diverged: Vec<String>,
    tracer: Tracer,
}

impl Pass {
    /// Points pushed over the whole pass.
    fn points(&self) -> u64 {
        self.windows.points() + self.traced_windows.points()
    }
}

fn site_map(site: &Site) -> BTreeMap<u64, Ecf> {
    site.engine()
        .micro_clusters()
        .into_iter()
        .map(|m| (m.id, m.ecf))
        .collect()
}

/// One commit's time and outcome.
struct Commit {
    total_ms: f64,
    acked: bool,
}

/// Bytes the coordinator appended to its WAL, read from the WAL's size
/// (`CoordStats::wal_bytes`) before and after each commit. A commit that
/// writes a durable snapshot truncates the WAL after its own append, so
/// that one record's size cannot be read; it is counted apart.
#[derive(Debug, Default)]
struct WalGrowth {
    /// Bytes of the records whose size was read.
    measured_bytes: u64,
    /// Records whose size was read.
    measured: u64,
    /// Records a durable snapshot truncated within their own commit.
    truncated: u64,
}

impl WalGrowth {
    /// Accounts one commit from the coordinator's (WAL bytes, durable
    /// snapshots written) before and after it.
    fn commit(&mut self, before: (u64, u64), after: (u64, u64)) {
        if after.1 != before.1 {
            self.truncated += 1;
        } else if after.0 > before.0 {
            self.measured_bytes += after.0 - before.0;
            self.measured += 1;
        }
    }

    /// Measured bytes plus each truncated record at the measured mean.
    fn total(&self) -> f64 {
        let mean = self.measured_bytes as f64 / self.measured.max(1) as f64;
        self.measured_bytes as f64 + self.truncated as f64 * mean
    }
}

fn wal_state(coord: &Coordinator) -> (u64, u64) {
    let s = coord.stats();
    (s.wal_bytes, s.snapshots_written)
}

/// One commit: waits out the site engine's backlog (the flush `sync`
/// would start with), then ships the epoch and waits for its ack.
fn commit(
    site: &mut Site,
    tracer: &mut Tracer,
    epoch: u64,
    ship: impl FnOnce(&mut Site) -> Result<(), UStreamError>,
) -> Result<Commit, String> {
    let root = tracer.open("distrib.commit", 0, epoch);
    let t0 = Instant::now();
    let s = tracer.open("distrib.site.flush_wait", root, epoch);
    site.engine().flush();
    tracer.close(s);
    let s = tracer.open("distrib.site.sync", root, epoch);
    let r = ship(site);
    tracer.close(s);
    let t1 = Instant::now();
    tracer.close(root);
    let acked = match r {
        Ok(()) => true,
        Err(UStreamError::RetriesExhausted { .. }) => false,
        Err(e) => return Err(e.to_string()),
    };
    Ok(Commit {
        total_ms: (t1 - t0).as_secs_f64() * 1e3,
        acked,
    })
}

/// One restart: `Coordinator::resume` over `state`, then both sites'
/// handshakes. Returns them with (whole set-up, resume alone) seconds.
fn start(state: &Path) -> Result<(Coordinator, Vec<Site>, f64, f64), String> {
    let t0 = Instant::now();
    let coord =
        Coordinator::resume("127.0.0.1:0", coord_config(state)).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let addr = coord.addr().to_string();
    let sites = (0..SITES)
        .map(|i| attach_site(i, &addr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((
        coord,
        sites,
        t0.elapsed().as_secs_f64(),
        (t1 - t0).as_secs_f64(),
    ))
}

/// One pass over the timed stream. `setup_s` is the median of several
/// restarts: the first starts the coordinator the run drives; untraced
/// passes then resume a second one, from a copy of the same durable
/// state, between every two timed windows. On the reference host resume
/// time moves in spells of a few seconds (37 ms against 53 ms), so
/// restarts spread through the run see many spells where back-to-back
/// ones may all land in one.
fn pass(seed: u64, dir: &Path, scale: f64, traced: bool) -> Result<Pass, String> {
    let state = fresh_state(dir, "pass")?;
    // Resume and handshakes write nothing durable, so the extra restarts
    // can all resume from one copy.
    let spare = fresh_state(dir, "spare")?;
    let (coord, mut sites, first, first_resume) = start(&state)?;
    let mut setup_s = vec![first];
    let mut resume_s = vec![first_resume];
    let threads = host::threads();
    let before = coord.stats();
    let n = timed_points(scale);

    let mut tracer = Tracer::new(false);
    let mut commit_ms = Vec::new();
    // The WAL's size is read around commits of traced passes only, in
    // traced and untraced windows alike.
    let mut wal = WalGrowth::default();
    let mut sync_failures = 0u64;
    let mut pushed = [0u64; SITES];
    let mut epoch = 0u64;
    let mut windows = Windows::default();
    let mut traced_windows = Windows::default();
    let mut close_window = |w: u64, r0: &Reading, r1: &Reading| {
        let (wall, cpu, steal) = r0.until(r1);
        let into = if traces_window(traced, w) {
            &mut traced_windows
        } else {
            &mut windows
        };
        into.push(WINDOW, wall, cpu, steal);
    };
    let mut r0 = Reading::now();
    for k in 0..n {
        if k.is_multiple_of(WINDOW) {
            if k > 0 {
                close_window(k / WINDOW - 1, &r0, &Reading::now());
                if !traced {
                    let (extra, extra_sites, t, resume) = start(&spare)?;
                    drop(extra_sites);
                    extra.kill();
                    host::settle_threads(threads);
                    setup_s.push(t);
                    resume_s.push(resume);
                }
                r0 = Reading::now();
            }
            tracer.set_enabled(traces_window(traced, k / WINDOW));
        }
        let i = (k % SITES as u64) as usize;
        let p = point(PREFIX + k + 1, seed);
        pushed[i] += 1;
        if pushed[i].is_multiple_of(DELTA_EVERY) {
            epoch += 1;
            // A push that fills the epoch ships it; a sync whose retries
            // run out does not fail the push, so read the site's counter.
            let failures = sites[i].stats().sync_failures;
            let w0 = traced.then(|| wal_state(&coord));
            let c = commit(&mut sites[i], &mut tracer, epoch, |s| s.push(p))?;
            if let Some(w0) = w0 {
                wal.commit(w0, wal_state(&coord));
            }
            sync_failures += sites[i].stats().sync_failures - failures;
            commit_ms.push(c.total_ms);
        } else {
            let s = tracer.open("distrib.site.push", 0, k);
            sites[i].push(p).map_err(|e| e.to_string())?;
            tracer.close(s);
        }
    }
    close_window(n / WINDOW - 1, &r0, &Reading::now());
    tracer.set_enabled(false);
    // Whatever is still dirty ships as one last epoch per site.
    for site in sites.iter_mut() {
        epoch += 1;
        let w0 = wal_state(&coord);
        let c = commit(site, &mut tracer, epoch, |s| s.sync().map(|_| ()))?;
        wal.commit(w0, wal_state(&coord));
        sync_failures += u64::from(!c.acked);
        commit_ms.push(c.total_ms);
    }

    let mut diverged = Vec::new();
    for (i, site) in sites.iter().enumerate() {
        let want = site_map(site);
        let got = coord.site_clusters(i as u64);
        if got != want {
            diverged.push(format!(
                "site {i}: coordinator holds {} clusters, site {}",
                got.len(),
                want.len()
            ));
        }
    }
    let site_stats: Vec<_> = sites.iter().map(Site::stats).collect();
    for s in sites {
        s.finish().map_err(|e| e.to_string())?;
    }
    let after = coord.stats();
    coord.kill();
    Ok(Pass {
        windows,
        traced_windows,
        setup_s,
        resume_s,
        commit_ms,
        bytes_sent: site_stats.iter().map(|s| s.bytes_sent).sum(),
        epochs: site_stats.iter().map(|s| s.epochs_acked).sum(),
        full_resyncs: site_stats.iter().map(|s| s.full_resyncs).sum(),
        send_retries: site_stats.iter().map(|s| s.send_retries).sum(),
        sync_failures,
        wal_records: after.epochs_applied.saturating_sub(before.epochs_applied),
        wal,
        coord_snapshots: after
            .snapshots_written
            .saturating_sub(before.snapshots_written),
        diverged,
        tracer,
    })
}

fn report_e2e(rep: &mut TierReport, p: &Pass) {
    let w = &p.windows;
    rep.e2e("throughput_pts_s", w.throughput(), "1/s");
    rep.e2e("cpu_us_per_pt", w.cpu_us_per_pt(), "us");
    rep.e2e("setup_s", stats::median(&p.setup_s).unwrap_or(0.0), "s");
    let c = stats::sorted(p.commit_ms.clone());
    rep.tail_ms("commit_p50_ms", stats::percentile(&c, 0.5));
    rep.tail_ms("commit_p90_ms", stats::tail(&c, 0.9));
    rep.notes.push(format!(
        "{} points, {} commits; 32-epoch {}; setups {:?} s, of which Coordinator::resume {:?} s",
        w.points(),
        p.commit_ms.len(),
        w.describe(),
        p.setup_s,
        p.resume_s
    ));
    rep.outcomes.attempted += p.points() + SITES as u64;
    rep.outcomes.unanswered += p.sync_failures;
    rep.gate(
        "coordinator_maps_equal_site_maps",
        p.diverged.is_empty(),
        match p.diverged.first() {
            None => format!("all {SITES} per-site maps equal bit for bit"),
            Some(d) => d.clone(),
        },
    );
}

/// Times `Wal::append` (with its fsync) of the frames `wal::replay`
/// recovers from the prepared WAL tail, into a scratch WAL on the same
/// filesystem.
fn time_wal_appends(dir: &Path) -> Result<Tracer, String> {
    let frames = wal::replay(&wal_path(&state_dir(dir)))
        .map_err(|e| e.to_string())?
        .frames;
    let mut tracer = Tracer::new(true);
    if frames.is_empty() {
        return Err("prepared WAL tail holds no records".into());
    }
    let scratch = dir.join("scratch.wal").to_string_lossy().into_owned();
    let mut w = Wal::create(&scratch).map_err(|e| e.to_string())?;
    let mut appended = 0usize;
    while appended < MIN_WAL_APPENDS {
        for f in &frames {
            let s = tracer.open("distrib.wal.append", 0, f.seq);
            w.append(f).map_err(|e| e.to_string())?;
            tracer.close(s);
            appended += 1;
        }
    }
    Ok(tracer)
}

/// Runs the tier: one pass for the end-to-end figures and, when `traced`,
/// spans on every other window for the layers.
pub fn run(
    seed: u64,
    dir: &Path,
    scale: f64,
    traced: bool,
    trace_dir: &Path,
) -> Result<TierReport, String> {
    let mut rep = TierReport::default();
    let tr = pass(seed, dir, scale, traced)?;
    report_e2e(&mut rep, &tr);
    if !traced {
        return Ok(rep);
    }
    rep.notes.push(format!(
        "tracing overhead (traced against untraced windows, wall per point): {:+.2}%",
        stats::overhead(
            1.0 / tr.windows.throughput(),
            1.0 / tr.traced_windows.throughput()
        ) * 100.0
    ));
    let wal_tracer = time_wal_appends(dir)?;
    let sum = tr.tracer.summary();
    let get = |n: &str| sum.get(n).copied().unwrap_or_default();
    let wal_us = wal_tracer
        .summary()
        .get("distrib.wal.append")
        .map_or(0.0, |l| l.total_us());
    rep.layer(
        "distrib.site.push_us",
        get("distrib.site.push").total_us(),
        "us",
    );
    rep.layer(
        "distrib.site.flush_wait_us",
        get("distrib.site.flush_wait").total_us(),
        "us",
    );
    rep.layer(
        "distrib.site.sync_us",
        get("distrib.site.sync").total_us(),
        "us",
    );
    rep.layer("distrib.wal.append_us", wal_us, "us");
    rep.layer(
        "distrib.coordinator.resume_s",
        stats::median(&tr.resume_s).unwrap_or(0.0),
        "s",
    );
    rep.layer(
        "distrib.bytes_per_pt",
        tr.bytes_sent as f64 / tr.points() as f64,
        "B",
    );
    rep.layer("distrib.epochs", tr.epochs as f64, "count");
    rep.layer("distrib.full_resyncs", tr.full_resyncs as f64, "count");
    rep.layer("distrib.send_retries", tr.send_retries as f64, "count");
    rep.layer("distrib.wal_records", tr.wal_records as f64, "count");
    rep.layer("distrib.wal_bytes", tr.wal.total(), "B");
    rep.layer(
        "distrib.coord_snapshots",
        tr.coord_snapshots as f64,
        "count",
    );

    let pts = tr.traced_windows.points() as f64;
    let us_pt = |ns: u64| ns as f64 / pts / 1e3;
    let wall = Accounting::new(
        tr.traced_windows.wall_s() * 1e9,
        &[
            get("distrib.site.push").total_ns as f64,
            get("distrib.commit").total_ns as f64,
        ],
    );
    rep.notes.push(format!(
        "accounting, wall per point: {:.3} us = pushes {:.3} + commits {:.3} (flush wait {:.3} + sync {:.3}) + load-loop residual {:.3} (layers cover {:.1}%)",
        wall.total / pts / 1e3,
        us_pt(get("distrib.site.push").total_ns),
        us_pt(get("distrib.commit").total_ns),
        us_pt(get("distrib.site.flush_wait").total_ns),
        us_pt(get("distrib.site.sync").total_ns),
        wall.residual / pts / 1e3,
        wall.covered() * 100.0
    ));
    let sync_us = get("distrib.site.sync").total_us();
    rep.notes.push(format!(
        "WAL append with fsync is {:.1} us of a {:.1} us sync ({:.1}%)",
        wal_us,
        sync_us,
        if sync_us > 0.0 {
            wal_us / sync_us * 100.0
        } else {
            0.0
        }
    ));
    rep.notes.push(format!(
        "WAL bytes: {} B read from the WAL's growth over {} records, plus {} records truncated by a durable snapshot within their own commit, counted at that mean ({:.0} B each)",
        tr.wal.measured_bytes,
        tr.wal.measured,
        tr.wal.truncated,
        tr.wal.measured_bytes as f64 / tr.wal.measured.max(1) as f64
    ));
    tr.tracer
        .write_csv(&trace_dir.join("trace-distrib-commit.csv"))
        .map_err(|e| format!("write trace: {e}"))?;
    wal_tracer
        .write_csv(&trace_dir.join("trace-distrib-commit-wal.csv"))
        .map_err(|e| format!("write trace: {e}"))?;
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::WalGrowth;

    #[test]
    fn wal_growth_counts_snapshot_truncated_records_at_the_mean() {
        let mut w = WalGrowth::default();
        w.commit((0, 0), (100, 0));
        w.commit((100, 0), (400, 0));
        // A durable snapshot cut the WAL after this commit's append.
        w.commit((400, 0), (0, 1));
        w.commit((0, 1), (200, 1));
        assert_eq!(w.measured, 3);
        assert_eq!(w.measured_bytes, 600);
        assert_eq!(w.truncated, 1);
        assert_eq!(w.total(), 800.0);
    }
}
