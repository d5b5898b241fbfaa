//! `serve-mixed`: many small frames through the multi-tenant server.
//!
//! An in-process [`Server`] with 2 workers is restored from a `USRVMAP`
//! checkpoint of 1000 warmed tenants (the `TenantSpec` defaults: d=2,
//! n_micro=8, a snapshot every 256 ticks). Two closed-loop
//! [`ServeClient`] connections each own 500 tenants and send, per tenant
//! per round, one 50-point `Ingest` and then one query that alternates
//! between `TenantStats` and `HorizonClusters`. A run is a fixed number of
//! rounds. The loop is closed because a USRV connection answers one frame
//! before it reads the next.
//!
//! A traced run also replays the same request mix in-process through the
//! serve crate's own functions (codec, registry, tenant) so each layer's
//! share of a request can be timed; whatever the end-to-end request time
//! has beyond those layers is the transport residual (socket I/O, queue
//! wait, thread hand-offs).

use crate::host::Reading;
use crate::report::TierReport;
use crate::stats::{self, Accounting, Windows};
use crate::trace::{traces_window, SpanId, Tracer};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use ustream_common::backoff::splitmix64;
use ustream_serve::protocol::{decode_frame, DEFAULT_MAX_FRAME_BYTES};
use ustream_serve::{
    decode_request, decode_response, encode_request, encode_response, AdmissionPolicy, ErrorCode,
    Request, Response, ServeClient, ServeConfig, Server, TenantRegistry, TenantSpec, WirePoint,
};

/// Tenants in the restored map.
pub const TENANTS: usize = 1000;
/// Client connections (one load thread each); at most `nproc` on the
/// reference 2-core host.
const CONNS: usize = 2;
/// Server worker pool.
const WORKERS: usize = 2;
/// Points per ingest request.
const BATCH: usize = 50;
/// Tenant dimensionality and budget (the `TenantSpec` defaults of the
/// serving bench).
const DIMS: usize = 2;
const N_MICRO: usize = 8;
/// Batches each tenant ingests in preparation (2000 points, so the
/// pyramid already holds snapshots the horizon queries subtract).
const WARM_BATCHES: u64 = 40;
/// Horizon of the `HorizonClusters` queries, in ticks.
const HORIZON: u64 = 512;
/// Registry lock shards (the `ServeConfig` default).
const BUCKETS: usize = 16;
/// Rounds per second of `--seconds`, fixed so a run's work never depends
/// on how fast the host happens to be.
const ROUNDS_PER_S: f64 = 4.0;
/// Restores per run; `setup_s` is their median.
const SETUPS: usize = 7;

fn rounds(scale: f64) -> u64 {
    ((scale * ROUNDS_PER_S).round() as u64).max(1)
}

fn tenant_name(t: usize) -> String {
    format!("t{t:04}")
}

fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("serve.usrvmap")
}

/// A deterministic batch for `tenant` starting at `tick0`: each value sits
/// near one of two centres per dimension, chosen by a seeded hash.
fn batch(seed: u64, tenant: usize, tick0: u64) -> Vec<WirePoint> {
    (0..BATCH as u64)
        .map(|i| {
            let t = tick0 + i;
            let values = (0..DIMS)
                .map(|d| {
                    let h = splitmix64(seed ^ ((tenant as u64) << 32) ^ (t << 8) ^ d as u64);
                    let base = if h & 1 == 0 { 0.0 } else { 8.0 };
                    base + (h >> 8) as f64 / (1u64 << 56) as f64
                })
                .collect();
            WirePoint {
                values,
                errors: vec![0.2; DIMS],
                timestamp: t,
            }
        })
        .collect()
}

/// First tick of run round `round` (warm-up used ticks `1..=WARM*BATCH`).
fn round_tick(round: u64) -> u64 {
    (WARM_BATCHES + round) * BATCH as u64 + 1
}

/// The query a tenant sends after its ingest in `round`.
fn query_for(round: u64, tenant: usize) -> Request {
    let name = tenant_name(tenant);
    if (round + tenant as u64).is_multiple_of(2) {
        Request::TenantStats { name }
    } else {
        Request::HorizonClusters {
            name,
            horizon: HORIZON,
        }
    }
}

/// Writes the warmed tenant map the runs restore from.
pub fn prepare(seed: u64, dir: &Path) -> Result<(), String> {
    let policy = AdmissionPolicy::default();
    let registry = TenantRegistry::new(BUCKETS, policy).map_err(|e| e.to_string())?;
    for t in 0..TENANTS {
        let name = tenant_name(t);
        registry
            .create(&name, TenantSpec::new(N_MICRO, DIMS))
            .map_err(|e| format!("create {name}: {e}"))?;
        for b in 0..WARM_BATCHES {
            registry
                .with_tenant(&name, |tenant| {
                    tenant.ingest(batch(seed, t, b * BATCH as u64 + 1), &policy)
                })
                .map_err(|e| format!("warm {name}: {e}"))?;
        }
    }
    registry
        .checkpoint(&checkpoint_path(dir))
        .map_err(|e| format!("write tenant map: {e}"))?;
    Ok(())
}

/// What one load connection saw.
#[derive(Default)]
struct Tally {
    points: u64,
    accepted: u64,
    ingests: u64,
    queries: u64,
    overloaded: u64,
    unavailable: u64,
    unexpected: u64,
    ingest_ms: Vec<f64>,
    query_ms: Vec<f64>,
    request_ns: u128,
}

impl Tally {
    fn absorb(&mut self, o: Tally) {
        self.points += o.points;
        self.accepted += o.accepted;
        self.ingests += o.ingests;
        self.queries += o.queries;
        self.overloaded += o.overloaded;
        self.unavailable += o.unavailable;
        self.unexpected += o.unexpected;
        self.ingest_ms.extend(o.ingest_ms);
        self.query_ms.extend(o.query_ms);
        self.request_ns += o.request_ns;
    }

    fn requests(&self) -> u64 {
        self.ingests + self.queries
    }
}

/// Times one request; the span (when tracing) is the client's view of it.
fn timed(
    client: &mut ServeClient,
    req: &Request,
    tracer: &mut Tracer,
    parent: SpanId,
    id: u64,
) -> Result<(Response, Duration), String> {
    let t0 = Instant::now();
    let resp = client.request(req).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    tracer.record("serve.client.request", parent, id, t0, t1);
    Ok((resp, t1 - t0))
}

/// One round of one connection: an ingest and a query per tenant.
fn round_trip(
    client: &mut ServeClient,
    tenants: &[usize],
    seed: u64,
    round: u64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let span = tracer.open("serve.client.round", 0, round);
    for &t in tenants {
        let points = batch(seed, t, round_tick(round));
        tally.points += points.len() as u64;
        let req = Request::Ingest {
            name: tenant_name(t),
            points,
        };
        let id = tally.requests() + 1;
        let (resp, dt) = timed(client, &req, tracer, span, id)?;
        tally.ingests += 1;
        tally.request_ns += dt.as_nanos();
        tally.ingest_ms.push(dt.as_secs_f64() * 1e3);
        match resp {
            Response::Ingested { accepted, .. } => tally.accepted += accepted,
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            } => tally.overloaded += 1,
            _ => tally.unexpected += 1,
        }

        let id = tally.requests() + 1;
        let (resp, dt) = timed(client, &query_for(round, t), tracer, span, id)?;
        tally.queries += 1;
        tally.request_ns += dt.as_nanos();
        tally.query_ms.push(dt.as_secs_f64() * 1e3);
        match resp {
            Response::TenantStats { .. } | Response::Clusters { .. } => {}
            Response::Error {
                code: ErrorCode::HorizonUnavailable,
                ..
            } => tally.unavailable += 1,
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            } => tally.overloaded += 1,
            _ => tally.unexpected += 1,
        }
    }
    tracer.close(span);
    Ok(())
}

/// One closed-loop connection over its tenants for `rounds` rounds. Each
/// round starts and ends on `barrier`, so the rounds of all connections
/// form one timed window. After a transport error the connection stops
/// sending but keeps meeting the barrier, so the other threads never
/// wait on it; the error is returned at the end.
fn drive(
    mut client: ServeClient,
    tenants: &[usize],
    seed: u64,
    rounds: u64,
    barrier: &Barrier,
    tracer: &mut Tracer,
    traced: bool,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut failed = None;
    for round in 0..rounds {
        tracer.set_enabled(traces_window(traced, round));
        barrier.wait();
        if failed.is_none() {
            failed = round_trip(&mut client, tenants, seed, round, &mut tally, tracer).err();
        }
        barrier.wait();
    }
    // Stay alive until the last window's closing reading is taken: an
    // exited thread's CPU time leaves the per-thread counters.
    barrier.wait();
    failed.map_or(Ok(tally), Err)
}

/// The outcome of one pass through the real server.
struct ServerPass {
    tally: Tally,
    /// One window per untraced round.
    windows: Windows,
    /// One window per traced round (traced passes only).
    traced_windows: Windows,
    setup_s: Vec<f64>,
    /// Tenants whose point count differs from what they were sent.
    miscounted: Vec<String>,
    tracers: Vec<Tracer>,
}

fn server_config(ckpt: &Path) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        restore_path: Some(ckpt.to_path_buf()),
        ..ServeConfig::default()
    }
}

fn server_pass(
    seed: u64,
    ckpt: &Path,
    rounds: u64,
    setups: usize,
    traced: bool,
) -> Result<ServerPass, String> {
    let mut setup_s = Vec::with_capacity(setups);
    let mut server: Option<Server> = None;
    for _ in 0..setups {
        if let Some(old) = server.take() {
            old.shutdown_drain(Duration::from_secs(60))
                .map_err(|e| format!("drain: {e}"))?;
        }
        let t0 = Instant::now();
        let s = Server::bind("127.0.0.1:0", server_config(ckpt)).map_err(|e| e.to_string())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.ok_or("no setup ran")?;
    let addr = server.addr();

    let barrier = Arc::new(Barrier::new(CONNS + 1));
    let mut handles = Vec::with_capacity(CONNS);
    for c in 0..CONNS {
        let tenants: Vec<usize> = (c..TENANTS).step_by(CONNS).collect();
        let client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut tracer = Tracer::new(false);
            let r = drive(
                client,
                &tenants,
                seed,
                rounds,
                &barrier,
                &mut tracer,
                traced,
            );
            (r, tracer)
        }));
    }
    let mut windows = Windows::default();
    let mut traced_windows = Windows::default();
    for round in 0..rounds {
        let r0 = Reading::now();
        barrier.wait();
        barrier.wait();
        let (wall, cpu, steal) = r0.until(&Reading::now());
        let w = if traces_window(traced, round) {
            &mut traced_windows
        } else {
            &mut windows
        };
        w.push((TENANTS * BATCH) as u64, wall, cpu, steal);
    }
    barrier.wait();
    let mut tally = Tally::default();
    let mut tracers = Vec::new();
    let mut errors = Vec::new();
    for h in handles {
        match h.join() {
            Ok((Ok(t), tr)) => {
                tally.absorb(t);
                tracers.push(tr);
            }
            Ok((Err(e), _)) => errors.push(e),
            Err(_) => errors.push("load thread panicked".into()),
        }
    }

    let expected = (WARM_BATCHES + rounds) * BATCH as u64;
    let mut miscounted = Vec::new();
    for t in 0..TENANTS {
        let name = tenant_name(t);
        let got = server
            .registry()
            .with_tenant(&name, |tenant| tenant.stats().points_processed);
        if got.as_ref().ok() != Some(&expected) {
            miscounted.push(format!("{name}: {got:?} points, expected {expected}"));
        }
    }
    server
        .shutdown_drain(Duration::from_secs(60))
        .map_err(|e| format!("drain: {e}"))?;
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    Ok(ServerPass {
        tally,
        windows,
        traced_windows,
        setup_s,
        miscounted,
        tracers,
    })
}

/// What the in-process replay measured.
struct Replay {
    tracer: Tracer,
    requests: u64,
    ingests: u64,
    queries: u64,
    points: u64,
    req_bytes: u64,
    query_resp_bytes: u64,
}

/// Runs `f` on the named tenant inside a `with_tenant` span whose child is
/// `layer`; the parent's self time is the registry lookup and lock.
fn with_tenant_traced<R>(
    registry: &TenantRegistry,
    name: &str,
    tracer: &mut Tracer,
    parent: SpanId,
    id: u64,
    layer: &'static str,
    f: impl FnOnce(&mut ustream_serve::Tenant) -> R,
) -> Result<R, String> {
    let w = tracer.open("serve.registry.with_tenant", parent, id);
    let out = registry
        .with_tenant(name, |t| {
            let s = tracer.open(layer, w, id);
            let r = f(t);
            tracer.close(s);
            r
        })
        .map_err(|e| format!("{name}: {e}"));
    tracer.close(w);
    out
}

/// Replays the request mix in-process through the serve crate's codec,
/// registry and tenant functions, one span per layer per request.
fn replay(seed: u64, ckpt: &Path, rounds: u64) -> Result<Replay, String> {
    let policy = AdmissionPolicy::default();
    let registry = TenantRegistry::restore(ckpt, BUCKETS, policy).map_err(|e| e.to_string())?;
    let max = DEFAULT_MAX_FRAME_BYTES;
    let mut tracer = Tracer::new(true);
    let mut out = Replay {
        tracer: Tracer::new(false),
        requests: 0,
        ingests: 0,
        queries: 0,
        points: 0,
        req_bytes: 0,
        query_resp_bytes: 0,
    };
    let codec = |e: ustream_serve::FrameError| e.to_string();
    for round in 0..rounds {
        for t in 0..TENANTS {
            for req in [
                Request::Ingest {
                    name: tenant_name(t),
                    points: batch(seed, t, round_tick(round)),
                },
                query_for(round, t),
            ] {
                out.requests += 1;
                let id = out.requests;
                let root = tracer.open("serve.request", 0, id);

                let s = tracer.open("serve.protocol.encode_req", root, id);
                let frame = encode_request(&req, max).map_err(codec)?;
                tracer.close(s);

                let s = tracer.open("serve.protocol.decode_req", root, id);
                let decoded = decode_request(decode_frame(&frame, max).map_err(codec)?);
                tracer.close(s);

                let resp = match decoded.map_err(codec)? {
                    Request::Ingest { name, points } => {
                        out.ingests += 1;
                        out.points += points.len() as u64;
                        out.req_bytes += frame.len() as u64;
                        let o = with_tenant_traced(
                            &registry,
                            &name,
                            &mut tracer,
                            root,
                            id,
                            "serve.tenant.ingest",
                            |tenant| tenant.ingest(points, &policy),
                        )?;
                        Response::Ingested {
                            accepted: o.accepted,
                            sampled_out: o.sampled_out,
                            shed: o.shed,
                            rejected: o.rejected,
                            stage: o.stage.as_u8(),
                        }
                    }
                    Request::TenantStats { name } => {
                        out.queries += 1;
                        let stats = with_tenant_traced(
                            &registry,
                            &name,
                            &mut tracer,
                            root,
                            id,
                            "serve.tenant.query",
                            |tenant| tenant.stats(),
                        )?;
                        Response::TenantStats { stats }
                    }
                    Request::HorizonClusters { name, horizon } => {
                        out.queries += 1;
                        match with_tenant_traced(
                            &registry,
                            &name,
                            &mut tracer,
                            root,
                            id,
                            "serve.tenant.query",
                            |tenant| tenant.horizon_clusters(horizon),
                        )? {
                            Ok((clusters, total_weight)) => Response::Clusters {
                                clusters,
                                total_weight,
                            },
                            Err(e) => Response::Error {
                                code: ErrorCode::HorizonUnavailable,
                                message: e.to_string(),
                            },
                        }
                    }
                    other => return Err(format!("replay built an unexpected {other:?}")),
                };
                let is_query = !matches!(resp, Response::Ingested { .. });

                let s = tracer.open("serve.protocol.encode_resp", root, id);
                let frame = encode_response(&resp, max).map_err(codec)?;
                tracer.close(s);
                if is_query {
                    out.query_resp_bytes += frame.len() as u64;
                }

                let s = tracer.open("serve.protocol.decode_resp", root, id);
                let back = decode_response(decode_frame(&frame, max).map_err(codec)?);
                tracer.close(s);
                back.map_err(codec)?;
                tracer.close(root);
            }
        }
    }
    out.tracer = tracer;
    Ok(out)
}

/// Fills the end-to-end figures (from the untraced windows) and the gates
/// of a server pass.
fn report_e2e(rep: &mut TierReport, pass: &ServerPass) {
    let t = &pass.tally;
    let w = &pass.windows;
    rep.e2e("throughput_pts_s", w.throughput(), "1/s");
    rep.e2e("cpu_us_per_pt", w.cpu_us_per_pt(), "us");
    rep.e2e("setup_s", stats::median(&pass.setup_s).unwrap_or(0.0), "s");
    let ingest = stats::sorted(t.ingest_ms.clone());
    let query = stats::sorted(t.query_ms.clone());
    rep.tail_ms("ingest_p50_ms", stats::percentile(&ingest, 0.5));
    rep.tail_ms("ingest_p99_ms", stats::tail(&ingest, 0.99));
    rep.tail_ms("query_p50_ms", stats::percentile(&query, 0.5));
    rep.tail_ms("query_p99_ms", stats::tail(&query, 0.99));
    rep.notes.push(format!(
        "{} points in {} ingest + {} query requests; round {}; setups {:?} s",
        t.points,
        t.ingests,
        t.queries,
        w.describe(),
        pass.setup_s
    ));

    rep.outcomes.attempted += t.requests();
    rep.outcomes.refused += t.overloaded;
    rep.outcomes.unavailable += t.unavailable;
    rep.outcomes.unanswered += t.unexpected;
    rep.gate(
        "accepted_equals_offered",
        t.accepted == t.points,
        format!("{} accepted of {} offered", t.accepted, t.points),
    );
    rep.gate(
        "tenant_point_counts",
        pass.miscounted.is_empty(),
        match pass.miscounted.first() {
            None => format!("all {TENANTS} tenants hold what they were sent"),
            Some(m) => format!("{} tenants off, first {m}", pass.miscounted.len()),
        },
    );
}

/// Runs the tier: one pass for the end-to-end figures and, when
/// `traced`, client spans on every other round plus the in-process
/// replay for the layers.
pub fn run(
    seed: u64,
    dir: &Path,
    scale: f64,
    traced: bool,
    trace_dir: &Path,
) -> Result<TierReport, String> {
    let ckpt = checkpoint_path(dir);
    let rounds = rounds(scale);
    let mut rep = TierReport::default();
    let base = server_pass(seed, &ckpt, rounds, if traced { 1 } else { SETUPS }, traced)?;
    report_e2e(&mut rep, &base);
    if !traced {
        return Ok(rep);
    }
    rep.notes.push(format!(
        "tracing overhead (client spans; traced against untraced rounds, wall per point): {:+.2}%",
        stats::overhead(
            1.0 / base.windows.throughput(),
            1.0 / base.traced_windows.throughput()
        ) * 100.0
    ));

    let rp = replay(seed, &ckpt, rounds)?;
    let sum = rp.tracer.summary();
    let get = |n: &str| sum.get(n).copied().unwrap_or_default();
    let per = |n: &str, count: u64| get(n).self_ns as f64 / count.max(1) as f64 / 1e3;
    let req = rp.requests;
    let layers = [
        (
            "serve.protocol.encode_req_us",
            per("serve.protocol.encode_req", req),
        ),
        (
            "serve.protocol.decode_req_us",
            per("serve.protocol.decode_req", req),
        ),
        (
            "serve.registry.lookup_us",
            per("serve.registry.with_tenant", req),
        ),
        (
            "serve.tenant.ingest_us",
            per("serve.tenant.ingest", rp.ingests),
        ),
        (
            "serve.tenant.query_us",
            per("serve.tenant.query", rp.queries),
        ),
        (
            "serve.protocol.encode_resp_us",
            per("serve.protocol.encode_resp", req),
        ),
        (
            "serve.protocol.decode_resp_us",
            per("serve.protocol.decode_resp", req),
        ),
    ];
    for (name, v) in layers {
        rep.layer(name, v, "us");
    }
    // Per request, averaged over the whole mix: the layers a request
    // crosses, against the end-to-end time clients saw.
    let e2e_us = base.tally.request_ns as f64 / base.tally.requests().max(1) as f64 / 1e3;
    let layer_us: Vec<f64> = [
        "serve.protocol.encode_req",
        "serve.protocol.decode_req",
        "serve.registry.with_tenant",
        "serve.tenant.ingest",
        "serve.tenant.query",
        "serve.protocol.encode_resp",
        "serve.protocol.decode_resp",
    ]
    .iter()
    .map(|n| per(n, req))
    .collect();
    let acct = Accounting::new(e2e_us, &layer_us);
    rep.layer("serve.transport.residual_us", acct.residual, "us");
    rep.notes.push(format!(
        "accounting per request: end-to-end {:.2} us = layers {:.2} us + transport residual {:.2} us (layers cover {:.1}%); replay glue outside the layers {:.2} us",
        acct.total,
        acct.layers,
        acct.residual,
        acct.covered() * 100.0,
        per("serve.request", req)
    ));
    rep.layer(
        "serve.req_bytes_per_pt",
        rp.req_bytes as f64 / rp.points.max(1) as f64,
        "B",
    );
    rep.layer(
        "serve.resp_bytes_per_query",
        rp.query_resp_bytes as f64 / rp.queries.max(1) as f64,
        "B",
    );
    rep.layer("serve.overloaded", base.tally.overloaded as f64, "count");
    rep.layer(
        "serve.horizon_unavailable",
        base.tally.unavailable as f64,
        "count",
    );
    rp.tracer
        .write_csv(&trace_dir.join("trace-serve-mixed-replay.csv"))
        .map_err(|e| format!("write trace: {e}"))?;
    for (i, t) in base.tracers.iter().enumerate() {
        t.write_csv(&trace_dir.join(format!("trace-serve-mixed-conn{i}.csv")))
            .map_err(|e| format!("write trace: {e}"))?;
    }
    Ok(rep)
}
