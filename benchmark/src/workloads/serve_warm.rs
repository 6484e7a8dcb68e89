//! `serve_warm`: L1 hits through one `served` daemon.
//!
//! One `served --workers 1` child, `T` client connections, one request
//! in flight on each. Set-up prefills 64 keys; the window is then 90 %
//! `RUN` (every one an L1 hit), 5 % `PING`, 5 % `STATS`. The connection
//! layer — `proto` codec, the event loop's `IDLE_PARK`, `sched`, `cache`
//! — is the whole cost and the flow engines never run: ROADMAP 3d and
//! the connection-layer merge of item 2 show here, and engine work must
//! not move it.
//!
//! The harness talks through `asicgap_serve::Client`, the repository's
//! own client, so what is measured is what a user of that client sees.

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use asicgap::{content_hash, run_scenario_verified};
use asicgap_serve::client::{Client, ClientError};
use asicgap_serve::metrics::MetricsSnapshot;
use asicgap_serve::proto::{parse_frame, write_frame, Request, Response, RunRequest, Source};
use asicgap_serve::sched::{Admission, Scheduler};
use asicgap_serve::ResultCache;

use crate::children::{build_servers, Daemon};
use crate::gen::{warm_keys, WarmOp, WarmStream};
use crate::probes::{self, Layer};
use crate::run::{check_outcome_text, setup_median, threads, Measured, RunConfig, Tally, Window};
use crate::stats;
use crate::trace::{OpTrace, Tracer};

/// Hits each connection makes before the window opens.
const WARM_UP_HITS: usize = 4;

/// How long a child gets to exit after `SHUTDOWN`.
pub const SHUTDOWN_PATIENCE: Duration = Duration::from_secs(5);

pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_retry(addr, Duration::from_secs(5)).map_err(|e| format!("connect {addr}: {e}"))
}

/// What `Client::run` and `Client::close` return, insisting on an
/// outcome: the workloads never load a daemon enough to expect `BUSY`.
pub fn outcome(
    reply: Result<Result<(Source, String), u32>, ClientError>,
) -> Result<(Source, String), String> {
    match reply {
        Ok(Ok(done)) => Ok(done),
        Ok(Err(retry_ms)) => Err(format!("BUSY (retry after {retry_ms} ms)")),
        Err(e) => Err(e.to_string()),
    }
}

pub fn run_once(client: &mut Client, req: &RunRequest) -> Result<(Source, String), String> {
    outcome(client.run(req.clone()))
}

/// The in-process answer to `req`, for the served-vs-fresh identity.
pub fn fresh_text(req: &RunRequest) -> Result<String, String> {
    run_scenario_verified(&req.scenario(), |lib| req.workload.build(lib), req.verify)
        .map(|o| o.canonical_text())
        .map_err(|e| format!("in-process flow: {e}"))
}

struct Setup {
    daemon: Daemon,
    clients: Vec<Client>,
    keys: Vec<RunRequest>,
    /// Reply bytes of each key as first computed by the daemon.
    expected: Vec<String>,
}

fn set_up(served: &Path, seed: u64) -> Result<Setup, String> {
    let t = threads();
    let args = ["--addr", "127.0.0.1:0", "--workers", "1"].map(String::from);
    let daemon = Daemon::spawn(served, "served", &args, t)?;
    let mut clients = (0..t)
        .map(|_| connect(daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let keys = warm_keys(seed);
    // Prefill in parallel, connection c taking keys c, c+T, ...
    let filled: Vec<Result<Vec<(usize, String)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let keys = &keys;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in (c..keys.len()).step_by(t) {
                        let (_, text) = run_once(client, &keys[i])?;
                        check_outcome_text(&text)?;
                        mine.push((i, text));
                    }
                    for i in (c..keys.len()).step_by(t).take(WARM_UP_HITS) {
                        run_once(client, &keys[i])?;
                    }
                    Ok(mine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prefill thread"))
            .collect()
    });
    let mut expected = vec![String::new(); keys.len()];
    for part in filled {
        for (i, text) in part? {
            expected[i] = text;
        }
    }
    Ok(Setup {
        daemon,
        clients,
        keys,
        expected,
    })
}

/// One connection's closed loop over the window.
fn client_loop(
    c: usize,
    client: &mut Client,
    setup_keys: &[RunRequest],
    expected: &[String],
    cfg: &RunConfig,
    window: Window,
    tracer: Option<&Tracer>,
) -> (Tally, Vec<f64>, Vec<f64>) {
    // Only connection 0 feeds the digest: its stream does not depend on T.
    let mut tally = Tally::new(if c == 0 {
        cfg.workload.digest_replies()
    } else {
        0
    });
    let (mut hit_ms, mut ping_ms) = (Vec::new(), Vec::new());
    let mut stream = WarmStream::new(cfg.seed, c);
    while window.running() {
        let op = stream.next().expect("the stream is endless");
        let id = ((c as u64) << 32) | tally.attempted;
        let trace = OpTrace::begin(
            tracer,
            id,
            match op {
                WarmOp::Hit(_) => "serve.client.run",
                WarmOp::Ping => "serve.client.ping",
                WarmOp::Stats => "serve.client.stats",
            },
        );
        let started = Instant::now();
        let result = match op {
            WarmOp::Hit(i) => run_once(client, &setup_keys[i]).and_then(|(source, text)| {
                if source != Source::Cache {
                    return Err(format!("prefilled key answered from {}", source.name()));
                }
                if text != expected[i] {
                    return Err("cached reply differs from the computed one".to_string());
                }
                tally.digest.push(&text);
                Ok(())
            }),
            WarmOp::Ping => client.ping().map_err(|e| e.to_string()).map(|()| {
                tally.digest.push("PONG");
            }),
            // `Client::stats` strict-parses the snapshot.
            WarmOp::Stats => client.stats().map(|_| ()).map_err(|e| e.to_string()),
        };
        trace.end();
        if result.is_ok() {
            let ms = started.elapsed().as_secs_f64() * 1e3;
            match op {
                WarmOp::Hit(_) => hit_ms.push(ms),
                WarmOp::Ping => ping_ms.push(ms),
                WarmOp::Stats => {}
            }
        }
        tally.book(started, result);
    }
    (tally, hit_ms, ping_ms)
}

pub fn run(cfg: &RunConfig) -> Result<Measured, String> {
    let (served, _) = build_servers()?;
    let (mut setup, setup_s) = setup_median(|| set_up(&served, cfg.seed))?;

    let tracer = cfg.trace.then(Tracer::new);
    let window = Window::open(cfg);
    let parts: Vec<(Tally, Vec<f64>, Vec<f64>)> = std::thread::scope(|s| {
        let (keys, expected, tracer) = (&setup.keys, &setup.expected, tracer.as_ref());
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || client_loop(c, client, keys, expected, cfg, window, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = window.elapsed_s();
    let mut parts = parts.into_iter();
    let (mut tally, mut hit_ms, mut ping_ms) = parts.next().expect("T >= 1");
    for (t, h, p) in parts {
        tally.merge(t);
        hit_ms.extend(h);
        ping_ms.extend(p);
    }

    // However served: the daemon's first answer must be the bytes the
    // library computes in-process.
    if fresh_text(&setup.keys[0])? != setup.expected[0] {
        tally.problem("served reply differs from the in-process flow".to_string());
    }
    let stats = setup.clients[0]
        .stats()
        .map_err(|e| format!("final STATS: {e}"))?;
    if stats.errors != 0 || stats.busy_rejections != 0 {
        tally.problem(format!(
            "daemon counted {} errors, {} busy rejections",
            stats.errors, stats.busy_rejections
        ));
    }

    let mut layer = Layer::new();
    if cfg.trace {
        stats_metrics(&mut layer, &stats);
        let hit_us = stats::median(&stats::sorted(hit_ms)) * 1e3;
        layer.insert("serve.hit_rtt_us", hit_us);
        layer.insert(
            "serve.ping_rtt_us",
            stats::median(&stats::sorted(ping_ms)) * 1e3,
        );
        let budget = Duration::from_secs_f64(cfg.seconds / 2.0 / 10.0);
        direct_probes(&mut layer, budget, &setup.keys, &setup.expected);
        let sched_hit_us = layer.get("serve.sched_hit_us").copied().unwrap_or(0.0);
        layer.insert("serve.conn_overhead_us", (hit_us - sched_hit_us).max(0.0));
    }

    let peak_rss_mb = setup.daemon.peak_rss_mb();
    drop(setup.clients);
    if !setup.daemon.shutdown(SHUTDOWN_PATIENCE) {
        tally.problem("served did not exit after SHUTDOWN".to_string());
    }
    Ok(Measured {
        tally,
        elapsed_s,
        setup_s,
        peak_rss_mb,
        layer,
        spans: tracer.map(Tracer::into_spans).unwrap_or_default(),
    })
}

/// The per-layer metrics a `STATS` snapshot answers.
pub fn stats_metrics(layer: &mut Layer, stats: &MetricsSnapshot) {
    layer.insert("serve.l1_hit_rate", stats.hit_rate());
    layer.insert("serve.l2_hit_rate", stats.l2_hit_rate());
    layer.insert("serve.stage_hit_rate", stats.stage_hit_rate());
    layer.insert("serve.dedup_joins", stats.dedup_joins as f64);
    layer.insert("serve.busy_rejections", stats.busy_rejections as f64);
    layer.insert("serve.queue_depth_p50", stats.queue_depth_hist.p50() as f64);
}

/// The serve layers below the socket, each called directly.
fn direct_probes(layer: &mut Layer, budget: Duration, keys: &[RunRequest], expected: &[String]) {
    let request = Request::Run(keys[0].clone()).encode();
    let reply = Response::Outcome {
        source: Source::Cache,
        text: expected[0].clone(),
    }
    .encode();

    let mut wire = Vec::with_capacity(reply.len() + 4);
    let encode_s = probes::time_batched(budget, 256, |_| {
        wire.clear();
        write_frame(&mut wire, &reply)
    });
    layer.insert("serve.frame_encode_ns", encode_s * 1e9);
    let parse_s = probes::time_batched(budget, 256, |_| parse_frame(&wire));
    layer.insert("serve.frame_parse_ns", parse_s * 1e9);
    let decode_s = probes::time_batched(budget, 256, |_| Request::decode(&request));
    layer.insert("serve.request_decode_us", decode_s * 1e6);

    // The L1 cache, holding the workload's own 64 replies.
    let cache = ResultCache::new(16 << 20);
    let entries: Vec<(u64, String)> = keys
        .iter()
        .map(|k| {
            let key = k.canonical_key();
            (content_hash(&key), key)
        })
        .collect();
    let insert_s = probes::time_batched(budget, entries.len(), |i| {
        cache.insert(entries[i].0, &entries[i].1, &expected[i]);
    });
    layer.insert("serve.cache_insert_ns", insert_s * 1e9);
    let get_s = probes::time_batched(budget, entries.len(), |i| {
        cache.get(entries[i].0, &entries[i].1)
    });
    layer.insert("serve.cache_get_ns", get_s * 1e9);

    // A hit without a socket: `Scheduler::submit` of a cached key.
    let sched = Scheduler::start(1, 8, 16 << 20);
    if let Admission::Submitted(job) = sched.submit(keys[0].clone()) {
        black_box(job.wait()).ok();
    }
    let hit_s = probes::time_batched(budget, 256, |_| {
        matches!(sched.submit(keys[0].clone()), Admission::Cached(_))
    });
    layer.insert("serve.sched_hit_us", hit_s * 1e6);
    sched.shutdown();
    sched.join();
}
