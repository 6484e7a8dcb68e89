//! `cluster_resume`: the production topology, with the store written
//! beside read.
//!
//! `router` in front of two `served --workers 1 --cache-dir <tmp>`
//! shards (`ASICGAP_THREADS=1`), **one** client connection to the
//! router. Rounds of five operations per fresh scenario seed:
//!
//! | class | operation | what serves it |
//! |---|---|---|
//! | `cold`   | (a) `RUN` hpwl | compute + `SegmentStore` appends |
//! | `resume` | (b) `RUN` routed, same seed | stage resume from L2 when the ring keeps it on the shard, else recompute |
//! | `hit`    | (c) repeat of (a) | L1, through the router |
//! | `close`  | (d) `CLOSE` at 1.05x (a)'s fmax | `close_timing_staged`, resumes at the place checkpoint |
//! | `hit`    | (e) repeat of (b) | L1, through the router |
//!
//! The only workload that covers the staged flow, the persistent store
//! under writes *and* reads, and the `router` binary.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use asicgap::{run_scenario_staged, ArtifactStore, VerifyLevel, WireModel};
use asicgap_cluster::{Ring, SegmentStore};
use asicgap_serve::client::Client;
use asicgap_serve::proto::{CloseRequest, RunRequest, Source};

use crate::children::{build_servers, Daemon, TempDir};
use crate::gen::RoundStream;
use crate::probes::{self, Layer};
use crate::run::{
    check_closure_text, check_outcome_text, setup_median, Measured, RunConfig, Tally, Window,
};
use crate::stats;
use crate::trace::{OpTrace, Tracer};
use crate::workloads::flow_cold::CLOSE_STRETCH;
use crate::workloads::serve_warm::{
    connect, fresh_text, outcome, run_once, stats_metrics, SHUTDOWN_PATIENCE,
};
use crate::workloads::Counts;

const SHARDS: [&str; 2] = ["s0", "s1"];

/// The autopilot move budget of a `CLOSE` (the protocol's default).
const MAX_MOVES: u32 = 64;

struct Setup {
    // Field order is drop order: the client and the children go before
    // the directory the shards write into.
    client: Client,
    router: Daemon,
    shards: Vec<Daemon>,
    _dir: TempDir,
}

fn set_up(served: &Path, router: &Path, seed: u64) -> Result<Setup, String> {
    let dir = TempDir::new()?;
    let mut shards = Vec::new();
    let mut router_args = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
    for name in SHARDS {
        let cache_dir = dir.path().join(name);
        let args = [
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--shard",
            name,
            "--cache-dir",
            cache_dir.to_str().ok_or("non-UTF-8 scratch path")?,
        ]
        .map(String::from);
        let shard = Daemon::spawn(served, "served", &args, 1)?;
        router_args.push("--shard".to_string());
        router_args.push(format!("{name}={}", shard.addr));
        shards.push(shard);
    }
    let router = Daemon::spawn(router, "router", &router_args, 1)?;
    let mut client = connect(router.addr)?;
    // Warm-up: one round from a stream of its own.
    let warm = RoundStream::new(!seed).next().expect("endless");
    let mut scratch = Tally::new(0);
    round(
        &mut client,
        &warm,
        0,
        &mut scratch,
        None,
        &mut Classes::default(),
    );
    match scratch.problems.first() {
        Some(p) => Err(format!("warm-up round failed: {p}")),
        None => Ok(Setup {
            client,
            router,
            shards,
            _dir: dir,
        }),
    }
}

/// Latencies by operation class, ms.
#[derive(Default)]
struct Classes {
    cold: Vec<f64>,
    resume: Vec<f64>,
    hit: Vec<f64>,
    close: Vec<f64>,
}

/// What a round's later checks and counts need from its replies.
struct RoundReplies {
    hpwl: String,
    routed: String,
    /// (moves, proofs, closed) of the `CLOSE`, when it succeeded.
    closure: Option<(usize, usize, bool)>,
}

/// One timed, booked operation. `f` does the call and its checks and
/// returns the reply bytes.
fn op(
    tally: &mut Tally,
    class: &mut Vec<f64>,
    trace: OpTrace,
    f: impl FnOnce() -> Result<String, String>,
) -> Option<String> {
    let started = Instant::now();
    let result = f();
    trace.end();
    if result.is_ok() {
        class.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let reply = result.as_ref().ok().cloned();
    tally.book(started, result.map(|_| ()));
    if let Some(text) = &reply {
        tally.digest.push(text);
    }
    reply
}

/// One round of five operations on `base` (an unverified HPWL request).
/// A failed (a) or (b) skips the operations that depend on its reply.
fn round(
    client: &mut Client,
    base: &RunRequest,
    index: u64,
    tally: &mut Tally,
    tracer: Option<&Tracer>,
    classes: &mut Classes,
) -> Option<RoundReplies> {
    let routed = RunRequest {
        wire_model: WireModel::Routed,
        ..base.clone()
    };
    let traced = |k: u64, name| OpTrace::begin(tracer, index * 5 + k, name);
    let computed = |client: &mut Client, req: &RunRequest| {
        let (source, text) = run_once(client, req)?;
        if source == Source::Cache {
            return Err("a fresh key was answered from cache".to_string());
        }
        check_outcome_text(&text)?;
        Ok(text)
    };
    let hit = |client: &mut Client, req: &RunRequest, want: &str| {
        let (source, text) = run_once(client, req)?;
        if source != Source::Cache {
            return Err(format!("repeat answered from {}", source.name()));
        }
        if text != want {
            return Err("repeat differs from the first reply".to_string());
        }
        Ok(text)
    };

    let a = op(tally, &mut classes.cold, traced(0, "cluster.cold"), || {
        computed(client, base)
    })?;
    let b = op(
        tally,
        &mut classes.resume,
        traced(1, "cluster.resume"),
        || computed(client, &routed),
    );
    op(tally, &mut classes.hit, traced(2, "cluster.hit"), || {
        hit(client, base, &a)
    });
    let mut closure = None;
    op(
        tally,
        &mut classes.close,
        traced(3, "cluster.close"),
        || {
            let fmax = check_outcome_text(&a)?.min_period.frequency().value();
            let req = CloseRequest {
                run: base.clone(),
                target_mhz: fmax * CLOSE_STRETCH,
                max_moves: MAX_MOVES,
            };
            let (_, text) = outcome(client.close(req))?;
            let trace = check_closure_text(&text)?;
            closure = Some((trace.moves(), trace.proofs(), trace.verdict.closed()));
            Ok(text)
        },
    );
    let b = b?;
    op(tally, &mut classes.hit, traced(4, "cluster.hit"), || {
        hit(client, &routed, &b)
    });
    Some(RoundReplies {
        hpwl: a,
        routed: b,
        closure,
    })
}

pub fn run(cfg: &RunConfig) -> Result<Measured, String> {
    let (served, router) = build_servers()?;
    let (mut setup, setup_s) = setup_median(|| set_up(&served, &router, cfg.seed))?;

    let tracer = cfg.trace.then(Tracer::new);
    let window = Window::open(cfg);
    let mut tally = Tally::new(cfg.workload.digest_replies());
    let mut classes = Classes::default();
    let mut counts = Counts::default();
    let mut first: Option<(RunRequest, RoundReplies)> = None;
    let mut bases = Vec::new();
    let mut stream = RoundStream::new(cfg.seed);
    let mut index = 0;
    while window.running() {
        let base = stream.next().expect("the stream is endless");
        let replies = round(
            &mut setup.client,
            &base,
            index,
            &mut tally,
            tracer.as_ref(),
            &mut classes,
        );
        if let Some(replies) = replies {
            if (index as usize) < cfg.workload.digest_replies() / 5 {
                for text in [&replies.hpwl, &replies.routed] {
                    counts.add_outcome(&check_outcome_text(text).expect("checked in round"));
                }
                if let Some((moves, proofs, closed)) = replies.closure {
                    counts.add_closure(moves, proofs, closed);
                }
            }
            first.get_or_insert((base.clone(), replies));
        }
        bases.push(base);
        index += 1;
    }
    let elapsed_s = window.elapsed_s();

    // However served — routed, staged, resumed from the segment store —
    // the bytes must be the ones the library computes in-process.
    if let Some((base, replies)) = &first {
        let routed = RunRequest {
            wire_model: WireModel::Routed,
            ..base.clone()
        };
        if fresh_text(base)? != replies.hpwl || fresh_text(&routed)? != replies.routed {
            tally.problem("cluster reply differs from the in-process flow".to_string());
        }
    }
    let stats = setup
        .client
        .stats()
        .map_err(|e| format!("final STATS: {e}"))?;
    if stats.errors != 0 || stats.busy_rejections != 0 {
        tally.problem(format!(
            "shards counted {} errors, {} busy rejections",
            stats.errors, stats.busy_rejections
        ));
    }

    let mut layer = Layer::new();
    if cfg.trace {
        stats_metrics(&mut layer, &stats);
        counts.report(&mut layer);
        let p50 = |v: &[f64]| stats::median(&stats::sorted(v.to_vec()));
        layer.insert("cluster.cold_p50_ms", p50(&classes.cold));
        layer.insert("cluster.resume_p50_ms", p50(&classes.resume));
        layer.insert("cluster.hit_p50_ms", p50(&classes.hit));
        layer.insert("cluster.close_p50_ms", p50(&classes.close));
        let budget = Duration::from_secs_f64(cfg.seconds / 2.0 / 8.0);
        if let Some((base, _)) = &first {
            hop_probe(&mut layer, budget, &mut setup, base)?;
        }
        store_probes(&mut layer, budget, &bases)?;
    }

    let peak_rss_mb = setup
        .shards
        .iter()
        .chain([&setup.router])
        .map(Daemon::peak_rss_mb)
        .fold(0.0, f64::max);
    let Setup {
        client,
        router,
        shards,
        _dir,
    } = setup;
    drop(client);
    // SHUTDOWN through the router reaches the shards first, then it.
    let mut clean = router.shutdown(SHUTDOWN_PATIENCE);
    for shard in shards {
        clean &= shard.shutdown(Duration::from_millis(500));
    }
    if !clean {
        tally.problem("a child did not exit after SHUTDOWN".to_string());
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

/// A hit through the router against the same hit straight at a shard:
/// `serve.hit_rtt_us` (direct) and `serve.router_hop_us` (the extra).
fn hop_probe(
    layer: &mut Layer,
    budget: Duration,
    setup: &mut Setup,
    req: &RunRequest,
) -> Result<(), String> {
    let mut direct = connect(setup.shards[0].addr)?;
    // Whichever shard owns the key, after this both hold it in L1.
    run_once(&mut direct, req)?;
    let direct_s = probes::time(budget, 15, || run_once(&mut direct, req));
    let routed_s = probes::time(budget, 15, || run_once(&mut setup.client, req));
    layer.insert("serve.hit_rtt_us", direct_s * 1e6);
    layer.insert("serve.router_hop_us", (routed_s - direct_s).max(0.0) * 1e6);
    Ok(())
}

/// An `ArtifactStore` that times the `SegmentStore` behind it.
struct TimedStore {
    inner: SegmentStore,
    /// (seconds in `put`, bytes put, seconds in hitting `get`s, hits).
    book: Mutex<(f64, usize, f64, usize)>,
}

impl ArtifactStore for TimedStore {
    fn get(&self, key: &str) -> Option<String> {
        let t = Instant::now();
        let value = self.inner.get(key);
        let dt = t.elapsed().as_secs_f64();
        if value.is_some() {
            let mut book = self.book.lock().expect("book lock");
            book.2 += dt;
            book.3 += 1;
        }
        value
    }

    fn put(&self, key: &str, value: &str) {
        let t = Instant::now();
        self.inner.put(key, value);
        let dt = t.elapsed().as_secs_f64();
        let mut book = self.book.lock().expect("book lock");
        book.0 += dt;
        book.1 += key.len() + value.len();
    }
}

/// The segment store under the staged flow of the workload's own
/// requests: cold (all `put`s), then the routed variant (`get`s of the
/// shared prefix), then a recovery scan of what was written.
fn store_probes(layer: &mut Layer, budget: Duration, bases: &[RunRequest]) -> Result<(), String> {
    let dir = TempDir::new()?;
    let open = || SegmentStore::open(dir.path()).map_err(|e| format!("segment store: {e}"));
    let store = TimedStore {
        inner: open()?,
        book: Mutex::new((0.0, 0, 0.0, 0)),
    };
    let started = Instant::now();
    for base in bases.iter().take(8) {
        for wire_model in [WireModel::Hpwl, WireModel::Routed] {
            let req = RunRequest {
                wire_model,
                ..base.clone()
            };
            run_scenario_staged(&req.scenario(), &req.workload, VerifyLevel::Off, &store)
                .map_err(|e| format!("staged flow: {e}"))?;
        }
        if started.elapsed() > budget * 4 {
            break;
        }
    }
    let TimedStore { inner, book } = store;
    let (put_s, put_bytes, get_s, gets) = book.into_inner().expect("book lock");
    if put_s > 0.0 {
        layer.insert("cluster.store_put_mb_per_s", put_bytes as f64 / 1e6 / put_s);
    }
    if gets > 0 {
        layer.insert("cluster.store_get_us", get_s / gets as f64 * 1e6);
    }
    drop(inner);
    // Without its index sidecar, `open` must scan and CRC-check the
    // whole segment: the recovery path.
    let open_s = probes::time_with(
        budget,
        9,
        || {
            let _ = std::fs::remove_file(dir.path().join("artifacts.idx"));
        },
        |()| open(),
    );
    layer.insert("cluster.store_open_ms", open_s * 1e3);
    layer.insert("cluster.store_bytes", open()?.stats().segment_bytes as f64);

    let ring = Ring::new(SHARDS).ok_or("ring needs members")?;
    let keys: Vec<String> = bases.iter().map(RunRequest::canonical_key).collect();
    if !keys.is_empty() {
        let place_s = probes::time_batched(budget, keys.len(), |i| ring.place_index(&keys[i]));
        layer.insert("cluster.ring_place_ns", place_s * 1e9);
    }
    Ok(())
}
