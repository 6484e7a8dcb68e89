//! Multi-process cluster tests: real `served` and `router` binaries on
//! loopback sockets, driven over the wire.
//!
//! The contracts under test:
//!
//! - **Byte-identity across shards.** Flow replies are deterministic,
//!   so the same request answered by shard A, shard B, or the router
//!   (whichever shard it places the key on) is byte-for-byte identical
//!   — the ring is a cache-locality optimization, never a correctness
//!   dependency.
//! - **Stage-granular reuse.** A request differing from a warm one only
//!   in wire model reuses the synth/pipeline/place checkpoints and
//!   recomputes route onward, observable in the `STATS` stage-cache
//!   counters, with the reply still byte-identical to a cold run.
//! - **Persistence.** With `--cache-dir`, outcomes and checkpoints
//!   survive a graceful restart (served from L2) and a `kill -9`
//!   mid-work (recovery truncates at most a torn tail; every committed
//!   artifact is served byte-identically afterwards).
//! - **The router's connection rules.** Pipelined requests on one
//!   socket are answered in request order; a malformed frame is
//!   answered with `ERROR` on a connection that stays usable; an
//!   oversized header costs only its own connection; a shard killed
//!   with `kill -9` is answered `ERROR … unreachable` within a bounded
//!   wait while the survivor keeps serving; a request whose shard
//!   connection dies is resent once on a fresh one, then answered
//!   unreachable; concurrent clients get identical bytes.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use asicgap::{VerifyLevel, WireModel, WorkloadSpec};
use asicgap_cluster::Ring;
use asicgap_serve::client::{Client, ClientError};
use asicgap_serve::proto::{
    read_frame, write_frame, Request, Response, RunRequest, ScenarioPreset, Source, MAX_FRAME,
};

/// A spawned daemon/router child; killed on drop so a failing test
/// doesn't leak processes.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn(bin: &str, banner: &str, args: &[&str]) -> Daemon {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read banner");
    let addr = line
        .trim()
        .strip_prefix(banner)
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .parse()
        .expect("banner address");
    Daemon { child, addr }
}

fn spawn_served(args: &[&str]) -> Daemon {
    let mut full = vec!["--addr", "127.0.0.1:0", "--workers", "2"];
    full.extend_from_slice(args);
    spawn(env!("CARGO_BIN_EXE_served"), "served listening on ", &full)
}

fn spawn_router(shards: &[(&str, SocketAddr)]) -> Daemon {
    let mut args: Vec<String> = vec!["--addr".into(), "127.0.0.1:0".into()];
    for (name, addr) in shards {
        args.push("--shard".into());
        args.push(format!("{name}={addr}"));
    }
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    spawn(env!("CARGO_BIN_EXE_router"), "router listening on ", &args)
}

fn connect(daemon: &Daemon) -> Client {
    Client::connect_retry(daemon.addr, Duration::from_secs(5)).expect("connect")
}

/// What every shard *must* return for `req`, computed in-process.
fn local_text(req: &RunRequest) -> String {
    let scenario = req.scenario();
    asicgap::run_scenario_verified(&scenario, |lib| req.workload.build(lib), req.verify)
        .expect("local flow")
        .to_string()
}

fn small(seed: u64) -> RunRequest {
    RunRequest {
        seed,
        ..RunRequest::small()
    }
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("asicgap-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn any_shard_and_the_router_serve_identical_bytes() {
    let shard_a = spawn_served(&[]);
    let shard_b = spawn_served(&[]);
    let router = spawn_router(&[("a", shard_a.addr), ("b", shard_b.addr)]);

    let mut via_a = connect(&shard_a);
    let mut via_b = connect(&shard_b);
    let mut via_r = connect(&router);
    via_r.ping().expect("router answers ping locally");

    // Several keys so both ring directions almost surely occur; every
    // path returns the same bytes as an in-process run.
    for seed in [11u64, 12, 13, 14] {
        let req = small(seed);
        let expected = local_text(&req);
        for (who, client) in [("a", &mut via_a), ("b", &mut via_b), ("router", &mut via_r)] {
            let (_, text) = client.run_retry(req.clone(), 1000).expect("run");
            assert_eq!(text, expected, "divergent bytes via {who}, seed {seed}");
        }
    }

    // LOAD through the router reaches every shard, so a later RUN for
    // that design works wherever the ring places it — and directly on
    // either shard.
    {
        use asicgap::cells::LibrarySpec;
        use asicgap::frontend::DesignFormat;
        use asicgap::netlist::{generators, yosys_json};
        use asicgap::tech::Technology;
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let design = generators::alu(&lib, 4).expect("alu4");
        let payload = yosys_json::to_yosys_json(&design, &lib);
        let spec = via_r
            .load(DesignFormat::YosysJson, payload)
            .expect("router broadcasts LOAD");
        let mut req = small(21);
        req.workload = WorkloadSpec::parse(&spec).expect("spec parses");
        let (_, through_router) = via_r.run_retry(req.clone(), 1000).expect("run via router");
        let (_, on_a) = via_a.run_retry(req.clone(), 1000).expect("run on a");
        let (_, on_b) = via_b.run_retry(req, 1000).expect("run on b");
        assert_eq!(through_router, on_a);
        assert_eq!(on_a, on_b, "loaded design must serve identically");
    }

    // Router STATS is the merge of both shards.
    let merged = via_r.stats().expect("merged stats");
    let a = via_a.stats().expect("stats a");
    let b = via_b.stats().expect("stats b");
    assert!(merged.requests >= a.requests.max(b.requests));
    assert_eq!(
        merged.busy_rejections,
        a.busy_rejections + b.busy_rejections
    );

    // SHUTDOWN through the router drains the whole cluster.
    drop(via_a);
    drop(via_b);
    via_r.shutdown().expect("cluster shutdown");
    for mut d in [shard_a, shard_b, router] {
        let status = d.child.wait().expect("child exits");
        assert!(status.success(), "clean exit, got {status:?}");
    }
}

#[test]
fn stage_checkpoints_are_reused_across_wire_models_and_restarts() {
    let dir = fresh_dir("stage");
    let dir_arg = dir.to_str().expect("utf-8 temp path");

    let first = spawn_served(&["--cache-dir", dir_arg, "--shard", "solo"]);
    let mut client = connect(&first);

    // Cold run, then the acceptance golden: the same request except for
    // the wire model. Everything upstream of routing is reused.
    let cold = RunRequest {
        wire_model: WireModel::Hpwl,
        ..small(31)
    };
    let warm = RunRequest {
        wire_model: WireModel::Routed,
        ..small(31)
    };
    let (s1, _) = client.run_retry(cold, 1000).expect("cold run");
    assert_eq!(s1, Source::Computed);
    let (s2, warm_text) = client.run_retry(warm.clone(), 1000).expect("warm run");
    assert_eq!(s2, Source::Computed, "different key: not an outcome hit");
    assert_eq!(
        warm_text,
        local_text(&warm),
        "resumed run stays byte-identical"
    );

    let stats = client.stats().expect("stats");
    let by_name: std::collections::HashMap<_, _> = asicgap_serve::STAGE_CACHE_NAMES
        .iter()
        .copied()
        .zip(stats.stage_cache)
        .collect();
    assert_eq!(by_name["synth"].0, 1, "synth checkpoint hit: {stats}");
    assert_eq!(by_name["place"].0, 1, "place checkpoint hit: {stats}");
    assert_eq!(by_name["route"], (0, 2), "route recomputed both times");
    assert!(stats.stage_hit_rate() > 0.0);

    // Graceful restart on the same cache dir: the outcome comes back
    // from the persistent L2 with identical bytes.
    client.shutdown().expect("shutdown");
    let mut first = first;
    assert!(first.child.wait().expect("exit").success());

    let second = spawn_served(&["--cache-dir", dir_arg]);
    let mut client = connect(&second);
    let (s3, text3) = client.run_retry(warm, 1000).expect("post-restart run");
    assert_eq!(s3, Source::Cache, "outcome must survive the restart");
    assert_eq!(text3, warm_text);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.l2_hits, 1, "restart hit came from L2: {stats}");
    client.shutdown().expect("shutdown");
    let mut second = second;
    assert!(second.child.wait().expect("exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_nine_mid_work_loses_no_committed_artifact() {
    let dir = fresh_dir("kill");
    let dir_arg = dir.to_str().expect("utf-8 temp path");

    let victim = spawn_served(&["--cache-dir", dir_arg]);
    let mut client = connect(&victim);

    // Commit one outcome, then SIGKILL the daemon while a heavier
    // request is mid-flow (appending checkpoints as it goes).
    let committed = small(41);
    let (_, committed_text) = client.run_retry(committed.clone(), 1000).expect("commit");
    let doomed = RunRequest {
        preset: ScenarioPreset::BestPracticeAsic,
        wire_model: WireModel::Routed,
        verify: VerifyLevel::Full,
        workload: WorkloadSpec::KoggeStoneAdder { width: 8 },
        ..small(42)
    };
    let mut victim = victim;
    let killer = std::thread::spawn({
        let mut client = connect(&victim);
        move || {
            // Races the kill on purpose; either error or reply is fine.
            let _ = client.run(doomed);
        }
    });
    std::thread::sleep(Duration::from_millis(30));
    victim.child.kill().expect("SIGKILL");
    let _ = victim.child.wait();
    killer.join().expect("killer thread");

    // Recovery: reopen the same dir. Every committed artifact survives
    // (the first outcome is an L2 hit with identical bytes); at most a
    // torn tail was truncated, and nothing torn is ever served.
    let revived = spawn_served(&["--cache-dir", dir_arg]);
    let mut client = connect(&revived);
    let (source, text) = client.run_retry(committed, 1000).expect("recovered run");
    assert_eq!(
        source,
        Source::Cache,
        "committed outcome must survive kill -9"
    );
    assert_eq!(text, committed_text, "recovered bytes are identical");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.l2_hits, 1, "{stats}");
    client.shutdown().expect("shutdown");
    let mut revived = revived;
    assert!(revived.child.wait().expect("exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two shards named `a` and `b` behind one router.
fn cluster_of_two() -> (Daemon, Daemon, Daemon) {
    let a = spawn_served(&[]);
    let b = spawn_served(&[]);
    let router = spawn_router(&[("a", a.addr), ("b", b.addr)]);
    (a, b, router)
}

/// A raw socket to `daemon` whose reads give up after a minute, so a
/// hung reply fails the test instead of wedging it.
fn raw(daemon: &Daemon) -> TcpStream {
    let stream = TcpStream::connect(daemon.addr).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    stream
}

/// One frame: 4-byte big-endian length, then `body`.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut bytes = u32::try_from(body.len())
        .expect("small body")
        .to_be_bytes()
        .to_vec();
    bytes.extend_from_slice(body);
    bytes
}

fn read_reply(stream: &mut TcpStream) -> Response {
    let body = read_frame(stream).expect("read").expect("a reply frame");
    Response::decode(&body).expect("reply decodes")
}

/// The first seed from 100 on whose request the ring places on `shard`.
fn seed_on(shard: usize) -> u64 {
    let ring = Ring::new(["a", "b"]).expect("two members");
    (100..)
        .find(|&seed| ring.place_index(&small(seed).canonical_key()) == shard)
        .expect("both shards own some key")
}

#[test]
fn the_router_answers_pipelined_requests_in_order() {
    let (_a, _b, router) = cluster_of_two();
    let seeds: Vec<u64> = (51..59).collect();
    let mut bodies: Vec<String> = seeds
        .iter()
        .map(|&seed| Request::Run(small(seed)).encode())
        .collect();
    bodies.insert(4, Request::Ping.encode());
    // Every request leaves in one write, before any reply is read.
    let mut stream = raw(&router);
    let burst: Vec<u8> = bodies.iter().flat_map(|b| frame(b.as_bytes())).collect();
    stream.write_all(&burst).expect("write burst");
    let mut replies = (0..bodies.len()).map(|_| read_reply(&mut stream));
    for (i, &seed) in seeds.iter().enumerate() {
        if i == 4 {
            assert_eq!(replies.next(), Some(Response::Pong), "PING keeps its place");
        }
        match replies.next().expect("one reply per request") {
            Response::Outcome { text, .. } => {
                assert_eq!(text, local_text(&small(seed)), "reply {i} out of order")
            }
            other => panic!("seed {seed}: expected OUTCOME, got {other:?}"),
        }
    }
}

#[test]
fn the_router_answers_a_malformed_frame_and_keeps_the_connection() {
    let (_a, _b, router) = cluster_of_two();
    let mut stream = raw(&router);
    // PING, a non-UTF-8 frame, an unknown verb, PING: pipelined.
    let burst = [
        frame(b"PING"),
        frame(&[0xff, 0xfe, 0x00]),
        frame(b"BOGUS VERB"),
        frame(b"PING"),
    ]
    .concat();
    stream.write_all(&burst).expect("write burst");
    assert_eq!(read_reply(&mut stream), Response::Pong);
    assert_eq!(
        read_reply(&mut stream),
        Response::Error {
            message: "malformed frame: non-UTF-8 payload".to_string()
        }
    );
    match read_reply(&mut stream) {
        Response::Error { message } => assert!(message.contains("unknown verb"), "{message}"),
        other => panic!("expected ERROR, got {other:?}"),
    }
    assert_eq!(read_reply(&mut stream), Response::Pong);
    // Still usable for real work afterwards.
    stream
        .write_all(&frame(Request::Run(small(61)).encode().as_bytes()))
        .expect("write RUN");
    match read_reply(&mut stream) {
        Response::Outcome { text, .. } => assert_eq!(text, local_text(&small(61))),
        other => panic!("expected OUTCOME, got {other:?}"),
    }
}

#[test]
fn an_oversized_header_costs_the_router_only_that_connection() {
    let (_a, _b, router) = cluster_of_two();
    let mut bystander = connect(&router);
    bystander.ping().expect("ping");

    // Over the default cap with a non-LOAD head, and over every cap.
    let over_default = u32::try_from(MAX_FRAME + 1).expect("fits");
    for header in [over_default, u32::MAX] {
        let mut stream = raw(&router);
        stream.write_all(&header.to_be_bytes()).expect("header");
        stream.write_all(&[0u8; 64]).expect("some body bytes");
        let eof = read_frame(&mut stream);
        assert!(
            matches!(eof, Ok(None) | Err(_)),
            "router must hang up, got a frame: {eof:?}"
        );
    }

    bystander.ping().expect("ping after the violations");
    let (_, text) = bystander.run_retry(small(71), 1000).expect("run");
    assert_eq!(text, local_text(&small(71)));
}

#[test]
fn a_killed_shard_is_unreachable_and_the_survivor_still_serves() {
    let (mut a, _b, router) = cluster_of_two();
    let (on_a, on_b) = (small(seed_on(0)), small(seed_on(1)));
    let mut client = connect(&router);
    // Warm both links first, so the kill hits an open one.
    for req in [&on_a, &on_b] {
        let (_, text) = client.run_retry(req.clone(), 1000).expect("warm-up run");
        assert_eq!(text, local_text(req));
    }
    a.child.kill().expect("SIGKILL");
    let _ = a.child.wait();

    // Each call runs on its own thread under a bounded wait: a hang
    // fails the test instead of wedging it.
    let bounded = |mut client: Client, req: &RunRequest| {
        let (tx, rx) = mpsc::channel();
        let req = req.clone();
        std::thread::spawn(move || {
            let reply = client.run_retry(req, 1000);
            let _ = tx.send((client, reply));
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("answered within 30 s")
    };
    let unreachable = format!("shard a ({}) unreachable", a.addr);
    let is_unreachable = |r: &Result<(Source, String), ClientError>| matches!(r, Err(ClientError::Server(m)) if *m == unreachable);
    let (client, dead) = bounded(client, &on_a);
    assert!(is_unreachable(&dead), "{dead:?}");
    let (_client, alive) = bounded(client, &on_b);
    assert_eq!(alive.expect("survivor serves").1, local_text(&on_b));
    // A fresh connection opens fresh links and sees the same.
    let (fresh, dead) = bounded(connect(&router), &on_a);
    assert!(is_unreachable(&dead), "{dead:?}");
    let (_, alive) = bounded(fresh, &on_b);
    assert_eq!(alive.expect("survivor serves").1, local_text(&on_b));
}

#[test]
fn sixteen_concurrent_router_clients_get_identical_bytes() {
    let (_a, _b, router) = cluster_of_two();
    let reqs = [small(81), small(82)];
    let expected: Vec<String> = reqs.iter().map(local_text).collect();
    let barrier = Arc::new(Barrier::new(16));
    let clients: Vec<_> = (0..16)
        .map(|_| {
            let mut client = connect(&router);
            let (barrier, reqs) = (Arc::clone(&barrier), reqs.clone());
            std::thread::spawn(move || {
                barrier.wait();
                reqs.map(|req| client.run_retry(req, 1000).expect("run").1)
            })
        })
        .collect();
    for client in clients {
        assert_eq!(client.join().expect("client thread").to_vec(), expected);
    }
}

/// A stand-in shard: each connection it accepts reads one request,
/// then is dropped unanswered while `drops` lasts, answered `reply`
/// after. Returns its address and how many connections it accepted.
fn flaky_shard(drops: usize, reply: &'static str) -> (SocketAddr, std::thread::JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shard = std::thread::spawn(move || {
        let mut accepted = 0;
        loop {
            let (mut conn, _) = listener.accept().expect("accept");
            accepted += 1;
            let Ok(Some(_)) = read_frame(&mut conn) else {
                return accepted; // the router hung up: the test is over
            };
            if accepted > drops {
                write_frame(&mut conn, reply).expect("reply");
                // Hold the connection until the router drops it.
                let _ = read_frame(&mut conn);
                return accepted;
            }
        }
    });
    (addr, shard)
}

#[test]
fn a_request_on_a_dying_link_is_resent_once_then_unreachable() {
    // The first connection dies mid-request; the resend is answered.
    let (addr, shard) = flaky_shard(1, "OUTCOME computed\nresent");
    let router = spawn_router(&[("f", addr)]);
    let mut client = connect(&router);
    let reply = client.run(small(91)).expect("run");
    assert_eq!(reply.ok(), Some((Source::Computed, "resent".to_string())));
    drop((client, router));
    assert_eq!(shard.join().expect("shard"), 2, "one resend, no more");

    // Both connections die: the request is answered unreachable, and
    // no third connection is tried.
    let (addr, shard) = flaky_shard(2, "OUTCOME computed\nunused");
    let router = spawn_router(&[("f", addr)]);
    let mut client = connect(&router);
    let reply = client.run(small(92));
    let unreachable = format!("shard f ({addr}) unreachable");
    assert!(
        matches!(&reply, Err(ClientError::Server(m)) if *m == unreachable),
        "{reply:?}"
    );
    // A PING does not touch the shard; then a third connection ends
    // the stand-in.
    client.ping().expect("ping");
    drop(TcpStream::connect(addr).expect("wake the stand-in"));
    assert_eq!(shard.join().expect("shard"), 3, "two router connections");
}
