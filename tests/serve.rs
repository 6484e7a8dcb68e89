//! End-to-end tests for the serving subsystem: a real `Server` on a
//! loopback socket, real clients on threads.
//!
//! The load-bearing assertion throughout: whatever path a response took
//! — fresh compute, content-addressed cache, or in-flight dedup — the
//! outcome bytes are identical to an in-process
//! [`asicgap::run_scenario_verified`] of the same request. That is the
//! serving layer's whole correctness contract, and it only holds
//! because the flow is deterministic.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use asicgap::{ClosureOutcome, VerifyLevel, WireModel, WorkloadSpec};
use asicgap_serve::client::{Client, ClientError};
use asicgap_serve::proto::{
    read_frame, write_frame, CloseRequest, Request, Response, RunRequest, ScenarioPreset, Source,
};
use asicgap_serve::server::{Server, ServerConfig};

fn start_server(workers: usize, queue_cap: usize) -> (SocketAddr, thread::JoinHandle<()>) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".parse().expect("literal addr"),
        workers,
        queue_cap,
        cache_budget: 16 << 20,
    };
    let server = Server::bind(&config).expect("bind loopback");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_retry(addr, Duration::from_secs(5)).expect("connect")
}

/// What the server *must* return for `req`, computed in-process.
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

#[test]
fn eight_concurrent_clients_get_identical_bytes_and_consistent_stats() {
    let (addr, server) = start_server(4, 64);
    let req = small(42);
    let expected = local_text(&req);

    // 8 clients, released together, all asking for the same run.
    let barrier = Arc::new(Barrier::new(8));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let barrier = Arc::clone(&barrier);
        let req = req.clone();
        handles.push(thread::spawn(move || {
            let mut client = connect(addr);
            barrier.wait();
            client.run_retry(req, 100).expect("run")
        }));
    }
    let mut computed = 0u64;
    let mut cached = 0u64;
    let mut deduped = 0u64;
    for h in handles {
        let (source, text) = h.join().expect("client thread");
        assert_eq!(text, expected, "response bytes must match local compute");
        match source {
            Source::Computed => computed += 1,
            Source::Cache => cached += 1,
            Source::Deduped => deduped += 1,
        }
    }
    assert!(computed >= 1, "someone must have computed it");
    assert_eq!(computed + cached + deduped, 8);

    // A later request is a pure cache hit with the same bytes.
    let mut client = connect(addr);
    let (source, text) = client.run_retry(req, 10).expect("second pass");
    assert_eq!(source, Source::Cache);
    assert_eq!(text, expected);
    cached += 1;

    // Server-side counters agree with what the clients observed.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 9);
    assert_eq!(stats.cache_hits, cached);
    assert_eq!(stats.dedup_joins, deduped);
    assert_eq!(stats.completed, computed);
    assert_eq!(stats.cache_misses, 9 - cached);
    assert_eq!(stats.busy_rejections, 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.cancelled, 0);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.hit_rate() > 0.0);
    assert_eq!(stats.cache_entries, 1);
    assert!(stats.cache_bytes > 0);
    // Completed flows left latency samples and per-stage timings.
    assert_eq!(stats.latency_us.count, stats.completed);
    let synth = &stats.stage_us[asicgap::FlowStage::Synth.index()];
    assert!(synth.count >= stats.completed, "every flow passes synth");

    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn overload_burst_rejects_with_busy_and_drains_clean() {
    // One worker, queue of 2: a 16-wide burst must overflow.
    let (addr, server) = start_server(1, 2);
    let barrier = Arc::new(Barrier::new(16));
    let mut handles = Vec::new();
    for seed in 0..16u64 {
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            let mut client = connect(addr);
            barrier.wait();
            // Plain run, no retry: we want to observe the rejection.
            (seed, client.run(small(seed)).expect("transport ok"))
        }));
    }
    let mut busy = 0u64;
    let mut done = 0u64;
    for h in handles {
        let (seed, result) = h.join().expect("client thread");
        match result {
            Err(retry_after_ms) => {
                assert!(retry_after_ms > 0, "busy carries a retry hint");
                busy += 1;
            }
            Ok((_, text)) => {
                assert_eq!(text, local_text(&small(seed)), "seed {seed}");
                done += 1;
            }
        }
    }
    assert!(
        busy > 0,
        "16-burst into 1 worker + queue 2 must reject some"
    );
    assert!(done >= 1, "admitted work completes");
    assert_eq!(busy + done, 16);

    // No panics, queue drains to zero, counters reconcile.
    let mut client = connect(addr);
    let deadline = Instant::now() + Duration::from_secs(60);
    let stats = loop {
        let stats = client.stats().expect("stats");
        if stats.queue_depth == 0 && stats.completed == done {
            break stats;
        }
        assert!(Instant::now() < deadline, "queue failed to drain: {stats}");
        thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(stats.busy_rejections, busy);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.cancelled, 0);
    assert!(
        stats.queue_depth_hist.max <= 2,
        "queue never exceeded its bound"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn deadlines_cancel_queued_work() {
    let (addr, server) = start_server(1, 8);
    // Occupy the lone worker with a slow request (routed + full verify).
    let blocker = RunRequest {
        preset: ScenarioPreset::BestPracticeAsic,
        wire_model: WireModel::Routed,
        verify: VerifyLevel::Full,
        seed: 1000,
        workload: WorkloadSpec::KoggeStoneAdder { width: 8 },
        deadline_ms: 0,
    };
    let block_thread = thread::spawn(move || {
        let mut client = connect(addr);
        client.run_retry(blocker, 10).expect("blocker completes")
    });
    // Give the blocker time to reach the worker, then submit a request
    // whose 1 ms deadline is gone before (or just after) it starts.
    thread::sleep(Duration::from_millis(50));
    let mut client = connect(addr);
    let doomed = RunRequest {
        deadline_ms: 1,
        ..small(1001)
    };
    let err = client.run(doomed).expect_err("deadline must cancel");
    match err {
        ClientError::Server(message) => {
            assert!(message.contains("cancelled"), "got {message:?}")
        }
        other => panic!("expected server-side cancel, got {other}"),
    }
    block_thread.join().expect("blocker thread");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

/// What the server *must* return for a `CLOSE`, computed in-process.
fn local_close_text(req: &CloseRequest) -> String {
    let scenario = req.run.scenario();
    scenario
        .close_timing(
            |lib| req.run.workload.build(lib),
            req.run.verify,
            &req.target(),
        )
        .expect("local closure")
        .canonical_text()
}

#[test]
fn close_verb_serves_cacheable_trace_bytes() {
    let (addr, server) = start_server(2, 8);
    let req = CloseRequest {
        run: small(7),
        target_mhz: 1.0, // trivially closable: the loop proves it in 0 moves
        max_moves: 16,
    };
    let expected = local_close_text(&req);
    let mut client = connect(addr);
    let (s1, t1) = client.close_retry(req.clone(), 10).expect("close");
    assert_eq!(s1, Source::Computed);
    assert_eq!(t1, expected, "CLOSE bytes must match local compute");
    let parsed = ClosureOutcome::parse_canonical(&t1).expect("a close-outcome/v1 reply");
    assert_eq!(
        parsed.canonical_text(),
        t1,
        "the reply re-encodes to its own bytes"
    );
    assert_eq!(parsed.scenario, req.run.scenario().name);
    let (s2, t2) = client.close_retry(req, 10).expect("close again");
    assert_eq!(s2, Source::Cache);
    assert_eq!(t2, expected);
    // A RUN with the same knobs lives in its own cache line.
    let (s3, _) = client.run_retry(small(7), 10).expect("run");
    assert_eq!(s3, Source::Computed, "RUN never hits the CLOSE cache line");
    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn close_deadline_cancels_at_iteration_boundary_without_leaking_slots() {
    let (addr, server) = start_server(1, 8);
    // Routed prep on a stretch target: the deadline expires while the
    // request is already on the worker, so cancellation must land on a
    // fix-loop iteration boundary (never mid-move, never in prep). The
    // target is far beyond reach but *below* the depth lower bound's
    // infeasibility threshold, so the loop grinds its move budget
    // instead of exiting with a one-iteration proof. The deadline is the
    // shortest the protocol can say: optimized, prep is 4 ms and the
    // eleven local moves another 3, and a deadline that outlives them
    // meets the rewrite/retime escalation, which proves for half a
    // minute between polls.
    let doomed = CloseRequest {
        run: RunRequest {
            wire_model: WireModel::Routed,
            verify: VerifyLevel::Full,
            workload: WorkloadSpec::ArrayMultiplier { width: 8 },
            deadline_ms: 1,
            ..small(2002)
        },
        target_mhz: 200.0,
        max_moves: 64,
    };
    let mut client = connect(addr);
    let err = client
        .close(doomed.clone())
        .expect_err("deadline must cancel");
    match err {
        ClientError::Server(message) => assert!(
            message.contains("cancelled at iteration boundary")
                || message.contains("cancelled before start"),
            "got {message:?}"
        ),
        other => panic!("expected server-side cancel, got {other}"),
    }

    // Counters reconcile: one cancellation, nothing completed, nothing
    // left queued or in flight — the slot came back.
    let deadline = Instant::now() + Duration::from_secs(60);
    let stats = loop {
        let stats = client.stats().expect("stats");
        if stats.queue_depth == 0 && stats.cancelled == 1 {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "cancel failed to settle: {stats}"
        );
        thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.errors, 0, "a deadline cancel is not a flow error");

    // The cancelled partial result was never cached: a retry without a
    // deadline computes the full answer, and it is cache-consistent with
    // a local run and with a second retry.
    let mut retry = doomed;
    retry.run.deadline_ms = 0;
    retry.max_moves = 4; // keep the unreachable-target grind short
    let (s1, t1) = client
        .close_retry(retry.clone(), 10)
        .expect("retry completes");
    assert_eq!(s1, Source::Computed, "cancelled run must not have cached");
    assert_eq!(t1, local_close_text(&retry));
    let (s2, t2) = client.close_retry(retry, 10).expect("retry again");
    assert_eq!(s2, Source::Cache);
    assert_eq!(t2, t1);
    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn unbuildable_and_panicking_workloads_are_answered_with_error() {
    // One worker: if either request took it down, the run after them
    // would never be answered.
    let (addr, server) = start_server(1, 4);
    let mut client = connect(addr);
    let run = |client: &mut Client, workload| {
        client.run_retry(
            RunRequest {
                workload,
                ..small(7)
            },
            100,
        )
    };

    // `mux/6` has no netlist: refused where the request is decoded.
    match run(&mut client, WorkloadSpec::MuxTree { inputs: 6 }) {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("mux/6"), "got {message:?}")
        }
        other => panic!("expected ERROR, got {other:?}"),
    }

    // `mult/1` decodes, then panics inside the generator on the worker.
    match run(&mut client, WorkloadSpec::ArrayMultiplier { width: 1 }) {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("flow panicked"), "got {message:?}")
        }
        other => panic!("expected ERROR, got {other:?}"),
    }

    let req = small(7);
    let (source, text) = client
        .run_retry(req.clone(), 100)
        .expect("the worker survived");
    assert_eq!(source, Source::Computed);
    assert_eq!(text, local_text(&req));
    assert_eq!(client.stats().expect("stats").errors, 1);
    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn protocol_violations_answered_or_dropped_not_panicked() {
    let (addr, server) = start_server(1, 4);

    // Liveness first.
    let mut client = connect(addr);
    client.ping().expect("ping");

    // An unknown verb gets an ERROR response, connection stays usable.
    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    write_frame(&mut raw, "BOGUS VERB").expect("write");
    let body = read_frame(&mut raw).expect("read").expect("response");
    match Response::decode(&body).expect("decodes") {
        Response::Error { message } => assert!(message.contains("unknown verb")),
        other => panic!("expected ERROR, got {other:?}"),
    }
    write_frame(&mut raw, &Request::Ping.encode()).expect("write");
    let body = read_frame(&mut raw).expect("read").expect("response");
    assert_eq!(Response::decode(&body).expect("decodes"), Response::Pong);

    // An oversized frame header drops the connection without killing
    // the server.
    use std::io::Write as _;
    raw.write_all(
        &u32::try_from(asicgap_serve::MAX_FRAME + 1)
            .unwrap()
            .to_be_bytes(),
    )
    .expect("write header");
    raw.write_all(&[0u8; 64]).expect("write some bytes");
    let eof = read_frame(&mut raw);
    assert!(
        matches!(eof, Ok(None) | Err(_)),
        "server must hang up, got a frame: {eof:?}"
    );

    // The server is still fine.
    client.ping().expect("ping after violation");
    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}

#[test]
fn retry_helpers_give_up_with_still_busy() {
    // A queue of 0 admits nothing: every attempt is answered BUSY, so
    // each retry helper gives up after exactly its attempt budget.
    let (addr, server) = start_server(1, 0);
    let mut client = connect(addr);
    let run = client.run_retry(small(3), 3);
    assert!(
        matches!(run, Err(ClientError::StillBusy { attempts: 3 })),
        "{run:?}"
    );
    let close = client.close_retry(CloseRequest::small(1.0), 3);
    assert!(
        matches!(close, Err(ClientError::StillBusy { attempts: 3 })),
        "{close:?}"
    );
    assert_eq!(client.stats().expect("stats").busy_rejections, 6);

    client.shutdown().expect("shutdown");
    server.join().expect("server drains");
}
