//! `router` — consistent-hash front door for a shardful of `served`
//! daemons.
//!
//! ```text
//! router [--addr HOST:PORT] --shard NAME=ADDR [--shard NAME=ADDR ...]
//! ```
//!
//! Speaks the same frame protocol as `served`, on the same event loop
//! ([`Server::run`]), and forwards each verb to the right place:
//!
//! - `RUN` / `CLOSE` — placed on a [`asicgap_cluster::Ring`] by the
//!   request's canonical key and forwarded to the owning shard; the
//!   shard's reply is relayed byte-for-byte. Because flow replies are
//!   deterministic, any shard would answer identically — the ring only
//!   concentrates each key's cache working set on one shard.
//! - `LOAD` — broadcast to every shard (a design must be resident
//!   wherever a later `RUN` for it may land).
//! - `STATS` — fetched from every shard and merged into one snapshot.
//! - `PING` — answered locally.
//! - `SHUTDOWN` — broadcast to every shard; once they confirm, the
//!   router replies `BYE` and drains like `served`.
//!
//! Prints one `router listening on <addr>` line to stdout so scripts
//! can scrape the address. Each client connection gets its own
//! pipelined links to the shards (see [`asicgap_serve::server`]).

use std::net::SocketAddr;
use std::process::ExitCode;

use asicgap_cluster::Ring;
use asicgap_serve::metrics::MetricsSnapshot;
use asicgap_serve::proto::{Request, Response};
use asicgap_serve::server::{Merge, Server, Upstream};

const USAGE: &str = "usage: router [--addr HOST:PORT] --shard NAME=ADDR [--shard NAME=ADDR ...]";

/// The ring plus `(name, address)` per shard, in `ring.members()` order.
struct Cluster {
    ring: Ring,
    shards: Vec<(String, String)>,
}

impl Upstream for Cluster {
    fn shards(&self) -> &[(String, String)] {
        &self.shards
    }

    fn route(&self, request: &Request) -> (Vec<usize>, Merge) {
        let all = (0..self.shards.len()).collect();
        // A flow reply is the owning shard's, byte-for-byte.
        let relay: Merge = |mut replies| replies.pop().expect("one shard");
        match request {
            Request::Ping => (Vec::new(), |_| Response::Pong.encode()),
            Request::Run(req) => (vec![self.ring.place_index(&req.canonical_key())], relay),
            Request::Close(req) => (vec![self.ring.place_index(&req.canonical_key())], relay),
            Request::Load { .. } => (all, merge_load),
            Request::Stats => (all, merge_stats),
            Request::Shutdown => (all, |_| Response::Bye.encode()),
        }
    }
}

/// The address and the cluster; `Err(None)` asks for the usage line
/// alone.
fn parse_args() -> Result<(SocketAddr, Cluster), Option<String>> {
    let mut addr: SocketAddr = "127.0.0.1:7170".parse().expect("literal addr");
    let mut shards: Vec<(String, String)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => {
                let v = value()?;
                addr = v.parse().map_err(|_| format!("bad address {v:?}"))?;
            }
            "--shard" => {
                let v = value()?;
                let wants = || format!("--shard wants NAME=ADDR, got {v:?}");
                let (name, shard_addr) = v.split_once('=').ok_or_else(wants)?;
                shards.push((name.to_string(), shard_addr.to_string()));
            }
            "--help" | "-h" => return Err(None),
            other => return Err(Some(format!("unknown flag {other:?}"))),
        }
    }
    let names = shards.iter().map(|(name, _)| name.clone());
    let unique = "need at least one --shard with unique names";
    let ring = Ring::new(names).ok_or(unique.to_string())?;
    // Ring members are sorted by name; align the shard table with it.
    let shard = |m: &String| shards.iter().find(|(name, _)| name == m).cloned();
    let shards = ring.members().iter().map(shard).collect::<Option<_>>();
    let shards = shards.expect("members came from this list");
    Ok((addr, Cluster { ring, shards }))
}

/// Merges per-shard `STATS` replies into one cluster-wide snapshot; the
/// first shard, in member order, that sent no snapshot makes it `ERROR`.
fn merge_stats(replies: Vec<String>) -> String {
    let snapshot = |reply: &String| match Response::decode(reply) {
        Ok(Response::Stats { text }) => {
            MetricsSnapshot::parse(&text).map_err(|e| format!("shard stats unparseable: {e}"))
        }
        Ok(Response::Error { message }) => Err(message),
        _ => Err("shard returned a non-STATS reply".to_string()),
    };
    let response = match replies.iter().map(snapshot).collect::<Result<Vec<_>, _>>() {
        Ok(snaps) => {
            let merged = snaps.into_iter().reduce(|m, snap| m.merge(&snap));
            let text = merged.expect("ring is non-empty").to_string();
            Response::Stats { text }
        }
        Err(message) => Response::Error { message },
    };
    response.encode()
}

/// Picks the reply for a broadcast `LOAD`: the first error if any shard
/// rejected it, else the (identical) `LOADED` spec.
fn merge_load(replies: Vec<String>) -> String {
    let refused = |reply: &&String| !matches!(Response::decode(reply), Ok(Response::Loaded { .. }));
    let reply = replies.iter().find(refused).or(replies.last());
    reply.expect("ring is non-empty").clone()
}

fn main() -> ExitCode {
    let (addr, cluster) = match parse_args() {
        Ok(parsed) => parsed,
        Err(mistake) => {
            mistake.iter().for_each(|what| eprintln!("router: {what}"));
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let listing: Vec<String> = cluster
        .shards
        .iter()
        .map(|(n, a)| format!("{n}={a}"))
        .collect();
    let server = match Server::bind_upstream(addr, Box::new(cluster)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("router: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("router listening on {}", server.local_addr());
    eprintln!("router: {} shards: {}", listing.len(), listing.join(" "));
    server.run();
    ExitCode::SUCCESS
}
