//! # asicgap-serve
//!
//! Flow-as-a-service: a std-only TCP daemon that serves
//! [`asicgap`] scenario flows with content-addressed result caching,
//! admission-controlled scheduling, and a metrics layer.
//!
//! The whole subsystem leans on one fact established by the rest of the
//! workspace: the flow is **deterministic** (PR 2's execution engine
//! contract). Two requests with equal [`asicgap::canonical_key`]s
//! produce bit-identical [`asicgap::ScenarioOutcome`]s, which makes
//! three serving shortcuts *provably* transparent:
//!
//! - **[`cache`]** — a content-addressed LRU result cache keyed by the
//!   FNV-1a 64 hash of the canonical key (full key stored as a
//!   collision guard, byte budget bounds residency). A hit returns the
//!   exact bytes a fresh run would produce.
//! - **dedup** — an identical request already in flight is joined, not
//!   recomputed; both callers get the same bytes.
//! - **[`sched`]** — a bounded queue with explicit admission control: a
//!   full queue answers `BUSY <retry-after>` instead of buffering
//!   unboundedly, and per-request deadlines cancel abandoned work at
//!   flow-stage boundaries via [`asicgap::FlowObserver`].
//!
//! [`metrics`] counts all of it — cache hits/misses, dedup joins, busy
//! rejections, queue depth, end-to-end latency, and per-stage
//! (synth/place/route/sta/equiv/…) wall-time histograms — exposed
//! through the `STATS` verb as a canonical, parseable text block.
//!
//! [`proto`] defines the length-prefixed wire protocol (per-verb frame
//! caps: `LOAD` rides a 16 MiB ceiling, everything else 1 MiB); the
//! crate-private `conn` module is the sans-IO connection core (bytes
//! in, frames out, replies settled strictly in request order, both
//! backpressure caps); [`server`] runs it in one std-only
//! non-blocking event loop — one thread sweeps every connection, and
//! flow execution stays on the scheduler's worker pool — and
//! [`client`] the blocking client used by the benchmark harness and
//! the integration tests. The daemon binary is `served`; `router`
//! fronts several daemons with a consistent-hash ring
//! ([`asicgap_cluster::Ring`]) and runs on the same loop, with
//! [`server::Upstream`] in the scheduler's place.
//!
//! The scheduler's in-memory cache is L1 of a two-level hierarchy: an
//! [`asicgap::ArtifactStore`] L2 (persistent
//! [`asicgap_cluster::SegmentStore`] under `served --cache-dir`) holds
//! both finished outcomes and per-stage flow checkpoints, so restarts
//! keep their history and a request sharing a flow prefix with any
//! earlier one resumes from the deepest cached checkpoint.
//!
//! # Example (in-process, no socket)
//!
//! ```
//! use asicgap_serve::proto::RunRequest;
//! use asicgap_serve::sched::{Admission, Scheduler};
//!
//! let sched = Scheduler::start(2, 8, 1 << 20);
//! let req = RunRequest::small();
//! let fresh = match sched.submit(req.clone()) {
//!     Admission::Submitted(job) => job.wait().unwrap(),
//!     _ => unreachable!("empty scheduler admits"),
//! };
//! let cached = match sched.submit(req) {
//!     Admission::Cached(text) => text,
//!     _ => unreachable!("second submit hits cache"),
//! };
//! assert_eq!(fresh, cached); // bit-identical, by determinism
//! sched.shutdown();
//! sched.join();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
mod conn;
pub mod metrics;
pub mod proto;
pub mod sched;
pub mod server;

pub use cache::ResultCache;
pub use client::{Client, ClientError};
pub use metrics::{Histogram, HistogramSnapshot, Metrics, MetricsSnapshot, STAGE_CACHE_NAMES};
pub use proto::{
    parse_frame, read_frame, write_frame, CloseRequest, ProtoError, Request, Response, RunRequest,
    ScenarioPreset, Source, MAX_FRAME, MAX_LOAD_FRAME,
};
pub use sched::{Admission, Job, Scheduler};
pub use server::{Server, ServerConfig};
