//! The TCP server: a single-threaded, non-blocking event loop over all
//! connections, with flow execution on the scheduler's worker pool.
//!
//! The accept/frame layer never blocks and never spawns per-connection
//! threads: the listener and every stream run in non-blocking mode, and
//! one loop sweeps them — accepting, reading bytes into per-connection
//! buffers, parsing frames incrementally ([`crate::proto::parse_frame`]),
//! dispatching verbs, and flushing writes. Quick verbs (`PING`, `STATS`,
//! `LOAD`, admission decisions) are answered inline; `RUN`/`CLOSE` jobs
//! execute on the [`Scheduler`]'s workers while the loop keeps serving
//! everyone else, polling each job's completion slot without blocking.
//!
//! Connections may pipeline: many requests can be in flight on one
//! socket, and replies are delivered strictly in request order through
//! a per-connection pending queue. Backpressure is bounded on both
//! sides — a connection with too many unanswered requests or too many
//! unflushed reply bytes simply stops being read until it drains, so a
//! slow or hostile peer cannot grow server memory without limit.
//!
//! `SHUTDOWN` stops accepting and reading, lets every already-admitted
//! reply (including queued jobs) flush in order, then drains the
//! scheduler — no loopback self-connect tricks are needed because the
//! accept path is non-blocking.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use asicgap::ArtifactStore;

use crate::proto::{frame_cap, parse_frame, ProtoError, Request, Response, Source};
use crate::sched::{Admission, Job, Scheduler};

/// Per-connection cap on replies admitted but not yet written. A
/// pipelining client beyond this stops being read until replies drain.
const MAX_PENDING: usize = 128;

/// Per-connection cap on buffered unflushed reply bytes; reading stops
/// while a peer lets this much output sit in our buffer.
const MAX_WRITE_BUF: usize = 4 << 20;

/// How long the loop parks when a full sweep made no progress.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// Back-off hint sent with `BUSY` responses.
const RETRY_AFTER_MS: u32 = 50;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (use port 0 for an ephemeral port).
    pub addr: SocketAddr,
    /// Flow worker threads.
    pub workers: usize,
    /// Bounded queue capacity; beyond this, `RUN` gets `BUSY`.
    pub queue_cap: usize,
    /// Result cache byte budget.
    pub cache_budget: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            workers: asicgap_exec::thread_count(),
            queue_cap: 64,
            cache_budget: 16 << 20,
        }
    }
}

/// A bound, not-yet-serving daemon.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    sched: Arc<Scheduler>,
}

impl Server {
    /// Binds the listener and starts the scheduler's workers with the
    /// default in-memory L2 store.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the address cannot be bound.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let sched = Scheduler::start(config.workers, config.queue_cap, config.cache_budget);
        Server::bind_with_scheduler(config, sched)
    }

    /// [`Server::bind`] with an explicit L2 artifact store (the daemon
    /// passes a persistent [`SegmentStore`](asicgap_cluster::SegmentStore)
    /// here so checkpoints and outcomes survive restarts).
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the address cannot be bound.
    pub fn bind_with_store(
        config: &ServerConfig,
        store: Arc<dyn ArtifactStore>,
    ) -> io::Result<Server> {
        let sched = Scheduler::start_with_store(
            config.workers,
            config.queue_cap,
            config.cache_budget,
            store,
        );
        Server::bind_with_scheduler(config, sched)
    }

    fn bind_with_scheduler(config: &ServerConfig, sched: Arc<Scheduler>) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            local_addr,
            sched,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until a `SHUTDOWN` verb arrives, then flushes every
    /// admitted reply, drains the scheduler, and returns.
    pub fn run(self) {
        self.listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let mut conns: Vec<Conn> = Vec::new();
        let mut stopping = false;
        loop {
            let mut progressed = false;
            if !stopping {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_ok() {
                                conns.push(Conn::new(stream));
                                progressed = true;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
            }
            for conn in &mut conns {
                progressed |= conn.pump(&self.sched, &mut stopping);
                if stopping {
                    // No new requests anywhere once a SHUTDOWN landed;
                    // already-admitted replies still flush in order.
                    conn.stop_reading();
                }
            }
            conns.retain(|c| !c.is_done());
            if stopping && conns.iter().all(Conn::is_drained) {
                break;
            }
            if !progressed {
                thread::park_timeout(IDLE_PARK);
            }
        }
        self.sched.shutdown();
        self.sched.join();
    }
}

/// One reply owed to a connection, in request order.
enum Reply {
    /// Already-encoded response body, ready to frame and send.
    Ready(String),
    /// A queued or joined flow job; resolved by polling, never by
    /// blocking the loop.
    Job { source: Source, job: Arc<Job> },
}

/// Per-connection state: buffered input, owed replies, buffered output.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    pending: VecDeque<Reply>,
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already handed to the socket.
    written: usize,
    /// Cleared on EOF, read error, or `SHUTDOWN`.
    reading: bool,
    /// Set on protocol violations that forfeit the connection
    /// (oversized frames, socket errors): close as soon as possible.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            write_buf: Vec::new(),
            written: 0,
            reading: true,
            closing: false,
        }
    }

    /// The connection has nothing left to do and can be dropped. A
    /// `closing` connection is forfeit immediately — its socket may be
    /// unwritable, so waiting to flush could wedge the drain.
    fn is_done(&self) -> bool {
        self.closing
            || (!self.reading && self.pending.is_empty() && self.written == self.write_buf.len())
    }

    /// Everything admitted has been answered and flushed (used for the
    /// shutdown drain; an idle connection is trivially drained).
    fn is_drained(&self) -> bool {
        self.closing || (self.pending.is_empty() && self.written == self.write_buf.len())
    }

    fn stop_reading(&mut self) {
        self.reading = false;
        self.read_buf.clear();
    }

    /// Input is throttled while the peer owes us drain: too many
    /// unanswered requests or too much unflushed output.
    fn throttled(&self) -> bool {
        self.pending.len() >= MAX_PENDING || self.write_buf.len() - self.written >= MAX_WRITE_BUF
    }

    /// One full sweep: flush writes, resolve finished jobs, read and
    /// dispatch new frames. Returns whether anything moved.
    fn pump(&mut self, sched: &Scheduler, stopping: &mut bool) -> bool {
        let mut progressed = self.flush();
        progressed |= self.settle();
        progressed |= self.fill();
        progressed |= self.dispatch_frames(sched, stopping);
        // Anything the sweep produced goes out as eagerly as possible.
        progressed |= self.settle();
        progressed | self.flush()
    }

    /// Moves bytes from `write_buf` to the socket until it would block.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => {
                    self.closing = true;
                    break;
                }
                Ok(n) => {
                    self.written += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closing = true;
                    break;
                }
            }
        }
        if self.written == self.write_buf.len() && self.written > 0 {
            self.write_buf.clear();
            self.written = 0;
        }
        progressed
    }

    /// Drains the pending queue head-first into `write_buf`, stopping
    /// at the first job that has not finished — replies always leave in
    /// request order, which is what makes pipelining safe.
    fn settle(&mut self) -> bool {
        let mut progressed = false;
        loop {
            let resolved = match self.pending.front() {
                None => break,
                Some(Reply::Ready(_)) => None,
                Some(Reply::Job { source, job }) => match job.try_result() {
                    None => break,
                    Some(result) => Some((*source, result)),
                },
            };
            let body = match (resolved, self.pending.pop_front()) {
                (None, Some(Reply::Ready(body))) => body,
                (Some((source, Ok(text))), Some(_)) => Response::Outcome { source, text }.encode(),
                (Some((_, Err(message))), Some(_)) => Response::Error { message }.encode(),
                _ => unreachable!("pending front vanished mid-settle"),
            };
            self.enqueue_frame(&body);
            progressed = true;
        }
        progressed
    }

    /// Frames `body` into the write buffer, mirroring
    /// [`crate::proto::write_frame`]'s cap: a response the protocol
    /// cannot carry forfeits the connection rather than corrupting it.
    fn enqueue_frame(&mut self, body: &str) {
        if body.len() > frame_cap(body) {
            self.closing = true;
            return;
        }
        self.write_buf
            .extend_from_slice(&(body.len() as u32).to_be_bytes());
        self.write_buf.extend_from_slice(body.as_bytes());
    }

    fn push_ready(&mut self, response: &Response) {
        self.pending.push_back(Reply::Ready(response.encode()));
    }

    /// Reads available bytes into `read_buf` until the socket would
    /// block, EOF, or backpressure says stop.
    fn fill(&mut self) -> bool {
        if !self.reading || self.closing || self.throttled() {
            return false;
        }
        let mut progressed = false;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.reading = false;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                    if self.throttled() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.reading = false;
                    self.closing = true;
                    break;
                }
            }
        }
        progressed
    }

    /// Parses and dispatches every complete frame buffered so far.
    fn dispatch_frames(&mut self, sched: &Scheduler, stopping: &mut bool) -> bool {
        let mut progressed = false;
        while !self.closing && self.reading && !self.throttled() {
            let body = match parse_frame(&self.read_buf) {
                Ok(None) => break,
                Ok(Some((body, consumed))) => {
                    self.read_buf.drain(..consumed);
                    body
                }
                Err(ProtoError::Malformed { what }) => {
                    // Framing survived (the length header was honest);
                    // consume the frame, report, keep the connection.
                    let len =
                        u32::from_be_bytes(self.read_buf[..4].try_into().expect("header")) as usize;
                    self.read_buf.drain(..4 + len);
                    self.push_ready(&Response::Error {
                        message: format!("malformed frame: {what}"),
                    });
                    progressed = true;
                    continue;
                }
                Err(_) => {
                    // Oversized header: the stream is unframeable from
                    // here on; forfeit the connection.
                    self.stop_reading();
                    self.closing = true;
                    break;
                }
            };
            progressed = true;
            self.dispatch(&body, sched, stopping);
        }
        progressed
    }

    /// Turns one decoded frame into a reply (or an admitted job).
    fn dispatch(&mut self, body: &str, sched: &Scheduler, stopping: &mut bool) {
        match Request::decode(body) {
            Err(e) => self.push_ready(&Response::Error {
                message: e.to_string(),
            }),
            Ok(Request::Ping) => self.push_ready(&Response::Pong),
            Ok(Request::Stats) => self.push_ready(&Response::Stats {
                text: sched.stats().to_string(),
            }),
            Ok(Request::Shutdown) => {
                self.push_ready(&Response::Bye);
                self.stop_reading();
                *stopping = true;
            }
            Ok(Request::Run(req)) => self.admit(sched.submit(req)),
            Ok(Request::Close(req)) => self.admit(sched.submit_close(req)),
            Ok(Request::Load { format, payload }) => match sched.load_design(format, payload) {
                Ok(spec) => self.push_ready(&Response::Loaded { spec }),
                Err(message) => self.push_ready(&Response::Error { message }),
            },
        }
    }

    /// Queues an admission outcome without blocking: cache hits and
    /// rejections answer immediately, queued/joined jobs are polled.
    fn admit(&mut self, admission: Admission) {
        match admission {
            Admission::Cached(text) => self.push_ready(&Response::Outcome {
                source: Source::Cache,
                text,
            }),
            Admission::Busy => self.push_ready(&Response::Busy {
                retry_after_ms: RETRY_AFTER_MS,
            }),
            Admission::Submitted(job) => self.pending.push_back(Reply::Job {
                source: Source::Computed,
                job,
            }),
            Admission::Joined(job) => self.pending.push_back(Reply::Job {
                source: Source::Deduped,
                job,
            }),
        }
    }
}
