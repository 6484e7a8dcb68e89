//! The TCP server: one single-threaded, non-blocking event loop, the
//! crate's only socket loop. Each sweep accepts, moves bytes between
//! every socket and its sans-IO `conn` core, and hands each request to
//! what answers the verbs: `served`'s [`Scheduler`] (quick verbs inline,
//! `RUN`/`CLOSE` jobs on its workers, polled through [`Job::try_result`])
//! or `router`'s shards ([`Upstream`]), reached over per-client links
//! that run through the same core in the same sweep. `SHUTDOWN` stops
//! accepting and reading, lets every admitted reply flush in order,
//! then drains the scheduler.

use std::collections::VecDeque;
use std::io::ErrorKind::{Interrupted, WouldBlock};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use asicgap::ArtifactStore;

use crate::conn::{Conn, Owed, MAX_WRITE_BUF};
use crate::proto::{Request, Response, Source};
use crate::sched::{Admission, Job, Scheduler};

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

/// Folds the shards' replies to one request, in [`Upstream::route`]'s
/// order, into the client's reply.
pub type Merge = fn(Vec<String>) -> String;

/// What answers the verbs for a router: a ring of `served` shards.
pub trait Upstream: Send {
    /// `(name, address)` of each shard, by index.
    fn shards(&self) -> &[(String, String)];
    /// The shards `request` goes to (none: the merge alone answers it)
    /// and how their replies become one.
    fn route(&self, request: &Request) -> (Vec<usize>, Merge);
}

enum Verbs {
    Local(Arc<Scheduler>),
    Upstream(Box<dyn Upstream>),
}

/// A bound, not-yet-serving daemon or router.
pub struct Server {
    listener: TcpListener,
    verbs: Verbs,
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
        Server::listen(config.addr, Verbs::Local(sched))
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
        Server::listen(config.addr, Verbs::Local(sched))
    }

    /// Binds a router: `upstream`'s shards answer the verbs.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the address cannot be bound.
    pub fn bind_upstream(addr: SocketAddr, upstream: Box<dyn Upstream>) -> io::Result<Server> {
        Server::listen(addr, Verbs::Upstream(upstream))
    }

    fn listen(addr: SocketAddr, verbs: Verbs) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { listener, verbs })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// Serves until a `SHUTDOWN` verb arrives, then flushes every
    /// admitted reply, drains the scheduler, and returns.
    pub fn run(self) {
        self.listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let shards = match &self.verbs {
            Verbs::Local(_) => &[],
            Verbs::Upstream(upstream) => upstream.shards(),
        };
        let (mut clients, mut stopping) = (Vec::<Client>::new(), false);
        loop {
            let mut progressed = false;
            while let Some(Ok((stream, _))) = (!stopping).then(|| self.listener.accept()) {
                if stream.set_nonblocking(true).is_ok() {
                    let core = Conn::new();
                    let links = shards.iter().map(Link::new).collect();
                    clients.push(Client {
                        stream,
                        core,
                        links,
                    });
                    progressed = true;
                }
            }
            for client in &mut clients {
                if stopping {
                    // No new requests anywhere once a SHUTDOWN landed;
                    // already-admitted replies still flush in order.
                    client.core.stop_reading();
                }
                progressed |= client.pump(&self.verbs, &mut stopping);
            }
            clients.retain(|c| !c.core.is_done());
            if stopping && clients.is_empty() {
                break;
            }
            if !progressed {
                thread::park_timeout(IDLE_PARK);
            }
        }
        if let Verbs::Local(sched) = &self.verbs {
            sched.shutdown();
            sched.join();
        }
    }
}

impl Verbs {
    fn answer(&self, request: Request, body: &str, links: &mut [Link]) -> Owed<Later> {
        let sched = match self {
            Verbs::Local(sched) => sched,
            Verbs::Upstream(upstream) => {
                let (shards, merge) = upstream.route(&request);
                let body: Rc<str> = body.into();
                shards.iter().for_each(|&shard| links[shard].send(&body));
                return Owed::Later(Later::Fan(shards, merge));
            }
        };
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats {
                text: sched.stats().to_string(),
            },
            Request::Shutdown => Response::Bye,
            Request::Load { format, payload } => match sched.load_design(format, payload) {
                Ok(spec) => Response::Loaded { spec },
                Err(message) => Response::Error { message },
            },
            Request::Run(req) => return admit(sched.submit(req)),
            Request::Close(req) => return admit(sched.submit_close(req)),
        };
        Owed::Ready(response.encode())
    }
}

/// Cache hits and rejections answer at once; jobs are polled.
fn admit(admission: Admission) -> Owed<Later> {
    match admission {
        Admission::Cached(text) => Owed::Ready(outcome(Source::Cache, Ok(text))),
        Admission::Busy => {
            let retry_after_ms = RETRY_AFTER_MS;
            Owed::Ready(Response::Busy { retry_after_ms }.encode())
        }
        Admission::Submitted(job) => Owed::Later(Later::Job(Source::Computed, job)),
        Admission::Joined(job) => Owed::Later(Later::Job(Source::Deduped, job)),
    }
}

fn outcome(source: Source, result: Result<String, String>) -> String {
    match result {
        Ok(text) => Response::Outcome { source, text },
        Err(message) => Response::Error { message },
    }
    .encode()
}

/// A reply still being worked out: a flow job, or one reply from each
/// listed shard's link, merged once all are in.
enum Later {
    Job(Source, Arc<Job>),
    Fan(Vec<usize>, Merge),
}

/// One client connection; a router's has one link per shard.
struct Client {
    stream: TcpStream,
    core: Conn<Later>,
    links: Vec<Link>,
}

impl Client {
    /// One sweep: read and answer requests, move the links' bytes,
    /// frame what has settled and flush it. Whether anything moved.
    fn pump(&mut self, verbs: &Verbs, stopping: &mut bool) -> bool {
        // A client whose requests fill a link's write budget is not
        // read again until that shard answers some of them.
        let backlog = |link: &Link| link.sent.iter().map(|(body, _)| body.len()).sum::<usize>();
        let mut progressed = self.links.iter().all(|link| backlog(link) < MAX_WRITE_BUF)
            && fill(&mut self.stream, &mut self.core, Conn::wants_input);
        while let Some(body) = self.core.next_request() {
            progressed = true;
            let request = Request::decode(&body);
            if matches!(request, Ok(Request::Shutdown)) {
                self.core.stop_reading();
                *stopping = true;
            }
            self.core.owe(match request {
                Ok(request) => verbs.answer(request, &body, &mut self.links),
                Err(e) => {
                    let message = e.to_string();
                    Owed::Ready(Response::Error { message }.encode())
                }
            });
        }
        for link in &mut self.links {
            progressed |= link.pump();
        }
        let links = &mut self.links;
        progressed |= self.core.settle(|later| match later {
            Later::Job(source, job) => Some(outcome(*source, job.try_result()?)),
            // Fans settle in request order and each link answers in
            // request order: a link's oldest reply is the head fan's.
            Later::Fan(shards, merge) => {
                if shards.iter().any(|&shard| links[shard].replies.is_empty()) {
                    return None;
                }
                let replies = shards.iter().map(|&shard| links[shard].replies.pop_front());
                Some(merge(replies.collect::<Option<_>>()?))
            }
        });
        progressed | flush(&mut self.stream, &mut self.core)
    }
}

/// A client's pipelined link to one shard, opened when a request needs it.
struct Link {
    addr: String,
    /// The reply a request gets when the shard cannot be reached.
    unreachable: String,
    socket: Option<(TcpStream, Conn<()>)>,
    /// Requests awaiting a reply, oldest first, each with the number of
    /// connections it has gone out on (never rising front to back).
    sent: VecDeque<(Rc<str>, u8)>,
    /// Replies not yet taken by their fan, oldest first.
    replies: VecDeque<String>,
}

impl Link {
    fn new((name, addr): &(String, String)) -> Link {
        let message = format!("shard {name} ({addr}) unreachable");
        Link {
            addr: addr.clone(),
            unreachable: Response::Error { message }.encode(),
            socket: None,
            sent: VecDeque::new(),
            replies: VecDeque::new(),
        }
    }

    fn send(&mut self, body: &Rc<str>) {
        let sent = self.socket.as_mut().map(|(_, core)| core.send(body));
        self.sent
            .push_back((Rc::clone(body), u8::from(sent.is_some())));
    }

    /// Opens a connection carrying every request awaiting a reply; if
    /// the shard cannot be reached, they are all answered unreachable.
    fn connect(&mut self) {
        let stream = TcpStream::connect(&self.addr);
        match stream.and_then(|s| s.set_nonblocking(true).map(|()| s)) {
            Ok(stream) => {
                let mut core = Conn::new();
                for (body, tries) in &mut self.sent {
                    core.send(body);
                    *tries += 1;
                }
                self.socket = Some((stream, core));
            }
            Err(_) => self.give_up(|_| true),
        }
    }

    /// Answers unreachable the oldest requests `spent` says are done.
    fn give_up(&mut self, spent: fn(u8) -> bool) {
        while self.sent.front().is_some_and(|&(_, tries)| spent(tries)) {
            self.sent.pop_front();
            self.replies.push_back(self.unreachable.clone());
        }
    }

    /// Moves this link's bytes and files the replies that arrived. A
    /// dead connection's requests go out once more on a fresh one, then
    /// are answered unreachable.
    fn pump(&mut self) -> bool {
        if self.socket.is_none() && !self.sent.is_empty() {
            self.connect();
        }
        let Some((stream, core)) = &mut self.socket else {
            return false;
        };
        let mut progressed = flush(stream, core) | fill(stream, core, Conn::open);
        loop {
            match core.take_frame() {
                Ok(None) => break,
                Ok(Some(reply)) if !self.sent.is_empty() => {
                    self.sent.pop_front();
                    self.replies.push_back(reply);
                }
                _ => core.fail(), // a broken or unasked-for frame
            }
            progressed = true;
        }
        if !core.open() {
            self.socket = None;
            self.give_up(|tries| tries >= 2);
        }
        progressed
    }
}

/// Moves `core`'s unwritten bytes to the socket until it would block or
/// is interrupted (the next sweep retries); a failed socket forfeits it.
fn flush<P>(stream: &mut TcpStream, core: &mut Conn<P>) -> bool {
    let mut progressed = false;
    while !core.unwritten().is_empty() {
        match stream.write(core.unwritten()) {
            Ok(n) if n > 0 => core.wrote(n),
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => break,
            _ => core.fail(),
        }
        progressed = true;
    }
    progressed
}

/// Reads into `core`, as [`flush`] writes, while `more` says so.
fn fill<P>(stream: &mut TcpStream, core: &mut Conn<P>, more: fn(&Conn<P>) -> bool) -> bool {
    let mut progressed = false;
    let mut chunk = [0u8; 16 * 1024];
    while more(core) {
        match stream.read(&mut chunk) {
            Ok(n) => core.received(&chunk[..n]),
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => break,
            Err(_) => core.fail(),
        }
        progressed = true;
    }
    progressed
}
