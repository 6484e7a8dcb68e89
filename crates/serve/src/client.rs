//! Blocking client for the serve protocol.
//!
//! Wraps one TCP connection; every call is a request/response pair.
//! [`Client::run_retry`] implements the polite reaction to admission
//! control — sleep for the server's `Retry-After` hint and resubmit —
//! which is what the load generator and CI smoke test use.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use crate::metrics::MetricsSnapshot;
use crate::proto::{
    read_frame, write_frame, CloseRequest, ProtoError, Request, Response, RunRequest, Source,
};

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Proto(ProtoError),
    /// The server answered `ERROR <message>`.
    Server(String),
    /// The server answered with a verb this call does not expect.
    Unexpected(String),
    /// `run_retry` exhausted its retry budget against `BUSY`.
    StillBusy {
        /// How many attempts were made.
        attempts: u32,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "client protocol error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Unexpected(v) => write!(f, "unexpected response: {v}"),
            ClientError::StillBusy { attempts } => {
                write!(f, "server still busy after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// One connection to a `served` daemon.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects immediately.
    ///
    /// # Errors
    ///
    /// [`ClientError::Proto`] on connection failure.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
        })
    }

    /// Connects, retrying for up to `patience` (for racing a daemon
    /// that is still binding its socket, as the CI smoke test does).
    ///
    /// # Errors
    ///
    /// The last connection error once `patience` is exhausted.
    pub fn connect_retry(addr: SocketAddr, patience: Duration) -> Result<Client, ClientError> {
        let start = Instant::now();
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => return Ok(Client { stream }),
                Err(e) if start.elapsed() >= patience => return Err(e.into()),
                Err(_) => thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &req.encode())?;
        let body = read_frame(&mut self.stream)?
            .ok_or(ClientError::Proto(ProtoError::Truncated { wanted: 4 }))?;
        Ok(Response::decode(&body)?)
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a non-`PONG` reply.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Sends one flow request (`RUN` or `CLOSE`) and waits for its
    /// outcome; the `Err` side of the inner result is the server's `BUSY`
    /// retry hint.
    #[allow(clippy::type_complexity)]
    fn flow(&mut self, req: &Request) -> Result<Result<(Source, String), u32>, ClientError> {
        match self.call(req)? {
            Response::Outcome { source, text } => Ok(Ok((source, text))),
            Response::Busy { retry_after_ms } => Ok(Err(retry_after_ms)),
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// [`Client::flow`], sleeping out `BUSY` hints up to `max_attempts`
    /// times.
    fn flow_retry(
        &mut self,
        req: &Request,
        max_attempts: u32,
    ) -> Result<(Source, String), ClientError> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match self.flow(req)? {
                Ok(done) => return Ok(done),
                Err(retry_after_ms) if attempts < max_attempts => {
                    thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                }
                Err(_) => return Err(ClientError::StillBusy { attempts }),
            }
        }
    }

    /// Submits one run and waits for its outcome. `Ok(Err(hint))` means
    /// the server said `BUSY`, with its retry hint in milliseconds.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for flow errors/cancellations,
    /// [`ClientError::Proto`] on transport failure.
    #[allow(clippy::type_complexity)]
    pub fn run(&mut self, req: RunRequest) -> Result<Result<(Source, String), u32>, ClientError> {
        self.flow(&Request::Run(req))
    }

    /// [`Client::run`], sleeping out `BUSY` hints up to `max_attempts`
    /// times.
    ///
    /// # Errors
    ///
    /// As [`Client::run`], plus [`ClientError::StillBusy`] when every
    /// attempt was rejected.
    pub fn run_retry(
        &mut self,
        req: RunRequest,
        max_attempts: u32,
    ) -> Result<(Source, String), ClientError> {
        self.flow_retry(&Request::Run(req), max_attempts)
    }

    /// Submits one timing-closure run and waits for its outcome; the
    /// `Err` side of the inner result is the server's `BUSY` retry hint,
    /// as for [`Client::run`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for flow errors and deadline
    /// cancellations (`cancelled at iteration boundary N`),
    /// [`ClientError::Proto`] on transport failure.
    #[allow(clippy::type_complexity)]
    pub fn close(
        &mut self,
        req: CloseRequest,
    ) -> Result<Result<(Source, String), u32>, ClientError> {
        self.flow(&Request::Close(req))
    }

    /// [`Client::close`], sleeping out `BUSY` hints up to `max_attempts`
    /// times.
    ///
    /// # Errors
    ///
    /// As [`Client::close`], plus [`ClientError::StillBusy`] when every
    /// attempt was rejected.
    pub fn close_retry(
        &mut self,
        req: CloseRequest,
        max_attempts: u32,
    ) -> Result<(Source, String), ClientError> {
        self.flow_retry(&Request::Close(req), max_attempts)
    }

    /// Uploads a design payload; returns the canonical
    /// `file/<format>/<hash>` workload key for later `RUN`/`CLOSE`
    /// requests (parse it with `asicgap::WorkloadSpec::parse`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the payload does not parse,
    /// [`ClientError::Proto`] on transport failure.
    pub fn load(
        &mut self,
        format: asicgap::frontend::DesignFormat,
        payload: String,
    ) -> Result<String, ClientError> {
        match self.call(&Request::Load { format, payload })? {
            Response::Loaded { spec } => Ok(spec),
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Fetches and parses the server's metrics snapshot.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure, a non-`STATS` reply, or an
    /// unparseable snapshot.
    pub fn stats(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats { text } => Ok(MetricsSnapshot::parse(&text)?),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a non-`BYE` reply.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }
}
