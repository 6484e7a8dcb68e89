//! The wire protocol: length-prefixed frames carrying one-line verbs
//! and canonical-text payloads.
//!
//! A frame is a 4-byte big-endian length followed by that many bytes of
//! UTF-8. Frames are bounded by [`MAX_FRAME`]; a header announcing more
//! is an [`ProtoError::Oversized`] error before any payload is read, and
//! a connection that dies mid-payload is [`ProtoError::Truncated`] — the
//! two failure paths the protocol property tests pin.
//!
//! Request bodies are single lines (`PING`, `STATS`, `SHUTDOWN`, or a
//! `RUN` line of `key=value` fields, in one order, each once; see
//! [`asicgap_tech::text`]). Response bodies are a verb line
//! optionally followed by a canonical-text payload (the
//! [`asicgap::ScenarioOutcome`] canonical form for `OUTCOME`, the metrics
//! snapshot for `STATS`) — the same bytes the batch tooling prints, so
//! cached, deduplicated, and freshly computed responses can be compared
//! byte-for-byte.

use std::fmt;
use std::io::{self, Read, Write};

use asicgap::frontend::DesignFormat;
use asicgap::{
    canonical_key, close_canonical_key, content_hash, ClosureTarget, DesignScenario, VerifyLevel,
    WireModel, WorkloadSpec,
};
use asicgap_tech::text::{num, TextError, Tokens};

/// Default ceiling on frame payloads (1 MiB). Far above any legitimate
/// outcome or stats dump; a header above this is treated as a protocol
/// violation, not an allocation request — except for `LOAD`, whose
/// design payloads get the larger [`MAX_LOAD_FRAME`] cap.
pub const MAX_FRAME: usize = 1 << 20;

/// Ceiling on `LOAD` request frames (16 MiB): real Yosys-JSON and EDIF
/// dumps routinely pass 1 MiB. The cap is per-verb — a frame over
/// [`MAX_FRAME`] is only accepted once its body proves to be a `LOAD`.
pub const MAX_LOAD_FRAME: usize = 16 << 20;

/// The per-verb frame cap table: everything rides the default
/// [`MAX_FRAME`] except `LOAD` payloads.
pub(crate) fn frame_cap(body: &str) -> usize {
    if body.as_bytes().starts_with(LOAD_PREFIX) {
        MAX_LOAD_FRAME
    } else {
        MAX_FRAME
    }
}

/// The body prefix of the one verb allowed past [`MAX_FRAME`]; read
/// paths judge over-cap frames on these first bytes so an oversized
/// non-`LOAD` frame is rejected before its body is buffered (or even
/// sent).
const LOAD_PREFIX: &[u8] = b"LOAD ";

/// Protocol-layer errors.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer closed the connection mid-frame.
    Truncated {
        /// Bytes the header promised.
        wanted: usize,
    },
    /// A frame header announced more than [`MAX_FRAME`] bytes.
    Oversized {
        /// Bytes the header promised.
        len: usize,
    },
    /// The frame arrived intact but its contents did not parse.
    Malformed {
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "protocol i/o error: {e}"),
            ProtoError::Truncated { wanted } => {
                write!(f, "truncated frame (header promised {wanted} bytes)")
            }
            ProtoError::Oversized { len } => {
                write!(f, "oversized frame ({len} bytes > {MAX_FRAME} max)")
            }
            ProtoError::Malformed { what } => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

fn malformed(what: impl Into<String>) -> ProtoError {
    ProtoError::Malformed { what: what.into() }
}

impl From<TextError> for ProtoError {
    fn from(e: TextError) -> ProtoError {
        malformed(e.what)
    }
}

/// Writes one frame, enforcing the per-verb cap ([`MAX_FRAME`], or
/// [`MAX_LOAD_FRAME`] for a `LOAD`).
///
/// # Errors
///
/// [`ProtoError::Oversized`] if `body` exceeds its verb's cap;
/// [`ProtoError::Io`] on socket failure.
pub fn write_frame(w: &mut impl Write, body: &str) -> Result<(), ProtoError> {
    let bytes = body.as_bytes();
    if bytes.len() > frame_cap(body) {
        return Err(ProtoError::Oversized { len: bytes.len() });
    }
    let len = u32::try_from(bytes.len()).expect("MAX_LOAD_FRAME fits in u32");
    w.write_all(&len.to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()?;
    Ok(())
}

/// The body length a frame header announces. Past [`MAX_LOAD_FRAME`]
/// the frame is oversized before any body byte is read.
fn announced_len(header: [u8; 4]) -> Result<usize, ProtoError> {
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_LOAD_FRAME {
        return Err(ProtoError::Oversized { len });
    }
    Ok(len)
}

/// The early verdict on the first bytes of a `len`-byte body: a frame
/// over the default cap is only legitimate as a `LOAD`, and the verb
/// shows in those bytes, so it is judged there instead of buffering
/// megabytes (or waiting forever for a body the peer never sends).
fn judge_head(len: usize, head: &[u8]) -> Result<(), ProtoError> {
    if len > MAX_FRAME && head.len() >= LOAD_PREFIX.len() && !head.starts_with(LOAD_PREFIX) {
        return Err(ProtoError::Oversized { len });
    }
    Ok(())
}

/// The verdict on a whole decoded body: its verb's cap applies once the
/// verb is known.
fn judge_cap(body: &str) -> Result<(), ProtoError> {
    if body.len() > frame_cap(body) {
        return Err(ProtoError::Oversized { len: body.len() });
    }
    Ok(())
}

fn non_utf8<E>(_: E) -> ProtoError {
    malformed("non-UTF-8 payload")
}

/// Reads one frame; `Ok(None)` on a clean end-of-stream before any
/// header byte (the peer hung up between requests, which is normal).
/// It reads the header, then exactly the body, and judges them by
/// [`parse_frame`]'s rules.
///
/// # Errors
///
/// [`ProtoError::Truncated`] when the stream ends mid-header or
/// mid-payload, [`ProtoError::Oversized`] on an over-limit header,
/// [`ProtoError::Malformed`] on non-UTF-8 payload, [`ProtoError::Io`]
/// on other socket failures.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, ProtoError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(ProtoError::Truncated { wanted: 4 }),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let len = announced_len(header)?;
    let mut body = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        judge_head(len, &body[..filled])?;
        match r.read(&mut body[filled..]) {
            Ok(0) => return Err(ProtoError::Truncated { wanted: len }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let body = String::from_utf8(body).map_err(non_utf8)?;
    judge_cap(&body)?;
    Ok(Some(body))
}

/// Incrementally parses one frame from the head of `buf` (the
/// non-blocking server's read path). `Ok(Some((body, consumed)))` when
/// a complete frame is present, `Ok(None)` when more bytes are needed.
///
/// # Errors
///
/// [`ProtoError::Oversized`] when the header (or a decoded non-`LOAD`
/// body over [`MAX_FRAME`]) exceeds its cap, [`ProtoError::Malformed`]
/// on non-UTF-8 payload.
pub fn parse_frame(buf: &[u8]) -> Result<Option<(String, usize)>, ProtoError> {
    let Some(header) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = announced_len(*header)?;
    judge_head(len, &buf[4..])?;
    let Some(body) = buf.get(4..4 + len) else {
        return Ok(None);
    };
    let body = std::str::from_utf8(body).map_err(non_utf8)?;
    judge_cap(body)?;
    Ok(Some((body.to_string(), 4 + len)))
}

/// The named scenario presets a client can request. The preset resolves
/// server-side to a full [`DesignScenario`]; the cache key is computed
/// from the *resolved* scenario, so a preset redefinition can never
/// serve stale results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioPreset {
    /// [`DesignScenario::typical_asic`].
    TypicalAsic,
    /// [`DesignScenario::best_practice_asic`].
    BestPracticeAsic,
    /// [`DesignScenario::custom`].
    Custom,
    /// Point `i` (0–31) of [`DesignScenario::factor_grid`].
    Grid(u8),
}

impl ScenarioPreset {
    /// The canonical spelling used on the wire.
    pub fn canonical(&self) -> String {
        match self {
            ScenarioPreset::TypicalAsic => "typical_asic".to_string(),
            ScenarioPreset::BestPracticeAsic => "best_practice_asic".to_string(),
            ScenarioPreset::Custom => "custom".to_string(),
            ScenarioPreset::Grid(i) => format!("grid:{i}"),
        }
    }

    /// Parses [`ScenarioPreset::canonical`] back.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] on unknown names or out-of-range grid
    /// indices.
    pub fn parse(s: &str) -> Result<ScenarioPreset, ProtoError> {
        match s {
            "typical_asic" => Ok(ScenarioPreset::TypicalAsic),
            "best_practice_asic" => Ok(ScenarioPreset::BestPracticeAsic),
            "custom" => Ok(ScenarioPreset::Custom),
            _ => {
                let i: u8 = s
                    .strip_prefix("grid:")
                    .and_then(|n| num(n).ok())
                    .ok_or_else(|| malformed(format!("scenario preset {s:?}")))?;
                if i >= 32 {
                    return Err(malformed(format!("grid index {i} out of 0..32")));
                }
                Ok(ScenarioPreset::Grid(i))
            }
        }
    }

    /// Resolves the preset to its scenario.
    pub fn scenario(&self) -> DesignScenario {
        match self {
            ScenarioPreset::TypicalAsic => DesignScenario::typical_asic(),
            ScenarioPreset::BestPracticeAsic => DesignScenario::best_practice_asic(),
            ScenarioPreset::Custom => DesignScenario::custom(),
            ScenarioPreset::Grid(i) => DesignScenario::factor_grid().swap_remove(usize::from(*i)),
        }
    }
}

/// One flow-run request: preset plus the per-request knobs. Identity
/// for caching/dedup is [`RunRequest::canonical_key`], not `Eq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRequest {
    /// Which scenario preset to run.
    pub preset: ScenarioPreset,
    /// Wire pricing override.
    pub wire_model: WireModel,
    /// Equivalence-checking level.
    pub verify: VerifyLevel,
    /// Seed override for the scenario's stochastic steps.
    pub seed: u64,
    /// The workload netlist to push through the flow.
    pub workload: WorkloadSpec,
    /// Per-request deadline in milliseconds; 0 means none. Checked
    /// between flow stages — an expired request is abandoned with a
    /// `cancelled` error instead of holding a worker.
    pub deadline_ms: u32,
}

impl RunRequest {
    /// A small default request (used by tooling): the typical ASIC on an
    /// 8-bit ALU, unverified, no deadline.
    pub fn small() -> RunRequest {
        RunRequest {
            preset: ScenarioPreset::TypicalAsic,
            wire_model: WireModel::Hpwl,
            verify: VerifyLevel::Off,
            seed: 1,
            workload: WorkloadSpec::Alu { width: 8 },
            deadline_ms: 0,
        }
    }

    /// The fully resolved scenario this request runs.
    pub fn scenario(&self) -> DesignScenario {
        let mut s = self.preset.scenario();
        s.wire_model = self.wire_model;
        s.seed = self.seed;
        s
    }

    /// The content-addressed identity of this request: the canonical
    /// key of the *resolved* scenario (deadline excluded — it bounds
    /// when a result arrives, not what it is).
    pub fn canonical_key(&self) -> String {
        canonical_key(&self.scenario(), &self.workload, self.verify)
    }

    /// [`content_hash`] of [`RunRequest::canonical_key`].
    pub fn content_hash(&self) -> u64 {
        content_hash(&self.canonical_key())
    }
}

/// One timing-closure request: the flow knobs of a [`RunRequest`] plus
/// the closure target. Identity for caching/dedup is
/// [`CloseRequest::canonical_key`], which embeds the *unchanged* flow
/// key under a `CLOSE`-specific header — a `CLOSE` result can never be
/// served for a `RUN` or vice versa.
#[derive(Debug, Clone, PartialEq)]
pub struct CloseRequest {
    /// The flow knobs: preset, wire model, verify level, seed, workload,
    /// deadline. The deadline cancels the fix loop at iteration
    /// boundaries (prep always completes).
    pub run: RunRequest,
    /// Target frequency in MHz.
    pub target_mhz: f64,
    /// ECO move budget for the fix loop.
    pub max_moves: u32,
}

impl CloseRequest {
    /// A small default request: the typical ASIC on an 8-bit ALU asked
    /// to close at `target_mhz`, 64-move budget, no deadline.
    pub fn small(target_mhz: f64) -> CloseRequest {
        CloseRequest {
            run: RunRequest::small(),
            target_mhz,
            max_moves: 64,
        }
    }

    /// The closure target this request asks for.
    pub fn target(&self) -> ClosureTarget {
        ClosureTarget::at(self.target_mhz).with_moves(self.max_moves as usize)
    }

    /// The content-addressed identity: [`close_canonical_key`] over the
    /// resolved scenario (deadline excluded, as for `RUN`).
    pub fn canonical_key(&self) -> String {
        close_canonical_key(
            &self.run.scenario(),
            &self.run.workload,
            self.run.verify,
            &self.target(),
        )
    }

    /// [`content_hash`] of [`CloseRequest::canonical_key`].
    pub fn content_hash(&self) -> u64 {
        content_hash(&self.canonical_key())
    }
}

fn wire_name(w: WireModel) -> &'static str {
    match w {
        WireModel::Hpwl => "hpwl",
        WireModel::Routed => "routed",
    }
}

fn parse_wire(s: &str) -> Result<WireModel, ProtoError> {
    [WireModel::Hpwl, WireModel::Routed]
        .into_iter()
        .find(|&w| wire_name(w) == s)
        .ok_or_else(|| malformed(format!("wire model {s:?}")))
}

fn run_fields(r: &RunRequest) -> String {
    format!(
        "preset={} wire={} verify={} seed={} workload={} deadline_ms={}",
        r.preset.canonical(),
        wire_name(r.wire_model),
        r.verify.name(),
        r.seed,
        r.workload.canonical(),
        r.deadline_ms
    )
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Run (or fetch) one scenario flow.
    Run(RunRequest),
    /// Run (or fetch) one closed-loop timing-closure flow.
    Close(CloseRequest),
    /// Upload a design payload (Yosys JSON or EDIF text). The server
    /// content-hashes it into its design store and answers `LOADED`
    /// with the canonical `file/<format>/<hash>` workload key, which
    /// later `RUN`/`CLOSE` requests can name as their workload.
    Load {
        /// The payload's format.
        format: DesignFormat,
        /// The design text itself.
        payload: String,
    },
    /// Fetch the metrics snapshot.
    Stats,
    /// Drain the queue, stop the workers, and close the listener.
    Shutdown,
}

impl Request {
    /// Serializes to a frame body.
    pub fn encode(&self) -> String {
        match self {
            Request::Ping => "PING".to_string(),
            Request::Stats => "STATS".to_string(),
            Request::Shutdown => "SHUTDOWN".to_string(),
            Request::Run(r) => format!("RUN {}", run_fields(r)),
            Request::Close(c) => format!(
                "CLOSE {} target_mhz={:?} max_moves={}",
                run_fields(&c.run),
                c.target_mhz,
                c.max_moves
            ),
            Request::Load { format, payload } => {
                format!("LOAD {}\n{payload}", format.canonical())
            }
        }
    }

    /// Parses a frame body.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] on unknown verbs or bad `RUN` fields.
    pub fn decode(body: &str) -> Result<Request, ProtoError> {
        match body {
            "PING" => return Ok(Request::Ping),
            "STATS" => return Ok(Request::Stats),
            "SHUTDOWN" => return Ok(Request::Shutdown),
            _ => {}
        }
        if let Some(rest) = body.strip_prefix("LOAD ") {
            let (fmt, payload) = rest
                .split_once('\n')
                .ok_or_else(|| malformed("LOAD without payload"))?;
            let format = DesignFormat::parse(fmt)
                .ok_or_else(|| malformed(format!("design format {fmt:?}")))?;
            return Ok(Request::Load {
                format,
                payload: payload.to_string(),
            });
        }
        let (close, fields) = match body.split_once(' ') {
            Some(("RUN", fields)) => (false, fields),
            Some(("CLOSE", fields)) => (true, fields),
            _ => return Err(malformed(format!("unknown verb in {body:?}"))),
        };
        // Fields in the order `encode` writes them, each exactly once.
        let mut t = Tokens::new(fields);
        let run = RunRequest {
            preset: ScenarioPreset::parse(t.pair("preset")?)?,
            wire_model: parse_wire(t.pair("wire")?)?,
            verify: VerifyLevel::parse(t.pair("verify")?)
                .ok_or_else(|| malformed("verify level"))?,
            seed: t.key("seed")?,
            workload: WorkloadSpec::parse(t.pair("workload")?)
                .map_err(|e| malformed(e.to_string()))?,
            deadline_ms: t.key("deadline_ms")?,
        };
        if close {
            let target_mhz: f64 = t.key("target_mhz")?;
            if !(target_mhz.is_finite() && target_mhz > 0.0) {
                return Err(malformed(format!("target_mhz {target_mhz:?}")));
            }
            let max_moves = t.key("max_moves")?;
            t.end()?;
            return Ok(Request::Close(CloseRequest {
                run,
                target_mhz,
                max_moves,
            }));
        }
        t.end()?;
        Ok(Request::Run(run))
    }
}

/// Where an `OUTCOME` response came from. All three sources return the
/// same bytes for the same request — that is the serving layer's
/// correctness contract, asserted end-to-end in `tests/serve.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// Served from the content-addressed result cache.
    Cache,
    /// Computed fresh by this request.
    Computed,
    /// Joined an identical request already in flight.
    Deduped,
}

impl Source {
    /// Wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Source::Cache => "cache",
            Source::Computed => "computed",
            Source::Deduped => "deduped",
        }
    }

    fn parse(s: &str) -> Result<Source, ProtoError> {
        [Source::Cache, Source::Computed, Source::Deduped]
            .into_iter()
            .find(|source| source.name() == s)
            .ok_or_else(|| malformed(format!("outcome source {s:?}")))
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `PING` acknowledgement.
    Pong,
    /// A completed flow run: provenance plus the canonical outcome text.
    Outcome {
        /// Where the bytes came from.
        source: Source,
        /// [`asicgap::ScenarioOutcome`] canonical text.
        text: String,
    },
    /// Admission control rejected the request: the queue is full.
    Busy {
        /// Suggested client back-off.
        retry_after_ms: u32,
    },
    /// Metrics snapshot canonical text.
    Stats {
        /// [`crate::metrics::MetricsSnapshot`] canonical text.
        text: String,
    },
    /// `LOAD` acknowledgement: the design is in the server's store.
    Loaded {
        /// The canonical `file/<format>/<hash>` workload key to use in
        /// later `RUN`/`CLOSE` requests.
        spec: String,
    },
    /// `SHUTDOWN` acknowledgement; the server is draining.
    Bye,
    /// The request failed (parse error, flow error, cancelled deadline).
    Error {
        /// One-line description.
        message: String,
    },
}

impl Response {
    /// Serializes to a frame body.
    pub fn encode(&self) -> String {
        match self {
            Response::Pong => "PONG".to_string(),
            Response::Bye => "BYE".to_string(),
            Response::Busy { retry_after_ms } => format!("BUSY {retry_after_ms}"),
            Response::Error { message } => {
                format!("ERROR {}", message.replace('\n', " "))
            }
            Response::Outcome { source, text } => {
                format!("OUTCOME {}\n{text}", source.name())
            }
            Response::Stats { text } => format!("STATS\n{text}"),
            Response::Loaded { spec } => format!("LOADED {spec}"),
        }
    }

    /// Parses a frame body.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] on unknown verbs or bad fields.
    pub fn decode(body: &str) -> Result<Response, ProtoError> {
        match body {
            "PONG" => return Ok(Response::Pong),
            "BYE" => return Ok(Response::Bye),
            _ => {}
        }
        if let Some(ms) = body.strip_prefix("BUSY ") {
            return Ok(Response::Busy {
                retry_after_ms: num(ms)?,
            });
        }
        if let Some(message) = body.strip_prefix("ERROR ") {
            return Ok(Response::Error {
                message: message.to_string(),
            });
        }
        if let Some(rest) = body.strip_prefix("OUTCOME ") {
            let (source, text) = rest
                .split_once('\n')
                .ok_or_else(|| malformed("OUTCOME without payload"))?;
            return Ok(Response::Outcome {
                source: Source::parse(source)?,
                text: text.to_string(),
            });
        }
        if let Some(text) = body.strip_prefix("STATS\n") {
            return Ok(Response::Stats {
                text: text.to_string(),
            });
        }
        if let Some(spec) = body.strip_prefix("LOADED ") {
            return Ok(Response::Loaded {
                spec: spec.to_string(),
            });
        }
        Err(malformed(format!(
            "unknown response verb in {:?}",
            body.split('\n').next().unwrap_or("")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_tech::Rng64;

    fn random_run(rng: &mut Rng64) -> RunRequest {
        let presets = [
            ScenarioPreset::TypicalAsic,
            ScenarioPreset::BestPracticeAsic,
            ScenarioPreset::Custom,
            ScenarioPreset::Grid((rng.next_u64() % 32) as u8),
        ];
        let workloads = [
            WorkloadSpec::Alu { width: 8 },
            WorkloadSpec::RippleCarryAdder { width: 16 },
            WorkloadSpec::KoggeStoneAdder { width: 8 },
            WorkloadSpec::ArrayMultiplier { width: 6 },
            WorkloadSpec::MuxTree { inputs: 8 },
            WorkloadSpec::ParityTree { width: 9 },
        ];
        RunRequest {
            preset: presets[(rng.next_u64() % 4) as usize],
            wire_model: if rng.next_u64().is_multiple_of(2) {
                WireModel::Hpwl
            } else {
                WireModel::Routed
            },
            verify: match rng.next_u64() % 3 {
                0 => VerifyLevel::Off,
                1 => VerifyLevel::Sim,
                _ => VerifyLevel::Full,
            },
            seed: rng.next_u64(),
            workload: workloads[(rng.next_u64() % 6) as usize].clone(),
            deadline_ms: (rng.next_u64() % 100_000) as u32,
        }
    }

    /// Hands out the bytes before `split`, then the rest, at most `step`
    /// per `read`; then end-of-stream.
    struct Pieces<'a> {
        data: &'a [u8],
        at: usize,
        split: usize,
        step: usize,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let end = if self.at < self.split {
                self.split
            } else {
                self.data.len()
            };
            let n = buf.len().min(self.step).min(end - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn frame(len: usize, body: &[u8]) -> Vec<u8> {
        let mut f = (len as u32).to_be_bytes().to_vec();
        f.extend_from_slice(body);
        f
    }

    /// What `read_frame` must return on a stream holding exactly `bytes`:
    /// `parse_frame`'s body or error, and where `parse_frame` still waits
    /// for bytes, a clean end before any byte or a truncation.
    fn expected(bytes: &[u8]) -> Result<Option<String>, std::mem::Discriminant<ProtoError>> {
        match parse_frame(bytes) {
            Ok(Some((body, used))) => {
                assert_eq!(used, bytes.len(), "one frame per shape");
                Ok(Some(body))
            }
            Ok(None) if bytes.is_empty() => Ok(None),
            Ok(None) => Err(std::mem::discriminant(&ProtoError::Truncated { wanted: 0 })),
            Err(e) => Err(std::mem::discriminant(&e)),
        }
    }

    #[test]
    fn read_frame_judges_every_split_as_parse_frame_does() {
        let shapes: Vec<(&str, Vec<u8>)> = vec![
            ("ok", frame(4, b"PING")),
            ("empty", frame(0, b"")),
            ("load", frame(9, b"LOAD x=1\n")),
            ("malformed UTF-8", frame(3, &[0xff, 0xfe, b'a'])),
            ("oversized header", frame(MAX_LOAD_FRAME + 1, b"LOAD abc")),
            ("over-cap non-LOAD", frame(MAX_FRAME + 1, b"RUN preset")),
            (
                "over-cap LOAD, cut short",
                frame(MAX_FRAME + 1, b"LOAD abc"),
            ),
            ("truncated", frame(10, b"PIN")),
        ];
        for (shape, bytes) in &shapes {
            for k in 0..=bytes.len() {
                // The stream ends at `k`, one byte per read.
                let prefix = &bytes[..k];
                let mut one = Pieces {
                    data: prefix,
                    at: 0,
                    split: 0,
                    step: 1,
                };
                let got = read_frame(&mut one).map_err(|e| std::mem::discriminant(&e));
                assert_eq!(got, expected(prefix), "{shape}: stream cut at {k}");
                // The whole frame, in two pieces split at `k`.
                let mut two = Pieces {
                    data: bytes,
                    at: 0,
                    split: k,
                    step: usize::MAX,
                };
                let got = read_frame(&mut two).map_err(|e| std::mem::discriminant(&e));
                assert_eq!(got, expected(bytes), "{shape}: split at {k}");
            }
        }
    }

    #[test]
    fn requests_round_trip() {
        let mut rng = Rng64::new(0x5E_4E);
        for _ in 0..256 {
            let req = Request::Run(random_run(&mut rng));
            assert_eq!(Request::decode(&req.encode()).expect("decodes"), req);
        }
        for req in [Request::Ping, Request::Stats, Request::Shutdown] {
            assert_eq!(Request::decode(&req.encode()).expect("decodes"), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let mut rng = Rng64::new(0xCAFE);
        for i in 0..256u64 {
            let resp = match rng.next_u64() % 6 {
                0 => Response::Pong,
                1 => Response::Bye,
                2 => Response::Busy {
                    retry_after_ms: (rng.next_u64() % 10_000) as u32,
                },
                3 => Response::Error {
                    message: format!("flow failed on cone {i}"),
                },
                4 => Response::Outcome {
                    source: [Source::Cache, Source::Computed, Source::Deduped]
                        [(rng.next_u64() % 3) as usize],
                    text: format!("outcome/v1\nscenario x{i}\nend\n"),
                },
                _ => Response::Stats {
                    text: format!("stats/v1\nrequests {i}\nend\n"),
                },
            };
            assert_eq!(Response::decode(&resp.encode()).expect("decodes"), resp);
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut rng = Rng64::new(0xF00D);
        for _ in 0..64 {
            let body = Request::Run(random_run(&mut rng)).encode();
            let mut buf = Vec::new();
            write_frame(&mut buf, &body).expect("writes");
            let back = read_frame(&mut buf.as_slice()).expect("reads");
            assert_eq!(back.as_deref(), Some(body.as_str()));
        }
        // Clean EOF between frames is None, not an error.
        assert!(read_frame(&mut [].as_slice()).expect("clean eof").is_none());
    }

    #[test]
    fn truncated_frames_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "PING").expect("writes");
        // Cut mid-payload and mid-header.
        for cut in [buf.len() - 2, 2] {
            let r = read_frame(&mut buf[..cut].as_ref());
            assert!(
                matches!(r, Err(ProtoError::Truncated { .. })),
                "cut at {cut}: {r:?}"
            );
        }
    }

    #[test]
    fn oversized_frames_error_both_directions() {
        // A header promising more than the largest per-verb cap errors
        // before any payload is read.
        let len = (MAX_LOAD_FRAME as u32 + 1).to_be_bytes();
        let r = read_frame(&mut len.as_slice());
        assert!(matches!(r, Err(ProtoError::Oversized { .. })), "{r:?}");
        // A non-LOAD body over the 1 MiB default cap is rejected once
        // the verb is known, reading and writing.
        let huge = format!("RUN {}", "x".repeat(MAX_FRAME));
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &huge),
            Err(ProtoError::Oversized { .. })
        ));
        assert!(buf.is_empty(), "nothing written for refused frame");
        let mut wire = (huge.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(huge.as_bytes());
        let r = read_frame(&mut wire.as_slice());
        assert!(matches!(r, Err(ProtoError::Oversized { .. })), "{r:?}");
        let r = parse_frame(&wire);
        assert!(matches!(r, Err(ProtoError::Oversized { .. })), "{r:?}");
        // The verdict is early: an over-cap non-LOAD header followed by
        // a *partial* body already errors — neither read path waits for
        // (or buffers) megabytes the peer may never send.
        let mut partial = (MAX_FRAME as u32 + 1).to_be_bytes().to_vec();
        partial.extend_from_slice(&[b'x'; 64]);
        let r = parse_frame(&partial);
        assert!(matches!(r, Err(ProtoError::Oversized { .. })), "{r:?}");
        let r = read_frame(&mut partial.as_slice());
        assert!(matches!(r, Err(ProtoError::Oversized { .. })), "{r:?}");
        // While the same partial prefix spelling LOAD keeps waiting.
        let mut partial = (MAX_FRAME as u32 + 1).to_be_bytes().to_vec();
        partial.extend_from_slice(b"LOAD yosys-json\n{}");
        assert!(matches!(parse_frame(&partial), Ok(None)));
    }

    #[test]
    fn load_frames_ride_the_larger_per_verb_cap() {
        // A LOAD payload between the default and LOAD caps round-trips…
        let body = format!("LOAD yosys-json\n{}", "{}".repeat(MAX_FRAME));
        assert!(body.len() > MAX_FRAME && body.len() <= MAX_LOAD_FRAME);
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).expect("LOAD over 1 MiB writes");
        let back = read_frame(&mut buf.as_slice()).expect("reads");
        assert_eq!(back.as_deref(), Some(body.as_str()));
        let (parsed, consumed) = parse_frame(&buf).expect("parses").expect("complete");
        assert_eq!((parsed.as_str(), consumed), (body.as_str(), buf.len()));
        // …while one over the LOAD cap is still refused.
        let over = format!("LOAD yosys-json\n{}", "x".repeat(MAX_LOAD_FRAME));
        assert!(matches!(
            write_frame(&mut Vec::new(), &over),
            Err(ProtoError::Oversized { .. })
        ));
    }

    #[test]
    fn parse_frame_handles_partial_input() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "PING").expect("writes");
        write_frame(&mut buf, "STATS").expect("writes");
        for cut in 0..buf.len() {
            match parse_frame(&buf[..cut]) {
                Ok(Some((body, consumed))) => {
                    assert_eq!(body, "PING");
                    assert_eq!(consumed, 8);
                }
                Ok(None) => assert!(cut < 8, "complete frame not parsed at {cut}"),
                Err(e) => panic!("cut {cut}: {e}"),
            }
        }
        let (first, consumed) = parse_frame(&buf).expect("ok").expect("complete");
        assert_eq!(first, "PING");
        let (second, rest) = parse_frame(&buf[consumed..])
            .expect("ok")
            .expect("complete");
        assert_eq!(second, "STATS");
        assert_eq!(consumed + rest, buf.len());
    }

    #[test]
    fn non_utf8_payload_is_malformed() {
        let buf = vec![0, 0, 0, 2, 0xFF, 0xFE];
        let r = read_frame(&mut buf.as_slice());
        assert!(matches!(r, Err(ProtoError::Malformed { .. })), "{r:?}");
    }

    #[test]
    fn close_requests_round_trip() {
        let mut rng = Rng64::new(0xC105E);
        for _ in 0..256 {
            let req = Request::Close(CloseRequest {
                run: random_run(&mut rng),
                target_mhz: (rng.next_u64() % 2_000) as f64 / 2.0 + 1.0,
                max_moves: (rng.next_u64() % 256) as u32,
            });
            assert_eq!(Request::decode(&req.encode()).expect("decodes"), req);
        }
        // CLOSE-only fields are rejected on RUN, and CLOSE requires them.
        assert!(Request::decode("RUN preset=custom wire=hpwl verify=off seed=1 workload=alu/8 deadline_ms=0 target_mhz=250.0 max_moves=4").is_err());
        assert!(Request::decode(
            "CLOSE preset=custom wire=hpwl verify=off seed=1 workload=alu/8 deadline_ms=0"
        )
        .is_err());
        assert!(Request::decode(
            "CLOSE preset=custom wire=hpwl verify=off seed=1 workload=alu/8 deadline_ms=0 target_mhz=-5 max_moves=4"
        )
        .is_err());
    }

    #[test]
    fn close_request_identity_excludes_deadline_but_not_target() {
        let a = CloseRequest::small(250.0);
        let mut b = a.clone();
        b.run.deadline_ms = 5000;
        assert_eq!(a.canonical_key(), b.canonical_key());
        let mut c = a.clone();
        c.target_mhz = 300.0;
        assert_ne!(a.content_hash(), c.content_hash());
        let mut d = a.clone();
        d.max_moves = 3;
        assert_ne!(a.content_hash(), d.content_hash());
        // And a CLOSE key never collides with the RUN key of the same
        // flow knobs.
        assert_ne!(a.canonical_key(), a.run.canonical_key());
        assert!(a.canonical_key().contains(&a.run.canonical_key()));
    }

    #[test]
    fn run_request_identity_excludes_deadline() {
        let a = RunRequest::small();
        let mut b = a.clone();
        b.deadline_ms = 5000;
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.content_hash(), b.content_hash());
        let mut c = a.clone();
        c.seed = 99;
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn load_round_trips_and_rejects_bad_forms() {
        for format in [DesignFormat::YosysJson, DesignFormat::Edif] {
            let req = Request::Load {
                format,
                payload: "{\n  \"modules\": {}\n}\n".to_string(),
            };
            assert_eq!(Request::decode(&req.encode()).expect("decodes"), req);
        }
        let resp = Response::Loaded {
            spec: "file/yosys-json/00000000deadbeef".to_string(),
        };
        assert_eq!(Response::decode(&resp.encode()).expect("decodes"), resp);
        // No payload separator, and an unknown format, are malformed.
        assert!(Request::decode("LOAD yosys-json").is_err());
        assert!(Request::decode("LOAD vhdl\nentity e;").is_err());
    }

    #[test]
    fn grid_presets_resolve_to_grid_points() {
        let grid = asicgap::DesignScenario::factor_grid();
        for i in [0u8, 7, 31] {
            let s = ScenarioPreset::Grid(i).scenario();
            assert_eq!(s.name, grid[usize::from(i)].name);
        }
        assert!(ScenarioPreset::parse("grid:32").is_err());
        assert!(ScenarioPreset::parse("grid:-1").is_err());
    }
}
