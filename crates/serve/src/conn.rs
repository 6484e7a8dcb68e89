//! The sans-IO connection core: one framed, pipelined connection as
//! plain data, with no sockets, clock or threads.
//!
//! The socket loop feeds the core the bytes it read, takes request frames
//! back, files one owed reply per request and writes out what the core
//! has framed. Only the head owed reply is polled, so replies leave
//! strictly in request order, each framed once. The rules a peer meets:
//!
//! - a frame with an honest header but a non-UTF-8 body is answered
//!   `ERROR malformed frame: …` in its place; the connection stays usable;
//! - an oversized header (over every cap, or over the default cap with a
//!   non-`LOAD` head) forfeits the connection: it cannot be re-framed;
//! - at end of input a partial frame is dropped (truncation) and the
//!   whole frames before it are still answered;
//! - a reply the protocol cannot carry forfeits the connection;
//! - with [`MAX_PENDING`] replies owed or [`MAX_WRITE_BUF`] bytes
//!   unflushed, no more requests are taken and no input is wanted.

use std::collections::VecDeque;

use crate::proto::{frame_cap, parse_frame, ProtoError, Response};

/// Cap on replies owed but not yet written.
pub(crate) const MAX_PENDING: usize = 128;

/// Cap on framed bytes not yet written.
pub(crate) const MAX_WRITE_BUF: usize = 4 << 20;

/// One reply owed to a connection, in request order.
pub(crate) enum Owed<P> {
    /// Already-encoded response body.
    Ready(String),
    /// Still being worked out; settled by polling, never by blocking.
    Later(P),
}

/// One connection: buffered input, owed replies, buffered output.
pub(crate) struct Conn<P> {
    read_buf: Vec<u8>,
    pending: VecDeque<Owed<P>>,
    /// Framed bytes not yet handed to the socket.
    write_buf: Vec<u8>,
    /// Cleared at end of input, on a failed socket, or on `SHUTDOWN`.
    reading: bool,
    /// Forfeit (oversized frame, failed socket): close at once.
    closing: bool,
}

impl<P> Conn<P> {
    pub(crate) fn new() -> Conn<P> {
        Conn {
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            write_buf: Vec::new(),
            reading: true,
            closing: false,
        }
    }

    pub(crate) fn open(&self) -> bool {
        self.reading && !self.closing
    }

    pub(crate) fn wants_input(&self) -> bool {
        self.open() && !self.throttled()
    }

    fn throttled(&self) -> bool {
        self.pending.len() >= MAX_PENDING || self.unwritten().len() >= MAX_WRITE_BUF
    }

    /// Bytes read from the peer; an empty read is the end of input.
    pub(crate) fn received(&mut self, bytes: &[u8]) {
        self.reading &= !bytes.is_empty();
        self.read_buf.extend_from_slice(bytes);
    }

    /// The socket failed: the connection is forfeit, nothing more moves.
    pub(crate) fn fail(&mut self) {
        self.stop_reading();
        self.write_buf.clear();
        self.closing = true;
    }

    /// Takes no more requests; what is already owed still settles.
    pub(crate) fn stop_reading(&mut self) {
        self.reading = false;
        self.read_buf.clear();
    }

    /// The next complete frame at the head of the input, consumed. A
    /// malformed frame is consumed too: its length header was honest.
    pub(crate) fn take_frame(&mut self) -> Result<Option<String>, ProtoError> {
        let frame = parse_frame(&self.read_buf);
        let consumed = match &frame {
            Ok(Some((_, consumed))) => *consumed,
            Err(ProtoError::Malformed { .. }) => {
                4 + u32::from_be_bytes(self.read_buf[..4].try_into().expect("header")) as usize
            }
            _ => 0,
        };
        self.read_buf.drain(..consumed);
        frame.map(|frame| frame.map(|(body, _)| body))
    }

    /// The next request to answer; `None` when no whole frame is
    /// buffered or the core is throttled. A malformed frame is answered
    /// here, in its place; an oversized header forfeits the connection.
    pub(crate) fn next_request(&mut self) -> Option<String> {
        while !self.closing && !self.throttled() {
            match self.take_frame() {
                Ok(frame) => return frame,
                Err(ProtoError::Malformed { what }) => {
                    let message = format!("malformed frame: {what}");
                    self.owe(Owed::Ready(Response::Error { message }.encode()));
                }
                Err(_) => self.fail(),
            }
        }
        None
    }

    /// Files the reply owed to the request just taken.
    pub(crate) fn owe(&mut self, owed: Owed<P>) {
        self.pending.push_back(owed);
    }

    /// Frames the owed replies head first, stopping at the first one
    /// `poll` cannot settle yet. Returns whether any was framed.
    pub(crate) fn settle(&mut self, mut poll: impl FnMut(&mut P) -> Option<String>) -> bool {
        let mut progressed = false;
        while let Some(owed) = self.pending.front_mut() {
            let body = match owed {
                Owed::Ready(body) => Some(std::mem::take(body)),
                Owed::Later(later) => poll(later),
            };
            let Some(body) = body else { break };
            self.pending.pop_front();
            self.send(&body);
            progressed = true;
        }
        progressed
    }

    /// Frames `body` for writing; one over its verb's cap forfeits the connection.
    pub(crate) fn send(&mut self, body: &str) {
        if body.len() > frame_cap(body) {
            self.closing = true;
            return;
        }
        self.write_buf
            .extend_from_slice(&(body.len() as u32).to_be_bytes());
        self.write_buf.extend_from_slice(body.as_bytes());
    }

    pub(crate) fn unwritten(&self) -> &[u8] {
        &self.write_buf
    }

    /// The socket took the first `n` unwritten bytes.
    pub(crate) fn wrote(&mut self, n: usize) {
        self.write_buf.drain(..n);
    }

    /// Nothing is left to do: no more input, everything owed answered
    /// and flushed. A forfeit connection is done at once: its socket
    /// may be unwritable, so waiting to flush could wedge a drain.
    pub(crate) fn is_done(&self) -> bool {
        let drained = self.pending.is_empty() && self.unwritten().is_empty();
        self.closing || (!self.reading && drained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MAX_FRAME;

    /// A stand-in for a flow job: settles after `polls` more polls.
    struct Job {
        name: String,
        polls: u32,
    }

    /// The test's answerer: `PING` and `BIG` answer at once, `JOB <name>`
    /// owes a reply that takes two polls, anything else is an error.
    fn answer(body: &str) -> Owed<Job> {
        match body.strip_prefix("JOB ") {
            Some(name) => Owed::Later(Job {
                name: name.to_string(),
                polls: 2,
            }),
            None => Owed::Ready(match body {
                "PING" => "PONG".to_string(),
                "BIG" => "B".repeat(512 << 10),
                _ => format!("ERROR unknown {body:?}"),
            }),
        }
    }

    fn poll(job: &mut Job) -> Option<String> {
        job.polls = job.polls.checked_sub(1)?;
        (job.polls == 0).then(|| format!("DONE {}", job.name))
    }

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(body);
        bytes
    }

    /// Takes and answers every request the core gives up, settles what
    /// it can, and returns the flushed reply bytes.
    fn turn(conn: &mut Conn<Job>) -> Vec<u8> {
        while let Some(body) = conn.next_request() {
            conn.owe(answer(&body));
        }
        conn.settle(poll);
        let out = conn.unwritten().to_vec();
        conn.wrote(out.len());
        out
    }

    /// Feeds `chunks` one per turn, then ends the input and turns until
    /// everything owed has settled. Returns every reply byte written.
    fn drive(chunks: &[&[u8]]) -> Vec<u8> {
        let mut conn = Conn::new();
        let mut out = Vec::new();
        for chunk in chunks {
            conn.received(chunk);
            out.extend(turn(&mut conn));
        }
        conn.received(&[]);
        for _ in 0..8 {
            out.extend(turn(&mut conn));
        }
        assert!(
            conn.is_done(),
            "everything owed settles after the input ends"
        );
        out
    }

    /// Splits reply bytes back into bodies.
    fn bodies(mut bytes: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        while let Some((body, consumed)) = parse_frame(bytes).expect("well-framed replies") {
            out.push(body);
            bytes = &bytes[consumed..];
        }
        assert!(bytes.is_empty(), "no partial reply frame");
        out
    }

    /// A pipeline with a deferred reply ahead of quick ones and a
    /// malformed frame in the middle.
    fn pipeline() -> Vec<u8> {
        [
            frame(b"PING"),
            frame(b"JOB a"),
            frame(&[0xff, 0xfe]),
            frame(b"PING"),
            frame(b"JOB b"),
            frame(b"BOGUS"),
        ]
        .concat()
    }

    fn pipeline_replies() -> Vec<String> {
        [
            "PONG",
            "DONE a",
            "ERROR malformed frame: non-UTF-8 payload",
            "PONG",
            "DONE b",
            "ERROR unknown \"BOGUS\"",
        ]
        .map(String::from)
        .to_vec()
    }

    #[test]
    fn replies_keep_request_order_with_a_malformed_frame_mid_pipeline() {
        assert_eq!(bodies(&drive(&[&pipeline()])), pipeline_replies());
    }

    #[test]
    fn every_split_point_gives_the_same_reply_bytes() {
        let input = pipeline();
        let whole = drive(&[&input]);
        for cut in 0..=input.len() {
            let (head, tail) = input.split_at(cut);
            assert_eq!(drive(&[head, tail]), whole, "split at byte {cut}");
        }
        let bytes: Vec<&[u8]> = input.chunks(1).collect();
        assert_eq!(drive(&bytes), whole, "one byte at a time");
    }

    #[test]
    fn two_pipelined_frames_in_one_chunk_get_two_replies_in_order() {
        let input = [frame(b"JOB x"), frame(b"PING")].concat();
        assert_eq!(bodies(&drive(&[&input])), ["DONE x", "PONG"]);
    }

    #[test]
    fn whole_frames_before_end_of_input_are_answered_and_a_partial_one_dropped() {
        let input = [frame(b"PING"), frame(b"JOB t")].concat();
        let mut conn: Conn<Job> = Conn::new();
        // The input ends (a half-close) before the core is turned once.
        conn.received(&input[..input.len() - 1]);
        conn.received(&[]);
        assert_eq!(bodies(&turn(&mut conn)), ["PONG"]);
        assert!(conn.is_done());
    }

    #[test]
    fn an_oversized_header_fed_one_byte_at_a_time_forfeits_the_connection() {
        let over_every_cap = u32::MAX.to_be_bytes().to_vec();
        let non_load_over_default = [
            (MAX_FRAME as u32 + 1).to_be_bytes().to_vec(),
            b"PING ...".to_vec(),
        ]
        .concat();
        for (input, verdict_at) in [(over_every_cap, 4), (non_load_over_default, 9)] {
            let mut conn: Conn<Job> = Conn::new();
            conn.received(&frame(b"PING"));
            for (i, byte) in input.iter().enumerate() {
                conn.received(std::slice::from_ref(byte));
                assert!(turn(&mut conn).is_empty() || i + 1 < verdict_at);
                assert_eq!(conn.is_done(), i + 1 >= verdict_at, "after byte {i}");
            }
            assert!(!conn.wants_input());
        }
        // A LOAD head may be that long: the core keeps waiting for it.
        let mut conn: Conn<Job> = Conn::new();
        conn.received(&(MAX_FRAME as u32 + 1).to_be_bytes());
        for byte in b"LOAD yosys-json " {
            conn.received(std::slice::from_ref(byte));
            turn(&mut conn);
        }
        assert!(conn.wants_input() && !conn.is_done());
    }

    #[test]
    fn max_pending_stops_reading_until_replies_drain() {
        let mut conn: Conn<Job> = Conn::new();
        let input: Vec<u8> = (0..MAX_PENDING + 3)
            .flat_map(|i| frame(format!("JOB {i}").as_bytes()))
            .collect();
        conn.received(&input);
        while let Some(body) = conn.next_request() {
            conn.owe(answer(&body));
        }
        assert_eq!(conn.pending.len(), MAX_PENDING);
        assert!(!conn.wants_input() && conn.next_request().is_none());
        // Two polls settle every head in turn: the rest is taken.
        conn.settle(poll);
        conn.settle(poll);
        let replies = bodies(conn.unwritten());
        assert_eq!(replies.len(), 1, "only the head had been polled twice");
        assert_eq!(replies[0], "DONE 0");
        assert!(conn.wants_input());
        assert_eq!(conn.next_request().as_deref(), Some("JOB 128"));
    }

    #[test]
    fn max_write_buf_stops_reading_until_the_socket_takes_bytes() {
        let mut conn: Conn<Job> = Conn::new();
        conn.received(&frame(b"BIG").repeat(10));
        let mut answered = 0;
        while let Some(body) = conn.next_request() {
            conn.owe(answer(&body));
            conn.settle(poll);
            answered += 1;
        }
        assert_eq!(answered, 8, "8 × 512 KiB reaches the 4 MiB cap");
        assert!(conn.unwritten().len() >= MAX_WRITE_BUF);
        assert!(!conn.wants_input() && conn.next_request().is_none());
        conn.wrote(conn.unwritten().len());
        assert!(conn.wants_input());
        assert_eq!(conn.next_request().as_deref(), Some("BIG"));
    }
}
