//! Per-connection state for the epoll reactor: the incremental line
//! framer and the connection record (outbox, request lanes, lifecycle
//! phase).
//!
//! The framer is the push-based port of the old blocking server's
//! bounded line reader, with byte-identical semantics: a line's
//! *payload* (terminator and an optional trailing `\r` excluded) may be
//! at most `cap` bytes; an over-long line is discarded as it streams in
//! — never buffered in full — retaining only a `cap + 1`-byte salvage
//! prefix so the `RequestTooLarge` error can still echo the request's
//! `id` (see [`crate::protocol::salvage_id`]). The difference is the
//! control flow: instead of pulling chunks from a blocking `BufRead`,
//! the reactor *pushes* whatever a nonblocking `read` returned and the
//! framer carries its accumulation/drain state across calls.

use crate::json::Json;
use crate::protocol::Request;
use crate::service::Session;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};

/// One framed unit from the byte stream.
#[derive(Debug, PartialEq)]
pub(crate) enum Frame {
    /// A complete line (terminator stripped) within the cap.
    Line(String),
    /// The line exceeded the cap; its tail was discarded unread.
    /// `prefix` is the retained head (at most `cap + 1` bytes, lossily
    /// decoded) — enough to salvage a correlation id.
    TooLong {
        /// Retained head of the discarded line.
        prefix: String,
    },
}

/// Incremental `\n`-delimited framing with a payload byte cap.
///
/// Feed it raw chunks as they arrive; it emits zero or more [`Frame`]s
/// per chunk. At most `cap + 1` bytes of an unterminated line are ever
/// held (the one byte of slack is where a CRLF's `\r` sits until the
/// terminator proves it part of the line ending).
pub(crate) struct LineFramer {
    cap: usize,
    line: Vec<u8>,
    /// Inside an over-long line: discard until the terminator.
    draining: bool,
}

impl LineFramer {
    pub fn new(cap: usize) -> LineFramer {
        LineFramer {
            cap,
            line: Vec::new(),
            draining: false,
        }
    }

    fn too_long(&mut self) -> Frame {
        Frame::TooLong {
            prefix: String::from_utf8_lossy(&std::mem::take(&mut self.line)).into_owned(),
        }
    }

    /// Consume one chunk of bytes, appending completed frames to `out`.
    pub fn feed(&mut self, mut chunk: &[u8], out: &mut Vec<Frame>) {
        while !chunk.is_empty() {
            let newline = chunk.iter().position(|&b| b == b'\n');
            let take = newline.unwrap_or(chunk.len());
            if self.draining {
                // Over-long line: discard up to the terminator. The
                // salvage prefix was already captured when the overflow
                // was detected.
                if newline.is_some() {
                    self.draining = false;
                    out.push(self.too_long());
                    chunk = &chunk[take + 1..];
                } else {
                    chunk = &[];
                }
                continue;
            }
            if self.line.len() + take > self.cap + 1 {
                // Even a trailing-\r allowance can't save this line:
                // keep only the salvage prefix (topped up to the cap+1
                // bound from this chunk), then switch to drain mode —
                // the loop re-examines the rest of the chunk there.
                let top_up = (self.cap + 1).saturating_sub(self.line.len()).min(take);
                self.line.extend_from_slice(&chunk[..top_up]);
                self.draining = true;
                chunk = &chunk[top_up..];
                continue;
            }
            self.line.extend_from_slice(&chunk[..take]);
            match newline {
                Some(_) => {
                    // Strip an optional \r for CRLF clients, then
                    // enforce the cap on the actual payload.
                    if self.line.last() == Some(&b'\r') {
                        self.line.pop();
                    }
                    if self.line.len() > self.cap {
                        out.push(self.too_long());
                    } else {
                        out.push(Frame::Line(
                            String::from_utf8_lossy(&std::mem::take(&mut self.line)).into_owned(),
                        ));
                    }
                    chunk = &chunk[take + 1..];
                }
                None => chunk = &[],
            }
        }
    }

    /// End of stream: a dangling unterminated tail still counts as a
    /// line (over-cap tails, including an interrupted drain, report as
    /// [`Frame::TooLong`]).
    pub fn finish(&mut self) -> Option<Frame> {
        if self.draining {
            self.draining = false;
            return Some(self.too_long());
        }
        if self.line.is_empty() {
            return None;
        }
        if self.line.len() > self.cap {
            return Some(self.too_long());
        }
        Some(Frame::Line(
            String::from_utf8_lossy(&std::mem::take(&mut self.line)).into_owned(),
        ))
    }
}

/// A connection's autocommit `execute`s — each script with its request
/// id — waiting in the pool queue as one job: the reactor appends while
/// the job waits (`Some`), the worker that pops the job takes them
/// (`None` again).
pub(crate) type AutocommitRun = Mutex<Option<Vec<(String, Option<Json>)>>>;

/// Where a connection is in its lifecycle.
pub(crate) enum ConnPhase {
    /// Reading and serving requests.
    Open,
    /// A `quit` arrived: no further reads; once all in-flight work has
    /// answered, the bye response is queued (`bye_queued`), the outbox
    /// flushed, and the connection closed. `quit` is thereby a
    /// *barrier*: its bye is always the connection's last response.
    Quitting {
        /// The quit request's correlation id, echoed on the bye.
        id: Option<Json>,
        /// Whether the bye response has been appended to the outbox.
        bye_queued: bool,
    },
    /// Peer half-closed (EOF): no bye owed, but in-flight responses are
    /// still completed and flushed before the connection closes.
    HalfClosed,
}

/// One live connection owned by the reactor.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub framer: LineFramer,
    /// Bytes queued for the peer, flushed on write readiness.
    pub outbox: VecDeque<u8>,
    /// The connection's session, shared with worker threads. Only the
    /// session lane locks it, and only one session-lane run per
    /// connection is ever in flight, so workers never contend on it.
    pub session: Arc<Mutex<Session>>,
    /// Mirror of `session.pending()` maintained by session-lane workers,
    /// so the stateless `stats` op reports batch depth without locking
    /// the session (a slow commit must not delay stats).
    pub pending_hint: Arc<AtomicUsize>,
    /// Parse-time batch tracking: `begin` opens, `commit`/`rollback`
    /// close — maintained exactly (a failed `begin` inside a batch
    /// leaves it open; a failed `commit` outside one leaves none), so
    /// autocommit `execute`s can be classified onto the stateless lane
    /// without consulting the session.
    pub in_batch_parsed: bool,
    /// Session-lane requests not yet handed to a worker, in arrival
    /// order. The reactor drains them as runs of at most
    /// `MAX_INFLIGHT_PER_CONN`, one run in flight at a time.
    pub session_queue: VecDeque<(Request, Option<Json>)>,
    /// Length of the session-lane run on a worker (0 when the lane is
    /// idle): every request of the run is unanswered until the run's
    /// completion arrives.
    pub session_in_flight: usize,
    /// The connection's autocommit job while it waits in the pool queue
    /// (shared with that job).
    pub autocommits: Arc<AutocommitRun>,
    /// An autocommit job was opened during this read and is pushed to
    /// the pool when the read's frames are routed.
    pub autocommits_unpushed: bool,
    /// Stateless-lane requests (autocommits included) handed to the
    /// worker pool and not yet answered.
    pub stateless_in_flight: usize,
    pub phase: ConnPhase,
    /// The epoll interest bits currently registered for this socket.
    pub interest: u32,
}

impl Conn {
    pub fn new(stream: TcpStream, session: Session, max_line: usize) -> Conn {
        Conn {
            stream,
            framer: LineFramer::new(max_line),
            outbox: VecDeque::new(),
            session: Arc::new(Mutex::new(session)),
            pending_hint: Arc::new(AtomicUsize::new(0)),
            in_batch_parsed: false,
            session_queue: VecDeque::new(),
            session_in_flight: 0,
            autocommits: Arc::default(),
            autocommits_unpushed: false,
            stateless_in_flight: 0,
            phase: ConnPhase::Open,
            interest: 0,
        }
    }

    /// Requests accepted but not yet answered (queued or on a worker).
    pub fn load(&self) -> usize {
        self.session_queue.len() + self.session_in_flight + self.stateless_in_flight
    }

    /// Append one response line the reactor made itself (a framing
    /// error or the bye) to the outbox, flushed by the caller.
    pub fn push_response(&mut self, response: &Json) {
        self.outbox.extend(response.to_compact().as_bytes());
        self.outbox.push_back(b'\n');
    }

    /// Append lines a worker encoded to the outbox, flushed by the
    /// caller. An empty outbox takes the buffer over without a copy.
    pub fn push_lines(&mut self, lines: Vec<u8>) {
        if self.outbox.is_empty() {
            self.outbox = VecDeque::from(lines);
        } else {
            self.outbox.extend(lines);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{salvage_id, Envelope};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Drive a framer over `input` split into `chunk`-byte pieces,
    /// returning all frames including the EOF tail.
    fn frames(input: &[u8], cap: usize, chunk: usize) -> Vec<Frame> {
        let mut framer = LineFramer::new(cap);
        let mut out = Vec::new();
        for piece in input.chunks(chunk.max(1)) {
            framer.feed(piece, &mut out);
        }
        if let Some(tail) = framer.finish() {
            out.push(tail);
        }
        out
    }

    fn line(s: &str) -> Frame {
        Frame::Line(s.to_owned())
    }

    #[test]
    fn framer_handles_edges_at_every_chunking() {
        // Exactly at the cap passes; one over fails; chunk boundaries
        // (1 byte up to whole-input) must never change the result.
        for chunk in [1, 2, 3, 5, 64] {
            let got = frames(b"abcd\nefghi\nok\n", 4, chunk);
            assert_eq!(got.len(), 3, "chunk={chunk}: {got:?}");
            assert_eq!(got[0], line("abcd"), "chunk={chunk}");
            assert!(matches!(got[1], Frame::TooLong { .. }), "chunk={chunk}");
            assert_eq!(got[2], line("ok"), "chunk={chunk}");

            // Unterminated tail at EOF still yields the line.
            assert_eq!(frames(b"tail", 64, chunk), vec![line("tail")]);
            // CR stripped before a terminator.
            assert_eq!(frames(b"crlf\r\n", 64, chunk), vec![line("crlf")]);
            // A CRLF terminator does not count against the cap: an
            // exactly-at-cap payload passes with either line ending,
            // and one payload byte over fails with either.
            let got = frames(b"abcd\r\nefghi\r\n", 4, chunk);
            assert_eq!(got[0], line("abcd"), "chunk={chunk}");
            assert!(matches!(got[1], Frame::TooLong { .. }), "chunk={chunk}");
            // Oversized line that ends at EOF without a terminator.
            let got = frames(&[b'z'; 100], 10, chunk);
            assert_eq!(got.len(), 1);
            assert!(matches!(got[0], Frame::TooLong { .. }));
        }
    }

    #[test]
    fn framer_retains_salvage_prefix() {
        let payload = format!("{}{}", "a".repeat(6), "b".repeat(20));
        let input = format!("{payload}\nnext\n").into_bytes();
        for chunk in [1, 4, 7, 256] {
            let got = frames(&input, 8, chunk);
            let Frame::TooLong { prefix } = &got[0] else {
                panic!("line over cap (chunk={chunk}): {got:?}");
            };
            assert_eq!(prefix, &payload[..9], "first cap+1 bytes (chunk={chunk})");
            assert_eq!(got[1], line("next"), "drain resynchronizes");
        }
        // Unterminated oversized tail at EOF keeps its prefix too.
        let got = frames(&[b'z'; 40], 8, 3);
        let Frame::TooLong { prefix } = &got[0] else {
            panic!("tail over cap: {got:?}");
        };
        assert_eq!(prefix.len(), 9);
    }

    #[test]
    fn framer_emits_multiple_frames_from_one_chunk() {
        let mut framer = LineFramer::new(64);
        let mut out = Vec::new();
        framer.feed(b"one\ntwo\nthree", &mut out);
        assert_eq!(out, vec![line("one"), line("two")]);
        out.clear();
        framer.feed(b"!\n", &mut out);
        assert_eq!(out, vec![line("three!")]);
        assert_eq!(framer.finish(), None);
    }

    #[test]
    fn framer_never_buffers_more_than_cap_plus_one() {
        let mut framer = LineFramer::new(16);
        let mut out = Vec::new();
        for _ in 0..1000 {
            framer.feed(&[b'x'; 1024], &mut out);
            assert!(framer.line.len() <= 17, "bounded memory under flood");
        }
        assert!(out.is_empty(), "no terminator yet");
        framer.feed(b"\n", &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], Frame::TooLong { prefix } if prefix.len() == 17));
    }

    /// One random input line for the framing fuzz: a valid request, a
    /// truncated one, raw bytes (invalid UTF-8 included), a long run or
    /// arrays and objects nested up to 20 000 deep, ended by a random
    /// mix of CR and LF.
    fn fuzz_line(rng: &mut StdRng, out: &mut Vec<u8>) {
        const VALID: [&str; 4] = [
            r#"{"op":"ping","id":7}"#,
            r#"{"op":"execute","sql":"INSERT INTO v VALUES (1);","id":"x"}"#,
            r#"{"id":[1,{"a":null}],"op":"query","relation":"v"}"#,
            r#"{"op":"begin","id":"\u00e9\n"}"#,
        ];
        match rng.gen_range(0..5) {
            0 => out.extend_from_slice(VALID[rng.gen_range(0..VALID.len())].as_bytes()),
            1 => {
                let line = VALID[rng.gen_range(0..VALID.len())].as_bytes();
                out.extend_from_slice(&line[..rng.gen_range(0..line.len())]);
            }
            2 => out.extend((0..rng.gen_range(0..40)).map(|_| rng.gen_range(0..=255u8))),
            3 => out.resize(out.len() + rng.gen_range(0..300usize), b'{'),
            _ => {
                for _ in 0..rng.gen_range(0..20_000) {
                    let open: &[u8] = if rng.gen_bool(0.5) { b"[" } else { br#"{"a":"# };
                    out.extend_from_slice(open);
                }
            }
        }
        for _ in 0..rng.gen_range(0..3) {
            out.push(if rng.gen_bool(0.5) { b'\r' } else { b'\n' });
        }
    }

    #[test]
    fn framing_never_panics_and_ignores_chunk_boundaries() {
        let mut rng = StdRng::seed_from_u64(0xB1_2D5);
        for _ in 0..1000 {
            // Half the caps let deeply nested lines through whole, to
            // `Envelope::parse`.
            let cap = if rng.gen_bool(0.5) {
                rng.gen_range(1..128)
            } else {
                1 << 17
            };
            let mut input = Vec::new();
            for _ in 0..rng.gen_range(0..20) {
                fuzz_line(&mut rng, &mut input);
            }
            let whole = frames(&input, cap, input.len());
            for frame in &whole {
                match frame {
                    Frame::Line(line) => drop(Envelope::parse(line)),
                    Frame::TooLong { prefix } => drop(salvage_id(prefix)),
                }
            }
            for _ in 0..4 {
                let mut framer = LineFramer::new(cap);
                let mut chunked = Vec::new();
                let mut rest = &input[..];
                while !rest.is_empty() {
                    let (piece, tail) = rest.split_at(rng.gen_range(1..=rest.len()));
                    framer.feed(piece, &mut chunked);
                    assert!(
                        framer.line.len() <= cap + 1,
                        "cap {cap}: holds {}",
                        framer.line.len()
                    );
                    rest = tail;
                }
                chunked.extend(framer.finish());
                assert_eq!(chunked, whole, "cap {cap}, input {input:?}");
            }
        }
    }
}
