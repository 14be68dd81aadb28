//! The epoll reactor: one event-loop thread owning every socket, plus a
//! fixed worker pool executing decoded requests — the serving layer that
//! decouples connection count from thread count.
//!
//! ## Structure
//!
//! * **Event loop** (this module's [`Reactor`]): a single thread blocked
//!   in `epoll_wait` over the nonblocking listener, a wakeup eventfd,
//!   and every live connection. It owns all connection state — sockets,
//!   framers, outboxes, request lanes — so none of it needs locks. It
//!   encodes no worker's answer: it appends the bytes a completion
//!   carries to the outbox, and into an empty outbox it moves the buffer
//!   without a copy. The only lines it encodes are its own: framing
//!   errors, the connection limit and the bye.
//! * **Worker pool**: `workers` threads popping jobs (one stateless
//!   request, one connection's run of autocommits or one shard's epoch
//!   of such a run, or one connection's run of session-lane requests)
//!   from a shared queue, dispatching them against the service,
//!   encoding every response into its newline-terminated line (a
//!   `query`'s rows straight from the sorted tuples, with no tree), and
//!   pushing the lines back through a completion list + eventfd wakeup.
//!   A scan's encoding thereby costs its own worker, not every
//!   connection's next ack. Workers never touch sockets.
//!
//! ## Two-lane scheduling (the ordering contract)
//!
//! Requests decoded from one connection are classified at parse time:
//!
//! * **Session lane** — stateful ops (`begin`/`commit`/`rollback`
//!   always; `execute` while a batch is open, tracked exactly at parse
//!   time since `begin` opens and `commit`/`rollback` always close,
//!   even on error; `register`/`unregister`). These stay FIFO: queued
//!   per connection and handed to a worker as a **run** — everything
//!   queued when the lane is idle after a read or a completion, up to
//!   [`MAX_INFLIGHT_PER_CONN`] requests. At most one run per
//!   connection is in flight; its worker locks the session once and
//!   dispatches the run in order, and the reactor appends the run's
//!   responses to the outbox and flushes once. A 1 000-statement batch
//!   pipelined in one write is thereby a handful of worker hand-offs,
//!   not one round trip per line.
//! * **Stateless lane** — `ping`/`query`/`stats`/`checkpoint` and
//!   autocommit `execute`. These fan out to the worker pool and may
//!   complete **in any order**, across shards and across each other.
//!   Responses echo the request `id`, so clients correlate. `ping`,
//!   `query`, `stats` and `checkpoint` go to the pool at once, one job
//!   each. An autocommit `execute` is its own transaction, but a
//!   connection's waiting autocommits are **one job**: the first opens
//!   the connection's [`AutocommitRun`], pushed to the pool once the
//!   read's frames are routed; every later one joins it while it waits
//!   in the pool queue, and the worker that pops the job takes the run,
//!   closing it. The worker queues every transaction of the run in its
//!   shard's group-commit queue before any shard is led, so the run's
//!   autocommits on one shard share one epoch — one pass per view, one
//!   WAL record, one sync. It then leads one shard of the run (a free
//!   one, if any) and pushes every other shard's epoch back to the pool
//!   as a job of its own. Each epoch posts its completion as it ends,
//!   so an autocommit parked on a contended shard holds back no answer
//!   on another, and a run's shards are led in parallel as its
//!   autocommits were when each was a job.
//!
//! `quit` (and EOF) is a barrier: no further reads, every accepted
//! request answers first, then (for `quit`) the bye goes out last and
//! the connection closes.
//!
//! ## Backpressure
//!
//! The reactor stops *reading* from a connection whose outbox exceeds
//! [`OUTBOX_HIGH_WATER`] bytes or whose accepted-but-unanswered load
//! reaches [`MAX_INFLIGHT_PER_CONN`] — level-triggered epoll re-arms
//! reads once responses drain, and TCP flow control propagates the
//! stall to the sender.
//!
//! Both checks run *before* each read, not per line, so neither is a
//! hard cap: one read (at most 64 KiB) may frame many lines past the
//! limit, and all of them are accepted. Per connection, memory is
//! therefore bounded by:
//!
//! * the framer's partial line: at most `max_line + 1` bytes;
//! * unanswered requests: fewer than [`MAX_INFLIGHT_PER_CONN`] plus the
//!   lines of one read (thousands of short lines, or one long one);
//! * the outbox: [`OUTBOX_HIGH_WATER`] plus the responses owed to those
//!   unanswered requests and the error lines for one read's malformed
//!   lines. A response's size depends on its request (a `query`
//!   answers with the whole relation).
//!
//! ## Shutdown
//!
//! A shutdown request (SIGTERM via [`crate::sys::SIGTERM_FLAG`], the
//! in-process [`crate::Server::shutdown`], or the `--exit-after` count
//! reaching zero live connections) drains gracefully: stop accepting,
//! stop reading, let in-flight and queued requests answer, flush every
//! outbox, then close. A deadline bounds the drain so a wedged request
//! cannot hang process exit.

use crate::conn::{AutocommitRun, Conn, ConnPhase, Frame};
use crate::error::ServiceError;
use crate::group_commit::PendingTx;
use crate::json::Json;
use crate::protocol::{
    answer, autocommit_reply, autocommit_tx, error_response, quit_response, salvage_id,
    stateless_response, with_id, Answer, Envelope, Request,
};
use crate::server::ServerConfig;
use crate::service::{QueuedEpoch, Service, Session};
use crate::sys::{Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Stop reading from a connection whose outbox holds this many bytes.
pub const OUTBOX_HIGH_WATER: usize = 256 * 1024;
/// Stop reading from a connection with this many unanswered requests.
pub const MAX_INFLIGHT_PER_CONN: usize = 128;
/// How long a graceful drain may take before remaining connections are
/// closed forcibly (a wedged request must not hang process exit).
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKEUP: u64 = u64::MAX - 1;

/// Which lane a job's answers belong to (completion bookkeeping).
#[derive(Clone, Copy)]
enum Lane {
    Session,
    Stateless,
}

/// Decoded requests handed to the worker pool as one unit.
struct Job {
    conn: usize,
    generation: u32,
    work: Work,
}

/// What a job asks of its worker.
enum Work {
    /// A run of session-lane requests, answered in order under the
    /// connection's session lock; `pending_hint` mirrors the batch
    /// depth for `stats`.
    Session {
        requests: Vec<(Request, Option<Json>)>,
        session: Arc<Mutex<Session>>,
        pending_hint: Arc<AtomicUsize>,
    },
    /// One stateless request other than an autocommit `execute`.
    Stateless {
        request: (Request, Option<Json>),
        pending_hint: Arc<AtomicUsize>,
    },
    /// A connection's autocommit `execute`s: whatever its
    /// [`AutocommitRun`] gathered by the time a worker pops the job.
    Autocommits(Arc<AutocommitRun>),
    /// One shard's epoch of an autocommit run, handed on by the worker
    /// that queued the run.
    Lead(Arc<QueuedRun>, QueuedEpoch),
}

impl Work {
    fn lane(&self) -> Lane {
        match self {
            Work::Session { .. } => Lane::Session,
            _ => Lane::Stateless,
        }
    }
}

/// A connection's autocommit run once its worker queued it: the
/// transactions and their request ids, shared by the jobs that lead
/// its shards.
struct QueuedRun {
    txs: Vec<Arc<PendingTx>>,
    ids: Vec<Option<Json>>,
}

impl QueuedRun {
    /// The replies of `members`, whose results are filled.
    fn replies(&self, members: &[usize]) -> Lines {
        let mut lines = Lines::default();
        for &i in members {
            lines.push(Answer::Doc(autocommit_reply(&self.txs[i])), &self.ids[i]);
        }
        lines
    }
}

/// Responses a worker encoded: the reactor only appends them.
#[derive(Default)]
struct Lines {
    /// How many responses `text` holds.
    count: usize,
    /// The responses, each one newline-terminated line.
    text: String,
}

impl Lines {
    /// Encode one response, echoing `id`, and drop its tree here.
    fn push(&mut self, answer: Answer, id: &Option<Json>) {
        answer.encode(id.as_ref(), &mut self.text);
        self.text.push('\n');
        self.count += 1;
    }

    fn append(&mut self, other: Lines) {
        self.text.push_str(&other.text);
        self.count += other.count;
    }
}

/// Responses routed back to the reactor: a session-lane job's, one per
/// request and in request order; an autocommit run's in one completion
/// per shard epoch, in any order.
struct Completion {
    conn: usize,
    generation: u32,
    lane: Lane,
    lines: Lines,
}

/// How a worker runs a session-lane request and leads an autocommit
/// epoch: [`answer`] and [`Service::lead_autocommits`], except in tests
/// that inject a panic.
#[derive(Clone, Copy)]
struct Runners {
    dispatch: fn(&mut Session, &Request) -> Answer,
    lead: Lead,
}

/// Lead one queued epoch, telling the callback which members finished.
type Lead = fn(&Service, QueuedEpoch, &mut dyn FnMut(&[usize]));

impl Runners {
    const SERVICE: Runners = Runners {
        dispatch: answer,
        lead: |service, epoch, finished| service.lead_autocommits(epoch, finished),
    };
}

struct JobQueue {
    queue: VecDeque<Job>,
    closed: bool,
}

/// State shared between the reactor thread, the worker pool, and the
/// [`crate::Server`] handle.
pub(crate) struct Shared {
    jobs: Mutex<JobQueue>,
    available: Condvar,
    completions: Mutex<Vec<Completion>>,
    wakeup: EventFd,
    shutdown: AtomicBool,
    /// Whether SIGTERM (via [`crate::sys::SIGTERM_FLAG`]) should shut
    /// this server down — set by [`crate::Server::enable_signal_shutdown`].
    signal_enabled: AtomicBool,
    /// Session-lane jobs pushed so far: the worker hand-offs a batch
    /// costs.
    #[cfg(test)]
    session_jobs: AtomicUsize,
}

fn relock<T>(result: Result<T, PoisonError<T>>) -> T {
    // Queue contents are plain data; a worker that panicked mid-pop
    // cannot leave them inconsistent, so recover rather than cascade.
    result.unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    pub fn new() -> std::io::Result<Shared> {
        Ok(Shared {
            jobs: Mutex::new(JobQueue {
                queue: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            wakeup: EventFd::new()?,
            shutdown: AtomicBool::new(false),
            signal_enabled: AtomicBool::new(false),
            #[cfg(test)]
            session_jobs: AtomicUsize::new(0),
        })
    }

    pub fn wakeup_fd(&self) -> std::os::fd::RawFd {
        self.wakeup.raw_fd()
    }

    pub fn enable_signal_shutdown(&self) {
        self.signal_enabled.store(true, Ordering::SeqCst);
    }

    /// Ask the reactor to drain and exit (idempotent, thread-safe).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wakeup.notify();
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
            || (self.signal_enabled.load(Ordering::SeqCst)
                && crate::sys::SIGTERM_FLAG.load(Ordering::SeqCst))
    }

    fn push_job(&self, job: Job) {
        #[cfg(test)]
        if matches!(job.work, Work::Session { .. }) {
            self.session_jobs.fetch_add(1, Ordering::Relaxed);
        }
        relock(self.jobs.lock()).queue.push_back(job);
        self.available.notify_one();
    }

    fn pop_job(&self) -> Option<Job> {
        let mut jobs = relock(self.jobs.lock());
        loop {
            if let Some(job) = jobs.queue.pop_front() {
                return Some(job);
            }
            if jobs.closed {
                return None;
            }
            jobs = relock(self.available.wait(jobs));
        }
    }

    fn close_jobs(&self) {
        relock(self.jobs.lock()).closed = true;
        self.available.notify_all();
    }

    fn complete(&self, completion: Completion) {
        relock(self.completions.lock()).push(completion);
        self.wakeup.notify();
    }

    fn take_completions(&self, into: &mut Vec<Completion>) {
        std::mem::swap(&mut *relock(self.completions.lock()), into);
    }
}

/// Worker thread body: pop, dispatch, complete, until the queue closes.
fn worker_loop(service: Service, shared: Arc<Shared>, runners: Runners) {
    while let Some(job) = shared.pop_job() {
        let (conn, generation, lane) = (job.conn, job.generation, job.work.lane());
        let mut complete = |lines| {
            shared.complete(Completion {
                conn,
                generation,
                lane,
                lines,
            })
        };
        match job.work {
            Work::Session {
                requests,
                session,
                pending_hint,
            } => complete(answer_in_order(&requests, "session", |lines| {
                let Ok(mut session) = session.lock() else {
                    return;
                };
                for (request, id) in &requests {
                    let response = (runners.dispatch)(&mut session, request);
                    pending_hint.store(session.pending(), Ordering::Relaxed);
                    lines.push(response, id);
                }
            })),
            Work::Stateless {
                request,
                pending_hint,
            } => {
                let requests = std::slice::from_ref(&request);
                complete(answer_in_order(requests, "request", |lines| {
                    let pending = pending_hint.load(Ordering::Relaxed);
                    lines.push(
                        stateless_response(&service, &request.0, pending),
                        &request.1,
                    );
                }))
            }
            Work::Autocommits(run) => {
                // Taking the run closes it: later autocommits open a
                // new job.
                let run = relock(run.lock()).take().unwrap_or_default();
                let Ok((run, early, mut epochs)) =
                    panic::catch_unwind(AssertUnwindSafe(|| queue_autocommits(&service, &run)))
                else {
                    complete(poisoned("request", run.iter().map(|(_, id)| id)));
                    continue;
                };
                if early.count > 0 {
                    complete(early);
                }
                if epochs.is_empty() {
                    continue;
                }
                // Lead one shard here, a free one if there is one, and
                // hand every other shard to the pool as a job of its
                // own: the run's shards are led in parallel, and none
                // waits for another's lock.
                let here = epochs.iter().position(QueuedEpoch::is_free).unwrap_or(0);
                let epoch = epochs.remove(here);
                let run = Arc::new(run);
                for other in epochs {
                    shared.push_job(Job {
                        conn,
                        generation,
                        work: Work::Lead(Arc::clone(&run), other),
                    });
                }
                lead_epoch(&service, &run, epoch, runners, &mut complete);
            }
            Work::Lead(run, epoch) => lead_epoch(&service, &run, epoch, runners, &mut complete),
        }
    }
}

/// Parse a connection's autocommit run and queue every transaction in
/// its shard's group-commit queue ([`Service::enqueue_autocommits`]),
/// before any shard is led: the run's transactions on one shard become
/// members of one epoch. Returns the queued run, the replies of the
/// scripts that never queued, and one epoch per shard.
fn queue_autocommits(
    service: &Service,
    run: &[(String, Option<Json>)],
) -> (QueuedRun, Lines, Vec<QueuedEpoch>) {
    let (mut txs, mut ids, mut early) = (Vec::new(), Vec::new(), Lines::default());
    for (sql, id) in run {
        match autocommit_tx(service, sql) {
            Ok(tx) => {
                txs.push(tx);
                ids.push(id.clone());
            }
            Err(reply) => early.push(Answer::Doc(reply), id),
        }
    }
    let queued = QueuedRun { txs, ids };
    let (failed, epochs) = service.enqueue_autocommits(queued.txs.iter().cloned().enumerate());
    early.append(queued.replies(&failed));
    (queued, early, epochs)
}

/// Lead one shard's epoch of `run`, answering its members as their
/// results fill. A panic answers the members still unanswered with what
/// their results hold once the epoch is dropped (see [`QueuedEpoch`]):
/// `Poisoned` unless another leader committed them. It cannot reach
/// the run's other shards, handed to jobs of their own before this one
/// was led.
fn lead_epoch(
    service: &Service,
    run: &QueuedRun,
    epoch: QueuedEpoch,
    runners: Runners,
    complete: &mut impl FnMut(Lines),
) {
    let mut unanswered: Vec<usize> = epoch.members().collect();
    let _ = panic::catch_unwind(AssertUnwindSafe(|| {
        (runners.lead)(service, epoch, &mut |done| {
            unanswered.retain(|i| !done.contains(i));
            complete(run.replies(done));
        })
    }));
    if !unanswered.is_empty() {
        complete(run.replies(&unanswered));
    }
}

/// The `Poisoned` (`what`) answers of the requests `ids` — requests a
/// panic cut short.
fn poisoned<'a>(what: &str, ids: impl IntoIterator<Item = &'a Option<Json>>) -> Lines {
    let error = error_response(&ServiceError::Poisoned(what.into()));
    let mut lines = Lines::default();
    for id in ids {
        lines.push(Answer::Doc(error.clone()), id);
    }
    lines
}

/// Answer `requests` in order: `run` pushes one response per request
/// until done, a panic, or (on the session lane) a poisoned session
/// lock. A panic does not take the worker down: the requests that ran
/// keep their responses, and the one that panicked and all after it
/// answer `Poisoned` (`what`). A session-lane panic poisons the session
/// mutex, so the connection's later session-lane requests answer
/// `Poisoned` as well.
fn answer_in_order(
    requests: &[(Request, Option<Json>)],
    what: &str,
    run: impl FnOnce(&mut Lines),
) -> Lines {
    let mut lines = Lines::default();
    let _ = panic::catch_unwind(AssertUnwindSafe(|| run(&mut lines)));
    let unanswered = &requests[lines.count..];
    lines.append(poisoned(what, unanswered.iter().map(|(_, id)| id)));
    lines
}

/// What one nonblocking read attempt yielded.
enum ReadStep {
    Data(usize),
    Eof,
    Block,
    Failed,
}

/// The event loop. Owns the listener, the epoll instance, and every
/// connection; single-threaded by construction.
struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    service: Service,
    shared: Arc<Shared>,
    max_line: usize,
    max_conns: Option<usize>,
    exit_after: Option<usize>,
    /// Connection slab: slot index is the low half of the epoll token.
    conns: Vec<Option<Conn>>,
    /// Per-slot generation (high half of the token): bumped on close so
    /// stale events and late completions for a recycled slot are
    /// recognized and dropped.
    generations: Vec<u32>,
    free: Vec<usize>,
    live: usize,
    closed: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
}

/// Run the serve loop: spawn the worker pool, run the reactor until it
/// drains, then close the job queue and join the workers.
pub(crate) fn serve(
    listener: TcpListener,
    service: Service,
    config: ServerConfig,
    workers: usize,
    shared: Arc<Shared>,
) -> std::io::Result<()> {
    let mut pool = Vec::with_capacity(workers);
    for i in 0..workers {
        let service = service.clone();
        let shared = Arc::clone(&shared);
        pool.push(
            std::thread::Builder::new()
                .name(format!("birds-worker-{i}"))
                .spawn(move || worker_loop(service, shared, Runners::SERVICE))?,
        );
    }
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(shared.wakeup_fd(), EPOLLIN, TOKEN_WAKEUP)?;
    let reactor = Reactor {
        epoll,
        listener,
        service,
        shared: Arc::clone(&shared),
        max_line: config.max_line,
        max_conns: config.max_conns,
        exit_after: config.exit_after,
        conns: Vec::new(),
        generations: Vec::new(),
        free: Vec::new(),
        live: 0,
        closed: 0,
        draining: false,
        drain_deadline: None,
    };
    let result = reactor.run();
    shared.close_jobs();
    for handle in pool {
        let _ = handle.join();
    }
    result
}

impl Reactor {
    fn token(&self, idx: usize) -> u64 {
        (u64::from(self.generations[idx]) << 32) | idx as u64
    }

    fn run(mut self) -> std::io::Result<()> {
        let mut events = vec![crate::sys::EpollEvent::zeroed(); 1024];
        let mut scratch = vec![0u8; 64 * 1024];
        let mut completions: Vec<Completion> = Vec::new();
        loop {
            // While draining, poll with a short timeout so the deadline
            // and reap checks run even if no fd turns ready.
            let timeout = if self.draining { 50 } else { -1 };
            let ready = self.epoll.wait(&mut events, timeout)?;
            for event in &events[..ready] {
                let (bits, token) = (event.events, event.data);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKEUP => self.shared.wakeup.drain(),
                    token => self.conn_event(token, bits, &mut scratch),
                }
            }
            self.drain_completions(&mut completions);
            if !self.draining
                && (self.shared.shutdown_requested()
                    || self.exit_after.is_some_and(|n| self.closed >= n))
            {
                self.begin_drain();
            }
            if self.draining {
                self.reap_drained();
                if self.live == 0 {
                    return Ok(());
                }
                if self.drain_deadline.is_some_and(|d| Instant::now() >= d) {
                    // Deadline: force-close whatever is left.
                    for idx in 0..self.conns.len() {
                        self.close_conn(idx);
                    }
                    return Ok(());
                }
            }
        }
    }

    // ---- accept path ----------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.draining {
                        continue; // dropped: no longer accepting
                    }
                    match self.max_conns {
                        Some(limit) if self.live >= limit => reject(stream, limit),
                        _ => self.register(stream),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Transient (client reset mid-handshake, fd
                    // pressure): skip the connection, keep serving.
                    eprintln!("[birds-serve] accept failed (connection skipped): {e}");
                    break;
                }
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if configure_stream(&stream).is_err() {
            return; // peer already gone
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.generations.push(0);
            self.conns.len() - 1
        });
        let mut conn = Conn::new(stream, self.service.session(), self.max_line);
        let interest = EPOLLIN | EPOLLRDHUP;
        if self
            .epoll
            .add(conn.stream.as_raw_fd(), interest, self.token(idx))
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        conn.interest = interest;
        self.conns[idx] = Some(conn);
        self.live += 1;
    }

    // ---- connection events ----------------------------------------

    fn conn_event(&mut self, token: u64, bits: u32, scratch: &mut [u8]) {
        let idx = (token & u64::from(u32::MAX)) as usize;
        let generation = (token >> 32) as u32;
        if idx >= self.conns.len() || self.generations[idx] != generation {
            return; // stale event for a recycled slot
        }
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(idx);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.read_ready(idx, scratch);
        }
        if self.conns[idx].is_some() && bits & EPOLLOUT != 0 {
            self.flush(idx);
        }
        if self.conns[idx].is_some() {
            self.settle(idx);
        }
        if self.conns[idx].is_some() {
            self.update_interest(idx);
        }
    }

    fn read_ready(&mut self, idx: usize, scratch: &mut [u8]) {
        loop {
            let step = {
                let Some(conn) = self.conns[idx].as_mut() else {
                    return;
                };
                if !matches!(conn.phase, ConnPhase::Open)
                    || conn.outbox.len() >= OUTBOX_HIGH_WATER
                    || conn.load() >= MAX_INFLIGHT_PER_CONN
                {
                    // Backpressure (or a quit barrier): leave unread
                    // bytes in the kernel buffer; level-triggered epoll
                    // re-reports them once reads re-arm.
                    ReadStep::Block
                } else {
                    loop {
                        match conn.stream.read(scratch) {
                            Ok(0) => break ReadStep::Eof,
                            Ok(n) => break ReadStep::Data(n),
                            Err(e) if e.kind() == ErrorKind::WouldBlock => break ReadStep::Block,
                            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                            Err(_) => break ReadStep::Failed,
                        }
                    }
                }
            };
            match step {
                ReadStep::Data(n) => {
                    let mut frames = Vec::new();
                    let conn = self.conns[idx].as_mut().expect("checked above");
                    conn.framer.feed(&scratch[..n], &mut frames);
                    self.process_frames(idx, frames);
                    if self.conns[idx].is_none() {
                        return;
                    }
                }
                ReadStep::Eof => {
                    let mut frames = Vec::new();
                    let conn = self.conns[idx].as_mut().expect("checked above");
                    // A dangling unterminated tail still counts as a line.
                    if let Some(tail) = conn.framer.finish() {
                        frames.push(tail);
                    }
                    self.process_frames(idx, frames);
                    if let Some(conn) = self.conns[idx].as_mut() {
                        if matches!(conn.phase, ConnPhase::Open) {
                            conn.phase = ConnPhase::HalfClosed;
                        }
                    }
                    return;
                }
                ReadStep::Block => return,
                ReadStep::Failed => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
    }

    /// Route every frame of one read, then hand the session lane its
    /// run: pumping once per read, not per line, is what lets a
    /// pipelined batch travel to a worker as one job.
    fn process_frames(&mut self, idx: usize, frames: Vec<Frame>) {
        for frame in frames {
            let Some(conn) = self.conns[idx].as_ref() else {
                return;
            };
            if !matches!(conn.phase, ConnPhase::Open) {
                // `quit` is a barrier: anything pipelined after it on
                // this connection is dropped, like the blocking server
                // closing mid-stream.
                break;
            }
            match frame {
                Frame::TooLong { prefix } => {
                    // The tail was discarded unread, but the retained
                    // prefix usually carries the request's id — salvage
                    // it so a pipelining client can correlate.
                    let id = salvage_id(&prefix);
                    let response = with_id(
                        error_response(&ServiceError::RequestTooLarge {
                            limit: self.max_line,
                        }),
                        id,
                    );
                    self.send(idx, &response);
                }
                Frame::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match Envelope::parse(&line) {
                        Ok(Envelope { id, request }) => self.submit(idx, request, id),
                        Err((id, e)) => {
                            let response = with_id(error_response(&e), id);
                            self.send(idx, &response);
                        }
                    }
                }
            }
        }
        self.pump_session(idx);
        self.pump_autocommits(idx);
    }

    /// Route one decoded request onto its lane: session-lane requests
    /// wait in the queue for [`Reactor::pump_session`]; an autocommit
    /// `execute` joins the connection's autocommit job while that job
    /// waits for a worker, or opens a new one that
    /// [`Reactor::pump_autocommits`] hands to the pool; other stateless
    /// requests go to the pool at once.
    fn submit(&mut self, idx: usize, request: Request, id: Option<Json>) {
        let generation = self.generations[idx];
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if request == Request::Quit {
            conn.phase = ConnPhase::Quitting {
                id,
                bye_queued: false,
            };
            return; // settle() queues the bye once in-flight work answers
        }
        if request.is_session_op(conn.in_batch_parsed) {
            match request {
                Request::Begin => conn.in_batch_parsed = true,
                Request::Commit | Request::Rollback => conn.in_batch_parsed = false,
                _ => {}
            }
            conn.session_queue.push_back((request, id));
            return;
        }
        conn.stateless_in_flight += 1;
        if let Request::Execute { sql } = request {
            let mut run = relock(conn.autocommits.lock());
            if run.is_none() {
                conn.autocommits_unpushed = true;
            }
            run.get_or_insert_with(Vec::new).push((sql, id));
            return;
        }
        let job = Job {
            conn: idx,
            generation,
            work: Work::Stateless {
                request: (request, id),
                pending_hint: Arc::clone(&conn.pending_hint),
            },
        };
        self.shared.push_job(job);
    }

    /// Hand the pool the autocommit job this read opened, if any. It is
    /// pushed once the read's frames are routed, so every autocommit of
    /// one read is in it.
    fn pump_autocommits(&mut self, idx: usize) {
        let generation = self.generations[idx];
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if !std::mem::take(&mut conn.autocommits_unpushed) {
            return;
        }
        let job = Job {
            conn: idx,
            generation,
            work: Work::Autocommits(Arc::clone(&conn.autocommits)),
        };
        self.shared.push_job(job);
    }

    /// If the session lane is idle, hand one worker the run of queued
    /// requests (at most [`MAX_INFLIGHT_PER_CONN`]) — same-session FIFO,
    /// one run at a time.
    fn pump_session(&mut self, idx: usize) {
        let generation = self.generations[idx];
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if conn.session_in_flight > 0 || conn.session_queue.is_empty() {
            return;
        }
        let run = conn.session_queue.len().min(MAX_INFLIGHT_PER_CONN);
        let requests: Vec<_> = conn.session_queue.drain(..run).collect();
        conn.session_in_flight = requests.len();
        let job = Job {
            conn: idx,
            generation,
            work: Work::Session {
                requests,
                session: Arc::clone(&conn.session),
                pending_hint: Arc::clone(&conn.pending_hint),
            },
        };
        self.shared.push_job(job);
    }

    // ---- write path -----------------------------------------------

    /// Queue one response line and flush what the socket accepts.
    fn send(&mut self, idx: usize, response: &Json) {
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.push_response(response);
        }
        self.flush(idx);
    }

    fn flush(&mut self, idx: usize) {
        let mut failed = false;
        {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            while !conn.outbox.is_empty() {
                let n = match conn.stream.write(conn.outbox.as_slices().0) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                };
                conn.outbox.drain(..n);
            }
        }
        if failed {
            self.close_conn(idx);
        }
    }

    // ---- completions ----------------------------------------------

    fn drain_completions(&mut self, buffer: &mut Vec<Completion>) {
        self.shared.take_completions(buffer);
        for completion in buffer.drain(..) {
            let idx = completion.conn;
            if idx >= self.conns.len() || self.generations[idx] != completion.generation {
                continue; // connection closed while the job ran
            }
            {
                let Some(conn) = self.conns[idx].as_mut() else {
                    continue;
                };
                match completion.lane {
                    Lane::Session => conn.session_in_flight = 0,
                    Lane::Stateless => conn.stateless_in_flight -= completion.lines.count,
                }
                conn.push_lines(completion.lines.text.into_bytes());
            }
            self.flush(idx);
            if self.conns[idx].is_none() {
                continue;
            }
            self.pump_session(idx);
            self.settle(idx);
            if self.conns[idx].is_some() {
                self.update_interest(idx);
            }
        }
    }

    // ---- lifecycle ------------------------------------------------

    /// Progress a connection's lifecycle: queue the bye once a quitting
    /// connection has answered everything, close once drained.
    fn settle(&mut self, idx: usize) {
        let mut bye: Option<Option<Json>> = None;
        {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            let load = conn.load();
            if let ConnPhase::Quitting { id, bye_queued } = &mut conn.phase {
                if !*bye_queued && load == 0 {
                    *bye_queued = true;
                    bye = Some(id.take());
                }
            }
        }
        if let Some(id) = bye {
            let response = with_id(quit_response(), id);
            self.send(idx, &response);
        }
        let close = match self.conns[idx].as_ref() {
            None => return,
            Some(conn) => {
                let idle = conn.load() == 0 && conn.outbox.is_empty();
                match &conn.phase {
                    // An Open connection only closes early under a
                    // server-wide drain; otherwise it is just idle.
                    ConnPhase::Open => self.draining && idle,
                    ConnPhase::Quitting { bye_queued, .. } => *bye_queued && idle,
                    ConnPhase::HalfClosed => idle,
                }
            }
        };
        if close {
            self.close_conn(idx);
        }
    }

    fn update_interest(&mut self, idx: usize) {
        let token = self.token(idx);
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let reading = matches!(conn.phase, ConnPhase::Open)
            && !self.draining
            && conn.outbox.len() < OUTBOX_HIGH_WATER
            && conn.load() < MAX_INFLIGHT_PER_CONN;
        let mut want = 0;
        if reading {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if !conn.outbox.is_empty() {
            want |= EPOLLOUT;
        }
        if want != conn.interest
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), want, token)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        self.generations[idx] = self.generations[idx].wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        self.closed += 1;
        // Dropping `conn` closes the socket; any in-flight jobs finish
        // on the workers and their completions fail the generation
        // check.
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.update_interest(idx); // disarm reads
            }
        }
    }

    /// One drain sweep: flush, settle, close whatever has finished.
    fn reap_drained(&mut self) {
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.flush(idx);
            }
            if self.conns[idx].is_some() {
                self.settle(idx);
            }
        }
    }
}

/// Per-socket options for an accepted connection: nonblocking (the
/// reactor must never stall on one peer) and `TCP_NODELAY` (line-
/// delimited request/response over Nagle costs a delayed-ACK round
/// trip — up to ~40 ms — per small pipelined write).
pub(crate) fn configure_stream(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)?;
    Ok(())
}

/// Accept-time rejection when `--max-conns` live connections exist:
/// answer with the typed error, then close. The socket is still
/// blocking here (fresh from `accept`, empty send buffer), so the one
/// small write cannot stall the reactor.
fn reject(mut stream: TcpStream, limit: usize) {
    let response = error_response(&ServiceError::ConnectionLimit { limit });
    let _ = stream.set_nodelay(true);
    let _ = stream.write_all(response.to_compact().as_bytes());
    let _ = stream.write_all(b"\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::union_service;
    use std::io::{BufRead, BufReader};

    #[test]
    fn configure_stream_sets_nodelay_and_nonblocking() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(
            !accepted.nodelay().unwrap(),
            "accept(2) default is Nagle on"
        );
        configure_stream(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap(), "reactor disables Nagle");
        // Nonblocking: a read with no data must not hang.
        let mut buf = [0u8; 8];
        let err = (&accepted).read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
    }

    #[test]
    fn a_pipelined_batch_is_handed_to_workers_in_runs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let shared = Arc::new(Shared::new().unwrap());
        let reactor = {
            let shared = Arc::clone(&shared);
            let config = ServerConfig::default();
            std::thread::spawn(move || serve(listener, union_service(), config, 2, shared))
        };

        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let mut script = String::from("{\"op\":\"begin\"}\n");
        for i in 0..1000 {
            script.push_str(&format!(
                "{{\"op\":\"execute\",\"sql\":\"INSERT INTO v VALUES ({});\"}}\n",
                10 + i
            ));
        }
        script.push_str("{\"op\":\"commit\"}\n");
        (&stream).write_all(script.as_bytes()).unwrap();
        let mut reader = BufReader::new(&stream);
        let mut lines = Vec::new();
        for _ in 0..1002 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line);
        }
        assert!(lines[0].contains("\"batch\": true"), "{}", lines[0]);
        for (n, line) in lines[1..1001].iter().enumerate() {
            assert!(line.contains(&format!("\"buffered\": {}", n + 1)), "{line}");
        }
        assert!(
            lines[1001].contains("\"statements\": 1000"),
            "{}",
            lines[1001]
        );

        let jobs = shared.session_jobs.load(Ordering::Relaxed);
        let bound = 1002usize.div_ceil(MAX_INFLIGHT_PER_CONN) + 2;
        assert!(
            jobs <= bound,
            "{jobs} session jobs for 1002 lines (bound {bound})"
        );
        shared.request_shutdown();
        reactor.join().unwrap().unwrap();
    }

    fn panics_on_boom(session: &mut Session, request: &Request) -> Answer {
        if matches!(request, Request::Execute { sql } if sql == "boom") {
            panic!("injected dispatch panic");
        }
        answer(session, request)
    }

    /// Take completions until `n` responses have arrived, parsing each
    /// completion's lines; a completion holds exactly `count` of them.
    fn await_responses(shared: &Shared, n: usize) -> Vec<Json> {
        let deadline = Instant::now() + Duration::from_secs(20);
        let (mut done, mut responses) = (Vec::new(), Vec::new());
        while responses.len() < n {
            shared.take_completions(&mut done);
            for Completion { lines, .. } in done.drain(..) {
                let text = lines.text;
                let split: Vec<&str> = text.split_terminator('\n').collect();
                assert!(text.is_empty() || text.ends_with('\n'), "{text}");
                assert_eq!(split.len(), lines.count, "{text}");
                responses.extend(split.iter().map(|line| Json::parse(line).unwrap()));
            }
            assert!(Instant::now() < deadline, "only {responses:?} answered");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(responses.len(), n, "{responses:?}");
        responses
    }

    #[test]
    fn a_panic_answers_every_id_of_its_run_and_keeps_the_worker() {
        let service = union_service();
        let shared = Arc::new(Shared::new().unwrap());
        let runners = Runners {
            dispatch: panics_on_boom,
            ..Runners::SERVICE
        };
        let worker = {
            let (service, shared) = (service.clone(), Arc::clone(&shared));
            std::thread::spawn(move || worker_loop(service, shared, runners))
        };
        let session = Arc::new(Mutex::new(service.session()));
        let pending_hint = Arc::new(AtomicUsize::new(0));
        let numbered = |requests: Vec<Request>| -> Vec<_> {
            let ids = (0..).map(|i| Some(Json::Int(i)));
            requests.into_iter().zip(ids).collect()
        };
        let run = |requests: Vec<Request>| Job {
            conn: 0,
            generation: 0,
            work: Work::Session {
                requests: numbered(requests),
                session: Arc::clone(&session),
                pending_hint: Arc::clone(&pending_hint),
            },
        };
        let execute = |sql: &str| Request::Execute { sql: sql.into() };
        let poisoned = |what: &str, i| {
            with_id(
                error_response(&ServiceError::Poisoned(what.into())),
                Some(Json::Int(i)),
            )
        };

        // The panic is request k = 2 of a five-request run.
        shared.push_job(run(vec![
            Request::Begin,
            execute("INSERT INTO v VALUES (9);"),
            execute("boom"),
            execute("INSERT INTO v VALUES (10);"),
            Request::Commit,
        ]));
        let responses = await_responses(&shared, 5);
        assert_eq!(responses[0].get("batch"), Some(&Json::Bool(true)));
        assert_eq!(responses[1].get("buffered"), Some(&Json::Int(1)));
        for (i, response) in (2..).zip(&responses[2..]) {
            assert_eq!(response, &poisoned("session", i));
        }

        // The same worker keeps serving: the poisoned session answers
        // with the typed error, the service itself is untouched.
        shared.push_job(run(vec![Request::Rollback]));
        assert_eq!(await_responses(&shared, 1), vec![poisoned("session", 0)]);
        shared.push_job(Job {
            conn: 0,
            generation: 0,
            work: Work::Stateless {
                request: (
                    Request::Query {
                        relation: "v".into(),
                    },
                    None,
                ),
                pending_hint: Arc::clone(&pending_hint),
            },
        });
        let query = await_responses(&shared, 1);
        assert_eq!(query[0].get("count"), Some(&Json::Int(3)), "{query:?}");

        shared.close_jobs();
        worker.join().expect("the worker outlived the panic");
    }

    /// `v = r1 ∪ r2` and `w = s1 ∪ s2`: two views, two shards.
    fn two_shard_service() -> Service {
        use birds_core::UpdateStrategy;
        use birds_engine::{Engine, StrategyMode};
        use birds_store::{Database, DatabaseSchema, Relation, Schema, SortKind};
        let mut db = Database::new();
        for name in ["r1", "r2", "s1", "s2"] {
            db.add_relation(Relation::new(name, 1)).unwrap();
        }
        let mut engine = Engine::new(db);
        for (view, a, b) in [("v", "r1", "r2"), ("w", "s1", "s2")] {
            let int = |name| Schema::new(name, vec![("a", SortKind::Int)]);
            let strategy = UpdateStrategy::parse(
                DatabaseSchema::new().with(int(a)).with(int(b)),
                int(view),
                &format!(
                    "-{a}(X) :- {a}(X), not {view}(X).
                     -{b}(X) :- {b}(X), not {view}(X).
                     +{a}(X) :- {view}(X), not {a}(X), not {b}(X)."
                ),
                None,
            );
            engine
                .register_view(strategy.unwrap(), StrategyMode::Incremental)
                .unwrap();
        }
        Service::new(engine)
    }

    /// Leads like the service, except that the epoch holding a run's
    /// first transaction panics before it is led.
    fn panics_leading_the_first(
        service: &Service,
        epoch: QueuedEpoch,
        finished: &mut dyn FnMut(&[usize]),
    ) {
        if epoch.members().any(|i| i == 0) {
            panic!("injected epoch panic");
        }
        service.lead_autocommits(epoch, finished)
    }

    #[test]
    fn a_panic_leading_one_shard_of_a_run_leaves_its_other_shards_to_their_own_jobs() {
        let service = two_shard_service();
        let shared = Arc::new(Shared::new().unwrap());
        let runners = Runners {
            lead: panics_leading_the_first,
            ..Runners::SERVICE
        };
        let worker = {
            let (service, shared) = (service.clone(), Arc::clone(&shared));
            std::thread::spawn(move || worker_loop(service, shared, runners))
        };

        // One run over both shards; `v`'s shard, first in the run and
        // free, is the one its worker leads, and that epoch panics.
        let run = [
            ("INSERT INTO v VALUES (1);", "v"),
            ("INSERT INTO w VALUES (2);", "w"),
        ];
        let run = run.map(|(sql, id)| (sql.to_owned(), Some(Json::str(id))));
        shared.push_job(Job {
            conn: 0,
            generation: 0,
            work: Work::Autocommits(Arc::new(Mutex::new(Some(run.to_vec())))),
        });
        let mut responses = await_responses(&shared, 2);
        responses.sort_by_key(|response| response.get("id").cloned().map(|id| id.to_compact()));
        let error = responses[0].get("error").and_then(Json::as_str);
        assert!(error.unwrap().contains("poisoned"), "{responses:?}");
        assert_eq!(responses[1].get("applied"), Some(&Json::Bool(true)));

        // Nothing of the run is left queued for a later leader to commit
        // behind its `Poisoned` answer: `v`'s transaction was taken back
        // and never commits, `w`'s committed through a job of its own.
        assert_eq!(service.debug_queue_len("v"), 0);
        assert_eq!(service.debug_queue_len("w"), 0);
        let mut session = service.session();
        session.execute("INSERT INTO v VALUES (3);").unwrap();
        let v = service.query("v").unwrap();
        assert!(!v.contains(&birds_store::tuple![1]) && v.contains(&birds_store::tuple![3]));
        assert!(service
            .query("w")
            .unwrap()
            .contains(&birds_store::tuple![2]));
        shared.close_jobs();
        worker.join().expect("the worker outlived the panic");
    }
}
