//! Async RESP client transport: per-replica connection pools, one
//! in-flight request per connection, cancellation propagated on the
//! wire.
//!
//! A connection never writes a second request before the first is
//! answered. That is an invariant, not a default, and three things rest
//! on it: an attempt that dies with its socket can be replayed alone on
//! a fresh one (nothing else was on the wire to fail or to reorder),
//! `CANCEL <seq>` names the one request a server can still be holding
//! for this connection, and whatever [`Replica::inflight`] counts
//! beyond one request per connection waits in this client's queues,
//! where a cancel costs no wire frame, not in a socket buffer behind a
//! slow request.
//!
//! # Thread model
//!
//! Sockets are blocking; the async layer above parks on the attempt
//! cell (see [`crate::sync`]). Two kinds of thread write a
//! connection's frames, and one reads them:
//!
//! * **The caller.** A request that finds its connection idle —
//!   nothing on the wire, nothing queued, the socket not known broken
//!   — is written by the thread that makes it, under the connection's
//!   state lock. That is the common case, and it costs no hand-off.
//! * **The connection's I/O thread** (`hedge-conn-*`) waits in `read()`
//!   for the reply to whatever is on the wire and resolves it. It
//!   writes only what the caller could not: the next request queued
//!   behind a busy connection, a retry on a redialled socket, and the
//!   first request queued behind a broken one.
//!
//! A request therefore crosses two threads of this client at most: its
//! caller's, and the I/O thread that wakes it with the reply.
//!
//! Requests are sequence-numbered per connection, from one counter
//! both writers draw on under the state lock; cancelling an in-flight
//! request writes `CANCEL <seq>` on the same connection, which the
//! server answers with the `-ERR cancelled` marker if it managed to
//! retract the frame (see [`crate::server`]). Either way every request
//! gets exactly one reply, so the connection re-synchronizes by
//! construction.
//!
//! A connection that breaks (replica restart, broken pipe) does not
//! poison its pool slot: the request that observed the failure is
//! retried on freshly dialed sockets (sequence numbers restart at zero
//! on both sides) — up to `MAX_TRIES` (4) tries with jittered
//! exponential backoff — before its error is surfaced, and later
//! requests keep re-dialing. A restarted replica heals transparently;
//! a flapping one degrades (each failed attempt feeds the error EWMA,
//! steering reissues elsewhere) instead of erroring every job; a
//! still-down replica fails fast (dial refusals are immediate).
//!
//! An idle connection costs nothing: its I/O thread blocks in `read()`
//! with no timeout, or on a condvar while its socket is broken, and
//! dropping the [`Replica`] wakes it by shutting the socket down.

use crate::sync::{CancelToken, Writer};
use bytes::BytesMut;
use kvstore::resp::{decode_reply, encode_command};
use kvstore::{Command, Reply};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use std::collections::VecDeque;
use std::future::Future;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::server::CANCELLED_MARKER;

/// Transport-level failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The request was retracted: cancelled before it was dispatched,
    /// retracted while queued (by a client `CANCEL`, or a reissue by its
    /// primary's server), or stopped in service by a client `CANCEL`.
    Cancelled,
    /// The connection died before a reply arrived.
    ConnectionClosed,
    /// Socket-level failure.
    Io(String),
    /// The peer broke the RESP protocol.
    Protocol(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Cancelled => f.write_str("request cancelled"),
            TransportError::ConnectionClosed => f.write_str("connection closed"),
            TransportError::Io(e) => write!(f, "io error: {e}"),
            TransportError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Per-replica health signal: decayed EWMAs of response time and
/// transport error rate, updated by the connection I/O threads as
/// outcomes resolve and read by the hedging layer to place requests
/// (see [`ReplicaSet::pick_primary`] and
/// [`ReplicaSet::pick_reissue`]).
///
/// The outstanding count ([`Replica::inflight`]) is exact and current
/// for the load *this client* put on a replica: one request stuck
/// behind a monster raises it at once and keeps it raised until the
/// replica answers, which is all primary dispatch needs from a slow
/// replica. It is blind in two cases: a replica blocked by *another*
/// client's monster, and one that fails fast (refused dials, resets),
/// both of which look idle. The EWMAs see how the replica has been
/// *responding*:
///
/// * completed requests feed the latency EWMA (server queueing
///   included: it is measured from the request's first write);
/// * retracted losers — stopped in a queue or in service after `t` ms
///   — are censored samples, and the slow copies are exactly the ones
///   that get stopped. They are completed the memoryless way,
///   `E[T | T > t] = t + mean`, with the EWMA as the mean: each loss
///   raises the EWMA by `α·t` and none lowers it (a fast cancel says
///   nothing about speed). A replica that only ever loses drifts up
///   and is demoted; one that wins a share `p` of its races in `x` ms
///   settles near `x + (1 − p)/p · t`;
/// * socket-level failures feed the error EWMA, successes decay it.
pub struct ReplicaHealth {
    /// f64 bits; NaN until the first sample arrives.
    latency_ms: AtomicU64,
    /// f64 bits; error indicator EWMA in [0, 1].
    error_rate: AtomicU64,
}

/// Per-sample EWMA weight for response times. At α = 0.1 a step change
/// in replica speed is ~87% absorbed after 20 samples — fast enough to
/// demote a newly sick replica within tens of requests, slow enough
/// that one straggler does not.
const LATENCY_ALPHA: f64 = 0.1;
/// Per-sample EWMA weight for the error indicator.
const ERROR_ALPHA: f64 = 0.1;
/// Score weight converting one in-flight request into equivalent
/// milliseconds of EWMA latency — a light tiebreak so concurrent
/// hedges spread across equally healthy replicas instead of piling
/// onto one, without letting instantaneous counts drown the health
/// signal.
const INFLIGHT_MS_WEIGHT: f64 = 0.05;
/// Score multiplier at error EWMA = 1: a replica failing every request
/// looks 5x its latency.
const ERROR_PENALTY: f64 = 4.0;
/// Absolute score term (equivalent ms of EWMA latency) per unit of
/// error EWMA. The multiplicative [`ERROR_PENALTY`] alone cannot
/// demote a replica that *only* errors: transport failures never feed
/// the latency EWMA, which then reads `0` and zeroes the product.
/// This term makes a replica failing every request — even failing
/// *fast*, e.g. connection-refused from a crashed process — score
/// tens of ms worse than any healthy replica regardless of its
/// (possibly empty) latency history.
const ERROR_MS_EQUIV: f64 = 50.0;
/// While a replica is demoted from primary dispatch (it is
/// [`ReplicaHealth::failing`]), one primary in this many is sent to it
/// all the same. A skipped replica gets no successes to decay its
/// error EWMA, so the probe is what re-admits it once it heals: 7
/// answered probes bring an EWMA of 1 under one half, about 110
/// primaries. It is also what an outage costs, a sixteenth of the
/// primaries instead of a `1/n`-th.
const PROBE_EVERY: usize = 16;

impl ReplicaHealth {
    fn new() -> Self {
        ReplicaHealth {
            latency_ms: AtomicU64::new(f64::NAN.to_bits()),
            error_rate: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Lock-free EWMA step: `cell <- cell + alpha * (sample - cell)`,
    /// seeding with `sample` when the cell is still NaN.
    fn update(cell: &AtomicU64, sample: f64, alpha: f64) {
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let new = if old.is_nan() {
                sample
            } else {
                old + alpha * (sample - old)
            };
            match cell.compare_exchange_weak(
                cur,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn record_latency(&self, ms: f64) {
        Self::update(&self.latency_ms, ms, LATENCY_ALPHA);
        Self::update(&self.error_rate, 0.0, ERROR_ALPHA);
    }

    /// A retracted request, censored at `ms`: its response time would
    /// have been `ms` plus, memorylessly, the mean (see the type docs).
    fn record_censored_latency(&self, ms: f64) {
        Self::update(&self.latency_ms, ms + self.latency_ewma_ms(), LATENCY_ALPHA);
    }

    fn record_error(&self) {
        Self::update(&self.error_rate, 1.0, ERROR_ALPHA);
    }

    /// EWMA of observed response times (ms); `0` before any sample —
    /// optimism under uncertainty, so cold replicas get probed.
    pub fn latency_ewma_ms(&self) -> f64 {
        let v = f64::from_bits(self.latency_ms.load(Ordering::Relaxed));
        if v.is_nan() {
            0.0
        } else {
            v
        }
    }

    /// EWMA of the transport-error indicator, in `[0, 1]`.
    pub fn error_ewma(&self) -> f64 {
        f64::from_bits(self.error_rate.load(Ordering::Relaxed))
    }

    /// Whether the replica has lately failed more attempts than it
    /// answered (error EWMA above one half): the point at which
    /// primary dispatch stops trusting its outstanding count.
    pub fn failing(&self) -> bool {
        self.error_ewma() > 0.5
    }
}

/// RAII share of a connection's in-flight count. Owned by the [`Job`]
/// so the decrement happens exactly once wherever the job ends up —
/// completed by the I/O thread, or dropped in the queue when the
/// connection goes away — and always *before* the attempt resolves
/// ([`Job::complete`]).
struct InflightTicket(Arc<AtomicU64>);

impl InflightTicket {
    fn new(counter: &Arc<AtomicU64>) -> Self {
        counter.fetch_add(1, Ordering::Relaxed);
        InflightTicket(counter.clone())
    }
}

impl Drop for InflightTicket {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One request on a connection. `token` is the attempt cell: the I/O
/// thread resolves it through [`Job::complete`], and a job that is
/// dropped unresolved — left on the wire or in the queue when the
/// connection goes away — resolves it as `ConnectionClosed` (a no-op on
/// a cell already resolved).
struct Job {
    cmd: Command,
    token: CancelToken,
    /// The tie id a reissue registers under at its server (see
    /// [`Replica::request_tied`]).
    tie: Option<u64>,
    /// `None` once the attempt resolved.
    ticket: Option<InflightTicket>,
    /// When the request was first written, or left the queue to be:
    /// what its latency sample is measured from.
    dispatched: Instant,
    /// Tries that failed so far, dials included (at most
    /// [`MAX_TRIES`]).
    failures: usize,
}

impl Job {
    /// Resolves the attempt, its share of the in-flight count released
    /// first: the waiter this wakes may choose the target of its next
    /// request at once, by those counts, and a request that has been
    /// answered is not outstanding.
    fn complete(&mut self, outcome: Result<Reply, TransportError>) {
        self.ticket = None;
        self.token.complete(outcome);
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        self.complete(Err(TransportError::ConnectionClosed));
    }
}

/// What a connection's callers and its I/O thread share.
struct ConnShared {
    state: Mutex<ConnState>,
    /// What the I/O thread waits on while its socket is broken and
    /// nothing is queued: a request queued there, or the connection
    /// closing, signals it (under `state`).
    work: Condvar,
    /// The socket's write half, shared with the cancellers of the
    /// request on the wire. A redial swaps the stream *inside* the
    /// mutex, so the handle recorded in an attempt cell stays good for
    /// the life of the connection.
    writer: Writer,
}

impl ConnShared {
    fn state(&self) -> MutexGuard<'_, ConnState> {
        self.state.lock().expect("connection state lock poisoned")
    }
}

/// A connection's request state. Its lock is the first of the
/// transport's three (see [`crate::sync`]): a writer of frames holds it
/// across the write.
struct ConnState {
    /// The request whose frame is on the wire: the next reply read on
    /// this socket is its.
    wire: Option<Job>,
    /// Requests waiting for the wire, in order.
    queue: VecDeque<Job>,
    /// Sequence number of the next frame written on this socket. It
    /// counts frames actually written, as the server does, so a job
    /// cancelled before dispatch consumes none; only a fresh socket
    /// restarts it (at zero, on both sides).
    seq: u64,
    /// Pooled encode buffer: every frame of this connection is built
    /// here, never reallocated across jobs.
    frame: BytesMut,
    /// The socket is known broken. Nothing is written on it any more:
    /// requests queue, and the I/O thread dials a fresh socket for the
    /// first of them.
    broken: bool,
    /// The [`Replica`] is being dropped.
    closed: bool,
}

impl ConnState {
    /// Whether a caller may write its request itself.
    fn idle(&self) -> bool {
        self.wire.is_none() && self.queue.is_empty() && !self.broken
    }

    /// Writes `job`'s frame and puts the job on the wire: the one place
    /// a request frame is written, by the caller or the I/O thread, with
    /// this state locked and nothing else on the wire.
    ///
    /// A reissue's `TIE <id>` rides in the same write as the command so
    /// the server's reader sees them back to back — on every wire
    /// attempt, including retries after a redial: a retry lands on a
    /// fresh socket of the *same* server, where re-registering the tie
    /// id replaces the dead connection's registration. Sending the
    /// retry untied would leave the primary's server nothing to
    /// retract.
    ///
    /// A write that fails leaves the job on the wire and shuts the
    /// socket down, so the I/O thread's read ends and settles it as a
    /// request that died with its socket.
    fn send(&mut self, writer: &Writer, job: Job) {
        debug_assert!(self.wire.is_none(), "a second request on the wire");
        self.frame.clear();
        if let Some(id) = job.tie {
            encode_command(&Command::Tie { id, peer: None }, &mut self.frame);
        }
        encode_command(&job.cmd, &mut self.frame);
        let mut stream = writer.lock().expect("writer lock poisoned");
        if stream.write_all(&self.frame).is_ok() {
            // From here exactly one reply will come back, and a cancel
            // races ahead on the same socket. The wire target goes into
            // the cell before the writer lock is released, and comes out
            // again under it when the reply is read — before any redial
            // — which is what keeps a late cancel from writing a stale
            // sequence number onto a fresh socket (see `crate::sync`).
            job.token.set_wire(writer, &mut stream, self.seq);
            self.seq += 1;
        } else {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.wire = Some(job);
    }

    /// The next queued job that still wants the wire. A job cancelled
    /// while queued never touches it: it resolves as `Cancelled` here.
    fn pop_live(&mut self) -> Option<Job> {
        while let Some(mut job) = self.queue.pop_front() {
            if !job.token.is_cancelled() {
                job.dispatched = Instant::now();
                return Some(job);
            }
            job.complete(Err(TransportError::Cancelled));
        }
        None
    }
}

/// One pooled connection and its I/O thread.
struct Conn {
    shared: Arc<ConnShared>,
    inflight: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// An async client for one kvstore replica, holding `pool` TCP
/// connections. Requests round-robin across idle-most connections;
/// each connection serves its queue in FIFO order with exactly one
/// request on the wire at a time.
pub struct Replica {
    addr: SocketAddr,
    conns: Vec<Conn>,
    next: AtomicUsize,
    health: Arc<ReplicaHealth>,
}

impl Replica {
    /// Connects `pool` sockets to `addr`.
    pub fn connect(addr: SocketAddr, pool: usize) -> std::io::Result<Replica> {
        let health = Arc::new(ReplicaHealth::new());
        let conns = (0..pool.max(1))
            .map(|i| {
                let stream = connect_socket(addr)?;
                let shared = Arc::new(ConnShared {
                    state: Mutex::new(ConnState {
                        wire: None,
                        queue: VecDeque::new(),
                        seq: 0,
                        frame: BytesMut::new(),
                        broken: false,
                        closed: false,
                    }),
                    work: Condvar::new(),
                    writer: Arc::new(Mutex::new(stream.try_clone()?)),
                });
                let io = IoThread {
                    addr,
                    conn: shared.clone(),
                    health: health.clone(),
                    reader: stream,
                    buf: BytesMut::new(),
                    rng: SmallRng::seed_from_u64(u64::from(addr.port()) ^ 0xBAC0FF),
                    // Hoisted: an env lookup takes the process-wide
                    // environment lock and scans `environ`, which is far
                    // too expensive per job.
                    debug: std::env::var_os("HEDGE_DEBUG").is_some(),
                };
                let handle = std::thread::Builder::new()
                    .name(format!("hedge-conn-{addr}-{i}"))
                    .spawn(move || io.run())
                    .expect("spawn connection I/O thread");
                Ok(Conn {
                    shared,
                    inflight: Arc::new(AtomicU64::new(0)),
                    handle: Some(handle),
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Replica {
            addr,
            conns,
            next: AtomicUsize::new(0),
            health,
        })
    }

    /// The replica's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replica's live health signal.
    pub fn health(&self) -> &ReplicaHealth {
        &self.health
    }

    /// Reissue-targeting score — lower is better. Health EWMAs carry
    /// the signal (latency, inflated by the multiplicative error
    /// penalty, plus an *absolute* error term — see `ERROR_MS_EQUIV`);
    /// the in-flight count is a light tiebreak (see
    /// `INFLIGHT_MS_WEIGHT`).
    pub fn health_score(&self) -> f64 {
        let h = &self.health;
        h.latency_ewma_ms() * (1.0 + ERROR_PENALTY * h.error_ewma())
            + ERROR_MS_EQUIV * h.error_ewma()
            + INFLIGHT_MS_WEIGHT * self.inflight() as f64
    }

    /// Requests currently queued or on the wire across this replica's
    /// pool: what primary dispatch ranks replicas by, and a tiebreak
    /// in reissue targeting.
    pub fn inflight(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| c.inflight.load(Ordering::Relaxed))
            .sum()
    }

    /// Dispatches `cmd`, returning the in-flight reply future.
    /// Cancelling `token` retracts the request if it has not executed
    /// yet (the future then resolves to
    /// [`TransportError::Cancelled`]).
    pub fn request(&self, cmd: Command, token: CancelToken) -> InFlight {
        self.request_tied(cmd, token, None)
    }

    /// Like [`Replica::request`], but registers the request at the
    /// server under tie id `tie` (a `TIE <id>` control frame coalesced
    /// into the same write): a reissue, which the server retracts while
    /// it is still queued when its primary's server sends
    /// `CANCELTIE <id>` (see [`crate::server`]).
    ///
    /// A token already used for another request, or a control frame
    /// (`CANCEL`, `TIE`, `CANCELTIE`: no reply, sequence-number
    /// sensitive, so a hand-sent one would desynchronize the reply
    /// stream), resolves as [`TransportError::Protocol`].
    pub fn request_tied(&self, cmd: Command, token: CancelToken, tie: Option<u64>) -> InFlight {
        let refusal = if !token.claim() {
            Some("a cancel token carries one request")
        } else if matches!(
            cmd,
            Command::Cancel(_) | Command::Tie { .. } | Command::CancelTie(_)
        ) {
            Some("control frames are sent by the transport, not as requests")
        } else {
            None
        };
        if let Some(why) = refusal {
            // A fresh cell: a reused one holds its first request's reply.
            let token = CancelToken::new();
            token.complete(Err(TransportError::Protocol(why.into())));
            return InFlight { token };
        }
        // Cancelled before dispatch: never touches the wire.
        if token.is_cancelled() {
            token.complete(Err(TransportError::Cancelled));
            return InFlight { token };
        }
        // Prefer the least-loaded connection; break ties round-robin.
        let start = self.next.fetch_add(1, Ordering::Relaxed) % self.conns.len();
        let pick = (0..self.conns.len())
            .map(|off| (start + off) % self.conns.len())
            .min_by_key(|&i| self.conns[i].inflight.load(Ordering::Relaxed))
            .unwrap_or(start);
        let conn = &self.conns[pick];
        let job = Job {
            cmd,
            token: token.clone(),
            tie,
            ticket: Some(InflightTicket::new(&conn.inflight)),
            dispatched: Instant::now(),
            failures: 0,
        };
        let mut st = conn.shared.state();
        if st.idle() {
            // Written here, on the caller's thread: the I/O thread only
            // has to read the reply. With nothing on the wire the send
            // buffer is empty, so a frame that fits in it is written
            // without waiting on the server.
            st.send(&conn.shared.writer, job);
        } else {
            st.queue.push_back(job);
            if st.broken {
                conn.shared.work.notify_one();
            }
        }
        InFlight { token }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        for conn in &mut self.conns {
            {
                // Under the state lock, so an I/O thread installing a
                // freshly dialed socket either sees `closed` or has
                // installed the socket this shuts down.
                let mut st = conn.shared.state();
                st.closed = true;
                let _ = conn
                    .shared
                    .writer
                    .lock()
                    .expect("writer lock poisoned")
                    .shutdown(Shutdown::Both);
                conn.shared.work.notify_one();
            }
            if let Some(h) = conn.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// Future for a dispatched request — the awaiting side of the
/// attempt cell. `Unpin`, so it can be raced.
pub struct InFlight {
    token: CancelToken,
}

impl Future for InFlight {
    type Output = Result<Reply, TransportError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.token.poll_outcome(cx)
    }
}

/// Whether re-executing `cmd` (after an ambiguous connection failure)
/// yields the same *reply* as the first execution would have. State is
/// idempotent for every kvstore command, but `DEL`/`SADD` replies
/// count what the call itself changed — a duplicate execution would
/// return 0/fewer and silently mislead the caller.
fn retry_safe(cmd: &Command) -> bool {
    !matches!(cmd, Command::Del(_) | Command::SAdd(..))
}

/// Per-job bound on wire tries (initial + retries), counting both
/// failed reconnect dials and tries that died mid-request.
const MAX_TRIES: usize = 4;

/// First retry backoff; doubles per attempt up to [`BACKOFF_CAP_US`],
/// scaled by a uniform `0.5..1.5` jitter so a pool's connections don't
/// re-dial a flapping replica in lockstep.
const BACKOFF_BASE_US: u64 = 200;
const BACKOFF_CAP_US: u64 = 5_000;

/// Sleeps the jittered exponential backoff before retry `attempt`
/// (1-based: the first retry sleeps ~`BACKOFF_BASE_US`).
fn backoff(attempt: usize, rng: &mut SmallRng) {
    let exp = (BACKOFF_BASE_US << (attempt.saturating_sub(1)).min(6)).min(BACKOFF_CAP_US);
    let jittered = exp as f64 * (0.5 + rng.gen::<f64>());
    std::thread::sleep(Duration::from_micros(jittered as u64));
}

fn connect_socket(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Reads until one whole reply is buffered in `buf`. A reply that does
/// not parse is a `Protocol` error (the stream is desynced); anything
/// else that ends the read is the socket dying.
fn read_reply(
    reader: &mut TcpStream,
    buf: &mut BytesMut,
    chunk: &mut [u8],
) -> Result<Reply, TransportError> {
    loop {
        match decode_reply(buf) {
            Ok(Some(reply)) => return Ok(reply),
            Ok(None) => {}
            Err(e) => return Err(TransportError::Protocol(e.to_string())),
        }
        match reader.read(chunk) {
            Ok(0) => return Err(TransportError::ConnectionClosed),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(TransportError::Io(e.to_string())),
        }
    }
}

/// A connection's I/O thread: the one loop that reads its replies.
struct IoThread {
    addr: SocketAddr,
    conn: Arc<ConnShared>,
    health: Arc<ReplicaHealth>,
    /// The socket's read half, replaced with the write half on redial.
    reader: TcpStream,
    buf: BytesMut,
    rng: SmallRng,
    debug: bool,
}

impl IoThread {
    /// Reads the reply to whatever is on the wire and resolves it; while
    /// the socket is broken, dials a fresh one for the first queued
    /// request instead. Returns when the [`Replica`] is dropped; jobs
    /// still on the wire or queued then resolve as `ConnectionClosed`.
    ///
    /// The slot is never poisoned permanently: every job gets fresh
    /// sockets (bounded by `MAX_TRIES`, with jittered backoff between
    /// dials) before its error is surfaced. A replica *restart* heals
    /// transparently; a *flapping* replica degrades — every failed
    /// attempt feeds the error EWMA, steering reissue targeting away —
    /// rather than erroring the whole fan-out leg; a replica that is
    /// still down fails fast (connection refusals return immediately,
    /// so the bounded loop costs only the backoff).
    fn run(mut self) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let first = {
                let mut st = self.conn.state();
                loop {
                    if st.closed {
                        return;
                    }
                    if st.wire.is_some() || !st.broken {
                        break None;
                    }
                    match st.pop_live() {
                        Some(job) => break Some(job),
                        None => {
                            st = self
                                .conn
                                .work
                                .wait(st)
                                .expect("connection state lock poisoned")
                        }
                    }
                }
            };
            let redial = match first {
                Some(job) => job,
                // Something is on the wire, or the socket is idle and
                // the next caller to write on it will be answered here.
                None => {
                    let read = read_reply(&mut self.reader, &mut self.buf, &mut chunk);
                    match self.settle(read) {
                        Some(retry) => retry,
                        None => continue,
                    }
                }
            };
            self.redial(redial);
        }
    }

    /// Resolves the request on the wire with what the socket read.
    /// Returns it instead when it died with its socket and may be tried
    /// again on a fresh one; then writes the next queued request.
    fn settle(&mut self, read: Result<Reply, TransportError>) -> Option<Job> {
        let mut st = self.conn.state();
        if st.closed {
            return None;
        }
        let Some(mut job) = st.wire.take() else {
            // The socket ended, or spoke, with nothing asked of it.
            st.broken = true;
            return None;
        };
        job.token
            .clear_wire(&self.conn.writer.lock().expect("writer lock poisoned"));
        let outcome = match read {
            Ok(Reply::Error(e)) if e == CANCELLED_MARKER => Err(TransportError::Cancelled),
            Ok(reply) => Ok(reply),
            Err(e) => {
                // Desynced or dead: the next request dials fresh.
                st.broken = true;
                self.health.record_error();
                // A retried command may execute twice if the connection
                // died after the server executed but before it replied
                // — safe only for commands whose *reply* is unaffected
                // by re-execution (`retry_safe`), so counting mutations
                // surface the ambiguous failure to the caller instead.
                // A cancelled loser is not re-executed either, and its
                // failure surfaces as the transport error, NOT
                // `Cancelled`: the server never confirmed a retraction
                // (the request may well have executed before the
                // connection died), so the caller must not count it as
                // a clean in-time cancel or derive a censoring bound
                // from it.
                if !matches!(e, TransportError::Protocol(_)) {
                    job.failures += 1;
                    if job.failures < MAX_TRIES && !job.token.is_cancelled() && retry_safe(&job.cmd)
                    {
                        return Some(job);
                    }
                }
                Err(e)
            }
        };
        drop(st);
        self.finish(job, outcome);
        let mut st = self.conn.state();
        if st.wire.is_none() && !st.broken && !st.closed {
            if let Some(next) = st.pop_live() {
                st.send(&self.conn.writer, next);
            }
        }
        None
    }

    /// Dials a fresh socket and writes `job` on it: a retry (after its
    /// backoff), or the first request queued behind a broken socket.
    /// Each failed dial feeds the error EWMA and counts against the
    /// job's attempts, so the health signal sees flapping even when the
    /// job eventually succeeds.
    fn redial(&mut self, mut job: Job) {
        if job.failures > 0 {
            backoff(job.failures, &mut self.rng);
        }
        loop {
            match connect_socket(self.addr).and_then(|s| Ok((s.try_clone()?, s))) {
                Ok((writer, reader)) => {
                    let mut st = self.conn.state();
                    if st.closed {
                        return;
                    }
                    *self.conn.writer.lock().expect("writer lock poisoned") = writer;
                    self.reader = reader;
                    self.buf.clear();
                    st.seq = 0;
                    st.broken = false;
                    st.send(&self.conn.writer, job);
                    return;
                }
                Err(e) => {
                    self.health.record_error();
                    job.failures += 1;
                    if job.failures >= MAX_TRIES || job.token.is_cancelled() {
                        return self.finish(job, Err(TransportError::Io(e.to_string())));
                    }
                    backoff(job.failures, &mut self.rng);
                }
            }
        }
    }

    /// Feeds the outcome to the replica's health and resolves the job.
    fn finish(&self, mut job: Job, outcome: Result<Reply, TransportError>) {
        let took_ms = job.dispatched.elapsed().as_secs_f64() * 1e3;
        match &outcome {
            // Server-level error replies (WRONGTYPE, …) still measure a
            // responsive replica, so they count as latency samples.
            Ok(_) => self.health.record_latency(took_ms),
            // A clean retraction is not a speed sample — only a bound.
            Err(TransportError::Cancelled) => self.health.record_censored_latency(took_ms),
            // Failed attempts already fed the error EWMA one by one.
            Err(_) => {}
        }
        if self.debug && took_ms > 10.0 {
            eprintln!(
                "[conn {:?}] took {took_ms:.2}ms cmd={} outcome={}",
                std::thread::current().name(),
                brief_command(&job.cmd),
                brief_outcome(&outcome),
            );
        }
        job.complete(outcome);
    }
}

/// A command as the `HEDGE_DEBUG` trace prints it: a stored value is
/// named by its length. A monster's payload is hundreds of KiB, and
/// printing it escaped costs more than the request being traced.
fn brief_command(cmd: &Command) -> String {
    match cmd {
        Command::Set(key, value) => format!("Set({key:?}, <{} bytes>)", value.len()),
        Command::FSet(key, slot, frag) => format!("FSet({key:?}, {slot}, <{} bytes>)", frag.len()),
        other => format!("{other:?}"),
    }
}

/// An attempt's outcome for the same trace: the reply's variant, with
/// a length in place of a bulk's bytes.
fn brief_outcome(outcome: &Result<Reply, TransportError>) -> String {
    match outcome {
        Ok(Reply::Str(bulk)) => format!("Ok(Str(<{} bytes>))", bulk.len()),
        other => format!("{other:?}"),
    }
}

/// The set of replica backends a [`crate::HedgedClient`] hedges
/// across.
pub struct ReplicaSet {
    replicas: Vec<Arc<Replica>>,
    next: AtomicUsize,
}

impl ReplicaSet {
    /// Connects to every address with `pool` connections each.
    pub fn connect(addrs: &[SocketAddr], pool: usize) -> std::io::Result<ReplicaSet> {
        assert!(!addrs.is_empty(), "need at least one replica");
        let replicas = addrs
            .iter()
            .map(|&a| Replica::connect(a, pool).map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ReplicaSet {
            replicas,
            next: AtomicUsize::new(0),
        })
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica at `idx`.
    pub fn replica(&self, idx: usize) -> &Replica {
        &self.replicas[idx]
    }

    /// Picks the primary replica: the one with the fewest requests
    /// of this client outstanding ([`Replica::inflight`]), ties broken
    /// round robin from a rotating start (as [`Replica::request_tied`]
    /// picks its connection), so an idle set is served in rotation. A
    /// replica blocked by a query of death keeps the requests already
    /// sent to it outstanding and gets no more until it answers (the
    /// paper's Min-of-All balancer, Figure 5b, with the client's own
    /// counts for queue lengths).
    ///
    /// A replica that fails fast looks idle by that count, so a
    /// [`failing`](ReplicaHealth::failing) one ranks behind every
    /// other whatever the counts, except on each `PROBE_EVERY`-th
    /// pick, where the failing rank in front, in a rotation of their
    /// own: the probe that re-admits a replica once it heals. A slow
    /// but answering replica needs neither, its count corrects itself
    /// after one stuck request. A one-replica set answers `0` and
    /// reads nothing.
    pub fn pick_primary(&self) -> usize {
        let n = self.replicas.len();
        if n == 1 {
            return 0;
        }
        let (turn, probe) = self.take_turn();
        let start = if probe { turn / PROBE_EVERY } else { turn } % n;
        (0..n)
            .map(|off| (start + off) % n)
            .min_by_key(|&i| self.dispatch_rank(i, probe))
            .expect("non-empty replica set")
    }

    /// Takes the next dispatch turn and says whether it is a probe:
    /// every `PROBE_EVERY`-th turn is, while some replica is
    /// [`failing`](ReplicaHealth::failing).
    fn take_turn(&self) -> (usize, bool) {
        let turn = self.next.fetch_add(1, Ordering::Relaxed);
        let failing = || self.replicas.iter().any(|r| r.health.failing());
        (turn, turn % PROBE_EVERY == 0 && failing())
    }

    /// [`ReplicaSet::pick_primary`]'s turn counter, for a dispatcher
    /// that places a first wave of its own over these replicas (the
    /// striped read's `k` fragments): one turn per query, `true` when
    /// the query is the probe that lets a demoted replica back in.
    pub fn probe_turn(&self) -> bool {
        self.take_turn().1
    }

    /// What [`ReplicaSet::pick_primary`] minimises over, smaller being
    /// the better target for a first-wave attempt: a failing replica
    /// behind every other (in front of them on a `probe` turn), then
    /// the fewest requests of this client outstanding.
    pub fn dispatch_rank(&self, idx: usize, probe: bool) -> (bool, u64) {
        let replica = &self.replicas[idx];
        (replica.health.failing() != probe, replica.inflight())
    }

    /// Picks the reissue target: the replica with the lowest
    /// [`Replica::health_score`] other than the primary (the primary
    /// itself in a one-replica set).
    ///
    /// Health-aware targeting matters under queries of death: *where* a
    /// redundant copy lands matters as much as *when* it is sent
    /// (Vulimiri et al.; Shah et al.), and a replica head-of-line
    /// blocked by another client's monster looks idle to this client's
    /// raw in-flight counts. The latency/error EWMA sees how the
    /// replica has actually been responding and demotes it until it
    /// heals (see [`ReplicaHealth`]).
    pub fn pick_reissue(&self, primary: usize) -> usize {
        (0..self.replicas.len())
            .filter(|&i| i != primary)
            .map(|i| (i, self.replicas[i].health_score()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(primary, |(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::Runtime;
    use crate::server::{TcpServer, TcpServerConfig};
    use kvstore::KvStore;

    #[test]
    fn request_roundtrip_through_pool() {
        let server =
            TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap();
        let replica = Replica::connect(server.local_addr(), 2).unwrap();
        let rt = Runtime::new(2);
        let reply = rt
            .block_on(replica.request(Command::Ping, CancelToken::new()))
            .unwrap();
        assert_eq!(reply, Reply::Pong);
        // Writes visible across pooled connections (same store).
        rt.block_on(replica.request(Command::Set("a".into(), "1".into()), CancelToken::new()))
            .unwrap();
        for _ in 0..4 {
            let r = rt
                .block_on(replica.request(Command::Get("a".into()), CancelToken::new()))
                .unwrap();
            assert_eq!(r, Reply::Str("1".into()));
        }
        server.shutdown();
    }

    #[test]
    fn reconnects_after_broken_pipe() {
        use kvstore::resp::{decode_command, encode_reply};

        // A miniature replica that serves exactly one request per
        // connection, then slams the socket shut — every follow-up
        // request sees a broken pipe / EOF and must transparently
        // retry on a fresh connection (which this server accepts).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut served = 0u32;
            while served < 3 {
                let Ok((mut s, _)) = listener.accept() else {
                    break;
                };
                let mut buf = BytesMut::new();
                let mut chunk = [0u8; 1024];
                loop {
                    if let Ok(Some(cmd)) = decode_command(&mut buf) {
                        assert_eq!(cmd, Command::Ping);
                        let mut out = BytesMut::new();
                        encode_reply(&Reply::Pong, &mut out);
                        s.write_all(&out).unwrap();
                        served += 1;
                        break; // drop the socket: abrupt close
                    }
                    let n = s.read(&mut chunk).unwrap();
                    if n == 0 {
                        break;
                    }
                    buf.extend_from_slice(&chunk[..n]);
                }
            }
        });

        let replica = Replica::connect(addr, 1).unwrap();
        let rt = Runtime::new(1);
        // Three consecutive requests, each after the previous
        // connection was killed server-side. Before reconnect support
        // the second one poisoned the slot permanently.
        for i in 0..3 {
            let out = rt.block_on(replica.request(Command::Ping, CancelToken::new()));
            assert_eq!(
                out,
                Ok(Reply::Pong),
                "request {i} should heal via reconnect"
            );
        }
        drop(replica);
        server.join().unwrap();
    }

    #[test]
    fn retry_after_broken_pipe_reattaches_tie() {
        use kvstore::resp::{decode_command, encode_reply};

        // First connection: swallow the request and slam the socket
        // shut before replying (a retryable failure). The retry lands
        // on a fresh connection — and must carry the TIE prefix again,
        // or the re-executed reissue is registered nowhere and its
        // primary's server cannot retract it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut tie_seen_on_retry = false;
            for conn in 0..2 {
                let Ok((mut s, _)) = listener.accept() else {
                    break;
                };
                let mut buf = BytesMut::new();
                let mut chunk = [0u8; 1024];
                let mut got_tie = false;
                'conn: loop {
                    while let Ok(Some(cmd)) = decode_command(&mut buf) {
                        match cmd {
                            Command::Tie { id, peer } => {
                                assert_eq!(id, 42);
                                assert!(peer.is_none());
                                got_tie = true;
                            }
                            Command::Ping => {
                                assert!(got_tie, "connection {conn}: PING arrived untied");
                                if conn == 0 {
                                    break 'conn; // drop unserved: broken pipe
                                }
                                tie_seen_on_retry = true;
                                let mut out = BytesMut::new();
                                encode_reply(&Reply::Pong, &mut out);
                                s.write_all(&out).unwrap();
                                break 'conn;
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    match s.read(&mut chunk) {
                        Ok(0) | Err(_) => break 'conn,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
            }
            assert!(tie_seen_on_retry, "retry attempt must re-send the tie");
        });

        let replica = Replica::connect(addr, 1).unwrap();
        let rt = Runtime::new(1);
        let out = rt.block_on(replica.request_tied(Command::Ping, CancelToken::new(), Some(42)));
        assert_eq!(out, Ok(Reply::Pong), "retry should heal via reconnect");
        drop(replica);
        server.join().unwrap();
    }

    #[test]
    fn flaky_replica_heals_within_bounded_retries_and_feeds_error_ewma() {
        use kvstore::resp::{decode_command, encode_reply};

        // A flapping replica: the first two connections are accepted
        // and dropped unserved, the third serves normally. One request
        // must survive this inside its MAX_TRIES budget — and every
        // failed attempt must penalize the error EWMA even though the
        // job ultimately succeeds (that penalty is what steers reissue
        // targeting away from a flapping shard leg).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for i in 0..3 {
                let Ok((mut s, _)) = listener.accept() else {
                    return;
                };
                if i < 2 {
                    continue; // dropped unserved: broken pipe client-side
                }
                let mut buf = BytesMut::new();
                let mut chunk = [0u8; 1024];
                loop {
                    if let Ok(Some(cmd)) = decode_command(&mut buf) {
                        assert_eq!(cmd, Command::Ping);
                        let mut out = BytesMut::new();
                        encode_reply(&Reply::Pong, &mut out);
                        s.write_all(&out).unwrap();
                        continue;
                    }
                    match s.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
            }
        });

        let replica = Replica::connect(addr, 1).unwrap();
        let rt = Runtime::new(1);
        let out = rt.block_on(replica.request(Command::Ping, CancelToken::new()));
        assert_eq!(out, Ok(Reply::Pong), "third socket heals within bounds");
        assert!(
            replica.health().error_ewma() > 0.0,
            "failed attempts must feed the EWMA despite eventual success"
        );
        // The healed connection serves follow-ups without drama.
        let out = rt.block_on(replica.request(Command::Ping, CancelToken::new()));
        assert_eq!(out, Ok(Reply::Pong));
        drop(replica);
        server.join().unwrap();
    }

    #[test]
    fn down_replica_fails_bounded_not_forever() {
        // Replica goes down and stays down: the bounded retry loop
        // must surface an error quickly (refused dials + capped
        // jittered backoff), not spin forever, and the error EWMA must
        // reflect the attempts.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let replica = Replica::connect(addr, 1).unwrap();
        let (sock, _) = listener.accept().unwrap();
        drop(sock); // kill the pooled connection...
        drop(listener); // ...and refuse every retry dial
        let rt = Runtime::new(1);
        let t0 = std::time::Instant::now();
        let out = rt.block_on(replica.request(Command::Ping, CancelToken::new()));
        assert!(out.is_err(), "no server, no reply");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "bounded retries must fail fast, took {:?}",
            t0.elapsed()
        );
        assert!(
            replica.health().error_ewma() > 0.1,
            "every attempt penalizes the EWMA: {}",
            replica.health().error_ewma()
        );
    }

    #[test]
    fn replica_health_ewma_tracks_and_completes_censored_samples() {
        let h = ReplicaHealth::new();
        assert_eq!(h.latency_ewma_ms(), 0.0, "optimistic before any sample");
        h.record_latency(10.0);
        assert!(
            (h.latency_ewma_ms() - 10.0).abs() < 1e-12,
            "first sample seeds"
        );
        for _ in 0..200 {
            h.record_latency(2.0);
        }
        let settled = h.latency_ewma_ms();
        assert!((settled - 2.0).abs() < 0.1, "EWMA converges: {settled}");

        // A censored sample never lowers the EWMA, however early the
        // cancel: it raises it by α·t.
        h.record_censored_latency(0.1);
        let raised = h.latency_ewma_ms();
        assert!(
            (raised - (settled + LATENCY_ALPHA * 0.1)).abs() < 1e-12,
            "{settled} -> {raised}"
        );

        // A replica that only ever loses drifts up by α·t per loss,
        // without bound: it is demoted even though every one of its
        // requests was stopped early.
        for _ in 0..100 {
            h.record_censored_latency(1.0);
        }
        let drifted = h.latency_ewma_ms();
        assert!(
            (drifted - (raised + 100.0 * LATENCY_ALPHA)).abs() < 1e-9,
            "{raised} -> {drifted}"
        );

        // A replica that wins a share p of its races in x ms and is
        // stopped at t ms in the rest settles near x + (1 - p)/p · t:
        // here p = 1/2, x = 2, t = 3.
        for _ in 0..200 {
            h.record_latency(2.0);
            h.record_censored_latency(3.0);
        }
        let mixed = h.latency_ewma_ms();
        assert!((mixed - 5.0).abs() < 0.5, "bounded equilibrium: {mixed}");
    }

    #[test]
    fn replica_health_error_rate_decays_on_success() {
        let h = ReplicaHealth::new();
        for _ in 0..50 {
            h.record_error();
        }
        let sick = h.error_ewma();
        assert!(sick > 0.9, "persistent failures: {sick}");
        for _ in 0..100 {
            h.record_latency(1.0);
        }
        assert!(h.error_ewma() < 0.01, "successes heal: {}", h.error_ewma());
    }

    #[test]
    fn error_only_replica_is_demoted_despite_empty_latency_history() {
        // A replica that has never completed a request (crashed from
        // the start) has no latency samples; the absolute error term
        // must demote it anyway, or its score would read ~0 and every
        // reissue would chase the dead replica's fast failures.
        let servers: Vec<_> = (0..2)
            .map(|_| {
                TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap()
            })
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
        let set = ReplicaSet::connect(&addrs, 1).unwrap();
        for _ in 0..50 {
            set.replica(0).health().record_latency(5.0); // healthy, a bit slow
            set.replica(1).health().record_error(); // dead: errors only
        }
        assert_eq!(set.replica(1).health().latency_ewma_ms(), 0.0);
        assert!(
            set.replica(1).health_score() > set.replica(0).health_score(),
            "error-only replica must score worse than a healthy one"
        );
    }

    #[test]
    fn pick_reissue_prefers_healthy_and_falls_back() {
        let servers: Vec<_> = (0..3)
            .map(|_| {
                TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap()
            })
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
        let set = ReplicaSet::connect(&addrs, 1).unwrap();
        // Mark replica 1 slow and replica 2 fast; 0 is the primary.
        for _ in 0..50 {
            set.replica(1).health().record_latency(50.0);
            set.replica(2).health().record_latency(1.0);
        }
        assert_eq!(set.pick_reissue(0), 2, "healthy replica wins");
        assert_eq!(set.pick_reissue(2), 0, "never the primary, however healthy");
        // One replica: the primary itself rather than a panic.
        let one = ReplicaSet::connect(&addrs[..1], 1).unwrap();
        assert_eq!(one.pick_reissue(0), 0);
    }

    /// `n` listeners and a set of one connection to each. The test
    /// keeps the accepted sockets: a request sent to one is never
    /// answered, and stays outstanding until its socket is dropped.
    fn silent_set(n: usize) -> (ReplicaSet, Vec<TcpStream>) {
        let listeners: Vec<_> = (0..n)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let set = ReplicaSet::connect(&addrs, 1).unwrap();
        let socks = listeners.iter().map(|l| l.accept().unwrap().0).collect();
        (set, socks)
    }

    fn picks(set: &ReplicaSet, n: usize) -> Vec<usize> {
        (0..n).map(|_| set.pick_primary()).collect()
    }

    fn assert_rotation(picked: &[usize], n: usize) {
        for (i, &p) in picked.iter().enumerate() {
            assert_eq!(p, (picked[0] + i) % n, "pick {i} of {picked:?}");
        }
    }

    #[test]
    fn pick_primary_rotates_when_idle_and_skips_the_replica_with_requests_outstanding() {
        let (set, mut socks) = silent_set(3);
        // Nothing outstanding: plain rotation, 10 picks each.
        assert_rotation(&picks(&set, 30), 3);

        // Two requests parked on replica 1 (one on the wire, one
        // queued behind it on the same connection).
        let tokens = [CancelToken::new(), CancelToken::new()];
        let _parked: Vec<_> = tokens
            .iter()
            .map(|t| set.replica(1).request(Command::Ping, t.clone()))
            .collect();
        assert_eq!(set.replica(1).inflight(), 2);
        let picked = picks(&set, 30);
        assert!(!picked.contains(&1), "{picked:?}");

        // Cancelled, and the silent peer gone: the wire attempt ends,
        // the queued one never starts, both tickets come back.
        tokens.iter().for_each(CancelToken::cancel);
        drop(socks.remove(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while set.replica(1).inflight() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "tickets never released"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_rotation(&picks(&set, 30), 3);
    }

    #[test]
    fn pick_primary_demotes_a_failing_replica_and_probes_it_back_in() {
        let (set, _socks) = silent_set(3);
        // Replica 2 fails fast: nothing outstanding, errors only.
        for _ in 0..20 {
            set.replica(2).health().record_error();
        }
        // Turns 0..48: replica 2 gets the probes (turns 0, 16, 32) and
        // nothing else.
        let picked = picks(&set, 3 * PROBE_EVERY);
        let probes = [0, PROBE_EVERY, 2 * PROBE_EVERY];
        for (turn, &p) in picked.iter().enumerate() {
            assert_eq!(p == 2, probes.contains(&turn), "turn {turn}: {picked:?}");
        }
        assert_eq!(set.pick_primary(), 2, "turn 48 is the next probe");
        // Between probes a failing replica counts as busy whatever the
        // counts say: the healthy two carry requests, it carries none.
        let _parked: Vec<_> = (0..2)
            .map(|r| set.replica(r).request(Command::Ping, CancelToken::new()))
            .collect();
        assert_ne!(set.pick_primary(), 2);
        // Answered probes decay the error EWMA and re-admit it.
        while set.replica(2).health().failing() {
            set.replica(2).health().record_latency(1.0);
        }
        assert_eq!(set.pick_primary(), 2, "the only idle replica");
    }

    #[test]
    fn one_replica_set_picks_without_reading_a_counter() {
        let (set, _socks) = silent_set(1);
        let _parked = set.replica(0).request(Command::Ping, CancelToken::new());
        assert_eq!(picks(&set, 20), vec![0; 20]);
        assert_eq!(
            set.next.load(Ordering::Relaxed),
            0,
            "returned before its turn"
        );
    }

    #[test]
    fn pre_dispatch_cancel_never_hits_wire() {
        let server =
            TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap();
        let replica = Replica::connect(server.local_addr(), 1).unwrap();
        let rt = Runtime::new(1);
        let token = CancelToken::new();
        token.cancel();
        let out = rt.block_on(replica.request(Command::Ping, token));
        assert_eq!(out, Err(TransportError::Cancelled));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(server.stats().commands, 0, "nothing should execute");
        server.shutdown();
    }

    #[test]
    fn reused_token_resolves_as_a_protocol_error() {
        let server =
            TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap();
        let replica = Replica::connect(server.local_addr(), 1).unwrap();
        let rt = Runtime::new(1);
        let token = CancelToken::new();
        let first = replica.request(Command::Ping, token.clone());
        let second = rt.block_on(replica.request(Command::Ping, token));
        assert!(
            matches!(second, Err(TransportError::Protocol(_))),
            "{second:?}"
        );
        assert_eq!(rt.block_on(first), Ok(Reply::Pong), "the first is served");
        assert_eq!(server.stats().commands, 1, "the second never went out");
        server.shutdown();
    }
}
