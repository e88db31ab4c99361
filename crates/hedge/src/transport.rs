//! Async RESP client transport: per-replica connection pools, one
//! in-flight request per connection, cancellation propagated on the
//! wire.
//!
//! Each pooled connection owns a dedicated I/O thread (blocking
//! sockets; the async layer above parks on the attempt cell, see
//! [`crate::sync`]) running the one connection loop there is: write a
//! frame, read its reply, take the next job. A connection never writes
//! a second request before the first is answered. That is an invariant,
//! not a default, and three things rest on it: an attempt that dies
//! with its socket can be replayed alone on a fresh one (nothing else
//! was on the wire to fail or to reorder), `CANCEL <seq>` names the
//! one request a server can still be holding for this connection, and
//! whatever [`Replica::inflight`] counts beyond one request per
//! connection waits in this client's queues, where a cancel costs no
//! wire frame, not in a socket buffer behind a slow request.
//!
//! Requests are sequence-numbered per connection; cancelling an
//! in-flight request writes `CANCEL <seq>` on the same connection,
//! which the server answers with the `-ERR cancelled` marker if it
//! managed to retract the frame (see [`crate::server`]). Either way
//! every request gets exactly one reply, so the connection
//! re-synchronizes by construction.
//!
//! A connection that breaks (replica restart, broken pipe) does not
//! poison its pool slot: the request that observed the failure is
//! retried on freshly dialed sockets (sequence numbers restart at zero
//! on both sides) — up to [`MAX_ATTEMPTS`] attempts with jittered
//! exponential backoff — before its error is surfaced, and later
//! requests keep re-dialing. A restarted replica heals transparently;
//! a flapping one degrades (each failed attempt feeds the error EWMA,
//! steering reissues elsewhere) instead of erroring every job; a
//! still-down replica fails fast (dial refusals are immediate).

use crate::sync::{CancelToken, Writer};
use bytes::BytesMut;
use kvstore::resp::{decode_reply, encode_command};
use kvstore::{Command, Reply};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use std::future::Future;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Duration;

use crate::server::CANCELLED_MARKER;

/// Transport-level failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The request was cancelled (tied-request retraction) before it
    /// executed.
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
/// [`ReplicaSet::pick_reissue_excluding`]).
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
/// * completed requests feed the latency EWMA (queueing included:
///   `conn_loop` measures from job dispatch);
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
/// completed by the I/O thread, dropped in the queue when the
/// connection dies, or bounced by a failed send — and always *before*
/// the attempt resolves ([`Job::complete`]).
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

/// Server-side tie registration to attach to a dispatched request (see
/// [`crate::server`] for the protocol). The transport prepends a `TIE`
/// control frame to the request's *first* wire attempt — same
/// `write(2)`, so the server's reader observes them back to back and
/// the registration covers exactly this command. Control frames carry
/// no reply and consume no sequence number, so cancellation by
/// sequence keeps working unchanged.
///
/// `peer` is set on the *reissue* leg: the primary's (replica address,
/// tie id), which the serving replica CANCELs at dequeue time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TieSpec {
    /// This request's tie identifier, unique per client process.
    pub id: u64,
    /// The already-dispatched peer to retract when this copy is
    /// dequeued: `(replica address, peer tie id)`.
    pub peer: Option<(SocketAddr, u64)>,
}

impl TieSpec {
    fn command(&self) -> Command {
        Command::Tie {
            id: self.id,
            peer: self.peer,
        }
    }
}

/// One queued request. `token` is the attempt cell: the I/O thread
/// resolves it through [`Job::complete`], and a job that is dropped
/// unresolved — bounced by a failed send, or left in the queue when
/// the connection goes away — resolves it as `ConnectionClosed` (a
/// no-op on a cell already resolved).
struct Job {
    cmd: Command,
    token: CancelToken,
    tie: Option<TieSpec>,
    /// `None` once the attempt resolved.
    ticket: Option<InflightTicket>,
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

/// One pooled connection: a job queue feeding a dedicated I/O thread.
struct Conn {
    // None only during drop (closing the channel ends the I/O loop).
    jobs: Option<mpsc::Sender<Job>>,
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
                let writer = stream.try_clone()?;
                let (tx, rx) = mpsc::channel::<Job>();
                let inflight = Arc::new(AtomicU64::new(0));
                let health = health.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("hedge-conn-{addr}-{i}"))
                    .spawn(move || conn_loop(addr, stream, writer, &rx, &health))
                    .expect("spawn connection I/O thread");
                Ok(Conn {
                    jobs: Some(tx),
                    inflight,
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

    /// Like [`Replica::request`], but registers `tie` on the server
    /// before the command (a `TIE` control frame coalesced into the
    /// same write). A tied request can be retracted by its peer's
    /// serving replica at dequeue time — server-to-server — instead of
    /// waiting for this client's `CANCEL` round trip.
    pub fn request_tied(&self, cmd: Command, token: CancelToken, tie: Option<TieSpec>) -> InFlight {
        let token = token.attach();
        // CANCEL and tie frames are transport-internal control frames
        // (no reply, sequence-number-sensitive); a hand-sent one would
        // desynchronize the reply stream, so refuse them here.
        if matches!(
            cmd,
            Command::Cancel(_)
                | Command::Tie { .. }
                | Command::TiePeer { .. }
                | Command::CancelTie(_)
        ) {
            token.complete(Err(TransportError::Protocol(
                "control frames are sent via CancelToken/TieSpec, not as requests".into(),
            )));
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
        };
        if let Some(jobs) = &conn.jobs {
            // On send failure the bounced job drops here, releasing
            // its ticket and resolving the cell as ConnectionClosed.
            let _ = jobs.send(job);
        }
        InFlight { token }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        for conn in &mut self.conns {
            // Closing the channel ends the I/O thread's job loop once
            // the in-flight job (if any) finishes.
            conn.jobs = None;
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

/// Per-job bound on request attempts (initial + retries), counting
/// both failed reconnect dials and attempts that died mid-request.
pub const MAX_ATTEMPTS: usize = 4;

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
    stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    Ok(stream)
}

/// Per-connection I/O state, replaced wholesale on reconnect.
struct ConnIo {
    reader: TcpStream,
    /// Shared with cancellers, which run on other threads while this
    /// thread is blocked reading the reply. Reconnect swaps the stream
    /// *inside* the mutex, so the handle recorded in an attempt cell
    /// stays good for the life of the connection slot.
    writer: Writer,
    buf: BytesMut,
    /// Sequence numbers count commands actually sent on the wire — the
    /// server counts the same way, so they stay aligned. A job
    /// cancelled before dispatch must NOT consume a number; a fresh
    /// connection restarts both sides at zero.
    seq: u64,
}

/// A single request attempt's failure mode: retryable failures are
/// socket-level (the connection died; a fresh socket may succeed),
/// final failures are answered as-is.
enum AttemptError {
    Retryable(TransportError),
    Final(TransportError),
}

/// Writes the job's frame and reads exactly one reply on the current
/// socket. `frame` is the connection's pooled encode buffer — cleared
/// and refilled here, never reallocated across jobs.
fn attempt_request(
    io: &mut ConnIo,
    job: &Job,
    chunk: &mut [u8],
    frame: &mut BytesMut,
) -> Result<Reply, AttemptError> {
    frame.clear();
    // The tie registration rides in the same write as the command so
    // the server's reader sees them back to back — on every wire
    // attempt, including retries after a reconnect: a retry lands on a
    // fresh socket of the *same* server, where re-registering the tie
    // id is an idempotent table insert, and the tombstoned `TieTable`
    // already converges when the peer's CANCELTIE arrived before the
    // re-registration. Sending the retry untied would let the copy
    // execute unretractable, silently understating retractions.
    if let Some(tie) = &job.tie {
        encode_command(&tie.command(), frame);
    }
    encode_command(&job.cmd, frame);
    {
        let mut stream = io.writer.lock().expect("writer lock poisoned");
        if let Err(e) = stream.write_all(frame) {
            return Err(AttemptError::Retryable(TransportError::Io(e.to_string())));
        }
        // From here the request is on the wire: exactly one reply will
        // come back, and a cancel races ahead on the same socket. The
        // wire target goes into the cell before the writer lock is
        // released, and comes out again under it below — before this
        // function returns, hence before any reconnect — which is what
        // keeps a late cancel from writing a stale sequence number onto
        // a redialled socket (see `crate::sync`).
        job.token.set_wire(&io.writer, &mut stream, io.seq);
    }
    io.seq += 1;
    // Read exactly one reply (blocking with periodic timeouts).
    let reply = loop {
        match decode_reply(&mut io.buf) {
            Ok(Some(r)) => break Ok(r),
            Ok(None) => {}
            // Desync: surface the error; the caller reconnects before
            // the next job.
            Err(e) => break Err(AttemptError::Final(TransportError::Protocol(e.to_string()))),
        }
        match io.reader.read(chunk) {
            Ok(0) => break Err(AttemptError::Retryable(TransportError::ConnectionClosed)),
            Ok(n) => io.buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => break Err(AttemptError::Retryable(TransportError::Io(e.to_string()))),
        }
    };
    job.token
        .clear_wire(&io.writer.lock().expect("writer lock poisoned"));
    match reply {
        Ok(Reply::Error(e)) if e == CANCELLED_MARKER => {
            Err(AttemptError::Final(TransportError::Cancelled))
        }
        Ok(r) => Ok(r),
        Err(e) => Err(e),
    }
}

/// Replaces the connection's socket with a freshly dialed one,
/// resetting the reply buffer and the sequence counter (the server
/// numbers each connection from zero).
fn reconnect(addr: SocketAddr, io: &mut ConnIo) -> std::io::Result<()> {
    let stream = connect_socket(addr)?;
    *io.writer.lock().unwrap() = stream.try_clone()?;
    io.reader = stream;
    io.buf.clear();
    io.seq = 0;
    Ok(())
}

fn conn_loop(
    addr: SocketAddr,
    stream: TcpStream,
    writer: TcpStream,
    jobs: &mpsc::Receiver<Job>,
    health: &ReplicaHealth,
) {
    let mut io = ConnIo {
        reader: stream,
        writer: Arc::new(Mutex::new(writer)),
        buf: BytesMut::new(),
        seq: 0,
    };
    let mut chunk = [0u8; 16 * 1024];
    // Pooled encode buffer: request frames are built in place here for
    // every job on this connection instead of allocating per attempt.
    let mut frame = BytesMut::new();
    // Set when the socket is known broken, so the next job reconnects
    // up front instead of burning its first attempt on a dead socket.
    // The slot is never poisoned permanently: every job gets fresh
    // sockets (bounded by `MAX_ATTEMPTS`, with jittered backoff
    // between dials) before its error is surfaced. A replica *restart*
    // heals transparently; a *flapping* replica degrades — every
    // failed attempt feeds the error EWMA, steering reissue targeting
    // away — rather than erroring the whole fan-out leg; a replica
    // that is still down fails fast (connection refusals return
    // immediately, so the bounded loop costs only the backoff).
    let mut broken = false;
    let mut rng = SmallRng::seed_from_u64(u64::from(addr.port()) ^ 0xBAC0FF);
    // Hoisted: an env lookup takes the process-wide environment lock
    // and scans `environ`, which is far too expensive per job.
    let debug = std::env::var_os("HEDGE_DEBUG").is_some();

    for mut job in jobs.iter() {
        // Cancelled while queued: never touches the wire.
        if job.token.is_cancelled() {
            job.complete(Err(TransportError::Cancelled));
            continue;
        }
        let dispatched = std::time::Instant::now();
        // Bounded retries on fresh sockets: attempt 1 may run on the
        // existing connection, later attempts only after a reconnect.
        // A retried command may execute twice if the connection died
        // after the server executed but before it replied — safe only
        // for commands whose *reply* is unaffected by re-execution
        // (`retry_safe`), so counting mutations surface the ambiguous
        // failure to the caller instead. Each failed attempt (dial or
        // request) penalizes the error EWMA individually, so the
        // health signal sees flapping even when the job eventually
        // succeeds.
        let mut attempt = 0usize;
        let outcome = loop {
            if broken {
                if let Err(e) = reconnect(addr, &mut io) {
                    health.record_error();
                    attempt += 1;
                    if attempt >= MAX_ATTEMPTS || job.token.is_cancelled() {
                        break Err(TransportError::Io(e.to_string()));
                    }
                    backoff(attempt, &mut rng);
                    continue;
                }
                broken = false;
            }
            match attempt_request(&mut io, &job, &mut chunk, &mut frame) {
                Ok(reply) => break Ok(reply),
                Err(AttemptError::Final(e)) => {
                    if matches!(e, TransportError::Protocol(_)) {
                        // Desynced reply stream: dial fresh next job.
                        broken = true;
                        health.record_error();
                    }
                    break Err(e);
                }
                Err(AttemptError::Retryable(e)) => {
                    broken = true;
                    health.record_error();
                    attempt += 1;
                    // A cancelled loser must not be re-executed — and
                    // the failure surfaces as the transport error, NOT
                    // `Cancelled`: the server never confirmed a
                    // retraction (the request may well have executed
                    // before the connection died), so the caller must
                    // not count it as a clean in-time cancel or derive
                    // a censoring bound from it.
                    if attempt >= MAX_ATTEMPTS || job.token.is_cancelled() || !retry_safe(&job.cmd)
                    {
                        break Err(e);
                    }
                    backoff(attempt, &mut rng);
                }
            }
        };
        let took_ms = dispatched.elapsed().as_secs_f64() * 1e3;
        match &outcome {
            // Server-level error replies (WRONGTYPE, …) still measure a
            // responsive replica, so they count as latency samples.
            Ok(_) => health.record_latency(took_ms),
            // A clean retraction is not a speed sample — only a bound.
            Err(TransportError::Cancelled) => health.record_censored_latency(took_ms),
            // Failed attempts already fed the error EWMA one by one.
            Err(_) => {}
        }
        if debug && took_ms > 10.0 {
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

    /// Picks the reissue target: the healthiest replica other than the
    /// primary (falls back to the primary itself in a 1-replica set).
    pub fn pick_reissue(&self, primary: usize) -> usize {
        self.pick_reissue_excluding(&[primary])
    }

    /// Picks the reissue target with the lowest [`Replica::health_score`]
    /// among replicas not in `exclude` — for a multi-stage schedule,
    /// `exclude` carries the primary plus every earlier stage's target,
    /// so each reissue explores a fresh replica while any remain.
    ///
    /// Health-aware targeting matters under queries of death: *where* a
    /// redundant copy lands matters as much as *when* it is sent
    /// (Vulimiri et al.; Shah et al.), and a replica head-of-line
    /// blocked by another client's monster looks idle to this client's
    /// raw in-flight counts. The latency/error EWMA sees how the
    /// replica has actually been responding and demotes it until it
    /// heals (see [`ReplicaHealth`]).
    ///
    /// Falls back to the all-replica minimum when `exclude` covers the
    /// whole set.
    pub fn pick_reissue_excluding(&self, exclude: &[usize]) -> usize {
        let best = |indices: &mut dyn Iterator<Item = usize>| {
            indices
                .map(|i| (i, self.replicas[i].health_score()))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i)
        };
        best(&mut (0..self.replicas.len()).filter(|i| !exclude.contains(i)))
            .or_else(|| best(&mut (0..self.replicas.len())))
            .expect("non-empty replica set")
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
        // or the re-executed copy runs unretractable and retraction
        // accounting silently goes optimistic.
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
        let tie = TieSpec { id: 42, peer: None };
        let out = rt.block_on(replica.request_tied(Command::Ping, CancelToken::new(), Some(tie)));
        assert_eq!(out, Ok(Reply::Pong), "retry should heal via reconnect");
        drop(replica);
        server.join().unwrap();
    }

    #[test]
    fn flaky_replica_heals_within_bounded_retries_and_feeds_error_ewma() {
        use kvstore::resp::{decode_command, encode_reply};

        // A flapping replica: the first two connections are accepted
        // and dropped unserved, the third serves normally. One request
        // must survive this inside its MAX_ATTEMPTS budget — and every
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
    fn pick_reissue_excluding_prefers_healthy_and_falls_back() {
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
        assert_eq!(set.pick_reissue_excluding(&[0, 2]), 1);
        // All excluded: fall back to the global best rather than panic.
        let all = set.pick_reissue_excluding(&[0, 1, 2]);
        assert!(all < 3);
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
}
