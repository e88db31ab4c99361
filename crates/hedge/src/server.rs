//! A TCP transport for the kvstore with a pluggable queue
//! [`Discipline`], client retraction and server-side *tied requests*.
//!
//! Every accepted socket gets a reader thread that decodes RESP frames
//! into per-connection FIFO queues. Only each connection's **head**
//! request is admitted into one central [`WaitQueue`], so the
//! configured cross-connection discipline (FIFO, cost-priority,
//! shortest-expected-burn, round-robin, …) can reorder freely while
//! per-connection reply order — the RESP contract — is preserved by
//! construction. One head is served at a time, by whichever thread
//! holds the single **service slot**: it pops the central queue,
//! executes against the shared backend, burns `cost × nanos_per_op`
//! of wall-clock service time, and writes the reply. The default
//! discipline, `RoundRobin { connections: 0 }`, is Redis's event loop
//! as §6.2 needs it: one command per connection with pending input per
//! sweep, so one long `SINTER` delays every other connection's next
//! command by its full service time.
//!
//! ## Who serves: the sweeper, or the reader in place
//!
//! A reader whose decoded head finds the slot free and the central
//! queue empty takes the slot and serves the head itself, in place:
//! with nothing queued, every discipline would have picked that head.
//! It keeps the slot while the next head it pops turns out short too,
//! so a busy server of short requests never wakes its sweeper thread.
//! A head whose service burn is 200 µs or more is handed to the sweeper
//! thread, slot and all, once it has executed: only the sweeper waits
//! out a burn that long, so a client's `CANCEL`, read by that head's
//! reader meanwhile, can stop it (below). Shorter burns are spun
//! through wherever they run and cannot be stopped anyway.
//! [`ServerStats::sweeps`] counts the commands the sweeper served; the
//! rest of [`ServerStats::commands`] were served in place.
//!
//! Nothing polls: an idle reader blocks in `read()` with no timeout,
//! an idle sweeper on its condvar, and [`TcpServer::shutdown`] wakes
//! the readers by shutting their sockets down.
//!
//! ## Client retraction
//!
//! Requests on a connection carry an implicit sequence number (0, 1,
//! 2, …, counted by both sides). A client that no longer needs request
//! `n` — because its hedged twin already won — sends `CANCEL n` on the
//! same connection. If the request is still queued (not yet swept) it
//! is *retracted* and `-ERR cancelled` takes its reply slot, so the
//! reply stream stays in order and the server never does the work.
//!
//! A request already **in service** is retracted too. Its service time
//! (`cost × nanos_per_op`, when that is 200 µs or more) is a wait the
//! sweeper serves it in and can be woken from: the client's `CANCEL`
//! stops it, the same `-ERR cancelled` marker takes the reply slot, the
//! server books only the cost units it burned
//! ([`ServerStats::total_cost`], and one [`ServerStats::aborted`]), and
//! the replica serves its next head at once instead of finishing a copy
//! nobody is waiting for.
//!
//! ## Tied requests (the primary's server retracts the reissue)
//!
//! A client `CANCEL` retracts a loser only after the winning reply has
//! crossed the network *twice* (reply to client, cancel back to
//! server). Following "The Tail at Scale", every raced query is also
//! *tied*, in one direction:
//!
//! 1. The reissue carries `TIE <id>`, which registers it here under the
//!    client-global tie id `id`. Such a request is a reissue, which is
//!    what the `Prioritized*` disciplines order by.
//! 2. At the same moment the client writes `TIE <seq> <addr> <id>` on
//!    the primary's connection: request `seq` there has a twin,
//!    registered at server `addr`.
//! 3. The primary's server keeps the twin while the primary is queued
//!    and sends `CANCELTIE <id>` to `addr` when it dequeues the
//!    primary. If the primary is already in service or answered when
//!    the `TIE` arrives, the tie *collapses*: `CANCELTIE` goes out at
//!    once.
//! 4. The reissue's server retracts the reissue on `CANCELTIE` while it
//!    is still queued. A `CANCELTIE` that overtook its reissue is kept
//!    in a bounded pre-cancel set, and the reissue is born cancelled.
//!
//! The reissue's server never sends a `CANCELTIE`: retracting the
//! primary when the reissue is dequeued measured no cheaper than the
//! client's own `CANCEL`, which follows it a round trip later anyway.
//! `CANCELTIE`s travel over a small server-to-server channel, best
//! effort; a lost one leaves the retraction to the client. What can be
//! cancelled, and by whom:
//!
//! | the request is… | client `CANCEL` | the primary's server's `CANCELTIE` (reissues only) |
//! |---|---|---|
//! | queued | retracted | retracted |
//! | in service (the cost model's service time) | stopped | left to finish |
//! | inside [`Backend::execute`], or burning < 200 µs | too late: it is atomic | left to finish |
//!
//! Only the client may stop running work, because only the client
//! holds the winner's reply when it cancels. A `CANCELTIE` says no more
//! than "the primary started", and a started primary may still lose,
//! so `CANCELTIE` keeps its dequeue-time meaning and is too late once
//! the reissue's service began.

use kvstore::resp::{decode_command, encode_command, encode_reply};
use kvstore::server::ServerStats;
use kvstore::{Backend, Command, KvStore, Reply};
pub use reissue_core::discipline::Discipline;
use reissue_core::discipline::{QueueItem, WaitQueue};

use bytes::BytesMut;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Reply body sent for a retracted (cancelled) request.
pub const CANCELLED_MARKER: &str = "cancelled";

/// The retraction reply, pre-encoded: exactly what
/// `encode_reply(&Reply::Error(CANCELLED_MARKER.into()))` produces,
/// kept as a static frame so the cancel fast path allocates nothing.
const CANCELLED_FRAME: &[u8] = b"-ERR cancelled\r\n";

/// Ceiling on a single command's service burn. `cost × nanos_per_op`
/// is data-dependent (a giant `SINTER`), so the product is saturating
/// and capped rather than trusted: without this a crafted cost could
/// overflow `u64` nanoseconds or park the sweeper for centuries.
const MAX_BURN_NANOS: u64 = 5_000_000_000;

/// Service times shorter than this are spun through, not slept: a
/// sleep would overshoot them by its wake-up latency. They are also
/// too short to be worth stopping, so only longer ones can be.
const SPIN_BELOW: Duration = Duration::from_micros(200);

/// Configuration for [`TcpServer`].
#[derive(Clone, Copy, Debug)]
pub struct TcpServerConfig {
    /// Wall-clock nanoseconds of service time per unit of store cost.
    /// `0` disables the burn (replies as fast as the store executes).
    /// The kvstore's cost model counts elementary set operations, so
    /// e.g. `1_000` makes a 100k-element intersection take ~100 ms —
    /// a "query of death" — while a `GET` stays ~µs.
    pub nanos_per_op: u64,
    /// Cross-connection scheduling discipline for the central wait
    /// queue. Per-connection order is always FIFO (the RESP reply
    /// contract); the discipline chooses *between* connection heads.
    pub discipline: Discipline,
}

impl Default for TcpServerConfig {
    fn default() -> Self {
        TcpServerConfig {
            nanos_per_op: 0,
            // Dynamic round-robin over accept-order connection ids:
            // Redis's one-command-per-connection sweep (module docs).
            discipline: Discipline::RoundRobin { connections: 0 },
        }
    }
}

/// Server-side tie protocol counters (see [`TcpServer::tie_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TieStats {
    /// Reissues registered here (their `TIE <id>` prefix).
    pub registered: u64,
    /// `CANCELTIE`s sent to a reissue's server when its primary was
    /// dequeued here.
    pub peer_cancels_sent: u64,
    /// Queued reissues retracted here because their primary's
    /// `CANCELTIE` arrived in time.
    pub retractions: u64,
    /// Ties that reached a primary already in service or answered:
    /// collapsed, `CANCELTIE` sent at once.
    pub collapses: u64,
}

/// A request's part in a tie (see the module docs).
#[derive(Clone, Copy, Debug)]
enum Tie {
    /// A reissue registered here under this tie id.
    Reissue(u64),
    /// A primary whose reissue is registered at this server under this
    /// tie id: sent `CANCELTIE` when the primary is dequeued.
    Primary(SocketAddr, u64),
}

/// One queued request on a connection.
struct Entry {
    seq: u64,
    cmd: Command,
    /// Pre-execution cost estimate ([`Backend::estimate_cost`]).
    cost: u64,
    /// Milliseconds since server start, for age-based disciplines.
    enqueued_at: f64,
    tie: Option<Tie>,
    /// Retracted; emits the cancelled marker when it reaches the head.
    cancelled: bool,
    /// Currently in the central queue (or held by the service slot's
    /// holder).
    admitted: bool,
    /// The slot's holder has committed to executing it: too late for a
    /// `CANCELTIE`; a client `CANCEL` can still stop its service time
    /// (a long one, which the sweeper serves).
    executing: bool,
}

struct ConnInner {
    queue: VecDeque<Entry>,
    next_seq: u64,
}

struct ConnState {
    /// Accept-order id, the round-robin key.
    id: usize,
    writer: Mutex<TcpStream>,
    inner: Mutex<ConnInner>,
    /// What the sweeper waits on, paired with `inner`, while this
    /// connection's head is in service. The stop signals — the head's
    /// `cancelled` flag, the server's `stop` — are read under `inner`
    /// before every wait and signalled under it, so none is lost; and
    /// the flag lives on the entry, so none outlives its request.
    service_cv: Condvar,
    dead: AtomicBool,
}

/// The central queue's view of a connection head.
struct SchedItem {
    conn: Arc<ConnState>,
    seq: u64,
    cost: f64,
    enqueued_at: f64,
    is_reissue: bool,
}

impl QueueItem for SchedItem {
    fn cost(&self) -> f64 {
        self.cost
    }
    fn enqueued_at(&self) -> f64 {
        self.enqueued_at
    }
    fn is_reissue(&self) -> bool {
        self.is_reissue
    }
    fn connection(&self) -> usize {
        self.conn.id
    }
}

/// Who holds the single service slot (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// Nobody: the next head to arrive with nothing queued is served
    /// in place by the reader that decoded it.
    Free,
    /// A reader, serving short heads in place.
    Reader,
    /// The sweeper thread.
    Sweeper,
}

/// The central queue and the service slot, under one lock.
struct Sched {
    queue: WaitQueue<SchedItem>,
    slot: Slot,
    /// A head a reader executed and found too long to serve in place,
    /// handed to the sweeper with the slot.
    handoff: Option<Running>,
}

impl Sched {
    fn new(discipline: Discipline) -> Self {
        Sched {
            queue: WaitQueue::new(discipline),
            slot: Slot::Free,
            handoff: None,
        }
    }
}

/// A head whose command has executed: its reply and the service time
/// it still has to burn.
struct Running {
    item: SchedItem,
    reply: Reply,
    cost: u64,
    service: Duration,
    /// When execution ended and the service time began.
    started: Instant,
}

/// A registered reissue: where it currently sits.
struct TieReg {
    conn: Arc<ConnState>,
    seq: u64,
}

/// A bounded remember-set of tie ids: oldest inserted is evicted once
/// the cap is hit, so a server that never sees the matching event
/// cannot leak memory.
struct BoundedSet {
    set: std::collections::HashSet<u64>,
    order: VecDeque<u64>,
}

impl BoundedSet {
    const CAP: usize = 4096;

    fn new() -> Self {
        BoundedSet {
            set: std::collections::HashSet::new(),
            order: VecDeque::new(),
        }
    }

    fn insert(&mut self, id: u64) {
        if self.set.insert(id) {
            self.order.push_back(id);
            if self.order.len() > Self::CAP {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }

    fn remove(&mut self, id: u64) -> bool {
        // The stale `order` slot is left behind; eviction tolerates it.
        self.set.remove(&id)
    }
}

/// The reissues registered here, under one leaf mutex. A `CANCELTIE`
/// travels from the primary's server on a socket of its own, so it can
/// overtake the reissue it names (the reissue's reader can stall
/// behind a slow `Backend::execute` while estimating costs):
///
/// * `regs` — reissues queued here right now;
/// * `precancelled` — `CANCELTIE`s that found no registration: a
///   reissue that registers later is born cancelled and never runs.
///   One for a reissue that already left the queue just ages out.
struct TieTable {
    regs: HashMap<u64, TieReg>,
    precancelled: BoundedSet,
}

struct TieCounters {
    registered: AtomicU64,
    peer_cancels_sent: AtomicU64,
    retractions: AtomicU64,
    collapses: AtomicU64,
}

struct Shared<B: Backend> {
    store: Mutex<B>,
    stats: Mutex<ServerStats>,
    /// Central cross-connection wait queue and the service slot. Lock
    /// order: a connection's `inner` may be held while taking `sched`
    /// (admission, take), and `ties` is only ever taken last or alone —
    /// never the reverse.
    sched: Mutex<Sched>,
    /// What the idle sweeper blocks on, paired with `sched`. Everything
    /// it wakes for — a push while the slot is free, a hand-off, `stop`,
    /// `reap` — changes under the `sched` lock, and the sweeper checks
    /// all of them under that lock before it waits, so no wake-up can
    /// fall between check and wait and the wait needs no timeout.
    sweep_cv: Condvar,
    /// A connection died since the last reap (see [`mark_dead`]).
    reap: AtomicBool,
    conns: Mutex<Vec<Arc<ConnState>>>,
    /// Reissue registrations and early `CANCELTIE`s.
    ties: Mutex<TieTable>,
    /// Outbound `CANCELTIE`s: (reissue's server, tie id); `None` once
    /// shut down.
    tie_tx: Mutex<Option<mpsc::Sender<(SocketAddr, u64)>>>,
    tie_counters: TieCounters,
    stop: AtomicBool,
    /// Live copy of [`TcpServerConfig::nanos_per_op`]; see
    /// [`TcpServer::set_nanos_per_op`].
    nanos_per_op: AtomicU64,
    epoch: Instant,
    /// Reader threads, tracked so shutdown can join them (they used to
    /// be spawned detached and leaked past shutdown).
    reader_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<B: Backend> Shared<B> {
    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Sends `CANCELTIE <id>` to the reissue's server at `addr`.
    fn cancel_tie(&self, (addr, id): (SocketAddr, u64)) {
        if let Some(tx) = self.tie_tx.lock().unwrap().as_ref() {
            let _ = tx.send((addr, id));
        }
    }
}

/// A replica listening on a real TCP socket.
///
/// Generic over the [`Backend`] it serves (a [`KvStore`] by default, a
/// BM25 index shard for scatter-gather fan-out, …); the transport —
/// RESP framing, discipline scheduling, wall-clock burn, tied-request
/// cancellation — is backend-agnostic. Shuts down (and joins all
/// threads, readers included) on [`TcpServer::shutdown`] or drop.
pub struct TcpServer<B: Backend = KvStore> {
    local_addr: SocketAddr,
    shared: Arc<Shared<B>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<B: Backend> TcpServer<B> {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// serving `store`.
    pub fn bind(addr: &str, store: B, cfg: TcpServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (tie_tx, tie_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            store: Mutex::new(store),
            stats: Mutex::new(ServerStats::default()),
            sched: Mutex::new(Sched::new(cfg.discipline)),
            sweep_cv: Condvar::new(),
            reap: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            ties: Mutex::new(TieTable {
                regs: HashMap::new(),
                precancelled: BoundedSet::new(),
            }),
            tie_tx: Mutex::new(Some(tie_tx)),
            tie_counters: TieCounters {
                registered: AtomicU64::new(0),
                peer_cancels_sent: AtomicU64::new(0),
                retractions: AtomicU64::new(0),
                collapses: AtomicU64::new(0),
            },
            stop: AtomicBool::new(false),
            nanos_per_op: AtomicU64::new(cfg.nanos_per_op),
            epoch: Instant::now(),
            reader_threads: Mutex::new(Vec::new()),
        });

        let mut threads = Vec::new();
        let accept_shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("kv-accept-{local_addr}"))
                .spawn(move || accept_loop(&listener, &accept_shared))
                .expect("spawn accept thread"),
        );
        let sweep_shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("kv-sweep-{local_addr}"))
                .spawn(move || sweep_loop(&sweep_shared))
                .expect("spawn sweeper thread"),
        );
        threads.push(
            std::thread::Builder::new()
                .name(format!("kv-tie-{local_addr}"))
                .spawn(move || tie_sender_loop(&tie_rx))
                .expect("spawn tie sender thread"),
        );

        Ok(TcpServer {
            local_addr,
            shared,
            threads: Mutex::new(threads),
        })
    }

    /// The bound address (resolve ephemeral ports here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Server-side execution statistics so far.
    pub fn stats(&self) -> ServerStats {
        *self.shared.stats.lock().unwrap()
    }

    /// Server-side tie protocol counters so far.
    pub fn tie_stats(&self) -> TieStats {
        let c = &self.shared.tie_counters;
        TieStats {
            registered: c.registered.load(Ordering::Relaxed),
            peer_cancels_sent: c.peer_cancels_sent.load(Ordering::Relaxed),
            retractions: c.retractions.load(Ordering::Relaxed),
            collapses: c.collapses.load(Ordering::Relaxed),
        }
    }

    /// Direct backend access (dataset loading before serving).
    pub fn with_store<R>(&self, f: impl FnOnce(&mut B) -> R) -> R {
        f(&mut self.shared.store.lock().unwrap())
    }

    /// Changes the per-cost-unit service burn while serving. Lets a
    /// running replica be slowed down ("sickened") or sped up
    /// ("healed") without dropping its connections — the knob the
    /// EWMA-targeting tests turn to verify reissue traffic shifts away
    /// from a degraded replica and returns once it recovers.
    pub fn set_nanos_per_op(&self, nanos_per_op: u64) {
        self.shared
            .nanos_per_op
            .store(nanos_per_op, Ordering::Relaxed);
    }

    /// Connections currently tracked. Disconnected peers are reaped by
    /// the sweeper, so this returns to zero once clients go away.
    pub fn connection_count(&self) -> usize {
        self.shared.conns.lock().unwrap().len()
    }

    /// Stops all threads — accept, sweeper, tie sender, and every
    /// per-connection reader — and joins them.
    pub fn shutdown(&self) {
        {
            let _sched = self.shared.sched.lock().unwrap();
            self.shared.stop.store(true, Ordering::SeqCst);
            self.shared.sweep_cv.notify_one();
        }
        // A request in service is not slept out (that could take
        // `MAX_BURN_NANOS`): wake its wait. `stop` is set, and the
        // sweeper reads it under `inner` before it waits.
        for conn in self.shared.conns.lock().unwrap().iter() {
            let _inner = conn.inner.lock().unwrap();
            conn.service_cv.notify_one();
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        // Dropping the sender disconnects the tie thread's recv loop.
        drop(self.shared.tie_tx.lock().unwrap().take());
        for t in self.threads.lock().unwrap().drain(..) {
            let _ = t.join();
        }
        // With the accept thread joined, every reader's connection is
        // in `conns` (a reaped one's reader has exited, or its socket
        // was shut down when its write failed). Shutting the sockets
        // down ends the readers' blocking reads; joining them here
        // (instead of leaking detached threads) means no reader can
        // touch the store after shutdown returns.
        for conn in self.shared.conns.lock().unwrap().iter() {
            let _ = conn.writer.lock().unwrap().shutdown(Shutdown::Both);
        }
        for t in self.shared.reader_threads.lock().unwrap().drain(..) {
            let _ = t.join();
        }
        // Drop every connection (and queued scheduler entries holding
        // them) so client sockets see EOF once shutdown returns.
        self.shared.conns.lock().unwrap().clear();
        *self.shared.sched.lock().unwrap() = Sched::new(Discipline::Fifo);
        self.shared.ties.lock().unwrap().regs.clear();
    }
}

impl<B: Backend> Drop for TcpServer<B> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop<B: Backend>(listener: &TcpListener, shared: &Arc<Shared<B>>) {
    let mut next_id = 0usize;
    // Backoff for persistent accept errors (EMFILE, ENOBUFS, …): the
    // old loop hot-spun on `continue`, pinning a core exactly when the
    // machine was already resource-starved.
    let mut backoff = Duration::from_millis(1);
    while !shared.stop.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                backoff = Duration::from_millis(1);
                stream
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(100));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_nodelay(true);
        let Ok(writer) = stream.try_clone() else {
            continue;
        };
        let state = Arc::new(ConnState {
            id: next_id,
            writer: Mutex::new(writer),
            inner: Mutex::new(ConnInner {
                queue: VecDeque::new(),
                next_seq: 0,
            }),
            service_cv: Condvar::new(),
            dead: AtomicBool::new(false),
        });
        next_id += 1;
        shared.conns.lock().unwrap().push(state.clone());
        let reader_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("kv-conn-reader".into())
            .spawn(move || reader_loop(stream, &state, &reader_shared));
        if let Ok(handle) = handle {
            shared.reader_threads.lock().unwrap().push(handle);
        }
    }
}

fn reader_loop<B: Backend>(mut stream: TcpStream, state: &Arc<ConnState>, shared: &Arc<Shared<B>>) {
    let mut buf = BytesMut::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut scratch = BytesMut::new();
    // A reissue's `TIE <id>` applies to the next request on this
    // connection; control frames consume no sequence number and get no
    // reply.
    let mut pending_tie: Option<u64> = None;
    // A failed reply write marks the connection dead (and shuts its
    // socket down) from another thread; this one then stops reading
    // and reports the death. `shutdown` ends the read the same way.
    while !shared.stop.load(Ordering::SeqCst) && !state.dead.load(Ordering::SeqCst) {
        match stream.read(&mut chunk) {
            Ok(0) => break, // peer closed, or shut down
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        loop {
            match decode_command(&mut buf) {
                Ok(Some(Command::Cancel(seq))) => cancel_entry(shared, state, seq, false),
                Ok(Some(Command::Tie { id, peer: None })) => pending_tie = Some(id),
                Ok(Some(Command::Tie {
                    id: seq,
                    peer: Some(twin),
                })) => attach_twin(shared, state, seq, twin),
                Ok(Some(Command::CancelTie(id))) => handle_cancel_tie(shared, id),
                Ok(Some(cmd)) => {
                    if let Some(head) = enqueue_request(shared, state, cmd, pending_tie.take()) {
                        serve_in_place(shared, head, &mut scratch);
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    // A frame that does not parse leaves no boundary to
                    // resume from: error reply, drop the rest.
                    buf.clear();
                    shared.stats.lock().unwrap().protocol_errors += 1;
                    scratch.clear();
                    encode_reply(&Reply::Error(err.to_string()), &mut scratch);
                    let inner = state.inner.lock().unwrap();
                    write_frame(state, &scratch);
                    drop(inner);
                }
            }
        }
    }
    mark_dead(shared, state);
}

/// Reports a connection's death to the sweeper, which reaps on this
/// signal rather than scanning for dead connections on every idle
/// turn. The flags flip under the `sched` lock (see `sweep_cv`).
fn mark_dead<B: Backend>(shared: &Shared<B>, conn: &ConnState) {
    let _sched = shared.sched.lock().unwrap();
    conn.dead.store(true, Ordering::SeqCst);
    shared.reap.store(true, Ordering::SeqCst);
    shared.sweep_cv.notify_one();
}

/// Writes one reply frame. Callers hold the connection's `inner` lock,
/// which is what serializes the per-connection reply order; the writer
/// mutex only guards the stream object itself.
fn write_frame(conn: &ConnState, bytes: &[u8]) {
    if conn.dead.load(Ordering::SeqCst) {
        return;
    }
    let mut writer = conn.writer.lock().unwrap();
    if writer.write_all(bytes).is_err() {
        conn.dead.store(true, Ordering::SeqCst);
        // Ends the connection's reader, wherever it is blocked.
        let _ = writer.shutdown(Shutdown::Both);
    }
}

/// Enqueues a decoded request: assigns its sequence number, estimates
/// its cost, registers it if it is a reissue (`tie`), and admits the
/// connection head to the central queue. Returns the head instead of
/// queueing it when the calling reader took the service slot to serve
/// it in place (see [`admit_head`]).
fn enqueue_request<B: Backend>(
    shared: &Arc<Shared<B>>,
    state: &Arc<ConnState>,
    cmd: Command,
    tie: Option<u64>,
) -> Option<SchedItem> {
    let cost = shared.store.lock().unwrap().estimate_cost(&cmd);
    let mut precancelled = false;
    let mut inner = state.inner.lock().unwrap();
    let seq = inner.next_seq;
    inner.next_seq += 1;
    if let Some(id) = tie {
        let c = &shared.tie_counters;
        c.registered.fetch_add(1, Ordering::Relaxed);
        let mut table = shared.ties.lock().unwrap();
        if table.precancelled.remove(id) {
            // The primary's CANCELTIE got here first: born cancelled.
            precancelled = true;
            c.retractions.fetch_add(1, Ordering::Relaxed);
        } else {
            let reg = TieReg {
                conn: state.clone(),
                seq,
            };
            table.regs.insert(id, reg);
        }
    }
    inner.queue.push_back(Entry {
        seq,
        cmd,
        cost,
        enqueued_at: shared.now_ms(),
        tie: tie.map(Tie::Reissue),
        cancelled: precancelled,
        admitted: false,
        executing: false,
    });
    admit_head(shared, state, &mut inner, true)
}

/// Advances a connection's head: emits cancelled markers for retracted
/// entries that reached the front (their reply slot, in order), and
/// admits the first live entry into the central queue. Caller holds
/// `inner`.
///
/// `in_place` is a reader admitting the head it just decoded: if the
/// service slot is free and nothing is queued, the head is not queued
/// but returned, the slot taken for the reader to serve it
/// ([`serve_in_place`]). Every other admission returns `None`.
fn admit_head<B: Backend>(
    shared: &Shared<B>,
    conn: &Arc<ConnState>,
    inner: &mut ConnInner,
    in_place: bool,
) -> Option<SchedItem> {
    loop {
        let front = inner.queue.front_mut()?;
        if front.admitted {
            return None;
        }
        if front.cancelled {
            if let Some(Tie::Reissue(id)) = front.tie {
                shared.ties.lock().unwrap().regs.remove(&id);
            }
            write_frame(conn, CANCELLED_FRAME);
            inner.queue.pop_front();
            continue;
        }
        front.admitted = true;
        let item = SchedItem {
            conn: conn.clone(),
            seq: front.seq,
            cost: front.cost as f64,
            enqueued_at: front.enqueued_at,
            is_reissue: matches!(front.tie, Some(Tie::Reissue(_))),
        };
        let mut sched = shared.sched.lock().unwrap();
        if in_place && sched.slot == Slot::Free && sched.queue.is_empty() {
            sched.slot = Slot::Reader;
            return Some(item);
        }
        sched.queue.push(item);
        // Whoever holds the slot pops the queue before letting go of
        // it, so only a free slot means an idle sweeper to wake (one
        // sweeper, so one waiter at most).
        if sched.slot == Slot::Free {
            shared.sweep_cv.notify_one();
        }
        return None;
    }
}

/// Cancels the entry `seq` on `conn`: retracts it if it is still
/// queued, stops its service time if it is in service and the client
/// asked. A primary's `CANCELTIE` (`by_peer`) never stops a reissue in
/// service — see the module docs — and is counted as a tie retraction
/// here, before the `-ERR cancelled` marker can reach the client, so
/// whoever reads that reply finds the counter moved.
fn cancel_entry<B: Backend>(shared: &Shared<B>, conn: &Arc<ConnState>, seq: u64, by_peer: bool) {
    let mut inner = conn.inner.lock().unwrap();
    let Some(entry) = inner.queue.iter_mut().find(|e| e.seq == seq) else {
        return; // already answered (or never existed): no-op
    };
    if entry.cancelled || (entry.executing && by_peer) {
        return;
    }
    entry.cancelled = true;
    if entry.executing {
        // The sweeper reads the flag under `inner` before it waits, so
        // it either sees it there or is already waiting for this.
        conn.service_cv.notify_one();
        return;
    }
    if by_peer {
        shared
            .tie_counters
            .retractions
            .fetch_add(1, Ordering::Relaxed);
    }
    if entry.admitted {
        // The head is in the central queue — or already in the hands
        // of the slot's holder. Take it back if it is still queued; if
        // the take misses, the holder will honor the `cancelled` flag
        // before executing.
        let taken = shared
            .sched
            .lock()
            .unwrap()
            .queue
            .take(|it| Arc::ptr_eq(&it.conn, conn) && it.seq == seq);
        if taken.is_some() {
            if let Some(e) = inner.queue.front_mut() {
                e.admitted = false;
            }
            admit_head(shared, conn, &mut inner, false);
        }
    }
    // Deeper (non-admitted) entries stay queued; their marker is
    // emitted by `admit_head` when they reach the front.
}

/// The client named the twin of request `seq` on `conn`: a reissue
/// registered at `twin`. Still queued, the request keeps it, to retract
/// it when dequeued. In service or answered, the tie collapses:
/// `CANCELTIE` goes out at once. A request the client already
/// cancelled has no use for its twin.
fn attach_twin<B: Backend>(
    shared: &Shared<B>,
    conn: &ConnState,
    seq: u64,
    twin: (SocketAddr, u64),
) {
    {
        let mut inner = conn.inner.lock().unwrap();
        if let Some(entry) = inner.queue.iter_mut().find(|e| e.seq == seq) {
            if entry.cancelled {
                return;
            }
            if !entry.executing {
                entry.tie = Some(Tie::Primary(twin.0, twin.1));
                return;
            }
        }
    }
    shared
        .tie_counters
        .collapses
        .fetch_add(1, Ordering::Relaxed);
    shared.cancel_tie(twin);
}

/// The primary tied to reissue `id` was dequeued: retract the reissue
/// if it is still queued, or have it born cancelled if it has not
/// registered yet.
fn handle_cancel_tie<B: Backend>(shared: &Arc<Shared<B>>, id: u64) {
    let reg = {
        let mut table = shared.ties.lock().unwrap();
        let reg = table.regs.remove(&id);
        if reg.is_none() {
            table.precancelled.insert(id);
        }
        reg
    };
    if let Some(r) = reg {
        cancel_entry(shared, &r.conn, r.seq, true);
    }
}

/// What the sweeper takes the slot for.
enum Turn {
    /// A head a reader executed and handed over (see [`Sched::handoff`]).
    HandedOver(Running),
    /// The head the discipline popped.
    Popped(SchedItem),
}

fn sweep_loop<B: Backend>(shared: &Arc<Shared<B>>) {
    let mut scratch = BytesMut::new();
    loop {
        // The next head to serve, or block until there is one. An idle
        // server costs no CPU: the wait has no timeout (see
        // `Shared::sweep_cv` for why none is needed). While a reader
        // holds the slot the queue is its to drain.
        let turn = {
            let mut sched = shared.sched.lock().unwrap();
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if shared.reap.swap(false, Ordering::SeqCst) {
                    drop(sched);
                    reap_dead(shared);
                    sched = shared.sched.lock().unwrap();
                    continue;
                }
                if let Some(running) = sched.handoff.take() {
                    break Turn::HandedOver(running);
                }
                if sched.slot != Slot::Reader {
                    if let Some(item) = sched.queue.pop(shared.now_ms()) {
                        sched.slot = Slot::Sweeper;
                        break Turn::Popped(item);
                    }
                    sched.slot = Slot::Free;
                }
                sched = shared.sweep_cv.wait(sched).unwrap();
            }
        };
        let running = match turn {
            Turn::HandedOver(running) => running,
            Turn::Popped(item) => match start_head(shared, item, true) {
                Some(running) => running,
                None => continue,
            },
        };
        finish_head(shared, running, &mut scratch);
    }
}

/// Serves heads on a reader thread that took the free slot for `head`:
/// each in turn while its burn is short, then the next the discipline
/// pops, until the queue is empty (the slot is free again) or a head
/// turns out to burn [`SPIN_BELOW`] or more (it goes to the sweeper
/// with the slot, see the module docs).
fn serve_in_place<B: Backend>(shared: &Shared<B>, mut head: SchedItem, scratch: &mut BytesMut) {
    loop {
        if let Some(running) = start_head(shared, head, false) {
            if running.service >= SPIN_BELOW {
                let mut sched = shared.sched.lock().unwrap();
                sched.slot = Slot::Sweeper;
                sched.handoff = Some(running);
                shared.sweep_cv.notify_one();
                return;
            }
            finish_head(shared, running, scratch);
        }
        let mut sched = shared.sched.lock().unwrap();
        match sched.queue.pop(shared.now_ms()) {
            Some(next) => head = next,
            None => {
                sched.slot = Slot::Free;
                return;
            }
        }
    }
}

/// Starts serving `item`, whose thread holds the slot: commits to it if
/// it is still its connection's live head, retracts a primary's tied
/// reissue, executes the command and books it. `None` when the head went away,
/// or was cancelled, before it started.
fn start_head<B: Backend>(
    shared: &Shared<B>,
    item: SchedItem,
    by_sweeper: bool,
) -> Option<Running> {
    let mut inner = item.conn.inner.lock().unwrap();
    if item.conn.dead.load(Ordering::SeqCst) {
        if inner.queue.front().map(|e| e.seq) == Some(item.seq) {
            inner.queue.pop_front();
        }
        return None;
    }
    let front = inner.queue.front_mut()?;
    if front.seq != item.seq {
        return None; // stale: the entry was retracted under us
    }
    if front.cancelled {
        // Cancelled after admission but before we committed:
        // re-route through the marker path (a bonus retraction).
        front.admitted = false;
        admit_head(shared, &item.conn, &mut inner, false);
        return None;
    }
    front.executing = true;
    let cmd = front.cmd.clone();
    let tie = front.tie;
    drop(inner);
    // Dequeue-time retraction: the primary is served, so retract its
    // reissue *now*, before execution, rather than after the reply has
    // crossed the network. A reissue dequeued here leaves its primary
    // alone: only the primary's server retracts.
    match tie {
        Some(Tie::Primary(addr, id)) => {
            shared.cancel_tie((addr, id));
            shared
                .tie_counters
                .peer_cancels_sent
                .fetch_add(1, Ordering::Relaxed);
        }
        Some(Tie::Reissue(id)) => {
            shared.ties.lock().unwrap().regs.remove(&id);
        }
        None => {}
    }
    let (reply, cost) = shared.store.lock().unwrap().execute(&cmd);
    let started = Instant::now();
    // Saturating and capped: cost is data-dependent, and a plain
    // multiply could overflow into a near-zero burn.
    let nanos_per_op = shared.nanos_per_op.load(Ordering::Relaxed);
    let service = Duration::from_nanos(cost.saturating_mul(nanos_per_op).min(MAX_BURN_NANOS));
    {
        // Counted when service starts, the whole cost with it, so
        // that a request which is never stopped takes this lock
        // once; a stopped one hands back below what it did not burn.
        let mut stats = shared.stats.lock().unwrap();
        stats.commands += 1;
        // A reader hands every long burn to the sweeper.
        if by_sweeper || service >= SPIN_BELOW {
            stats.sweeps += 1;
        }
        stats.total_cost += cost;
    }
    Some(Running {
        item,
        reply,
        cost,
        service,
        started,
    })
}

/// Burns `running`'s service time — spun through when short, waited
/// out interruptibly (on the sweeper) when long — and fills its reply
/// slot: the reply, or the cancelled marker when the client's `CANCEL`
/// stopped it in service. Then admits its connection's next head.
fn finish_head<B: Backend>(shared: &Shared<B>, running: Running, scratch: &mut BytesMut) {
    let Running {
        item,
        reply,
        cost,
        service,
        started,
    } = running;
    let deadline = started + service;
    let (mut inner, cancelled) = if service >= SPIN_BELOW {
        let (inner, cancelled) = serve(shared, &item, deadline);
        if cancelled {
            // Settled before the marker is written, so whoever
            // reads that reply finds the counters moved.
            let burned = u128::from(cost) * started.elapsed().as_nanos() / service.as_nanos();
            let burned = cost.min(burned as u64);
            let mut stats = shared.stats.lock().unwrap();
            stats.total_cost -= cost - burned;
            stats.aborted += 1;
        }
        (inner, cancelled)
    } else {
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
        (item.conn.inner.lock().unwrap(), false)
    };
    if inner.queue.front().map(|e| e.seq) == Some(item.seq) {
        inner.queue.pop_front();
        if cancelled {
            write_frame(&item.conn, CANCELLED_FRAME);
        } else {
            scratch.clear();
            encode_reply(&reply, scratch);
            write_frame(&item.conn, scratch);
        }
        admit_head(shared, &item.conn, &mut inner, false);
    }
}

/// Serves the head of `item`'s connection until `deadline`: a wait on
/// the connection's `service_cv` that [`cancel_entry`] and
/// [`TcpServer::shutdown`] end early. Returns whether the client's
/// `CANCEL` stopped it, holding `inner`, so the reply slot is filled
/// before anything else can move the head. (A shutdown ends the wait
/// as if the time were up: the reply goes out, and the sweeper finds
/// `stop` set at the top of its loop.)
fn serve<'a, B: Backend>(
    shared: &Shared<B>,
    item: &'a SchedItem,
    deadline: Instant,
) -> (std::sync::MutexGuard<'a, ConnInner>, bool) {
    let mut inner = item.conn.inner.lock().unwrap();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || shared.stop.load(Ordering::SeqCst) {
            return (inner, false);
        }
        // An entry in service stays at the front until it is
        // answered.
        if inner
            .queue
            .front()
            .is_some_and(|e| e.seq == item.seq && e.cancelled)
        {
            return (inner, true);
        }
        inner = item.conn.service_cv.wait_timeout(inner, left).unwrap().0;
    }
}

/// Removes connections whose peers have gone away (reader hit EOF, or
/// a reply write failed), along with any tie registrations pointing at
/// them. Without this the connection list and tie map grow with every
/// client that ever connected.
fn reap_dead<B: Backend>(shared: &Arc<Shared<B>>) {
    shared
        .conns
        .lock()
        .unwrap()
        .retain(|c| !c.dead.load(Ordering::SeqCst));
    shared
        .ties
        .lock()
        .unwrap()
        .regs
        .retain(|_, r| !r.conn.dead.load(Ordering::SeqCst));
}

/// Forwards `CANCELTIE`s to reissues' servers over cached client
/// connections. Write-only: the peers treat these as control frames
/// and never reply. Exits when the sender side is dropped at shutdown.
fn tie_sender_loop(rx: &mpsc::Receiver<(SocketAddr, u64)>) {
    let mut conns: HashMap<SocketAddr, TcpStream> = HashMap::new();
    let mut buf = BytesMut::new();
    while let Ok((addr, id)) = rx.recv() {
        buf.clear();
        encode_command(&Command::CancelTie(id), &mut buf);
        let sent = match conns.get_mut(&addr) {
            Some(stream) => stream.write_all(&buf).is_ok(),
            None => false,
        };
        if !sent {
            conns.remove(&addr);
            if let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
                let _ = stream.set_nodelay(true);
                if stream.write_all(&buf).is_ok() {
                    conns.insert(addr, stream);
                }
            }
        }
    }
}

/// Convenience: spins up `n` replica servers over the same dataset
/// snapshot, each on an ephemeral local port.
pub fn spawn_replicas<B: Backend + Clone>(
    n: usize,
    store: &B,
    cfg: TcpServerConfig,
) -> std::io::Result<Vec<TcpServer<B>>> {
    (0..n)
        .map(|_| TcpServer::bind("127.0.0.1:0", store.clone(), cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvstore::resp::{decode_reply, encode_command};
    use kvstore::Command;

    fn send_cmd(stream: &mut TcpStream, cmd: &Command) {
        let mut out = BytesMut::new();
        encode_command(cmd, &mut out);
        stream.write_all(&out).unwrap();
    }

    fn read_reply(stream: &mut TcpStream) -> Reply {
        let mut buf = BytesMut::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(r) = decode_reply(&mut buf).unwrap() {
                return r;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed mid-reply");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// A store with two big sets whose intersection is a monster.
    fn monster_store() -> KvStore {
        let mut store = KvStore::new();
        store.load_set(
            "big1",
            kvstore::IntSet::from_unsorted((0..200_000).collect()),
        );
        store.load_set(
            "big2",
            kvstore::IntSet::from_unsorted((100_000..300_000).collect()),
        );
        store
    }

    #[test]
    fn tcp_roundtrip_basics() {
        let server =
            TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        send_cmd(&mut c, &Command::Ping);
        assert_eq!(read_reply(&mut c), Reply::Pong);
        send_cmd(&mut c, &Command::Set("k".into(), "v".into()));
        assert_eq!(read_reply(&mut c), Reply::Ok);
        send_cmd(&mut c, &Command::Get("k".into()));
        assert_eq!(read_reply(&mut c), Reply::Str("v".into()));
        server.shutdown();
    }

    #[test]
    fn two_connections_round_robin() {
        let server =
            TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap();
        let mut a = TcpStream::connect(server.local_addr()).unwrap();
        let mut b = TcpStream::connect(server.local_addr()).unwrap();
        send_cmd(&mut a, &Command::Ping);
        send_cmd(&mut b, &Command::Ping);
        assert_eq!(read_reply(&mut a), Reply::Pong);
        assert_eq!(read_reply(&mut b), Reply::Pong);
        assert!(server.stats().commands >= 2);
        server.shutdown();
    }

    #[test]
    fn cancel_retracts_queued_request() {
        // Load a slow key so the sweeper is busy while we cancel.
        let server = TcpServer::bind(
            "127.0.0.1:0",
            monster_store(),
            TcpServerConfig {
                nanos_per_op: 500,
                ..TcpServerConfig::default()
            },
        )
        .unwrap();
        // Connection A: a monster query occupies the sweeper.
        let mut a = TcpStream::connect(server.local_addr()).unwrap();
        send_cmd(&mut a, &Command::SInterCard("big1".into(), "big2".into()));
        std::thread::sleep(Duration::from_millis(20)); // let it start
                                                       // Connection B: queue a request, then cancel before it sweeps.
        let mut b = TcpStream::connect(server.local_addr()).unwrap();
        send_cmd(&mut b, &Command::SInterCard("big1".into(), "big2".into()));
        send_cmd(&mut b, &Command::Cancel(0));
        assert_eq!(
            read_reply(&mut b),
            Reply::Error(CANCELLED_MARKER.into()),
            "queued request should be retracted"
        );
        // Connection A's monster still completes with the right answer.
        assert_eq!(read_reply(&mut a), Reply::Int(100_000));
        // The cancelled command must never have executed: exactly one
        // SINTERCARD ran.
        assert_eq!(server.stats().commands, 1);
        server.shutdown();
    }

    #[test]
    fn disconnected_clients_are_reaped() {
        let server =
            TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap();
        // Connect, round-trip, disconnect — repeatedly. Before the
        // reap, every one of these left a dead ConnState behind
        // forever.
        for _ in 0..8 {
            let mut c = TcpStream::connect(server.local_addr()).unwrap();
            send_cmd(&mut c, &Command::Ping);
            assert_eq!(read_reply(&mut c), Reply::Pong);
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.connection_count() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            server.connection_count(),
            0,
            "dead connections must be reaped"
        );
        // A fresh client still works after the reaping.
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        send_cmd(&mut c, &Command::Ping);
        assert_eq!(read_reply(&mut c), Reply::Pong);
        assert_eq!(server.connection_count(), 1);
        server.shutdown();
    }

    #[test]
    fn reaping_preserves_live_connections_between_dead_ones() {
        let server =
            TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap();
        let mut keep1 = TcpStream::connect(server.local_addr()).unwrap();
        let doomed = TcpStream::connect(server.local_addr()).unwrap();
        let mut keep2 = TcpStream::connect(server.local_addr()).unwrap();
        send_cmd(&mut keep1, &Command::Ping);
        assert_eq!(read_reply(&mut keep1), Reply::Pong);
        drop(doomed);
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.connection_count() > 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.connection_count(), 2);
        // The survivors (one before, one after the removed slot) still
        // round-trip.
        send_cmd(&mut keep2, &Command::Set("k".into(), "v".into()));
        assert_eq!(read_reply(&mut keep2), Reply::Ok);
        send_cmd(&mut keep1, &Command::Get("k".into()));
        assert_eq!(read_reply(&mut keep1), Reply::Str("v".into()));
        server.shutdown();
    }

    #[test]
    fn cancel_after_execution_is_noop() {
        let server =
            TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        send_cmd(&mut c, &Command::Ping);
        assert_eq!(read_reply(&mut c), Reply::Pong);
        send_cmd(&mut c, &Command::Cancel(0)); // too late; ignored
        send_cmd(&mut c, &Command::Ping);
        assert_eq!(read_reply(&mut c), Reply::Pong);
        server.shutdown();
    }

    #[test]
    fn cost_priority_discipline_reorders_across_connections() {
        // Three connections: a monster occupying the sweeper, then a
        // big and a small request queued behind it. Under unaged
        // ShortestBurn the small one must be served before the big
        // one even though it arrived later.
        let server = TcpServer::bind(
            "127.0.0.1:0",
            monster_store(),
            TcpServerConfig {
                nanos_per_op: 500,
                discipline: Discipline::ShortestBurn { boost: 0.0 },
            },
        )
        .unwrap();
        let mut blocker = TcpStream::connect(server.local_addr()).unwrap();
        send_cmd(
            &mut blocker,
            &Command::SInterCard("big1".into(), "big2".into()),
        );
        std::thread::sleep(Duration::from_millis(20)); // monster executing
        let mut big = TcpStream::connect(server.local_addr()).unwrap();
        send_cmd(&mut big, &Command::SInterCard("big1".into(), "big2".into()));
        std::thread::sleep(Duration::from_millis(5));
        let mut small = TcpStream::connect(server.local_addr()).unwrap();
        send_cmd(&mut small, &Command::Ping);
        // The small request's reply must come back before the big
        // request's, despite arriving after it.
        assert_eq!(read_reply(&mut small), Reply::Pong);
        assert_eq!(read_reply(&mut big), Reply::Int(100_000));
        assert_eq!(read_reply(&mut blocker), Reply::Int(100_000));
        server.shutdown();
    }

    /// A server whose monster (`SINTERCARD big1 big2`) burns `ms` of
    /// service time.
    fn monster_server(ms: u64) -> TcpServer {
        let mut store = monster_store();
        let (_, cost) = store.execute(&Command::SInterCard("big1".into(), "big2".into()));
        let cfg = TcpServerConfig {
            nanos_per_op: ms * 1_000_000 / cost,
            ..TcpServerConfig::default()
        };
        TcpServer::bind("127.0.0.1:0", store, cfg).unwrap()
    }

    /// Connects to `server` and sends it a monster that holds it busy.
    fn block(server: &TcpServer) -> TcpStream {
        let mut blocker = TcpStream::connect(server.local_addr()).unwrap();
        send_cmd(
            &mut blocker,
            &Command::SInterCard("big1".into(), "big2".into()),
        );
        blocker
    }

    #[test]
    fn tied_pair_cancels_peer_at_dequeue_time() {
        // Both copies sit queued behind a monster; A's ends first, so A
        // dequeues the primary and must CANCELTIE the reissue out of
        // B's queue, with no client-side CANCEL at all.
        let a = monster_server(200);
        let b = monster_server(400);
        let mut blocker_a = block(&a);
        let mut blocker_b = block(&b);
        std::thread::sleep(Duration::from_millis(20));
        // The reissue to B registers as tie 2.
        let mut reissue = TcpStream::connect(b.local_addr()).unwrap();
        send_cmd(&mut reissue, &Command::Tie { id: 2, peer: None });
        send_cmd(&mut reissue, &Command::Ping);
        // The primary to A, then its twin named on its connection.
        let mut primary = TcpStream::connect(a.local_addr()).unwrap();
        send_cmd(&mut primary, &Command::Ping);
        send_cmd(
            &mut primary,
            &Command::Tie {
                id: 0,
                peer: Some((b.local_addr(), 2)),
            },
        );
        assert_eq!(read_reply(&mut primary), Reply::Pong);
        assert_eq!(
            read_reply(&mut reissue),
            Reply::Error(CANCELLED_MARKER.into()),
            "the reissue should be retracted by the primary's CANCELTIE"
        );
        assert_eq!(read_reply(&mut blocker_a), Reply::Int(100_000));
        assert_eq!(read_reply(&mut blocker_b), Reply::Int(100_000));
        assert_eq!(b.stats().commands, 1, "the tied reissue never executed");
        assert_eq!(a.tie_stats().peer_cancels_sent, 1);
        assert_eq!(a.tie_stats().registered, 0, "a primary registers nothing");
        let ties = b.tie_stats();
        assert_eq!((ties.registered, ties.retractions), (1, 1), "{ties:?}");
        assert_eq!(
            ties.peer_cancels_sent, 0,
            "a reissue's server never sends one"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn lost_peer_cancel_degrades_to_client_retraction() {
        // The tie channel is best-effort: here the primary's twin is
        // named at an address where nothing listens, so A's CANCELTIE
        // write is lost (connection refused, silently dropped).
        // Degradation must be graceful: A serves on, the orphaned
        // reissue stays retractable by the client's CANCEL, and the
        // retraction reply is the `-ERR cancelled` marker the client
        // books as a censored pair.
        let a = TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap();
        let b = monster_server(400);
        // A dead address: bound once to reserve a port, then dropped
        // so connects are refused.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut blocker = block(&b);
        std::thread::sleep(Duration::from_millis(20));
        let mut reissue = TcpStream::connect(b.local_addr()).unwrap();
        send_cmd(&mut reissue, &Command::Tie { id: 2, peer: None });
        send_cmd(&mut reissue, &Command::Ping);
        // The primary is answered before its twin is named: the tie
        // collapses, and its CANCELTIE goes into the void.
        let mut primary = TcpStream::connect(a.local_addr()).unwrap();
        send_cmd(&mut primary, &Command::Ping);
        assert_eq!(read_reply(&mut primary), Reply::Pong);
        send_cmd(
            &mut primary,
            &Command::Tie {
                id: 0,
                peer: Some((dead, 2)),
            },
        );
        let deadline = Instant::now() + Duration::from_secs(2);
        while a.tie_stats().collapses == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            a.tie_stats().collapses,
            1,
            "the cancel was attempted even though delivery failed"
        );
        send_cmd(&mut primary, &Command::Ping);
        assert_eq!(read_reply(&mut primary), Reply::Pong, "A still serves");
        // B never saw the CANCELTIE: its reissue is still queued. The
        // client's CANCEL retracts it in time.
        send_cmd(&mut reissue, &Command::Cancel(0));
        assert_eq!(
            read_reply(&mut reissue),
            Reply::Error(CANCELLED_MARKER.into()),
            "the orphaned reissue must fall back to client retraction"
        );
        assert_eq!(read_reply(&mut blocker), Reply::Int(100_000));
        assert_eq!(
            b.stats().commands,
            1,
            "only the blocker executed on B: the tied reissue was retracted"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn shutdown_does_not_sleep_out_the_request_in_service() {
        let mut store = monster_store();
        let (_, cost) = store.execute(&Command::SInterCard("big1".into(), "big2".into()));
        let server = TcpServer::bind(
            "127.0.0.1:0",
            store,
            TcpServerConfig {
                nanos_per_op: 500_000_000 / cost, // the monster burns 0.5 s
                ..TcpServerConfig::default()
            },
        )
        .unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        send_cmd(&mut c, &Command::SInterCard("big1".into(), "big2".into()));
        while server.stats().commands == 0 {
            std::thread::sleep(Duration::from_millis(1)); // until in service
        }
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "shutdown waited {:?} for a request in service",
            t0.elapsed()
        );
        assert!(
            server.shared.reader_threads.lock().unwrap().is_empty()
                && server.threads.lock().unwrap().is_empty(),
            "shutdown must join the sweeper and the readers"
        );
    }

    #[test]
    fn shutdown_under_load_joins_all_threads() {
        // N clients mid-request when shutdown lands: no panic, no
        // deadlock, and every reader thread joined (the reader vec is
        // drained). Previously readers were spawned detached and could
        // outlive — and touch — a shut-down server.
        let server = TcpServer::bind(
            "127.0.0.1:0",
            monster_store(),
            TcpServerConfig {
                nanos_per_op: 200,
                ..TcpServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let clients: Vec<_> = (0..6)
            .map(|_| {
                std::thread::spawn(move || {
                    let Ok(mut c) = TcpStream::connect(addr) else {
                        return;
                    };
                    let mut out = BytesMut::new();
                    for _ in 0..50 {
                        out.clear();
                        encode_command(
                            &Command::SInterCard("big1".into(), "big2".into()),
                            &mut out,
                        );
                        if c.write_all(&out).is_err() {
                            return;
                        }
                    }
                    // Read until the server goes away.
                    let mut chunk = [0u8; 4096];
                    loop {
                        match c.read(&mut chunk) {
                            Ok(0) | Err(_) => return,
                            Ok(_) => {}
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30)); // requests in flight
        server.shutdown();
        assert!(
            server.shared.reader_threads.lock().unwrap().is_empty(),
            "shutdown must join (not leak) reader threads"
        );
        // Shutdown is idempotent and drop-safe.
        server.shutdown();
        drop(server);
        for c in clients {
            c.join().unwrap();
        }
    }
}
