//! A TCP transport for the kvstore with a pluggable queue
//! [`Discipline`], client retraction and server-side *tied requests*.
//!
//! A server with `c` open connections runs `c + 2` threads: the accept
//! thread, the sweeper, and one reader per connection, which decodes
//! its connection's RESP frames. A connection has **one request
//! unanswered** at most: its reader queues it in one central
//! [`WaitQueue`], and a reader that decodes a second request before the
//! first is answered waits until it is. No client of this crate writes
//! a second one early; a raw socket that does is answered in order, and
//! the configured cross-connection discipline (FIFO, cost-priority,
//! shortest-expected-burn, round-robin, …) reorders freely between
//! connections. One request is served at a time, by whichever thread
//! holds the single **service slot**: it pops the central queue,
//! executes against the shared backend, burns `cost × nanos_per_op` of
//! wall-clock service time, and writes the reply. The default
//! discipline, `RoundRobin { connections: 0 }`, is Redis's event loop
//! as §6.2 needs it: one command per connection with pending input per
//! sweep, so one long `SINTER` delays every other connection's next
//! command by its full service time.
//!
//! ## Who serves: the sweeper, or the reader in place
//!
//! A reader whose decoded request finds the slot free and the central
//! queue empty takes the slot and serves the request itself, in place:
//! with nothing queued, every discipline would have picked it. It keeps
//! the slot while the next request it pops turns out short too, so a
//! busy server of short requests never wakes its sweeper thread. A
//! request whose service burn is 200 µs or more is handed to the
//! sweeper thread, slot and all, once it has executed: only the sweeper
//! waits out a burn that long, so a client's `CANCEL`, read by that
//! request's reader meanwhile, can stop it (below). Shorter burns are
//! spun through wherever they run and cannot be stopped anyway.
//! [`ServerStats::sweeps`] counts the commands the sweeper served; the
//! rest of [`ServerStats::commands`] were served in place.
//!
//! Nothing polls: an idle reader blocks in `read()` with no timeout,
//! an idle sweeper on its condvar, and [`TcpServer::shutdown`] wakes
//! the readers by shutting their sockets down. Nothing reaps either: a
//! reader whose peer went away removes its own connection, and the tie
//! registration of its unanswered request, as it exits.
//!
//! ## Client retraction
//!
//! Requests on a connection carry an implicit sequence number (0, 1,
//! 2, …, counted by both sides). A client that no longer needs request
//! `n` — because its hedged twin already won — sends `CANCEL n` on the
//! same connection. If the request is still queued (not yet swept) it
//! is *retracted* and `-ERR cancelled` takes its reply slot, so the
//! reply stream stays in order and the server never does the work. (A
//! `CANCEL` written behind a later request of its connection is read
//! only once that later request is queued, by when the one it names
//! has been answered.)
//!
//! A request already **in service** is retracted too. Its service time
//! (`cost × nanos_per_op`, when that is 200 µs or more) is a wait the
//! sweeper serves it in and can be woken from: the client's `CANCEL`
//! stops it, the same `-ERR cancelled` marker takes the reply slot, the
//! server books only the cost units it burned
//! ([`ServerStats::total_cost`], and one [`ServerStats::aborted`]), and
//! the replica serves its next request at once instead of finishing a
//! copy nobody is waiting for.
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
//!    registered at server `addr`. The reader that reads it dials
//!    `addr`, unless a socket to it is open already.
//! 3. The primary's server keeps the twin while the primary is queued,
//!    and the slot's holder writes `CANCELTIE <id>` on that socket when
//!    it dequeues the primary. If the primary is already in service or
//!    answered when the `TIE` arrives, the tie *collapses*: the reader
//!    writes `CANCELTIE` at once.
//! 4. The reissue's server retracts the reissue on `CANCELTIE` while it
//!    is still queued. A `CANCELTIE` that overtook its reissue is kept
//!    in a bounded pre-cancel set, and the reissue is born cancelled.
//!
//! The reissue's server never sends a `CANCELTIE`: retracting the
//! primary when the reissue is dequeued measured no cheaper than the
//! client's own `CANCEL`, which follows it a round trip later anyway.
//! `CANCELTIE`s are best effort; a lost one leaves the retraction to
//! the client. What can be cancelled, and by whom:
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// contract); the discipline chooses *between* connections.
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

/// A connection's unanswered request. Its command travels in its
/// [`SchedItem`].
struct Request {
    seq: u64,
    tie: Option<Tie>,
    /// Retracted: answered with the cancelled marker instead of run,
    /// or stopped in service.
    cancelled: bool,
    /// The slot's holder has committed to executing it: too late for a
    /// `CANCELTIE`; a client `CANCEL` can still stop its service time
    /// (a long one, which the sweeper serves).
    executing: bool,
}

struct ConnInner {
    /// The one request this connection has unanswered: queued in
    /// [`Sched::queue`], or held by the slot's holder.
    request: Option<Request>,
    next_seq: u64,
}

struct ConnState {
    /// Accept-order id, the round-robin key.
    id: usize,
    writer: Mutex<TcpStream>,
    inner: Mutex<ConnInner>,
    /// Paired with `inner`. The sweeper waits on it while this
    /// connection's request is in service, for its `cancelled` flag or
    /// the server's `stop`; the reader, while that request is
    /// unanswered and the next one is decoded, for `request` to empty,
    /// `stop` or `dead`. Each of these is read under `inner` before
    /// every wait and changed under it, so no wake-up is lost.
    cv: Condvar,
    dead: AtomicBool,
}

/// The central queue's view of a connection's request.
struct SchedItem {
    conn: Arc<ConnState>,
    seq: u64,
    cmd: Command,
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
    /// Nobody: the next request to arrive with nothing queued is served
    /// in place by the reader that decoded it.
    Free,
    /// A reader, serving short requests in place.
    Reader,
    /// The sweeper thread.
    Sweeper,
}

/// The central queue and the service slot, under one lock.
struct Sched {
    queue: WaitQueue<SchedItem>,
    slot: Slot,
    /// A request a reader executed and found too long to serve in
    /// place, handed to the sweeper with the slot.
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

/// A request whose command has executed: its reply and the service
/// time it still has to burn.
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
/// * `regs` — reissues unanswered here right now;
/// * `precancelled` — `CANCELTIE`s that found no registration: a
///   reissue that registers later is born cancelled and never runs.
///   One for a reissue that already left the queue just ages out.
struct TieTable {
    regs: HashMap<u64, TieReg>,
    precancelled: BoundedSet,
}

struct Shared<B: Backend> {
    store: Mutex<B>,
    stats: Mutex<ServerStats>,
    /// Central cross-connection wait queue and the service slot. Lock
    /// order: a connection's `inner` may be held while taking `sched`
    /// (queueing, take), and `ties`, `peers` and the two stats are
    /// only ever taken last or alone — never the reverse.
    sched: Mutex<Sched>,
    /// What the idle sweeper blocks on, paired with `sched`. Everything
    /// it wakes for — a push while the slot is free, a hand-off, `stop`
    /// — changes under the `sched` lock, and the sweeper checks all of
    /// them under that lock before it waits, so no wake-up can fall
    /// between check and wait and the wait needs no timeout.
    sweep_cv: Condvar,
    /// Open connections: each reader removes its own as it exits.
    conns: Mutex<Vec<Arc<ConnState>>>,
    /// Reissue registrations and early `CANCELTIE`s.
    ties: Mutex<TieTable>,
    /// Write-only sockets to the reissues' servers, one per peer,
    /// dialled by the reader whose `TIE` names a twin there: the
    /// `CANCELTIE` a dequeue writes never waits for a connect.
    peers: Mutex<HashMap<SocketAddr, TcpStream>>,
    tie_stats: Mutex<TieStats>,
    stop: AtomicBool,
    /// Live copy of [`TcpServerConfig::nanos_per_op`]; see
    /// [`TcpServer::set_nanos_per_op`].
    nanos_per_op: AtomicU64,
    epoch: Instant,
    /// Reader threads, tracked so shutdown can join them. Finished ones
    /// are dropped at each accept.
    reader_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<B: Backend> Shared<B> {
    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Opens the socket `CANCELTIE`s to `addr` go out on, unless one is
    /// open. Best effort: with none, they are lost.
    fn dial(&self, addr: SocketAddr) {
        if self.peers.lock().unwrap().contains_key(&addr) {
            return;
        }
        if let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            let _ = stream.set_nodelay(true);
            self.peers.lock().unwrap().entry(addr).or_insert(stream);
        }
    }

    /// Writes `CANCELTIE <id>` to the reissue's server at `addr`, on the
    /// socket [`Shared::dial`] opened. The peer never replies. A socket
    /// that fails is dropped, and the next `TIE` naming `addr` redials.
    fn cancel_tie(&self, (addr, id): (SocketAddr, u64), scratch: &mut BytesMut) {
        scratch.clear();
        encode_command(&Command::CancelTie(id), scratch);
        let mut peers = self.peers.lock().unwrap();
        if let Some(stream) = peers.get_mut(&addr) {
            if stream.write_all(scratch).is_err() {
                peers.remove(&addr);
            }
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
        let shared = Arc::new(Shared {
            store: Mutex::new(store),
            stats: Mutex::new(ServerStats::default()),
            sched: Mutex::new(Sched::new(cfg.discipline)),
            sweep_cv: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            ties: Mutex::new(TieTable {
                regs: HashMap::new(),
                precancelled: BoundedSet::new(),
            }),
            peers: Mutex::new(HashMap::new()),
            tie_stats: Mutex::new(TieStats::default()),
            stop: AtomicBool::new(false),
            nanos_per_op: AtomicU64::new(cfg.nanos_per_op),
            epoch: Instant::now(),
            reader_threads: Mutex::new(Vec::new()),
        });

        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name(format!("kv-accept-{local_addr}"))
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        let sweep_shared = shared.clone();
        let sweep = std::thread::Builder::new()
            .name(format!("kv-sweep-{local_addr}"))
            .spawn(move || sweep_loop(&sweep_shared))
            .expect("spawn sweeper thread");

        Ok(TcpServer {
            local_addr,
            shared,
            threads: Mutex::new(vec![accept, sweep]),
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
        *self.shared.tie_stats.lock().unwrap()
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

    /// Connections currently open. A connection's reader removes it as
    /// it exits, once its peer has gone away (or a reply to it failed),
    /// so this returns to zero once clients go away.
    pub fn connection_count(&self) -> usize {
        self.shared.conns.lock().unwrap().len()
    }

    /// Stops all threads — accept, sweeper, and every per-connection
    /// reader — and joins them, then closes every connection and the
    /// sockets `CANCELTIE`s went out on.
    pub fn shutdown(&self) {
        {
            let _sched = self.shared.sched.lock().unwrap();
            self.shared.stop.store(true, Ordering::SeqCst);
            self.shared.sweep_cv.notify_one();
        }
        // Wake whoever waits on a connection: the sweeper serving its
        // request (not slept out: that could take `MAX_BURN_NANOS`),
        // its reader waiting to queue the next one. Both read `stop`
        // under `inner` before they wait.
        for conn in self.shared.conns.lock().unwrap().iter() {
            let _inner = conn.inner.lock().unwrap();
            conn.cv.notify_all();
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        for t in self.threads.lock().unwrap().drain(..) {
            let _ = t.join();
        }
        // With the accept thread joined, every live reader's connection
        // is in `conns`: a reader removes its own only as it exits.
        // Shutting the sockets down ends the readers' blocking reads;
        // joining them here means no reader can touch the store after
        // shutdown returns.
        for conn in self.shared.conns.lock().unwrap().iter() {
            let _ = conn.writer.lock().unwrap().shutdown(Shutdown::Both);
        }
        for t in self.shared.reader_threads.lock().unwrap().drain(..) {
            let _ = t.join();
        }
        // Drop every connection (and queued scheduler entries holding
        // them) and every peer socket, so clients and peers see EOF
        // once shutdown returns.
        self.shared.conns.lock().unwrap().clear();
        *self.shared.sched.lock().unwrap() = Sched::new(Discipline::Fifo);
        self.shared.ties.lock().unwrap().regs.clear();
        self.shared.peers.lock().unwrap().clear();
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
                request: None,
                next_seq: 0,
            }),
            cv: Condvar::new(),
            dead: AtomicBool::new(false),
        });
        next_id += 1;
        shared.conns.lock().unwrap().push(state.clone());
        let reader_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("kv-conn-reader".into())
            .spawn(move || reader_loop(stream, &state, &reader_shared));
        let mut readers = shared.reader_threads.lock().unwrap();
        // Readers of closed connections have exited on their own: keep
        // only the handles shutdown still has to join.
        readers.retain(|t| !t.is_finished());
        if let Ok(handle) = handle {
            readers.push(handle);
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
    // and closes the connection. `shutdown` ends the read the same way.
    while !shared.stop.load(Ordering::SeqCst) && !state.dead.load(Ordering::SeqCst) {
        match stream.read(&mut chunk) {
            Ok(0) => break, // peer closed, or shut down
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        loop {
            match decode_command(&mut buf) {
                Ok(Some(Command::Cancel(seq))) => cancel_request(shared, state, seq, false),
                Ok(Some(Command::Tie { id, peer: None })) => pending_tie = Some(id),
                Ok(Some(Command::Tie {
                    id: seq,
                    peer: Some(twin),
                })) => attach_twin(shared, state, seq, twin, &mut scratch),
                Ok(Some(Command::CancelTie(id))) => handle_cancel_tie(shared, id),
                Ok(Some(cmd)) => {
                    if let Some(item) = queue_request(shared, state, cmd, pending_tie.take()) {
                        serve_in_place(shared, item, &mut scratch);
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
                    if let Some(_idle) = idle(shared, state) {
                        write_frame(state, &scratch);
                    }
                }
            }
        }
    }
    close(shared, state);
}

/// Closes a connection whose reader is exiting: marks it dead (a
/// request of it still queued is dropped when popped), and removes it
/// and its unanswered reissue's tie registration.
fn close<B: Backend>(shared: &Shared<B>, conn: &Arc<ConnState>) {
    let inner = conn.inner.lock().unwrap();
    conn.dead.store(true, Ordering::SeqCst);
    if let Some(Request {
        tie: Some(Tie::Reissue(id)),
        ..
    }) = inner.request
    {
        shared.ties.lock().unwrap().regs.remove(&id);
    }
    drop(inner);
    shared
        .conns
        .lock()
        .unwrap()
        .retain(|c| !Arc::ptr_eq(c, conn));
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

/// Answers `conn`'s request with `frame` in its reply slot, drops its
/// tie registration if it is a reissue, and wakes the reader if it
/// waits to queue the next one. Caller holds `inner`.
fn retire<B: Backend>(shared: &Shared<B>, conn: &ConnState, inner: &mut ConnInner, frame: &[u8]) {
    if let Some(Request {
        tie: Some(Tie::Reissue(id)),
        ..
    }) = inner.request.take()
    {
        shared.ties.lock().unwrap().regs.remove(&id);
    }
    write_frame(conn, frame);
    conn.cv.notify_all();
}

/// Waits until `conn` has no request unanswered and returns its `inner`
/// lock, or `None` once the server stops or the connection died.
fn idle<'a, B: Backend>(
    shared: &Shared<B>,
    conn: &'a ConnState,
) -> Option<MutexGuard<'a, ConnInner>> {
    let mut inner = conn.inner.lock().unwrap();
    loop {
        if shared.stop.load(Ordering::SeqCst) || conn.dead.load(Ordering::SeqCst) {
            return None;
        }
        if inner.request.is_none() {
            return Some(inner);
        }
        inner = conn.cv.wait(inner).unwrap();
    }
}

/// Queues a decoded request once the connection's previous one is
/// answered: assigns its sequence number, registers it if it is a
/// reissue (`tie`), and pushes it to the central queue. Returns it
/// instead, the slot taken, when the slot is free and nothing is
/// queued: the calling reader serves it in place ([`serve_in_place`]).
fn queue_request<B: Backend>(
    shared: &Shared<B>,
    conn: &Arc<ConnState>,
    cmd: Command,
    tie: Option<u64>,
) -> Option<SchedItem> {
    let cost = shared.store.lock().unwrap().estimate_cost(&cmd);
    let mut inner = idle(shared, conn)?;
    let seq = inner.next_seq;
    inner.next_seq += 1;
    if let Some(id) = tie {
        shared.tie_stats.lock().unwrap().registered += 1;
        let mut table = shared.ties.lock().unwrap();
        if table.precancelled.remove(id) {
            drop(table);
            // The primary's CANCELTIE got here first: born cancelled,
            // counted before its marker can reach the client.
            shared.tie_stats.lock().unwrap().retractions += 1;
            write_frame(conn, CANCELLED_FRAME);
            return None;
        }
        let reg = TieReg {
            conn: conn.clone(),
            seq,
        };
        table.regs.insert(id, reg);
    }
    inner.request = Some(Request {
        seq,
        tie: tie.map(Tie::Reissue),
        cancelled: false,
        executing: false,
    });
    let item = SchedItem {
        conn: conn.clone(),
        seq,
        cmd,
        cost: cost as f64,
        enqueued_at: shared.now_ms(),
        is_reissue: tie.is_some(),
    };
    let mut sched = shared.sched.lock().unwrap();
    if sched.slot == Slot::Free && sched.queue.is_empty() {
        sched.slot = Slot::Reader;
        return Some(item);
    }
    sched.queue.push(item);
    // Whoever holds the slot pops the queue before letting go of it, so
    // only a free slot means an idle sweeper to wake (one sweeper, so
    // one waiter at most).
    if sched.slot == Slot::Free {
        shared.sweep_cv.notify_one();
    }
    None
}

/// Cancels request `seq` on `conn`: retracts it if it is still queued,
/// stops its service time if it is in service and the client asked. A
/// primary's `CANCELTIE` (`by_peer`) never stops a reissue in service —
/// see the module docs — and is counted as a tie retraction here,
/// before the `-ERR cancelled` marker can reach the client, so whoever
/// reads that reply finds the counter moved.
fn cancel_request<B: Backend>(shared: &Shared<B>, conn: &Arc<ConnState>, seq: u64, by_peer: bool) {
    let mut inner = conn.inner.lock().unwrap();
    let Some(request) = inner.request.as_mut().filter(|r| r.seq == seq) else {
        return; // already answered (or never existed): no-op
    };
    if request.cancelled || (request.executing && by_peer) {
        return;
    }
    request.cancelled = true;
    if request.executing {
        // The sweeper reads the flag under `inner` before it waits, so
        // it either sees it there or is already waiting for this.
        conn.cv.notify_all();
        return;
    }
    if by_peer {
        shared.tie_stats.lock().unwrap().retractions += 1;
    }
    // Take it back if it is still queued; if the take misses, the
    // slot's holder has it and honors the `cancelled` flag before
    // executing.
    let taken = shared
        .sched
        .lock()
        .unwrap()
        .queue
        .take(|it| Arc::ptr_eq(&it.conn, conn) && it.seq == seq);
    if taken.is_some() {
        retire(shared, conn, &mut inner, CANCELLED_FRAME);
    }
}

/// The client named the twin of request `seq` on `conn`: a reissue
/// registered at `twin`, whose server this reader dials now if no
/// socket to it is open. Still queued, the request keeps the twin, to
/// retract it when dequeued. In service or answered, the tie
/// collapses: `CANCELTIE` goes out at once. A request the client
/// already cancelled has no use for its twin.
fn attach_twin<B: Backend>(
    shared: &Shared<B>,
    conn: &ConnState,
    seq: u64,
    twin: (SocketAddr, u64),
    scratch: &mut BytesMut,
) {
    shared.dial(twin.0);
    {
        let mut inner = conn.inner.lock().unwrap();
        if let Some(request) = inner.request.as_mut().filter(|r| r.seq == seq) {
            if request.cancelled {
                return;
            }
            if !request.executing {
                request.tie = Some(Tie::Primary(twin.0, twin.1));
                return;
            }
        }
    }
    shared.tie_stats.lock().unwrap().collapses += 1;
    shared.cancel_tie(twin, scratch);
}

/// The primary tied to reissue `id` was dequeued: retract the reissue
/// if it is still queued, or have it born cancelled if it has not
/// registered yet.
fn handle_cancel_tie<B: Backend>(shared: &Shared<B>, id: u64) {
    let reg = {
        let mut table = shared.ties.lock().unwrap();
        let reg = table.regs.remove(&id);
        if reg.is_none() {
            table.precancelled.insert(id);
        }
        reg
    };
    if let Some(r) = reg {
        cancel_request(shared, &r.conn, r.seq, true);
    }
}

/// What the sweeper takes the slot for.
enum Turn {
    /// A request a reader executed and handed over (see
    /// [`Sched::handoff`]).
    HandedOver(Running),
    /// The request the discipline popped.
    Popped(SchedItem),
}

fn sweep_loop<B: Backend>(shared: &Shared<B>) {
    let mut scratch = BytesMut::new();
    loop {
        // The next request to serve, or block until there is one. An
        // idle server costs no CPU: the wait has no timeout (see
        // `Shared::sweep_cv` for why none is needed). While a reader
        // holds the slot the queue is its to drain.
        let turn = {
            let mut sched = shared.sched.lock().unwrap();
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(running) = sched.handoff.take() {
                    break Turn::HandedOver(running);
                }
                if sched.slot != Slot::Reader {
                    if let Some(item) = sched.queue.pop(0.0) {
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
            Turn::Popped(item) => match start_request(shared, item, true, &mut scratch) {
                Some(running) => running,
                None => continue,
            },
        };
        finish_request(shared, running, &mut scratch);
    }
}

/// Serves requests on a reader thread that took the free slot for
/// `head`: each in turn while its burn is short, then the next the
/// discipline pops, until the queue is empty (the slot is free again)
/// or a request turns out to burn [`SPIN_BELOW`] or more (it goes to
/// the sweeper with the slot, see the module docs).
fn serve_in_place<B: Backend>(shared: &Shared<B>, mut head: SchedItem, scratch: &mut BytesMut) {
    loop {
        if let Some(running) = start_request(shared, head, false, scratch) {
            if running.service >= SPIN_BELOW {
                let mut sched = shared.sched.lock().unwrap();
                sched.slot = Slot::Sweeper;
                sched.handoff = Some(running);
                shared.sweep_cv.notify_one();
                return;
            }
            finish_request(shared, running, scratch);
        }
        let mut sched = shared.sched.lock().unwrap();
        match sched.queue.pop(0.0) {
            Some(next) => head = next,
            None => {
                sched.slot = Slot::Free;
                return;
            }
        }
    }
}

/// Starts serving `item`, whose thread holds the slot: commits to it
/// unless it was cancelled or its connection closed meanwhile (then it
/// is answered, or dropped, here and `None` returned), retracts a
/// primary's tied reissue, executes the command and books it.
fn start_request<B: Backend>(
    shared: &Shared<B>,
    item: SchedItem,
    by_sweeper: bool,
    scratch: &mut BytesMut,
) -> Option<Running> {
    let mut inner = item.conn.inner.lock().unwrap();
    let request = inner.request.as_mut().filter(|r| r.seq == item.seq)?;
    if request.cancelled || item.conn.dead.load(Ordering::SeqCst) {
        // Cancelled after it was queued but before we committed (a
        // bonus retraction), or its connection is gone.
        retire(shared, &item.conn, &mut inner, CANCELLED_FRAME);
        return None;
    }
    request.executing = true;
    let tie = request.tie;
    drop(inner);
    // Dequeue-time retraction: the primary is served, so retract its
    // reissue *now*, before execution, rather than after the reply has
    // crossed the network. A reissue dequeued here leaves its primary
    // alone: only the primary's server retracts.
    if let Some(Tie::Primary(addr, id)) = tie {
        shared.cancel_tie((addr, id), scratch);
        shared.tie_stats.lock().unwrap().peer_cancels_sent += 1;
    }
    let (reply, cost) = shared.store.lock().unwrap().execute(&item.cmd);
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
/// stopped it in service.
fn finish_request<B: Backend>(shared: &Shared<B>, running: Running, scratch: &mut BytesMut) {
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
    if cancelled {
        retire(shared, &item.conn, &mut inner, CANCELLED_FRAME);
    } else {
        scratch.clear();
        encode_reply(&reply, scratch);
        retire(shared, &item.conn, &mut inner, scratch);
    }
}

/// Serves the request of `item`'s connection until `deadline`: a wait
/// on the connection's `cv` that [`cancel_request`] and
/// [`TcpServer::shutdown`] end early. Returns whether the client's
/// `CANCEL` stopped it, holding `inner`, so the reply slot is filled
/// before anything else can touch the request. (A shutdown ends the
/// wait as if the time were up: the reply goes out, and the sweeper
/// finds `stop` set at the top of its loop.)
fn serve<'a, B: Backend>(
    shared: &Shared<B>,
    item: &'a SchedItem,
    deadline: Instant,
) -> (MutexGuard<'a, ConnInner>, bool) {
    let mut inner = item.conn.inner.lock().unwrap();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || shared.stop.load(Ordering::SeqCst) {
            return (inner, false);
        }
        // A request in service stays until it is answered.
        if inner
            .request
            .as_ref()
            .is_some_and(|r| r.seq == item.seq && r.cancelled)
        {
            return (inner, true);
        }
        inner = item.conn.cv.wait_timeout(inner, left).unwrap().0;
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
    fn closed_connections_leave_no_reader_handles_behind() {
        let server =
            TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap();
        let ping = || {
            let mut c = TcpStream::connect(server.local_addr()).unwrap();
            send_cmd(&mut c, &Command::Ping);
            assert_eq!(read_reply(&mut c), Reply::Pong);
            c
        };
        (0..50).for_each(|_| drop(ping()));
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.connection_count() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        // Each accept drops the handles of the readers that have exited.
        let _live = [ping(), ping()];
        let handles = server.shared.reader_threads.lock().unwrap().len();
        assert!((2..=5).contains(&handles), "{handles} handles, 2 live");
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
