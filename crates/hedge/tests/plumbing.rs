//! Attempt-cell semantics under stress, and runtime teardown from the
//! inside.
//!
//! The cell (see `hedge::sync`) replaced five per-attempt objects —
//! token, oneshot, done flag, boxed cancel callback, callback list —
//! with one. What those objects guaranteed together must still hold
//! when a cancel from another thread races the reply, across sockets
//! that die and get redialled: every attempt resolves exactly once, a
//! cancel never lands on a socket its request was not written to, and
//! a token cancelled before dispatch never reaches the wire.

use hedge::server::CANCELLED_MARKER;
use hedge::{
    CancelToken, HedgeConfig, HedgedClient, Replica, Runtime, TcpServer, TcpServerConfig,
    TransportError,
};
use kvstore::resp::{decode_command, decode_reply, encode_command, encode_reply};
use kvstore::{Command, KvStore, Reply};

use bytes::BytesMut;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// What the fake replica saw.
#[derive(Default)]
struct Seen {
    requests: AtomicU64,
    cancels: AtomicU64,
    /// `CANCEL n` frames naming anything but the one request this
    /// connection has outstanding, the last it received: a sequence
    /// number carried over from a dead socket, or drawn from another
    /// writer's counter.
    stale_cancels: AtomicU64,
    /// Requests that must never have been sent (cancelled up front).
    forbidden: AtomicU64,
    connections: AtomicU64,
    /// The most request frames (`CANCEL`s not counted) one socket read
    /// delivered. The fake answers a request before it reads again, so
    /// a second one in the same read was written before the first was
    /// answered.
    most_requests_per_read: AtomicU64,
}

/// A replica that answers every `PING` at once, counts what it sees,
/// and every `drop_every` requests slams the connection shut with the
/// last request unanswered — forcing the client to redial (and, for
/// an uncancelled job, retry) mid-stream.
fn fake_replica(
    listener: TcpListener,
    seen: Arc<Seen>,
    stop: Arc<AtomicBool>,
    drop_every: u64,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut out = BytesMut::new();
        while let Ok((mut sock, _)) = listener.accept() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            seen.connections.fetch_add(1, Ordering::Relaxed);
            sock.set_nodelay(true).unwrap();
            let mut buf = BytesMut::new();
            let mut chunk = [0u8; 4096];
            // Requests received on *this* connection. One is on the
            // wire at a time, so a CANCEL here may name only the last
            // of them, `received - 1`.
            let mut received = 0u64;
            'conn: loop {
                let before = received;
                while let Some(cmd) = decode_command(&mut buf).expect("client speaks RESP") {
                    match cmd {
                        Command::Cancel(n) => {
                            seen.cancels.fetch_add(1, Ordering::Relaxed);
                            if n + 1 != received {
                                seen.stale_cancels.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Command::Ping => {
                            received += 1;
                            let total = seen.requests.fetch_add(1, Ordering::Relaxed) + 1;
                            if total % drop_every == 0 {
                                break 'conn; // unanswered: abrupt close
                            }
                            out.clear();
                            encode_reply(&Reply::Pong, &mut out);
                            if sock.write_all(&out).is_err() {
                                break 'conn;
                            }
                        }
                        _ => {
                            seen.forbidden.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                seen.most_requests_per_read
                    .fetch_max(received - before, Ordering::Relaxed);
                match sock.read(&mut chunk) {
                    Ok(0) | Err(_) => break 'conn,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
        }
    })
}

fn spin_for(d: Duration) {
    let until = std::time::Instant::now() + d;
    while std::time::Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// Awaits `fut` on `rt`, failing the test instead of hanging it if the
/// attempt never resolves.
fn resolve(rt: &Runtime, fut: hedge::InFlight) -> Result<Reply, TransportError> {
    match rt.block_on(hedge::race(fut, rt.sleep(Duration::from_secs(10)))) {
        hedge::Either::Left((outcome, _timer)) => outcome,
        hedge::Either::Right(_) => panic!("an attempt never resolved"),
    }
}

#[test]
fn cancel_racing_completion_across_reconnects_resolves_each_attempt_once() {
    const ATTEMPTS: usize = 10_000;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let seen = Arc::new(Seen::default());
    let stop = Arc::new(AtomicBool::new(false));
    let server = fake_replica(listener, seen.clone(), stop.clone(), 499);

    // The canceller: cancels each token the moment it is handed over,
    // from its own thread, so the cancel races the wire write, the
    // reply read and — every 499th request — the redial.
    let (to_canceller, tokens) = mpsc::channel::<CancelToken>();
    let canceller = std::thread::spawn(move || {
        for token in tokens {
            token.cancel();
        }
    });

    let rt = Runtime::new(1);
    let mut completed = 0usize;
    let mut cancelled = 0usize;
    let mut failed = 0usize;
    // One connection; `queued` attempts handed to it at once, so that
    // in the second arm seven wait in its queue behind the one on the
    // wire, where their cancels find them.
    for (queued, rounds) in [(1, ATTEMPTS * 4 / 5), (8, ATTEMPTS / 5)] {
        let replica = Replica::connect(addr, 1).unwrap();
        let mut i = 0usize;
        while i < rounds {
            // A token cancelled before dispatch: never on the wire
            // (the fake replica counts any non-PING as forbidden).
            if i % 50 == 0 {
                let token = CancelToken::new();
                token.cancel();
                let out = resolve(&rt, replica.request(Command::Get("never".into()), token));
                assert_eq!(out, Err(TransportError::Cancelled));
            }
            // Every other attempt is raced by the canceller.
            let batch: Vec<_> = (0..queued.min(rounds - i))
                .map(|j| {
                    let token = CancelToken::new();
                    let fut = replica.request(Command::Ping, token.clone());
                    if (i + j) % 2 == 0 {
                        to_canceller.send(token).unwrap();
                    }
                    fut
                })
                .collect();
            i += batch.len();
            for fut in batch {
                match resolve(&rt, fut) {
                    Ok(reply) => {
                        assert_eq!(reply, Reply::Pong);
                        completed += 1;
                    }
                    // The fake never retracts, so `Cancelled` means the
                    // job was still queued when its cancel landed.
                    Err(TransportError::Cancelled) => cancelled += 1,
                    // A cancelled job whose socket died is not retried:
                    // it surfaces the socket error.
                    Err(_) => failed += 1,
                }
            }
        }
        drop(replica);
    }
    drop(to_canceller);
    canceller.join().unwrap();
    stop.store(true, Ordering::SeqCst);
    let _ = std::net::TcpStream::connect(addr); // unblock accept
    server.join().unwrap();

    assert_eq!(
        completed + cancelled + failed,
        ATTEMPTS,
        "every attempt resolves, once"
    );
    assert!(
        completed > ATTEMPTS / 2,
        "most attempts complete: {completed}"
    );
    assert!(
        seen.connections.load(Ordering::Relaxed) >= 10,
        "the run must cross forced reconnects"
    );
    assert!(
        seen.cancels.load(Ordering::Relaxed) > 0,
        "some cancels must have caught their request on the wire"
    );
    assert_eq!(
        seen.stale_cancels.load(Ordering::Relaxed),
        0,
        "a CANCEL named a request other than the one its connection had outstanding"
    );
    assert_eq!(
        seen.forbidden.load(Ordering::Relaxed),
        0,
        "a token cancelled before dispatch reached the wire"
    );
    assert_eq!(
        seen.most_requests_per_read.load(Ordering::Relaxed),
        1,
        "a connection wrote a second request before the first was answered"
    );
}

/// The same race against the real server, where a cancel can land on
/// a request in service: ~300 µs requests, every other one cancelled
/// from another thread at a random offset into its life.
#[test]
fn cancel_racing_service_stops_only_its_own_request() {
    const REQUESTS: usize = 2_000;
    const KEYS: usize = 7;
    let mut store = KvStore::new();
    for k in 0..KEYS {
        store.execute(&Command::Set(
            format!("k{k}").into(),
            format!("v{k}").into(),
        ));
    }
    // A GET costs one unit: 300 µs of interruptible service.
    let server = TcpServer::bind(
        "127.0.0.1:0",
        store,
        TcpServerConfig {
            nanos_per_op: 300_000,
            ..TcpServerConfig::default()
        },
    )
    .unwrap();

    // The canceller: cancels each token it is handed `after` it was
    // handed over — before the frame is written, while the request is
    // queued, in service, or already answered.
    let (to_canceller, tokens) = mpsc::channel::<(CancelToken, Duration)>();
    let canceller = std::thread::spawn(move || {
        for (token, after) in tokens {
            spin_for(after);
            token.cancel();
        }
    });
    let key = |n: usize| format!("k{}", n % KEYS);
    // 0..600 µs, stepping through a prime stride.
    let mut offset_us = 0u64;
    let mut next_offset = move || {
        offset_us = (offset_us + 211) % 600;
        Duration::from_micros(offset_us)
    };
    // One reply per request, in sequence order: replies are matched to
    // requests by position, so a missing, doubled or misplaced marker
    // would hand some request another key's value (or hang it).
    let mut stopped_or_retracted = 0usize;
    let mut check = |n: usize, arm: &str, outcome: Result<Reply, TransportError>| match outcome {
        Ok(reply) => assert_eq!(
            reply,
            Reply::Str(format!("v{}", n % KEYS).into()),
            "request {n} ({arm}) got another request's reply"
        ),
        Err(TransportError::Cancelled) => {
            assert!(
                n % 2 == 0,
                "request {n} ({arm}) inherited a cancel it was never sent"
            );
            stopped_or_retracted += 1;
        }
        Err(e) => panic!("request {n} ({arm}): {e}"),
    };

    // The client's connection: one request on the wire, the cancel
    // from another thread.
    let rt = Runtime::new(1);
    let replica = Replica::connect(server.local_addr(), 1).unwrap();
    for n in 0..REQUESTS / 2 {
        let token = CancelToken::new();
        let fut = replica.request(Command::Get(key(n).into()), token.clone());
        if n % 2 == 0 {
            to_canceller.send((token, next_offset())).unwrap();
        }
        check(n, "client", resolve(&rt, fut));
    }
    drop(replica);
    drop(to_canceller);
    canceller.join().unwrap();

    // What no client of this crate writes and the server must still
    // take from outside: four requests in one write, then a `CANCEL
    // <seq>` (numbered from zero, no reply of its own) for the even
    // ones, which the server reads once the last of the four is queued.
    // Each reply still comes back, in order, to its own request.
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (mut out, mut buf) = (BytesMut::new(), BytesMut::new());
    let mut chunk = [0u8; 4096];
    for first in (0..REQUESTS / 2).step_by(4) {
        let batch = first..(first + 4).min(REQUESTS / 2);
        out.clear();
        for n in batch.clone() {
            encode_command(&Command::Get(key(n).into()), &mut out);
        }
        sock.write_all(&out).unwrap();
        for n in batch.clone().filter(|n| n % 2 == 0) {
            spin_for(next_offset());
            out.clear();
            encode_command(&Command::Cancel(n as u64), &mut out);
            sock.write_all(&out).unwrap();
        }
        for n in batch {
            let reply = loop {
                if let Some(reply) = decode_reply(&mut buf).expect("server speaks RESP") {
                    break reply;
                }
                let read = sock.read(&mut chunk).expect("a request was never answered");
                assert!(read > 0, "server closed mid-reply");
                buf.extend_from_slice(&chunk[..read]);
            };
            let outcome = match reply {
                Reply::Error(e) if e == CANCELLED_MARKER => Err(TransportError::Cancelled),
                reply => Ok(reply),
            };
            check(n, "four per write", outcome);
        }
    }
    assert!(buf.is_empty(), "a reply nobody asked for: {buf:?}");

    let stats = server.stats();
    assert!(
        stats.aborted > 0,
        "some cancels must have caught their request in service: {stats:?}"
    );
    assert!(
        stats.aborted as usize <= stopped_or_retracted,
        "every stop was reported to its client: {stats:?} vs {stopped_or_retracted}"
    );
    assert!(
        stats.commands as usize <= REQUESTS,
        "nothing ran twice: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn last_client_handle_may_drop_inside_a_spawned_task() {
    // The task holds the last `HedgedClient` (and so the last handle
    // on its runtime) and lets go of it on a worker thread — what a
    // cancelled loser's drain does when it finishes after the caller
    // has dropped the client. `ThreadSet::drop` used to join the very
    // worker it ran on and panic with EDEADLK.
    let server =
        TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap();
    let client = HedgedClient::connect(
        &[server.local_addr()],
        HedgeConfig {
            workers: 2,
            ..HedgeConfig::default()
        },
    )
    .unwrap();
    let gate = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let (inner, open) = (client.clone(), gate.clone());
    drop(client.runtime().spawn(async move {
        while !open.load(Ordering::SeqCst) {
            inner.runtime().sleep(Duration::from_millis(1)).await;
        }
        let reply = inner.execute(Command::Ping).await;
        drop(inner); // the last handle, on a worker
        tx.send(reply).unwrap();
    }));
    drop(client);
    gate.store(true, Ordering::SeqCst);
    let reply = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the task must outlive the drop of its own runtime");
    assert_eq!(reply, Ok(Reply::Pong));
    server.shutdown();
}
