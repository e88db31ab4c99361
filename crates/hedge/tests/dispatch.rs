//! Primary dispatch, by accounting and never by a latency ordering:
//! a request goes to the replica with the fewest outstanding
//! (`ReplicaSet::pick_primary`), so a replica held by one long request
//! gets no more work until it answers; and a replica that fails fast,
//! which looks idle by that count, is demoted by its error EWMA,
//! probed, and re-admitted once it answers again.

use hedge::{HedgeConfig, HedgedClient, TcpServer, TcpServerConfig};
use kvstore::resp::{decode_command, encode_reply};
use kvstore::{Command, IntSet, KvStore, Reply};

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn burn_cmd() -> Command {
    Command::SInterCard("work".into(), "work2".into())
}

fn store() -> KvStore {
    let mut store = KvStore::new();
    store.load_set("work", IntSet::from_unsorted((0..4_000u32).collect()));
    store.load_set("work2", IntSet::from_unsorted((2_000..6_000u32).collect()));
    let (reply, _) = store.execute(&Command::Set("k".into(), "v".into()));
    assert_eq!(reply, Reply::Ok);
    store
}

/// One request burning for seconds on one of three servers: the 300
/// cheap requests that follow all go to the other two.
#[test]
fn a_replica_held_by_one_long_request_gets_no_primaries_until_it_answers() {
    let (_, burn_units) = store().execute(&burn_cmd());
    let cfg = TcpServerConfig {
        // The burn takes 4 s (under the server's 5 s ceiling), a `GET`
        // one unit of it.
        nanos_per_op: 4_000_000_000 / burn_units,
        ..TcpServerConfig::default()
    };
    let servers: Vec<TcpServer> = (0..3)
        .map(|_| TcpServer::bind("127.0.0.1:0", store(), cfg).unwrap())
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let client = HedgedClient::connect(&addrs, HedgeConfig::default()).unwrap();
    let commands = || -> Vec<u64> { servers.iter().map(|s| s.stats().commands).collect() };

    let burn = client.runtime().spawn(client.execute(burn_cmd()));
    let deadline = Instant::now() + Duration::from_secs(10);
    let held = loop {
        if let Some(held) = commands().iter().position(|&c| c == 1) {
            break held; // counted when service starts
        }
        assert!(Instant::now() < deadline, "the burn never started");
        std::thread::sleep(Duration::from_millis(1));
    };

    let before = commands();
    for _ in 0..300 {
        let reply = client.execute_blocking(Command::Get("k".into())).unwrap();
        assert_eq!(reply, Reply::Str("v".into()));
    }
    let delta: Vec<u64> = commands().iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(delta[held], 0, "the held replica got primaries: {delta:?}");
    assert_eq!(delta.iter().sum::<u64>(), 300, "{delta:?}");
    assert_eq!(client.stats().errors, 0);
    assert!(
        commands()[held] == 1 && servers[held].stats().aborted == 0,
        "the burn must still be in service for the deltas to mean anything"
    );

    // Shutdown wakes the request in service; the burn's future
    // resolves (to an error: its replica is gone) instead of sleeping
    // out the remaining seconds.
    let t0 = Instant::now();
    servers.iter().for_each(TcpServer::shutdown);
    let _ = client.runtime().block_on(burn);
    assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
}

/// A server that closes every connection unanswered while `failing`
/// is set, and answers `PING` once it is cleared. Same listener, so
/// the address never changes.
struct FlakyServer {
    addr: std::net::SocketAddr,
    failing: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    answered: Arc<AtomicU64>,
    acceptor: std::thread::JoinHandle<()>,
}

impl FlakyServer {
    fn spawn() -> FlakyServer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let failing = Arc::new(AtomicBool::new(true));
        let stop = Arc::new(AtomicBool::new(false));
        let answered = Arc::new(AtomicU64::new(0));
        let acceptor = {
            let (failing, stop, answered) = (failing.clone(), stop.clone(), answered.clone());
            std::thread::spawn(move || {
                let mut conns = Vec::new();
                for sock in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(sock) = sock else { continue };
                    let (failing, answered) = (failing.clone(), answered.clone());
                    conns.push(std::thread::spawn(move || serve(sock, &failing, &answered)));
                }
                for conn in conns {
                    conn.join().unwrap();
                }
            })
        };
        FlakyServer {
            addr,
            failing,
            stop,
            answered,
            acceptor,
        }
    }

    /// Ends the accept loop and joins every connection thread; call
    /// after the client is dropped, so their reads see the close.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = std::net::TcpStream::connect(self.addr); // wake `incoming`
        self.acceptor.join().unwrap();
    }
}

/// Serves one connection until it closes, or closes it at the first
/// command that arrives while `failing` is set.
fn serve(mut sock: std::net::TcpStream, failing: &AtomicBool, answered: &AtomicU64) {
    let mut buf = bytes::BytesMut::new();
    let mut chunk = [0u8; 256];
    let mut out = bytes::BytesMut::new();
    loop {
        match sock.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
        while let Ok(Some(cmd)) = decode_command(&mut buf) {
            if failing.load(Ordering::SeqCst) {
                return; // dropped with the request unanswered
            }
            assert_eq!(cmd, Command::Ping);
            out.clear();
            encode_reply(&Reply::Pong, &mut out);
            if sock.write_all(&out).is_err() {
                return;
            }
            answered.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// 600 unhedged `PING`s, 8 at a time. Returns how many failed.
fn run_pings(client: &HedgedClient) -> usize {
    let mut failed = 0;
    for _ in 0..600 / 8 {
        let batch: Vec<_> = (0..8)
            .map(|_| client.runtime().spawn(client.execute(Command::Ping)))
            .collect();
        for request in batch {
            match client.runtime().block_on(request) {
                Ok(reply) => assert_eq!(reply, Reply::Pong),
                Err(_) => failed += 1,
            }
        }
    }
    failed
}

/// The fail-fast hazard of least-outstanding dispatch, and its cure.
#[test]
fn a_fail_fast_replica_is_demoted_probed_and_readmitted() {
    let healthy: Vec<TcpServer> = (0..2)
        .map(|_| {
            TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap()
        })
        .collect();
    let flaky = FlakyServer::spawn();
    let addrs = [healthy[0].local_addr(), flaky.addr, healthy[1].local_addr()];
    let client = HedgedClient::connect(&addrs, HedgeConfig::default()).unwrap();

    // Failing: unhedged, every primary sent to the flaky address is an
    // error and nothing else is, so the error count is its share. Blind
    // rotation would send it 200 of 600; demotion leaves it the first
    // few (until its error EWMA passes one half) and the probes, one
    // pick in 16.
    let errors = run_pings(&client);
    assert_eq!(client.stats().errors, errors as u64);
    assert_eq!(flaky.answered.load(Ordering::SeqCst), 0);
    assert!(
        (1..60).contains(&errors),
        "{errors} of 600 primaries went to the failing replica"
    );

    // Healed: answered probes decay the error EWMA, and the replica
    // gets its turn back within the next 600.
    flaky.failing.store(false, Ordering::SeqCst);
    let failed = run_pings(&client);
    let share = flaky.answered.load(Ordering::SeqCst) as f64 / 600.0;
    eprintln!("failing: {errors} of 600 primaries; healed: share {share:.3} of the next 600");
    assert_eq!(failed, 0, "a healed replica answers");
    assert!(
        share > 0.20,
        "healed replica's share of primaries: {share:.3}"
    );

    drop(client);
    flaky.stop();
    healthy.iter().for_each(TcpServer::shutdown);
}
