//! Thread hand-offs per request, counted as voluntary context switches
//! of every thread in the process (`/proc/self/task/*/status`), grouped
//! by thread name.
//!
//! A request used to cross five threads, each a cross-thread wake-up:
//! runtime worker → the connection's I/O thread → the server's reader →
//! the sweeper → the client's I/O thread → the worker. The caller now
//! writes its own frame on an idle connection, and a server reader
//! serves a short head in place when nothing else is queued or in
//! service, so a zero-burn request wakes the server's reader, the
//! client's I/O thread and the caller: three. A long head still goes to
//! the sweeper, which is what lets a `CANCEL` stop it in service.
//!
//! `--nocapture` prints the switches per request of each thread group.
//! The tests serialize on one lock: a concurrent test's threads carry
//! the same names and would switch inside another's window.

use hedge::harness::{Arrivals, Cluster, LoadConfig};
use hedge::{HedgeConfig, HedgedClient, TcpServer, TcpServerConfig};
use kvstore::resp::{decode_reply, encode_command};
use kvstore::{Command, IntSet, KvStore, Reply};

use bytes::BytesMut;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The thread groups a request crosses, by name prefix (`/proc` keeps
/// the first 15 bytes of a name); everything else, the calling test
/// thread among it, is `other`.
const GROUPS: [(&str, &str); 4] = [
    ("hedge-worker-", "hedge-worker-*"),
    ("hedge-conn-", "hedge-conn-*"),
    ("kv-conn-reader", "kv-conn-reader"),
    ("kv-sweep-", "kv-sweep-*"),
];

fn group(name: &str) -> &'static str {
    GROUPS
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("other", |&(_, group)| group)
}

/// Voluntary context switches of every live thread, by thread id, with
/// the thread's group; `None` where `/proc/self/task` cannot be read.
fn switches() -> Option<HashMap<u64, (&'static str, u64)>> {
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let task = task.ok()?;
        let Ok(tid) = task.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(str::trim)
        };
        let (Some(name), Some(n)) = (field("Name:"), field("voluntary_ctxt_switches:")) else {
            continue;
        };
        out.insert(tid, (group(name), n.parse().ok()?));
    }
    Some(out)
}

/// Switches per group between two snapshots; a thread born in between
/// counts from zero.
fn delta(
    before: &HashMap<u64, (&'static str, u64)>,
    after: &HashMap<u64, (&'static str, u64)>,
) -> BTreeMap<&'static str, u64> {
    let mut by_group = BTreeMap::new();
    for (tid, &(group, n)) in after {
        let was = before.get(tid).map_or(0, |&(_, n)| n);
        *by_group.entry(group).or_insert(0) += n - was;
    }
    by_group
}

/// Runs `op` and returns the switches each group took meanwhile, or
/// `None` (after saying so) where they cannot be read.
fn count_switches(op: impl FnOnce()) -> Option<BTreeMap<&'static str, u64>> {
    let Some(before) = switches() else {
        println!("no /proc/self/task here: context switches not counted");
        return None;
    };
    op();
    Some(delta(&before, &switches()?))
}

fn per_request(by_group: &BTreeMap<&'static str, u64>, group: &str, requests: usize) -> f64 {
    by_group.get(group).copied().unwrap_or(0) as f64 / requests as f64
}

fn print_per_request(label: &str, by_group: &BTreeMap<&'static str, u64>, requests: usize) {
    let total: u64 = by_group.values().sum();
    let groups: Vec<String> = by_group
        .iter()
        .map(|(g, &n)| format!("{g} {:.2}", n as f64 / requests as f64))
        .collect();
    println!(
        "{label}: {:.2} voluntary context switches per request ({})",
        total as f64 / requests as f64,
        groups.join(", ")
    );
}

fn server(nanos_per_op: u64) -> TcpServer {
    let mut store = KvStore::new();
    store.execute(&Command::Set("key".into(), vec![b'v'; 64].into()));
    TcpServer::bind(
        "127.0.0.1:0",
        store,
        TcpServerConfig {
            nanos_per_op,
            ..TcpServerConfig::default()
        },
    )
    .unwrap()
}

fn client(server: &TcpServer) -> HedgedClient {
    HedgedClient::connect(
        &[server.local_addr()],
        HedgeConfig {
            workers: 1,
            ..HedgeConfig::default()
        },
    )
    .unwrap()
}

fn sequential_gets(client: &HedgedClient, n: usize) {
    for _ in 0..n {
        let reply = client.execute_blocking(Command::Get("key".into()));
        assert_eq!(reply, Ok(Reply::Str(vec![b'v'; 64].into())));
    }
}

const REQUESTS: usize = 2_000;

#[test]
fn a_zero_burn_get_wakes_no_sweeper_and_one_client_io_thread() {
    let _serial = serial();
    let server = server(0);
    let client = client(&server);
    sequential_gets(&client, 200);
    let before = server.stats();
    let Some(by_group) = count_switches(|| sequential_gets(&client, REQUESTS)) else {
        return;
    };
    let stats = server.stats();
    print_per_request("zero-burn GET", &by_group, REQUESTS);
    assert_eq!(
        stats.commands - before.commands,
        REQUESTS as u64,
        "{stats:?}"
    );
    assert_eq!(stats.sweeps, 0, "every head was served in place: {stats:?}");
    let sweeper = per_request(&by_group, "kv-sweep-*", REQUESTS);
    assert!(
        sweeper <= 0.05,
        "the sweeper woke {sweeper:.3} times per request"
    );
    let io = per_request(&by_group, "hedge-conn-*", REQUESTS);
    assert!(
        io <= 1.2,
        "the client's I/O threads woke {io:.3} times per request"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn a_long_burn_is_served_by_the_sweeper() {
    let _serial = serial();
    // A GET costs one unit: 300 µs of service, past the 200 µs under
    // which a reader may serve it in place.
    let server = server(300_000);
    let client = client(&server);
    const LONG: usize = 200;
    let Some(by_group) = count_switches(|| sequential_gets(&client, LONG)) else {
        return;
    };
    print_per_request("300 us GET", &by_group, LONG);
    let stats = server.stats();
    assert_eq!(stats.commands, LONG as u64, "{stats:?}");
    assert_eq!(stats.sweeps, stats.commands, "{stats:?}");
    drop(client);
    server.shutdown();
}

#[test]
fn idle_connections_sleep_and_still_close_promptly() {
    let _serial = serial();
    let server = server(0);
    let client = HedgedClient::connect(
        &[server.local_addr()],
        HedgeConfig {
            workers: 1,
            pool_per_replica: 4,
            ..HedgeConfig::default()
        },
    )
    .unwrap();
    // Every pooled connection carries a request, so each has its server
    // reader and has been through its read loop.
    let in_flight: Vec<_> = (0..4)
        .map(|_| client.execute(Command::Get("key".into())))
        .collect();
    for fut in in_flight {
        client.runtime().block_on(fut).unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    let idle = count_switches(|| std::thread::sleep(Duration::from_secs(1)));
    if let Some(by_group) = idle {
        let total: u64 = by_group.values().sum();
        println!("idle client and server, 1 s: {total} voluntary context switches {by_group:?}");
        assert!(
            total <= 20,
            "an idle client and server switched {total} times in 1 s: {by_group:?}"
        );
    }
    let t0 = Instant::now();
    drop(client);
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "client drop took {:?}",
        t0.elapsed()
    );
    let t0 = Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "shutdown took {:?}",
        t0.elapsed()
    );
}

fn send(stream: &mut TcpStream, cmds: &[Command]) {
    let mut out = BytesMut::new();
    for cmd in cmds {
        encode_command(cmd, &mut out);
    }
    stream.write_all(&out).unwrap();
}

fn recv(stream: &mut TcpStream, buf: &mut BytesMut) -> Reply {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(reply) = decode_reply(buf).unwrap() {
            return reply;
        }
        let n = stream
            .read(&mut chunk)
            .expect("a request was not answered within 5 s");
        assert!(n > 0, "server closed mid-reply");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Four connections, each writing batches that mix zero-burn `GET`s
/// and 300 µs `SINTERCARD`s for 2 s: readers serving in place hand
/// long heads to the sweeper, and take the slot back when the queue
/// runs dry. Every request is answered, in order, and both kinds of
/// server thread served some. (A long head a draining reader popped
/// and then lost track of, while another reader took the slot, would
/// never be answered.)
#[test]
fn mixed_burns_on_four_connections_are_all_answered_in_order() {
    let _serial = serial();
    let mut store = KvStore::new();
    store.load_set("a", IntSet::from_unsorted((0..1_000u32).collect()));
    store.load_set("b", IntSet::from_unsorted((500..1_500u32).collect()));
    let long = Command::SInterCard("a".into(), "b".into());
    let (long_reply, long_cost) = store.execute(&long);
    for k in 0..8 {
        store.execute(&Command::Set(
            format!("k{k}").into(),
            format!("v{k}").into(),
        ));
    }
    // The long command burns 300 µs (less one unit's rounding); a GET,
    // one unit, burns under a microsecond.
    let nanos_per_op = 300_000 / long_cost;
    assert!(nanos_per_op < 1_000 && long_cost * nanos_per_op >= 250_000);
    let server = TcpServer::bind(
        "127.0.0.1:0",
        store,
        TcpServerConfig {
            nanos_per_op,
            ..TcpServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let until = Instant::now() + Duration::from_secs(2);
    let answered: usize = std::thread::scope(|s| {
        let connections: Vec<_> = (0..4)
            .map(|c| {
                let (long, long_reply) = (&long, &long_reply);
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream.set_nodelay(true).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .unwrap();
                    let mut buf = BytesMut::new();
                    let (mut answered, mut round) = (0, c);
                    while Instant::now() < until {
                        // One to four requests per write, one in three
                        // long, at a different phase on each connection.
                        let batch: Vec<(Command, Reply)> = (0..1 + round % 4)
                            .map(|i| {
                                if (round + i) % 3 == 0 {
                                    (long.clone(), long_reply.clone())
                                } else {
                                    let k = (round + i) % 8;
                                    (
                                        Command::Get(format!("k{k}").into()),
                                        Reply::Str(format!("v{k}").into()),
                                    )
                                }
                            })
                            .collect();
                        let cmds: Vec<Command> = batch.iter().map(|(c, _)| c.clone()).collect();
                        send(&mut stream, &cmds);
                        for (i, (_, expect)) in batch.iter().enumerate() {
                            assert_eq!(
                                &recv(&mut stream, &mut buf),
                                expect,
                                "connection {c}, round {round}, request {i} answered out of order"
                            );
                        }
                        answered += batch.len();
                        round += 1;
                        // Pauses of 0-400 µs let the queue run dry now
                        // and then, so the slot changes hands.
                        std::thread::sleep(Duration::from_micros(100 * (round % 5) as u64));
                    }
                    answered
                })
            })
            .collect();
        connections.into_iter().map(|t| t.join().unwrap()).sum()
    });
    let stats = server.stats();
    println!("mixed burns: {answered} requests, {stats:?}");
    assert_eq!(stats.commands, answered as u64, "{stats:?}");
    assert!(
        0 < stats.sweeps && stats.sweeps < stats.commands,
        "both the sweeper and the readers serve: {stats:?}"
    );
    server.shutdown();
}

/// Threads of this process whose name starts with `kv-`, read from
/// `/proc/self/task/*/comm`; `None` where that cannot be read.
fn kv_threads() -> Option<usize> {
    let names = std::fs::read_dir("/proc/self/task")
        .ok()?
        .filter_map(|task| {
            // A thread may exit between the listing and the read.
            std::fs::read_to_string(task.ok()?.path().join("comm")).ok()
        });
    Some(names.filter(|name| name.starts_with("kv-")).count())
}

/// A server runs its accept thread, its sweeper and one reader per open
/// connection, and no other: the thread that decides a `CANCELTIE`
/// writes it, and each reader closes its own connection.
#[test]
fn a_server_with_four_connections_runs_six_threads() {
    let _serial = serial();
    let server = server(0);
    let mut buf = BytesMut::new();
    let connections: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut c = TcpStream::connect(server.local_addr()).unwrap();
            // Answered, so the connection's reader is running.
            send(&mut c, &[Command::Ping]);
            assert_eq!(recv(&mut c, &mut buf), Reply::Pong);
            c
        })
        .collect();
    match kv_threads() {
        Some(threads) => assert_eq!(threads, 6, "kv-* threads, 4 connections"),
        None => println!("no /proc/self/task here: threads not counted"),
    }
    drop(connections);
    server.shutdown();
}

/// Voluntary context switches of the calling thread; `None` where
/// `/proc/thread-self` cannot be read.
fn own_switches() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let n = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
    n?.trim().parse().ok()
}

/// The thread that drives an open-loop run wakes once per arrival gap
/// and a few times while the run drains.
#[test]
fn an_open_loop_run_wakes_its_caller_once_per_gap() {
    let _serial = serial();
    let cluster = Cluster::spawn(2, &KvStore::new(), 0).unwrap();
    let client = HedgedClient::connect(&cluster.addrs(), HedgeConfig::default()).unwrap();
    let Some(before) = own_switches() else {
        println!("no /proc/thread-self here: context switches not counted");
        return;
    };
    let load = LoadConfig {
        queries: 200,
        arrivals: Arrivals::Fixed { interval_us: 5_000 },
        ..LoadConfig::default()
    };
    let report = cluster.run_load(&client, &load, |_| Command::Ping);
    let switched = own_switches().unwrap() - before;
    println!("open-loop run, 200 arrivals: the caller switched {switched} times");
    assert_eq!(report.completed, 200, "{report:?}");
    assert!(switched <= 2 * 200 + 50, "{switched} switches");
}
