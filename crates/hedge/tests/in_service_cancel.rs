//! A client's `CANCEL` reaches the request *in service*: the server
//! stops the service time, answers with the cancelled marker, books
//! only what it burned and serves its next head at once. The primary's
//! server's `CANCELTIE` never does that (a started primary may still
//! lose, so it must not stop the reissue that may beat it).
//!
//! On the parent of the change that introduced this file every test
//! here fails: a request in service ran to its end, whoever asked.

use hedge::server::CANCELLED_MARKER;
use hedge::{HedgeConfig, HedgeStats, HedgedClient, TcpServer, TcpServerConfig};
use kvstore::resp::{decode_reply, encode_command};
use kvstore::{Command, IntSet, KvStore, Reply};
use reissue_core::policy::ReissuePolicy;

use bytes::BytesMut;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// `SINTERCARD big1 big2`: one command of ~110k cost units.
fn monster_store() -> KvStore {
    let mut store = KvStore::new();
    store.load_set("big1", IntSet::from_unsorted((0..8_000u32).collect()));
    store.load_set("big2", IntSet::from_unsorted((4_000..12_000u32).collect()));
    store
}

fn monster() -> Command {
    Command::SInterCard("big1".into(), "big2".into())
}

/// The monster's cost, counted the way the server will.
fn monster_cost() -> u64 {
    monster_store().execute(&monster()).1
}

/// A replica on which the monster is in service for `service`.
fn replica_serving_monster_in(service: Duration) -> TcpServer {
    TcpServer::bind(
        "127.0.0.1:0",
        monster_store(),
        TcpServerConfig {
            nanos_per_op: service.as_nanos() as u64 / monster_cost(),
            ..TcpServerConfig::default()
        },
    )
    .unwrap()
}

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

/// Polls the client's counters until `done` holds (the losers' fates
/// are booked by spawned drains), for at most two seconds.
fn stats_when(client: &HedgedClient, done: impl Fn(&HedgeStats) -> bool) -> HedgeStats {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !done(&client.stats()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    client.stats()
}

#[test]
fn cancel_stops_the_request_in_service() {
    let service = Duration::from_millis(300);
    let server = replica_serving_monster_in(service);
    let mut a = TcpStream::connect(server.local_addr()).unwrap();
    let started = Instant::now();
    send_cmd(&mut a, &monster());
    // Counted when service starts: wait until it has, then let it run.
    while server.stats().commands == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));

    let cancelled = Instant::now();
    send_cmd(&mut a, &Command::Cancel(0));
    assert_eq!(
        read_reply(&mut a),
        Reply::Error(CANCELLED_MARKER.into()),
        "the marker takes the stopped request's reply slot"
    );
    assert!(
        cancelled.elapsed() < Duration::from_millis(50),
        "the marker took {:?}",
        cancelled.elapsed()
    );
    // Settled before the marker went out.
    let stats = server.stats();
    assert_eq!((stats.commands, stats.aborted), (1, 1), "{stats:?}");
    assert!(
        stats.total_cost < monster_cost() / 2,
        "charged {} of {} units for ~20 of 300 ms",
        stats.total_cost,
        monster_cost()
    );

    // The replica is free: another connection is served long before
    // the stopped request would have ended.
    let mut b = TcpStream::connect(server.local_addr()).unwrap();
    send_cmd(&mut b, &Command::Ping);
    assert_eq!(read_reply(&mut b), Reply::Pong);
    assert!(
        started.elapsed() < service,
        "served after {:?}",
        started.elapsed()
    );
    // And the connection's reply stream is still in step.
    send_cmd(&mut a, &Command::Ping);
    assert_eq!(read_reply(&mut a), Reply::Pong);
    server.shutdown();
}

/// Two idle replicas; the second serves the monster three times slower
/// than the first, so a copy on it is the loser of any race and would
/// hold its replica for 400 ms after the race is over.
fn fast_and_slow_replica() -> [TcpServer; 2] {
    [
        replica_serving_monster_in(Duration::from_millis(200)),
        replica_serving_monster_in(Duration::from_millis(600)),
    ]
}

/// Hedges the monster across [`fast_and_slow_replica`]: the primary on
/// the fast one, the reissue 5 ms later on the slow one, both in
/// service at once. Returns once the query resolved.
fn race_the_monster() -> (HedgedClient, [TcpServer; 2]) {
    let servers = fast_and_slow_replica();
    let addrs: Vec<_> = servers.iter().map(TcpServer::local_addr).collect();
    let client = HedgedClient::connect(
        &addrs,
        HedgeConfig {
            policy: ReissuePolicy::single_r(5.0, 1.0),
            online: None,
            ..HedgeConfig::default()
        },
    )
    .unwrap();
    let reply = client.execute_blocking(monster()).unwrap();
    assert_eq!(reply, Reply::Int(4_000));
    (client, servers)
}

#[test]
fn hedged_client_frees_the_losers_replica() {
    let (client, servers) = race_the_monster();
    let resolved = Instant::now();
    // The reissue's replica answers a probe at once, not in 400 ms.
    let mut probe = TcpStream::connect(servers[1].local_addr()).unwrap();
    send_cmd(&mut probe, &Command::Ping);
    assert_eq!(read_reply(&mut probe), Reply::Pong);
    assert!(
        resolved.elapsed() < Duration::from_millis(30),
        "the loser held its replica for {:?}",
        resolved.elapsed()
    );
    let stats = stats_when(&client, |s| s.pairs_censored == 1);
    assert_eq!(
        (stats.reissues, stats.reissue_wins, stats.cancelled_in_time),
        (1, 0, 1),
        "{stats:?}"
    );
    assert_eq!(
        (stats.pairs_censored, stats.pairs_exact),
        (1, 0),
        "{stats:?}"
    );
    assert_eq!(servers[1].stats().aborted, 1);
    assert_eq!(servers[0].stats().aborted, 0);
}

#[test]
fn tied_copies_in_service_do_not_stop_each_other() {
    let (client, servers) = race_the_monster();
    // Exactly one reply reached the race — the primary's; the loser
    // was stopped by the client and is booked as censored.
    let stats = stats_when(&client, |s| s.pairs_censored == 1);
    assert_eq!(
        (stats.reissues, stats.reissue_wins, stats.cancelled_in_time),
        (1, 0, 1),
        "{stats:?}"
    );
    assert_eq!(
        (stats.pairs_censored, stats.pairs_exact),
        (1, 0),
        "{stats:?}"
    );
    // Both copies started. The primary's server, told of the twin
    // while serving the primary, collapsed the tie, and its CANCELTIE
    // stopped nothing: only the client's CANCEL did.
    for (i, server) in servers.iter().enumerate() {
        assert_eq!(server.stats().commands, 1, "replica {i} started its copy");
        assert_eq!(server.tie_stats().retractions, 0, "replica {i}");
    }
    assert_eq!(servers[0].tie_stats().collapses, 1, "the primary's server");
    assert_eq!(servers[1].tie_stats().registered, 1, "the reissue's server");
    assert_eq!(servers[0].stats().aborted, 0, "the winner ran to its end");
    assert_eq!(
        servers[1].stats().aborted,
        1,
        "the client stopped the loser"
    );
}
