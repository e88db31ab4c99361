//! CI-scale integration tests for server-side scheduling: the tie
//! protocol through the full `HedgedClient` path (a tie is registered
//! only when a reissue goes out, and only the primary's server
//! retracts), and the non-FIFO-beats-FIFO discipline shape under
//! queries of death — the same acceptance shape the committed
//! `BENCH_discipline.json` shows at full scale.

use hedge::{Discipline, HedgeConfig, HedgedClient, TcpServer, TcpServerConfig};
use kvstore::{Command, IntSet, KvStore, Reply};
use reissue_core::policy::ReissuePolicy;

use std::time::{Duration, Instant};

/// A store with a mid-size monster pair: `SINTERCARD big1 big2` probes
/// 8k elements at ~13 ops each (~110k cost units), so at `nanos_per_op`
/// in the thousands it head-of-line blocks a replica for ~200 ms —
/// long enough to hedge against, short enough for CI.
fn monster_store() -> KvStore {
    let mut store = KvStore::new();
    store.load_set("big1", IntSet::from_unsorted((0..8_000u32).collect()));
    store.load_set("big2", IntSet::from_unsorted((4_000..12_000u32).collect()));
    store.load_set(
        "evens",
        IntSet::from_unsorted((0..100u32).map(|i| i * 2).collect()),
    );
    store.load_set(
        "threes",
        IntSet::from_unsorted((0..100u32).map(|i| i * 3).collect()),
    );
    store
}

/// Drives one blocked-primary hedge race and returns
/// `(client, servers)` for counter inspection. The
/// primary replica is head-of-line blocked by a monster, the 2 ms
/// always-hedge fires to the idle replica and wins, and the blocked
/// copy must be retracted.
fn run_blocked_race() -> (HedgedClient, [TcpServer<KvStore>; 2]) {
    let cfg = TcpServerConfig {
        nanos_per_op: 2_000,
        ..TcpServerConfig::default()
    };
    let servers = [
        TcpServer::bind("127.0.0.1:0", monster_store(), cfg).unwrap(),
        TcpServer::bind("127.0.0.1:0", monster_store(), cfg).unwrap(),
    ];
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let client = HedgedClient::connect(
        &addrs,
        HedgeConfig {
            policy: ReissuePolicy::single_d(2.0),
            online: None,
            ..HedgeConfig::default()
        },
    )
    .unwrap();

    // Head-of-line-block replica 0 (~110k cost × 2 µs ≈ 220 ms) with a
    // raw side connection, then run a few hedged queries whose
    // primaries land there round-robin.
    use std::io::Write as _;
    let mut side = std::net::TcpStream::connect(addrs[0]).unwrap();
    let mut frame = bytes::BytesMut::new();
    kvstore::resp::encode_command(
        &Command::SInterCard("big1".into(), "big2".into()),
        &mut frame,
    );
    side.write_all(&frame).unwrap();
    std::thread::sleep(Duration::from_millis(20));

    let reply = client
        .execute_blocking(Command::SInterCard("evens".into(), "threes".into()))
        .unwrap();
    assert_eq!(reply, Reply::Int(34), "the idle replica answers correctly");
    (client, servers)
}

/// A blocked race: the reissue wins on the idle replica, the client's
/// `CANCEL` retracts the blocked primary in time, and the reissue's
/// server, which dequeued its copy first, sends no `CANCELTIE`: only
/// the primary's server retracts.
#[test]
fn blocked_race_sends_no_canceltie_from_the_reissues_server() {
    let (client, servers) = run_blocked_race();

    // Retraction confirmations arrive asynchronously; poll briefly.
    let deadline = Instant::now() + Duration::from_secs(2);
    while client.stats().cancelled_in_time == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = client.stats();
    assert!(stats.reissues >= 1, "the 2 ms hedge must fire: {stats:?}");
    assert!(
        stats.cancelled_in_time >= 1,
        "the blocked primary must be retracted in time: {stats:?}"
    );
    let reissue_side = servers[1].tie_stats();
    assert_eq!(reissue_side.registered, 1, "{reissue_side:?}");
    assert_eq!(
        reissue_side.peer_cancels_sent, 0,
        "the reissue's server never sends CANCELTIE: {reissue_side:?}"
    );
    // The blocked replica ran the monster and nothing else.
    assert_eq!(
        servers[0].stats().commands,
        1,
        "retracted work must not run"
    );
}

/// A tie is registered when the reissue goes out, not when a reissue
/// is armed: queries whose 50 ms stage never fires against idle
/// replicas leave every tie table untouched.
#[test]
fn armed_queries_that_never_reissue_register_no_tie() {
    let servers = [
        TcpServer::bind("127.0.0.1:0", monster_store(), TcpServerConfig::default()).unwrap(),
        TcpServer::bind("127.0.0.1:0", monster_store(), TcpServerConfig::default()).unwrap(),
    ];
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let client = HedgedClient::connect(
        &addrs,
        HedgeConfig {
            policy: ReissuePolicy::single_r(50.0, 1.0),
            online: None,
            ..HedgeConfig::default()
        },
    )
    .unwrap();
    for _ in 0..20 {
        assert_eq!(client.execute_blocking(Command::Ping).unwrap(), Reply::Pong);
    }
    assert_eq!(client.stats().reissues, 0, "{:?}", client.stats());
    for (i, s) in servers.iter().enumerate() {
        assert_eq!(s.tie_stats(), Default::default(), "replica {i}");
    }
}

/// A reissue sent while its primary is in service is retracted before
/// it runs: the primary's server collapses the tie the moment the
/// client names the twin, and its `CANCELTIE` takes the reissue out of
/// the queue it sits in behind another client's monster.
#[test]
fn reissue_of_a_primary_in_service_is_retracted_before_it_runs() {
    let cfg = TcpServerConfig {
        nanos_per_op: 2_000,
        ..TcpServerConfig::default()
    };
    let servers = [
        TcpServer::bind("127.0.0.1:0", monster_store(), cfg).unwrap(),
        TcpServer::bind("127.0.0.1:0", monster_store(), cfg).unwrap(),
    ];
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    // Replica 1 is busy with a monster (~220 ms) from a raw side
    // connection, so the reissue queues there.
    use std::io::Write as _;
    let mut side = std::net::TcpStream::connect(addrs[1]).unwrap();
    let mut frame = bytes::BytesMut::new();
    kvstore::resp::encode_command(
        &Command::SInterCard("big1".into(), "big2".into()),
        &mut frame,
    );
    side.write_all(&frame).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let client = HedgedClient::connect(
        &addrs,
        HedgeConfig {
            policy: ReissuePolicy::single_r(5.0, 1.0),
            online: None,
            ..HedgeConfig::default()
        },
    )
    .unwrap();
    // The first primary of a fresh client goes to replica 0, idle, and
    // is in service for ~220 ms when the 5 ms reissue goes out.
    let reply = client
        .execute_blocking(Command::SInterCard("big1".into(), "big2".into()))
        .unwrap();
    assert_eq!(reply, Reply::Int(4_000));
    let stats = client.stats();
    assert_eq!(
        (stats.reissues, stats.reissue_wins, stats.cancelled_in_time),
        (1, 0, 1),
        "{stats:?}"
    );
    assert_eq!(servers[0].tie_stats().collapses, 1);
    assert_eq!(servers[1].tie_stats().retractions, 1);
    assert_eq!(
        servers[1].stats().commands,
        1,
        "only the side monster ran on the reissue's replica"
    );
}

/// Runs a burst against one replica under `discipline`: two monsters
/// first (on their own client, so their connections never carry cheap
/// traffic — admission is FIFO *within* a connection, and the point
/// under test is the cross-connection discipline), then a wave of
/// cheap intersections on a second client's pool. Returns the cheap
/// queries' worst-case latency, ms.
fn cheap_tail_under(discipline: Discipline) -> f64 {
    let server = TcpServer::bind(
        "127.0.0.1:0",
        monster_store(),
        TcpServerConfig {
            nanos_per_op: 2_000,
            discipline,
        },
    )
    .unwrap();
    let plain = HedgeConfig {
        policy: ReissuePolicy::None,
        online: None,
        ..HedgeConfig::default()
    };
    let monster_client = HedgedClient::connect(
        &[server.local_addr()],
        HedgeConfig {
            pool_per_replica: 2,
            ..plain.clone()
        },
    )
    .unwrap();
    let cheap_client = HedgedClient::connect(
        &[server.local_addr()],
        HedgeConfig {
            pool_per_replica: 8,
            ..plain
        },
    )
    .unwrap();
    let rt = monster_client.runtime().clone();

    // Two monsters (~220 ms burn each) go first: by the time the cheap
    // wave lands, the first is executing and the second sits *queued*
    // — the copy a non-FIFO discipline may overtake.
    let monsters: Vec<_> = (0..2)
        .map(|_| {
            rt.spawn(monster_client.execute(Command::SInterCard("big1".into(), "big2".into())))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(25));
    let t0 = Instant::now();
    let cheap: Vec<_> = (0..16)
        .map(|_| {
            let fut = cheap_client.execute(Command::SInterCard("evens".into(), "threes".into()));
            rt.spawn(async move {
                let reply = fut.await.unwrap();
                assert_eq!(reply, Reply::Int(34));
                t0.elapsed().as_secs_f64() * 1e3
            })
        })
        .collect();
    let worst = cheap
        .into_iter()
        .map(|h| rt.block_on(h))
        .fold(0.0f64, f64::max);
    for m in monsters {
        let _ = rt.block_on(m);
    }
    server.shutdown();
    worst
}

/// The discipline A/B shape at CI scale: under head-of-line-blocking
/// monsters, shortest-job-first (unaged `ShortestBurn`) must serve the
/// cheap traffic ahead of the *queued* monster, beating FIFO's
/// cheap-query tail. FIFO drains both monsters (~2 × 220 ms of service) before the
/// later-admitted cheap wave, while shortest-job-first waits out only
/// the monster already executing.
#[test]
fn cost_priority_beats_fifo_tail_under_monsters() {
    let fifo = cheap_tail_under(Discipline::Fifo);
    let sjf = cheap_tail_under(Discipline::ShortestBurn { boost: 0.0 });
    assert!(
        sjf < fifo,
        "shortest-job-first must beat FIFO's cheap-query tail under \
         queued monsters: sjf {sjf:.1} ms >= fifo {fifo:.1} ms"
    );
    // The shape, not just the ordering: SJF's tail should be roughly
    // one monster burn, FIFO's roughly two. Assert a real separation
    // (25%) rather than a noise-level win.
    assert!(
        sjf < 0.75 * fifo,
        "expected a decisive SJF win: sjf {sjf:.1} ms vs fifo {fifo:.1} ms"
    );
}
