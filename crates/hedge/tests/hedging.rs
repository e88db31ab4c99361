//! Integration tests for the speculative-execution runtime: hedged
//! wins with loser cancellation, reissue-budget adherence, and full
//! command-set round-trips over real TCP sockets.

use hedge::{HedgeConfig, HedgedClient, TcpServer, TcpServerConfig};
use kvstore::resp::{decode_command, decode_reply, encode_command, encode_reply};
use kvstore::{Command, IntSet, KvStore, Reply};
use reissue_core::load::LoadShaper;
use reissue_core::online::OnlineConfig;
use reissue_core::policy::ReissuePolicy;

use std::time::Duration;

fn small_store() -> KvStore {
    let mut store = KvStore::new();
    store.load_set(
        "evens",
        IntSet::from_unsorted((0..100u32).map(|i| i * 2).collect()),
    );
    store.load_set(
        "threes",
        IntSet::from_unsorted((0..100u32).map(|i| i * 3).collect()),
    );
    let (reply, _) = store.execute(&Command::Set("greeting".into(), "hello".into()));
    assert_eq!(reply, Reply::Ok);
    store
}

fn monster_store() -> KvStore {
    let mut store = small_store();
    store.load_set("big1", IntSet::from_unsorted((0..400_000u32).collect()));
    store.load_set(
        "big2",
        IntSet::from_unsorted((200_000..600_000u32).collect()),
    );
    store
}

/// (1) A hedged request returns the fast replica's answer while the
/// slow replica's copy is cancelled before it ever executes.
#[test]
fn hedged_request_wins_on_fast_replica_and_cancels_slow() {
    // Replica 0 will be head-of-line blocked by a monster query;
    // replica 1 stays idle.
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
            // Hedge aggressively after 5 ms, always.
            policy: ReissuePolicy::single_d(5.0),
            online: None,
            ..HedgeConfig::default()
        },
    )
    .unwrap();

    // Head-of-line-block replica 0 with a monster intersection sent on
    // a raw side connection (~400k cost units * 2µs ≈ 800 ms of
    // service time).
    use std::io::Write as _;
    let mut side = std::net::TcpStream::connect(addrs[0]).unwrap();
    let mut frame = bytes::BytesMut::new();
    encode_command(
        &Command::SInterCard("big1".into(), "big2".into()),
        &mut frame,
    );
    side.write_all(&frame).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let it occupy replica 0

    // The hedged query: its primary lands on the blocked replica 0, so
    // only the 5 ms reissue to idle replica 1 can answer quickly — and
    // the blocked copy must be retracted.
    let t0 = std::time::Instant::now();
    let reply = client
        .execute_blocking(Command::SInterCard("evens".into(), "threes".into()))
        .unwrap();
    let elapsed = t0.elapsed();

    // Correct answer from the fast replica: |{0, 2, ...198} ∩ {0, 3,
    // ..., 297}| = multiples of 6 below 200 = 34.
    assert_eq!(reply, Reply::Int(34), "intersection cardinality");
    // Far faster than the blocked replica could answer.
    assert!(
        elapsed < Duration::from_millis(500),
        "hedged query took {elapsed:?}; cancellation/hedging failed"
    );

    let stats = client.stats();
    assert!(stats.reissues >= 1, "the 5 ms hedge must have fired");
    assert_eq!(
        stats.reissue_wins, 1,
        "the idle replica must win: {stats:?}"
    );

    // The loser's cancellation confirmation arrives asynchronously;
    // poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while client.stats().cancelled_in_time == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = client.stats();
    assert!(
        stats.cancelled_in_time >= 1,
        "the blocked replica's copy should be retracted: {stats:?}"
    );
    // And the blocked replica must never execute the retracted query:
    // the only command it runs is the monster itself.
    assert_eq!(
        servers[0].stats().commands,
        1,
        "retracted work must not run"
    );
}

/// (1b) A dead replica must not decide a race: its near-instant
/// transport failures would otherwise be the first "completion" in
/// the select, cancelling a healthy in-flight primary and failing a
/// query that hedging was supposed to protect. The failed attempt
/// drops out instead, and the race continues until a real reply wins.
#[test]
fn failed_reissue_does_not_kill_healthy_primary() {
    use kvstore::resp::decode_command;
    use std::io::Read as _;

    // Replica 0: healthy but slow enough (~20 ms per query) that the
    // hedge timer always fires first.
    let healthy = TcpServer::bind(
        "127.0.0.1:0",
        small_store(),
        TcpServerConfig {
            nanos_per_op: 100_000,
            ..TcpServerConfig::default()
        },
    )
    .unwrap();
    // "Replica" 1: accepts connections, then slams every one shut on
    // its first frame — every request (and its one reconnect retry)
    // fails within a millisecond or two. It never answers anything.
    let dead_listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = dead_listener.local_addr().unwrap();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let dead_thread = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let Ok((mut s, _)) = dead_listener.accept() else {
                    break;
                };
                // One thread per connection so every pooled socket
                // fails fast (a single sequential handler would leave
                // the others hanging instead of erroring).
                std::thread::spawn(move || {
                    let mut chunk = [0u8; 256];
                    let mut buf = bytes::BytesMut::new();
                    // Wait for one full frame so the client's write
                    // succeeds, then close abruptly mid-reply.
                    while let Ok(n) = s.read(&mut chunk) {
                        if n == 0 {
                            return;
                        }
                        buf.extend_from_slice(&chunk[..n]);
                        if matches!(decode_command(&mut buf), Ok(Some(_))) {
                            return;
                        }
                    }
                });
            }
        })
    };

    let client = HedgedClient::connect(
        &[healthy.local_addr(), dead_addr],
        HedgeConfig {
            // Hedge every query after 1 ms: the reissue always targets
            // the dead replica (only other choice) and always fails
            // long before the ~20 ms primary completes.
            policy: ReissuePolicy::single_d(1.0),
            ..HedgeConfig::default()
        },
    )
    .unwrap();

    for i in 0..10 {
        // A replica that fails fast looks idle, so until its error
        // EWMA demotes it (and on every probe after that) pick_primary
        // puts a primary on the dead replica. Those queries must be
        // saved the other way around: the primary fails fast and the
        // reissue to the healthy replica wins.
        let r = client
            .execute_blocking(Command::SInterCard("evens".into(), "threes".into()))
            .unwrap_or_else(|e| panic!("query {i} failed through a healthy replica: {e}"));
        assert_eq!(r, Reply::Int(34));
    }
    let stats = client.stats();
    assert_eq!(stats.queries, 10);
    assert_eq!(stats.errors, 0, "no query may surface an error: {stats:?}");
    assert!(stats.reissues >= 10, "the 1 ms hedge fires every query");

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = std::net::TcpStream::connect(dead_addr); // unblock accept
    dead_thread.join().unwrap();
}

/// (2) Observed reissue rate stays within the configured budget ±1%.
///
/// Tolerance rationale: with `d = 0` every stage whose coin comes up
/// heads is already due when the race is armed, and a due stage is
/// dispatched before the attempts are polled — so the realized rate is
/// exactly the coin's empirical frequency under the pinned seed (42),
/// 1 982 heads in 10 000, whatever the machine is doing. ±1% (~2.5
/// binomial σ) only exists to keep the assertion meaningful if the RNG
/// stream ever changes deliberately. (The race used to poll the
/// attempts first, and a primary whose reply was already in skipped
/// the stage: a counter showed `reissues = heads − skipped` exactly,
/// 0.182–0.197 depending on load, which failed this test about one
/// run in three.)
#[test]
fn reissue_rate_tracks_budget() {
    let servers = [
        TcpServer::bind("127.0.0.1:0", small_store(), TcpServerConfig::default()).unwrap(),
        TcpServer::bind("127.0.0.1:0", small_store(), TcpServerConfig::default()).unwrap(),
        TcpServer::bind("127.0.0.1:0", small_store(), TcpServerConfig::default()).unwrap(),
    ];
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();

    // Fixed SingleR with d = 0: every query flips the q-coin, so the
    // reissue budget equals q exactly and the observed rate is a
    // deterministic function of the seeded RNG.
    let budget = 0.20;
    let client = HedgedClient::connect(
        &addrs,
        HedgeConfig {
            policy: ReissuePolicy::single_r(0.0, budget),
            online: None,
            seed: 42,
            ..HedgeConfig::default()
        },
    )
    .unwrap();

    let queries = 10_000u64;
    for _ in 0..queries {
        let r = client
            .execute_blocking(Command::Get("greeting".into()))
            .unwrap();
        assert_eq!(r, Reply::Str("hello".into()));
    }
    let stats = client.stats();
    assert_eq!(stats.queries, queries);
    let rate = stats.reissues as f64 / stats.queries as f64;
    assert!(
        (rate - budget).abs() <= 0.01,
        "observed reissue rate {rate:.4} vs budget {budget} ±1%"
    );
}

/// (2b) Same property with the *online adapter* choosing `(d, q)`
/// live: the adapter's own budget accounting must respect the cap.
///
/// Tolerance rationale: the adapter holds the *expected* rate
/// `q·P(T > d)` at the budget, but the realized rate wobbles with
/// wall-clock timing (which queries are outstanding when a timer
/// fires). +1% on 4 000 queries is ~4 binomial σ around the expected
/// 10% — wide enough that scheduler jitter cannot trip it, tight
/// enough to catch a governor or accounting regression. One-sided
/// because undershoot is not a defect (hedging less than budgeted is
/// always admissible).
#[test]
fn online_adapter_policy_stays_within_budget() {
    let servers = [
        TcpServer::bind(
            "127.0.0.1:0",
            small_store(),
            TcpServerConfig {
                nanos_per_op: 300,
                ..TcpServerConfig::default()
            },
        )
        .unwrap(),
        TcpServer::bind(
            "127.0.0.1:0",
            small_store(),
            TcpServerConfig {
                nanos_per_op: 300,
                ..TcpServerConfig::default()
            },
        )
        .unwrap(),
    ];
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();

    let budget = 0.10;
    let client = HedgedClient::connect(
        &addrs,
        HedgeConfig {
            policy: ReissuePolicy::None,
            online: Some(OnlineConfig {
                k: 0.95,
                budget,
                window: 512,
                reoptimize_every: 128,
                learning_rate: 0.5,
                min_pairs: 32,
                load: None,
            }),
            seed: 7,
            ..HedgeConfig::default()
        },
    )
    .unwrap();

    for _ in 0..4_000u64 {
        client
            .execute_blocking(Command::SInterCard("evens".into(), "threes".into()))
            .unwrap();
    }
    // The live policy's expected budget never exceeds the cap.
    let policy = client.policy();
    if let ReissuePolicy::SingleR { delay, prob } = policy {
        assert!(delay >= 0.0);
        assert!((0.0..=1.0).contains(&prob));
    } else {
        panic!("adapter should have produced a SingleR policy, got {policy}");
    }
    // And the realized reissue rate stays within budget ±1% (the
    // adapter re-optimizes toward q·P(outstanding at d) = budget).
    let stats = client.stats();
    let rate = stats.reissues as f64 / stats.queries as f64;
    assert!(
        rate <= budget + 0.01,
        "observed reissue rate {rate:.4} vs budget {budget} + 1%"
    );
}

/// (2c) Raced hedges feed censored `(primary, reissue)` pairs to the
/// online adapter, and the adapter switches to the §4.2 correlated
/// optimizer once enough accumulate — end to end through real TCP
/// sockets, where every raced query ties its reissue and the client's
/// `CANCEL` retracts each loser.
///
/// Assertions here are structural (≥ 1 censored pair, the correlated
/// gate opened, budget accounting holds), never on timing quantities:
/// the seed (11) pins the coin flips, but which side of each race
/// completes first is wall-clock-dependent, so any count beyond "it
/// happened at least once" would be flaky by construction.
#[test]
fn raced_hedges_feed_censored_pairs_to_adapter() {
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
            // Aggressive fixed hedge until the adapter warms up, so
            // races (and pairs) start from the first queries.
            policy: ReissuePolicy::single_r(5.0, 1.0),
            online: Some(OnlineConfig {
                k: 0.90,
                budget: 0.5,
                window: 16,
                reoptimize_every: 20,
                learning_rate: 0.5,
                min_pairs: 8,
                load: None,
            }),
            budget_cap: Some(1.0), // let every armed hedge fire
            seed: 11,
            ..HedgeConfig::default()
        },
    )
    .unwrap();

    // Head-of-line-block replica 0 with a monster intersection (~800 ms
    // of service time) so queries whose primary lands there must be won
    // by the reissue, and the retracted loser produces a *censored*
    // pair.
    use std::io::Write as _;
    let mut side = std::net::TcpStream::connect(addrs[0]).unwrap();
    let mut frame = bytes::BytesMut::new();
    encode_command(
        &Command::SInterCard("big1".into(), "big2".into()),
        &mut frame,
    );
    side.write_all(&frame).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let it occupy replica 0

    for _ in 0..40 {
        let r = client
            .execute_blocking(Command::SInterCard("evens".into(), "threes".into()))
            .unwrap();
        assert_eq!(r, Reply::Int(34));
    }

    // Loser drains resolve asynchronously; poll until pairs appear.
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    while std::time::Instant::now() < deadline {
        let s = client.stats();
        if s.pairs_censored >= 1 && client.online_correlated() == Some(true) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = client.stats();
    assert!(
        stats.pairs_censored >= 1,
        "retracted losers must produce censored pairs: {stats:?}"
    );
    assert_eq!(
        client.online_correlated(),
        Some(true),
        "adapter should have switched to the correlated optimizer: {stats:?}"
    );
    let record = client.online_policy().expect("online adapter active");
    assert!(record.delay.is_finite() && record.delay >= 0.0);
    assert!(
        record.budget_used <= 0.5 + 1e-9,
        "adapter budget accounting must hold: {record:?}"
    );
}

/// (2d) Past `LoadShaper::rho_max` the adapter damps `q` to exactly
/// 0, and the client must stop hedging: once the adapter has
/// re-optimized, a live `q` of 0 turns the policy off instead of
/// leaving the last non-zero `q` armed. A knee at 0 and `rho_max` 0.01
/// put any measured load past saturation.
#[test]
fn saturated_adapter_turns_hedging_off() {
    let servers = [
        TcpServer::bind("127.0.0.1:0", small_store(), TcpServerConfig::default()).unwrap(),
        TcpServer::bind("127.0.0.1:0", small_store(), TcpServerConfig::default()).unwrap(),
        TcpServer::bind("127.0.0.1:0", small_store(), TcpServerConfig::default()).unwrap(),
    ];
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let client = HedgedClient::connect(
        &addrs,
        HedgeConfig {
            policy: ReissuePolicy::single_r(0.0, 1.0),
            online: Some(OnlineConfig {
                k: 0.95,
                budget: 0.1,
                window: 64,
                reoptimize_every: 32,
                learning_rate: 0.5,
                min_pairs: usize::MAX,
                load: Some(LoadShaper {
                    rho_knee: 0.0,
                    rho_max: 0.01,
                    gamma: 1.0,
                }),
            }),
            seed: 5,
            ..HedgeConfig::default()
        },
    )
    .unwrap();
    let get = || {
        let r = client.execute_blocking(Command::Get("greeting".into()));
        assert_eq!(r.unwrap(), Reply::Str("hello".into()));
    };

    let mut served = 0;
    while client.policy() != ReissuePolicy::None && served < 5_000 {
        get();
        served += 1;
    }
    assert_eq!(
        client.policy(),
        ReissuePolicy::None,
        "after {served} queries the adapter reads {:?}",
        client.online_policy()
    );
    assert!(client.stats().reissues > 0, "the starting policy hedged");
    let before = client.stats().reissues;
    for _ in 0..500 {
        get();
    }
    assert_eq!(client.stats().reissues, before, "hedging stays off");
    assert_eq!(client.policy(), ReissuePolicy::None);
}

/// (3) Every RESP command type used by `kvstore::store::Command`
/// round-trips through the TCP transport.
#[test]
fn tcp_transport_roundtrips_every_command_type() {
    let server = TcpServer::bind("127.0.0.1:0", small_store(), TcpServerConfig::default()).unwrap();
    let client = HedgedClient::connect(
        &[server.local_addr()],
        HedgeConfig::default(), // policy None: plain dispatch
    )
    .unwrap();

    let cases: Vec<(Command, Reply)> = vec![
        (Command::Ping, Reply::Pong),
        (Command::Set("k".into(), "v".into()), Reply::Ok),
        (Command::Get("k".into()), Reply::Str("v".into())),
        (Command::Get("missing".into()), Reply::Nil),
        (Command::Del("k".into()), Reply::Int(1)),
        (Command::SAdd("s".into(), vec![3, 1, 2, 3]), Reply::Int(3)),
        (Command::SCard("s".into()), Reply::Int(3)),
        (
            Command::SInter("evens".into(), "threes".into()),
            Reply::Members((0..34u32).map(|i| i * 6).collect()),
        ),
        (
            Command::SInterCard("evens".into(), "threes".into()),
            Reply::Int(34),
        ),
        (Command::Get("s".into()), Reply::Error("WRONGTYPE".into())),
    ];
    for (cmd, want) in cases {
        let got = client.execute_blocking(cmd.clone()).unwrap();
        assert_eq!(got, want, "command {cmd:?}");
    }

    // `Command::Cancel` is transport-internal: it round-trips through
    // the codec (wire format) and executes as a no-op on a bare store,
    // but the client refuses to dispatch it as a request.
    let mut wire = bytes::BytesMut::new();
    encode_command(&Command::Cancel(42), &mut wire);
    assert_eq!(
        decode_command(&mut wire).unwrap(),
        Some(Command::Cancel(42))
    );
    let mut store = KvStore::new();
    assert_eq!(store.execute(&Command::Cancel(42)).0, Reply::Ok);
    assert!(client.execute_blocking(Command::Cancel(42)).is_err());

    // Typed replies also round-trip through the client-side decoder.
    for reply in [
        Reply::Ok,
        Reply::Pong,
        Reply::Str("xyz".into()),
        Reply::Int(-3),
        Reply::Members(vec![1, 2, 3]),
        Reply::Nil,
        Reply::Error("boom".into()),
    ] {
        let mut buf = bytes::BytesMut::new();
        encode_reply(&reply, &mut buf);
        assert_eq!(decode_reply(&mut buf).unwrap(), Some(reply));
        assert!(buf.is_empty());
    }
}
