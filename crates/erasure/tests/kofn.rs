//! End-to-end k-of-n integration over real TCP: a `(k = 2, n = 4)`
//! stripe where one fragment server is stalled behind a
//! byte-expensive blocker. The hedged read must complete via the
//! parity fragment, retract the straggler, and book the censored
//! `(straggler, reissue)` pair — the full fragment-hedging loop the
//! tentpole promises. Then load-aware dispatch by its accounting: a
//! first wave that leaves out every replica this client already has a
//! request at (one data replica, or both: any `k` of `n` decode), a
//! reissue that waits until it could be the decoding fragment, the
//! probe that re-admits a fragment replica that failed and healed, and
//! a `SET` that writes its `n` fragments as one wave.

use bytes::{Bytes, BytesMut};
use erasure::{StripedBackend, StripedClient, StripedConfig};
use hedge::{HedgeConfig, HedgedClient, LoadClient, TcpServer, TcpServerConfig};
use kvstore::resp::{decode_command, encode_command, encode_reply};
use kvstore::{Backend, Command, KvStore, Reply};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use reissue_core::policy::ReissuePolicy;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BYTES_PER_UNIT: u64 = 64;

/// Binds `n` fragment servers, seeds them with `key`'s `(k, n)` stripe
/// (slot `s` on the key's rotated replica `(s + offset) % n`, matching
/// the client's placement), and returns them.
fn bind_striped_servers(
    key: &str,
    value: &[u8],
    k: usize,
    cfgs: &[TcpServerConfig],
) -> Vec<TcpServer<StripedBackend>> {
    let servers: Vec<_> = cfgs
        .iter()
        .map(|cfg| {
            TcpServer::bind(
                "127.0.0.1:0",
                StripedBackend::new(KvStore::new(), BYTES_PER_UNIT),
                *cfg,
            )
            .unwrap()
        })
        .collect();
    seed_stripe(&servers, key, value, k);
    servers
}

/// Stores `key`'s `(k, n)` stripe straight into the servers' stores.
fn seed_stripe(servers: &[TcpServer<StripedBackend>], key: &str, value: &[u8], k: usize) {
    let n = servers.len();
    let frags = erasure::encode_stripe(value, k, n).unwrap();
    let offset = erasure::placement_offset(key.as_bytes(), n);
    for (slot, frag) in frags.iter().enumerate() {
        servers[(slot + offset) % n].with_store(|s| {
            s.store_mut().execute(&Command::FSet(
                Bytes::copy_from_slice(key.as_bytes()),
                slot as u32,
                frag.clone(),
            ))
        });
    }
}

/// Plain striped round-trip, no hedging: put through the client, get
/// back byte-identical; a missing key reads as `Nil`.
#[test]
fn striped_put_get_roundtrip() {
    let cfg = TcpServerConfig::default();
    let servers: Vec<TcpServer<StripedBackend>> = (0..3)
        .map(|_| {
            TcpServer::bind(
                "127.0.0.1:0",
                StripedBackend::new(KvStore::new(), BYTES_PER_UNIT),
                cfg,
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let client = StripedClient::connect(
        &addrs,
        StripedConfig {
            k: 2,
            ..StripedConfig::default()
        },
    )
    .unwrap();

    let value: Vec<u8> = (0..10_007u32).map(|i| (i % 251) as u8).collect();
    client.put_blocking(b"stripe:alpha", &value).unwrap();
    let got = client
        .execute_blocking(Command::Get(Bytes::from_static(b"stripe:alpha")))
        .unwrap();
    assert_eq!(got, Reply::Str(Bytes::from(value)));

    let missing = client
        .execute_blocking(Command::Get(Bytes::from_static(b"stripe:absent")))
        .unwrap();
    assert_eq!(missing, Reply::Nil);

    let stats = client.stats();
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.reissues, 0, "no policy, no reissues");
    assert_eq!(stats.errors, 0);
}

/// The tentpole acceptance scenario: `k = 2, n = 4`, the server for
/// data slot 1 stalled behind a byte-expensive blocker. The `(d, q)`
/// timer fires on the straggling fragment, the parity reissue (slot 2)
/// completes the stripe, the straggler is retracted in time by the
/// client's `CANCEL`, and the censored pair is booked.
#[test]
fn stalled_fragment_completes_via_parity_and_books_censored_pair() {
    let k = 2;
    let n = 4;
    let fast = TcpServerConfig::default();
    // Data slot 1's server burns real wall-clock per cost unit, so the
    // blocker below occupies it for ~0.5 s while everything it queues
    // behind stays retractable. Placement is rotated per key, so first
    // resolve which physical server holds slot 1 for this key.
    let slow = TcpServerConfig {
        nanos_per_op: 30_000,
        ..TcpServerConfig::default()
    };
    let slow_idx = (1 + erasure::placement_offset(b"stripe:hot", n)) % n;
    let mut cfgs = vec![fast; n];
    cfgs[slow_idx] = slow;
    let value: Vec<u8> = (0..60_000u32).map(|i| (i % 249) as u8).collect();
    let servers = bind_striped_servers("stripe:hot", &value, k, &cfgs);
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();

    // Stall slot 1: a ~1 MiB value read costs ~16 385 units × 30 µs
    // ≈ 0.5 s of burn. Sent on its own connection; the reply is never
    // read (the socket just holds the server busy).
    servers[slow_idx].with_store(|s| {
        s.store_mut().execute(&Command::Set(
            Bytes::from_static(b"blocker"),
            Bytes::from(vec![0xBBu8; 1 << 20]),
        ))
    });
    let mut blocker = TcpStream::connect(addrs[slow_idx]).unwrap();
    let mut frame = BytesMut::new();
    encode_command(&Command::Get(Bytes::from_static(b"blocker")), &mut frame);
    blocker.write_all(&frame).unwrap();
    // Give the blocker time to reach the head of the queue and start
    // executing before the fragment read arrives behind it.
    std::thread::sleep(Duration::from_millis(60));

    let client = StripedClient::connect(
        &addrs,
        StripedConfig {
            k,
            policy: ReissuePolicy::single_r(5.0, 1.0),
            ..StripedConfig::default()
        },
    )
    .unwrap();

    let started = Instant::now();
    let got = client
        .execute_blocking(Command::Get(Bytes::from_static(b"stripe:hot")))
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(got, Reply::Str(Bytes::from(value)), "decode must be exact");
    assert!(
        elapsed < Duration::from_millis(400),
        "hedged stripe should complete via parity long before the \
         blocker drains (~0.5 s); took {elapsed:?}"
    );

    let stats = client.stats();
    assert_eq!(stats.queries, 1);
    assert_eq!(stats.reissues, 1, "exactly one parity reissue");
    assert_eq!(stats.reissue_wins, 1, "the parity fragment closed the race");
    assert_eq!(
        stats.decodes_with_parity, 1,
        "the decode used the parity equation for the stalled slot"
    );
    assert_eq!(stats.errors, 0);

    // The straggler's retraction and the pair booking are async (the
    // loser drains on the runtime): poll for them.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = client.stats();
        if s.pairs_censored == 1 && s.cancelled_in_time >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "straggler retraction never booked: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The stalled server must have retracted the fragment rather than
    // serving it: only the blocker's GET ever executed there.
    assert_eq!(
        servers[slow_idx].stats().commands,
        1,
        "slot 1's FGET must be retracted, not served"
    );
}

/// 200 sequential reads under `single_r(0, 1)`: every read sends two
/// copies, answers with the stored value, and once the losers have
/// drained every copy is accounted for. A copy either started service
/// on its server (`commands`, which includes the ones then stopped
/// there, `aborted`) or was retracted (`cancelled_in_time`, which
/// includes the same stopped ones).
fn assert_one_reissue_per_read<B: Backend>(
    client: &impl LoadClient,
    cancelled_in_time_and_errors: impl Fn() -> (u64, u64),
    servers: &[TcpServer<B>],
    key: &'static str,
    value: &[u8],
) {
    let served = || -> (u64, u64) {
        let stats = servers.iter().map(|s| s.stats());
        stats.fold((0, 0), |(c, a), s| (c + s.commands, a + s.aborted))
    };
    let (commands_before, aborted_before) = served();
    let rt = client.load_runtime();
    for _ in 0..200 {
        let get = Command::Get(Bytes::from_static(key.as_bytes()));
        let got = rt.block_on(client.load_execute(get)).unwrap();
        assert_eq!(got, Reply::Str(Bytes::copy_from_slice(value)));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.live_tasks() > 0 {
        assert!(Instant::now() < deadline, "losers never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (queries, reissues) = client.load_counters();
    let (cancelled_in_time, errors) = cancelled_in_time_and_errors();
    assert_eq!((queries, reissues, errors), (200, 200, 0));
    let (commands, aborted) = served();
    assert_eq!(
        (commands - commands_before) + cancelled_in_time - (aborted - aborted_before),
        queries + reissues,
        "commands {commands_before}->{commands}, aborted {aborted_before}->{aborted}, \
         cancelled in time {cancelled_in_time}"
    );
}

/// A `(1, n)` stripe books like replica hedging: the same engine runs
/// both, so the same policy over the same number of replicas gives the
/// same accounting.
#[test]
fn one_of_n_stripe_books_like_replica_hedging() {
    let policy = ReissuePolicy::single_r(0.0, 1.0);
    let value = vec![0x5Au8; 300];

    let mut store = KvStore::new();
    store.execute(&Command::Set("k".into(), Bytes::from(value.clone())));
    let replicas = hedge::spawn_replicas(3, &store, TcpServerConfig::default()).unwrap();
    let addrs: Vec<_> = replicas.iter().map(|s| s.local_addr()).collect();
    let hedged = HedgedClient::connect(
        &addrs,
        HedgeConfig {
            policy: policy.clone(),
            ..HedgeConfig::default()
        },
    )
    .unwrap();
    let counts = || {
        let s = hedged.stats();
        (s.cancelled_in_time, s.errors)
    };
    assert_one_reissue_per_read(&hedged, counts, &replicas, "k", &value);

    let fragment_servers = bind_striped_servers("k", &value, 1, &[TcpServerConfig::default(); 3]);
    let addrs: Vec<_> = fragment_servers.iter().map(|s| s.local_addr()).collect();
    let striped = StripedClient::connect(
        &addrs,
        StripedConfig {
            k: 1,
            policy,
            ..StripedConfig::default()
        },
    )
    .unwrap();
    let counts = || {
        let s = striped.stats();
        (s.cancelled_in_time, s.errors)
    };
    assert_one_reissue_per_read(&striped, counts, &fragment_servers, "k", &value);
}

/// The nothing-in-flight rescue: with one data replica gone its
/// fragment read fails fast, the other answers, and the stripe is
/// neither decodable nor waiting on anything. The 50 ms stage is then
/// dispatched at once and the read decodes through parity.
#[test]
fn dead_data_replica_is_rescued_through_parity() {
    let (k, n) = (2, 4);
    let value: Vec<u8> = (0..5_000u32).map(|i| (i % 253) as u8).collect();
    let servers = bind_striped_servers("stripe:r", &value, k, &[TcpServerConfig::default(); 4]);
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let client = StripedClient::connect(
        &addrs,
        StripedConfig {
            k,
            policy: ReissuePolicy::single_r(50.0, 1.0),
            ..StripedConfig::default()
        },
    )
    .unwrap();
    servers[(1 + erasure::placement_offset(b"stripe:r", n)) % n].shutdown();

    let got = client
        .execute_blocking(Command::Get(Bytes::from_static(b"stripe:r")))
        .unwrap();
    assert_eq!(got, Reply::Str(Bytes::from(value)));
    let stats = client.stats();
    assert_eq!(
        (stats.reissues, stats.decodes_with_parity, stats.errors),
        (1, 1, 0),
        "{stats:?}"
    );
}

/// The first `count` keys `{prefix}{i}` of a `(2, 4)` group with a data
/// slot on replica 0 (slot 0 there at offset 0, slot 1 at offset 3).
fn keys_with_data_on_replica_zero(prefix: &str, count: usize) -> Vec<String> {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .filter(|key| [0, 3].contains(&erasure::placement_offset(key.as_bytes(), 4)))
        .take(count)
        .collect()
}

/// Servers, client, and the `(key, value)` stripes stored.
type BusyGroup = (
    Vec<TcpServer<StripedBackend>>,
    StripedClient,
    Vec<(String, Vec<u8>)>,
);

/// A `(2, 4)` group holding four stripes with a data slot on replica 0,
/// and a client that has a ~1 s read outstanding there: a blocker sent
/// *through the client*, so the client's own count for that replica is
/// 1 while it burns. (A pass-through command goes to the replica with
/// the fewest outstanding, round robin from replica 0 on a new client.)
fn group_with_replica_zero_busy(policy: ReissuePolicy) -> BusyGroup {
    let mut cfgs = [TcpServerConfig::default(); 4];
    cfgs[0].nanos_per_op = 60_000;
    let stored: Vec<(String, Vec<u8>)> = keys_with_data_on_replica_zero("stripe:b", 4)
        .into_iter()
        .enumerate()
        .map(|(i, key)| (key, (0..900u32).map(|b| (b + i as u32) as u8).collect()))
        .collect();
    let servers = bind_striped_servers(&stored[0].0, &stored[0].1, 2, &cfgs);
    for (key, value) in &stored[1..] {
        seed_stripe(&servers, key, value, 2);
    }
    // 1 MiB at 64 bytes per unit and 60 us per unit: ~1 s of burn.
    let big = Command::FSet("blocker".into(), 0, Bytes::from(vec![0xBB; 1 << 20]));
    servers[0].with_store(|s| s.store_mut().execute(&big));

    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let client = StripedClient::connect(
        &addrs,
        StripedConfig {
            k: 2,
            policy,
            ..StripedConfig::default()
        },
    )
    .unwrap();
    // Detached: the read resolves when the burn ends or the server goes.
    let blocker = client.execute(Command::FGet("blocker".into(), 0));
    client.runtime().spawn(blocker);
    let deadline = Instant::now() + Duration::from_secs(5);
    while servers[0].stats().commands == 0 {
        assert!(
            Instant::now() < deadline,
            "the blocker never reached replica 0"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    (servers, client, stored)
}

/// Load-aware first wave: while the client has a request outstanding
/// at a data replica, reads of the keys placed on it take a parity
/// slot instead and never send that replica a fragment.
#[test]
fn busy_data_replica_is_left_out_of_the_first_wave() {
    let (servers, client, stored) = group_with_replica_zero_busy(ReissuePolicy::None);
    for (key, value) in stored.iter().cycle().take(50) {
        let got = client
            .execute_blocking(Command::Get(Bytes::from(key.clone())))
            .unwrap();
        assert_eq!(got, Reply::Str(Bytes::from(value.clone())));
    }
    let stats = client.stats();
    assert_eq!(
        (stats.decodes_with_parity, stats.reissues, stats.errors),
        (50, 0, 0),
        "{stats:?}"
    );
    assert_eq!(
        servers[0].stats().commands,
        1,
        "replica 0 served the blocker and nothing else"
    );
}

/// Any `k` of `n`: with the client's own long read outstanding at
/// *both* data replicas of a key, an unhedged read is the two parity
/// slots. It answers from them while both data servers are still
/// burning, and neither is sent a fragment.
#[test]
fn both_data_replicas_busy_reads_from_the_two_parity_slots() {
    let (k, n) = (2, 4);
    let key = "stripe:pinned";
    let offset = erasure::placement_offset(key.as_bytes(), n);
    // A blocker stripe placed like the key: its data slots are on the
    // key's two data replicas.
    let blocker = (0..)
        .map(|i| format!("blocker:{i}"))
        .find(|b| erasure::placement_offset(b.as_bytes(), n) == offset)
        .unwrap();
    let data_replicas = [offset % n, (1 + offset) % n];
    let mut cfgs = [TcpServerConfig::default(); 4];
    for replica in data_replicas {
        // A 512 KiB fragment at 64 bytes per unit and 120 us per unit:
        // ~1 s of burn.
        cfgs[replica].nanos_per_op = 120_000;
    }
    let value: Vec<u8> = (0..9_001u32).map(|i| (i % 239) as u8).collect();
    let servers = bind_striped_servers(key, &value, k, &cfgs);
    seed_stripe(&servers, &blocker, &vec![0xBB; 1 << 20], k);
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let client = StripedClient::connect(
        &addrs,
        StripedConfig {
            k,
            ..StripedConfig::default()
        },
    )
    .unwrap();

    // An idle group reads the data slots: the blocker's wave is the two
    // data replicas. Detached; it resolves when the burns end or the
    // servers go.
    let rt = client.runtime();
    rt.spawn(client.execute(Command::Get(Bytes::from(blocker))));
    let burning = || data_replicas.map(|r| servers[r].stats().commands);
    let deadline = Instant::now() + Duration::from_secs(5);
    while burning() != [1, 1] {
        assert!(
            Instant::now() < deadline,
            "the blocker's wave: {:?}",
            burning()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    for _ in 0..20 {
        let got = client
            .execute_blocking(Command::Get(Bytes::from_static(key.as_bytes())))
            .unwrap();
        assert_eq!(got, Reply::Str(Bytes::from(value.clone())));
    }
    let stats = client.stats();
    assert_eq!(
        (stats.queries, stats.decodes_with_parity, stats.reissues),
        (20, 20, 0),
        "20 reads done, the blocker still out: {stats:?}"
    );
    assert_eq!(stats.errors, 0);
    assert_eq!(burning(), [1, 1], "a busy data replica was sent a fragment");
    for replica in data_replicas {
        assert_eq!(servers[replica].stats().aborted, 0, "still in service");
    }
    servers.iter().for_each(TcpServer::shutdown);
}

/// A fragment server of one fragment, not a `TcpServer`: while
/// `failing` it closes every connection at the first command,
/// unanswered; otherwise it answers any `FGET` with its fragment and
/// anything else with an error. Same listener throughout, so healing
/// does not change the address.
struct FakeFragmentServer {
    addr: SocketAddr,
    failing: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    answered: Arc<AtomicU64>,
    acceptor: std::thread::JoinHandle<()>,
}

impl FakeFragmentServer {
    fn spawn(fragment: Bytes, failing: bool) -> FakeFragmentServer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let failing = Arc::new(AtomicBool::new(failing));
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
                    let fragment = fragment.clone();
                    conns.push(std::thread::spawn(move || {
                        serve_fragment(sock, &fragment, &failing, &answered)
                    }));
                }
                for conn in conns {
                    conn.join().unwrap();
                }
            })
        };
        FakeFragmentServer {
            addr,
            failing,
            stop,
            answered,
            acceptor,
        }
    }

    fn answered(&self) -> u64 {
        self.answered.load(Ordering::SeqCst)
    }

    /// Ends the accept loop and joins every connection thread; call
    /// after the client is dropped, so their reads see the close.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // wake `incoming`
        self.acceptor.join().unwrap();
    }
}

fn serve_fragment(
    mut sock: TcpStream,
    fragment: &Bytes,
    failing: &AtomicBool,
    answered: &AtomicU64,
) {
    let mut buf = BytesMut::new();
    let mut chunk = [0u8; 4096];
    let mut out = BytesMut::new();
    loop {
        match sock.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
        while let Ok(Some(cmd)) = decode_command(&mut buf) {
            if failing.load(Ordering::SeqCst) {
                return; // dropped with the request unanswered
            }
            let reply = match cmd {
                Command::FGet(..) => Reply::Str(fragment.clone()),
                _ => Reply::Error("ERR a fake of one fragment".into()),
            };
            out.clear();
            encode_reply(&reply, &mut out);
            if sock.write_all(&out).is_err() {
                return;
            }
            answered.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// A `(2, 4)` group of three real fragment servers and a fake one at
/// the replica that holds `slot` of `key`, and an unhedged client.
fn group_with_a_fake_at_slot(
    key: &str,
    value: &[u8],
    slot: usize,
    failing: bool,
) -> (
    Vec<TcpServer<StripedBackend>>,
    FakeFragmentServer,
    StripedClient,
) {
    let (k, n) = (2, 4);
    let servers = bind_striped_servers(key, value, k, &[TcpServerConfig::default(); 4]);
    let fragment = erasure::encode_stripe(value, k, n)
        .unwrap()
        .swap_remove(slot);
    let fake = FakeFragmentServer::spawn(fragment, failing);
    let fake_idx = (slot + erasure::placement_offset(key.as_bytes(), n)) % n;
    let mut addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    addrs[fake_idx] = fake.addr;
    let cfg = StripedConfig {
        k,
        ..StripedConfig::default()
    };
    let client = StripedClient::connect(&addrs, cfg).unwrap();
    (servers, fake, client)
}

/// The starvation "the `k` best of `n`" would leave, and its cure. A
/// fragment replica that fails fast is demoted behind the other three,
/// which is right while it is down; an unhedged, read-only client
/// would then never read it again (without the probe this test reads
/// `answered == 0` after the heal, every read decoding around the
/// healthy replica). One read in sixteen ranks the failing replica
/// first, as `pick_primary` does: answered probes decay its error
/// EWMA and it gets its slot back.
#[test]
fn demoted_fragment_replica_is_probed_and_readmitted() {
    let key = "stripe:probe";
    let value: Vec<u8> = (0..3_000u32).map(|i| (i % 241) as u8).collect();
    // Data slot 0: an idle group reads it, so the outage is noticed.
    let (servers, fake, client) = group_with_a_fake_at_slot(key, &value, 0, true);
    let reads = |count: usize| -> usize {
        let read = || client.execute_blocking(Command::Get(Bytes::from_static(key.as_bytes())));
        let replies = (0..count).map(|_| read());
        let failed = replies.filter(|reply| match reply {
            Ok(reply) => {
                assert_eq!(*reply, Reply::Str(Bytes::from(value.clone())));
                false
            }
            Err(_) => true,
        });
        failed.count()
    };

    // Failing: unhedged, so a read with the dead replica in its wave is
    // an error. That is the first seven (until the error EWMA passes
    // one half) and then the probes, one read in 16; every other read
    // decodes from the other three replicas.
    let failed = reads(64);
    assert_eq!(client.stats().errors, failed as u64);
    assert_eq!(fake.answered(), 0);
    assert!(
        (1..=20).contains(&failed),
        "{failed} of 64 reads had the failing replica in their wave"
    );

    // Healed: nothing but the probe would ever ask it again.
    fake.failing.store(false, Ordering::SeqCst);
    let failed = reads(400);
    let answered = fake.answered();
    eprintln!("healed replica answered {answered} of the next 400 reads");
    assert_eq!(failed, 0, "a healed replica answers");
    assert!(
        answered > 100,
        "the healed replica served {answered} of 400 reads: still demoted"
    );

    drop(client);
    fake.stop();
    servers.iter().for_each(TcpServer::shutdown);
}

/// A striped `SET` is one write wave: all `n` `FSET`s are on the wire
/// before the first acknowledgement is awaited, so it takes about one
/// server's burn, not `n` of them in a row.
#[test]
fn striped_set_is_one_write_wave() {
    // A 6 400-byte value is two 3 208-byte fragments of 51 units at 64
    // bytes per unit: ~200 ms of burn per `FSET` at 4 ms per unit.
    let cfg = TcpServerConfig {
        nanos_per_op: 4_000_000,
        ..TcpServerConfig::default()
    };
    let servers = bind_striped_servers("unused", b"", 2, &[cfg; 4]);
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let cfg = StripedConfig {
        k: 2,
        ..StripedConfig::default()
    };
    let client = StripedClient::connect(&addrs, cfg).unwrap();
    let value: Vec<u8> = (0..6_400u32).map(|i| (i % 233) as u8).collect();

    let started = Instant::now();
    let rt = client.runtime();
    let set = Command::Set("stripe:wave".into(), Bytes::from(value.clone()));
    let write = rt.spawn(client.execute(set));
    // Every server has its fragment in service (`commands` counts at
    // service start) well inside the first one's burn; one round trip
    // at a time, the last would start three burns in.
    let in_service = || -> Vec<u64> { servers.iter().map(|s| s.stats().commands).collect() };
    while in_service() != [1, 1, 1, 1] {
        assert!(
            started.elapsed() < Duration::from_millis(150),
            "150 ms into the write: {:?}",
            in_service()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(rt.block_on(write).unwrap(), Reply::Ok);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(600),
        "four ~200 ms burns side by side, not in a row: {elapsed:?}"
    );

    for s in &servers {
        s.set_nanos_per_op(0);
    }
    let got = client.execute_blocking(Command::Get("stripe:wave".into()));
    assert_eq!(got.unwrap(), Reply::Str(Bytes::from(value)));
}

/// The acknowledgements are awaited in slot order, so when several
/// replicas refuse their fragment the error returned is the lowest
/// slot's, as it was when the write went one round trip at a time.
#[test]
fn striped_set_returns_the_first_error_in_slot_order() {
    let key = "stripe:refused";
    let offset = erasure::placement_offset(key.as_bytes(), 4);
    let servers = bind_striped_servers(key, b"", 2, &[TcpServerConfig::default(); 4]);
    // Fakes (which answer `FSET` with an error) at slots 3 and 1.
    let fakes = [3, 1].map(|_| FakeFragmentServer::spawn(Bytes::new(), false));
    let mut addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    addrs[(3 + offset) % 4] = fakes[0].addr;
    addrs[(1 + offset) % 4] = fakes[1].addr;
    let cfg = StripedConfig {
        k: 2,
        ..StripedConfig::default()
    };
    let client = StripedClient::connect(&addrs, cfg).unwrap();

    let err = client
        .put_blocking(key.as_bytes(), b"some value")
        .unwrap_err();
    assert!(
        matches!(&err, hedge::TransportError::Protocol(why) if why.starts_with("FSET slot 1 ")),
        "{err:?}"
    );
    // The whole wave went out all the same.
    let deadline = Instant::now() + Duration::from_secs(5);
    while fakes.iter().map(|f| f.answered()).sum::<u64>() < 2 {
        assert!(Instant::now() < deadline, "slot 3's FSET never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }

    drop(client);
    fakes.into_iter().for_each(FakeFragmentServer::stop);
    servers.iter().for_each(TcpServer::shutdown);
}

/// A key that was never written answers `Nil` from whichever `k` slots
/// the wave asked, a parity slot included: no reissue, no error.
#[test]
fn absent_key_reads_nil_with_a_parity_slot_in_the_wave() {
    for policy in [ReissuePolicy::None, ReissuePolicy::single_r(50.0, 1.0)] {
        let (servers, client, _) = group_with_replica_zero_busy(policy);
        let absent = keys_with_data_on_replica_zero("absent:", 1).remove(0);
        let got = client
            .execute_blocking(Command::Get(Bytes::from(absent)))
            .unwrap();
        assert_eq!(got, Reply::Nil);
        let stats = client.stats();
        assert_eq!((stats.reissues, stats.errors), (0, 0), "{stats:?}");
        assert_eq!(servers[0].stats().commands, 1, "the wave went around");
    }
}

/// The hold: with both of a read's fragments slow, the 1 ms stage
/// cannot be the decoding fragment (nothing is in hand), so it waits
/// for the first of them instead of occupying a parity server.
#[test]
fn reissue_waits_while_no_fragment_is_in_hand() {
    let (k, n) = (2, 4);
    let key = "stripe:slow";
    let offset = erasure::placement_offset(key.as_bytes(), n);
    // A 30 000-byte fragment is 469 units: ~200 ms at 430 us each.
    let slow = TcpServerConfig {
        nanos_per_op: 430_000,
        ..TcpServerConfig::default()
    };
    let mut cfgs = [TcpServerConfig::default(); 4];
    cfgs[offset % n] = slow;
    cfgs[(1 + offset) % n] = slow;
    let value: Vec<u8> = (0..60_000u32).map(|i| (i % 247) as u8).collect();
    let servers = bind_striped_servers(key, &value, k, &cfgs);
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let client = StripedClient::connect(
        &addrs,
        StripedConfig {
            k,
            policy: ReissuePolicy::single_r(1.0, 1.0),
            ..StripedConfig::default()
        },
    )
    .unwrap();

    let rt = client.runtime();
    let read = rt.spawn(client.execute(Command::Get(Bytes::from_static(key.as_bytes()))));
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(client.stats().reissues, 0, "the due stage is held");
    for parity_slot in k..n {
        let parity_server = &servers[(parity_slot + offset) % n];
        assert_eq!(parity_server.stats().commands, 0);
    }
    let got = rt.block_on(read).unwrap();
    assert_eq!(got, Reply::Str(Bytes::from(value)));
    let stats = client.stats();
    // The stage may go out once the first fragment lands.
    assert!(stats.reissues <= 1 && stats.errors == 0, "{stats:?}");
}

/// A `d = 0` stage is dispatched before the fragments are polled, so
/// the reissue count is the coin's head count exactly, however fast
/// the data fragments answer (the striped input of
/// `hedging.rs::reissue_rate_tracks_budget`).
#[test]
fn zero_delay_stage_fires_on_every_head() {
    let policy = ReissuePolicy::single_r(0.0, 0.2);
    let (seed, reads) = (42, 2_000);
    let value = vec![7u8; 128];
    let servers = bind_striped_servers("stripe:z", &value, 2, &[TcpServerConfig::default(); 3]);
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let client = StripedClient::connect(
        &addrs,
        StripedConfig {
            k: 2,
            policy: policy.clone(),
            seed,
            ..StripedConfig::default()
        },
    )
    .unwrap();
    for _ in 0..reads {
        let got = client
            .execute_blocking(Command::Get(Bytes::from_static(b"stripe:z")))
            .unwrap();
        assert_eq!(got, Reply::Str(Bytes::from(value.clone())));
    }
    let mut coin = SmallRng::seed_from_u64(seed);
    let heads = (0..reads)
        .filter(|_| !policy.sample_schedule(&mut coin).is_empty())
        .count();
    assert_eq!(client.stats().reissues, heads as u64);
}

/// The engine's attempt table is inline; a stripe wider than it is
/// refused at connect time, before any socket is opened.
#[test]
fn stripe_wider_than_the_attempt_table_is_rejected() {
    let addrs = vec!["127.0.0.1:1".parse().unwrap(); hedge::race::MAX_ATTEMPTS + 1];
    let err = StripedClient::connect(&addrs, StripedConfig::default())
        .err()
        .expect("ten replicas must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// The race engine arms one reissue stage: both of its clients refuse
/// a `MultipleR` policy at connect time, before any socket is opened
/// (nothing listens on port 1, so a dial would fail differently).
#[test]
fn multiple_r_policy_is_rejected() {
    let policy = ReissuePolicy::multiple_r(vec![(1.0, 0.5), (2.0, 0.5)]);
    let addrs = vec!["127.0.0.1:1".parse().unwrap(); 3];
    let striped = StripedConfig {
        policy: policy.clone(),
        ..StripedConfig::default()
    };
    let hedged = HedgeConfig {
        policy,
        ..HedgeConfig::default()
    };
    for err in [
        StripedClient::connect(&addrs, striped).err(),
        HedgedClient::connect(&addrs, hedged).err(),
    ] {
        let err = err.expect("MultipleR must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
