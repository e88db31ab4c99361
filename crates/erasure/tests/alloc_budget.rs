//! Allocation budget of one striped read, held in tier-1 (the sibling
//! of `crates/hedge/tests/alloc_budget.rs`, which explains the method).
//! A `(k = 2, n = 4)` read of an 8 KiB value over loopback: two `FGET`
//! attempts end to end, the armed (not fired) schedule, the slot
//! tables, the decode: of the two data fragments, and of one data
//! fragment and a parity clone.

use bytes::Bytes;
use erasure::{StripedBackend, StripedClient, StripedConfig};
use hedge::{TcpServer, TcpServerConfig};
use kvstore::{Command, KvStore, Reply};
use reissue_core::policy::ReissuePolicy;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the only
// addition is a relaxed counter increment, which allocates nothing and
// cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl-level comment.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl-level comment.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl-level comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is the process's: one measurement at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Allocations per read of an 8 KiB `(2, 4)` stripe, over 500 reads.
/// With `busy_data_replica` the client has a multi-second read of its
/// own outstanding at one of the key's data replicas (a pass-through
/// `FGET`, which a new client sends to replica 0), so every first wave
/// takes the parity clone and every decode rebuilds a stripe.
fn allocations_per_read(busy_data_replica: bool) -> f64 {
    const K: usize = 2;
    const N: usize = 4;
    let _alone = ONE_AT_A_TIME.lock().unwrap();
    let servers: Vec<TcpServer<StripedBackend>> = (0..N)
        .map(|_| {
            TcpServer::bind(
                "127.0.0.1:0",
                StripedBackend::new(KvStore::new(), 64),
                TcpServerConfig::default(),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let client = StripedClient::connect(
        &addrs,
        StripedConfig {
            k: K,
            // Armed on every read, never due: the 50 ms stage is three
            // orders of magnitude past a loopback fragment read.
            policy: ReissuePolicy::single_r(50.0, 1.0),
            pool_per_replica: 1,
            workers: 1,
            ..StripedConfig::default()
        },
    )
    .unwrap();
    // Data slot 1 of this key is on replica 0.
    let key = Bytes::from_static(b"stripe:8k");
    assert_eq!((1 + erasure::placement_offset(&key, N)) % N, 0);
    let value: Vec<u8> = (0..8 * 1024).map(|i| (i % 251) as u8).collect();
    client.put_blocking(&key, &value).unwrap();

    if busy_data_replica {
        // 1 MiB at 64 bytes per unit and 300 us per unit: the 5 s cap
        // on one service burn. Shutdown interrupts it.
        let big = Command::FSet("blocker".into(), 0, Bytes::from(vec![0xBB; 1 << 20]));
        servers[0].with_store(|s| s.store_mut().execute(&big));
        servers[0].set_nanos_per_op(300_000);
        let served = servers[0].stats().commands;
        let blocker = client.execute(Command::FGet("blocker".into(), 0));
        client.runtime().spawn(blocker);
        while servers[0].stats().commands == served {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    let read = || {
        let reply = client.execute_blocking(Command::Get(key.clone())).unwrap();
        assert!(matches!(reply, Reply::Str(v) if v.len() == value.len()));
    };
    for _ in 0..300 {
        read();
    }
    let before = (ALLOCATIONS.load(Ordering::Relaxed), client.stats());
    const ROUNDS: u64 = 500;
    for _ in 0..ROUNDS {
        read();
    }
    let per_read = (ALLOCATIONS.load(Ordering::Relaxed) - before.0) as f64 / ROUNDS as f64;
    let stats = client.stats();
    assert_eq!(stats.reissues, 0, "the 50 ms stage must not fire");
    assert_eq!(
        stats.decodes_with_parity - before.1.decodes_with_parity,
        if busy_data_replica { ROUNDS } else { 0 },
        "the wave the case is about"
    );
    drop(client);
    for s in &servers {
        s.shutdown();
    }
    per_read
}

#[test]
fn striped_8k_read_stays_within_twenty_allocations() {
    let per_read = allocations_per_read(false);
    println!("striped 8 KiB read: {per_read:.2} allocations");
    assert!(
        per_read <= 20.0,
        "one striped 8 KiB read allocates {per_read:.2} (budget 20)"
    );
}

/// The same budget with a parity clone in every first wave: the
/// missing stripe is rebuilt in place, not in a buffer of its own.
#[test]
fn parity_wave_read_stays_within_twenty_allocations() {
    let per_read = allocations_per_read(true);
    println!("striped 8 KiB read through parity: {per_read:.2} allocations");
    assert!(
        per_read <= 20.0,
        "one striped 8 KiB parity read allocates {per_read:.2} (budget 20)"
    );
}
