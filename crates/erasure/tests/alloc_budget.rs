//! Allocation budget of one striped read, held in tier-1 (the sibling
//! of `crates/hedge/tests/alloc_budget.rs`, which explains the method).
//! A `(k = 2, n = 4)` read of an 8 KiB value over loopback: two `FGET`
//! attempts end to end, the armed (not fired) schedule, the slot
//! tables, the decode: of the two data fragments, of one data fragment
//! and the XOR parity row, and of the two parity rows alone.

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

/// Allocations per read of an 8 KiB `(2, 4)` stripe, over 500 reads,
/// while the client has a multi-second read of its own outstanding at
/// `busy_data_replicas` of the key's two data replicas. One (a
/// pass-through `FGET`, which a new client sends to replica 0): every
/// first wave takes a parity slot and every decode rebuilds a stripe
/// by XOR. Two (a `GET` of a 1 MiB stripe placed like the key): every
/// wave is the two parity slots and every decode solves a 2 × 2
/// system.
fn allocations_per_read(busy_data_replicas: usize) -> f64 {
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

    // 512 KiB or more at 64 bytes per unit and 300 us per unit: seconds
    // of burn (5 s is the cap on one). Shutdown interrupts it.
    let huge = Bytes::from(vec![0xBB; 1 << 20]);
    let blocker = match busy_data_replicas {
        0 => None,
        1 => {
            let big = Command::FSet("blocker".into(), 0, huge);
            servers[0].with_store(|s| s.store_mut().execute(&big));
            Some(Command::FGet("blocker".into(), 0))
        }
        _ => {
            // Same rotation as the key: data slots on replicas 3 and 0,
            // which an idle group reads.
            let mut candidates = (0..).map(|i| Bytes::from(format!("blocker:{i}")));
            let blocker = candidates
                .find(|b| erasure::placement_offset(b, N) == erasure::placement_offset(&key, N))
                .unwrap();
            client.put_blocking(&blocker, &huge).unwrap();
            Some(Command::Get(blocker))
        }
    };
    if let Some(blocker) = blocker {
        let busy = &[0, 3][..busy_data_replicas];
        let served = || -> Vec<u64> { busy.iter().map(|&r| servers[r].stats().commands).collect() };
        let before = served();
        busy.iter()
            .for_each(|&r| servers[r].set_nanos_per_op(300_000));
        client.runtime().spawn(client.execute(blocker));
        while served()
            .iter()
            .zip(&before)
            .any(|(now, before)| now == before)
        {
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
        if busy_data_replicas > 0 { ROUNDS } else { 0 },
        "the wave the case is about"
    );
    drop(client);
    for s in &servers {
        s.shutdown();
    }
    per_read
}

/// Measured 9.2–9.3 in all three cases (11.2 before the decode took
/// the job's inline fragment table and kept its slot table on the
/// stack).
const BUDGET: f64 = 18.0;

#[test]
fn striped_8k_read_stays_within_budget() {
    let per_read = allocations_per_read(0);
    println!("striped 8 KiB read: {per_read:.2} allocations");
    assert!(
        per_read <= BUDGET,
        "one striped 8 KiB read allocates {per_read:.2} (budget {BUDGET})"
    );
}

/// The same budget with the XOR parity row in every first wave: the
/// missing stripe is rebuilt in place, not in a buffer of its own.
#[test]
fn parity_wave_read_stays_within_budget() {
    let per_read = allocations_per_read(1);
    println!("striped 8 KiB read through parity: {per_read:.2} allocations");
    assert!(
        per_read <= BUDGET,
        "one striped 8 KiB parity read allocates {per_read:.2} (budget {BUDGET})"
    );
}

/// And with no data fragment at all: the 2 × 2 inverse and the
/// multiplication rows are on the stack, both stripes are built in the
/// one output buffer.
#[test]
fn two_parity_slots_read_stays_within_budget() {
    let per_read = allocations_per_read(2);
    println!("striped 8 KiB read from two parity slots: {per_read:.2} allocations");
    assert!(
        per_read <= BUDGET,
        "one striped 8 KiB read from parity alone allocates {per_read:.2} (budget {BUDGET})"
    );
}
