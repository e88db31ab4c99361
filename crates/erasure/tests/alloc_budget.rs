//! Allocation budget of one striped read, held in tier-1 (the sibling
//! of `crates/hedge/tests/alloc_budget.rs`, which explains the method).
//! A `(k = 2, n = 4)` read of an 8 KiB value over loopback: two `FGET`
//! attempts end to end, the armed (not fired) schedule, the slot
//! tables, the decode.

use bytes::Bytes;
use erasure::{StripedBackend, StripedClient, StripedConfig};
use hedge::{TcpServer, TcpServerConfig};
use kvstore::{Command, KvStore, Reply};
use reissue_core::policy::ReissuePolicy;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

#[test]
fn striped_8k_read_stays_within_twenty_allocations() {
    const K: usize = 2;
    const N: usize = 4;
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
    let key = Bytes::from_static(b"stripe:8k");
    let value: Vec<u8> = (0..8 * 1024).map(|i| (i % 251) as u8).collect();
    client.put_blocking(&key, &value).unwrap();

    let read = || {
        let reply = client.execute_blocking(Command::Get(key.clone())).unwrap();
        assert!(matches!(reply, Reply::Str(v) if v.len() == value.len()));
    };
    for _ in 0..300 {
        read();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    const ROUNDS: u64 = 500;
    for _ in 0..ROUNDS {
        read();
    }
    let per_read = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / ROUNDS as f64;
    println!("striped 8 KiB read: {per_read:.2} allocations");
    assert_eq!(client.stats().reissues, 0, "the 50 ms stage must not fire");
    assert!(
        per_read <= 20.0,
        "one striped 8 KiB read allocates {per_read:.2} (budget 20)"
    );
    drop(client);
    for s in &servers {
        s.shutdown();
    }
}
