//! Allocation and idle-CPU budgets of the request path, held in
//! tier-1: what a request may allocate between the client cell and the
//! server sweeper, and what a server with nothing to do may burn.
//!
//! Counts come from a counting `#[global_allocator]` local to this
//! test binary, so they cover every thread in the process — client
//! task, connection I/O thread, server reader and sweeper alike. The
//! tests serialize on one lock: a concurrent test would allocate into
//! (and burn CPU during) another's window.

use hedge::{CancelToken, HedgeConfig, HedgedClient, Replica, Runtime, TcpServer, TcpServerConfig};
use kvstore::{Command, KvStore, Reply};
use reissue_core::policy::ReissuePolicy;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const WARMUP: usize = 300;
const ROUNDS: usize = 1_000;

/// Mean allocations per call of `op`, process-wide, after a warm-up
/// that lets pooled buffers, run queues and timer queues reach their
/// steady capacity.
fn allocs_per_call(mut op: impl FnMut()) -> f64 {
    for _ in 0..WARMUP {
        op();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        op();
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / ROUNDS as f64
}

fn server_with_key() -> TcpServer {
    let mut store = KvStore::new();
    store.execute(&Command::Set("greeting".into(), vec![b'v'; 64].into()));
    TcpServer::bind("127.0.0.1:0", store, TcpServerConfig::default()).unwrap()
}

fn client(server: &TcpServer, policy: ReissuePolicy) -> HedgedClient {
    HedgedClient::connect(
        &[server.local_addr()],
        HedgeConfig {
            policy,
            pool_per_replica: 1,
            workers: 1,
            ..HedgeConfig::default()
        },
    )
    .unwrap()
}

fn get_allocs(client: &HedgedClient) -> f64 {
    let key: bytes::Bytes = "greeting".into();
    allocs_per_call(|| {
        let reply = client.execute_blocking(Command::Get(key.clone())).unwrap();
        assert!(matches!(reply, Reply::Str(_)));
    })
}

/// What `Runtime::block_on` itself allocates per call (its waker).
fn block_on_allocs(rt: &Runtime) -> f64 {
    allocs_per_call(|| rt.block_on(async {}))
}

#[test]
fn get_round_trip_allocates_for_its_payload_and_its_attempt() {
    let _serial = serial();
    let server = server_with_key();
    let unarmed = client(&server, ReissuePolicy::None);
    let per_get = get_allocs(&unarmed);
    println!("GET round trip: {per_get:.2} allocations");
    // The attempt cell, the key on the server, the value on the
    // client, `block_on`'s waker — and amortized queue blocks.
    assert!(
        per_get <= 5.0,
        "loopback GET allocates {per_get:.2} per round trip (budget 5)"
    );

    // A schedule that is armed and never fires (50 ms against a ~50 µs
    // round trip) must cost next to nothing: the 94% of requests that
    // never reissue pay for the mechanism otherwise.
    let armed = client(&server, ReissuePolicy::single_r(50.0, 1.0));
    let per_armed_get = get_allocs(&armed);
    println!("armed, not fired: {per_armed_get:.2} allocations");
    assert_eq!(armed.stats().reissues, 0, "the 50 ms stage must not fire");
    assert!(
        per_armed_get - per_get <= 1.0,
        "arming a schedule adds {:.2} allocations ({per_armed_get:.2} vs {per_get:.2}; budget 1)",
        per_armed_get - per_get
    );
    drop((unarmed, armed));
    server.shutdown();
}

#[test]
fn spawn_allocates_the_future_and_the_task() {
    let _serial = serial();
    let rt = Runtime::new(1);
    let per_spawn = allocs_per_call(|| {
        drop(rt.spawn(async {}));
        while rt.live_tasks() > 0 {
            std::thread::yield_now();
        }
    });
    println!("spawn: {per_spawn:.2} allocations");
    assert!(
        per_spawn <= 2.0,
        "spawn allocates {per_spawn:.2} (budget 2)"
    );
}

#[test]
fn token_and_wire_registration_are_one_allocation() {
    let _serial = serial();
    let server = server_with_key();
    let replica = Replica::connect(server.local_addr(), 1).unwrap();
    let rt = Runtime::new(1);
    let overhead = block_on_allocs(&rt);
    // PING carries no byte strings either way, so what is left after
    // `block_on`'s own waker is the attempt plumbing alone: the cell,
    // its queueing, its wire registration, its reply slot.
    let per_ping = allocs_per_call(|| {
        let reply = rt.block_on(replica.request(Command::Ping, CancelToken::new()));
        assert_eq!(reply, Ok(Reply::Pong));
    });
    println!("PING attempt: {per_ping:.2} allocations, block_on alone {overhead:.2}");
    assert!(
        per_ping - overhead <= 1.0 + 0.1,
        "a wire attempt allocates {:.2} beyond block_on ({per_ping:.2} - {overhead:.2}; budget 1)",
        per_ping - overhead
    );
    drop(replica);
    server.shutdown();
}

/// This process's CPU time so far (user + system), from
/// `/proc/self/stat`; `None` where that file does not exist.
fn process_cpu() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th overall, in clock ticks (100 per second on
    // every Linux this runs on).
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 10))
}

#[test]
fn idle_servers_cost_no_cpu_and_still_shut_down_promptly() {
    let _serial = serial();
    let servers: Vec<TcpServer> = (0..4)
        .map(|_| {
            TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default()).unwrap()
        })
        .collect();
    if let Some(before) = process_cpu() {
        std::thread::sleep(Duration::from_secs(1));
        let burned = process_cpu().expect("stat was readable a second ago") - before;
        println!("4 idle servers: {burned:?} CPU in 1 s");
        assert!(
            burned < Duration::from_millis(20),
            "4 idle servers burned {burned:?} of CPU in 1 s (budget: 2% of one core)"
        );
    }
    // A sweeper parked on its condvar must still hear `shutdown`.
    for server in &servers {
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "shutdown took {:?}",
            t0.elapsed()
        );
    }
}
