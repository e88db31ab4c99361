//! Single layers timed in isolation, after the traced run, on inputs
//! sampled from the workload that just ran. Each number is the median
//! of several batches, so one preemption does not set it. These say
//! what a layer costs when nothing contends with it; the spans say
//! what it cost in the run.

use crate::measure::{metric, Metric};
use crate::stats::{median, quantile};
use crate::sut::{
    compute_optimal_single_r, compute_optimal_single_r_correlated, decode_command, decode_reply,
    decode_stripe, encode_command, encode_reply, encode_stripe, simulate, ArrivalProcess, Bytes,
    BytesMut, CancelToken, ClusterConfig, Command, Discipline, KaplanMeier, KvStore, LogHistogram,
    Obs, OnlineAdapter, OnlineConfig, QueueItem, ReissuePolicy, Replica, Reply, RunConfig, Runtime,
    TcpServer, TcpServerConfig, TraceService, WaitQueue,
};
use crate::workload::{Plan, CLIENT_WORKERS};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
/// Window the online adapter optimises over in the hedged workload.
const WINDOW: usize = 1_000;
const PAIRS: usize = 200;
const QUEUE_DEPTH: usize = 64;

/// Median over [`BATCHES`] batches of the time one call of `f` takes,
/// in ns, each batch being `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut per_call)
}

struct Queued {
    cost: f64,
    at: f64,
}

impl QueueItem for Queued {
    fn cost(&self) -> f64 {
        self.cost
    }
    fn enqueued_at(&self) -> f64 {
        self.at
    }
    fn is_reissue(&self) -> bool {
        false
    }
    fn connection(&self) -> usize {
        self.cost as usize % 12
    }
}

/// One push and one pop on a queue held at [`QUEUE_DEPTH`].
fn pushpop_ns(discipline: Discipline, costs: &[f64]) -> f64 {
    let mut queue = WaitQueue::new(discipline);
    let mut i = 0usize;
    let mut next = |queue: &mut WaitQueue<Queued>| {
        i += 1;
        queue.push(Queued {
            cost: costs[i % costs.len()],
            at: i as f64,
        });
        i as f64
    };
    for _ in 0..QUEUE_DEPTH {
        next(&mut queue);
    }
    ns_per_call(20_000, || {
        let now = next(&mut queue);
        black_box(queue.pop(now));
    })
}

/// Encodes `frames`, then measures decoding them one at a time with
/// `decode`. Each call stages the frame into the read buffer first, as
/// a socket read would, so the number includes that copy.
fn parse_ns<T>(
    frames: &[BytesMut],
    iters: usize,
    decode: impl Fn(&mut BytesMut) -> Option<T>,
) -> f64 {
    let mut i = 0usize;
    let mut buf = BytesMut::with_capacity(64 << 10);
    ns_per_call(iters, || {
        i += 1;
        buf.extend_from_slice(&frames[i % frames.len()]);
        black_box(decode(&mut buf).expect("a whole frame decodes"));
    })
}

/// The isolated-call metrics. `lat_ms` are end-to-end latencies of the
/// run (arrival order), `plan` its inputs.
pub fn isolated(plan: &Plan, lat_ms: &[f64]) -> Vec<Metric> {
    assert!(
        !lat_ms.is_empty(),
        "isolated calls need the run's latencies"
    );
    let window: Vec<f64> = lat_ms.iter().copied().cycle().take(WINDOW).collect();
    let pairs: Vec<(f64, f64)> = window
        .windows(2)
        .take(PAIRS)
        .map(|w| (w[0], w[1]))
        .collect();
    let mut out = Vec::new();

    // reissue_core: the optimisers and estimators the hedged client
    // runs under its policy mutex.
    let single = ns_per_call(20, || {
        black_box(compute_optimal_single_r(&window, &window, 0.99, 0.05));
    });
    out.push(metric("core.optimizer.single_r_us", single / 1e3, "us"));
    let correlated = ns_per_call(20, || {
        black_box(compute_optimal_single_r_correlated(
            &window, &pairs, 0.99, 0.05,
        ));
    });
    out.push(metric(
        "core.optimizer.correlated_us",
        correlated / 1e3,
        "us",
    ));
    let mut adapter = OnlineAdapter::new(OnlineConfig {
        k: 0.99,
        budget: 0.05,
        window: WINDOW,
        reoptimize_every: 250,
        learning_rate: 0.5,
        min_pairs: 48,
        load: None,
    });
    let mut i = 0usize;
    // Amortised: every 250th observation re-optimises.
    let observe = ns_per_call(2_000, || {
        i += 1;
        adapter.observe_primary(window[i % WINDOW]);
    });
    out.push(metric("core.online.observe_ns", observe, "ns"));
    let obs: Vec<Obs> = window
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            if i % 10 == 0 {
                Obs::Censored(v)
            } else {
                Obs::Exact(v)
            }
        })
        .collect();
    let km = ns_per_call(50, || {
        black_box(KaplanMeier::fit(&obs));
    });
    out.push(metric("core.censored.km_fit_us", km / 1e3, "us"));
    let costs: Vec<f64> = plan
        .units
        .iter()
        .take(4_096)
        .map(|&u| f64::from(u))
        .collect();
    for (name, discipline) in [
        ("core.discipline.fifo_pushpop_ns", Discipline::Fifo),
        (
            "core.discipline.round_robin_pushpop_ns",
            Discipline::RoundRobin { connections: 0 },
        ),
        (
            "core.discipline.shortest_burn_pushpop_ns",
            Discipline::ShortestBurn { boost: 1.0 },
        ),
    ] {
        out.push(metric(name, pushpop_ns(discipline, &costs), "ns"));
    }
    let mut hist = LogHistogram::latency_ms();
    let record = ns_per_call(100_000, || {
        i += 1;
        hist.record(window[i % WINDOW]);
    });
    black_box(&hist);
    out.push(metric("core.metrics.record_ns", record, "ns"));

    // kvstore: the wire codec on this workload's own frames, and the
    // store.
    let sample = plan.cmds.len().min(256);
    let (cmds, replies) = (&plan.cmds[..sample], &plan.expect[..sample]);
    let mut buf = BytesMut::with_capacity(2 << 20);
    let encode_cmd = ns_per_call(50_000, || {
        i += 1;
        buf.clear();
        encode_command(&cmds[i % sample], &mut buf);
        black_box(&buf);
    });
    out.push(metric("kvstore.resp.encode_cmd_ns", encode_cmd, "ns"));
    let frames = |encode: &dyn Fn(&mut BytesMut)| {
        let mut b = BytesMut::new();
        encode(&mut b);
        b
    };
    let cmd_frames: Vec<BytesMut> = cmds
        .iter()
        .map(|c| frames(&|b| encode_command(c, b)))
        .collect();
    let parse_cmd = parse_ns(&cmd_frames, 50_000, |b| {
        decode_command(b).expect("own frame parses")
    });
    out.push(metric("kvstore.resp.parse_cmd_ns", parse_cmd, "ns"));
    // The workload's ordinary replies; its rare 1 MiB one would make
    // this a memcpy benchmark.
    let small: Vec<&Reply> = replies
        .iter()
        .filter(|r| !matches!(r, Reply::Str(s) if s.len() > 64 << 10))
        .collect();
    let encode_rep = ns_per_call(50_000, || {
        i += 1;
        buf.clear();
        encode_reply(small[i % small.len()], &mut buf);
        black_box(&buf);
    });
    out.push(metric("kvstore.resp.encode_reply_ns", encode_rep, "ns"));
    let reply_frames: Vec<BytesMut> = small
        .iter()
        .map(|r| frames(&|b| encode_reply(r, b)))
        .collect();
    let parse_rep = parse_ns(&reply_frames, 50_000, |b| {
        decode_reply(b).expect("own frame parses")
    });
    out.push(metric("kvstore.resp.parse_reply_ns", parse_rep, "ns"));
    let value_8k = Bytes::from(vec![0xA5u8; 8 << 10]);
    let frame_8k = [frames(&|b| encode_reply(&Reply::Str(value_8k.clone()), b))];
    let parse_8k = parse_ns(&frame_8k, 20_000, |b| {
        decode_reply(b).expect("own frame parses")
    });
    out.push(metric("kvstore.resp.parse_reply_8k_ns", parse_8k, "ns"));

    let mut store = KvStore::new();
    let keys: Vec<Bytes> = (0..512).map(|k| Bytes::from(format!("k{k:04}"))).collect();
    for k in &keys {
        store.execute(&Command::Set(k.clone(), Bytes::from(vec![b'v'; 64])));
    }
    let gets: Vec<Command> = keys.iter().map(|k| Command::Get(k.clone())).collect();
    let get = ns_per_call(100_000, || {
        i += 1;
        black_box(store.execute(&gets[i % gets.len()]));
    });
    out.push(metric("kvstore.store.get_ns", get, "ns"));
    out.push(metric(
        "kvstore.store.exec_ns_per_unit",
        store_ns_per_unit(),
        "ns",
    ));

    // hedge: runtime, timers and one idle connection.
    let rt = Runtime::new(CLIENT_WORKERS);
    let spawn = ns_per_call(4_000, || {
        rt.block_on(rt.spawn(async {}));
    });
    out.push(metric("hedge.rt.spawn_ns", spawn, "ns"));
    out.push(metric(
        "hedge.rt.timer_late_us_p99",
        timer_late_us_p99(&rt),
        "us",
    ));
    let (p50, p99) = ping_rtt_us(&rt);
    out.push(metric("hedge.transport.rtt_us_p50", p50, "us"));
    out.push(metric("hedge.transport.rtt_us_p99", p99, "us"));
    drop(rt);

    // erasure: the stripe codec on an 8 KiB value, (k, n) = (2, 4).
    let encode = ns_per_call(2_000, || {
        black_box(encode_stripe(&value_8k, 2, 4).expect("geometry"));
    });
    out.push(metric("erasure.codec.encode_8k_us", encode / 1e3, "us"));
    let frags = encode_stripe(&value_8k, 2, 4).expect("geometry");
    let data = [frags[0].clone(), frags[1].clone()];
    let decode = ns_per_call(2_000, || {
        black_box(decode_stripe(&data).expect("data fragments decode"));
    });
    out.push(metric("erasure.codec.decode_8k_us", decode / 1e3, "us"));
    let with_parity = [frags[0].clone(), frags[2].clone()];
    let decode_parity = ns_per_call(2_000, || {
        black_box(decode_stripe(&with_parity).expect("data + parity decode"));
    });
    out.push(metric(
        "erasure.codec.decode_parity_8k_us",
        decode_parity / 1e3,
        "us",
    ));

    // simulator: the same queueing system in virtual time, fed the
    // run's latencies as service times.
    let sim_queries = 20_000;
    let mean_ms = window.iter().sum::<f64>() / WINDOW as f64;
    let sim = ns_per_call(1, || {
        let mut service = TraceService::new(window.iter().map(|v| v.max(1e-6)).collect(), 0.0);
        let run = RunConfig {
            arrival: ArrivalProcess::poisson_for_utilization(0.4, 3, mean_ms.max(1e-6)),
            ..RunConfig::new(sim_queries)
        };
        let cluster = ClusterConfig {
            servers: 3,
            ..ClusterConfig::default()
        };
        let policy = ReissuePolicy::single_r(2.0 * mean_ms, 0.5);
        black_box(simulate(&cluster, &run, &mut service, &policy));
    });
    out.push(metric(
        "simulator.cluster.sim_queries_per_s",
        sim_queries as f64 / (sim / 1e9),
        "1/s",
    ));
    out
}

/// Wall time of `KvStore::execute` per cost unit it reports, on
/// intersections like the §6.2 trace's (300-member sets).
fn store_ns_per_unit() -> f64 {
    let mut store = KvStore::new();
    let keys: Vec<Bytes> = (0..32u32)
        .map(|s| {
            let key = Bytes::from(format!("s{s}"));
            let members = (0..300).map(|m| m * (s + 2) % 100_000).collect();
            store.execute(&Command::SAdd(key.clone(), members));
            key
        })
        .collect();
    let cmds: Vec<Command> = (0..keys.len())
        .map(|a| Command::SInterCard(keys[a].clone(), keys[(a + 1) % keys.len()].clone()))
        .collect();
    let units: u64 = cmds.iter().map(|c| store.execute(c).1).sum();
    let mut i = 0usize;
    let per_cmd = ns_per_call(20_000, || {
        i += 1;
        black_box(store.execute(&cmds[i % cmds.len()]));
    });
    per_cmd * cmds.len() as f64 / units as f64
}

/// P99 overshoot of a 1 ms `sleep` on the runtime, over 1000 sleeps
/// taken four at a time.
fn timer_late_us_p99(rt: &Runtime) -> f64 {
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let timers = rt.clone();
            rt.spawn(async move {
                let mut late = Vec::with_capacity(250);
                for _ in 0..250 {
                    let t0 = Instant::now();
                    timers.sleep(Duration::from_millis(1)).await;
                    late.push(
                        t0.elapsed()
                            .saturating_sub(Duration::from_millis(1))
                            .as_nanos() as u64,
                    );
                }
                late
            })
        })
        .collect();
    let mut late: Vec<u64> = handles.into_iter().flat_map(|h| rt.block_on(h)).collect();
    late.sort_unstable();
    quantile(&late, 0.99) as f64 / 1e3
}

/// Serial `PING` round trips over one connection to an idle zero-burn
/// server: `(p50, p99)` in µs.
fn ping_rtt_us(rt: &Runtime) -> (f64, f64) {
    let server = TcpServer::bind("127.0.0.1:0", KvStore::new(), TcpServerConfig::default())
        .expect("bind idle server");
    let replica = Replica::connect(server.local_addr(), 1).expect("connect idle server");
    let mut rtt: Vec<u64> = (0..2_200)
        .map(|_| {
            let t0 = Instant::now();
            let reply = rt.block_on(replica.request(Command::Ping, CancelToken::new()));
            assert_eq!(reply, Ok(Reply::Pong));
            t0.elapsed().as_nanos() as u64
        })
        .skip(200)
        .collect();
    drop(replica);
    drop(server);
    rtt.sort_unstable();
    (
        quantile(&rtt, 0.5) as f64 / 1e3,
        quantile(&rtt, 0.99) as f64 / 1e3,
    )
}
