//! The simulator as the oracle for queue-aware primary dispatch: the
//! repo benchmark's `kv-death` shape under the blind balancer and under
//! join-the-shortest-queue, which is what `hedge`'s TCP client does
//! with its own outstanding counts (`ReplicaSet::pick_primary`).
//!
//! Time is in units of the mean service time (0.5 ms on the TCP
//! workload): three FIFO servers at ρ 0.4, every 500th arrival a query
//! of death of 140 units (the 70 ms monster), the other 499 sized so
//! the mean stays 1, no reissues. The latency limit is 20 units (the
//! benchmark's 10 ms).

use reissue_core::ReissuePolicy;
use simulator::{
    simulate, ArrivalProcess, Balancer, ClusterConfig, Discipline, RunConfig, TraceService,
};

const MONSTER: f64 = 140.0;
const EVERY: usize = 500;
const LIMIT: f64 = 20.0;

/// `(mean latency, share of queries over the limit)`.
fn kv_death(balancer: Balancer, seed: u64) -> (f64, f64) {
    let mut costs = vec![(EVERY as f64 - MONSTER) / (EVERY - 1) as f64; EVERY];
    costs[EVERY - 1] = MONSTER;
    let cluster = ClusterConfig {
        servers: 3,
        discipline: Discipline::Fifo,
        balancer,
        ..ClusterConfig::default()
    };
    let run = RunConfig {
        queries: 100_000,
        warmup: 10_000,
        seed,
        arrival: ArrivalProcess::poisson_for_utilization(0.4, 3, 1.0),
    };
    let result = simulate(
        &cluster,
        &run,
        &mut TraceService::new(costs, 0.0),
        &ReissuePolicy::None,
    );
    assert!((result.utilization() - 0.4).abs() < 0.01, "same work");
    let latencies = result.latencies();
    let n = latencies.len() as f64;
    let over = latencies.iter().filter(|&&l| l > LIMIT).count() as f64;
    (latencies.iter().sum::<f64>() / n, over / n)
}

/// Seeds 1, 2, 3 read: blind mean 11.95 / 12.29 / 12.17 and 13.5 /
/// 14.0 / 13.7% over the limit; shortest-queue mean 1.40 / 1.37 / 1.39
/// and 0.51 / 0.49 / 0.51% over it (0.2% are the monsters themselves,
/// the rest arrivals that found every server with one request and
/// tied onto the blocked one: a count cannot tell a monster in service
/// from a regular request). So the mean falls 8.6–9.0x and the share
/// over the limit 26–28x; the bounds below leave a fifth of that.
#[test]
fn shortest_queue_dispatch_removes_the_head_of_line_victims() {
    for seed in [1, 2, 3] {
        let (blind_mean, blind_over) = kv_death(Balancer::Random, seed);
        let (aware_mean, aware_over) = kv_death(Balancer::MinOfAll, seed);
        assert!(
            aware_mean * 7.0 < blind_mean && aware_mean < 1.5,
            "seed {seed}: mean {blind_mean:.2} -> {aware_mean:.2}"
        );
        assert!(
            aware_over * 20.0 < blind_over && aware_over < 0.006,
            "seed {seed}: over the limit {blind_over:.4} -> {aware_over:.4}"
        );
    }
}
