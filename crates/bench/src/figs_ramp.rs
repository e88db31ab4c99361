//! The load-ramp A/B: utilization-aware hedging across redundancy's
//! sign flip, through the real TCP serving path.
//!
//! Redundancy's benefit is load-dependent ("Low Latency via
//! Redundancy"): at low utilization a hedge races a fresh replica and
//! wins; near saturation the duplicate *is* the extra load and the
//! tail explodes. A latency-only online adapter cannot see which side
//! of that flip it is on — it keeps spending its reissue budget while
//! the cluster saturates. [`figtcp_ramp`] measures the fix: one
//! continuous run per policy whose offered rate is scripted from 30%
//! to 90% of cluster capacity mid-run (a [`RateEvent`] ramp, the
//! arrival-side analogue of the sickness script), reported per
//! utilization plateau.
//!
//! Four policies over the identical ramp, fresh cluster each:
//!
//! * **unhedged** — the floor at high load and the ceiling at low
//!   load; the aware policy must never be worse.
//! * **static SingleR** — `(d*, q*)` calibrated by a load-blind
//!   adapter at the middle plateau (60%), then frozen. Right in the
//!   middle, wrong at both ends.
//! * **blind online** — the §4.2 correlated adapter optimizing from
//!   latency samples alone: the load-blind behaviour under repair.
//! * **aware online** — the same adapter plus
//!   [`LoadSignal`](reissue_core::load::LoadSignal)-fed damping
//!   ([`LoadShaper`]): the effective budget shrinks as estimated
//!   utilization ρ̂ rises, so the realized reissue rate falls off
//!   toward saturation instead of feeding it.
//!
//! The committed `BENCH_ramp.json` carries one row per plateau; the
//! acceptance shape is aware P99 ≤ unhedged at every plateau, beating
//! static at both ends, with the aware reissue rate decreasing in ρ.
//! Every run also asserts that the aware run's drop rate at the 90%
//! plateau is no higher than the unhedged run's.

use crate::figs_tcp::{
    online_config, run_phase, tcp_queries, TcpWorkload, MAX_IN_FLIGHT, NANOS_PER_OP,
};
use crate::{Scale, Table};
use hedge::harness::{Cluster, LoadConfig, LoadReport, RateEvent};
use hedge::{HedgeConfig, HedgedClient};
use reissue_core::load::LoadShaper;
use reissue_core::online::OnlineConfig;
use reissue_core::policy::ReissuePolicy;

/// The scripted utilization plateaus, in ramp order.
const UTILS: [f64; 3] = [0.3, 0.6, 0.9];
/// Replica count for every ramp run.
const REPLICAS: usize = 3;
/// Reissue budget handed to every hedging policy.
const BUDGET: f64 = 0.08;

/// The ramp schedule: `queries_per_phase` arrivals at each of
/// [`UTILS`], the rate switching (and a reporting segment opening) at
/// each phase boundary.
fn ramp_config(wl: &TcpWorkload, queries_per_phase: usize) -> LoadConfig {
    LoadConfig {
        queries: queries_per_phase * UTILS.len(),
        arrivals: wl.arrivals_for(REPLICAS, UTILS[0]),
        max_in_flight: MAX_IN_FLIGHT,
        seed: 0x4A3F,
        script: Vec::new(),
        rate_script: UTILS
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &util)| RateEvent {
                at_query: i * queries_per_phase,
                arrivals: wl.arrivals_for(REPLICAS, util),
            })
            .collect(),
    }
}

/// One continuous ramp run on a fresh cluster.
fn run_ramp(wl: &TcpWorkload, queries_per_phase: usize, cfg: HedgeConfig) -> LoadReport {
    let cluster = Cluster::spawn(REPLICAS, &wl.store, NANOS_PER_OP).expect("bind replicas");
    let client = HedgedClient::connect(&cluster.addrs(), cfg).expect("connect client");
    cluster.run_load(
        &client,
        &ramp_config(wl, queries_per_phase),
        wl.command_fn(),
    )
}

/// The load-ramp figure: one row per utilization plateau, four
/// policies A/B'd over the identical scripted ramp.
pub fn figtcp_ramp(scale: Scale) -> Vec<Table> {
    let queries_per_phase = tcp_queries(scale);
    let wl = TcpWorkload::generate(queries_per_phase * UTILS.len());

    // Static comparator: let a load-blind adapter converge at the
    // middle plateau, then freeze its artifacts — the strongest
    // fixed policy available without load awareness.
    let (_, calib_client) = run_phase(
        &wl,
        queries_per_phase,
        REPLICAS,
        UTILS[1],
        HedgeConfig {
            policy: ReissuePolicy::None,
            online: Some(online_config(BUDGET)),
            ..HedgeConfig::default()
        },
    );
    let record = calib_client.online_policy().expect("calibration adapter");
    let static_policy =
        ReissuePolicy::single_r(record.delay.max(0.1), record.probability.clamp(0.001, 1.0));

    let unhedged = run_ramp(
        &wl,
        queries_per_phase,
        HedgeConfig {
            policy: ReissuePolicy::None,
            online: None,
            ..HedgeConfig::default()
        },
    );
    let static_run = run_ramp(
        &wl,
        queries_per_phase,
        HedgeConfig {
            policy: static_policy,
            online: None,
            budget_cap: Some(1.25 * BUDGET),
            ..HedgeConfig::default()
        },
    );
    let blind = run_ramp(
        &wl,
        queries_per_phase,
        HedgeConfig {
            policy: ReissuePolicy::None,
            online: Some(online_config(BUDGET)),
            ..HedgeConfig::default()
        },
    );
    let aware = run_ramp(
        &wl,
        queries_per_phase,
        HedgeConfig {
            policy: ReissuePolicy::None,
            online: Some(OnlineConfig {
                load: Some(LoadShaper::default()),
                ..online_config(BUDGET)
            }),
            ..HedgeConfig::default()
        },
    );

    let mut t = Table::new(
        "figtcp_ramp",
        &[
            "util",
            "unhedged_p99",
            "static_p99",
            "static_rate",
            "blind_p99",
            "blind_rate",
            "aware_p99",
            "aware_rate",
            "aware_rho",
            "drop_unhedged",
            "drop_aware",
        ],
    );
    for (k, &util) in UTILS.iter().enumerate() {
        t.push(vec![
            util,
            unhedged.segments[k].quantile(0.99).unwrap_or(f64::NAN),
            static_run.segments[k].quantile(0.99).unwrap_or(f64::NAN),
            static_run.segments[k].reissue_rate(),
            blind.segments[k].quantile(0.99).unwrap_or(f64::NAN),
            blind.segments[k].reissue_rate(),
            aware.segments[k].quantile(0.99).unwrap_or(f64::NAN),
            aware.segments[k].reissue_rate(),
            aware.segments[k].utilization_mean,
            unhedged.segments[k].drop_rate(),
            aware.segments[k].drop_rate(),
        ]);
    }
    let last = UTILS.len() - 1;
    let (da, du) = (
        aware.segments[last].drop_rate(),
        unhedged.segments[last].drop_rate(),
    );
    assert!(
        da <= du + 1e-9,
        "utilization-aware hedging must not shed more load than unhedged \
         at the saturated plateau: aware drop {da:.4} > unhedged drop {du:.4}"
    );
    eprintln!("[ramp assert ok: aware drop {da:.4} <= unhedged drop {du:.4} at util 0.9]");
    vec![t]
}
