//! Server-side scheduling A/B: cancellation style × queue discipline,
//! through the real TCP serving path.
//!
//! Two questions the committed `BENCH_discipline.json` answers:
//!
//! 1. **Cancellation** (`figtcp_cancellation`) — does dequeue-time
//!    peer cancellation (server-side *tied requests*, "The Tail at
//!    Scale") retract more speculative work before it executes than
//!    the client-driven `CANCEL` round trip? The client style can only
//!    retract a loser after the winner *completed* (winner service +
//!    reply + cancel hop); the tied style retracts the peer the moment
//!    either copy reaches the front of a run queue — and the tie
//!    *collapse* path retracts a reissue immediately when its primary
//!    turns out to be already executing, exactly the marginal
//!    just-past-`d` hedges the client style catches only once they
//!    are in service.
//!    One row per utilization plateau, both styles at the identical
//!    aggressive hedge-at-the-median policy (the operating point tied
//!    requests exist for) under the same governed budget.
//!
//! 2. **Discipline** (`figtcp_discipline`) — with the reissue budget
//!    held equal, does a non-FIFO run-queue discipline beat FIFO's
//!    P99? The §6.2 workload's queries of death head-of-line-block a
//!    FIFO replica; `ShortestBurn` (shortest-estimated-job-first),
//!    unaged in the `cost` column and with an aging bound against
//!    starvation in the `srpt` column, lets the cheap traffic
//!    overtake a *queued* monster, and
//!    `RoundRobin` isolates connections from each other. Two rows per
//!    utilization — an unhedged arm (budget 0, where the reordering
//!    win lives) and a hedged arm at the calibrated `(d*, q*)` (where
//!    the disciplines converge, because the reissue path already
//!    dodges the queued monster) — four disciplines per row on
//!    identical traces.
//!
//! Since a client `CANCEL` also stops a loser *in service*, nearly
//! every loser of either style is retracted sooner or later, and the
//! count of retracted reissues (`*_retract`, and `exec_dup_ratio`
//! built from it) no longer says what the duplicates cost: a copy
//! stopped after 40 ms of service counts the same as one that never
//! ran. The `*_dup_cost` columns do: the cost units the servers
//! burned beyond one copy of every query, as a share of that one-copy
//! cost, from the servers' own `total_cost`.
//!
//! Every run asserts the acceptance shape in-code: server-side
//! retractions actually fire at ρ ≥ 0.6, and the best non-FIFO
//! discipline's unhedged P99 is at most 5% above FIFO's.

use crate::figs_tcp::{
    online_config, p99, realized_rate, tcp_queries, TcpWorkload, MAX_IN_FLIGHT, NANOS_PER_OP,
};
use crate::{Scale, Table};
use hedge::harness::{Cluster, LoadConfig, LoadReport};
use hedge::{CancellationStyle, Discipline, HedgeConfig, HedgedClient, TcpServerConfig, TieStats};
use reissue_core::policy::ReissuePolicy;

/// Replica count for every run.
const REPLICAS: usize = 3;
/// Reissue budget handed to every hedging arm.
const BUDGET: f64 = 0.08;
/// Utilization plateaus for the cancellation A/B; the acceptance
/// criterion reads the ρ ≥ 0.6 rows.
const CANCEL_UTILS: [f64; 3] = [0.45, 0.6, 0.75];
/// Utilizations for the discipline A/B. Reordering only matters when
/// queues are deep enough that cheap traffic actually sits behind a
/// monster the hedge path could not dodge, so this sweep runs hotter
/// than the cancellation one.
const DISCIPLINE_UTILS: [f64; 2] = [0.6, 0.85];
/// Aging rate for the `ShortestBurn` arm: cost units forgiven per ms
/// of waiting. At the workload's scale (monster ≈ 3.7M cost units) a
/// queued monster outranks fresh zero-cost arrivals only after
/// multiple seconds, so the SRPT-ish behaviour dominates while the
/// starvation bound stays finite.
const SRPT_BOOST: f64 = 1_000.0;

/// One serving run on a fresh cluster with an explicit queue
/// discipline. Returns the tie-table counters and the cost units
/// burned, summed over the cluster, alongside the usual report,
/// because the servers die with the cluster.
fn run_disc(
    wl: &TcpWorkload,
    queries: usize,
    util: f64,
    discipline: Discipline,
    cfg: HedgeConfig,
) -> (LoadReport, HedgedClient, TieStats, u64) {
    let cluster = Cluster::spawn_with(
        REPLICAS,
        &wl.store,
        TcpServerConfig {
            nanos_per_op: NANOS_PER_OP,
            discipline,
        },
    )
    .expect("bind replicas");
    let client = HedgedClient::connect(&cluster.addrs(), cfg).expect("connect client");
    let load = LoadConfig {
        queries,
        arrivals: wl.arrivals_for(REPLICAS, util),
        max_in_flight: MAX_IN_FLIGHT,
        seed: 0xD15C ^ (util * 100.0) as u64,
        script: Vec::new(),
        rate_script: Vec::new(),
    };
    let report = cluster.run_load(&client, &load, wl.command_fn());
    let mut ties = TieStats::default();
    let mut cost_burned = 0;
    for i in 0..cluster.len() {
        let s = cluster.server(i).tie_stats();
        ties.registered += s.registered;
        ties.peer_cancels_sent += s.peer_cancels_sent;
        ties.retractions += s.retractions;
        ties.collapses += s.collapses;
        cost_burned += cluster.server(i).stats().total_cost;
    }
    (report, client, ties, cost_burned)
}

/// Calibrates one static `(d*, q*)` at the middle plateau with a
/// load-blind online run, then freezes it — both A/B arms replay the
/// identical policy so the only variable is the thing under test.
/// Also returns the run's median latency, the anchor for the
/// aggressive tied-request operating point below.
fn calibrated_policy(wl: &TcpWorkload, queries: usize) -> (ReissuePolicy, f64) {
    let (report, client, _, _) = run_disc(
        wl,
        queries,
        CANCEL_UTILS[1],
        Discipline::RoundRobin { connections: 0 },
        HedgeConfig {
            policy: ReissuePolicy::None,
            online: Some(online_config(BUDGET)),
            ..HedgeConfig::default()
        },
    );
    let record = client.online_policy().expect("calibration adapter");
    let p50 = report.latency_ms.quantile(0.5).unwrap_or(1.0).max(0.5);
    (
        ReissuePolicy::single_r(record.delay.max(0.1), record.probability.clamp(0.001, 1.0)),
        p50,
    )
}

/// Confirmed in-time retractions per dispatched reissue, from the
/// client's own counters (`-ERR cancelled` markers received) — the
/// same metric for both styles, so the A/B is apples to apples. A
/// loser stopped in service counts like one that never ran.
fn retract_frac(client: &HedgedClient) -> f64 {
    let s = client.stats();
    s.cancelled_in_time as f64 / s.reissues.max(1) as f64
}

/// Cost units one copy of each of the first `queries` arrivals burns:
/// what the servers' `total_cost` would sum to with no duplicate ever
/// started (and no arrival dropped).
fn one_copy_cost(wl: &TcpWorkload, queries: usize) -> u64 {
    let mut store = wl.store.clone();
    let mut command = wl.command_fn();
    (0..queries).map(|i| store.execute(&command(i)).1).sum()
}

/// The cancellation-style A/B (see module docs). Also runs the
/// discipline sweep so one `figures -- discipline` invocation persists
/// the full matrix.
pub fn figtcp_discipline_matrix(scale: Scale) -> Vec<Table> {
    let queries = tcp_queries(scale);
    let wl = TcpWorkload::generate(queries);
    let (policy, p50) = calibrated_policy(&wl, queries);
    // The cancellation A/B runs at the *tied-request* operating point:
    // hedge at the median (à la "The Tail at Scale", which ties
    // requests precisely because it reissues aggressively), with the
    // governor holding both arms to the same realized budget. At the
    // tail-calibrated `(d*, q*)` there is nothing to separate — the
    // rare deep hedges chase primaries so stuck that either style
    // retracts the loser in time. Aggressive hedging is where the
    // styles differ: most duplicates are *marginal*, and whether they
    // burn a replica depends on cancelling before execution.
    let aggressive = ReissuePolicy::single_r(p50, 1.0);

    // --- Table 1: cancellation style × utilization -------------------
    let mut cancel_t = Table::new(
        "figtcp_cancellation",
        &[
            "util",
            "client_p99",
            "client_rate",
            "client_retract",
            "tied_p99",
            "tied_rate",
            "tied_retract",
            "tied_server_retractions",
            "tied_collapses",
            "retract_ratio",
            "exec_dup_ratio",
            "client_dup_cost",
            "tied_dup_cost",
        ],
    );
    let one_copy = one_copy_cost(&wl, queries) as f64;
    for &util in &CANCEL_UTILS {
        let arm = |style: CancellationStyle| {
            run_disc(
                &wl,
                queries,
                util,
                Discipline::RoundRobin { connections: 0 },
                HedgeConfig {
                    policy: aggressive.clone(),
                    online: None,
                    budget_cap: Some(1.25 * BUDGET),
                    cancellation: style,
                    ..HedgeConfig::default()
                },
            )
        };
        let (client_rep, client_cl, client_ties, client_cost) = arm(CancellationStyle::Client);
        let (tied_rep, tied_cl, tied_ties, tied_cost) = arm(CancellationStyle::Tied);
        assert_eq!(
            client_ties.registered, 0,
            "client-driven arm must never register server-side ties"
        );
        let (cr, tr) = (retract_frac(&client_cl), retract_frac(&tied_cl));
        let client_dup = client_cost as f64 / one_copy - 1.0;
        let tied_dup = tied_cost as f64 / one_copy - 1.0;
        cancel_t.push(vec![
            util,
            p99(&client_rep),
            realized_rate(&client_cl),
            cr,
            p99(&tied_rep),
            realized_rate(&tied_cl),
            tr,
            tied_ties.retractions as f64,
            tied_ties.collapses as f64,
            if cr > 0.0 { tr / cr } else { f64::INFINITY },
            // Duplicates that ran to their end (reissues never
            // retracted), client over tied: a ratio of two small
            // counts, infinite when the tied arm retracted them all.
            if tr < 1.0 {
                (1.0 - cr) / (1.0 - tr)
            } else {
                f64::INFINITY
            },
            // What the duplicates cost, stopped or not: units burned
            // beyond one copy per query, as a share of that.
            client_dup,
            tied_dup,
        ]);
        if util >= 0.6 {
            assert!(
                tied_ties.retractions + tied_ties.collapses > 0,
                "the tied arm must retract server-side at util {util}"
            );
        }
    }

    // --- Table 2: discipline × utilization at equal budget -----------
    let disciplines: [(&str, Discipline); 4] = [
        ("fifo", Discipline::Fifo),
        ("rr", Discipline::RoundRobin { connections: 0 }),
        ("cost", Discipline::ShortestBurn { boost: 0.0 }),
        ("srpt", Discipline::ShortestBurn { boost: SRPT_BOOST }),
    ];
    let mut disc_t = Table::new(
        "figtcp_discipline",
        &[
            "util",
            "hedged",
            "fifo_p99",
            "rr_p99",
            "cost_p99",
            "srpt_p99",
            "fifo_rate",
            "rr_rate",
            "cost_rate",
            "srpt_rate",
            "fifo_over_best",
        ],
    );
    // Each utilization gets an unhedged arm (reissue budget 0 — equal
    // across disciplines) and a hedged arm at the calibrated
    // `(d*, q*)` under the governed budget. The shape the acceptance
    // test pins lives in the unhedged rows: a cheap query stuck behind
    // a queued monster has no escape there, so the reordering
    // disciplines rescue the P99 FIFO forfeits. The hedged rows record
    // the interaction finding: a tail-calibrated reissue policy
    // *already* dodges the queued monster (the reissue lands on
    // another replica), so the disciplines converge — scheduling and
    // reissue are substitutes on this workload, not complements.
    for &util in &DISCIPLINE_UTILS {
        for hedged in [0.0f64, 1.0] {
            let mut p99s = Vec::new();
            let mut rates = Vec::new();
            for &(_, d) in &disciplines {
                let cfg = if hedged > 0.0 {
                    HedgeConfig {
                        policy: policy.clone(),
                        online: None,
                        budget_cap: Some(1.25 * BUDGET),
                        cancellation: CancellationStyle::Tied,
                        ..HedgeConfig::default()
                    }
                } else {
                    HedgeConfig {
                        policy: ReissuePolicy::None,
                        online: None,
                        ..HedgeConfig::default()
                    }
                };
                let (rep, cl, _, _) = run_disc(&wl, queries, util, d, cfg);
                p99s.push(p99(&rep));
                rates.push(realized_rate(&cl));
            }
            let best_non_fifo = p99s[1..].iter().cloned().fold(f64::INFINITY, f64::min);
            let mut row = vec![util, hedged];
            row.extend(&p99s);
            row.extend(&rates);
            row.push(p99s[0] / best_non_fifo);
            disc_t.push(row);
            if hedged == 0.0 {
                assert!(
                    best_non_fifo <= p99s[0] * 1.05,
                    "some non-FIFO discipline must match or beat FIFO P99 unhedged at \
                     util {util}: fifo {:.2} ms vs best non-FIFO {best_non_fifo:.2} ms",
                    p99s[0]
                );
            }
        }
    }
    eprintln!(
        "[discipline assert ok: server-side retractions at rho >= 0.6, non-FIFO <= FIFO P99]"
    );
    vec![cancel_t, disc_t]
}
