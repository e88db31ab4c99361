//! Replica hedging vs **fragment hedging at equal byte budget** — the
//! erasure tentpole's closing A/B, through the real TCP serving path.
//!
//! Two arms serve the same byte workload (8 KiB values, a 1 MiB
//! monster value every `MONSTER_EVERY`th arrival) from `n = 4`
//! servers whose service time is proportional to payload bytes
//! ([`erasure::StripedBackend`]):
//!
//! * **replica arm** — `n` full copies, `hedge::HedgedClient`: a
//!   reissue fetches a second whole value.
//! * **fragment arm** — one `(k = 2, n = 4)` stripe
//!   ([`shard::StripedGroup`]), `erasure::StripedClient`: a reissue
//!   fetches one parity fragment at `1/k` of the bytes.
//!
//! **Equal bytes by construction.** Both arms run an always-willing
//! `SingleR(d, q = 1)` policy behind a [`hedge::BudgetGovernor`]
//! pinned at the byte-equivalent caps: `RATE` reissues/query for the
//! replica arm, `fragment_budget(RATE, k) = k·RATE` for the fragment
//! arm ([`reissue_core::kofn::fragment_budget`]). The timers fire on
//! far more stragglers than the caps admit, so each arm's *realized*
//! rate converges to its cap and the per-query byte costs
//! ([`reissue_core::kofn::bytes_per_query`]) agree — the `budget_ok`
//! column gates each cell at ±5%
//! ([`reissue_core::kofn::budgets_match`]). At those equal bytes the
//! fragment arm affords `k×` the rescue attempts: that is the
//! erasure-coding trade this figure measures. Each arm's delay `d` is
//! its **own** unhedged P50 at the same utilization, so both timers
//! discriminate stragglers from their own bulk.
//!
//! Sweeps utilization {0.3, 0.6, 0.85}. The figure asserts nothing: a
//! cell's P99 rests on the 60 slowest of 6 000 reads at full scale, so
//! judge it over several runs. `--fast` (400 queries per phase) only
//! checks that the path runs and persists its table.

use crate::figs_tcp::{tcp_queries, MAX_IN_FLIGHT};
use crate::{Scale, Table};
use erasure::{StripedBackend, StripedClient, StripedConfig};
use hedge::harness::{Arrivals, Cluster, LoadConfig, LoadReport};
use hedge::{HedgeConfig, HedgedClient, TcpServerConfig};
use kvstore::{Command, KvStore};
use reissue_core::kofn::{budgets_match, bytes_per_query, fragment_budget};
use reissue_core::policy::ReissuePolicy;
use shard::StripedGroup;

use bytes::Bytes;

/// Stripe geometry: 2 data fragments + 2 parity rows; any 2 of the 4
/// decode.
const K_DATA: usize = 2;
/// Servers per arm (replica copies, or stripe slots).
const N_SLOTS: usize = 4;
/// Service burn per payload-byte unit (see [`StripedBackend`]).
const BYTES_PER_UNIT: u64 = 64;
/// Wall-clock burn per cost unit: a regular read ≈ 516 µs of
/// service, the monster ≈ 65 ms (≈ 33 ms per fragment on the striped
/// arm). Deliberately coarse enough that every burn crosses the
/// server's 200 µs sleep threshold — on a small CI box the sweeper
/// must park, not spin, or `n` "servers" of spin-burn saturate one
/// core at any nominal utilization and flatten the sweep.
const NANOS_PER_OP: u64 = 4_000;
/// Regular value size; fragments are half this plus a header.
const VALUE_LEN: usize = 8 * 1024;
/// The monster value: a whole-value read head-of-line-blocks its
/// server for ~13 ms — the query of death this workload hedges
/// against.
const MONSTER_LEN: usize = 1 << 20;
/// One arrival in this many reads the monster key (phase-shifted so
/// even short smoke runs see one).
const MONSTER_EVERY: usize = 500;
/// Distinct regular keys (spreads the rotated stripe placement over
/// every server).
const KEYS: usize = 64;
/// Replica-arm byte budget in reissues/query; the fragment arm's cap
/// is `fragment_budget(RATE, K_DATA)` = 2× this for the same bytes.
const RATE: f64 = 0.15;
/// Utilization sweep.
const UTILS: [f64; 3] = [0.3, 0.6, 0.85];

fn key(i: usize) -> Vec<u8> {
    format!("ec:{i:03}").into_bytes()
}

fn value(i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (j as u32 ^ (i as u32).wrapping_mul(2654435761)) as u8)
        .collect()
}

/// Mean service cost per query in µs, summed over the servers that
/// touch it (the capacity a query consumes, whichever arm serves it):
/// both arms move ≈ the same bytes per primary wave, so one arrival
/// process drives both at the same offered utilization.
fn mean_service_us() -> f64 {
    let regular = 1.0 + (VALUE_LEN as f64 / BYTES_PER_UNIT as f64).ceil();
    let monster = 1.0 + (MONSTER_LEN as f64 / BYTES_PER_UNIT as f64).ceil();
    let mean_units = regular + (monster - regular) / MONSTER_EVERY as f64;
    mean_units * NANOS_PER_OP as f64 / 1e3
}

fn load_config(queries: usize, util: f64) -> LoadConfig {
    LoadConfig {
        queries,
        arrivals: Arrivals::Poisson {
            mean_us: (mean_service_us() / (N_SLOTS as f64 * util)).max(1.0) as u64,
        },
        max_in_flight: MAX_IN_FLIGHT,
        seed: 0xECAB ^ (util * 100.0) as u64,
        script: Vec::new(),
        rate_script: Vec::new(),
    }
}

/// The command for arrival `i`: the monster key once per
/// [`MONSTER_EVERY`] arrivals (offset so short runs still meet it),
/// otherwise a stride walk over the regular keys.
fn make_cmd(i: usize) -> Command {
    if i % MONSTER_EVERY == MONSTER_EVERY / 5 {
        Command::Get(Bytes::from_static(b"ec:monster"))
    } else {
        Command::Get(Bytes::from(key((i * 31) % KEYS)))
    }
}

fn server_config() -> TcpServerConfig {
    TcpServerConfig {
        nanos_per_op: NANOS_PER_OP,
        ..TcpServerConfig::default()
    }
}

/// One replica-arm run: `N_SLOTS` full copies behind a hedged client.
fn run_replica_arm(
    queries: usize,
    util: f64,
    policy: ReissuePolicy,
    budget_cap: Option<f64>,
) -> (LoadReport, f64) {
    let mut store = KvStore::new();
    for i in 0..KEYS {
        store.execute(&Command::Set(
            Bytes::from(key(i)),
            Bytes::from(value(i, VALUE_LEN)),
        ));
    }
    store.execute(&Command::Set(
        Bytes::from_static(b"ec:monster"),
        Bytes::from(value(usize::MAX, MONSTER_LEN)),
    ));
    let backend = StripedBackend::new(store, BYTES_PER_UNIT);
    let cluster = Cluster::spawn_with(N_SLOTS, &backend, server_config()).expect("bind replicas");
    let client = HedgedClient::connect(
        &cluster.addrs(),
        HedgeConfig {
            policy,
            online: None,
            budget_cap,
            ..HedgeConfig::default()
        },
    )
    .expect("connect replica-arm client");
    // Cold-start warmup outside the pacer's clock: touch every key
    // (monster included) so connection pools and the page cache are
    // hot before the first measured arrival.
    for i in 0..KEYS {
        let _ = client.execute_blocking(Command::Get(Bytes::from(key(i))));
    }
    let _ = client.execute_blocking(Command::Get(Bytes::from_static(b"ec:monster")));
    let report = cluster.run_load(&client, &load_config(queries, util), make_cmd);
    let stats = client.stats();
    let rate = stats.reissues as f64 / stats.queries.max(1) as f64;
    (report, rate)
}

/// One fragment-arm run: a `(K_DATA, N_SLOTS)` striped group behind
/// the k-of-n client. Also returns the censored-pair count — evidence
/// the retraction path ran.
fn run_fragment_arm(
    queries: usize,
    util: f64,
    policy: ReissuePolicy,
    budget_cap: Option<f64>,
) -> (LoadReport, f64, u64) {
    let group =
        StripedGroup::spawn(K_DATA, N_SLOTS, BYTES_PER_UNIT, NANOS_PER_OP).expect("bind stripe");
    for i in 0..KEYS {
        group
            .seed(&key(i), &value(i, VALUE_LEN))
            .expect("seed stripe");
    }
    group
        .seed(b"ec:monster", &value(usize::MAX, MONSTER_LEN))
        .expect("seed monster stripe");
    let client = StripedClient::connect(
        &group.addrs(),
        StripedConfig {
            k: K_DATA,
            policy,
            budget_cap,
            ..StripedConfig::default()
        },
    )
    .expect("connect fragment-arm client");
    // Same cold-start warmup as the replica arm.
    for i in 0..KEYS {
        let _ = client.execute_blocking(Command::Get(Bytes::from(key(i))));
    }
    let _ = client.execute_blocking(Command::Get(Bytes::from_static(b"ec:monster")));
    let report = group.run_load(&client, &load_config(queries, util), make_cmd);
    let stats = client.stats();
    let rate = stats.reissues as f64 / stats.queries.max(1) as f64;
    (report, rate, stats.pairs_censored)
}

fn p99(report: &LoadReport) -> f64 {
    report.quantile(0.99).unwrap_or(f64::NAN)
}

/// The A/B: replica hedging vs fragment hedging at equal byte budget,
/// per utilization.
pub fn figtcp_erasure(scale: Scale) -> Vec<Table> {
    let queries = tcp_queries(scale);
    let q_frag_cap = fragment_budget(RATE, K_DATA);
    let mut t = Table::new(
        "figtcp_erasure",
        &[
            "util",
            "replica_unhedged_p99",
            "frag_unhedged_p99",
            "replica_p99",
            "replica_rate",
            "replica_bytes",
            "frag_p99",
            "frag_rate",
            "frag_bytes",
            "frag_censored_pairs",
            "budget_ok",
        ],
    );
    for &util in &UTILS {
        // Per-arm delay calibration from each arm's own unhedged
        // median: the timer fires on every straggler (q = 1) and the
        // governor admits the first RATE (resp. k·RATE) per query.
        let (replica_base, _) = run_replica_arm(queries, util, ReissuePolicy::None, None);
        let (frag_base, _, _) = run_fragment_arm(queries, util, ReissuePolicy::None, None);
        let d_replica = replica_base.quantile(0.50).unwrap_or(1.0).max(0.05);
        let d_frag = frag_base.quantile(0.50).unwrap_or(1.0).max(0.05);

        let (replica, replica_rate) = run_replica_arm(
            queries,
            util,
            ReissuePolicy::single_r(d_replica, 1.0),
            Some(RATE),
        );
        let (frag, frag_rate, frag_censored) = run_fragment_arm(
            queries,
            util,
            ReissuePolicy::single_r(d_frag, 1.0),
            Some(q_frag_cap),
        );

        // Realized per-query byte cost in units of the value size: the
        // replica arm's reissue moves a whole value (k = 1), the
        // fragment arm's a 1/k fragment.
        let replica_bytes = bytes_per_query(1, replica_rate);
        let frag_bytes = bytes_per_query(K_DATA, frag_rate);
        let ok = budgets_match(replica_bytes, frag_bytes, 0.05);
        t.push(vec![
            util,
            p99(&replica_base),
            p99(&frag_base),
            p99(&replica),
            replica_rate,
            replica_bytes,
            p99(&frag),
            frag_rate,
            frag_bytes,
            frag_censored as f64,
            if ok { 1.0 } else { 0.0 },
        ]);
    }
    vec![t]
}
