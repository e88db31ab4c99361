//! Property test (vendored proptest shim — deterministic per-test RNG,
//! no shrinking) of the runtime's one reissue stage:
//! `hedge::HedgedClient` over real TCP sends at most one reissue per
//! query, at a realized rate that tracks the coin when the governor is
//! slack and stays under the governor's cap when it binds. The
//! sampling of multi-stage schedules is tested with
//! `reissue_core::policy`.

use hedge::{HedgeConfig, HedgedClient, TcpServer, TcpServerConfig};
use kvstore::{Command, IntSet, KvStore, Reply};
use proptest::prelude::*;
use reissue_core::policy::ReissuePolicy;

fn props_store() -> KvStore {
    let mut store = KvStore::new();
    store.load_set(
        "evens",
        IntSet::from_unsorted((0..100u32).map(|i| i * 2).collect()),
    );
    store.load_set(
        "threes",
        IntSet::from_unsorted((0..100u32).map(|i| i * 3).collect()),
    );
    store
}

proptest! {
    // TCP servers per case are expensive; 5 cases × 240 queries keeps
    // the whole property under ~15 s while still varying the delay,
    // the probability and the cap across runs.
    #![proptest_config(ProptestConfig::with_cases(5))]
    /// End-to-end through the runtime: for a random SingleR `(d, q)`
    /// and governor cap, (a) no query sends more than one reissue,
    /// (b) the realized reissue rate tracks `q` when the governor is
    /// slack, and (c) the realized reissues stay under the cap (plus
    /// its documented burst allowance) when it binds.
    #[test]
    fn runtime_respects_stage_coins_and_governor_cap(
        d in 0.0f64..2.0,
        q in 0.05f64..1.2,
        cap in 0.1f64..0.45,
        seed in any::<u64>(),
    ) {
        // Draws above 1 saturate, exercising the deterministic q = 1
        // path in about 1 case in 6.
        let q = q.min(1.0);
        // Service time (~5-10 ms: ~100 probe ops × 50 µs) dwarfs the
        // delay (≤ 2 ms), so P(outstanding at d) ≈ 1 and the expected
        // reissue rate is q itself, directly comparable to the coin.
        let cfg = TcpServerConfig { nanos_per_op: 50_000, ..TcpServerConfig::default() };
        let servers: Vec<TcpServer> = (0..3)
            .map(|_| TcpServer::bind("127.0.0.1:0", props_store(), cfg).unwrap())
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
        let client = HedgedClient::connect(
            &addrs,
            HedgeConfig {
                policy: ReissuePolicy::single_r(d, q),
                budget_cap: Some(cap),
                seed,
                ..HedgeConfig::default()
            },
        )
        .unwrap();

        let queries = 240u64;
        for _ in 0..queries {
            let before = client.stats().reissues;
            let r = client
                .execute_blocking(Command::SInterCard("evens".into(), "threes".into()))
                .unwrap();
            prop_assert_eq!(r, Reply::Int(34));
            // (a) Queries run one at a time, so the delta is this one's.
            let sent = client.stats().reissues - before;
            prop_assert!(sent <= 1, "one query sent {sent} reissues");
        }

        let stats = client.stats();
        prop_assert_eq!(stats.queries, queries);
        // The governor's documented burst allowance (see
        // `HedgeConfig::budget_cap`).
        let burst = (cap * 200.0).clamp(2.0, 16.0);
        // (c) The cap (plus burst) always bounds the realized total.
        prop_assert!(
            stats.reissues as f64 <= cap * queries as f64 + burst + 1.0,
            "realized reissues {} exceed cap {cap} × {queries} + burst {burst}",
            stats.reissues
        );
        let rate = stats.reissues as f64 / queries as f64;
        let sigma = (q * (1.0 - q) / queries as f64).sqrt();
        if q <= 0.8 * cap {
            // (b) Governor slack: the realized rate matches the coin.
            // Tolerance: 4 binomial σ at 240 queries plus 0.02 slack
            // for the rare query that completes inside a
            // sub-millisecond delay.
            prop_assert!(
                (rate - q).abs() <= 4.0 * sigma + 0.02,
                "realized {rate} vs coin {q}"
            );
        } else {
            // One-sided even when the governor binds: no more
            // reissues than the coin's heads.
            prop_assert!(rate <= q + 4.0 * sigma + 0.02, "realized {rate} above coin {q}");
        }
    }
}
