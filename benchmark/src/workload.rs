//! The four workloads: what runs, why, and how `--seed` becomes the
//! inputs. A [`Plan`] is everything the program will be asked and
//! everything it must answer, worked out on a local copy of the data
//! before the first request is sent.

use crate::rng::Rng;
use crate::sut::{
    encode_stripe, fragment_budget, store_with_monsters, Backend, Bytes, Command, Dataset,
    DatasetConfig, HedgeConfig, KvStore, OnlineConfig, ReissuePolicy, Reply, StripedBackend,
    StripedConfig, System, MONSTER_KEY_A, MONSTER_KEY_B,
};
use std::collections::HashMap;

/// Client executor threads: one per core of the box the bounds were
/// fixed on.
pub const CLIENT_WORKERS: usize = 2;
/// Open-loop workloads offer this share of nominal server capacity,
/// the paper's §6.2 operating point.
const UTILISATION: f64 = 0.4;
/// One arrival in this many is a query of death (open loop).
const MONSTER_EVERY: usize = 500;
/// The replica reissue budget; the striped workload spends the same
/// bytes.
const REISSUE_BUDGET: f64 = 0.05;

const KV_REPLICAS: usize = 3;
const KV_NANOS_PER_OP: u64 = 150;
const KV_SETS: usize = 300;

const STRIPE_K: usize = 2;
const STRIPE_N: usize = 4;
const STRIPE_BYTES_PER_UNIT: u64 = 64;
const STRIPE_NANOS_PER_OP: u64 = 4_000;
const STRIPE_KEYS: usize = 64;
const STRIPE_VALUE_LEN: usize = 8 << 10;
const STRIPE_MONSTER_LEN: usize = 1 << 20;

const HOT_KEYS: usize = 512;
const HOT_VALUE_LEN: usize = 64;
const HOT_BIG_KEYS: usize = 64;
const HOT_BIG_VALUE_LEN: usize = 4 << 10;
/// Closed-loop issuers, one per default pooled connection.
pub const HOT_ISSUERS: usize = 4;
/// Commands generated for the closed loop; issuers cycle through them.
const HOT_COMMANDS: usize = 1 << 17;

/// Seeds of the fixed data (sets, stored values, rate calibration):
/// `--seed` varies what is asked, not what is stored.
const DATA_SEED: u64 = 0x5e75;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    KvDeathUnhedged,
    KvDeathHedged,
    StripeHedged,
    HotClosed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::KvDeathUnhedged,
        Kind::KvDeathHedged,
        Kind::StripeHedged,
        Kind::HotClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::KvDeathUnhedged => "kv-death-unhedged",
            Kind::KvDeathHedged => "kv-death-hedged",
            Kind::StripeHedged => "stripe-hedged",
            Kind::HotClosed => "hot-closed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Open loop: arrivals come on a schedule whatever the system
    /// does. Closed loop: an issuer sends its next request when the
    /// previous one returns.
    pub fn open_loop(self) -> bool {
        self != Kind::HotClosed
    }

    /// The latency limit a request must be answered within, from its
    /// due time, to count as served.
    pub fn slo_ms(self) -> f64 {
        if self.open_loop() {
            10.0
        } else {
            1.0
        }
    }

    /// The reissue budget the client was given, per request (0 when it
    /// does not hedge).
    pub fn budget(self) -> f64 {
        match self {
            Kind::KvDeathHedged => REISSUE_BUDGET,
            Kind::StripeHedged => fragment_budget(REISSUE_BUDGET, STRIPE_K),
            Kind::KvDeathUnhedged | Kind::HotClosed => 0.0,
        }
    }
}

/// The generated inputs of one run and their expected outputs.
pub struct Plan {
    /// Due time of each arrival in ns from the start of warm-up,
    /// ascending. Empty for the closed loop, whose issuers cycle
    /// through `cmds`.
    pub due_ns: Vec<u64>,
    pub cmds: Vec<Command>,
    /// The one correct reply to each command.
    pub expect: Vec<Reply>,
    /// Service cost units on the request's critical path: the
    /// command's own cost, or one fragment's for a striped read (its
    /// `k` fragments are served in parallel).
    pub units: Vec<u32>,
    /// Server burn per cost unit.
    pub nanos_per_op: u64,
    /// Offered rate (0 for the closed loop).
    pub rate_qps: f64,
}

impl Plan {
    /// The request's own service time, known before it is sent.
    pub fn service_ns(&self, idx: usize) -> u64 {
        u64::from(self.units[idx]) * self.nanos_per_op
    }
}

/// Poisson due times at `rate_qps` up to `horizon_ns`.
fn poisson_schedule(seed: u64, rate_qps: f64, horizon_ns: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 1);
    let mean_gap_ns = 1e9 / rate_qps;
    let mut due = Vec::with_capacity((horizon_ns as f64 / mean_gap_ns * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += rng.exp(mean_gap_ns);
        if t >= horizon_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

fn is_monster(arrival: usize) -> bool {
    arrival % MONSTER_EVERY == MONSTER_EVERY / 2
}

/// Mean cost per arrival when one in [`MONSTER_EVERY`] is a monster.
fn mean_with_monsters(typical: f64, monster: f64) -> f64 {
    typical + (monster - typical) / MONSTER_EVERY as f64
}

/// Builds the data, the plan and the running system for one workload.
/// This is the set-up whose time `setup_s` reports (with the warm-up
/// that follows it).
pub fn set_up(kind: Kind, seed: u64, horizon_ns: u64) -> std::io::Result<(Plan, System)> {
    match kind {
        Kind::KvDeathUnhedged | Kind::KvDeathHedged => {
            let (plan, store) = kv_death_plan(seed, horizon_ns);
            let online = (kind == Kind::KvDeathHedged).then_some(OnlineConfig {
                k: 0.99,
                budget: REISSUE_BUDGET,
                window: 1_000,
                reoptimize_every: 250,
                learning_rate: 0.5,
                min_pairs: 48,
                load: None,
            });
            let cfg = HedgeConfig {
                policy: ReissuePolicy::None,
                online,
                workers: CLIENT_WORKERS,
                seed,
                ..HedgeConfig::default()
            };
            let system = System::replicated(&store, KV_REPLICAS, KV_NANOS_PER_OP, cfg)?;
            Ok((plan, system))
        }
        Kind::StripeHedged => {
            let (plan, values) = stripe_plan(seed, horizon_ns);
            let cfg = StripedConfig {
                k: STRIPE_K,
                policy: ReissuePolicy::single_r(1.0, 1.0),
                budget_cap: Some(kind.budget()),
                workers: CLIENT_WORKERS,
                seed,
                ..StripedConfig::default()
            };
            let system = System::striped(
                STRIPE_N,
                STRIPE_BYTES_PER_UNIT,
                STRIPE_NANOS_PER_OP,
                &values,
                cfg,
            )?;
            Ok((plan, system))
        }
        Kind::HotClosed => {
            let (plan, store) = hot_plan(seed);
            let cfg = HedgeConfig {
                workers: CLIENT_WORKERS,
                seed,
                ..HedgeConfig::default()
            };
            let system = System::replicated(&store, 1, 0, cfg)?;
            Ok((plan, system))
        }
    }
}

/// The §6.2 set-intersection store and a `SINTERCARD` trace over it
/// with a query of death every [`MONSTER_EVERY`]th arrival.
fn kv_death_plan(seed: u64, horizon_ns: u64) -> (Plan, KvStore) {
    let dataset = Dataset::generate(DatasetConfig {
        num_sets: KV_SETS,
        universe: 100_000,
        card_mu: (300.0f64).ln(),
        card_sigma: 0.3,
        seed: DATA_SEED,
    });
    let mut store = store_with_monsters(&dataset);
    let keys: Vec<Bytes> = (0..KV_SETS).map(|i| Bytes::from(Dataset::key(i))).collect();
    let pair_cmd = |a: usize, b: usize| Command::SInterCard(keys[a].clone(), keys[b].clone());
    let draw_pair = |rng: &mut Rng| {
        let a = rng.below(KV_SETS);
        let b = (a + 1 + rng.below(KV_SETS - 1)) % KV_SETS;
        (a, b)
    };
    let monster_cmd = Command::SInterCard(MONSTER_KEY_A.into(), MONSTER_KEY_B.into());
    let (monster_reply, monster_units) = store.execute(&monster_cmd);

    // The offered rate is a constant of the workload, not of the
    // seed: calibrated on a fixed sample of pairs.
    let mut cal = Rng::new(DATA_SEED, 7);
    let sample = 2_000;
    let typical: u64 = (0..sample)
        .map(|_| {
            let (a, b) = draw_pair(&mut cal);
            store.execute(&pair_cmd(a, b)).1
        })
        .sum();
    let mean_units = mean_with_monsters(typical as f64 / sample as f64, monster_units as f64);
    let mean_service_s = mean_units * KV_NANOS_PER_OP as f64 / 1e9;
    let rate_qps = UTILISATION * KV_REPLICAS as f64 / mean_service_s;

    let due_ns = poisson_schedule(seed, rate_qps, horizon_ns);
    let mut rng = Rng::new(seed, 2);
    let mut known: HashMap<(usize, usize), (Reply, u32)> = HashMap::new();
    let mut plan = Plan {
        cmds: Vec::with_capacity(due_ns.len()),
        expect: Vec::with_capacity(due_ns.len()),
        units: Vec::with_capacity(due_ns.len()),
        due_ns,
        nanos_per_op: KV_NANOS_PER_OP,
        rate_qps,
    };
    for i in 0..plan.due_ns.len() {
        let (cmd, reply, units) = if is_monster(i) {
            (
                monster_cmd.clone(),
                monster_reply.clone(),
                monster_units as u32,
            )
        } else {
            let (a, b) = draw_pair(&mut rng);
            let cmd = pair_cmd(a, b);
            let (reply, units) = known
                .entry((a, b))
                .or_insert_with(|| {
                    let (reply, units) = store.execute(&cmd);
                    (reply, units as u32)
                })
                .clone();
            (cmd, reply, units)
        };
        plan.cmds.push(cmd);
        plan.expect.push(reply);
        plan.units.push(units);
    }
    (plan, store)
}

/// Fixed bytes for a stored value: `len` bytes of a stream named by
/// `tag`.
fn value_bytes(tag: u64, len: usize) -> Bytes {
    let mut rng = Rng::new(DATA_SEED, tag);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    Bytes::from(v)
}

/// 64 striped 8 KiB values and one 1 MiB monster, read by `GET`.
fn stripe_plan(seed: u64, horizon_ns: u64) -> (Plan, Vec<(Bytes, Bytes)>) {
    let mut values: Vec<(Bytes, Bytes)> = (0..STRIPE_KEYS)
        .map(|i| {
            (
                Bytes::from(format!("obj:{i:02}")),
                value_bytes(100 + i as u64, STRIPE_VALUE_LEN),
            )
        })
        .collect();
    values.push((
        Bytes::from("obj:monster"),
        value_bytes(99, STRIPE_MONSTER_LEN),
    ));
    let monster = values.len() - 1;

    // One fragment's cost, as the fragment servers will charge it.
    let mut local = StripedBackend::new(KvStore::new(), STRIPE_BYTES_PER_UNIT);
    let fragment_units: Vec<u32> = values
        .iter()
        .map(|(key, value)| {
            let frags = encode_stripe(value, STRIPE_K, STRIPE_N).expect("stripe geometry");
            local.execute(&Command::FSet(key.clone(), 0, frags[0].clone()));
            local.estimate_cost(&Command::FGet(key.clone(), 0)) as u32
        })
        .collect();
    let mean_units = mean_with_monsters(
        f64::from(fragment_units[0]),
        f64::from(fragment_units[monster]),
    );
    let read_service_s = STRIPE_K as f64 * mean_units * STRIPE_NANOS_PER_OP as f64 / 1e9;
    let rate_qps = UTILISATION * STRIPE_N as f64 / read_service_s;

    let due_ns = poisson_schedule(seed, rate_qps, horizon_ns);
    let mut rng = Rng::new(seed, 2);
    let picks: Vec<usize> = (0..due_ns.len())
        .map(|i| {
            if is_monster(i) {
                monster
            } else {
                rng.below(STRIPE_KEYS)
            }
        })
        .collect();
    let plan = Plan {
        due_ns,
        cmds: picks
            .iter()
            .map(|&v| Command::Get(values[v].0.clone()))
            .collect(),
        expect: picks
            .iter()
            .map(|&v| Reply::Str(values[v].1.clone()))
            .collect(),
        units: picks.iter().map(|&v| fragment_units[v]).collect(),
        nanos_per_op: STRIPE_NANOS_PER_OP,
        rate_qps,
    };
    (plan, values)
}

/// 512 small keys and 64 large ones on one zero-burn replica: 80%
/// small `GET`, 10% `SET`, 10% 4 KiB `GET`. A `SET` rewrites the value
/// its key already holds, so every `GET` has one correct answer
/// whatever order the issuers run in.
fn hot_plan(seed: u64) -> (Plan, KvStore) {
    let small: Vec<(Bytes, Bytes)> = (0..HOT_KEYS)
        .map(|i| {
            (
                Bytes::from(format!("hot:{i:04}")),
                value_bytes(1_000 + i as u64, HOT_VALUE_LEN),
            )
        })
        .collect();
    let big: Vec<(Bytes, Bytes)> = (0..HOT_BIG_KEYS)
        .map(|i| {
            (
                Bytes::from(format!("big:{i:02}")),
                value_bytes(2_000 + i as u64, HOT_BIG_VALUE_LEN),
            )
        })
        .collect();
    let mut store = KvStore::new();
    for (k, v) in small.iter().chain(&big) {
        store.execute(&Command::Set(k.clone(), v.clone()));
    }
    let mut rng = Rng::new(seed, 2);
    let mut plan = Plan {
        due_ns: Vec::new(),
        cmds: Vec::with_capacity(HOT_COMMANDS),
        expect: Vec::with_capacity(HOT_COMMANDS),
        units: vec![1; HOT_COMMANDS],
        nanos_per_op: 0,
        rate_qps: 0.0,
    };
    for _ in 0..HOT_COMMANDS {
        let (cmd, reply) = match rng.below(10) {
            0 => {
                let (k, v) = &small[rng.below(HOT_KEYS)];
                (Command::Set(k.clone(), v.clone()), Reply::Ok)
            }
            1 => {
                let (k, v) = &big[rng.below(HOT_BIG_KEYS)];
                (Command::Get(k.clone()), Reply::Str(v.clone()))
            }
            _ => {
                let (k, v) = &small[rng.below(HOT_KEYS)];
                (Command::Get(k.clone()), Reply::Str(v.clone()))
            }
        };
        plan.cmds.push(cmd);
        plan.expect.push(reply);
    }
    (plan, store)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON_NS: u64 = 300_000_000;

    #[test]
    fn same_seed_gives_the_same_due_times_and_commands() {
        for plan_of in [
            |seed| kv_death_plan(seed, HORIZON_NS).0,
            |seed| stripe_plan(seed, HORIZON_NS).0,
            |seed| hot_plan(seed).0,
        ] {
            let (a, b, other) = (plan_of(7), plan_of(7), plan_of(8));
            assert_eq!(a.due_ns, b.due_ns);
            assert_eq!(a.cmds, b.cmds);
            assert_eq!(a.expect, b.expect);
            assert_eq!(a.units, b.units);
            assert_ne!(a.cmds, other.cmds, "another seed asks something else");
            assert_eq!(a.cmds.len(), a.expect.len());
            assert_eq!(a.cmds.len(), a.units.len());
            if !a.due_ns.is_empty() {
                assert_eq!(a.cmds.len(), a.due_ns.len());
                assert!(a.due_ns.windows(2).all(|w| w[0] <= w[1]));
                assert!(*a.due_ns.last().unwrap() < HORIZON_NS);
                assert_ne!(a.due_ns, other.due_ns);
                assert_eq!(a.rate_qps, other.rate_qps, "the rate is not the seed's");
            }
        }
    }

    #[test]
    fn open_loop_rate_is_forty_percent_of_capacity() {
        let (plan, _) = kv_death_plan(1, 2_000_000_000);
        let mean_service_ns = (0..plan.cmds.len())
            .map(|i| plan.service_ns(i))
            .sum::<u64>() as f64
            / plan.cmds.len() as f64;
        let rho = plan.rate_qps * mean_service_ns / 1e9 / KV_REPLICAS as f64;
        assert!((rho - UTILISATION).abs() < 0.04, "rho {rho}");
        // One arrival in 500 is a query of death, far above the rest.
        let monsters = (0..plan.cmds.len()).filter(|&i| is_monster(i)).count();
        assert!(monsters >= plan.cmds.len() / MONSTER_EVERY);
        let monster_ms = plan.service_ns(MONSTER_EVERY / 2) as f64 / 1e6;
        assert!(
            monster_ms > 30.0 && monster_ms < 150.0,
            "monster {monster_ms} ms"
        );
    }

    #[test]
    fn stripe_budget_spends_the_replica_budget_in_bytes() {
        assert!((Kind::StripeHedged.budget() - 0.10).abs() < 1e-12);
    }
}
