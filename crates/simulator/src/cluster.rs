//! The discrete-event simulation loop.

use crate::balancer::Balancer;
use crate::discipline::{Discipline, QueuedRequest, WaitQueue};
use crate::events::{Event, EventQueue};
use crate::result::{QueryRecord, SimResult};
use crate::service::ServiceModel;
use distributions::rng::stream;
use rand::rngs::SmallRng;
use rand::Rng;
use reissue_core::policy::ReissuePolicy;

/// How reissue requests are routed relative to the primary's server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReissueRouting {
    /// Route through the load balancer like any request (the paper's
    /// simulation model: a uniformly random server).
    Any,
    /// Route through the load balancer but never to the server that
    /// holds the primary — the classic "hedge to a different replica".
    AvoidPrimary,
}

/// What happens to a query's other copies once its first one completes.
///
/// The TCP path (`hedge::server`) has no switch: it ties every raced
/// reissue and always retracts the loser, queued through its tie or a
/// `CANCEL` and in service through `CANCEL`, which is `InService`.
/// `None`, the paper's model, has no TCP counterpart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Cancellation {
    /// Copies run to completion: the paper's model.
    #[default]
    None,
    /// A copy still queued is dropped when it reaches the head of its
    /// queue (lazy in-queue cancellation); a copy in service finishes.
    Queued,
    /// As `Queued`, and a copy in service on another server is
    /// preempted the instant the first one completes: that server is
    /// charged busy time up to that instant and starts its next
    /// request.
    InService,
}

/// Background interference on servers: each server independently
/// experiences "stalls" — bursts of non-query work (compaction, GC,
/// co-located batch jobs, page-cache misses) that occupy the worker
/// like a request would. The paper's introduction names exactly this
/// ("background tasks on servers can lead to temporary shortages in
/// CPU cycles…") as a dominant, *server-local* source of tail latency;
/// it is what makes hedging to a different replica escape-worthy even
/// when the duplicated computation itself costs the same.
///
/// Stalls arrive per-server as a Poisson process with mean spacing
/// `mean_interval` and exponentially distributed durations with mean
/// `mean_duration`; they queue like ordinary requests (the server
/// finishes current work, then stalls).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interference {
    /// Mean time between stalls per server.
    pub mean_interval: f64,
    /// Mean stall duration.
    pub mean_duration: f64,
}

impl Interference {
    /// Fraction of server capacity consumed by stalls.
    pub fn utilization(&self) -> f64 {
        self.mean_duration / (self.mean_interval + self.mean_duration)
    }
}

/// Cluster topology and scheduling configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of single-worker servers; `0` means an infinite-server
    /// cluster (no queueing — the paper's Independent/Correlated
    /// workloads).
    pub servers: usize,
    /// Queue discipline at each server.
    pub discipline: Discipline,
    /// Load-balancing strategy.
    pub balancer: Balancer,
    /// Reissue routing rule.
    pub reissue_routing: ReissueRouting,
    /// Whether, and how deep, a completed query's other copies are
    /// cancelled. The paper does *not* cancel — copies run to
    /// completion — so this defaults to [`Cancellation::None`]; the
    /// other values exist for the ablation benches and to mirror the
    /// TCP server.
    pub cancellation: Cancellation,
    /// Optional per-server background interference.
    pub interference: Option<Interference>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            servers: 10,
            discipline: Discipline::Fifo,
            balancer: Balancer::Random,
            reissue_routing: ReissueRouting::Any,
            cancellation: Cancellation::None,
            interference: None,
        }
    }
}

/// Sentinel query id marking an interference stall "request".
const STALL: usize = usize::MAX;

/// Arrival process of the open-loop client population.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Poisson arrivals with the given rate (queries per unit time).
    Poisson {
        /// Mean arrival rate λ.
        rate: f64,
    },
    /// Deterministic arrivals with a fixed interval.
    Uniform {
        /// Inter-arrival interval.
        interval: f64,
    },
}

impl ArrivalProcess {
    /// Poisson arrivals sized so that `servers` servers with mean
    /// service time `mean_service` run at `utilization` (λ = u·m/E\[S\]).
    ///
    /// # Panics
    /// Panics unless `0 < utilization < 1`, `servers > 0` and
    /// `mean_service > 0`.
    pub fn poisson_for_utilization(utilization: f64, servers: usize, mean_service: f64) -> Self {
        assert!(
            utilization > 0.0 && utilization < 1.0,
            "utilization must be in (0,1)"
        );
        assert!(servers > 0 && mean_service > 0.0);
        ArrivalProcess::Poisson {
            rate: utilization * servers as f64 / mean_service,
        }
    }

    fn next_interval(&self, rng: &mut SmallRng) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate } => {
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                -u.ln() / rate
            }
            ArrivalProcess::Uniform { interval } => *interval,
        }
    }
}

/// Run-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Total queries to inject.
    pub queries: usize,
    /// Leading queries excluded from metrics (system ramp-up).
    pub warmup: usize,
    /// Root seed; all internal streams derive from it.
    pub seed: u64,
    /// Arrival process.
    pub arrival: ArrivalProcess,
}

impl RunConfig {
    /// A convenient config: `queries` queries, 10% warmup, seed 0 and a
    /// placeholder arrival process that the workload layer overrides.
    pub fn new(queries: usize) -> Self {
        RunConfig {
            queries,
            warmup: queries / 10,
            seed: 0,
            arrival: ArrivalProcess::Poisson { rate: 1.0 },
        }
    }
}

/// Per-query simulation state.
#[derive(Clone, Debug)]
struct QueryState {
    arrival: f64,
    primary_service: f64,
    primary_server: usize,
    completed: bool,
    latency: f64,
    primary_response: f64,
    primary_wait: f64,
    reissued: bool,
    reissue_dispatch: f64,
    reissue_response: f64,
    reissue_server: usize,
}

struct Server {
    queue: WaitQueue,
    /// The request in service, if any, with its start time.
    in_service: Option<(QueuedRequest, f64)>,
    /// Counts preemptions. A `Completion` event carries the count at
    /// the start of the service it ends; if that service was preempted
    /// the event finds a later count here and is ignored.
    generation: u64,
    busy_time: f64,
}

impl Server {
    fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.in_service.is_some())
    }
}

/// Runs one simulation: `run.queries` queries arrive per `run.arrival`,
/// are served by `cluster`, and are hedged per `policy` with service
/// times from `service`. Deterministic given `run.seed`.
///
/// The run drains fully: arrivals stop after the last query but every
/// outstanding request completes, so the primary-response log is
/// complete (no censoring).
///
/// # Panics
/// Panics on zero queries or (for finite clusters) a single server with
/// [`ReissueRouting::AvoidPrimary`].
pub fn simulate(
    cluster: &ClusterConfig,
    run: &RunConfig,
    service: &mut dyn ServiceModel,
    policy: &ReissuePolicy,
) -> SimResult {
    assert!(run.queries > 0, "need at least one query");
    let infinite = cluster.servers == 0;
    if !infinite && cluster.reissue_routing == ReissueRouting::AvoidPrimary {
        assert!(
            cluster.servers > 1,
            "AvoidPrimary needs at least two servers"
        );
    }

    // Independent randomness streams (see distributions::rng docs).
    let mut rng_arrival = stream(run.seed, 0xA);
    let mut rng_service = stream(run.seed, 0xB);
    let mut rng_balance = stream(run.seed, 0xC);
    let mut rng_policy = stream(run.seed, 0xD);
    let mut rng_conn = stream(run.seed, 0xE);
    let mut rng_stall = stream(run.seed, 0xF);

    let exp_draw = |mean: f64, rng: &mut rand::rngs::SmallRng| -> f64 {
        -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() * mean
    };

    let mut events = EventQueue::new();
    let mut servers: Vec<Server> = (0..cluster.servers)
        .map(|_| Server {
            queue: WaitQueue::new(cluster.discipline),
            in_service: None,
            generation: 0,
            busy_time: 0.0,
        })
        .collect();
    let mut queries: Vec<QueryState> = Vec::with_capacity(run.queries);

    // Simulated clients are pre-assigned to a fixed connection ring;
    // `connections == 0` (the TCP server's dynamic-id mode) degrades
    // to a single shared connection here.
    let connections = match cluster.discipline {
        Discipline::RoundRobin { connections } => connections.max(1),
        _ => 1,
    };

    events.push(0.0, Event::Arrival { query: 0 });
    if let Some(intf) = cluster.interference {
        assert!(
            intf.mean_interval > 0.0 && intf.mean_duration > 0.0,
            "interference parameters must be positive"
        );
        for server in 0..cluster.servers {
            events.push(
                exp_draw(intf.mean_interval, &mut rng_stall),
                Event::StallArrival { server },
            );
        }
    }
    // Stalls stop being scheduled once all queries have arrived; the
    // arrival horizon is discovered as the run unfolds.
    let mut arrivals_done = false;
    let mut makespan = 0.0f64;

    while let Some((now, event)) = events.pop() {
        // Makespan = last *completion* time; arrival or timer events
        // that fire later (e.g. a no-op stall reschedule after the last
        // query drained) must not stretch the utilization denominator,
        // and neither must the stale completion of a preempted service.
        let live = match event {
            Event::Completion { server, generation } => servers[server].generation == generation,
            Event::DirectCompletion { .. } => true,
            _ => false,
        };
        if live {
            makespan = makespan.max(now);
        }
        match event {
            Event::Arrival { query } => {
                // Create the query and its reissue schedule.
                let primary_service = service.primary(query, &mut rng_service).max(1e-12);
                let schedule: Vec<f64> = policy
                    .sample_schedule(&mut rng_policy)
                    .iter()
                    .map(|d| now + d)
                    .collect();
                let mut state = QueryState {
                    arrival: now,
                    primary_service,
                    primary_server: usize::MAX,
                    completed: false,
                    latency: f64::NAN,
                    primary_response: f64::NAN,
                    primary_wait: 0.0,
                    reissued: false,
                    reissue_dispatch: f64::NAN,
                    reissue_response: f64::NAN,
                    reissue_server: usize::MAX,
                };

                // Dispatch the primary.
                if infinite {
                    events.push(
                        now + primary_service,
                        Event::DirectCompletion {
                            query,
                            is_reissue: false,
                            dispatched: now,
                        },
                    );
                } else {
                    let backlog: Vec<usize> = servers.iter().map(Server::backlog).collect();
                    let s = cluster
                        .balancer
                        .choose(&backlog, usize::MAX, &mut rng_balance);
                    state.primary_server = s;
                    let req = QueuedRequest {
                        query,
                        is_reissue: false,
                        service: primary_service,
                        enqueued_at: now,
                        connection: rng_conn.gen_range(0..connections),
                    };
                    offer(&mut servers[s], s, req, now, &mut events);
                }

                // Schedule reissue timers (coin already flipped).
                for &at in &schedule {
                    events.push(at, Event::ReissueFire { query });
                }
                queries.push(state);

                // Next arrival.
                if query + 1 < run.queries {
                    let at = now + run.arrival.next_interval(&mut rng_arrival);
                    events.push(at, Event::Arrival { query: query + 1 });
                } else {
                    arrivals_done = true;
                }
            }

            Event::ReissueFire { query } => {
                let state = &mut queries[query];
                // The paper's client checks completion *before sending*
                // (§6.1); completed queries consume no budget.
                if state.completed {
                    continue;
                }
                let reissue_service = service
                    .reissue(query, state.primary_service, &mut rng_service)
                    .max(1e-12);
                state.reissued = true;
                // For MultipleR, keep the *first* dispatch for reporting.
                if !state.reissue_dispatch.is_finite() {
                    state.reissue_dispatch = now;
                }
                if infinite {
                    events.push(
                        now + reissue_service,
                        Event::DirectCompletion {
                            query,
                            is_reissue: true,
                            dispatched: now,
                        },
                    );
                } else {
                    let backlog: Vec<usize> = servers.iter().map(Server::backlog).collect();
                    let exclude = match cluster.reissue_routing {
                        ReissueRouting::Any => usize::MAX,
                        ReissueRouting::AvoidPrimary => state.primary_server,
                    };
                    let s = cluster.balancer.choose(&backlog, exclude, &mut rng_balance);
                    state.reissue_server = s;
                    let req = QueuedRequest {
                        query,
                        is_reissue: true,
                        service: reissue_service,
                        enqueued_at: now,
                        connection: rng_conn.gen_range(0..connections),
                    };
                    offer(&mut servers[s], s, req, now, &mut events);
                }
            }

            Event::StallArrival { server } => {
                let intf = cluster.interference.expect("stall without interference");
                if !arrivals_done {
                    let req = QueuedRequest {
                        query: STALL,
                        is_reissue: false,
                        service: exp_draw(intf.mean_duration, &mut rng_stall).max(1e-12),
                        enqueued_at: now,
                        connection: rng_conn.gen_range(0..connections),
                    };
                    offer(&mut servers[server], server, req, now, &mut events);
                    events.push(
                        now + exp_draw(intf.mean_interval, &mut rng_stall),
                        Event::StallArrival { server },
                    );
                }
            }

            Event::Completion { .. } if !live => {} // its service was preempted

            Event::Completion { server, .. } => {
                let (req, started) = servers[server]
                    .in_service
                    .take()
                    .expect("completion without in-service request");
                servers[server].busy_time += now - started;
                if req.query != STALL {
                    let first = !queries[req.query].completed;
                    record_response(&mut queries[req.query], &req, now);
                    if first && cluster.cancellation == Cancellation::InService {
                        // Nobody waits for this query's other copies
                        // any more: preempt the ones in service.
                        for (s, sibling) in servers.iter_mut().enumerate() {
                            if let Some((_, started)) = sibling
                                .in_service
                                .take_if(|(other, _)| other.query == req.query)
                            {
                                sibling.busy_time += now - started;
                                sibling.generation += 1;
                                start_next(sibling, s, cluster, &mut queries, now, &mut events);
                            }
                        }
                    }
                }
                start_next(
                    &mut servers[server],
                    server,
                    cluster,
                    &mut queries,
                    now,
                    &mut events,
                );
            }

            Event::DirectCompletion {
                query,
                is_reissue,
                dispatched,
            } => {
                let state = &mut queries[query];
                let fake = QueuedRequest {
                    query,
                    is_reissue,
                    service: 0.0,
                    enqueued_at: dispatched,
                    connection: 0,
                };
                record_response(state, &fake, now);
            }
        }
    }

    let records: Vec<QueryRecord> = queries
        .iter()
        .map(|q| QueryRecord {
            arrival: q.arrival,
            primary_response: q.primary_response,
            reissued: q.reissued,
            reissue_dispatch_delay: q.reissue_dispatch - q.arrival,
            reissue_response: q.reissue_response,
            latency: q.latency,
            primary_wait: q.primary_wait,
            primary_server: q.primary_server,
            reissue_server: q.reissue_server,
        })
        .collect();

    let server_utilization = servers
        .iter()
        .map(|s| {
            debug_assert!(s.in_service.is_none(), "run did not drain");
            if makespan > 0.0 {
                s.busy_time / makespan
            } else {
                0.0
            }
        })
        .collect();

    SimResult {
        records,
        warmup: run.warmup,
        server_utilization,
        makespan,
    }
}

/// Places `req` on `server`: starts service immediately if idle,
/// otherwise enqueues.
fn offer(
    server: &mut Server,
    server_idx: usize,
    req: QueuedRequest,
    now: f64,
    events: &mut EventQueue,
) {
    if server.in_service.is_none() {
        start(server, server_idx, req, now, events);
    } else {
        server.queue.push(req);
    }
}

/// Puts `req` in service on `server` and schedules its completion.
fn start(
    server: &mut Server,
    server_idx: usize,
    req: QueuedRequest,
    now: f64,
    events: &mut EventQueue,
) {
    server.in_service = Some((req, now));
    events.push(
        now + req.service,
        Event::Completion {
            server: server_idx,
            generation: server.generation,
        },
    );
}

/// Starts the next queued request on an idle `server`, lazily dropping
/// copies of completed queries when the cluster cancels.
fn start_next(
    server: &mut Server,
    server_idx: usize,
    cluster: &ClusterConfig,
    queries: &mut [QueryState],
    now: f64,
    events: &mut EventQueue,
) {
    while let Some(next) = server.queue.pop(now) {
        if next.query != STALL {
            if cluster.cancellation != Cancellation::None && queries[next.query].completed {
                continue; // dropped without service
            }
            if !next.is_reissue {
                queries[next.query].primary_wait = now - next.enqueued_at;
            }
        }
        start(server, server_idx, next, now, events);
        return;
    }
}

/// Books a finished request's response into its query state.
fn record_response(state: &mut QueryState, req: &QueuedRequest, now: f64) {
    if req.is_reissue {
        // Response measured from this copy's own dispatch; MultipleR
        // keeps the fastest reissue.
        let resp = now - req.enqueued_at;
        if !state.reissue_response.is_finite() || resp < state.reissue_response {
            state.reissue_response = resp;
        }
    } else {
        state.primary_response = now - state.arrival;
    }
    if !state.completed {
        state.completed = true;
        state.latency = now - state.arrival;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{CorrelatedService, IidService, TraceService};
    use distributions::{Deterministic, Exponential};
    use reissue_core::metrics::quantile;

    fn fifo_cluster(servers: usize) -> ClusterConfig {
        ClusterConfig {
            servers,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn all_queries_complete() {
        let mut service = IidService::new(Exponential::new(1.0));
        let run = RunConfig {
            queries: 2_000,
            warmup: 0,
            seed: 1,
            arrival: ArrivalProcess::poisson_for_utilization(0.5, 4, 1.0),
        };
        let r = simulate(
            &fifo_cluster(4),
            &run,
            &mut service,
            &ReissuePolicy::single_r(1.0, 0.5),
        );
        assert_eq!(r.records.len(), 2_000);
        assert!(r.records.iter().all(|q| q.latency.is_finite()));
        assert!(r.records.iter().all(|q| q.primary_response.is_finite()));
        assert!(r
            .records
            .iter()
            .all(|q| q.latency <= q.primary_response + 1e-12));
    }

    #[test]
    fn infinite_servers_have_no_queueing() {
        let mut service = IidService::new(Deterministic::new(3.0));
        let run = RunConfig {
            queries: 500,
            warmup: 0,
            seed: 2,
            arrival: ArrivalProcess::Poisson { rate: 100.0 }, // would melt a finite cluster
        };
        let r = simulate(
            &ClusterConfig {
                servers: 0,
                ..ClusterConfig::default()
            },
            &run,
            &mut service,
            &ReissuePolicy::None,
        );
        for q in &r.records {
            assert!((q.latency - 3.0).abs() < 1e-9);
            assert_eq!(q.primary_wait, 0.0);
        }
        assert!(r.server_utilization.is_empty());
    }

    #[test]
    fn utilization_matches_target() {
        let mut service = IidService::new(Exponential::new(0.5)); // mean 2
        let run = RunConfig {
            queries: 40_000,
            warmup: 0,
            seed: 3,
            arrival: ArrivalProcess::poisson_for_utilization(0.4, 8, 2.0),
        };
        let r = simulate(&fifo_cluster(8), &run, &mut service, &ReissuePolicy::None);
        let u = r.utilization();
        assert!((u - 0.4).abs() < 0.03, "utilization={u}");
    }

    #[test]
    fn reissue_rate_matches_budget_formula() {
        // Exp(1) service, no queueing (many servers, light load):
        // reissue rate should approximate q * Pr(X > d).
        let mut service = IidService::new(Exponential::new(1.0));
        let run = RunConfig {
            queries: 30_000,
            warmup: 0,
            seed: 4,
            arrival: ArrivalProcess::poisson_for_utilization(0.05, 10, 1.0),
        };
        let (d, q) = (1.0, 0.5);
        let r = simulate(
            &fifo_cluster(10),
            &run,
            &mut service,
            &ReissuePolicy::single_r(d, q),
        );
        // At 5% utilization queueing is negligible: Pr(X > 1) ≈ e^-1.
        let want = q * (-1.0f64).exp();
        let got = r.reissue_rate();
        assert!((got - want).abs() < 0.02, "want≈{want} got={got}");
    }

    #[test]
    fn single_d_reissues_all_outstanding() {
        let mut service = IidService::new(Deterministic::new(2.0));
        let run = RunConfig {
            queries: 1_000,
            warmup: 0,
            seed: 5,
            arrival: ArrivalProcess::Uniform { interval: 10.0 }, // idle cluster
        };
        // d=1 < service=2: every query outstanding at d → all reissue.
        let r = simulate(
            &fifo_cluster(4),
            &run,
            &mut service,
            &ReissuePolicy::single_d(1.0),
        );
        assert!((r.reissue_rate() - 1.0).abs() < 1e-12);
        // d=3 > service=2: nothing outstanding → no reissues.
        let mut service = IidService::new(Deterministic::new(2.0));
        let r = simulate(
            &fifo_cluster(4),
            &run,
            &mut service,
            &ReissuePolicy::single_d(3.0),
        );
        assert_eq!(r.reissue_rate(), 0.0);
    }

    #[test]
    fn hedging_cuts_tail_on_queueing_workload() {
        let mut service = CorrelatedService::new(Exponential::new(0.1), 0.0);
        let run = RunConfig {
            queries: 30_000,
            warmup: 3_000,
            seed: 6,
            arrival: ArrivalProcess::poisson_for_utilization(0.3, 10, 10.0),
        };
        let cluster = fifo_cluster(10);
        let base = simulate(&cluster, &run, &mut service, &ReissuePolicy::None);
        let mut service2 = CorrelatedService::new(Exponential::new(0.1), 0.0);
        let hedged = simulate(
            &cluster,
            &run,
            &mut service2,
            &ReissuePolicy::single_r(10.0, 0.8),
        );
        let (b, h) = (base.quantile(0.95), hedged.quantile(0.95));
        assert!(h < b, "hedged {h} >= baseline {b}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = RunConfig {
            queries: 3_000,
            warmup: 0,
            seed: 7,
            arrival: ArrivalProcess::poisson_for_utilization(0.5, 5, 1.0),
        };
        let go = || {
            let mut service = IidService::new(Exponential::new(1.0));
            simulate(
                &fifo_cluster(5),
                &run,
                &mut service,
                &ReissuePolicy::single_r(0.5, 0.3),
            )
        };
        let (a, b) = (go(), go());
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(b.records.iter()) {
            assert_eq!(x.latency, y.latency);
            assert_eq!(x.primary_server, y.primary_server);
        }
    }

    #[test]
    fn avoid_primary_routing_never_collides() {
        let mut service = IidService::new(Exponential::new(1.0));
        let run = RunConfig {
            queries: 5_000,
            warmup: 0,
            seed: 8,
            arrival: ArrivalProcess::poisson_for_utilization(0.6, 4, 1.0),
        };
        let r = simulate(
            &ClusterConfig {
                servers: 4,
                reissue_routing: ReissueRouting::AvoidPrimary,
                ..ClusterConfig::default()
            },
            &run,
            &mut service,
            &ReissuePolicy::single_r(0.1, 1.0),
        );
        for q in r.records.iter().filter(|q| q.reissued) {
            assert_ne!(q.primary_server, q.reissue_server);
        }
    }

    #[test]
    fn trace_service_round_robin_hol_blocking() {
        // One huge request (query of death) in a round-robin server
        // delays small requests from other connections; FIFO would too,
        // but round-robin keeps hurting across rounds. Just assert the
        // sim runs and the big query inflates the tail.
        let mut costs = vec![1.0; 200];
        costs[50] = 500.0;
        let mut service = TraceService::new(costs, 0.0);
        let run = RunConfig {
            queries: 200,
            warmup: 0,
            seed: 9,
            arrival: ArrivalProcess::Poisson { rate: 0.5 },
        };
        let r = simulate(
            &ClusterConfig {
                servers: 2,
                discipline: Discipline::RoundRobin { connections: 8 },
                ..ClusterConfig::default()
            },
            &run,
            &mut service,
            &ReissuePolicy::None,
        );
        let lat = r.latencies();
        assert!(quantile(&lat, 1.0) >= 500.0);
        assert_eq!(r.records.len(), 200);
    }

    #[test]
    fn queued_cancellation_reduces_wasted_work() {
        let mk_run = || RunConfig {
            queries: 20_000,
            warmup: 2_000,
            seed: 10,
            arrival: ArrivalProcess::poisson_for_utilization(0.5, 6, 1.0),
        };
        let policy = ReissuePolicy::single_r(0.0, 1.0); // hedge everything
        let mut s1 = IidService::new(Exponential::new(1.0));
        let with_cancel = simulate(
            &ClusterConfig {
                servers: 6,
                cancellation: Cancellation::Queued,
                ..ClusterConfig::default()
            },
            &mk_run(),
            &mut s1,
            &policy,
        );
        let mut s2 = IidService::new(Exponential::new(1.0));
        let without = simulate(&fifo_cluster(6), &mk_run(), &mut s2, &policy);
        // Cancellation strictly reduces executed work → lower utilization.
        assert!(
            with_cancel.utilization() < without.utilization(),
            "cancel {} !< plain {}",
            with_cancel.utilization(),
            without.utilization()
        );
    }

    #[test]
    fn deeper_cancellation_burns_strictly_less_and_loses_no_query() {
        // Exp(1) service at rho 0.5, hedging every query still
        // outstanding at the median service time.
        let run = RunConfig {
            queries: 20_000,
            warmup: 2_000,
            seed: 12,
            arrival: ArrivalProcess::poisson_for_utilization(0.5, 6, 1.0),
        };
        let policy = ReissuePolicy::single_r(std::f64::consts::LN_2, 1.0);
        let go = |cancellation| {
            let mut service = IidService::new(Exponential::new(1.0));
            let r = simulate(
                &ClusterConfig {
                    servers: 6,
                    cancellation,
                    ..ClusterConfig::default()
                },
                &run,
                &mut service,
                &policy,
            );
            // Every query resolves, once, with the response of a copy
            // that really finished: a preempted or dropped copy books
            // nothing, and the other one is never lost with it.
            assert_eq!(r.records.len(), run.queries);
            for q in &r.records {
                let reissue = q.reissue_dispatch_delay + q.reissue_response;
                let first = [q.primary_response, reissue]
                    .into_iter()
                    .filter(|t| t.is_finite())
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    q.latency.is_finite() && (q.latency - first).abs() < 1e-9,
                    "{cancellation:?}: {q:?}"
                );
            }
            r.utilization()
        };
        let (none, queued, in_service) = (
            go(Cancellation::None),
            go(Cancellation::Queued),
            go(Cancellation::InService),
        );
        assert!(
            in_service < queued && queued < none,
            "in service {in_service} < queued {queued} < none {none}"
        );
    }

    #[test]
    fn multiple_r_records_earliest_reissue() {
        let mut service = IidService::new(Deterministic::new(5.0));
        let run = RunConfig {
            queries: 100,
            warmup: 0,
            seed: 11,
            arrival: ArrivalProcess::Uniform { interval: 100.0 },
        };
        let policy = ReissuePolicy::multiple_r(vec![(1.0, 1.0), (2.0, 1.0)]);
        let r = simulate(&fifo_cluster(8), &run, &mut service, &policy);
        for q in &r.records {
            assert!(q.reissued);
            // Query latency = 5 (primary wins; reissues land at 6 and 7).
            assert!((q.latency - 5.0).abs() < 1e-9);
            // First reissue dispatched at delay 1.
            assert!((q.reissue_dispatch_delay - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn interference_inflates_tail_and_is_escapable() {
        let mk_run = |seed| RunConfig {
            queries: 20_000,
            warmup: 2_000,
            seed,
            arrival: ArrivalProcess::poisson_for_utilization(0.4, 10, 1.0),
        };
        let calm = ClusterConfig {
            servers: 10,
            ..ClusterConfig::default()
        };
        let stormy = ClusterConfig {
            servers: 10,
            interference: Some(Interference {
                mean_interval: 500.0,
                mean_duration: 25.0, // ~5% extra load in rare big chunks
            }),
            ..ClusterConfig::default()
        };
        let mut s = IidService::new(Exponential::new(1.0));
        let base_calm = simulate(&calm, &mk_run(1), &mut s, &ReissuePolicy::None);
        let mut s = IidService::new(Exponential::new(1.0));
        let base_storm = simulate(&stormy, &mk_run(1), &mut s, &ReissuePolicy::None);
        // Stalls push the tail out.
        assert!(
            base_storm.quantile(0.99) > 1.5 * base_calm.quantile(0.99),
            "storm {} !> 1.5x calm {}",
            base_storm.quantile(0.99),
            base_calm.quantile(0.99)
        );
        // ...and hedging claws a good part back (escape to another server).
        let mut s = IidService::new(Exponential::new(1.0));
        let hedged = simulate(
            &stormy,
            &mk_run(1),
            &mut s,
            &ReissuePolicy::single_r(5.0, 1.0),
        );
        assert!(
            hedged.quantile(0.99) < base_storm.quantile(0.99),
            "hedged {} !< storm {}",
            hedged.quantile(0.99),
            base_storm.quantile(0.99)
        );
    }

    #[test]
    fn interference_utilization_accounting() {
        let i = Interference {
            mean_interval: 900.0,
            mean_duration: 100.0,
        };
        assert!((i.utilization() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn zero_queries_panics() {
        let mut service = IidService::new(Exponential::new(1.0));
        let run = RunConfig {
            queries: 0,
            warmup: 0,
            seed: 0,
            arrival: ArrivalProcess::Poisson { rate: 1.0 },
        };
        let _ = simulate(&fifo_cluster(2), &run, &mut service, &ReissuePolicy::None);
    }
}
