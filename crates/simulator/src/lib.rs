//! Discrete-event simulator for replicated request/response clusters
//! with reissue (hedging) support.
//!
//! This is the substrate behind §5 of *Optimal Reissue Policies for
//! Reducing Tail Latency* and the stand-in for its §6 testbed: an
//! open-loop client population sends queries to a cluster of
//! single-worker servers; a [`reissue_core::ReissuePolicy`] decides
//! whether/when each query is hedged with a duplicate request.
//!
//! Components, each matching a knob the paper varies:
//!
//! * [`ArrivalProcess`] — open-loop Poisson (the paper's client
//!   emulation) or deterministic arrivals;
//! * [`Balancer`] — `Random`, `MinOfTwo`, `MinOfAll` (Figure 5b);
//! * [`Discipline`] — `Fifo`, `PrioritizedFifo`, `PrioritizedLifo`
//!   (Figure 5c) plus `RoundRobin` connection scheduling (the Redis
//!   service model of §6.2), each one sort key of the one sorted wait
//!   queue the TCP server runs too (`reissue_core::discipline`);
//! * [`ServiceModel`] — iid, correlated (`Y = r·x + Z`, §5.1) or
//!   trace-driven (measured engine costs, §6) service times;
//! * [`simulate`] — the event loop, producing a [`SimResult`] with
//!   per-query records, measured utilization and reissue rate.
//!
//! The simulator is fully deterministic given a seed: every stochastic
//! component draws from its own split RNG stream, so changing one knob
//! (e.g. the policy) leaves the others' draws paired across runs.
//!
//! # Example
//!
//! ```
//! use reissue_core::ReissuePolicy;
//! use simulator::{
//!     simulate, ArrivalProcess, Balancer, ClusterConfig, CorrelatedService,
//!     Discipline, RunConfig,
//! };
//! use distributions::Pareto;
//!
//! let cluster = ClusterConfig {
//!     servers: 10,
//!     discipline: Discipline::Fifo,
//!     balancer: Balancer::Random,
//!     ..ClusterConfig::default()
//! };
//! let mut service = CorrelatedService::new(Pareto::paper_default(), 0.5);
//! // 30% utilization over 10 servers with mean service 22.0.
//! let run = RunConfig {
//!     queries: 5_000,
//!     warmup: 500,
//!     seed: 1,
//!     arrival: ArrivalProcess::poisson_for_utilization(0.3, 10, 22.0),
//! };
//! let result = simulate(&cluster, &run, &mut service, &ReissuePolicy::single_r(30.0, 0.5));
//! println!("P95 = {:.1}, reissue rate = {:.3}", result.quantile(0.95), result.reissue_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balancer;
mod cluster;
mod discipline;
mod events;
mod result;
mod service;

pub use balancer::Balancer;
pub use cluster::{
    simulate, ArrivalProcess, Cancellation, ClusterConfig, Interference, ReissueRouting, RunConfig,
};
pub use discipline::Discipline;
pub use result::{QueryRecord, SimResult};
pub use service::{CorrelatedService, IidService, ServiceModel, TraceService};
