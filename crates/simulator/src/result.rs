//! Per-query records and aggregate simulation results.

use reissue_core::adaptive::RunSample;

/// Everything observed about one query.
#[derive(Clone, Copy, Debug)]
pub struct QueryRecord {
    /// Arrival (= primary dispatch) time.
    pub arrival: f64,
    /// Primary request's response time (arrival → its own completion),
    /// even if a reissue finished the query first. NaN if the primary
    /// was cancelled, in its queue or in service (only with
    /// cancellation enabled).
    pub primary_response: f64,
    /// Whether a reissue request was actually sent.
    pub reissued: bool,
    /// Delay (from arrival) at which the reissue was dispatched;
    /// NaN if none.
    pub reissue_dispatch_delay: f64,
    /// Reissue response time measured from its own dispatch; NaN if
    /// none or cancelled.
    pub reissue_response: f64,
    /// Realized query latency: time from arrival until the *first*
    /// response from any copy.
    pub latency: f64,
    /// Queueing delay experienced by the primary request.
    pub primary_wait: f64,
    /// Server that executed the primary.
    pub primary_server: usize,
    /// Server that executed the reissue (`usize::MAX` if none).
    pub reissue_server: usize,
}

/// The outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Per-query records in arrival order (including warmup).
    pub records: Vec<QueryRecord>,
    /// Number of leading records treated as warmup by the metric
    /// accessors.
    pub warmup: usize,
    /// Measured per-server utilization (busy time / makespan).
    pub server_utilization: Vec<f64>,
    /// Virtual time at which the last event completed.
    pub makespan: f64,
}

impl SimResult {
    /// Records past the warmup prefix.
    pub fn measured(&self) -> &[QueryRecord] {
        &self.records[self.warmup.min(self.records.len())..]
    }

    /// Realized query latencies (post-warmup).
    pub fn latencies(&self) -> Vec<f64> {
        self.measured().iter().map(|r| r.latency).collect()
    }

    /// Primary response times (post-warmup), excluding cancelled ones.
    pub fn primaries(&self) -> Vec<f64> {
        self.measured()
            .iter()
            .map(|r| r.primary_response)
            .filter(|v| v.is_finite())
            .collect()
    }

    /// `(primary, reissue)` response-time pairs of reissued queries
    /// (post-warmup), both finite.
    pub fn pairs(&self) -> Vec<(f64, f64)> {
        self.measured()
            .iter()
            .filter(|r| r.reissued)
            .map(|r| (r.primary_response, r.reissue_response))
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect()
    }

    /// Fraction of post-warmup queries that sent a reissue.
    pub fn reissue_rate(&self) -> f64 {
        let m = self.measured();
        if m.is_empty() {
            return 0.0;
        }
        m.iter().filter(|r| r.reissued).count() as f64 / m.len() as f64
    }

    /// Nearest-rank `p`-quantile of realized latency (post-warmup).
    ///
    /// # Panics
    /// Panics if there are no post-warmup records.
    pub fn quantile(&self, p: f64) -> f64 {
        reissue_core::metrics::quantile(&self.latencies(), p)
    }

    /// Mean measured utilization across servers (0 for the
    /// infinite-server cluster).
    pub fn utilization(&self) -> f64 {
        if self.server_utilization.is_empty() {
            return 0.0;
        }
        self.server_utilization.iter().sum::<f64>() / self.server_utilization.len() as f64
    }

    /// Converts to the [`RunSample`] consumed by the adaptive optimizer.
    pub fn to_run_sample(&self) -> RunSample {
        RunSample {
            primary: self.primaries(),
            pairs: self.pairs(),
            latency: self.latencies(),
            reissue_rate: self.reissue_rate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(latency: f64, reissued: bool) -> QueryRecord {
        QueryRecord {
            arrival: 0.0,
            primary_response: latency,
            reissued,
            reissue_dispatch_delay: if reissued { 1.0 } else { f64::NAN },
            reissue_response: if reissued { latency / 2.0 } else { f64::NAN },
            latency,
            primary_wait: 0.0,
            primary_server: 0,
            reissue_server: if reissued { 1 } else { usize::MAX },
        }
    }

    #[test]
    fn warmup_is_skipped() {
        let records: Vec<QueryRecord> = (1..=10).map(|i| record(i as f64, false)).collect();
        let r = SimResult {
            records,
            warmup: 5,
            server_utilization: vec![0.5, 0.7],
            makespan: 100.0,
        };
        assert_eq!(r.measured().len(), 5);
        assert_eq!(r.latencies(), vec![6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!((r.utilization() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn reissue_rate_counts_post_warmup() {
        let mut records: Vec<QueryRecord> = (0..8).map(|_| record(1.0, false)).collect();
        records.push(record(2.0, true));
        records.push(record(3.0, true));
        let r = SimResult {
            records,
            warmup: 0,
            server_utilization: vec![],
            makespan: 10.0,
        };
        assert!((r.reissue_rate() - 0.2).abs() < 1e-12);
        assert_eq!(r.pairs().len(), 2);
    }

    #[test]
    fn empty_measured_defaults() {
        let r = SimResult {
            records: vec![],
            warmup: 0,
            server_utilization: vec![],
            makespan: 0.0,
        };
        assert_eq!(r.reissue_rate(), 0.0);
        assert!(r.pairs().is_empty());
    }
}
