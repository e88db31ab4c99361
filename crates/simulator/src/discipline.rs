//! Server queue disciplines (Figure 5c and the Redis model of §6.2).
//!
//! The [`Discipline`] type and the [`WaitQueue`] implementation now
//! live in [`reissue_core::discipline`], shared with the real TCP
//! server (`hedge::TcpServer`) so the simulator and the serving path
//! schedule with identical semantics. This module keeps the
//! simulator-facing re-export and adapts the simulator's
//! [`QueuedRequest`] to the shared [`QueueItem`] trait (its estimated
//! cost is the exact service time — the simulator is clairvoyant,
//! where the server only has `Backend::estimate_cost`).

pub use reissue_core::discipline::Discipline;
use reissue_core::discipline::QueueItem;

/// A queued request, as seen by the discipline.
#[derive(Clone, Copy, Debug)]
pub(crate) struct QueuedRequest {
    pub query: usize,
    pub is_reissue: bool,
    pub service: f64,
    pub enqueued_at: f64,
    /// Connection id for round-robin scheduling.
    pub connection: usize,
}

impl QueueItem for QueuedRequest {
    fn cost(&self) -> f64 {
        self.service
    }
    fn enqueued_at(&self) -> f64 {
        self.enqueued_at
    }
    fn is_reissue(&self) -> bool {
        self.is_reissue
    }
    fn connection(&self) -> usize {
        self.connection
    }
}

/// A server's wait queue under a given [`Discipline`].
pub(crate) type WaitQueue = reissue_core::discipline::WaitQueue<QueuedRequest>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The adapter feeds the shared queue the request's reissue flag and
    /// connection: `core::discipline`'s own tests cover the orders.
    #[test]
    fn queued_requests_reach_the_shared_queue() {
        let req = |query, is_reissue, connection| QueuedRequest {
            query,
            is_reissue,
            service: 1.0,
            enqueued_at: 0.0,
            connection,
        };
        let drain = |q: &mut WaitQueue| {
            std::iter::from_fn(|| q.pop(0.0).map(|r| r.query)).collect::<Vec<_>>()
        };

        let mut q = WaitQueue::new(Discipline::PrioritizedFifo);
        q.push(req(1, true, 0));
        q.push(req(2, false, 0));
        q.push(req(3, true, 0));
        assert_eq!(drain(&mut q), vec![2, 1, 3]);

        let mut q = WaitQueue::new(Discipline::RoundRobin { connections: 2 });
        q.push(req(10, false, 0));
        q.push(req(11, false, 0));
        q.push(req(20, false, 1));
        assert_eq!(drain(&mut q), vec![10, 20, 11]);
    }
}
