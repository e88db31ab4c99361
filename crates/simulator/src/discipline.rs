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

    fn req(query: usize, is_reissue: bool, connection: usize) -> QueuedRequest {
        QueuedRequest {
            query,
            is_reissue,
            service: 1.0,
            enqueued_at: 0.0,
            connection,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = WaitQueue::new(Discipline::Fifo);
        q.push(req(1, false, 0));
        q.push(req(2, true, 0));
        q.push(req(3, false, 0));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop(0.0).map(|r| r.query)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn prioritized_fifo_serves_primaries_first() {
        let mut q = WaitQueue::new(Discipline::PrioritizedFifo);
        q.push(req(1, true, 0));
        q.push(req(2, false, 0));
        q.push(req(3, true, 0));
        q.push(req(4, false, 0));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop(0.0).map(|r| r.query)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]); // primaries FIFO, then reissues FIFO
    }

    #[test]
    fn prioritized_lifo_reverses_reissues() {
        let mut q = WaitQueue::new(Discipline::PrioritizedLifo);
        q.push(req(1, true, 0));
        q.push(req(2, true, 0));
        q.push(req(3, false, 0));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop(0.0).map(|r| r.query)).collect();
        assert_eq!(order, vec![3, 2, 1]); // primary, then reissues LIFO
    }

    #[test]
    fn round_robin_cycles_connections() {
        let mut q = WaitQueue::new(Discipline::RoundRobin { connections: 3 });
        // Connection 0 backlogged; 1 and 2 have one request each.
        q.push(req(10, false, 0));
        q.push(req(11, false, 0));
        q.push(req(12, false, 0));
        q.push(req(20, false, 1));
        q.push(req(30, false, 2));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop(0.0).map(|r| r.query)).collect();
        // One per connection per turn: 10, 20, 30, then drain 0.
        assert_eq!(order, vec![10, 20, 30, 11, 12]);
    }

    #[test]
    fn round_robin_len_tracks() {
        let mut q = WaitQueue::new(Discipline::RoundRobin { connections: 2 });
        assert_eq!(q.len(), 0);
        q.push(req(1, false, 0));
        q.push(req(2, false, 1));
        assert_eq!(q.len(), 2);
        q.pop(0.0);
        assert_eq!(q.len(), 1);
        q.pop(0.0);
        assert!(q.pop(0.0).is_none());
    }

    #[test]
    fn connection_ids_wrap() {
        let mut q = WaitQueue::new(Discipline::RoundRobin { connections: 2 });
        q.push(req(1, false, 7)); // 7 % 2 == 1
        q.push(req(2, false, 0));
        // Cursor starts at 0: connection 0 first.
        assert_eq!(q.pop(0.0).unwrap().query, 2);
        assert_eq!(q.pop(0.0).unwrap().query, 1);
    }

    #[test]
    fn zero_connections_means_dynamic_ids() {
        // connections == 0 is no longer rejected: sub-queues are keyed
        // by raw connection id (the TCP server's accept-order ids).
        let mut q = WaitQueue::new(Discipline::RoundRobin { connections: 0 });
        q.push(req(1, false, 40));
        q.push(req(2, false, 7));
        assert_eq!(q.pop(0.0).unwrap().query, 2);
        assert_eq!(q.pop(0.0).unwrap().query, 1);
    }

    #[test]
    fn cost_priority_serves_cheapest_first() {
        let mut q = WaitQueue::new(Discipline::ShortestBurn { boost: 0.0 });
        q.push(QueuedRequest {
            query: 1,
            is_reissue: false,
            service: 9.0,
            enqueued_at: 0.0,
            connection: 0,
        });
        q.push(QueuedRequest {
            query: 2,
            is_reissue: false,
            service: 1.0,
            enqueued_at: 1.0,
            connection: 0,
        });
        assert_eq!(q.pop(2.0).unwrap().query, 2);
        assert_eq!(q.pop(2.0).unwrap().query, 1);
    }
}
