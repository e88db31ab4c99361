//! Queue disciplines shared by the cluster simulator and the TCP
//! serving path.
//!
//! The paper's reissue policies decide *when a second copy of a
//! request enters some server's queue*; the queue discipline decides
//! *which queued request runs next*. Both knobs target the same tail
//! (Yu & Scully show the discipline alone reshapes the light-tailed
//! M/G/1 tail), so this module defines one [`Discipline`] type and one
//! [`WaitQueue`] implementation that the discrete-event simulator
//! (`simulator::cluster`) and the real server (`hedge::TcpServer`)
//! both execute, so discipline × reissue policy is measured on
//! identical scheduling semantics in both.
//!
//! The queue is generic over [`QueueItem`]: the simulator queues its
//! `QueuedRequest` (service time in simulated ms), the TCP server
//! queues scheduler entries (estimated cost from
//! `kvstore::Backend::estimate_cost`, wall-clock enqueue stamps in
//! ms). `pop` takes the caller's *now* so the aging disciplines
//! ([`Discipline::ShortestBurn`]) can decay priorities without the
//! queue owning a clock.

use std::collections::{BTreeMap, VecDeque};

/// How a server orders its wait queue.
///
/// `RoundRobin`'s per-connection sub-queues model the Redis
/// event-loop: one sweep serves at most one request per connection, so
/// a pipelining-heavy client cannot starve the others. On the TCP
/// server each connection has at most one request queued (its reader
/// queues the next only once the first is answered), so there it
/// serves the waiting connections in cyclic id order. The remaining
/// variants order one central queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Discipline {
    /// Strict arrival order.
    Fifo,
    /// Primaries before reissues; FIFO within each class. A reissue is
    /// speculative work, so under backlog it yields to first copies.
    PrioritizedFifo,
    /// Primaries before reissues; LIFO within the reissue class (the
    /// freshest speculation is the likeliest to still matter).
    PrioritizedLifo,
    /// Per-connection FIFO sub-queues served cyclically.
    ///
    /// `connections == 0` means *dynamic*: sub-queues are keyed by the
    /// item's raw connection id, created on first use (the TCP
    /// server's accept-order ids) and dropped, amortized, once empty.
    /// A non-zero count folds ids modulo `connections` into a fixed
    /// ring, matching the simulator's pre-assigned connection model.
    RoundRobin {
        /// Number of fixed sub-queues, or 0 for dynamic ids.
        connections: usize,
    },
    /// Shortest-job-first on the *estimated* cost, with aging: the
    /// effective priority of a queued item is `cost − boost · wait`,
    /// and the lowest runs next, FIFO among ties. Non-preemptive, so a
    /// monster that already started still blocks, but one that is
    /// still queued no longer delays the cheap traffic behind it.
    ///
    /// `boost: 0.0` is plain cost priority, under which a steady
    /// stream of cheap arrivals can starve an expensive request. With
    /// `boost > 0` the starvation bound is explicit: after waiting
    /// `cost / boost` time units, an item outranks any zero-cost
    /// newcomer and must be served before it.
    ShortestBurn {
        /// Priority units forgiven per unit of waiting time (cost
        /// units per ms in both the simulator and the TCP server).
        boost: f64,
    },
}

/// What a [`WaitQueue`] needs to know about a queued request.
pub trait QueueItem {
    /// Estimated service cost, in whatever unit the host measures
    /// ([`Discipline::ShortestBurn`] compares these).
    fn cost(&self) -> f64;
    /// Enqueue timestamp on the host's clock (ms); `pop` receives
    /// *now* on the same clock.
    fn enqueued_at(&self) -> f64;
    /// Whether the item is a speculative reissue (the `Prioritized*`
    /// class split).
    fn is_reissue(&self) -> bool;
    /// Connection id for [`Discipline::RoundRobin`] sub-queues.
    fn connection(&self) -> usize;
}

/// A server wait queue ordered by one [`Discipline`].
#[derive(Clone, Debug)]
pub enum WaitQueue<T> {
    /// Single FIFO queue.
    Fifo(VecDeque<T>),
    /// Primary-class queue + reissue-class queue; `lifo` controls the
    /// reissue class's pop end.
    Prioritized {
        /// Queued primaries, FIFO.
        primary: VecDeque<T>,
        /// Queued reissues.
        reissue: VecDeque<T>,
        /// Pop reissues newest-first when set.
        lifo: bool,
    },
    /// Cyclic service over per-connection FIFO sub-queues.
    RoundRobin {
        /// Sub-queues keyed by (possibly folded) connection id.
        queues: BTreeMap<usize, VecDeque<T>>,
        /// Next id to serve: the smallest id ≥ `cursor`, wrapping.
        cursor: usize,
        /// Fixed ring size, or 0 for dynamic ids.
        connections: usize,
        /// Total queued items across sub-queues.
        len: usize,
    },
    /// Unordered pool; `pop` scans for the minimum effective priority.
    Priority {
        /// Queued items, scanned linearly on pop.
        items: Vec<T>,
        /// Aging rate (0 for plain cost priority).
        boost: f64,
    },
}

impl<T: QueueItem> WaitQueue<T> {
    /// Creates an empty queue with the given discipline.
    pub fn new(discipline: Discipline) -> Self {
        match discipline {
            Discipline::Fifo => WaitQueue::Fifo(VecDeque::new()),
            Discipline::PrioritizedFifo => WaitQueue::Prioritized {
                primary: VecDeque::new(),
                reissue: VecDeque::new(),
                lifo: false,
            },
            Discipline::PrioritizedLifo => WaitQueue::Prioritized {
                primary: VecDeque::new(),
                reissue: VecDeque::new(),
                lifo: true,
            },
            Discipline::RoundRobin { connections } => WaitQueue::RoundRobin {
                queues: BTreeMap::new(),
                cursor: 0,
                connections,
                len: 0,
            },
            Discipline::ShortestBurn { boost } => WaitQueue::Priority {
                items: Vec::new(),
                boost: boost.max(0.0),
            },
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        match self {
            WaitQueue::Fifo(q) => q.len(),
            WaitQueue::Prioritized {
                primary, reissue, ..
            } => primary.len() + reissue.len(),
            WaitQueue::RoundRobin { len, .. } => *len,
            WaitQueue::Priority { items, .. } => items.len(),
        }
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues an item.
    pub fn push(&mut self, item: T) {
        match self {
            WaitQueue::Fifo(q) => q.push_back(item),
            WaitQueue::Prioritized {
                primary, reissue, ..
            } => {
                if item.is_reissue() {
                    reissue.push_back(item);
                } else {
                    primary.push_back(item);
                }
            }
            WaitQueue::RoundRobin {
                queues,
                connections,
                len,
                ..
            } => {
                // Dynamic ids never come back once their connection
                // closes: drop the empty sub-queues, amortized, so the
                // map stays within a constant of the queued items.
                if queues.len() > 2 * *len + 64 {
                    queues.retain(|_, q| !q.is_empty());
                }
                let id = fold_conn(item.connection(), *connections);
                queues.entry(id).or_default().push_back(item);
                *len += 1;
            }
            WaitQueue::Priority { items, .. } => items.push(item),
        }
    }

    /// Dequeues the next item under the discipline. `now` is the
    /// caller's clock in the same unit as [`QueueItem::enqueued_at`]
    /// (only the aging disciplines read it).
    pub fn pop(&mut self, now: f64) -> Option<T> {
        match self {
            WaitQueue::Fifo(q) => q.pop_front(),
            WaitQueue::Prioritized {
                primary,
                reissue,
                lifo,
            } => primary.pop_front().or_else(|| {
                if *lifo {
                    reissue.pop_back()
                } else {
                    reissue.pop_front()
                }
            }),
            WaitQueue::RoundRobin {
                queues,
                cursor,
                len,
                ..
            } => {
                // The smallest id cyclically ≥ cursor with work.
                let id = queues
                    .range(*cursor..)
                    .chain(queues.range(..*cursor))
                    .find(|(_, q)| !q.is_empty())
                    .map(|(&id, _)| id)?;
                let item = queues.get_mut(&id).and_then(|q| q.pop_front());
                if item.is_some() {
                    *len -= 1;
                    *cursor = id + 1;
                }
                item
            }
            WaitQueue::Priority { items, boost } => {
                let best = items
                    .iter()
                    .enumerate()
                    .map(|(i, it)| {
                        let prio = it.cost() - *boost * (now - it.enqueued_at()).max(0.0);
                        (i, prio, it.enqueued_at())
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.2.total_cmp(&b.2)))?;
                Some(items.remove(best.0))
            }
        }
    }

    /// Removes and returns the first queued item matching `pred`
    /// (retraction of a cancelled tied request). Returns `None` when
    /// no queued item matches — e.g. the target already dequeued.
    pub fn take(&mut self, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        fn take_deque<T>(q: &mut VecDeque<T>, pred: &mut impl FnMut(&T) -> bool) -> Option<T> {
            let i = q.iter().position(&mut *pred)?;
            q.remove(i)
        }
        match self {
            WaitQueue::Fifo(q) => take_deque(q, &mut pred),
            WaitQueue::Prioritized {
                primary, reissue, ..
            } => take_deque(primary, &mut pred).or_else(|| take_deque(reissue, &mut pred)),
            WaitQueue::RoundRobin { queues, len, .. } => {
                let found = queues.values_mut().find_map(|q| take_deque(q, &mut pred));
                if found.is_some() {
                    *len -= 1;
                }
                found
            }
            WaitQueue::Priority { items, .. } => {
                let i = items.iter().position(pred)?;
                Some(items.remove(i))
            }
        }
    }
}

/// Folds a raw connection id into a fixed ring, or passes it through
/// when the ring is dynamic (`connections == 0`).
fn fold_conn(id: usize, connections: usize) -> usize {
    if connections == 0 {
        id
    } else {
        id % connections
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Item {
        id: u32,
        cost: f64,
        at: f64,
        reissue: bool,
        conn: usize,
    }

    impl QueueItem for Item {
        fn cost(&self) -> f64 {
            self.cost
        }
        fn enqueued_at(&self) -> f64 {
            self.at
        }
        fn is_reissue(&self) -> bool {
            self.reissue
        }
        fn connection(&self) -> usize {
            self.conn
        }
    }

    fn item(id: u32, cost: f64, at: f64, reissue: bool, conn: usize) -> Item {
        Item {
            id,
            cost,
            at,
            reissue,
            conn,
        }
    }

    fn drain_ids(q: &mut WaitQueue<Item>, now: f64) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(it) = q.pop(now) {
            out.push(it.id);
        }
        out
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut q = WaitQueue::new(Discipline::Fifo);
        for i in 0..4 {
            q.push(item(i, (10 - i) as f64, i as f64, i % 2 == 1, 0));
        }
        assert_eq!(q.len(), 4);
        assert_eq!(drain_ids(&mut q, 10.0), vec![0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn prioritized_fifo_serves_primaries_first() {
        let mut q = WaitQueue::new(Discipline::PrioritizedFifo);
        q.push(item(0, 1.0, 0.0, true, 0));
        q.push(item(1, 1.0, 1.0, false, 0));
        q.push(item(2, 1.0, 2.0, true, 0));
        q.push(item(3, 1.0, 3.0, false, 0));
        assert_eq!(drain_ids(&mut q, 10.0), vec![1, 3, 0, 2]);
    }

    #[test]
    fn prioritized_lifo_pops_freshest_reissue() {
        let mut q = WaitQueue::new(Discipline::PrioritizedLifo);
        q.push(item(0, 1.0, 0.0, true, 0));
        q.push(item(1, 1.0, 1.0, true, 0));
        q.push(item(2, 1.0, 2.0, false, 0));
        assert_eq!(drain_ids(&mut q, 10.0), vec![2, 1, 0]);
    }

    #[test]
    fn round_robin_cycles_fixed_connections() {
        let mut q = WaitQueue::new(Discipline::RoundRobin { connections: 3 });
        // Two items on conn 0, one on conn 2; conn 1 idle.
        q.push(item(0, 1.0, 0.0, false, 0));
        q.push(item(1, 1.0, 1.0, false, 0));
        q.push(item(2, 1.0, 2.0, false, 2));
        // Folding: conn 5 % 3 == 2 shares conn 2's sub-queue.
        q.push(item(3, 1.0, 3.0, false, 5));
        assert_eq!(drain_ids(&mut q, 10.0), vec![0, 2, 1, 3]);
    }

    #[test]
    fn round_robin_dynamic_ids_cycle_in_id_order() {
        let mut q = WaitQueue::new(Discipline::RoundRobin { connections: 0 });
        q.push(item(0, 1.0, 0.0, false, 17));
        q.push(item(1, 1.0, 1.0, false, 4));
        q.push(item(2, 1.0, 2.0, false, 17));
        q.push(item(3, 1.0, 3.0, false, 900));
        // Cursor starts at 0: serve 4, then 17, then 900, then wrap
        // back to 17's second item.
        assert_eq!(drain_ids(&mut q, 10.0), vec![1, 0, 3, 2]);
    }

    #[test]
    fn round_robin_drops_the_sub_queues_of_gone_connections() {
        let mut q = WaitQueue::new(Discipline::RoundRobin { connections: 0 });
        for conn in 0..10_000 {
            q.push(item(conn as u32, 1.0, 0.0, false, conn));
            assert_eq!(q.pop(0.0).unwrap().id, conn as u32);
            let WaitQueue::RoundRobin { queues, .. } = &q else {
                unreachable!()
            };
            assert!(queues.len() <= 65, "{} sub-queues", queues.len());
        }
    }

    #[test]
    fn cost_priority_is_sjf_with_fifo_ties() {
        let mut q = WaitQueue::new(Discipline::ShortestBurn { boost: 0.0 });
        q.push(item(0, 5.0, 0.0, false, 0));
        q.push(item(1, 1.0, 1.0, false, 0));
        q.push(item(2, 1.0, 2.0, false, 0));
        q.push(item(3, 3.0, 3.0, false, 0));
        assert_eq!(drain_ids(&mut q, 10.0), vec![1, 2, 3, 0]);
    }

    #[test]
    fn shortest_burn_ages_expensive_items_past_newcomers() {
        let mut q = WaitQueue::new(Discipline::ShortestBurn { boost: 1.0 });
        // A monster enqueued at t=0 with cost 100; cheap items keep
        // arriving. Before the monster has waited 100 ms it loses to a
        // cost-1 newcomer...
        q.push(item(0, 100.0, 0.0, false, 0));
        q.push(item(1, 1.0, 50.0, false, 0));
        assert_eq!(q.pop(50.0).unwrap().id, 1);
        // ...but once its wait exceeds cost/boost it outranks even a
        // zero-cost arrival: the starvation bound.
        q.push(item(2, 0.0, 101.0, false, 0));
        assert_eq!(q.pop(101.0).unwrap().id, 0);
        assert_eq!(q.pop(101.0).unwrap().id, 2);
    }

    #[test]
    fn starvation_bound_holds_under_continuous_cheap_arrivals() {
        // cost/boost = 40/2 = 20 ms: with cheap cost-1 arrivals every
        // ms, the monster must be served within its bound.
        let mut q = WaitQueue::new(Discipline::ShortestBurn { boost: 2.0 });
        q.push(item(999, 40.0, 0.0, false, 0));
        let mut served_monster_at = None;
        for t in 1..60u32 {
            let now = t as f64;
            q.push(item(t, 1.0, now, false, 0));
            if let Some(it) = q.pop(now) {
                if it.id == 999 {
                    served_monster_at = Some(now);
                    break;
                }
            }
        }
        let at = served_monster_at.expect("monster starved");
        assert!(
            at <= 40.0 / 2.0 + 1.0,
            "monster served at {at} ms, past the cost/boost bound"
        );
    }

    #[test]
    fn take_retracts_only_queued_items() {
        let mut q = WaitQueue::new(Discipline::ShortestBurn { boost: 0.0 });
        q.push(item(0, 1.0, 0.0, false, 0));
        q.push(item(1, 2.0, 1.0, true, 0));
        assert_eq!(q.take(|it| it.id == 1).unwrap().id, 1);
        assert!(q.take(|it| it.id == 1).is_none(), "already retracted");
        assert_eq!(q.len(), 1);
        // Round-robin bookkeeping survives a take.
        let mut rr = WaitQueue::new(Discipline::RoundRobin { connections: 0 });
        rr.push(item(0, 1.0, 0.0, false, 3));
        rr.push(item(1, 1.0, 1.0, false, 9));
        assert_eq!(rr.take(|it| it.id == 0).unwrap().id, 0);
        assert_eq!(rr.len(), 1);
        assert_eq!(drain_ids(&mut rr, 5.0), vec![1]);
    }
}
