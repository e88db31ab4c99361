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
//! ms).
//!
//! Every discipline is one sort key, fixed when an item is pushed: the
//! queue is a single deque kept in ascending key order, and the last
//! key field is the push count, so equal ranks keep push order. Even
//! [`Discipline::ShortestBurn`]'s aging is a static key, so `pop` no
//! longer reads the caller's *now* (it keeps the parameter).

use std::collections::VecDeque;

/// How a server orders its wait queue.
///
/// `RoundRobin` models the Redis event-loop: one sweep serves at most
/// one request per connection, so a pipelining-heavy client cannot
/// starve the others. On the TCP server each connection has at most
/// one request queued (its reader queues the next only once the first
/// is answered), so there it serves the waiting connections in cyclic
/// id order. The remaining variants order one central queue.
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
    /// Connections served cyclically, FIFO within each: `pop` takes
    /// the oldest item of the smallest connection id at or past the
    /// last served id + 1, wrapping to the smallest id.
    ///
    /// Ids are the items' raw connection ids and are never folded: the
    /// simulator draws them below `connections`, and the TCP server
    /// (`connections == 0`) uses its accept-order ids.
    RoundRobin {
        /// The simulator's fixed connection count, or 0 for the TCP
        /// server's dynamic ids. The queue itself does not read it.
        connections: usize,
    },
    /// Shortest-job-first on the *estimated* cost, with aging: the
    /// effective priority of a queued item is `cost − boost · wait`,
    /// and the lowest runs next, the earliest enqueued among ties,
    /// then the earliest pushed. Non-preemptive, so a monster that
    /// already started still blocks, but one that is still queued no
    /// longer delays the cheap traffic behind it.
    ///
    /// With `wait = now − enqueued_at`, every item's priority is its
    /// static key `cost + boost · enqueued_at` less the common
    /// `boost · now`, so the queue sorts on that key at push and
    /// orders items exactly as the aged priority does at any *now*
    /// past every enqueue stamp.
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
    /// Enqueue timestamp on the host's clock (ms).
    fn enqueued_at(&self) -> f64;
    /// Whether the item is a speculative reissue (the `Prioritized*`
    /// class split).
    fn is_reissue(&self) -> bool;
    /// Connection id for [`Discipline::RoundRobin`].
    fn connection(&self) -> usize;
}

/// A sort key: compared field by field, the smallest is served first
/// (the round robin starts at its cursor instead). The last field
/// derives from the push count, so no two queued keys are equal.
type Key = (u64, u64, u64);

/// A server wait queue ordered by one [`Discipline`].
#[derive(Clone, Debug)]
pub struct WaitQueue<T> {
    discipline: Discipline,
    /// Queued items in ascending key order.
    items: VecDeque<(Key, T)>,
    /// Items pushed so far.
    pushes: u64,
    /// Round robin: serve the smallest connection id at or past this.
    cursor: u64,
}

impl<T: QueueItem> WaitQueue<T> {
    /// Creates an empty queue with the given discipline.
    pub fn new(discipline: Discipline) -> Self {
        WaitQueue {
            discipline,
            items: VecDeque::new(),
            pushes: 0,
            cursor: 0,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Enqueues an item.
    pub fn push(&mut self, item: T) {
        let seq = self.pushes;
        self.pushes += 1;
        let key = match self.discipline {
            Discipline::Fifo => (0, 0, seq),
            Discipline::PrioritizedFifo => (u64::from(item.is_reissue()), 0, seq),
            // Reissues newest-first: the complement reverses push order.
            Discipline::PrioritizedLifo if item.is_reissue() => (1, 0, !seq),
            Discipline::PrioritizedLifo => (0, 0, seq),
            Discipline::RoundRobin { .. } => (item.connection() as u64, 0, seq),
            Discipline::ShortestBurn { boost } => {
                let at = item.enqueued_at();
                let rank = item.cost() + boost.max(0.0) * at;
                (total_order(rank), total_order(at), seq)
            }
        };
        // FIFO, and mostly the others, append: one `push_back`.
        if self.items.back().is_none_or(|(last, _)| *last < key) {
            self.items.push_back((key, item));
        } else {
            let i = self.items.partition_point(|(k, _)| *k < key);
            self.items.insert(i, (key, item));
        }
    }

    /// Dequeues the next item under the discipline. `_now` is the
    /// caller's clock, which no discipline reads any more.
    pub fn pop(&mut self, _now: f64) -> Option<T> {
        let mut i = 0;
        if let Discipline::RoundRobin { .. } = self.discipline {
            i = self.items.partition_point(|(k, _)| k.0 < self.cursor);
            if i == self.items.len() {
                i = 0;
            }
        }
        let ((id, ..), item) = self.items.remove(i)?;
        // Only the round robin reads the cursor.
        self.cursor = id.wrapping_add(1);
        Some(item)
    }

    /// Removes and returns the first queued item, in serving order,
    /// matching `pred` (retraction of a cancelled tied request).
    /// Returns `None` when no queued item matches — e.g. the target
    /// already dequeued.
    pub fn take(&mut self, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let i = self.items.iter().position(|(_, it)| pred(it))?;
        self.items.remove(i).map(|(_, it)| it)
    }
}

/// `x`'s bits remapped so that unsigned order is [`f64::total_cmp`]'s:
/// negatives flip every bit, the rest set the sign bit.
fn total_order(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(drain_ids(&mut q, 10.0), vec![0, 2, 1]);
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

    /// A gone connection leaves nothing behind: over 10 000 distinct
    /// ids, one queued at a time, the one deque keeps its first
    /// allocation.
    #[test]
    fn round_robin_drops_the_sub_queues_of_gone_connections() {
        let mut q = WaitQueue::new(Discipline::RoundRobin { connections: 0 });
        for conn in 0..10_000 {
            q.push(item(conn as u32, 1.0, 0.0, false, conn));
            assert_eq!(q.pop(0.0).unwrap().id, conn as u32);
            assert!(q.items.capacity() <= 4, "capacity {}", q.items.capacity());
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

    /// The queue's rules restated by brute force over the queued items
    /// in push order: arrival order; primaries first, reissues FIFO or
    /// LIFO; the smallest connection id cyclically at or past the
    /// cursor; the least `cost − boost·wait`, ties to the earlier
    /// enqueue, then to the earlier push.
    fn reference_pop(
        items: &mut Vec<Item>,
        discipline: Discipline,
        cursor: &mut usize,
        now: f64,
    ) -> Option<Item> {
        let first = |p: &dyn Fn(&Item) -> bool| items.iter().position(p);
        let i = match discipline {
            Discipline::Fifo => first(&|_| true),
            Discipline::PrioritizedFifo => {
                first(&|it| !it.reissue).or_else(|| first(&|it| it.reissue))
            }
            Discipline::PrioritizedLifo => {
                first(&|it| !it.reissue).or_else(|| items.iter().rposition(|it| it.reissue))
            }
            Discipline::RoundRobin { .. } => {
                let ids = || items.iter().map(|it| it.conn);
                let id = ids()
                    .filter(|&c| c >= *cursor)
                    .min()
                    .or_else(|| ids().min())?;
                *cursor = id + 1;
                first(&|it| it.conn == id)
            }
            Discipline::ShortestBurn { boost } => {
                let prio = |it: &Item| (it.cost - boost * (now - it.at).max(0.0), it.at);
                (0..items.len()).min_by(|&a, &b| {
                    let ((pa, ta), (pb, tb)) = (prio(&items[a]), prio(&items[b]));
                    pa.total_cmp(&pb).then(ta.total_cmp(&tb))
                })
            }
        }?;
        Some(items.remove(i))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Random interleavings of push, pop and take under every
        /// discipline pop and retract what the reference does. The
        /// clock starts negative and steps by 0, 1, 1000 or 5000 ms,
        /// each stamp lags it by 0, 1 or 1000 ms (a stamp taken before
        /// the queue's lock), and costs are multiples of 5000 up to
        /// 1e5, so aging reorders items, keys take both signs, both
        /// sides' arithmetic is exact and ties are common.
        #[test]
        fn every_discipline_matches_the_brute_force_reference(
            which in 0usize..6,
            half_boost in 0u32..4,
            ops in proptest::collection::vec(
                (
                    0u32..5,
                    0u32..21,
                    (0usize..4, 0usize..3, 0usize..8),
                    (any::<bool>(), 0u32..1000),
                ),
                0..201,
            ),
        ) {
            const STEPS: [f64; 4] = [0.0, 1.0, 1000.0, 5000.0];
            let boost = f64::from(half_boost) / 2.0;
            let discipline = [
                Discipline::Fifo,
                Discipline::PrioritizedFifo,
                Discipline::PrioritizedLifo,
                Discipline::RoundRobin { connections: 0 },
                Discipline::RoundRobin { connections: 8 },
                Discipline::ShortestBurn { boost },
            ][which];
            let mut q = WaitQueue::new(discipline);
            let (mut model, mut cursor, mut now) = (Vec::new(), 0, -150_000.0);
            for (n, &(op, cost, (dt, lag, conn), (reissue, pick))) in ops.iter().enumerate() {
                now += STEPS[dt];
                let n = n as u32;
                match op {
                    0..=2 => {
                        let cost = f64::from(cost * 5000);
                        let it = item(n, cost, now - STEPS[lag], reissue, conn);
                        q.push(it.clone());
                        model.push(it);
                    }
                    3 => prop_assert_eq!(
                        q.pop(now),
                        reference_pop(&mut model, discipline, &mut cursor, now)
                    ),
                    _ => {
                        // Any id pushed so far, or one never pushed.
                        let id = pick % (n + 1);
                        let want = model
                            .iter()
                            .position(|it| it.id == id)
                            .map(|i| model.remove(i));
                        prop_assert_eq!(q.take(|it| it.id == id), want);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
            }
        }
    }
}
