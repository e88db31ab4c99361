//! The simulator's event queue: a binary min-heap over virtual time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events processed by the simulation loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Event {
    /// Query `query` arrives and dispatches its primary request.
    Arrival { query: usize },
    /// One of query `query`'s reissue timers fires.
    ReissueFire { query: usize },
    /// The service started on `server` during its preemption
    /// generation `generation` completes — unless it was preempted
    /// since.
    Completion { server: usize, generation: u64 },
    /// A request completes on the infinite-server cluster;
    /// `dispatched` is the time its request was sent.
    DirectCompletion {
        query: usize,
        is_reissue: bool,
        dispatched: f64,
    },
    /// A background-interference stall begins on `server`.
    StallArrival { server: usize },
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-heap event queue: events pop in time order, with
/// insertion order breaking ties.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute `time`.
    ///
    /// # Panics
    /// Panics on NaN or negative time (events may not travel backwards
    /// relative to zero; the caller enforces per-event causality).
    pub(crate) fn push(&mut self, time: f64, event: Event) {
        assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, Event::Arrival { query: 3 });
        q.push(1.0, Event::Arrival { query: 1 });
        q.push(2.0, Event::Arrival { query: 2 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5.0, Event::Arrival { query: 0 });
        q.push(
            5.0,
            Event::Completion {
                server: 1,
                generation: 1,
            },
        );
        q.push(5.0, Event::Arrival { query: 2 });
        assert_eq!(q.pop().unwrap().1, Event::Arrival { query: 0 });
        assert_eq!(
            q.pop().unwrap().1,
            Event::Completion {
                server: 1,
                generation: 1,
            }
        );
        assert_eq!(q.pop().unwrap().1, Event::Arrival { query: 2 });
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(0.0, Event::Arrival { query: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn nan_time_panics() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, Event::Arrival { query: 0 });
    }
}
