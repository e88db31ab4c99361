//! A [`Backend`] whose service cost is proportional to the bytes it
//! moves.
//!
//! The plain [`KvStore`] cost model counts elementary *set* operations
//! (the paper's stored-procedure workload); string reads cost a flat 1
//! regardless of size. That flat cost would hide the whole point of
//! striping — a `1/k`-sized fragment read should occupy the server
//! for roughly `1/k` of the time a full-value read does, which is
//! what makes fragment-level hedging cheaper *server-side* and not
//! just on the wire. [`StripedBackend`] wraps a [`KvStore`] and
//! charges string and fragment traffic `1 + len / bytes_per_unit`
//! cost units, so the `TcpServer` burn (`nanos_per_op × cost`) scales
//! with payload size on both the replica arm (full values) and the
//! fragment arm (stripes) of the A/B benchmark.

use kvstore::{Backend, Command, KvStore, Reply};

/// Byte-proportional cost wrapper around a [`KvStore`].
#[derive(Clone)]
pub struct StripedBackend {
    store: KvStore,
    bytes_per_unit: u64,
}

impl StripedBackend {
    /// Wraps `store`, charging one extra cost unit per `bytes_per_unit`
    /// payload bytes (values of 0 are clamped to 1).
    pub fn new(store: KvStore, bytes_per_unit: u64) -> Self {
        Self {
            store,
            bytes_per_unit: bytes_per_unit.max(1),
        }
    }

    /// The wrapped store.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Mutable access to the wrapped store (for test/bench seeding).
    pub fn store_mut(&mut self) -> &mut KvStore {
        &mut self.store
    }

    /// Payload bytes a command will move, pre-execution: the stored
    /// value's length for reads (O(1) map probes), the argument's
    /// length for writes, `0` for everything else.
    fn payload_bytes(&self, cmd: &Command) -> u64 {
        let len = match cmd {
            Command::Get(k) => self.store.get_str(k).map_or(0, |v| v.len()),
            Command::Set(_, v) => v.len(),
            Command::FGet(k, slot) => self.store.get_fragment(k, *slot).map_or(0, |v| v.len()),
            Command::FSet(_, _, v) => v.len(),
            _ => 0,
        };
        len as u64
    }

    fn byte_cost(&self, cmd: &Command) -> u64 {
        self.payload_bytes(cmd) / self.bytes_per_unit
    }
}

impl Backend for StripedBackend {
    fn execute(&mut self, cmd: &Command) -> (Reply, u64) {
        // Byte cost must be read before a Set/FSet replaces the value.
        let extra = self.byte_cost(cmd);
        let (reply, cost) = self.store.execute(cmd);
        (reply, cost + extra)
    }

    fn estimate_cost(&self, cmd: &Command) -> u64 {
        self.store.estimate_cost(cmd) + self.byte_cost(cmd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn cost_scales_with_value_size() {
        let mut b = StripedBackend::new(KvStore::new(), 64);
        let key = Bytes::from_static(b"k");
        let val = Bytes::from(vec![7u8; 640]);
        let (_, set_cost) = b.execute(&Command::Set(key.clone(), val));
        assert_eq!(set_cost, 1 + 10);
        let (reply, get_cost) = b.execute(&Command::Get(key.clone()));
        assert!(matches!(reply, Reply::Str(_)));
        assert_eq!(get_cost, 1 + 10);
        assert_eq!(b.estimate_cost(&Command::Get(key)), 1 + 10);
    }

    #[test]
    fn fragment_reads_cost_a_k_th() {
        let mut b = StripedBackend::new(KvStore::new(), 64);
        let key = Bytes::from_static(b"stripe");
        let full = vec![3u8; 4 * 640];
        // Full value on one arm…
        b.execute(&Command::Set(key.clone(), Bytes::from(full.clone())));
        // …fragments (k = 4) on the other.
        let frags = crate::codec::encode_stripe(&full, 4, 5).unwrap();
        for (slot, f) in frags.iter().enumerate() {
            b.execute(&Command::FSet(key.clone(), slot as u32, f.clone()));
        }
        let full_cost = b.estimate_cost(&Command::Get(key.clone()));
        let frag_cost = b.estimate_cost(&Command::FGet(key.clone(), 0));
        assert!(
            frag_cost * 3 < full_cost,
            "fragment read ({frag_cost}) should cost ~1/4 of a full read ({full_cost})"
        );
    }

    #[test]
    fn misses_and_non_string_commands_cost_baseline() {
        let b = StripedBackend::new(KvStore::new(), 64);
        assert_eq!(
            b.estimate_cost(&Command::Get(Bytes::from_static(b"nope"))),
            1
        );
        assert_eq!(b.estimate_cost(&Command::Ping), 1);
    }
}
