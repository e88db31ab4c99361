//! The keyspace and command interpreter.

use crate::sets::IntSet;
use bytes::Bytes;
use std::collections::HashMap;

/// A stored value: a binary string or an integer set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A binary-safe string.
    Str(Bytes),
    /// A sorted integer set.
    Set(IntSet),
}

/// A command against the store — the subset of Redis the paper's
/// workload needs, plus basics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Liveness check.
    Ping,
    /// Read a string key.
    Get(Bytes),
    /// Write a string key.
    Set(Bytes, Bytes),
    /// Delete a key; replies with the number of keys removed.
    Del(Bytes),
    /// Add members to a set key; replies with the number newly added.
    SAdd(Bytes, Vec<u32>),
    /// Cardinality of a set key.
    SCard(Bytes),
    /// Intersect two set keys (the paper's stored-procedure workload).
    SInter(Bytes, Bytes),
    /// Cardinality of the intersection of two set keys.
    SInterCard(Bytes, Bytes),
    /// Top-k full-text retrieval over a search backend (term ids plus
    /// the result count). The kvstore itself does not index documents —
    /// it answers with an error — but the command travels the same RESP
    /// wire so a search [`Backend`] can serve scatter-gather fan-out.
    Search {
        /// Query term ids.
        terms: Vec<u32>,
        /// Number of hits requested.
        k: u32,
    },
    /// Read one erasure-coded fragment of a striped key: slot `slot`
    /// of `key`'s stripe (see `crates/erasure`). Fragments live in a
    /// map of their own beside the keyspace (see
    /// [`KvStore::get_fragment`]) so a plain [`KvStore`] serves them;
    /// replies `Str` or `Nil` like [`Command::Get`].
    FGet(Bytes, u32),
    /// Write one erasure-coded fragment of a striped key (slot,
    /// payload). Idempotent like [`Command::Set`]; replies `+OK`.
    FSet(Bytes, u32, Bytes),
    /// Client retraction: retract the request with this
    /// per-connection sequence number, queued or in service.
    /// Interpreted by the transport layer (`hedge::TcpServer`); if one
    /// reaches the store itself (no transport in between) it is a
    /// harmless no-op.
    Cancel(u64),
    /// Tied requests ("The Tail at Scale"), in two forms. `TIE <id>`
    /// (`peer: None`) prefixes a reissue: the *next* request frame on
    /// this connection registers under the client-global tie id `id`.
    /// `TIE <seq> <addr> <id>` is a frame of its own on the primary's
    /// connection: request `seq` there has a twin, the reissue
    /// registered at server `addr` under tie id `id`, which the
    /// primary's server retracts when it dequeues the primary.
    /// Interpreted by the transport layer; a no-op at store level.
    Tie {
        /// The reissue's tie id, or the primary's sequence number.
        id: u64,
        /// The reissue's `(server address, tie id)`, on the primary's
        /// connection only.
        peer: Option<(std::net::SocketAddr, u64)>,
    },
    /// Server-to-server retraction: the primary tied to this reissue
    /// was dequeued for execution; retract the reissue if it is still
    /// queued (reply `-ERR cancelled` to its client) and do nothing
    /// otherwise. Interpreted by the transport layer; a no-op at store
    /// level.
    CancelTie(u64),
}

/// One scored search result as carried in a [`Reply::Hits`].
///
/// The BM25 score is stored as raw `f64` bits so `Reply` keeps its
/// `Eq` derive and the value round-trips the wire exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hit {
    /// Global document id (unique across shards).
    pub doc: u64,
    score_bits: u64,
}

impl Hit {
    /// Creates a hit from a document id and score.
    pub fn new(doc: u64, score: f64) -> Self {
        Hit {
            doc,
            score_bits: score.to_bits(),
        }
    }

    /// Reconstructs a hit from the raw score bits (wire decoding).
    pub fn from_bits(doc: u64, score_bits: u64) -> Self {
        Hit { doc, score_bits }
    }

    /// The score as a float.
    pub fn score(&self) -> f64 {
        f64::from_bits(self.score_bits)
    }

    /// The raw score bits (wire encoding).
    pub fn score_bits(&self) -> u64 {
        self.score_bits
    }
}

/// A command reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `+OK`.
    Ok,
    /// `+PONG`.
    Pong,
    /// A bulk string.
    Str(Bytes),
    /// An integer.
    Int(i64),
    /// A set payload (member array).
    Members(Vec<u32>),
    /// Scored search results, best first (search backends only).
    Hits(Vec<Hit>),
    /// Key missing (`$-1`).
    Nil,
    /// An error, e.g. type mismatch.
    Error(String),
}

/// What a replica serves: any state machine that executes [`Command`]s
/// and reports a deterministic cost in elementary operations.
///
/// `hedge::TcpServer` is generic over this trait, so the same RESP/TCP
/// transport, cancellation, and sweep loop can front a [`KvStore`], a
/// BM25 index shard, or anything else. The cost is what the server
/// burns as service time (`cost × nanos_per_op`).
pub trait Backend: Send + 'static {
    /// Executes one command, returning the reply and its cost.
    fn execute(&mut self, cmd: &Command) -> (Reply, u64);

    /// Cheap *pre-execution* cost estimate for queue scheduling
    /// (`Discipline::ShortestBurn` orders by it). Must not mutate state
    /// and should be O(1)-ish — it runs at enqueue time on the reader
    /// path. The default claims every
    /// command costs 1, which degrades cost-aware disciplines to FIFO
    /// without breaking them.
    fn estimate_cost(&self, cmd: &Command) -> u64 {
        let _ = cmd;
        1
    }
}

impl Backend for KvStore {
    fn execute(&mut self, cmd: &Command) -> (Reply, u64) {
        KvStore::execute(self, cmd)
    }

    fn estimate_cost(&self, cmd: &Command) -> u64 {
        KvStore::estimate_cost(self, cmd)
    }
}

/// The in-memory store: a flat keyspace with command execution.
///
/// Every mutation or query returns `(Reply, cost)` where `cost` counts
/// elementary operations; key lookups cost 1 and set operations add
/// their intersection work. The workload layer converts cost to
/// service time deterministically.
#[derive(Clone, Debug, Default)]
pub struct KvStore {
    map: HashMap<Bytes, Value>,
    /// Erasure-coded fragments, `key -> [(slot, payload)]`. Keyed by
    /// the plain key so a read probes with the borrowed `&[u8]` it
    /// already has (no composite key is built); a replica holds one or
    /// two slots of a key, so the inner scan is a comparison or two.
    fragments: HashMap<Bytes, Vec<(u32, Bytes)>>,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the keyspace is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Direct (non-command) set insertion used by the dataset loader.
    pub fn load_set(&mut self, key: impl Into<Bytes>, set: IntSet) {
        self.map.insert(key.into(), Value::Set(set));
    }

    /// Borrow a set value if the key holds one.
    pub fn get_set(&self, key: &[u8]) -> Option<&IntSet> {
        match self.map.get(key) {
            Some(Value::Set(s)) => Some(s),
            _ => None,
        }
    }

    /// Borrow a string value if the key holds one (cost estimators use
    /// this for O(1) byte-size probes without executing the read).
    pub fn get_str(&self, key: &[u8]) -> Option<&Bytes> {
        match self.map.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Borrow fragment `slot` of striped key `key`, if stored. An
    /// allocation-free probe: cost estimators and `FGET` share it.
    pub fn get_fragment(&self, key: &[u8], slot: u32) -> Option<&Bytes> {
        let slots = self.fragments.get(key)?;
        slots.iter().find(|(s, _)| *s == slot).map(|(_, v)| v)
    }

    /// Executes a command, returning the reply and its cost in
    /// elementary operations.
    pub fn execute(&mut self, cmd: &Command) -> (Reply, u64) {
        match cmd {
            Command::Ping => (Reply::Pong, 1),
            Command::Get(k) => match self.map.get(k) {
                Some(Value::Str(s)) => (Reply::Str(s.clone()), 1),
                Some(Value::Set(_)) => (Reply::Error("WRONGTYPE".into()), 1),
                None => (Reply::Nil, 1),
            },
            Command::Set(k, v) => {
                self.map.insert(k.clone(), Value::Str(v.clone()));
                (Reply::Ok, 1)
            }
            Command::Del(k) => {
                let n = i64::from(self.map.remove(k).is_some());
                (Reply::Int(n), 1)
            }
            Command::SAdd(k, members) => {
                let entry = self
                    .map
                    .entry(k.clone())
                    .or_insert_with(|| Value::Set(IntSet::new()));
                match entry {
                    Value::Set(s) => {
                        let mut added = 0;
                        for &m in members {
                            added += i64::from(s.insert(m));
                        }
                        (Reply::Int(added), 1 + members.len() as u64)
                    }
                    Value::Str(_) => (Reply::Error("WRONGTYPE".into()), 1),
                }
            }
            Command::SCard(k) => match self.map.get(k) {
                Some(Value::Set(s)) => (Reply::Int(s.len() as i64), 1),
                Some(Value::Str(_)) => (Reply::Error("WRONGTYPE".into()), 1),
                None => (Reply::Int(0), 1),
            },
            // SINTER costs follow Redis's iterate-small/probe-large
            // profile (see `IntSet::intersect_probe`); the result is
            // identical to the adaptive merge.
            Command::SInter(a, b) => match (self.map.get(a), self.map.get(b)) {
                (Some(Value::Set(sa)), Some(Value::Set(sb))) => {
                    let (r, cost) = sa.intersect_probe(sb);
                    (Reply::Members(r.as_slice().to_vec()), 2 + cost)
                }
                (None, _) | (_, None) => (Reply::Members(Vec::new()), 2),
                _ => (Reply::Error("WRONGTYPE".into()), 2),
            },
            Command::SInterCard(a, b) => match (self.map.get(a), self.map.get(b)) {
                (Some(Value::Set(sa)), Some(Value::Set(sb))) => {
                    let (r, cost) = sa.intersect_probe(sb);
                    (Reply::Int(r.len() as i64), 2 + cost)
                }
                (None, _) | (_, None) => (Reply::Int(0), 2),
                _ => (Reply::Error("WRONGTYPE".into()), 2),
            },
            Command::FGet(k, slot) => match self.get_fragment(k, *slot) {
                Some(v) => (Reply::Str(v.clone()), 1),
                None => (Reply::Nil, 1),
            },
            Command::FSet(k, slot, v) => {
                let slots = self.fragments.entry(k.clone()).or_default();
                match slots.iter_mut().find(|(s, _)| s == slot) {
                    Some((_, old)) => *old = v.clone(),
                    None => slots.push((*slot, v.clone())),
                }
                (Reply::Ok, 1)
            }
            // The kvstore holds no inverted index; SEARCH belongs to a
            // search backend sharing the wire format.
            Command::Search { .. } => (Reply::Error("SEARCH unsupported by kvstore".into()), 1),
            // Nothing outstanding at store level: the transport already
            // consumed any retractable request before execution. The
            // tie-protocol frames are likewise transport-level control.
            Command::Cancel(_) | Command::Tie { .. } | Command::CancelTie(_) => (Reply::Ok, 1),
        }
    }

    /// Pre-execution cost estimate mirroring [`KvStore::execute`]'s
    /// accounting without doing the work: intersections are bounded by
    /// the smaller operand's cardinality (the probe side of
    /// `IntSet::intersect_probe`), point operations cost 1.
    pub fn estimate_cost(&self, cmd: &Command) -> u64 {
        match cmd {
            Command::SInter(a, b) | Command::SInterCard(a, b) => {
                let card = |k: &[u8]| self.get_set(k).map(|s| s.len()).unwrap_or(0);
                2 + card(a).min(card(b)) as u64
            }
            Command::SAdd(_, members) => 1 + members.len() as u64,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn fragment_commands() {
        let mut kv = KvStore::new();
        assert_eq!(kv.execute(&Command::FGet(b("k"), 0)).0, Reply::Nil);
        assert_eq!(
            kv.execute(&Command::FSet(b("k"), 0, b("frag0"))).0,
            Reply::Ok
        );
        assert_eq!(
            kv.execute(&Command::FSet(b("k"), 1, b("frag1"))).0,
            Reply::Ok
        );
        // Slots are independent of each other and of the plain key.
        assert_eq!(
            kv.execute(&Command::FGet(b("k"), 0)).0,
            Reply::Str(b("frag0"))
        );
        assert_eq!(
            kv.execute(&Command::FGet(b("k"), 1)).0,
            Reply::Str(b("frag1"))
        );
        assert_eq!(kv.execute(&Command::Get(b("k"))).0, Reply::Nil);
        assert_eq!(kv.execute(&Command::FGet(b("k"), 2)).0, Reply::Nil);
        assert_eq!(kv.estimate_cost(&Command::FGet(b("k"), 0)), 1);
    }

    #[test]
    fn string_roundtrip() {
        let mut kv = KvStore::new();
        assert_eq!(kv.execute(&Command::Get(b("k"))).0, Reply::Nil);
        assert_eq!(kv.execute(&Command::Set(b("k"), b("v"))).0, Reply::Ok);
        assert_eq!(kv.execute(&Command::Get(b("k"))).0, Reply::Str(b("v")));
        assert_eq!(kv.execute(&Command::Del(b("k"))).0, Reply::Int(1));
        assert_eq!(kv.execute(&Command::Del(b("k"))).0, Reply::Int(0));
    }

    #[test]
    fn set_commands() {
        let mut kv = KvStore::new();
        assert_eq!(
            kv.execute(&Command::SAdd(b("s"), vec![3, 1, 3])).0,
            Reply::Int(2)
        );
        assert_eq!(kv.execute(&Command::SCard(b("s"))).0, Reply::Int(2));
        assert_eq!(kv.execute(&Command::SCard(b("missing"))).0, Reply::Int(0));
    }

    #[test]
    fn sinter_returns_sorted_members() {
        let mut kv = KvStore::new();
        kv.execute(&Command::SAdd(b("a"), vec![1, 2, 3, 4]));
        kv.execute(&Command::SAdd(b("b"), vec![4, 2, 9]));
        let (reply, cost) = kv.execute(&Command::SInter(b("a"), b("b")));
        assert_eq!(reply, Reply::Members(vec![2, 4]));
        assert!(cost > 2);
        let (reply, _) = kv.execute(&Command::SInterCard(b("a"), b("b")));
        assert_eq!(reply, Reply::Int(2));
    }

    #[test]
    fn sinter_with_missing_key_is_empty() {
        let mut kv = KvStore::new();
        kv.execute(&Command::SAdd(b("a"), vec![1]));
        assert_eq!(
            kv.execute(&Command::SInter(b("a"), b("nope"))).0,
            Reply::Members(vec![])
        );
    }

    #[test]
    fn wrongtype_errors() {
        let mut kv = KvStore::new();
        kv.execute(&Command::Set(b("k"), b("v")));
        assert!(matches!(
            kv.execute(&Command::SAdd(b("k"), vec![1])).0,
            Reply::Error(_)
        ));
        assert!(matches!(
            kv.execute(&Command::SCard(b("k"))).0,
            Reply::Error(_)
        ));
        kv.execute(&Command::SAdd(b("s"), vec![1]));
        assert!(matches!(
            kv.execute(&Command::Get(b("s"))).0,
            Reply::Error(_)
        ));
        assert!(matches!(
            kv.execute(&Command::SInter(b("k"), b("s"))).0,
            Reply::Error(_)
        ));
    }

    #[test]
    fn cost_scales_with_set_size() {
        let mut kv = KvStore::new();
        kv.load_set("big1", IntSet::from_unsorted((0..10_000).collect()));
        kv.load_set("big2", IntSet::from_unsorted((5_000..15_000).collect()));
        kv.load_set("small1", IntSet::from_unsorted(vec![1, 2]));
        kv.load_set("small2", IntSet::from_unsorted(vec![2, 3]));
        let (_, big_cost) = kv.execute(&Command::SInter(b("big1"), b("big2")));
        let (_, small_cost) = kv.execute(&Command::SInter(b("small1"), b("small2")));
        assert!(
            big_cost > 100 * small_cost,
            "big={big_cost} small={small_cost}"
        );
    }

    #[test]
    fn estimate_cost_tracks_executed_cost_shape() {
        let mut kv = KvStore::new();
        kv.load_set("big1", IntSet::from_unsorted((0..10_000).collect()));
        kv.load_set("big2", IntSet::from_unsorted((5_000..15_000).collect()));
        kv.load_set("small", IntSet::from_unsorted(vec![1, 2]));
        let est_big = kv.estimate_cost(&Command::SInterCard(b("big1"), b("big2")));
        let est_small = kv.estimate_cost(&Command::SInterCard(b("big1"), b("small")));
        assert!(est_big > 100 * est_small, "big={est_big} small={est_small}");
        // The estimate must not mutate and must stay cheap for control
        // frames.
        assert_eq!(kv.estimate_cost(&Command::Ping), 1);
        assert_eq!(kv.estimate_cost(&Command::CancelTie(7)), 1);
        // Tie frames execute as store-level no-ops.
        let addr: std::net::SocketAddr = "127.0.0.1:80".parse().unwrap();
        assert_eq!(
            kv.execute(&Command::Tie {
                id: 1,
                peer: Some((addr, 2))
            })
            .0,
            Reply::Ok
        );
        assert_eq!(kv.execute(&Command::CancelTie(1)).0, Reply::Ok);
    }

    #[test]
    fn ping_and_len() {
        let mut kv = KvStore::new();
        assert!(kv.is_empty());
        assert_eq!(kv.execute(&Command::Ping).0, Reply::Pong);
        kv.execute(&Command::Set(b("a"), b("1")));
        assert_eq!(kv.len(), 1);
    }
}
