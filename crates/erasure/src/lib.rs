//! Erasure-coded striped backend: fragment-level hedging with k-of-n
//! completion.
//!
//! Replica-level hedging (the `hedge` crate) pays a whole duplicate
//! request for every reissue. Erasure-coded striping shrinks that
//! price to `1/k`: a value is split into `k` data fragments plus
//! `n − k` parity fragments spread over a replica group, a read
//! fans out `k` fragment reads, and the `(d, q)` reissue timer arms
//! over the *straggling fragment* — the hedge fetches one more
//! fragment instead of a second full copy, and the stripe completes as
//! soon as **any** `k` of its `n` fragments are in hand (Aggarwal et al.'s
//! "Taming Tail Latency for Erasure-coded, Distributed Storage
//! Systems"; the reissue *policy* is unchanged from the paper this
//! repo reproduces — only the unit of reissue shrinks).
//!
//! At an equal **byte** budget the exchange rate is
//! `q_fragment = k × q_replica`
//! ([`reissue_core::kofn::fragment_budget`]): each fragment reissue
//! moves `1/k` of a value, so the fragment client hedges `k×` more
//! often for the same wire and server-time spend — which is exactly
//! the A/B the `figures -- erasure` benchmark measures.
//!
//! The three layers:
//!
//! * [`codec`] — the stripe codec, a systematic MDS code over GF(2⁸):
//!   self-describing fragments, `n − k` independent parity rows,
//!   reconstruction from any `k` distinct slots. Parity row 0 is the
//!   XOR of the data stripes, so a `(k, k + 1)` stripe is a plain XOR
//!   stripe and a `(1, n)` stripe is `n` copies.
//! * [`backend`] — [`StripedBackend`], a `kvstore::Backend` wrapper
//!   whose service cost is proportional to payload bytes, so fragment
//!   reads genuinely occupy a server for `~1/k` of a full read's time.
//! * [`client`] — [`StripedClient`], the k-of-n read as a job of the
//!   race engine `hedge::race` (the one that runs replica hedging;
//!   replication is the `k = 1` code): a first wave of the `k`
//!   least-loaded fragments, the least-loaded fragment not yet asked
//!   as the reissue (held until it could be the decoding one), done
//!   when `k` fragments are in hand. The reissue timer, the budget
//!   governor, the tie that lets the straggler's server retract the
//!   queued reissue, loser `CANCEL`s and censored-pair booking are the
//!   engine's.
//!
//! Fragments travel the existing RESP wire as `FGET`/`FSET` commands
//! and live in a map of their own beside the keyspace
//! ([`kvstore::KvStore::get_fragment`]), so every serving-stack layer —
//! codec, queue disciplines, tied requests, cancellation — applies to
//! fragment traffic unchanged.
//!
//! Slot-to-replica **placement is rotated per key**
//! ([`placement_offset`]): slot `s` of a key with offset `o` lives on
//! replica `(s + o) mod n`. A fixed mapping would park every key's
//! data fragments on replicas `0..k` and leave the parity replicas
//! idle until a reissue — giving the data replicas `n/k×` the load of
//! a replica-hedged group at the same offered rate and poisoning any
//! equal-budget comparison. Rotation spreads the stored bytes, and the
//! reads of an idle group, uniformly by count. It is the *storage*
//! map only: which `k` of a key's `n` placed fragments a read asks
//! for is decided per read by what each replica has outstanding, the
//! way replica hedging places its primary
//! ([`hedge::transport::ReplicaSet::pick_primary`]; see [`client`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod client;
pub mod codec;

pub use backend::StripedBackend;
pub use client::{StripedClient, StripedConfig, StripedStats};
pub use codec::{decodable, decode_stripe, encode_stripe, fragment_len, CodecError};

/// Key-dependent placement rotation: slot `s` of `key` lives on
/// replica `(s + placement_offset(key, n)) % n`.
///
/// FNV-1a over the key bytes, reduced mod `n` — deterministic across
/// clients and seeders, uniform enough that a keyspace of more than a
/// handful of keys loads all `n` replicas evenly (each replica serves
/// data fragments for a `k/n` share of keys and parity fragments for
/// the rest).
pub fn placement_offset(key: &[u8], n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % n as u64) as usize
}
