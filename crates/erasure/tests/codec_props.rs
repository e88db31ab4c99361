//! Property tests (vendored proptest shim — deterministic per-test
//! RNG, no shrinking) for the MDS stripe codec: split → any k-subset →
//! byte-identical value, across random lengths (odd sizes and
//! non-multiples of k included), random geometries, and subsets that
//! substitute parity rows for data fragments; and the exhaustive
//! version of the same claim for every geometry the fragment client
//! can address.

use erasure::codec::{decodable, decode_stripe, encode_stripe, fragment_len, CodecError};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random payload whose bytes depend on the seed (so stripes differ
/// between slots and cases), with lengths deliberately straddling
/// `k`-multiples, odd sizes, and zero.
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All-data subsets reconstruct byte-identically for every
    /// geometry 1 ≤ k < n ≤ 8 and lengths that exercise odd sizes,
    /// `k`-multiples ± 1, and the empty value.
    #[test]
    fn all_data_roundtrip(
        k in 1usize..6,
        extra in 1usize..3,
        len in 0usize..200,
        seed in any::<u64>(),
    ) {
        let n = k + extra;
        let value = payload(len, seed);
        let frags = encode_stripe(&value, k, n).unwrap();
        prop_assert_eq!(frags.len(), n);
        for f in &frags {
            prop_assert_eq!(
                f.len(),
                erasure::codec::HEADER_LEN + fragment_len(len, k),
                "all fragments are the padded stripe width"
            );
        }
        let got = decode_stripe(&frags[..k]).unwrap();
        prop_assert_eq!(&got[..], &value[..]);
    }

    /// Parity-in-the-k-set: for every data slot `m`, the subset that
    /// drops `m` and substitutes one parity row, whichever, still
    /// reconstructs byte-identically — and this matches the `decodable`
    /// predicate.
    #[test]
    fn any_k_of_n_with_parity_roundtrip(
        k in 1usize..6,
        extra in 1usize..3,
        len in 0usize..200,
        seed in any::<u64>(),
    ) {
        let n = k + extra;
        let value = payload(len, seed);
        let frags = encode_stripe(&value, k, n).unwrap();
        for missing in 0..k {
            for parity_slot in k..n {
                let subset: Vec<_> = (0..k)
                    .filter(|&s| s != missing)
                    .chain([parity_slot])
                    .collect();
                prop_assert!(decodable(k, subset.iter().copied()));
                let picked: Vec<_> = subset.iter().map(|&s| &frags[s]).collect();
                let got = decode_stripe(&picked).unwrap();
                prop_assert_eq!(
                    &got[..], &value[..],
                    "k={k} n={n} len={len} missing={missing} via parity {parity_slot}"
                );
            }
        }
    }

    /// Order independence: a decodable subset reconstructs the same
    /// bytes no matter how its fragments are permuted (the wire hands
    /// them back in completion order, not slot order).
    #[test]
    fn decode_is_order_independent(
        k in 2usize..6,
        len in 1usize..200,
        seed in any::<u64>(),
    ) {
        let n = k + 1;
        let value = payload(len, seed);
        let frags = encode_stripe(&value, k, n).unwrap();
        // Drop slot 0, keep the parity, rotate through k orderings.
        let subset: Vec<_> = (1..=k).map(|s| frags[s].clone()).collect();
        for rot in 0..subset.len() {
            let mut perm = subset.clone();
            perm.rotate_left(rot);
            let got = decode_stripe(&perm).unwrap();
            prop_assert_eq!(&got[..], &value[..], "rotation {rot}");
        }
    }

    /// Two parity rows displace two data fragments and the stripe
    /// still decodes (the XOR-clone codec, whose parity slots were one
    /// equation, rejected exactly this subset). Undecodable subsets
    /// are rejected, never silently wrong: any `k − 1` fragments, data
    /// or parity, error with `Insufficient`.
    #[test]
    fn undecodable_subsets_error(
        k in 2usize..6,
        len in 1usize..200,
        seed in any::<u64>(),
    ) {
        let n = k + 2;
        let value = payload(len, seed);
        let frags = encode_stripe(&value, k, n).unwrap();
        // Two parity rows displace two data fragments.
        let subset: Vec<_> = (2..k).chain([k, k + 1]).collect();
        prop_assert!(decodable(k, subset.iter().copied()));
        let picked: Vec<_> = subset.iter().map(|&s| &frags[s]).collect();
        let got = decode_stripe(&picked).unwrap();
        prop_assert_eq!(&got[..], &value[..], "k={k} len={len} via both parity rows");
        // One fewer, with both parity rows in it or with none.
        prop_assert!(!decodable(k, subset[1..].iter().copied()));
        prop_assert!(matches!(
            decode_stripe(&picked[1..]),
            Err(CodecError::Insufficient { .. })
        ));
        let short: Vec<_> = (1..k).map(|s| &frags[s]).collect();
        prop_assert!(matches!(
            decode_stripe(&short),
            Err(CodecError::Insufficient { .. })
        ));
    }
}

/// Any `k` of `n`, exhaustively: every `k`-subset of every `(k, n)`
/// with `n ≤ 9` (the widest stripe the fragment client addresses)
/// round-trips values of length 0, 1, `k − 1`, `k` and 4 097, fragments
/// handed over highest slot first, and every `(k − 1)`-subset is
/// `Insufficient` with its data / parity counts.
#[test]
fn every_k_subset_of_every_geometry_to_nine_decodes() {
    for n in 1..=9usize {
        for k in 1..=n {
            for len in [0, 1, k - 1, k, 4097] {
                let value = payload(len, (n * 100 + k * 10 + len) as u64);
                let frags = encode_stripe(&value, k, n).unwrap();
                for subset in 0..1u32 << n {
                    let size = subset.count_ones() as usize;
                    if size + 1 < k || size > k {
                        continue;
                    }
                    let slots = (0..n).rev().filter(|s| subset >> s & 1 == 1);
                    let picked: Vec<_> = slots.clone().map(|s| &frags[s]).collect();
                    let case = format!("k={k} n={n} len={len} slots={subset:#b}");
                    assert_eq!(decodable(k, slots.clone()), size == k, "{case}");
                    if size == k {
                        let got = decode_stripe(&picked).unwrap_or_else(|e| panic!("{case}: {e}"));
                        assert_eq!(&got[..], &value[..], "{case}");
                    } else if size > 0 {
                        let data = slots.filter(|&s| s < k).count();
                        let parity = size - data;
                        let expected = CodecError::Insufficient { data, parity, k };
                        assert_eq!(decode_stripe(&picked), Err(expected), "{case}");
                    }
                }
            }
        }
    }
}
