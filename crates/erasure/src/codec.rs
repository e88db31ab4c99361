//! XOR fragment codec: split a value into `k` data fragments plus
//! `n − k` parity fragments, reconstruct from any decodable `k`-subset.
//!
//! This is *latency*-oriented coding, not durability coding: a single
//! XOR parity is enough to let a read complete from any `k − 1` data
//! fragments plus parity, which is exactly the degree of freedom
//! fragment-level hedging needs (the reissue fetches fragment `k + 1`
//! instead of a second full copy). When `n − k > 1` the extra slots
//! carry *clones* of the same parity — pure dispatch redundancy (more
//! places to send the reissue), not extra erasure tolerance. A subset
//! containing two parity clones therefore brings only `k − 1` distinct
//! equations and does **not** decode; Reed–Solomon-style multi-parity
//! is the recorded follow-up (ROADMAP).
//!
//! Every fragment is self-describing: an 8-byte header (magic, slot,
//! `k`, `n`, original length) precedes the payload, so decode needs
//! nothing but the fragment bytes themselves — the wire path can hand
//! fragments back in any order and the codec reassembles or rejects
//! them with a precise error.

use bytes::Bytes;

/// Fragment wire header: `b'E' b'F' k n slot len₂ len₁ len₀` —
/// 8 bytes; the original value length is a big-endian 24-bit integer
/// in the last three bytes, capping values at [`MAX_VALUE_LEN`]
/// (16 MiB − 1, far above anything the serving path stores).
pub const HEADER_LEN: usize = 8;

/// Largest encodable value (24-bit length field).
pub const MAX_VALUE_LEN: usize = (1 << 24) - 1;

/// Why a stripe failed to encode or decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// `k == 0`, `n < k`, or more than 255 slots.
    BadGeometry(&'static str),
    /// A fragment is shorter than its header or carries a bad magic.
    Malformed(&'static str),
    /// Fragments disagree on `(k, n, length)` or duplicate a slot with
    /// different bytes.
    Inconsistent(&'static str),
    /// The supplied fragments do not span the stripe: fewer than
    /// `k − 1` distinct data fragments, or `k − 1` without any parity.
    /// Parity clones beyond the first add no information.
    Insufficient {
        /// Distinct data fragments present.
        data: usize,
        /// Parity fragments present (clones collapse to one equation).
        parity: usize,
        /// The stripe's `k`.
        k: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadGeometry(m) => write!(f, "bad stripe geometry: {m}"),
            CodecError::Malformed(m) => write!(f, "malformed fragment: {m}"),
            CodecError::Inconsistent(m) => write!(f, "inconsistent fragments: {m}"),
            CodecError::Insufficient { data, parity, k } => write!(
                f,
                "undecodable subset: {data} data + {parity} parity fragments of a k={k} stripe"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Per-fragment payload length for a value of `len` bytes split
/// `k` ways: `ceil(len / k)`, with zero-length values yielding
/// zero-length fragments.
pub fn fragment_len(len: usize, k: usize) -> usize {
    len.div_ceil(k.max(1))
}

/// Splits `value` into `n` self-describing fragments: slots
/// `0..k` carry the zero-padded data stripes, slots `k..n` carry
/// identical XOR-parity clones. `n == k` is allowed (striping without
/// redundancy — no hedge slot, but byte-minimal).
pub fn encode_stripe(value: &[u8], k: usize, n: usize) -> Result<Vec<Bytes>, CodecError> {
    if k == 0 {
        return Err(CodecError::BadGeometry("k must be at least 1"));
    }
    if n < k {
        return Err(CodecError::BadGeometry("n must be at least k"));
    }
    if n > 255 {
        return Err(CodecError::BadGeometry("at most 255 slots"));
    }
    if value.len() > MAX_VALUE_LEN {
        return Err(CodecError::BadGeometry("value too large for 24-bit length"));
    }
    let flen = fragment_len(value.len(), k);
    let mut parity = vec![0u8; flen];
    let mut out = Vec::with_capacity(n);
    for slot in 0..k {
        let start = slot * flen;
        let end = ((slot + 1) * flen).min(value.len());
        let body = if start < value.len() {
            &value[start..end]
        } else {
            &[]
        };
        let mut frag = header(slot as u8, k as u8, n as u8, value.len() as u32, flen);
        frag.extend_from_slice(body);
        frag.resize(HEADER_LEN + flen, 0); // zero-pad the tail stripe
        for (p, b) in parity.iter_mut().zip(&frag[HEADER_LEN..]) {
            *p ^= b;
        }
        out.push(Bytes::from(frag));
    }
    for slot in k..n {
        let mut frag = header(slot as u8, k as u8, n as u8, value.len() as u32, flen);
        frag.extend_from_slice(&parity);
        out.push(Bytes::from(frag));
    }
    Ok(out)
}

fn header(slot: u8, k: u8, n: u8, len: u32, flen: usize) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN + flen);
    h.extend_from_slice(&[b'E', b'F', k, n, slot]);
    h.extend_from_slice(&[(len >> 16) as u8, (len >> 8) as u8, len as u8]);
    h
}

/// One parsed fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fragment<'a> {
    /// Slot index (`< k`: data stripe; `>= k`: parity clone).
    pub slot: u8,
    /// Stripe data width.
    pub k: u8,
    /// Stripe total width.
    pub n: u8,
    /// Original value length in bytes.
    pub orig_len: u32,
    /// The (padded) stripe payload.
    pub payload: &'a [u8],
}

/// Parses a fragment's header and payload.
pub fn parse_fragment(bytes: &[u8]) -> Result<Fragment<'_>, CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Malformed("shorter than header"));
    }
    if bytes[0] != b'E' || bytes[1] != b'F' {
        return Err(CodecError::Malformed("bad magic"));
    }
    let (k, n, slot) = (bytes[2], bytes[3], bytes[4]);
    if k == 0 || n < k || slot >= n {
        return Err(CodecError::Malformed("bad geometry in header"));
    }
    let orig_len = (u32::from(bytes[5]) << 16) | (u32::from(bytes[6]) << 8) | u32::from(bytes[7]);
    Ok(Fragment {
        slot,
        k,
        n,
        orig_len,
        payload: &bytes[HEADER_LEN..],
    })
}

/// Reconstructs the original value from any decodable subset of
/// fragments (byte-identical to what [`encode_stripe`] consumed).
/// Decodable means: all `k` data fragments, or `k − 1` of them plus at
/// least one parity clone. Duplicates are tolerated if byte-identical;
/// conflicting duplicates and mixed-stripe fragments are rejected.
pub fn decode_stripe(fragments: &[impl AsRef<[u8]>]) -> Result<Bytes, CodecError> {
    let none = CodecError::Insufficient {
        data: 0,
        parity: 0,
        k: 0,
    };
    let first = parse_fragment(fragments.first().ok_or(none)?.as_ref())?;
    let (k, n, orig_len) = (first.k as usize, first.n as usize, first.orig_len as usize);
    let flen = fragment_len(orig_len, k);
    let mut data: Vec<Option<&[u8]>> = vec![None; k];
    let mut parity: Option<&[u8]> = None;
    for f in fragments {
        let f = parse_fragment(f.as_ref())?;
        if (f.k as usize, f.n as usize, f.orig_len as usize) != (k, n, orig_len) {
            return Err(CodecError::Inconsistent("mixed stripe parameters"));
        }
        if f.payload.len() != flen {
            return Err(CodecError::Inconsistent("fragment length mismatch"));
        }
        let slot = f.slot as usize;
        if slot < k {
            match data[slot] {
                None => data[slot] = Some(f.payload),
                Some(prev) if prev == f.payload => {}
                Some(_) => return Err(CodecError::Inconsistent("conflicting duplicate slot")),
            }
        } else {
            match parity {
                None => parity = Some(f.payload),
                Some(prev) if prev == f.payload => {}
                Some(_) => return Err(CodecError::Inconsistent("conflicting parity clones")),
            }
        }
    }
    let have = data.iter().filter(|d| d.is_some()).count();
    if have + 1 < k || (have < k && parity.is_none()) {
        return Err(CodecError::Insufficient {
            data: have,
            parity: usize::from(parity.is_some()),
            k,
        });
    }
    let mut value = Vec::with_capacity(k * flen);
    if have == k {
        for d in &data {
            value.extend_from_slice(d.expect("all data slots present"));
        }
    } else {
        // Exactly one data stripe missing: it is the XOR of parity and
        // every present stripe, built in its own place in `value`.
        let missing = data.iter().position(|d| d.is_none()).expect("one missing");
        let parity = parity.expect("parity present");
        for d in &data {
            value.extend_from_slice(d.unwrap_or(parity));
        }
        let rebuilt = &mut value[missing * flen..(missing + 1) * flen];
        for d in data.iter().flatten() {
            for (r, b) in rebuilt.iter_mut().zip(*d) {
                *r ^= b;
            }
        }
    }
    value.truncate(orig_len);
    Ok(Bytes::from(value))
}

/// Whether a set of present slots decodes a `(k, n)` stripe: `k`
/// distinct data slots, or `k − 1` plus at least one parity slot.
/// Parity clones beyond the first add nothing.
pub fn decodable(k: usize, present_slots: impl IntoIterator<Item = usize>) -> bool {
    // Allocation-free (the fragment client asks after every arrival):
    // a stripe has at most 255 slots, so a fixed table marks the data
    // slots seen.
    let mut seen = [false; 256];
    let mut data = 0usize;
    let mut parity = false;
    for s in present_slots {
        if s >= k {
            parity = true;
        } else if s < seen.len() && !std::mem::replace(&mut seen[s], true) {
            data += 1;
        }
    }
    data == k || (data + 1 == k && parity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_data() {
        let v = b"hello, striped world";
        let frags = encode_stripe(v, 3, 4).unwrap();
        assert_eq!(frags.len(), 4);
        let got = decode_stripe(&frags[..3]).unwrap();
        assert_eq!(&got[..], v);
    }

    #[test]
    fn roundtrip_with_parity_standing_in() {
        let v = b"0123456789abcdef-odd";
        let frags = encode_stripe(v, 3, 4).unwrap();
        for missing in 0..3 {
            let subset: Vec<_> = (0..4)
                .filter(|&s| s != missing)
                .map(|s| &frags[s])
                .collect();
            let got = decode_stripe(&subset).unwrap();
            assert_eq!(&got[..], v, "missing data slot {missing}");
        }
    }

    #[test]
    fn parity_clones_do_not_stack() {
        let v = b"abcdefgh";
        let frags = encode_stripe(v, 3, 5).unwrap();
        // Two parity clones + one data fragment: k-2 data equations.
        let subset = [&frags[0], &frags[3], &frags[4]];
        assert!(matches!(
            decode_stripe(&subset),
            Err(CodecError::Insufficient {
                data: 1,
                parity: 1,
                k: 3
            })
        ));
        // One data missing, any single parity clone: decodes.
        let subset = [&frags[0], &frags[1], &frags[4]];
        assert_eq!(&decode_stripe(&subset).unwrap()[..], v);
    }

    #[test]
    fn empty_and_tiny_values() {
        for v in [&b""[..], b"x", b"xy"] {
            let frags = encode_stripe(v, 2, 3).unwrap();
            assert_eq!(&decode_stripe(&frags[..2]).unwrap()[..], v);
            assert_eq!(&decode_stripe(&[&frags[0], &frags[2]]).unwrap()[..], v);
        }
    }

    #[test]
    fn geometry_errors() {
        assert!(matches!(
            encode_stripe(b"v", 0, 1),
            Err(CodecError::BadGeometry(_))
        ));
        assert!(matches!(
            encode_stripe(b"v", 3, 2),
            Err(CodecError::BadGeometry(_))
        ));
        assert!(decode_stripe(&[b"EF" as &[u8]]).is_err());
        assert!(decode_stripe(&[b"XXYYZZ11" as &[u8]]).is_err());
    }

    #[test]
    fn mixed_stripes_rejected() {
        let a = encode_stripe(b"aaaa", 2, 3).unwrap();
        let b = encode_stripe(b"bbbbbb", 2, 3).unwrap();
        assert!(matches!(
            decode_stripe(&[&a[0], &b[1]]),
            Err(CodecError::Inconsistent(_))
        ));
    }

    #[test]
    fn decodable_predicate() {
        assert!(decodable(2, [0, 1]));
        assert!(decodable(2, [0, 2]));
        assert!(decodable(2, [1, 3]));
        assert!(!decodable(2, [2, 3])); // two parity clones
        assert!(!decodable(2, [0]));
        assert!(decodable(1, [0]));
        assert!(decodable(1, [1])); // k=1: parity IS the value
    }

    #[test]
    fn header_roundtrip_large() {
        // 24-bit length field: values past 64 KiB still round-trip.
        let len = 70_000usize;
        let v = vec![0xA5u8; len];
        let frags = encode_stripe(&v, 4, 5).unwrap();
        let f = parse_fragment(&frags[0]).unwrap();
        assert_eq!(f.orig_len as usize, len);
        assert_eq!(&decode_stripe(&frags[1..]).unwrap()[..], &v[..]);
    }
}
