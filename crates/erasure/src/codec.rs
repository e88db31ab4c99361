//! MDS fragment codec over GF(2⁸): split a value into `k` data
//! fragments plus `n − k` parity fragments, reconstruct from **any**
//! `k` distinct fragments.
//!
//! This is *latency*-oriented coding: a read takes whichever `k` of a
//! key's `n` fragments are cheapest to fetch right now, and a reissue
//! fetches one more fragment (any one not yet asked) instead of a
//! second full copy. The code is systematic: slots `0..k` carry the
//! plain data stripes, so an undisturbed read decodes by
//! concatenation. Slots `k..n` carry `n − k` *independent* parity
//! rows, `parity_r = Σ_j P[r][j] · data_j` over GF(2⁸), where `P` is a
//! Cauchy matrix with its columns, then its rows, rescaled so that the
//! first row and the first column are all ones. Every square submatrix
//! of a Cauchy matrix is nonsingular and rescaling rows and columns
//! keeps that, so any `k` rows of `[I; P]` are independent: the code is
//! maximum distance separable, no `k`-subset fails. The two all-ones
//! lines make the small cases the familiar ones: row 0 is the XOR of
//! the data stripes, so an `n − k = 1` stripe is a plain XOR stripe,
//! and with `k = 1` every slot is a copy of the value. `P[r][j]`
//! depends on `r`, `j` and `k` only, never on `n`.
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
    /// The supplied fragments do not span the stripe: fewer than `k`
    /// distinct slots. Which slots they are does not matter.
    Insufficient {
        /// Distinct data fragments present.
        data: usize,
        /// Distinct parity fragments present.
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

/// GF(2⁸) arithmetic: polynomials over GF(2) modulo
/// `x⁸ + x⁴ + x³ + x² + 1` (`0x11d`), in which `x` (`2`) generates the
/// 255 nonzero elements. Addition is XOR; multiplication goes through
/// the discrete logarithm.
mod gf {
    const fn tables() -> ([u8; 510], [u8; 256]) {
        let (mut exp, mut log) = ([0u8; 510], [0u8; 256]);
        let (mut x, mut i) = (1u16, 0);
        while i < 255 {
            // Twice over, so `exp[log a + log b]` needs no reduction.
            exp[i] = x as u8;
            exp[i + 255] = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= 0x11d;
            }
            i += 1;
        }
        (exp, log)
    }

    const TABLES: ([u8; 510], [u8; 256]) = tables();
    /// `EXP[i] = 2^i` for `i < 510` (the period is 255).
    pub(super) const EXP: [u8; 510] = TABLES.0;
    /// `LOG[a]` with `2^LOG[a] = a` for `a ≠ 0`; `LOG[0]` is unused.
    pub(super) const LOG: [u8; 256] = TABLES.1;

    /// `a · b`.
    pub(super) fn mul(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            return 0;
        }
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }

    /// `1 / a`. Panics on zero, which has no inverse.
    pub(super) fn inv(a: u8) -> u8 {
        assert!(a != 0, "zero has no inverse in GF(2^8)");
        EXP[255 - LOG[a as usize] as usize]
    }

    /// The products of `c` with every element: `row[x] = c · x`.
    fn row(c: u8) -> [u8; 256] {
        std::array::from_fn(|x| mul(c, x as u8))
    }

    /// `dst += c · src`, bytewise. A zero coefficient is skipped and a
    /// one is plain XOR, which is all an `n − k = 1` stripe ever asks.
    pub(super) fn mul_add(dst: &mut [u8], src: &[u8], c: u8) {
        match c {
            0 => {}
            1 => dst.iter_mut().zip(src).for_each(|(d, s)| *d ^= s),
            _ => {
                let row = row(c);
                dst.iter_mut()
                    .zip(src)
                    .for_each(|(d, s)| *d ^= row[*s as usize]);
            }
        }
    }

    /// Appends `c · src` to `dst`.
    pub(super) fn mul_extend(dst: &mut Vec<u8>, src: &[u8], c: u8) {
        match c {
            0 => dst.resize(dst.len() + src.len(), 0),
            1 => dst.extend_from_slice(src),
            _ => {
                let row = row(c);
                dst.extend(src.iter().map(|s| row[*s as usize]));
            }
        }
    }
}

/// `P[row][col]`, the weight of data stripe `col` in parity row `row`
/// (the fragment in slot `k + row`): the Cauchy entry
/// `1 / (x_row + y_col)` over `x_i = i`, `y_j = 255 − j`, rescaled to
/// `C[r][c] · C[0][0] / (C[0][c] · C[r][0])` so that row 0 and column
/// 0 read 1. The `x` and `y` are distinct as long as
/// `row + col < 255`, which `n ≤ 255` guarantees.
fn parity_coefficient(row: usize, col: usize) -> u8 {
    let cauchy = |r: usize, c: usize| gf::inv(r as u8 ^ (255 - c) as u8);
    gf::mul(
        gf::mul(cauchy(row, col), cauchy(0, 0)),
        gf::inv(gf::mul(cauchy(0, col), cauchy(row, 0))),
    )
}

/// Per-fragment payload length for a value of `len` bytes split
/// `k` ways: `ceil(len / k)`, with zero-length values yielding
/// zero-length fragments.
pub fn fragment_len(len: usize, k: usize) -> usize {
    len.div_ceil(k.max(1))
}

/// Splits `value` into `n` self-describing fragments: slots `0..k`
/// carry the zero-padded data stripes, slot `k + r` carries parity row
/// `r` (row 0 is their XOR). `n == k` is allowed (striping without
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
    let mut out: Vec<Bytes> = Vec::with_capacity(n);
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
        out.push(Bytes::from(frag));
    }
    for row in 0..n - k {
        let mut frag = header((k + row) as u8, k as u8, n as u8, value.len() as u32, flen);
        // Column 0 is all ones: every row starts as a copy of stripe 0.
        frag.extend_from_slice(&out[0][HEADER_LEN..]);
        for (col, data) in out[1..k].iter().enumerate() {
            let weight = parity_coefficient(row, col + 1);
            gf::mul_add(&mut frag[HEADER_LEN..], &data[HEADER_LEN..], weight);
        }
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
    /// Slot index (`< k`: data stripe; `>= k`: parity row `slot − k`).
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

/// `len` elements of scratch space: `inline` when they fit (every
/// stripe the fragment client can address does), else `heap`.
fn scratch<'a, T: Clone>(
    inline: &'a mut [T],
    heap: &'a mut Vec<T>,
    len: usize,
    fill: T,
) -> &'a mut [T] {
    if len <= inline.len() {
        &mut inline[..len]
    } else {
        heap.resize(len, fill);
        heap
    }
}

/// Inverts the `m × m` matrix `a` (row-major) in place by Gauss–Jordan
/// elimination. No pivot search: every leading minor of a rescaled
/// Cauchy submatrix is nonzero, so every pivot is.
fn invert(a: &mut [u8], m: usize) {
    for p in 0..m {
        let scale = gf::inv(a[p * m + p]);
        a[p * m + p] = 1;
        for c in 0..m {
            a[p * m + c] = gf::mul(a[p * m + c], scale);
        }
        for r in (0..m).filter(|&r| r != p) {
            let factor = std::mem::take(&mut a[r * m + p]);
            for c in 0..m {
                a[r * m + c] ^= gf::mul(factor, a[p * m + c]);
            }
        }
    }
}

/// Reconstructs the original value from any `k` distinct fragments of
/// a stripe (byte-identical to what [`encode_stripe`] consumed). More
/// than `k` may be given: data fragments are used first, then parity
/// rows in slot order. Duplicates are tolerated if byte-identical;
/// conflicting duplicates and mixed-stripe fragments are rejected.
///
/// With the data fragments `D` present and `m` missing, `m` parity
/// rows `R` stand in: `A · missing = parity_R + P[R][D] · data_D` for
/// the `m × m` submatrix `A = P[R][missing]`, which is inverted on the
/// stack, and each missing stripe is accumulated in its own place in
/// the output from the `k` fragments used. A weight of 1 is a plain
/// XOR, so a read through parity row 0 alone costs what it did when
/// that was the only row.
pub fn decode_stripe(fragments: &[impl AsRef<[u8]>]) -> Result<Bytes, CodecError> {
    let none = CodecError::Insufficient {
        data: 0,
        parity: 0,
        k: 0,
    };
    let first = parse_fragment(fragments.first().ok_or(none)?.as_ref())?;
    let (k, n, orig_len) = (first.k as usize, first.n as usize, first.orig_len as usize);
    let flen = fragment_len(orig_len, k);

    let (mut inline, mut heap) = ([None; 16], Vec::new());
    let by_slot: &mut [Option<&[u8]>] = scratch(&mut inline, &mut heap, n, None);
    for f in fragments {
        let f = parse_fragment(f.as_ref())?;
        if (f.k as usize, f.n as usize, f.orig_len as usize) != (k, n, orig_len) {
            return Err(CodecError::Inconsistent("mixed stripe parameters"));
        }
        if f.payload.len() != flen {
            return Err(CodecError::Inconsistent("fragment length mismatch"));
        }
        match by_slot[f.slot as usize] {
            None => by_slot[f.slot as usize] = Some(f.payload),
            Some(prev) if prev == f.payload => {}
            Some(_) => return Err(CodecError::Inconsistent("conflicting duplicate slot")),
        }
    }
    let (data, parity) = by_slot.split_at(k);
    let have = data.iter().flatten().count();
    let m = k - have;
    let spare = parity.iter().flatten().count();
    if spare < m {
        return Err(CodecError::Insufficient {
            data: have,
            parity: spare,
            k,
        });
    }

    let mut value = Vec::with_capacity(k * flen);
    if m == 0 {
        for d in data {
            value.extend_from_slice(d.expect("all data slots present"));
        }
        value.truncate(orig_len);
        return Ok(Bytes::from(value));
    }

    // The `m` parity rows standing in, and the inverse of the submatrix
    // those rows have on the `m` missing stripes' columns.
    let (mut inline, mut heap) = ([(0usize, &[][..]); 8], Vec::new());
    let rows = scratch(&mut inline, &mut heap, m, (0, &[][..]));
    let present = (0..n - k).filter_map(|r| Some((r, parity[r]?)));
    rows.iter_mut().zip(present).for_each(|(row, p)| *row = p);
    let (mut inline, mut heap) = ([0u8; 64], Vec::new());
    let inverse = scratch(&mut inline, &mut heap, m * m, 0);
    for (ri, &(r, _)) in rows.iter().enumerate() {
        for (ji, j) in (0..k).filter(|&j| data[j].is_none()).enumerate() {
            inverse[ri * m + ji] = parity_coefficient(r, j);
        }
    }
    invert(inverse, m);

    let mut holes = inverse.chunks_exact(m);
    for (j, d) in data.iter().enumerate() {
        if let Some(d) = d {
            value.extend_from_slice(d);
            continue;
        }
        // missing_j = Σ_r w[r] · (parity_r + Σ_{i present} P[r][i] · data_i)
        let w = holes.next().expect("one inverse row per missing stripe");
        gf::mul_extend(&mut value, rows[0].1, w[0]);
        let rebuilt = &mut value[j * flen..];
        for (&(_, payload), &w) in rows.iter().zip(w).skip(1) {
            gf::mul_add(rebuilt, payload, w);
        }
        for (i, d) in data.iter().enumerate() {
            let Some(d) = d else { continue };
            let weight = rows.iter().zip(w).fold(0, |acc, (&(r, _), &w)| {
                acc ^ gf::mul(w, parity_coefficient(r, i))
            });
            gf::mul_add(rebuilt, d, weight);
        }
    }
    value.truncate(orig_len);
    Ok(Bytes::from(value))
}

/// Whether a set of present slots decodes a `(k, n)` stripe: any `k`
/// distinct slots do.
pub fn decodable(k: usize, present_slots: impl IntoIterator<Item = usize>) -> bool {
    // Allocation-free: a stripe has at most 255 slots, so a fixed
    // table marks the slots seen.
    let mut seen = [false; 256];
    let distinct = present_slots
        .into_iter()
        .filter(|&s| s < seen.len() && !std::mem::replace(&mut seen[s], true))
        .count();
    distinct >= k
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

    /// What the XOR-clone codec could not do: parity rows are
    /// independent equations, so two of them stand in for two data
    /// fragments, and a stripe decodes from parity alone.
    #[test]
    fn parity_rows_stack() {
        let v = b"abcdefgh";
        let frags = encode_stripe(v, 3, 6).unwrap();
        assert_ne!(frags[3], frags[4], "rows differ beyond the header");
        assert_ne!(frags[3][HEADER_LEN..], frags[4][HEADER_LEN..]);
        // Two parity rows + one data fragment.
        let subset = [&frags[0], &frags[3], &frags[4]];
        assert_eq!(&decode_stripe(&subset).unwrap()[..], v);
        // No data fragment at all.
        assert_eq!(&decode_stripe(&frags[3..]).unwrap()[..], v);
        // One data missing, any single parity row: decodes.
        let subset = [&frags[0], &frags[1], &frags[4]];
        assert_eq!(&decode_stripe(&subset).unwrap()[..], v);
        // Two fragments are two equations for three unknowns, whichever.
        assert_eq!(
            decode_stripe(&frags[4..]),
            Err(CodecError::Insufficient {
                data: 0,
                parity: 2,
                k: 3
            })
        );
    }

    #[test]
    fn empty_and_tiny_values() {
        for v in [&b""[..], b"x", b"xy"] {
            let frags = encode_stripe(v, 2, 4).unwrap();
            assert_eq!(&decode_stripe(&frags[..2]).unwrap()[..], v);
            assert_eq!(&decode_stripe(&[&frags[0], &frags[2]]).unwrap()[..], v);
            assert_eq!(&decode_stripe(&frags[2..]).unwrap()[..], v);
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
        assert!(matches!(
            encode_stripe(b"v", 3, 256),
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
        // One slot twice with different bytes, data or parity.
        let c = encode_stripe(b"cdef", 2, 3).unwrap();
        for slot in [0, 2] {
            assert_eq!(
                decode_stripe(&[&a[1], &a[slot], &c[slot]]),
                Err(CodecError::Inconsistent("conflicting duplicate slot"))
            );
        }
        assert_eq!(&decode_stripe(&[&a[2], &a[1], &a[2]]).unwrap()[..], b"aaaa");
    }

    #[test]
    fn decodable_predicate() {
        assert!(decodable(2, [0, 1]));
        assert!(decodable(2, [0, 2]));
        assert!(decodable(2, [1, 3]));
        assert!(decodable(2, [2, 3])); // two parity rows
        assert!(!decodable(2, [0]));
        assert!(!decodable(2, [3, 3])); // one slot twice is one slot
        assert!(decodable(1, [0]));
        assert!(decodable(1, [1])); // k=1: every slot IS the value
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

    /// The field the tables claim to be: 2 generates all 255 nonzero
    /// elements, `LOG` inverts `EXP`, every nonzero element has its
    /// inverse, and multiplication distributes over XOR.
    #[test]
    fn gf256_tables_are_a_field() {
        let mut seen = [false; 256];
        for i in 0..255 {
            let x = gf::EXP[i];
            assert!(x != 0 && !std::mem::replace(&mut seen[x as usize], true));
            assert_eq!(gf::LOG[x as usize] as usize, i);
            assert_eq!(gf::EXP[i + 255], x, "the second period");
            assert_eq!(gf::mul(x, 2), gf::EXP[(i + 1) % 255], "EXP is powers of 2");
        }
        assert_eq!(gf::EXP[0], 1, "order exactly 255: 2^255 = 2^0 = 1");
        for a in 0..=255u8 {
            assert_eq!(gf::mul(a, 0), 0);
            assert_eq!(gf::mul(a, 1), a);
            if a != 0 {
                assert_eq!(gf::mul(a, gf::inv(a)), 1, "inverse of {a}");
            }
            for b in 0..=255u8 {
                assert_eq!(gf::mul(a, b), gf::mul(b, a));
                // A stride over the third operand keeps this at 2^21.
                for c in (0..=255u8).step_by(8) {
                    assert_eq!(gf::mul(a, b ^ c), gf::mul(a, b) ^ gf::mul(a, c));
                    assert_eq!(gf::mul(gf::mul(a, b), c), gf::mul(a, gf::mul(b, c)));
                }
            }
        }
    }

    /// Row 0 and column 0 of the generator's parity block read 1, for
    /// every geometry: what keeps `(k, k + 1)` an XOR stripe and
    /// `(1, n)` plain copies.
    #[test]
    fn first_parity_row_and_first_column_are_all_ones() {
        for i in 0..254 {
            assert_eq!(parity_coefficient(0, i), 1, "row 0, column {i}");
            assert_eq!(parity_coefficient(i, 0), 1, "row {i}, column 0");
        }
        assert_ne!(parity_coefficient(1, 1), 1);
    }

    /// Golden vectors: the fragments of `(k, k + 1)` and `(1, n)`
    /// stripes as the XOR-clone codec wrote them (printed from the
    /// commit before this codec). Stored stripes of those geometries
    /// stay readable and the byte accounting of `figures -- erasure`
    /// holds.
    #[test]
    fn xor_and_copy_geometries_are_byte_identical_to_the_xor_codec() {
        let value = [90u8, 127, 16, 53, 206, 227, 132, 89, 114, 23, 40];
        let golden: [(usize, usize, &[&[u8]]); 3] = [
            (
                3,
                4,
                &[
                    &[69, 70, 3, 4, 0, 0, 0, 11, 90, 127, 16, 53],
                    &[69, 70, 3, 4, 1, 0, 0, 11, 206, 227, 132, 89],
                    &[69, 70, 3, 4, 2, 0, 0, 11, 114, 23, 40, 0],
                    &[69, 70, 3, 4, 3, 0, 0, 11, 230, 139, 188, 108],
                ],
            ),
            (
                2,
                3,
                &[
                    &[69, 70, 2, 3, 0, 0, 0, 11, 90, 127, 16, 53, 206, 227],
                    &[69, 70, 2, 3, 1, 0, 0, 11, 132, 89, 114, 23, 40, 0],
                    &[69, 70, 2, 3, 2, 0, 0, 11, 222, 38, 98, 34, 230, 227],
                ],
            ),
            (
                1,
                3,
                &[
                    &[
                        69, 70, 1, 3, 0, 0, 0, 11, 90, 127, 16, 53, 206, 227, 132, 89, 114, 23, 40,
                    ],
                    &[
                        69, 70, 1, 3, 1, 0, 0, 11, 90, 127, 16, 53, 206, 227, 132, 89, 114, 23, 40,
                    ],
                    &[
                        69, 70, 1, 3, 2, 0, 0, 11, 90, 127, 16, 53, 206, 227, 132, 89, 114, 23, 40,
                    ],
                ],
            ),
        ];
        for (k, n, expected) in golden {
            let frags = encode_stripe(&value, k, n).unwrap();
            assert_eq!(frags.len(), expected.len());
            for (slot, (got, want)) in frags.iter().zip(expected).enumerate() {
                assert_eq!(&got[..], *want, "({k}, {n}) slot {slot}");
            }
        }
        // And the second parity row of a wider stripe is a new
        // equation, not a copy of the first.
        let wide = encode_stripe(&value, 2, 4).unwrap();
        assert_eq!(wide[2][HEADER_LEN..], golden[1].2[2][HEADER_LEN..]);
        assert_ne!(wide[3][HEADER_LEN..], wide[2][HEADER_LEN..]);
    }

    /// Past the inline scratch sizes: a stripe wider than 16 slots
    /// with more than 8 data fragments missing.
    #[test]
    fn wide_stripe_decodes_from_parity_alone() {
        let v: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 253) as u8).collect();
        let frags = encode_stripe(&v, 12, 30).unwrap();
        assert_eq!(&decode_stripe(&frags[18..]).unwrap()[..], &v[..]);
        assert_eq!(&decode_stripe(&frags[9..21]).unwrap()[..], &v[..]);
        let frags = encode_stripe(&v, 100, 255).unwrap();
        assert_eq!(&decode_stripe(&frags[155..]).unwrap()[..], &v[..]);
    }
}
