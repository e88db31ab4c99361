//! Vendored, `std`-only shim for the subset of the `bytes` 1.x API this
//! workspace uses (see `crates/compat/README.md`).
//!
//! [`Bytes`] is a cheaply-clonable immutable byte buffer: a refcounted
//! **view** `(backing, start, end)`. Either way of making one costs
//! exactly one heap allocation. From a *slice*
//! ([`Bytes::copy_from_slice`], `From<&[u8]>`) the bytes are copied
//! into the `Arc`'s own block, refcounts and payload together — the
//! RESP codec makes one of these per decoded bulk string (see
//! `kvstore::resp`). From an *owned* `Vec<u8>` (or
//! [`BytesMut::freeze`]) the vector is adopted as it is, uncopied,
//! behind an `Arc`. Sub-slicing ([`Bytes::slice`]) is O(1) and shares
//! the backing. Views pin their whole backing buffer;
//! [`Bytes::detach`] makes a compact private copy at retention
//! boundaries (e.g. a store inserting a key it will keep).
//!
//! [`BytesMut`] is a growable buffer with an O(1) front cursor:
//! `advance`/`split_to` move a read offset instead of memmoving the
//! tail, and `freeze` hands the backing `Vec` over without copying.
//! Spent front capacity is reclaimed on `extend_from_slice` once it
//! dominates the buffer.

#![forbid(unsafe_code)]

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// What a [`Bytes`] views. Chosen by how it was made, so neither
/// constructor pays for the other: a slice is copied once into the
/// `Arc`'s own block; an owned `Vec` is adopted without a copy.
#[derive(Clone)]
enum Backing {
    Inline(Arc<[u8]>),
    Adopted(Arc<Vec<u8>>),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Inline(b) => b,
            Backing::Adopted(v) => v,
        }
    }
}

/// A cheaply clonable, immutable view into a shared byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Backing,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static byte slice (copies under this shim; the real
    /// crate aliases — semantics are identical for readers).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies a slice into a new buffer: one allocation holding the
    /// refcounts and the bytes together.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Backing::Inline(Arc::from(data)),
            start: 0,
            end: data.len(),
        }
    }

    /// An O(1) sub-view sharing this buffer's allocation. The range is
    /// relative to this view.
    ///
    /// # Panics
    /// Panics when the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.end - self.start;
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end && end <= len,
            "slice out of bounds: {begin}..{end} of {len}"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// A compact private copy when this view pins a larger shared
    /// allocation (retention boundary — e.g. the store keeping a key
    /// must not keep the whole network frame alive); a cheap refcount
    /// clone when the view already spans its entire backing buffer.
    pub fn detach(&self) -> Bytes {
        if self.start == 0 && self.end == self.data.bytes().len() {
            self.clone()
        } else {
            Bytes::copy_from_slice(self)
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        // All empty `Bytes` share one static backing allocation, so
        // `Bytes::new()` is allocation-free on hot validation paths.
        static EMPTY: std::sync::OnceLock<Arc<[u8]>> = std::sync::OnceLock::new();
        Bytes {
            data: Backing::Inline(Arc::clone(EMPTY.get_or_init(|| Arc::from(&[0u8; 0][..])))),
            start: 0,
            end: 0,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data.bytes()[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

// Equality/ordering/hashing are over the *visible* slice, never the
// backing buffer or offsets — two views of different buffers with the
// same contents are equal (and hash identically, as the
// `Borrow<[u8]>` contract requires for map lookups by slice).
impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"{}\"", String::from_utf8_lossy(self).escape_debug())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Backing::Adopted(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

/// Byte-cursor trait: front consumption of a buffer.
pub trait Buf {
    /// Discards the first `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Bytes remaining.
    fn remaining(&self) -> usize;
}

/// Reclaim the spent front region once it exceeds this many bytes
/// *and* the majority of the backing storage — keeps long-lived
/// connection read buffers from growing without bound while never
/// memmoving on the per-frame hot path.
const COMPACT_THRESHOLD: usize = 4096;

/// A growable byte buffer supporting O(1) front consumption.
#[derive(Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
    start: usize,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
            start: 0,
        }
    }

    /// Appends a slice. Fully-consumed or mostly-spent front capacity
    /// is reclaimed here, off the per-frame path.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        if self.start == self.data.len() {
            self.data.clear();
            self.start = 0;
        } else if self.start > COMPACT_THRESHOLD && self.start > self.data.len() / 2 {
            self.data.drain(..self.start);
            self.start = 0;
        }
        self.data.extend_from_slice(extend);
    }

    /// Removes and returns the first `at` bytes as a new buffer
    /// (copied out; the remainder is consumed in O(1)).
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.remaining(), "split_to out of bounds");
        let head = BytesMut {
            data: self.data[self.start..self.start + at].to_vec(),
            start: 0,
        };
        self.start += at;
        head
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.data.clear();
        self.start = 0;
    }

    /// Reserves capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Spare capacity past the current contents.
    pub fn capacity(&self) -> usize {
        self.data.capacity() - self.start
    }

    /// Freezes into an immutable [`Bytes`] **without copying**: the
    /// backing `Vec` moves into the shared allocation and any consumed
    /// front region simply stays outside the view.
    pub fn freeze(self) -> Bytes {
        let start = self.start.min(self.data.len());
        let mut frozen = Bytes::from(self.data);
        frozen.start = start;
        frozen
    }
}

impl Buf for BytesMut {
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.remaining(), "advance out of bounds");
        self.start += cnt;
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.start
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let start = self.start;
        &mut self.data[start..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for BytesMut {}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"{}\"", String::from_utf8_lossy(self).escape_debug())
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut {
            data: s.to_vec(),
            start: 0,
        }
    }
}

impl<const N: usize> From<&[u8; N]> for BytesMut {
    fn from(s: &[u8; N]) -> Self {
        BytesMut::from(&s[..])
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> Self {
        BytesMut { data: v, start: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_basics() {
        let b = Bytes::from_static(b"hello");
        assert_eq!(&b[..], b"hello");
        assert_eq!(b.len(), 5);
        let c = b.clone();
        assert_eq!(b, c);
        let d = Bytes::from(String::from("hello"));
        assert_eq!(b, d);
    }

    #[test]
    fn bytesmut_split_and_advance() {
        let mut m = BytesMut::from(&b"abcdef"[..]);
        let head = m.split_to(2);
        assert_eq!(&head[..], b"ab");
        assert_eq!(&m[..], b"cdef");
        m.advance(1);
        assert_eq!(&m[..], b"def");
        assert_eq!(m.remaining(), 3);
        let frozen = m.freeze();
        assert_eq!(&frozen[..], b"def");
    }

    #[test]
    fn bytesmut_take_default() {
        let mut m = BytesMut::from(&b"xy"[..]);
        let taken = std::mem::take(&mut m);
        assert_eq!(&taken[..], b"xy");
        assert!(m.is_empty());
    }

    #[test]
    fn bytes_as_hashmap_key() {
        use std::collections::HashMap;
        let mut map: HashMap<Bytes, u32> = HashMap::new();
        map.insert(Bytes::from_static(b"k"), 1);
        assert_eq!(map.get(&Bytes::copy_from_slice(b"k")), Some(&1));
    }

    #[test]
    fn slices_share_and_compare_by_contents() {
        let whole = Bytes::from(b"prefix-payload-suffix".to_vec());
        let payload = whole.slice(7..14);
        assert_eq!(&payload[..], b"payload");
        // Same contents from a different backing buffer: equal, same
        // hash (HashMap lookup via a view must hit a copied key).
        let copied = Bytes::copy_from_slice(b"payload");
        assert_eq!(payload, copied);
        use std::collections::HashMap;
        let mut map = HashMap::new();
        map.insert(copied, 7u32);
        assert_eq!(map.get(&payload), Some(&7));
        // Nested slicing is relative to the view.
        let pay = payload.slice(..3);
        assert_eq!(&pay[..], b"pay");
        assert_eq!(payload.slice(7..7).len(), 0);
    }

    #[test]
    fn detach_unpins_backing_buffer() {
        let whole = Bytes::from(vec![7u8; 1024]);
        let view = whole.slice(0..4);
        let Backing::Adopted(backing) = &view.data else {
            panic!("a Vec is adopted, not copied");
        };
        let weak = Arc::downgrade(backing);
        let detached = view.detach();
        drop(whole);
        drop(view);
        assert_eq!(&detached[..], &[7, 7, 7, 7]);
        assert!(
            weak.upgrade().is_none(),
            "detached copy must not pin the original allocation"
        );
        // A full-spanning view detaches by refcount, not copy.
        let full = Bytes::copy_from_slice(b"abc");
        let det = full.detach();
        assert_eq!(full.as_ptr(), det.as_ptr());
        // A slice is copied into the refcounted block itself.
        assert!(matches!(full.data, Backing::Inline(_)));
    }

    #[test]
    fn freeze_is_zero_copy_and_offset_aware() {
        let mut m = BytesMut::from(&b"consumedrest"[..]);
        m.advance(8);
        let b = m.freeze();
        assert_eq!(&b[..], b"rest");
    }

    #[test]
    fn advance_is_cursor_based_and_extend_reclaims() {
        let mut m = BytesMut::with_capacity(16);
        m.extend_from_slice(b"abcd");
        m.advance(4);
        assert_eq!(m.remaining(), 0);
        // Fully consumed: extend resets the cursor instead of growing.
        m.extend_from_slice(b"efgh");
        assert_eq!(&m[..], b"efgh");
        assert_eq!(m.start, 0);
        // A large mostly-spent buffer compacts on the next extend.
        let mut big = BytesMut::from(vec![1u8; 2 * COMPACT_THRESHOLD]);
        big.advance(2 * COMPACT_THRESHOLD - 8);
        big.extend_from_slice(b"tail");
        assert_eq!(big.start, 0);
        assert_eq!(big.remaining(), 12);
    }
}
