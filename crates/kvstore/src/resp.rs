//! Minimal RESP2 (REdis Serialization Protocol) codec over borrowed views.
//!
//! Enough of the wire protocol to run [`crate::KvStore`] as an actual
//! network server: commands arrive as RESP arrays of bulk strings and
//! replies are encoded as simple strings, errors, integers, bulk
//! strings or arrays. Incremental parsing: [`decode_command`] returns
//! `Ok(None)` until a full frame is buffered.
//!
//! ## Hot-path design
//!
//! Parsing works on **borrowed views**: a frame is first scanned in
//! place over the connection read buffer, producing byte *ranges* for
//! each argument (held in a per-thread scratch vector — no
//! intermediate owned `Vec<u8>` per line or per argument). Owned bytes
//! are materialized exactly once, at the typed boundary:
//!
//! * [`decode_command`] copies each argument into its [`Bytes`] slot
//!   when the [`crate::store::Command`] is built (the store keeps
//!   those, so they must own their storage);
//! * [`decode_reply`] copies a bulk body out into its own [`Bytes`] —
//!   one allocation whatever the size — and advances the read buffer
//!   in place, so the connection's buffer keeps its capacity from one
//!   frame to the next (giving the buffer away to avoid the memcpy
//!   cost two allocations and a regrow on the next read).
//!
//! Encoding ([`encode_command`] / [`encode_reply`]) appends straight
//! into the caller's (poolable) `BytesMut` with stack-buffer integer
//! formatting — no `format!` temporaries on the wire path.
//!
//! The previous owned-`Vec` implementation lives on as a differential
//! oracle in `tests/resp_equivalence.rs`, which drives both codecs over
//! random frame sequences split at every byte boundary.

use crate::store::{Command, Hit, Reply};
use bytes::{Buf, Bytes, BytesMut};
use std::cell::RefCell;
use std::io::Write as _;

/// Errors from protocol handling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RespError {
    /// The frame is syntactically invalid RESP.
    Protocol(String),
    /// The frame parsed but isn't a command we support.
    UnknownCommand(String),
    /// Argument count or type is wrong for the command.
    BadArguments(&'static str),
}

impl std::fmt::Display for RespError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RespError::Protocol(m) => write!(f, "protocol error: {m}"),
            RespError::UnknownCommand(c) => write!(f, "unknown command '{c}'"),
            RespError::BadArguments(c) => write!(f, "wrong arguments for '{c}'"),
        }
    }
}

impl std::error::Error for RespError {}

/// Upper bound on RESP array element counts.
const MAX_ARRAY: usize = 1_000_000;
/// Upper bound on a bulk string body.
const MAX_BULK: usize = 64 * 1024 * 1024;

thread_local! {
    // Scratch for argument/element byte ranges during a parse: reused
    // across frames so the steady-state decode performs no allocation
    // for parsing itself. Never borrowed re-entrantly (the parser does
    // not recurse into the public entry points).
    static RANGE_SCRATCH: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

// ---------------------------------------------------------------------------
// Integer and frame encoding helpers (no `format!` temporaries).
// ---------------------------------------------------------------------------

/// Decimal digits of `v` in the tail of a stack buffer; returns the
/// buffer and the start index of the digits.
#[inline]
fn u64_digits(v: u64) -> ([u8; 20], usize) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    let mut v = v;
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    (tmp, i)
}

#[inline]
fn put_uint(out: &mut BytesMut, v: u64) {
    let (tmp, i) = u64_digits(v);
    out.extend_from_slice(&tmp[i..]);
}

#[inline]
fn put_int(out: &mut BytesMut, v: i64) {
    if v < 0 {
        out.extend_from_slice(b"-");
    }
    put_uint(out, v.unsigned_abs());
}

/// `$<len>\r\n<body>\r\n`
#[inline]
fn put_bulk(out: &mut BytesMut, body: &[u8]) {
    out.extend_from_slice(b"$");
    put_uint(out, body.len() as u64);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out.extend_from_slice(b"\r\n");
}

/// A bulk string whose body is the decimal rendering of `v`.
#[inline]
fn put_bulk_uint(out: &mut BytesMut, v: u64) {
    let (tmp, i) = u64_digits(v);
    put_bulk(out, &tmp[i..]);
}

/// `addr`'s display form, written into `buf`: a primary's `TIE` frame
/// carries one per raced query, and `to_string` would allocate two or
/// three times for it. The longest form, a scoped IPv6 address, is
/// under 64 bytes.
fn addr_text<'a>(addr: &std::net::SocketAddr, buf: &'a mut [u8; 64]) -> &'a [u8] {
    let mut rest = &mut buf[..];
    write!(rest, "{addr}").expect("a socket address fits in 64 bytes");
    let len = 64 - rest.len();
    &buf[..len]
}

/// `*<n>\r\n`
#[inline]
fn put_array_header(out: &mut BytesMut, n: usize) {
    out.extend_from_slice(b"*");
    put_uint(out, n as u64);
    out.extend_from_slice(b"\r\n");
}

/// Encodes a reply into `out`.
pub fn encode_reply(reply: &Reply, out: &mut BytesMut) {
    match reply {
        Reply::Ok => out.extend_from_slice(b"+OK\r\n"),
        Reply::Pong => out.extend_from_slice(b"+PONG\r\n"),
        Reply::Str(s) => put_bulk(out, s),
        Reply::Int(i) => {
            out.extend_from_slice(b":");
            put_int(out, *i);
            out.extend_from_slice(b"\r\n");
        }
        Reply::Members(ms) => {
            put_array_header(out, ms.len());
            for m in ms {
                put_bulk_uint(out, u64::from(*m));
            }
        }
        // Hits travel as `doc@score_bits` bulk strings; the `@` is what
        // lets the client-side decoder tell them from `Members`.
        Reply::Hits(hits) => {
            put_array_header(out, hits.len());
            for h in hits {
                let (doc, ds) = u64_digits(h.doc);
                let (bits, bs) = u64_digits(h.score_bits());
                let dl = doc.len() - ds;
                let bl = bits.len() - bs;
                let mut body = [0u8; 41]; // 20 digits + '@' + 20 digits
                body[..dl].copy_from_slice(&doc[ds..]);
                body[dl] = b'@';
                body[dl + 1..dl + 1 + bl].copy_from_slice(&bits[bs..]);
                put_bulk(out, &body[..dl + 1 + bl]);
            }
        }
        Reply::Nil => out.extend_from_slice(b"$-1\r\n"),
        Reply::Error(e) => {
            out.extend_from_slice(b"-ERR ");
            out.extend_from_slice(e.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
    }
}

/// Encodes a command as a RESP array (client side).
pub fn encode_command(cmd: &Command, out: &mut BytesMut) {
    match cmd {
        Command::Ping => {
            put_array_header(out, 1);
            put_bulk(out, b"PING");
        }
        Command::Get(k) => {
            put_array_header(out, 2);
            put_bulk(out, b"GET");
            put_bulk(out, k);
        }
        Command::Set(k, v) => {
            put_array_header(out, 3);
            put_bulk(out, b"SET");
            put_bulk(out, k);
            put_bulk(out, v);
        }
        Command::Del(k) => {
            put_array_header(out, 2);
            put_bulk(out, b"DEL");
            put_bulk(out, k);
        }
        Command::SAdd(k, ms) => {
            put_array_header(out, 2 + ms.len());
            put_bulk(out, b"SADD");
            put_bulk(out, k);
            for m in ms {
                put_bulk_uint(out, u64::from(*m));
            }
        }
        Command::SCard(k) => {
            put_array_header(out, 2);
            put_bulk(out, b"SCARD");
            put_bulk(out, k);
        }
        Command::Search { terms, k } => {
            put_array_header(out, 2 + terms.len());
            put_bulk(out, b"SEARCH");
            put_bulk_uint(out, u64::from(*k));
            for t in terms {
                put_bulk_uint(out, u64::from(*t));
            }
        }
        Command::SInter(a, b) => {
            put_array_header(out, 3);
            put_bulk(out, b"SINTER");
            put_bulk(out, a);
            put_bulk(out, b);
        }
        Command::SInterCard(a, b) => {
            put_array_header(out, 3);
            put_bulk(out, b"SINTERCARD");
            put_bulk(out, a);
            put_bulk(out, b);
        }
        Command::FGet(k, slot) => {
            put_array_header(out, 3);
            put_bulk(out, b"FGET");
            put_bulk(out, k);
            put_bulk_uint(out, u64::from(*slot));
        }
        Command::FSet(k, slot, v) => {
            put_array_header(out, 4);
            put_bulk(out, b"FSET");
            put_bulk(out, k);
            put_bulk_uint(out, u64::from(*slot));
            put_bulk(out, v);
        }
        Command::Cancel(seq) => {
            put_array_header(out, 2);
            put_bulk(out, b"CANCEL");
            put_bulk_uint(out, *seq);
        }
        Command::Tie { id, peer } => match peer {
            None => {
                put_array_header(out, 2);
                put_bulk(out, b"TIE");
                put_bulk_uint(out, *id);
            }
            Some((addr, peer_id)) => {
                put_array_header(out, 4);
                put_bulk(out, b"TIE");
                put_bulk_uint(out, *id);
                put_bulk(out, addr_text(addr, &mut [0; 64]));
                put_bulk_uint(out, *peer_id);
            }
        },
        Command::CancelTie(id) => {
            put_array_header(out, 2);
            put_bulk(out, b"CANCELTIE");
            put_bulk_uint(out, *id);
        }
    }
}

// ---------------------------------------------------------------------------
// View-based parsing core.
// ---------------------------------------------------------------------------

#[inline]
fn parse_num<T: std::str::FromStr>(b: &[u8]) -> Option<T> {
    std::str::from_utf8(b).ok().and_then(|s| s.parse().ok())
}

/// Parses argument `i` as a socket address (the `TIE` frame of a
/// primary carries its twin's server address in display form).
fn addr_arg(
    buf: &[u8],
    args: &[(usize, usize)],
    i: usize,
) -> Result<std::net::SocketAddr, RespError> {
    parse_num(&buf[args[i].0..args[i].1]).ok_or(RespError::BadArguments("socket address expected"))
}

/// A non-consuming scan position over a borrowed input buffer. All
/// productions return byte *ranges* into `buf`; nothing is copied.
struct Slicer<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Slicer<'_> {
    /// Range of the next CRLF-terminated line's content (CRLF excluded,
    /// scan advanced past it), or `None` if no full line is buffered.
    fn line(&mut self) -> Option<(usize, usize)> {
        let rest = &self.buf[self.pos..];
        let i = rest.windows(2).position(|w| w == b"\r\n")?;
        let start = self.pos;
        self.pos += i + 2;
        Some((start, start + i))
    }

    /// Body range of one `$<len>\r\n<body>\r\n` bulk string.
    fn bulk(&mut self) -> Result<Option<(usize, usize)>, RespError> {
        let Some((hs, he)) = self.line() else {
            return Ok(None);
        };
        let header = &self.buf[hs..he];
        if header.first() != Some(&b'$') {
            return Err(RespError::Protocol("expected bulk string".into()));
        }
        let len: usize =
            parse_num(&header[1..]).ok_or_else(|| RespError::Protocol("bad bulk length".into()))?;
        if len > MAX_BULK {
            return Err(RespError::Protocol("bulk too large".into()));
        }
        if self.buf.len() < self.pos + len + 2 {
            return Ok(None);
        }
        let body = (self.pos, self.pos + len);
        if &self.buf[body.1..body.1 + 2] != b"\r\n" {
            return Err(RespError::Protocol("missing bulk terminator".into()));
        }
        self.pos += len + 2;
        Ok(Some(body))
    }

    /// One `*<n>\r\n` array of bulk strings; element body ranges are
    /// pushed onto `out`. `Ok(Some(()))` only when the frame is
    /// complete.
    fn array(&mut self, out: &mut Vec<(usize, usize)>) -> Result<Option<()>, RespError> {
        let Some((hs, he)) = self.line() else {
            return Ok(None);
        };
        let header = &self.buf[hs..he];
        if header.first() != Some(&b'*') {
            return Err(RespError::Protocol("expected array".into()));
        }
        let n: usize = parse_num(&header[1..])
            .ok_or_else(|| RespError::Protocol("bad array length".into()))?;
        if n > MAX_ARRAY {
            return Err(RespError::Protocol("array too large".into()));
        }
        for _ in 0..n {
            match self.bulk()? {
                Some(r) => out.push(r),
                None => return Ok(None),
            }
        }
        Ok(Some(()))
    }
}

/// Builds the typed [`Command`] from argument ranges, copying each
/// byte argument into a [`Bytes`] of its own.
fn build_command(buf: &[u8], args: &[(usize, usize)]) -> Result<Command, RespError> {
    let name = &buf[args[0].0..args[0].1];
    let arity = args.len() - 1;
    let field = |i: usize| Bytes::copy_from_slice(&buf[args[i].0..args[i].1]);
    let int_arg = |i: usize| -> Result<u32, RespError> {
        parse_num(&buf[args[i].0..args[i].1])
            .ok_or(RespError::BadArguments("integer member expected"))
    };
    let is = |upper: &[u8]| name.eq_ignore_ascii_case(upper);

    if is(b"PING") {
        Ok(Command::Ping)
    } else if is(b"GET") {
        if arity == 1 {
            Ok(Command::Get(field(1)))
        } else {
            Err(RespError::BadArguments("wrong arity"))
        }
    } else if is(b"SET") {
        if arity == 2 {
            Ok(Command::Set(field(1), field(2)))
        } else {
            Err(RespError::BadArguments("wrong arity"))
        }
    } else if is(b"DEL") {
        if arity == 1 {
            Ok(Command::Del(field(1)))
        } else {
            Err(RespError::BadArguments("wrong arity"))
        }
    } else if is(b"SADD") {
        if arity >= 2 {
            let mut members = Vec::with_capacity(arity - 1);
            for i in 2..args.len() {
                members.push(int_arg(i)?);
            }
            Ok(Command::SAdd(field(1), members))
        } else {
            Err(RespError::BadArguments("wrong arity"))
        }
    } else if is(b"SCARD") {
        if arity == 1 {
            Ok(Command::SCard(field(1)))
        } else {
            Err(RespError::BadArguments("wrong arity"))
        }
    } else if is(b"SEARCH") {
        // SEARCH <k> <term>... — zero terms is a legal (empty) query.
        if arity >= 1 {
            let k = int_arg(1)?;
            let mut terms = Vec::with_capacity(arity - 1);
            for i in 2..args.len() {
                terms.push(int_arg(i)?);
            }
            Ok(Command::Search { terms, k })
        } else {
            Err(RespError::BadArguments("wrong arity"))
        }
    } else if is(b"SINTER") {
        if arity == 2 {
            Ok(Command::SInter(field(1), field(2)))
        } else {
            Err(RespError::BadArguments("wrong arity"))
        }
    } else if is(b"SINTERCARD") {
        if arity == 2 {
            Ok(Command::SInterCard(field(1), field(2)))
        } else {
            Err(RespError::BadArguments("wrong arity"))
        }
    } else if is(b"FGET") {
        if arity == 2 {
            Ok(Command::FGet(field(1), int_arg(2)?))
        } else {
            Err(RespError::BadArguments("wrong arity"))
        }
    } else if is(b"FSET") {
        if arity == 3 {
            Ok(Command::FSet(field(1), int_arg(2)?, field(3)))
        } else {
            Err(RespError::BadArguments("wrong arity"))
        }
    } else if is(b"CANCEL") {
        if arity == 1 {
            let seq = parse_num(&buf[args[1].0..args[1].1])
                .ok_or(RespError::BadArguments("sequence number expected"))?;
            Ok(Command::Cancel(seq))
        } else {
            Err(RespError::BadArguments("wrong arity"))
        }
    } else if is(b"TIE") {
        // TIE <id> | TIE <seq> <peer_addr> <peer_id>
        let id_arg = |i: usize| -> Result<u64, RespError> {
            parse_num(&buf[args[i].0..args[i].1]).ok_or(RespError::BadArguments("tie id expected"))
        };
        match arity {
            1 => Ok(Command::Tie {
                id: id_arg(1)?,
                peer: None,
            }),
            3 => Ok(Command::Tie {
                id: id_arg(1)?,
                peer: Some((addr_arg(buf, args, 2)?, id_arg(3)?)),
            }),
            _ => Err(RespError::BadArguments("wrong arity")),
        }
    } else if is(b"CANCELTIE") {
        if arity == 1 {
            let id = parse_num(&buf[args[1].0..args[1].1])
                .ok_or(RespError::BadArguments("tie id expected"))?;
            Ok(Command::CancelTie(id))
        } else {
            Err(RespError::BadArguments("wrong arity"))
        }
    } else {
        Err(RespError::UnknownCommand(
            String::from_utf8_lossy(name).to_ascii_uppercase(),
        ))
    }
}

/// Attempts to decode one command frame from `buf`.
///
/// Returns `Ok(Some(cmd))` and consumes the frame on success,
/// `Ok(None)` if more bytes are needed (buffer untouched), or an error
/// for malformed or unsupported input (buffer consumed through the
/// frame when determinable).
pub fn decode_command(buf: &mut BytesMut) -> Result<Option<Command>, RespError> {
    let parsed = RANGE_SCRATCH.with(|scratch| {
        let mut args = scratch.borrow_mut();
        args.clear();
        let data = &buf[..];
        let mut sl = Slicer { buf: data, pos: 0 };
        match sl.array(&mut args)? {
            None => Ok(None),
            Some(()) => {
                let built = if args.is_empty() {
                    Err(RespError::Protocol("empty command array".into()))
                } else {
                    build_command(data, &args)
                };
                Ok(Some((sl.pos, built)))
            }
        }
    })?;
    let Some((consumed, built)) = parsed else {
        return Ok(None);
    };
    buf.advance(consumed);
    built.map(Some)
}

/// Outcome of a reply-frame scan: everything but a bulk body is built
/// during the scan; the body stays a range until [`decode_reply`]
/// copies it out.
enum ParsedReply {
    Ready(Reply),
    StrBody(usize, usize),
}

/// Scans one reply frame at the start of `buf` without consuming.
fn parse_reply_at(buf: &[u8]) -> Result<Option<(ParsedReply, usize)>, RespError> {
    let Some(&head) = buf.first() else {
        return Ok(None);
    };
    let mut sl = Slicer { buf, pos: 0 };
    match head {
        b'+' => {
            let Some((s, e)) = sl.line() else {
                return Ok(None);
            };
            match &buf[s + 1..e] {
                b"OK" => Ok(Some((ParsedReply::Ready(Reply::Ok), sl.pos))),
                b"PONG" => Ok(Some((ParsedReply::Ready(Reply::Pong), sl.pos))),
                other => Err(RespError::Protocol(format!(
                    "unexpected simple string '{}'",
                    String::from_utf8_lossy(other)
                ))),
            }
        }
        b'-' => {
            let Some((s, e)) = sl.line() else {
                return Ok(None);
            };
            let msg = String::from_utf8_lossy(&buf[s + 1..e]);
            let msg = msg.strip_prefix("ERR ").unwrap_or(&msg);
            Ok(Some((
                ParsedReply::Ready(Reply::Error(msg.to_string())),
                sl.pos,
            )))
        }
        b':' => {
            let Some((s, e)) = sl.line() else {
                return Ok(None);
            };
            let i: i64 = parse_num(&buf[s + 1..e])
                .ok_or_else(|| RespError::Protocol("bad integer".into()))?;
            Ok(Some((ParsedReply::Ready(Reply::Int(i)), sl.pos)))
        }
        b'$' => {
            let Some((hs, he)) = sl.line() else {
                return Ok(None);
            };
            let len: i64 = parse_num(&buf[hs + 1..he])
                .ok_or_else(|| RespError::Protocol("bad bulk length".into()))?;
            if len < 0 {
                return Ok(Some((ParsedReply::Ready(Reply::Nil), sl.pos)));
            }
            let len = len as usize;
            if len > MAX_BULK {
                return Err(RespError::Protocol("bulk too large".into()));
            }
            if buf.len() < sl.pos + len + 2 {
                return Ok(None);
            }
            let body = (sl.pos, sl.pos + len);
            if &buf[body.1..body.1 + 2] != b"\r\n" {
                return Err(RespError::Protocol("missing bulk terminator".into()));
            }
            Ok(Some((ParsedReply::StrBody(body.0, body.1), body.1 + 2)))
        }
        b'*' => RANGE_SCRATCH.with(|scratch| {
            let mut items = scratch.borrow_mut();
            items.clear();
            match sl.array(&mut items)? {
                None => Ok(None),
                Some(()) => {
                    // `doc@bits` elements are scored hits; plain
                    // integers are set members. An empty array is
                    // ambiguous and decodes as `Members(vec![])` —
                    // callers expecting hits must treat that as zero
                    // hits.
                    if items.iter().any(|&(s, e)| buf[s..e].contains(&b'@')) {
                        let mut hits = Vec::with_capacity(items.len());
                        for &(s, e) in items.iter() {
                            let item = std::str::from_utf8(&buf[s..e])
                                .map_err(|_| RespError::Protocol("non-utf8 hit in array".into()))?;
                            let (doc, bits) = item
                                .split_once('@')
                                .and_then(|(d, b)| Some((d.parse().ok()?, b.parse().ok()?)))
                                .ok_or_else(|| {
                                    RespError::Protocol("malformed hit in array".into())
                                })?;
                            hits.push(Hit::from_bits(doc, bits));
                        }
                        return Ok(Some((ParsedReply::Ready(Reply::Hits(hits)), sl.pos)));
                    }
                    let mut members = Vec::with_capacity(items.len());
                    for &(s, e) in items.iter() {
                        let m: u32 = parse_num(&buf[s..e]).ok_or_else(|| {
                            RespError::Protocol("non-integer member in array".into())
                        })?;
                        members.push(m);
                    }
                    Ok(Some((ParsedReply::Ready(Reply::Members(members)), sl.pos)))
                }
            }
        }),
        other => Err(RespError::Protocol(format!(
            "unknown reply type byte 0x{other:02x}"
        ))),
    }
}

/// Attempts to decode one typed [`Reply`] frame from `buf` (client
/// side). Incremental like [`decode_command`]: returns `Ok(None)` and
/// leaves the buffer untouched until a full frame is available.
///
/// Member arrays are decoded back into `Reply::Members` (each element
/// must be an integer bulk string, which is all `encode_reply` emits);
/// `-ERR msg` decodes to `Reply::Error(msg)`. A bulk body is copied
/// into a [`Bytes`] of its own (one allocation) and `buf` keeps its
/// storage, pipelined tail included.
pub fn decode_reply(buf: &mut BytesMut) -> Result<Option<Reply>, RespError> {
    let Some((parsed, consumed)) = parse_reply_at(&buf[..])? else {
        return Ok(None);
    };
    let reply = match parsed {
        ParsedReply::Ready(r) => r,
        ParsedReply::StrBody(s, e) => Reply::Str(Bytes::copy_from_slice(&buf[s..e])),
    };
    buf.advance(consumed);
    Ok(Some(reply))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(s: &[u8]) -> BytesMut {
        BytesMut::from(s)
    }

    #[test]
    fn decode_simple_get() {
        let mut b = buf(b"*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n");
        let cmd = decode_command(&mut b).unwrap().unwrap();
        assert_eq!(cmd, Command::Get(Bytes::from_static(b"foo")));
        assert!(b.is_empty(), "frame fully consumed");
    }

    #[test]
    fn decode_incremental() {
        let full = b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n";
        for cut in 1..full.len() {
            let mut b = buf(&full[..cut]);
            assert_eq!(decode_command(&mut b).unwrap(), None, "cut={cut}");
            assert_eq!(b.len(), cut, "partial input untouched");
        }
        let mut b = buf(full);
        assert!(decode_command(&mut b).unwrap().is_some());
    }

    #[test]
    fn decode_sadd_with_members() {
        let mut b = buf(b"*4\r\n$4\r\nSADD\r\n$1\r\ns\r\n$1\r\n7\r\n$2\r\n42\r\n");
        let cmd = decode_command(&mut b).unwrap().unwrap();
        assert_eq!(cmd, Command::SAdd(Bytes::from_static(b"s"), vec![7, 42]));
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut b = buf(b"+OK\r\n");
        assert!(matches!(
            decode_command(&mut b),
            Err(RespError::Protocol(_))
        ));
        let mut b = buf(b"*1\r\n$7\r\nFLUSHDB\r\n");
        assert!(matches!(
            decode_command(&mut b),
            Err(RespError::UnknownCommand(_))
        ));
        let mut b = buf(b"*1\r\n$3\r\nGET\r\n"); // missing key
        assert!(matches!(
            decode_command(&mut b),
            Err(RespError::BadArguments(_))
        ));
        let mut b = buf(b"*3\r\n$4\r\nSADD\r\n$1\r\ns\r\n$3\r\nabc\r\n");
        assert!(matches!(
            decode_command(&mut b),
            Err(RespError::BadArguments(_))
        ));
    }

    /// `MAX_ARRAY` and `MAX_BULK` bound lengths read off the network: a
    /// header one past either bound is refused as soon as it is
    /// buffered, with no body after it; a header at the bound waits for
    /// its body.
    #[test]
    fn oversized_headers_are_rejected_before_their_body() {
        fn protocol<T>(r: Result<Option<T>, RespError>, want: &str) {
            assert_eq!(r.err(), Some(RespError::Protocol(want.into())));
        }
        protocol(decode_command(&mut buf(b"*1000001\r\n")), "array too large");
        protocol(
            decode_command(&mut buf(b"*1\r\n$67108865\r\n")),
            "bulk too large",
        );
        protocol(decode_reply(&mut buf(b"$67108865\r\n")), "bulk too large");
        assert_eq!(decode_command(&mut buf(b"*1000000\r\n")), Ok(None));
        assert_eq!(decode_command(&mut buf(b"*1\r\n$67108864\r\n")), Ok(None));
        assert_eq!(decode_reply(&mut buf(b"$67108864\r\n")), Ok(None));
    }

    #[test]
    fn command_roundtrip_through_codec() {
        let cmds = vec![
            Command::Ping,
            Command::Get(Bytes::from_static(b"k")),
            Command::Set(Bytes::from_static(b"k"), Bytes::from_static(b"value")),
            Command::Del(Bytes::from_static(b"k")),
            Command::SAdd(Bytes::from_static(b"s"), vec![1, 2, 3]),
            Command::SCard(Bytes::from_static(b"s")),
            Command::SInter(Bytes::from_static(b"a"), Bytes::from_static(b"b")),
            Command::SInterCard(Bytes::from_static(b"a"), Bytes::from_static(b"b")),
            Command::FGet(Bytes::from_static(b"k"), 3),
            Command::FSet(Bytes::from_static(b"k"), 2, Bytes::from_static(b"frag")),
        ];
        for cmd in cmds {
            let mut wire = BytesMut::new();
            encode_command(&cmd, &mut wire);
            let decoded = decode_command(&mut wire).unwrap().unwrap();
            assert_eq!(decoded, cmd);
            assert!(wire.is_empty());
        }
    }

    #[test]
    fn encode_replies() {
        let cases: Vec<(Reply, &[u8])> = vec![
            (Reply::Ok, b"+OK\r\n"),
            (Reply::Pong, b"+PONG\r\n"),
            (Reply::Int(-7), b":-7\r\n"),
            (Reply::Nil, b"$-1\r\n"),
            (Reply::Str(Bytes::from_static(b"hi")), b"$2\r\nhi\r\n"),
            (
                Reply::Members(vec![10, 2]),
                b"*2\r\n$2\r\n10\r\n$1\r\n2\r\n",
            ),
            (Reply::Error("boom".into()), b"-ERR boom\r\n"),
        ];
        for (reply, want) in cases {
            let mut out = BytesMut::new();
            encode_reply(&reply, &mut out);
            assert_eq!(&out[..], want);
        }
    }

    #[test]
    fn search_command_roundtrip() {
        let cmds = vec![
            Command::Search {
                terms: vec![15, 40, 200],
                k: 10,
            },
            Command::Search {
                terms: vec![],
                k: 3,
            },
        ];
        for cmd in cmds {
            let mut wire = BytesMut::new();
            encode_command(&cmd, &mut wire);
            assert_eq!(decode_command(&mut wire).unwrap().unwrap(), cmd);
            assert!(wire.is_empty());
        }
        // Bare SEARCH (no k) is an arity error.
        let mut b = buf(b"*1\r\n$6\r\nSEARCH\r\n");
        assert!(matches!(
            decode_command(&mut b),
            Err(RespError::BadArguments(_))
        ));
    }

    #[test]
    fn hits_reply_roundtrip_exact_scores() {
        let hits = vec![
            Hit::new(42, 3.25190381),
            Hit::new(7_000_000_123, -0.5),
            Hit::new(0, f64::MAX),
        ];
        let mut wire = BytesMut::new();
        encode_reply(&Reply::Hits(hits.clone()), &mut wire);
        let decoded = decode_reply(&mut wire).unwrap().unwrap();
        assert_eq!(decoded, Reply::Hits(hits.clone()));
        match decoded {
            Reply::Hits(got) => {
                for (g, w) in got.iter().zip(&hits) {
                    assert_eq!(g.score().to_bits(), w.score().to_bits());
                }
            }
            other => panic!("expected hits, got {other:?}"),
        }
        // Empty hit arrays are indistinguishable from empty member
        // arrays on the wire and decode as Members.
        let mut wire = BytesMut::new();
        encode_reply(&Reply::Hits(vec![]), &mut wire);
        assert_eq!(
            decode_reply(&mut wire).unwrap().unwrap(),
            Reply::Members(vec![])
        );
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut b = buf(b"*1\r\n$4\r\nPING\r\n*2\r\n$3\r\nGET\r\n$1\r\nx\r\n");
        assert_eq!(decode_command(&mut b).unwrap(), Some(Command::Ping));
        assert_eq!(
            decode_command(&mut b).unwrap(),
            Some(Command::Get(Bytes::from_static(b"x")))
        );
        assert_eq!(decode_command(&mut b).unwrap(), None);
    }

    #[test]
    fn large_str_reply_keeps_tail_and_buffer_capacity() {
        let body = vec![b'x'; 8 * 1024];
        let mut wire = BytesMut::new();
        encode_reply(&Reply::Str(Bytes::from(body.clone())), &mut wire);
        encode_reply(&Reply::Pong, &mut wire); // pipelined tail
        let r1 = decode_reply(&mut wire).unwrap().unwrap();
        assert_eq!(r1, Reply::Str(Bytes::from(body)));
        let r2 = decode_reply(&mut wire).unwrap().unwrap();
        assert_eq!(r2, Reply::Pong);
        assert_eq!(decode_reply(&mut wire).unwrap(), None);
        // The read buffer was drained in place, not given away: the
        // next frame reuses its storage.
        wire.extend_from_slice(b"+OK\r\n");
        assert!(wire.capacity() >= 8 * 1024);
    }
}
