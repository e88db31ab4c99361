//! Differential tests: the zero-copy RESP codec against the reference
//! (owned-`Vec`, pre-refactor) implementation preserved below as
//! `reference`.
//!
//! Random command/reply sequences are encoded by both encoders (must
//! be byte-identical) and decoded by both parsers with the stream
//! split at **every byte boundary** (must yield identical value/error
//! sequences and identical residual buffers). No external proptest
//! crate exists in this tree, so generation runs on a hand-rolled
//! xorshift PRNG with fixed seeds — failures reproduce exactly.

use bytes::{Bytes, BytesMut};
use kvstore::resp::{self, RespError};
use kvstore::{Command, Hit, Reply};

/// The pre-refactor owned-`Vec` codec, kept as the differential
/// oracle for the zero-copy `kvstore::resp`: identical public behavior
/// (accepted frames, consumption semantics, error cases), so the tests
/// below drive both over the same inputs.
mod reference {
    use bytes::{Buf, Bytes, BytesMut};
    use kvstore::resp::RespError;
    use kvstore::{Command, Hit, Reply};

    /// Copies of the library's bounds on a RESP array's element count
    /// and on a bulk string body.
    const MAX_ARRAY: usize = 1_000_000;
    const MAX_BULK: usize = 64 * 1024 * 1024;

    /// Encodes a reply into `out` (old `format!`-based path).
    pub fn encode_reply(reply: &Reply, out: &mut BytesMut) {
        match reply {
            Reply::Ok => out.extend_from_slice(b"+OK\r\n"),
            Reply::Pong => out.extend_from_slice(b"+PONG\r\n"),
            Reply::Str(s) => {
                out.extend_from_slice(format!("${}\r\n", s.len()).as_bytes());
                out.extend_from_slice(s);
                out.extend_from_slice(b"\r\n");
            }
            Reply::Int(i) => out.extend_from_slice(format!(":{i}\r\n").as_bytes()),
            Reply::Members(ms) => {
                out.extend_from_slice(format!("*{}\r\n", ms.len()).as_bytes());
                for m in ms {
                    let s = m.to_string();
                    out.extend_from_slice(format!("${}\r\n{s}\r\n", s.len()).as_bytes());
                }
            }
            Reply::Hits(hits) => {
                out.extend_from_slice(format!("*{}\r\n", hits.len()).as_bytes());
                for h in hits {
                    let s = format!("{}@{}", h.doc, h.score_bits());
                    out.extend_from_slice(format!("${}\r\n{s}\r\n", s.len()).as_bytes());
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

    /// Old owned-`Vec` command decoder.
    pub fn decode_command(buf: &mut BytesMut) -> Result<Option<Command>, RespError> {
        let mut probe = Cursor { buf, pos: 0 };
        let args = match probe.parse_array()? {
            Some(a) => a,
            None => return Ok(None),
        };
        let consumed = probe.pos;
        buf.advance(consumed);

        if args.is_empty() {
            return Err(RespError::Protocol("empty command array".into()));
        }
        let name = String::from_utf8_lossy(&args[0]).to_ascii_uppercase();
        let arity = args.len() - 1;
        let arg = |i: usize| Bytes::copy_from_slice(&args[i]);
        let int_arg = |i: usize| -> Result<u32, RespError> {
            std::str::from_utf8(&args[i])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or(RespError::BadArguments("integer member expected"))
        };

        match name.as_str() {
            "PING" => Ok(Some(Command::Ping)),
            "GET" if arity == 1 => Ok(Some(Command::Get(arg(1)))),
            "SET" if arity == 2 => Ok(Some(Command::Set(arg(1), arg(2)))),
            "DEL" if arity == 1 => Ok(Some(Command::Del(arg(1)))),
            "SADD" if arity >= 2 => {
                let mut members = Vec::with_capacity(arity - 1);
                for i in 2..args.len() {
                    members.push(int_arg(i)?);
                }
                Ok(Some(Command::SAdd(arg(1), members)))
            }
            "SCARD" if arity == 1 => Ok(Some(Command::SCard(arg(1)))),
            "SEARCH" if arity >= 1 => {
                let k = int_arg(1)?;
                let mut terms = Vec::with_capacity(arity - 1);
                for i in 2..args.len() {
                    terms.push(int_arg(i)?);
                }
                Ok(Some(Command::Search { terms, k }))
            }
            "SINTER" if arity == 2 => Ok(Some(Command::SInter(arg(1), arg(2)))),
            "SINTERCARD" if arity == 2 => Ok(Some(Command::SInterCard(arg(1), arg(2)))),
            "FGET" if arity == 2 => Ok(Some(Command::FGet(arg(1), int_arg(2)?))),
            "FSET" if arity == 3 => Ok(Some(Command::FSet(arg(1), int_arg(2)?, arg(3)))),
            "CANCEL" if arity == 1 => {
                let seq = std::str::from_utf8(&args[1])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or(RespError::BadArguments("sequence number expected"))?;
                Ok(Some(Command::Cancel(seq)))
            }
            "TIE" if arity == 1 => Ok(Some(Command::Tie {
                id: ref_parse(&args[1], "tie id expected")?,
                peer: None,
            })),
            "TIE" if arity == 3 => Ok(Some(Command::Tie {
                id: ref_parse(&args[1], "tie id expected")?,
                peer: Some((
                    ref_parse(&args[2], "socket address expected")?,
                    ref_parse(&args[3], "tie id expected")?,
                )),
            })),
            "CANCELTIE" if arity == 1 => Ok(Some(Command::CancelTie(ref_parse(
                &args[1],
                "tie id expected",
            )?))),
            "GET" | "SET" | "DEL" | "SADD" | "SCARD" | "SEARCH" | "SINTER" | "SINTERCARD"
            | "FGET" | "FSET" | "CANCEL" | "TIE" | "CANCELTIE" => {
                Err(RespError::BadArguments("wrong arity"))
            }
            other => Err(RespError::UnknownCommand(other.to_string())),
        }
    }

    /// Parses one owned argument, mirroring the zero-copy path's
    /// `parse_num`-based validation (including the tie frames' socket
    /// addresses).
    fn ref_parse<T: std::str::FromStr>(b: &[u8], err: &'static str) -> Result<T, RespError> {
        std::str::from_utf8(b)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or(RespError::BadArguments(err))
    }

    /// Old `format!`-based command encoder.
    pub fn encode_command(cmd: &Command, out: &mut BytesMut) {
        fn bulk(out: &mut BytesMut, s: &[u8]) {
            out.extend_from_slice(format!("${}\r\n", s.len()).as_bytes());
            out.extend_from_slice(s);
            out.extend_from_slice(b"\r\n");
        }
        let parts: Vec<Vec<u8>> = match cmd {
            Command::Ping => vec![b"PING".to_vec()],
            Command::Get(k) => vec![b"GET".to_vec(), k.to_vec()],
            Command::Set(k, v) => vec![b"SET".to_vec(), k.to_vec(), v.to_vec()],
            Command::Del(k) => vec![b"DEL".to_vec(), k.to_vec()],
            Command::SAdd(k, ms) => {
                let mut p = vec![b"SADD".to_vec(), k.to_vec()];
                p.extend(ms.iter().map(|m| m.to_string().into_bytes()));
                p
            }
            Command::SCard(k) => vec![b"SCARD".to_vec(), k.to_vec()],
            Command::Search { terms, k } => {
                let mut p = vec![b"SEARCH".to_vec(), k.to_string().into_bytes()];
                p.extend(terms.iter().map(|t| t.to_string().into_bytes()));
                p
            }
            Command::SInter(a, b) => vec![b"SINTER".to_vec(), a.to_vec(), b.to_vec()],
            Command::SInterCard(a, b) => {
                vec![b"SINTERCARD".to_vec(), a.to_vec(), b.to_vec()]
            }
            Command::FGet(k, slot) => {
                vec![b"FGET".to_vec(), k.to_vec(), slot.to_string().into_bytes()]
            }
            Command::FSet(k, slot, v) => vec![
                b"FSET".to_vec(),
                k.to_vec(),
                slot.to_string().into_bytes(),
                v.to_vec(),
            ],
            Command::Cancel(seq) => {
                vec![b"CANCEL".to_vec(), seq.to_string().into_bytes()]
            }
            Command::Tie { id, peer } => match peer {
                None => vec![b"TIE".to_vec(), id.to_string().into_bytes()],
                Some((addr, peer_id)) => vec![
                    b"TIE".to_vec(),
                    id.to_string().into_bytes(),
                    addr.to_string().into_bytes(),
                    peer_id.to_string().into_bytes(),
                ],
            },
            Command::CancelTie(id) => {
                vec![b"CANCELTIE".to_vec(), id.to_string().into_bytes()]
            }
        };
        out.extend_from_slice(format!("*{}\r\n", parts.len()).as_bytes());
        for p in parts {
            bulk(out, &p);
        }
    }

    /// Old owned-`Vec` reply decoder.
    pub fn decode_reply(buf: &mut BytesMut) -> Result<Option<Reply>, RespError> {
        let mut probe = Cursor { buf, pos: 0 };
        let reply = match probe.parse_reply()? {
            Some(r) => r,
            None => return Ok(None),
        };
        let consumed = probe.pos;
        buf.advance(consumed);
        Ok(Some(reply))
    }

    struct Cursor<'a> {
        buf: &'a BytesMut,
        pos: usize,
    }

    impl Cursor<'_> {
        fn line(&mut self) -> Result<Option<&[u8]>, RespError> {
            let rest = &self.buf[self.pos..];
            match rest.windows(2).position(|w| w == b"\r\n") {
                Some(i) => {
                    let line = &rest[..i];
                    self.pos += i + 2;
                    Ok(Some(line))
                }
                None => Ok(None),
            }
        }

        fn parse_array(&mut self) -> Result<Option<Vec<Vec<u8>>>, RespError> {
            let header = match self.line()? {
                Some(l) => l.to_vec(),
                None => return Ok(None),
            };
            if header.first() != Some(&b'*') {
                return Err(RespError::Protocol("expected array".into()));
            }
            let n: usize = std::str::from_utf8(&header[1..])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| RespError::Protocol("bad array length".into()))?;
            if n > MAX_ARRAY {
                return Err(RespError::Protocol("array too large".into()));
            }
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                match self.parse_bulk()? {
                    Some(b) => items.push(b),
                    None => return Ok(None),
                }
            }
            Ok(Some(items))
        }

        fn parse_reply(&mut self) -> Result<Option<Reply>, RespError> {
            let Some(&head) = self.buf.get(self.pos) else {
                return Ok(None);
            };
            match head {
                b'+' => {
                    let line = match self.line()? {
                        Some(l) => l.to_vec(),
                        None => return Ok(None),
                    };
                    match &line[1..] {
                        b"OK" => Ok(Some(Reply::Ok)),
                        b"PONG" => Ok(Some(Reply::Pong)),
                        other => Err(RespError::Protocol(format!(
                            "unexpected simple string '{}'",
                            String::from_utf8_lossy(other)
                        ))),
                    }
                }
                b'-' => {
                    let line = match self.line()? {
                        Some(l) => l.to_vec(),
                        None => return Ok(None),
                    };
                    let msg = String::from_utf8_lossy(&line[1..]);
                    let msg = msg.strip_prefix("ERR ").unwrap_or(&msg);
                    Ok(Some(Reply::Error(msg.to_string())))
                }
                b':' => {
                    let line = match self.line()? {
                        Some(l) => l.to_vec(),
                        None => return Ok(None),
                    };
                    let i: i64 = std::str::from_utf8(&line[1..])
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| RespError::Protocol("bad integer".into()))?;
                    Ok(Some(Reply::Int(i)))
                }
                b'$' => {
                    let start = self.pos;
                    let header = match self.line()? {
                        Some(l) => l.to_vec(),
                        None => return Ok(None),
                    };
                    let len: i64 = std::str::from_utf8(&header[1..])
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| RespError::Protocol("bad bulk length".into()))?;
                    if len < 0 {
                        return Ok(Some(Reply::Nil));
                    }
                    self.pos = start;
                    match self.parse_bulk()? {
                        Some(data) => Ok(Some(Reply::Str(Bytes::from(data)))),
                        None => Ok(None),
                    }
                }
                b'*' => {
                    let items = match self.parse_array()? {
                        Some(items) => items,
                        None => return Ok(None),
                    };
                    if items.iter().any(|i| i.contains(&b'@')) {
                        let mut hits = Vec::with_capacity(items.len());
                        for item in items {
                            let s = std::str::from_utf8(&item)
                                .map_err(|_| RespError::Protocol("non-utf8 hit in array".into()))?;
                            let (doc, bits) = s
                                .split_once('@')
                                .and_then(|(d, b)| Some((d.parse().ok()?, b.parse().ok()?)))
                                .ok_or_else(|| {
                                    RespError::Protocol("malformed hit in array".into())
                                })?;
                            hits.push(Hit::from_bits(doc, bits));
                        }
                        return Ok(Some(Reply::Hits(hits)));
                    }
                    let mut members = Vec::with_capacity(items.len());
                    for item in items {
                        let m: u32 = std::str::from_utf8(&item)
                            .ok()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| {
                                RespError::Protocol("non-integer member in array".into())
                            })?;
                        members.push(m);
                    }
                    Ok(Some(Reply::Members(members)))
                }
                other => Err(RespError::Protocol(format!(
                    "unknown reply type byte 0x{other:02x}"
                ))),
            }
        }

        fn parse_bulk(&mut self) -> Result<Option<Vec<u8>>, RespError> {
            let header = match self.line()? {
                Some(l) => l.to_vec(),
                None => return Ok(None),
            };
            if header.first() != Some(&b'$') {
                return Err(RespError::Protocol("expected bulk string".into()));
            }
            let len: usize = std::str::from_utf8(&header[1..])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| RespError::Protocol("bad bulk length".into()))?;
            if len > MAX_BULK {
                return Err(RespError::Protocol("bulk too large".into()));
            }
            if self.buf.len() < self.pos + len + 2 {
                return Ok(None);
            }
            let data = self.buf[self.pos..self.pos + len].to_vec();
            if &self.buf[self.pos + len..self.pos + len + 2] != b"\r\n" {
                return Err(RespError::Protocol("missing bulk terminator".into()));
            }
            self.pos += len + 2;
            Ok(Some(data))
        }
    }
}

/// xorshift64*: deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len as u64 + 1) as usize;
        (0..len).map(|_| (self.next() & 0xFF) as u8).collect()
    }

    fn key(&mut self) -> bytes::Bytes {
        bytes::Bytes::copy_from_slice(&self.bytes(12))
    }

    fn members(&mut self) -> Vec<u32> {
        let n = self.below(6) as usize;
        (0..n).map(|_| self.next() as u32).collect()
    }

    /// At least one member: `SADD key` with no members is wrong-arity
    /// by protocol, so it is outside the round-trip domain.
    fn members_nonempty(&mut self) -> Vec<u32> {
        let n = 1 + self.below(5) as usize;
        (0..n).map(|_| self.next() as u32).collect()
    }
}

fn random_addr(rng: &mut Rng) -> std::net::SocketAddr {
    // IPv4 and IPv6 display forms both round-trip through FromStr.
    if rng.below(4) == 0 {
        std::net::SocketAddr::from((
            std::net::Ipv6Addr::new(0, 0, 0, 0, 0, 0, 0, 1),
            (rng.next() % 65_536) as u16,
        ))
    } else {
        std::net::SocketAddr::from((
            std::net::Ipv4Addr::new(
                127,
                (rng.next() % 256) as u8,
                (rng.next() % 256) as u8,
                (rng.next() % 256) as u8,
            ),
            (rng.next() % 65_536) as u16,
        ))
    }
}

fn random_command(rng: &mut Rng) -> Command {
    match rng.below(14) {
        0 => Command::Ping,
        1 => Command::Get(rng.key()),
        2 => Command::Set(rng.key(), bytes::Bytes::copy_from_slice(&rng.bytes(40))),
        3 => Command::Del(rng.key()),
        4 => Command::SAdd(rng.key(), rng.members_nonempty()),
        5 => Command::SCard(rng.key()),
        6 => Command::SInter(rng.key(), rng.key()),
        7 => Command::SInterCard(rng.key(), rng.key()),
        8 => Command::Search {
            terms: rng.members(),
            k: rng.next() as u32 % 100,
        },
        9 => {
            let peer = if rng.below(2) == 0 {
                None
            } else {
                let addr = random_addr(rng);
                Some((addr, rng.next()))
            };
            Command::Tie {
                id: rng.next(),
                peer,
            }
        }
        10 => Command::CancelTie(rng.next()),
        11 => Command::FGet(rng.key(), rng.next() as u32 % 16),
        12 => Command::FSet(
            rng.key(),
            rng.next() as u32 % 16,
            bytes::Bytes::copy_from_slice(&rng.bytes(40)),
        ),
        _ => Command::Cancel(rng.next()),
    }
}

fn random_reply(rng: &mut Rng) -> Reply {
    match rng.below(8) {
        0 => Reply::Ok,
        1 => Reply::Pong,
        // Bodies from empty to 2 KiB: short and multi-read-sized.
        2 => Reply::Str(bytes::Bytes::copy_from_slice(&rng.bytes(2048))),
        3 => match rng.below(4) {
            0 => Reply::Int(i64::MIN),
            1 => Reply::Int(i64::MAX),
            _ => Reply::Int(rng.next() as i64),
        },
        4 => Reply::Members(rng.members()),
        5 => {
            // Non-empty: an empty hit array is indistinguishable from
            // Members([]) on the wire, so it decodes as Members.
            let n = 1 + rng.below(4) as usize;
            Reply::Hits(
                (0..n)
                    .map(|_| Hit::new(rng.next(), (rng.next() % 1000) as f64 * 0.125))
                    .collect(),
            )
        }
        6 => Reply::Nil,
        _ => {
            // Error payloads are line-framed: keep them CRLF-free
            // printable ASCII, as the server does.
            let n = rng.below(20) as usize;
            let msg: String = (0..n)
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect();
            Reply::Error(msg)
        }
    }
}

/// A syntactically valid RESP array of arbitrary bulk strings — the
/// raw-frame generator for the error paths (unknown commands, wrong
/// arity, non-integer members, empty arrays).
fn raw_array(rng: &mut Rng, out: &mut BytesMut) {
    let n = rng.below(4) as usize;
    out.extend_from_slice(format!("*{n}\r\n").as_bytes());
    for _ in 0..n {
        let arg = match rng.below(4) {
            0 => b"GET".to_vec(),
            1 => b"BOGUS".to_vec(),
            2 => rng.bytes(6),
            _ => format!("{}", rng.next() % 100).into_bytes(),
        };
        out.extend_from_slice(format!("${}\r\n", arg.len()).as_bytes());
        out.extend_from_slice(&arg);
        out.extend_from_slice(b"\r\n");
    }
}

/// Drains one decoder until it wants more bytes, recording values and
/// errors. A decoder that errors without consuming input would loop
/// forever here; both implementations consume the offending frame, and
/// the guard asserts that stays true.
fn drain<T: std::fmt::Debug>(
    buf: &mut BytesMut,
    mut dec: impl FnMut(&mut BytesMut) -> Result<Option<T>, RespError>,
    out: &mut Vec<Result<T, RespError>>,
) {
    loop {
        let before = buf.len();
        match dec(buf) {
            Ok(Some(v)) => out.push(Ok(v)),
            Ok(None) => break,
            Err(e) => {
                assert!(buf.len() < before, "decoder errored without consuming");
                out.push(Err(e));
            }
        }
    }
}

/// Feeds `wire` to both decoders split at byte `i`, asserting the
/// decoded sequences and the residual buffers match at every stage.
fn assert_split_equivalence<T>(
    wire: &[u8],
    i: usize,
    new_dec: impl Fn(&mut BytesMut) -> Result<Option<T>, RespError> + Copy,
    ref_dec: impl Fn(&mut BytesMut) -> Result<Option<T>, RespError> + Copy,
) -> Vec<Result<T, RespError>>
where
    T: PartialEq + std::fmt::Debug,
{
    let (mut new_buf, mut ref_buf) = (BytesMut::new(), BytesMut::new());
    let (mut new_out, mut ref_out) = (Vec::new(), Vec::new());
    for chunk in [&wire[..i], &wire[i..]] {
        new_buf.extend_from_slice(chunk);
        ref_buf.extend_from_slice(chunk);
        drain(&mut new_buf, new_dec, &mut new_out);
        drain(&mut ref_buf, ref_dec, &mut ref_out);
        assert_eq!(new_out, ref_out, "split at byte {i}");
        assert_eq!(&new_buf[..], &ref_buf[..], "residual bytes at split {i}");
    }
    assert!(new_buf.is_empty(), "whole stream must decode");
    new_out
}

#[test]
fn new_and_reference_encoders_agree() {
    let cmds = vec![
        Command::Ping,
        Command::Get(Bytes::from_static(b"key")),
        Command::Set(Bytes::from_static(b"k"), Bytes::from_static(b"v")),
        Command::SAdd(Bytes::from_static(b"s"), vec![0, 1, u32::MAX]),
        Command::Search {
            terms: vec![9, 8],
            k: 5,
        },
        Command::Cancel(u64::MAX),
    ];
    for cmd in &cmds {
        let (mut a, mut b) = (BytesMut::new(), BytesMut::new());
        resp::encode_command(cmd, &mut a);
        reference::encode_command(cmd, &mut b);
        assert_eq!(&a[..], &b[..], "command encoders diverge on {cmd:?}");
    }
    let replies = vec![
        Reply::Ok,
        Reply::Int(i64::MIN),
        Reply::Int(i64::MAX),
        Reply::Members(vec![3, 0, 7]),
        Reply::Hits(vec![Hit::new(u64::MAX, -1.5)]),
        Reply::Str(Bytes::from_static(b"payload")),
        Reply::Nil,
        Reply::Error("bad".into()),
    ];
    for reply in &replies {
        let (mut a, mut b) = (BytesMut::new(), BytesMut::new());
        resp::encode_reply(reply, &mut a);
        reference::encode_reply(reply, &mut b);
        assert_eq!(&a[..], &b[..], "reply encoders diverge on {reply:?}");
    }
}

#[test]
fn encoders_byte_identical_on_random_values() {
    let mut rng = Rng(0xE9C0DE);
    for _ in 0..200 {
        let (mut a, mut b) = (BytesMut::new(), BytesMut::new());
        let cmd = random_command(&mut rng);
        resp::encode_command(&cmd, &mut a);
        reference::encode_command(&cmd, &mut b);
        assert_eq!(&a[..], &b[..], "command encoders diverged on {cmd:?}");

        let (mut a, mut b) = (BytesMut::new(), BytesMut::new());
        let reply = random_reply(&mut rng);
        resp::encode_reply(&reply, &mut a);
        reference::encode_reply(&reply, &mut b);
        assert_eq!(&a[..], &b[..], "reply encoders diverged on {reply:?}");
    }
}

#[test]
fn command_streams_round_trip_at_every_split_boundary() {
    let mut rng = Rng(0xC0FFEE);
    for _ in 0..25 {
        let cmds: Vec<Command> = (0..3).map(|_| random_command(&mut rng)).collect();
        let mut wire = BytesMut::new();
        for c in &cmds {
            resp::encode_command(c, &mut wire);
        }
        for i in 0..=wire.len() {
            let out =
                assert_split_equivalence(&wire, i, resp::decode_command, reference::decode_command);
            let decoded: Vec<_> = out.into_iter().map(|r| r.expect("valid frame")).collect();
            assert_eq!(decoded, cmds, "round trip at split {i}");
        }
    }
}

#[test]
fn reply_streams_round_trip_at_every_split_boundary() {
    let mut rng = Rng(0x5EED);
    for _ in 0..25 {
        let replies: Vec<Reply> = (0..3).map(|_| random_reply(&mut rng)).collect();
        let mut wire = BytesMut::new();
        for r in &replies {
            resp::encode_reply(r, &mut wire);
        }
        // Ok and Error both encode error-style/simple frames that
        // decode back to themselves; Pong decodes to Pong, etc. The
        // expected decode of each reply is itself, except Ok which is
        // its own wire form. (All variants here round-trip exactly.)
        for i in 0..=wire.len() {
            let out =
                assert_split_equivalence(&wire, i, resp::decode_reply, reference::decode_reply);
            let decoded: Vec<_> = out.into_iter().map(|r| r.expect("valid frame")).collect();
            assert_eq!(decoded, replies, "round trip at split {i}");
        }
    }
}

#[test]
fn error_and_unknown_frames_agree_at_every_split_boundary() {
    let mut rng = Rng(0xBAD5EED);
    for _ in 0..25 {
        let mut wire = BytesMut::new();
        for _ in 0..3 {
            if rng.below(2) == 0 {
                resp::encode_command(&random_command(&mut rng), &mut wire);
            } else {
                raw_array(&mut rng, &mut wire);
            }
        }
        for i in 0..=wire.len() {
            // Agreement only: the raw frames may decode to commands,
            // UnknownCommand, BadArguments, or "empty command array",
            // and both parsers must say the same thing either way.
            assert_split_equivalence(&wire, i, resp::decode_command, reference::decode_command);
        }
    }
}
