//! Differential tests: the zero-copy RESP codec against the reference
//! (owned-`Vec`, pre-refactor) implementation preserved in
//! `resp::reference`.
//!
//! Random command/reply sequences are encoded by both encoders (must
//! be byte-identical) and decoded by both parsers with the stream
//! split at **every byte boundary** (must yield identical value/error
//! sequences and identical residual buffers). No external proptest
//! crate exists in this tree, so generation runs on a hand-rolled
//! xorshift PRNG with fixed seeds — failures reproduce exactly.

use bytes::BytesMut;
use kvstore::resp::{self, reference, RespError};
use kvstore::{Command, Hit, Reply};

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
    match rng.below(15) {
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
        10 => Command::TiePeer {
            id: rng.next(),
            peer_addr: random_addr(rng),
            peer_id: rng.next(),
        },
        11 => Command::CancelTie(rng.next()),
        12 => Command::FGet(rng.key(), rng.next() as u32 % 16),
        13 => Command::FSet(
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
