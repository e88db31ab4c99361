//! A single-threaded, Redis-style server loop.
//!
//! [`MiniServer`] multiplexes RESP connections exactly the way Redis's
//! event loop does — and the way the paper's §6.2 analysis needs: the
//! server sweeps its connections round-robin, executing **one command
//! per connection with pending input per sweep**. A single
//! long-running `SINTER` therefore delays every other connection's
//! next command by the full intersection time — the head-of-line
//! blocking that turns rare "queries of death" into a fat response
//! tail. (`simulator::Discipline::RoundRobin` is the queueing-model
//! abstraction of this loop; this module is the concrete runnable
//! artifact, exercised by `examples/kv_set_intersection.rs` and the
//! integration tests.)
//!
//! Connections are in-process byte pipes guarded by `parking_lot`
//! mutexes, so clients may live on other threads.

use crate::resp::{decode_command, encode_reply, RespError};
use crate::store::{Backend, KvStore, Reply};
use bytes::BytesMut;
use parking_lot::Mutex;
use std::sync::Arc;

/// One in-process client connection: an inbound and an outbound byte
/// stream. Clone the handle freely; both ends see the same pipes.
#[derive(Clone, Debug)]
pub struct Connection {
    inbound: Arc<Mutex<BytesMut>>,
    outbound: Arc<Mutex<BytesMut>>,
}

impl Connection {
    fn new() -> Self {
        Connection {
            inbound: Arc::new(Mutex::new(BytesMut::new())),
            outbound: Arc::new(Mutex::new(BytesMut::new())),
        }
    }

    /// Client side: send raw RESP bytes (e.g. from
    /// [`crate::resp::encode_command`]). Pipelining is just writing
    /// several frames before reading.
    pub fn send_bytes(&self, bytes: &[u8]) {
        self.inbound.lock().extend_from_slice(bytes);
    }

    /// Client side: send one command.
    pub fn send(&self, cmd: &crate::store::Command) {
        let mut buf = BytesMut::new();
        crate::resp::encode_command(cmd, &mut buf);
        self.send_bytes(&buf);
    }

    /// Client side: drain everything the server has written so far.
    pub fn receive_bytes(&self) -> BytesMut {
        std::mem::take(&mut *self.outbound.lock())
    }

    /// Drains the outbound pipe by *appending* into `dst`, keeping the
    /// pipe's allocation for the next replies — the pooled-buffer
    /// alternative to [`receive_bytes`](Self::receive_bytes), whose
    /// `take` forces the pipe to reallocate on every flush cycle.
    pub fn drain_outbound_into(&self, dst: &mut BytesMut) {
        let mut out = self.outbound.lock();
        dst.extend_from_slice(&out);
        out.clear();
    }

    /// Bytes currently waiting in the inbound pipe (server-bound).
    pub fn pending_in(&self) -> usize {
        self.inbound.lock().len()
    }

    /// Atomically drains the inbound pipe, returning whatever bytes the
    /// server had not yet consumed. This is the tied-request
    /// *retraction* hook: a transport that still holds an undecoded
    /// request frame here can cancel it before it ever executes (the
    /// sweep decodes under the same lock, so the frame either comes
    /// back whole or has already been executed — never half of each).
    pub fn take_inbound(&self) -> BytesMut {
        std::mem::take(&mut *self.inbound.lock())
    }

    /// Transport side: appends raw bytes to the outbound pipe, after
    /// any replies the server has already written. Lets a transport
    /// layer emit its own in-order replies (e.g. a cancellation marker
    /// for a retracted request) through the same stream the server
    /// uses.
    pub fn push_outbound(&self, bytes: &[u8]) {
        self.outbound.lock().extend_from_slice(bytes);
    }
}

/// Statistics from a server run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Commands executed, counted when their service starts.
    pub commands: u64,
    /// Round-robin sweeps performed.
    pub sweeps: u64,
    /// Total execution cost (elementary ops) served: the full cost of
    /// every command that ran to its end, and of a command stopped in
    /// service (`hedge::TcpServer`) only the units burned until then
    /// (charged in full when service starts, the rest handed back
    /// when it is stopped).
    pub total_cost: u64,
    /// Commands stopped in service by their client's `CANCEL`.
    pub aborted: u64,
    /// Protocol errors encountered (connection input was discarded).
    pub protocol_errors: u64,
}

/// The single-threaded server: a backend plus its connections.
///
/// Generic over the [`Backend`] it serves — [`KvStore`] by default, a
/// BM25 index shard for the scatter-gather fan-out workload, or any
/// other command interpreter with deterministic costs.
#[derive(Debug, Default)]
pub struct MiniServer<B: Backend = KvStore> {
    store: B,
    connections: Vec<Connection>,
    stats: ServerStats,
}

impl<B: Backend> MiniServer<B> {
    /// Creates a server around an existing backend.
    pub fn new(store: B) -> Self {
        MiniServer {
            store,
            connections: Vec::new(),
            stats: ServerStats::default(),
        }
    }

    /// Accepts a new connection and returns the client handle.
    pub fn accept(&mut self) -> Connection {
        let conn = Connection::new();
        self.connections.push(conn.clone());
        conn
    }

    /// Number of connections.
    pub fn num_connections(&self) -> usize {
        self.connections.len()
    }

    /// Removes (and returns) the connection at `idx`; later indices
    /// shift down, mirroring `Vec::remove`. Transports that drive
    /// [`sweep_conn`](Self::sweep_conn) by index must remove their own
    /// per-connection state at the same position to stay aligned.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn remove_connection(&mut self, idx: usize) -> Connection {
        self.connections.remove(idx)
    }

    /// Direct access to the backend (loading datasets, assertions).
    pub fn store_mut(&mut self) -> &mut B {
        &mut self.store
    }

    /// Run statistics so far.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// One round-robin sweep: for each connection in order, decode and
    /// execute **at most one** complete command, writing its reply.
    /// Returns the number of commands executed (0 means the server is
    /// idle).
    pub fn sweep(&mut self) -> usize {
        self.stats.sweeps += 1;
        (0..self.connections.len())
            .filter(|&i| self.sweep_conn(i).is_some())
            .count()
    }

    /// The single-connection step of [`sweep`](Self::sweep): decodes
    /// and executes at most one complete command for connection `idx`,
    /// writing its reply. Returns the executed command's cost, or
    /// `None` if the connection had no complete frame (protocol errors
    /// consume the input and produce an error reply, also `None`).
    ///
    /// Transports that convert cost to wall-clock service time (e.g.
    /// `hedge::TcpServer`) drive this directly so each command's burn
    /// can be applied — and its reply released — individually while
    /// still sweeping connections round-robin.
    pub fn sweep_conn(&mut self, idx: usize) -> Option<u64> {
        let conn = &self.connections[idx];
        let mut inbound = conn.inbound.lock();
        match decode_command(&mut inbound) {
            Ok(Some(cmd)) => {
                drop(inbound); // do not hold the pipe during execution
                let (reply, cost) = self.store.execute(&cmd);
                self.stats.commands += 1;
                self.stats.total_cost += cost;
                let mut out = conn.outbound.lock();
                encode_reply(&reply, &mut out);
                Some(cost)
            }
            Ok(None) => None, // incomplete frame; wait for more bytes
            Err(err) => {
                // Redis replies with an error and drops the rest of
                // the unparseable buffer.
                self.stats.protocol_errors += 1;
                inbound.clear();
                drop(inbound);
                let mut out = conn.outbound.lock();
                encode_reply(&Reply::Error(err.to_string()), &mut out);
                None
            }
        }
    }

    /// Sweeps until every connection's input is drained (or `max_sweeps`
    /// is hit); returns total commands executed.
    pub fn run_until_idle(&mut self, max_sweeps: usize) -> usize {
        let mut total = 0;
        for _ in 0..max_sweeps {
            let n = self.sweep();
            total += n;
            if n == 0 {
                break;
            }
        }
        total
    }
}

/// Convenience client-side reply parser: splits a raw outbound buffer
/// into human-readable reply descriptions (for tests and examples; a
/// real client would decode incrementally).
pub fn parse_replies(buf: &mut BytesMut) -> Result<Vec<String>, RespError> {
    let mut out = Vec::new();
    while !buf.is_empty() {
        let head = buf[0];
        match head {
            b'+' | b'-' | b':' => {
                let end = find_crlf(buf)
                    .ok_or_else(|| RespError::Protocol("truncated simple frame".into()))?;
                out.push(String::from_utf8_lossy(&buf[..end]).into_owned());
                let _ = buf.split_to(end + 2);
            }
            b'$' => {
                let end = find_crlf(buf)
                    .ok_or_else(|| RespError::Protocol("truncated bulk header".into()))?;
                let len: i64 = std::str::from_utf8(&buf[1..end])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| RespError::Protocol("bad bulk length".into()))?;
                if len < 0 {
                    out.push("(nil)".into());
                    let _ = buf.split_to(end + 2);
                } else {
                    let total = end + 2 + len as usize + 2;
                    if buf.len() < total {
                        return Err(RespError::Protocol("truncated bulk body".into()));
                    }
                    out.push(
                        String::from_utf8_lossy(&buf[end + 2..end + 2 + len as usize]).into_owned(),
                    );
                    let _ = buf.split_to(total);
                }
            }
            b'*' => {
                let end = find_crlf(buf)
                    .ok_or_else(|| RespError::Protocol("truncated array header".into()))?;
                let n: usize = std::str::from_utf8(&buf[1..end])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| RespError::Protocol("bad array length".into()))?;
                let _ = buf.split_to(end + 2);
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let mut inner = parse_replies_one(buf)?;
                    items.append(&mut inner);
                }
                out.push(format!("[{}]", items.join(", ")));
            }
            _ => return Err(RespError::Protocol("unknown frame type".into())),
        }
    }
    Ok(out)
}

fn parse_replies_one(buf: &mut BytesMut) -> Result<Vec<String>, RespError> {
    // Parse exactly one frame by temporarily splitting: reuse the main
    // parser on a prefix. Simplest correct approach for tests: parse
    // one bulk/simple frame.
    let head = *buf
        .first()
        .ok_or_else(|| RespError::Protocol("truncated nested frame".into()))?;
    match head {
        b'$' | b'+' | b'-' | b':' => {
            // Find frame extent.
            let end = find_crlf(buf)
                .ok_or_else(|| RespError::Protocol("truncated nested header".into()))?;
            let frame_len = if head == b'$' {
                let len: i64 = std::str::from_utf8(&buf[1..end])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| RespError::Protocol("bad bulk length".into()))?;
                if len < 0 {
                    end + 2
                } else {
                    end + 2 + len as usize + 2
                }
            } else {
                end + 2
            };
            if buf.len() < frame_len {
                return Err(RespError::Protocol("truncated nested frame".into()));
            }
            let mut frame = buf.split_to(frame_len);
            parse_replies(&mut frame)
        }
        _ => Err(RespError::Protocol("nested arrays unsupported".into())),
    }
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Command;
    use bytes::Bytes;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn single_connection_roundtrip() {
        let mut server = MiniServer::new(KvStore::new());
        let client = server.accept();
        client.send(&Command::Set(b("k"), b("v")));
        client.send(&Command::Get(b("k")));
        let executed = server.run_until_idle(10);
        assert_eq!(executed, 2);
        let mut replies = client.receive_bytes();
        let parsed = parse_replies(&mut replies).unwrap();
        assert_eq!(parsed, vec!["+OK", "v"]);
    }

    #[test]
    fn round_robin_serves_one_command_per_connection_per_sweep() {
        let mut server = MiniServer::new(KvStore::new());
        let c1 = server.accept();
        let c2 = server.accept();
        // c1 pipelines three PINGs; c2 sends one.
        for _ in 0..3 {
            c1.send(&Command::Ping);
        }
        c2.send(&Command::Ping);
        // Sweep 1 must serve one command from EACH connection.
        assert_eq!(server.sweep(), 2);
        let mut r2 = c2.receive_bytes();
        assert_eq!(parse_replies(&mut r2).unwrap(), vec!["+PONG"]);
        let mut r1 = c1.receive_bytes();
        assert_eq!(parse_replies(&mut r1).unwrap(), vec!["+PONG"]);
        // Remaining two commands of c1 drain over two more sweeps.
        assert_eq!(server.sweep(), 1);
        assert_eq!(server.sweep(), 1);
        assert_eq!(server.sweep(), 0);
        assert_eq!(server.stats().commands, 4);
    }

    #[test]
    fn cost_accounting_reflects_monster_queries() {
        let mut server = MiniServer::new(KvStore::new());
        server
            .store_mut()
            .load_set("big1", crate::IntSet::from_unsorted((0..50_000).collect()));
        server.store_mut().load_set(
            "big2",
            crate::IntSet::from_unsorted((25_000..75_000).collect()),
        );
        let client = server.accept();
        client.send(&Command::SInterCard(b("big1"), b("big2")));
        server.run_until_idle(5);
        assert!(
            server.stats().total_cost > 50_000,
            "cost {}",
            server.stats().total_cost
        );
        let mut r = client.receive_bytes();
        assert_eq!(parse_replies(&mut r).unwrap(), vec![":25000"]);
    }

    #[test]
    fn protocol_error_clears_connection_and_replies() {
        let mut server = MiniServer::new(KvStore::new());
        let client = server.accept();
        client.send_bytes(b"GARBAGE\r\n");
        server.sweep();
        assert_eq!(server.stats().protocol_errors, 1);
        assert_eq!(client.pending_in(), 0, "bad input discarded");
        let mut r = client.receive_bytes();
        let parsed = parse_replies(&mut r).unwrap();
        assert!(parsed[0].starts_with("-ERR"));
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut server = MiniServer::new(KvStore::new());
        let client = server.accept();
        let mut full = BytesMut::new();
        crate::resp::encode_command(&Command::Ping, &mut full);
        client.send_bytes(&full[..3]); // partial
        assert_eq!(server.sweep(), 0);
        client.send_bytes(&full[3..]);
        assert_eq!(server.sweep(), 1);
    }

    #[test]
    fn concurrent_clients_from_threads() {
        let mut server = MiniServer::new(KvStore::new());
        let clients: Vec<Connection> = (0..4).map(|_| server.accept()).collect();
        std::thread::scope(|scope| {
            for (i, c) in clients.iter().enumerate() {
                let c = c.clone();
                scope.spawn(move || {
                    c.send(&Command::Set(
                        Bytes::from(format!("key{i}")),
                        Bytes::from(format!("val{i}")),
                    ));
                    c.send(&Command::Get(Bytes::from(format!("key{i}"))));
                });
            }
        });
        let executed = server.run_until_idle(100);
        assert_eq!(executed, 8);
        for (i, c) in clients.iter().enumerate() {
            let mut r = c.receive_bytes();
            let parsed = parse_replies(&mut r).unwrap();
            assert_eq!(parsed, vec!["+OK".to_string(), format!("val{i}")]);
        }
    }

    #[test]
    fn members_reply_parses_as_array() {
        let mut server = MiniServer::new(KvStore::new());
        let client = server.accept();
        client.send(&Command::SAdd(b("s"), vec![3, 1, 2]));
        client.send(&Command::SAdd(b("t"), vec![2, 3, 9]));
        client.send(&Command::SInter(b("s"), b("t")));
        server.run_until_idle(10);
        let mut r = client.receive_bytes();
        let parsed = parse_replies(&mut r).unwrap();
        assert_eq!(parsed, vec![":3", ":3", "[2, 3]"]);
    }
}
