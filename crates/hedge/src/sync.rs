//! The attempt cell: one allocation that carries everything a wire
//! attempt shares between the task awaiting it, the connection I/O
//! thread serving it, and whoever cancels it. [`CancelToken`] — the
//! race engine's handle for retracting a losing attempt with a client
//! `CANCEL <seq>`, and for naming a primary's tied reissue to its
//! server — and [`crate::transport::InFlight`] are both handles onto
//! that cell.
//!
//! # Lifecycle
//!
//! 1. [`CancelToken::new`] allocates the cell: not cancelled, no reply,
//!    no wire target. This is the attempt's only allocation.
//! 2. `Replica::request` claims it for one request; a token handed to
//!    a second request resolves that one as a protocol error. A token
//!    cancelled before its request reaches the wire never touches it.
//! 3. Whoever writes the frame — the caller itself on an idle
//!    connection, or the connection's I/O thread for a request that
//!    queued — records the *wire target* (the connection's writer and
//!    the request's sequence number) while still holding the **writer
//!    lock**. From here exactly one reply will come back, and
//!    `CANCEL <seq>` can chase the request, as can the
//!    `TIE <seq> <addr> <id>` that names its tied reissue.
//! 4. When the reply is read — or the socket is given up on — the I/O
//!    thread clears the wire target, again under the writer lock, and
//!    then stores the outcome, which wakes the awaiting task. The
//!    outcome is stored at most once.
//!
//! # Lock order
//!
//! **Connection state, then writer, then cell state** — never the
//! reverse. Both writers of a connection's frames hold its state lock
//! (the one-request-on-the-wire check, the shared sequence counter) and
//! take the writer and then the cell inside it (steps 3 and 4), as does
//! a redial, which swaps the socket and restarts the numbering.
//! [`CancelToken::cancel`] (and `CancelToken::tie`) never takes the
//! state lock: it flips the flag under the cell lock, *lets go of it*,
//! and only then takes the writer lock and looks at the cell again.
//! That second look is what makes a late cancel safe: the wire target
//! is only ever set or cleared under the writer lock, and a redial
//! swaps the socket under that same lock, so a canceller holding it
//! sees either the target of the socket it is about to write to, or
//! none — never a sequence number that belonged to a socket since
//! replaced.

use crate::transport::TransportError;
use bytes::BytesMut;
use kvstore::resp::encode_command;
use kvstore::{Command, Reply};

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

/// How a wire attempt ended.
type Outcome = Result<Reply, TransportError>;

/// A connection's write half, shared between the writers of its frames
/// and the cancellers of the request it has on the wire.
pub(crate) type Writer = Arc<Mutex<TcpStream>>;

enum ReplySlot {
    Empty,
    Ready(Outcome),
    Taken,
}

struct CellState {
    cancelled: bool,
    /// A request has claimed the cell (see [`CancelToken::claim`]).
    claimed: bool,
    reply: ReplySlot,
    /// The task awaiting the reply.
    reply_waker: Option<Waker>,
    /// Where `CANCEL` can reach the request right now: the writer of
    /// the connection it was written to and its sequence number there.
    /// Set and cleared only under that writer's lock.
    wire: Option<(Writer, u64)>,
    /// The tied reissue's `(server address, tie id)`, once the race
    /// engine names it: written as `TIE <seq> <addr> <id>` after the
    /// request's frame on every wire attempt.
    tie: Option<(SocketAddr, u64)>,
}

/// A clonable cancellation token — a handle onto one attempt cell (see
/// the module docs), good for one request.
///
/// A hedged query hands one token to each speculative arm; when a
/// winner emerges, cancelling the loser's token writes `CANCEL <seq>`
/// to the backend if the request is on the wire, and keeps it off the
/// wire if it is not there yet.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Mutex<CellState>>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken {
            inner: Arc::new(Mutex::new(CellState {
                cancelled: false,
                claimed: false,
                reply: ReplySlot::Empty,
                reply_waker: None,
                wire: None,
                tie: None,
            })),
        }
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    fn state(&self) -> MutexGuard<'_, CellState> {
        self.inner.lock().expect("attempt cell lock poisoned")
    }

    /// Cancels: retracts the request if it is on the wire, and keeps
    /// it off the wire if it is not there yet. Idempotent.
    pub fn cancel(&self) {
        let writer = {
            let mut st = self.state();
            if std::mem::replace(&mut st.cancelled, true) {
                return;
            }
            st.wire.as_ref().map(|(w, _)| w.clone())
        };
        if let Some(writer) = writer {
            self.write_on_wire(&writer, Command::Cancel);
        }
    }

    /// Whether [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.state().cancelled
    }

    /// Names the request's tied reissue, registered at server `twin.0`
    /// under tie id `twin.1`, to the request's own server:
    /// `TIE <seq> <addr> <id>` on its connection, at once if the request
    /// is on the wire, or after its frame when it gets there. Dropped
    /// if the request was already cancelled or answered.
    pub(crate) fn tie(&self, twin: (SocketAddr, u64)) {
        let writer = {
            let mut st = self.state();
            if st.cancelled || !matches!(st.reply, ReplySlot::Empty) {
                return;
            }
            st.tie = Some(twin);
            st.wire.as_ref().map(|(w, _)| w.clone())
        };
        if let Some(writer) = writer {
            self.write_on_wire(&writer, |seq| Command::Tie {
                id: seq,
                peer: Some(twin),
            });
        }
    }

    /// Writes `frame(seq)` on `writer` if the request is still its wire
    /// target. Writer lock first, then the cell again: the target may
    /// have been cleared (reply read, socket replaced) or moved to a
    /// fresh socket (retry) since the cell lock was let go.
    fn write_on_wire(&self, writer: &Writer, frame: impl FnOnce(u64) -> Command) {
        let mut stream = writer.lock().expect("writer lock poisoned");
        let seq = self.state().wire.as_ref().map(|&(_, seq)| seq);
        if let Some(seq) = seq {
            write_control(&mut stream, &frame(seq));
        }
    }

    /// Claims the cell for one request. `false` when a request already
    /// holds it: a cell has one reply slot.
    pub(crate) fn claim(&self) -> bool {
        !std::mem::replace(&mut self.state().claimed, true)
    }

    /// Records that the request now sits on `writer`'s socket as
    /// request `seq`. The caller has just written the frame and still
    /// holds the writer lock (`stream`). A cancel that came first is
    /// honoured here, on the spot, and a tie named first follows the
    /// frame.
    pub(crate) fn set_wire(
        &self,
        writer: &Writer,
        stream: &mut MutexGuard<'_, TcpStream>,
        seq: u64,
    ) {
        let mut st = self.state();
        let frame = if st.cancelled {
            Command::Cancel(seq)
        } else {
            st.wire = Some((writer.clone(), seq));
            match st.tie {
                Some(twin) => Command::Tie {
                    id: seq,
                    peer: Some(twin),
                },
                None => return,
            }
        };
        drop(st);
        write_control(stream, &frame);
    }

    /// Forgets the wire target: the reply was read, or the socket is
    /// being given up on. The caller holds the writer lock, which is
    /// what `_stream` witnesses.
    pub(crate) fn clear_wire(&self, _stream: &MutexGuard<'_, TcpStream>) {
        self.state().wire = None;
    }

    /// Stores the attempt's outcome and wakes the awaiting task. Only
    /// the first call counts: an attempt resolves exactly once.
    pub(crate) fn complete(&self, outcome: Outcome) {
        let waker = {
            let mut st = self.state();
            if !matches!(st.reply, ReplySlot::Empty) {
                return;
            }
            st.reply = ReplySlot::Ready(outcome);
            st.reply_waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Polls for the outcome (the body of `InFlight::poll`).
    pub(crate) fn poll_outcome(&self, cx: &mut Context<'_>) -> Poll<Outcome> {
        let mut st = self.state();
        match std::mem::replace(&mut st.reply, ReplySlot::Taken) {
            ReplySlot::Ready(outcome) => Poll::Ready(outcome),
            ReplySlot::Empty => {
                st.reply = ReplySlot::Empty;
                if !st
                    .reply_waker
                    .as_ref()
                    .is_some_and(|w| w.will_wake(cx.waker()))
                {
                    st.reply_waker = Some(cx.waker().clone());
                }
                Poll::Pending
            }
            ReplySlot::Taken => Poll::Ready(Err(TransportError::ConnectionClosed)),
        }
    }
}

/// Writes a control frame (`CANCEL`, `TIE`) to a connection whose
/// writer lock the caller holds. Best effort: a socket that refuses it
/// is already dying, and its reader will notice.
fn write_control(stream: &mut TcpStream, cmd: &Command) {
    let mut frame = BytesMut::with_capacity(64);
    encode_command(cmd, &mut frame);
    let _ = stream.write_all(&frame);
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_resolves_once_and_carries_one_request() {
        let token = CancelToken::new();
        assert!(token.claim());
        // A second request cannot claim it: the transport refuses that
        // request instead.
        assert!(!token.clone().claim());
        assert!(!token.is_cancelled());
        token.cancel();
        token.cancel(); // idempotent
        assert!(token.is_cancelled());
        token.complete(Ok(Reply::Pong));
        token.complete(Err(TransportError::ConnectionClosed)); // ignored
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        assert_eq!(token.poll_outcome(&mut cx), Poll::Ready(Ok(Reply::Pong)));
        // Polled again after completion: closed, not a second reply.
        assert_eq!(
            token.poll_outcome(&mut cx),
            Poll::Ready(Err(TransportError::ConnectionClosed))
        );
    }

    #[test]
    fn the_pending_tie_leaves_the_cell_smaller_than_its_waker_lists_did() {
        // 128 bytes on 64-bit targets while the cell also kept a list of
        // wakers and one of callbacks for outside callers.
        assert!(std::mem::size_of::<CellState>() <= 128);
    }
}
