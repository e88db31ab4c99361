//! The attempt cell: one allocation that carries everything a wire
//! attempt shares between the task awaiting it, the connection I/O
//! thread serving it, and whoever cancels it. [`CancelToken`] — the
//! cancellation primitive propagated from a hedged query to the
//! transport and on to the backend (tied requests) — and
//! [`crate::transport::InFlight`] are both handles onto that cell.
//!
//! # Lifecycle
//!
//! 1. [`CancelToken::new`] allocates the cell: not cancelled, no reply,
//!    no wire target. This is the attempt's only allocation.
//! 2. `Replica::request` attaches one request to it. A token cancelled
//!    before its request reaches the wire never touches it.
//! 3. Whoever writes the frame — the caller itself on an idle
//!    connection, or the connection's I/O thread for a request that
//!    queued — records the *wire target* (the connection's writer and
//!    the request's sequence number) while still holding the **writer
//!    lock**. From here exactly one reply will come back, and
//!    `CANCEL <seq>` can chase the request.
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
//! [`CancelToken::cancel`] never takes the state lock: it flips the
//! flag under the cell lock, *lets go of it*, and only then takes the
//! writer lock and looks at the cell again. That second look is what
//! makes a late cancel safe: the wire target is only ever set or
//! cleared under the writer lock, and a redial swaps the socket under
//! that same lock, so a canceller holding it sees either the target of
//! the socket it is about to write to, or none — never a sequence
//! number that belonged to a socket since replaced.

use crate::transport::TransportError;
use bytes::BytesMut;
use kvstore::resp::encode_command;
use kvstore::{Command, Reply};

use std::future::Future;
use std::io::Write;
use std::net::TcpStream;
use std::pin::Pin;
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
    /// A request has been attached (see [`CancelToken::attach`]).
    claimed: bool,
    reply: ReplySlot,
    /// The task awaiting the reply.
    reply_waker: Option<Waker>,
    /// Where `CANCEL` can reach the request right now: the writer of
    /// the connection it was written to and its sequence number there.
    /// Set and cleared only under that writer's lock.
    wire: Option<(Writer, u64)>,
    // For callers outside the transport; empty `Vec`s do not allocate.
    wakers: Vec<Waker>,
    callbacks: Vec<Box<dyn FnOnce() + Send>>,
}

/// A clonable cancellation token — a handle onto one attempt cell (see
/// the module docs).
///
/// A hedged query hands one token to each speculative arm; when a
/// winner emerges, cancelling the loser's token (a) wakes any task
/// awaiting [`CancelToken::cancelled`], (b) writes `CANCEL <seq>` to
/// the backend if the request is on the wire (tied requests, Dean &
/// Barroso §"Tied requests"), and (c) runs callbacks registered with
/// [`CancelToken::on_cancel`].
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
                wakers: Vec::new(),
                callbacks: Vec::new(),
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

    /// Cancels: wakes waiters, retracts the request if it is on the
    /// wire, and runs registered callbacks (once).
    pub fn cancel(&self) {
        let (wakers, callbacks, writer) = {
            let mut st = self.state();
            if st.cancelled {
                return;
            }
            st.cancelled = true;
            (
                std::mem::take(&mut st.wakers),
                std::mem::take(&mut st.callbacks),
                st.wire.as_ref().map(|(w, _)| w.clone()),
            )
        };
        for w in wakers {
            w.wake();
        }
        if let Some(writer) = writer {
            // Writer lock first, then the cell again: the target may
            // have been cleared (reply read, socket replaced) or moved
            // to a fresh socket (retry) since the flag flipped.
            let mut stream = writer.lock().expect("writer lock poisoned");
            let seq = self.state().wire.as_ref().map(|&(_, seq)| seq);
            if let Some(seq) = seq {
                write_cancel(&mut stream, seq);
            }
        }
        for cb in callbacks {
            cb();
        }
    }

    /// Whether [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.state().cancelled
    }

    /// Registers `callback` to run on cancellation; runs it immediately
    /// if the token is already cancelled. The transport does not use
    /// this (a wired request is retracted through the cell itself); it
    /// is for outside callers and allocates only when called.
    pub fn on_cancel(&self, callback: impl FnOnce() + Send + 'static) {
        {
            let mut st = self.state();
            if !st.cancelled {
                st.callbacks.push(Box::new(callback));
                return;
            }
        }
        callback();
    }

    /// A future that resolves when the token is cancelled.
    pub fn cancelled(&self) -> Cancelled {
        Cancelled {
            token: self.clone(),
        }
    }

    /// Attaches a request to this cell and returns the handle to use
    /// for it: this one — or, when a request is already attached (an
    /// outside caller cancelling several requests through one token; a
    /// cell has one reply slot), a fresh cell that this one cancels.
    pub(crate) fn attach(self) -> CancelToken {
        if !std::mem::replace(&mut self.state().claimed, true) {
            return self;
        }
        let own = CancelToken::new();
        own.state().claimed = true;
        let chained = own.clone();
        self.on_cancel(move || chained.cancel());
        own
    }

    /// Records that the request now sits on `writer`'s socket as
    /// request `seq`. The caller has just written the frame and still
    /// holds the writer lock (`stream`). A cancel that came first is
    /// honoured here, on the spot.
    pub(crate) fn set_wire(
        &self,
        writer: &Writer,
        stream: &mut MutexGuard<'_, TcpStream>,
        seq: u64,
    ) {
        let mut st = self.state();
        if st.cancelled {
            drop(st);
            write_cancel(stream, seq);
        } else {
            st.wire = Some((writer.clone(), seq));
        }
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

/// Writes `CANCEL <seq>` to a connection whose writer lock the caller
/// holds. Best effort: a socket that refuses it is already dying, and
/// its reader will notice.
fn write_cancel(stream: &mut TcpStream, seq: u64) {
    let mut frame = BytesMut::with_capacity(48);
    encode_command(&Command::Cancel(seq), &mut frame);
    let _ = stream.write_all(&frame);
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// Future returned by [`CancelToken::cancelled`]. `Unpin`.
pub struct Cancelled {
    token: CancelToken,
}

impl Future for Cancelled {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut st = self.token.state();
        if st.cancelled {
            Poll::Ready(())
        } else {
            st.wakers.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_flags_and_callbacks() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let fired = Arc::new(Mutex::new(0));
        let f2 = fired.clone();
        token.on_cancel(move || *f2.lock().unwrap() += 1);
        token.cancel();
        token.cancel(); // idempotent
        assert!(token.is_cancelled());
        assert_eq!(*fired.lock().unwrap(), 1);
        // Late registration runs immediately.
        let f3 = fired.clone();
        token.on_cancel(move || *f3.lock().unwrap() += 10);
        assert_eq!(*fired.lock().unwrap(), 11);
    }

    #[test]
    fn cell_resolves_once_and_carries_one_request() {
        let token = CancelToken::new().attach();
        // A second request through the same token gets its own cell,
        // cancelled along with the first.
        let second = token.clone().attach();
        assert!(!Arc::ptr_eq(&token.inner, &second.inner));
        token.cancel();
        assert!(second.is_cancelled());
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
}
