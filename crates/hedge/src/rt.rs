//! A minimal multi-threaded async runtime: worker threads sharing one
//! run queue and one timer list.
//!
//! The serving environment for this repository cannot fetch external
//! crates, so instead of tokio the hedge runtime runs on this small,
//! `std`-only executor. Wakers are `Arc<Task>` handles via
//! [`std::task::Wake`] — no unsafe anywhere. A spawn costs two
//! allocations: the boxed future and the task, which also carries the
//! join slot its [`JoinHandle`] reads.
//!
//! # Scheduling model
//!
//! One mutex guards the run queue and the timers; one condvar parks the
//! idle workers. A spawn or a wake (oneshot send, cancel, timer fire)
//! appends the task to the queue and signals one worker, and any worker
//! may poll it: no task waits for a particular worker while another is
//! idle, and a worker held by a long poll holds back nothing else.
//! [`Runtime::sleep`] arms an entry in the timer list, kept sorted by
//! deadline: arming an in-order deadline (a query arms one reissue
//! timer, `d` after its dispatch) is an append, and allocates nothing
//! once the list has reached its working size. There is no timer
//! thread: under the lock, a worker moves the due timers out and pops
//! the next task, then wakes the due timers and polls the task with the
//! lock released. With nothing to do it waits on the condvar until the
//! earliest deadline.
//!
//! The surface is intentionally tiny — [`Runtime::spawn`],
//! [`Runtime::block_on`], [`Runtime::sleep`], and the [`race`]
//! combinator — because that is exactly what speculative execution
//! needs: run concurrent attempts, arm a timer, take the first result.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

type BoxFuture<T> = Pin<Box<dyn Future<Output = T> + Send + 'static>>;

// Task scheduling states. The state machine exists to close the
// classic lost-wakeup race: a wake that lands *while a worker is
// polling* must not enqueue the task (another worker would find the
// future slot empty and drop the notification) — it marks NOTIFIED,
// and the polling worker re-enqueues after restoring the future.
const TASK_IDLE: u8 = 0;
const TASK_SCHEDULED: u8 = 1;
const TASK_RUNNING: u8 = 2;
const TASK_NOTIFIED: u8 = 3;

/// Scheduling state every task has, whatever its output type.
struct Header {
    state: AtomicU8,
    rt: Weak<RtInner>,
}

/// What the run queue holds: a [`Task`] with its output type erased.
trait Runnable: Send + Sync {
    fn header(&self) -> &Header;
    /// Polls the task once on the calling worker and settles its
    /// scheduling state.
    fn run(self: Arc<Self>, rt: &RtInner);
}

/// One spawned task: the boxed future, the scheduling state, and the
/// slot the future's output is joined through — one allocation shared
/// by the run queue, the wakers and the [`JoinHandle`].
struct Task<T> {
    header: Header,
    /// `None` while a worker polls it and once it has finished.
    future: Mutex<Option<Counted<T>>>,
    join: Mutex<JoinSlot<T>>,
}

/// A task's future, counted in `live_tasks` for as long as it exists
/// (finished, panicked or dropped unpolled all end in `drop`).
struct Counted<T> {
    future: BoxFuture<T>,
    rt: Weak<RtInner>,
}

impl<T> Drop for Counted<T> {
    fn drop(&mut self) {
        if let Some(rt) = self.rt.upgrade() {
            rt.live_tasks.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

enum JoinSlot<T> {
    /// Still running; holds the joiner's waker once it has polled.
    Pending(Option<Waker>),
    Done(T),
    Panicked,
    Taken,
}

impl<T: Send + 'static> Wake for Task<T> {
    fn wake(self: Arc<Self>) {
        if let Some(rt) = self.header.rt.upgrade() {
            rt.schedule(self);
        }
    }
}

impl<T: Send + 'static> Runnable for Task<T> {
    fn header(&self) -> &Header {
        &self.header
    }

    fn run(self: Arc<Self>, rt: &RtInner) {
        self.header.state.store(TASK_RUNNING, Ordering::SeqCst);
        let Some(mut counted) = self.future.lock().unwrap().take() else {
            // Late wake on a completed task.
            self.header.state.store(TASK_IDLE, Ordering::SeqCst);
            return;
        };
        let waker = Waker::from(self.clone());
        let mut cx = Context::from_waker(&waker);
        // A panicking task must not take down the worker; the panic
        // surfaces at its JoinHandle instead.
        let poll = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            counted.future.as_mut().poll(&mut cx)
        }));
        let finished = match poll {
            Ok(Poll::Pending) => {
                // Restore the future BEFORE leaving RUNNING, so a
                // concurrent wake that re-enqueues finds it present.
                *self.future.lock().unwrap() = Some(counted);
                if self
                    .header
                    .state
                    .compare_exchange(TASK_RUNNING, TASK_IDLE, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
                {
                    // A wake landed mid-poll (state is NOTIFIED): the
                    // notification would otherwise be lost, so this
                    // worker re-enqueues the task itself.
                    self.header.state.store(TASK_SCHEDULED, Ordering::SeqCst);
                    rt.push(self);
                }
                return;
            }
            Ok(Poll::Ready(v)) => JoinSlot::Done(v),
            Err(_) => JoinSlot::Panicked,
        };
        // Done: the future goes first (it leaves `live_tasks`), then
        // the joiner learns. Late wakes hit the empty-slot path above.
        drop(counted);
        self.header.state.store(TASK_IDLE, Ordering::SeqCst);
        let joiner = match std::mem::replace(&mut *self.join.lock().unwrap(), finished) {
            JoinSlot::Pending(w) => w,
            _ => None,
        };
        if let Some(w) = joiner {
            w.wake();
        }
    }
}

/// The runtime's timers, ascending by deadline (ties in arming
/// order). The storage is reused, so arming allocates nothing once
/// warm.
#[derive(Default)]
struct Timers(VecDeque<(Instant, Waker)>);

impl Timers {
    /// Arms `waker` to fire at `deadline`. Returns whether it is the
    /// new earliest deadline (the caller must then signal a waiting
    /// worker so its `wait_timeout` shortens).
    fn arm(&mut self, deadline: Instant, waker: Waker) -> bool {
        let at = self.0.partition_point(|(d, _)| *d <= deadline);
        self.0.insert(at, (deadline, waker));
        at == 0
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.0.front().map(|(d, _)| *d)
    }

    /// Moves every entry with `deadline <= now` into `due`, in
    /// deadline order: the due prefix.
    fn expire(&mut self, now: Instant, due: &mut Vec<(Instant, Waker)>) {
        let n = self.0.partition_point(|(d, _)| *d <= now);
        due.extend(self.0.drain(..n));
    }
}

/// What the one lock guards: the run queue and the timers.
#[derive(Default)]
struct Sched {
    queue: VecDeque<Arc<dyn Runnable>>,
    timers: Timers,
}

struct RtInner {
    sched: Mutex<Sched>,
    /// Idle workers wait here; every push and every new earliest
    /// deadline signals it.
    cv: Condvar,
    shutdown: AtomicBool,
    live_tasks: AtomicU64,
}

impl RtInner {
    fn schedule(&self, task: Arc<dyn Runnable>) {
        let state = &task.header().state;
        loop {
            match state.load(Ordering::SeqCst) {
                TASK_IDLE => {
                    if state
                        .compare_exchange(
                            TASK_IDLE,
                            TASK_SCHEDULED,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        self.push(task);
                        return;
                    }
                }
                TASK_RUNNING => {
                    // Mid-poll: mark so the polling worker re-enqueues
                    // after it restores the future (see `Task::run`).
                    if state
                        .compare_exchange(
                            TASK_RUNNING,
                            TASK_NOTIFIED,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued or already marked for re-poll.
                _ => return,
            }
        }
    }

    /// Appends to the run queue and signals one idle worker. The push
    /// is made under the lock a waiting worker holds from its checks
    /// into `cv.wait`, so the signal cannot fall between the two.
    fn push(&self, task: Arc<dyn Runnable>) {
        self.sched.lock().unwrap().queue.push_back(task);
        self.cv.notify_one();
    }
}

/// The executor handle. Cheap to clone; dropping the last handle shuts
/// the worker threads down.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
    // Owns worker threads: shutdown + join when the last clone drops.
    _threads: Arc<ThreadSet>,
}

struct ThreadSet {
    inner: Arc<RtInner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for ThreadSet {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.inner.sched.lock().unwrap();
            self.inner.cv.notify_all();
        }
        // The last handle can drop on a worker thread (a cancelled
        // loser's drain finishing after every client handle is gone).
        // A thread cannot join itself (EDEADLK): that worker's handle
        // is dropped instead, which detaches it; it leaves its loop on
        // the `shutdown` flag as soon as the current poll returns.
        let me = std::thread::current().id();
        for h in self.handles.lock().unwrap().drain(..) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

impl Runtime {
    /// Starts a runtime with `workers` poller threads (min 1), sharing
    /// one run queue and one timer list; there is no separate timer
    /// thread.
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(RtInner {
            sched: Mutex::default(),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            live_tasks: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let rt = inner.clone();
                std::thread::Builder::new()
                    .name(format!("hedge-worker-{i}"))
                    .spawn(move || worker_loop(&rt))
                    .expect("spawn worker thread")
            })
            .collect();
        Runtime {
            _threads: Arc::new(ThreadSet {
                inner: inner.clone(),
                handles: Mutex::new(handles),
            }),
            inner,
        }
    }

    /// Spawns a future onto the pool, returning a handle resolving to
    /// its output. Whichever worker is free polls it; see the module
    /// docs for the scheduling model.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        self.inner.live_tasks.fetch_add(1, Ordering::Relaxed);
        let rt = Arc::downgrade(&self.inner);
        let task = Arc::new(Task {
            header: Header {
                state: AtomicU8::new(TASK_SCHEDULED),
                rt: rt.clone(),
            },
            future: Mutex::new(Some(Counted {
                future: Box::pin(future),
                rt,
            })),
            join: Mutex::new(JoinSlot::Pending(None)),
        });
        self.inner.push(task.clone());
        JoinHandle { task }
    }

    /// A future that resolves `duration` from now.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        self.sleep_until(Instant::now() + duration)
    }

    /// A future that resolves at `deadline` (immediately if it has
    /// passed). Deadline-based timers keep a reissue anchored to the
    /// *primary dispatch*, however late the race gets round to arming
    /// it.
    pub fn sleep_until(&self, deadline: Instant) -> Sleep {
        Sleep {
            deadline,
            rt: self.inner.clone(),
            armed: None,
        }
    }

    /// Drives `future` to completion on the calling thread (worker
    /// threads keep running other tasks meanwhile).
    pub fn block_on<F: Future>(&self, future: F) -> F::Output {
        struct ThreadWaker(std::thread::Thread);
        impl Wake for ThreadWaker {
            fn wake(self: Arc<Self>) {
                self.0.unpark();
            }
        }
        let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
        let mut cx = Context::from_waker(&waker);
        // Safe pinning: shadow the future on the stack.
        let mut future = std::pin::pin!(future);
        loop {
            match future.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => std::thread::park(),
            }
        }
    }

    /// Number of spawned tasks that have not yet completed.
    pub fn live_tasks(&self) -> u64 {
        self.inner.live_tasks.load(Ordering::Relaxed)
    }
}

fn worker_loop(rt: &RtInner) {
    let mut due: Vec<(Instant, Waker)> = Vec::new();
    loop {
        // Under the lock: move the due timers out and pop the next
        // task, else wait until a push or the earliest deadline. The
        // lock is held from these checks into `cv.wait`, and every
        // producer (push, timer arm, shutdown) takes this lock before
        // it signals, so a signal cannot slip between check and wait.
        let task = {
            let mut sched = rt.sched.lock().unwrap();
            loop {
                if rt.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let now = Instant::now();
                sched.timers.expire(now, &mut due);
                let task = sched.queue.pop_front();
                if task.is_some() || !due.is_empty() {
                    break task;
                }
                // Every deadline left is after `now`.
                sched = match sched.timers.next_deadline() {
                    Some(deadline) => rt.cv.wait_timeout(sched, deadline - now).unwrap().0,
                    None => rt.cv.wait(sched).unwrap(),
                };
            }
        };
        // Lock released: the woken tasks go back on the queue, where
        // any idle worker may take them while this one polls its own.
        for (_, waker) in due.drain(..) {
            waker.wake();
        }
        if let Some(task) = task {
            task.run(rt);
        }
    }
}

/// Future returned by [`Runtime::sleep`]. `Unpin`; safe to poll in
/// racing combinators.
pub struct Sleep {
    deadline: Instant,
    rt: Arc<RtInner>,
    /// The waker registered in the timer list, if any: re-polls by the
    /// same task skip re-arming (the armed entry still fires for it).
    armed: Option<Waker>,
}

impl Future for Sleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if Instant::now() >= this.deadline {
            return Poll::Ready(());
        }
        if this.armed.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
            return Poll::Pending;
        }
        let mut sched = this.rt.sched.lock().unwrap();
        if sched.timers.arm(this.deadline, cx.waker().clone()) {
            // A new earliest deadline: wake one waiting worker so it
            // shortens its `wait_timeout`. Signalled under the lock, so
            // a worker either reads the new deadline before it waits or
            // is already waiting and receives this.
            this.rt.cv.notify_one();
        }
        drop(sched);
        this.armed = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Handle to a spawned task; awaiting it yields the task's output.
///
/// # Panics
/// Awaiting panics if the task itself panicked.
pub struct JoinHandle<T> {
    task: Arc<Task<T>>,
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slot = self.task.join.lock().unwrap();
        match std::mem::replace(&mut *slot, JoinSlot::Taken) {
            JoinSlot::Done(v) => Poll::Ready(v),
            JoinSlot::Pending(_) => {
                *slot = JoinSlot::Pending(Some(cx.waker().clone()));
                Poll::Pending
            }
            JoinSlot::Panicked | JoinSlot::Taken => panic!("joined task panicked"),
        }
    }
}

/// First-completed-wins result of [`race`]; the loser future is handed
/// back so the caller can keep driving (or drop) it.
pub enum Either<A, B> {
    /// The first future finished first.
    Left(A),
    /// The second future finished first.
    Right(B),
}

/// Future racing two `Unpin` futures; see [`race`].
pub struct Race<FA, FB> {
    a: Option<FA>,
    b: Option<FB>,
}

/// Races two futures; resolves with the winner's output and the
/// still-pending loser. Polls the first future first on ties, so a
/// completed response beats a simultaneously-expired timer.
pub fn race<FA, FB>(a: FA, b: FB) -> Race<FA, FB>
where
    FA: Future + Unpin,
    FB: Future + Unpin,
{
    Race {
        a: Some(a),
        b: Some(b),
    }
}

impl<FA, FB> Future for Race<FA, FB>
where
    FA: Future + Unpin,
    FB: Future + Unpin,
{
    type Output = Either<(FA::Output, FB), (FA, FB::Output)>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let mut a = this.a.take().expect("Race polled after completion");
        let mut b = this.b.take().expect("Race polled after completion");
        if let Poll::Ready(va) = Pin::new(&mut a).poll(cx) {
            return Poll::Ready(Either::Left((va, b)));
        }
        if let Poll::Ready(vb) = Pin::new(&mut b).poll(cx) {
            return Poll::Ready(Either::Right((a, vb)));
        }
        this.a = Some(a);
        this.b = Some(b);
        Poll::Pending
    }
}

/// Future returned by [`select_all`]: first-completed-wins over a
/// borrowed set of `Unpin` futures, polled where they sit.
pub struct SelectAll<'a, F> {
    slots: &'a mut [Option<F>],
}

/// Races the futures in the occupied slots; resolves with the winner's
/// slot index and output, leaving that slot `None`. Every other future
/// stays in place, still pending, so the caller keeps its own (fixed,
/// index-stable) storage across rounds: nothing is moved, collected or
/// returned. Dropping the selector — e.g. when it loses a [`race`]
/// against a timer — just ends the borrow. Polls in slot order, so on
/// simultaneous readiness the earliest-dispatched attempt wins — for
/// hedging that means the primary beats a same-instant reissue.
///
/// # Panics
/// Polling panics if every slot is empty (there is nothing to win).
pub fn select_all<F: Future + Unpin>(slots: &mut [Option<F>]) -> SelectAll<'_, F> {
    SelectAll { slots }
}

impl<F: Future + Unpin> Future for SelectAll<'_, F> {
    type Output = (usize, F::Output);

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut any = false;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(fut) = slot else { continue };
            any = true;
            if let Poll::Ready(v) = Pin::new(fut).poll(cx) {
                *slot = None;
                return Poll::Ready((i, v));
            }
        }
        assert!(any, "select_all over no futures");
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn block_on_plain_value() {
        let rt = Runtime::new(2);
        assert_eq!(rt.block_on(async { 40 + 2 }), 42);
    }

    #[test]
    fn spawn_and_join() {
        let rt = Runtime::new(2);
        let h = rt.spawn(async { 7u64 * 6 });
        assert_eq!(rt.block_on(h), 42);
    }

    #[test]
    fn many_tasks_all_complete() {
        let rt = Runtime::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..200)
            .map(|_| {
                let c = counter.clone();
                rt.spawn(async move {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            rt.block_on(h);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        assert_eq!(rt.live_tasks(), 0);
    }

    #[test]
    fn sleep_waits_roughly_right() {
        let rt = Runtime::new(1);
        let t0 = Instant::now();
        rt.block_on(rt.sleep(Duration::from_millis(30)));
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(28), "slept {dt:?}");
        assert!(dt < Duration::from_secs(2), "slept {dt:?}");
    }

    #[test]
    fn race_timer_vs_task() {
        let rt = Runtime::new(2);
        // Fast task beats slow timer.
        let fast = rt.spawn(async { "fast" });
        let won = rt.block_on(race(fast, rt.sleep(Duration::from_secs(5))));
        match won {
            Either::Left((v, _timer)) => assert_eq!(v, "fast"),
            Either::Right(_) => panic!("timer should lose"),
        }
        // Timer beats slow task.
        let rt2 = rt.clone();
        let slow = rt.spawn(async move {
            rt2.sleep(Duration::from_secs(5)).await;
            "slow"
        });
        match rt.block_on(race(slow, rt.sleep(Duration::from_millis(10)))) {
            Either::Left(_) => panic!("slow task should lose"),
            Either::Right((_loser, ())) => {}
        }
    }

    #[test]
    fn select_all_returns_winner_and_leaves_the_rest_in_place() {
        let rt = Runtime::new(2);
        let rt2 = rt.clone();
        let slow = |ms: u64, v: &'static str| {
            let rt = rt2.clone();
            Some(rt2.spawn(async move {
                rt.sleep(Duration::from_millis(ms)).await;
                v
            }))
        };
        let mut slots = [slow(200, "a"), slow(5, "b"), slow(200, "c")];
        let (idx, won) = rt.block_on(select_all(&mut slots));
        assert_eq!((idx, won), (1, "b"));
        assert!(slots[1].is_none(), "the winner's slot is emptied");
        // The losers never moved and still complete, at their indices.
        let (idx, v) = rt.block_on(select_all(&mut slots));
        assert!((idx, v) == (0, "a") || (idx, v) == (2, "c"));
        let (idx2, v2) = rt.block_on(select_all(&mut slots));
        assert!(idx2 != idx && (v2 == "a" || v2 == "c"));
        assert!(slots.iter().all(Option::is_none));
    }

    #[test]
    fn select_all_loses_race_to_timer_and_futures_stay_put() {
        let rt = Runtime::new(2);
        let rt2 = rt.clone();
        let mut slots = [Some(rt.spawn(async move {
            rt2.sleep(Duration::from_millis(300)).await;
            41
        }))];
        match rt.block_on(race(
            select_all(&mut slots),
            rt.sleep(Duration::from_millis(10)),
        )) {
            Either::Left(_) => panic!("timer should win"),
            Either::Right((_sel, ())) => {}
        }
        // Dropping the selector ended the borrow; the future is where
        // it was and can be raced again.
        assert_eq!(rt.block_on(select_all(&mut slots)), (0, 41));
        assert!(slots[0].is_none());
    }

    #[test]
    fn sleep_until_past_deadline_is_immediate() {
        let rt = Runtime::new(1);
        let t0 = Instant::now();
        rt.block_on(rt.sleep_until(t0 - Duration::from_millis(5)));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn nested_spawns_from_tasks() {
        let rt = Runtime::new(2);
        let rt2 = rt.clone();
        let h = rt.spawn(async move {
            let inner = rt2.spawn(async { 10 });
            inner.await + 1
        });
        assert_eq!(rt.block_on(h), 11);
    }

    #[test]
    fn a_wedged_worker_holds_no_other_task_back() {
        // A worker held by a long poll (a 1 MiB stripe decode, a
        // blocking frame write) must not hold back the tasks the other
        // worker is free to run, timer wakes included.
        let rt = Runtime::new(2);
        let wedge = rt.spawn(async { std::thread::sleep(Duration::from_secs(2)) });
        let started = Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rt2 = rt.clone();
                rt.spawn(async move {
                    rt2.sleep(Duration::from_millis(5)).await;
                    started.elapsed()
                })
            })
            .collect();
        for h in handles {
            let took = rt.block_on(h);
            assert!(took < Duration::from_secs(1), "held back {took:?}");
        }
        rt.block_on(wedge);
    }

    #[test]
    #[should_panic(expected = "joined task panicked")]
    fn panicking_task_propagates_at_join() {
        let rt = Runtime::new(1);
        let h = rt.spawn(async { panic!("boom") });
        rt.block_on(h);
    }

    struct NoopWake;
    impl Wake for NoopWake {
        fn wake(self: Arc<Self>) {}
    }

    #[test]
    fn repolled_sleep_arms_once() {
        // A race re-polls its reissue timer on every wake of the
        // attempts it races (select_all-style): the same task's waker
        // must not arm a second entry.
        let rt = Runtime::new(1);
        let armed = || -> usize { rt.inner.sched.lock().unwrap().timers.0.len() };
        let waker = Waker::from(Arc::new(NoopWake));
        let mut cx = Context::from_waker(&waker);
        let mut sleep = rt.sleep(Duration::from_secs(3600));
        let before = armed();
        for _ in 0..3 {
            assert!(Pin::new(&mut sleep).poll(&mut cx).is_pending());
            assert_eq!(armed() - before, 1, "a re-polled sleep must arm once");
        }
    }

    #[test]
    fn wheel_fires_in_deadline_order_under_concurrent_arming() {
        // Satellite property: with timers armed concurrently from
        // multiple threads — some "cancelled" (their Sleep dropped;
        // the entry goes stale but must not disturb order) —
        // every expire batch comes out sorted by deadline, nothing
        // fires early, and nothing is lost.
        let timers = Arc::new(Mutex::new(Timers::default()));
        let base = Instant::now();
        let armed_count = Arc::new(AtomicUsize::new(0));
        // Hand-rolled xorshift: no external proptest in this tree.
        let mut threads = Vec::new();
        for t in 0..4u64 {
            let timers = timers.clone();
            let armed_count = armed_count.clone();
            threads.push(std::thread::spawn(move || {
                let mut rng = 0x9E37_79B9u64.wrapping_mul(t + 1) | 1;
                for _ in 0..200 {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    // Deadlines spread over 250 ms, some already in
                    // the past.
                    let offset_us = (rng % 250_000) as i64 - 5_000;
                    let deadline = if offset_us < 0 {
                        base - Duration::from_micros((-offset_us) as u64)
                    } else {
                        base + Duration::from_micros(offset_us as u64)
                    };
                    let waker = Waker::from(Arc::new(NoopWake));
                    timers.lock().unwrap().arm(deadline, waker);
                    armed_count.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        // Expire concurrently with the arming threads.
        let mut fired: Vec<Instant> = Vec::new();
        let mut due: Vec<(Instant, Waker)> = Vec::new();
        let deadline_all = base + Duration::from_millis(260);
        loop {
            let now = Instant::now();
            timers.lock().unwrap().expire(now, &mut due);
            for (d, _) in &due {
                assert!(*d <= now, "timer fired {:?} early", *d - now);
            }
            // Each batch must be deadline-sorted (the schedule-order
            // guarantee workers rely on when waking).
            assert!(
                due.windows(2).all(|w| w[0].0 <= w[1].0),
                "expire batch not in deadline order"
            );
            fired.extend(due.drain(..).map(|(d, _)| d));
            if now > deadline_all && threads.iter().all(|t| t.is_finished()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(3));
        }
        for t in threads {
            t.join().unwrap();
        }
        // Drain stragglers armed after the last sweep.
        std::thread::sleep(Duration::from_millis(5));
        timers.lock().unwrap().expire(Instant::now(), &mut due);
        fired.extend(due.drain(..).map(|(d, _)| d));
        assert_eq!(
            fired.len(),
            armed_count.load(Ordering::SeqCst),
            "every armed timer must eventually fire"
        );
        assert!(timers.lock().unwrap().0.is_empty());
    }

    #[test]
    fn sleeps_fire_tasks_in_deadline_order_on_one_worker() {
        // End-to-end schedule ordering: one worker, shuffled sleep
        // durations; wake (and therefore poll) order must come out
        // sorted by deadline.
        let rt = Runtime::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let durations_ms = [120u64, 40, 80, 10, 100, 60];
        let handles: Vec<_> = durations_ms
            .iter()
            .map(|&ms| {
                let rt2 = rt.clone();
                let order = order.clone();
                rt.spawn(async move {
                    rt2.sleep(Duration::from_millis(ms)).await;
                    order.lock().unwrap().push(ms);
                })
            })
            .collect();
        for h in handles {
            rt.block_on(h);
        }
        let got = order.lock().unwrap().clone();
        let mut expect = durations_ms.to_vec();
        expect.sort_unstable();
        assert_eq!(got, expect, "sleeps fired out of deadline order");
    }
}
