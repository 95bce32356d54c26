//! Asynchronous channels and notification primitives.
//!
//! Mirage structures its stacks as lightweight threads connected by typed
//! streams (the "channel iteratees" of §3.5). This module provides the
//! plumbing: an unbounded MPSC channel, a oneshot cell (used by join
//! handles), and a [`Notify`] edge-trigger that the synchronous device
//! service code uses to wake protocol tasks.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use mirage_testkit::sync::Mutex;

/// Error returned by [`Receiver::recv`] when every sender is gone, and by
/// [`Sender::send_all`] when the receiver is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl std::fmt::Display for Closed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("channel is closed")
    }
}

impl std::error::Error for Closed {}

struct ChanState<T> {
    queue: VecDeque<T>,
    recv_waker: Option<Waker>,
    senders: usize,
    receiver_alive: bool,
}

/// The sending half of an unbounded channel.
pub struct Sender<T> {
    state: Arc<Mutex<ChanState<T>>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sender")
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.state.lock().senders += 1;
        Sender {
            state: Arc::clone(&self.state),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.state.lock();
        st.senders -= 1;
        if st.senders == 0 {
            if let Some(w) = st.recv_waker.take() {
                w.wake();
            }
        }
    }
}

impl<T> Sender<T> {
    /// Enqueues `value`, waking the receiver. Usable from both async tasks
    /// and the synchronous device-service path.
    ///
    /// # Errors
    ///
    /// Returns the value back if the receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut st = self.state.lock();
        if !st.receiver_alive {
            return Err(value);
        }
        st.queue.push_back(value);
        if let Some(w) = st.recv_waker.take() {
            w.wake();
        }
        Ok(())
    }

    /// Enqueues every item of `burst`, in order, under one lock and with at
    /// most one wake; `burst` is left empty.
    ///
    /// # Errors
    ///
    /// [`Closed`] if the receiver has been dropped; `burst` then keeps the
    /// items.
    pub fn send_all(&self, burst: &mut VecDeque<T>) -> Result<(), Closed> {
        if burst.is_empty() {
            return Ok(());
        }
        let mut st = self.state.lock();
        if !st.receiver_alive {
            return Err(Closed);
        }
        move_all(burst, &mut st.queue);
        if let Some(w) = st.recv_waker.take() {
            w.wake();
        }
        Ok(())
    }

    /// Number of queued items (backpressure signal).
    pub fn queued(&self) -> usize {
        self.state.lock().queue.len()
    }
}

/// The receiving half of an unbounded channel.
pub struct Receiver<T> {
    state: Arc<Mutex<ChanState<T>>>,
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Receiver")
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.state.lock().receiver_alive = false;
    }
}

impl<T> Receiver<T> {
    /// Awaits the next value.
    ///
    /// # Errors
    ///
    /// [`Closed`] once the queue is drained and all senders are dropped.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { rx: self }
    }

    /// Non-blocking pop (for the synchronous device path).
    pub fn try_recv(&mut self) -> Option<T> {
        self.state.lock().queue.pop_front()
    }

    /// Moves everything queued to the back of `out`, in order, under one
    /// lock.
    pub fn drain_into(&mut self, out: &mut VecDeque<T>) {
        move_all(&mut self.state.lock().queue, out);
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a mut Receiver<T>,
}

impl<T> std::fmt::Debug for Recv<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Recv")
    }
}

impl<T> Future for Recv<'_, T> {
    type Output = Result<T, Closed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.rx.state.lock();
        if let Some(v) = st.queue.pop_front() {
            return Poll::Ready(Ok(v));
        }
        if st.senders == 0 {
            return Poll::Ready(Err(Closed));
        }
        st.recv_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Appends `from` to `to`, leaving `from` empty. Into an empty `to` the
/// two deques swap, so their allocations circulate instead of growing.
fn move_all<T>(from: &mut VecDeque<T>, to: &mut VecDeque<T>) {
    if to.is_empty() {
        std::mem::swap(from, to);
    } else {
        to.append(from);
    }
}

/// Creates an unbounded MPSC channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let state = Arc::new(Mutex::new(ChanState {
        queue: VecDeque::new(),
        recv_waker: None,
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            state: Arc::clone(&state),
        },
        Receiver { state },
    )
}

// ---------------------------------------------------------------------------

struct NotifyState {
    pending: u64,
    wakers: Vec<Waker>,
}

/// An edge-triggered wakeup: callers `await` [`Notify::notified`]; the
/// device-service path calls [`Notify::notify_one`]/[`Notify::notify_all`].
/// Notifications are counted, so a notify with no waiter is not lost.
#[derive(Clone)]
pub struct Notify {
    state: Arc<Mutex<NotifyState>>,
}

impl std::fmt::Debug for Notify {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Notify(pending={})", self.state.lock().pending)
    }
}

impl Default for Notify {
    fn default() -> Self {
        Notify::new()
    }
}

impl Notify {
    /// A fresh notifier with no pending signals.
    pub fn new() -> Notify {
        Notify {
            state: Arc::new(Mutex::new(NotifyState {
                pending: 0,
                wakers: Vec::new(),
            })),
        }
    }

    /// Signals one pending notification.
    pub fn notify_one(&self) {
        let mut st = self.state.lock();
        st.pending += 1;
        if let Some(w) = st.wakers.pop() {
            w.wake();
        }
    }

    /// Wakes every current waiter (they each consume one signal; extra
    /// signals accumulate).
    pub fn notify_all(&self) {
        let mut st = self.state.lock();
        let waiters = st.wakers.len().max(1) as u64;
        st.pending += waiters;
        for w in st.wakers.drain(..) {
            w.wake();
        }
    }

    /// Awaits the next notification.
    pub fn notified(&self) -> Notified {
        Notified {
            state: Arc::clone(&self.state),
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    state: Arc<Mutex<NotifyState>>,
}

impl std::fmt::Debug for Notified {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Notified")
    }
}

impl Future for Notified {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.state.lock();
        if st.pending > 0 {
            st.pending -= 1;
            Poll::Ready(())
        } else {
            st.wakers.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------

pub(crate) struct OneshotState<T> {
    pub(crate) value: Option<T>,
    pub(crate) waker: Option<Waker>,
    pub(crate) done: bool,
}

/// The awaitable result of a spawned task — see
/// [`Runtime::spawn`](crate::Runtime::spawn).
pub struct JoinHandle<T> {
    pub(crate) state: Arc<Mutex<OneshotState<T>>>,
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JoinHandle")
    }
}

impl<T> JoinHandle<T> {
    /// Whether the task has completed.
    pub fn is_done(&self) -> bool {
        self.state.lock().done
    }

    /// Takes the result if the task has completed (non-blocking).
    pub fn try_take(&self) -> Option<T> {
        self.state.lock().value.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.state.lock();
        if let Some(v) = st.value.take() {
            return Poll::Ready(v);
        }
        assert!(
            !st.done,
            "JoinHandle polled after the result was already taken"
        );
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

// Cross-core wakeup contract: every channel endpoint must be `Send` (a
// task's future is `Send`, and the benchmark spawns futures and closures
// that hold a `Runtime`, a block device and a `Tree` — DESIGN §3) and
// `Sync` (so the synchronous device-service path on one core can signal a
// task homed on another). The shims are std::sync-backed, so these hold
// structurally — the assertions pin that down at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Sender<u64>>();
    assert_send_sync::<Receiver<u64>>();
    assert_send_sync::<Notify>();
    assert_send_sync::<Notified>();
    assert_send_sync::<JoinHandle<u64>>();
    assert_send_sync::<Closed>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Runtime, UnikernelGuest};
    use mirage_hypervisor::Hypervisor;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts its wakes.
    struct Wakes(AtomicUsize);

    impl std::task::Wake for Wakes {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Parks a `recv` on `rx` under a counting waker.
    fn park(rx: &mut Receiver<u32>) -> Arc<Wakes> {
        let wakes = Arc::new(Wakes(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&wakes));
        let pending = Pin::new(&mut rx.recv()).poll(&mut Context::from_waker(&waker));
        assert!(pending.is_pending(), "nothing queued yet");
        wakes
    }

    #[test]
    fn bursts_keep_fifo_order_and_wake_once() {
        let (tx, mut rx) = channel::<u32>();
        let wakes = park(&mut rx);
        tx.send(0).unwrap();
        let mut burst: VecDeque<u32> = (1..5).collect();
        tx.send_all(&mut burst).unwrap();
        assert!(burst.is_empty());
        tx.send_all(&mut (5..8).collect()).unwrap();
        assert_eq!(
            wakes.0.load(Ordering::Relaxed),
            1,
            "one parked receiver, one wake"
        );

        let mut out = VecDeque::from([100]);
        rx.drain_into(&mut out);
        assert_eq!(Vec::from(out), [100, 0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(rx.is_empty());

        let wakes = park(&mut rx);
        tx.send_all(&mut VecDeque::new()).unwrap();
        assert_eq!(
            wakes.0.load(Ordering::Relaxed),
            0,
            "an empty burst wakes no one"
        );
        tx.send_all(&mut (8..10).collect()).unwrap();
        let mut out = VecDeque::new();
        rx.drain_into(&mut out);
        assert_eq!(Vec::from(out), [8, 9]);
        assert_eq!(wakes.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn bursts_keep_closed_semantics() {
        let (tx, mut rx) = channel::<u32>();
        tx.send_all(&mut (0..3).collect()).unwrap();
        drop(tx);
        let mut out = VecDeque::new();
        rx.drain_into(&mut out);
        assert_eq!(
            Vec::from(out),
            [0, 1, 2],
            "queued items outlive the senders"
        );
        let closed = Pin::new(&mut rx.recv()).poll(&mut Context::from_waker(Waker::noop()));
        assert_eq!(closed, Poll::Ready(Err(Closed)));

        let (tx, rx) = channel::<u32>();
        drop(rx);
        let mut burst: VecDeque<u32> = (0..3).collect();
        assert_eq!(tx.send_all(&mut burst), Err(Closed));
        assert_eq!(Vec::from(burst), [0, 1, 2], "a refused burst is given back");
    }

    #[test]
    fn two_executor_ping_pong_crosses_cores() {
        // A task pinned to core 0 and one pinned to core 1 volley a
        // counter over two channels: every send is a cross-core wakeup.
        let rt = Runtime::smp(2);
        let guest = UnikernelGuest::with_runtime(rt, |_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move {
                let (tx_ping, mut rx_ping) = channel::<u32>();
                let (tx_pong, mut rx_pong) = channel::<u32>();
                let rt3 = rt2.clone();
                let ponger = rt2.spawn_on(1, async move {
                    let mut last = 0;
                    while let Ok(v) = rx_ping.recv().await {
                        assert_eq!(rt3.current_core(), 1, "ponger migrated");
                        last = v;
                        if tx_pong.send(v + 1).is_err() {
                            break;
                        }
                    }
                    last
                });
                let rt4 = rt2.clone();
                let pinger = rt2.spawn_on(0, async move {
                    let mut v = 0;
                    for _ in 0..50 {
                        assert_eq!(rt4.current_core(), 0, "pinger migrated");
                        tx_ping.send(v).unwrap();
                        v = rx_pong.recv().await.unwrap() + 1;
                    }
                    drop(tx_ping);
                    v
                });
                let got = pinger.await;
                let last_ping = ponger.await;
                assert_eq!(got, 100, "50 round trips, +2 each");
                assert_eq!(last_ping, 98);
                0
            })
        });
        let mut hv = Hypervisor::new();
        let dom = hv.create_domain_vcpus("pingpong", 64, Box::new(guest), 2);
        hv.run();
        assert_eq!(hv.exit_code(dom), Some(0));
    }
}
