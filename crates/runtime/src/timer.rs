//! Virtual-time sleep futures.
//!
//! "Thread scheduling is platform-independent with timers stored in a
//! heap-allocated OCaml priority queue" (paper §3.3). Here, that queue
//! lives in the executor core — one ordered map per vCPU — and
//! [`Sleep`] futures register their wakers against it. Each sleep owns at
//! most one queue entry: re-polls refresh the stored waker in place and
//! dropping the future (e.g. the losing arm of a select) disarms it.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use mirage_hypervisor::Time;
use mirage_testkit::wheel::TimerId;

use crate::exec::CoreHandle;

/// Future returned by [`Runtime::sleep_until`](crate::Runtime::sleep_until);
/// resolves when virtual time reaches the deadline.
#[derive(Debug)]
pub struct Sleep {
    pub(crate) deadline: Time,
    pub(crate) core: SleepCore,
    /// `(core, queue entry)` — sleeps arm the queue of their task's own
    /// core and keep refreshing that same entry.
    pub(crate) id: Option<(usize, TimerId)>,
}

pub(crate) struct SleepCore(pub(crate) CoreHandle);

impl std::fmt::Debug for SleepCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SleepCore")
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if self.deadline == Time::MAX {
            // "Never": park without registering a timer, so the domain can
            // still block purely on events.
            return Poll::Pending;
        }
        if self.core.0.now() >= self.deadline {
            if let Some(id) = self.id.take() {
                self.core.0.cancel_timer(id);
            }
            Poll::Ready(())
        } else {
            match self.id {
                Some(id) if self.core.0.update_timer(id, cx.waker()) => {}
                _ => {
                    let id = self.core.0.register_timer(self.deadline, cx.waker().clone());
                    self.id = Some(id);
                }
            }
            Poll::Pending
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        // Disarm: the losing arm of a select would otherwise leave a stale
        // entry in the queue until its deadline came round.
        if let Some(id) = self.id.take() {
            self.core.0.cancel_timer(id);
        }
    }
}

/// Future that yields once, letting other runnable tasks execute — the
/// cooperative scheduling point.
#[derive(Debug, Default)]
pub struct YieldNow {
    polled: bool,
}

impl YieldNow {
    /// A fresh yield point.
    pub fn new() -> YieldNow {
        YieldNow::default()
    }
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Wraps a future with a virtual-time deadline.
///
/// Resolves to `Ok(value)` if the inner future completes first, `Err(Late)`
/// if the deadline passes — the mechanism behind Mirage's combinator-based
/// resource cleanup ("when the function terminates, whether normally via
/// timeout or an unknown exception, the grant reference is freed", §3.4.1).
#[derive(Debug)]
pub struct Timeout<F> {
    pub(crate) inner: F,
    pub(crate) sleep: Sleep,
}

/// The error produced when a [`Timeout`] deadline passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Late;

impl std::fmt::Display for Late {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("deadline elapsed before the future completed")
    }
}

impl std::error::Error for Late {}

impl<F: Future + Unpin> Future for Timeout<F> {
    type Output = Result<F::Output, Late>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        if let Poll::Ready(v) = Pin::new(&mut this.inner).poll(cx) {
            return Poll::Ready(Ok(v));
        }
        match Pin::new(&mut this.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Late)),
            Poll::Pending => Poll::Pending,
        }
    }
}
