//! Racing combinators — Lwt's `choose` (paper §3.3: "composable
//! higher-order functions, also known as combinators, are used throughout
//! Mirage").

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// The winner of a three-way race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either3<A, B, C> {
    /// The first future finished first.
    First(A),
    /// The second future finished first.
    Second(B),
    /// The third future finished first.
    Third(C),
}

/// Future racing three futures.
#[derive(Debug)]
pub struct Select3<A, B, C> {
    a: A,
    b: B,
    c: C,
}

impl<A: Future + Unpin, B: Future + Unpin, C: Future + Unpin> Future for Select3<A, B, C> {
    type Output = Either3<A::Output, B::Output, C::Output>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Poll::Ready(v) = Pin::new(&mut self.a).poll(cx) {
            return Poll::Ready(Either3::First(v));
        }
        if let Poll::Ready(v) = Pin::new(&mut self.b).poll(cx) {
            return Poll::Ready(Either3::Second(v));
        }
        if let Poll::Ready(v) = Pin::new(&mut self.c).poll(cx) {
            return Poll::Ready(Either3::Third(v));
        }
        Poll::Pending
    }
}

/// Races three futures, returning whichever completes first.
pub fn select3<A: Future + Unpin, B: Future + Unpin, C: Future + Unpin>(
    a: A,
    b: B,
    c: C,
) -> Select3<A, B, C> {
    Select3 { a, b, c }
}
