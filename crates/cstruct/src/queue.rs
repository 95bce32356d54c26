//! A byte stream held as a queue of views.
//!
//! Everything that buffers bytes in flight — TCP's unacknowledged send
//! data, an HTTP parser's partial message, a socket's late-arriving data —
//! holds them as a [`PktQueue`]: pushing a chunk is a refcount bump,
//! draining from the front splits a view, and a range that lies inside one
//! chunk comes back out as a view of it. Only a range that straddles chunks
//! has to be gathered, and that gather is counted.

use std::collections::VecDeque;

use crate::pktbuf::{record_copy, PktBuf};

/// A FIFO byte stream of [`PktBuf`] chunks, addressed by byte offset from
/// the front.
#[derive(Debug, Clone, Default)]
pub struct PktQueue {
    chunks: VecDeque<PktBuf>,
    len: usize,
}

impl PktQueue {
    /// An empty queue.
    pub fn new() -> PktQueue {
        PktQueue::default()
    }

    /// Appends a chunk (refcount bump, no copy).
    pub fn push(&mut self, data: PktBuf) {
        if !data.is_empty() {
            self.len += data.len();
            self.chunks.push_back(data);
        }
    }

    /// Takes the whole front chunk off the queue.
    pub fn pop(&mut self) -> Option<PktBuf> {
        let front = self.chunks.pop_front()?;
        self.len -= front.len();
        Some(front)
    }

    /// Bytes queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bytes are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The queued chunks, front first.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.chunks_from(0)
    }

    /// The queued chunks from the `first`th on (none if there are fewer),
    /// found without walking the ones before it.
    pub fn chunks_from(&self, first: usize) -> impl Iterator<Item = &[u8]> {
        let first = first.min(self.chunks.len());
        self.chunks.range(first..).map(PktBuf::as_slice)
    }

    /// Drops the first `n` bytes (all of them if fewer are queued),
    /// splitting the view at the boundary.
    pub fn advance(&mut self, n: usize) {
        let mut n = n.min(self.len);
        self.len -= n;
        while n > 0 {
            let front = self.chunks.front_mut().expect("bytes remain");
            if front.len() <= n {
                n -= front.len();
                self.chunks.pop_front();
            } else {
                let _ = front.split_to(n);
                n = 0;
            }
        }
    }

    /// `len` bytes starting `start` bytes from the front: a view of the
    /// chunk when the range lies within one, a gathered (counted) copy
    /// when it straddles several.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the queued bytes.
    pub fn view(&self, start: usize, len: usize) -> PktBuf {
        assert!(start + len <= self.len, "range beyond queued bytes");
        if len == 0 {
            return PktBuf::empty();
        }
        let mut off = start;
        let mut i = 0;
        while self.chunks[i].len() <= off {
            off -= self.chunks[i].len();
            i += 1;
        }
        if off + len <= self.chunks[i].len() {
            return self.chunks[i].slice(off..off + len);
        }
        record_copy(len);
        PktBuf::from_vec(self.copy_range(start, len))
    }

    /// Copies `len` bytes starting at `start` into a fresh vector. Not
    /// counted: whether the bytes are payload (count them) or protocol
    /// metadata such as a header block (do not) is the caller's call.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the queued bytes.
    pub fn copy_range(&self, start: usize, len: usize) -> Vec<u8> {
        assert!(start + len <= self.len, "range beyond queued bytes");
        let mut out = Vec::with_capacity(len);
        let mut skip = start;
        for chunk in self.chunks() {
            if out.len() == len {
                break;
            }
            if skip >= chunk.len() {
                skip -= chunk.len();
                continue;
            }
            let take = (chunk.len() - skip).min(len - out.len());
            out.extend_from_slice(&chunk[skip..skip + take]);
            skip = 0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{copy_counters, PagePool};
    use mirage_testkit::prop::{any, collection};

    /// Drops the first `n` bytes (at most all) of the flat model.
    fn drain(model: &mut Vec<u8>, bounds: &mut Vec<usize>, n: usize) {
        let n = n.min(model.len());
        model.drain(..n);
        bounds.retain(|&e| e > n);
        bounds.iter_mut().for_each(|e| *e -= n);
    }

    /// Replays `(op, a, b)` steps against a queue fed from `chunks` and a
    /// flat model of the same bytes, checking every read against the model
    /// and the copy audit against the chunk boundaries. Ops: 0 push the next
    /// chunk, 1 advance, 2 view, 3 copy_range, 4 pop.
    fn replay(chunks: &[Vec<u8>], steps: &[(u8, usize, usize)]) {
        let _audit = crate::pktbuf::audit_lock();
        let pool = PagePool::new(chunks.len().max(1));
        let mut feed = chunks.iter();
        let mut queue = PktQueue::new();
        let mut model: Vec<u8> = Vec::new();
        // Chunk boundaries as offsets into `model`.
        let mut bounds: Vec<usize> = Vec::new();
        for &(op, a, b) in steps {
            match op % 5 {
                0 => {
                    let Some(data) = feed.next() else { continue };
                    let mut page = pool.alloc().expect("one page per chunk");
                    page.truncate(0);
                    page.write_at(0, data);
                    queue.push(page.freeze());
                    model.extend_from_slice(data);
                    if !data.is_empty() {
                        bounds.push(model.len());
                    }
                }
                1 => {
                    let n = a % (model.len() + 2);
                    queue.advance(n);
                    drain(&mut model, &mut bounds, n);
                }
                2 if !model.is_empty() => {
                    let start = a % model.len();
                    let len = b % (model.len() - start + 1);
                    let chunk_end = *bounds.iter().find(|&&e| e > start).expect("inside a chunk");
                    let holder = queue.view(chunk_end - 1, 1);
                    let (views, before) = (holder.view_count(), copy_counters());
                    let got = queue.view(start, len);
                    let after = copy_counters();
                    assert_eq!(got, model[start..start + len]);
                    if len == 0 {
                        assert_eq!(after, before, "an empty range costs nothing");
                    } else if start + len <= chunk_end {
                        assert_eq!(holder.view_count(), views + 1, "a view of the chunk's page");
                        assert_eq!(after, before, "inside one chunk: no copy");
                    } else {
                        assert_eq!(holder.view_count(), views, "gathered off the page");
                        assert_eq!(after.copies, before.copies + 1, "a straddle is one copy");
                        assert_eq!(after.copy_bytes, before.copy_bytes + len as u64);
                    }
                }
                3 if !model.is_empty() => {
                    let start = a % model.len();
                    let len = b % (model.len() - start + 1);
                    let before = copy_counters();
                    assert_eq!(queue.copy_range(start, len), model[start..start + len]);
                    assert_eq!(
                        copy_counters(),
                        before,
                        "metadata copies are the caller's to count"
                    );
                }
                4 => {
                    let n = bounds.first().copied().unwrap_or(0);
                    assert_eq!(queue.pop().as_deref(), bounds.first().map(|_| &model[..n]));
                    drain(&mut model, &mut bounds, n);
                }
                _ => {}
            }
            assert_eq!(queue.len(), model.len());
            let chunks: Vec<&[u8]> = queue.chunks().collect();
            assert_eq!(chunks.concat(), model);
            for first in 0..=chunks.len() + 1 {
                let rest: Vec<&[u8]> = queue.chunks_from(first).collect();
                assert_eq!(
                    rest,
                    chunks[first.min(chunks.len())..],
                    "chunks from {first}"
                );
            }
        }
        drop(queue);
        assert_eq!(pool.free_pages(), pool.capacity(), "every page came back");
    }

    /// TCP's send buffer (moved from `rod.rs`): page-sized application
    /// writes, MSS-sized carves that tile them — the third straddles the
    /// 4000-byte boundary — then an ACK for half, a retransmit view at the
    /// new base, and the rest drained.
    #[test]
    fn mss_carves_tile_page_sized_writes_across_their_boundaries() {
        let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        let writes: Vec<Vec<u8>> = data.chunks(4000).map(<[u8]>::to_vec).collect();
        let mut steps = vec![(0, 0, 0); writes.len()];
        steps.extend(
            (0..10_000)
                .step_by(1460)
                .map(|s| (2, s, 1460.min(10_000 - s))),
        );
        steps.extend([(1, 5000, 0), (2, 0, 1460), (4, 0, 0), (1, 5000, 0)]);
        replay(&writes, &steps);
    }

    /// HTTP's receive buffer (moved from `wire.rs`): a message fed in
    /// 7-byte pieces, its head copied out as metadata, then consumed at an
    /// offset that falls inside a piece.
    #[test]
    fn seven_byte_pieces_gather_and_consume_mid_chunk() {
        let wire = b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\n0123456789GET /";
        let pieces: Vec<Vec<u8>> = wire.chunks(7).map(<[u8]>::to_vec).collect();
        let mut steps: Vec<_> = pieces.iter().map(|_| (0, 0, 0)).collect();
        steps.extend([
            (3, 0, 37),
            (3, 41, 10),
            (1, 51, 0),
            (3, 0, 5),
            (2, 1, 3),
            (4, 0, 0),
        ]);
        replay(&pieces, &steps);
    }

    mirage_testkit::property! {
        /// Any schedule of push / advance / view / copy_range agrees with
        /// a flat byte vector, shares pages inside a chunk and counts one
        /// copy per straddling view.
        fn prop_queue_matches_flat_model(
            chunks in collection::vec(collection::vec(any::<u8>(), 0..48), 1..8),
            steps in collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..48),
        ) {
            replay(&chunks, &steps);
        }
    }
}
