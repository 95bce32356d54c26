//! An append-only, copy-on-write B-tree — the "third-party copy-on-write
//! binary tree storage library" (Baardskeerder) the paper ported to Mirage
//! (§3.5.2) and used as the tweet store in the Figure 12 dynamic web
//! appliance.
//!
//! Every mutation copies the root-to-leaf path and appends the new nodes to
//! a log, finishing with a checksummed **commit record** pointing at the
//! new root. Crash recovery is a sequential scan: the last valid commit
//! wins, and a torn trailing write simply rolls back to the previous
//! commit. Reads are wait-free against concurrent writers because old
//! roots are immutable; writers queue on a FIFO lock.
//!
//! The I/O budget (DESIGN.md "Storage I/O budget and cache policy"): a node
//! costs one log read, a mutation costs one log append — the copied path
//! and its commit record travel as one batch, commit record last — and
//! decoded *interior* nodes are kept in a small bounded cache, so a lookup
//! pays for its leaf and nothing else. Leaves are never cached: caching
//! data is the application's policy, and an appliance that wants a data
//! cache links its own. Nor
//! are they decoded: a leaf is searched, rewritten and scanned in the
//! record it was read in, as borrowed `(key, value)` pairs that one
//! bounds-checked pass yields, and an interior node keeps its separators
//! as the bytes they were stored as (DESIGN.md, the *copy* budget).
//!
//! Deletion removes keys without rebalancing (nodes may underflow); this
//! matches the log-structured design where space is reclaimed by
//! compaction ([`Tree::compact`]) rather than in-place merging.

use std::collections::VecDeque;
use std::sync::Arc;

use mirage_runtime::channel::{self, Sender};
use mirage_testkit::hash::DetHashMap;
use mirage_testkit::sync::Mutex;

use crate::block::{BlockError, BlockIo, BoxFuture};

/// Maximum keys per node before splitting.
const MAX_KEYS: usize = 16;

const TAG_LEAF: u8 = 1;
const TAG_NODE: u8 = 2;
const TAG_COMMIT: u8 = 3;

/// A record is `tag(1) | payload length(4) | payload | crc32(4)`.
const HEADER: usize = 5;
const FRAMING: usize = HEADER + 4;
/// Largest payload a record header may claim.
const MAX_PAYLOAD: usize = 1 << 24;
/// Bytes fetched by the one read that loads a record (a full leaf of
/// 128-byte values is 2.4 KB); a longer record costs a second read. Seven
/// sectors, so that a [`BlockLog`] read at any alignment covers at most
/// eight — one page-sized ring request.
const READ_SPAN: usize = 7 * SECTOR;
/// Bound on cached interior nodes (at most ~1 KB each).
const CACHE_NODES: usize = 1024;

/// Errors from tree operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeError {
    /// Log device failure.
    Io(BlockError),
    /// A referenced record failed validation.
    Corrupt,
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Io(e) => write!(f, "log i/o failure: {e}"),
            TreeError::Corrupt => f.write_str("tree record failed validation"),
        }
    }
}

impl std::error::Error for TreeError {}

impl From<BlockError> for TreeError {
    fn from(e: BlockError) -> TreeError {
        TreeError::Io(e)
    }
}

/// Slicing-by-8 tables for the IEEE polynomial: `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE, the bit-reflected polynomial 0xEDB8_8320) — guards every
/// log record.
///
/// On x86_64 a record of 64 bytes or more runs the carry-less-multiply
/// folding kernel (`clmul::fold`) when the CPU has PCLMULQDQ and SSE4.1;
/// std detects both once and caches the answer. Shorter records, the
/// kernel's tail under 16 bytes, CPUs without those features and every
/// other architecture run `crc32_table`. On a 2-vCPU Intel Xeon,
/// 512–4 096 B inputs checksum at 13–22 B/ns folded against 1.3–1.5 B/ns
/// through the table; both paths give the same bits.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `fold` is compiled for exactly the two features this CPU
        // was just found to have.
        return !unsafe { clmul::fold(!0, data) };
    }
    !crc32_table(!0, data)
}

/// Slicing-by-8: advances the CRC-32 register `crc` (pre- and
/// post-inversion left to the caller) over `data`, eight bytes a step.
fn crc32_table(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 by folding with PCLMULQDQ (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009).
///
/// Bytes load little-endian, so bit 0 of a 128-bit lane is the highest
/// power of x it holds. Multiplying a lane's two 64-bit halves by
/// `x^n mod P` moves it `n` bits towards the end of the message while
/// keeping it within 96 bits, and XOR adds it to the lane found there.
/// Every constant is `x^n mod P`, `P` or `⌊x^64 / P⌋` bit-reflected over
/// 33 bits; the tests derive each from 0xEDB8_8320. (The 33rd bit absorbs
/// the one place a reflected carry-less product comes out low.)
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input [`fold`] takes: its four lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// Fold a lane 4 × 128 bits forward: `x^(512+32)` for its low half,
    /// `x^(512-32)` for its high half.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// Fold a lane 128 bits forward: `x^(128+32)`, `x^(128-32)`.
    pub(super) const K3: i64 = 0x1_7519_97D0;
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// Reduce 96 bits to 64: `x^64`.
    pub(super) const K5: i64 = 0x1_63CD_6124;
    /// Barrett reduction of 64 bits to 32: `P′` and `μ′ = ⌊x^64 / P⌋`.
    pub(super) const P: i64 = 0x1_DB71_0641;
    pub(super) const MU: i64 = 0x1_F701_1641;

    /// Advances the CRC-32 register `crc` over `data`, at least
    /// [`MIN_LEN`] bytes: four lanes folded 64 bytes a step, then one lane
    /// 16 bytes a step, reduced to 32 bits, with the tail under 16 bytes
    /// left to [`super::crc32_table`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let (groups, singles) = blocks.as_chunks::<4>();
        let (first, groups) = groups.split_first().expect("MIN_LEN bytes");
        let mut lanes = first.map(|block| load(&block));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let by_four = _mm_set_epi64x(K2, K1);
        for group in groups {
            for (lane, block) in lanes.iter_mut().zip(group) {
                *lane = fold_into(*lane, load(block), by_four);
            }
        }
        let by_one = _mm_set_epi64x(K4, K3);
        let mut acc = lanes[0];
        for &lane in &lanes[1..] {
            acc = fold_into(acc, lane, by_one);
        }
        for block in singles {
            acc = fold_into(acc, load(block), by_one);
        }

        // 128 → 96 bits: the low half times x^96 onto the high half, then
        // 96 → 64: the low 32 bits times x^64 onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, by_one),
            _mm_srli_si128::<8>(acc),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett: the quotient's estimate times P, subtracted, leaves the
        // remainder in bits 32..64.
        let barrett = _mm_set_epi64x(MU, P);
        let quotient = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), barrett);
        let product = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(quotient, low32), barrett);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(acc, product)) as u32;
        super::crc32_table(crc, tail)
    }

    /// `lane` carried forward by the distance `keys` encode, plus `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(lane, keys);
        let high = _mm_clmulepi64_si128::<0x11>(lane, keys);
        _mm_xor_si128(next, _mm_xor_si128(low, high))
    }

    /// One 16-byte block as a lane. (SSE2 is every x86_64 CPU's, but an
    /// intrinsic is safe to call only where a feature list names it.)
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }
}

// ---------------------------------------------------------------------------

/// An append-only byte log.
pub trait AppendLog: Send + Sync {
    /// Appends `data`, returning its byte offset.
    fn append(&self, data: Vec<u8>) -> BoxFuture<Result<u64, BlockError>>;

    /// Reads `len` bytes at `offset`.
    fn read_at(&self, offset: u64, len: usize) -> BoxFuture<Result<Vec<u8>, BlockError>>;

    /// Current end-of-log offset.
    fn tail(&self) -> u64;

    /// Truncates the log to `len` bytes (recovery, fault injection).
    fn truncate(&self, len: u64);
}

/// An in-memory log (tests and RAM-backed appliances).
#[derive(Clone, Default)]
pub struct MemLog {
    data: Arc<Mutex<Vec<u8>>>,
}

impl std::fmt::Debug for MemLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemLog({} bytes)", self.data.lock().len())
    }
}

impl MemLog {
    /// An empty log.
    pub fn new() -> MemLog {
        MemLog::default()
    }
}

impl AppendLog for MemLog {
    fn append(&self, data: Vec<u8>) -> BoxFuture<Result<u64, BlockError>> {
        let log = self.data.clone();
        Box::pin(async move {
            let mut log = log.lock();
            let off = log.len() as u64;
            log.extend(data);
            Ok(off)
        })
    }

    fn read_at(&self, offset: u64, len: usize) -> BoxFuture<Result<Vec<u8>, BlockError>> {
        let log = self.data.clone();
        Box::pin(async move {
            let log = log.lock();
            let start = offset as usize;
            if start + len > log.len() {
                return Err(BlockError::OutOfRange);
            }
            Ok(log[start..start + len].to_vec())
        })
    }

    fn tail(&self) -> u64 {
        self.data.lock().len() as u64
    }

    fn truncate(&self, len: u64) {
        self.data.lock().truncate(len as usize);
    }
}

struct LogState {
    len: u64,
    /// The `len % SECTOR` bytes of the partial last sector, so an append
    /// can write it back whole without reading it first. `None` when they
    /// are not known — after a remount or truncate that ends mid-sector —
    /// until the next append reads them back, once.
    tail: Option<Vec<u8>>,
}

impl LogState {
    fn ending_at(len: u64) -> LogState {
        LogState {
            len,
            tail: len.is_multiple_of(SECTOR as u64).then(Vec::new),
        }
    }
}

/// A log over a [`BlockIo`] device: an append is one device write. Appends
/// must not overlap one another ([`Tree`] serialises its writers).
pub struct BlockLog<B> {
    dev: Arc<B>,
    state: Arc<Mutex<LogState>>,
}

impl<B> Clone for BlockLog<B> {
    fn clone(&self) -> Self {
        BlockLog {
            dev: Arc::clone(&self.dev),
            state: Arc::clone(&self.state),
        }
    }
}

impl<B: BlockIo> std::fmt::Debug for BlockLog<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlockLog({} bytes)", self.state.lock().len)
    }
}

const SECTOR: usize = mirage_devices::blk::SECTOR_SIZE;

impl<B: BlockIo + 'static> BlockLog<B> {
    /// A fresh log over `dev` starting at length `len` (0 for new; pass a
    /// recovered length when remounting).
    pub fn new(dev: B, len: u64) -> BlockLog<B> {
        BlockLog {
            dev: Arc::new(dev),
            state: Arc::new(Mutex::new(LogState::ending_at(len))),
        }
    }
}

impl<B: BlockIo + 'static> AppendLog for BlockLog<B> {
    fn append(&self, data: Vec<u8>) -> BoxFuture<Result<u64, BlockError>> {
        let dev = Arc::clone(&self.dev);
        let state = Arc::clone(&self.state);
        Box::pin(async move {
            let (offset, known_tail) = {
                let st = state.lock();
                (st.len, st.tail.clone())
            };
            let start_sector = offset / SECTOR as u64;
            let within = (offset % SECTOR as u64) as usize;
            let head = match known_tail {
                Some(tail) => tail,
                None => {
                    let mut sector = dev.read(start_sector, 1).await?;
                    sector.truncate(within);
                    sector
                }
            };
            let end = offset + data.len() as u64;
            let mut buf = Vec::with_capacity((within + data.len()).next_multiple_of(SECTOR));
            buf.extend_from_slice(&head);
            buf.extend_from_slice(&data);
            let tail = buf[buf.len() - (end % SECTOR as u64) as usize..].to_vec();
            buf.resize(buf.len().next_multiple_of(SECTOR), 0);
            dev.write(start_sector, buf).await?;
            *state.lock() = LogState {
                len: end,
                tail: Some(tail),
            };
            Ok(offset)
        })
    }

    fn read_at(&self, offset: u64, len: usize) -> BoxFuture<Result<Vec<u8>, BlockError>> {
        let dev = Arc::clone(&self.dev);
        let log_len = self.state.lock().len;
        Box::pin(async move {
            if offset + len as u64 > log_len {
                return Err(BlockError::OutOfRange);
            }
            let start_sector = offset / SECTOR as u64;
            let end_sector = (offset + len as u64).div_ceil(SECTOR as u64);
            let mut raw = dev
                .read(start_sector, (end_sector - start_sector) as u32)
                .await?;
            // Trimmed where it lies: the device's buffer is the result.
            let within = (offset % SECTOR as u64) as usize;
            if raw.len() < within + len {
                return Err(BlockError::Io);
            }
            raw.truncate(within + len);
            raw.drain(..within);
            Ok(raw)
        })
    }

    fn tail(&self) -> u64 {
        self.state.lock().len
    }

    fn truncate(&self, len: u64) {
        let mut st = self.state.lock();
        if len < st.len {
            *st = LogState::ending_at(len);
        }
    }
}

// ---------------------------------------------------------------------------

/// An interior node: child offsets, and the separators between them as
/// they lie in the record — `length(4) | bytes` each, validated once.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Interior {
    children: Vec<u64>,
    seps: Vec<u8>,
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// The `length(4) | bytes` fields of a node payload, borrowed one after
/// another; ends at the first that does not fit in what is left.
#[derive(Clone)]
struct Fields<'a>(&'a [u8]);

impl<'a> Iterator for Fields<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (len, rest) = self.0.split_first_chunk::<4>()?;
        let (field, rest) = rest.split_at_checked(u32::from_le_bytes(*len) as usize)?;
        self.0 = rest;
        Some(field)
    }
}

/// A node payload's count, and what follows it.
fn counted(payload: &[u8]) -> Option<(usize, &[u8])> {
    let (count, body) = payload.split_first_chunk::<2>()?;
    Some((u16::from_le_bytes(*count) as usize, body))
}

/// The payload of a leaf that holds nothing: the tree before its first set.
const EMPTY_LEAF: &[u8] = &[0, 0];

/// A leaf's `(key, value)`, borrowed from the record or from the caller.
type Pair<'a> = (&'a [u8], &'a [u8]);

/// The pairs of a leaf payload, borrowed where they lie: the one pass
/// that bounds-checks every key and value before any is used.
fn leaf_pairs(payload: &[u8]) -> Result<Vec<Pair<'_>>, TreeError> {
    let (count, body) = counted(payload).ok_or(TreeError::Corrupt)?;
    let mut fields = Fields(body);
    // A pair is at least its two length fields.
    let mut pairs = Vec::with_capacity(count.min(body.len() / 8));
    for _ in 0..count {
        match (fields.next(), fields.next()) {
            (Some(key), Some(value)) => pairs.push((key, value)),
            _ => return Err(TreeError::Corrupt),
        }
    }
    Ok(pairs)
}

fn encode_leaf(out: &mut Vec<u8>, pairs: &[Pair<'_>]) {
    out.extend_from_slice(&(pairs.len() as u16).to_le_bytes());
    for (k, v) in pairs {
        put_bytes(out, k);
        put_bytes(out, v);
    }
}

impl Interior {
    fn encoded_len(&self) -> usize {
        2 + 8 * self.children.len() + self.seps.len()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.children.len() as u16).to_le_bytes());
        for c in &self.children {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&self.seps);
    }

    /// Decodes the interior node stored at `at`. It routes every key
    /// somewhere, and its children were appended before it: one with no
    /// child, or a child pointer that does not go backwards, is corrupt
    /// (and could loop a reader).
    fn decode(payload: &[u8], at: u64) -> Option<Interior> {
        let (count, body) = counted(payload).filter(|(count, _)| *count > 0)?;
        let (children, seps) = body.split_at_checked(count * 8)?;
        let children: Vec<u64> = children
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        let mut fields = Fields(seps);
        if fields.by_ref().take(count - 1).count() != count - 1 {
            return None;
        }
        let seps = seps[..seps.len() - fields.0.len()].to_vec();
        children
            .iter()
            .all(|child| *child < at)
            .then_some(Interior { children, seps })
    }

    fn seps(&self) -> Fields<'_> {
        Fields(&self.seps)
    }

    /// Byte offset of separator `i` within `seps` (its end, for `i` one
    /// past the last).
    fn sep_offset(&self, i: usize) -> usize {
        let mut fields = self.seps();
        fields.by_ref().take(i).for_each(drop);
        self.seps.len() - fields.0.len()
    }

    /// The child that owns `key`: its index and offset.
    fn child_for(&self, key: &[u8]) -> (usize, u64) {
        let idx = self.seps().take_while(|sep| key >= *sep).count();
        (idx, self.children[idx])
    }
}

/// Appends one checksummed record to `buf`.
fn put_record(buf: &mut Vec<u8>, tag: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.push(tag);
    buf.extend_from_slice(&[0; 4]);
    payload(buf);
    let len = (buf.len() - start - HEADER) as u32;
    buf[start + 1..start + HEADER].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// The bytes of a record read back from the log, checksum verified.
struct Record(Vec<u8>);

impl Record {
    fn tag(&self) -> u8 {
        self.0[0]
    }

    fn payload(&self) -> &[u8] {
        &self.0[HEADER..self.0.len() - 4]
    }
}

/// The length of the record whose header `bytes` (at least [`HEADER`] of
/// them) begins with, in a log with `room` bytes from there to its tail.
/// Nothing a header claims is trusted beyond the tail or [`MAX_PAYLOAD`].
fn record_len(bytes: &[u8], room: u64) -> Result<usize, TreeError> {
    let len = u32::from_le_bytes(bytes[1..HEADER].try_into().expect("4 bytes")) as usize;
    let total = FRAMING + len;
    if len > MAX_PAYLOAD || total as u64 > room {
        return Err(TreeError::Corrupt);
    }
    Ok(total)
}

/// Checks a whole record against the checksum it ends with.
fn verify(record: &[u8]) -> Result<(), TreeError> {
    let (body, stored) = record.split_last_chunk::<4>().ok_or(TreeError::Corrupt)?;
    if crc32(body) != u32::from_le_bytes(*stored) {
        return Err(TreeError::Corrupt);
    }
    Ok(())
}

/// The log's bytes from `at` to its tail, if a record's framing fits.
fn room_at(tail: u64, at: u64) -> Option<u64> {
    tail.checked_sub(at).filter(|room| *room >= FRAMING as u64)
}

/// Reads the record at `at` in one `read_at`: a bounded span that the
/// header is then parsed out of.
async fn read_record<L: AppendLog>(log: &L, at: u64) -> Result<Record, TreeError> {
    let room = room_at(log.tail(), at).ok_or(TreeError::Corrupt)?;
    let mut bytes = log.read_at(at, room.min(READ_SPAN as u64) as usize).await?;
    let total = record_len(&bytes, room)?;
    if total > bytes.len() {
        bytes = log.read_at(at, total).await?;
    }
    bytes.truncate(total);
    verify(&bytes)?;
    Ok(Record(bytes))
}

/// Bytes a recovery scan reads at a time: one page-sized ring request.
const SCAN_WINDOW: u64 = 8 * SECTOR as u64;

/// A recovery scan's read-ahead: the log from `base` on, as far as it has
/// been read.
#[derive(Default)]
struct Window {
    base: u64,
    bytes: Vec<u8>,
}

impl Window {
    /// The log from `pos`, at least `need` bytes of it (which the log
    /// holds, below `tail`). What the scan has passed is dropped and the
    /// next window read in behind what is kept, so a record that straddles
    /// a window's end is not read twice.
    async fn at<L: AppendLog>(
        &mut self,
        log: &L,
        tail: u64,
        pos: u64,
        need: usize,
    ) -> Result<&[u8], TreeError> {
        let end = self.base + self.bytes.len() as u64;
        if end - pos < need as u64 {
            self.bytes.drain(..(pos - self.base) as usize);
            self.base = pos;
            let more = (pos + need as u64 - end).max(SCAN_WINDOW).min(tail - end);
            self.bytes.extend(log.read_at(end, more as usize).await?);
        }
        Ok(&self.bytes[(pos - self.base) as usize..])
    }
}

/// Tree statistics (Figure 12 harness introspection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TreeStats {
    /// Committed mutations.
    pub commits: u64,
    /// Nodes written (copy-on-write traffic).
    pub nodes_written: u64,
    /// Log bytes at last commit.
    pub log_bytes: u64,
    /// Node records read from the log: every leaf, and interior nodes the
    /// cache did not hold.
    pub node_reads: u64,
    /// Interior-node loads served from the cache.
    pub cache_hits: u64,
    /// Log appends issued: one per committed mutation.
    pub appends: u64,
}

/// Decoded interior nodes by log offset — leaves are the application's to
/// cache. Records are immutable, so an entry is never wrong, only
/// unwanted. Two generations approximate LRU in O(1): a hit in `old` moves
/// the node to `young`, and when `young` holds half the bound `old` is
/// dropped and `young` takes its place.
#[derive(Default)]
struct NodeCache {
    young: DetHashMap<u64, Arc<Interior>>,
    old: DetHashMap<u64, Arc<Interior>>,
}

impl NodeCache {
    fn get(&mut self, at: u64) -> Option<Arc<Interior>> {
        if let Some(node) = self.young.get(&at) {
            return Some(Arc::clone(node));
        }
        let node = self.old.remove(&at)?;
        self.insert(at, &node);
        Some(node)
    }

    fn insert(&mut self, at: u64, node: &Arc<Interior>) {
        if self.young.len() >= CACHE_NODES / 2 {
            self.old = std::mem::take(&mut self.young);
        }
        self.young.insert(at, Arc::clone(node));
    }

    fn remove(&mut self, at: u64) {
        if self.young.remove(&at).is_none() {
            self.old.remove(&at);
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }
}

#[derive(Default)]
struct LockState {
    held: bool,
    waiters: VecDeque<Sender<WriterGuard>>,
}

/// FIFO mutual exclusion for writers. A waiter parks on a channel and the
/// releasing writer sends it the guard itself, so the lock is handed over
/// rather than raced for, and a waiter that gave up — its receiver
/// dropped, before or after the hand-over — drops the guard, which passes
/// the lock on.
#[derive(Default)]
struct WriterLock {
    state: Arc<Mutex<LockState>>,
}

struct WriterGuard {
    state: Arc<Mutex<LockState>>,
}

impl WriterLock {
    async fn acquire(&self) -> WriterGuard {
        let mut turn = {
            let mut st = self.state.lock();
            if !st.held {
                st.held = true;
                return WriterGuard {
                    state: Arc::clone(&self.state),
                };
            }
            let (tx, rx) = channel::channel();
            st.waiters.push_back(tx);
            rx
        };
        turn.recv()
            .await
            .expect("a queued waiter is sent the guard or is next in line for it")
    }
}

impl Drop for WriterGuard {
    fn drop(&mut self) {
        let next = {
            let mut st = self.state.lock();
            let next = st.waiters.pop_front();
            st.held = next.is_some();
            next
        };
        if let Some(waiter) = next {
            // A refused guard comes back in the `Err` and is dropped here,
            // which offers the lock to the waiter after.
            let _ = waiter.send(WriterGuard {
                state: Arc::clone(&self.state),
            });
        }
    }
}

struct State {
    root: Option<u64>,
    generation: u64,
    stats: TreeStats,
    cache: NodeCache,
}

struct Shared<L> {
    log: L,
    state: Mutex<State>,
    writer: WriterLock,
}

/// The append-only B-tree over any [`AppendLog`]. The tree must be its
/// log's only writer: it lays a batch out at offsets computed from the
/// tail before appending it.
pub struct Tree<L> {
    shared: Arc<Shared<L>>,
}

impl<L> Clone for Tree<L> {
    fn clone(&self) -> Self {
        Tree {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<L: AppendLog> std::fmt::Debug for Tree<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tree(root={:?})", self.shared.state.lock().root)
    }
}

/// One interior node on a root-to-leaf walk.
struct Step {
    at: u64,
    node: Arc<Interior>,
    /// Index of the child the walk took.
    idx: usize,
}

/// What [`Tree::load`] found at an offset.
enum Loaded {
    Interior(Arc<Interior>),
    /// A leaf's record, checksum verified; [`leaf_pairs`] walks it.
    Leaf(Record),
}

/// What a rewritten child hands its parent.
enum Carry {
    One(u64),
    Split(u64, Vec<u8>, u64),
}

/// The records of one mutation, laid out at the offsets they will have
/// once appended at `base`.
struct Batch {
    base: u64,
    buf: Vec<u8>,
    nodes: u64,
    interior: Vec<(u64, Arc<Interior>)>,
}

impl Batch {
    /// A batch to append at `base`, with room for `path` rewritten around a
    /// leaf record of `leaf` bytes and for the commit record: what it will
    /// hold unless a node splits.
    fn new(base: u64, path: &[Step], leaf: usize) -> Batch {
        let interior = |step: &Step| FRAMING + step.node.encoded_len();
        let room = leaf + path.iter().map(interior).sum::<usize>() + FRAMING + 16;
        Batch {
            base,
            buf: Vec::with_capacity(room),
            nodes: 0,
            interior: Vec::new(),
        }
    }

    fn push(&mut self, tag: u8, payload: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let at = self.base + self.buf.len() as u64;
        put_record(&mut self.buf, tag, payload);
        self.nodes += 1;
        at
    }

    fn push_interior(&mut self, node: Interior) -> u64 {
        let at = self.push(TAG_NODE, |out| node.encode(out));
        self.interior.push((at, Arc::new(node)));
        at
    }

    /// Pushes a leaf, as two halves if it outgrew [`MAX_KEYS`].
    fn push_leaf(&mut self, pairs: &[Pair<'_>]) -> Carry {
        if pairs.len() <= MAX_KEYS {
            return Carry::One(self.push(TAG_LEAF, |out| encode_leaf(out, pairs)));
        }
        let (left, right) = pairs.split_at(pairs.len() / 2);
        let sep = right[0].0.to_vec();
        let left = self.push(TAG_LEAF, |out| encode_leaf(out, left));
        let right = self.push(TAG_LEAF, |out| encode_leaf(out, right));
        Carry::Split(left, sep, right)
    }

    /// Rewrites the interior nodes of `path`, leaf end first, around the
    /// rewritten child `carry`; returns the new root's offset.
    fn push_path(&mut self, path: &[Step], mut carry: Carry) -> u64 {
        for step in path.iter().rev() {
            // Two flat vectors, whatever the node's fan-out.
            let mut node = Interior::clone(&step.node);
            match carry {
                Carry::One(child) => node.children[step.idx] = child,
                Carry::Split(left, sep, right) => {
                    node.children[step.idx] = left;
                    node.children.insert(step.idx + 1, right);
                    let at = node.sep_offset(step.idx);
                    let mut field = Vec::with_capacity(4 + sep.len());
                    put_bytes(&mut field, &sep);
                    node.seps.splice(at..at, field);
                }
            }
            carry = if node.children.len() <= MAX_KEYS {
                Carry::One(self.push_interior(node))
            } else {
                // The separator in the middle moves up; the halves keep
                // what lies either side of it.
                let mid = node.children.len() / 2;
                let cut = node.sep_offset(mid - 1);
                let mut upper = Fields(&node.seps[cut..]);
                let sep = upper.next().expect("one separator per gap").to_vec();
                let right = Interior {
                    children: node.children.split_off(mid),
                    seps: upper.0.to_vec(),
                };
                node.seps.truncate(cut);
                Carry::Split(self.push_interior(node), sep, self.push_interior(right))
            };
        }
        match carry {
            Carry::One(root) => root,
            Carry::Split(left, sep, right) => {
                let mut seps = Vec::new();
                put_bytes(&mut seps, &sep);
                self.push_interior(Interior {
                    children: vec![left, right],
                    seps,
                })
            }
        }
    }
}

impl<L: AppendLog + 'static> Tree<L> {
    /// An empty tree over a fresh log.
    pub fn new(log: L) -> Tree<L> {
        Tree {
            shared: Arc::new(Shared {
                log,
                state: Mutex::new(State {
                    root: None,
                    generation: 0,
                    stats: TreeStats::default(),
                    cache: NodeCache::default(),
                }),
                writer: WriterLock::default(),
            }),
        }
    }

    /// Recovers a tree from an existing log by scanning for the last valid
    /// commit record. Whatever follows it — a torn batch — is cut off, so
    /// that the next commit lands where the next recovery's scan reaches
    /// it.
    ///
    /// # Errors
    ///
    /// Device errors only — an empty or fully-torn log recovers to an
    /// empty tree.
    pub async fn recover(log: L) -> Result<Tree<L>, TreeError> {
        let tail = log.tail();
        let mut pos = 0u64;
        let mut last_commit = None; // (root offset, generation, end of record)
        let mut window = Window::default();
        // The log is read once, front to back; a record is held to what
        // `read_record` holds it to. Torn or corrupt: stop scanning.
        while let Some(room) = room_at(tail, pos) {
            let header = window.at(&log, tail, pos, HEADER).await?;
            let Ok(total) = record_len(header, room) else {
                break;
            };
            let record = &window.at(&log, tail, pos, total).await?[..total];
            if verify(record).is_err() {
                break;
            }
            pos += total as u64;
            let payload = <[u8; 16]>::try_from(&record[HEADER..total - 4]);
            if let (TAG_COMMIT, Ok(payload)) = (record[0], payload) {
                let root = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                let generation = u64::from_le_bytes(payload[8..].try_into().expect("8 bytes"));
                last_commit = Some((root, generation, pos));
            }
        }
        log.truncate(last_commit.map_or(0, |(_, _, end)| end));
        let tree = Tree::new(log);
        if let Some((root, generation, _)) = last_commit {
            let mut st = tree.shared.state.lock();
            st.root = Some(root);
            st.generation = generation;
        }
        Ok(tree)
    }

    fn root(&self) -> Option<u64> {
        self.shared.state.lock().root
    }

    /// Loads the node at `at`: an interior node from the cache or decoded
    /// into it, a leaf as its record.
    async fn load(&self, at: u64) -> Result<Loaded, TreeError> {
        {
            let mut st = self.shared.state.lock();
            if let Some(node) = st.cache.get(at) {
                st.stats.cache_hits += 1;
                return Ok(Loaded::Interior(node));
            }
        }
        let rec = read_record(&self.shared.log, at).await?;
        let loaded = match rec.tag() {
            TAG_LEAF => Loaded::Leaf(rec),
            TAG_NODE => Loaded::Interior(Arc::new(
                Interior::decode(rec.payload(), at).ok_or(TreeError::Corrupt)?,
            )),
            _ => return Err(TreeError::Corrupt),
        };
        let mut st = self.shared.state.lock();
        st.stats.node_reads += 1;
        if let Loaded::Interior(node) = &loaded {
            st.cache.insert(at, node);
        }
        Ok(loaded)
    }

    /// Walks from `root` to the leaf that owns `key`: the interior nodes
    /// passed, and the leaf's record.
    async fn descend(&self, root: u64, key: &[u8]) -> Result<(Vec<Step>, Record), TreeError> {
        let mut path = Vec::new();
        let mut at = root;
        loop {
            match self.load(at).await? {
                Loaded::Leaf(leaf) => return Ok((path, leaf)),
                Loaded::Interior(node) => {
                    let (idx, child) = node.child_for(key);
                    path.push(Step { at, node, idx });
                    at = child;
                }
            }
        }
    }

    /// Appends `batch` and a commit record for `root` in one write — the
    /// commit record last, so a batch torn anywhere recovers to the
    /// previous commit — then publishes the new root.
    async fn commit(
        &self,
        mut batch: Batch,
        root: u64,
        superseded: &[Step],
    ) -> Result<(), TreeError> {
        let shared = &*self.shared;
        let generation = shared.state.lock().generation + 1;
        put_record(&mut batch.buf, TAG_COMMIT, |out| {
            out.extend_from_slice(&root.to_le_bytes());
            out.extend_from_slice(&generation.to_le_bytes());
        });
        let at = shared.log.append(batch.buf).await?;
        if at != batch.base {
            // Another writer moved the tail: every offset in the batch is
            // wrong, and so must not be found by a recovery.
            shared.log.truncate(at);
            return Err(TreeError::Corrupt);
        }
        let mut st = shared.state.lock();
        st.root = Some(root);
        st.generation = generation;
        for step in superseded {
            st.cache.remove(step.at);
        }
        for (at, node) in &batch.interior {
            st.cache.insert(*at, node);
        }
        st.stats.commits += 1;
        st.stats.appends += 1;
        st.stats.nodes_written += batch.nodes;
        st.stats.log_bytes = shared.log.tail();
        Ok(())
    }

    /// Looks a key up.
    ///
    /// # Errors
    ///
    /// [`TreeError::Corrupt`] if a referenced record fails its checksum.
    pub async fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, TreeError> {
        let Some(mut at) = self.root() else {
            return Ok(None);
        };
        loop {
            match self.load(at).await? {
                Loaded::Leaf(leaf) => {
                    let pairs = leaf_pairs(leaf.payload())?;
                    return Ok(pairs
                        .binary_search_by(|(k, _)| (*k).cmp(key))
                        .ok()
                        .map(|i| pairs[i].1.to_vec()));
                }
                Loaded::Interior(node) => at = node.child_for(key).1,
            }
        }
    }

    /// Inserts or replaces a key.
    ///
    /// # Errors
    ///
    /// Propagates log failures; the tree is unchanged if the commit record
    /// never lands (crash atomicity).
    pub async fn set(&self, key: &[u8], value: &[u8]) -> Result<(), TreeError> {
        let _writer = self.shared.writer.acquire().await;
        let (path, leaf) = match self.root() {
            Some(root) => {
                let (path, leaf) = self.descend(root, key).await?;
                (path, Some(leaf))
            }
            None => (Vec::new(), None),
        };
        let payload = leaf.as_ref().map_or(EMPTY_LEAF, Record::payload);
        let mut pairs = leaf_pairs(payload)?;
        match pairs.binary_search_by(|(k, _)| (*k).cmp(key)) {
            Ok(i) => pairs[i].1 = value,
            Err(i) => pairs.insert(i, (key, value)),
        }
        let grown = FRAMING + payload.len() + 8 + key.len() + value.len();
        let mut batch = Batch::new(self.shared.log.tail(), &path, grown);
        let carry = batch.push_leaf(&pairs);
        let new_root = batch.push_path(&path, carry);
        self.commit(batch, new_root, &path).await
    }

    /// Removes a key (no-op if absent). Nodes may underflow by design.
    ///
    /// # Errors
    ///
    /// Propagates log failures.
    pub async fn delete(&self, key: &[u8]) -> Result<bool, TreeError> {
        let _writer = self.shared.writer.acquire().await;
        let Some(root) = self.root() else {
            return Ok(false);
        };
        let (path, leaf) = self.descend(root, key).await?;
        let mut pairs = leaf_pairs(leaf.payload())?;
        let Ok(i) = pairs.binary_search_by(|(k, _)| (*k).cmp(key)) else {
            return Ok(false);
        };
        pairs.remove(i);
        let mut batch = Batch::new(self.shared.log.tail(), &path, leaf.0.len());
        let carry = batch.push_leaf(&pairs);
        let new_root = batch.push_path(&path, carry);
        self.commit(batch, new_root, &path).await?;
        Ok(true)
    }

    /// Every key/value pair in key order.
    ///
    /// # Errors
    ///
    /// Propagates log failures.
    pub async fn scan(&self) -> Result<Vec<(Vec<u8>, Vec<u8>)>, TreeError> {
        let Some(root) = self.root() else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        let mut stack = vec![root];
        // Depth-first, children pushed in reverse for in-order output.
        while let Some(at) = stack.pop() {
            match self.load(at).await? {
                Loaded::Leaf(leaf) => {
                    let pairs = leaf_pairs(leaf.payload())?;
                    out.extend(pairs.iter().map(|(k, v)| (k.to_vec(), v.to_vec())));
                }
                Loaded::Interior(node) => stack.extend(node.children.iter().rev()),
            }
        }
        Ok(out)
    }

    /// Rewrites the live tree into `fresh_log`, dropping dead nodes.
    ///
    /// # Errors
    ///
    /// Propagates log failures.
    pub async fn compact<M: AppendLog + 'static>(&self, fresh_log: M) -> Result<Tree<M>, TreeError> {
        let pairs = self.scan().await?;
        let fresh = Tree::new(fresh_log);
        for (k, v) in pairs {
            fresh.set(&k, &v).await?;
        }
        Ok(fresh)
    }

    /// Counters.
    pub fn stats(&self) -> TreeStats {
        self.shared.state.lock().stats
    }

    /// Exposes the log for fault injection in tests.
    pub fn log(&self) -> &L {
        &self.shared.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDisk;
    use mirage_hypervisor::Hypervisor;
    use mirage_runtime::{Runtime, UnikernelGuest};
    use mirage_testkit::prop::{any, collection};

    fn run_case<F, Fut>(f: F)
    where
        F: FnOnce(Runtime) -> Fut + Send + 'static,
        Fut: std::future::Future<Output = i64> + Send + 'static,
    {
        let guest = UnikernelGuest::new(move |_env, rt| {
            let rt2 = rt.clone();
            rt.spawn(async move { f(rt2).await })
        });
        let mut hv = Hypervisor::new();
        let dom = hv.create_domain("btree", 64, Box::new(guest));
        hv.run();
        assert_eq!(hv.exit_code(dom), Some(0));
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn set_get_delete_basics() {
        run_case(|_rt| async move {
            let tree = Tree::new(MemLog::new());
            assert_eq!(tree.get(b"a").await.unwrap(), None);
            tree.set(b"a", b"1").await.unwrap();
            tree.set(b"b", b"2").await.unwrap();
            tree.set(b"a", b"updated").await.unwrap();
            assert_eq!(tree.get(b"a").await.unwrap().as_deref(), Some(&b"updated"[..]));
            assert_eq!(tree.get(b"b").await.unwrap().as_deref(), Some(&b"2"[..]));
            assert!(tree.delete(b"a").await.unwrap());
            assert!(!tree.delete(b"a").await.unwrap());
            assert_eq!(tree.get(b"a").await.unwrap(), None);
            0
        });
    }

    #[test]
    fn many_keys_force_splits_and_stay_sorted() {
        run_case(|_rt| async move {
            let tree = Tree::new(MemLog::new());
            for i in (0..500u32).rev() {
                tree.set(format!("key{i:05}").as_bytes(), &i.to_le_bytes())
                    .await
                    .unwrap();
            }
            for i in 0..500u32 {
                assert_eq!(
                    tree.get(format!("key{i:05}").as_bytes()).await.unwrap(),
                    Some(i.to_le_bytes().to_vec())
                );
            }
            let scan = tree.scan().await.unwrap();
            assert_eq!(scan.len(), 500);
            assert!(scan.windows(2).all(|w| w[0].0 < w[1].0), "in key order");
            0
        });
    }

    #[test]
    fn recovery_finds_last_commit() {
        run_case(|_rt| async move {
            let log = MemLog::new();
            {
                let tree = Tree::new(log.clone());
                tree.set(b"persist", b"yes").await.unwrap();
                tree.set(b"more", b"data").await.unwrap();
            }
            let tree = Tree::recover(log).await.unwrap();
            assert_eq!(tree.get(b"persist").await.unwrap().as_deref(), Some(&b"yes"[..]));
            assert_eq!(tree.get(b"more").await.unwrap().as_deref(), Some(&b"data"[..]));
            0
        });
    }

    #[test]
    fn torn_write_rolls_back_to_previous_commit() {
        run_case(|_rt| async move {
            let log = MemLog::new();
            let len_after_first;
            {
                let tree = Tree::new(log.clone());
                tree.set(b"committed", b"1").await.unwrap();
                len_after_first = log.tail();
                tree.set(b"torn", b"2").await.unwrap();
            }
            // Tear the second mutation in half.
            log.truncate(len_after_first + 7);
            let tree = Tree::recover(log).await.unwrap();
            assert_eq!(
                tree.get(b"committed").await.unwrap().as_deref(),
                Some(&b"1"[..]),
                "first commit survives"
            );
            assert_eq!(tree.get(b"torn").await.unwrap(), None, "torn write discarded");
            // And the tree is still writable.
            tree.set(b"after", b"3").await.unwrap();
            assert_eq!(tree.get(b"after").await.unwrap().as_deref(), Some(&b"3"[..]));
            0
        });
    }

    #[test]
    fn empty_log_recovers_to_empty_tree() {
        run_case(|_rt| async move {
            let tree = Tree::recover(MemLog::new()).await.unwrap();
            assert_eq!(tree.get(b"x").await.unwrap(), None);
            0
        });
    }

    #[test]
    fn compaction_shrinks_the_log() {
        run_case(|_rt| async move {
            let tree = Tree::new(MemLog::new());
            for i in 0..100u32 {
                tree.set(b"hot", &i.to_le_bytes()).await.unwrap();
            }
            let before = tree.log().tail();
            let compacted = tree.compact(MemLog::new()).await.unwrap();
            assert!(compacted.log().tail() < before / 10, "dead versions dropped");
            assert_eq!(
                compacted.get(b"hot").await.unwrap(),
                Some(99u32.to_le_bytes().to_vec())
            );
            0
        });
    }

    #[test]
    fn works_over_a_block_log() {
        run_case(|_rt| async move {
            let tree = Tree::new(BlockLog::new(MemDisk::new(4096), 0));
            for i in 0..64u32 {
                tree.set(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                    .await
                    .unwrap();
            }
            assert_eq!(tree.get(b"k42").await.unwrap(), Some(b"v42".to_vec()));
            0
        });
    }

    mirage_testkit::property! {
        #![cases(16)]
        /// The tree agrees with a BTreeMap model under random workloads.
        fn prop_model_check(ops in collection::vec(
            (0u8..3, 0u16..64, collection::vec(any::<u8>(), 0..8)),
            1..120,
        )) {
            run_case(move |_rt| async move {
                let tree = Tree::new(MemLog::new());
                let mut model = std::collections::BTreeMap::new();
                for (op, keyid, val) in ops {
                    let key = format!("key{keyid}").into_bytes();
                    match op {
                        0 => {
                            tree.set(&key, &val).await.unwrap();
                            model.insert(key, val);
                        }
                        1 => {
                            assert_eq!(tree.get(&key).await.unwrap(), model.get(&key).cloned());
                        }
                        _ => {
                            assert_eq!(tree.delete(&key).await.unwrap(), model.remove(&key).is_some());
                        }
                    }
                }
                let scan = tree.scan().await.unwrap();
                let expect: Vec<(Vec<u8>, Vec<u8>)> =
                    model.into_iter().collect();
                assert_eq!(scan, expect);
                0
            });
        }
    }

    /// The bit-at-a-time CRC-32 the table is built from, as the reference.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// Both paths against the reference: `crc32` (the folding kernel from
    /// 64 bytes where the CPU has it) and the table it falls back to.
    fn assert_crc32_paths(data: &[u8], context: &str) {
        let want = crc32_bitwise(data);
        assert_eq!(crc32(data), want, "crc32, {context}");
        assert_eq!(!crc32_table(!0, data), want, "crc32_table, {context}");
    }

    mirage_testkit::property! {
        #![cases(64)]
        /// Seeded lengths up to 64 KiB: many four-lane steps, any tail.
        fn prop_crc32_matches_bitwise(data in collection::vec(any::<u8>(), 0..65536)) {
            assert_crc32_paths(&data, &format!("{} bytes", data.len()));
        }
    }

    /// Every length to five four-lane steps, at every offset of one buffer
    /// within a 16-byte load: under the kernel's 64 bytes, every count of
    /// four-lane and one-lane folds and every tail, aligned or not.
    #[test]
    fn crc32_matches_bitwise_at_every_head_and_tail_of_the_wide_loop() {
        let buf: Vec<u8> = (0..336u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..16 {
            for len in 0..=320 {
                assert_crc32_paths(&buf[start..start + len], &format!("{len} bytes at {start}"));
            }
        }
    }

    /// The kernel's constants from 0xEDB8_8320 alone: `x^n mod P` and
    /// `⌊x^64 / P⌋` by carry-less long division, a bit at a time, each
    /// then bit-reflected over 33 bits.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crc32_fold_constants_derive_from_the_polynomial() {
        use clmul::{K1, K2, K3, K4, K5, MU, P};
        // P(x) in the normal bit order, its x^32 term included.
        let p = u64::from(0xEDB8_8320u32.reverse_bits()) | 1 << 32;
        // x^n / P(x): the quotient's low 64 bits and the remainder.
        let divide = |n: u32| {
            let (mut quotient, mut rem) = (0u64, 0u64);
            for bit in (0..=n).rev() {
                rem = rem << 1 | u64::from(bit == n);
                quotient <<= 1;
                if rem >> 32 == 1 {
                    rem ^= p;
                    quotient |= 1;
                }
            }
            (quotient, rem)
        };
        let reflect33 = |v: u64| v.reverse_bits() >> 31;
        let x_pow_mod = |n| reflect33(divide(n).1);
        let derived = [
            x_pow_mod(4 * 128 + 32),
            x_pow_mod(4 * 128 - 32),
            x_pow_mod(128 + 32),
            x_pow_mod(128 - 32),
            x_pow_mod(64),
            reflect33(p),
            reflect33(divide(64).0),
        ];
        assert_eq!([K1, K2, K3, K4, K5, P, MU].map(|k| k as u64), derived);
    }

    // ------------------------------------------------- leaves where they lie

    /// The decoded reference: a leaf exploded into owned vectors, as the
    /// tree held every leaf before it searched them in place.
    fn ref_decode_leaf(data: &[u8]) -> Option<Pairs> {
        let take = |pos: &mut usize| {
            let len = u32::from_le_bytes(data.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
            *pos += 4;
            let out = data.get(*pos..*pos + len)?.to_vec();
            *pos += len;
            Some(out)
        };
        let count = u16::from_le_bytes(data.get(0..2)?.try_into().ok()?) as usize;
        let mut pos = 2;
        (0..count)
            .map(|_| Some((take(&mut pos)?, take(&mut pos)?)))
            .collect()
    }

    fn ref_encode_leaf(pairs: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        let mut out = (pairs.len() as u16).to_le_bytes().to_vec();
        for (k, v) in pairs {
            put_bytes(&mut out, k);
            put_bytes(&mut out, v);
        }
        out
    }

    /// A log holding one leaf at offset 0 and the commit that roots it.
    fn log_of_leaf(payload: &[u8]) -> Vec<u8> {
        let mut log = Vec::new();
        put_record(&mut log, TAG_LEAF, |out| out.extend_from_slice(payload));
        put_record(&mut log, TAG_COMMIT, |out| {
            out.extend_from_slice(&0u64.to_le_bytes());
            out.extend_from_slice(&1u64.to_le_bytes());
        });
        log
    }

    mirage_testkit::property! {
        #![cases(24)]
        /// A lookup and a set through the in-place walk do what they do to
        /// the decoded reference — hit or miss, where the pair goes, where
        /// the leaf splits and on which separator — at every size of leaf
        /// from empty to one past full.
        fn prop_the_in_place_walk_agrees_with_the_decoded_reference(
            leaf in collection::vec(
                (collection::vec(any::<u8>(), 0..3), collection::vec(any::<u8>(), 0..6)),
                24..25,
            ),
            pick in any::<u8>(),
            fresh in collection::vec(any::<u8>(), 0..3),
            value in collection::vec(any::<u8>(), 0..6),
        ) {
            run_case(move |_rt| async move {
                let sorted: std::collections::BTreeMap<_, _> = leaf.into_iter().collect();
                let all: Pairs = sorted.into_iter().take(MAX_KEYS + 1).collect();
                for size in 0..=all.len() {
                    let mut pairs = all[..size].to_vec();
                    // A key the leaf holds, two picks in three.
                    let key = match pairs.get(pick as usize % (size * 3 / 2 + 1)) {
                        Some((key, _)) => key.clone(),
                        None => fresh.clone(),
                    };
                    let payload = ref_encode_leaf(&pairs);
                    assert_eq!(ref_decode_leaf(&payload).as_ref(), Some(&pairs));
                    let image = log_of_leaf(&payload);
                    let tree = Tree::recover(mem_log_of(&image)).await.unwrap();

                    let found = pairs.binary_search_by(|(k, _)| k.cmp(&key));
                    assert_eq!(
                        tree.get(&key).await.unwrap(),
                        found.ok().map(|i| pairs[i].1.clone())
                    );

                    // What the reference appends for the set: the leaf, or
                    // its halves under a new root, and the commit.
                    match found {
                        Ok(i) => pairs[i].1 = value.clone(),
                        Err(i) => pairs.insert(i, (key.clone(), value.clone())),
                    }
                    let mut expect = image.clone();
                    let put_leaf = |log: &mut Vec<u8>, pairs: &[(Vec<u8>, Vec<u8>)]| {
                        let at = log.len() as u64;
                        put_record(log, TAG_LEAF, |out| out.extend(ref_encode_leaf(pairs)));
                        at
                    };
                    let root = if pairs.len() <= MAX_KEYS {
                        put_leaf(&mut expect, &pairs)
                    } else {
                        let right = pairs.split_off(pairs.len() / 2);
                        let halves = [put_leaf(&mut expect, &pairs), put_leaf(&mut expect, &right)];
                        let at = expect.len() as u64;
                        put_record(&mut expect, TAG_NODE, |out| {
                            out.extend_from_slice(&2u16.to_le_bytes());
                            halves.iter().for_each(|c| out.extend_from_slice(&c.to_le_bytes()));
                            put_bytes(out, &right[0].0);
                        });
                        pairs.extend(right);
                        at
                    };
                    put_record(&mut expect, TAG_COMMIT, |out| {
                        out.extend_from_slice(&root.to_le_bytes());
                        out.extend_from_slice(&2u64.to_le_bytes());
                    });
                    tree.set(&key, &value).await.unwrap();
                    let tail = tree.log().tail();
                    assert_eq!(tree.log().read_at(0, tail as usize).await.unwrap(), expect);
                    assert_eq!(tree.scan().await.unwrap(), pairs);
                    assert!(tree.delete(&key).await.unwrap());
                    pairs.retain(|(k, _)| *k != key);
                    assert_eq!(tree.scan().await.unwrap(), pairs);
                }
                0
            });
        }
    }

    // ------------------------------------------------------- the I/O budget

    /// A `MemDisk` that counts device reads and writes and, given a
    /// runtime, yields before each so that tasks interleave inside an I/O.
    #[derive(Clone)]
    struct Probe {
        disk: MemDisk,
        io: Arc<Mutex<(u64, u64)>>,
        yield_with: Option<Runtime>,
    }

    impl Probe {
        fn new(yield_with: Option<Runtime>) -> Probe {
            Probe {
                disk: MemDisk::new(1 << 16),
                io: Arc::default(),
                yield_with,
            }
        }

        /// `(reads, writes)` since the last call.
        fn take(&self) -> (u64, u64) {
            std::mem::take(&mut *self.io.lock())
        }

        fn counted<T: Send + 'static>(
            &self,
            count: fn(&mut (u64, u64)),
            io: BoxFuture<T>,
        ) -> BoxFuture<T> {
            count(&mut self.io.lock());
            let yield_with = self.yield_with.clone();
            Box::pin(async move {
                if let Some(rt) = yield_with {
                    rt.yield_now().await;
                }
                io.await
            })
        }
    }

    impl BlockIo for Probe {
        fn sector_count(&self) -> u64 {
            self.disk.sector_count()
        }

        fn read(&self, sector: u64, count: u32) -> BoxFuture<Result<Vec<u8>, BlockError>> {
            self.counted(|io| io.0 += 1, self.disk.read(sector, count))
        }

        fn write(&self, sector: u64, data: Vec<u8>) -> BoxFuture<Result<(), BlockError>> {
            self.counted(|io| io.1 += 1, self.disk.write(sector, data))
        }
    }

    fn key(k: u32) -> Vec<u8> {
        format!("key{k:08}").into_bytes()
    }

    /// The benchmark's tree: 3 000 keys of 128-byte values, preloaded in
    /// key order.
    async fn preload<L: AppendLog + 'static>(log: L) -> Tree<L> {
        let tree = Tree::new(log);
        for k in 0..3000 {
            tree.set(&key(k), &[k as u8; 128]).await.unwrap();
        }
        tree
    }

    #[test]
    fn get_costs_one_read_and_set_one_read_one_write() {
        run_case(|_rt| async move {
            let probe = Probe::new(None);
            let tree = preload(BlockLog::new(probe.clone(), 0)).await;
            let st = tree.stats();
            assert_eq!(
                probe.take(),
                (st.node_reads, st.appends),
                "every device read loaded a node: none was made by an append"
            );
            assert_eq!(st.appends, st.commits);

            for k in [0, 1499, 2999] {
                let before = tree.stats();
                assert_eq!(tree.get(&key(k)).await.unwrap(), Some(vec![k as u8; 128]));
                assert_eq!(
                    probe.take(),
                    (1, 0),
                    "a get reads its leaf and nothing else"
                );
                let after = tree.stats();
                assert_eq!(after.node_reads - before.node_reads, 1);
                assert_eq!(after.cache_hits - before.cache_hits, 3, "a height-4 tree");
            }

            tree.set(&key(1499), b"replaced").await.unwrap();
            assert_eq!(
                probe.take(),
                (1, 1),
                "a set reads its leaf and writes its batch"
            );

            // New keys into one leaf until it splits.
            let mut split = false;
            for i in 0..10u8 {
                let before = tree.stats().nodes_written;
                let mut k = key(100);
                k.push(b'a' + i);
                tree.set(&k, b"new").await.unwrap();
                assert_eq!(probe.take(), (1, 1));
                split |= tree.stats().nodes_written - before > 4;
            }
            assert!(split, "ten keys into a half-full leaf split it");
            0
        });
    }

    #[test]
    fn recovery_reads_the_log_once() {
        run_case(|_rt| async move {
            let probe = Probe::new(None);
            let tree = preload(BlockLog::new(probe.clone(), 0)).await;
            let log_bytes = tree.stats().log_bytes;
            probe.take();
            let remounted = Tree::recover(BlockLog::new(probe.clone(), log_bytes))
                .await
                .unwrap();
            // A read per record made 14 174 of them over these 7.8 MB.
            let (reads, writes) = probe.take();
            assert!(
                reads <= log_bytes / 4096 + 2,
                "{reads} reads of {log_bytes} bytes"
            );
            assert_eq!(writes, 0);
            assert_eq!(remounted.log().tail(), log_bytes, "every commit was found");
            assert_eq!(
                remounted.get(&key(2999)).await.unwrap(),
                Some(vec![2999u32 as u8; 128])
            );
            0
        });
    }

    #[test]
    fn a_remount_mid_sector_reads_the_tail_back_once_and_keeps_it() {
        run_case(|_rt| async move {
            let probe = Probe::new(None);
            let first: Vec<u8> = (0..700u32).map(|i| i as u8).collect();
            BlockLog::new(probe.clone(), 0)
                .append(first.clone())
                .await
                .unwrap();
            assert_eq!(probe.take(), (0, 1), "an aligned tail needs no read");

            let log = BlockLog::new(probe.clone(), 700);
            assert_eq!(log.append(vec![0xB0; 300]).await.unwrap(), 700);
            assert_eq!(probe.take(), (1, 1), "the tail sector is read back, once");
            assert_eq!(log.append(vec![0xC0; 100]).await.unwrap(), 1000);
            assert_eq!(probe.take(), (0, 1), "and kept in memory from then on");
            let expect = [first.clone(), vec![0xB0; 300], vec![0xC0; 100]].concat();
            assert_eq!(log.read_at(0, 1100).await.unwrap(), expect);

            log.truncate(900);
            probe.take();
            assert_eq!(log.append(vec![0xD0; 50]).await.unwrap(), 900);
            assert_eq!(probe.take(), (1, 1), "a truncate forgets the tail");
            let expect = [&expect[..900], &[0xD0; 50]].concat();
            assert_eq!(log.read_at(0, 950).await.unwrap(), expect);
            0
        });
    }

    async fn live_interior_nodes<L: AppendLog + 'static>(tree: &Tree<L>) -> usize {
        let mut count = 0;
        let mut stack: Vec<u64> = tree.root().into_iter().collect();
        while let Some(at) = stack.pop() {
            let rec = read_record(tree.log(), at).await.unwrap();
            if rec.tag() == TAG_NODE {
                count += 1;
                stack.extend(Interior::decode(rec.payload(), at).unwrap().children);
            }
        }
        count
    }

    #[test]
    fn the_cache_holds_the_live_interior_nodes_and_no_more() {
        run_case(|_rt| async move {
            let tree = preload(MemLog::new()).await;
            let mut rng =
                mirage_testkit::rng::Rng::for_stream(mirage_testkit::test_seed(), "btree-cache");
            for _ in 0..10_000 {
                let k = key(rng.gen_range(0u32..3500));
                match rng.gen_range(0u32..10) {
                    0..=5 => drop(tree.get(&k).await.unwrap()),
                    6..=8 => tree.set(&k, &[7; 128]).await.unwrap(),
                    _ => drop(tree.delete(&k).await.unwrap()),
                }
                assert!(tree.shared.state.lock().cache.len() <= CACHE_NODES);
            }
            // Every commit evicted the path it superseded, so nothing dead
            // is left, and nothing live has had to be read twice.
            let cached = tree.shared.state.lock().cache.len();
            assert_eq!(cached, live_interior_nodes(&tree).await);
            0
        });
    }

    #[test]
    fn the_cache_is_bounded_keeps_what_is_used_and_refuses_leaves() {
        // Leaves are refused by type: the cache holds `Interior` only.
        let interior = |child| {
            Arc::new(Interior {
                seps: Vec::new(),
                children: vec![child],
            })
        };
        let mut cache = NodeCache::default();
        for at in 1..=10 * CACHE_NODES as u64 {
            cache.insert(at, &interior(at));
            assert!(cache.len() <= CACHE_NODES);
            // Offset 1 is looked up throughout, offset 2 never again.
            assert!(cache.get(1).is_some(), "a node in use survives");
        }
        assert!(cache.get(2).is_none(), "an unused node ages out");
        cache.remove(1);
        assert!(cache.get(1).is_none());
    }

    // ------------------------------------------------------------- writers

    #[test]
    fn interleaved_writers_lose_no_update() {
        run_case(|rt| async move {
            let tree = Tree::new(BlockLog::new(Probe::new(Some(rt.clone())), 0));
            let writers: Vec<_> = (0..2u32)
                .map(|w| {
                    let (tree, rt2) = (tree.clone(), rt.clone());
                    rt.spawn(async move {
                        for i in 0..200u32 {
                            tree.set(&key(i * 2 + w), &[w as u8; 16]).await.unwrap();
                            rt2.yield_now().await;
                        }
                    })
                })
                .collect();
            for w in writers {
                w.await;
            }
            assert_eq!(tree.stats().commits, 400);
            let model: std::collections::BTreeMap<_, _> = (0..400u32)
                .map(|k| (key(k), vec![(k % 2) as u8; 16]))
                .collect();
            for (k, v) in &model {
                assert_eq!(tree.get(k).await.unwrap().as_ref(), Some(v));
            }
            assert_eq!(
                tree.scan().await.unwrap(),
                model.into_iter().collect::<Vec<_>>()
            );
            0
        });
    }

    #[test]
    fn the_writer_lock_is_fifo_and_skips_waiters_that_gave_up() {
        use std::future::Future;
        let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
        let lock = WriterLock::default();
        let mut first = Box::pin(lock.acquire());
        let std::task::Poll::Ready(holder) = first.as_mut().poll(&mut cx) else {
            panic!("a free lock is taken at once");
        };
        let mut gave_up_early = Box::pin(lock.acquire());
        let mut gave_up_late = Box::pin(lock.acquire());
        let mut patient = Box::pin(lock.acquire());
        assert!(gave_up_early.as_mut().poll(&mut cx).is_pending());
        assert!(gave_up_late.as_mut().poll(&mut cx).is_pending());
        assert!(patient.as_mut().poll(&mut cx).is_pending());

        drop(gave_up_early); // before the hand-over: its sender finds no receiver
        drop(holder);
        assert!(
            patient.as_mut().poll(&mut cx).is_pending(),
            "FIFO: not its turn yet"
        );
        drop(gave_up_late); // after the hand-over: the guard dies in its channel
        let std::task::Poll::Ready(guard) = patient.as_mut().poll(&mut cx) else {
            panic!("the lock passed over both waiters that gave up");
        };
        drop(guard);
        assert!(!lock.state.lock().held);
    }

    /// A log with a second writer: every append finds a stray byte has
    /// been appended first.
    struct ContendedLog(MemLog);

    impl AppendLog for ContendedLog {
        fn append(&self, data: Vec<u8>) -> BoxFuture<Result<u64, BlockError>> {
            let log = self.0.clone();
            Box::pin(async move {
                log.append(vec![0xEE]).await?;
                log.append(data).await
            })
        }
        fn read_at(&self, offset: u64, len: usize) -> BoxFuture<Result<Vec<u8>, BlockError>> {
            self.0.read_at(offset, len)
        }
        fn tail(&self) -> u64 {
            self.0.tail()
        }
        fn truncate(&self, len: u64) {
            self.0.truncate(len)
        }
    }

    #[test]
    fn a_batch_that_lands_off_its_offsets_is_refused_and_removed() {
        run_case(|_rt| async move {
            let log = MemLog::new();
            Tree::new(log.clone()).set(b"kept", b"1").await.unwrap();
            let tree = Tree::recover(ContendedLog(log.clone())).await.unwrap();
            assert_eq!(tree.set(b"lost", b"2").await, Err(TreeError::Corrupt));
            assert_eq!(tree.get(b"lost").await.unwrap(), None);
            let tree = Tree::recover(log).await.unwrap();
            assert_eq!(
                tree.scan().await.unwrap(),
                vec![(b"kept".to_vec(), b"1".to_vec())]
            );
            0
        });
    }

    // ------------------------------------------------- crash consistency

    fn mem_log_of(bytes: &[u8]) -> MemLog {
        MemLog {
            data: Arc::new(Mutex::new(bytes.to_vec())),
        }
    }

    /// A disk holding `bytes` and zeroes after, mounted as after a crash:
    /// with no knowledge of where the log ends.
    fn disk_log_of(bytes: &[u8]) -> BlockLog<MemDisk> {
        let disk = MemDisk::new(1 << 12);
        disk.patch(0, bytes);
        let mounted = (bytes.len() as u64).next_multiple_of(SECTOR as u64) + 2 * SECTOR as u64;
        BlockLog::new(disk, mounted)
    }

    type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

    /// Runs `ops` against a tree and a model that is snapshotted at every
    /// acknowledged commit, then crashes the log at each cut — every
    /// `granule`-aligned offset inside the last batch, its two ends, and
    /// seeded offsets elsewhere — and requires recovery to yield exactly
    /// the snapshot of the last commit record that lies wholly below the
    /// cut, and a tree that a further commit and crash leave intact.
    async fn crash_oracle<L: AppendLog + 'static>(
        ops: Vec<(bool, u16, Vec<u8>)>,
        cut_seed: u64,
        granule: u64,
        log_of: fn(&[u8]) -> L,
    ) {
        let tree = Tree::recover(log_of(&[])).await.unwrap();
        let mut model = std::collections::BTreeMap::new();
        let mut commits: Vec<(u64, Pairs)> = vec![(0, Vec::new())];
        for (is_set, keyid, val) in ops {
            let key = format!("key{keyid}").into_bytes();
            let before = tree.stats().commits;
            if is_set {
                tree.set(&key, &val).await.unwrap();
                model.insert(key, val);
            } else {
                assert_eq!(
                    tree.delete(&key).await.unwrap(),
                    model.remove(&key).is_some()
                );
            }
            if tree.stats().commits > before {
                commits.push((tree.log().tail(), model.clone().into_iter().collect()));
            }
        }
        let end = tree.log().tail();
        let image = tree.log().read_at(0, end as usize).await.unwrap();
        let last_batch = commits[commits.len().saturating_sub(2)].0;

        let mut cuts = vec![last_batch, end];
        cuts.extend((last_batch + 1..end).filter(|c| c % granule == 0));
        let mut rng = mirage_testkit::rng::Rng::new(cut_seed);
        cuts.extend((0..16).map(|_| rng.gen_range(0..=end) / granule * granule));

        for cut in cuts {
            let (_, expect) = commits
                .iter()
                .rev()
                .find(|(at, _)| *at <= cut)
                .expect("commit 0");
            let tree = Tree::recover(log_of(&image[..cut as usize])).await.unwrap();
            assert_eq!(&tree.scan().await.unwrap(), expect, "cut at {cut} of {end}");

            tree.set(b"zz-after-crash", b"!").await.unwrap();
            let tail = tree.log().tail();
            let image = tree.log().read_at(0, tail as usize).await.unwrap();
            let tree = Tree::recover(log_of(&image)).await.unwrap();
            let mut expect = expect.clone();
            expect.push((b"zz-after-crash".to_vec(), b"!".to_vec()));
            assert_eq!(
                tree.scan().await.unwrap(),
                expect,
                "second crash, first cut at {cut}"
            );
        }
    }

    mirage_testkit::property! {
        #![cases(12)]
        /// A log cut at any byte recovers to a commit, never to a mix.
        fn prop_crash_oracle_mem_log(
            ops in collection::vec((any::<bool>(), 0u16..40, collection::vec(any::<u8>(), 0..40)), 1..60),
            cut_seed in any::<u64>(),
        ) {
            run_case(move |_rt| async move {
                crash_oracle(ops, cut_seed, 1, mem_log_of).await;
                0
            });
        }

        /// The same for a disk that persists whole sectors of a write, in
        /// order, and is remounted without a known length.
        fn prop_crash_oracle_block_log(
            ops in collection::vec((any::<bool>(), 0u16..40, collection::vec(any::<u8>(), 0..200)), 1..60),
            cut_seed in any::<u64>(),
        ) {
            run_case(move |_rt| async move {
                crash_oracle(ops, cut_seed, SECTOR as u64, disk_log_of).await;
                0
            });
        }
    }

    #[test]
    fn hostile_pointers_and_lengths_are_corrupt_not_panics() {
        run_case(|_rt| async move {
            // Values that read as record headers claiming more than the log
            // holds, more than any record may, and everything.
            let claims = [1000u32, MAX_PAYLOAD as u32 + 1, u32::MAX];
            let header = |claimed: u32| [&[TAG_LEAF][..], &claimed.to_le_bytes()].concat();
            let base = {
                let tree = Tree::new(MemLog::new());
                for claimed in claims {
                    let value = [header(claimed), vec![0; 40]].concat();
                    tree.set(&claimed.to_le_bytes(), &value).await.unwrap();
                }
                let tail = tree.log().tail();
                tree.log().read_at(0, tail as usize).await.unwrap()
            };
            let at = base.len() as u64;
            // `base` and then a commit record naming `root`.
            let rooted_at = |root: u64| {
                let mut log = base.clone();
                put_record(&mut log, TAG_COMMIT, |out| {
                    out.extend_from_slice(&root.to_le_bytes());
                    out.extend_from_slice(&9u64.to_le_bytes());
                });
                log
            };
            let mut hostile = Vec::new();

            // A root inside a value, where such a header is.
            for claimed in claims {
                let header = header(claimed);
                let inside = base
                    .windows(HEADER)
                    .position(|w| w == header)
                    .expect("stored");
                hostile.push(rooted_at(inside as u64));
            }
            // A root within a record's framing of the tail, at it, past it.
            let tail = at + (FRAMING + 16) as u64;
            hostile.extend([tail - 8, tail, tail + 100].map(rooted_at));
            // A root that is not a node: the commit record itself.
            hostile.push(rooted_at(at));
            // An interior node whose child pointer does not go backwards,
            // and one with no children.
            let mut forward = Vec::new();
            Interior {
                seps: Vec::new(),
                children: vec![at],
            }
            .encode(&mut forward);
            for payload in [forward, 0u16.to_le_bytes().to_vec()] {
                let mut log = base.clone();
                put_record(&mut log, TAG_NODE, |out| out.extend_from_slice(&payload));
                log.extend_from_slice(&rooted_at(at)[base.len()..]);
                hostile.push(log);
            }

            // Leaves whose checksum holds and whose contents do not: every
            // truncation of a valid payload, and every length field claiming
            // one byte too many, all that is left, and everything.
            let leaf = ref_encode_leaf(&[
                (b"a".to_vec(), b"first".to_vec()),
                (b"k".to_vec(), Vec::new()),
                (Vec::new(), b"z".to_vec()),
            ]);
            let mut leaves: Vec<_> = (0..leaf.len()).map(|cut| leaf[..cut].to_vec()).collect();
            let mut field = 2;
            while field < leaf.len() {
                let len = u32::from_le_bytes(leaf[field..field + 4].try_into().unwrap());
                let left = (leaf.len() - field - 4) as u32;
                for claimed in [left + 1, leaf.len() as u32, u32::MAX] {
                    let mut inflated = leaf.clone();
                    inflated[field..field + 4].copy_from_slice(&claimed.to_le_bytes());
                    leaves.push(inflated);
                }
                field += 4 + len as usize;
            }
            assert_eq!(leaves.len(), leaf.len() + 6 * 3);
            for payload in leaves {
                let mut log = base.clone();
                put_record(&mut log, TAG_LEAF, |out| out.extend_from_slice(&payload));
                log.extend_from_slice(&rooted_at(at)[base.len()..]);
                hostile.push(log);
            }

            for (i, log) in hostile.into_iter().enumerate() {
                let tree = Tree::recover(mem_log_of(&log)).await.unwrap();
                assert!(
                    tree.root().is_some_and(|r| r != 0),
                    "case {i}: the hostile commit is found"
                );
                assert_eq!(tree.get(b"k").await, Err(TreeError::Corrupt), "case {i}");
                assert_eq!(tree.scan().await, Err(TreeError::Corrupt), "case {i}");
                assert_eq!(tree.delete(b"k").await, Err(TreeError::Corrupt), "case {i}");
                assert_eq!(
                    tree.set(b"k", b"w").await,
                    Err(TreeError::Corrupt),
                    "case {i}"
                );
            }
            0
        });
    }
}
