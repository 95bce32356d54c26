//! The memcache text protocol (paper Table 1, Storage: "Memcache").
//!
//! A sans-io responder over [`crate::KvStore`]: feed it request
//! bytes as they arrive from any transport (TCP stream, vchan), take
//! response bytes back. The classic text commands the protocol's clients
//! use are supported: `get`, `set`, `delete`, `stats`, `version`.

use crate::kv::KvStore;

/// Incremental protocol state for one client connection.
#[derive(Debug)]
pub struct MemcacheSession {
    store: KvStore,
    /// Received bytes not yet consumed by a whole command.
    buf: Vec<u8>,
    /// No CRLF starts in `buf` before this offset: a line that arrives in
    /// pieces is scanned once, not once per piece.
    scanned: usize,
    /// Pending `set` body: (key, bytes still expected).
    pending_set: Option<(Vec<u8>, usize)>,
}

impl MemcacheSession {
    /// A session over a shared store.
    pub fn new(store: KvStore) -> MemcacheSession {
        MemcacheSession {
            store,
            buf: Vec::new(),
            scanned: 0,
            pending_set: None,
        }
    }

    /// Feeds received bytes; returns response bytes to transmit.
    ///
    /// Commands are parsed at a read offset and the consumed prefix is
    /// dropped once per call, so N pipelined commands cost O(bytes), not
    /// O(N × bytes).
    pub fn feed(&mut self, data: &[u8]) -> Vec<u8> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.extend_from_slice(data);
        let mut read = 0;
        let mut out = Vec::new();
        loop {
            // A `set` command is followed by <bytes> of data + CRLF.
            if let Some((key, len)) = self.pending_set.take() {
                let Some(body) = buf.get(read..read + len + 2) else {
                    self.pending_set = Some((key, len));
                    break;
                };
                let reply: &[u8] = match self.store.set(&key, body[..len].to_vec()) {
                    Some(_) => b"STORED\r\n",
                    None => b"SERVER_ERROR out of memory storing object\r\n",
                };
                out.extend_from_slice(reply);
                read += len + 2; // body + trailing CRLF
                continue;
            }
            let from = self.scanned.max(read);
            let Some(eol) = buf[from..].windows(2).position(|w| w == b"\r\n") else {
                // A trailing CR may yet be completed by the next feed.
                self.scanned = buf.len().saturating_sub(1).max(read);
                break;
            };
            let eol = from + eol;
            out.extend(self.dispatch(&buf[read..eol]));
            read = eol + 2;
        }
        buf.drain(..read);
        self.scanned -= read.min(self.scanned);
        self.buf = buf;
        out
    }

    fn dispatch(&mut self, line: &[u8]) -> Vec<u8> {
        let text = String::from_utf8_lossy(line);
        let mut parts = text.split_whitespace();
        match parts.next() {
            Some("get") => {
                let mut out = Vec::new();
                for key in parts {
                    if let Some((value, version)) = self.store.get(key.as_bytes()) {
                        out.extend_from_slice(
                            format!("VALUE {key} 0 {} {version}\r\n", value.len()).as_bytes(),
                        );
                        out.extend_from_slice(&value);
                        out.extend_from_slice(b"\r\n");
                    }
                }
                out.extend_from_slice(b"END\r\n");
                out
            }
            Some("set") => {
                // set <key> <flags> <exptime> <bytes>
                let key = parts.next().map(|k| k.as_bytes().to_vec());
                let bytes = parts.nth(2).and_then(|b| b.parse::<usize>().ok());
                match (key, bytes) {
                    (Some(key), Some(len)) if len <= 1 << 20 => {
                        self.pending_set = Some((key, len));
                        Vec::new() // reply comes after the body
                    }
                    _ => b"CLIENT_ERROR bad command line\r\n".to_vec(),
                }
            }
            Some("delete") => match parts.next() {
                Some(key) if self.store.delete(key.as_bytes()) => b"DELETED\r\n".to_vec(),
                Some(_) => b"NOT_FOUND\r\n".to_vec(),
                None => b"CLIENT_ERROR bad command line\r\n".to_vec(),
            },
            Some("stats") => {
                let st = self.store.stats();
                format!(
                    "STAT get_hits {}\r\nSTAT get_misses {}\r\nSTAT cmd_set {}\r\nSTAT curr_items {}\r\nEND\r\n",
                    st.hits,
                    st.misses,
                    st.sets,
                    self.store.len()
                )
                .into_bytes()
            }
            Some("version") => b"VERSION mirage-rs 0.1\r\n".to_vec(),
            Some("quit") => Vec::new(),
            _ => b"ERROR\r\n".to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    fn roundtrip(session: &mut MemcacheSession, input: &str) -> String {
        String::from_utf8(session.feed(input.as_bytes())).expect("utf8 responses")
    }

    #[test]
    fn set_get_delete_cycle() {
        let mut s = MemcacheSession::new(KvStore::new());
        assert_eq!(
            roundtrip(&mut s, "set greeting 0 0 5\r\nhello\r\n"),
            "STORED\r\n"
        );
        let got = roundtrip(&mut s, "get greeting\r\n");
        assert!(got.starts_with("VALUE greeting 0 5"), "{got}");
        assert!(got.contains("hello\r\nEND\r\n"));
        assert_eq!(roundtrip(&mut s, "delete greeting\r\n"), "DELETED\r\n");
        assert_eq!(roundtrip(&mut s, "delete greeting\r\n"), "NOT_FOUND\r\n");
        assert_eq!(roundtrip(&mut s, "get greeting\r\n"), "END\r\n");
    }

    #[test]
    fn multi_key_get() {
        let store = KvStore::new();
        store.set(b"a", b"1".to_vec());
        store.set(b"c", b"3".to_vec());
        let mut s = MemcacheSession::new(store);
        let got = roundtrip(&mut s, "get a b c\r\n");
        assert!(got.contains("VALUE a"), "{got}");
        assert!(!got.contains("VALUE b"));
        assert!(got.contains("VALUE c"));
        assert!(got.ends_with("END\r\n"));
    }

    #[test]
    fn chunked_arrival_is_handled() {
        let mut s = MemcacheSession::new(KvStore::new());
        let full = b"set k 0 0 8\r\n01234567\r\nget k\r\n";
        let mut out = Vec::new();
        for chunk in full.chunks(3) {
            out.extend(s.feed(chunk));
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("STORED\r\n"));
        assert!(text.contains("01234567"));
    }

    /// Feeds `stream` in the chunks `cuts` marks, concatenating replies.
    fn feed_in_chunks(stream: &[u8], cuts: &[usize]) -> Vec<u8> {
        let mut s = MemcacheSession::new(KvStore::new());
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        points.extend([0, stream.len()]);
        points.sort_unstable();
        points.windows(2).flat_map(|w| s.feed(&stream[w[0]..w[1]])).collect()
    }

    mirage_testkit::property! {
        /// Any chunking of a pipelined get/set/delete stream draws the
        /// same reply bytes as the stream fed whole.
        fn prop_chunking_never_changes_the_replies(
            ops in collection::vec(
                (0u8..3, 0u8..6, collection::vec(any::<u8>(), 0..12)),
                1..60,
            ),
            cuts in collection::vec(any::<usize>(), 0..40),
        ) {
            let mut stream = Vec::new();
            for (op, key, value) in ops {
                let line = match op {
                    0 => format!("get k{key} k{}\r\n", key / 2),
                    1 => format!("set k{key} 0 0 {}\r\n", value.len()),
                    _ => format!("delete k{key}\r\n"),
                };
                stream.extend_from_slice(line.as_bytes());
                if op == 1 {
                    stream.extend_from_slice(&value);
                    stream.extend_from_slice(b"\r\n");
                }
            }
            let whole = MemcacheSession::new(KvStore::new()).feed(&stream);
            assert_eq!(feed_in_chunks(&stream, &cuts), whole);
            let bytewise: Vec<usize> = (0..stream.len()).collect();
            assert_eq!(feed_in_chunks(&stream, &bytewise), whole, "a byte at a time");
        }
    }

    #[test]
    fn binary_safe_values() {
        let mut s = MemcacheSession::new(KvStore::new());
        let mut req = b"set blob 0 0 4\r\n".to_vec();
        req.extend_from_slice(&[0x00, 0xFF, 0x0D, 0x0A]); // includes CRLF bytes
        req.extend_from_slice(b"\r\n");
        let out = s.feed(&req);
        assert_eq!(out, b"STORED\r\n");
        let out = s.feed(b"get blob\r\n");
        assert!(out
            .windows(4)
            .any(|w| w == [0x00, 0xFF, 0x0D, 0x0A]));
    }

    #[test]
    fn garbage_and_oversize_rejected() {
        let mut s = MemcacheSession::new(KvStore::new());
        assert_eq!(roundtrip(&mut s, "frobnicate\r\n"), "ERROR\r\n");
        assert!(roundtrip(&mut s, "set k 0 0 notanumber\r\n").starts_with("CLIENT_ERROR"));
        assert!(roundtrip(&mut s, "set k 0 0 99999999\r\n").starts_with("CLIENT_ERROR"));
    }

    #[test]
    fn sets_past_the_key_cap_are_refused() {
        let store = KvStore::new();
        let mut s = MemcacheSession::new(store.clone());
        let mut refused = 0;
        for i in 0..100_000 {
            match roundtrip(&mut s, &format!("set k{i} 0 0 1\r\nv\r\n")).as_str() {
                "STORED\r\n" => {}
                "SERVER_ERROR out of memory storing object\r\n" => refused += 1,
                other => panic!("set k{i}: {other:?}"),
            }
        }
        assert_eq!(store.len(), crate::kv::MAX_KEYS);
        assert_eq!(refused, 100_000 - crate::kv::MAX_KEYS);
        assert_eq!(roundtrip(&mut s, "set k7 0 0 1\r\nw\r\n"), "STORED\r\n");
        assert!(roundtrip(&mut s, "get k7\r\n").contains("\r\nw\r\n"));
    }

    #[test]
    fn stats_and_version_respond() {
        let mut s = MemcacheSession::new(KvStore::new());
        roundtrip(&mut s, "set x 0 0 1\r\ny\r\n");
        roundtrip(&mut s, "get x\r\n");
        roundtrip(&mut s, "get missing\r\n");
        let stats = roundtrip(&mut s, "stats\r\n");
        assert!(stats.contains("STAT get_hits 1"), "{stats}");
        assert!(stats.contains("STAT get_misses 1"));
        assert!(stats.contains("STAT curr_items 1"));
        assert!(roundtrip(&mut s, "version\r\n").starts_with("VERSION"));
    }
}
