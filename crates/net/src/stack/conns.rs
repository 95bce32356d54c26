//! The connection table and its deadlines: everything that changes when a
//! TCP state machine produces output or a timer comes due.

use std::net::Ipv4Addr;

use mirage_testkit::wheel::{TimerId, TimerWheel};

use mirage_cstruct::PktBuf;
use mirage_hypervisor::Time;
use mirage_runtime::channel::{self, Receiver, Sender};

use super::egress::Egress;
use super::socket::{Cmd, StreamEvent};
use super::{Listeners, NetError, StackStats, TcpStream};
use crate::tcp::demux::{ConnTable, FlowKeyed};
use crate::tcp::{self, Connection, Event, TcpSegment};

pub(super) struct ConnEntry {
    conn: Connection,
    peer: (Ipv4Addr, u16),
    local_port: u16,
    events_tx: Sender<StreamEvent>,
    /// Receiver half parked here until the connection establishes.
    events_rx: Option<Receiver<StreamEvent>>,
    connect_reply: Option<Sender<Result<TcpStream, NetError>>>,
    from_listener: Option<u16>,
    dead: bool,
    /// The armed deadline-queue entry, if the connection has a pending
    /// timer (retransmit/persist/TIME-WAIT); the handle carries its
    /// deadline. Idle established connections keep this `None` and are
    /// never touched by `on_timers`.
    timer: Option<TimerId>,
    /// True while this entry sits in the `dirty` flush list.
    dirty: bool,
    /// True while counted in the stack's O(1) half-open gauge.
    half_open_counted: bool,
}

impl ConnEntry {
    /// The table entry for `conn`: an outbound connect answers on
    /// `connect_reply`, anything else was spawned by the listener on
    /// `local_port` and surfaces through its accept queue.
    pub(super) fn new(
        conn: Connection,
        peer: (Ipv4Addr, u16),
        local_port: u16,
        connect_reply: Option<Sender<Result<TcpStream, NetError>>>,
    ) -> ConnEntry {
        let (events_tx, events_rx) = channel::channel();
        ConnEntry {
            conn,
            peer,
            local_port,
            events_tx,
            events_rx: Some(events_rx),
            from_listener: connect_reply.is_none().then_some(local_port),
            connect_reply,
            dead: false,
            timer: None,
            dirty: false,
            half_open_counted: false,
        }
    }
}

/// The flow key the [`ConnTable`] (owned by the TCP demux
/// component, `tcp::demux`) indexes this entry under.
impl FlowKeyed for ConnEntry {
    fn quad(&self) -> (Ipv4Addr, u16, u16) {
        (self.peer.0, self.peer.1, self.local_port)
    }
}

/// Audited heap bytes one idle connection pins in the stack: the boxed
/// [`ConnEntry`] (TCB, stream sender, parked timer slot) plus the two
/// table index entries that find it (`conns` key + boxed-entry pointer,
/// `quads` key + id). An idle keep-alive connection holds no buffered
/// segments and arms no deadline, so this *is* its whole budget —
/// the C1M scenario prints it next to the measured RSS delta.
///
/// 456 B on x86-64: a 424 B `ConnEntry`, of which 360 B is the
/// `Connection` TCB with its 16 B of New Reno state, plus 32 B of index
/// entries. `idle_conn_budget_stays_within_512` pins the ceiling so TCB
/// growth can't land silently.
pub fn idle_conn_bytes() -> usize {
    std::mem::size_of::<ConnEntry>()
        + std::mem::size_of::<u64>()                        // conns key
        + std::mem::size_of::<usize>()                      // Box pointer
        + std::mem::size_of::<(Ipv4Addr, u16, u16)>()       // quads key
        + std::mem::size_of::<u64>()                        // quads value
}

/// Every TCP connection of one worker, the queue holding their deadlines,
/// and the occupancy gauges.
pub(super) struct Conns {
    table: ConnTable<ConnEntry>,
    /// Per-connection timer deadlines, by connection id: `on_timers` pays
    /// only for entries that are actually due.
    deadlines: TimerWheel<u64>,
    /// Scratch for draining due deadlines without a per-tick allocation.
    due_scratch: Vec<u64>,
    /// Connections with writes buffered since the last `flush_tx`
    /// (deduplicated by `ConnEntry::dirty`, drained without reallocating).
    dirty: Vec<u64>,
    /// What a state machine answers to a segment or a flush, written by
    /// the connection and drained by `apply`: its vectors keep their
    /// capacity, so a steady stream of segments allocates none.
    scratch: tcp::Output,
    /// Live count of listener-spawned SYN-received entries, maintained
    /// incrementally so the per-SYN backlog check is O(1).
    half_open: usize,
    /// The occupancy gauges and `timer_polls`; the cookie counters stay
    /// zero here (admission counts those).
    stats: StackStats,
    /// The worker's own command channel, handed to each stream it makes.
    stream_cmd: Sender<Cmd>,
    listeners: Listeners,
}

impl Conns {
    pub(super) fn new(stream_cmd: Sender<Cmd>, listeners: Listeners) -> Conns {
        Conns {
            table: ConnTable::new(),
            deadlines: TimerWheel::new(),
            due_scratch: Vec::new(),
            dirty: Vec::new(),
            scratch: tcp::Output::default(),
            half_open: 0,
            stats: StackStats::default(),
            stream_cmd,
            listeners,
        }
    }

    /// The connection owning this (peer ip, peer port, local port), if any.
    pub(super) fn lookup(&self, quad: &(Ipv4Addr, u16, u16)) -> Option<u64> {
        self.table.lookup_quad(quad)
    }

    pub(super) fn insert(&mut self, entry: ConnEntry) -> u64 {
        self.table.insert(entry)
    }

    /// Listener-spawned connections still in SYN-received.
    pub(super) fn half_open(&self) -> usize {
        self.half_open
    }

    /// Occupancy gauges, their high-water marks and `timer_polls`.
    pub(super) fn stats(&mut self) -> StackStats {
        self.note_occupancy();
        self.stats
    }

    pub(super) fn tcp_stats(&self, id: u64) -> Option<tcp::TcpStats> {
        self.table.get(id).map(|e| e.conn.stats())
    }

    /// The earliest armed connection deadline.
    pub(super) fn next_deadline(&self) -> Option<Time> {
        self.deadlines.next_deadline().map(Time::from_nanos)
    }

    /// Refreshes the occupancy gauges and their high-water marks — O(1):
    /// both gauges are maintained incrementally, not recounted.
    fn note_occupancy(&mut self) {
        self.stats.conns = self.table.len() as u64;
        self.stats.half_open = self.half_open as u64;
        self.stats.max_conns = self.stats.max_conns.max(self.stats.conns);
        self.stats.max_half_open = self.stats.max_half_open.max(self.stats.half_open);
    }

    /// Reconciles the half-open gauge with a connection's current state
    /// (listener-spawned and still SYN-received ⇒ counted).
    fn sync_half_open(&mut self, id: u64) {
        let Some(e) = self.table.get_mut(id) else {
            return;
        };
        let counted = e.from_listener.is_some() && e.conn.state() == tcp::State::SynRcvd && !e.dead;
        if counted != e.half_open_counted {
            e.half_open_counted = counted;
            if counted {
                self.half_open += 1;
            } else {
                self.half_open -= 1;
            }
        }
    }

    /// Re-arms (or disarms) a connection's deadline-queue entry to `want`.
    fn set_conn_timer(&mut self, id: u64, want: Option<Time>) {
        let Some(e) = self.table.get_mut(id) else {
            return;
        };
        let want = want.map(Time::as_nanos);
        if e.timer.map(TimerId::deadline) != want {
            if let Some(tid) = e.timer {
                self.deadlines.cancel(tid);
            }
            e.timer = want.map(|w| self.deadlines.insert(w, id));
        }
    }

    /// Feeds a received segment to connection `id` and carries out what
    /// its state machine answers.
    pub(super) fn on_segment(&mut self, id: u64, seg: &TcpSegment, now: Time, egress: &mut Egress) {
        let mut out = std::mem::take(&mut self.scratch);
        let entry = self.table.get_mut(id).expect("exists");
        entry.conn.receive(seg, now, &mut out);
        self.apply(id, &mut out, egress);
        self.scratch = out;
    }

    /// Carries out a state machine's output for connection `id`: events to
    /// the application, segments to the wire, then teardown or re-arming.
    /// Leaves `output` empty, its capacity kept.
    pub(super) fn apply(&mut self, id: u64, output: &mut tcp::Output, egress: &mut Egress) {
        let Some(entry) = self.table.get_mut(id) else {
            output.segments.clear();
            output.events.clear();
            return;
        };
        let peer = entry.peer;
        let local_port = entry.local_port;
        let mut to_remove = false;
        for ev in output.events.drain(..) {
            match ev {
                Event::Connected => {
                    if let Some(rx) = entry.events_rx.take() {
                        let stream = TcpStream::new(id, peer, self.stream_cmd.clone(), rx);
                        if let Some(reply) = entry.connect_reply.take() {
                            let _ = reply.send(Ok(stream));
                        } else if let Some(port) = entry.from_listener {
                            if let Some(l) = self.listeners.lock().get(&port) {
                                let _ = l.send(stream);
                            }
                        }
                    }
                }
                Event::Data(d) => {
                    let _ = entry.events_tx.send(StreamEvent::Data(d));
                }
                Event::PeerFin => {
                    let _ = entry.events_tx.send(StreamEvent::Eof);
                }
                Event::Reset => {
                    if let Some(reply) = entry.connect_reply.take() {
                        let _ = reply.send(Err(NetError::Refused));
                    }
                    let _ = entry.events_tx.send(StreamEvent::Closed);
                    to_remove = true;
                }
                Event::Closed => {
                    let _ = entry.events_tx.send(StreamEvent::Closed);
                    to_remove = true;
                }
            }
        }
        if to_remove {
            entry.dead = true;
        }
        for seg in output.segments.drain(..) {
            egress.tcp(local_port, peer, &seg);
        }
        // Targeted teardown: only this connection can have changed state,
        // so there is no table sweep — removal and the occupancy gauges
        // are all O(1).
        self.sync_half_open(id);
        let gone = match self.table.get(id) {
            Some(e) => e.dead || e.conn.state() == tcp::State::Closed,
            None => return,
        };
        if gone {
            self.remove(id);
        } else {
            let want = self.table.get(id).and_then(|e| e.conn.next_deadline());
            self.set_conn_timer(id, want);
        }
        self.note_occupancy();
    }

    fn remove(&mut self, id: u64) {
        if let Some(e) = self.table.remove(id) {
            if let Some(tid) = e.timer {
                self.deadlines.cancel(tid);
            }
            if e.half_open_counted {
                self.half_open -= 1;
            }
            // A stale `dirty` id is skipped by `flush_tx` (ids are never
            // reused), so no list surgery is needed here.
        }
    }

    /// Queues application bytes on connection `id`. Buffer only;
    /// `flush_tx` coalesces every write queued this poll-loop iteration
    /// into MSS-sized segments.
    pub(super) fn buffer(&mut self, id: u64, data: PktBuf) {
        if let Some(e) = self.table.get_mut(id) {
            if !e.dead {
                e.conn.app_buffer(data);
                if !e.dirty {
                    e.dirty = true;
                    self.dirty.push(id);
                }
            }
        }
    }

    /// The application closed connection `id`.
    pub(super) fn close(&mut self, id: u64, now: Time, egress: &mut Egress) {
        let mut out = match self.table.get_mut(id) {
            Some(e) if !e.dead => e.conn.app_close(now),
            _ => return,
        };
        self.apply(id, &mut out, egress);
    }

    /// Flushes connections with buffered app data, once per poll-loop
    /// iteration: every `write`/`write_buf` since the last flush was only
    /// queued (`buffer`), so `transmit` here coalesces them into
    /// MSS-sized segments and the ring sees a single burst instead of one
    /// runt-terminated segment train per write.
    pub(super) fn flush_tx(&mut self, now: Time, egress: &mut Egress) {
        if self.dirty.is_empty() {
            return;
        }
        // Reuse the list's allocation across iterations: take it, drain
        // it, hand it back (nothing re-dirties connections mid-flush).
        let mut ids = std::mem::take(&mut self.dirty);
        let mut out = std::mem::take(&mut self.scratch);
        for &id in &ids {
            match self.table.get_mut(id) {
                Some(e) if !e.dead => {
                    e.dirty = false;
                    e.conn.transmit(now, &mut out);
                }
                _ => continue,
            }
            if !out.segments.is_empty() {
                self.apply(id, &mut out, egress);
            } else {
                // `transmit` can still have armed a timer (e.g. a persist
                // probe scheduled against a closed window).
                let want = self.table.get(id).and_then(|e| e.conn.next_deadline());
                self.set_conn_timer(id, want);
            }
        }
        self.scratch = out;
        ids.clear();
        ids.append(&mut self.dirty);
        self.dirty = ids;
    }

    /// Polls every connection whose deadline has passed. Idle connections
    /// arm none, so a quiet tick over a million of them polls nothing.
    pub(super) fn on_timers(&mut self, now: Time, egress: &mut Egress) {
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        self.deadlines.advance(now.as_nanos(), |_, id| due.push(id));
        for id in due.drain(..) {
            let outcome = match self.table.get_mut(id) {
                Some(e) => {
                    // The fired entry was this connection's armed
                    // timer; forget it before re-arming.
                    e.timer = None;
                    self.stats.timer_polls += 1;
                    e.conn.poll(now)
                }
                None => continue,
            };
            let mut out = outcome.output;
            if !out.segments.is_empty() || !out.events.is_empty() {
                // Re-arms (or tears down) via `apply`.
                self.apply(id, &mut out, egress);
            } else {
                self.set_conn_timer(id, outcome.next_deadline);
            }
        }
        self.due_scratch = due;
    }
}
