//! Event channels — the Xen notification primitive.
//!
//! An event channel is a pair of per-domain ports carrying a single pending
//! bit (paper §3.4: "connected by an event channel to signal the other
//! side"). Unikernels block in `domainpoll` on their channels plus a
//! timeout. This table is the one record of which channels a domain
//! holds: a notification on any of them makes the domain runnable again,
//! and one already pending when it blocks keeps it runnable.

use std::fmt;

use crate::DomainId;

/// A per-domain event-channel port number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(pub u32);

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// Errors returned by event-channel hypercalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventError {
    /// The port number does not exist in the calling domain.
    BadPort,
    /// The port exists but is not connected to a peer.
    Unbound,
    /// Tried to bind to a port that is not awaiting this domain.
    BindRefused,
    /// The port was already closed.
    Closed,
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            EventError::BadPort => "no such event-channel port",
            EventError::Unbound => "event channel is not bound to a peer",
            EventError::BindRefused => "port is not awaiting a binding from this domain",
            EventError::Closed => "event channel is closed",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for EventError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ChannelState {
    /// Allocated, waiting for `remote` to bind.
    Unbound { remote: DomainId },
    /// Connected to the peer's port.
    Bound { peer_dom: DomainId, peer_port: Port },
    Closed,
}

#[derive(Debug, Clone)]
struct PortEntry {
    state: ChannelState,
    pending: bool,
    /// vCPU the owning domain wants this port's notifications steered to
    /// (Xen's `EVTCHNOP_bind_vcpu`). Purely advisory routing state: the
    /// guest reads it back to decide which per-core executor services the
    /// port. Defaults to vCPU 0, like Xen.
    vcpu: u32,
}

/// The system-wide event-channel table (one port space per domain).
#[derive(Debug, Default)]
pub struct EventSubsystem {
    ports: Vec<Vec<PortEntry>>, // indexed by DomainId
    notifications: u64,
}

impl EventSubsystem {
    /// Creates an empty subsystem.
    pub fn new() -> EventSubsystem {
        EventSubsystem::default()
    }

    /// Registers a new domain's (empty) port space.
    pub fn add_domain(&mut self, dom: DomainId) {
        let idx = dom.index();
        if self.ports.len() <= idx {
            self.ports.resize_with(idx + 1, Vec::new);
        }
    }

    fn entry(&mut self, dom: DomainId, port: Port) -> Result<&mut PortEntry, EventError> {
        self.ports
            .get_mut(dom.index())
            .and_then(|t| t.get_mut(port.0 as usize))
            .ok_or(EventError::BadPort)
    }

    /// Allocates a port in `owner` that only `remote` may bind to
    /// (`EVTCHNOP_alloc_unbound`).
    pub fn alloc_unbound(&mut self, owner: DomainId, remote: DomainId) -> Port {
        self.add_domain(owner);
        let table = &mut self.ports[owner.index()];
        table.push(PortEntry {
            state: ChannelState::Unbound { remote },
            pending: false,
            vcpu: 0,
        });
        Port(table.len() as u32 - 1)
    }

    /// Binds a new local port in `dom` to `(remote_dom, remote_port)`
    /// (`EVTCHNOP_bind_interdomain`), completing the pair.
    ///
    /// # Errors
    ///
    /// Fails with [`EventError::BindRefused`] when the remote port is not an
    /// unbound channel awaiting `dom`, or [`EventError::BadPort`] if it does
    /// not exist.
    pub fn bind_interdomain(
        &mut self,
        dom: DomainId,
        remote_dom: DomainId,
        remote_port: Port,
    ) -> Result<Port, EventError> {
        self.add_domain(dom);
        match self.entry(remote_dom, remote_port)?.state.clone() {
            ChannelState::Unbound { remote } if remote == dom => {}
            ChannelState::Closed => return Err(EventError::Closed),
            _ => return Err(EventError::BindRefused),
        }
        let local_table = &mut self.ports[dom.index()];
        local_table.push(PortEntry {
            state: ChannelState::Bound {
                peer_dom: remote_dom,
                peer_port: remote_port,
            },
            pending: false,
            vcpu: 0,
        });
        let local_port = Port(local_table.len() as u32 - 1);
        self.entry(remote_dom, remote_port)?.state = ChannelState::Bound {
            peer_dom: dom,
            peer_port: local_port,
        };
        Ok(local_port)
    }

    /// Signals the peer of `(dom, port)` (`EVTCHNOP_send`), setting the
    /// pending bit on the remote port.
    ///
    /// Returns the peer `(domain, port)` so the scheduler can wake it.
    ///
    /// # Errors
    ///
    /// Fails if the port is missing, unbound or closed.
    pub fn notify(&mut self, dom: DomainId, port: Port) -> Result<(DomainId, Port), EventError> {
        let (peer_dom, peer_port) = match &self.entry(dom, port)?.state {
            ChannelState::Bound {
                peer_dom,
                peer_port,
            } => (*peer_dom, *peer_port),
            ChannelState::Unbound { .. } => return Err(EventError::Unbound),
            ChannelState::Closed => return Err(EventError::Closed),
        };
        self.entry(peer_dom, peer_port)?.pending = true;
        self.notifications += 1;
        Ok((peer_dom, peer_port))
    }

    /// Reads **and clears** the pending bit of a local port — what the guest
    /// run-loop does when `domainpoll` returns.
    ///
    /// # Errors
    ///
    /// Fails if the port does not exist.
    pub fn consume_pending(&mut self, dom: DomainId, port: Port) -> Result<bool, EventError> {
        let entry = self.entry(dom, port)?;
        Ok(std::mem::replace(&mut entry.pending, false))
    }

    /// Whether any port `dom` holds has its pending bit set (scheduler
    /// use: a domain with one is not allowed to block).
    pub fn any_pending(&self, dom: DomainId) -> bool {
        self.ports
            .get(dom.index())
            .is_some_and(|t| t.iter().any(|e| e.pending))
    }

    /// Closes a local port; the peer (if any) reverts to `Closed` too.
    ///
    /// # Errors
    ///
    /// Fails if the port does not exist.
    pub fn close(&mut self, dom: DomainId, port: Port) -> Result<(), EventError> {
        let state = std::mem::replace(&mut self.entry(dom, port)?.state, ChannelState::Closed);
        if let ChannelState::Bound {
            peer_dom,
            peer_port,
        } = state
        {
            if let Ok(peer) = self.entry(peer_dom, peer_port) {
                peer.state = ChannelState::Closed;
            }
        }
        Ok(())
    }

    /// Closes every port `dom` holds and clears its pending bit — what
    /// Xen's domain destruction does to a dead domain's channels.
    pub fn close_domain(&mut self, dom: DomainId) {
        let held = self.ports.get(dom.index()).map_or(0, Vec::len);
        for port in (0..held as u32).map(Port) {
            let _ = self.close(dom, port);
            if let Ok(entry) = self.entry(dom, port) {
                entry.pending = false;
            }
        }
    }

    /// Steers `(dom, port)` notifications to `vcpu`
    /// (`EVTCHNOP_bind_vcpu`).
    ///
    /// # Errors
    ///
    /// Fails if the port does not exist.
    pub fn set_vcpu(&mut self, dom: DomainId, port: Port, vcpu: u32) -> Result<(), EventError> {
        self.entry(dom, port)?.vcpu = vcpu;
        Ok(())
    }

    /// The vCPU `(dom, port)` is steered to (0 unless rebound).
    ///
    /// # Errors
    ///
    /// Fails if the port does not exist.
    pub fn vcpu_of(&self, dom: DomainId, port: Port) -> Result<u32, EventError> {
        self.ports
            .get(dom.index())
            .and_then(|t| t.get(port.0 as usize))
            .map(|e| e.vcpu)
            .ok_or(EventError::BadPort)
    }

    /// Total notifications delivered since boot (hypervisor stat).
    pub fn notification_count(&self) -> u64 {
        self.notifications
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D1: DomainId = DomainId(1);
    const D2: DomainId = DomainId(2);
    const D3: DomainId = DomainId(3);

    fn bound_pair() -> (EventSubsystem, Port, Port) {
        let mut ev = EventSubsystem::new();
        let p1 = ev.alloc_unbound(D1, D2);
        let p2 = ev.bind_interdomain(D2, D1, p1).unwrap();
        (ev, p1, p2)
    }

    #[test]
    fn alloc_bind_notify_consume() {
        let (mut ev, p1, p2) = bound_pair();
        assert_eq!(ev.notify(D1, p1).unwrap(), (D2, p2));
        assert!(ev.any_pending(D2));
        assert!(ev.consume_pending(D2, p2).unwrap());
        assert!(!ev.consume_pending(D2, p2).unwrap(), "bit cleared");
        assert!(!ev.any_pending(D2));
        // And the reverse direction.
        assert_eq!(ev.notify(D2, p2).unwrap(), (D1, p1));
        assert!(ev.any_pending(D1));
    }

    #[test]
    fn notify_unbound_fails() {
        let mut ev = EventSubsystem::new();
        let p1 = ev.alloc_unbound(D1, D2);
        assert_eq!(ev.notify(D1, p1), Err(EventError::Unbound));
    }

    #[test]
    fn bind_by_wrong_domain_refused() {
        let mut ev = EventSubsystem::new();
        let p1 = ev.alloc_unbound(D1, D2);
        assert_eq!(
            ev.bind_interdomain(D3, D1, p1),
            Err(EventError::BindRefused)
        );
    }

    #[test]
    fn double_bind_refused() {
        let (mut ev, p1, _p2) = bound_pair();
        assert_eq!(
            ev.bind_interdomain(D2, D1, p1),
            Err(EventError::BindRefused)
        );
    }

    #[test]
    fn close_propagates_to_peer() {
        let (mut ev, p1, p2) = bound_pair();
        ev.close(D1, p1).unwrap();
        assert_eq!(ev.notify(D2, p2), Err(EventError::Closed));
        assert_eq!(ev.notify(D1, p1), Err(EventError::Closed));
    }

    #[test]
    fn notification_counter_counts() {
        let (mut ev, p1, _) = bound_pair();
        for _ in 0..5 {
            ev.notify(D1, p1).unwrap();
        }
        assert_eq!(ev.notification_count(), 5);
    }

    #[test]
    fn vcpu_affinity_defaults_to_zero_and_sticks() {
        let (mut ev, p1, p2) = bound_pair();
        assert_eq!(ev.vcpu_of(D1, p1), Ok(0));
        ev.set_vcpu(D1, p1, 3).unwrap();
        assert_eq!(ev.vcpu_of(D1, p1), Ok(3));
        // Affinity is per-endpoint: the peer keeps its own bit.
        assert_eq!(ev.vcpu_of(D2, p2), Ok(0));
        assert_eq!(ev.set_vcpu(D1, Port(99), 1), Err(EventError::BadPort));
    }

    #[test]
    fn bad_port_reported() {
        let mut ev = EventSubsystem::new();
        ev.add_domain(D1);
        assert_eq!(ev.consume_pending(D1, Port(9)), Err(EventError::BadPort));
    }
}
