//! The Xen descriptor ring as a transport. A request is one slot,
//! `gref:u32 off:u16 len:u32 writes:u8 header…`; the response overwrites
//! it in place as `token:u32 len:u32 ok:u8`. The token is the data
//! buffer's grant reference. A queue is one granted page, advertised as
//! `{prefix}ring`.

use mirage_hypervisor::grant::{GrantRef, SharedPage};
use mirage_hypervisor::{DomainEnv, DomainId, PAGE_SIZE};
use mirage_ring::desc::SLOT_PAYLOAD;
use mirage_ring::{BackRing, FrontRing, Slot};

use super::{BackTransport, Completion, DataBuf, Dir, FrontTransport, Request, HEADER_MAX};
use crate::driver::Backend;

/// Fixed part of a request slot: gref, offset, length, direction.
pub(super) const REQ_FIXED: usize = 11;
/// A response slot: token, length, status.
const RSP_LEN: usize = 9;

fn le32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

/// [`FrontTransport`] over a Xen descriptor ring.
pub(crate) struct RingFront(pub(super) FrontRing);

impl FrontTransport for RingFront {
    const BACKEND: Backend = Backend::XenRing;
    const NET_DIR: &'static str = "net";
    const BLK_DIR: &'static str = "blk";

    fn room(&self) -> bool {
        self.0.free_slots() > 0
    }

    fn post(&mut self, header: &[u8], data: DataBuf) -> u32 {
        assert!(
            header.len() <= HEADER_MAX,
            "request header exceeds the slot"
        );
        let mut slot = [0u8; SLOT_PAYLOAD];
        slot[0..4].copy_from_slice(&data.gref.to_le_bytes());
        slot[4..6].copy_from_slice(&(data.off as u16).to_le_bytes());
        slot[6..10].copy_from_slice(&data.len.to_le_bytes());
        slot[10] = data.device_writes as u8;
        slot[REQ_FIXED..REQ_FIXED + header.len()].copy_from_slice(header);
        // Flow control reads only private indices: `room()` holds.
        self.0
            .stage_request(&slot[..REQ_FIXED + header.len()])
            .expect("room() checked");
        data.gref
    }

    fn publish(&mut self) -> bool {
        self.0.publish()
    }

    fn reap(&mut self) -> Option<Completion> {
        let rsp = self.0.take_response()?;
        let mut fixed = [0u8; RSP_LEN];
        let n = rsp.len().min(RSP_LEN);
        fixed[..n].copy_from_slice(&rsp[..n]);
        Some(Completion {
            token: le32(&fixed[0..4]),
            len: le32(&fixed[4..8]),
            ok: fixed[8] != 0,
        })
    }

    fn arm(&mut self) -> bool {
        self.0.enable_response_notifications()
    }

    fn grant(env: &mut DomainEnv<'_>, dir: &Dir, backend: DomainId, prefix: &str) -> Self {
        let page = SharedPage::new();
        let gref = env.grant(backend, page.clone(), true);
        dir.write(env, &format!("{prefix}ring"), gref.0);
        RingFront(FrontRing::attach(page))
    }

    /// A header rides in the request's own slot.
    fn carry_headers(&mut self, _env: &mut DomainEnv<'_>, _backend: DomainId, _depth: usize) {}
}

/// [`BackTransport`] over a Xen descriptor ring.
pub(crate) struct RingBack(pub(super) BackRing);

impl BackTransport for RingBack {
    fn take(&mut self, _env: &mut DomainEnv<'_>) -> Option<Result<Request, u32>> {
        let slot = self.0.take_request()?;
        let mut fixed = [0u8; REQ_FIXED];
        let n = slot.len().min(REQ_FIXED);
        fixed[..n].copy_from_slice(&slot[..n]);
        let gref = le32(&fixed[0..4]);
        let off = usize::from(u16::from_le_bytes([fixed[4], fixed[5]]));
        let len = le32(&fixed[6..10]);
        if slot.len() < REQ_FIXED || off + len as usize > PAGE_SIZE {
            return Some(Err(gref));
        }
        let data = DataBuf {
            gref,
            off,
            len,
            device_writes: fixed[10] != 0,
        };
        Some(Ok(Request {
            token: gref,
            header: Slot::new(&slot[REQ_FIXED..]),
            data,
        }))
    }

    fn complete(&mut self, _env: &mut DomainEnv<'_>, token: u32, len: u32, ok: bool) {
        let mut rsp = [0u8; RSP_LEN];
        rsp[0..4].copy_from_slice(&token.to_le_bytes());
        rsp[4..8].copy_from_slice(&len.to_le_bytes());
        rsp[8] = ok as u8;
        self.0
            .stage_response(&rsp)
            .expect("a response fits its slot");
    }

    fn publish(&mut self) -> bool {
        self.0.publish()
    }

    fn arm(&mut self) -> bool {
        self.0.enable_request_notifications()
    }

    fn map(env: &mut DomainEnv<'_>, dir: &Dir, prefix: &str) -> Option<Self> {
        let gref = GrantRef(dir.read(env, &format!("{prefix}ring"))?);
        Some(RingBack(BackRing::attach(env.grant_map(gref, true).ok()?)))
    }
}

#[cfg(test)]
impl RingFront {
    /// The ring's shared page, for tests that play a hostile frontend.
    pub(crate) fn page(&self) -> &SharedPage {
        self.0.page()
    }
}
