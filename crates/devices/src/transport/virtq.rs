//! The virtio split virtqueue as a transport. A header-less queue (a
//! NIC's) publishes one-descriptor chains `[data]`; a queue attached
//! with header pages (a disk's) publishes the virtio-blk chain
//! `[header ro][data][status wo]`, header at offset 0 and status byte at
//! [`STATUS_OFF`] of one transport-owned page per outstanding request.
//! Any other shape is malformed. The token is the chain head. A queue is
//! three granted areas, advertised as `{prefix}desc|avail|used`.

use std::collections::HashMap;

use mirage_hypervisor::grant::{GrantRef, SharedPage};
use mirage_hypervisor::{DomainEnv, DomainId, PAGE_SIZE};
use mirage_ring::Slot;

use super::{
    map_cached, BackTransport, Completion, DataBuf, Dir, FrontTransport, Request, HEADER_MAX,
};
use crate::driver::Backend;
use crate::virtio::virtqueue::{
    buf_addr, split_addr, ChainBuf, DeviceQueue, QueuePages, SplitQueue,
};

/// Offset of the status byte within a header page.
const STATUS_OFF: usize = 2048;
const STATUS_OK: u8 = 0;
const STATUS_IOERR: u8 = 1;

/// [`FrontTransport`] over a split virtqueue.
pub(crate) struct VirtqFront {
    pub(super) q: SplitQueue,
    /// `None` on a header-less queue.
    pub(super) headers: Option<HeaderPages>,
}

#[derive(Default)]
pub(super) struct HeaderPages {
    pub(super) idle: Vec<(GrantRef, SharedPage)>,
    /// Pages out with the device, by chain head.
    pub(super) busy: HashMap<u16, (GrantRef, SharedPage)>,
}

impl FrontTransport for VirtqFront {
    const BACKEND: Backend = Backend::Virtio;
    const NET_DIR: &'static str = "vnet";
    const BLK_DIR: &'static str = "vblk";

    fn room(&self) -> bool {
        match &self.headers {
            None => self.q.free_descriptors() >= 1,
            Some(h) => self.q.free_descriptors() >= 3 && !h.idle.is_empty(),
        }
    }

    fn post(&mut self, header: &[u8], data: DataBuf) -> u32 {
        let buf = |addr, len, device_writes| ChainBuf {
            addr,
            len,
            device_writes,
        };
        let data = buf(buf_addr(data.gref, data.off), data.len, data.device_writes);
        let head = match &mut self.headers {
            None => self.q.stage_chain(&[data]).expect("room() checked"),
            Some(h) => {
                assert!(
                    header.len() <= HEADER_MAX,
                    "request header exceeds the slot"
                );
                let (gref, page) = h.idle.pop().expect("room() checked");
                page.write(|b| {
                    b[..header.len()].copy_from_slice(header);
                    b[STATUS_OFF] = STATUS_IOERR; // the device must overwrite it
                });
                let hdr = buf(buf_addr(gref.0, 0), header.len() as u32, false);
                let status = buf(buf_addr(gref.0, STATUS_OFF), 1, true);
                let head = self
                    .q
                    .stage_chain(&[hdr, data, status])
                    .expect("room() checked");
                h.busy.insert(head, (gref, page));
                head
            }
        };
        u32::from(head)
    }

    fn publish(&mut self) -> bool {
        self.q.publish()
    }

    fn reap(&mut self) -> Option<Completion> {
        let (head, len) = self.q.take_used()?;
        let mut done = Completion {
            token: u32::from(head),
            len,
            ok: true,
        };
        if let Some(h) = &mut self.headers {
            if let Some(page) = h.busy.remove(&head) {
                done.ok = page.1.read(|b| b[STATUS_OFF]) == STATUS_OK;
                done.len = len.saturating_sub(1); // the used length counts the status byte
                h.idle.push(page);
            }
        }
        Some(done)
    }

    fn arm(&mut self) -> bool {
        self.q.enable_used_notifications()
    }

    /// Only the used area is device-writable.
    fn grant(env: &mut DomainEnv<'_>, dir: &Dir, backend: DomainId, prefix: &str) -> Self {
        let pages = QueuePages::new();
        let desc = env.grant(backend, pages.desc.clone(), false);
        let avail = env.grant(backend, pages.avail.clone(), false);
        let used = env.grant(backend, pages.used.clone(), true);
        for (area, gref) in [("desc", desc), ("avail", avail), ("used", used)] {
            dir.write(env, &format!("{prefix}{area}"), gref.0);
        }
        VirtqFront {
            q: SplitQueue::new(pages),
            headers: None,
        }
    }

    /// One header page per outstanding request, device-writable for the
    /// status byte.
    fn carry_headers(&mut self, env: &mut DomainEnv<'_>, backend: DomainId, depth: usize) {
        let idle = (0..depth)
            .map(|_| {
                let page = SharedPage::new();
                (env.grant(backend, page.clone(), true), page)
            })
            .collect();
        self.headers = Some(HeaderPages {
            idle,
            busy: HashMap::new(),
        });
    }
}

/// [`BackTransport`] over a split virtqueue.
pub(crate) struct VirtqBack {
    pub(super) q: DeviceQueue,
    /// Header pages mapped so far.
    pub(super) header_pages: super::MapCache,
    /// Where each header-carrying chain in service wants its status byte.
    pub(super) status: HashMap<u16, u64>,
}

impl BackTransport for VirtqBack {
    fn take(&mut self, env: &mut DomainEnv<'_>) -> Option<Result<Request, u32>> {
        let (head, bufs) = self.q.next_chain()?;
        let token = u32::from(head);
        let (header, (addr, len, device_writes)) = match *bufs {
            [data] => (Slot::new(&[]), data),
            [(hdr_addr, hdr_len, false), data, (status_addr, 1, true)]
                if (1..=HEADER_MAX).contains(&(hdr_len as usize)) =>
            {
                let (gref, off) = split_addr(hdr_addr);
                let hdr = off..off + hdr_len as usize;
                if hdr.end > PAGE_SIZE {
                    return Some(Err(token));
                }
                let status_here = split_addr(status_addr).0 == gref;
                let Some(page) = map_cached(env, &mut self.header_pages, gref, status_here) else {
                    return Some(Err(token));
                };
                self.status.insert(head, status_addr);
                (page.read(|b| Slot::new(&b[hdr])), data)
            }
            _ => return Some(Err(token)),
        };
        let (gref, off) = split_addr(addr);
        if off + len as usize > PAGE_SIZE {
            return Some(Err(token));
        }
        Some(Ok(Request {
            token,
            header,
            data: DataBuf {
                gref,
                off,
                len,
                device_writes,
            },
        }))
    }

    fn complete(&mut self, env: &mut DomainEnv<'_>, token: u32, len: u32, ok: bool) {
        let head = token as u16; // tokens are chain heads handed out by `take`
        let mut written = len;
        if let Some(addr) = self.status.remove(&head) {
            let (gref, off) = split_addr(addr);
            if let Some(page) = map_cached(env, &mut self.header_pages, gref, true) {
                page.write(|b| b[off] = if ok { STATUS_OK } else { STATUS_IOERR });
            }
            written += 1;
        }
        self.q.stage_used(head, written);
    }

    fn publish(&mut self) -> bool {
        self.q.publish()
    }

    fn arm(&mut self) -> bool {
        self.q.enable_avail_notifications()
    }

    /// The used area is the only one mapped writable.
    fn map(env: &mut DomainEnv<'_>, dir: &Dir, prefix: &str) -> Option<Self> {
        let desc = GrantRef(dir.read(env, &format!("{prefix}desc"))?);
        let avail = GrantRef(dir.read(env, &format!("{prefix}avail"))?);
        let used = GrantRef(dir.read(env, &format!("{prefix}used"))?);
        let pages = QueuePages {
            desc: env.grant_map(desc, false).ok()?,
            avail: env.grant_map(avail, false).ok()?,
            used: env.grant_map(used, true).ok()?,
        };
        Some(VirtqBack {
            q: DeviceQueue::attach(pages),
            header_pages: HashMap::new(),
            status: HashMap::new(),
        })
    }
}
