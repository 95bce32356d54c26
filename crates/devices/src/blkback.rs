//! Blkback: the driver domain's block service.
//!
//! One [`BlkBackend`] per virtual disk, over [`BackTransport`] — the same
//! [`SimulatedDisk`], fault plan and NCQ-pipelined timing whichever ring
//! ABI the frontend speaks.
//!
//! A request is the guest's word until validated: the header must parse,
//! `0 < count <= MAX_SECTORS_PER_REQ`, `sector + count` must neither
//! overflow nor pass the end of the disk, the data buffer must hold
//! `count` sectors, and a read needs a device-writable buffer on a page
//! granted writable. Anything else is completed failed and counted in
//! [`DriverStats::requests_rejected`].

use mirage_testkit::rng::Rng;
use mirage_testkit::wheel::TimerWheel;

use mirage_hypervisor::event::Port;
use mirage_hypervisor::{DomainEnv, Time};

use crate::blk::{wire, DiskProfile, SimulatedDisk, MAX_SECTORS_PER_REQ, SECTOR_SIZE};
use crate::netback::DriverStats;
use crate::netem::DiskFaultPlan;
use crate::transport::{map_cached, BackQueue, DataBuf, Gate, MapCache, Request};

/// A request in service. Its buffer stays owned by the device until it
/// completes.
struct Pending {
    token: u32,
    data: DataBuf,
    is_read: bool,
    ok: bool,
    sector: u64,
    count: u16,
}

/// The backend half of one virtual disk.
pub(crate) struct BlkBackend {
    port: Port,
    queue: BackQueue,
    /// Whether this pass takes from the queue.
    gate: Gate,
    /// Guest data pages mapped so far.
    mapped: MapCache,
    disk: SimulatedDisk,
    busy_until: Time,
    /// Requests in service, by completion time — which is acceptance
    /// order: `busy_until` moves by a non-zero transfer time per request.
    pending: TimerWheel<Pending>,
}

impl BlkBackend {
    pub(crate) fn new(port: Port, queue: BackQueue, profile: DiskProfile, sectors: u64) -> Self {
        BlkBackend {
            port,
            queue,
            gate: Gate::default(),
            mapped: MapCache::default(),
            disk: SimulatedDisk::new(profile, sectors),
            busy_until: Time::ZERO,
            pending: TimerWheel::new(),
        }
    }

    /// When the earliest request in service completes.
    pub(crate) fn next_deadline(&self) -> Option<Time> {
        self.pending.next_deadline().map(Time::from_nanos)
    }

    /// Re-arms the queue, if this pass took from it, before the driver
    /// domain blocks; `true` if a request raced in.
    pub(crate) fn arm(&mut self) -> bool {
        self.gate.close(|| self.queue.arm())
    }

    /// `(is_read, sector, count)` of a request this disk can execute.
    fn validate(&self, req: &Request) -> Option<(bool, u64, u16)> {
        let (op, sector, count) = wire::parse_req(&req.header)?;
        let is_read = op == wire::OP_READ;
        let end = sector.checked_add(u64::from(count))?;
        let valid = (1..=MAX_SECTORS_PER_REQ).contains(&count)
            && end <= self.disk.sectors()
            && usize::from(count) * SECTOR_SIZE <= req.data.len as usize
            && (req.data.device_writes || !is_read);
        valid.then_some((is_read, sector, count))
    }

    /// One pass: accept new requests — only if the channel fired or the
    /// last arm raced — scheduling their completion times, then complete
    /// those whose service time has elapsed. One index update and at most
    /// one interrupt. What happened is counted into `counts`.
    pub(crate) fn service(
        &mut self,
        env: &mut DomainEnv<'_>,
        rng: &mut Rng,
        counts: &mut DriverStats,
    ) -> bool {
        let mut progressed = false;
        let fired = self.gate.open(env, self.port);
        while let Some(taken) = fired.then(|| self.queue.take(env)).flatten() {
            progressed = true;
            let accepted = taken.and_then(|req| {
                let fields = self.validate(&req).ok_or(req.token)?;
                Ok((req, fields))
            });
            let (req, (is_read, sector, count)) = match accepted {
                Ok(accepted) => accepted,
                Err(token) => {
                    self.queue.complete(env, token, 0, false);
                    counts.requests_rejected += 1;
                    continue;
                }
            };
            let bytes = usize::from(count) * SECTOR_SIZE;
            let faults = self.disk.profile().faults.unwrap_or_default();
            let mut ok = true;
            if is_read {
                if DiskFaultPlan::hit(rng, faults.read_error_ppm) {
                    // Transient read failure: data stays intact, the
                    // completion reports failure.
                    ok = false;
                    counts.blk_read_errors += 1;
                }
            } else {
                let page = map_cached(env, &mut self.mapped, req.data.gref, false);
                let persist = if DiskFaultPlan::hit(rng, faults.write_error_ppm) {
                    // Transient write failure: nothing persists.
                    ok = false;
                    counts.blk_write_errors += 1;
                    0
                } else if DiskFaultPlan::hit(rng, faults.torn_write_ppm) {
                    // Torn write: only a sector prefix persists — the
                    // on-disk state a power cut mid-request would leave.
                    ok = false;
                    counts.blk_torn_writes += 1;
                    rng.gen_range(0..count) as usize * SECTOR_SIZE
                } else {
                    bytes
                };
                // Writes persist now, straight from the page (it may be
                // reused once the request completes).
                match page {
                    Some(page) => {
                        page.read(|b| self.disk.write(sector, &b[req.data.range(persist)]))
                    }
                    None => ok = false,
                }
            }
            // The device pipelines: occupancy is the transfer time only,
            // while the fixed latency overlaps across queued requests
            // (NCQ on the paper's PCIe SSD).
            let start = self.busy_until.max(env.now());
            let transfer = DiskProfile::transfer_time(bytes);
            let done_at = start + transfer + DiskProfile::LATENCY;
            self.busy_until = start + transfer;
            let pending = Pending {
                token: req.token,
                data: req.data,
                is_read,
                ok,
                sector,
                count,
            };
            self.pending.insert(done_at.as_nanos(), pending);
        }
        // Complete requests whose service time has elapsed.
        self.pending.advance(env.now().as_nanos(), |_, mut p| {
            let mut written = 0;
            if p.is_read && p.ok {
                let bytes = usize::from(p.count) * SECTOR_SIZE;
                // No page: a read-only grant, not the device's to fill.
                let page = map_cached(env, &mut self.mapped, p.data.gref, true);
                p.ok = page.is_some();
                counts.requests_rejected += u64::from(!p.ok);
                if let Some(page) = page {
                    page.write(|b| self.disk.read_into(p.sector, &mut b[p.data.range(bytes)]));
                    written = bytes as u32;
                }
            }
            self.queue.complete(env, p.token, written, p.ok);
            counts.blk_completed += 1;
            progressed = true;
        });
        if self.queue.publish() {
            let _ = env.evtchn_notify(self.port);
        }
        progressed
    }
}
