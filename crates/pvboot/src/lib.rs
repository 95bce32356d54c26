//! PVBoot — start-of-day support for Mirage unikernels (paper §3.2).
//!
//! "PVBoot provides start-of-day support to initialise a VM with one
//! virtual CPU and Xen event channels, and jump to an entry function.
//! Unlike a conventional OS, multiple processes and preemptive threading
//! are not supported, and instead a single 64-bit address space is laid out
//! for the language runtime to use."
//!
//! This crate provides:
//!
//! * [`layout::MemoryLayout`] — the specialised single-address-space layout
//!   of Figure 2 (text+data, guard pages, minor/major heaps, external I/O
//!   region) and the code that installs it through `mmu_map` and optionally
//!   seals it.
//! * [`extent::ExtentAllocator`] — the 2 MiB-superpage extent allocator
//!   that backs the major heap.
//! * [`slab::SlabAllocator`] — the small slab allocator used by the C side
//!   of the runtime ("as most code is in OCaml it is not heavily used").
//! * [`heap::GcHeap`] — a cost model of the modified OCaml garbage
//!   collector over either backing allocator; this is the mechanism behind
//!   the Figure 7 `xen-malloc` vs `xen-extent` ablation.
//! * [`domainpoll`] — the blocking primitive: a [`Wake`] on the domain's
//!   event channels plus a timeout.

pub mod extent;
pub mod heap;
pub mod layout;
pub mod slab;

use mirage_hypervisor::{Time, Wake};

/// Builds the [`Wake`] condition for PVBoot's `domainpoll`: "blocks the VM
/// on a set of event channels and a timeout" (§3.2). The set is every
/// channel the domain holds, which the hypervisor knows, so only the
/// timeout is an argument.
///
/// # Example
///
/// ```
/// use mirage_hypervisor::Time;
/// use mirage_pvboot::domainpoll;
///
/// let wake = domainpoll(Some(Time::from_nanos(1_000)));
/// assert_eq!(wake.deadline, Some(Time::from_nanos(1_000)));
/// ```
pub fn domainpoll(timeout: Option<Time>) -> Wake {
    Wake { deadline: timeout }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domainpoll_without_timeout_blocks_on_events_only() {
        let wake = domainpoll(None);
        assert_eq!(wake.deadline, None);
        assert_eq!(wake, Wake::never());
    }

    #[test]
    fn domainpoll_with_no_ports_is_a_pure_sleep() {
        let wake = domainpoll(Some(Time::from_nanos(5)));
        assert_eq!(wake, Wake::at(Time::from_nanos(5)));
    }
}
