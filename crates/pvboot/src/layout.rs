//! The specialised 64-bit virtual memory layout of a Mirage unikernel
//! (paper Figure 2) and its installation/sealing sequence.
//!
//! From low to high addresses: program text, a guard page, static data, a
//! guard page, the 2 MiB minor heap (grown in 4 KiB chunks), the major heap
//! (grown in 2 MiB superpage extents), and a reserved external-I/O region.
//! The layout is contiguous and known at link time — "Mirage unikernels
//! avoid ASR at runtime in favour of a more specialised security model, and
//! guarantee a contiguous virtual address space, simplifying runtime memory
//! management" (§3.3).

use mirage_hypervisor::memory::{Mapping, MemError, Region};
use mirage_hypervisor::DomainEnv;

/// 4 KiB.
pub const PAGE_SIZE_BYTES: usize = mirage_hypervisor::PAGE_SIZE;

/// Base of the virtual address space available to the guest (above the
/// area reserved by Xen at the bottom).
pub const GUEST_BASE: u64 = 0x40_0000; // 4 MiB

/// Size of the minor heap reservation: "the minor heap has a single 2 MB
/// extent that grows in 4 kB chunks" (§3.3).
pub const MINOR_HEAP_BYTES: u64 = 2 * 1024 * 1024;

/// One region of the computed layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutRegion {
    /// Role of the region.
    pub region: Region,
    /// Page-aligned start.
    pub vaddr: u64,
    /// Extent in pages.
    pub pages: u64,
}

/// The computed Figure-2 layout for one unikernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryLayout {
    regions: Vec<LayoutRegion>,
    major_heap_base: u64,
    major_heap_pages: u64,
    io_base: u64,
    io_pages: u64,
}

impl MemoryLayout {
    /// Computes the standard layout for an image of `text_kib` + `data_kib`
    /// and a VM reservation of `mem_mib` MiB.
    ///
    /// The major heap takes all memory not used by text/data/minor-heap,
    /// minus the I/O reservation of `io_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if the memory reservation cannot hold the image plus minor
    /// heap plus I/O region.
    pub fn standard(text_kib: u64, data_kib: u64, mem_mib: u64, io_pages: u64) -> MemoryLayout {
        let page = PAGE_SIZE_BYTES as u64;
        let text_pages = (text_kib * 1024).div_ceil(page).max(1);
        let data_pages = (data_kib * 1024).div_ceil(page).max(1);
        let minor_pages = MINOR_HEAP_BYTES / page;
        let total_pages = mem_mib * 1024 * 1024 / page;
        let overhead = text_pages + 1 + data_pages + 1 + minor_pages + io_pages + 1;
        assert!(
            total_pages > overhead,
            "memory reservation too small for image + heaps + io"
        );
        let major_pages = total_pages - overhead;

        let mut regions = Vec::new();
        let mut cursor = GUEST_BASE;
        let mut push = |region: Region, pages: u64, cursor: &mut u64| -> u64 {
            let vaddr = *cursor;
            regions.push(LayoutRegion {
                region,
                vaddr,
                pages,
            });
            *cursor += pages * page;
            vaddr
        };
        push(Region::Text, text_pages, &mut cursor);
        push(Region::Guard, 1, &mut cursor);
        push(Region::Data, data_pages, &mut cursor);
        push(Region::Guard, 1, &mut cursor);
        // Minor heap then major heap, both Data-role (writable, NX).
        push(Region::Data, minor_pages, &mut cursor);
        let major_heap_base = push(Region::Data, major_pages, &mut cursor);
        push(Region::Guard, 1, &mut cursor);
        let io_base = push(Region::Io, io_pages, &mut cursor);

        MemoryLayout {
            regions,
            major_heap_base,
            major_heap_pages: major_pages,
            io_base,
            io_pages,
        }
    }

    /// The regions, low to high.
    pub fn regions(&self) -> &[LayoutRegion] {
        &self.regions
    }

    /// Base address of the major heap extent region.
    pub fn major_heap_base(&self) -> u64 {
        self.major_heap_base
    }

    /// Base address of the external I/O page region.
    pub fn io_base(&self) -> u64 {
        self.io_base
    }

    /// Whether the layout satisfies W^X by construction.
    pub fn satisfies_wx(&self) -> bool {
        // Region roles carry canonical protections; only a Text region is
        // executable and Text is never writable.
        true
    }

    /// Installs every region through `mmu_map` and, when `seal` is set,
    /// issues the seal hypercall — the unikernel start-of-day sequence of
    /// §2.3.3.
    ///
    /// # Errors
    ///
    /// Propagates any mapping or sealing failure (overlaps, W^X).
    pub fn apply(&self, env: &mut DomainEnv<'_>, seal: bool) -> Result<(), MemError> {
        for r in &self.regions {
            env.mmu_map(Mapping::for_region(r.region, r.vaddr, r.pages))?;
        }
        if seal {
            env.seal()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_hypervisor::{Guest, Hypervisor, Step};

    #[test]
    fn layout_is_contiguous_and_ordered() {
        let layout = MemoryLayout::standard(200, 64, 32, 64);
        let regions = layout.regions();
        for pair in regions.windows(2) {
            assert!(pair[0].vaddr < pair[1].vaddr, "monotonic layout");
            assert_eq!(
                pair[0].vaddr + pair[0].pages * PAGE_SIZE_BYTES as u64,
                pair[1].vaddr,
                "no gaps: the address space is contiguous (Figure 2)"
            );
        }
    }

    #[test]
    fn major_heap_gets_the_bulk_of_memory() {
        let layout = MemoryLayout::standard(200, 64, 128, 64);
        let total = 128 * 1024 * 1024;
        assert!(layout.major_heap_pages * PAGE_SIZE_BYTES as u64 > total * 9 / 10);
    }

    #[test]
    #[should_panic(expected = "memory reservation too small")]
    fn tiny_reservation_rejected() {
        let _ = MemoryLayout::standard(200, 64, 2, 64);
    }

    #[test]
    fn apply_and_seal_in_a_real_domain() {
        struct Booter {
            layout: MemoryLayout,
        }
        impl Guest for Booter {
            fn step(&mut self, env: &mut DomainEnv<'_>) -> Step {
                self.layout.apply(env, true).unwrap();
                assert!(env.is_sealed());
                Step::Exit(0)
            }
        }
        let mut hv = Hypervisor::new();
        let layout = MemoryLayout::standard(200, 64, 32, 16);
        let d = hv.create_domain("boot", 32, Box::new(Booter { layout }));
        hv.run();
        assert_eq!(hv.exit_code(d), Some(0));
        let aspace = hv.address_space(d);
        assert!(aspace.is_sealed());
        assert!(aspace.satisfies_wx());
        assert!(aspace.lookup(GUEST_BASE).is_some(), "text mapped");
    }

    #[test]
    fn io_region_sits_above_the_heaps() {
        let layout = MemoryLayout::standard(200, 64, 32, 16);
        assert!(layout.io_base() > layout.major_heap_base());
        assert_eq!(layout.io_pages, 16);
    }
}
