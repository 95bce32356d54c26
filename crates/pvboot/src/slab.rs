//! The slab allocator (paper §3.2).
//!
//! "The slab allocator is used to support the C code in the runtime; as
//! most code is in OCaml it is not heavily used." It hands out fixed-size
//! objects from power-of-two size classes, each class carved out of whole
//! pages.

use std::fmt;

/// Size classes served by the slab (bytes). Requests round up to the next
/// class; larger requests are refused (the extent allocator handles those).
pub const SIZE_CLASSES: [usize; 8] = [16, 32, 64, 128, 256, 512, 1024, 2048];

/// An allocation handle: (size class index, slot number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlabObject {
    class: usize,
    slot: usize,
}

impl SlabObject {
    /// The object's size class in bytes.
    pub fn size(&self) -> usize {
        SIZE_CLASSES[self.class]
    }
}

/// Errors from the slab allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabError {
    /// Request exceeds the largest size class.
    TooLarge,
    /// The backing page budget is exhausted.
    OutOfPages,
    /// Freeing a slot that is not live.
    BadFree,
}

impl fmt::Display for SlabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            SlabError::TooLarge => "request exceeds the largest slab class",
            SlabError::OutOfPages => "slab page budget exhausted",
            SlabError::BadFree => "slot is not a live slab object",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for SlabError {}

#[derive(Debug, Default, Clone)]
struct SizeClass {
    /// Slot occupancy; index = slot number.
    slots: Vec<bool>,
    free_list: Vec<usize>,
    pages: usize,
}

/// A slab allocator over a bounded page budget.
#[derive(Debug, Clone)]
pub struct SlabAllocator {
    classes: Vec<SizeClass>,
    page_budget: usize,
    pages_used: usize,
}

impl SlabAllocator {
    /// A slab allowed to consume at most `page_budget` 4 KiB pages.
    pub fn new(page_budget: usize) -> SlabAllocator {
        SlabAllocator {
            classes: vec![SizeClass::default(); SIZE_CLASSES.len()],
            page_budget,
            pages_used: 0,
        }
    }

    fn class_for(size: usize) -> Option<usize> {
        SIZE_CLASSES.iter().position(|c| *c >= size)
    }

    /// Allocates an object of at least `size` bytes.
    ///
    /// # Errors
    ///
    /// [`SlabError::TooLarge`] beyond the top class, [`SlabError::OutOfPages`]
    /// when a new slab page is needed but the budget is spent.
    pub fn alloc(&mut self, size: usize) -> Result<SlabObject, SlabError> {
        let class = Self::class_for(size).ok_or(SlabError::TooLarge)?;
        let entry = &mut self.classes[class];
        let slot = if let Some(slot) = entry.free_list.pop() {
            slot
        } else {
            // Grow the class by one page of slots.
            if self.pages_used >= self.page_budget {
                return Err(SlabError::OutOfPages);
            }
            self.pages_used += 1;
            entry.pages += 1;
            let per_page = crate::layout::PAGE_SIZE_BYTES / SIZE_CLASSES[class];
            let base = entry.slots.len();
            entry.slots.resize(base + per_page, false);
            entry.free_list.extend((base + 1..base + per_page).rev());
            base
        };
        self.classes[class].slots[slot] = true;
        Ok(SlabObject { class, slot })
    }

    /// Frees a previously allocated object.
    ///
    /// # Errors
    ///
    /// [`SlabError::BadFree`] on double free or a fabricated handle.
    pub fn free(&mut self, obj: SlabObject) -> Result<(), SlabError> {
        let entry = self
            .classes
            .get_mut(obj.class)
            .ok_or(SlabError::BadFree)?;
        match entry.slots.get_mut(obj.slot) {
            Some(s) if *s => {
                *s = false;
                entry.free_list.push(obj.slot);
                Ok(())
            }
            _ => Err(SlabError::BadFree),
        }
    }

    /// Pages consumed so far.
    pub fn pages_used(&self) -> usize {
        self.pages_used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_testkit::prop::{any, collection};

    #[test]
    fn sizes_round_up_to_classes() {
        let mut slab = SlabAllocator::new(16);
        assert_eq!(slab.alloc(1).unwrap().size(), 16);
        assert_eq!(slab.alloc(33).unwrap().size(), 64);
        assert_eq!(slab.alloc(2048).unwrap().size(), 2048);
        assert_eq!(slab.alloc(2049), Err(SlabError::TooLarge));
    }

    #[test]
    fn slots_are_reused_after_free() {
        let mut slab = SlabAllocator::new(1);
        let a = slab.alloc(64).unwrap();
        slab.free(a).unwrap();
        let b = slab.alloc(64).unwrap();
        assert_eq!(a, b, "LIFO reuse of the freed slot");
    }

    #[test]
    fn page_budget_enforced() {
        let mut slab = SlabAllocator::new(1);
        let per_page = crate::layout::PAGE_SIZE_BYTES / 2048;
        for _ in 0..per_page {
            slab.alloc(2048).unwrap();
        }
        assert_eq!(slab.alloc(2048), Err(SlabError::OutOfPages));
        // A different class also needs a fresh page: refused too.
        assert_eq!(slab.alloc(16), Err(SlabError::OutOfPages));
    }

    #[test]
    fn double_free_detected() {
        let mut slab = SlabAllocator::new(4);
        let a = slab.alloc(32).unwrap();
        slab.free(a).unwrap();
        assert_eq!(slab.free(a), Err(SlabError::BadFree));
    }

    mirage_testkit::property! {
        /// Live count equals allocs minus frees; every alloc within one
        /// class returns a distinct slot while live.
        fn prop_slab_accounting(ops in collection::vec((any::<bool>(), 1usize..2048), 1..128)) {
            let mut slab = SlabAllocator::new(64);
            let mut live = Vec::new();
            for (is_alloc, size) in ops {
                if is_alloc || live.is_empty() {
                    if let Ok(obj) = slab.alloc(size) {
                        assert!(!live.contains(&obj), "slot handed out twice");
                        live.push(obj);
                    }
                } else {
                    let obj = live.remove(size % live.len());
                    slab.free(obj).unwrap();
                }
                let taken: usize = slab
                    .classes
                    .iter()
                    .map(|c| c.slots.iter().filter(|s| **s).count())
                    .sum();
                assert_eq!(taken, live.len(), "live slots match the model");
            }
        }
    }
}
