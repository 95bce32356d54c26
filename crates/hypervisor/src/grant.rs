//! Grant tables — page-granularity memory sharing between domains.
//!
//! "Two communicating VMs share a grant table that maps pages to an integer
//! offset (called a grant) in this table, with updates checked and enforced
//! by the hypervisor" (paper §3.4.1). Data never travels through the shared
//! ring itself; the ring carries grant references and the pages move by
//! mapping or hypervisor copy.
//!
//! The revocation checks here encode the class of edge-case bug the Mirage
//! authors found by fuzzing this interface (XSA-39): a grant cannot be
//! revoked while the peer still holds a mapping.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::DomainId;

/// A machine page shared between domains.
///
/// In real Xen this is a machine frame; here it is a reference-counted
/// 4 KiB buffer that both the granting and the mapping domain can access.
/// The hypervisor runs one domain at a time on the calling thread, so a
/// page is plain single-threaded memory: no lock, and not `Send`.
#[derive(Clone)]
pub struct SharedPage {
    bytes: Rc<RefCell<Vec<u8>>>,
}

impl fmt::Debug for SharedPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedPage({} refs)", Rc::strong_count(&self.bytes))
    }
}

impl SharedPage {
    /// Allocates a zeroed shared page. There is no `Default`: a page has a
    /// size, and nothing wants one picked for it.
    #[allow(clippy::new_without_default)]
    pub fn new() -> SharedPage {
        SharedPage {
            bytes: Rc::new(RefCell::new(vec![0u8; crate::PAGE_SIZE])),
        }
    }

    /// Allocates a zeroed shared region of `pages` contiguous pages
    /// (vchan uses multi-page rings, §3.5.1).
    pub fn with_pages(pages: usize) -> SharedPage {
        SharedPage {
            bytes: Rc::new(RefCell::new(vec![0u8; crate::PAGE_SIZE * pages])),
        }
    }

    /// Runs `f` with read access to the page contents.
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.bytes.borrow())
    }

    /// Runs `f` with write access to the page contents.
    pub fn write<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.bytes.borrow_mut())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.borrow().len()
    }

    /// Whether the region is empty (never true for pool pages).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether two handles reference the same machine page.
    pub fn same_page(&self, other: &SharedPage) -> bool {
        Rc::ptr_eq(&self.bytes, &other.bytes)
    }
}

/// An index into the grant table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GrantRef(pub u32);

impl fmt::Display for GrantRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gref{}", self.0)
    }
}

/// Errors returned by grant-table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantError {
    /// The grant reference does not exist.
    BadRef,
    /// The caller is not the domain the grant was issued to.
    NotGrantee,
    /// The caller is not the domain that issued the grant.
    NotOwner,
    /// Write access requested on a read-only grant.
    ReadOnly,
    /// The grant has been revoked by its owner.
    Revoked,
    /// Revocation refused: the grantee still holds a mapping (XSA-39
    /// class check).
    StillMapped,
}

impl fmt::Display for GrantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            GrantError::BadRef => "no such grant reference",
            GrantError::NotGrantee => "domain is not the grantee of this grant",
            GrantError::NotOwner => "domain is not the owner of this grant",
            GrantError::ReadOnly => "grant is read-only",
            GrantError::Revoked => "grant has been revoked",
            GrantError::StillMapped => "grant is still mapped by the grantee",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for GrantError {}

#[derive(Debug)]
struct GrantEntry {
    owner: DomainId,
    grantee: DomainId,
    page: SharedPage,
    writable: bool,
    mapped: u32,
    revoked: bool,
}

/// The system-wide grant table.
#[derive(Debug, Default)]
pub struct GrantTable {
    entries: Vec<GrantEntry>,
    maps: u64,
    copies: u64,
}

impl GrantTable {
    /// Creates an empty table.
    pub fn new() -> GrantTable {
        GrantTable::default()
    }

    /// `owner` grants `grantee` access to `page`.
    pub fn grant(
        &mut self,
        owner: DomainId,
        grantee: DomainId,
        page: SharedPage,
        writable: bool,
    ) -> GrantRef {
        self.entries.push(GrantEntry {
            owner,
            grantee,
            page,
            writable,
            mapped: 0,
            revoked: false,
        });
        GrantRef(self.entries.len() as u32 - 1)
    }

    fn entry(&mut self, gref: GrantRef) -> Result<&mut GrantEntry, GrantError> {
        self.entries
            .get_mut(gref.0 as usize)
            .ok_or(GrantError::BadRef)
    }

    /// Maps a granted page into `dom`'s address space
    /// (`GNTTABOP_map_grant_ref`). Returns a handle to the shared page.
    ///
    /// # Errors
    ///
    /// Checked exactly as the hypervisor checks: the caller must be the
    /// grantee, the grant must be live, and write mappings need a writable
    /// grant.
    pub fn map(
        &mut self,
        dom: DomainId,
        gref: GrantRef,
        writable: bool,
    ) -> Result<SharedPage, GrantError> {
        let entry = self.entry(gref)?;
        if entry.revoked {
            return Err(GrantError::Revoked);
        }
        if entry.grantee != dom {
            return Err(GrantError::NotGrantee);
        }
        if writable && !entry.writable {
            return Err(GrantError::ReadOnly);
        }
        entry.mapped += 1;
        let page = entry.page.clone();
        self.maps += 1;
        Ok(page)
    }

    /// Releases one mapping of `gref` held by `dom`.
    ///
    /// # Errors
    ///
    /// Fails if the reference is unknown, `dom` is not the grantee, or no
    /// mapping is outstanding.
    pub fn unmap(&mut self, dom: DomainId, gref: GrantRef) -> Result<(), GrantError> {
        let entry = self.entry(gref)?;
        if entry.grantee != dom {
            return Err(GrantError::NotGrantee);
        }
        if entry.mapped == 0 {
            return Err(GrantError::BadRef);
        }
        entry.mapped -= 1;
        Ok(())
    }

    /// Hypervisor-mediated copy out of a granted page (`GNTTABOP_copy`);
    /// the conventional-OS receive path uses this instead of mapping.
    ///
    /// # Errors
    ///
    /// Same access checks as [`GrantTable::map`]; additionally fails with
    /// [`GrantError::BadRef`] if the copy range exceeds the page.
    pub fn copy_out(
        &mut self,
        dom: DomainId,
        gref: GrantRef,
        offset: usize,
        dst: &mut [u8],
    ) -> Result<(), GrantError> {
        let entry = self.entry(gref)?;
        if entry.revoked {
            return Err(GrantError::Revoked);
        }
        if entry.grantee != dom && entry.owner != dom {
            return Err(GrantError::NotGrantee);
        }
        let end = offset.checked_add(dst.len()).ok_or(GrantError::BadRef)?;
        if end > entry.page.len() {
            return Err(GrantError::BadRef);
        }
        entry
            .page
            .read(|bytes| dst.copy_from_slice(&bytes[offset..end]));
        self.copies += 1;
        Ok(())
    }

    /// Revokes a grant. Refused while the grantee holds mappings — the
    /// safety property whose absence in early implementations was the
    /// XSA-39 class of bug.
    ///
    /// # Errors
    ///
    /// Fails with [`GrantError::NotOwner`] for non-owners and
    /// [`GrantError::StillMapped`] when mappings are outstanding.
    pub fn revoke(&mut self, dom: DomainId, gref: GrantRef) -> Result<(), GrantError> {
        let entry = self.entry(gref)?;
        if entry.owner != dom {
            return Err(GrantError::NotOwner);
        }
        if entry.mapped > 0 {
            return Err(GrantError::StillMapped);
        }
        entry.revoked = true;
        Ok(())
    }

    /// Number of live (non-revoked) grants.
    pub fn live_grants(&self) -> usize {
        self.entries.iter().filter(|e| !e.revoked).count()
    }

    /// Total successful map operations (hypervisor stat).
    pub fn map_count(&self) -> u64 {
        self.maps
    }

    /// Total hypervisor copies (hypervisor stat) — the unikernel data path
    /// keeps this at zero, which the zero-copy tests assert.
    pub fn copy_count(&self) -> u64 {
        self.copies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OWNER: DomainId = DomainId(1);
    const PEER: DomainId = DomainId(2);
    const OTHER: DomainId = DomainId(3);

    #[test]
    fn grant_map_share_data() {
        let mut gt = GrantTable::new();
        let page = SharedPage::new();
        let gref = gt.grant(OWNER, PEER, page.clone(), true);
        let mapped = gt.map(PEER, gref, true).unwrap();
        mapped.write(|b| b[0] = 42);
        assert_eq!(page.read(|b| b[0]), 42, "same machine page");
        assert!(mapped.same_page(&page));
    }

    #[test]
    fn read_only_grant_rejects_write_mapping() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(OWNER, PEER, SharedPage::new(), false);
        assert_eq!(gt.map(PEER, gref, true).err(), Some(GrantError::ReadOnly));
        assert!(gt.map(PEER, gref, false).is_ok());
    }

    #[test]
    fn wrong_domain_cannot_map() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(OWNER, PEER, SharedPage::new(), true);
        assert_eq!(gt.map(OTHER, gref, false).err(), Some(GrantError::NotGrantee));
    }

    #[test]
    fn revoke_refused_while_mapped() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(OWNER, PEER, SharedPage::new(), true);
        gt.map(PEER, gref, true).unwrap();
        assert_eq!(gt.revoke(OWNER, gref), Err(GrantError::StillMapped));
        gt.unmap(PEER, gref).unwrap();
        assert!(gt.revoke(OWNER, gref).is_ok());
        assert_eq!(gt.map(PEER, gref, true).err(), Some(GrantError::Revoked));
    }

    #[test]
    fn only_owner_revokes() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(OWNER, PEER, SharedPage::new(), true);
        assert_eq!(gt.revoke(PEER, gref), Err(GrantError::NotOwner));
    }

    #[test]
    fn copy_out_bounds_checked() {
        let mut gt = GrantTable::new();
        let page = SharedPage::new();
        page.write(|b| b[10..14].copy_from_slice(&[1, 2, 3, 4]));
        let gref = gt.grant(OWNER, PEER, page, true);
        let mut dst = [0u8; 4];
        gt.copy_out(PEER, gref, 10, &mut dst).unwrap();
        assert_eq!(dst, [1, 2, 3, 4]);
        let mut big = [0u8; 8];
        assert_eq!(
            gt.copy_out(PEER, gref, crate::PAGE_SIZE - 4, &mut big),
            Err(GrantError::BadRef),
            "copy range past end of page is refused"
        );
        assert_eq!(
            gt.copy_out(PEER, gref, usize::MAX - 1, &mut dst),
            Err(GrantError::BadRef),
            "an offset whose range overflows is refused"
        );
    }

    #[test]
    fn counters_track_maps_and_copies() {
        let mut gt = GrantTable::new();
        let gref = gt.grant(OWNER, PEER, SharedPage::new(), true);
        gt.map(PEER, gref, false).unwrap();
        let mut dst = [0u8; 1];
        gt.copy_out(PEER, gref, 0, &mut dst).unwrap();
        assert_eq!(gt.map_count(), 1);
        assert_eq!(gt.copy_count(), 1);
        assert_eq!(gt.live_grants(), 1);
    }

    #[test]
    fn multi_page_region() {
        let region = SharedPage::with_pages(3);
        assert_eq!(region.len(), 3 * crate::PAGE_SIZE);
    }
}
