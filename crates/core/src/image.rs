//! The compiled unikernel image and compile-time address-space
//! randomisation (paper §2.3.4).
//!
//! "The unikernel model means that reconfiguring an appliance means
//! recompiling it, potentially for every deployment. We can thus perform
//! address space randomisation at compile time using a freshly generated
//! linker script, without impeding any compiler optimisations and without
//! adding any runtime complexity."

use mirage_testkit::rng::Rng;

use crate::config::Config;
use crate::dce::LinkSet;
use crate::library::Library;

/// One section in the linked image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Owning library.
    pub library: &'static str,
    /// Link address (offset from the text base).
    pub address: u64,
    /// Section size in bytes.
    pub bytes: u64,
}

/// A fully linked unikernel image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    name: String,
    sections: Vec<Section>,
    size_bytes: u64,
    layout_seed: u64,
    cloneable: bool,
}

/// Alignment of every section (16 bytes, as a linker would).
const SECTION_ALIGN: u64 = 16;
/// Maximum random inter-section gap inserted by CT-ASR.
const MAX_GAP: u64 = 4096;

impl Image {
    /// Links `set` with configuration `cfg`, randomising the section
    /// layout from `layout_seed` (a fresh seed per deployment —
    /// "potentially for every deployment").
    pub fn link(name: &str, set: &LinkSet, cfg: &Config, layout_seed: u64) -> Image {
        let mut rng = Rng::new(layout_seed ^ cfg.identity_hash());
        let mut libs: Vec<Library> = set.libraries().collect();
        // CT-ASR: shuffle section order...
        rng.shuffle(&mut libs);
        let mut sections = Vec::with_capacity(libs.len());
        let mut cursor = 0u64;
        for lib in &libs {
            // ...and insert random guard gaps between sections.
            let gap = rng.gen_range(0..MAX_GAP);
            cursor += gap;
            cursor = cursor.div_ceil(SECTION_ALIGN) * SECTION_ALIGN;
            let bytes = lib.info().object_bytes as u64;
            sections.push(Section {
                library: lib.name(),
                address: cursor,
                bytes,
            });
            cursor += bytes;
        }
        let size_bytes = sections.iter().map(|s| s.bytes).sum::<u64>() + cfg.image_bytes() as u64;
        Image {
            name: name.to_owned(),
            sections,
            size_bytes,
            layout_seed,
            cloneable: cfg.is_cloneable(),
        }
    }

    /// Appliance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Modelled image size in bytes (the Figure 5/6 boot model's input).
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Whether instances of this image may be cloned (no static
    /// instance-identity baked in, §2.3.1).
    pub fn is_cloneable(&self) -> bool {
        self.cloneable
    }

    /// The randomised section layout.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Seed the layout was generated from.
    pub fn layout_seed(&self) -> u64 {
        self.layout_seed
    }

    /// Layout validity: sections are aligned, non-overlapping and sorted.
    pub fn layout_is_valid(&self) -> bool {
        let mut sorted = self.sections.clone();
        sorted.sort_by_key(|s| s.address);
        sorted.iter().all(|s| s.address % SECTION_ALIGN == 0)
            && sorted
                .windows(2)
                .all(|w| w[0].address + w[0].bytes <= w[1].address)
    }

    /// The address of a library's section, if linked (what a ROP attacker
    /// would need to know — and what CT-ASR randomises per deployment).
    pub fn section_address(&self, library: &str) -> Option<u64> {
        self.sections
            .iter()
            .find(|s| s.library == library)
            .map(|s| s.address)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;

    fn dns_image(seed: u64) -> Image {
        let set = LinkSet::close(&[Library::APP_DNS]);
        let mut cfg = Config::new();
        cfg.set_static("zone", "example.org");
        Image::link("dns", &set, &cfg, seed)
    }

    #[test]
    fn layouts_are_valid_for_many_seeds() {
        for seed in 0..50 {
            let img = dns_image(seed);
            assert!(img.layout_is_valid(), "seed {seed}");
            assert!(
                img.size_bytes() < 1 << 20,
                "unikernels are sub-megabyte (Table 2): {}",
                img.size_bytes()
            );
        }
    }

    #[test]
    fn different_seeds_randomise_section_addresses() {
        let a = dns_image(1);
        let b = dns_image(2);
        // The attacker-relevant property: some library lands elsewhere.
        let moved = a
            .sections()
            .iter()
            .filter(|s| b.section_address(s.library) != Some(s.address))
            .count();
        assert!(
            moved > a.sections().len() / 2,
            "most sections moved: {moved}/{}",
            a.sections().len()
        );
        // Size is unaffected by layout.
        assert_eq!(a.size_bytes(), b.size_bytes());
    }

    #[test]
    fn same_seed_is_reproducible() {
        let a = dns_image(7);
        let b = dns_image(7);
        assert_eq!(a, b, "builds are deterministic given the seed");
    }

    #[test]
    fn config_contributes_to_size_and_cloneability() {
        let set = LinkSet::close(&[Library::APP_DNS]);
        let empty = Image::link("d", &set, &Config::new(), 0);
        let mut cfg = Config::new();
        cfg.set_dynamic("ip");
        let dynamic = Image::link("d", &set, &cfg, 0);
        assert!(dynamic.size_bytes() > empty.size_bytes());
        assert!(dynamic.is_cloneable());
        cfg.set_static("ip-static", "10.0.0.1");
        let pinned = Image::link("d", &set, &cfg, 0);
        assert!(!pinned.is_cloneable());
    }
}
