//! The appliance builder — the Mirage compiler front-end (paper §2, §5.4).
//!
//! "Rather than treating the database, web server, etc., as independent
//! applications which must be connected together by configuration files,
//! unikernels treat them as libraries within a single application." An
//! [`Appliance`] is exactly that: a set of library roots, a typed
//! configuration, a sealing mode and a layout seed, compiled into an
//! [`Image`] and bootable as a sealed single-address-space guest.

use mirage_hypervisor::{CostTable, DomainEnv, Dur};
use mirage_pvboot::layout::MemoryLayout;
use mirage_runtime::{Runtime, UnikernelGuest};

use crate::config::Config;
use crate::dce::LinkSet;
use crate::image::Image;
use crate::library::Library;

/// Whether the guest issues the `seal` hypercall at start of day
/// (§2.3.3 — optional: "Mirage can run on unmodified versions of Xen
/// without this patch, albeit losing this layer of the defence-in-depth").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealMode {
    /// Seal after establishing W^X page tables.
    Sealed,
    /// Run on an unmodified hypervisor.
    Unsealed,
}

/// Errors from appliance construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// No library roots were supplied.
    NoRoots,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoRoots => f.write_str("an appliance needs at least one library root"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Appliance`].
#[derive(Debug)]
pub struct ApplianceBuilder {
    name: String,
    roots: Vec<Library>,
    config: Config,
    seal: SealMode,
    layout_seed: u64,
}

impl ApplianceBuilder {
    /// Adds a library root (its dependency closure is linked).
    pub fn library(mut self, lib: Library) -> ApplianceBuilder {
        self.roots.push(lib);
        self
    }

    /// Bakes a static configuration value into the image.
    pub fn static_config(mut self, key: &str, value: &str) -> ApplianceBuilder {
        self.config.set_static(key, value);
        self
    }

    /// Declares a boot-time configuration key (e.g. `ip` via DHCP).
    pub fn dynamic_config(mut self, key: &str) -> ApplianceBuilder {
        self.config.set_dynamic(key);
        self
    }

    /// Selects the sealing mode (default: sealed).
    pub fn seal(mut self, mode: SealMode) -> ApplianceBuilder {
        self.seal = mode;
        self
    }

    /// Sets the CT-ASR layout seed ("potentially for every deployment").
    pub fn layout_seed(mut self, seed: u64) -> ApplianceBuilder {
        self.layout_seed = seed;
        self
    }

    /// Compiles the appliance.
    ///
    /// # Errors
    ///
    /// [`BuildError::NoRoots`] for an empty appliance.
    pub fn build(self) -> Result<Appliance, BuildError> {
        if self.roots.is_empty() {
            return Err(BuildError::NoRoots);
        }
        let set = LinkSet::close(&self.roots);
        let image = Image::link(&self.name, &set, &self.config, self.layout_seed);
        Ok(Appliance {
            name: self.name,
            roots: self.roots,
            link_set: set,
            image,
            config: self.config,
            seal: self.seal,
        })
    }
}

/// A compiled unikernel appliance.
#[derive(Debug)]
pub struct Appliance {
    name: String,
    roots: Vec<Library>,
    link_set: LinkSet,
    image: Image,
    config: Config,
    seal: SealMode,
}

impl Appliance {
    /// Starts a builder.
    pub fn builder(name: &str) -> ApplianceBuilder {
        ApplianceBuilder {
            name: name.to_owned(),
            roots: Vec::new(),
            config: Config::new(),
            seal: SealMode::Sealed,
            layout_seed: 0x4D49_5241_4745, // deterministic default
        }
    }

    /// Appliance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compiled image.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// The linked library set.
    pub fn link_set(&self) -> &LinkSet {
        &self.link_set
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The library roots the developer asked for.
    pub fn roots(&self) -> &[Library] {
        &self.roots
    }

    /// Sealing mode.
    pub fn seal_mode(&self) -> SealMode {
        self.seal
    }

    /// Start-of-day CPU cost: image placement plus runtime initialisation
    /// ("the unikernel transmits the UDP packet as soon as the network
    /// interface is ready" — this is everything before that point except
    /// the device handshake itself).
    pub fn boot_cost(&self, costs: &CostTable) -> Dur {
        boot_cost(self.image_kib(), costs)
    }

    /// The image size in whole KiB (at least one): what the boot copies
    /// and what the Figure 2 layout maps as text.
    fn image_kib(&self) -> u64 {
        (self.image.size_bytes() / 1024).max(1)
    }

    /// Wraps the appliance into a bootable guest: the boot closure charges
    /// [`Appliance::boot_cost`], installs the Figure 2 memory layout,
    /// optionally seals, records the `unikernel-booted` observation, and
    /// only then runs `main`.
    pub fn into_guest<F, Fut, T>(self, mem_mib: u64, main: F) -> UnikernelGuest
    where
        F: FnOnce(&mut DomainEnv<'_>, &Runtime) -> Fut + Send + 'static,
        Fut: mirage_runtime::IntoMainHandle<T>,
        T: Send + 'static,
    {
        self.into_guest_with_runtime(Runtime::new(), mem_mib, main)
    }

    /// Same, over a caller-supplied runtime.
    pub fn into_guest_with_runtime<F, Fut, T>(
        self,
        rt: Runtime,
        mem_mib: u64,
        main: F,
    ) -> UnikernelGuest
    where
        F: FnOnce(&mut DomainEnv<'_>, &Runtime) -> Fut + Send + 'static,
        Fut: mirage_runtime::IntoMainHandle<T>,
        T: Send + 'static,
    {
        let image_kib = self.image_kib();
        let seal = self.seal;
        UnikernelGuest::with_runtime(rt, move |env, rt| {
            let cost = boot_cost(image_kib, env.costs());
            env.consume(cost);
            // Figure 2 layout: text = image, data = image/4, 64 I/O pages.
            let layout =
                MemoryLayout::standard(image_kib, (image_kib / 4).max(1), mem_mib, 64);
            layout
                .apply(env, seal == SealMode::Sealed)
                .expect("canonical layout maps and seals");
            env.observe("unikernel-booted");
            main(env, rt)
        })
    }
}

/// [`Appliance::boot_cost`] of an image of `image_kib` KiB.
fn boot_cost(image_kib: u64, costs: &CostTable) -> Dur {
    // Zero + relocate the image, then one runtime-init pass over it.
    let image_cost = costs.copy((image_kib * 1024) as usize) * 2;
    let fixed = Dur::millis(2); // GC heap + scheduler bring-up
    image_cost + fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_hypervisor::memory::MemError;
    use mirage_hypervisor::Hypervisor;

    fn dns_appliance() -> Appliance {
        Appliance::builder("dns")
            .library(Library::APP_DNS)
            .library(Library::NET_DHCP)
            .static_config("zone", "example.org")
            .dynamic_config("ip")
            .build()
            .expect("valid appliance")
    }

    #[test]
    fn builder_produces_a_compact_image() {
        let app = dns_appliance();
        assert!(app.image().size_bytes() < 1 << 20, "sub-MB (Table 2)");
        assert!(app.link_set().contains(Library::NET_UDP));
        assert!(!app.link_set().contains(Library::NET_TCP));
        assert_eq!(app.seal_mode(), SealMode::Sealed);
    }

    #[test]
    fn empty_appliance_rejected() {
        assert_eq!(
            Appliance::builder("nothing").build().err(),
            Some(BuildError::NoRoots)
        );
    }

    #[test]
    fn guest_boots_seals_and_runs_main() {
        let app = dns_appliance();
        let guest = app.into_guest(32, |env, rt| {
            assert!(env.is_sealed(), "sealed before main runs");
            rt.spawn(async { 0i64 })
        });
        let mut hv = Hypervisor::new();
        let dom = hv.create_domain("dns", 32, Box::new(guest));
        hv.run();
        assert_eq!(hv.exit_code(dom), Some(0));
        assert!(hv.observation(dom, "unikernel-booted").is_some());
        assert!(hv.address_space(dom).is_sealed());
        assert!(hv.address_space(dom).satisfies_wx());
    }

    #[test]
    fn sealed_guest_rejects_code_injection_at_runtime() {
        let app = dns_appliance();
        let guest = app.into_guest(32, |env, rt| {
            // The attack of §2.3.3: try to make a data page executable.
            let data_page = mirage_pvboot::layout::GUEST_BASE + 0x10_0000;
            let result = env.mmu_protect(data_page, true, true);
            assert!(
                matches!(result, Err(MemError::Sealed) | Err(MemError::NotMapped)),
                "page tables are frozen: {result:?}"
            );
            rt.spawn(async { 0i64 })
        });
        let mut hv = Hypervisor::new();
        let dom = hv.create_domain("dns", 32, Box::new(guest));
        hv.run();
        assert_eq!(hv.exit_code(dom), Some(0));
    }

    #[test]
    fn unsealed_mode_skips_the_hypercall() {
        let app = Appliance::builder("dns")
            .library(Library::APP_DNS)
            .seal(SealMode::Unsealed)
            .build()
            .unwrap();
        let guest = app.into_guest(32, |env, rt| {
            assert!(!env.is_sealed());
            rt.spawn(async { 0i64 })
        });
        let mut hv = Hypervisor::new();
        let dom = hv.create_domain("dns", 32, Box::new(guest));
        hv.run();
        assert_eq!(hv.exit_code(dom), Some(0));
        assert!(!hv.address_space(dom).is_sealed());
    }

    #[test]
    fn boot_cost_scales_with_image_size() {
        let small = Appliance::builder("dns")
            .library(Library::APP_DNS)
            .build()
            .unwrap();
        let large = Appliance::builder("everything")
            .library(Library::APP_DNS)
            .library(Library::APP_HTTP)
            .library(Library::APP_SSH)
            .library(Library::APP_XMPP)
            .library(Library::NET_OPENFLOW)
            .library(Library::STORE_FAT32)
            .build()
            .unwrap();
        let costs = CostTable::defaults();
        assert!(large.boot_cost(&costs) > small.boot_cost(&costs));
        assert!(
            small.boot_cost(&costs) < Dur::millis(50),
            "unikernel boots fast (Figure 6)"
        );
    }

    #[test]
    fn into_guest_charges_exactly_the_documented_boot_cost() {
        let app = dns_appliance();
        let size = app.image().size_bytes();
        assert_ne!(size % 1024, 0, "an image that is not a whole number of KiB");
        let cost = app.boot_cost(&CostTable::defaults());
        let image_kib = size / 1024;
        let booted_at = |guest: UnikernelGuest| {
            let mut hv = Hypervisor::new();
            let dom = hv.create_domain("dns", 32, Box::new(guest));
            hv.run();
            hv.observation(dom, "unikernel-booted").expect("booted").at
        };
        let booted = booted_at(app.into_guest(32, |_env, rt| rt.spawn(async { 0i64 })));
        // The same layout, applied and sealed, with no boot charged first.
        let laid_out = booted_at(UnikernelGuest::new(move |env, rt| {
            MemoryLayout::standard(image_kib, (image_kib / 4).max(1), 32, 64)
                .apply(env, true)
                .expect("canonical layout maps and seals");
            env.observe("unikernel-booted");
            rt.spawn(async { 0i64 })
        }));
        assert_eq!(booted.saturating_since(laid_out), cost);
    }
}
