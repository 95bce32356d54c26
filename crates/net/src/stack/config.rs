//! Interface configuration and its validating builder.

use std::net::Ipv4Addr;

use crate::tcp::{self, TcpConfig};

/// Interface configuration.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Static address, or `None` to run the DHCP client (§2.3.1).
    pub ip: Option<Ipv4Addr>,
    /// Subnet mask (replaced by the DHCP lease when dynamic).
    pub netmask: Ipv4Addr,
    /// Default gateway.
    pub gateway: Option<Ipv4Addr>,
    /// TCP tuning.
    pub tcp: TcpConfig,
    /// Cap on half-open (SYN-received) connections spawned by listeners.
    /// Beyond this the stack answers SYNs statelessly with SYN cookies, so
    /// a flood cannot exhaust the connection table.
    pub listen_backlog: usize,
}

impl StackConfig {
    /// A statically addressed /24 interface.
    pub fn static_ip(ip: Ipv4Addr) -> StackConfig {
        StackConfig {
            ip: Some(ip),
            netmask: Ipv4Addr::new(255, 255, 255, 0),
            gateway: None,
            tcp: TcpConfig::default(),
            listen_backlog: 64,
        }
    }

    /// A DHCP-configured interface.
    pub fn dhcp() -> StackConfig {
        StackConfig {
            ip: None,
            ..StackConfig::static_ip(Ipv4Addr::UNSPECIFIED)
        }
    }

    /// A validating builder seeded from [`StackConfig::static_ip`].
    pub fn builder(ip: Ipv4Addr) -> StackConfigBuilder {
        StackConfigBuilder {
            cfg: StackConfig::static_ip(ip),
        }
    }
}

/// Builder for [`StackConfig`]: chainable setters, invariants checked once
/// at [`build`](StackConfigBuilder::build). TCP invariants are delegated to
/// [`TcpConfigBuilder`](crate::tcp::TcpConfigBuilder) — pass its output via
/// [`tcp`](StackConfigBuilder::tcp).
#[derive(Debug, Clone)]
pub struct StackConfigBuilder {
    cfg: StackConfig,
}

impl StackConfigBuilder {
    /// TCP tuning (build it with [`TcpConfig::builder`]).
    pub fn tcp(mut self, tcp: TcpConfig) -> Self {
        self.cfg.tcp = tcp;
        self
    }

    /// Cap on half-open listener-spawned connections (must be non-zero).
    pub fn listen_backlog(mut self, n: usize) -> Self {
        self.cfg.listen_backlog = n;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<StackConfig, tcp::ConfigError> {
        if self.cfg.listen_backlog == 0 {
            return Err(tcp::ConfigError::ZeroBacklog);
        }
        Ok(self.cfg)
    }
}
