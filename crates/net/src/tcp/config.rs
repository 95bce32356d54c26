//! Connection tuning: the settings no deployment varies as constants, the
//! three it does as [`TcpConfig`] with its validating builder.

use mirage_hypervisor::Dur;

use super::cong::CongAlg;

/// Our maximum segment size: a 1 500-byte Ethernet MTU less the IPv4 and
/// TCP headers.
pub const MSS: usize = 1460;
/// Our window-scale shift (RFC 7323), offered on every SYN.
pub const WINDOW_SCALE: u8 = 2;
/// Initial retransmission timeout (RFC 6298).
pub const RTO_INIT: Dur = Dur::secs(1);
/// RTO floor.
pub const RTO_MIN: Dur = Dur::millis(200);
/// TIME-WAIT duration (2 x MSL).
pub const TIME_WAIT: Dur = Dur::secs(2);
/// SYN retry budget before giving up.
pub const SYN_RETRIES: u32 = 6;
/// Cap on stashed out-of-order segments per connection. One hostile flow
/// spraying in-window segments must not exhaust appliance memory.
pub const OOO_MAX_SEGMENTS: usize = 256;
/// Cap on stashed out-of-order bytes per connection.
pub const OOO_MAX_BYTES: usize = 256 * 1024;

/// The settings a deployment chooses (defaults follow the paper's
/// configuration: a 256 KiB receive window, New Reno congestion control).
/// Construct via [`TcpConfig::builder`] to get the invariants checked; the
/// fields stay public for read access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpConfig {
    /// Advertised receive buffer in bytes.
    pub recv_buf: usize,
    /// RTO ceiling.
    pub rto_max: Dur,
    /// Which congestion-control algorithm new connections run.
    pub congestion: CongAlg,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            recv_buf: 256 * 1024,
            rto_max: Dur::secs(60),
            congestion: CongAlg::NewReno,
        }
    }
}

impl TcpConfig {
    /// A validating builder seeded with the defaults.
    pub fn builder() -> TcpConfigBuilder {
        TcpConfigBuilder {
            cfg: TcpConfig::default(),
        }
    }
}

/// Why a configuration was rejected by [`TcpConfigBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `recv_buf` of zero would advertise a permanently closed window.
    ZeroRecvBuf,
    /// `rto_max` below [`RTO_INIT`] leaves no valid initial RTO.
    RtoMaxBelowInit,
    /// `listen_backlog` of zero accepts no connections.
    ZeroBacklog,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ConfigError::ZeroRecvBuf => "recv_buf must be non-zero",
            ConfigError::RtoMaxBelowInit => "rto_max must be at least the 1 s initial RTO",
            ConfigError::ZeroBacklog => "listen_backlog must be non-zero",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`TcpConfig`]: chainable setters, invariants checked once
/// at [`build`](TcpConfigBuilder::build).
#[derive(Debug, Clone)]
pub struct TcpConfigBuilder {
    cfg: TcpConfig,
}

impl TcpConfigBuilder {
    /// Advertised receive buffer in bytes.
    pub fn recv_buf(mut self, bytes: usize) -> Self {
        self.cfg.recv_buf = bytes;
        self
    }

    /// RTO ceiling.
    pub fn rto_max(mut self, d: Dur) -> Self {
        self.cfg.rto_max = d;
        self
    }

    /// Congestion-control algorithm.
    pub fn congestion(mut self, alg: CongAlg) -> Self {
        self.cfg.congestion = alg;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<TcpConfig, ConfigError> {
        if self.cfg.recv_buf == 0 {
            return Err(ConfigError::ZeroRecvBuf);
        }
        if self.cfg.rto_max < RTO_INIT {
            return Err(ConfigError::RtoMaxBelowInit);
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_struct_defaults() {
        assert_eq!(TcpConfig::builder().build().unwrap(), TcpConfig::default());
        assert_eq!(TcpConfig::default().congestion, CongAlg::NewReno);
    }

    #[test]
    fn builder_selects_cubic() {
        let cfg = TcpConfig::builder()
            .congestion(CongAlg::Cubic)
            .build()
            .unwrap();
        assert_eq!(cfg.congestion, CongAlg::Cubic);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        assert_eq!(
            TcpConfig::builder().recv_buf(0).build(),
            Err(ConfigError::ZeroRecvBuf)
        );
        assert_eq!(
            TcpConfig::builder().rto_max(Dur::millis(999)).build(),
            Err(ConfigError::RtoMaxBelowInit)
        );
        assert!(TcpConfig::builder().rto_max(RTO_INIT).build().is_ok());
    }
}
