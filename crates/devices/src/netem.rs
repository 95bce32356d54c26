//! Netem: a deterministic link conditioner for the virtual switch.
//!
//! The paper's evaluation runs appliances over a real gigabit link; real
//! links lose, reorder, duplicate, delay and corrupt frames, and whole
//! segments of the network partition and heal. The simulated switch is a
//! perfect wire by default, so the TCP retransmit machinery, HTTP retry
//! paths and DNS timeouts are never exercised end-to-end. [`Netem`] is the
//! fault plan that fixes that: every draw comes from a testkit xoshiro
//! PRNG forked from `MIRAGE_TEST_SEED`, every fault is counted in
//! [`NetemStats`], and every decision is appended to a schedule log so two
//! same-seed runs can be diffed byte-for-byte.
//!
//! The same module hosts [`DiskFaultPlan`] — the storage-layer half of the
//! fault model (transient read/write errors and torn writes), applied by
//! the blkback service loop against the same seed discipline.

use std::sync::Arc;

use mirage_cstruct::PktBuf;
use mirage_hypervisor::{Dur, Time};
use mirage_testkit::rng::Rng;
use mirage_testkit::sync::Mutex;

/// Per-link fault plan. All probabilities are in `[0, 1]`; the default is
/// the perfect wire (every field zero), so an all-default `NetemConfig`
/// conditions nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetemConfig {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a random bit of the frame is flipped in flight
    /// (manifests as a checksum failure — i.e. loss — at L4).
    pub corrupt: f64,
    /// Probability a frame is held back by [`reorder_hold`](Self::reorder_hold)
    /// so later frames overtake it (bounded reordering).
    pub reorder: f64,
    /// How long a reordered frame is held beyond its normal delivery time.
    pub reorder_hold: Dur,
    /// Fixed one-way delay added to every frame.
    pub delay: Dur,
    /// Uniform random extra delay in `[0, jitter]` added per frame.
    pub jitter: Dur,
    /// Bidirectional partition windows `[from, until)` against the
    /// hypervisor virtual clock: frames offered inside a window are
    /// dropped (counted separately from random loss).
    pub partitions: Vec<(Time, Time)>,
}

impl NetemConfig {
    /// A plan that only drops, with probability `p`.
    pub fn lossy(p: f64) -> NetemConfig {
        NetemConfig {
            drop: p,
            ..NetemConfig::default()
        }
    }
}

/// Per-fault counters plus the full decision log.
///
/// `schedule` records one line per fault event (`"{ns} #{seq} drop"` and
/// friends); two runs under the same seed must produce byte-identical
/// schedules, which `tests/chaos.rs` asserts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetemStats {
    /// Frames offered to the conditioner.
    pub offered: u64,
    /// Frames randomly dropped.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames with a bit flipped.
    pub corrupted: u64,
    /// Frames held back past their delivery time.
    pub reordered: u64,
    /// Frames given a nonzero delay (fixed delay and/or jitter).
    pub delayed: u64,
    /// Frames swallowed by an active partition window.
    pub partitioned: u64,
    /// One line per fault decision, in offer order.
    pub schedule: Vec<String>,
}

impl NetemStats {
    /// Every frame the conditioner refused to deliver.
    pub fn total_lost(&self) -> u64 {
        self.dropped + self.partitioned
    }
}

/// The link conditioner: owns the fault plan, the seeded PRNG and the
/// shared stats. Attach to a [`DriverDomain`](crate::DriverDomain) with
/// [`set_netem`](crate::DriverDomain::set_netem).
pub struct Netem {
    config: NetemConfig,
    rng: Rng,
    seq: u64,
    stats: Arc<Mutex<NetemStats>>,
}

impl Netem {
    /// A conditioner over `config` drawing from `rng`.
    pub fn new(config: NetemConfig, rng: Rng) -> Netem {
        Netem {
            config,
            rng,
            seq: 0,
            stats: Arc::new(Mutex::new(NetemStats::default())),
        }
    }

    /// A conditioner whose PRNG is forked from `seed` under a named
    /// stream, so independent links under one `MIRAGE_TEST_SEED` draw
    /// independent (but reproducible) sequences.
    pub fn from_seed(config: NetemConfig, seed: u64, stream: &str) -> Netem {
        Netem::new(config, Rng::for_stream(seed, stream))
    }

    /// Shared counters handle (readable while the domain runs).
    pub fn stats_handle(&self) -> Arc<Mutex<NetemStats>> {
        Arc::clone(&self.stats)
    }

    /// The configured fault plan.
    pub fn config(&self) -> &NetemConfig {
        &self.config
    }

    fn log(stats: &mut NetemStats, now: Time, seq: u64, what: &str) {
        stats.schedule.push(format!("{} #{seq} {what}", now.as_nanos()));
    }

    /// Condition one frame offered at virtual time `now`.
    ///
    /// Returns the (possibly empty) set of `(deliver_at, frame)` copies the
    /// link will actually carry. Draw order is fixed — partition, drop,
    /// corrupt, duplicate, jitter, reorder — so a seeded run is a pure
    /// function of the offered frame sequence.
    pub fn apply(&mut self, now: Time, frame: PktBuf) -> Vec<(Time, PktBuf)> {
        let seq = self.seq;
        self.seq += 1;
        let mut stats = self.stats.lock();
        stats.offered += 1;

        // Timed partition: swallow, counted apart from random loss.
        if self
            .config
            .partitions
            .iter()
            .any(|&(from, until)| now >= from && now < until)
        {
            stats.partitioned += 1;
            Self::log(&mut stats, now, seq, "partitioned");
            return Vec::new();
        }

        // Random loss.
        if self.config.drop > 0.0 && self.rng.gen_bool(self.config.drop) {
            stats.dropped += 1;
            Self::log(&mut stats, now, seq, "drop");
            return Vec::new();
        }

        // Bit corruption: flip one random bit of a copy. The L4 checksum
        // rejects the frame downstream, so this is loss the stack has to
        // *detect* rather than loss the link admits to.
        let frame = if self.config.corrupt > 0.0 && self.rng.gen_bool(self.config.corrupt) {
            let mut bytes = frame.to_vec();
            let bit = self.rng.gen_index(bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            stats.corrupted += 1;
            Self::log(&mut stats, now, seq, "corrupt");
            PktBuf::from_vec(bytes)
        } else {
            frame
        };

        // Base delivery time: fixed delay plus uniform jitter.
        let mut extra = self.config.delay;
        if self.config.jitter > Dur::ZERO {
            extra = extra + Dur::nanos(self.rng.gen_range(0..=self.config.jitter.as_nanos()));
        }
        if extra > Dur::ZERO {
            stats.delayed += 1;
        }
        let deliver_at = now + extra;

        let mut out = Vec::with_capacity(2);

        // Duplication: the copy takes the base delivery slot.
        if self.config.duplicate > 0.0 && self.rng.gen_bool(self.config.duplicate) {
            stats.duplicated += 1;
            Self::log(&mut stats, now, seq, "duplicate");
            out.push((deliver_at, frame.clone()));
        }

        // Bounded reordering: hold the original back so frames offered
        // after it (with smaller delays) overtake it on the wire.
        let deliver_at = if self.config.reorder > 0.0 && self.rng.gen_bool(self.config.reorder) {
            stats.reordered += 1;
            Self::log(&mut stats, now, seq, "reorder");
            deliver_at + self.config.reorder_hold
        } else {
            deliver_at
        };
        out.push((deliver_at, frame));
        out
    }
}

impl std::fmt::Debug for Netem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Netem")
            .field("config", &self.config)
            .field("seq", &self.seq)
            .finish()
    }
}

/// Seeded storage faults, attached to a
/// [`DiskProfile`](crate::blk::DiskProfile). Rates are parts-per-million
/// so the profile stays `Copy + Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskFaultPlan {
    /// Transient read failure rate (completion `ok = false`, data intact).
    pub read_error_ppm: u32,
    /// Transient write failure rate (completion `ok = false`, nothing
    /// persisted).
    pub write_error_ppm: u32,
    /// Torn write rate: only a prefix of the request's sectors persists
    /// and the completion reports failure — the on-disk state is the
    /// partial write a power cut would leave.
    pub torn_write_ppm: u32,
}

impl DiskFaultPlan {
    /// Draw helper: true with probability `ppm / 1_000_000`.
    pub(crate) fn hit(rng: &mut Rng, ppm: u32) -> bool {
        ppm > 0 && rng.gen_range(0..1_000_000u32) < ppm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> PktBuf {
        PktBuf::from_vec(vec![0xEE; n])
    }

    #[test]
    fn perfect_config_passes_everything_unchanged() {
        let mut nm = Netem::from_seed(NetemConfig::default(), 7, "t");
        for i in 0..100 {
            let t = Time::from_nanos(i);
            let out = nm.apply(t, frame(64));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].0, t, "no delay on the perfect wire");
            assert_eq!(&out[0].1[..], &[0xEE; 64][..]);
        }
        let s = nm.stats_handle();
        let s = s.lock();
        assert_eq!(s.offered, 100);
        assert_eq!(s.total_lost(), 0);
        assert!(s.schedule.is_empty(), "no fault events on a perfect wire");
    }

    #[test]
    fn drop_rate_is_roughly_honoured_and_counted() {
        let mut nm = Netem::from_seed(NetemConfig::lossy(0.2), 42, "loss");
        let mut delivered = 0u64;
        for i in 0..10_000 {
            if !nm.apply(Time::from_nanos(i), frame(64)).is_empty() {
                delivered += 1;
            }
        }
        let s = nm.stats_handle();
        let s = s.lock();
        assert_eq!(s.offered, 10_000);
        assert_eq!(s.dropped + delivered, 10_000);
        assert!(
            (1500..2500).contains(&s.dropped),
            "20% loss over 10k frames, got {}",
            s.dropped
        );
        assert_eq!(s.schedule.len() as u64, s.dropped);
    }

    #[test]
    fn same_seed_produces_byte_identical_schedules() {
        let cfg = NetemConfig {
            drop: 0.1,
            duplicate: 0.05,
            corrupt: 0.02,
            reorder: 0.1,
            reorder_hold: Dur::micros(50),
            delay: Dur::micros(10),
            jitter: Dur::micros(5),
            partitions: vec![(Time::from_nanos(3000), Time::from_nanos(6000))],
        };
        let run = |seed| {
            let mut nm = Netem::from_seed(cfg.clone(), seed, "det");
            let mut deliveries = Vec::new();
            for i in 0..2000 {
                deliveries.extend(
                    nm.apply(Time::from_nanos(i * 10), frame(64))
                        .into_iter()
                        .map(|(t, f)| (t.as_nanos(), f.len())),
                );
            }
            let s = nm.stats_handle();
            let s = s.lock().clone();
            (deliveries, s)
        };
        let (d1, s1) = run(99);
        let (d2, s2) = run(99);
        assert_eq!(d1, d2, "same seed, same deliveries");
        assert_eq!(s1, s2, "same seed, same stats + schedule");
        let (d3, s3) = run(100);
        assert!(
            d1 != d3 || s1 != s3,
            "different seed should produce a different schedule"
        );
    }

    #[test]
    fn partitions_swallow_frames_only_inside_the_window() {
        let cfg = NetemConfig {
            partitions: vec![(Time::from_nanos(100), Time::from_nanos(200))],
            ..NetemConfig::default()
        };
        let mut nm = Netem::from_seed(cfg, 1, "part");
        assert_eq!(nm.apply(Time::from_nanos(99), frame(20)).len(), 1);
        assert_eq!(nm.apply(Time::from_nanos(100), frame(20)).len(), 0);
        assert_eq!(nm.apply(Time::from_nanos(199), frame(20)).len(), 0);
        assert_eq!(nm.apply(Time::from_nanos(200), frame(20)).len(), 1);
        let s = nm.stats_handle();
        assert_eq!(s.lock().partitioned, 2);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let cfg = NetemConfig {
            corrupt: 1.0,
            ..NetemConfig::default()
        };
        let mut nm = Netem::from_seed(cfg, 5, "bits");
        let out = nm.apply(Time::ZERO, frame(64));
        assert_eq!(out.len(), 1);
        let diff: u32 = out[0]
            .1
            .iter()
            .zip([0xEEu8; 64].iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flipped");
    }

    #[test]
    fn duplicate_and_reorder_produce_two_copies_and_a_held_original() {
        let cfg = NetemConfig {
            duplicate: 1.0,
            reorder: 1.0,
            reorder_hold: Dur::micros(100),
            ..NetemConfig::default()
        };
        let mut nm = Netem::from_seed(cfg, 3, "dup");
        let out = nm.apply(Time::ZERO, frame(32));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, Time::ZERO, "duplicate ships on time");
        assert_eq!(
            out[1].0,
            Time::ZERO + Dur::micros(100),
            "original held for the reorder window"
        );
    }

    #[test]
    fn per_fault_counters_count_individually() {
        // Each fault class alone, at certainty or in a known window, must
        // tick exactly its own counter — no cross-talk between classes.
        let mut corrupt = Netem::from_seed(
            NetemConfig {
                corrupt: 1.0,
                ..NetemConfig::default()
            },
            21,
            "cnt-corrupt",
        );
        for i in 0..50 {
            assert_eq!(corrupt.apply(Time::from_nanos(i), frame(64)).len(), 1);
        }
        let s = corrupt.stats_handle();
        let s = s.lock();
        assert_eq!(s.corrupted, 50);
        assert_eq!(
            (s.dropped, s.duplicated, s.partitioned, s.reordered),
            (0, 0, 0, 0)
        );
        assert_eq!(s.schedule.len(), 50, "one schedule line per decision");
        drop(s);

        let mut dup = Netem::from_seed(
            NetemConfig {
                duplicate: 1.0,
                ..NetemConfig::default()
            },
            21,
            "cnt-dup",
        );
        for i in 0..50 {
            assert_eq!(dup.apply(Time::from_nanos(i), frame(64)).len(), 2);
        }
        let s = dup.stats_handle();
        let s = s.lock();
        assert_eq!(s.duplicated, 50);
        assert_eq!(
            (s.dropped, s.corrupted, s.partitioned, s.reordered),
            (0, 0, 0, 0)
        );
        drop(s);

        let mut part = Netem::from_seed(
            NetemConfig {
                partitions: vec![(Time::from_nanos(10), Time::from_nanos(30))],
                ..NetemConfig::default()
            },
            21,
            "cnt-part",
        );
        for i in 0..50 {
            part.apply(Time::from_nanos(i), frame(64));
        }
        let s = part.stats_handle();
        let s = s.lock();
        assert_eq!(s.partitioned, 20, "exactly the frames inside the window");
        assert_eq!(
            (s.dropped, s.corrupted, s.duplicated, s.reordered),
            (0, 0, 0, 0)
        );
        assert_eq!(s.offered, 50);
        assert_eq!(s.total_lost(), 20);
    }

    #[test]
    fn disk_fault_plan_rates_are_honoured() {
        let mut rng = Rng::for_stream(11, "disk");
        let plan = DiskFaultPlan {
            read_error_ppm: 100_000, // 10%
            ..DiskFaultPlan::default()
        };
        let hits = (0..10_000)
            .filter(|_| DiskFaultPlan::hit(&mut rng, plan.read_error_ppm))
            .count();
        assert!((700..1300).contains(&hits), "10% in ppm, got {hits}");
        assert!(!DiskFaultPlan::hit(&mut rng, 0), "zero rate never fires");
    }
}
