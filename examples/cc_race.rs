//! CC race: NewReno vs CUBIC over a seeded loss × delay grid.
//!
//! The congestion-control seam introduced by the TCP decomposition makes
//! the algorithm a per-connection [`CongAlg`] choice; this scenario races
//! the two implementations over identical conditioned links and reports
//! goodput, retransmissions and a congestion-window trajectory for each
//! grid cell. It checks its own gate on the figures it holds and exits
//! non-zero if CUBIC's goodput is below NewReno's on a zero-loss cell;
//! `scripts/verify.sh --cc` runs it under ten fixed seeds and byte-diffs
//! a same-seed double run.
//!
//! ```text
//! cargo run --release --example cc_race
//! ```
//!
//! Knobs (all optional):
//!
//! * `MIRAGE_TEST_SEED` — netem decision seed           (testkit default)
//! * `MIRAGE_CC_BYTES`  — payload bytes per transfer    (default 4 MiB)
//!
//! Everything printed on **stdout** is a function of virtual time only and
//! is byte-identical across same-seed runs.

use std::sync::Arc;

use mirage::devices::netfront::CopyDiscipline;

use mirage::devices::Backend;
use mirage::devices::{DriverDomain, Netem, NetemConfig, Xenstore};
use mirage::hypervisor::{Dur, Hypervisor, RunOutcome, Time};
use mirage::net::{tcp, Ipv4Addr, Mac, Stack, StackConfig};
use mirage::runtime::UnikernelGuest;
use mirage_testkit::sync::Mutex;

const TX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RX_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Virtual time between congestion-window samples on the sender.
const CWND_SAMPLE_PERIOD: Dur = Dur::millis(25);
/// Trajectory samples kept per run (evenly thinned if more were taken).
const CWND_SAMPLES_KEPT: usize = 10;

/// One conditioned transfer's results, all functions of virtual time.
struct RaceReport {
    /// Payload bytes delivered (always the full transfer on success).
    bytes: usize,
    /// Virtual time from first connect attempt to receipt.
    elapsed: Dur,
    /// Sender-side counters snapshotted before close.
    stats: tcp::TcpStats,
    /// `(virtual ms, cwnd bytes)` samples along the transfer.
    cwnd_trajectory: Vec<(u64, u64)>,
}

/// Runs one `bytes`-long transfer under `alg` through a switch conditioned
/// by `cfg`, seeded from `(seed, cell)`. The harness mirrors the chaos
/// suite's `run_lossy_tcp`: two unikernel guests, a netem-conditioned
/// driver domain, virtual-time everything.
fn race(seed: u64, cell: &'static str, alg: tcp::CongAlg, cfg: NetemConfig, bytes: usize) -> RaceReport {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    hv.set_step_budget(400_000_000);

    let mut dom0 = DriverDomain::new(xs.clone());
    dom0.set_netem(Netem::from_seed(cfg, seed, cell));
    hv.create_domain("dom0", 512, Box::new(dom0));

    // Bound the advertised window so in-flight data respects the switch
    // queueing budget, and cap the RTO so lossy cells back off on a
    // test-sized timescale — identical tuning for both algorithms, the
    // congestion controller is the only variable.
    let tcp_cfg = tcp::TcpConfig::builder()
        .recv_buf(64 * 1024)
        .rto_max(Dur::secs(2))
        .congestion(alg)
        .build()
        .expect("valid tcp config");
    let rx_cfg = StackConfig::builder(RX_IP)
        .tcp(tcp_cfg.clone())
        .build()
        .expect("valid stack config");
    let tx_cfg = StackConfig::builder(TX_IP)
        .tcp(tcp_cfg)
        .build()
        .expect("valid stack config");

    let payload: Arc<Vec<u8>> = Arc::new(
        (0..bytes)
            .map(|i| (i.wrapping_mul(31).wrapping_add(7) & 0xFF) as u8)
            .collect(),
    );

    // Receiver: accept, absorb the payload, send a 1-byte receipt, park.
    let rx_done: Arc<Mutex<Option<usize>>> = Arc::new(Mutex::new(None));
    let rx_out = Arc::clone(&rx_done);
    let (front_rx, nh_rx) = Backend::XenRing.net(xs.clone(), "cc-rx", Mac::local(2).0, CopyDiscipline::ZeroCopy);
    let mut rx_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_rx, rx_cfg);
        let rt2 = rt.clone();
        rt.spawn(async move {
            let mut listener = stack.tcp_listen(5001).await.unwrap();
            let mut stream = listener.accept().await.unwrap();
            let mut got = 0usize;
            while got < bytes {
                match stream.read().await {
                    Some(chunk) => got += chunk.len(),
                    None => break,
                }
            }
            stream.write(b"K");
            *rx_out.lock() = Some(got);
            // Park: a dead domain takes its retransmissions with it.
            loop {
                rt2.sleep(Dur::secs(60)).await;
            }
        })
    });
    rx_guest.add_device(front_rx);
    hv.create_domain("cc-rx", 128, Box::new(rx_guest));

    // Sender: connect, stream, sample cwnd on a virtual-time cadence,
    // await the receipt, snapshot stats while the connection still exists.
    type TxReport = (Dur, tcp::TcpStats, Vec<(u64, u64)>);
    let tx_done: Arc<Mutex<Option<TxReport>>> = Arc::new(Mutex::new(None));
    let tx_out = Arc::clone(&tx_done);
    let tx_payload = Arc::clone(&payload);
    let (front_tx, nh_tx) = Backend::XenRing.net(xs.clone(), "cc-tx", Mac::local(1).0, CopyDiscipline::ZeroCopy);
    let mut tx_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh_tx, tx_cfg);
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Dur::millis(5)).await;
            let start = rt2.now();
            let mut stream = loop {
                match stack.tcp_connect(RX_IP, 5001).await {
                    Ok(s) => break s,
                    Err(_) => rt2.sleep(Dur::millis(50)).await,
                }
            };
            let mut trajectory: Vec<(u64, u64)> = Vec::new();
            let mut next_sample = rt2.now();
            let mut sent = 0usize;
            while sent < tx_payload.len() {
                // Keep the app at most 128 KiB ahead of the wire (a bounded
                // send buffer): the write loop then spans the whole drain in
                // virtual time, so the cwnd samples trace the transfer
                // instead of its first tick.
                loop {
                    let s = match stream.stats().await {
                        Ok(s) => s,
                        Err(_) => break,
                    };
                    if rt2.now() >= next_sample {
                        trajectory.push((rt2.now().since(start).as_millis_f64() as u64, s.cwnd));
                        next_sample = rt2.now() + CWND_SAMPLE_PERIOD;
                    }
                    if (sent as u64).saturating_sub(s.bytes_out) <= 128 * 1024 {
                        break;
                    }
                    rt2.sleep(Dur::millis(5)).await;
                }
                let n = (tx_payload.len() - sent).min(16 * 1024);
                stream.write(&tx_payload[sent..sent + n]);
                sent += n;
                rt2.yield_now().await;
            }
            let mut receipt = false;
            while !receipt {
                match stream.read().await {
                    Some(chunk) => receipt = !chunk.is_empty(),
                    None => break,
                }
            }
            let stats = stream.stats().await.expect("stats before close");
            let elapsed = rt2.now().since(start);
            *tx_out.lock() = Some((elapsed, stats, trajectory));
            stream.close();
            loop {
                rt2.sleep(Dur::secs(60)).await;
            }
        })
    });
    tx_guest.add_device(front_tx);
    hv.create_domain("cc-tx", 128, Box::new(tx_guest));

    let deadline = Time::ZERO + Dur::secs(300);
    loop {
        let outcome = hv.run_until(hv.now() + Dur::millis(100));
        if rx_done.lock().is_some() && tx_done.lock().is_some() {
            break;
        }
        assert!(
            outcome == RunOutcome::TimeLimit && hv.now() < deadline,
            "[{cell}] transfer stalled at {:?}; reproduce with MIRAGE_TEST_SEED={seed}",
            hv.now(),
        );
    }

    let received = rx_done.lock().take().expect("receiver reported");
    assert_eq!(received, bytes, "[{cell}] short delivery (seed {seed})");
    let (elapsed, stats, mut cwnd_trajectory) = tx_done.lock().take().expect("sender reported");
    // Thin the trajectory to a bounded, evenly spaced sample set so the
    // stdout stays small at any transfer size.
    if cwnd_trajectory.len() > CWND_SAMPLES_KEPT {
        let step = cwnd_trajectory.len() as f64 / CWND_SAMPLES_KEPT as f64;
        cwnd_trajectory = (0..CWND_SAMPLES_KEPT)
            .map(|i| cwnd_trajectory[(i as f64 * step) as usize])
            .collect();
    }
    RaceReport {
        bytes,
        elapsed,
        stats,
        cwnd_trajectory,
    }
}

fn main() {
    let seed = mirage_testkit::test_seed();
    let bytes = std::env::var("MIRAGE_CC_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4 * 1024 * 1024);

    // The loss × delay grid: clean/lossy links at LAN and WAN-ish RTTs.
    // Cell names feed the netem seed fork, so every cell sees its own
    // (reproducible) fault schedule.
    let grid: &[(&'static str, f64, Dur)] = &[
        ("loss0.0_delay1ms", 0.0, Dur::millis(1)),
        ("loss0.0_delay10ms", 0.0, Dur::millis(10)),
        ("loss0.5_delay1ms", 0.005, Dur::millis(1)),
        ("loss0.5_delay10ms", 0.005, Dur::millis(10)),
        ("loss2.0_delay1ms", 0.02, Dur::millis(1)),
        ("loss2.0_delay10ms", 0.02, Dur::millis(10)),
    ];

    println!("== cc race ==");
    println!("seed     : {seed}");
    println!("transfer : {bytes} bytes per run");
    for &(cell, loss, delay) in grid {
        println!("cell {cell}");
        let [newreno, cubic] = [tcp::CongAlg::NewReno, tcp::CongAlg::Cubic].map(|alg| {
            let cfg = NetemConfig {
                drop: loss,
                delay,
                ..NetemConfig::default()
            };
            let r = race(seed, cell, alg, cfg, bytes);
            let secs = r.elapsed.as_secs_f64();
            let goodput_mbps = (r.bytes as f64 * 8.0) / secs / 1e6;
            let name = match alg {
                tcp::CongAlg::NewReno => "newreno",
                tcp::CongAlg::Cubic => "cubic",
            };
            let samples: Vec<String> = r
                .cwnd_trajectory
                .iter()
                .map(|(ms, cwnd)| format!("{ms}:{cwnd}"))
                .collect();
            println!(
                "  {name:<7}: goodput {goodput_mbps:.3} Mb/s, elapsed {:.3} s, \
                 retrans {} (fast {}, rto {}), cwnd[ms:bytes] {}",
                secs,
                r.stats.total_retransmits(),
                r.stats.fast_retransmits,
                r.stats.rto_retransmits,
                samples.join(" "),
            );
            goodput_mbps
        });
        // The gate: on a clean link the two are window-limited equals, so
        // any shortfall is a CUBIC bug.
        if loss == 0.0 && cubic < newreno {
            eprintln!(
                "FAIL: CUBIC below NewReno on clean cell {cell}: {cubic:.3} < {newreno:.3} Mb/s (seed {seed})"
            );
            std::process::exit(1);
        }
    }
}
