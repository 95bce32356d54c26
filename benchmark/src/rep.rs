//! One repetition: a fresh world from the seed, driven through set-up,
//! the measured phase and the end-of-run stats report — in a process of
//! its own, which sends its record back as one line of text.

use std::path::Path;
use std::time::Instant;

use mirage::hypervisor::{Dur, Time};
use mirage::net::stack::StackStats;
use mirage::net::tcp::TcpStats;

use crate::hist::Histogram;
use crate::span::Summary;
use crate::workloads::Workload;
use crate::world::{Counters, Measured, Outcome};
use crate::{alloc, span};

/// No phase of any workload needs this much virtual time.
const VIRT_LIMIT: Dur = Dur::secs(900);
/// Room reserved for a traced repetition's spans.
const SPAN_CAPACITY: usize = 1 << 20;

pub struct Rep {
    /// Host seconds from the start of world construction to the instant
    /// the start gate opens.
    pub setup_s: f64,
    /// `VmHWM` of the repetition's process.
    pub peak_rss_mb: f64,
    /// `(allocations, bytes)` over the measured phase; traced only.
    pub allocs: (u64, u64),
    /// Host-read counters over the measured phase.
    pub counters: Counters,
    pub outcome: Outcome,
    /// Span totals; traced only.
    pub summary: Summary,
}

/// Runs one repetition in this process. A traced repetition also writes
/// its spans to `trace_file`, if one is given.
pub fn run(
    w: &Workload,
    seed: u64,
    traced: bool,
    trace_file: Option<&Path>,
) -> Result<Rep, String> {
    let limit = Time::ZERO + VIRT_LIMIT;
    let built_at = Instant::now();
    let mut world = (w.build)(seed);
    world
        .run_while(limit, world.ready())
        .map_err(|e| format!("set-up: {e}"))?;
    let before = world.snapshot();
    let setup_s = built_at.elapsed().as_secs_f64();
    if traced {
        span::start(SPAN_CAPACITY);
        alloc::start();
    }
    for gate in &world.start {
        gate.open(&mut world.hv);
    }
    let ran = world.run_while(limit, world.done());
    let (allocs, spans) = if traced {
        (alloc::stop(), span::stop())
    } else {
        ((0, 0), Vec::new())
    };
    ran.map_err(|e| format!("measured phase: {e}"))?;
    let counters = world.snapshot().since(&before);
    for gate in &world.report {
        gate.open(&mut world.hv);
    }
    world
        .run_while(limit, world.reported())
        .map_err(|e| format!("report: {e}"))?;
    let outcome = (world.finish)();
    if let Some(path) = trace_file {
        std::fs::write(path, span::to_json(w.name, seed, &spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(Rep {
        setup_s,
        peak_rss_mb: peak_rss_mb(),
        allocs,
        counters,
        outcome,
        summary: span::summarize(&spans),
    })
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

// ------------------------------------------------------------- the record

fn join<T: ToString>(items: impl IntoIterator<Item = T>, sep: &str) -> String {
    items
        .into_iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(sep)
}

fn numbers(s: &str, sep: char) -> Option<Vec<u64>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(sep).map(|n| n.parse().ok()).collect()
}

fn triple(v: Option<(u64, u64, u64)>) -> String {
    v.map_or("-".into(), |(a, b, c)| format!("{a},{b},{c}"))
}

fn untriple(s: &str) -> Option<Option<(u64, u64, u64)>> {
    if s == "-" {
        return Some(None);
    }
    match numbers(s, ',')?[..] {
        [a, b, c] => Some(Some((a, b, c))),
        _ => None,
    }
}

impl Rep {
    /// Everything that must repeat exactly for the same inputs — the
    /// virtual figures and every counter — as one token. Two repetitions
    /// of one seed with different tokens fail the run.
    pub fn fingerprint(&self) -> String {
        let o = &self.outcome;
        let m = &o.measured;
        let t = &o.tcp;
        let stack = |s: &StackStats| {
            join(
                [
                    s.conns,
                    s.half_open,
                    s.max_conns,
                    s.max_half_open,
                    s.syn_cookies_sent,
                    s.syn_cookies_accepted,
                    s.timer_polls,
                ],
                "/",
            )
        };
        [
            join(self.counters.to_vec(), ","),
            join(
                [
                    m.virt_start_ns,
                    m.virt_end_ns,
                    m.attempted,
                    m.failed,
                    m.payload_bytes,
                    m.storage_gets,
                    m.storage_sets,
                ],
                ",",
            ),
            join(m.lat.sparse().iter().map(|(b, c)| format!("{b}:{c}")), ";"),
            join(
                [
                    t.segs_in,
                    t.segs_out,
                    t.bytes_in,
                    t.bytes_out,
                    t.rto_retransmits,
                    t.fast_retransmits,
                    t.persist_probes,
                    t.ooo_evictions,
                    t.overlap_conflicts,
                    t.injections_dropped,
                ],
                ",",
            ),
            join(o.stacks.iter().map(stack), ";"),
            triple(o.http),
            triple(o.dns),
        ]
        .join("|")
    }

    /// The record a repetition's process prints: host figures, the
    /// fingerprint, span totals.
    pub fn encode(&self) -> String {
        let s = &self.summary;
        let by_name = join(
            s.by_name.iter().map(|(n, c, own)| format!("{n}:{c}:{own}")),
            ";",
        );
        format!(
            "REP {},{},{},{},{},{} {} {},{},{};{by_name}",
            self.setup_s,
            self.outcome.measured.wall_ns,
            self.peak_rss_mb,
            self.allocs.0,
            self.allocs.1,
            join(&self.outcome.measured.window_ns, "/"),
            self.fingerprint(),
            s.roots,
            s.root_virt_ns,
            s.unattributed_virt_ns,
        )
    }

    /// The inverse of [`encode`](Self::encode).
    pub fn decode(line: &str) -> Option<Rep> {
        let mut tokens = line.strip_prefix("REP ")?.split(' ');
        let (host, exact, spans) = (tokens.next()?, tokens.next()?, tokens.next()?);

        let host: Vec<&str> = host.split(',').collect();
        let [setup_s, wall_ns, rss, allocs, alloc_bytes, window_ns] = host[..] else {
            return None;
        };

        let parts: Vec<&str> = exact.split('|').collect();
        let [counters, measured, lat, tcp, stacks, http, dns] = parts[..] else {
            return None;
        };
        let [virt_start_ns, virt_end_ns, attempted, failed, payload_bytes, storage_gets, storage_sets] =
            numbers(measured, ',')?[..]
        else {
            return None;
        };
        let buckets: Option<Vec<(usize, u64)>> = lat
            .split(';')
            .filter(|p| !p.is_empty())
            .map(|p| {
                let (b, c) = p.split_once(':')?;
                Some((b.parse().ok()?, c.parse().ok()?))
            })
            .collect();
        let [segs_in, segs_out, bytes_in, bytes_out, rto, fast, persist, ooo, overlap, injected] =
            numbers(tcp, ',')?[..]
        else {
            return None;
        };
        let stacks: Option<Vec<StackStats>> = stacks
            .split(';')
            .filter(|p| !p.is_empty())
            .map(|p| match numbers(p, '/')?[..] {
                [conns, half_open, max_conns, max_half_open, sent, accepted, timer_polls] => {
                    Some(StackStats {
                        conns,
                        half_open,
                        max_conns,
                        max_half_open,
                        syn_cookies_sent: sent,
                        syn_cookies_accepted: accepted,
                        timer_polls,
                    })
                }
                _ => None,
            })
            .collect();

        let (totals, by_name) = spans.split_once(';')?;
        let [roots, root_virt_ns, unattributed_virt_ns] = numbers(totals, ',')?[..] else {
            return None;
        };
        let by_name: Option<Vec<(&'static str, u64, u64)>> = by_name
            .split(';')
            .filter(|p| !p.is_empty())
            .map(|p| {
                let mut f = p.split(':');
                let first = f.next()?;
                let name = span::NAMES.iter().copied().find(|n| *n == first)?;
                Some((name, f.next()?.parse().ok()?, f.next()?.parse().ok()?))
            })
            .collect();

        Some(Rep {
            setup_s: setup_s.parse().ok()?,
            peak_rss_mb: rss.parse().ok()?,
            allocs: (allocs.parse().ok()?, alloc_bytes.parse().ok()?),
            counters: Counters::from_slice(&numbers(counters, ',')?)?,
            outcome: Outcome {
                measured: Measured {
                    virt_start_ns,
                    virt_end_ns,
                    wall_ns: wall_ns.parse().ok()?,
                    attempted,
                    failed,
                    payload_bytes,
                    lat: Histogram::from_sparse(&buckets?)?,
                    storage_gets,
                    storage_sets,
                    window_ns: numbers(window_ns, '/')?,
                },
                tcp: TcpStats {
                    segs_in,
                    segs_out,
                    bytes_in,
                    bytes_out,
                    rto_retransmits: rto,
                    fast_retransmits: fast,
                    persist_probes: persist,
                    ooo_evictions: ooo,
                    overlap_conflicts: overlap,
                    injections_dropped: injected,
                    cwnd: 0,
                },
                stacks: stacks?,
                http: untriple(http)?,
                dns: untriple(dns)?,
            },
            summary: Summary {
                roots,
                root_virt_ns,
                by_name: by_name?,
                unattributed_virt_ns,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_survives_the_pipe() {
        let mut lat = Histogram::new();
        for v in [39_000u64, 39_000, 41_500, 2_000_000] {
            lat.record(v);
        }
        let rep = Rep {
            setup_s: 0.4512345678901,
            peak_rss_mb: 46.59765625,
            allocs: (12, 3456),
            counters: Counters {
                hypercalls: 7,
                tree_log_bytes: 9,
                steps: 1 << 40,
                ..Counters::default()
            },
            outcome: Outcome {
                measured: Measured {
                    virt_start_ns: 5,
                    virt_end_ns: 1_000_000_005,
                    wall_ns: 987_654_321,
                    attempted: 4,
                    failed: 1,
                    payload_bytes: 560,
                    lat,
                    storage_gets: 3,
                    storage_sets: 1,
                    window_ns: vec![100, 90, 120],
                },
                tcp: TcpStats {
                    segs_out: 11,
                    rto_retransmits: 2,
                    ..TcpStats::default()
                },
                stacks: vec![
                    StackStats {
                        max_conns: 3,
                        timer_polls: 17,
                        ..StackStats::default()
                    };
                    2
                ],
                http: Some((1, 10, 0)),
                dns: None,
            },
            summary: Summary {
                roots: 4,
                root_virt_ns: 700,
                by_name: vec![(span::OP, 4, 500), (span::BLK_IO, 9, 200)],
                unattributed_virt_ns: 0,
            },
        };
        let line = rep.encode();
        let back = Rep::decode(&line).expect("own record decodes");
        assert_eq!(back.encode(), line);
        assert_eq!(back.setup_s, rep.setup_s);
        assert_eq!(back.outcome.measured.wall_ns, 987_654_321);
        assert_eq!(back.outcome.measured.window_ns, [100, 90, 120]);
        assert_eq!(back.summary, rep.summary);
        assert!(Rep::decode("REP 1,2,3").is_none());
        assert!(Rep::decode(&line.replace("|-", "|x")).is_none());
    }
}
