//! The metric names the benchmark reports — the vocabulary later issues
//! cite — with unit, direction and how two runs of the same code may
//! differ. `BENCHMARK.json` is generated from these tables.

/// How a metric may differ between two runs of the same code and seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Virtual clock or a program counter: repeats exactly.
    Exact,
    /// Host clock or host memory: repeats within a bound.
    Host,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub clock: Clock,
    /// End-to-end: the share of the parent's median by which it may worsen
    /// (and by which two sets of `--check` may differ on a host-clock
    /// figure). Per-layer metrics have none.
    pub bound: f64,
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock: Clock::Exact,
        bound,
    }
}

const fn host(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock: Clock::Host,
        bound,
    }
}

/// What a user of the system sees. Every one is reported on every
/// workload and is never zero; failures travel in the result line's
/// `attempted`/`failed` instead of a `fail_ratio` that is zero when all is
/// well. The virtual figures repeat exactly for one seed; their bounds are
/// what a change of seed may move them by (see README, "Bounds").
pub const END_TO_END: &[Metric] = &[
    host("setup_s", "s", "lower", 0.25),
    exact("virt_ops_per_s", "1/s", "higher", 0.15),
    exact("virt_goodput_mbps", "Mbit/s", "higher", 0.15),
    exact("virt_lat_p50_us", "us", "lower", 0.15),
    exact("virt_lat_p99_us", "us", "lower", 0.15),
    host("wall_ns_per_op", "ns", "lower", 0.25),
    host("peak_rss_mb", "MiB", "lower", 0.10),
];

const fn count(name: &'static str, better: &'static str) -> Metric {
    exact(name, "count", better, 0.0)
}

const fn ratio(name: &'static str, better: &'static str) -> Metric {
    exact(name, "ratio", better, 0.0)
}

const fn virt_us(name: &'static str) -> Metric {
    exact(name, "us", "lower", 0.0)
}

/// A per-layer host-clock figure: reported, never compared.
const fn host_layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    host(name, unit, better, f64::INFINITY)
}

const fn wall_ns(name: &'static str) -> Metric {
    host_layer(name, "ns", "lower")
}

/// Single layers (layer = crate/module name). No bound; zero where a
/// workload does not touch the layer.
pub const PER_LAYER: &[Metric] = &[
    // (a) counts, from the public *Stats after a timed repetition.
    count("hypervisor.hypercalls_per_op", "lower"),
    count("hypervisor.notifications_per_op", "lower"),
    count("hypervisor.grant_maps_per_op", "lower"),
    count("hypervisor.grant_copies_per_op", "lower"),
    count("hypervisor.steps_per_op", "lower"),
    wall_ns("hypervisor.wall_ns_per_step"),
    count("runtime.tasks_spawned_per_op", "lower"),
    count("cstruct.copies_per_op", "lower"),
    ratio("cstruct.copy_bytes_per_byte", "lower"),
    count("cstruct.serializes_per_op", "lower"),
    count("devices.netfront.tx_frames_per_op", "lower"),
    count("devices.netfront.rx_frames_per_op", "lower"),
    ratio("devices.netfront.doorbells_per_frame", "lower"),
    count("devices.netfront.tx_drops", "lower"),
    count("devices.netback.frames_switched_per_op", "lower"),
    ratio("devices.netback.drop_ratio", "lower"),
    ratio("devices.netem.lost_ratio", "lower"),
    count("devices.blk.completed_per_op", "lower"),
    count("net.tcp.segs_out_per_op", "lower"),
    count("net.tcp.segs_in_per_op", "lower"),
    exact("net.tcp.payload_bytes_per_seg", "B", "higher", 0.0),
    ratio("net.tcp.retransmit_ratio", "lower"),
    count("net.tcp.rto_retransmits", "lower"),
    count("net.tcp.fast_retransmits", "lower"),
    count("net.tcp.persist_probes", "lower"),
    count("net.tcp.ooo_evictions", "lower"),
    count("net.stack.timer_polls_per_op", "lower"),
    count("net.stack.max_conns", "lower"),
    count("net.stack.syn_cookies_sent", "lower"),
    count("http.connections", "higher"),
    count("http.requests_per_conn", "higher"),
    ratio("http.error_ratio", "lower"),
    ratio("dns.memo_hit_ratio", "higher"),
    count("dns.malformed", "lower"),
    count("storage.btree.commits", "lower"),
    count("storage.btree.nodes_written_per_commit", "lower"),
    exact("storage.btree.log_bytes_per_commit", "B", "lower", 0.0),
    host_layer("host.allocs_per_op", "count", "lower"),
    host_layer("host.alloc_bytes_per_op", "B", "lower"),
    // (b) spans, from the traced repetition: mean self time per op.
    virt_us("net.transit_virt_us"),
    virt_us("app.self_virt_us"),
    virt_us("http.handler_self_virt_us"),
    virt_us("storage.call_self_virt_us"),
    virt_us("devices.blk.io_virt_us"),
    count("devices.blk.io_per_op", "lower"),
    virt_us("net.app_read_wait_virt_us"),
    ratio("trace.unattributed_virt_ratio", "lower"),
    host_layer("trace.overhead_ratio", "ratio", "lower"),
    // (c) component pass: host ns per call into each layer.
    wall_ns("cstruct.page_cycle_ns"),
    wall_ns("ring.desc_roundtrip_ns"),
    wall_ns("devices.virtq.roundtrip_ns"),
    wall_ns("devices.rss.toeplitz_ns"),
    wall_ns("hypervisor.evtchn_notify_ns"),
    wall_ns("hypervisor.grant_cycle_ns"),
    wall_ns("runtime.task_cycle_ns"),
    wall_ns("testkit.wheel.arm_cancel_ns"),
    wall_ns("net.checksum_ns_1460"),
    wall_ns("net.tcp.wire_parse_ns"),
    wall_ns("net.tcp.wire_build_ns"),
    wall_ns("net.tcp.seg_cycle_ns_mss"),
    host_layer("net.tcp.seg_cycle_allocs", "count", "lower"),
    wall_ns("net.tcp.seg_cycle_ns_64"),
    wall_ns("net.tcp.lifecycle_ns"),
    wall_ns("net.tcp.ooo_cycle_ns"),
    wall_ns("net.tcp.demux_lookup_ns"),
    wall_ns("http.parse_request_ns"),
    wall_ns("http.encode_response_ns"),
    wall_ns("dns.answer_hit_ns"),
    wall_ns("dns.answer_miss_ns"),
    wall_ns("storage.btree.get_ns"),
    wall_ns("storage.btree.set_ns"),
    host_layer("trace.wall_attributed_ratio", "ratio", "higher"),
];

/// Which layer metrics should move which end-to-end metric on which
/// workload — written down before anything is optimised. `not_on` names
/// the bypass: the workloads on which the prediction is no change.
pub struct Interaction {
    pub layer: &'static [&'static str],
    pub moves: &'static [&'static str],
    pub on: &'static [&'static str],
    pub not_on: &'static [&'static str],
}

pub const INTERACTIONS: &[Interaction] = &[
    Interaction {
        layer: &[
            "net.tcp.seg_cycle_ns_mss",
            "net.tcp.wire_parse_ns",
            "net.tcp.wire_build_ns",
            "net.checksum_ns_1460",
            "ring.desc_roundtrip_ns",
            "cstruct.page_cycle_ns",
            "host.allocs_per_op",
        ],
        moves: &["wall_ns_per_op"],
        on: &["tcp_bulk"],
        not_on: &["kv_blk"],
    },
    Interaction {
        layer: &[
            "net.tcp.segs_out_per_op",
            "net.tcp.payload_bytes_per_seg",
            "hypervisor.notifications_per_op",
            "devices.netfront.doorbells_per_frame",
            "hypervisor.grant_maps_per_op",
            "hypervisor.grant_copies_per_op",
        ],
        moves: &["virt_goodput_mbps"],
        on: &["tcp_bulk"],
        not_on: &["dns_udp", "kv_blk"],
    },
    Interaction {
        layer: &[
            "devices.netback.drop_ratio",
            "devices.netfront.tx_drops",
            "net.tcp.rto_retransmits",
            "net.tcp.retransmit_ratio",
        ],
        moves: &["virt_goodput_mbps", "virt_lat_p99_us"],
        on: &["tcp_fan16"],
        not_on: &["tcp_bulk"],
    },
    Interaction {
        layer: &[
            "devices.netem.lost_ratio",
            "net.tcp.fast_retransmits",
            "net.tcp.ooo_evictions",
            "net.tcp.ooo_cycle_ns",
        ],
        moves: &["virt_goodput_mbps", "wall_ns_per_op"],
        on: &["tcp_lossy"],
        not_on: &["tcp_bulk"],
    },
    Interaction {
        layer: &[
            "net.tcp.lifecycle_ns",
            "net.tcp.seg_cycle_ns_64",
            "net.tcp.demux_lookup_ns",
            "testkit.wheel.arm_cancel_ns",
            "net.stack.timer_polls_per_op",
            "runtime.task_cycle_ns",
            "http.parse_request_ns",
            "http.encode_response_ns",
        ],
        moves: &["wall_ns_per_op"],
        on: &["http_churn"],
        not_on: &["tcp_bulk"],
    },
    Interaction {
        layer: &[
            "net.transit_virt_us",
            "http.handler_self_virt_us",
            "storage.call_self_virt_us",
            "devices.blk.io_virt_us",
        ],
        moves: &["virt_lat_p50_us", "virt_ops_per_s"],
        on: &["http_churn"],
        not_on: &[],
    },
    Interaction {
        layer: &["devices.virtq.roundtrip_ns"],
        moves: &["wall_ns_per_op"],
        on: &["http_churn"],
        not_on: &["tcp_bulk", "tcp_fan16", "tcp_lossy", "dns_udp", "kv_blk"],
    },
    Interaction {
        layer: &[
            "ring.desc_roundtrip_ns",
            "cstruct.page_cycle_ns",
            "hypervisor.evtchn_notify_ns",
            "hypervisor.grant_cycle_ns",
            "hypervisor.steps_per_op",
            "hypervisor.wall_ns_per_step",
            "devices.netfront.tx_frames_per_op",
            "devices.netfront.rx_frames_per_op",
        ],
        moves: &["wall_ns_per_op"],
        on: &["dns_udp"],
        not_on: &["kv_blk"],
    },
    Interaction {
        layer: &[
            "dns.memo_hit_ratio",
            "dns.answer_hit_ns",
            "dns.answer_miss_ns",
        ],
        moves: &["wall_ns_per_op"],
        on: &["dns_udp"],
        not_on: &["tcp_bulk", "tcp_fan16", "tcp_lossy", "http_churn", "kv_blk"],
    },
    Interaction {
        layer: &[
            "storage.btree.nodes_written_per_commit",
            "storage.btree.log_bytes_per_commit",
            "devices.blk.io_per_op",
            "devices.blk.completed_per_op",
        ],
        moves: &["virt_lat_p50_us", "virt_ops_per_s"],
        on: &["kv_blk", "http_churn"],
        not_on: &["tcp_bulk", "tcp_fan16", "tcp_lossy", "dns_udp"],
    },
    Interaction {
        layer: &["storage.btree.get_ns", "storage.btree.set_ns"],
        moves: &["wall_ns_per_op"],
        on: &["kv_blk"],
        not_on: &["tcp_bulk", "tcp_fan16", "tcp_lossy", "dns_udp"],
    },
    Interaction {
        layer: &["cstruct.copy_bytes_per_byte"],
        moves: &["wall_ns_per_op", "peak_rss_mb"],
        on: &["tcp_bulk", "http_churn"],
        not_on: &[],
    },
    Interaction {
        layer: &["net.app_read_wait_virt_us", "app.self_virt_us"],
        moves: &["virt_goodput_mbps", "virt_lat_p50_us"],
        on: &["tcp_bulk", "tcp_fan16", "tcp_lossy"],
        not_on: &["http_churn", "dns_udp", "kv_blk"],
    },
];

/// `benchmark/interactions.json`: [`INTERACTIONS`], machine-readable.
pub fn interactions_json() -> String {
    let list = |names: &[&str]| {
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        format!("[{}]", quoted.join(", "))
    };
    let rows: Vec<String> = INTERACTIONS
        .iter()
        .map(|i| {
            format!(
                "  {{\n    \"layer\": {},\n    \"should_move\": {},\n    \"on\": {},\n    \"should_not_move_on\": {}\n  }}",
                list(i.layer),
                list(i.moves),
                list(i.on),
                list(i.not_on)
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 6;

/// The contents of `BENCHMARK.json`, in the builder-contract schema.
pub fn manifest() -> String {
    let workloads: Vec<String> = crate::workloads::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn interactions_name_real_metrics_and_workloads() {
        assert_eq!(
            include_str!("../interactions.json"),
            interactions_json(),
            "regenerate with `benchmark/run.sh interactions > benchmark/interactions.json`"
        );
        for i in INTERACTIONS {
            for name in i.layer {
                assert!(
                    PER_LAYER.iter().any(|m| m.name == *name),
                    "{name} is not a per-layer metric"
                );
            }
            for name in i.moves {
                assert!(
                    END_TO_END.iter().any(|m| m.name == *name),
                    "{name} is not end-to-end"
                );
            }
            for w in i.on.iter().chain(i.not_on) {
                assert!(crate::workloads::find(w).is_some(), "{w} is not a workload");
            }
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for w in crate::workloads::ALL {
            assert!(ok_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&crate::workloads::ALL.len()));
    }
}
