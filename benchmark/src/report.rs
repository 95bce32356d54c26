//! Turns repetitions into the named metrics.

use crate::rep::Rep;
use crate::span::{self, Summary};
use crate::workloads::{RootSelf, Workload};
use crate::world::{add_tcp, Counters, Outcome, WINDOWS};

pub type Values = Vec<(&'static str, f64)>;

pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// The lower quartile: the value a quarter of the way up the sorted list.
/// Host time only ever gains from interference — a busy neighbour, a
/// cold cache — so the low end of a run's windows is where the program's
/// own cost shows; the quartile rather than the minimum, because windows
/// hold different work (a handshake, a loss burst) and the lightest is an
/// outlier of its own.
pub fn lower_quartile(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        return 0.0;
    }
    xs[(xs.len() - 1) / 4]
}

/// Host ns per op in each window of one repetition.
pub fn window_ns_per_op(rep: &Rep) -> Vec<f64> {
    let m = &rep.outcome.measured;
    let ops_per_window = m.attempted.max(1) as f64 / WINDOWS as f64;
    m.window_ns
        .iter()
        .map(|ns| *ns as f64 / ops_per_window)
        .collect()
}

/// Host ns per op of a set of repetitions: the lower quartile over every
/// window of every one.
pub fn wall_ns_per_op<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> f64 {
    lower_quartile(reps.into_iter().flat_map(window_ns_per_op).collect())
}

/// The repetitions of one run pooled into one: counters, ops and virtual
/// time summed, latency histograms merged. Each repetition draws its own
/// inputs from the run's seed, so the pooled figures average over that
/// many independent draws — which is what keeps the loss-driven workloads
/// steady from seed to seed.
pub struct Pooled {
    pub reps: usize,
    pub counters: Counters,
    pub outcome: Outcome,
}

pub fn pool(reps: &[&Rep]) -> Pooled {
    let mut counters = Counters::default();
    let mut out = Outcome::default();
    for rep in reps {
        counters = counters.plus(&rep.counters);
        let (m, r) = (&mut out.measured, &rep.outcome.measured);
        // Virtual time as one long interval starting at zero.
        m.virt_end_ns += r.virt_end_ns - r.virt_start_ns;
        m.wall_ns += r.wall_ns;
        m.attempted += r.attempted;
        m.failed += r.failed;
        m.payload_bytes += r.payload_bytes;
        m.storage_gets += r.storage_gets;
        m.storage_sets += r.storage_sets;
        m.lat.merge(&r.lat);
        add_tcp(&mut out.tcp, &rep.outcome.tcp);
        out.stacks.extend(rep.outcome.stacks.iter().copied());
        let sum = |a: Option<(u64, u64, u64)>, b: Option<(u64, u64, u64)>| match (a, b) {
            (Some(a), Some(b)) => Some((a.0 + b.0, a.1 + b.1, a.2 + b.2)),
            (a, b) => a.or(b),
        };
        out.http = sum(out.http, rep.outcome.http);
        out.dns = sum(out.dns, rep.outcome.dns);
    }
    Pooled {
        reps: reps.len(),
        counters,
        outcome: out,
    }
}

/// The end-to-end metrics of a run: virtual figures over the pooled
/// repetitions; of the host figures, set-up time and peak memory as the
/// median over them and time per op as the lower quartile over their
/// windows.
pub fn end_to_end(reps: &[Rep]) -> Values {
    let pooled = pool(&reps.iter().collect::<Vec<_>>());
    let m = &pooled.outcome.measured;
    let virt_s = m.virt_end_ns as f64 / 1e9;
    vec![
        ("setup_s", median(reps.iter().map(|r| r.setup_s).collect())),
        ("virt_ops_per_s", m.attempted as f64 / virt_s),
        (
            "virt_goodput_mbps",
            m.payload_bytes as f64 * 8.0 / virt_s / 1e6,
        ),
        ("virt_lat_p50_us", m.lat.median() / 1e3),
        ("virt_lat_p99_us", m.lat.quantile(0.99) / 1e3),
        ("wall_ns_per_op", wall_ns_per_op(reps)),
        (
            "peak_rss_mb",
            median(reps.iter().map(|r| r.peak_rss_mb).collect()),
        ),
    ]
}

fn per(x: u64, ops: f64) -> f64 {
    x as f64 / ops
}

fn div(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// (a): counts over the pooled untraced repetitions, per op; plain
/// counts are means per repetition.
pub fn layer_counts(pooled: &Pooled, wall_ns_per_step: f64) -> Values {
    let c = &pooled.counters;
    let o = &pooled.outcome;
    let ops = o.measured.attempted.max(1) as f64;
    let each = |x: u64| x as f64 / pooled.reps.max(1) as f64;
    let tcp = &o.tcp;
    let (http_conns, http_reqs, http_errs) = o.http.unwrap_or_default();
    let (dns_queries, dns_hits, dns_malformed) = o.dns.unwrap_or_default();
    vec![
        ("hypervisor.hypercalls_per_op", per(c.hypercalls, ops)),
        ("hypervisor.notifications_per_op", per(c.notifications, ops)),
        ("hypervisor.grant_maps_per_op", per(c.grant_maps, ops)),
        ("hypervisor.grant_copies_per_op", per(c.grant_copies, ops)),
        ("hypervisor.steps_per_op", per(c.steps, ops)),
        ("hypervisor.wall_ns_per_step", wall_ns_per_step),
        ("runtime.tasks_spawned_per_op", per(c.tasks_spawned, ops)),
        ("cstruct.copies_per_op", per(c.copies, ops)),
        (
            "cstruct.copy_bytes_per_byte",
            div(c.copy_bytes, o.measured.payload_bytes),
        ),
        ("cstruct.serializes_per_op", per(c.serializes, ops)),
        ("devices.netfront.tx_frames_per_op", per(c.tx_frames, ops)),
        ("devices.netfront.rx_frames_per_op", per(c.rx_frames, ops)),
        (
            "devices.netfront.doorbells_per_frame",
            div(c.doorbells, c.tx_frames),
        ),
        ("devices.netfront.tx_drops", each(c.tx_drops)),
        (
            "devices.netback.frames_switched_per_op",
            per(c.frames_switched, ops),
        ),
        (
            "devices.netback.drop_ratio",
            div(c.frames_tail_dropped, c.frames_switched),
        ),
        (
            "devices.netem.lost_ratio",
            div(c.netem_lost, c.netem_offered),
        ),
        ("devices.blk.completed_per_op", per(c.blk_completed, ops)),
        ("net.tcp.segs_out_per_op", per(tcp.segs_out, ops)),
        ("net.tcp.segs_in_per_op", per(tcp.segs_in, ops)),
        (
            "net.tcp.payload_bytes_per_seg",
            div(tcp.bytes_out, tcp.segs_out),
        ),
        (
            "net.tcp.retransmit_ratio",
            div(tcp.total_retransmits(), tcp.segs_out),
        ),
        ("net.tcp.rto_retransmits", each(tcp.rto_retransmits)),
        ("net.tcp.fast_retransmits", each(tcp.fast_retransmits)),
        ("net.tcp.persist_probes", each(tcp.persist_probes)),
        ("net.tcp.ooo_evictions", each(tcp.ooo_evictions)),
        (
            "net.stack.timer_polls_per_op",
            per(o.stacks.iter().map(|s| s.timer_polls).sum(), ops),
        ),
        (
            "net.stack.max_conns",
            o.stacks.iter().map(|s| s.max_conns).max().unwrap_or(0) as f64,
        ),
        (
            "net.stack.syn_cookies_sent",
            each(o.stacks.iter().map(|s| s.syn_cookies_sent).sum()),
        ),
        ("http.connections", each(http_conns)),
        ("http.requests_per_conn", div(http_reqs, http_conns)),
        ("http.error_ratio", div(http_errs, http_reqs)),
        ("dns.memo_hit_ratio", div(dns_hits, dns_queries)),
        ("dns.malformed", each(dns_malformed)),
        ("storage.btree.commits", each(c.tree_commits)),
        (
            "storage.btree.nodes_written_per_commit",
            div(c.tree_nodes_written, c.tree_commits),
        ),
        (
            "storage.btree.log_bytes_per_commit",
            div(c.tree_log_bytes, c.tree_commits),
        ),
    ]
}

/// (b): mean self time per op of each span name over the traced
/// repetitions (`allocs` and `ops` are their totals).
pub fn layer_spans(
    w: &Workload,
    allocs: (u64, u64),
    ops: u64,
    summary: &Summary,
    overhead_ratio: f64,
) -> Values {
    let ops = ops.max(1) as f64;
    let root_self = summary.mean_self_us(span::OP);
    let (transit, app) = match w.root_self {
        RootSelf::Transit => (root_self, 0.0),
        RootSelf::App => (0.0, root_self),
    };
    vec![
        ("host.allocs_per_op", per(allocs.0, ops)),
        ("host.alloc_bytes_per_op", per(allocs.1, ops)),
        ("net.transit_virt_us", transit),
        ("app.self_virt_us", app),
        (
            "http.handler_self_virt_us",
            summary.mean_self_us(span::HTTP_HANDLER),
        ),
        (
            "storage.call_self_virt_us",
            summary.mean_self_us(span::STORAGE_CALL),
        ),
        ("devices.blk.io_virt_us", summary.mean_self_us(span::BLK_IO)),
        (
            "devices.blk.io_per_op",
            div(summary.count(span::BLK_IO), summary.roots),
        ),
        (
            "net.app_read_wait_virt_us",
            summary.mean_self_us(span::APP_READ_WAIT),
        ),
        (
            "trace.unattributed_virt_ratio",
            summary.unattributed_ratio(),
        ),
        ("trace.overhead_ratio", overhead_ratio),
    ]
}

fn get(values: &Values, name: &str) -> f64 {
    values.iter().find(|v| v.0 == name).map_or(0.0, |v| v.1)
}

/// Σ(calls per op from (a) × ns per call from (c)) ÷ `wall_ns_per_op`: the
/// share of an op's host time the component timings account for. The rest
/// is glue — channels, executor, scheduling — that only spans inside the
/// product can split.
pub fn wall_attributed_ratio(
    w: &Workload,
    pooled: &Pooled,
    counts: &Values,
    component: &Values,
    wall_ns: f64,
) -> f64 {
    let m = &pooled.outcome.measured;
    let ops = m.attempted.max(1) as f64;
    let n = |name: &str| get(counts, name);
    let ns = |name: &str| get(component, name);
    let transport = if w.virtio {
        ns("devices.virtq.roundtrip_ns")
    } else {
        ns("ring.desc_roundtrip_ns")
    };
    // Every frame crosses a TX ring and an RX ring through one I/O page.
    let frames =
        n("devices.netfront.tx_frames_per_op") * (2.0 * transport + ns("cstruct.page_cycle_ns"));
    // Every blk request is one ring round trip.
    let blk = n("devices.blk.completed_per_op") * transport;
    let hypervisor = n("hypervisor.notifications_per_op") * ns("hypervisor.evtchn_notify_ns")
        + n("hypervisor.grant_maps_per_op") * ns("hypervisor.grant_cycle_ns");
    let runtime = n("runtime.tasks_spawned_per_op") * ns("runtime.task_cycle_ns")
        + n("net.stack.timer_polls_per_op") * ns("testkit.wheel.arm_cancel_ns");
    // A segment cycle is a segment out and its acknowledgement back.
    let seg_cycle = if n("net.tcp.payload_bytes_per_seg") >= 512.0 {
        ns("net.tcp.seg_cycle_ns_mss")
    } else {
        ns("net.tcp.seg_cycle_ns_64")
    };
    let tcp = n("net.tcp.segs_out_per_op") / 2.0 * seg_cycle;
    let http = if pooled.outcome.http.is_some() {
        ns("http.parse_request_ns") + ns("http.encode_response_ns")
    } else {
        0.0
    };
    let dns = if pooled.outcome.dns.is_some() {
        let hit = n("dns.memo_hit_ratio");
        hit * ns("dns.answer_hit_ns") + (1.0 - hit) * ns("dns.answer_miss_ns")
    } else {
        0.0
    };
    let storage = per(m.storage_gets, ops) * ns("storage.btree.get_ns")
        + per(m.storage_sets, ops) * ns("storage.btree.set_ns");
    (frames + blk + hypervisor + runtime + tcp + http + dns + storage) / wall_ns
}

/// One JSON number: every digit, and never `NaN`/`inf` (not JSON).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The contract's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            let unit = crate::metrics::find(name).map_or("", |m| m.unit);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}
