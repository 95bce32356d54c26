#!/usr/bin/env bash
# Network-path benchmark harness: runs the Figure 8 (TCP throughput),
# Figure 12 (dynamic web) and zero-copy ablation benches and distils the
# headline numbers into BENCH_net.json at the repo root.
#
#   scripts/bench.sh            # run benches, write BENCH_net.json
#   scripts/bench.sh --scale    # run the C1M scenario (examples/c1m) at
#                               # full scale and write BENCH_scale.json,
#                               # gating >=1M held connections and a
#                               # roughly flat (<=2x) quiet-tick cost
#                               # from 10k to 1M
#   scripts/bench.sh --cc       # race NewReno vs CUBIC (examples/cc_race)
#                               # over the loss x delay grid and write
#                               # BENCH_cc.json, gating CUBIC >= NewReno
#                               # goodput on the clean (zero-loss) cells
#   scripts/bench.sh --smp      # run the SMP matrix (examples/smp):
#                               # {1,16} flows x {1,2,4,8} vCPUs, writing
#                               # BENCH_smp.json and gating the 16-flow
#                               # row: 1 vCPU >= 0.9x the 1-flow cell,
#                               # never falling as vCPUs are added, 4
#                               # vCPUs >= 2x 1 vCPU; plus a zero
#                               # quiet-tick poll count on every core
#   scripts/bench.sh --virtio   # run the Figure 8 pairings with the ring
#                               # ABI as an axis (fig08_backends), writing
#                               # BENCH_virtio.json and gating each virtio
#                               # row to within 2x of its Xen twin
#
# Every writer hands its result to scripts/bench_guard.py, which refuses
# to overwrite a checked-in BENCH_*.json whose gated metrics would
# regress versus the recorded values.
#
# The micro_zerocopy bench asserts the copy-count gate itself (at most one
# software copy per delivered payload byte on the HTTP static-file path);
# a regression there fails this script before the JSON is written.

set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

if [[ "${1:-}" == "--scale" ]]; then
    out=BENCH_scale.json
    echo "== bench: c1m (one million connections; this takes a few minutes)"
    cargo build --release --offline --example c1m
    ./target/release/examples/c1m > "$tmp/c1m.out" 2> "$tmp/c1m.err"
    cat "$tmp/c1m.out" "$tmp/c1m.err"

    python3 - "$tmp" "$tmp/candidate.json" <<'PY'
import json, re, sys

tmp, out = sys.argv[1], sys.argv[2]
stdout = open(f"{tmp}/c1m.out").read()
stderr = open(f"{tmp}/c1m.err").read()

def need(pattern, blob, what):
    m = re.search(pattern, blob)
    if not m:
        sys.exit(f"FAIL: could not parse {what} from c1m output")
    return m

held = need(r"connections held\s*:\s*(\d+) on the server \((\d+) client-side\)",
            stdout, "connections held")
hot = need(r"hot subset\s*:\s*(\d+) streaming every [^,]+, (\d+) responses",
           stdout, "hot subset")
lat = need(r"accept latency\s*:\s*p50 ([\d.]+) us, p99 ([\d.]+) us over (\d+) handshakes",
           stdout, "accept latency")
audit = need(r"idle conn audit\s*:\s*(\d+) bytes/conn", stdout, "idle conn audit")
polls = need(r"timer polls / 8ms\s*:\s*(\d+) at (\d+) conns -> (\d+) at (\d+) conns",
             stdout, "timer polls")
tick = need(r"quiet tick\s*:\s*(\d+) ns/virtual-ms at (\d+) conns, (\d+) ns/virtual-ms at (\d+) conns \(x([\d.]+)\)",
            stderr, "tick cost")
storm = need(r"boot latency\s*:\s*p50 ([\d.]+) ms, p99 ([\d.]+) ms, max ([\d.]+) ms",
             stdout, "boot latency")
fleet = need(r"fleet\s*:\s*(\d+) sealed", stdout, "fleet size")
ready = need(r"whole storm ready at:\s*([\d.]+) ms", stdout, "storm ready")
rss = re.search(r"rss\s*:\s*(\d+) MiB total, (\d+) bytes/conn", stderr)

result = {
    "scenario": "c1m",
    "connections_held": int(held.group(1)),
    "connections_client_side": int(held.group(2)),
    "hot_subset": {"conns": int(hot.group(1)), "responses": int(hot.group(2))},
    "accept_latency_us": {"p50": float(lat.group(1)), "p99": float(lat.group(2)),
                          "handshakes": int(lat.group(3))},
    "bytes_per_idle_conn": {
        "stack_tables_audited": int(audit.group(1)),
        "rss_amortised": int(rss.group(2)) if rss else None,
    },
    "timer_polls_per_8ms": {
        "mid": {"conns": int(polls.group(2)), "polls": int(polls.group(1))},
        "full": {"conns": int(polls.group(4)), "polls": int(polls.group(3))},
    },
    "quiet_tick_ns_per_virtual_ms": {
        "mid": {"conns": int(tick.group(2)), "wall_ns": int(tick.group(1))},
        "full": {"conns": int(tick.group(4)), "wall_ns": int(tick.group(3))},
        "ratio": float(tick.group(5)),
    },
    "boot_storm": {
        "fleet": int(fleet.group(1)),
        "boot_ms": {"p50": float(storm.group(1)), "p99": float(storm.group(2)),
                    "max": float(storm.group(3))},
        "storm_ready_ms": float(ready.group(1)),
    },
}

# Gates: the appliance must actually hold a million concurrent
# connections, and the quiet-tick cost must stay roughly flat (O(due
# work), not O(connections)) across two orders of magnitude.
if result["connections_held"] < 1_000_000:
    sys.exit(f"FAIL: only {result['connections_held']} connections held (< 1,000,000)")
if result["quiet_tick_ns_per_virtual_ms"]["ratio"] > 2.0:
    sys.exit("FAIL: quiet-tick cost grew x%.2f from 10k to 1M connections (> 2.0)"
             % result["quiet_tick_ns_per_virtual_ms"]["ratio"])

with open(out, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print("candidate ok (gates passed)")
PY
    python3 scripts/bench_guard.py "$out" "$tmp/candidate.json"
    echo "== bench: done"
    exit 0
fi

if [[ "${1:-}" == "--cc" ]]; then
    out=BENCH_cc.json
    echo "== bench: cc race (NewReno vs CUBIC over the loss x delay grid)"
    cargo build --release --offline --example cc_race
    ./target/release/examples/cc_race > "$tmp/cc.out"
    cat "$tmp/cc.out"

    python3 - "$tmp" "$tmp/candidate.json" <<'PY'
import json, re, sys

tmp, out = sys.argv[1], sys.argv[2]
stdout = open(f"{tmp}/cc.out").read()

seed = re.search(r"seed\s*:\s*(\d+)", stdout)
bytes_ = re.search(r"transfer\s*:\s*(\d+) bytes", stdout)
if not (seed and bytes_):
    sys.exit("FAIL: could not parse cc_race header")

cells = {}
cell = None
for line in stdout.splitlines():
    m = re.match(r"cell (\S+)", line)
    if m:
        cell = m.group(1)
        cells[cell] = {}
        continue
    m = re.match(
        r"\s+(newreno|cubic)\s*: goodput ([\d.]+) Mb/s, elapsed ([\d.]+) s, "
        r"retrans (\d+) \(fast (\d+), rto (\d+)\), cwnd\[ms:bytes\] (.*)",
        line,
    )
    if m and cell:
        cells[cell][m.group(1)] = {
            "goodput_mbps": float(m.group(2)),
            "elapsed_s": float(m.group(3)),
            "retransmits": {"total": int(m.group(4)), "fast": int(m.group(5)),
                            "rto": int(m.group(6))},
            "cwnd_trajectory": [
                {"ms": int(ms), "cwnd_bytes": int(cw)}
                for ms, cw in (s.split(":") for s in m.group(7).split())
            ],
        }

if len(cells) != 6 or any(set(v) != {"newreno", "cubic"} for v in cells.values()):
    sys.exit(f"FAIL: expected 6 cells x 2 algorithms, parsed {cells.keys()}")

# Gate: on the clean high-bandwidth-delay cells (zero loss), CUBIC must
# do at least as well as NewReno — the algorithms should be
# window-limited equals there, so any shortfall is a CUBIC bug.
for cell, algs in cells.items():
    if cell.startswith("loss0.0") and algs["cubic"]["goodput_mbps"] < algs["newreno"]["goodput_mbps"]:
        sys.exit(f"FAIL: CUBIC below NewReno on clean cell {cell}: "
                 f"{algs['cubic']['goodput_mbps']} < {algs['newreno']['goodput_mbps']} Mb/s")

result = {
    "scenario": "cc_race",
    "seed": int(seed.group(1)),
    "transfer_bytes": int(bytes_.group(1)),
    "cells": cells,
}
with open(out, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print("candidate ok (gates passed)")
PY
    python3 scripts/bench_guard.py "$out" "$tmp/candidate.json"
    echo "== bench: done"
    exit 0
fi

if [[ "${1:-}" == "--smp" ]]; then
    out=BENCH_smp.json
    echo "== bench: smp matrix ({1,16} flows x {1,2,4,8} vCPUs + idle split)"
    cargo build --release --offline --example smp
    ./target/release/examples/smp > "$tmp/smp.out" 2> "$tmp/smp.err"
    cat "$tmp/smp.out" "$tmp/smp.err"

    python3 - "$tmp" "$tmp/candidate.json" <<'PY'
import json, re, sys

tmp, out = sys.argv[1], sys.argv[2]
stdout = open(f"{tmp}/smp.out").read()

bytes_ = re.search(r"transfer\s*:\s*(\d+) bytes/flow", stdout)
if not bytes_:
    sys.exit("FAIL: could not parse smp header")

matrix = {}
for m in re.finditer(
    r"cell flows=(\d+)\s+vcpus=(\d+) : goodput ([\d.]+) Mb/s \((\d+) bytes\)", stdout
):
    matrix.setdefault(f"flows{m.group(1)}", {})[m.group(2)] = {
        "goodput_mbps": float(m.group(3)),
        "bytes": int(m.group(4)),
    }
if set(matrix) != {"flows1", "flows16"} or any(
    set(row) != {"1", "2", "4", "8"} for row in matrix.values()
):
    sys.exit(f"FAIL: expected a full 2x4 matrix, parsed {matrix}")

scal = re.search(
    r"scaling\s*:\s*x([\d.]+) at 2 vcpus, x([\d.]+) at 4 vcpus, x([\d.]+) at 8 vcpus",
    stdout,
)
if not scal:
    sys.exit("FAIL: could not parse scaling summary")

idle = re.search(r"idle split\s*:\s*(\d+) conns held on (\d+) vcpus, (\d+) ms quiet window",
                 stdout)
if not idle:
    sys.exit("FAIL: could not parse idle split header")
per_core = [
    {"core": int(m.group(1)), "conns": int(m.group(2)), "quiet_polls": int(m.group(3))}
    for m in re.finditer(r"core (\d+)\s*: conns\s*(\d+), quiet timer polls (\d+)", stdout)
]
if len(per_core) != int(idle.group(2)):
    sys.exit(f"FAIL: expected {idle.group(2)} per-core lines, parsed {len(per_core)}")

result = {
    "scenario": "smp",
    "bytes_per_flow": int(bytes_.group(1)),
    "matrix": matrix,
    "speedup_16flows": {
        "x2": float(scal.group(1)),
        "x4": float(scal.group(2)),
        "x8": float(scal.group(3)),
    },
    "idle_split": {
        "conns": int(idle.group(1)),
        "vcpus": int(idle.group(2)),
        "quiet_ms": int(idle.group(3)),
        "per_core": per_core,
    },
}

# Gates: what CPU scaling means. Sixteen flows on one vCPU must get what
# one flow gets (the core is the bottleneck either way; fan-in must not
# collapse it), no added vCPU may cost throughput, four cores must at
# least double one — and a quiet tick must cost every core zero wheel
# polls (the C1M claim, per core).
row16 = [matrix["flows16"][v]["goodput_mbps"] for v in ("1", "2", "4", "8")]
one_flow = matrix["flows1"]["1"]["goodput_mbps"]
if row16[0] < 0.9 * one_flow:
    sys.exit("FAIL: 16 flows on 1 vCPU get %.1f Mb/s, below 0.9x the %.1f one flow gets"
             % (row16[0], one_flow))
if any(b < a for a, b in zip(row16, row16[1:])):
    sys.exit("FAIL: 16-flow row falls as vCPUs are added: %s" % row16)
if row16[2] < 2.0 * row16[0]:
    sys.exit("FAIL: 4 vCPUs get %.1f Mb/s, below 2x the %.1f of 1 vCPU on the 16-flow row"
             % (row16[2], row16[0]))
for pc in result["idle_split"]["per_core"]:
    if pc["quiet_polls"] != 0:
        sys.exit("FAIL: core %d polled %d idle connections in a quiet window"
                 % (pc["core"], pc["quiet_polls"]))

with open(out, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print("candidate ok (gates passed)")
PY
    python3 scripts/bench_guard.py "$out" "$tmp/candidate.json"
    echo "== bench: done"
    exit 0
fi

if [[ "${1:-}" == "--virtio" ]]; then
    out=BENCH_virtio.json
    echo "== bench: fig08 x backend (xen vs virtio over the iperf pairings)"
    cargo bench --offline -p mirage-bench --bench fig08_backends | tee "$tmp/backends.out"

    python3 - "$tmp" "$tmp/candidate.json" <<'PY'
import json, re, sys

tmp, out = sys.argv[1], sys.argv[2]
stdout = open(f"{tmp}/backends.out").read()

rows = {}
for m in re.finditer(
    r"^\s*(xen|virtio)\s+(Linux to Linux|Linux to Mirage|Mirage to Linux)\s+(\d+)\s+(\d+)\s*$",
    stdout, re.M,
):
    rows.setdefault(m.group(1), {})[m.group(2)] = {
        "mbps_1flow": int(m.group(3)),
        "mbps_4flows": int(m.group(4)),
    }
if set(rows) != {"xen", "virtio"} or any(len(v) != 3 for v in rows.values()):
    sys.exit(f"FAIL: expected 3 pairings x 2 backends, parsed {rows}")

smp = {}
for m in re.finditer(
    r"smp backend=(xen|virtio) vcpus=(\d+) flows=(\d+) : goodput ([\d.]+) Mb/s \((\d+) bytes\)",
    stdout,
):
    smp[m.group(1)] = {
        "vcpus": int(m.group(2)),
        "flows": int(m.group(3)),
        "goodput_mbps": float(m.group(4)),
        "bytes": int(m.group(5)),
    }
if set(smp) != {"xen", "virtio"}:
    sys.exit(f"FAIL: expected smp rows for both backends, parsed {smp}")

criterion = [json.loads(l) for l in stdout.splitlines() if l.startswith('{"name"')]

# Gates: both transports price the identical data path, so every virtio
# row must land within 2x of its Xen twin (either direction), and the
# byte counts must match exactly.
for pairing, xen_row in rows["xen"].items():
    vio_row = rows["virtio"][pairing]
    for key in ("mbps_1flow", "mbps_4flows"):
        ratio = vio_row[key] / max(xen_row[key], 1)
        if not (0.5 <= ratio <= 2.0):
            sys.exit(f"FAIL: {pairing} {key}: virtio {vio_row[key]} vs xen "
                     f"{xen_row[key]} Mb/s (x{ratio:.2f} outside [0.5, 2.0])")
if smp["xen"]["bytes"] != smp["virtio"]["bytes"]:
    sys.exit("FAIL: smp byte counts differ between backends")

result = {
    "scenario": "fig08_backends",
    "throughput": rows,
    "smp": smp,
    "criterion": criterion,
}
with open(out, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print("candidate ok (gates passed)")
PY
    python3 scripts/bench_guard.py "$out" "$tmp/candidate.json"
    echo "== bench: done"
    exit 0
fi

out=BENCH_net.json

run_bench() {
    local name="$1"
    echo "== bench: $name"
    cargo bench --offline -p mirage-bench --bench "$name" | tee "$tmp/$name.out"
}

run_bench fig08_tcp
run_bench fig12_web
run_bench micro_zerocopy

python3 - "$tmp" "$tmp/candidate.json" <<'PY'
import json, re, sys

tmp, out = sys.argv[1], sys.argv[2]

def text(name):
    with open(f"{tmp}/{name}.out") as f:
        return f.read()

def criterion(blob):
    """The trailing {"name":...} summary lines each bench emits."""
    return [json.loads(l) for l in blob.splitlines() if l.startswith('{"name"')]

result = {"benches": {}}

# Figure 8: the live-stack throughput table (Mb/s, 1 and 10 flows).
fig08 = text("fig08_tcp")
tcp = {}
for line in fig08.splitlines():
    m = re.match(r"\s*(Linux to Linux|Linux to Mirage|Mirage to Linux)\s+(\d+)\s+(\d+)", line)
    if m:
        tcp[m.group(1)] = {"mbps_1flow": int(m.group(2)), "mbps_10flows": int(m.group(3))}
result["benches"]["fig08_tcp"] = {"throughput": tcp, "criterion": criterion(fig08)}

# Figure 12: the real B-tree request-path measurement.
result["benches"]["fig12_web"] = {"criterion": criterion(text("fig12_web"))}

# Zero-copy ablation: discipline speedup + the HTTP copy audit.
zc = text("micro_zerocopy")
entry = {"criterion": criterion(zc)}
m = re.search(r"zero-copy speedup: ([\d.]+)x", zc)
if m:
    entry["zero_copy_speedup"] = float(m.group(1))
m = re.search(
    r"http static path: (\d+) B delivered, (\d+) software copies \((\d+) B\), "
    r"(\d+) serialisations \((\d+) B\) -> ([\d.]+) copied bytes per delivered byte",
    zc,
)
if m:
    entry["http_static_path"] = {
        "delivered_bytes": int(m.group(1)),
        "copies": int(m.group(2)),
        "copy_bytes": int(m.group(3)),
        "serializes": int(m.group(4)),
        "serialize_bytes": int(m.group(5)),
        "copied_bytes_per_delivered_byte": float(m.group(6)),
    }
result["benches"]["micro_zerocopy"] = entry

with open(out, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print("candidate ok")
PY
python3 scripts/bench_guard.py "$out" "$tmp/candidate.json"

echo "== bench: done"
