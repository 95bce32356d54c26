#!/usr/bin/env python3
"""Gate-regression guard for the checked-in BENCH_*.json files.

scripts/bench.sh writes every freshly-measured result to a candidate file
and asks this guard to install it. The guard compares the candidate's
*gated* metrics against the checked-in file and refuses the overwrite if
any would regress — so a bench run can never silently replace a good
recorded number with a worse one. (The absolute gates in bench.sh still
apply first; this is the relative, monotone check on top.)

Usage: bench_guard.py <checked-in path> <candidate path>

Installs the candidate over the checked-in file on success; exits
nonzero and leaves the checked-in file untouched on regression.

Only virtual-time-derived (deterministic) metrics are guarded; wall-clock
figures jitter and are covered by the absolute gates alone. Each metric
carries a relative slack so intentional small shifts from legitimate code
changes don't need a guard override — delete the stale checked-in file to
accept a larger, deliberate regression.
"""

import json
import os
import shutil
import sys


def get(node, path):
    for key in path:
        if isinstance(node, dict):
            node = node.get(key)
        elif isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        else:
            return None
    return node


def gates_for(name, old):
    """(json path, higher_is_better, relative slack) per scenario."""
    if name == "BENCH_net.json":
        return [
            (
                ["benches", "micro_zerocopy", "http_static_path",
                 "copied_bytes_per_delivered_byte"],
                False,
                0.05,
            )
        ]
    if name == "BENCH_scale.json":
        return [(["connections_held"], True, 0.0)]
    if name == "BENCH_cc.json":
        # The gate: CUBIC >= NewReno goodput on every clean (zero-loss)
        # cell. Guard the CUBIC goodput on those cells.
        return [
            (["cells", cell, "cubic", "goodput_mbps"], True, 0.05)
            for cell in sorted(get(old, ["cells"]) or {})
            if cell.startswith("loss0.0")
        ]
    if name == "BENCH_smp.json":
        # The gate is stated over the 16-flow row's cells (and the 1-flow
        # cell they are compared with), so those are what must not slip;
        # a speed-up ratio rises when its 1-vCPU base gets worse.
        return [
            (["matrix", "flows16", vcpus, "goodput_mbps"], True, 0.05)
            for vcpus in ("1", "2", "4", "8")
        ] + [(["matrix", "flows1", "1", "goodput_mbps"], True, 0.05)]
    if name == "BENCH_virtio.json":
        # Virtual-time goodput is deterministic; guard the virtio rows so
        # a transport regression can't silently overwrite good numbers.
        return [
            (["throughput", "virtio", pairing, "mbps_1flow"], True, 0.05)
            for pairing in sorted(get(old, ["throughput", "virtio"]) or {})
        ] + [(["smp", "virtio", "goodput_mbps"], True, 0.05)]
    return []


def main():
    checked_in, candidate = sys.argv[1], sys.argv[2]
    with open(candidate) as f:
        new = json.load(f)

    if os.path.exists(checked_in):
        with open(checked_in) as f:
            old = json.load(f)
        name = os.path.basename(checked_in)
        failures = []
        for path, higher_better, slack in gates_for(name, old):
            old_v, new_v = get(old, path), get(new, path)
            if old_v is None or new_v is None:
                continue
            if higher_better:
                ok = new_v >= old_v * (1.0 - slack)
            else:
                ok = new_v <= old_v * (1.0 + slack)
            if not ok:
                dotted = ".".join(str(p) for p in path)
                failures.append(f"  {dotted}: {old_v} -> {new_v}")
        if failures:
            print(f"FAIL: refusing to overwrite {checked_in} — gated metrics regress "
                  f"versus the checked-in file:", file=sys.stderr)
            for line in failures:
                print(line, file=sys.stderr)
            print("(fix the regression, or delete the checked-in file to accept it)",
                  file=sys.stderr)
            sys.exit(1)

    shutil.move(candidate, checked_in)
    print(f"wrote {checked_in}")


if __name__ == "__main__":
    main()
