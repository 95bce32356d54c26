#!/usr/bin/env bash
# Tier-1 verify for mirage-rs: offline build + test, dependency gate,
# the fan-in lock, and example smoke tests. Run from anywhere; operates
# on the repo root.
#
#   scripts/verify.sh                # build, test, gate, examples
#   scripts/verify.sh --determinism  # additionally run the seeded
#                                    # double-test-run determinism check
#   scripts/verify.sh --bench        # additionally run scripts/bench.sh
#                                    # and gate on the zero-copy budget
#   scripts/verify.sh --chaos        # additionally run the chaos suite
#                                    # under ten fixed seeds, plus a
#                                    # same-seed double run diffed
#   scripts/verify.sh --adversarial  # additionally run the adversarial
#                                    # attack suite under ten fixed
#                                    # seeds, plus a same-seed double
#                                    # run diffed
#   scripts/verify.sh --cc           # additionally race NewReno vs CUBIC
#                                    # (examples/cc_race, reduced 1 MiB
#                                    # transfers) under ten fixed seeds,
#                                    # plus a same-seed double run diffed,
#                                    # then the full-size gated
#                                    # BENCH_cc.json via scripts/bench.sh
#   scripts/verify.sh --scale        # additionally run the C1M scale
#                                    # checks: a reduced (100k) c1m run
#                                    # twice with diffed stdout, the
#                                    # scale test suite at 100k in
#                                    # release, and the full 1M bench
#                                    # emitting a gated BENCH_scale.json
#   scripts/verify.sh --conformance  # additionally run the cross-backend
#                                    # differential conformance suite
#                                    # (Xen rings vs virtio virtqueues)
#                                    # under ten fixed seeds, plus a
#                                    # same-seed double run diffed, then
#                                    # the gated BENCH_virtio.json via
#                                    # scripts/bench.sh --virtio
#   scripts/verify.sh --smp          # additionally run the SMP matrix
#                                    # (examples/smp) twice under one
#                                    # fixed seed with diffed stdout —
#                                    # per-core executors and RSS-sharded
#                                    # stacks must stay byte-deterministic
#                                    # — then the gated BENCH_smp.json
#                                    # (16-flow row: 1 vCPU >= 0.9x the
#                                    # 1-flow cell, never falling with
#                                    # vCPUs, 4 vCPUs >= 2x 1 vCPU)
#   scripts/verify.sh --all          # every gate above, with a per-gate
#                                    # wall-time summary at the end
#   scripts/verify.sh --loc          # print non-test lines per crate and in
#                                    # total (the number a simplicity PR
#                                    # reports, before and after) and exit
#
# Flags combine: `verify.sh --chaos --adversarial` runs both extras.
#
# The workspace is fully self-contained (every dependency is a path
# dependency), so everything here runs with --offline: if a registry
# dependency ever creeps back in, the build itself fails, and the grep
# gate below names the offending manifest line.

set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines under <dir> as file:line:text — everything above a file's
# first column-0 #[cfg(test)], the tcp/tests.rs test module excluded.
non_test_lines() {
    find "$1" -name '*.rs' ! -path '*/tcp/tests.rs' -print0 | sort -z \
        | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ":" $0 }'
}

want() {
    local flag="$1"
    shift
    for arg in "$@"; do
        [[ "$arg" == "$flag" ]] && return 0
    done
    return 1
}

if want --loc "$@"; then
    total=0
    for src in crates/*/src; do
        n="$(non_test_lines "$src" | wc -l)"
        total=$((total + n))
        printf '%-24s %6d\n' "$src" "$n"
    done
    printf '%-24s %6d\n' total "$total"
    exit 0
fi

# Per-gate wall-time bookkeeping (printed when more than the base tier
# runs, always under --all).
timings=()
gate_t0=$SECONDS
mark() { gate_t0=$SECONDS; }
lap() { timings+=("$(printf '%-14s %5ss' "$1" "$((SECONDS - gate_t0))")"); }

echo "== gate: no registry dependencies in any manifest"
# (a) The crates the seed depended on must never return.
if grep -rEn '^(rand|proptest|criterion|crossbeam|parking_lot|bytes|serde)\b' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "FAIL: registry dependency reintroduced (lines above)" >&2
    exit 1
fi
# (b) Generic: no dependency line may carry a version requirement —
# everything must be `path = ...` / `workspace = true`. (`^version` is
# the crate's own version field, not a dependency.)
if grep -rEn '=\s*\{?\s*"[~^]?[0-9]' Cargo.toml crates/*/Cargo.toml \
    | grep -vE '(version(\.workspace)?|resolver|edition)\s*=' ; then
    echo "FAIL: versioned (registry) dependency found (lines above)" >&2
    exit 1
fi
echo "   ok"

echo "== gate: one device data path, one flow hash, one buffer type, no dead code"
# One Toeplitz key for the NIC classifier and the stack demux alike.
keys="$(grep -rEn '^\s*(pub(\([a-z]+\))? )?(const|static) RSS_KEY\b' crates --include='*.rs' | wc -l)"
if [[ "$keys" -ne 1 ]]; then
    echo "FAIL: expected exactly one RSS_KEY definition under crates/, found $keys" >&2
    exit 1
fi
if grep -rn --include='*.rs' '#\[allow(dead_code)\]' crates tests; then
    echo "FAIL: #[allow(dead_code)] is back (lines above): delete the code instead" >&2
    exit 1
fi
# Backend::{net, net_multiqueue, blk} is the only way to make a device.
if grep -rnE --include='*.rs' '(Netfront|VirtioNet|Blkfront|VirtioBlk)::new' \
    crates tests examples src benchmark/src; then
    echo "FAIL: per-ABI device constructor used (lines above)" >&2
    exit 1
fi
long="$(find crates/devices/src crates/net/src -name '*.rs' ! -path '*/tcp/tests.rs' -exec wc -l {} + \
    | awk '$2 != "total" && $1 > 700')"
if [[ -n "$long" ]]; then
    echo "FAIL: file over 700 lines in crates/devices/src or crates/net/src:" >&2
    echo "$long" >&2
    exit 1
fi
# One view type (PktBuf) and one view queue (PktQueue): the types they
# replaced stay gone, and adopting a Vec never shrinks (= may copy) it.
if grep -rnE --include='*.rs' 'struct (Buf|BufList|SendBuf|ChunkBuf)\b' crates; then
    echo "FAIL: a second buffer or queue type is back (lines above)" >&2
    exit 1
fi
if grep -rn 'into_boxed_slice' crates/cstruct/src; then
    echo "FAIL: into_boxed_slice in crates/cstruct/src may realloc an adopted Vec" >&2
    exit 1
fi
echo "   ok"

echo "== gate: one way out of the stack, each header layout written once"
# exactly <n> <what>: <n> non-test lines match the extended regex <re>.
exactly() {
    local n="$1" what="$2" re="$3" hits
    hits="$(non_test_lines crates/net/src | grep -E -- "$re" || true)"
    if [[ "$(grep -c . <<< "$hits")" -ne "$n" ]]; then
        echo "FAIL: expected $n non-test site(s) of $what in crates/net/src, found:" >&2
        echo "${hits:-(none)}" >&2
        exit 1
    fi
}
exactly 1 "record_serialize (payload written into a frame)" 'record_serialize\('
exactly 1 "the IPv4 version/IHL byte" '\b0x45\b'
exactly 1 "TCP flag-bit packing" 'u8::from\(self\.fin\)|\|= *0x(01|02|04|08|10)\b'
exactly 0 "a too_many_arguments allow" 'too_many_arguments'
exactly 0 "a second TX path" 'fn (build_tcp_frame|emit_frame|send_ipv4|broadcast_udp)\b'
echo "   ok"

echo "== gate: nothing per label, per descriptor or per step on the packet path"
# A name is one buffer; a ring slot is decoded where it lies; the driver
# domain lists xenstore only after a write (tests/packet_budget.rs and
# crates/dns/tests/alloc_budget.rs hold the counts these shapes give).
if grep -n 'Vec<Vec<u8>>' crates/dns/src/name.rs; then
    echo "FAIL: a vector of label vectors is back in crates/dns/src/name.rs" >&2
    exit 1
fi
if grep -nE 'fn (read_slot|take_re(quest|sponse))\b.*Vec' crates/ring/src/desc.rs; then
    echo "FAIL: a ring slot is copied into a Vec again (lines above)" >&2
    exit 1
fi
if ! awk '/settled_at == Some\(version\)/ { gated = 1 }
          /keys_with_prefix/ { calls++; if (!gated) early = 1 }
          END { exit !(calls == 1 && !early) }' crates/devices/src/netback.rs; then
    echo "FAIL: DriverDomain must list xenstore in one place, behind discover's version check" >&2
    exit 1
fi
echo "   ok"

echo "== build (release, offline, all targets)"
cargo build --release --offline --workspace --all-targets

echo "== test (offline)"
cargo test -q --offline --workspace

echo "== fan-in lock: 16 flows on 1 vCPU keep one flow's goodput, in full-sized segments"
# In the workspace run above too (debug); here in release, where the
# virtual-time figures must come out the same.
cargo test -q --offline --release --test fan

echo "== examples"
for ex in quickstart boot_storm dns_appliance web_appliance openflow_appliance; do
    echo "   -- $ex"
    cargo run --release --offline --example "$ex" > /dev/null
done

lap tier1

if want --all "$@"; then
    set -- --determinism --bench --chaos --adversarial --conformance --cc --scale --smp
fi

if want --bench "$@"; then
    mark
    echo "== bench: network-path figures + zero-copy gate"
    scripts/bench.sh
    # The ablation bench already asserts the budget internally; re-check
    # the recorded number so a stale/edited JSON can't mask a regression.
    copies_per_byte="$(jq -r \
        '.benches.micro_zerocopy.http_static_path.copied_bytes_per_delivered_byte' \
        BENCH_net.json)"
    echo "   copied bytes per delivered byte: $copies_per_byte"
    awk -v c="$copies_per_byte" 'BEGIN { exit !(c != "null" && c <= 1.0) }' || {
        echo "FAIL: HTTP static path exceeds one software copy per delivered byte" >&2
        exit 1
    }
    echo "   ok (zero-copy budget held)"
    lap bench
fi

norm() { sed 's/finished in [0-9.]*s//'; }

if want --chaos "$@"; then
    mark
    echo "== chaos: fault-injection suite under ten fixed seeds"
    for seed in 1 2 3 5 8 13 42 97 1337 4242; do
        echo "   -- seed $seed"
        MIRAGE_TEST_SEED="$seed" cargo test -q --offline --test chaos > /dev/null
    done
    echo "== chaos: two same-seed runs must print identical output"
    seed="${MIRAGE_TEST_SEED:-42}"
    MIRAGE_TEST_SEED="$seed" cargo test -q --offline --test chaos 2>&1 | norm > /tmp/mirage-chaos-run1
    MIRAGE_TEST_SEED="$seed" cargo test -q --offline --test chaos 2>&1 | norm > /tmp/mirage-chaos-run2
    diff /tmp/mirage-chaos-run1 /tmp/mirage-chaos-run2
    echo "   ok (seed $seed)"
    lap chaos
fi

if want --adversarial "$@"; then
    mark
    echo "== adversarial: seeded attack suite under ten fixed seeds"
    for seed in 1 2 3 5 8 13 42 97 1337 4242; do
        echo "   -- seed $seed"
        MIRAGE_TEST_SEED="$seed" cargo test -q --offline --test adversarial > /dev/null
    done
    echo "== adversarial: two same-seed runs must print identical output"
    seed="${MIRAGE_TEST_SEED:-42}"
    MIRAGE_TEST_SEED="$seed" cargo test -q --offline --test adversarial 2>&1 | norm > /tmp/mirage-adversarial-run1
    MIRAGE_TEST_SEED="$seed" cargo test -q --offline --test adversarial 2>&1 | norm > /tmp/mirage-adversarial-run2
    diff /tmp/mirage-adversarial-run1 /tmp/mirage-adversarial-run2
    echo "   ok (seed $seed)"
    lap adversarial
fi

if want --conformance "$@"; then
    mark
    echo "== conformance: cross-backend differential suite under ten fixed seeds"
    for seed in 1 2 3 5 8 13 42 97 1337 4242; do
        echo "   -- seed $seed"
        MIRAGE_TEST_SEED="$seed" cargo test -q --offline --test conformance > /dev/null
    done
    echo "== conformance: two same-seed runs must print identical output"
    seed="${MIRAGE_TEST_SEED:-42}"
    MIRAGE_TEST_SEED="$seed" cargo test -q --offline --test conformance 2>&1 | norm > /tmp/mirage-conformance-run1
    MIRAGE_TEST_SEED="$seed" cargo test -q --offline --test conformance 2>&1 | norm > /tmp/mirage-conformance-run2
    diff /tmp/mirage-conformance-run1 /tmp/mirage-conformance-run2
    echo "   ok (seed $seed)"
    echo "== conformance: backend parity figures -> BENCH_virtio.json (gated)"
    scripts/bench.sh --virtio
    lap conformance
fi

if want --cc "$@"; then
    mark
    echo "== cc: congestion-control race under ten fixed seeds (1 MiB transfers)"
    cargo build --release --offline --example cc_race
    for seed in 1 2 3 5 8 13 42 97 1337 4242; do
        echo "   -- seed $seed"
        MIRAGE_CC_SEED="$seed" MIRAGE_CC_BYTES=1048576 \
            ./target/release/examples/cc_race > /dev/null
    done
    echo "== cc: two same-seed runs must print identical stdout"
    seed="${MIRAGE_CC_SEED:-42}"
    MIRAGE_CC_SEED="$seed" MIRAGE_CC_BYTES=1048576 \
        ./target/release/examples/cc_race > /tmp/mirage-cc-run1
    MIRAGE_CC_SEED="$seed" MIRAGE_CC_BYTES=1048576 \
        ./target/release/examples/cc_race > /tmp/mirage-cc-run2
    diff /tmp/mirage-cc-run1 /tmp/mirage-cc-run2
    echo "   ok (seed $seed, byte-identical)"
    echo "== cc: full-size race -> BENCH_cc.json (gated)"
    scripts/bench.sh --cc
    lap cc
fi

if want --scale "$@"; then
    mark
    echo "== scale: reduced c1m double run must print identical stdout"
    cargo build --release --offline --example c1m
    scale_env=(MIRAGE_C1M_CONNS=100000 MIRAGE_C1M_HOT=512 MIRAGE_C1M_STORM=100)
    env "${scale_env[@]}" ./target/release/examples/c1m 2> /dev/null > /tmp/mirage-scale-run1
    env "${scale_env[@]}" ./target/release/examples/c1m 2> /dev/null > /tmp/mirage-scale-run2
    diff /tmp/mirage-scale-run1 /tmp/mirage-scale-run2
    echo "   ok (100k connections, byte-identical)"
    echo "== scale: idle-poll regression at 100k (release)"
    MIRAGE_SCALE_CONNS=100000 cargo test -q --offline --release --test scale
    echo "== scale: full C1M bench -> BENCH_scale.json (gated)"
    scripts/bench.sh --scale
    lap scale
fi

if want --smp "$@"; then
    mark
    echo "== smp: two same-seed runs must print identical stdout"
    cargo build --release --offline --example smp
    seed="${MIRAGE_TEST_SEED:-42}"
    MIRAGE_TEST_SEED="$seed" ./target/release/examples/smp 2> /dev/null > /tmp/mirage-smp-run1
    MIRAGE_TEST_SEED="$seed" ./target/release/examples/smp 2> /dev/null > /tmp/mirage-smp-run2
    diff /tmp/mirage-smp-run1 /tmp/mirage-smp-run2
    echo "   ok (seed $seed, byte-identical)"
    echo "== smp: matrix + idle split -> BENCH_smp.json (gated)"
    scripts/bench.sh --smp
    lap smp
fi

if want --determinism "$@"; then
    mark
    echo "== determinism: two test runs under one seed must be identical"
    seed="${MIRAGE_TEST_SEED:-42}"
    MIRAGE_TEST_SEED="$seed" cargo test -q --offline --workspace 2>&1 | norm > /tmp/mirage-verify-run1
    MIRAGE_TEST_SEED="$seed" cargo test -q --offline --workspace 2>&1 | norm > /tmp/mirage-verify-run2
    diff /tmp/mirage-verify-run1 /tmp/mirage-verify-run2
    echo "   ok (seed $seed)"
    lap determinism
fi

if [[ ${#timings[@]} -gt 1 ]]; then
    echo "== gate timings"
    for t in "${timings[@]}"; do
        echo "   $t"
    done
fi
echo "== verify: PASS"
