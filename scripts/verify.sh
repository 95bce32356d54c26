#!/usr/bin/env bash
# Tier-1 verify for mirage-rs: offline build + test, dependency, structure
# and tooling gates, clippy, the fan-in lock, the figure binaries and
# example smoke tests. Run from anywhere; operates on the repo root.
#
# Every performance gate is an assertion in Rust on the typed value where
# it is computed: the SMP row and Xen/virtio parity in `cargo test`
# (crates/bench/src/netsim.rs), the copy audit in the micro_zerocopy
# bench and the C1M gates in the c1m example itself. This script only
# chooses seeds and sizes and diffs double runs.
#
#   scripts/verify.sh                # build, test, gates, benches, examples,
#                                    #   Table 2 and Fig. 14a measured on the
#                                    #   appliance packages, the benchmark's
#                                    #   unit tests and one traced run
#   scripts/verify.sh --determinism  # + the whole test run and the figure
#                                    #   binaries twice under one seed,
#                                    #   stdout diffed, and two traced
#                                    #   http_churn runs of the benchmark
#                                    #   printing one host.allocs_per_op
#   scripts/verify.sh --chaos        # + the chaos suite, seeded (see below)
#   scripts/verify.sh --adversarial  # + the adversarial suite, seeded
#   scripts/verify.sh --conformance  # + the cross-backend differential
#                                    #   suite (Xen rings vs virtqueues),
#                                    #   seeded
#   scripts/verify.sh --scale        # + a reduced (100k) examples/c1m double
#                                    #   run diffed, the scale suite at 100k
#                                    #   in release, then the full 1M run
#   scripts/verify.sh --smp          # + the netsim gates (SMP row, parity,
#                                    #   idle split), seeded, and an
#                                    #   examples/smp double run diffed
#   scripts/verify.sh --all          # every gate above, a per-gate wall-time
#                                    #   summary, and a check that the run
#                                    #   left the working tree as it found it
#   scripts/verify.sh --loc          # print non-test lines per crate and in
#                                    #   total (the number a simplicity PR
#                                    #   reports, before and after) and exit
#
# "Seeded" = the command passes under each of ten fixed seeds, then two
# runs under one seed print identical stdout. Flags combine: `verify.sh
# --chaos --adversarial` runs both extras.
#
# The workspace is fully self-contained (every dependency is a path
# dependency), so everything here runs with --offline: if a registry
# dependency ever creeps back in, the build itself fails, and the grep
# gate below names the offending manifest line.

set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines under <dir> as file:line:text — everything above a file's
# first column-0 #[cfg(test)], the out-of-line `tests.rs` test modules
# (tcp/, transport/) excluded.
non_test_lines() {
    find "$1" -name '*.rs' ! -name tests.rs -print0 | sort -z \
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
lap() {
    timings+=("$(printf '%-14s %5ss' "$1" "$((SECONDS - gate_t0))")")
    gate_t0=$SECONDS
}
# The working tree as `--all` compares it. benchmark/Cargo.lock is left
# out: the benchmark's build refreshes it whenever a workspace manifest
# drops a dependency edge, and only a benchmark PR commits that file.
tree_state() {
    git status --porcelain | grep -v ' benchmark/Cargo\.lock$' || true
}
tree_before="$(tree_state)"

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
# exactly <dir> <n> <what> <re>: <n> non-test lines under <dir> match the
# extended regex <re>.
exactly() {
    local dir="$1" n="$2" what="$3" re="$4" hits
    hits="$(non_test_lines "$dir" | grep -E -- "$re" || true)"
    if [[ "$(grep -c . <<< "$hits")" -ne "$n" ]]; then
        echo "FAIL: expected $n non-test site(s) of $what in $dir, found:" >&2
        echo "${hits:-(none)}" >&2
        exit 1
    fi
}
exactly crates/net/src 1 "record_serialize (payload written into a frame)" 'record_serialize\('
exactly crates/net/src 1 "the IPv4 version/IHL byte" '\b0x45\b'
exactly crates/net/src 1 "TCP flag-bit packing" 'u8::from\(self\.fin\)|\|= *0x(01|02|04|08|10)\b'
exactly crates/net/src 0 "a too_many_arguments allow" 'too_many_arguments'
exactly crates/net/src 0 "a second TX path" 'fn (build_tcp_frame|emit_frame|send_ipv4|broadcast_udp)\b'
exactly crates/net/src 0 "a Vec builder beside an in-place writer" \
    '/(ethernet|ipv4|udp|icmp|arp)\.rs:[0-9]+: *pub fn build\b'
echo "   ok"

echo "== gate: one deadline queue, no dead shims"
# Everything ordered by (deadline, insertion) is a testkit::wheel::TimerWheel
# — one ordered map, small enough to read — not a heap with its own Ord.
exactly crates/devices/src 0 "a BinaryHeap" 'BinaryHeap'
exactly crates/devices/src 0 "a hand-written Ord" 'impl Ord for'
exactly crates/testkit/src 0 "the hashed wheel or an unused lock" 'with_shift|OVERFLOW_LOC|RwLock'
queue_loc="$(non_test_lines crates/testkit/src | grep -c '/wheel\.rs:' || true)"
if [[ "$queue_loc" -gt 120 ]]; then
    echo "FAIL: crates/testkit/src/wheel.rs has $queue_loc non-test lines (limit 120)" >&2
    exit 1
fi
echo "   ok"

echo "== gate: a task stays on its core, and the scheduler models no heap"
# The executor holds run queues, timer queues and tasks: a task runs on the
# core it was spawned on, and Fig. 7's harness charges the GC model itself.
exactly crates/runtime/src 0 "work stealing or a GC model in the executor" \
    'steal|GcHeap|heap_alloc|heap_release|with_heap'
echo "   ok"

echo "== gate: a TCP setting is settable only where a caller sets it differently"
# TcpConfig holds recv_buf and rto_max; every other setting is a constant
# in tcp/config.rs, and congestion control is New Reno alone, with no
# second algorithm, selector or trait to choose one.
exactly crates/net/src/tcp 0 "a one-value TCP knob" \
    'fn (mss|window_scale|rto_init|rto_min|time_wait|syn_retries|ooo_max_segments|ooo_max_bytes)\('
exactly crates/net/src 0 "a second congestion-control algorithm or its selector" \
    'Cubic|CongAlg|CongestionControl'
echo "   ok"

echo "== gate: one hash map type in the product"
# std's HashMap seeds its hasher per process, so anything that depends on
# its layout (allocation counts, iteration order) moves run to run; the
# product keys its maps with testkit::hash::DetHashMap, which wraps it.
hashmaps="$(non_test_lines crates | grep -E '^crates/[a-z]+/src/' \
    | grep -v '^crates/testkit/src/hash\.rs:' | grep -E '\bHashMap\b' || true)"
if [[ -n "$hashmaps" ]]; then
    echo "FAIL: a std HashMap in non-test product code; use testkit::hash::DetHashMap:" >&2
    echo "$hashmaps" >&2
    exit 1
fi
echo "   ok"

echo "== gate: Mirage storage carries no kernel cache, and a map keeps its rights"
# Fig. 9's kernel page cache is the conventional baseline's, in
# crates/bench/src/blocksim.rs; dom0's map caches record whether each page
# was mapped writable (transport::MapCache), so a read-only grant is never
# written.
exactly crates/storage/src 0 "a kernel page cache in the Mirage storage library" \
    'BufferCache|PER_PAGE_OVERHEAD'
exactly crates/devices/src 0 "a map cache that forgets its rights" 'HashMap<u32, SharedPage>'
echo "   ok"

echo "== gate: the switch decides a frame's way once and fills an RX buffer in one place"
# Every frame takes Switch::route and enters a guest's RX page through
# switch.rs's `fill`, straight from the TX page or from the copy the
# switch holds: no second forwarding path, no RX request held aside.
exactly crates/devices/src 0 "a second forwarding path or a held RX request" \
    'fn forward\b|\bheld: '
exactly crates/devices/src/switch.rs 1 "a frame written into an RX page" '\.write\(\|'
echo "   ok"

echo "== gate: the line counter sees every non-test line"
# non_test_lines stops at a file's first column-0 #[cfg(test)], so an
# out-of-line test module must be declared as the last item of its file.
early="$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { declared = 0; prev = "" }
    declared && NF { print FILENAME ":" FNR ": " $0; declared = 0 }
    /^(#\[cfg\(test\)\] *)?mod [a-z0-9_]+;/ && (/^#/ || prev ~ /^#\[cfg\(test\)\]/) { declared = 1 }
    { prev = $0 }')"
if [[ -n "$early" ]]; then
    echo "FAIL: code after a column-0 \`#[cfg(test)] mod x;\` is not counted; move the declaration to the end:" >&2
    echo "$early" >&2
    exit 1
fi
echo "   ok"

echo "== gate: one harness, in Rust"
# The scraping harness stays gone: nothing beside this script, no recorded
# figures to go stale, no interpreter between a gate and its number, and
# the seed list written down once (the patterns are split so that they do
# not match themselves).
if [[ "$(ls scripts)" != "verify.sh" ]] || compgen -G 'BENCH_*.json' > /dev/null; then
    echo "FAIL: scripts/ holds more than verify.sh, or a BENCH_*.json is back at the root" >&2
    exit 1
fi
if grep -rnE 'pytho''n3|\bj''q\b|bench\.s''h' scripts; then
    echo "FAIL: an interpreter or the old bench script is named in scripts/ (lines above)" >&2
    exit 1
fi
if [[ "$(grep -c '1 2 3 5 8 13 42 97 1337'' 4242' scripts/verify.sh)" -ne 1 ]]; then
    echo "FAIL: the ten-seed list must be written exactly once in scripts/verify.sh" >&2
    exit 1
fi
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

echo "== gate: records are read where they lie"
# A leaf is searched in the record it was read in and an interior node
# keeps its separators as stored; a block I/O lands in the page or the
# exact-size Vec it is bound for, never in a zero-filled stand-in first
# (crates/storage/tests/alloc_budget.rs holds the counts these shapes give).
if grep -n 'Vec<Vec<u8>>' crates/storage/src/btree.rs; then
    echo "FAIL: a node exploded into a vector of vectors is back in crates/storage/src/btree.rs" >&2
    exit 1
fi
exactly crates/devices/src 0 "a zero-filled buffer on the block path" \
    '/(blk|blkback)\.rs:[0-9]+:.*vec!\[0u8;'
echo "   ok"

echo "== gate: a block request carries its reply"
# blkfront's in-flight entry, keyed by the transport token, is the one
# place a request is remembered: no demux task, waiter map or id counter
# in front of it, no completion stream or second queue inside it.
exactly crates/storage/src/block.rs 0 "a demux task, waiter map or id counter" 'spawn\(|waiters|next_id'
exactly crates/devices/src/blk.rs 0 "a completion stream or backlog in blkfront" 'to_stack|backlog|complete:'
echo "   ok"

echo "== gate: one NIC layout, one handshake"
# On both ABIs a NIC has a ring pair and an event channel per stack queue,
# and the switch classifies what it delivers, so netfront never hashes a
# frame. The xenstore handshake is written once in transport.rs: an impl
# under transport/ only grants or maps one queue under a key prefix.
exactly crates/devices/src/netfront.rs 0 "RSS classification in netfront" 'rss::'
exactly crates/devices/src/transport 0 "a per-ABI handshake" 'fn (advertise|attach)_(net|blk|nic|disk)\b'
echo "   ok"

echo "== gate: traffic is split once"
# A flow's queue is its Toeplitz hash modulo the queue count, decided in
# devices::rss alone: no shard space in front of that fold, no hash in a
# worker's connection table, and netfront charges a queue on the vCPU its
# event channel was bound to instead of re-deriving the binding.
exactly crates/net/src 0 "a shard space" 'SHARD_BITS|SHARDS|shard_of'
exactly crates/devices/src 0 "a shard space" 'SHARD_BITS|SHARDS|shard_of'
exactly crates/net/src/tcp/demux.rs 0 "a flow hash in the connection table" 'toeplitz|flow_hash'
exactly crates/devices/src/netfront.rs 0 "a re-derived queue-to-vCPU rule" '% env\.vcpus\(\)'
echo "   ok"

echo "== gate: a domain wakes on the channels it holds"
# Which event channels wake a blocked domain is the event table's business:
# no device lists its ports for the run loop, and a Wake is a deadline.
if grep -rn --include='*.rs' 'watch_ports' crates/*/src; then
    echo "FAIL: a device lists its ports again (lines above)" >&2
    exit 1
fi
if grep -rnE --include='*.rs' '\bon_port\b' crates/*/src \
    || awk '/^pub struct Wake [{]/, /^}/' crates/hypervisor/src/lib.rs | grep -n 'Port'; then
    echo "FAIL: Wake names ports again (lines above)" >&2
    exit 1
fi
echo "   ok"

echo "== gate: one host thread; a pass reads what fired"
# The run loop steps one domain at a time on the calling thread: shared
# pages and the store are plain memory, and nothing on the device side is
# Send by contract. A device keeps the pending bit it consumes, reading a
# queue only if its channel fired or its last arm raced (transport::Gate).
if grep -n 'Mutex' crates/hypervisor/src/grant.rs crates/devices/src/xenstore.rs; then
    echo "FAIL: a lock on a shared page or the store (lines above)" >&2
    exit 1
fi
if grep -nE 'trait (Guest|DeviceService|FrontTransport|BackTransport)\b[^{]*\bSend\b' \
    crates/hypervisor/src/lib.rs crates/runtime/src/lib.rs crates/devices/src/transport.rs; then
    echo "FAIL: a device-side trait is Send again (lines above)" >&2
    exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { nextfile } /let _ = env\.evtchn_consume/ { print FILENAME ":" FNR ": " $0 }' \
    crates/devices/src/{netfront,switch,blk,blkback}.rs | grep .; then
    echo "FAIL: a device pass throws away the pending bit it consumed (lines above)" >&2
    exit 1
fi
echo "   ok"

echo "== gate: figure binaries read no host clock"
# A figure is a virtual-time number: the same seed prints the same bytes.
# Wall-clock cost is measured by benchmark/ alone, in pairs, with bounds.
exactly crates/bench 0 "a host clock or a stopwatch harness" 'std::time|Criterion|bench_function'
exactly crates/testkit/src 0 "a host clock or a stopwatch harness" 'std::time|Criterion|bench_function'
echo "   ok"

echo "== gate: Table 2 and Figure 14a are measured, not modelled"
# Image sizes at two elimination levels and active lines of code come from
# the appliance binaries and sources (the measured step below); the
# catalogue keeps one modelled size per library, the boot model's input.
exactly crates/core/src 0 "the DCE and LoC model" 'DceLevel|dce_retention_pct|total_loc|ApplianceKind'
echo "   ok"

echo "== gate: unsafe only in the CRC kernel and the counting allocator, each with its SAFETY"
# The PCLMULQDQ dispatch in storage's btree.rs and testkit's GlobalAlloc
# impl are the two places that need `unsafe`. An unsafe block or impl has
# a `// SAFETY:` line in the comment right above it; an `unsafe fn` is a
# method of the allocator's `unsafe impl`, whose comment covers it.
unsafe_report="$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { safety = 0; allowed = FILENAME ~ /^crates\/(storage\/src\/btree|testkit\/src\/alloc)\.rs$/ }
    /^[ \t]*(\/\/|#\[)/ { if (/SAFETY:/) safety = 1; next }
    /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ {
        if (!allowed) print FILENAME ":" FNR ": unsafe outside the two allowed files: " $0
        else if (/unsafe fn/) { if (FILENAME !~ /alloc\.rs$/) print FILENAME ":" FNR ": an unsafe fn: " $0 }
        else if (!safety && !/SAFETY:/) print FILENAME ":" FNR ": no // SAFETY: above: " $0
    }
    { safety = 0 }')"
if [[ -n "$unsafe_report" ]]; then
    echo "FAIL: unsafe code outside its two places or without its SAFETY comment:" >&2
    echo "$unsafe_report" >&2
    exit 1
fi
echo "   ok"

echo "== gate: a manifest names only crates its sources use"
# A [dependencies] entry is named by the package's non-test source; a
# crate only its tests or benches name is a [dev-dependencies] entry, and
# that is named by some source file of the package.
unused=""
for manifest in crates/*/Cargo.toml appliances/*/Cargo.toml; do
    pkg="$(dirname "$manifest")"
    for dep in $(sed -n '/^\[dependencies\]/,/^\[/p' "$manifest" | grep -oE '^mirage-[a-z]+'); do
        non_test_lines "$pkg/src" | grep -w "${dep//-/_}" > /dev/null \
            || unused+="$manifest: $dep in [dependencies], named by no non-test source"$'\n'
    done
    for dep in $(sed -n '/^\[dev-dependencies\]/,/^\[/p' "$manifest" | grep -oE '^mirage-[a-z]+'); do
        grep -rqw --include='*.rs' "${dep//-/_}" "$pkg" \
            || unused+="$manifest: $dep in [dev-dependencies], named by no source"$'\n'
    done
done
if [[ -n "$unused" ]]; then
    echo "FAIL: a dependency its package's sources do not use as declared:" >&2
    echo -n "$unused" >&2
    exit 1
fi
echo "   ok"

echo "== gate: an appliance's closure holds only its services"
# An appliance is a package under appliances/, its binary named after it,
# whose manifest names exactly the crates its main uses. Its closure is
# what cargo resolves for it: the normal edges of `cargo tree`, without
# the package itself and the hypervisor crate. §2.3.1: the closure "can
# be easily statically verified to only contain the desired services",
# so a closure that reaches a crate its appliance should not link fails
# here, before anything links.
appliances=()
for dir in appliances/*/; do
    appliances+=("$(basename "$dir")_appliance")
done
declare -A stray=(
    [dns_appliance]='mirage_(http|openflow)'
    [web_appliance]='mirage_(dns|openflow)'
    [openflow_appliance]='mirage_(dns|http|storage)'
)
declare -A closure
for app in "${appliances[@]}"; do
    closure[$app]="$(cargo tree --offline -e normal --prefix none -p "$app" \
        | awk -v app="$app" '$1 != app && $1 != "mirage-hypervisor" { print $1 }' | sort -u | xargs)"
    echo "   $app: ${closure[$app]}"
    hits="$(tr ' ' '\n' <<< "${closure[$app]//-/_}" | grep -xE "${stray[$app]}" || true)"
    if [[ -n "$hits" ]]; then
        echo "FAIL: $app's closure reaches a crate outside its services (${stray[$app]}):" $hits >&2
        exit 1
    fi
done
echo "   ok"

echo "== clippy (offline, all targets): clippy's default deny set"
# Warnings print and pass; a deny-level lint (an assertion that can never
# fail, say) fails the run.
cargo clippy -q --offline --workspace --all-targets

echo "== build (release, offline, all targets)"
cargo build --release --offline --workspace --all-targets

echo "== test (offline): includes the SMP row and Xen/virtio parity gates"
cargo test -q --offline --workspace

echo "== fan-in lock: 16 flows on 1 vCPU keep one flow's goodput, in full-sized segments"
# In the workspace run above too (debug); here in release, where the
# virtual-time figures must come out the same.
cargo test -q --offline --release --test fan

echo "== figure binaries: every modelled figure (micro_zerocopy's copy audit asserts)"
figures=()
for bench in crates/bench/benches/*.rs; do
    figures+=(--bench "$(basename "$bench" .rs)")
done
cargo bench -q --offline -p mirage-bench "${figures[@]}" > /dev/null

echo "== examples and appliances"
for ex in quickstart boot_storm; do
    echo "   -- $ex"
    cargo run --release --offline --example "$ex" > /dev/null
done
for app in "${appliances[@]}"; do
    echo "   -- $app"
    cargo run --release --offline -p "$app" > /dev/null
done

echo "== Table 2 and Figure 14a: measured on the appliance packages"
# Table 2. Each appliance package is built twice, each build in its own
# target directory. Module level: `-C link-dead-code` keeps every section
# of every object the link pulls in, as OCaml's default link keeps whole
# modules. Function level: the release profile, whose --gc-sections drops
# every unreferenced function, as ocamlclean does. `size` gives text+data;
# `nm` splits the symbol bytes into the guest crates, dom0's modules, the
# hypervisor and std/other (the appliance's own main included). The step
# fails if a build fails, if a function-level binary is not smaller than
# its module-level one, or if a function-level binary holds a symbol of a
# crate its appliance should not link (the backstop behind the closure
# gate above). The paper's ratios are printed beside, not gated.
for level in module function; do
    flags=""
    [[ "$level" == module ]] && flags="-C link-dead-code"
    if ! RUSTFLAGS="$flags" CARGO_TARGET_DIR="target/table2-$level" \
        cargo build -q --release --offline "${appliances[@]/#/--package=}"; then
        echo "FAIL: the $level-level build of the appliances failed" >&2
        exit 1
    fi
done
text_data() { size "$1" | awk 'NR == 2 { print $1 + $2 }'; }
# dom0's modules of mirage-devices (the switch, the backends, the link
# emulator): neither guest symbols nor guest lines.
dom0_modules='netback|switch|blkback|netem'
symbol_split() {
    nm --size-sort -S -C "$1" | awk -v dom0="mirage_devices::($dom0_modules)::" '
        function hex(s,   n, i) {
            n = 0
            for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
            return n
        }
        {
            name = $0
            sub(/^[^ ]+ [^ ]+ [^ ]+ /, "", name)
            part = 4
            if (name ~ dom0) part = 2
            else if (match(name, /mirage_[a-z]+/)) part = substr(name, RSTART, RLENGTH) == "mirage_hypervisor" ? 3 : 1
            bytes[part] += hex($2)
        }
        END { printf "%d %d %d %d\n", bytes[1], bytes[2], bytes[3], bytes[4] }'
}
printf '   %-19s %14s %16s %6s\n' appliance module-level function-level cut
for app in "${appliances[@]}"; do
    fn_bin="target/table2-function/release/$app"
    m="$(text_data "target/table2-module/release/$app")" f="$(text_data "$fn_bin")"
    printf '   %-19s %14d %16d %5s\n' "$app" "$m" "$f" "$(awk -v m="$m" -v f="$f" 'BEGIN { printf "%+.0f%%", (f - m) * 100 / m }')"
    if (( f >= m )); then
        echo "FAIL: $app is no smaller at function level ($f >= $m bytes text+data)" >&2
        exit 1
    fi
    hits="$(nm -C "$fn_bin" | grep -E "${stray[$app]}::" || true)"
    if [[ -n "$hits" ]]; then
        echo "FAIL: $app links a crate outside its closure (${stray[$app]}):" >&2
        head -5 <<< "$hits" >&2
        exit 1
    fi
done
echo "   paper (MB, standard -> ocamlclean): DNS 0.449 -> 0.184, web 0.673 -> 0.172, OF switch 0.393 -> 0.164 (-58 to -74 %)"
printf '   %-19s %-8s %10s %9s %11s %10s\n' "symbol bytes (nm)" level guest dom0 hypervisor std/other
for app in "${appliances[@]}"; do
    for level in module function; do
        read -r guest dom0 hv other < <(symbol_split "target/table2-$level/release/$app")
        printf '   %-19s %-8s %10d %9d %11d %10d\n' "$app" "$level" "$guest" "$dom0" "$hv" "$other"
    done
done
echo "   closure: no function-level binary holds a symbol of a crate outside its appliance"

# Figure 14a. The guest lines an appliance reaches: non-test lines of the
# crates in its closure (the gate above), without dom0's modules. The
# Linux totals are reconstructions of the paper's pruned inventories
# (kernel subset, libc subset, glue, pruned server), not measured here.
declare -A loc
for app in "${appliances[@]}"; do
    loc[$app]="$(for crate in ${closure[$app]}; do non_test_lines "crates/${crate#mirage-}/src"; done \
        | grep -cvE "^crates/devices/src/($dom0_modules)(\.rs|/)")"
done
printf '   %-24s %10s   %-32s %6s\n' appliance "guest LoC" "Linux appliance (reconstruction)" ratio
while read -r app linux total; do
    printf '   %-24s %10d   %-24s %7d %6s\n' "$app" "${loc[$app]}" "$linux" "$total" \
        "$(awk -v l="$total" -v m="${loc[$app]}" 'BEGIN { printf "%.1fx", l / m }')"
done <<EOT
dns_appliance BIND 170500
web_appliance static-web 184500
web_appliance dynamic-web 276500
openflow_appliance of-controller 160500
openflow_appliance of-switch 155500
EOT
echo "   paper: \"a Linux appliance involves at least 4-5x more LoC than a Mirage appliance\""

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

echo "== benchmark: builds offline, its unit tests pass, and one traced dns_udp run passes its own checks"
# The component pass of a traced run drives the public ring, virtqueue
# and page-pool API the workspace's tests do not: a change of meaning
# there fails here rather than in the benchmark's pipeline.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
"${CARGO_TARGET_DIR:-benchmark/target}/release/mirage-benchmark" --out "$scratch/bench" \
    --workload dns_udp --seed 42 --seconds 1 --trace 1 > /dev/null

lap tier1

if want --all "$@"; then
    set -- --all --determinism --chaos --adversarial --conformance --scale --smp
fi

# twice <name> <cmd...>: two runs of <cmd> under one seed print identical
# stdout (wall-clock figures go to stderr; test timings are cut out).
twice() {
    local name="$1" seed="${MIRAGE_TEST_SEED:-42}" run out
    shift
    for run in 1 2; do
        out="$scratch/$name-run$run"
        MIRAGE_TEST_SEED="$seed" "$@" > "$out" 2> "$out.err" || {
            cat "$out" "$out.err" >&2
            exit 1
        }
        sed -i 's/finished in [0-9.]*s//' "$out"
    done
    diff "$scratch/$name-run1" "$scratch/$name-run2"
    echo "   ok ($name: seed $seed twice, stdout byte-identical)"
}

# seeded <name> <cmd...>: <cmd> passes under ten fixed seeds, then `twice`.
seeded() {
    local name="$1" seed
    shift
    for seed in 1 2 3 5 8 13 42 97 1337 4242; do
        echo "   -- seed $seed"
        MIRAGE_TEST_SEED="$seed" "$@" > /dev/null
    done
    twice "$name" "$@"
}

for suite in chaos adversarial conformance; do
    if want "--$suite" "$@"; then
        echo "== $suite: the suite under ten fixed seeds, then a same-seed double run"
        seeded "$suite" cargo test -q --offline --test "$suite"
        lap "$suite"
    fi
done

if want --scale "$@"; then
    echo "== scale: reduced c1m (100k connections) double run"
    twice c1m env MIRAGE_C1M_CONNS=100000 MIRAGE_C1M_HOT=512 MIRAGE_C1M_STORM=100 \
        ./target/release/examples/c1m
    echo "== scale: idle-poll regression at 100k (release)"
    MIRAGE_SCALE_CONNS=100000 cargo test -q --offline --release --test scale
    echo "== scale: full C1M run (1M held, quiet tick <= 2x from 10k to 1M; a few minutes)"
    ./target/release/examples/c1m
    lap scale
fi

if want --smp "$@"; then
    echo "== smp: the netsim gates (SMP row, parity, idle split) under ten fixed seeds"
    seeded netsim cargo test -q --offline --release -p mirage-bench --lib netsim
    echo "== smp: the matrix as examples/smp prints it"
    twice smp ./target/release/examples/smp
    lap smp
fi

if want --determinism "$@"; then
    echo "== determinism: the whole test run twice"
    twice tests cargo test -q --offline --workspace
    echo "== determinism: the figure binaries twice"
    twice figures cargo bench -q --offline -p mirage-bench "${figures[@]}"
    echo "== determinism: two traced http_churn runs of one benchmark binary, one host.allocs_per_op"
    for run in 1 2; do
        "${CARGO_TARGET_DIR:-benchmark/target}/release/mirage-benchmark" --out "$scratch/churn$run" \
            --workload http_churn --seed 42 --seconds 6 --trace 1 \
            | grep -E '^http_churn host\.allocs_per_op ' > "$scratch/churn-allocs$run"
    done
    diff "$scratch/churn-allocs1" "$scratch/churn-allocs2"
    echo "   ok ($(cat "$scratch/churn-allocs1"))"
    lap determinism
fi

if want --all "$@"; then
    if [[ "$(tree_state)" != "$tree_before" ]]; then
        echo "FAIL: the run changed the working tree:" >&2
        git status --porcelain >&2
        exit 1
    fi
    echo "== working tree as found"
fi
if [[ ${#timings[@]} -gt 1 ]]; then
    echo "== gate timings"
    printf '   %s\n' "${timings[@]}"
fi
echo "== verify: PASS"
