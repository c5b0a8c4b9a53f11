#!/usr/bin/env bash
# One-command pipeline: tier-1 verify (configure + build + ctest), the repo
# benchmark's build, selftest, simulated-output fingerprint gate and one
# live_failover run, the same test suite under ASan+UBSan, plus a bench
# smoke run whose JSON artifacts are validated. Mirrors the "Tier-1 verify" line in ROADMAP.md.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j"$(nproc)")

# The repo benchmark (BENCHMARK.json, e2ebench/) compiles src/ on its own,
# so build it against every src/ change here instead of finding a broken
# benchmark build later. Same directory and configuration as
# e2ebench/run.py, which reuses this tree.
bench_generator=()
if command -v ninja > /dev/null; then bench_generator=(-G Ninja); fi
cmake -S e2ebench -B .bench_build/cmake -DCMAKE_BUILD_TYPE=Release \
  "${bench_generator[@]}"
cmake --build .bench_build/cmake --target e2ebench e2ebench_selftest -j
./.bench_build/cmake/e2ebench_selftest

# Protocol-output gate on the benchmark's simulated workload: its notes
# carry a fingerprint of the run's exact outputs (each failover's victim,
# successor and timing, plus event, datagram and byte counts), so a src/
# change that keeps protocol behaviour keeps the value. Same contract as
# tests/harness/test_golden_trace.cpp.
# Re-pinned from 6244c9dabd491200 when each ALIVE began to carry only the
# payloads of the groups whose tables hold its destination, and roster-mode
# listeners began to follow live candidacy claims (HELLOs to live candidates
# only, candidates-only snapshots). Re-pinned from 8a0ead22f030c7a7 when
# sweeps began to leave out each group's entry toward the nodes its ALIVEs
# reached since the previous sweep, electors began to skip a payload older
# than the newest applied from its process incarnation, scoped listeners
# began to skip other listeners' HELLO entries, and snapshots stopped
# rewriting the local member.
sim_fingerprint=69a3939790b020f0
sim_notes="$(python3 e2ebench/run.py --workload sim_hier_failover --seed 7 \
  --seconds 30 --trace 0)"
if ! grep -q "^fingerprint ${sim_fingerprint} " <<< "$sim_notes"; then
  got="$(grep -o '^fingerprint [0-9a-f]*' <<< "$sim_notes" || true)"
  echo "ci.sh: sim_hier_failover seed 7 printed '${got:-no fingerprint}'," \
    "expected 'fingerprint ${sim_fingerprint}': the simulated protocol" \
    "output drifted. Re-pin sim_fingerprint only for an intended protocol" \
    "change, and say why in the commit." >&2
  exit 1
fi
echo "ci.sh: sim_hier_failover seed 7 fingerprint ${sim_fingerprint} holds"
# The same run timed a fixed simulation on this host ("host reference <X> ms
# wall (... nominal <N>)"); the fig12 wall-clock gate below scales by it.
host_reference="$(grep -m1 '^host reference .* ms wall ' <<< "$sim_notes" || true)"

# The paper's stability claim at the scale no ctest reaches: on the traced
# seed-7 run of the 120-node three-tier kill loop, the agreed global leader
# never moves off a live, well-connected process (Omega_lc: zero unjustified
# demotions). The same run gates the detection horizon: every survivor
# suspects the dead leader at its last heartbeat + T^U_D, so the time from
# the survivors' first view change to agreement (election.converge_ms_mean)
# stays near zero; per-monitor deltas spread it over ~240 ms. And it gates
# the scoped membership traffic: a listener HELLOs only candidates with a
# live own claim and gets candidates-only snapshots, so a HELLO_ACK averages
# ~333 B (2363 B while snapshots carried whole tables), and a sweep leaves
# out each group's entry toward the nodes its ALIVEs reached since the
# previous sweep, so a node sends ~12.1 HELLOs/s (16.9 while sweeps repeated
# what ALIVEs delivered, 24.7 while stale candidate flags drew listener
# HELLOs).
traced_result="$(python3 e2ebench/run.py --workload sim_hier_failover --seed 7 \
  --seconds 30 --trace 1 | tail -n 1)" || {
  echo "ci.sh: traced sim_hier_failover seed 7 did not produce a result" >&2
  exit 1
}
unjustified="$(python3 -c 'import json, sys
print(int(json.loads(sys.argv[1])["metrics"]["election.unjustified_changes"]["value"]))' \
  "$traced_result")"
if [ "$unjustified" != 0 ]; then
  echo "ci.sh: traced sim_hier_failover seed 7 reports ${unjustified}" \
    "unjustified global-leader changes, expected 0" >&2
  exit 1
fi
converge_ms="$(python3 -c 'import json, sys
print(json.loads(sys.argv[1])["metrics"]["election.converge_ms_mean"]["value"])' \
  "$traced_result")"
if ! python3 -c 'import sys; sys.exit(0 if float(sys.argv[1]) < 50 else 1)' \
  "$converge_ms"; then
  echo "ci.sh: traced sim_hier_failover seed 7 reports" \
    "election.converge_ms_mean ${converge_ms} ms, expected < 50: the" \
    "survivors no longer suspect a dead leader together" >&2
  exit 1
fi
hello_ack_bytes="$(python3 -c 'import json, sys
print(json.loads(sys.argv[1])["metrics"]["proto.bytes.hello_ack"]["value"])' \
  "$traced_result")"
hello_rate="$(python3 -c 'import json, sys
print(json.loads(sys.argv[1])["metrics"]["membership.hello_per_node_s"]["value"])' \
  "$traced_result")"
if ! python3 -c 'import sys; sys.exit(0 if float(sys.argv[1]) < 1000 else 1)' \
  "$hello_ack_bytes"; then
  echo "ci.sh: traced sim_hier_failover seed 7 reports" \
    "proto.bytes.hello_ack ${hello_ack_bytes} B, expected < 1000: snapshots" \
    "to listeners carry more than the live candidates" >&2
  exit 1
fi
if ! python3 -c 'import sys; sys.exit(0 if float(sys.argv[1]) < 14 else 1)' \
  "$hello_rate"; then
  echo "ci.sh: traced sim_hier_failover seed 7 reports" \
    "membership.hello_per_node_s ${hello_rate}, expected < 14: sweeps" \
    "repeat what ALIVEs delivered, or listeners HELLO candidates without" \
    "a live claim" >&2
  exit 1
fi
echo "ci.sh: traced sim_hier_failover seed 7: 0 unjustified leader changes," \
  "converge_ms_mean ${converge_ms} ms, hello_ack ${hello_ack_bytes} B," \
  "${hello_rate} HELLOs/node/s"

# The live runtime under the churn it serves: 256 real-UDP services whose
# group leaders are killed and restarted for 30 s, on the loop's timer path.
# run.py exits non-zero unless the result is correct: every group agreed,
# every restart succeeded and enough failovers happened.
live_result="$(python3 e2ebench/run.py --workload live_failover --seed 7 \
  --seconds 30 --trace 0)" || {
  echo "ci.sh: live_failover seed 7 did not produce a correct result" >&2
  exit 1
}
live_failed="$(tail -n 1 <<< "$live_result" \
  | python3 -c 'import json, sys; print(json.load(sys.stdin)["failed"])')"
echo "ci.sh: live_failover seed 7 correct; failed=${live_failed} (kills" \
  "without a failover within 3x the detection bound)"

# Sanitizer pass: the full unit/integration suite under AddressSanitizer +
# UndefinedBehaviorSanitizer (fatal on first finding).
cmake -B build-asan -S . -DOMEGA_SANITIZE=address,undefined
cmake --build build-asan -j
(cd build-asan && ctest --output-on-failure -j"$(nproc)")

# Bench smoke: a fast sanity pass over the figure machinery, then the
# extension figures (BENCH_adaptive.json + BENCH_perlink.json +
# BENCH_hierarchy.json + BENCH_roster.json at the repo root). fig12 is also
# the smoke-mode run of the 3-tier harness scenario (regions -> zones ->
# global at up to 500 nodes).
OMEGA_BENCH_HOURS="${OMEGA_BENCH_HOURS:-0.2}" ./build/smoke_check
OMEGA_BENCH_HOURS="${OMEGA_BENCH_HOURS:-0.2}" ./build/fig9_adaptive
OMEGA_BENCH_HOURS="${OMEGA_BENCH_HOURS:-0.2}" ./build/fig10_perlink
OMEGA_BENCH_HOURS="${OMEGA_BENCH_HOURS:-0.2}" ./build/fig11_hierarchy
OMEGA_BENCH_HOURS="${OMEGA_BENCH_HOURS:-0.2}" ./build/fig12_roster_scope

# Adversarial network plane (DESIGN.md §11): price each fault class on the
# 120-node three-tier roster (BENCH_adversary.json, gated below), and pin
# the no-adversary golden fingerprints explicitly — an empty fault_script
# must leave the simulated wire byte-identical. The adversary invariant
# battery itself (tests/adversary/) runs 3 seeds in-process per test and is
# part of both ctest passes above, including the ASan+UBSan one.
OMEGA_BENCH_HOURS="${OMEGA_BENCH_HOURS:-0.2}" ./build/fig15_adversary
(cd build && ctest -R harness_test_golden_trace --output-on-failure)

# Hot-path microbench: pure datagram churn through the zero-copy simulated
# network (DESIGN.md §9). Writes BENCH_sim_hotpath.json; the allocation gate
# below fails CI the moment a steady-state allocation sneaks back into the
# multicast -> admit -> deliver path.
./build/sim_hotpath

# Live scale-out runtime smoke (DESIGN.md §10): real UDP sockets on shared
# epoll loops, batched vs per-datagram, at 32 and 128 hosted services.
# Writes BENCH_live.json (validated and gated below); a non-zero exit means
# some group failed to agree on a leader. Runs after fig12 so the sim
# reference cell can be embedded. The 5 s window is the committed record's
# (`measured_s`), so a stock run regenerates comparable counters.
OMEGA_LIVE_SERVICES="${OMEGA_LIVE_SERVICES:-32,128}" \
OMEGA_LIVE_SECONDS="${OMEGA_LIVE_SECONDS:-5}" \
OMEGA_LIVE_WARMUP="${OMEGA_LIVE_WARMUP:-1.5}" \
  ./build/fig14_live

# The hierarchical-election example is a two-level failover demo with a
# pass/fail exit code: run it as part of the smoke set.
./build/example_hierarchical_election > /dev/null

# Metrics-exposition smoke: render the Prometheus text format from a live
# registry and re-parse it, plus a traced experiment's JSONL dump.
./build/obs_smoke

# Live-scrape smoke: run the real-UDP example with its embedded HTTP
# endpoint, scrape /metrics and /trace from the running process, and push
# the scraped /metrics page back through the exposition parser (obs_smoke
# file mode). The example itself enforces the real-UDP causal forensics
# gate (>= 95% of failover events linked) via its exit code.
if command -v python3 > /dev/null; then
  rm -f ci_live_port.txt ci_live_metrics.txt ci_live_trace.jsonl
  OMEGA_LIVE_HTTP_PORT=0 OMEGA_LIVE_LINGER_MS=4000 \
    ./build/example_udp_live > ci_udp_live.log 2>&1 &
  live_pid=$!
  # The port line appears as soon as the endpoint binds; the post-failover
  # snapshots are published ~6.5 s in, within the linger window.
  for _ in $(seq 1 100); do
    grep -oE 'serving /metrics and /trace on 127\.0\.0\.1:[0-9]+' \
      ci_udp_live.log | grep -oE '[0-9]+$' > ci_live_port.txt && break
    sleep 0.1
  done
  sleep 7
  live_port="$(cat ci_live_port.txt)"
  python3 - "$live_port" <<'PY'
import sys, urllib.request
port = sys.argv[1]
for path, out in (("/metrics", "ci_live_metrics.txt"),
                  ("/trace", "ci_live_trace.jsonl")):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5) as r:
        body = r.read()
        assert r.status == 200 and body, (path, r.status, len(body))
        open(out, "wb").write(body)
lines = open("ci_live_trace.jsonl", "rb").read().splitlines()
assert lines and all(l.startswith(b"{") and l.endswith(b"}") for l in lines), \
    "scraped /trace is not JSONL"
print(f"ci.sh: scraped live /metrics and /trace ({len(lines)} trace events)")
PY
  wait "$live_pid" \
    || { echo "ci.sh: example_udp_live failed (see ci_udp_live.log)" >&2; exit 1; }
  ./build/obs_smoke ci_live_metrics.txt
  rm -f ci_live_port.txt ci_live_metrics.txt ci_live_trace.jsonl ci_udp_live.log
else
  echo "ci.sh: python3 unavailable, skipping the live-scrape smoke" >&2
fi

# Every emitted bench artifact must be parseable JSON: the figures are
# consumed by tooling, so a truncated or malformed write fails here, not
# downstream.
if command -v python3 > /dev/null; then
  for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    python3 -m json.tool "$f" > /dev/null \
      || { echo "ci.sh: invalid JSON in $f" >&2; exit 1; }
    echo "ci.sh: $f parses"
  done
  # Roster scoping must beat cluster-wide HELLO on total wire traffic at
  # every 300+ roster of the 3-tier sweep; the observability plane — with
  # causal wire stamping enabled — must not perturb the protocol (msgs/s
  # within 3% of the pre-instrumentation baseline on the stock smoke
  # setting) and must attribute >= 95% of every measured re-election
  # interval to a named phase.
  OMEGA_BENCH_HOURS="${OMEGA_BENCH_HOURS:-0.2}" \
  OMEGA_BENCH_SEED="${OMEGA_BENCH_SEED:-42}" \
  CI_HOST_REFERENCE="$host_reference" \
  python3 - <<'PY'
import json, os, re, sys
with open("BENCH_roster.json") as fh:
    data = json.load(fh)
failed = False
for row in data["rosters"]:
    if row["nodes"] < 300:
        continue
    scoped = row["scoped3"]["messages_per_s"]
    cluster = row["cluster3"]["messages_per_s"]
    if scoped >= cluster:
        print(f"ci.sh: scoped msgs/s {scoped} >= cluster-wide {cluster} "
              f"at {row['nodes']} nodes", file=sys.stderr)
        failed = True
    else:
        print(f"ci.sh: roster scoping at {row['nodes']} nodes: "
              f"{scoped:.0f} vs {cluster:.0f} msgs/s "
              f"({cluster / max(scoped, 1e-9):.1f}x)")

# Instrumentation-overhead gate: the simulator is deterministic, so on the
# stock smoke setting (0.2 h window, seed 42) the 120-node scoped3 traffic
# must match the value measured before the observability hooks landed. A
# drift beyond 3% means an instrumentation site changed protocol behaviour.
# Re-pinned from 6264.6 when unpinned FD monitors took delta = T^U_D minus
# the announced eta and cold monitors stopped requesting T^U_D/4: senders
# settle at their warm monitors' eta (~2.0 instead of ~3.8 ALIVEs/node/s).
# Re-pinned from 4204.5 when roster-mode listeners began to HELLO only
# candidates with a live own claim (1545.0 -> 1309.5 HELLOs/s). Re-pinned
# from 3964.6 when sweeps began to leave out each group's entry toward the
# nodes its ALIVEs reached since the previous sweep (1309.5 -> 810.6
# HELLOs/s).
BASELINE_120_SCOPED3 = 3465.8  # msgs/s, hours=0.2 seed=42
if (os.environ.get("OMEGA_BENCH_HOURS") == "0.2"
        and os.environ.get("OMEGA_BENCH_SEED") == "42"):
    row120 = next((r for r in data["rosters"] if r["nodes"] == 120), None)
    if row120 is None:
        print("ci.sh: no 120-node row in BENCH_roster.json", file=sys.stderr)
        failed = True
    else:
        got = row120["scoped3"]["messages_per_s"]
        drift = abs(got - BASELINE_120_SCOPED3) / BASELINE_120_SCOPED3
        if drift > 0.03:
            print(f"ci.sh: instrumentation overhead gate: 120-node scoped3 "
                  f"{got:.1f} msgs/s drifts {drift * 100:.1f}% from the "
                  f"pre-instrumentation baseline {BASELINE_120_SCOPED3}",
                  file=sys.stderr)
            failed = True
        else:
            print(f"ci.sh: overhead gate: {got:.1f} msgs/s vs baseline "
                  f"{BASELINE_120_SCOPED3} ({drift * 100:.2f}% drift)")
else:
    print("ci.sh: non-stock bench window/seed, skipping the overhead gate")

# Zero-allocation gate: the hot-path microbench must report no heap
# allocations during its measurement window. Any regression here means a
# per-datagram copy or callback-box allocation crept back in (DESIGN.md §9).
with open("BENCH_sim_hotpath.json") as fh:
    hot = json.load(fh)
if hot["allocations"] != 0 or not hot["zero_alloc_steady_state"]:
    print(f"ci.sh: hot path allocated {hot['allocations']} times over "
          f"{hot['datagrams_delivered']} datagrams "
          f"({hot['allocs_per_datagram']:.6f}/datagram)", file=sys.stderr)
    failed = True
else:
    print(f"ci.sh: zero-alloc gate: {hot['datagrams_delivered']} datagrams, "
          f"0 allocations, {hot['events_per_s']:.0f} events/s")

# Wall-clock regression gate: on the stock smoke setting the three 120-node
# fig12 cells are deterministic workloads, so their summed wall clock tracks
# raw simulator throughput. The sum is first scaled to a host of nominal
# speed by the e2ebench host reference captured above (nominal / measured
# reference time), so the gate means the same on a slower or faster host.
# More than 20% above the baseline means the hot path got slower.
WALL_BASELINE_120_S = 10.9  # sum over 120-node cells, hours=0.2 seed=42
if (os.environ.get("OMEGA_BENCH_HOURS") == "0.2"
        and os.environ.get("OMEGA_BENCH_SEED") == "42"):
    row120 = next((r for r in data["rosters"] if r["nodes"] == 120), None)
    ref = re.search(r"host reference ([0-9.]+) ms wall .*nominal ([0-9.]+)\)",
                    os.environ.get("CI_HOST_REFERENCE", ""))
    if row120 is None:
        print("ci.sh: no 120-node row for the wall-clock gate", file=sys.stderr)
        failed = True
    elif ref is None or float(ref.group(1)) <= 0:
        print("ci.sh: no host reference from the sim_hier_failover run for "
              "the wall-clock gate", file=sys.stderr)
        failed = True
    else:
        raw = sum(row120[c]["wall_clock_s"]
                  for c in ("cluster3", "scoped3", "two_tier"))
        scale = float(ref.group(2)) / float(ref.group(1))
        wall = raw * scale
        if wall > WALL_BASELINE_120_S * 1.20:
            print(f"ci.sh: wall-clock gate: 120-node cells took {raw:.1f}s, "
                  f"{wall:.1f}s at nominal host speed (x{scale:.3f}), >20% "
                  f"above the {WALL_BASELINE_120_S}s baseline",
                  file=sys.stderr)
            failed = True
        else:
            print(f"ci.sh: wall-clock gate: 120-node cells {raw:.1f}s, "
                  f"{wall:.1f}s at nominal host speed (x{scale:.3f}; "
                  f"baseline {WALL_BASELINE_120_S}s)")
else:
    print("ci.sh: non-stock bench window/seed, skipping the wall-clock gate")

# Forensics gate: every cell that measured re-elections must attribute at
# least 95% of the mean outage window to detection/dissemination/election.
for row in data["rosters"]:
    for cell in ("cluster3", "scoped3", "two_tier"):
        c = row[cell]
        if c["reelection_samples"] == 0:
            continue
        frac = c["latency_budget"]["attributed_fraction_mean"]
        if frac < 0.95:
            print(f"ci.sh: forensics attributed only {frac * 100:.1f}% of "
                  f"the outage at {row['nodes']}/{cell}", file=sys.stderr)
            failed = True

# Adversary-plane gates (BENCH_adversary.json, DESIGN.md §11). Schema
# first: one cell per fault class with the full counter set. Then the
# forensics gate the ISSUE pins: under EVERY fault class at least 95% of
# global-leader outages must be attributed — to a tier failover or to the
# injected fault via the harness's fault oracle. Each cell induces leader
# crashes, so outages_total must be > 0 for the fraction to mean anything.
with open("BENCH_adversary.json") as fh:
    adv = json.load(fh)
ADV_CLASSES = {"none", "cut", "partition", "flap", "dup_reorder", "skew"}
ADV_KEYS = {"fault", "messages_per_s", "bytes_per_s", "reelection_mean_s",
            "reelection_samples", "dropped_cut", "dropped_partition",
            "dropped_flap", "duplicated", "reorder_delayed", "outages_total",
            "outages_blamed_regional", "outages_blamed_global",
            "outages_blamed_fault", "outages_unattributed",
            "attribution_fraction", "wall_clock_s", "events_executed"}
adv_cells = {c.get("fault"): c for c in adv.get("cells", [])}
missing_classes = ADV_CLASSES - adv_cells.keys()
if missing_classes:
    print(f"ci.sh: BENCH_adversary.json lacks fault classes "
          f"{sorted(missing_classes)}", file=sys.stderr)
    failed = True
for fault, c in sorted(adv_cells.items()):
    missing = ADV_KEYS - c.keys()
    if missing:
        print(f"ci.sh: BENCH_adversary.json cell '{fault}' missing "
              f"{sorted(missing)}", file=sys.stderr)
        failed = True
        continue
    if c["outages_total"] == 0:
        print(f"ci.sh: adversary cell '{fault}' measured no global-leader "
              f"outage — the attribution gate would be vacuous",
              file=sys.stderr)
        failed = True
    elif c["attribution_fraction"] < 0.95:
        print(f"ci.sh: adversary forensics attributed only "
              f"{c['attribution_fraction'] * 100:.1f}% of outages under "
              f"'{fault}' (need >= 95%)", file=sys.stderr)
        failed = True
    else:
        print(f"ci.sh: adversary gate '{fault}': "
              f"{c['outages_total']} outages, "
              f"{c['attribution_fraction'] * 100:.0f}% attributed, "
              f"re-election {c['reelection_mean_s']:.2f}s, "
              f"{c['messages_per_s']:.0f} msgs/s")
none_cell = adv_cells.get("none")
if none_cell is not None:
    injected = sum(none_cell[k] for k in ("dropped_cut", "dropped_partition",
                                          "dropped_flap", "duplicated",
                                          "reorder_delayed"))
    if injected != 0:
        print(f"ci.sh: baseline adversary cell reports {injected} injected "
              f"faults — no adversary should be installed", file=sys.stderr)
        failed = True

# Live-runtime gates (BENCH_live.json, DESIGN.md §10). Schema first: the
# artifact is consumed by tooling, so every cell must carry the full set of
# counters. Then the two semantic gates: every cell's groups agreed on a
# leader, and at equal protocol traffic the batched runtime must move a
# datagram in at least 5x fewer syscalls than the per-datagram baseline.
with open("BENCH_live.json") as fh:
    live = json.load(fh)
CELL_KEYS = {"services", "mode", "elapsed_s", "msgs_per_s", "syscalls_per_msg",
             "cpu_ms_per_node_per_s", "leaders_ok", "datagrams_sent",
             "datagrams_received", "bytes_sent", "syscalls", "sendmmsg_calls",
             "sendto_calls", "recvmmsg_calls", "recvfrom_calls", "epoll_waits",
             "send_errors", "queue_drops"}
cells = live.get("cells", [])
if not cells:
    print("ci.sh: BENCH_live.json has no cells", file=sys.stderr)
    failed = True
by_n = {}
for cell in cells:
    missing = CELL_KEYS - cell.keys()
    if missing:
        print(f"ci.sh: BENCH_live.json cell missing {sorted(missing)}",
              file=sys.stderr)
        failed = True
        continue
    if not cell["leaders_ok"]:
        print(f"ci.sh: live run at {cell['services']} services "
              f"({cell['mode']}) ended without leader agreement",
              file=sys.stderr)
        failed = True
    by_n.setdefault(cell["services"], {})[cell["mode"]] = cell
for n, modes in sorted(by_n.items()):
    if "batched" not in modes or "per_datagram" not in modes:
        print(f"ci.sh: BENCH_live.json lacks a batched/per_datagram pair "
              f"at {n} services", file=sys.stderr)
        failed = True
        continue
    batched = modes["batched"]["syscalls_per_msg"]
    base = modes["per_datagram"]["syscalls_per_msg"]
    ratio = base / max(batched, 1e-9)
    if ratio < 5.0:
        print(f"ci.sh: syscall batching gate: only {ratio:.2f}x fewer "
              f"syscalls/msg at {n} services (need >= 5x)", file=sys.stderr)
        failed = True
    else:
        print(f"ci.sh: syscall batching gate at {n} services: "
              f"{base:.3f} -> {batched:.3f} syscalls/msg ({ratio:.1f}x), "
              f"{modes['batched']['msgs_per_s']:.0f} msgs/s live")
sys.exit(1 if failed else 0)
PY
else
  echo "ci.sh: python3 unavailable, skipping BENCH_*.json validation" >&2
fi

echo "ci.sh: all green"
