#!/usr/bin/env bash
# Repo health check: tier-1 verify (full build + ctest) plus sanitizer passes.
#
#   tools/check.sh            # tier-1 + ASan/UBSan pass
#   tools/check.sh --fast     # tier-1 only
#   tools/check.sh --tsan     # tier-1 + TSan over the threaded data-plane tests
#
# Any other argument is a usage error (exit 2).
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ $# -gt 1 || ! "${1:-}" =~ ^(--fast|--tsan)?$ ]]; then
  echo "error: unknown arguments '$*' (tools/check.sh takes --fast or --tsan)" >&2
  exit 2
fi

jobs=$(nproc 2>/dev/null || echo 4)

echo "== tier-1: configure + build + ctest =="
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs"
ctest --preset default -j "$jobs"

echo "== smoke: durability sweep (aging x scrub + MTTDL frontier, JSON) =="
./build/bench/bench_durability --json | python3 -c '
import json, sys
report = json.load(sys.stdin)
cells = report["cells"]
for cell in cells:
    assert cell["conserves"], f"repair ledger leak: {cell}"
mttdl = {c["label"]: c["estimate"] for c in report["mttdl"]}
split, mc = mttdl["xcheck_split"], mttdl["xcheck_mc"]
lo_s, hi_s = split["p_loss_ci95"]
lo_m, hi_m = mc["p_loss_ci95"]
assert lo_s <= hi_m and lo_m <= hi_s, \
    f"splitting and Monte Carlo CIs diverged: {split} vs {mc}"
assert split["loss_branches"] > mc["loss_branches"], \
    "splitting found no more loss branches than brute force"
print(f"ok: {len(cells)} cells conserve; splitting CI "
      f"[{lo_s:.3f}, {hi_s:.3f}] overlaps MC [{lo_m:.3f}, {hi_m:.3f}]")
'

echo "== smoke: checkpoint round-trip (twin snapshot/restore byte-identity) =="
# silica_sim re-runs the same config uninterrupted, snapshots at the given
# sim-time, restores, and exits nonzero if the two final reports differ.
./build/tools/silica_sim --profile=iops --platters=300 --seed=7 \
    --checkpoint-at=900 --json > /tmp/silica_checkpoint.json
echo "ok: checkpoint at 900 s restored byte-identically"

echo "== smoke: checkpoint round-trip with every serialized subsystem live =="
# Same round-trip with faults, media aging, scrub and lazy repair on, so the
# injector, scrub health, rebuild and lazy-queue state all cross the snapshot.
./build/tools/silica_sim --profile=iops --platters=300 --seed=7 \
    --checkpoint-at=900 --fault-shuttle-mtbf=20000 --fault-shuttle-mttr=600 \
    --fault-drive-mtbf=40000 --fault-drive-mttr=900 --aging-mtbe=7200 \
    --scrub --scrub-interval=1800 --lazy-repair --json \
    | python3 -c '
import json, sys
report = json.load(sys.stdin)
faults, lazy = report["faults"], report["lazy"]
assert faults["shuttle_failures"] > 0 and faults["drive_failures"] > 0, faults
assert report["aging"]["events"] > 0, report["aging"]
assert report["scrub"]["passes"] > 0, report["scrub"]
assert lazy["admitted"] > 0, lazy
print("ok: storm checkpoint at 900 s restored byte-identically "
      "(%d shuttle + %d drive failures, %d lazy repairs admitted)" % (
          faults["shuttle_failures"], faults["drive_failures"], lazy["admitted"]))
'

echo "== smoke: rare-event MTTDL estimator (splitting vs brute force) =="
./build/tools/silica_sim --mttdl=split --sets=16 --set-n=5 --set-k=4 \
    --fail-rate=0.3 --scrub-interval=864000 --horizon-years=1 --roots=100 \
    --split-k=6 > /tmp/silica_mttdl_split.json
./build/tools/silica_sim --mttdl=mc --sets=16 --set-n=5 --set-k=4 \
    --fail-rate=0.3 --scrub-interval=864000 --horizon-years=1 --roots=100 \
    > /tmp/silica_mttdl_mc.json
python3 -c '
import json
split = json.load(open("/tmp/silica_mttdl_split.json"))
mc = json.load(open("/tmp/silica_mttdl_mc.json"))
assert split["mode"] == "splitting" and mc["mode"] == "monte_carlo"
lo_s, hi_s = split["p_loss_ci95"]
lo_m, hi_m = mc["p_loss_ci95"]
assert lo_s <= hi_m and lo_m <= hi_s, \
    f"--mttdl split vs mc CIs diverged: {split} vs {mc}"
p = split["p_loss"]
print(f"ok: split p_loss {p:.3f} vs MC CI [{lo_m:.3f}, {hi_m:.3f}]")
'

echo "== smoke: event-loop microbench (reduced ops, JSON) =="
./build/bench/bench_events --json --ops=100000 | python3 -c '
import json, sys
report = json.load(sys.stdin)
workloads = report["workloads"]
assert len(workloads) == 3, workloads
for w in workloads:
    assert w["engine_events_per_sec"] > 0 and w["heap_events_per_sec"] > 0, w
# The full-ops 2x claim lives in BENCH_events.json; at smoke size under CI
# load we only require the engine not to have fallen behind the old heap.
sched = next(w for w in workloads if w["workload"] == "schedule_heavy")
assert sched["speedup"] > 1.2, f"schedule_heavy speedup collapsed: {sched}"
print("ok: " + ", ".join("%s %.2fx" % (w["workload"], w["speedup"]) for w in workloads))
'

echo "== smoke: front-end fair-share harness (reduced load, JSON) =="
./build/bench/bench_frontend --json --tenants=12 --duration=4 --greedy=2 \
    --queue-depth=16 | python3 -c '
import json, sys
report = json.load(sys.stdin)
totals, conservation = report["totals"], report["conservation"]
assert conservation["admission"], f"front door lost a submission: {totals}"
assert conservation["completion"], f"front door lost an admission: {totals}"
coalescing = report["coalescing"]
assert coalescing["platter_mounts"] < coalescing["reads_executed"], coalescing
assert report["fairness"]["jain_goodput_steady"] > 0.8, report["fairness"]
print("ok: %d submitted, %d rejected, %.2f reads/mount, steady Jain %.3f" % (
    totals["submitted"], totals["rejected"],
    coalescing["reads_executed"] / max(coalescing["platter_mounts"], 1),
    report["fairness"]["jain_goodput_steady"]))
'

echo "== smoke: SIMD kernel tiers and thread-count invisibility (checksums, JSON) =="
./build/bench/bench_decode_stack --json --threads=4 | python3 -c '
import json, sys
report = json.load(sys.stdin)
runs = {r["threads"]: r["payload_checksum"] for r in report["runs"]}
assert sorted(runs) == [1, 4], report["runs"]
assert runs[1] == runs[4], f"decoded payloads differ between 1 and 4 threads: {runs}"
simd = report["simd"]
tiers = {t["tier"]: t for t in simd["tiers"]}
assert "scalar" in tiers, simd
assert simd["bit_identical"], f"SIMD tiers disagree with scalar: {simd}"
for tier in tiers.values():
    assert tier["checksum"] == tiers["scalar"]["checksum"], simd
    assert tier["demap_sectors_per_second"] > 0, f"demap stage did not run: {tier}"
    assert tier["noise_sectors_per_second"] > 0, f"noise stage did not run: {tier}"
print("ok: payload checksum %s at 1 and 4 threads; tiers " % runs[1] +
      ", ".join(sorted(tiers)) +
      " bit-identical (GF, recovery, LDPC, demap, noise); best %s at %.2fx "
      "recovery speedup, demap %s, noise %s" % (
          simd["best_tier"], simd["simd_speedup"],
          ", ".join("%s %.0f sectors/s" % (t["tier"], t["demap_sectors_per_second"])
                    for t in simd["tiers"]),
          ", ".join("%s %.0f sectors/s" % (t["tier"], t["noise_sectors_per_second"])
                    for t in simd["tiers"])))
'

echo "== smoke: traffic-manager scaling sweep (reduced fleets/reps, JSON) =="
./build/bench/bench_traffic --json --fleets=8,64 --reps=1 --requests=60 \
    | python3 -c '
import json, sys
report = json.load(sys.stdin)
fleets = report["fleets"]
assert len(fleets) == 2, fleets
for fleet in fleets:
    assert fleet["conserves"], f"traffic fleet lost requests: {fleet}"
    assert fleet["completed"] + fleet["failed"] == fleet["requests"], fleet
    assert fleet["events_per_second"] > 0, fleet
# The full 256-vs-8 within-2x claim lives in BENCH_traffic.json; at smoke
# size we only require the sharded control plane not to collapse with scale.
ratio = report["events_per_second_ratio_largest_vs_8"]
assert ratio > 0.3, f"events/sec collapsed at the larger fleet: {ratio}"
print("ok: %d fleets conserve; events/s ratio %d-vs-8 = %.2fx" % (
    len(fleets), fleets[-1]["shuttles"], ratio))
'

echo "== smoke: multi-library federation (reduced cells, JSON) =="
./build/bench/bench_federation --json --libraries=1,2 --window-hours=1 \
    --reps=1 | python3 -c '
import json, sys
report = json.load(sys.stdin)
cells = report["cells"]
assert cells, "federation bench produced no cells"
for cell in cells:
    assert cell["conserves"], f"federation cell lost requests: {cell}"
    assert cell["messages_dropped"] == 0, f"dropped cross-site messages: {cell}"
    assert cell["messages_in_flight"] == 0, f"undelivered messages: {cell}"
# Byte-identity across thread counts: every (libraries, threads) cell of the
# same federation must hash identically — the epoch barrier makes thread
# count invisible to the simulation.
hashes = {}
for cell in cells:
    hashes.setdefault(cell["libraries"], set()).add(cell["hash"])
for libraries, digests in hashes.items():
    assert len(digests) == 1, \
        f"{libraries}-library federation not byte-identical: {digests}"
print("ok: %d cells conserve; thread count invisible for libraries %s" % (
    len(cells), sorted(hashes)))
'

echo "== smoke: fig9 engine byte-identity (--simd=scalar vs auto) =="
# The library twin behind the fig9 sweep must produce byte-identical reports
# whatever kernel tier is active; any diff means a vector kernel changed bytes.
./build/tools/silica_sim --profile=iops --platters=300 --simd=scalar --json \
    > /tmp/silica_simd_scalar.json
./build/tools/silica_sim --profile=iops --platters=300 --simd=auto --json \
    > /tmp/silica_simd_auto.json
cmp /tmp/silica_simd_scalar.json /tmp/silica_simd_auto.json
echo "ok: --simd=scalar and --simd=auto reports are byte-identical"

if [[ "${1:-}" == "--fast" ]]; then
  echo "== OK (fast mode, sanitizers skipped) =="
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  echo "== sanitizers: TSan over thread-pool + dataplane + fault/scrub tests =="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$jobs" --target silica_tests
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/silica_tests \
    --gtest_filter='ThreadPool*:ParallelFor.*:RunSweep.*:DataPlaneParallel.*:DataPipelineTest.*:LdpcCsr.*:LdpcBuildCache.*:Gf256Kernels.*:FaultInjector.*:FaultInjectorState.*:FaultedLibrary.*:MediaAging.*:PlatterRepair.*:ScrubbedLibrary.*:ShardedScheduler.*:LazyRepair*:DurabilityModel.*:Federation.*:FrontendTest.VirtualClockReplayIsDeterministic'
  echo "== OK =="
  exit 0
fi

echo "== sanitizers: ASan+UBSan over simulator + telemetry + fault/scrub + data-plane tests =="
cmake --preset asan >/dev/null
cmake --build --preset asan -j "$jobs" --target silica_tests
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  ./build-asan/tests/silica_tests \
  --gtest_filter='Flags.*:Rng.*:ParallelFor.*:ThreadPool*:Simulator.*:SimEquivalence.*:CalendarQueueDirect.*:SchedulerEquivalence.*:SchedulerTelemetry.*:ShardedScheduler.*:Partitioner.*:MetricsRegistry.*:Tracer.*:Telemetry.*:Gf256Kernels.*:FaultInjector.*:FaultInjectorState.*:FaultedLibrary.*:MediaAging.*:PlatterRepair.*:ScrubbedLibrary.*:RngState.*:Checkpoint.*:ConvertedTypes/CheckpointRoundTrip.*:LazyRepair*:DurabilityModel.*:Federation.*:Placement.*:FrontendProtocolTest.*:FrontendTest.*:RequestStreamTest.*:DataPlaneParallel.*:DataPipelineTest.*:SoftDecoder.*:SectorCodecTest.*:ReadChannel.*:Constellation.*'

echo "== OK =="
