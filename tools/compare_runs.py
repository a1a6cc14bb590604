#!/usr/bin/env python3
"""Compare two silica_sim --json run reports for bench trajectory tracking.

Usage:
    silica_sim --profile=iops --json > baseline.json
    ... change the code ...
    silica_sim --profile=iops --json > candidate.json
    tools/compare_runs.py baseline.json candidate.json [--tolerance=0.02]

Prints a per-metric delta table and exits non-zero when any tracked metric
regresses by more than the tolerance (fraction, default 2%). "Regression" is
directional: completion times, makespan, congestion, and energy should not go
up; drive utilization and completed requests should not go down.

Also understands `bench_events --json` reports (detected by "bench": "events"):
per workload, engine events/sec and the engine-vs-heap speedup must not drop by
more than the tolerance. Raw events/sec is machine-sensitive, so cross-machine
comparisons should use a generous tolerance (CI uses 0.25); the speedup ratio
is the robust signal.

And `bench_frontend --json` reports (detected by "bench": "frontend"): the
conservation invariants must hold in both runs, completed requests / steady
goodput fairness / coalescing must not degrade, and latency percentiles must
not rise beyond the tolerance. Virtual-clock reports at the same seed and
config are byte-identical, so any delta at all flags a behavior change.

And `bench_decode_stack --json` reports (detected by "bench": "decode_stack",
tracked in BENCH_decode.json): two hard gates first — every SIMD tier's
kernel-stage checksum must agree within each report (bit_identical), and the
scalar checksum must be unchanged between baseline and candidate (the kernel
inputs are fixed-seed, so any checksum drift is a wrong-answer bug, not noise).
Then the usual directional table: full-stack and per-tier throughput plus
simd_speedup must not drop beyond the tolerance (wall-clock rates are
machine-sensitive; use a generous tolerance across machines).

And `bench_traffic --json` reports (detected by "bench": "traffic", tracked in
BENCH_traffic.json): conservation is a hard gate — every fleet row must have
completed + failed == requests (re-derived from the counters, and the bench's
own "conserves" flag must agree) in both reports, no tolerance. Then the
scaling signal: the events/sec ratio of the largest fleet vs the 8-shuttle
fleet and per-fleet events/sec must not drop beyond the tolerance. The
deterministic counters (steals, congestion stops, detours, repartitions) are
printed as drift notes: at the same seed and config any change is a behavior
change, but across intentional scheduler evolutions they move legitimately.

And `bench_federation --json` reports (detected by "bench": "federation",
tracked in BENCH_federation.json): three hard gates first — every cell must
conserve (requests completed + failed == total, geo reads all resolved,
no dropped or still-in-flight cross-site messages), within each report the
cells of one federation size must hash identically across thread counts
(the epoch barrier makes the thread count invisible), and between reports
an unchanged federation size whose message/request counts are unchanged must
keep the same hash — hash drift at identical counters is a determinism bug,
not noise. Then the directional table: per-size events/sec and the parallel
speedup at the gate size must not drop beyond the tolerance.

And `bench_durability --json` reports (detected by "bench": "durability",
tracked in BENCH_durability.json): two hard gates — every twin sweep cell's
repair ledger must conserve (detected == repaired + unrecoverable) in both
reports, and within each report the MTTDL cross-check pair's 95% confidence
intervals (importance splitting vs brute-force Monte Carlo on the same fleet)
must overlap, or the estimator itself is broken. Then the directional table:
per frontier cell, p_loss / unrecoverable sectors / bytes lost must not rise
and mttdl_years must not drop beyond the tolerance. The model is
deterministic at a fixed seed, so at unchanged config any delta at all is a
behavior change — the tolerance only absorbs intentional re-tuning.
"""
import argparse
import json
import sys

# (json path, label, direction) — direction +1 means "higher is better",
# -1 means "lower is better", 0 means informational only.
TRACKED = [
    (("requests", "completed"), "requests completed", +1),
    (("completion_seconds", "p50"), "completion p50 (s)", -1),
    (("completion_seconds", "p99"), "completion p99 (s)", -1),
    (("completion_seconds", "p999"), "completion p99.9 (s)", -1),
    (("completion_seconds", "max"), "completion max (s)", -1),
    (("drives", "utilization"), "drive utilization", +1),
    (("drives", "read_fraction"), "drive read fraction", 0),
    (("drives", "verify_fraction"), "drive verify fraction", 0),
    (("shuttles", "travel_mean_s"), "travel mean (s)", -1),
    (("shuttles", "congestion_overhead_fraction"), "congestion overhead", -1),
    (("shuttles", "energy_per_platter_op"), "energy / platter op", -1),
    (("shuttles", "work_steals"), "work steals", 0),
    (("makespan_seconds",), "makespan (s)", -1),
]

# Durability counters, present only when the run enabled media aging or the
# background scrubber (--aging-mtbe / --scrub). Compared only when both runs
# carry them; a run without the feature simply skips these rows.
OPTIONAL_TRACKED = [
    (("aging", "events"), "aging events", 0),
    (("aging", "latent_sectors"), "latent sectors", 0),
    (("scrub", "passes"), "scrub passes", 0),
    (("scrub", "detections"), "scrub detections", 0),
    (("repair", "detected"), "repair: detected sectors", 0),
    (("repair", "ldpc_retry"), "repair: ldpc retry", 0),
    (("repair", "track_nc"), "repair: within-track NC", 0),
    (("repair", "large_group"), "repair: large group", 0),
    (("repair", "platter_set"), "repair: platter set", 0),
    (("repair", "unrecoverable"), "repair: unrecoverable", -1),
    (("repair", "bytes_lost"), "repair: bytes lost", -1),
    (("repair", "rebuilds_completed"), "rebuilds completed", 0),
    (("repair", "rebuild_reads"), "rebuild set-peer reads", 0),
]


def lookup(report, path):
    node = report
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def compare_events(base, cand, tolerance):
    """Diff two bench_events reports: events/sec and speedup per workload."""
    base_wl = {w["workload"]: w for w in base.get("workloads", [])}
    cand_wl = {w["workload"]: w for w in cand.get("workloads", [])}
    if base.get("ops_per_workload") != cand.get("ops_per_workload"):
        print(f"note: ops differ ({base.get('ops_per_workload')} -> "
              f"{cand.get('ops_per_workload')}); rates still comparable")

    regressions = []
    rows = []
    for name in base_wl:
        if name not in cand_wl:
            rows.append((f"{name}: missing in candidate", None))
            regressions.append(name)
            continue
        for key, label, direction in [
            ("engine_events_per_sec", "events/sec", +1),
            ("speedup", "speedup vs heap", +1),
            ("heap_events_per_sec", "heap events/sec", 0),
        ]:
            b, c = base_wl[name].get(key), cand_wl[name].get(key)
            if b is None or c is None or b == 0:
                continue
            delta = (c - b) / b
            mark = ""
            if direction != 0 and direction * delta < -tolerance:
                mark = "  <-- regression"
                regressions.append(f"{name} {label}")
            rows.append((f"{name}: {label}", (b, c, delta, mark)))

    width = max((len(label) for label, _ in rows), default=20)
    print(f"{'workload metric':<{width}}  {'baseline':>14}  "
          f"{'candidate':>14}  {'delta':>8}")
    for label, row in rows:
        if row is None:
            print(f"{label:<{width}}")
            continue
        b, c, delta, mark = row
        print(f"{label:<{width}}  {b:>14.6g}  {c:>14.6g}  {delta:>+7.1%}{mark}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{tolerance:.1%}: {', '.join(regressions)}")
        return 1
    print("\nno regressions beyond tolerance")
    return 0


# bench_frontend report rows, same (path, label, direction) convention.
FRONTEND_TRACKED = [
    (("totals", "submitted"), "requests submitted", 0),
    (("totals", "accepted"), "requests accepted", 0),
    (("totals", "rejected"), "requests rejected", 0),
    (("totals", "completed"), "requests completed", +1),
    (("totals", "failed"), "requests failed", -1),
    (("totals", "staged_read_hits"), "staged read hits", 0),
    (("totals", "flushes"), "flushes", -1),
    (("totals", "write_retries"), "write retries", -1),
    (("coalescing", "mounts_per_read"), "mounts per read", -1),
    (("fairness", "jain_completed_all"), "Jain (completed, all)", 0),
    (("fairness", "jain_goodput_steady"), "Jain (goodput, steady)", +1),
    (("latency", "p50_s"), "latency p50 (s)", -1),
    (("latency", "p99_s"), "latency p99 (s)", -1),
    (("latency", "max_s"), "latency max (s)", -1),
]


def compare_frontend(base, cand, tolerance):
    """Diff two bench_frontend reports: conservation is a hard gate, then the
    usual directional delta table over totals/fairness/coalescing/latency."""
    failures = []
    for name, report in (("baseline", base), ("candidate", cand)):
        conservation = report.get("conservation", {})
        if not conservation.get("admission", False):
            failures.append(f"{name}: submitted != accepted + rejected")
        if not conservation.get("completion", False):
            failures.append(f"{name}: admitted != completed + failed")
    for failure in failures:
        print(f"CONSERVATION VIOLATION — {failure}")
    if failures:
        return 1

    base_cfg, cand_cfg = base.get("config", {}), cand.get("config", {})
    if base_cfg != cand_cfg:
        print("note: configs differ, deltas compare different experiments")
        for key in sorted(set(base_cfg) | set(cand_cfg)):
            if base_cfg.get(key) != cand_cfg.get(key):
                print(f"  {key}: {base_cfg.get(key)!r} -> {cand_cfg.get(key)!r}")

    regressions = []
    width = max(len(label) for _, label, _ in FRONTEND_TRACKED)
    print(f"{'metric':<{width}}  {'baseline':>14}  {'candidate':>14}  {'delta':>8}")
    for path, label, direction in FRONTEND_TRACKED:
        b, c = lookup(base, path), lookup(cand, path)
        if b is None or c is None:
            print(f"{label:<{width}}  {'missing':>14}  {'missing':>14}")
            continue
        delta = (c - b) / b if b else (0.0 if c == b else float("inf"))
        mark = ""
        if direction != 0 and direction * delta < -tolerance:
            mark = "  <-- regression"
            regressions.append(label)
        print(f"{label:<{width}}  {b:>14.6g}  {c:>14.6g}  {delta:>+7.1%}{mark}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{tolerance:.1%}: {', '.join(regressions)}")
        return 1
    print("\nno regressions beyond tolerance")
    return 0


def compare_decode_stack(base, cand, tolerance):
    """Diff two bench_decode_stack reports. Bit-identity is a hard gate:
    within each report every tier's checksum must match (the bench computes
    them over fixed-seed inputs), and the scalar checksum must be identical
    between the runs — checksum drift means a kernel produced different bytes,
    which no tolerance excuses. Throughput rows are directional and tolerant."""
    failures = []
    for name, report in (("baseline", base), ("candidate", cand)):
        simd = report.get("simd", {})
        if not simd.get("bit_identical", False):
            failures.append(f"{name}: SIMD tiers disagree (bit_identical false)")
        # Re-derive identity from the tier checksums rather than trusting the
        # flag, so a hand-edited or partially regenerated report can't pass.
        sums = {t["tier"]: t.get("checksum") for t in simd.get("tiers", [])}
        scalar_sum = sums.get("scalar")
        for tier, checksum in sums.items():
            if scalar_sum is not None and checksum != scalar_sum:
                failures.append(
                    f"{name}: tier {tier} checksum {checksum} != scalar "
                    f"{scalar_sum}")
    base_tiers = {t["tier"]: t for t in base.get("simd", {}).get("tiers", [])}
    cand_tiers = {t["tier"]: t for t in cand.get("simd", {}).get("tiers", [])}
    b_sum = base_tiers.get("scalar", {}).get("checksum")
    c_sum = cand_tiers.get("scalar", {}).get("checksum")
    if b_sum is None or c_sum is None:
        failures.append("scalar tier checksum missing from a report")
    elif b_sum != c_sum:
        failures.append(f"scalar checksum changed: {b_sum} -> {c_sum} "
                        "(kernel outputs diverged from baseline)")
    for failure in failures:
        print(f"BIT-IDENTITY VIOLATION — {failure}")
    if failures:
        return 1

    rows = [
        (("sectors_per_second",), "full-stack sectors/s", +1),
        (("speedup_vs_1_thread",), "thread speedup", +1),
        (("simd", "simd_speedup"), "simd speedup (recovery)", +1),
    ]
    regressions = []
    table = []
    for path, label, direction in rows:
        b, c = lookup(base, path), lookup(cand, path)
        if b is None or c is None:
            continue
        table.append((label, b, c, direction))
    for tier in base_tiers:
        if tier not in cand_tiers:
            print(f"note: tier {tier} missing in candidate (different machine?)")
            continue
        for key, label, direction in [
            ("gf256_gbps", "gf256 GB/s", +1),
            ("recovery_sectors_per_second", "recovery sectors/s", +1),
            ("ldpc_decodes_per_second", "ldpc decodes/s", +1),
            ("demap_sectors_per_second", "demap sectors/s", +1),
            ("noise_sectors_per_second", "noise sectors/s", +1),
        ]:
            b = base_tiers[tier].get(key)
            c = cand_tiers[tier].get(key)
            if b is not None and c is not None:
                table.append((f"{tier}: {label}", b, c, direction))

    width = max((len(label) for label, *_ in table), default=20)
    print(f"{'metric':<{width}}  {'baseline':>14}  {'candidate':>14}  {'delta':>8}")
    for label, b, c, direction in table:
        delta = (c - b) / b if b else (0.0 if c == b else float("inf"))
        mark = ""
        if direction != 0 and direction * delta < -tolerance:
            mark = "  <-- regression"
            regressions.append(label)
        print(f"{label:<{width}}  {b:>14.6g}  {c:>14.6g}  {delta:>+7.1%}{mark}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{tolerance:.1%}: {', '.join(regressions)}")
        return 1
    print("\nbit-identity holds; no regressions beyond tolerance")
    return 0


def compare_traffic(base, cand, tolerance):
    """Diff two bench_traffic reports. Conservation is a hard gate: every
    fleet row must satisfy completed + failed == requests — re-derived from
    the raw counters so a hand-edited report can't pass — and the bench's own
    "conserves" flag must agree. Scaling rows are directional and tolerant;
    the deterministic control-plane counters are reported as drift notes."""
    failures = []
    for name, report in (("baseline", base), ("candidate", cand)):
        for fleet in report.get("fleets", []):
            shuttles = fleet.get("shuttles")
            completed = fleet.get("completed", 0)
            failed = fleet.get("failed", 0)
            requests = fleet.get("requests", -1)
            if completed + failed != requests:
                failures.append(
                    f"{name}: fleet {shuttles} lost requests "
                    f"({completed} completed + {failed} failed != {requests})")
            if not fleet.get("conserves", False):
                failures.append(
                    f"{name}: fleet {shuttles} reports conserves=false")
    for failure in failures:
        print(f"CONSERVATION VIOLATION — {failure}")
    if failures:
        return 1

    base_fleets = {f["shuttles"]: f for f in base.get("fleets", [])}
    cand_fleets = {f["shuttles"]: f for f in cand.get("fleets", [])}
    table = [(("events_per_second_ratio_largest_vs_8",),
              "events/s ratio largest vs 8", +1),
             (("p999_ratio_largest_vs_32",),
              "p99.9 ratio largest vs 32", -1)]
    regressions = []
    rows = []
    for path, label, direction in table:
        b, c = lookup(base, path), lookup(cand, path)
        if b is not None and c is not None:
            rows.append((label, b, c, direction))
    for shuttles in sorted(base_fleets):
        if shuttles not in cand_fleets:
            print(f"note: fleet {shuttles} missing in candidate")
            continue
        b_fleet, c_fleet = base_fleets[shuttles], cand_fleets[shuttles]
        for key, label, direction in [
            ("events_per_second", "events/s", +1),
            ("p999_completion_s", "p99.9 completion s", -1),
        ]:
            b, c = b_fleet.get(key), c_fleet.get(key)
            if b is not None and c is not None:
                rows.append((f"{shuttles} shuttles: {label}", b, c, direction))
        for key in ("work_steals", "congestion_stops", "congestion_detours",
                    "repartitions"):
            b, c = b_fleet.get(key), c_fleet.get(key)
            if b is not None and c is not None and b != c:
                print(f"note: fleet {shuttles} {key} drifted {b} -> {c} "
                      "(behavior change if seed and config are unchanged)")

    width = max((len(label) for label, *_ in rows), default=20)
    print(f"{'metric':<{width}}  {'baseline':>14}  {'candidate':>14}  {'delta':>8}")
    for label, b, c, direction in rows:
        delta = (c - b) / b if b else (0.0 if c == b else float("inf"))
        mark = ""
        if direction * delta < -tolerance:
            mark = "  <-- regression"
            regressions.append(label)
        print(f"{label:<{width}}  {b:>14.6g}  {c:>14.6g}  {delta:>+7.1%}{mark}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{tolerance:.1%}: {', '.join(regressions)}")
        return 1
    print("\nconservation holds; no regressions beyond tolerance")
    return 0


def compare_federation(base, cand, tolerance):
    """Diff two bench_federation reports. Hard gates: every cell conserves
    (requests, geo reads, and cross-site messages all balance), cells of the
    same federation size hash identically across thread counts within each
    report, and a federation size whose deterministic counters are unchanged
    between the reports must keep its hash (same trace + same config => same
    bytes). Then a directional table over per-size events/sec and the
    parallel speedup at the gate size."""
    failures = []
    for name, report in (("baseline", base), ("candidate", cand)):
        hashes = {}
        for cell in report.get("cells", []):
            libraries = cell.get("libraries")
            tag = f"{name}: {libraries} libraries x {cell.get('threads')} threads"
            completed = cell.get("requests_completed", 0)
            failed = cell.get("requests_failed", 0)
            if completed + failed != cell.get("requests_total", -1):
                failures.append(f"{tag} lost requests")
            if not cell.get("conserves", False):
                failures.append(f"{tag} reports conserves=false")
            if cell.get("messages_dropped", 0) != 0:
                failures.append(f"{tag} dropped cross-site messages")
            if cell.get("messages_in_flight", 0) != 0:
                failures.append(f"{tag} finished with messages in flight")
            if cell.get("geo_completed", 0) + cell.get("geo_failed", 0) != \
                    cell.get("geo_routed", -1):
                failures.append(f"{tag} lost geo-routed reads")
            hashes.setdefault(libraries, set()).add(cell.get("hash"))
        for libraries, digests in sorted(hashes.items()):
            if len(digests) != 1:
                failures.append(
                    f"{name}: {libraries}-library federation not byte-identical"
                    f" across thread counts: {sorted(digests)}")

    def by_size(report):
        picked = {}
        for cell in report.get("cells", []):
            picked.setdefault(cell.get("libraries"), cell)
        return picked

    base_sizes, cand_sizes = by_size(base), by_size(cand)
    # Cross-report determinism: same size, same deterministic counters =>
    # the simulation must have produced the same bytes.
    for libraries in sorted(set(base_sizes) & set(cand_sizes)):
        b_cell, c_cell = base_sizes[libraries], cand_sizes[libraries]
        counters = ("events_executed", "messages_sent", "requests_total",
                    "requests_completed", "geo_reads", "epochs")
        if all(b_cell.get(k) == c_cell.get(k) for k in counters) and \
                b_cell.get("hash") != c_cell.get("hash"):
            failures.append(
                f"{libraries}-library hash drifted {b_cell.get('hash')} -> "
                f"{c_cell.get('hash')} with identical counters "
                "(nondeterminism, not a workload change)")
    for failure in failures:
        print(f"FEDERATION GATE VIOLATION — {failure}")
    if failures:
        return 1

    rows = []
    regressions = []
    for path, label, direction in [(("speedup_at_gate",),
                                    "parallel speedup at gate size", +1)]:
        b, c = lookup(base, path), lookup(cand, path)
        if b is not None and c is not None:
            rows.append((label, b, c, direction))
    for libraries in sorted(base_sizes):
        if libraries not in cand_sizes:
            print(f"note: {libraries}-library cell missing in candidate")
            continue
        b_cell, c_cell = base_sizes[libraries], cand_sizes[libraries]
        for key, label, direction in [
            ("events_per_second", "events/s", +1),
            ("messages_sent", "messages sent", 0),
            ("geo_reads", "geo reads", 0),
        ]:
            b, c = b_cell.get(key), c_cell.get(key)
            if b is not None and c is not None:
                rows.append((f"{libraries} libraries: {label}", b, c, direction))

    width = max((len(label) for label, *_ in rows), default=20)
    print(f"{'metric':<{width}}  {'baseline':>14}  {'candidate':>14}  {'delta':>8}")
    for label, b, c, direction in rows:
        delta = (c - b) / b if b else (0.0 if c == b else float("inf"))
        mark = ""
        if direction != 0 and direction * delta < -tolerance:
            mark = "  <-- regression"
            regressions.append(label)
        print(f"{label:<{width}}  {b:>14.6g}  {c:>14.6g}  {delta:>+7.1%}{mark}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{tolerance:.1%}: {', '.join(regressions)}")
        return 1
    print("\nconservation and byte-identity hold; no regressions beyond "
          "tolerance")
    return 0


def compare_durability(base, cand, tolerance):
    """Diff two bench_durability reports. Hard gates: every twin cell's
    repair ledger conserves in both reports, and each report's xcheck pair
    (splitting vs Monte Carlo on the same fleet) has overlapping 95% CIs.
    Then a directional table over the MTTDL frontier cells and the twin
    sweep's loss counters."""
    failures = []
    for name, report in (("baseline", base), ("candidate", cand)):
        for cell in report.get("cells", []):
            if not cell.get("conserves", False):
                failures.append(
                    f"{name}: ledger leak at aging_mtbe={cell.get('aging_mtbe_s')}"
                    f" scrub={cell.get('scrub')} (detected != repaired +"
                    " unrecoverable)")
        mttdl = {c["label"]: c["estimate"] for c in report.get("mttdl", [])}
        split, mc = mttdl.get("xcheck_split"), mttdl.get("xcheck_mc")
        if split is None or mc is None:
            failures.append(f"{name}: MTTDL cross-check pair missing")
        else:
            lo_s, hi_s = split["p_loss_ci95"]
            lo_m, hi_m = mc["p_loss_ci95"]
            if not (lo_s <= hi_m and lo_m <= hi_s):
                failures.append(
                    f"{name}: splitting CI [{lo_s:.4f}, {hi_s:.4f}] does not "
                    f"overlap Monte Carlo CI [{lo_m:.4f}, {hi_m:.4f}]")
    for failure in failures:
        print(f"DURABILITY GATE VIOLATION — {failure}")
    if failures:
        return 1

    rows = []
    regressions = []
    base_mttdl = {c["label"]: c["estimate"] for c in base.get("mttdl", [])}
    cand_mttdl = {c["label"]: c["estimate"] for c in cand.get("mttdl", [])}
    for label in base_mttdl:
        if label not in cand_mttdl:
            print(f"note: MTTDL cell {label} missing in candidate")
            continue
        for key, metric, direction in [
            ("p_loss", "p_loss", -1),
            ("mttdl_years", "mttdl years", +1),
            ("loss_branches", "loss branches", 0),
        ]:
            b, c = base_mttdl[label].get(key), cand_mttdl[label].get(key)
            if b is not None and c is not None:
                rows.append((f"{label}: {metric}", b, c, direction))
    base_cells = {(c.get("aging_mtbe_s"), c.get("scrub")): c
                  for c in base.get("cells", [])}
    cand_cells = {(c.get("aging_mtbe_s"), c.get("scrub")): c
                  for c in cand.get("cells", [])}
    for cell_key in base_cells:
        if cell_key not in cand_cells:
            continue
        mtbe, scrub = cell_key
        tag = f"mtbe={mtbe:g} scrub={'on' if scrub else 'off'}"
        for key, metric, direction in [
            ("unrecoverable", "unrecoverable", -1),
            ("bytes_lost", "bytes lost", -1),
            ("detected", "detected", 0),
        ]:
            b = base_cells[cell_key].get(key)
            c = cand_cells[cell_key].get(key)
            if b is not None and c is not None:
                rows.append((f"{tag}: {metric}", b, c, direction))

    width = max((len(label) for label, *_ in rows), default=20)
    print(f"{'metric':<{width}}  {'baseline':>14}  {'candidate':>14}  {'delta':>8}")
    for label, b, c, direction in rows:
        delta = (c - b) / b if b else (0.0 if c == b else float("inf"))
        mark = ""
        if direction != 0 and direction * delta < -tolerance:
            mark = "  <-- regression"
            regressions.append(label)
        print(f"{label:<{width}}  {b:>14.6g}  {c:>14.6g}  {delta:>+7.1%}{mark}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{tolerance:.1%}: {', '.join(regressions)}")
        return 1
    print("\nledger conserves, estimator CIs overlap; no regressions beyond "
          "tolerance")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="allowed fractional regression (default 0.02)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.candidate) as f:
        cand = json.load(f)

    for bench, comparator in (("events", compare_events),
                              ("frontend", compare_frontend),
                              ("decode_stack", compare_decode_stack),
                              ("traffic", compare_traffic),
                              ("federation", compare_federation),
                              ("durability", compare_durability)):
        if base.get("bench") == bench or cand.get("bench") == bench:
            if base.get("bench") != cand.get("bench"):
                print(f"error: only one of the reports is a bench_{bench} report")
                return 2
            return comparator(base, cand, args.tolerance)

    base_cfg, cand_cfg = base.get("config", {}), cand.get("config", {})
    if base_cfg != cand_cfg:
        print("note: configs differ, deltas compare different experiments")
        for key in sorted(set(base_cfg) | set(cand_cfg)):
            if base_cfg.get(key) != cand_cfg.get(key):
                print(f"  {key}: {base_cfg.get(key)!r} -> {cand_cfg.get(key)!r}")

    tracked = list(TRACKED)
    for path, label, direction in OPTIONAL_TRACKED:
        if lookup(base, path) is not None and lookup(cand, path) is not None:
            tracked.append((path, label, direction))

    regressions = []
    width = max(len(label) for _, label, _ in tracked)
    print(f"{'metric':<{width}}  {'baseline':>14}  {'candidate':>14}  {'delta':>8}")
    for path, label, direction in tracked:
        b, c = lookup(base, path), lookup(cand, path)
        if b is None or c is None:
            print(f"{label:<{width}}  {'missing':>14}  {'missing':>14}")
            continue
        delta = (c - b) / b if b else (0.0 if c == b else float("inf"))
        mark = ""
        if direction != 0 and direction * delta < -args.tolerance:
            mark = "  <-- regression"
            regressions.append(label)
        print(f"{label:<{width}}  {b:>14.6g}  {c:>14.6g}  {delta:>+7.1%}{mark}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.tolerance:.1%}: {', '.join(regressions)}")
        return 1
    print("\nno regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
