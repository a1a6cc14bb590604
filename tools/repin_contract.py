#!/usr/bin/env python3
"""Recompute the behavioural contract and check or rewrite CONTRACT.json.

The contract is a set of deterministic digests of what the simulator prints:
fig9's table, the checkpoint round-trip report, the per-size federation state
hashes and the data-plane decode checksums. A change meant to keep the model's
behaviour leaves every digest alone; a change meant to move it re-pins the
file, and the moved digests show up in review.

    tools/repin_contract.py [--build-dir=build]                  # rewrite
    tools/repin_contract.py --check [--build-dir=build] [NAME ...]

--check recomputes the named entries (default all) and exits 1 if any moved.
Both modes print each moved digest, old -> new.
"""
import argparse
import hashlib
import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
CONTRACT = REPO / "CONTRACT.json"


def run(build_dir, *argv):
    return subprocess.run([str(build_dir / argv[0]), *argv[1:]], check=True,
                          stdout=subprocess.PIPE).stdout


def only(values, what):
    distinct = sorted(set(values))
    if len(distinct) != 1:
        raise SystemExit(f"{what} disagree within one run: {distinct}")
    return distinct[0]


def federation_hashes(build_dir):
    cells = json.loads(run(build_dir, "bench/bench_federation", "--json",
                           "--skip-speedup-gate"))["cells"]
    sizes = sorted({c["libraries"] for c in cells})
    return [only([c["hash"] for c in cells if c["libraries"] == size],
                 f"{size}-library hashes") for size in sizes]


def decode_checksums(build_dir):
    report = json.loads(run(build_dir, "bench/bench_decode_stack", "--json",
                            "--threads=4"))
    return {"payload": only([r["payload_checksum"] for r in report["runs"]],
                            "payload checksums"),
            "tier": only([t["checksum"] for t in report["simd"]["tiers"]],
                         "tier checksums")}


ENTRIES = {
    "fig9_stdout_md5": lambda b: hashlib.md5(
        run(b, "bench/bench_fig9_full_library")).hexdigest(),
    "checkpoint_report_md5": lambda b: hashlib.md5(run(
        b, "tools/silica_sim", "--profile=iops", "--platters=300", "--seed=7",
        "--checkpoint-at=900", "--json")).hexdigest(),
    "federation_hashes": federation_hashes,
    "decode_checksums": decode_checksums,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=str(REPO / "build"))
    parser.add_argument("--check", action="store_true")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"entries: {', '.join(ENTRIES)}")
    args = parser.parse_args()
    if set(args.names) - set(ENTRIES):
        parser.error(f"unknown entries {sorted(set(args.names) - set(ENTRIES))}")
    names = args.names or list(ENTRIES)
    pinned = json.loads(CONTRACT.read_text()) if CONTRACT.exists() else {}
    current = dict(pinned)
    moved = []
    for name in names:
        current[name] = ENTRIES[name](pathlib.Path(args.build_dir))
        if pinned.get(name) != current[name]:
            moved.append(name)
            print(f"{name}: {json.dumps(pinned.get(name))} -> "
                  f"{json.dumps(current[name])}")
    if args.check:
        print(f"contract {'broken' if moved else 'holds'}: {len(moved)} of "
              f"{len(names)} digests moved")
        return 1 if moved else 0
    CONTRACT.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    print(f"CONTRACT.json rewritten: {len(moved)} digests moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
