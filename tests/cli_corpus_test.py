#!/usr/bin/env python3
"""Command-line contract of silica_sim, silica_trace and the bench binaries.

    cli_corpus_test.py --build-dir=build corpus   # every documented line parses
    cli_corpus_test.py --build-dir=build bad      # malformed lines exit 2
    cli_corpus_test.py --build-dir=build config   # rejected configs exit 2

`corpus` collects every invocation quoted in README.md, EXPERIMENTS.md,
DESIGN.md, tools/check.sh and the verify notes (*/skills/verify/SKILL.md; fenced blocks,
inline code spans and shell lines, with backslash continuations joined) and
re-runs each with --help appended: the binary checks the whole line against
its flag table before it prints the table, so nothing is simulated. `bad`
feeds malformed lines that must exit 2 and name the offending flag on stderr;
`config` feeds well-formed lines whose config a library validator rejects.
"""
import argparse
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = ["README.md", "EXPERIMENTS.md", "DESIGN.md",
        *(str(p.relative_to(REPO)) for p in REPO.glob("*/skills/verify/SKILL.md"))]
SCRIPTS = ["tools/check.sh"]
COMMAND = re.compile(
    r"(?:^|[\s(`])(?:[\w./-]*/)?(silica_sim|silica_trace|bench_[a-z0-9_]+)"
    r"((?:[ \t]+--[^\s|>;&`]*)+)")

# (argv, text stderr must contain): each must exit 2 before running anything.
BAD = [
    (["tools/silica_sim", "--profile=iops", "--platers=300", "--seed=abc",
      "--json"], "--platers"),
    (["tools/silica_sim", "--profile=iops", "--seed=abc"], "--seed"),
    (["tools/silica_sim", "--profile=iops", "--platters", "300", "--json"],
     "--platters"),
    (["tools/silica_sim", "--profile=bogus", "--policy=silica"], "--profile"),
    (["tools/silica_sim", "--policy=nope"], "--policy"),
    (["tools/silica_sim", "--federation=2", "--scrub"], "--scrub"),
    (["tools/silica_sim", "--federation=2", "--fault-shuttle-mtbf=100"],
     "--fault-shuttle-mtbf"),
    (["tools/silica_sim", "--mttdl=split", "--platters=300"], "--platters"),
    (["tools/silica_sim", "--scrub-interval=60"], "--scrub-interval"),
    (["tools/silica_sim", "--json=yes"], "--json"),
    (["tools/silica_sim", "--seed=1", "--seed=2"], "--seed"),
    (["tools/silica_sim", "--shuttles=99999999999"], "--shuttles"),
    (["tools/silica_sim", "trace.csv"], "trace.csv"),
    (["tools/silica_trace", "--profile=iops", "stray"], "stray"),
    (["bench/bench_events", "--ops=abc"], "--ops"),
    (["bench/bench_fig9_full_library", "--sweep-threads=abc"],
     "--sweep-threads"),
    (["bench/bench_fig2_ingress", "stray"], "stray"),
    (["bench/bench_federation", "--libraries=1,x"], "--libraries"),
    (["bench/bench_dataplane", "stray"], "stray"),
]

# Well-formed lines whose config a validator rejects; stderr names the field.
CONFIG = [
    (["tools/silica_sim", "--platters=300", "--shuttles=0"], "num_shuttles"),
    (["tools/silica_sim", "--platters=300", "--scrub", "--scrub-interval=0"],
     "scrub.platter_interval_s"),
    (["tools/silica_sim", "--federation=2", "--platters=300",
      "--replication=3"], "replication"),
    (["tools/silica_sim", "--mttdl=split", "--set-n=4", "--set-k=4"],
     "n > k"),
]


def run(build_dir, argv, timeout=60):
    return subprocess.run([str(build_dir / argv[0]), *argv[1:]],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)


def join_continuations(text):
    return re.sub(r"\\\n\s*", " ", text)


def documented_lines():
    """(source, command text) for every quoted invocation that has flags."""
    chunks = []
    for name in DOCS:
        text = (REPO / name).read_text()
        parts = re.split(r"^```[^\n]*\n", text, flags=re.M)
        for i, part in enumerate(parts):
            if i % 2 == 1:  # inside a fenced block
                chunks += [(name, l) for l in
                           join_continuations(part).splitlines()]
            else:
                for para in re.split(r"\n\s*\n", part):
                    chunks += [(name, span) for span in
                               re.findall(r"`([^`]+)`", para.replace("\n", " "))]
    for name in SCRIPTS:
        text = join_continuations((REPO / name).read_text())
        chunks += [(name, l) for l in text.splitlines()]
    for source, chunk in chunks:
        for match in COMMAND.finditer(chunk):
            yield source, match.group(1), match.group(2).split()


def binary_path(build_dir, binary):
    for sub in ("tools", "bench"):
        if (build_dir / sub / binary).exists():
            return f"{sub}/{binary}"
    return None


def check_corpus(build_dir):
    failures, seen = [], 0
    for source, binary, args in documented_lines():
        args = [a.replace("$(nproc)", "4") for a in args]
        path = binary_path(build_dir, binary)
        line = " ".join([binary, *args])
        if path is None:
            failures.append(f"{source}: {line}: no such binary")
            continue
        seen += 1
        result = run(build_dir, [path, *args, "--help"])
        if result.returncode != 0:
            failures.append(f"{source}: {line}: exit {result.returncode}: "
                            f"{result.stderr.strip()}")
    print(f"{seen} documented command lines checked")
    return failures


def check_rejected(build_dir, cases):
    failures = []
    for argv, needle in cases:
        result = run(build_dir, argv)
        line = " ".join(argv)
        if result.returncode != 2 or needle not in result.stderr:
            failures.append(f"{line}: exit {result.returncode}, stderr "
                            f"{result.stderr.strip()!r} (want 2 and {needle!r})")
        elif result.stdout:
            failures.append(f"{line}: printed to stdout before failing")
    print(f"{len(cases)} rejected lines checked")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=str(REPO / "build"))
    parser.add_argument("suite", choices=["corpus", "bad", "config"])
    args = parser.parse_args()
    build_dir = pathlib.Path(args.build_dir)
    if args.suite == "corpus":
        failures = check_corpus(build_dir)
    else:
        failures = check_rejected(build_dir,
                                  BAD if args.suite == "bad" else CONFIG)
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
