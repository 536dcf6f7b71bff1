#!/usr/bin/env python3
"""Paired host-speed gate: hostbench at a base commit against HEAD.

    python3 .github/hostbench_gate.py BASE_REV

Builds hostbench at BASE_REV and at HEAD as committed, one after the
other in one git worktree (.bench_build/tree), then runs `--trace 0` on
each workload: RUNS[workload] = (pairs, seconds) gives its number of
same-seed pairs and the length of each run, alternating which side runs
first. Both sides run on the same host, so no recorded
baseline can go stale. Building both at one path keeps identical source
identical in the binary: cargo hashes a path crate's location into its
symbols, which moves code around.

Fails (exit 1) when any run has `correct` false, `failed` > 0 or
`attempted` < 2 (then no digests were compared), or when the head's median
of a LIMITS metric exceeds the base's median by more than its bound. For
each workload's `wall_ref` it also prints how many same-seed pairs the head
won and the base's quartiles, so a change can be read against the base's
own spread; these lines decide nothing.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# (same-seed pairs, seconds per run) for each workload. One kvs_peak
# repetition is a whole peak search, so an 8 s run holds only a few and
# its 5-pair median moved about 7 % between gates of identical commits,
# which failed about 1 gate in 10; it gets twice the pairs.
RUNS = {"kvs_sweeper": (5, 8), "kvs_peak": (10, 8)}
# Largest allowed rise of the head's median over the base's. peak_rss_mb
# uses BENCHMARK.json's bound; wall_ref is tighter than its 0.25.
LIMITS = {"wall_ref": 0.10, "peak_rss_mb": 0.05}
# Printed for the log only.
SHOWN = ["wall_ref", "sim_requests_per_ref", "sim_accesses_per_ref", "setup_s", "peak_rss_mb"]
TREE = Path(".bench_build/tree")


def git(*args, cwd="."):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def base_commit(rev):
    try:
        return git("rev-parse", "--verify", "--quiet", rev + "^{commit}")
    except subprocess.CalledProcessError:
        # A push that creates the branch has an all-zero `before`.
        print(f"base {rev!r} is not a commit here; gating against HEAD^")
        return git("rev-parse", "HEAD^")


def build(commit, side):
    """Builds hostbench at `commit` in TREE and returns a copy of it."""
    git("worktree", "prune")
    if not TREE.exists():
        git("worktree", "add", "--quiet", "--detach", str(TREE), commit)
    git("checkout", "--quiet", "--force", "--detach", commit, cwd=TREE)
    manifest = TREE / "hostbench" / "Cargo.toml"
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", str(manifest)],
        check=True,
    )
    binary = TREE.parent / f"hostbench-{side}"
    shutil.copy2(TREE / "hostbench" / "target" / "release" / "hostbench", binary)
    return binary


def run(binary, workload, seed):
    """The result object hostbench prints last, or None if there is none."""
    args = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(RUNS[workload][1]), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True).stdout
    try:
        return json.loads(out.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def problems(doc):
    if doc is None:
        return ["no result line"]
    found = []
    if not doc["correct"]:
        found.append("result is not correct")
    if doc["failed"] > 0:
        found.append(f"{doc['failed']} of {doc['attempted']} repetitions failed")
    if doc["attempted"] < 2:
        found.append(f"only {doc['attempted']} repetition(s) ran, so no digests were compared")
    return found


def value(doc, name):
    """A metric of one run; None if the run gave no number."""
    return doc["metrics"][name]["value"] if doc and name in doc["metrics"] else None


def shown(doc):
    return ", ".join(f"{name} {value(doc, name)}" for name in SHOWN)


def spread(workload, values):
    """How many pairs the head won on `wall_ref` (lower is better), and the
    base's quartiles."""
    won = sum(head < base for base, head in zip(values["base"], values["head"]))
    q1, _, q3 = statistics.quantiles(values["base"], n=4)
    return (f"{workload} wall_ref: head won {won} of {len(values['head'])} pairs; "
            f"base quartiles {q1:.4g}-{q3:.4g}")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.stdout.reconfigure(line_buffering=True)
    start = time.monotonic()
    os.chdir(git("rev-parse", "--show-toplevel"))
    commits = {"base": base_commit(sys.argv[1]), "head": git("rev-parse", "HEAD")}
    print(f"base {commits['base']}, head {commits['head']}")
    binaries = {side: build(commit, side) for side, commit in commits.items()}

    failures = []
    for workload, (pairs, _) in RUNS.items():
        docs = {"base": [], "head": []}
        for pair in range(pairs):
            seed = pair + 1
            order = ["base", "head"] if pair % 2 == 0 else ["head", "base"]
            for side in order:
                doc = run(binaries[side], workload, seed)
                docs[side].append(doc)
                print(f"{workload} seed {seed} {side}: {shown(doc)}")
                failures += [f"{workload} seed {seed} {side}: {p}" for p in problems(doc)]
        for name, limit in LIMITS.items():
            values = {side: [value(d, name) for d in runs] for side, runs in docs.items()}
            if None in values["base"] + values["head"]:
                failures.append(f"{workload} {name}: missing from a run")
                continue
            medians = {side: statistics.median(v) for side, v in values.items()}
            rise = medians["head"] / medians["base"] - 1
            verdict = "ok" if rise <= limit else "FAIL"
            line = (f"{workload} {name}: median base {medians['base']:.4g}, "
                    f"head {medians['head']:.4g} ({rise:+.1%}, limit {limit:+.0%}) {verdict}")
            print(line)
            if rise > limit:
                failures.append(line)
            if name == "wall_ref":
                print(spread(workload, values))

    print(f"gate wall time {time.monotonic() - start:.0f} s")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
