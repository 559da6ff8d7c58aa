#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N]

The first form builds perfbench/main.exe with dune and hands it the
arguments; its last line of output is the result JSON.  The second
checks the benchmark itself (see README.md).  Both must run from a
checkout of the repository: without the library sources the build
fails and the script exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["grid_signoff", "mesh_signoff", "ladder_signoff", "eco_serve"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", os.path.join("lib", "sta", "sta.mli")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(need + " is missing: run from a checkout of the repository")
    dune = shutil.which("dune") or fail("dune not found on PATH")
    built = subprocess.run([dune, "build", "--root", ROOT, "./perfbench/main.exe"],
                           cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def counts(workload, seed):
    out = subprocess.run([EXE, "--workload", workload, "--seed", str(seed), "--counts"],
                         cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        fail("counts run failed for %s seed %d:\n%s" % (workload, seed, out.stderr), 1)
    return json.loads(out.stdout.strip().splitlines()[-1])


def selftest(seed):
    """Same seed in two processes: identical digests and counters.  A
    second seed: a different digest, the same workload character.  Every
    deck parses back to a design with the in-memory design's digest."""
    other = seed + 1
    # per workload: (counter, lowest value, highest value) on any seed
    character = {
        "grid_signoff": ("cache.hit_ratio", 0.15, 1.0),
        "mesh_signoff": ("cache.hit_ratio", 0.0, 0.05),
        "ladder_signoff": ("reduce.node_ratio", 0.5, 1.0),
        "eco_serve": ("session.dirty_per_retime", 1.0, 1e9),
    }
    problems = []
    for w in WORKLOADS:
        a, b, c = counts(w, seed), counts(w, seed), counts(w, other)
        if a != b:
            problems.append("%s: seed %d differs between two processes" % (w, seed))
        if a["digest"] == c["digest"]:
            problems.append("%s: seeds %d and %d give the same digest" % (w, seed, other))
        for run in (a, c):
            if not run["roundtrip"]:
                problems.append("%s seed %d: deck does not round-trip" % (w, run["seed"]))
            name, lo, hi = character[w]
            v = run["counts"][name]["value"]
            if not lo <= v <= hi:
                problems.append("%s seed %d: %s = %g outside [%g, %g]" % (w, run["seed"], name, v, lo, hi))
        print("%-15s seed %d %s  seed %d %s  %s" % (
            w, seed, a["digest"][:12], other, c["digest"][:12],
            " ".join("%s=%.6g" % (k, v["value"]) for k, v in a["counts"].items())))
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    sys.exit(1 if problems else 0)


def main():
    args = sys.argv[1:]
    build()
    if "--selftest" in args:
        seed = int(args[args.index("--seed") + 1]) if "--seed" in args else 1
        selftest(seed)
    os.chdir(ROOT)
    os.execv(EXE, [EXE] + args)


if __name__ == "__main__":
    main()
