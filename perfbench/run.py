#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selfcheck          # the benchmark's own tests
  python3 perfbench/run.py --write-reference    # regenerate reference.tsv

The benchmark is built from source into $CARGO_TARGET_DIR (default
.bench_build) as a CMake package of its own; run outputs (rows, Chrome
traces) go to .bench_out. The last line of a workload run's standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join("perfbench", "reference.tsv")
OUT = ".bench_out"
WORKLOADS = ("sweep_cold", "sim_grid", "serve_mixed")


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(target):
    """Configures (once per checkout) and builds `target`; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the repository sources (src/) are missing; "
                 "run from the root of a full checkout")
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or os.path.realpath(home[0].split("=", 1)[1].strip()) \
                != os.path.realpath(HERE):
            shutil.rmtree(bdir)  # configured for another checkout
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", bdir, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, target)


def host_filtered(path):
    with open(path) as f:
        return [l for l in f if '"host_' not in l]


def selfcheck():
    """Unit tests, then two seeds per workload must agree byte for byte
    (apart from host_ fields) on the rows they checked."""
    ok = subprocess.run([build("ledger_test")]).returncode == 0
    ledger = build("spt_ledger")
    for workload in WORKLOADS:
        rows = []
        for seed in ("1", "2"):
            out = os.path.join(OUT, "selfcheck-" + seed)
            run = subprocess.run(
                [ledger, "--workload", workload, "--seed", seed,
                 "--seconds", "1", "--trace", "0", "--reference", REFERENCE,
                 "--out", out], stdout=subprocess.PIPE, text=True)
            last = run.stdout.strip().splitlines()[-1:] or [""]
            if run.returncode != 0 or '"correct":true' not in last[0]:
                print("FAIL %s seed %s: %s" % (workload, seed, last[0]))
                ok = False
            rows.append(host_filtered(
                os.path.join(out, workload + "-rows.json")))
        same = rows[0] == rows[1]
        print("%s %s: seeds 1 and 2 give identical rows" %
              ("PASS" if same else "FAIL", workload))
        ok = ok and same
    print("selfcheck", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    a = p.parse_args()
    os.chdir(ROOT)
    if a.selfcheck:
        return selfcheck()
    ledger = build("spt_ledger")
    if a.write_reference:
        return subprocess.run([ledger, "--write-reference", REFERENCE]).returncode
    if a.workload is None:
        p.error("--workload is required")
    sys.stdout.flush()
    return subprocess.run(
        [ledger, "--workload", a.workload, "--seed", a.seed,
         "--seconds", a.seconds, "--trace", a.trace,
         "--reference", REFERENCE, "--out", OUT]).returncode


if __name__ == "__main__":
    sys.exit(main())
