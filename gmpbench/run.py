#!/usr/bin/env python3
"""Build and run the repository's benchmark from the root of a checkout.

    python3 gmpbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 gmpbench/run.py --write-manifest

The first form builds gmpbench.exe, gmp-node and gmp-cluster from source
with dune, then runs one benchmark run; its last line of output is the
result JSON. The second writes BENCHMARK.json from the benchmark's own list
of workloads and metrics. Everything is built and written inside the
checkout: dune's shared cache is disabled and live logs go to .gmpbench-out.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "gmpbench", "gmpbench.exe")
TARGETS = ["./gmpbench/gmpbench.exe", "./bin/gmp_node.exe", "./bin/gmp_cluster.exe"]
# A run must end within 180 s; leave room for the build check before it.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ["dune-project", "lib", os.path.join("bin", "gmp_cluster.ml")]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    # dune's progress goes to stderr so stdout carries only the result
    done = subprocess.run(
        ["dune", "build", "--root", ".", *TARGETS],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")


def main():
    args = sys.argv[1:]
    build()
    if args == ["--write-manifest"]:
        manifest = subprocess.run([os.path.join(ROOT, EXE), "--manifest"],
                                  cwd=ROOT, check=True, capture_output=True, text=True)
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            f.write(manifest.stdout)
        return 0
    # Own session, so a run that overstays can be stopped with everything
    # it started (gmp-cluster and its nodes).
    proc = subprocess.Popen([EXE, *args], cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
