#!/usr/bin/env python3
"""Build and run the layer-by-layer benchmark.

    python3 layerbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 layerbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
repository's libraries and the benchmark into .bench_build/layerbench
(a few minutes); later runs only confirm the build is current. Build output
goes to stderr, so the benchmark's result object stays the last line of
stdout. Work files and traced-run Chrome traces go to .bench_out/.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "layerbench")
OUT = os.path.join(ROOT, ".bench_out")

_child = None


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.terminate()
        try:
            _child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            _child.kill()
            _child.wait()
    sys.exit(128 + signum)


def run(cmd, **kwargs):
    """Run cmd to completion; a signal to this script stops it first."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    try:
        return _child.wait()
    finally:
        _child = None


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        rc = run(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=sys.stderr)
        if rc != 0:
            return rc
    return run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
               stdout=sys.stderr)


def main(argv):
    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("layerbench: no src/CMakeLists.txt beside layerbench/; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    selftest = argv == ["--selftest"]
    target = "layerbench_selftest" if selftest else "layerbench"
    rc = build(target)
    if rc != 0:
        print("layerbench: build failed", file=sys.stderr)
        return rc
    binary = os.path.join(BUILD, target)
    if selftest:
        return run([binary, ROOT])
    return run([binary] + argv + ["--repo", ROOT, "--out", OUT])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
