#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload bulk [--seed 1] [--seconds 20] [--trace 0|1]
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ as a Release package into
.bench_build/perfbench (the first run compiles the wfsort sources from src/),
then runs the wfbench program with the given arguments. Its last
line of standard output is the result JSON. A traced run writes its Chrome
trace to .bench_build/perfbench/traces/<workload>-seed<seed>.json unless
--trace-out names another file.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("command failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "sort.h")):
        fail("no wfsort sources under src/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs])
    return os.path.join(BUILD, "wfbench")


def main(argv):
    binary = build()
    args = list(argv)
    if "--trace-out" in args[:-1]:
        i = args.index("--trace-out") + 1
        args[i] = os.path.abspath(args[i])
    elif "--self-test" not in args:
        opts = dict(zip(args[::2], args[1::2]))
        if opts.get("--trace") == "1":
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            name = "%s-seed%s.json" % (opts.get("--workload", "none"),
                                       opts.get("--seed", "1"))
            args += ["--trace-out", os.path.join(traces, name)]
    # wfbench reads no files; running it in the build directory keeps the
    # self-test's temporary trace file out of the checkout.
    return subprocess.run([binary] + args, cwd=BUILD).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
