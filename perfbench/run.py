#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go build keeps its cache, and the binary, under .bench_build/ at the
root, so the benchmark reads and writes nothing outside the checkout. The
arguments are passed to the benchmark unchanged; its last line of output
is the result JSON and its exit code is this script's. `--workload all`
runs every workload BENCHMARK.json lists, one after another, and exits
non-zero if any run did.
"""
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    names = [None]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    code = 0
    for name in names:
        if name is not None:
            args[args.index("--workload") + 1] = name
        code = max(code, subprocess.run([binary] + args, cwd=ROOT).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
