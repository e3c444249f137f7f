#!/usr/bin/env python3
"""Build the wcdsnet benchmark from source and run one workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Every argument goes to the benchmark binary (see README.md). The Go build
cache, the binary and the traced run's spans all live under .bench_build/
at the root of the checkout; nothing is read or written outside it except
the Go toolchain itself. The build's output goes to stderr, so the last
line of stdout is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    return env


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod in %s: the benchmark builds wcdsnet from its source tree" % ROOT,
              file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                               stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print("run.py: cannot run the go toolchain: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
