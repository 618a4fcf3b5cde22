#!/usr/bin/env python3
"""Build the perfbench command from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 24 --trace 0

Every file the build and the run write goes under .bench_build/ in the
current directory: the Go build cache, the binary, the artifact store
and the trace files. The Go module in perfbench/ builds against the
repository one directory up, so outside a repository checkout the build
fails and the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "bin", "perfbench")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "-dir", os.path.join(out, "perfbench")] + sys.argv[1:]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
