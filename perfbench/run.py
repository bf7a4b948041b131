#!/usr/bin/env python3
"""Build the perfbench Go program from this checkout and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build, the Go tool's caches and configuration, and a traced run's span
file and CPU profiles all go under .bench_build/ at the root of the
checkout. A traced run folds its profiles with `go tool pprof`. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. The exit code is the build's when the
build fails, else the program's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        PPROF_TMPDIR=tmp,
        PPROF_BINARY_PATH=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode)
    out = os.path.join(build, "perfbench-traces")
    ran = subprocess.run([binary, "--out", out] + sys.argv[1:], cwd=ROOT, env=env)
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
