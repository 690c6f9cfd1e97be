#!/usr/bin/env python3
"""Build perfbench from this checkout and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

The program is built into the build directory ($CARGO_TARGET_DIR when set,
else .bench_build) with a Go build cache of its own there, so building and
running write nothing outside the checkout. Spans, per-run result files and
the runs' temporary stores go to the same directory. All arguments are passed
through to the program; see perfbench/main.go.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        # The go command keeps telemetry and its env file under the user
        # config directory; point that into the build directory too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-buildvcs=false",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--out", build, "--commit", commit()]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
