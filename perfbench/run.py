#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository.  It builds
perfbench/perfbench.exe with dune (the first build compiles the
libraries it links), runs it with ELK_JOBS=1 and no other ELK_*
variable (they switch on the on-disk plan store, simulator recorders,
lint gates and logging, which would change what is measured), and
passes its standard output through; the last line is the JSON result.  It exits with a
non-zero code, without printing a result, when the build fails, the
benchmark fails or its last line is not a well-formed result.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune():
    path = shutil.which("dune")
    if path:
        return [path]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found on PATH")


def run(cmd, timeout, **kw):
    try:
        return subprocess.run(cmd, timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        die("timed out after %d s: %s" % (timeout, " ".join(cmd)))


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            die("run from the repository root (%s is missing)" % needed)
    build = run(
        dune() + ["build", "--root", ".", "--cache=disabled", "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        die("build failed")
    env = {k: v for k, v in os.environ.items() if not k.startswith("ELK_")}
    env["ELK_JOBS"] = "1"
    bench = run(
        [EXE] + sys.argv[1:], RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True, env=env
    )
    lines = bench.stdout.rstrip("\n").split("\n")
    if bench.returncode != 0:
        sys.stderr.write(bench.stdout)
        die("benchmark exited with code %d" % bench.returncode)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(bench.stdout)
        die("the last output line is not a result")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
