#!/usr/bin/env python3
"""Build and run the SOFT time-to-verdict benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark executable (perfbench/soft_perf.ml) is built from source
with dune, under the perfbench profile that alone enables it, into
.bench_build/, then replaces this process; its last line
of standard output is the result.  Build output goes to standard error.
Without the repository's sources the build fails and this script exits
non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/soft_perf.exe"
BUILD_TIMEOUT_S = 840


def main(argv):
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "dune-project")) and os.path.isdir(os.path.join(root, "lib"))):
        print("run.py: run from the repository root (dune-project and lib/ not found)", file=sys.stderr)
        return 2
    # Keep every file the build and the run write inside the checkout:
    # no shared dune cache, and temporary files under the build directory.
    tmp = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "perfbench",
             "--display", "quiet", TARGET],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "soft_perf.exe")
    sys.stdout.flush()
    os.execve(exe, [exe] + argv + [
        "--work-dir", os.path.join(BUILD_DIR, "perfbench-work"),
        "--trace-dir", os.path.join(BUILD_DIR, "perfbench-traces"),
    ], env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
