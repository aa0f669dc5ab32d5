#!/usr/bin/env python3
"""Build and run the Fig. 3 benchmark from the root of a repository checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from source with dune into .bench_build, runs
it, and relays its output. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; it is printed only when the
program ran to the end and its result parses. Any failure exits non-zero
without printing a result. See perfbench/README.md.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run me from the root of a repository checkout "
                    "(no dune-project or lib/ here)", 2)
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune is not on PATH", 2)
    # The shared dune cache lives outside the checkout; keep every write
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if build.returncode != 0:
        return fail("build failed")
    try:
        run = subprocess.run([EXE] + argv,
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run timed out")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return fail("benchmark exited with %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        return fail("last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return fail("result has the wrong keys")
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
