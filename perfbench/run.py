#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  The benchmark is built from
source with dune (release profile, shared cache off, so every build
file stays inside the checkout), then run with the same arguments.
Build output goes to stderr; the last line of stdout is the JSON
result.  Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("perfbench: no dune-project at %s; nothing to build" % root, file=sys.stderr)
        return 1
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--profile", "release",
         "./perfbench/perfbench.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    sys.stdout.flush()
    os.chdir(root)
    # replace this process: nothing is left running when the benchmark ends
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
