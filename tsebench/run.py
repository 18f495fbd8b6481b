#!/usr/bin/env python3
"""Build the TSE benchmark from source and run it.

Run from the root of a TSE source tree:

    python3 tsebench/run.py --workload evolve_deep --seed 1 --seconds 15 --trace 0

Every argument is passed to the benchmark binary (see tsebench.ml and
README.md). The build output goes to standard error, so the benchmark's
last line of standard output stays its JSON result. TSE_* and
DB_FULL_RECLASSIFY settings are removed from the benchmark's
environment, so every run measures the defaults.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "tsebench", "tsebench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "tsebench: run from the root of a TSE source tree "
            "(no dune-project and lib/ here)\n")
        return 2
    env = {k: v for k, v in os.environ.items()
           if not (k.startswith("TSE_") or k == "DB_FULL_RECLASSIFY")}
    # the build writes only into this tree, never into a shared cache
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./tsebench/tsebench.exe"],
        env=dict(env, DUNE_CACHE="disabled"), stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("tsebench: build failed\n")
        return 2
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
