#!/usr/bin/env python3
"""The DUFS benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/dufsperf.exe (and the
repository libraries it links) from source with dune inside the
checkout, then runs it with the same arguments, pinned to one CPU: a
process the scheduler moves between CPUs loses its caches at each move,
which made the same seed's run_s differ by up to 20% between processes.
Its last output line is the benchmark's JSON result. Exits non-zero when
the build fails, a check fails, or the arguments are wrong.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "dufsperf.exe")


def main():
    env = dict(os.environ)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/dufsperf.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
