#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is the OCaml program perfbench/main.ml, built with dune
against the repository's libraries.  Build output goes to stderr, so the
last line of standard output is the benchmark's JSON result.  The exit
code is the benchmark's, or dune's when the build fails.
"""

import json
import os
import shutil
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    dune = shutil.which("dune")
    dune_cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune_cmd + ["build", "--root", root, "./perfbench/main.exe"],
        cwd=root, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    run = subprocess.run([exe] + sys.argv[1:], cwd=root, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0 or "--trace" not in sys.argv:
        return run.returncode
    return check_metrics(root, run.stdout, sys.argv[sys.argv.index("--trace") + 1])


def check_metrics(root, stdout, trace):
    """The result must name exactly the metrics BENCHMARK.json declares
    for the mode, with the declared units."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    lines = stdout.strip().splitlines()
    got = json.loads(lines[-1])["metrics"] if lines else {}
    units = {name: m["unit"] for name, m in got.items()}
    if units != expected:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s, "
              "unit mismatch %s" % (
                  sorted(set(expected) - set(units)), sorted(set(units) - set(expected)),
                  sorted(n for n in units if n in expected and units[n] != expected[n])),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
