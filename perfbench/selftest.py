#!/usr/bin/env python3
"""Self-test of the repository benchmark (takes a few minutes).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names appears in run.py's result
line with its unit (end-to-end metrics on every workload, per-layer
metrics on a traced run), that a seed run reports zero failed
operations, and that a planted golden mismatch counts as exactly one
failed operation.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Runnable by hand but not listed in BENCHMARK.json (see README.md).
UNLISTED_WORKLOADS = ["crnvl_hires"]


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           *extra]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def expect(cond, what, failures):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def check_metrics(res, wanted, label, failures):
    expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
           f"{label}: result keys", failures)
    got = res["metrics"]
    for m in wanted:
        v = got.get(m["name"])
        expect(v is not None and v.get("unit") == m["unit"]
               and isinstance(v.get("value"), (int, float)),
               f"{label}: {m['name']} [{m['unit']}]", failures)
    expect(len(got) == len(wanted), f"{label}: no extra metrics", failures)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for name in [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS:
        res = bench(name, 0)
        check_metrics(res, spec["end_to_end"], name, failures)
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"{name}: zero failed of {res['attempted']}", failures)

    first = spec["workloads"][0]["name"]
    res = bench(first, 1)
    check_metrics(res, spec["per_layer"], f"{first} traced", failures)
    expect(res["failed"] == 0, f"{first} traced: zero failed", failures)

    res = bench(first, 0, "--plant-mismatch")
    expect(res["failed"] == 1 and not res["correct"],
           f"planted golden mismatch counted once (failed={res['failed']})",
           failures)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
