#!/usr/bin/env python3
"""Repository benchmark: build, set up, run one workload, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig10_suite --seed 1 --seconds 40 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the
provenance record, also written with every metric and span to
.bench_results/. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BUILD_TYPE = "RelWithDebInfo"
# Cold set-ups per end-to-end run (setup_s is their median): at least
# SETUP_MIN, more while they have taken less than SETUP_SECONDS, so a
# one-scene set-up of a tenth of a second is still a median of many.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 3.0


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, **kw):
    """Run cmd to completion; its stdout goes to our stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        r = run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                       f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        if r.returncode != 0:
            return None
    r = run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    exe = os.path.join(BUILD_DIR, "perfbench")
    return exe if r.returncode == 0 and os.path.exists(exe) else None


def child(exe, args, out):
    r = run_quiet([exe] + args + ["--out", out])
    if r.returncode != 0:
        raise RuntimeError(f"perfbench {args[0]} exited with {r.returncode}")
    with open(out) as f:
        return json.load(f)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git(*args):
    try:
        r = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                           text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, build_info):
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {
        "commit": commit or "unknown",
        "dirty": (status != "") if status is not None else "unknown",
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": f'{cmake_cache("CMAKE_CXX_COMPILER")} ({build_info.get("compiler", "?")})',
        "threads": build_info.get("threads"),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--plant-mismatch", action="store_true",
                    help="self-test: corrupt the first golden comparison")
    ap.add_argument("--record-goldens", metavar="FILE",
                    help="write observed fingerprints instead of checking")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    exe = build()
    if exe is None:
        log("build failed")
        return 1

    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        common = ["--workload", args.workload]
        trace = ["--trace", str(args.trace)]
        # Set-up: cold bundle builds, each in a fresh process and cache.
        setups = []
        t0 = time.monotonic()
        while not setups or (not args.trace and len(setups) < SETUP_MAX and (
                len(setups) < SETUP_MIN or time.monotonic() - t0 < SETUP_SECONDS)):
            i = len(setups)
            cache = os.path.join(work, f"cache{i}")
            if i:
                shutil.rmtree(os.path.join(work, f"cache{i - 1}"))
            setups.append(child(exe, ["setup"] + common + trace + ["--cache", cache],
                                os.path.join(work, f"setup{i}.json")))
        run_args = ["run"] + common + trace + [
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--cache", cache,
            "--goldens", os.path.join(HERE, "goldens.txt")]
        if args.plant_mismatch:
            run_args.append("--plant-mismatch")
        if args.record_goldens:
            run_args += ["--record-goldens", os.path.abspath(args.record_goldens)]
        res = child(exe, run_args, os.path.join(work, "run.json"))
    except (RuntimeError, OSError, ValueError) as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(res["metrics"])
    if args.trace:
        # Layer self times add up across the set-up and run processes.
        for name, m in setups[0]["metrics"].items():
            if name in metrics and name.endswith(".self_s"):
                metrics[name]["value"] += m["value"]
            else:
                metrics.setdefault(name, m)
    else:
        metrics["setup_s"] = {
            "value": statistics.median(s["metrics"]["setup_s"]["value"]
                                       for s in setups),
            "unit": "s"}

    bad = [m["name"] for m in wanted if m["name"] not in metrics
           or metrics[m["name"]]["unit"] != m["unit"]]
    if bad:
        log(f"metrics missing or with another unit than BENCHMARK.json: {bad}")
        return 1
    out = {m["name"]: metrics[m["name"]] for m in wanted}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": out}

    prov = provenance(args, res.get("build", {}))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = os.path.join(
        RESULTS_DIR,
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(record, "w") as f:
        json.dump({"provenance": prov, "result": result, "all_metrics": metrics,
                   "pass_walls": res.get("pass_walls", []),
                   "spans": {"setup": setups[-1].get("spans", []),
                             "run": res.get("spans", [])}}, f)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
