#!/usr/bin/env python3
"""Hermetic runner for the end-to-end benchmark (bench/e2e/README.md).

  python3 bench/e2e/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
  python3 bench/e2e/run.py --smoke [--binary PATH]

Builds bench/e2e as a standalone Release CMake project in
.bench_build/e2e, runs e2e_bench with every TREEMEM_* variable unset, and
writes the full results (every metric with its sample count, plus nproc,
pool size, compiler, build type and git commit) to
.bench_build/e2e/results/. The last stdout line is the result of record:
the metrics BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1).

--smoke runs every workload at toy size in both modes and checks that each
metric BENCHMARK.json names is present with its unit, that no operation
failed and that each Chrome trace parses.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 170


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("TREEMEM_")}


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = [["cmake", "--build", str(BUILD), "-j4", "--target", "e2e_bench"]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\nrun.py: build failed\n")
                sys.exit(1)
    return BUILD / "e2e_bench"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_bench(binary, workload, seed, seconds, trace, out_dir, smoke=False):
    """Runs one benchmark process; returns its parsed last line, or exits
    with the process's code when it crashed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out_dir)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=clean_env(), timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"run.py: e2e_bench exited {proc.returncode}\n")
        sys.exit(proc.returncode or 1)
    if not smoke:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def listed_metrics(bench, trace):
    return bench["per_layer" if trace else "end_to_end"]


def record_line(result, listed):
    """The result of record: exactly the listed metrics, with their units."""
    metrics = {}
    for spec in listed:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            raise KeyError(f"metric {spec['name']} [{spec['unit']}] "
                           f"missing or with another unit: {got}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def smoke(bench, binary):
    out_dir = Path(binary).resolve().parent / "smoke"
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = run_bench(binary, workload, 1, 1, trace, out_dir,
                               smoke=True)
            where = f"{workload} --trace {trace}"
            try:
                record_line(result, listed_metrics(bench, trace))
            except KeyError as e:
                problems.append(f"{where}: {e}")
            if result["failed"] != 0:
                problems.append(f"{where}: error rate {result['failed']} / "
                                f"{result['attempted']}, expected 0")
            if trace:
                with open(out_dir / f"trace_{workload}.json") as f:
                    json.load(f)
            print(f"smoke {where}: {result['attempted']} checked, "
                  f"{result['failed']} failed")
    for problem in problems:
        print(f"SMOKE FAILURE {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="measured window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="prebuilt e2e_bench (skips build)")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    if not args.smoke and args.workload not in [w["name"]
                                                for w in bench["workloads"]]:
        parser.error("--workload must be one of BENCHMARK.json's workloads")
    binary = Path(args.binary) if args.binary else build()
    if args.smoke:
        return smoke(bench, binary)

    seconds = args.seconds or bench["run_seconds"]
    result = run_bench(binary, args.workload, args.seed, seconds, args.trace,
                       BUILD / "results")
    line = record_line(result, listed_metrics(bench, args.trace))
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": seconds, "trace": args.trace,
            "commit": git_commit(), "nproc": os.cpu_count(), **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(BUILD / "results" / name, "w") as f:
        json.dump(full, f, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
