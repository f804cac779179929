"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs `perfbench/run.py` once per (workload, seed), one run at a time,
from the repository root, with the run length taken from BENCHMARK.json.
For each end-to-end metric it prints the median, the quartiles
(statistics.quantiles with n=4) and the spread (q3 - q1) / median next to
the metric's bound; it exits with 1 if a run failed a check or a spread
is over its bound.  The unscaled timings the runs print as
`info unscaled.<metric>` are summarised the same way.

`--out FILE` adds this set of runs to FILE, with the machine's environment
and one `--trace 1` run per workload at the first seed.  When FILE already
holds a set, it also prints how far each median moved from the first
set's, against the bound, and exits with 1 if one got worse by more than
its bound.  perfbench/baseline.json holds two such sets of
seeds 1-10, made on the commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",") if v]


def one_run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """The run's result object, with its `info unscaled.*` values as "unscaled"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["unscaled"] = {}
    for line in lines:
        if line.startswith("info unscaled."):
            key, value = line[len("info unscaled."):].split(" = ")
            result["unscaled"][key] = float(value)
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--out")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    summary, unscaled, traced = {}, {}, {}
    ok = True
    for workload in args.workload or names:
        runs = []
        for seed in seeds:
            result = one_run(workload, seed, seconds)
            ok &= result["correct"]
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        table = summary[workload] = {}
        for name, m in metrics.items():
            s = table[name] = summarise([r["metrics"][name]["value"] for r in runs])
            ok &= s["spread"] <= m["bound"]
            flag = "OVER BOUND" if s["spread"] > m["bound"] else (
                "over bound/3" if s["spread"] > m["bound"] / 3 else "ok")
            print(f"  {name:<14} median={s['median']:<12.6g} q1={s['q1']:<12.6g} "
                  f"q3={s['q3']:<12.6g} spread={s['spread']:.4f} bound={m['bound']} {flag}")
        unscaled[workload] = {name: summarise([r["unscaled"][name] for r in runs])
                              for name in runs[0]["unscaled"]}
        for name, s in unscaled[workload].items():
            print(f"  unscaled {name:<14} median={s['median']:<12.6g} spread={s['spread']:.4f}")
        if args.out:
            traced[workload] = one_run(workload, seeds[0], seconds, trace=1)
            ok &= traced[workload]["correct"]

    if args.out:
        out = Path(args.out)
        sets = json.loads(out.read_text())["sets"] if out.exists() else []
        env = {"python": platform.python_version(), "numpy": numpy.__version__,
               "nproc": os.cpu_count(), "cpu": cpu_model(),
               "git_revision": git_revision(), "seeds": seeds, "seconds": seconds}
        sets.append({"environment": env, "workloads": summary, "unscaled": unscaled,
                     "traced_first_seed": {w: r["metrics"] for w, r in traced.items()}})
        out.write_text(json.dumps({"sets": sets}, indent=1) + "\n")
        if len(sets) > 1:
            ok &= print_drift(sets[0]["workloads"], summary, metrics)
    return 0 if ok else 1


def print_drift(first: dict, summary: dict, metrics: dict) -> bool:
    """Print how far each median got worse than the first set's; False if past a bound."""
    ok = True
    for workload, table in summary.items():
        for name, s in table.items():
            if workload not in first:
                continue
            change = s["median"] / first[workload][name]["median"] - 1.0
            worse = -change if metrics[name]["better"] == "higher" else change
            bound = metrics[name]["bound"]
            ok &= worse <= bound
            flag = " WORSE THAN BOUND" if worse > bound else ""
            print(f"drift {workload} {name:<14} {change:+.4f} of the first set's median "
                  f"(bound {bound}){flag}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
