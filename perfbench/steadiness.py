"""Steadiness check: is each end-to-end metric steady across seeds?

Run from the repository root::

    python3 perfbench/steadiness.py                      # every workload, 10 seeds
    python3 perfbench/steadiness.py --workloads dec2-gamma-latency --seeds 5
    python3 perfbench/steadiness.py --sets 2             # also compare two sets

For each workload, the benchmark command of ``BENCHMARK.json`` runs once per
seed (``--trace 0``, ``run_seconds`` each).  Per metric, the spread is the
distance between the first and third quartile of the per-run values
(``statistics.quantiles(values, n=4)``) as a share of their median.  A metric
is steady when its spread stays within its bound and, with ``--sets 2``, when
the second set's median is not worse than the first's by more than the bound.
The target while tuning is a spread below a third of the bound.  Exit status
1 if any run failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads.split(","):
        medians: list[dict[str, float]] = []
        for n in range(args.sets):
            runs = []
            for i in range(args.seeds):
                seed = args.first_seed + i
                result = run_once(spec, workload, seed)
                runs.append(result)
                status = "ok" if result["correct"] else "FAILED"
                values = " ".join(f"{k}={v['value']:.4g}"
                                  for k, v in result["metrics"].items())
                print(f"{workload} set {n + 1} seed {seed}: {status} {values}",
                      flush=True)
                ok &= bool(result["correct"])
            good = [r for r in runs if r["metrics"]]
            if len(good) < 2:
                print(f"{workload}: too few completed runs")
                return 1
            print(f"{workload} set {n + 1}: {'metric':<16}{'median':>12}"
                  f"{'spread':>9}{'bound':>8}  verdict")
            set_medians = {}
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r["metrics"][name]["value"] for r in good]
                med = set_medians[name] = statistics.median(values)
                s = spread(values)
                if s <= bound / 3:
                    verdict = "steady"
                elif s <= bound:
                    verdict = "within bound (above a third)"
                else:
                    verdict = "NOISY"
                    ok = False
                print(f"{'':<{len(workload) + 8}}{name:<16}{med:>12.5g}"
                      f"{s:>9.3f}{bound:>8.3f}  {verdict}")
            medians.append(set_medians)
        if len(medians) == 2:
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                worse = worse_by(medians[0][name], medians[1][name],
                                 metric["better"])
                verdict = "ok" if worse <= bound else "WORSE"
                ok &= worse <= bound
                print(f"{workload} second vs first median {name}: "
                      f"{worse:+.3f} (bound {bound}) {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
