"""Regenerate ``references.json``: the committed reference results.

Run from the repository root::

    python3 perfbench/make_references.py --seeds 0-31

For every workload and seed it generates the inputs, runs the sequential
reference (``run_sequential_reference``) on them and stores the final logL,
the final tree and the input digest.  Run it only when the reference itself
is meant to change (new workload shape, new simulator); a benchmark run
never rewrites this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import workloads

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range A-B")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(ROOT / "src"))
    refs: dict[str, dict[str, dict]] = {}
    for workload in workloads.WORKLOADS.values():
        refs[workload.name] = {}
        for seed in range(first, last + 1):
            inputs = workloads.generate(workload, seed, ROOT / ".perfbench_work")
            refs[workload.name][str(seed)] = workloads.compute_reference(
                workload, inputs)
            print(f"{workload.name} seed {seed}: "
                  f"logL {refs[workload.name][str(seed)]['logl']:.6f}",
                  flush=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
