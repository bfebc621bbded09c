"""Per-layer metrics from the span records of one traced run.

The records come from ``layers.py``: ``main.json`` from the process that
made the search call, and one ``rank<R>.json`` per forked rank.  The search
owner is rank 0 (the fork-join master, decentralized replica 0) or, for the
sequential engine, the main process itself.

Two views are reported:

* **work** metrics (kernel, partitioned, traversal, executor, comm) sum over
  every rank, and the ``*.share`` ratios divide them by the ranks' summed
  active time (rank start to rank end; the search call for the sequential
  engine);
* the **budget** follows the search owner's timeline, so that its layers'
  self times, the rank spawn and join, and the residual add up to the search
  call's wall time exactly.  The residual is the part no layer span covers.

Wait and transfer time inside collectives are inferred from matched
arrivals, as ``repro.obs.analyze`` does: the i-th call of each collective
verb is matched across ranks, a rank waits from its own arrival until the
last rank arrives, and the rest of the call is transfer.
"""

from __future__ import annotations

import json
from pathlib import Path

from layers import KERNEL_OPS, LAYER_OF

#: Table-I categories (``repro.engines.forkjoin.CAT_*``) -> metric suffix.
TAGS = {
    "traversal descriptor": "traversal",
    "per-site/per-partition likelihoods": "likelihood",
    "branch length optimization": "bl_opt",
    "model parameters": "model",
    "control": "control",
}
VERBS = ("allreduce", "bcast", "reduce", "barrier")
BUDGET = ("par", "search", "optimize", "engine", "partitioned", "traversal",
          "kernel", "comm", "residual")

NS = 1e-9


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {"import.s": "s", "seq.read_s": "s", "seq.patterns": "count",
             "likelihood.build_s": "s"}
    for fname in KERNEL_OPS:
        units.update({f"kernel.{fname}.calls": "count",
                      f"kernel.{fname}.units": "count",
                      f"kernel.{fname}.s": "s",
                      f"kernel.{fname}.flops": "flop",
                      f"kernel.{fname}.bytes": "bytes",
                      f"kernel.{fname}.gflops": "GFLOP/s"})
    units.update({
        "kernel.share": "ratio",
        "partitioned.ensure_clvs.calls": "count",
        "partitioned.ensure_clvs.self_s": "s",
        "partitioned.validity_s": "s",
        "partitioned.evaluate.self_s": "s",
        "partitioned.prepare_branch.self_s": "s",
        "partitioned.branch_derivatives.self_s": "s",
        "partitioned.clv_peak_bytes": "bytes",
        "traversal.calls": "count",
        "traversal.s": "s",
        "executor.run_ops.calls": "count",
        "executor.run_ops.self_s": "s",
        "executor.self_s": "s",
        "executor.clv_peak_bytes": "bytes",
        "dispatch.share": "ratio",
        "engine.evaluate.calls": "count",
        "engine.derivatives.calls": "count",
        "engine.region_p50_us": "us",
        "engine.region_p99_us": "us",
        "optimize_branch.calls": "count",
        "optimize_branch.newton_per_call": "ratio",
        "optimize_model.s": "s",
        "search.spr_round.s": "s",
        "search.smooth.s": "s",
        "search.model_opt.s": "s",
        "search.insertions_tried": "count",
        "search.moves_accepted": "count",
        "search.self_s": "s",
    })
    for verb in VERBS:
        units[f"comm.{verb}.calls"] = "count"
        units[f"comm.{verb}.s"] = "s"
    for tag in TAGS.values():
        units[f"comm.calls.{tag}"] = "count"
        units[f"comm.bytes.{tag}"] = "bytes"
    units.update({"comm.wait_s": "s", "comm.transfer_s": "s",
                  "comm.share": "ratio", "par.spawn_s": "s",
                  "par.join_s": "s"})
    for layer in BUDGET:
        units[f"budget.{layer}.s"] = "s"
    units.update({"trace.residual_share": "ratio",
                  "trace.overhead_share": "ratio"})
    return units


def load(trace_dir: Path) -> tuple[dict, list[dict]]:
    main = json.loads((trace_dir / "main.json").read_text())
    ranks = [json.loads(p.read_text())
             for p in sorted(trace_dir.glob("rank*.json"),
                             key=lambda p: int(p.stem[4:]))]
    return main, ranks


def _span(rec: dict, name: str) -> tuple[int, int, int]:
    return tuple(rec["spans"].get(name, (0, 0, 0)))


def _sum(recs: list[dict], name: str, field: int) -> int:
    return sum(_span(r, name)[field] for r in recs)


def _self_by_layer(rec: dict) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, (_, _, self_ns) in rec["spans"].items():
        layer = LAYER_OF[name.split(".")[0]]
        out[layer] = out.get(layer, 0) + self_ns
    return out


def _wait_transfer(ranks: list[dict]) -> tuple[int, int]:
    groups: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for rec in ranks:
        seen: dict[str, int] = {}
        for verb, t0, t1 in rec["collectives"]:
            i = seen.get(verb, 0)
            seen[verb] = i + 1
            groups.setdefault((verb, i), []).append((t0, t1))
    wait = transfer = 0
    for members in groups.values():
        last = max(t0 for t0, _ in members) if len(members) > 1 else None
        for t0, t1 in members:
            w = 0 if last is None else min(t1 - t0, max(0, last - t0))
            wait += w
            transfer += t1 - t0 - w
    return wait, transfer


def _percentile(values: list[int], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def layer_metrics(main: dict, ranks: list[dict],
                  counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced run.  ``counters`` is the run's
    always-on accounting from ``child.py`` (the engine's calls and bytes per
    Table-I tag); stamps from ``child.py`` are added by the caller."""
    from repro.likelihood.kernel import bytes_per_unit, flops_per_unit

    t_search0 = main["stamps"]["search0"]
    t_search1 = main["stamps"]["search1"]
    search_ns = t_search1 - t_search0
    if ranks:
        workers = ranks
        owner = ranks[0]
        windows = [r["stamps"]["rank_end"] - r["stamps"]["rank_start"]
                   for r in ranks]
        spawn = owner["stamps"]["rank_start"] - t_search0
        join = t_search1 - owner["stamps"]["rank_end"]
    else:
        workers = [main]
        owner = main
        windows = [search_ns]
        spawn = join = 0
    active = sum(windows)
    m: dict[str, float] = {}

    kernel_ns = 0
    units: dict[str, dict[str, int]] = {}
    for rec in workers:
        for key, n in rec["units"].items():
            op, n_states = key.split("/")
            bucket = units.setdefault(op, {})
            bucket[n_states] = bucket.get(n_states, 0) + n
    for fname, op in KERNEL_OPS.items():
        calls = _sum(workers, f"kernel.{fname}", 0)
        total = _sum(workers, f"kernel.{fname}", 1)
        kernel_ns += total
        by_states = units.get(op, {})
        flops = sum(n * flops_per_unit(op, int(k)) for k, n in by_states.items())
        nbytes = sum(n * bytes_per_unit(op, int(k)) for k, n in by_states.items())
        m[f"kernel.{fname}.calls"] = calls
        m[f"kernel.{fname}.units"] = sum(by_states.values())
        m[f"kernel.{fname}.s"] = total * NS
        m[f"kernel.{fname}.flops"] = flops
        m[f"kernel.{fname}.bytes"] = nbytes
        m[f"kernel.{fname}.gflops"] = flops / total if total else 0.0
    m["kernel.share"] = kernel_ns / active

    def self_s(name: str) -> float:
        return _sum(workers, name, 2) * NS

    m["partitioned.ensure_clvs.calls"] = _sum(workers, "partitioned.ensure_clvs", 0)
    m["partitioned.ensure_clvs.self_s"] = self_s("partitioned.ensure_clvs")
    m["partitioned.validity_s"] = self_s("partitioned.validity")
    m["partitioned.evaluate.self_s"] = self_s("partitioned.evaluate")
    m["partitioned.prepare_branch.self_s"] = self_s("partitioned.prepare_branch")
    m["partitioned.branch_derivatives.self_s"] = self_s(
        "partitioned.branch_derivatives")
    m["partitioned.clv_peak_bytes"] = sum(r["clv_peak_bytes"] for r in workers)
    m["traversal.calls"] = _sum(workers, "traversal", 0)
    m["traversal.s"] = self_s("traversal")
    m["executor.run_ops.calls"] = _sum(workers, "executor.run_ops", 0)
    m["executor.run_ops.self_s"] = self_s("executor.run_ops")
    layer_self = [_self_by_layer(r) for r in workers]
    m["executor.self_s"] = sum(s.get("executor", 0) for s in layer_self) * NS
    m["executor.clv_peak_bytes"] = sum(r["executor_clv_peak_bytes"]
                                       for r in workers)
    dispatch_ns = sum(s.get(layer, 0) for s in layer_self
                      for layer in ("partitioned", "traversal", "executor"))
    m["dispatch.share"] = dispatch_ns / active

    m["engine.evaluate.calls"] = _span(owner, "engine.evaluate")[0]
    m["engine.derivatives.calls"] = _span(owner, "engine.derivatives")[0]
    m["engine.region_p50_us"] = _percentile(owner["regions"], 0.50) / 1e3
    m["engine.region_p99_us"] = _percentile(owner["regions"], 0.99) / 1e3
    branch_calls = _span(owner, "optimize_branch")[0]
    m["optimize_branch.calls"] = branch_calls
    m["optimize_branch.newton_per_call"] = (
        m["engine.derivatives.calls"] / branch_calls if branch_calls else 0.0)
    m["optimize_model.s"] = _span(owner, "optimize_model")[2] * NS
    m["search.spr_round.s"] = _span(owner, "search.spr_round")[1] * NS
    m["search.smooth.s"] = _span(owner, "search.smooth")[1] * NS
    m["search.model_opt.s"] = _span(owner, "optimize_model")[1] * NS
    m["search.insertions_tried"] = owner["counts"].get("insertions_tried", 0)
    m["search.moves_accepted"] = owner["counts"].get("moves_accepted", 0)
    owner_self = _self_by_layer(owner)
    m["search.self_s"] = owner_self.get("search", 0) * NS

    for verb in VERBS:
        m[f"comm.{verb}.calls"] = _sum(workers, f"comm.{verb}", 0)
        m[f"comm.{verb}.s"] = _sum(workers, f"comm.{verb}", 1) * NS
    for tag, suffix in TAGS.items():
        m[f"comm.calls.{suffix}"] = counters.get(f"calls:{tag}", 0)
        m[f"comm.bytes.{suffix}"] = counters.get(f"bytes:{tag}", 0)
    wait, transfer = _wait_transfer(ranks)
    m["comm.wait_s"] = wait * NS
    m["comm.transfer_s"] = transfer * NS
    m["comm.share"] = (wait + transfer) / active
    m["par.spawn_s"] = spawn * NS
    m["par.join_s"] = join * NS

    budget = {layer: owner_self.get(layer, 0) for layer in BUDGET}
    budget["par"] = spawn + join
    budget["residual"] = search_ns - sum(budget.values())
    for layer, ns in budget.items():
        m[f"budget.{layer}.s"] = ns * NS
    m["trace.residual_share"] = budget["residual"] / search_ns
    return m
