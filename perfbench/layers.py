"""Layer spans recorded from outside the program.

:func:`install` replaces the public entry points of each layer of ``repro``
with timing wrappers.  Where a caller imported a function by name, the
wrapper goes on the name that caller uses (``repro.search.spr.optimize_branch``
as well as ``repro.likelihood.optimize_branch.optimize_branch``).  Nothing
under ``src/repro`` is changed.

Every wrapper keeps an aggregate per span name (calls, total and self time,
where self time excludes wrapped callees), so a long search costs a few
dictionaries rather than one record per kernel call.  Collectives and engine
regions are kept one by one: wait time is inferred from matched arrivals
across ranks, and region percentiles need the individual durations.

Ranks are forked, so they inherit the wrappers.  The rank function handed to
``run_mpi`` is wrapped too: it resets the recorder when the rank starts and
writes the rank's record to the trace directory when it ends.  All stamps
use ``time.monotonic_ns`` (CLOCK_MONOTONIC, shared by every process on the
host), so records of different processes line up.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from time import monotonic_ns as now

#: Span-name prefix -> layer of the budget.
LAYER_OF = {
    "kernel": "kernel",
    "partitioned": "partitioned",
    "traversal": "traversal",
    "executor": "executor",
    "engine": "engine",
    "optimize_branch": "optimize",
    "optimize_model": "optimize",
    "search": "search",
    "comm": "comm",
}

#: Kernel function -> op name of ``repro.likelihood.kernel.flops_per_unit``.
KERNEL_OPS = {
    "pmatrices": "pmatrix",
    "newview": "newview",
    "evaluate_edge": "evaluate",
    "sumtable": "sumtable",
    "derivatives_from_sumtable": "derivative",
}

#: Engine calls that are one parallel region each.
REGIONS = ("engine.evaluate", "engine.begin_branch", "engine.derivatives")


class Recorder:
    """One process's spans.  Reset in place when a forked rank starts, so
    the wrappers, which hold a reference to it, keep working."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stack: list[list[int]] = []  # child-time accumulator per open span
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total, self]
        self.units: dict[str, int] = {}  # "op/n_states" -> work units
        self.regions: list[int] = []
        self.collectives: list[tuple[str, int, int]] = []
        self.in_comm = False
        self.counts: dict[str, int] = {}
        self.liks: list = []
        self.executors: list = []
        self.stamps: dict[str, int] = {}

    def record(self) -> dict:
        def peak(owners) -> int:
            return sum(s["peak_bytes"] for o in owners for s in o.clv_stats())

        return {
            "stamps": self.stamps,
            "spans": self.spans,
            "units": self.units,
            "regions": self.regions,
            "collectives": self.collectives,
            "counts": self.counts,
            "clv_peak_bytes": peak(self.liks),
            "executor_clv_peak_bytes": peak(self.executors),
        }

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.record()))


REC = Recorder()


def _span(name: str, fn, after=None):
    """Wrap ``fn`` in a span called ``name``; ``after(args, kwargs, result)``
    runs outside the timed interval."""
    rec = REC
    region = name in REGIONS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        frame = [0]
        stack.append(frame)
        t0 = now()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = now() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            agg = rec.spans.get(name)
            if agg is None:
                agg = rec.spans[name] = [0, 0, 0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[0]
            if region:
                rec.regions.append(dur)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _collective(verb: str, fn):
    """Span for an outermost collective (``allreduce`` is built from
    ``reduce`` + ``bcast``; the inner calls are not counted again)."""
    rec = REC
    name = f"comm.{verb}"
    timed = _span(name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.in_comm:
            return fn(*args, **kwargs)
        rec.in_comm = True
        t0 = now()
        try:
            return timed(*args, **kwargs)
        finally:
            rec.in_comm = False
            rec.collectives.append((verb, t0, now()))

    return wrapper


def _traversal(fn):
    """Traversal span whose validity callback (the likelihood's CLV
    validity check) is timed as a partitioned-layer child span."""
    timed = _span("traversal", fn)

    @functools.wraps(fn)
    def wrapper(tree, u, v, is_valid=None):
        if is_valid is None:
            return timed(tree, u, v)
        return timed(tree, u, v, is_valid=_span("partitioned.validity", is_valid))

    return wrapper


def _units(op: str, count):
    rec = REC

    def after(args, kwargs, result) -> None:
        units, n_states = count(args, kwargs, result)
        key = f"{op}/{n_states}"
        rec.units[key] = rec.units.get(key, 0) + units

    return after


def _pmatrix_units(args, kwargs, result):
    return result.shape[0], result.shape[-1]


def _clv_units(args, kwargs, result):  # newview -> (clv, scale)
    clv = result[0]
    return clv.shape[0] * clv.shape[1], clv.shape[2]


def _evaluate_units(args, kwargs, result):
    p_root = args[0]
    site_specific = kwargs.get("site_specific", args[8] if len(args) > 8 else False)
    cats = 1 if site_specific else p_root.shape[0]
    return result[1].shape[0] * cats, p_root.shape[-1]


def _table_units(args, kwargs, result):  # sumtable -> table
    return result.shape[0] * result.shape[1], result.shape[2]


def _derivative_units(args, kwargs, result):
    st = args[1]
    return st.shape[0] * st.shape[1], st.shape[2]


_UNIT_COUNTERS = {
    "pmatrices": _pmatrix_units,
    "newview": _clv_units,
    "evaluate_edge": _evaluate_units,
    "sumtable": _table_units,
    "derivatives_from_sumtable": _derivative_units,
}


def _patch_methods(cls, names: dict[str, str]) -> None:
    """Wrap the methods ``cls`` itself defines (inherited ones are wrapped
    on the class that defines them)."""
    for attr, span in names.items():
        if attr in vars(cls):
            setattr(cls, attr, _span(span, vars(cls)[attr]))


def _search_counts(args, kwargs, result) -> None:
    counts = REC.counts
    for key in ("iterations", "insertions_tried", "moves_accepted"):
        counts[key] = counts.get(key, 0) + int(getattr(result, key))


def _register(owners_attr: str, init):
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        getattr(REC, owners_attr).append(self)

    return wrapper


def _traced_rank(fn, trace_dir: Path):
    """The rank function handed to ``run_mpi``, with its spans flushed to
    ``trace_dir/rank<R>.json`` when the rank ends."""

    def rank_main(comm, payload):
        rank = comm.rank
        REC.reset()
        REC.stamps["rank_start"] = now()
        try:
            return fn(comm, payload)
        finally:
            REC.stamps["rank_end"] = now()
            REC.write(trace_dir / f"rank{rank}.json")

    return rank_main


def install(trace_dir: Path) -> None:
    """Install every wrapper; forked ranks write into ``trace_dir``."""
    import repro.engines.forkjoin as forkjoin
    import repro.engines.launch as launch
    import repro.likelihood.kernel as kernel
    import repro.likelihood.optimize_branch as optimize_branch
    import repro.likelihood.partitioned as partitioned
    import repro.search.search as search
    import repro.search.spr as spr
    import repro.tree.traversal as traversal
    from repro.engines.decentral import DecentralizedBackend
    from repro.engines.executor import DescriptorExecutor
    from repro.likelihood.backend import SequentialBackend
    from repro.par.mpcomm import MPComm

    for fname, op in KERNEL_OPS.items():
        setattr(kernel, fname, _span(f"kernel.{fname}", getattr(kernel, fname),
                                    after=_units(op, _UNIT_COUNTERS[fname])))

    wrapped_traversal = _traversal(traversal.traversal_for_edge)
    for module in (traversal, partitioned, forkjoin):
        module.traversal_for_edge = wrapped_traversal

    lik_cls = partitioned.PartitionedLikelihood
    _patch_methods(lik_cls, {
        "ensure_clvs": "partitioned.ensure_clvs",
        "evaluate": "partitioned.evaluate",
        # the engines evaluate partition by partition through this method
        "_evaluate_partition": "partitioned.evaluate",
        "prepare_branch": "partitioned.prepare_branch",
        "branch_derivatives": "partitioned.branch_derivatives",
    })
    lik_cls.__init__ = _register("liks", lik_cls.__init__)

    _patch_methods(DescriptorExecutor, {
        "run_ops": "executor.run_ops",
        "evaluate": "executor.evaluate",
        "sumtables": "executor.sumtables",
        "derivatives": "executor.derivatives",
    })
    DescriptorExecutor.__init__ = _register("executors",
                                            DescriptorExecutor.__init__)

    engine_methods = {
        "evaluate": "engine.evaluate",
        "begin_branch": "engine.begin_branch",
        "derivatives": "engine.derivatives",
        "set_alphas": "engine.set_model",
        "set_gtr_rates": "engine.set_model",
        "finish": "engine.finish",
    }
    for cls in (SequentialBackend, DecentralizedBackend,
                forkjoin.ForkJoinMasterBackend):
        _patch_methods(cls, engine_methods)

    wrapped_branch = _span("optimize_branch", optimize_branch.optimize_branch)
    optimize_branch.optimize_branch = wrapped_branch
    spr.optimize_branch = wrapped_branch
    search.optimize_model = _span("optimize_model", search.optimize_model)
    search.smooth_all_branches = _span("search.smooth",
                                       search.smooth_all_branches)
    search.spr_round = _span("search.spr_round", search.spr_round)
    wrapped_climb = _span("search.hill_climb", search.hill_climb,
                          after=_search_counts)
    search.hill_climb = wrapped_climb
    launch.hill_climb = wrapped_climb

    for verb in ("allreduce", "bcast", "reduce", "barrier"):
        setattr(MPComm, verb, _collective(verb, getattr(MPComm, verb)))

    run_mpi = launch.run_mpi

    @functools.wraps(run_mpi)
    def traced_run_mpi(n_ranks, fn, *args, **kwargs):
        return run_mpi(n_ranks, _traced_rank(fn, trace_dir), *args, **kwargs)

    launch.run_mpi = traced_run_mpi
