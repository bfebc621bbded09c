"""One timed run: a fresh process that does what ``repro infer`` does.

Usage (started by ``run.py``, one process per sample)::

    python3 perfbench/child.py WORKLOAD INPUT_DIR OUT_JSON SPAWN_NS [TRACE_DIR]

``SPAWN_NS`` is the parent's ``time.monotonic_ns()`` just before it started
this process.  The steps follow ``repro.cli._cmd_infer``: imports, read the
alignment, partition file and start tree, build the likelihood, then the
engine's search call.  Each step boundary is stamped; the stamps, the final
tree and logL, and the always-on counters go to ``OUT_JSON``.  With
``TRACE_DIR`` the layer wrappers of ``layers.py`` are installed after the
imports and every process of the run writes its spans there.
"""

import sys
import time

T_MAIN = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> None:
    name, input_dir, out_path, spawn_ns = argv[:4]
    trace_dir = Path(argv[4]) if len(argv) > 4 else None
    stamps = {"spawn": int(spawn_ns), "main": T_MAIN}

    import repro.cli  # noqa: F401  (the entry point `repro infer` loads)
    from repro.engines.launch import run_decentralized, run_forkjoin
    from repro.likelihood.backend import SequentialBackend
    from repro.search.search import SearchConfig
    from repro.tree.newick import write_newick

    import workloads

    stamps["imports"] = time.monotonic_ns()
    if trace_dir is not None:
        import layers

        layers.install(trace_dir)
    from repro.search.search import hill_climb  # after install: the wrapper

    workload = workloads.WORKLOADS[name]
    inputs = workloads.Inputs.at(Path(input_dir))
    stamps["read0"] = time.monotonic_ns()
    alignment, scheme, tree = workloads.read_inputs(inputs)
    stamps["read1"] = time.monotonic_ns()
    lik = workloads.build(alignment, tree, scheme)
    stamps["build"] = time.monotonic_ns()
    config = SearchConfig(**workload.config_kwargs())
    start_newick = write_newick(tree)
    out = {"patterns": sum(p.n_patterns for p in lik.parts)}

    stamps["search0"] = time.monotonic_ns()
    if workload.engine == "sequential":
        result = hill_climb(SequentialBackend(lik), config)
        newick = write_newick(tree, lengths=False)
        out["counters"] = {"iterations": result.iterations,
                           "insertions_tried": result.insertions_tried,
                           "moves_accepted": result.moves_accepted}
    else:
        if workload.engine == "decentralized":
            result = run_decentralized(lik.parts, lik.taxa, start_newick,
                                       n_ranks=workload.ranks, config=config)[0]
        else:
            result = run_forkjoin(lik.parts, lik.taxa, start_newick,
                                  n_ranks=workload.ranks, config=config)
        newick = result.newick
        out["counters"] = {"iterations": result.iterations,
                           **{f"bytes:{k}": v for k, v in result.bytes_by_tag.items()},
                           **{f"calls:{k}": v for k, v in result.calls_by_tag.items()}}
    stamps["search1"] = time.monotonic_ns()
    out.update(logl=result.logl, newick=newick, stamps=stamps)

    # ru_maxrss is in KiB; the ranks are waited-for children of this process
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = rss / 1024.0
    if trace_dir is not None:
        layers.REC.stamps.update(search0=stamps["search0"],
                                 search1=stamps["search1"])
        layers.REC.write(trace_dir / "main.json")
    Path(out_path).write_text(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
