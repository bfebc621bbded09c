"""Workload definitions, input generation and the correctness oracle.

Each workload is a problem shape generated like
``repro.datasets.partitioned_workload`` (per-gene GTR, Γ shape and rate
multiplier), a search configuration and an engine.  Inputs are simulated
with the repository's own simulator from a seed, outside any timing, and
written as the three files a user hands to ``repro infer``: a FASTA
alignment, a RAxML partition file and a start tree.  The program under test sees only those
files.

The reference result for a workload and seed is the sequential engine's
(``repro.engines.launch.run_sequential_reference``) on the same files.
References for the committed seeds live in ``references.json``; any other
seed gets its reference computed once and cached beside its inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

#: Ranks of the distributed workloads (the benchmark host has 2 cores).
RANKS = 2

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1

#: Largest accepted |logL - reference logL|, in log-likelihood units.
#: Both distributed engines reproduce the sequential reference to ~1e-10;
#: the slack admits kernels that round differently but take the same path.
LOGL_TOLERANCE = 1e-3

#: Bump when :func:`generate` changes, so that inputs and references cached
#: in the work directory are not reused (workload fields are keyed already).
INPUT_VERSION = 3

#: Seeds the fixed part of every workload (see :func:`generate`).
SHAPE_SEED = 2013

REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    engine: str  # "sequential" | "decentralized" | "forkjoin"
    n_partitions: int
    n_taxa: int
    sites_per_partition: int
    iterations: int
    radius: int

    @property
    def ranks(self) -> int:
        return 1 if self.engine == "sequential" else RANKS

    def config_kwargs(self) -> dict:
        """``SearchConfig`` arguments, as ``repro infer --no-gtr -n -r``
        would pass them."""
        return {"max_iterations": self.iterations, "radius_max": self.radius,
                "optimize_gtr": False, "epsilon": 0.1}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "seq-gamma-kernel",
            "single-process baseline whose time is dominated by the "
            "likelihood kernels; makes no collectives",
            "sequential", n_partitions=4, n_taxa=16,
            sites_per_partition=750, iterations=1, radius=2,
        ),
        Workload(
            "dec2-gamma-latency",
            "decentralized engine on 2 ranks with little compute between "
            "collectives, so allreduce latency dominates",
            "decentralized", n_partitions=1, n_taxa=16,
            sites_per_partition=600, iterations=2, radius=2,
        ),
        Workload(
            "fj2-gamma-manypart",
            "fork-join engine on 2 ranks over 50 small partitions, where "
            "per-partition Python dispatch dominates",
            "forkjoin", n_partitions=50, n_taxa=8,
            sites_per_partition=48, iterations=1, radius=1,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    fasta: Path
    partitions: Path
    tree: Path

    @classmethod
    def at(cls, directory: Path) -> "Inputs":
        return cls(directory / "alignment.fasta",
                   directory / "partitions.txt", directory / "start.nwk")

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in (self.fasta, self.partitions, self.tree):
            h.update(path.read_bytes())
        return h.hexdigest()


def generate(workload: Workload, seed: int, work_dir: Path) -> Inputs:
    """Write the workload's input files for ``seed`` (idempotent).

    The problem itself (true tree, per-gene GTR, Γ shape and rate
    multiplier) and the start tree are fixed per workload; the seed draws
    the sequences.  So every seed poses a problem of the same size and
    difficulty, and run-to-run differences are mostly measurement noise
    rather than a different amount of work.  The start tree is a random
    topology, as ``repro infer`` and ``partitioned_workload`` start from,
    so the search accepts moves and the code that runs after an accepted
    move (topology change, CLV invalidation, re-smoothing) is measured."""
    import numpy as np
    from repro.datasets.generators import _random_gtr
    from repro.seq.io_fasta import write_fasta
    from repro.seq.partitions import PartitionScheme, write_partition_file
    from repro.seq.simulate import simulate_partitioned_alignment
    from repro.tree.newick import write_newick
    from repro.tree.random_trees import random_topology, yule_tree

    key = hashlib.sha256(repr((workload, SHAPE_SEED, INPUT_VERSION)).encode())
    out = work_dir / "inputs" / f"{workload.name}-seed{seed}-{key.hexdigest()[:12]}"
    inputs = Inputs.at(out)
    if inputs.tree.exists():
        return inputs
    shape = np.random.default_rng((SHAPE_SEED, workload.n_partitions,
                                   workload.n_taxa))
    n = workload.n_partitions
    taxa = [f"taxon{i:02d}" for i in range(workload.n_taxa)]
    true_tree = yule_tree(taxa, rng=shape, mean_branch_length=0.09)
    models = [_random_gtr(shape) for _ in range(n)]
    alphas = [float(shape.uniform(0.3, 1.5)) for _ in range(n)]
    multipliers = [float(shape.uniform(0.5, 2.0)) for _ in range(n)]
    sizes = [workload.sites_per_partition] * n
    start_tree = random_topology(taxa, rng=shape)
    alignment = simulate_partitioned_alignment(
        true_tree, models, sizes, rng=np.random.default_rng(seed),
        gamma_alphas=alphas, partition_rate_multipliers=multipliers)
    scheme = PartitionScheme.contiguous_blocks(
        sizes, names=[f"gene{i:04d}" for i in range(n)])
    out.mkdir(parents=True, exist_ok=True)
    write_fasta(alignment, inputs.fasta)
    write_partition_file(scheme, inputs.partitions)
    # written last: its presence marks a complete input set
    inputs.tree.write_text(write_newick(start_tree, lengths=False) + "\n")
    return inputs


def read_inputs(inputs: Inputs):
    """Parse the three input files as ``repro infer`` does."""
    from repro.seq.io_fasta import read_fasta
    from repro.seq.partitions import read_partition_file
    from repro.tree.newick import parse_newick

    return (read_fasta(inputs.fasta), read_partition_file(inputs.partitions),
            parse_newick(inputs.tree.read_text()))


def build(alignment, tree, scheme):
    """The Γ likelihood (4 categories, pattern scale 1) over ``tree``."""
    from repro.likelihood.partitioned import PartitionedLikelihood

    return PartitionedLikelihood.build(alignment, tree, scheme=scheme,
                                       rate_mode="gamma", n_cats=4,
                                       pattern_scale=1.0)


def compute_reference(workload: Workload, inputs: Inputs) -> dict:
    from repro.engines.launch import run_sequential_reference
    from repro.search.search import SearchConfig
    from repro.tree.newick import write_newick

    alignment, scheme, tree = read_inputs(inputs)
    lik = build(alignment, tree, scheme)
    result = run_sequential_reference(
        lik.parts, lik.taxa, write_newick(tree),
        config=SearchConfig(**workload.config_kwargs()))
    return {"digest": inputs.digest(), "logl": result.logl,
            "newick": result.newick}


def reference(workload: Workload, seed: int,
              inputs: Inputs) -> tuple[dict, str]:
    """The reference for ``seed`` and where it came from.

    A committed reference is used only if its input digest matches the
    generated files (a changed simulator makes it stale)."""
    digest = inputs.digest()
    committed = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    ref = committed.get(workload.name, {}).get(str(seed))
    if ref is not None and ref["digest"] == digest:
        return ref, "committed"
    cache = inputs.tree.parent / "reference.json"
    if cache.exists():
        ref = json.loads(cache.read_text())
        if ref["digest"] == digest:
            return ref, "cached"
    ref = compute_reference(workload, inputs)
    cache.write_text(json.dumps(ref))
    return ref, "computed"


# ---------------------------------------------------------------------- #
# topology oracle (independent of the program's own tree code)
# ---------------------------------------------------------------------- #
def splits(newick: str) -> frozenset[frozenset[str]]:
    """Non-trivial bipartitions of an unrooted Newick tree, each given as
    the side that does not hold the smallest taxon label."""
    stack: list[set[str]] = [set()]
    clades: list[frozenset[str]] = []
    label = []
    for ch in newick.strip().rstrip(";"):
        if ch == "(":
            stack.append(set())
        elif ch in ",)":
            if label:
                name = "".join(label).split(":")[0].strip()
                if name:
                    stack[-1].add(name)
                label = []
            if ch == ")":
                clade = stack.pop()
                clades.append(frozenset(clade))
                stack[-1] |= clade
        else:
            label.append(ch)
    taxa = frozenset(stack[0])
    anchor = min(taxa)
    out = set()
    for clade in clades:
        side = clade if anchor not in clade else taxa - clade
        if 1 < len(side) < len(taxa) - 1:
            out.add(frozenset(side))
    return frozenset(out)


def check(result: dict, ref: dict) -> str | None:
    """None if ``result`` matches the reference, else the reason."""
    delta = abs(result["logl"] - ref["logl"])
    if not delta <= LOGL_TOLERANCE:
        return (f"logL {result['logl']:.6f} differs from reference "
                f"{ref['logl']:.6f} by {delta:.3g}")
    if splits(result["newick"]) != splits(ref["newick"]):
        return "final topology differs from the reference topology"
    return None
