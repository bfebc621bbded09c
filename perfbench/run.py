"""The repository benchmark: timed or traced runs of one workload.

Run from the repository root::

    python3 perfbench/run.py --workload seq-gamma-kernel --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload fj2-gamma-manypart --trace 1
    python3 perfbench/run.py --workload dec2-gamma-latency --self-test

Inputs are generated from ``--seed`` and the reference result is looked up
(or computed) before any timing starts.  Then fresh ``child.py`` processes,
each one ``repro infer``-equivalent run, are started one after another for
``--seconds``; every metric is the median over them.  The time metrics are
scaled to a reference host speed measured by a probe between the children
(see :func:`probe`).  ``--trace 0`` runs
untraced and reports the end-to-end metrics; ``--trace 1`` alternates traced
and untraced runs and reports the per-layer metrics.  ``--self-test`` makes
two traced runs and one untraced run and exits 1 unless every run is correct
and every deterministic counter repeats exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  A full record (host, samples, failures) is written to
``.perfbench_work/results/``.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in every child: two
# ranks on two cores must not each start a multi-threaded BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import attribution  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: A run that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 100.0

#: Typical wall time of :func:`probe` per process count on the 2-vCPU VM the
#: benchmark was built on, in quiet periods; scaled times are seconds on a
#: host where the probe takes this long.
PROBE_REF_S = {1: 0.09, 2: 0.15}
#: End-to-end metrics scaled by :func:`scale_to_reference`.
SCALED_METRICS = ("time_to_tree_s", "setup_s", "search_s", "cpu_s")

E2E_UNITS = {
    "time_to_tree_s": "s",
    "setup_s": "s",
    "search_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
#: Units of the per-layer metrics that must repeat exactly for one seed.
COUNTER_UNITS = ("count", "bytes", "flop")
#: Per-layer metrics every run provides, traced or not.
STAMP_METRICS = ("import.s", "seq.read_s", "likelihood.build_s", "seq.patterns")


def host_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True).stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": " ".join(str(blas.get(k, "")).strip() for k in
                         ("name", "version", "openblas configuration")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def _stop_group(pid: int) -> None:
    """Kill what is left of a run's process group (ranks of a crashed run)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(workload, inputs, index: int, trace: bool) -> dict:
    """One fresh-process run; returns its sample (``error`` set on failure)."""
    out = WORK / "runs" / f"{index}.json"
    trace_dir = WORK / "trace" / str(index)
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), workload.name,
            str(inputs.tree.parent), str(out)]
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    sample: dict = {"traced": trace}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(WORK / "runs" / f"{index}.log", "w") as log:
        spawn = time.monotonic_ns()
        proc = subprocess.Popen(
            argv + [str(spawn)] + ([str(trace_dir)] if trace else []),
            cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
            stderr=log, start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # also on SIGTERM (SystemExit): leave no rank of this run behind
            _stop_group(proc.pid)
            proc.wait()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if code is None:
        sample["error"] = f"timed out after {CHILD_TIMEOUT_S:.0f} s"
        return sample
    if code != 0 or not out.exists():
        sample["error"] = f"exit code {code}, see {log.name}"
        return sample
    result = json.loads(out.read_text())
    st = result["stamps"]
    sample.update(
        logl=result["logl"],
        newick=result["newick"],
        counters=result["counters"],
        e2e={
            "time_to_tree_s": (st["search1"] - st["spawn"]) * 1e-9,
            "setup_s": (st["build"] - st["spawn"]) * 1e-9,
            "search_s": (st["search1"] - st["search0"]) * 1e-9,
            "cpu_s": (after.ru_utime - before.ru_utime)
            + (after.ru_stime - before.ru_stime),
            "peak_rss_mb": result["peak_rss_mb"],
        },
        layers={
            "import.s": (st["imports"] - st["main"]) * 1e-9,
            "seq.read_s": (st["read1"] - st["read0"]) * 1e-9,
            "likelihood.build_s": (st["build"] - st["read1"]) * 1e-9,
            "seq.patterns": result["patterns"],
        },
    )
    if trace:
        sample["layers"].update(
            attribution.layer_metrics(*attribution.load(trace_dir),
                                      result["counters"]))
    return sample


def probe(ranks: int) -> float:
    """Wall time of a fixed piece of interpreter and small-array numpy work,
    the mix the program runs, in the benchmark's own code (no ``repro``
    code, so a change to the program cannot move it).

    With ``ranks`` > 1 that many forked processes run it in lock step,
    exchanging a byte with process 0 through pipes after every round, as
    the ranks of the distributed engines exchange a small collective after
    a little compute.  So the probe also slows down when one vCPU is taken
    away or wake-ups get slow, which a one-process probe does not see.

    On a shared 2-vCPU VM the host's speed drifts by 15-30 % over minutes.
    The probe, run just before and after each child, slows down with it, so
    dividing by it takes most of the drift out of the run-to-run spread."""
    import numpy as np

    rng = np.random.default_rng(0)
    pmat = rng.random((4, 4, 4))
    clv = rng.random((4, 200, 4))
    # per peer: a pipe to process 0 and a pipe from it, as (read, write)
    links = [(os.pipe(), os.pipe()) for _ in range(ranks - 1)]
    pids = []
    for (up_read, up_write), (down_read, down_write) in links:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # the leader's ends: held here, they would hide its exit
                os.close(up_read)
                os.close(down_write)
                _probe_rounds(np, pmat, clv, [(down_read, up_write)],
                              leader=False)
                code = 0
            finally:
                os._exit(code)
        pids.append(pid)
        os.close(up_write)
        os.close(down_read)
    ends = [(up_read, down_write)
            for (up_read, _), (_, down_write) in links]
    try:
        t0 = time.perf_counter()
        _probe_rounds(np, pmat, clv, ends, leader=True)
        return time.perf_counter() - t0
    finally:
        for fds in ends:
            for fd in fds:
                os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def _probe_rounds(np, pmat, clv, links, leader: bool) -> None:
    """The probe's rounds; ``links`` holds a (read fd, write fd) pair per
    peer.  The leader gathers one byte from every peer, then releases them."""
    acc = 0.0
    for _ in range(1000):
        acc += float(np.einsum("cij,csj->csi", pmat, clv)[0, 0, 0])
        table = {k: 2 * k for k in range(200)}
        acc += sum(table.values())
        if leader:
            for read, _ in links:
                _read_byte(read)
            for _, write in links:
                os.write(write, b"x")
        else:
            for read, write in links:
                os.write(write, b"x")
                _read_byte(read)


def _read_byte(fd: int) -> None:
    if not os.read(fd, 1):
        raise RuntimeError("probe peer exited early")


def scale_to_reference(sample: dict, probe_s: dict[int, float],
                       ranks: int) -> None:
    """Scale the sample's time metrics to the reference host speed; the
    measured values are kept under ``e2e_raw``.  ``probe_s`` maps a process
    count to its probe time.  Set-up runs in one process and CPU time does
    not count waiting, so both scale with the one-process probe; the search
    scales with the probe over the workload's rank count."""
    sample["probe_s"] = probe_s
    if "e2e" not in sample:
        return
    raw = sample["e2e_raw"] = dict(sample["e2e"])
    one = PROBE_REF_S[1] / probe_s[1]
    many = PROBE_REF_S[ranks] / probe_s[ranks]
    e2e = sample["e2e"]
    e2e["setup_s"] = raw["setup_s"] * one
    e2e["cpu_s"] = raw["cpu_s"] * one
    e2e["search_s"] = raw["search_s"] * many
    e2e["time_to_tree_s"] = (
        e2e["setup_s"] + (raw["time_to_tree_s"] - raw["setup_s"]) * many)


def measure(workload, inputs, seconds: float, trace: bool) -> list[dict]:
    """Run children back to back for ``seconds``.  A child is started only if
    it is expected to finish in time, but at least one run is made (traced
    mode: traced, untraced, traced, so the determinism check always runs)."""
    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    minimum = 3 if trace else 1
    samples: list[dict] = []
    durations: list[float] = []
    counts = sorted({1, workload.ranks})
    start = time.monotonic()
    before = {n: probe(n) for n in counts}
    while True:
        elapsed = time.monotonic() - start
        if len(samples) >= minimum and (
                elapsed + statistics.median(durations) > seconds):
            break
        t0 = time.monotonic()
        sample = run_child(workload, inputs, len(samples),
                           trace and len(samples) % 2 == 0)
        after = {n: probe(n) for n in counts}
        scale_to_reference(sample, {n: (before[n] + after[n]) / 2
                                    for n in counts}, workload.ranks)
        samples.append(sample)
        before = after
        durations.append(time.monotonic() - t0)
    return samples


def validate(samples: list[dict], ref: dict, layer_units: dict) -> None:
    """Mark failed samples: wrong result, or a deterministic counter that
    differs from the first run's."""
    first: dict = {}
    for sample in samples:
        if "error" in sample:
            continue
        reason = workloads.check(sample, ref)
        if sample["traced"] and sample["layers"]["budget.residual.s"] < 0:
            reason = "layer self times exceed search_s: spans overlap"
        counters = {"run": sample["counters"]}
        if sample["traced"]:
            counters["trace"] = {k: v for k, v in sample["layers"].items()
                                 if layer_units.get(k) in COUNTER_UNITS}
        for kind, values in counters.items():
            expected = first.setdefault(kind, values)
            if reason is None and values != expected:
                diff = sorted(k for k in set(values) | set(expected)
                              if values.get(k) != expected.get(k))
                reason = f"deterministic counters differ: {', '.join(diff[:6])}"
        if reason is not None:
            sample["error"] = reason


def _median(samples: list[dict], group: str, name: str) -> float:
    values = [s[group][name] for s in samples if name in s.get(group, {})]
    return statistics.median(values) if values else 0.0


def summarize(samples: list[dict], trace: bool, units: dict) -> dict:
    ok = [s for s in samples if "error" not in s]
    if not trace:
        return {name: _median(ok, "e2e", name) for name in units}
    traced = [s for s in ok if s["traced"]]
    untraced = [s for s in ok if not s["traced"]]
    metrics = {}
    for name in units:
        pool = ok if name in STAMP_METRICS else traced
        metrics[name] = _median(pool, "layers", name)
    untraced_search = _median(untraced, "e2e", "search_s")
    if untraced_search:
        metrics["trace.overhead_share"] = (
            _median(traced, "e2e", "search_s") / untraced_search - 1.0)
    return metrics


def report(workload, seed, trace, samples, metrics, units, host, ref_source,
           wall_s) -> None:
    failed = [s for s in samples if "error" in s]
    print(f"perfbench {workload.name} seed={seed} trace={int(trace)}: "
          f"{len(samples)} run(s) in {wall_s:.1f} s, {len(failed)} failed, "
          f"reference {ref_source}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    for s in failed:
        print(f"  FAILED: {s['error']}")
    group = "layers" if trace else "e2e"
    print(f"  {'metric':<42}{'median':>16}{'min':>14}{'max':>14}  unit  n")
    for name, unit in units.items():
        values = [s[group][name] for s in samples
                  if "error" not in s and name in s.get(group, {})]
        span = (f"{min(values):>14.6g}{max(values):>14.6g}" if values
                else f"{'-':>14}{'-':>14}")
        print(f"  {name:<42}{metrics.get(name, 0.0):>16.6g}{span}  {unit}  "
              f"{len(values)}")
    ok = [s for s in samples if "error" not in s]
    unscaled = ", ".join(f"{name}={_median(ok, 'e2e_raw', name):.6g}"
                         for name in SCALED_METRICS)
    probes = ", ".join(
        f"{n} process(es) {statistics.median(s['probe_s'][n] for s in samples):.4f} s"
        f" (reference {PROBE_REF_S[n]} s)" for n in samples[0]["probe_s"])
    print(f"  host probe medians: {probes}; unscaled medians: {unscaled}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="seq-gamma-kernel")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="two traced runs and one untraced run; exit 1 "
                             "unless all are correct and counters repeat")
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds, so the running child is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    host = host_info()
    if workload.ranks > host["nproc"]:
        print(f"perfbench: {workload.name} needs {workload.ranks} cores, "
              f"this host has {host['nproc']}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    trace = bool(args.trace) or args.self_test
    seconds = 0.0 if args.self_test else args.seconds

    # outside timing: inputs, reference, and one import to warm the caches
    inputs = workloads.generate(workload, seed, WORK)
    ref, ref_source = workloads.reference(workload, seed, inputs)
    subprocess.run([sys.executable, "-c", "import repro.cli"], cwd=ROOT,
                   env=_child_env(), stderr=subprocess.DEVNULL)

    layer_units = attribution.per_layer_units()
    units = layer_units if trace else E2E_UNITS
    start = time.monotonic()
    samples = measure(workload, inputs, seconds, trace)
    wall = time.monotonic() - start
    validate(samples, ref, layer_units)
    metrics = summarize(samples, trace, units)
    failed = sum("error" in s for s in samples)

    report(workload, seed, trace, samples, metrics, units, host, ref_source,
           wall)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": seed, "trace": trace,
              "host": host, "reference": {"source": ref_source, **ref},
              "metrics": metrics, "samples": samples}
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if args.self_test and failed else 0


if __name__ == "__main__":
    sys.exit(main())
