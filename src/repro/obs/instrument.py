"""Instrumentation: spans + counters without semantic changes.

:class:`TracingHook` is the tracing concern of a
:class:`~repro.par.hooks.HookedComm`: it emits one span per collective
— carrying the Table-I ``tag`` as its category and the payload size in
bytes — plus counters in a :class:`~repro.obs.metrics.MetricsRegistry`.
It only observes, so delivery order, reduction order and fault behaviour
are the transport's.

Failure semantics: a :class:`~repro.errors.RankFailureError` unwinding a
collective closes the open span with ``error=True`` and bumps the
``comm.failures.detected`` counter.  The ULFM-style recovery verbs
(``agree``, ``shrink``) appear as explicit ``recovery`` spans, so a
merged trace shows the full detect → agree → shrink timeline; the same
tracer and metrics carry on across the shrink.

:class:`TracedExecutor` is the instrumented lock-step worker kernel: the
same tree-agnostic :class:`~repro.engines.executor.DescriptorExecutor`,
but every descriptor execution, evaluation, sumtable build and derivative
batch is timed and counted (``kernel.ops.*``).
"""

from __future__ import annotations

from repro.engines.executor import DescriptorExecutor
from repro.errors import RankFailureError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import KIND_COMM, KIND_KERNEL, KIND_RECOVERY, Tracer
from repro.par.comm import payload_nbytes
from repro.par.hooks import CommHook

__all__ = ["TracingHook", "TracedExecutor"]


class TracingHook(CommHook):
    """Span- and counter-emitting hook."""

    def __init__(self, tracer: Tracer,
                 metrics: MetricsRegistry | None = None) -> None:
        self.tracer = tracer
        self.metrics = metrics

    def around(self, call, proceed):
        """Run the call under a span; count calls/bytes per collective
        and per tag.  ``nbytes`` is the payload this rank contributes, or
        — for pure receives (non-root bcast/scatter, recv) — the payload
        it obtains."""
        name, tag = call.verb, call.tag
        nbytes = payload_nbytes(call.obj)
        with self.tracer.span(name, kind=KIND_COMM, category=tag,
                              nbytes=nbytes) as span:
            try:
                result = proceed(call)
            except RankFailureError:
                if self.metrics is not None:
                    self.metrics.counter("comm.failures.detected").inc()
                raise
            if nbytes == 0 and result is not None:
                nbytes = payload_nbytes(result)
                if span is not None:
                    span.nbytes = nbytes
        if self.metrics is not None:
            m = self.metrics
            m.counter(f"comm.calls.{name}").inc()
            m.counter(f"comm.bytes.{name}").inc(nbytes)
            m.counter(f"comm.calls.tag.{tag}").inc()
            m.counter(f"comm.bytes.tag.{tag}").inc(nbytes)
            m.histogram(f"comm.payload_nbytes.{name}").observe(nbytes)
        return result

    def agree(self, failed, proceed):
        with self.tracer.span("agree", kind=KIND_RECOVERY,
                              suspected=sorted(int(r) for r in failed)) as s:
            agreed = proceed(failed)
            if s is not None:
                s.attrs["agreed"] = sorted(agreed)
        if self.metrics is not None:
            self.metrics.counter("recovery.agree_rounds").inc()
        return agreed

    def shrink(self, failed_world, proceed):
        with self.tracer.span("shrink", kind=KIND_RECOVERY,
                              failed_world=list(failed_world)) as s:
            shrunk = proceed(failed_world)
            if s is not None:
                s.attrs["new_size"] = shrunk.size
                s.attrs["new_rank"] = shrunk.rank
        if self.metrics is not None:
            self.metrics.counter("recovery.shrinks").inc()
            self.metrics.gauge("comm.size").set(shrunk.size)
        return shrunk


class TracedExecutor(DescriptorExecutor):
    """Lock-step worker kernel with kernel-op spans and counters.

    ``profiler`` (an :class:`~repro.obs.hotspots.OpProfiler`) adds per-op
    wall-time/FLOP accounting inside the batch spans; omitted, the
    inherited null profiler keeps the per-op hooks free.
    """

    def __init__(self, parts, node_taxon, tracer: Tracer,
                 metrics: MetricsRegistry | None = None,
                 profiler=None) -> None:
        super().__init__(parts, node_taxon)
        self.tracer = tracer
        self.metrics = metrics
        if profiler is not None:
            self.profiler = profiler

    def _count(self, name: str, amount: float) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _on_evict(self, count: int, nbytes: int) -> None:
        """Surface CLV evictions (cache-reuse baseline signal)."""
        if self.metrics is not None:
            self.metrics.counter("clv.evictions").inc(count)
            # cumulative bytes freed so far (gauge: merge keeps the max)
            self.metrics.gauge("clv.freed_bytes").set(
                float(sum(self._clv_evicted_bytes)))
        self.tracer.instant("clv_evict", kind=KIND_KERNEL,
                            count=count, nbytes=nbytes)

    def run_ops(self, wire: list[tuple]) -> None:
        n_ops = len(wire)
        with self.tracer.span("run_ops", kind=KIND_KERNEL, n_ops=n_ops):
            super().run_ops(wire)
        self._count("kernel.ops.newview", n_ops * self.n_partitions)
        self._count("kernel.calls.run_ops", 1)

    def evaluate(self, u_id: int, v_id: int, t_root):
        with self.tracer.span("evaluate", kind=KIND_KERNEL):
            result = super().evaluate(u_id, v_id, t_root)
        self._count("kernel.ops.evaluate", self.n_partitions)
        return result

    def sumtables(self, u_id: int, v_id: int):
        with self.tracer.span("sumtables", kind=KIND_KERNEL):
            result = super().sumtables(u_id, v_id)
        self._count("kernel.ops.sumtable", self.n_partitions)
        return result

    def derivatives(self, tables, t, n_branch_sets: int):
        with self.tracer.span("derivatives", kind=KIND_KERNEL):
            result = super().derivatives(tables, t, n_branch_sets)
        self._count("kernel.ops.derivative", self.n_partitions)
        return result
