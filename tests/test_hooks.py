"""HookedComm: one communicator, an ordered list of interception hooks.

* the chain runs hooks outermost first around every verb, and gives
  each hook its own ``agree``/``shrink`` callback; a shrink keeps the
  same hook objects on the renumbered communicator;
* the composed stack, live: a 2-rank decentralized run with tracing,
  fault injection (a trigger that never fires), heartbeat monitoring and
  the sanitizer all on.  The launcher installs the hooks in the
  documented order, and the tracer's comm spans, the heartbeat call
  index and the injector's call counter all count the application
  collectives, never the sanitizer's control rounds.
"""

import pytest

import repro.engines.launch as launch
from repro.datasets import partitioned_workload
from repro.obs.export import read_jsonl
from repro.obs.heartbeat import heartbeat_path, read_heartbeat
from repro.par.faultcomm import FaultInjector, FaultPlan
from repro.par.hooks import CommHook, HookedComm
from repro.par.sanitize import SANITIZE_TAG
from repro.par.seqcomm import SequentialComm
from repro.search.search import SearchConfig
from repro.tree.newick import write_newick

QUICK = SearchConfig(max_iterations=2, radius_max=2, model_opt=False)


class _Recorder(CommHook):
    def __init__(self, name, log):
        self.name = name
        self.log = log

    def around(self, call, proceed):
        self.log.append((self.name, "enter", call.verb, call.tag))
        try:
            return proceed(call)
        finally:
            self.log.append((self.name, "exit", call.verb, call.tag))

    def agree(self, failed, proceed):
        self.log.append((self.name, "agree", tuple(sorted(failed))))
        return proceed(failed)

    def shrink(self, failed_world, proceed):
        self.log.append((self.name, "shrink", failed_world))
        return proceed(failed_world)


class _ShrinkableComm(SequentialComm):
    def shrink(self, failed):
        return _ShrinkableComm()


class TestHookChain:
    def test_hooks_nest_outermost_first(self):
        log: list = []
        comm = HookedComm(SequentialComm(),
                          [_Recorder("outer", log), _Recorder("inner", log)])
        assert comm.allreduce(2.0, tag="t") == 2.0
        assert log == [
            ("outer", "enter", "allreduce", "t"),
            ("inner", "enter", "allreduce", "t"),
            ("inner", "exit", "allreduce", "t"),
            ("outer", "exit", "allreduce", "t"),
        ]
        assert comm.calls_by_tag["t"] == 1  # one transport call

    def test_recovery_callbacks_and_shrink_keep_hooks(self):
        log: list = []
        hooks = [_Recorder("outer", log), _Recorder("inner", log)]
        comm = HookedComm(_ShrinkableComm(), hooks)
        assert comm.agree({2}) == frozenset({2})
        shrunk = comm.shrink(frozenset())
        assert log == [
            ("outer", "agree", (2,)), ("inner", "agree", (2,)),
            ("outer", "shrink", ()), ("inner", "shrink", ()),
        ]
        assert isinstance(shrunk, HookedComm)
        assert shrunk.hooks == tuple(hooks)
        assert shrunk.inner is not comm.inner


@pytest.fixture(scope="module")
def setup():
    wl = partitioned_workload(4, n_taxa=8, sites_per_partition=30)
    lik = wl.build_likelihood("gamma")
    return lik.parts, lik.taxa, write_newick(wl.tree)


class TestComposedStack:
    def test_all_hooks_count_the_application_collectives(
        self, setup, tmp_path, monkeypatch
    ):
        parts, taxa, newick = setup
        probe = tmp_path / "probe"
        probe.mkdir()
        climb = launch.hill_climb

        def probed_climb(backend, config):
            # the search issues the rank's last collective; record the
            # hook stack it ran on (forked ranks inherit this patch)
            result = climb(backend, config)
            hooks = backend.comm.hooks
            (injector,) = [h for h in hooks if isinstance(h, FaultInjector)]
            (probe / f"rank{backend.comm.rank}").write_text(
                " ".join([str(injector.calls)]
                         + [type(h).__name__ for h in hooks]))
            return result

        monkeypatch.setattr(launch, "hill_climb", probed_climb)
        monitor_dir = tmp_path / "monitor"
        results = launch.run_decentralized(
            parts, taxa, newick, n_ranks=2, config=QUICK, sanitize=True,
            trace_dir=tmp_path / "trace", monitor_dir=monitor_dir,
            beat_interval=0.05,
            fault_plan=FaultPlan.kill(rank=1, at_call=10**9),
        )
        spans_by_rank = []
        for rank, res in enumerate(results):
            calls, *stack = (probe / f"rank{rank}").read_text().split()
            assert stack == ["TracingHook", "FaultInjector",
                             "HeartbeatHook", "Sanitizer"]
            records = read_jsonl(res.trace_path)
            assert all(r.get("category") != SANITIZE_TAG for r in records)
            spans = sum(1 for r in records if r["kind"] == "comm")
            beat = read_heartbeat(heartbeat_path(monitor_dir, rank))
            # one check per application collective; of a check's gather
            # and bcast, a 2-rank transport ledger records one per rank
            checks = res.calls_by_tag[SANITIZE_TAG]
            assert spans > 0
            assert spans == beat["calls"] == int(calls) == checks
            spans_by_rank.append(spans)
        # on the non-root rank the transport ledger counts each
        # collective once (rank 0, the reduce root, also counts the
        # bcast half of every allreduce)
        ledger = results[1].calls_by_tag
        assert spans_by_rank[1] == (sum(ledger.values())
                                    - ledger[SANITIZE_TAG])
