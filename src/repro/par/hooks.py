"""One communicator with an ordered list of interception hooks.

:class:`HookedComm` wraps a transport (:class:`~repro.par.mpcomm.MPComm`,
:class:`~repro.par.seqcomm.SequentialComm`, ...) and runs every verb
through a chain of :class:`CommHook` objects before the transport call.
Each hook keeps one concern's logic and state; the delegation members
(``rank``, ``size``, the byte/call ledgers, world-rank mapping) and the
eight verbs exist once, here.  Delivery order and reduction order are
the transport's: no hook changes a payload or a result, so rank-ordered
determinism (and therefore replica consistency) is preserved.

Hooks run outermost first.  The launcher installs them in this order::

    tracing -> fault injection -> heartbeat -> sanitizer -> transport

for three reasons:

1. **The sanitizer is innermost.**  Its control rounds go straight to
   the transport, so the injector and the heartbeat count application
   collectives only (their call numbers stay aligned with each other
   and with an unsanitized run), and a tracing span times the checked
   call as one unit instead of showing the control round as its own
   collective.
2. **The heartbeat sits inside fault injection.**  An injected hang
   fires before the heartbeat records the call, so the hung rank
   observably never *entered* call ``K`` while its peers wait *inside*
   ``K`` — the asymmetry :func:`repro.obs.monitor.diagnose` keys on.
3. **Tracing is outermost.**  A span covers everything the call costs
   this rank (control round, heartbeat bookkeeping, an injected stall),
   and a :class:`~repro.errors.RankFailureError` raised by any inner
   layer still closes its span with ``error=True``.

Recovery verbs get their own callbacks (:meth:`CommHook.agree`,
:meth:`CommHook.shrink`).  :meth:`HookedComm.shrink` returns a new
``HookedComm`` over the shrunk transport carrying the *same* hook
objects, so each hook decides for itself what survives the failure.

With no hooks the launcher hands out the bare transport instead of a
``HookedComm``: an uninstrumented run executes no interception code.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

from repro.par.comm import Comm, ReduceOp

__all__ = ["CommCall", "CommHook", "HookedComm"]


class CommCall:
    """One verb invocation as the hooks see it.

    ``obj`` is the payload this rank contributes (``None`` for barrier
    and recv); ``op``/``root`` are ``None`` where the verb has none.
    ``comm`` is the transport, for hooks that issue their own rounds.
    """

    __slots__ = ("comm", "verb", "tag", "obj", "op", "root", "args")

    def __init__(self, comm: Comm, verb: str, tag: str, obj: Any,
                 args: tuple, op: ReduceOp | None = None,
                 root: int | None = None) -> None:
        self.comm = comm
        self.verb = verb
        self.tag = tag
        self.obj = obj
        self.op = op
        self.root = root
        self.args = args


class CommHook:
    """One concern layered on a :class:`HookedComm`.

    Each method receives ``proceed``, the rest of the chain (inner hooks
    plus the transport), and must call it exactly once with its first
    argument.  The base class passes everything through.
    """

    def around(self, call: CommCall,
               proceed: Callable[[CommCall], Any]) -> Any:
        return proceed(call)

    def agree(self, failed,
              proceed: Callable[[Any], frozenset[int]]) -> frozenset[int]:
        return proceed(failed)

    def shrink(self, failed_world: tuple[int, ...],
               proceed: Callable[[tuple[int, ...]], Comm]) -> Comm:
        """``failed_world`` names the lost ranks in world numbering;
        ``proceed`` returns the shrunk transport."""
        return proceed(failed_world)


def _transport_call(call: CommCall) -> Any:
    return getattr(call.comm, call.verb)(*call.args)


def _chain(hooks: Sequence[CommHook], method: str,
           last: Callable[[Any], Any]) -> Callable[[Any], Any]:
    run = last
    for hook in reversed(hooks):
        run = partial(getattr(hook, method), proceed=run)
    return run


class HookedComm(Comm):
    """A transport plus an ordered hook list (outermost first)."""

    def __init__(self, inner: Comm, hooks: Sequence[CommHook]) -> None:
        self.inner = inner
        self.hooks = tuple(hooks)
        self._run = _chain(self.hooks, "around", _transport_call)

    # -- delegation -------------------------------------------------------- #
    @property
    def rank(self) -> int:
        return self.inner.rank

    @property
    def size(self) -> int:
        return self.inner.size

    @property
    def bytes_by_tag(self):
        return self.inner.bytes_by_tag

    @property
    def calls_by_tag(self):
        return self.inner.calls_by_tag

    def world_rank(self, rank: int) -> int:
        return self.inner.world_rank(rank)

    def world_ranks(self, ranks) -> tuple[int, ...]:
        return self.inner.world_ranks(ranks)

    # -- hooked verbs ------------------------------------------------------ #
    def bcast(self, obj: Any, root: int = 0, tag: str = "generic") -> Any:
        return self._run(CommCall(self.inner, "bcast", tag, obj,
                                  (obj, root, tag), root=root))

    def reduce(self, obj: Any, op: ReduceOp = ReduceOp.SUM, root: int = 0,
               tag: str = "generic") -> Any:
        return self._run(CommCall(self.inner, "reduce", tag, obj,
                                  (obj, op, root, tag), op=op, root=root))

    def allreduce(self, obj: Any, op: ReduceOp = ReduceOp.SUM,
                  tag: str = "generic") -> Any:
        return self._run(CommCall(self.inner, "allreduce", tag, obj,
                                  (obj, op, tag), op=op))

    def barrier(self, tag: str = "generic") -> None:
        return self._run(CommCall(self.inner, "barrier", tag, None, (tag,)))

    def gather(self, obj: Any, root: int = 0, tag: str = "generic"):
        return self._run(CommCall(self.inner, "gather", tag, obj,
                                  (obj, root, tag), root=root))

    def scatter(self, objs: list[Any] | None, root: int = 0,
                tag: str = "generic") -> Any:
        return self._run(CommCall(self.inner, "scatter", tag, objs,
                                  (objs, root, tag), root=root))

    def send(self, obj: Any, dest: int, tag: str = "generic") -> None:
        return self._run(CommCall(self.inner, "send", tag, obj,
                                  (obj, dest, tag)))

    def recv(self, source: int, tag: str = "generic") -> Any:
        return self._run(CommCall(self.inner, "recv", tag, None,
                                  (source, tag)))

    # -- recovery ---------------------------------------------------------- #
    def agree(self, failed) -> frozenset[int]:
        return _chain(self.hooks, "agree", self.inner.agree)(failed)

    def shrink(self, failed) -> "HookedComm":
        """Shrink the transport; the same hook objects (and so their
        state) carry over to the renumbered communicator."""
        shrunk = _chain(self.hooks, "shrink",
                        lambda _: self.inner.shrink(failed))(
            self.inner.world_ranks(failed))
        return HookedComm(shrunk, self.hooks)
