"""Outside-in span tracing: wrap each layer's public entry points.

The benchmark patches the entry points listed by :func:`targets` for the
traced pass only and restores them afterwards; the program itself is not
instrumented.  Spans are kept in memory as ``[name, parent, start, end]``
records with parent links, and a layer's self time is its spans'
duration minus the part covered by their child spans.

Module-level functions are patched in the namespace that *calls* them
(``repro.serve.stream.parse``, not ``repro.sqlast.parse``), because the
callers bound the name at import time.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple


def targets() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    import repro.serve.incremental as incremental
    import repro.serve.stream as stream
    from repro.cost import CostModel
    from repro.cost.batch import BatchCostKernel
    from repro.cost.kernel import CompiledSequence, CostKernel
    from repro.engine import Engine
    from repro.rules import RuleEngine
    from repro.search.carry import CarriedTree
    from repro.search.common import StateEvaluator
    from repro.search.mcts import MCTS, MCTSTask
    from repro.serve import InterfaceCache, SessionRouter

    return [
        (Engine, "_session_interface", "engine"),
        (incremental.IncrementalGenerator, "open_search", "serve.open_search"),
        (incremental.PendingSearch, "finish", "serve.finish"),
        (incremental.IncrementalGenerator, "retain", "serve.retain"),
        (incremental, "prepare_search", "difftree.build"),
        (incremental, "extend_difftree", "difftree.graft"),
        (SessionRouter, "append", "serve.stream.append"),
        (stream, "parse", "sqlast.parse"),
        (InterfaceCache, "get", "serve.cache.lookup"),
        (InterfaceCache, "put", "serve.cache.put"),
        (MCTS, "open", "search.mcts.open"),
        (MCTSTask, "step", "search.mcts"),
        (StateEvaluator, "seed_incumbent", "search.seed"),
        (StateEvaluator, "finalize", "search.finalize"),
        (CarriedTree, "rebase", "search.carry.rebase"),
        (CarriedTree, "harvest", "search.carry.harvest"),
        (RuleEngine, "random_move", "rules.random_move"),
        (RuleEngine, "apply", "rules.apply"),
        (RuleEngine, "moves", "rules.moves"),
        (CostModel, "kernel_for", "cost.kernel_compile"),
        (CostModel, "batch_kernel_for", "cost.batch_compile"),
        (CompiledSequence, "compile", "cost.sequence_compile"),
        (CompiledSequence, "extend", "cost.sequence_compile"),
        (CompiledSequence, "without", "cost.sequence_retract"),
        (CostKernel, "set_vector", "cost.kernel.eval"),
        (CostKernel, "apply_delta", "cost.kernel.eval"),
        (CostKernel, "materialize", "widgets.materialize"),
        (BatchCostKernel, "set_population", "cost.batch.eval"),
        (BatchCostKernel, "enumerate_best", "cost.batch.eval"),
    ]


#: Span names of the search-side layers (rules, cost, widgets, search);
#: their self time is what a search-layer change moves.
SEARCH_LAYERS = ("search.", "rules.", "cost.", "widgets.", "difftree.")

#: The span the benchmark opens around each timed refresh.  Its self
#: time is refresh time that no layer span covers.
REFRESH = "bench.refresh"


class Tracer:
    """Records spans of the wrapped entry points while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: ``(owner, attribute, original, owned)``: ``owned`` is False
        #: when the attribute was inherited, so uninstall deletes it.
        self._patches: List[Tuple[object, str, object, bool]] = []
        #: Model objects built while active; their counters are the
        #: compile/eval work counts (read from stats, not from calls).
        self.models: List[object] = []

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def begin(self, name: str) -> int:
        """Open a span by hand (the benchmark's own refresh span)."""
        position = len(self.spans)
        record = [self._name(name), self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self._stack.append(position)
        self.spans.append(record)
        record[2] = perf_counter()
        return position

    def end(self, position: int) -> None:
        self.spans[position][3] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        index = self._name(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [index, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Patch every target (idempotent per tracer)."""
        if self._patches:
            return
        for owner, attr, name in targets():
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name))
            else:
                patched = self._wrap(raw, name)
            self._patches.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr, patched)
        from repro.cost import CostModel

        original_init = CostModel.__init__
        models = self.models

        @functools.wraps(original_init)
        def init(model, *args, **kwargs):
            original_init(model, *args, **kwargs)
            if self.active:
                models.append(model)

        self._patches.append((CostModel, "__init__", original_init, True))
        CostModel.__init__ = init

    def uninstall(self) -> None:
        for owner, attr, raw, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches = []

    def reset(self) -> None:
        """Drop recorded spans and models (between rounds)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()
        self.models.clear()

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], List[float]]:
        """Self seconds and call counts per span name, plus per-span
        covered seconds (time inside the span that a child covers)."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for i, (name, _, start, end) in enumerate(spans):
            self_s[self.names[name]] += end - start - covered[i]
            calls[self.names[name]] += 1
        return dict(self_s), dict(calls), covered
