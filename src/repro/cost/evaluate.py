"""State evaluation: the best widget tree (and cost) of a difftree.

During MCTS the reward of a difftree state is estimated by sampling ``k``
widget assignments and keeping the cheapest (paper: "we randomly assign
widgets to the difftree k times and select the lowest cost"); we seed the
samples with the greedy assignment, which empirically tightens the
estimate at no extra cost.  After the search, the winning difftree gets a
thorough optimization pass: exhaustive enumeration when the decision
product is small, coordinate descent otherwise.

All paths run through the compiled kernel (:mod:`repro.cost.kernel`):
candidates are *decision vectors*, scored against flat arrays with delta
re-evaluation between enumeration neighbors, and only the winning vector
is materialized back into a real widget tree (for sampled states, only
once someone reads it).  Candidate order, RNG
consumption, and tie-breaking replicate the pre-kernel implementations
exactly, so results are bit-for-bit unchanged — just cheaper.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from .. import memo as _memo
from ..difftree import DTNode
from ..widgets.tree import ORIENTATIONS, SIZE_CLASSES, WidgetNode
from .batch import STATS as _BATCH_STATS
from .batch import BatchCostKernel
from .kernel import CostBreakdown, CostKernel
from .model import CostModel

#: Population chunk size of the batched enumeration pass: large enough
#: to amortize the per-batch numpy overhead, small enough to keep the
#: nodes × candidates working set in cache.
_ENUM_CHUNK = 256

#: Smallest one-shot population worth compiling a batch kernel for.
#: Measured on the sdss workload: a batch compile costs ~400us and a
#: K=6 population pass only breaks even with six scalar evaluations, so
#: a state scored once (the search layer caches per state) needs K in
#: the mid-teens before the compile amortizes.  Reused batch kernels
#: (coordinate descent) skip this floor.
_MIN_BATCH_POPULATION = 16


def _batch_for(
    model: CostModel, tree: DTNode, population: int, reused: bool = False
) -> Optional[BatchCostKernel]:
    """The batch kernel when batching ``population`` candidates pays off.

    ``None`` routes the caller to the scalar path: the gate is off, the
    population is too small for a one-shot batch to beat scalar deltas
    (see ``_MIN_BATCH_POPULATION``; ``reused=True`` lifts the floor for
    callers that score many populations against one kernel), or batch
    compilation is unavailable — only the last case counts as a
    *fallback* (the batched path was wanted but could not run).
    """
    if population < (2 if reused else _MIN_BATCH_POPULATION):
        return None
    if not _memo.batch_enabled():
        return None
    batch = model.batch_kernel_for(tree)
    if batch is None:
        _BATCH_STATS.fallback_scalar_evals += population
        model.kernel_stats.batch_fallback_evals += population
    return batch


class EvaluatedInterface:
    """A widget tree together with its cost under a model.

    Most sampled search states are only ever compared by cost, so
    :func:`sampled_evaluation` returns a *deferred* evaluation: it keeps
    the winning decision vector and the cost model, derives the widget
    tree on the first :attr:`widget_tree` read, and then drops the
    model.  :func:`repro.search.common.finish_search` reads the widget
    tree of the interface it delivers, so no delivered report keeps a
    model (and the kernels it caches) alive.

    Immutable; equality, hashing, ``repr`` and pickling see the widget
    tree, deriving it first if needed.
    """

    __slots__ = ("tree", "breakdown", "_widget_tree", "_pending")

    def __init__(
        self, tree: DTNode, widget_tree: WidgetNode, breakdown: CostBreakdown
    ) -> None:
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "breakdown", breakdown)
        object.__setattr__(self, "_widget_tree", widget_tree)
        #: ``(model, vector)`` until the widget tree is derived.
        object.__setattr__(self, "_pending", None)

    @classmethod
    def deferred(
        cls,
        model: CostModel,
        tree: DTNode,
        vector: Tuple[object, ...],
        breakdown: CostBreakdown,
    ) -> "EvaluatedInterface":
        """An evaluation whose widget tree is derived on first read."""
        evaluated = cls(tree, None, breakdown)  # type: ignore[arg-type]
        object.__setattr__(evaluated, "_pending", (model, vector))
        return evaluated

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("EvaluatedInterface is immutable")

    @property
    def widget_tree(self) -> WidgetNode:
        widget_tree = self._widget_tree
        if widget_tree is None:
            pending = self._pending
            if pending is None:  # derived meanwhile by another thread
                return self._widget_tree
            model, vector = pending
            widget_tree = model.kernel_for(self.tree).materialize(vector)
            object.__setattr__(self, "_widget_tree", widget_tree)
            object.__setattr__(self, "_pending", None)
        return widget_tree

    @property
    def deferred_pending(self) -> bool:
        """Whether the widget tree is still underived (a model is held)."""
        return self._pending is not None

    def materialize(self) -> "EvaluatedInterface":
        """Derive the widget tree now, dropping the model; returns self."""
        self.widget_tree
        return self

    @property
    def cost(self) -> float:
        return self.breakdown.total

    @property
    def rank(self):
        """Feasibility-aware comparison key (see CostBreakdown.rank)."""
        return self.breakdown.rank

    def _fields(self) -> Tuple[DTNode, WidgetNode, CostBreakdown]:
        return (self.tree, self.widget_tree, self.breakdown)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvaluatedInterface):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"EvaluatedInterface(tree={self.tree!r}, "
            f"widget_tree={self.widget_tree!r}, breakdown={self.breakdown!r})"
        )

    def __reduce__(self):
        return (EvaluatedInterface, self._fields())


def _materialized(
    kernel: CostKernel, vector: Sequence[object], breakdown: CostBreakdown
) -> EvaluatedInterface:
    return EvaluatedInterface(
        kernel.tree, kernel.materialize(vector), breakdown
    )


def sampled_evaluation(
    model: CostModel,
    tree: DTNode,
    k: int = 5,
    rng: Optional[random.Random] = None,
    include_greedy: bool = True,
) -> EvaluatedInterface:
    """Best of ``k`` sampled widget assignments for ``tree``.

    Samples are decision vectors drawn with the same RNG consumption as
    chooser-driven derivation.  The result is deferred (see
    :class:`EvaluatedInterface`): the winner becomes a widget tree only
    if someone reads it.
    """
    rng = rng or random.Random(0)
    kernel = model.kernel_for(tree)
    vectors: List[List[object]] = []
    if include_greedy:
        vectors.append(kernel.schema.greedy_vector())
        k = max(0, k - 1)
    for _ in range(k):
        vectors.append(kernel.schema.random_vector(rng))
    # RNG consumption is complete before any scoring happens, so the
    # batched and scalar paths see identical sample populations — the
    # batch gate changes throughput, never results.
    batch = _batch_for(model, tree, len(vectors))
    if batch is not None:
        bb = batch.evaluate_population(vectors)
        j = bb.best_index()
        return EvaluatedInterface.deferred(
            model, tree, tuple(vectors[j]), bb.breakdown(j)
        )
    best_vector: Optional[Tuple[object, ...]] = None
    best: Optional[CostBreakdown] = None
    for vector in vectors:
        breakdown = kernel.evaluate(vector)
        if best is None or breakdown.rank < best.rank:
            best = breakdown
            best_vector = tuple(vector)
    assert best is not None and best_vector is not None
    return EvaluatedInterface.deferred(model, tree, best_vector, best)


def exhaustive_evaluation(
    model: CostModel, tree: DTNode, cap: int = 4000
) -> EvaluatedInterface:
    """Best widget tree over the (capped) full decision product.

    Enumerates decision vectors with per-candidate delta re-evaluation
    (the kernel patches only what each single choice change touched).
    Falls back to coordinate descent when the product exceeds ``cap`` —
    the cap keeps the paper's "enumerate all possible widget trees for
    the final difftree" tractable for large interfaces.
    """
    kernel = model.kernel_for(tree)
    if kernel.schema.num_assignments <= cap:
        batch = _batch_for(
            model, tree, min(kernel.schema.num_assignments, cap)
        )
        if batch is not None:
            return _batched_enumeration(kernel, batch, cap)
        best_vector: Optional[Tuple[object, ...]] = None
        best: Optional[CostBreakdown] = None
        for vector, breakdown in kernel.iter_enumeration(cap=cap):
            if best is None or breakdown.rank < best.rank:
                best = breakdown
                best_vector = vector
        assert best is not None and best_vector is not None
        return _materialized(kernel, best_vector, best)
    return coordinate_descent(model, tree)


def _batched_enumeration(
    kernel: CostKernel, batch: BatchCostKernel, cap: int
) -> EvaluatedInterface:
    """Score the enumeration product in delta-fed population chunks.

    Candidate order, winner, and tie-breaking match
    :meth:`CostKernel.iter_enumeration` exactly (see
    :meth:`BatchCostKernel.enumerate_best`).
    """
    vector, breakdown = batch.enumerate_best(cap=cap, chunk=_ENUM_CHUNK)
    return _materialized(kernel, vector, breakdown)


def coordinate_descent(
    model: CostModel, tree: DTNode, max_rounds: int = 6
) -> EvaluatedInterface:
    """Optimize decisions one at a time until a fixpoint (local optimum).

    Each trial move is one kernel delta (patch + breakdown), not a full
    rebuild; the loop structure and visit order match the pre-kernel
    implementation so the fixpoint is identical.  With the batch gate on,
    each index's whole option population is scored in one batched call —
    the first-minimum column reproduces the scalar scan's sequential
    takeover semantics exactly, so the fixpoint (and every breakdown
    field) is unchanged.
    """
    kernel = model.kernel_for(tree)
    batch = _batch_for(model, tree, 2, reused=True)
    if batch is not None:
        return _coordinate_descent_batched(kernel, batch, max_rounds)
    schema = kernel.schema
    widget_indices = schema.widget_indices
    orientation_indices = schema.orientation_indices
    vector = schema.greedy_vector()
    kernel.set_vector(vector)
    current = kernel.breakdown()
    best_vector = tuple(vector)
    for _ in range(max_rounds):
        improved = False
        for index in widget_indices:
            original = vector[index]
            for name in schema.decisions[index].candidates:
                for size_class in SIZE_CLASSES:
                    if (name, size_class) == original:
                        continue
                    vector[index] = (name, size_class)
                    kernel.apply_delta(index, (name, size_class))
                    candidate = kernel.breakdown()
                    if candidate.rank < current.rank:
                        current = candidate
                        original = (name, size_class)
                        best_vector = tuple(vector)
                        improved = True
            vector[index] = original
            kernel.apply_delta(index, original)
        for index in orientation_indices:
            original = vector[index]
            for orientation in ORIENTATIONS:
                if orientation == original:
                    continue
                vector[index] = orientation
                kernel.apply_delta(index, orientation)
                candidate = kernel.breakdown()
                if candidate.rank < current.rank:
                    current = candidate
                    original = orientation
                    best_vector = tuple(vector)
                    improved = True
            vector[index] = original
            kernel.apply_delta(index, original)
        if not improved:
            break
    return _materialized(kernel, best_vector, current)


def _coordinate_descent_batched(
    kernel: CostKernel, batch: BatchCostKernel, max_rounds: int
) -> EvaluatedInterface:
    """Coordinate descent with per-index option populations batched.

    Equivalent to the scalar scan: within one index, a scalar takeover
    chain always ends on the *first* candidate attaining the scan's
    minimal rank (each takeover strictly lowers the bar, and nothing
    after the first global minimum can beat it) — which is exactly
    ``best_index``'s first-minimum column.  ``improved`` is then "the
    scan minimum beat the rank current at scan start".
    """
    schema = kernel.schema
    vector = schema.greedy_vector()
    kernel.set_vector(vector)
    current = kernel.breakdown()
    current_rank = current.rank
    best_vector = tuple(vector)
    for _ in range(max_rounds):
        improved = False
        for index in schema.enumeration_indices:
            original = vector[index]
            options = [o for o in schema.options_for(index) if o != original]
            if not options:
                continue
            population: List[Tuple[object, ...]] = []
            for option in options:
                vector[index] = option
                population.append(tuple(vector))
            vector[index] = original
            bb = batch.evaluate_population(population)
            j = bb.best_index()
            rank = bb.rank(j)
            if rank < current_rank:
                current = bb.breakdown(j)
                current_rank = rank
                vector[index] = options[j]
                best_vector = tuple(vector)
                improved = True
        if not improved:
            break
    return _materialized(kernel, best_vector, current)


def worst_sampled_evaluation(
    model: CostModel,
    tree: DTNode,
    k: int = 20,
    rng: Optional[random.Random] = None,
) -> EvaluatedInterface:
    """The *worst feasible* of ``k`` random widget assignments.

    Used to regenerate paper Figure 6(d): a low-reward interface showing
    that poor widget choices are easily possible.
    """
    rng = rng or random.Random(0)
    kernel = model.kernel_for(tree)
    sampled = [kernel.schema.random_vector(rng) for _ in range(k)]
    batch = _batch_for(model, tree, len(sampled))
    if batch is not None:
        bb = batch.evaluate_population(sampled)
        j = bb.worst_index()
        return _materialized(kernel, tuple(sampled[j]), bb.breakdown(j))
    worst: Optional[CostBreakdown] = None
    worst_vector: Optional[Tuple[object, ...]] = None
    fallback: Optional[CostBreakdown] = None
    fallback_vector: Optional[Tuple[object, ...]] = None
    for vector in sampled:
        breakdown = kernel.evaluate(vector)
        if fallback is None or breakdown.total > fallback.total:
            fallback = breakdown
            fallback_vector = tuple(vector)
        if breakdown.feasible and (worst is None or breakdown.total > worst.total):
            worst = breakdown
            worst_vector = tuple(vector)
    breakdown = worst if worst is not None else fallback
    vector = worst_vector if worst_vector is not None else fallback_vector
    assert breakdown is not None and vector is not None
    return _materialized(kernel, vector, breakdown)
