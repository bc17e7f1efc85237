"""The output check every delivered report must pass (the paper's contract).

1. Every query of the session's log is expressible by the delivered
   difftree: ``assignment_for(report.difftree, q)`` is not ``None``.
2. The delivered cost equals a from-scratch reference evaluation of the
   delivered widget tree over the log the interface was costed for
   (``report.result.queries``), exactly.

Digests are ``(cost, difftree.canonical_key)`` pairs: both are stable
across processes, unlike ``Node.fingerprint`` or symbol ids.  The check
runs outside every timed interval.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

Digest = Tuple[str, str]


def digest(report) -> Digest:
    """The process-independent identity of a delivered interface."""
    return (float(report.cost).hex(), report.difftree.canonical_key)


class ContractChecker:
    """Checks reports; memoizes per (interface, log) pair.

    A cache hit hands back the interface object an earlier refresh got,
    so re-checking it against the same log would repeat identical work.
    """

    def __init__(self, screen, weights) -> None:
        self.screen = screen
        self.weights = weights
        self._done: Dict[Tuple[int, Tuple[str, ...]], Tuple[object, Optional[str]]] = {}

    def forget(self) -> None:
        """Drop the memo, and the interfaces it keeps alive."""
        self._done.clear()

    def check(self, report, log: Sequence, log_keys: Tuple[str, ...]) -> Optional[str]:
        """``None`` when the report meets the contract, else why not."""
        memo_key = (id(report.result), log_keys)
        hit = self._done.get(memo_key)
        if hit is not None:
            return hit[1]
        problem = self._check(report, log)
        # Holding the result keeps its id from being reused by another.
        self._done[memo_key] = (report.result, problem)
        return problem

    def _check(self, report, log: Sequence) -> Optional[str]:
        from repro.cost import CostModel
        from repro.difftree import assignment_for

        tree = report.difftree
        missing = sum(1 for query in log if assignment_for(tree, query) is None)
        if missing:
            return f"{missing} of {len(log)} log queries not expressible"
        if report.log_size != len(report.result.queries):
            return f"log_size {report.log_size} != {len(report.result.queries)} queries"
        model = CostModel(report.result.queries, self.screen, self.weights)
        reference = model.evaluate_reference(tree, report.widget_tree).total
        if reference != report.cost:
            return f"cost {report.cost!r} != reference {reference!r}"
        return None


def compare_sequences(
    expected: Sequence[Digest], actual: Sequence[Digest]
) -> List[int]:
    """Positions where two delivered-digest sequences disagree."""
    bad = [i for i, (a, b) in enumerate(zip(expected, actual)) if a != b]
    longer = max(len(expected), len(actual))
    bad += list(range(min(len(expected), len(actual)), longer))
    return bad
