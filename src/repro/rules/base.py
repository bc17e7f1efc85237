"""Rule engine: transformation rules over difftrees (paper Figure 5).

A :class:`Rule` pattern-matches difftree nodes and produces rewritten
subtrees.  A :class:`Move` is one concrete application (rule + path +
parameters).  The :class:`RuleEngine` enumerates every applicable move of
a state — the state's *fanout* in the search graph — and applies moves,
normalizing the result so trivially-equivalent states coincide.

Every rule preserves expressibility of the input queries: the set of
queries a difftree expresses never loses a member under any move.  This
invariant is what lets MCTS roam the space freely; it is checked by the
property tests in ``tests/test_rules_properties.py``.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .. import memo as _memo
from ..difftree import DTNode, Path, normalize
from ..difftree.normalize import normalize_shallow


@dataclass(frozen=True)
class Move:
    """One concrete rule application.

    Attributes:
        rule_name: the rule's identifier.
        path: difftree path of the node the rule rewrites.
        params: rule-specific parameters (e.g. which slot to distribute,
            which run of siblings to merge), as a hashable tuple of pairs.
    """

    rule_name: str
    path: Path
    params: Tuple[Tuple[str, Any], ...] = field(default=())

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def __str__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.params)
        suffix = f" [{params}]" if params else ""
        return f"{self.rule_name}@{'/'.join(map(str, self.path)) or 'root'}{suffix}"


class Rule(abc.ABC):
    """A difftree transformation rule."""

    #: Unique rule identifier (class attribute).
    name: str = ""

    @abc.abstractmethod
    def moves_at(self, node: DTNode, path: Path) -> Iterator[Move]:
        """Yield every application of this rule rooted at ``node``.

        The moves may depend on ``node`` only; ``path`` is just stamped
        into each :class:`Move`.  The rule engine relies on this: it
        memoizes a node's moves once and re-stamps them for every path
        the (interned) node appears at.
        """

    @abc.abstractmethod
    def rewrite(self, node: DTNode, move: Move) -> DTNode:
        """Return the rewritten subtree for a move this rule produced."""


def _replace_normalized(tree: DTNode, path: Path, new: DTNode) -> DTNode:
    """Replace the subtree at ``path`` and renormalize the spine."""
    if not path:
        return new
    index = path[0]
    child = _replace_normalized(tree.children[index], path[1:], new)
    children = tree.children[:index] + (child,) + tree.children[index + 1 :]
    return normalize_shallow(tree, children)


#: ``(node, rules) -> (moves, block, counts)`` for an interned difftree
#: node under one engine's rule tuple:
#:
#: * ``moves[r]``: the moves of ``rules[r]`` rooted at the node, stamped
#:   with the empty path (see :meth:`Rule.moves_at`);
#: * ``block``: one byte per (preorder node of the subtree, rule),
#:   row-major, 1 where the rule has a move at that node;
#: * ``counts[r]``: how many moves ``rules[r]`` has in the whole subtree.
#:
#: A node's entry is its own row plus its children's entries, so a state
#: made by :meth:`RuleEngine.apply` only builds entries along the
#: rewritten spine; everything off the spine is a hit.
_SUBTREE_MOVES = _memo.memo_table(16384, name="rules.subtree_moves")

_Entry = Tuple[Tuple[Tuple[Move, ...], ...], bytes, Tuple[int, ...]]


def _entry(node: DTNode, rules: Tuple[Rule, ...]) -> _Entry:
    key = (node, rules)
    entry = _SUBTREE_MOVES.get(key)
    if entry is None:
        moves = tuple(tuple(rule.moves_at(node, ())) for rule in rules)
        counts = [len(options) for options in moves]
        parts = [bytes(1 if options else 0 for options in moves)]
        for child in node.children:
            _, block, child_counts = _entry(child, rules)
            parts.append(block)
            for r, count in enumerate(child_counts):
                counts[r] += count
        entry = (moves, b"".join(parts), tuple(counts))
        _SUBTREE_MOVES[key] = entry
    return entry


def _stamped(move: Move, path: Path) -> Move:
    return Move(move.rule_name, path, move.params)


def _locate(tree: DTNode, index: int) -> Tuple[Path, DTNode]:
    """Path and node of the ``index``-th node of ``tree`` in preorder."""
    node = tree
    path: List[int] = []
    while index:
        index -= 1  # step past ``node`` itself
        for i, child in enumerate(node.children):
            if index < child._size:
                path.append(i)
                node = child
                break
            index -= child._size
    return tuple(path), node


def _getrandbits_of(rng: random.Random) -> Optional[Callable[[int], int]]:
    """``rng.getrandbits`` when ``rng.choice`` is built on it, else None.

    ``Random.choice(seq)`` is ``seq[rng._randbelow(len(seq))]``.  For
    generators whose ``_randbelow`` is the getrandbits-based one
    (``random.Random``, ``random.SystemRandom``) that is rejection
    sampling on ``getrandbits(n.bit_length())``, which the sampler
    inlines because rollouts draw over a million indices per search.
    """
    if getattr(type(rng), "_randbelow", None) is random.Random._randbelow:
        return rng.getrandbits
    return None


def _first_hit(
    rng: random.Random,
    n: int,
    columns: Tuple[int, ...],
    block: bytes,
    width: int,
) -> Optional[Tuple[int, int]]:
    """Up to ``4 * n`` (node, rule) draws; the first set cell of ``block``.

    Each try draws a preorder index below ``n`` and then a position in
    ``columns``, exactly as ``rng.choice`` over the path list and the
    rule list would.  Returns ``(index, column)`` or None if all missed.
    """
    num_columns = len(columns)
    getrandbits = _getrandbits_of(rng)
    if getrandbits is None:
        for _ in range(4 * n):
            index = rng.choice(range(n))
            column = rng.choice(columns)
            if block[index * width + column]:
                return index, column
        return None
    bits_n = n.bit_length()
    bits_c = num_columns.bit_length()
    for _ in range(4 * n):
        index = getrandbits(bits_n)
        while index >= n:
            index = getrandbits(bits_n)
        c = getrandbits(bits_c)
        while c >= num_columns:
            c = getrandbits(bits_c)
        column = columns[c]
        if block[index * width + column]:
            return index, column
    return None


class RuleEngine:
    """Enumerates and applies moves over whole difftrees.

    Move enumeration and sampling read a per-node memo (see
    ``_SUBTREE_MOVES``) keyed by the engine's rule tuple, so the rules'
    ``moves_at`` runs once per distinct subtree, not once per state.
    """

    def __init__(self, rules: Sequence[Rule]) -> None:
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {names}")
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self._by_name: Dict[str, Rule] = {rule.name: rule for rule in rules}
        self._all_columns: Tuple[int, ...] = tuple(range(len(self.rules)))

    def rule(self, name: str) -> Rule:
        return self._by_name[name]

    def moves(self, tree: DTNode) -> List[Move]:
        """Every applicable move anywhere in ``tree`` (the state fanout).

        Path-major (preorder) and rule-minor; subtrees without moves
        are skipped.
        """
        rules = self.rules
        out: List[Move] = []
        stack: List[Tuple[DTNode, Path]] = [(tree, ())]
        while stack:
            node, path = stack.pop()
            moves, _, counts = _entry(node, rules)
            if not any(counts):
                continue
            for options in moves:
                for move in options:
                    out.append(_stamped(move, path))
            for i in range(len(node.children) - 1, -1, -1):
                stack.append((node.children[i], path + (i,)))
        return out

    def apply(self, tree: DTNode, move: Move) -> DTNode:
        """Apply ``move`` to ``tree`` and return the normalized result.

        Only the rewritten subtree is fully normalized; the spine from the
        rewrite site to the root is renormalized shallowly (everything off
        the spine was already normalized), so an application costs
        O(subtree + depth) instead of O(tree).
        """
        rule = self._by_name[move.rule_name]
        target = tree.at(move.path)
        rewritten = normalize(rule.rewrite(target, move))
        return _replace_normalized(tree, move.path, rewritten)

    def neighbors(self, tree: DTNode) -> List[Tuple[Move, DTNode]]:
        """All (move, successor-state) pairs, deduplicated by state.

        Self-loops (moves that normalize back to the same state) are
        dropped.
        """
        seen = {tree.canonical_key}
        out: List[Tuple[Move, DTNode]] = []
        for move in self.moves(tree):
            successor = self.apply(tree, move)
            key = successor.canonical_key
            if key in seen:
                continue
            seen.add(key)
            out.append((move, successor))
        return out

    def fanout(self, tree: DTNode) -> int:
        """Number of applicable moves (the paper's fanout statistic)."""
        return sum(_entry(tree, self.rules)[2])

    def random_move(
        self,
        tree: DTNode,
        rng: random.Random,
        rule_names: Optional[Sequence[str]] = None,
    ) -> Optional[Move]:
        """Sample one applicable move without enumerating all of them.

        Draws a preorder node and then a rule, up to ``4 * n`` times for
        a tree of ``n`` nodes, and returns a uniformly drawn move of the
        first (node, rule) pair that applies.  When every try misses
        (sparsely applicable states), it returns a move drawn uniformly
        from all moves of the allowed rules, or ``None`` if there are
        none.  The distribution is uniform over nodes rather than over
        moves — fine for rollouts, which only need diversity, not
        exactness.

        A try is one byte lookup in the state's memoized applicability
        block, and a hit or a fallback descends on subtree sizes and
        move counts, so a call costs its random draws plus O(depth).
        The draws are exactly those of ``rng.choice`` over the preorder
        path list, the rule list and the move list, in that order, so
        seed-fixed walks do not depend on the memo.
        """
        rules = self.rules
        if rule_names is None:
            columns = self._all_columns
        else:
            wanted = set(rule_names)
            columns = tuple(i for i, rule in enumerate(rules) if rule.name in wanted)
            if not columns:
                return None
        _, block, counts = _entry(tree, rules)
        hit = _first_hit(rng, tree._size, columns, block, len(rules))
        if hit is not None:
            index, column = hit
            path, node = _locate(tree, index)
            return _stamped(rng.choice(_entry(node, rules)[0][column]), path)
        total = sum(counts[c] for c in columns)
        if not total:
            return None
        return self._nth_move(tree, columns, rng.choice(range(total)))

    def _nth_move(self, tree: DTNode, columns: Tuple[int, ...], k: int) -> Move:
        """The ``k``-th move of ``tree`` by the rules in ``columns``.

        Moves are ordered as :meth:`moves` lists them; the descent skips
        whole subtrees by their memoized move counts.
        """
        rules = self.rules
        node = tree
        path: List[int] = []
        while True:
            moves = _entry(node, rules)[0]
            for c in columns:
                if k < len(moves[c]):
                    return _stamped(moves[c][k], tuple(path))
                k -= len(moves[c])
            for i, child in enumerate(node.children):
                counts = _entry(child, rules)[2]
                inside = sum(counts[c] for c in columns)
                if k < inside:
                    path.append(i)
                    node = child
                    break
                k -= inside
            else:
                raise AssertionError("move index beyond the subtree's move count")
