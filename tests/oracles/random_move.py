"""The enumerate-and-retry move sampler, kept as the RNG-stream oracle.

This is the sampler :meth:`repro.rules.RuleEngine.random_move` used
before it memoized move sampling per interned node.  It rebuilds the
preorder path list on every call, calls ``rule.moves_at`` on every try,
and falls back to enumerating every move of the tree when ``4 * n``
tries all miss.  The memoized sampler must draw exactly the same random
numbers in the same order and return the same moves.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.difftree import DTNode
from repro.rules import Move, RuleEngine


def moves_reference(engine: RuleEngine, tree: DTNode) -> List[Move]:
    """Every applicable move, path-major and rule-minor, by full walk."""
    out: List[Move] = []
    for path, node in tree.walk_paths():
        for rule in engine.rules:
            out.extend(rule.moves_at(node, path))
    return out


def random_move_reference(
    engine: RuleEngine,
    tree: DTNode,
    rng: random.Random,
    rule_names: Optional[Sequence[str]] = None,
) -> Optional[Move]:
    """Sample a node, then a rule, up to ``4 * n`` times; then enumerate."""
    paths = [path for path, _ in tree.walk_paths()]
    if rule_names is None:
        rules = list(engine.rules)
    else:
        rules = [r for r in engine.rules if r.name in set(rule_names)]
        if not rules:
            return None
    for _ in range(4 * len(paths)):
        path = rng.choice(paths)
        node = tree.at(path)
        rule = rng.choice(rules)
        moves = list(rule.moves_at(node, path))
        if moves:
            return rng.choice(moves)
    moves = [
        m
        for m in moves_reference(engine, tree)
        if rule_names is None or m.rule_name in set(rule_names)
    ]
    if not moves:
        return None
    return rng.choice(moves)
