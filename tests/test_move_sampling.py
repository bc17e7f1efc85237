"""RNG-stream parity of the memoized move sampler against its oracle.

``RuleEngine.random_move`` reads a per-node memo instead of rebuilding
the path list and calling ``moves_at`` on every try.  Seed-fixed search
results depend on it drawing exactly what the enumerate-and-retry
sampler drew, so these walks compare, after every call, the returned
move *and* the generator state against ``tests/oracles/random_move.py``.
"""

from __future__ import annotations

import random

import pytest

from oracles.random_move import moves_reference, random_move_reference
from repro.difftree import initial_difftree, wrap_ast
from repro.memo import clear_memo_caches
from repro.rules import default_engine, forward_engine
from repro.sqlast import parse
from repro.workloads import (
    listing1_queries,
    mixed_session_log,
    sdss_session_sql,
    tpch_session_queries,
)

#: The rule subset MCTS rollouts try first (``repro.search.mcts``).
FORWARD = ("Lift", "Any2All", "Optional", "Multi")

LOGS = {
    "sdss-listing1": lambda: listing1_queries(),
    "sdss-session": lambda: [parse(sql) for sql in sdss_session_sql(8, seed=3)],
    "tpch": lambda: tpch_session_queries(8, seed=1),
    "synthetic": lambda: mixed_session_log(10, seed=2),
}


def _walk_parity(engine, tree, seed, steps):
    """Rollout-style walk: forward rules first, then all rules.

    Returns how many restricted calls came back ``None`` on a non-empty
    tree (the zero-count early return).
    """
    rng = random.Random(seed)
    oracle_rng = random.Random(seed)
    zero_counts = 0
    for _ in range(steps):
        assert engine.moves(tree) == moves_reference(engine, tree)
        move = engine.random_move(tree, rng, rule_names=FORWARD)
        expected = random_move_reference(engine, tree, oracle_rng, rule_names=FORWARD)
        assert move == expected
        assert rng.getstate() == oracle_rng.getstate()
        if move is None:
            zero_counts += 1
            move = engine.random_move(tree, rng)
            expected = random_move_reference(engine, tree, oracle_rng)
            assert move == expected
            assert rng.getstate() == oracle_rng.getstate()
        if move is None:
            break
        tree = engine.apply(tree, move)
    return zero_counts


@pytest.mark.parametrize("log", sorted(LOGS))
def test_rollouts_draw_the_oracle_stream(log):
    clear_memo_caches()
    engine = default_engine()
    tree = initial_difftree(LOGS[log]())
    zero_counts = 0
    for seed in range(6):
        zero_counts += _walk_parity(engine, tree, seed, steps=60)
    # Walks run into states with no forward move; the restricted call
    # must then return None after the same draws, without enumerating.
    assert zero_counts > 0


@pytest.mark.parametrize("log", sorted(LOGS))
def test_unrestricted_and_warm_memo_match(log):
    """Unrestricted sampling, re-run on a warm memo, with a fresh engine."""
    tree = initial_difftree(LOGS[log]())
    for engine in (default_engine(), default_engine(), forward_engine()):
        rng = random.Random(11)
        oracle_rng = random.Random(11)
        state = tree
        for _ in range(40):
            move = engine.random_move(state, rng)
            assert move == random_move_reference(engine, state, oracle_rng)
            assert rng.getstate() == oracle_rng.getstate()
            if move is None:
                break
            assert engine.fanout(state) == len(moves_reference(engine, state))
            state = engine.apply(state, move)


def test_fallback_enumeration_matches():
    """A subset with few applicable nodes misses every try and falls back."""
    engine = default_engine()
    tree = initial_difftree(listing1_queries())
    fallbacks = 0
    for seed in range(40):
        rng = random.Random(seed)
        oracle_rng = random.Random(seed)
        for names in (("Any2All",), ("Optional",), ("Lift", "Distribute")):
            move = engine.random_move(tree, rng, rule_names=names)
            assert move == random_move_reference(engine, tree, oracle_rng, rule_names=names)
            assert rng.getstate() == oracle_rng.getstate()
            fallbacks += move is not None
    assert fallbacks > 0


def test_no_matching_rule_draws_nothing():
    engine = default_engine()
    tree = initial_difftree(listing1_queries())
    rng = random.Random(0)
    state = rng.getstate()
    assert engine.random_move(tree, rng, rule_names=("NoSuchRule",)) is None
    assert rng.getstate() == state


def test_concrete_tree_has_no_moves_after_the_oracle_draws():
    engine = default_engine()
    tree = wrap_ast(parse("select a from t"))
    rng, oracle_rng = random.Random(5), random.Random(5)
    assert engine.random_move(tree, rng) is None
    assert random_move_reference(engine, tree, oracle_rng) is None
    assert rng.getstate() == oracle_rng.getstate()


class _FloatOnlyRandom(random.Random):
    """A generator whose ``choice`` does not use ``getrandbits``."""

    def random(self):
        return super().random()


def test_generators_without_getrandbits_draws_match():
    engine = default_engine()
    tree = initial_difftree(listing1_queries())
    rng, oracle_rng = _FloatOnlyRandom(3), _FloatOnlyRandom(3)
    for _ in range(20):
        move = engine.random_move(tree, rng)
        assert move == random_move_reference(engine, tree, oracle_rng)
        assert rng.getstate() == oracle_rng.getstate()
        if move is None:
            break
        tree = engine.apply(tree, move)
