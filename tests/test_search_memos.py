"""Hygiene of the per-node search memo tables.

Move sampling, widget domains, option labels and candidate widgets are
memoized per interned node (or per domain).  Every such table must be
bounded, must empty on ``clear_memo_caches()``, and must report its
counters under ``cache.<name>`` in the observability registry.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.cost import sampled_evaluation
from repro.memo import BoundedLRU, clear_memo_caches
from repro.rules import base as rules_base
from repro.rules import default_engine
from repro.widgets import domain, library

TABLES = {
    "rules.subtree_moves": rules_base._SUBTREE_MOVES,
    "widgets.domains": domain._DOMAINS,
    "widgets.labels": domain._LABELS,
    "widgets.candidates": library._CANDIDATES,
}


def _exercise(model, tree):
    engine, rng = default_engine(), random.Random(0)
    state = tree
    for _ in range(10):
        move = engine.random_move(state, rng)
        if move is None:
            break
        state = engine.apply(state, move)
        sampled_evaluation(model, state, k=3, rng=rng).widget_tree


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_is_bounded(name):
    table = TABLES[name]
    assert isinstance(table, BoundedLRU)
    assert table.capacity <= 1 << 16


def test_tables_fill_report_and_clear(sdss_model, sdss_tree):
    clear_memo_caches()
    _exercise(sdss_model, sdss_tree)
    snap = obs.snapshot()
    for name, table in TABLES.items():
        assert len(table) > 0, name
        assert snap[f"cache.{name}.entries"] == len(table)
        assert snap[f"cache.{name}.misses"] > 0
    # A second pass over the same states is served from the tables.
    hits = {name: table.hits for name, table in TABLES.items()}
    _exercise(sdss_model, sdss_tree)
    for name, table in TABLES.items():
        assert table.hits > hits[name], name
    clear_memo_caches()
    snap = obs.snapshot()
    for name, table in TABLES.items():
        assert len(table) == 0, name
        assert snap[f"cache.{name}.entries"] == 0
