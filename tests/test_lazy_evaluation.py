"""Deferred widget-tree derivation: same trees, no pinned cost models.

``sampled_evaluation`` keeps the winning decision vector and derives the
widget tree on first read; ``finish_search`` derives it for the
delivered interface.  These tests check that the derived tree is the
one eager materialization gives, that no delivered or cached report
keeps its cost model alive, and that snapshot, wire and pickle
transport carry exactly what eager evaluation carried.
"""

from __future__ import annotations

import gc
import json
import pickle
import random
import weakref

import pytest

from repro import Engine, GenerationConfig, memo
from repro.cost import CostModel, EvaluatedInterface, sampled_evaluation
from repro.layout import Screen
from repro.memo import clear_memo_caches
from repro.rules import default_engine
from repro.serve.batch import _decode_wire, _generate_one, _generate_one_wire
from repro.workloads import listing1_sql

TINY = GenerationConfig(time_budget_s=0, max_iterations=4, final_cap=150, seed=0)


def _walk_states(tree, steps=8, seed=0):
    engine, rng = default_engine(), random.Random(seed)
    states = [tree]
    for _ in range(steps):
        move = engine.random_move(states[-1], rng)
        if move is None:
            break
        states.append(engine.apply(states[-1], move))
    return states


@pytest.mark.parametrize("batched", [True, False])
def test_deferred_tree_equals_eager_materialize(sdss_model, sdss_tree, batched):
    with memo.batch(batched):
        for i, state in enumerate(_walk_states(sdss_tree)):
            evaluated = sampled_evaluation(sdss_model, state, k=20, rng=random.Random(i))
            assert evaluated.deferred_pending
            _, vector = evaluated._pending
            eager = sdss_model.kernel_for(state).materialize(vector)
            assert repr(evaluated.widget_tree) == repr(eager)
            assert not evaluated.deferred_pending
            reference = sdss_model.evaluate_reference(state, evaluated.widget_tree)
            assert reference.total == evaluated.cost


def test_deferred_evaluation_value_semantics(sdss_model, sdss_tree):
    evaluated = sampled_evaluation(sdss_model, sdss_tree, k=5, rng=random.Random(3))
    eager = EvaluatedInterface(
        evaluated.tree,
        sdss_model.kernel_for(sdss_tree).materialize(evaluated._pending[1]),
        evaluated.breakdown,
    )
    payload = pickle.dumps(evaluated)
    assert not evaluated.deferred_pending  # pickling derives the tree
    assert b"CostModel" not in payload
    clone = pickle.loads(payload)
    assert clone == evaluated == eager
    assert hash(clone) == hash(eager)
    assert repr(clone) == repr(eager)
    with pytest.raises(AttributeError):
        evaluated.breakdown = None


def _tracked_models(monkeypatch):
    models = []
    original = CostModel.__init__

    def init(model, *args, **kwargs):
        original(model, *args, **kwargs)
        models.append(weakref.ref(model))

    monkeypatch.setattr(CostModel, "__init__", init)
    return models


def test_reports_do_not_keep_cost_models_alive(monkeypatch):
    models = _tracked_models(monkeypatch)
    engine = Engine(config=TINY, executor="serial")
    session = engine.session("grow")
    reports = []
    for sql in listing1_sql(1, 4):
        session.append(sql)
        reports.append(session.interface())
    assert models and all(r.source == "search" for r in reports)
    assert not any(r.result.best.deferred_pending for r in reports)
    session.drop()
    gc.collect()
    assert [ref for ref in models if ref() is not None] == []
    # The cached reports are still served, and still hold no model.
    again = engine.session("replay")
    again.append(*listing1_sql(1, 4))
    cached = again.interface()
    assert cached.source == "cache"
    assert cached.result is reports[-1].result
    gc.collect()
    assert [ref for ref in models if ref() is not None] == []


def _force_eager(monkeypatch):
    """Make every deferred evaluation derive its widget tree at once."""

    def eager(cls, model, tree, vector, breakdown):
        return cls(tree, model.kernel_for(tree).materialize(vector), breakdown)

    monkeypatch.setattr(EvaluatedInterface, "deferred", classmethod(eager))


def _without_clock(payload):
    """Drop wall-clock readings (``elapsed``, history times) from JSON data."""
    if isinstance(payload, dict):
        return {
            key: (
                [cost for _, cost in value]
                if key == "history"
                else _without_clock(value)
            )
            for key, value in payload.items()
            if key != "elapsed"
        }
    if isinstance(payload, list):
        return [_without_clock(item) for item in payload]
    return payload


def _transport_artifacts():
    """Snapshot payload, wire-decoded and pickled results of one log."""
    clear_memo_caches()
    engine = Engine(config=TINY, executor="serial")
    session = engine.session("snap")
    log = listing1_sql(1, 5)
    session.append(*log[:3])
    session.interface()
    session.append(*log[3:])
    report = session.interface()
    snapshot = json.loads(json.dumps(engine.snapshot_session("snap").to_payload()))

    job = (log, Screen.wide(), TINY)
    wire = _generate_one_wire(job)
    decoded = _decode_wire(wire, log, Screen.wide(), TINY)
    pickled = pickle.loads(pickle.dumps(_generate_one(job)))
    return {
        "report": (report.cost.hex(), report.difftree.canonical_key, repr(report.widget_tree)),
        "snapshot": _without_clock(snapshot),
        "wire": _without_clock(json.loads(json.dumps(wire))),
        "decoded": (decoded.best.cost.hex(), repr(decoded.best.widget_tree)),
        "pickled": (
            pickled.best.cost.hex(),
            pickled.difftree.canonical_key,
            repr(pickled.best.widget_tree),
            [c for _, c in pickled.search.history],
        ),
        "stats": repr(pickled.search.stats),
    }


def test_transport_paths_match_eager_evaluation(monkeypatch):
    deferred = _transport_artifacts()
    _force_eager(monkeypatch)
    eager = _transport_artifacts()
    assert deferred == eager


def test_concurrent_first_reads_agree(sdss_model, sdss_tree):
    """Threads racing on the first read all get the one derived tree."""
    import sys
    import threading

    states = _walk_states(sdss_tree, steps=6, seed=4)
    expected = []
    for i, state in enumerate(states):
        evaluated = sampled_evaluation(sdss_model, state, k=5, rng=random.Random(i))
        expected.append(repr(evaluated.widget_tree))
    evaluations = [
        sampled_evaluation(sdss_model, state, k=5, rng=random.Random(i))
        for i, state in enumerate(states)
    ]
    seen = [[] for _ in evaluations]
    errors = []
    start = threading.Barrier(6)

    def read():
        try:
            start.wait(timeout=30)
            for i, evaluated in enumerate(evaluations):
                seen[i].append(repr(evaluated.widget_tree))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [set(reprs) for reprs in seen] == [{e} for e in expected]
    assert not any(e.deferred_pending for e in evaluations)
