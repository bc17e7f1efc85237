#!/usr/bin/env python3
"""End-to-end refresh benchmark of the interface-serving engine.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sdss-grow --seed 1 --seconds 30 --trace 0

One process, one thread: ``Engine(executor="serial")`` driven through
its public ``session(...).append / retain / interface`` calls, with the
iteration-capped, seed-fixed search of :mod:`workloads`.  A *refresh* is
one client update (append, and for ``tpch-window`` the retention window)
plus the ``interface()`` call that follows it, or a bare ``interface()``
poll; it is timed as one sample and classified by the delivered report's
``source`` as searched or cache-served.

End-to-end timings (refresh and hit latencies, ``queries_per_s``,
``setup_s``) are in *reference seconds*: each wall interval scaled by
the machine speed a timer-driven loop measured around it, less the
loop's own time (see :mod:`speed`), so the shared host's speed changes
stay out of run-to-run comparisons.  The detail line gives the
wall-second medians beside them.  Per-layer self times and shares are
wall seconds, and include the loop's share (about 2%) pro rata.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs an untraced pass and then a traced pass of equal length, both
``--seconds / 2``, and reports per-layer self times (seconds per round),
work counters (per round), layer shares of refresh time, and the tracing
overhead.  Every delivered report passes the contract check of
:mod:`checks` outside the timed intervals; a refresh that raises or fails
the check counts in ``failed``.

The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a detail object: environment stamp (``nproc``,
Python and numpy versions, the four ``repro.memo`` gates, a calibration
loop time), tail percentiles with their sample counts, the share of
refreshes served from cache, log size at each refresh of the first
round, the work counters of the first rounds and whether they repeated,
and the first failures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from checks import ContractChecker, Digest, compare_sequences, digest
from speed import SpeedTrack
from tracer import REFRESH, SEARCH_LAYERS, Tracer
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Hash seed the benchmark runs the program under.  String and tuple
#: hashes decide dict and set layouts, which moved cache-hit latency by
#: up to 20% between hash seeds (2-vCPU x86 host); a fixed seed keeps
#: that layout lottery out of run-to-run comparisons.
HASH_SEED = "0"

#: Replay rounds after which ``peak_rss_mb`` is read (search workloads:
#: after their first round).  The program's per-shard parse caches keep
#: every distinct SQL text, so memory grows with the replays a run gets
#: through; reading the peak after fixed work keeps a faster program
#: from looking hungrier.
RSS_REPLAY_ROUNDS = 100

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 7

#: Tail percentile of (searched, cache-served) refreshes per workload:
#: the highest of p99/95/90/75/50 with at least 10 samples beyond it at
#: the sample counts a run gets (2-vCPU x86 host, 30 s: sdss-grow 15-24
#: searched and 65-104 cache-served, tpch-window 15-25 and 45-75,
#: replay-hits 21 and 180k-320k; the median below 20 samples).  Fixed,
#: because a percentile picked from each run's count would move with
#: the program's speed; the detail line gives the samples beyond it.
TAIL_PERCENTILES = {
    "sdss-grow": (50, 75),
    "tpch-window": (50, 75),
    "replay-hits": (50, 99),
}

#: Layer spans reported per round: span name -> metric name.
LAYERS = {
    "engine": "engine.self_s",
    "serve.open_search": "serve.open_search_s",
    "serve.finish": "serve.finish_s",
    "serve.retain": "serve.retain_s",
    "serve.stream.append": "serve.stream.append_s",
    "serve.cache.lookup": "serve.cache.lookup_s",
    "serve.cache.put": "serve.cache.put_s",
    "sqlast.parse": "sqlast.parse_s",
    "difftree.build": "difftree.build_s",
    "difftree.graft": "difftree.graft_s",
    "search.mcts.open": "search.mcts.open_s",
    "search.mcts": "search.mcts.self_s",
    "search.seed": "search.seed_s",
    "search.finalize": "search.finalize_s",
    "search.carry.rebase": "search.carry.rebase_s",
    "search.carry.harvest": "search.carry.harvest_s",
    "rules.random_move": "rules.random_move_s",
    "rules.apply": "rules.apply_s",
    "rules.moves": "rules.moves_s",
    "cost.kernel_compile": "cost.kernel_compile_s",
    "cost.batch_compile": "cost.batch_compile_s",
    "cost.sequence_compile": "cost.sequence_compile_s",
    "cost.sequence_retract": "cost.sequence_retract_s",
    "cost.kernel.eval": "cost.kernel.eval_s",
    "widgets.materialize": "widgets.materialize_s",
    "cost.batch.eval": "cost.batch.eval_s",
}

#: Work counters per round: metric name -> where it is read from.
#: ``search``: summed SearchStats of searched reports; ``model``: summed
#: KernelStats of every cost model built; ``calls``: wrapped-call count;
#: ``carry``/``ingest``: deltas of the process-wide carry/ingest counters.
COUNTERS = {
    "search.iterations": ("search", "iterations"),
    "search.states_evaluated": ("search", "states_evaluated"),
    "search.states_expanded": ("search", "states_expanded"),
    "search.walk_steps": ("search", "walk_steps"),
    "cost.kernel_compiles": ("model", "kernels_compiled"),
    "cost.sequence_compiles": ("model", "sequences_compiled"),
    "cost.sequences_extended": ("model", "sequences_extended"),
    "cost.kernel.full_evals": ("model", "full_evals"),
    "cost.kernel.delta_evals": ("model", "delta_evals"),
    "cost.batch.evals": ("model", "batched_evals"),
    "widgets.materializations": ("calls", "widgets.materialize"),
    "rules.random_moves": ("calls", "rules.random_move"),
    "rules.applies": ("calls", "rules.apply"),
    "serve.stream.appends": ("calls", "serve.stream.append"),
    "search.carry.trees_rebased": ("carry", "trees_rebased"),
    "search.carry.nodes_harvested": ("carry", "nodes_harvested"),
    "search.carry.nodes_carried": ("carry", "nodes_carried"),
    "search.carry.nodes_invalidated": ("carry", "nodes_invalidated"),
    "search.carry.nodes_reopened": ("carry", "nodes_reopened"),
    "search.carry.retention_pairs_rediffed": ("carry", "retention_pairs_rediffed"),
    "sqlast.parses": ("ingest", "parses"),
    "sqlast.parse_memo_hits": ("ingest", "parse_memo_hits"),
    "sqlast.intern_hits": ("ingest", "node_intern_hits"),
}

#: Counters that depend on when the garbage collector frees interned
#: nodes, so they are not expected to repeat exactly.
UNSTABLE_COUNTERS = ("sqlast.intern_hits",)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- rounds ----------------------------------------------------------------


@dataclass
class Round:
    """What one round delivered, kept compact (replay runs thousands).

    ``digests`` and ``log_sizes`` cover every refresh in order, but only
    for rounds whose sequence is compared against a reference round.
    ``search_s``/``hit_s`` are wall seconds, each with its start time
    (``search_t``/``hit_t``); :meth:`normalize` turns them into reference
    seconds (``ref_*``).
    """

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    search_s: List[float] = field(default_factory=list)
    search_t: List[float] = field(default_factory=list)
    hit_s: "array[float]" = field(default_factory=lambda: array("d"))
    hit_t: "array[float]" = field(default_factory=lambda: array("d"))
    ref_search_s: List[float] = field(default_factory=list)
    ref_hit_s: "array[float]" = field(default_factory=lambda: array("d"))
    costs: List[float] = field(default_factory=list)
    search_spans: List[int] = field(default_factory=list)
    digests: List[Digest] = field(default_factory=list)
    log_sizes: List[int] = field(default_factory=list)
    log_size_total: int = 0
    appended: int = 0
    busy_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    layer_s: Dict[str, float] = field(default_factory=dict)
    unattributed_s: float = 0.0
    searched_unattributed_s: float = 0.0

    @property
    def refreshes(self) -> int:
        return len(self.search_s) + len(self.hit_s)

    def normalize(self, track: SpeedTrack) -> None:
        ref = track.reference_seconds
        self.ref_search_s = [ref(t, t + x) for x, t in zip(self.search_s, self.search_t)]
        self.ref_hit_s = array("d", (ref(t, t + x) for x, t in zip(self.hit_s, self.hit_t)))


class Harness:
    """Runs session scripts against engines and checks what they deliver."""

    def __init__(self, repro, tracer: Optional[Tracer]) -> None:
        from repro.memo import INGEST
        from repro.search.carry import STATS as CARRY_STATS

        self.repro = repro
        self.config = repro.GenerationConfig(**W.config_kwargs())
        self.tracer = tracer
        self.checker = ContractChecker(repro.Screen.wide(), self.config.weights)
        self._ingest = INGEST
        self._carry = CARRY_STATS

    def engine(self):
        return self.repro.Engine(config=self.config, executor="serial")

    def run_script(self, engine, script: W.SessionScript, out: Round) -> List[tuple]:
        """Run one session's steps, timing each refresh.

        Returns what each successful refresh delivered, with the session
        log it was delivered for; :meth:`run_round` checks it afterwards.
        """
        tracer = self.tracer
        session = engine.session(script.session_id)
        stream = engine.router.stream(script.session_id)
        delivered = []
        for step in script.steps:
            out.attempted += 1
            span = -1
            start = time.perf_counter()
            try:
                if tracer is not None:
                    span = tracer.begin(REFRESH)
                try:
                    if step.append:
                        session.append(*step.append)
                    if step.retain is not None:
                        session.retain(last_n=step.retain)
                    report = session.interface()
                finally:
                    if span >= 0:
                        tracer.end(span)
                seconds = time.perf_counter() - start
            except Exception as exc:  # a failed refresh is a counted result
                out.failures.append(f"{script.session_id}: {exc!r}")
                continue
            delivered.append(
                (report, seconds, start, len(step.append), span,
                 stream.asts(), stream.query_keys(), stream.log_key())
            )
        if script.drop:
            session.drop()
        return delivered

    def run_round(
        self,
        engine,
        scripts: Sequence[W.SessionScript],
        keep_sequence: bool = False,
        served: Optional[Dict[str, Digest]] = None,
        expect: Optional[Dict[str, Digest]] = None,
    ) -> Round:
        """Run scripts as one round, then check every delivered report.

        ``served`` collects the digest delivered for each log key;
        cache-served refreshes must match ``expect`` for their log key.
        """
        out = Round()
        tracer = self.tracer
        carry_before = self._carry.snapshot()
        ingest_before = self._ingest.snapshot()
        delivered: List[tuple] = []
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        try:
            for script in scripts:
                delivered += [
                    (script.session_id,) + item
                    for item in self.run_script(engine, script, out)
                ]
        finally:
            if tracer is not None:
                tracer.active = False
        carry_after = self._carry.snapshot()
        ingest_after = self._ingest.snapshot()
        for name, (kind, attr) in COUNTERS.items():
            if kind == "carry":
                out.counters[name] = carry_after[attr] - carry_before[attr]
            elif kind == "ingest":
                out.counters[name] = ingest_after[attr] - ingest_before[attr]
            elif kind == "search":
                out.counters[name] = 0
        for session_id, report, seconds, started, appended, span, log, keys, log_key in delivered:
            problem = self.checker.check(report, log, keys)
            delivered_digest = digest(report)
            if (
                problem is None
                and expect is not None
                and report.source == "cache"
                and expect.get(log_key) != delivered_digest
            ):
                problem = "cache served another interface than set-up for this log"
            if problem is not None:
                out.failures.append(f"{session_id}: {problem}")
                continue
            out.appended += appended
            out.busy_s += seconds
            out.log_size_total += report.log_size
            if report.source == "search":
                out.search_s.append(seconds)
                out.search_t.append(started)
                out.costs.append(report.cost)
                out.search_spans.append(span)
                stats = report.search.stats
                for name, (kind, attr) in COUNTERS.items():
                    if kind == "search":
                        out.counters[name] += getattr(stats, attr)
            else:
                out.hit_s.append(seconds)
                out.hit_t.append(started)
            if keep_sequence:
                out.digests.append(delivered_digest)
                out.log_sizes.append(report.log_size)
            if served is not None:
                served.setdefault(log_key, delivered_digest)
        if tracer is not None:
            self._attribute(out)
        return out

    def _attribute(self, out: Round) -> None:
        """Layer self times and traced work counters of the round."""
        tracer = self.tracer
        self_s, calls, covered = tracer.self_times()
        out.layer_s = {name: self_s.get(name, 0.0) for name in LAYERS}
        out.unattributed_s = self_s.get(REFRESH, 0.0)
        spans = tracer.spans
        out.searched_unattributed_s = sum(
            spans[i][3] - spans[i][2] - covered[i] for i in out.search_spans
        )
        totals: Dict[str, int] = {}
        for model in tracer.models:
            for attr, value in model.kernel_stats.snapshot().items():
                totals[attr] = totals.get(attr, 0) + value
        for name, (kind, attr) in COUNTERS.items():
            if kind == "model":
                out.counters[name] = totals.get(attr, 0)
            elif kind == "calls":
                out.counters[name] = calls.get(attr, 0)
        tracer.reset()


def fresh_process_state() -> None:
    """Cold memo tables and a collected heap, so rounds repeat exactly."""
    from repro.memo import clear_memo_caches

    clear_memo_caches()
    gc.collect()


# -- workloads -------------------------------------------------------------


class SearchWorkload:
    """``sdss-grow`` / ``tpch-window``: identical rounds on fresh engines.

    Rounds repeat until the pass budget is spent: a new round starts only
    if it is expected to end before the budget plus half a round.  Every
    round must deliver the first round's interfaces, in order.
    """

    def __init__(self, harness: Harness, name: str, seed: int) -> None:
        self.harness = harness
        self.name = name
        self.seed = seed
        self.script: Optional[W.SessionScript] = None
        self.setup_rounds: List[Round] = []
        self.reference: Optional[Round] = None
        self.rss_mb = 0.0

    def setup(self) -> None:
        # Building an engine is part of set-up time; every round then
        # runs on a fresh engine of its own.
        self.harness.engine()
        self.script = W.search_round(self.name, self.seed)

    def run_pass(self, budget_s: float, tag: str) -> List[Round]:
        rounds: List[Round] = []
        started = time.perf_counter()
        while True:
            # A round's interfaces are never served again, and kept
            # alive they would grow the heap every later round collects.
            self.harness.checker.forget()
            fresh_process_state()
            rnd = self.harness.run_round(
                self.harness.engine(), [self.script], keep_sequence=True
            )
            if self.reference is None:
                self.reference = rnd
            for i in compare_sequences(self.reference.digests, rnd.digests):
                rnd.failures.append(f"refresh {i} delivered another interface")
            rounds.append(rnd)
            if len(rounds) == 1:
                self.rss_mb = peak_rss_mb()
            elapsed = time.perf_counter() - started
            if elapsed + 0.5 * elapsed / len(rounds) > budget_s:
                return rounds


class ReplayWorkload:
    """``replay-hits``: serve seed logs once, then replay them read-only.

    Set-up serves each seed log by single appends, so every prefix is in
    the interface cache; its searched refreshes are the workload's
    searched samples, and every set-up must serve the same interfaces.
    Replay rounds then run against the last set-up's engine, and each
    cache-served refresh must deliver what set-up served for its log.
    """

    def __init__(self, harness: Harness, seed: int) -> None:
        self.harness = harness
        self.seed = seed
        self.engine = None
        self.setup_rounds: List[Round] = []
        self.reference: Optional[Round] = None
        self.served: Dict[str, Digest] = {}
        self.rss_mb = 0.0

    def setup(self) -> None:
        engine = self.harness.engine()
        served: Dict[str, Digest] = {}
        rnd = self.harness.run_round(
            engine, W.seed_scripts(self.seed), keep_sequence=True, served=served
        )
        if self.reference is None:
            self.reference = rnd
        for i in compare_sequences(self.reference.digests, rnd.digests):
            rnd.failures.append(f"set-up refresh {i} delivered another interface")
        self.setup_rounds.append(rnd)
        self.served = served
        self.engine = engine

    def run_pass(self, budget_s: float, tag: str) -> List[Round]:
        seed_logs = W.replay_seed_logs()
        rounds: List[Round] = []
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < budget_s:
            scripts = W.replay_round(seed_logs, self.seed, len(rounds), tag)
            rounds.append(
                self.harness.run_round(self.engine, scripts, expect=self.served)
            )
            if len(rounds) <= RSS_REPLAY_ROUNDS:
                self.rss_mb = peak_rss_mb()
        return rounds


# -- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile of ``values`` (non-empty)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(values: Sequence[float], tail: int, scale: float = 1.0) -> Dict[str, float]:
    """Median and ``tail``-th percentile of ``values``, times ``scale``."""
    if not values:
        return {"p50": 0.0, "tail": 0.0, "tail_percentile": tail, "samples": 0, "beyond": 0}
    return {
        "p50": statistics.median(values) * scale,
        "tail": percentile(values, tail) * scale,
        "tail_percentile": tail,
        "samples": len(values),
        "beyond": len(values) * (100 - tail) / 100.0,
    }


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop (machine-speed stamp)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> Dict[str, object]:
    from repro import memo
    from repro.cost import batch

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "batch_kernel_available": batch.available(),
        "gates": {
            "fast_paths": memo.fast_paths_enabled(),
            "columnar": memo.columnar_enabled(),
            "carry": memo.carry_enabled(),
            "batch": memo.batch_enabled(),
        },
        "calibration_s": calibrate(),
    }


def warm_up(harness: Harness) -> None:
    """One small search, so lazy first-call set-up is not timed."""
    engine = harness.engine()
    session = engine.session("warm-up")
    session.append(W.generator("tpch")(1, W.CONTENT_SEED)[0])
    session.interface()
    session.drop()


# -- metrics ---------------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def searched(rounds: Sequence[Round], ref: bool = True) -> List[float]:
    """Searched-refresh times: reference seconds, or wall if not ``ref``."""
    return [x for rnd in rounds for x in (rnd.ref_search_s if ref else rnd.search_s)]


def hits(rounds: Sequence[Round], ref: bool = True) -> List[float]:
    """Cache-served refresh times: reference seconds, or wall if not ``ref``."""
    return [x for rnd in rounds for x in (rnd.ref_hit_s if ref else rnd.hit_s)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    workload_name: str,
    rounds: Sequence[Round],
    setup_rounds: Sequence[Round],
    setup_s: float,
    rss_mb: float,
) -> Dict[str, dict]:
    """End-to-end metrics of an untraced pass, timings in reference seconds.

    Searched samples include set-up's searched refreshes (``replay-hits``
    searches only there); ``mean_cost`` is over the first round that
    searched, which every later round must repeat exactly.
    """
    refresh_tail, hit_tail = TAIL_PERCENTILES[workload_name]
    refresh = summarize(searched(list(rounds) + list(setup_rounds)), refresh_tail)
    hit_samples = hits(rounds)
    hit = summarize(hit_samples, hit_tail, scale=1e6)
    busy = sum(searched(rounds)) + sum(hit_samples)
    appended = sum(rnd.appended for rnd in rounds)
    costs = (list(setup_rounds) + list(rounds))[0].costs
    return {
        "refresh_p50_s": metric(refresh["p50"], "s"),
        "refresh_tail_s": metric(refresh["tail"], "s"),
        "hit_p50_us": metric(hit["p50"], "us"),
        "hit_tail_us": metric(hit["tail"], "us"),
        "queries_per_s": metric(appended / busy if busy else 0.0, "queries/s"),
        "mean_cost": metric(statistics.fmean(costs) if costs else 0.0, "cost"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(
    workload_name: str,
    plain: Sequence[Round],
    traced: Sequence[Round],
    env: Dict[str, object],
    failed_frac: float,
) -> Dict[str, dict]:
    """Per-layer metrics of the traced pass: seconds and counts per round."""
    n = len(traced)
    refresh_s = sum(rnd.busy_s for rnd in traced) or 1.0
    searched_s = sum(sum(rnd.search_s) for rnd in traced)
    out: Dict[str, dict] = {}
    search_side = 0.0
    for span, name in LAYERS.items():
        total = sum(rnd.layer_s.get(span, 0.0) for rnd in traced)
        out[name] = metric(total / n, "s")
        out["share." + span] = metric(100.0 * total / refresh_s, "%")
        if span.startswith(SEARCH_LAYERS):
            search_side += total
    unattributed = sum(rnd.unattributed_s for rnd in traced)
    out["unattributed_s"] = metric(unattributed / n, "s")
    out["share.unattributed"] = metric(100.0 * unattributed / refresh_s, "%")
    out["share.search_layers"] = metric(100.0 * search_side / refresh_s, "%")
    out["trace.coverage"] = metric(100.0 * (1.0 - unattributed / refresh_s), "%")
    searched_unattributed = sum(rnd.searched_unattributed_s for rnd in traced)
    out["trace.search_coverage"] = metric(
        100.0 * (1.0 - searched_unattributed / searched_s) if searched_s else 0.0, "%"
    )
    # The refresh kind each workload is about: searched ones, except on
    # replay-hits, whose measured refreshes are all cache-served.
    pick = hits if workload_name == "replay-hits" else searched
    untraced_p50 = summarize(pick(plain), 50)["p50"]
    traced_p50 = summarize(pick(traced), 50)["p50"]
    out["trace_overhead"] = metric(traced_p50 / untraced_p50 if untraced_p50 else 0.0, "ratio")
    for name in COUNTERS:
        out[name] = metric(sum(rnd.counters.get(name, 0) for rnd in traced) / n, "count")
    harvested = sum(rnd.counters["search.carry.nodes_harvested"] for rnd in traced)
    carried = sum(rnd.counters["search.carry.nodes_carried"] for rnd in traced)
    out["search.carry.reuse_ratio"] = metric(carried / harvested if harvested else 0.0, "ratio")
    refreshes = sum(rnd.refreshes for rnd in traced)
    cache_served = sum(len(rnd.hit_s) for rnd in traced)
    out["serve.cache.hit_ratio"] = metric(cache_served / refreshes if refreshes else 0.0, "ratio")
    out["workload.rounds"] = metric(n, "count")
    out["workload.refreshes"] = metric(refreshes / n, "count")
    out["workload.searched_refreshes"] = metric((refreshes - cache_served) / n, "count")
    out["workload.log_size_mean"] = metric(
        sum(rnd.log_size_total for rnd in traced) / refreshes if refreshes else 0.0, "count"
    )
    out["failed_frac"] = metric(failed_frac, "ratio")
    out["env.calibration_s"] = metric(env["calibration_s"], "s")
    out["env.nproc"] = metric(env["nproc"], "count")
    return out


def counters_repeat(rounds: Sequence[Round]) -> bool:
    """Whether every round did exactly the first round's work."""

    def stable(rnd: Round) -> Dict[str, float]:
        return {k: v for k, v in rnd.counters.items() if k not in UNSTABLE_COUNTERS}

    return all(stable(rnd) == stable(rounds[0]) for rnd in rounds)


# -- entry point -----------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replace this process (no child) with one under the fixed seed.
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve())] + argv,
            dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        )
    sys.path.insert(0, str(SRC))
    speed = SpeedTrack()
    speed.start()
    try:
        started = time.perf_counter()
        import repro

        import_span = (started, time.perf_counter())
        env = environment()
        harness = Harness(repro, tracer=None)
        if args.workload == "replay-hits":
            workload = ReplayWorkload(harness, args.seed)
        else:
            workload = SearchWorkload(harness, args.workload, args.seed)

        warm_up(harness)
        # One untimed set-up, so first-call costs stay out of set-up and
        # of replay-hits' searched samples; its round is still checked.
        fresh_process_state()
        workload.setup()
        warm_rounds = workload.setup_rounds
        workload.setup_rounds = []
        setup_spans = []
        for _ in range(1 if args.trace else SETUP_REPS):
            fresh_process_state()
            start = time.perf_counter()
            workload.setup()
            setup_spans.append((start, time.perf_counter()))

        if args.trace:
            plain = workload.run_pass(args.seconds / 2, "plain")
            tracer = Tracer()
            tracer.install()
            harness.tracer = tracer
            try:
                traced = workload.run_pass(args.seconds / 2, "traced")
            finally:
                harness.tracer = None
                tracer.uninstall()
            passes = [plain, traced]
        else:
            passes = [workload.run_pass(args.seconds, "plain")]
    finally:
        speed.stop()
    import_s = import_span[1] - import_span[0]
    setup_times = [end - start for start, end in setup_spans]
    setup_s = speed.reference_seconds(*import_span) + statistics.median(
        speed.reference_seconds(*span) for span in setup_spans
    )

    every = warm_rounds + workload.setup_rounds + [rnd for rounds in passes for rnd in rounds]
    for rnd in every:
        rnd.normalize(speed)
    attempted = sum(rnd.attempted for rnd in every)
    failures = [f for rnd in every for f in rnd.failures]
    failed = min(len(failures), attempted)
    if args.trace:
        metrics = per_layer(args.workload, passes[0], passes[1], env, failed / attempted)
    else:
        metrics = end_to_end(
            args.workload, passes[0], workload.setup_rounds, setup_s, workload.rss_mb
        )
    measured = passes[-1]
    refresh_tail, hit_tail = TAIL_PERCENTILES[args.workload]
    refresh = summarize(searched(list(measured) + workload.setup_rounds), refresh_tail)
    hit = summarize(hits(measured), hit_tail)
    wall_refresh = searched(list(measured) + workload.setup_rounds, ref=False)
    wall_hit = hits(measured, ref=False)
    first = (workload.setup_rounds or measured)[0]
    detail = {
        "workload": args.workload,
        "hash_seed": HASH_SEED,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "import_s": import_s,
        "setup_rep_s": setup_times,
        "speed": speed.summary(),
        "wall_refresh_p50_s": statistics.median(wall_refresh) if wall_refresh else None,
        "wall_hit_p50_us": statistics.median(wall_hit) * 1e6 if wall_hit else None,
        "rounds_per_pass": [len(rounds) for rounds in passes],
        "refresh_tail": {k: refresh[k] for k in ("tail_percentile", "samples", "beyond")},
        "hit_tail": {k: hit[k] for k in ("tail_percentile", "samples", "beyond")},
        "cache_share": sum(len(r.hit_s) for r in measured) / max(1, sum(r.refreshes for r in measured)),
        "log_sizes": first.log_sizes,
        "counters": [rnd.counters for rnd in measured[:5]],
        "counters_repeat": (
            counters_repeat(measured) if args.workload != "replay-hits" else None
        ),
        "refresh_seconds": searched(list(measured) + workload.setup_rounds)[:200],
        "refresh_wall_seconds": wall_refresh[:200],
        "failures": failures[:10],
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
