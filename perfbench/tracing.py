"""Span tracing from outside the program, and the per-layer ledger.

:class:`Tracer` wraps the public functions of each layer at the
attribute its caller looks them up through (module attributes, class
methods, and a NumPy backend registered under the name ``numpy``), so
the program itself is unchanged. Each call records a span (name, start,
end, parent) in memory; :func:`layer_metrics` turns the spans into the
per-layer metrics once the traced run has ended.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path

__all__ = ["Tracer", "command_stages", "layer_metrics"]


class Tracer:
    """Records a span around every call to the wrapped functions.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original attributes.

    Attributes:
        spans: ``[name, start, end, parent index]`` per call, in call
            order; the parent is the innermost span open at the call.
        counts: work counted at the wrapped calls (balancer-steps, DES
            requests, cascade verdicts, cache hits).
        phase: ``"cold"`` or ``"warm"``; cache hits are counted per phase.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = "cold"
        self._open: list[int] = []
        self._restore: list[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable, on_result=None) -> Callable:
        """``fn`` recording a ``name`` span per call; ``on_result(args,
        kwargs, result)`` sees each call's outcome."""
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0,
                      open_spans[-1] if open_spans else None]
            open_spans.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                open_spans.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, on_result=None) -> None:
        """Replace ``owner.attribute`` (a module or class) by its traced form."""
        original = vars(owner)[attribute]
        setattr(owner, attribute, self.wrap(name, original, on_result))
        self._restore.append(lambda: setattr(owner, attribute, original))

    def __enter__(self) -> "Tracer":
        _install(self)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            self._restore.pop()()


def _install(tracer: Tracer) -> None:
    from repro import backend as backends
    from repro import cli
    from repro.exec import cache, journal, runner
    from repro.games import batch, bounds, npa
    from repro.games.nonlocal_games import NonlocalGame
    from repro.lb import des_adapter, engine, policies, sweep
    from repro.net import latency, workload
    from repro.sim import core

    counts = tracer.counts

    def count_steps(args, kwargs, result):
        policy, steps = args[0], kwargs["timesteps"]
        counts["lb.steps"] += policy.num_balancers * steps
        chunk = engine.resolve_chunk_steps(
            kwargs.get("chunk_steps"), steps, policy.num_balancers,
            policy.num_servers,
        )
        counts["lb.chunks"] += -(-steps // chunk)

    def count_requests(args, kwargs, result):
        counts["lb.des_requests"] += result.completed

    def count_verdicts(args, kwargs, result):
        for stage, games in result.stage_counts().items():
            counts[f"games.decided.{stage}"] += games

    def count_lookup(args, kwargs, result):
        counts[f"exec.cache_lookups.{tracer.phase}"] += 1
        counts[f"exec.cache_hits.{tracer.phase}"] += bool(result[0])

    def count_busy(args, kwargs, result):
        counts["exec.busy_s"] += result.busy_seconds

    targets = [
        (cli, "main", "cli", None),
        (sweep, "run_timestep_simulation", "lb.simulation", count_steps),
        (engine, "run_vectorized", "lb.engine", None),
        (workload.BernoulliTaskMix, "draw_batch", "net.draw_batch", None),
        (policies.RandomAssignment, "assign_batch", "lb.assign_batch", None),
        (policies.GamePairedAssignment, "assign_batch", "lb.assign_batch", None),
        (policies.GroupAssignment, "assign_batch", "lb.assign_batch", None),
        (batch, "sample_game_batch", "games.sample", None),
        (batch, "classical_bias_batch", "games.classical_bias", None),
        (batch, "alternating_lower_bound_batch", "games.lower_bound", None),
        (batch, "screen_game_batch", "games.cascade", count_verdicts),
        (batch, "dual_upper_bound_batch", "sdp.dual_bound", None),
        (batch, "solve_diagonal_sdp_batch", "sdp.admm_batch", None),
        (bounds, "sample_game_family", "games.sample", None),
        (NonlocalGame, "classical_value", "games.classical_bias", None),
        (bounds, "seesaw_lower_bound", "games.seesaw", None),
        (bounds, "npa_upper_bound", "games.npa", None),
        (npa, "solve_partition_sdp", "sdp.partition_sdp", None),
        (des_adapter, "run_des_experiment", "lb.des", count_requests),
        (core.Environment, "run", "sim.run", None),
        (latency, "deadline_limited_availability", "net.latency", None),
        (latency, "effective_win_probability", "net.latency", None),
        (runner, "stable_fingerprint", "exec.fingerprint", None),
        (runner, "cache_key", "exec.cache_key", None),
        (runner.SweepRunner, "run", "exec.sweep", count_busy),
        (cache.ResultCache, "get", "exec.cache_get", count_lookup),
        (cache.ResultCache, "put", "exec.cache_put", None),
        (cache.ResultCache, "put_if_absent", "exec.cache_put", None),
        (journal.SweepJournal, "replay", "exec.journal_replay", None),
        (journal.SweepJournal, "repair", "exec.journal", None),
        (journal.SweepJournal, "write_header", "exec.journal", None),
        (journal.SweepJournal, "record_point", "exec.journal", None),
        (journal.SweepJournal, "close", "exec.journal", None),
    ]
    for owner, attribute, name, on_result in targets:
        tracer.patch(owner, attribute, name, on_result)

    # Kernels are looked up per call through the backend registry: a
    # NumPy backend whose kernels are wrapped, registered under the
    # name "numpy", keeps cache keys and manifests unchanged.
    numpy_kernels = importlib.import_module(
        "repro.backend.numpy_backend"
    ).make_backend()
    traced_kernels = dataclasses.replace(
        numpy_kernels,
        **{
            kernel: tracer.wrap(
                f"backend.{kernel}", getattr(numpy_kernels, kernel)
            )
            for kernel in ("serve_chunk", "searchsorted_right",
                           "project_psd_batch")
        },
    )
    backends.register_backend("numpy", lambda: traced_kernels)
    tracer._restore.append(
        lambda: backends.register_backend("numpy", lambda: numpy_kernels)
    )


#: Spans that only contain other layers' work; their self time is glue.
_CONTAINERS = ("cli", "exec.sweep")


def _self_times(spans, group=lambda index: None) -> dict:
    """Self time (span minus its child spans) per ``(group(span), name)``;
    a child and its parent must share a group."""
    times: dict = defaultdict(float)
    for index, (name, start, end, parent) in enumerate(spans):
        times[group(index), name] += end - start
        if parent is not None:
            times[group(parent), spans[parent][0]] -= end - start
    return times


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def layer_metrics(
    tracer: Tracer,
    *,
    traced_wall: float,
    untraced_wall: float,
    traced_cold_wall: float,
    import_s: float,
    cache_dir: Path,
) -> dict[str, float]:
    """The per-layer ledger of one traced run.

    Times are self time (span minus its child spans) unless the README
    says otherwise; ``traced_wall`` is the wall time of every traced
    pass, ``traced_cold_wall`` and ``untraced_wall`` the traced and
    untraced cold passes of the same argv, and ``cache_dir`` the cache
    the traced cold pass filled.
    """
    spans, counts = tracer.spans, tracer.counts
    self_s = defaultdict(float, {
        name: seconds for (_, name), seconds in _self_times(spans).items()
    })
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, start, end, _ in spans:
        total_s[name] += end - start
        calls[name] += 1

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole > 0 else 0.0

    decided = {
        stage: counts[f"games.decided.{stage}"]
        for stage in ("perfect", "lower", "upper", "sdp")
    }
    journal_dir = cache_dir / "journal"
    journal_bytes = _tree_bytes(journal_dir) if journal_dir.is_dir() else 0
    cache_bytes = _tree_bytes(cache_dir) - journal_bytes if cache_dir.is_dir() else 0
    layered = sum(
        seconds for name, seconds in self_s.items() if name not in _CONTAINERS
    )
    metrics = {
        "backend.serve_chunk_s": self_s["backend.serve_chunk"],
        "backend.serve_chunk_calls": calls["backend.serve_chunk"],
        "lb.serve_share": ratio(
            total_s["backend.serve_chunk"], total_s["lb.simulation"]
        ),
        "lb.assign_batch_s": self_s["lb.assign_batch"],
        "backend.searchsorted_right_s": self_s["backend.searchsorted_right"],
        "net.draw_batch_s": self_s["net.draw_batch"],
        "lb.engine_self_s": self_s["lb.engine"],
        "lb.chunks": counts["lb.chunks"],
        "lb.simulation_s": total_s["lb.simulation"],
        "lb.steps": counts["lb.steps"],
        "games.lower_bound_s": self_s["games.lower_bound"],
        "sdp.admm_batch_s": self_s["sdp.admm_batch"],
        "backend.project_psd_batch_s": self_s["backend.project_psd_batch"],
        "backend.project_psd_batch_calls": calls["backend.project_psd_batch"],
        "games.sample_s": self_s["games.sample"],
        "games.classical_bias_s": self_s["games.classical_bias"],
        "sdp.dual_bound_s": self_s["sdp.dual_bound"],
        "games.seesaw_s": self_s["games.seesaw"],
        "games.npa_s": self_s["games.npa"],
        "sdp.partition_sdp_s": self_s["sdp.partition_sdp"],
        **{f"games.decided.{stage}": n for stage, n in decided.items()},
        "games.escalation_rate": ratio(decided["sdp"], sum(decided.values())),
        "lb.des_s": total_s["lb.des"],
        "lb.des_calls": calls["lb.des"],
        "lb.des_requests": counts["lb.des_requests"],
        "lb.des_requests_per_s": ratio(
            counts["lb.des_requests"], total_s["lb.des"]
        ),
        "sim.run_s": self_s["sim.run"],
        "net.latency_s": self_s["net.latency"],
        "exec.cache_key_s": self_s["exec.cache_key"] + self_s["exec.fingerprint"],
        "exec.cache_key_calls": calls["exec.cache_key"],
        "exec.cache_get_s": self_s["exec.cache_get"],
        "exec.journal_replay_s": self_s["exec.journal_replay"],
        "exec.cache_hit_rate": ratio(
            counts["exec.cache_hits.warm"], counts["exec.cache_lookups.warm"]
        ),
        "exec.cache_put_s": self_s["exec.cache_put"],
        "exec.journal_s": self_s["exec.journal"],
        "exec.cache_bytes": cache_bytes,
        "exec.journal_bytes": journal_bytes,
        "exec.overhead_s": total_s["exec.sweep"] - counts["exec.busy_s"],
        "cli.self_s": self_s["cli"],
        "cli.import_s": import_s,
        "trace.coverage": ratio(layered, traced_wall),
        "trace.overhead": ratio(traced_cold_wall, untraced_wall) - 1.0,
    }
    return {name: float(value) for name, value in metrics.items()}


def command_stages(tracer: Tracer, top: int = 3) -> list[list[tuple[str, float]]]:
    """The ``top`` self-time stages under each top-level span, in call
    order; each top-level span is one CLI command."""
    roots: list[int] = []
    for index, span in enumerate(tracer.spans):
        roots.append(index if span[3] is None else roots[span[3]])
    stages: dict[int, dict[str, float]] = defaultdict(dict)
    for (root, name), seconds in _self_times(tracer.spans, roots.__getitem__).items():
        stages[root][name] = seconds
    return [
        sorted(by_name.items(), key=lambda item: -item[1])[:top]
        for _, by_name in sorted(stages.items())
    ]
