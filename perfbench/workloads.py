"""The benchmark's workloads: the CLI argv lists each timed pass runs.

Every workload is a list of ``python -m repro`` argv lists, built from a
seed and run in-process through ``repro.cli.main``. Sweeps always pass
``--jobs 1``: serial runs keep every layer call in the benchmark process
(so the traced run sees it) and do not let the slowest worker decide the
wall time.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

__all__ = ["WORKLOADS", "Workload", "points_in"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name, as passed to ``--workload``; why it was
            chosen is recorded next to it in ``BENCHMARK.json``.
        input_size: the stated size of one pass, for the provenance record.
        commands: ``(seed, scratch) -> argv lists`` of one pass. ``scratch``
            is a directory the pass may write output files into.
        warmup: tiny argv lists run once, untimed, before any measurement,
            so lazy imports and first-call set-up land in ``setup_s``.
    """

    name: str
    input_size: str
    commands: Callable[[int, Path], list[list[str]]]
    warmup: tuple[tuple[str, ...], ...]


def _fig4_paper(seed: int, scratch: Path) -> list[list[str]]:
    return [
        ["fig4", "--balancers", "100", "--steps", "2000",
         "--loads", "0.75", "1.0", "1.25", "1.5",
         "--seed", str(seed), "--jobs", "1"],
        ["groups", "--balancers", "96", "--steps", "2000",
         "--loads", "1.25", "--group-size", "4",
         "--seed", str(seed), "--jobs", "1"],
    ]


def _fig4_stream(seed: int, scratch: Path) -> list[list[str]]:
    # 5000 steps at N=1000 stream as chunks of 2048 + 2048 + 904 steps.
    return [
        ["fig4", "--balancers", "1000", "--steps", "5000", "--loads", "1.1",
         "--seed", str(seed), "--jobs", "1"],
    ]


#: Seed of the fig3_screen points whose cost depends on the draw. Their
#: time is set by how many games escalate to the ADMM / see-saw / NPA
#: stages (about 10 per 100 games at 6 vertices, a Poisson count), so a
#: seed change alone swings it by a third; pinned, those stages do the
#: same work on every run and a change in their speed shows.
PINNED_FIG3_SEED = 0


def _fig3_screen(seed: int, scratch: Path) -> list[list[str]]:
    pinned = str(PINNED_FIG3_SEED)
    return [
        ["fig3", "--games", "200", "--vertices", "5",
         "--points", "0.0", "0.25", "0.5", "0.75", "1.0",
         "--seed", str(seed), "--jobs", "1"],
        ["fig3", "--games", "40", "--vertices", "6",
         "--points", "0.25", "0.75", "--seed", pinned, "--jobs", "1"],
        ["fig3", "--games", "8", "--game-family", "random-nonlocal",
         "--vertices", "3", "--points", "0.5", "--seed", pinned,
         "--jobs", "1"],
    ]


def _regime_des(seed: int, scratch: Path) -> list[list[str]]:
    return [
        ["regime", "--seed", str(seed), "--jobs", "1",
         "--json", str(scratch / "regime.json")],
    ]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig4_paper",
            input_size="fig4 N=100 x 2000 steps x 4 loads x 2 policies + "
            "groups N=96 x 2000 steps x 1 load x 4 policies = 12 points, "
            "2.37e6 balancer-steps",
            commands=_fig4_paper,
            warmup=(
                ("fig4", "--balancers", "8", "--steps", "20",
                 "--loads", "1.0", "--jobs", "1"),
                ("groups", "--balancers", "8", "--steps", "20",
                 "--loads", "1.0", "--jobs", "1"),
            ),
        ),
        Workload(
            name="fig4_stream",
            input_size="fig4 N=1000 x 5000 steps (3 chunks) x 1 load x "
            "2 policies = 2 points, 1.0e7 balancer-steps",
            commands=_fig4_stream,
            warmup=(
                ("fig4", "--balancers", "8", "--steps", "20",
                 "--loads", "1.0", "--jobs", "1"),
            ),
        ),
        Workload(
            name="fig3_screen",
            input_size="fig3 5 points x 200 games at 5 vertices + 2 points "
            "x 40 games at 6 vertices + 1 point x 8 random-nonlocal games "
            "at 3 inputs = 8 points, 1088 games",
            commands=_fig3_screen,
            warmup=(
                ("fig3", "--games", "4", "--vertices", "5",
                 "--points", "0.5", "--jobs", "1"),
                ("fig3", "--games", "4", "--vertices", "6",
                 "--points", "0.5", "--jobs", "1"),
                ("fig3", "--games", "2", "--game-family", "random-nonlocal",
                 "--vertices", "2", "--points", "0.5", "--jobs", "1"),
            ),
        ),
        Workload(
            name="regime_des",
            input_size="regime 24 cells (3 deadlines x 2 distances x "
            "2 loads x 2 fidelities), 8 balancers, 120 service times",
            commands=_regime_des,
            warmup=(
                ("regime", "--deadlines-ms", "1", "--distances-km", "50",
                 "--loads", "0.5", "--fidelities", "1.0",
                 "--horizon-services", "5", "--jobs", "1"),
            ),
        ),
    )
}


def points_in(argv: list[str]) -> int:
    """Sweep points one CLI invocation runs, read from its parsed argv."""
    from repro.cli import build_parser

    args = build_parser().parse_args(argv)
    if args.command == "fig4":
        return 2 * len(args.loads)
    if args.command == "groups":
        return 4 * len(args.loads)
    if args.command == "fig3":
        return len(args.points)
    if args.command == "regime":
        return (
            len(args.deadlines_ms)
            * len(args.distances_km)
            * len(args.loads)
            * len(args.fidelities)
        )
    raise ValueError(f"no point count for command {args.command!r}")
