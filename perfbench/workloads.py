"""The four workloads: their inputs, one measured repetition, and their gates.

Every workload exists at two scales: ``full`` (the benchmark of record) and
``toy`` (seconds, for the self-test).  A repetition runs the workload through
the program's public entry points, returns what it measured, and raises
:class:`GateError` when an output is wrong.

``repro`` is imported inside the functions, never at module level, so the
set-up probe can time the imports a workload pays for.
"""

from __future__ import annotations

import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from calibration import mark
from layers import SpanRecorder, traced


class GateError(Exception):
    """A workload produced a wrong output: the run reports no metrics.

    ``attempted``/``failed`` count the operations of the failing repetition
    (runs for a campaign, one check for a check).
    """

    def __init__(self, message: str, attempted: int = 1, failed: int = 1):
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


#: Machine slowdown over a ``perf_counter`` interval (see ``calibration.py``).
Slowdown = Callable[[float, float], float]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


# ----------------------------------------------------------------------
# campaign workloads (sweep, netsim)
# ----------------------------------------------------------------------
_SWEEP_FULL = dict(
    name="sweep",
    families=("chain", "grid", "random-dag"),
    algorithms=("pr", "fr", "new-pr"),
    schedulers=("greedy", "random", "adversarial"),
    sizes=(8, 16, 32),
    replicates=20,
    failure_models=(("none", 0), ("link-failures", 2)),
)
_SWEEP_TOY = dict(
    _SWEEP_FULL,
    families=("chain", "random-dag"),
    algorithms=("pr", "fr"),
    schedulers=("greedy", "random"),
    sizes=(4, 6),
    replicates=2,
)

#: Async cells and data-plane cells over one grid.  A data-plane run costs
#: about twenty times an async one, hence fewer replicates.
_NETSIM_GRID = dict(
    families=("chain", "grid", "random-dag"),
    algorithms=("pr", "fr"),
    schedulers=("greedy",),
    sizes=(24,),
    failure_models=(("link-failures", 2),),
    delay_models=("uniform", "fifo"),
    losses=(0.0, 0.1),
)
_NETSIM_FULL = (
    dict(_NETSIM_GRID, name="netsim-async", replicates=16),
    dict(_NETSIM_GRID, name="netsim-dataplane", replicates=1, traffics=("trickle",)),
)
_NETSIM_TOY = tuple(
    dict(axes, families=("chain",), sizes=(6,), replicates=1) for axes in _NETSIM_FULL
)


def _sweep_gate(records: List[Dict[str, Any]], report: Dict[str, Any], expected_runs: int) -> None:
    _require(len(records) == expected_runs, f"{len(records)} records, expected {expected_runs}")
    _require(all(r["status"] == "ok" for r in records), "a run's status is not ok")
    _require(all(r["acyclic_final"] for r in records), "a run ended with a cycle")
    _require(report["pr_vs_fr"]["ordering_holds"], "the PR-vs-FR work ordering does not hold")
    _require(report["invariants"]["violations"] == 0, "the report counts invariant violations")


def _netsim_gate(records: List[Dict[str, Any]], report: Dict[str, Any], expected_runs: int) -> None:
    _require(len(records) == expected_runs, f"{len(records)} records, expected {expected_runs}")
    _require(all(r["status"] == "ok" for r in records), "a run's status is not ok")
    planes = [r for r in records if r.get("traffic") is not None]
    _require(bool(planes), "no data-plane records")
    for r in planes:
        _require(
            r["packets_injected"]
            == r["packets_delivered"] + r["packets_dropped"] + r["packets_in_flight"],
            f"packet conservation fails on run {r['run_id']}",
        )


@dataclass(frozen=True)
class CampaignWorkload:
    """One or more campaigns run into one fresh store, then ``build_report``.

    ``workers`` is the pool size of the untraced end-to-end run.  Each
    repetition builds the report ``report_builds`` times from the finished
    store and ``report_s`` is their median.
    """

    name: str
    axes: Dict[str, Tuple[Dict[str, Any], ...]]
    gate: Any
    workers: int
    report_builds: int

    def setup(self, seed: int, scale: str, workdir: Path) -> Dict[str, Any]:
        # imported here so that set-up pays for them; the repetition uses them
        from repro.experiments import aggregate  # noqa: F401
        from repro.experiments.executor import run_campaign  # noqa: F401
        from repro.experiments.spec import CampaignSpec
        from repro.experiments.store import ResultStore

        campaigns = [CampaignSpec(base_seed=seed, **axes) for axes in self.axes[scale]]
        specs = [spec for campaign in campaigns for spec in campaign.expand()]
        store_dir = workdir / "store"
        shutil.rmtree(store_dir, ignore_errors=True)
        return {"campaigns": campaigns, "runs": len(specs), "store": ResultStore(store_dir)}

    def repetition(
        self,
        state: Dict[str, Any],
        workers: int,
        recorder: Optional[SpanRecorder] = None,
    ) -> Dict[str, Any]:
        """Run every campaign into a fresh store and build the report, timed."""
        from repro.experiments import aggregate
        from repro.experiments.executor import run_campaign
        from repro.experiments.store import ResultStore

        root = state["store"].root
        state["store"].close()
        shutil.rmtree(root, ignore_errors=True)
        store = state["store"] = ResultStore(root)
        with traced(recorder) if recorder is not None else nullcontext():
            start = time.perf_counter()
            reports = [
                run_campaign(campaign, store, workers=workers)
                for campaign in state["campaigns"]
            ]
            middle = time.perf_counter()

            def build():
                began = time.perf_counter()
                report = aggregate.build_report(store)
                return time.perf_counter() - began, report

            report, builds = _bracketed(build, self.report_builds)
            end = time.perf_counter()
        records = store.records()
        failed = sum(1 for r in records if r["status"] != "ok")
        try:
            self.gate(records, report, state["runs"])
        except GateError as error:
            raise GateError(str(error), max(1, len(records)), failed) from None
        return {
            "attempted": len(records),
            "failed": failed,
            "wall_s": end - start,
            "campaign_s": middle - start,
            "report_s": _median(seconds for seconds, _ in builds),
            "report_builds": builds,
            "windows": {"campaign": (start, middle), "report": (middle, end)},
            "runs": sum(r.executed for r in reports),
            "states": sum(r["steps_taken"] for r in records),
            "reports": reports,
            "run_walls_s": [r["wall_time_s"] for r in records],
            "store_bytes": _store_bytes(root),
        }

    def end_to_end(self, reps: Sequence[Dict[str, Any]], slowdown: Slowdown) -> Dict[str, float]:
        """Medians over repetitions, each part rescaled by the machine's
        slowdown while it ran."""
        campaign = [slowdown(*r["windows"]["campaign"]) for r in reps]
        return {
            "runs_per_s": _median(r["runs"] / r["campaign_s"] * k for r, k in zip(reps, campaign)),
            "states_per_s": _median(r["states"] / r["campaign_s"] * k for r, k in zip(reps, campaign)),
            "report_s": _report_s(reps, slowdown),
        }

    def close(self, state: Dict[str, Any]) -> None:
        state["store"].close()


def _store_bytes(root: Path) -> Dict[str, int]:
    """Bytes the store wrote: records and index, and the telemetry sidecar apart."""
    sizes = {"store": 0, "sidecar": 0}
    for path in root.rglob("*"):
        if path.is_file():
            key = "sidecar" if path.name == "telemetry.jsonl" else "store"
            sizes[key] += path.stat().st_size
    return sizes


# ----------------------------------------------------------------------
# model-check workloads (check, check_wide)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckSize:
    """One FR all-bad grid check and the counts it must reproduce exactly."""

    rows: int
    cols: int
    max_states: int
    states: int
    transitions: int
    truncated: bool
    vectorized: bool
    spill_threshold: Optional[int] = None
    min_compactions: int = 0


#: How often one repetition stores the check record and builds the report
#: (the median is ``report_s``; one round trip takes milliseconds).
_REPORT_ROUND_TRIPS = 15


@dataclass(frozen=True)
class CheckWorkload:
    """``ModelChecker.run()`` on a fixed instance, in one process.

    The seed does not change the instance, and ``workers`` is ignored.
    """

    name: str
    sizes: Dict[str, CheckSize] = field(default_factory=dict)
    workers: int = 1

    def setup(self, seed: int, scale: str, workdir: Path) -> Dict[str, Any]:
        from repro.core.full_reversal import FullReversal
        from repro.exploration.checker import ModelChecker
        from repro.topology.generators import grid_instance

        size = self.sizes[scale]
        spill_dir = workdir / "spill"
        spill_dir.mkdir(parents=True, exist_ok=True)
        checker = ModelChecker(
            FullReversal(grid_instance(size.rows, size.cols, oriented_towards_destination=False)),
            max_states=size.max_states,
            check_acyclicity=True,
            check_progress=True,
            spill_threshold=size.spill_threshold,
            spill_dir=str(spill_dir),
        )
        return {"checker": checker, "size": size, "store_dir": workdir / "store"}

    def repetition(
        self,
        state: Dict[str, Any],
        workers: int,
        recorder: Optional[SpanRecorder] = None,
    ) -> Dict[str, Any]:
        """One exhaustive (or capped) check, timed, then its report round trips."""
        from repro import telemetry
        from repro.telemetry.metrics import MetricsRegistry

        checker = state["checker"]
        registry = token = None
        if recorder is not None:
            # the checker samples its frontier size into an enabled registry
            registry = MetricsRegistry()
            token = telemetry.activate(registry=registry)
        try:
            with traced(recorder) if recorder is not None else nullcontext():
                start = time.perf_counter()
                report = checker.run()
                end = time.perf_counter()
        finally:
            if token is not None:
                telemetry.restore(token)
        self.gate(report, state["size"])
        frontier = registry.snapshot()["histograms"].get("checker.frontier", {}) if registry else {}
        # not bracketed like a campaign's report builds: a sample next to each
        # round trip of about a millisecond disturbed the trips it bracketed
        trips_start = time.perf_counter()
        report_s = _median(
            self._report_round_trip(report, state["store_dir"])
            for _ in range(_REPORT_ROUND_TRIPS)
        )
        trips = [(report_s, (trips_start, time.perf_counter()))]
        return {
            "attempted": 1,
            "failed": 0,
            "wall_s": end - start,
            "check_s": end - start,
            "states": report.states_explored,
            "report_s": report_s,
            "report_builds": trips,
            "windows": {"check": (start, end), "report": trips[0][1]},
            "spill_stats": dict(report.spill_stats or {}),
            "frontier_max": frontier.get("max", 0),
        }

    @staticmethod
    def gate(report, size: CheckSize) -> None:
        _require(
            report.states_explored == size.states,
            f"{report.states_explored} states, expected {size.states}",
        )
        _require(
            report.transitions_explored == size.transitions,
            f"{report.transitions_explored} transitions, expected {size.transitions}",
        )
        _require(report.all_predicates_hold, f"{len(report.failures)} predicate failures")
        _require(report.truncated == size.truncated, f"truncated={report.truncated}")
        _require(report.vectorized == size.vectorized, f"vectorized={report.vectorized}")
        compactions = (report.spill_stats or {}).get("compactions", 0)
        _require(
            compactions >= size.min_compactions,
            f"{compactions} visited-set compactions, expected at least {size.min_compactions}",
        )

    def _report_round_trip(self, report, store_dir: Path) -> float:
        """Store the check record as ``repro check --store`` does and build the report."""
        from repro.experiments import aggregate
        from repro.experiments.store import ResultStore

        shutil.rmtree(store_dir, ignore_errors=True)
        start = time.perf_counter()
        with ResultStore(store_dir) as store:
            store.append([report.to_record(run_id=self.name, kind="check", campaign=self.name)])
            summary = aggregate.build_report(store)
        elapsed = time.perf_counter() - start
        _require(summary["invariants"]["violations"] == 0, "the report counts violations")
        return elapsed

    def end_to_end(self, reps: Sequence[Dict[str, Any]], slowdown: Slowdown) -> Dict[str, float]:
        """Medians over repetitions, each part rescaled by the machine's
        slowdown while it ran."""
        check = [slowdown(*r["windows"]["check"]) for r in reps]
        return {
            "runs_per_s": _median(k / r["check_s"] for r, k in zip(reps, check)),
            "states_per_s": _median(r["states"] / r["check_s"] * k for r, k in zip(reps, check)),
            "report_s": _report_s(reps, slowdown),
        }

    def close(self, state: Dict[str, Any]) -> None:
        pass


def _median(values) -> float:
    return statistics.median(list(values))


def _bracketed(build: Callable[[], Tuple[float, Any]], count: int):
    """Call ``build`` (which returns its own seconds and a result) ``count``
    times, with a speed sample right before and after each call.

    Returns the last result and, per call, its seconds and a window that
    holds both of its samples.
    """
    timings = []
    result = None
    for _ in range(count):
        opened = time.perf_counter()
        mark()
        seconds, result = build()
        mark()
        timings.append((seconds, (opened, time.perf_counter())))
    return result, timings


def _report_s(reps: Sequence[Dict[str, Any]], slowdown: Slowdown) -> float:
    """Median over repetitions of the median normalised build or round trip."""
    return _median(
        _median(seconds / slowdown(*window) for seconds, window in r["report_builds"])
        for r in reps
    )


WORKLOADS = {
    "sweep": CampaignWorkload(
        "sweep", {"full": (_SWEEP_FULL,), "toy": (_SWEEP_TOY,)}, _sweep_gate,
        workers=2, report_builds=3,
    ),
    # inline: its few heavy runs leave one pool worker idle behind the other's
    # straggler, and that tail is set by the scheduler, not the program
    "netsim": CampaignWorkload(
        "netsim", {"full": _NETSIM_FULL, "toy": _NETSIM_TOY}, _netsim_gate,
        workers=1, report_builds=10,
    ),
    "check": CheckWorkload(
        "check",
        {
            "full": CheckSize(
                4, 6, 10_000_000, 126_534, 673_524, truncated=False, vectorized=True,
                spill_threshold=10_000, min_compactions=1,
            ),
            "toy": CheckSize(
                3, 5, 10_000_000, 1_706, 5_800, truncated=False, vectorized=True,
                spill_threshold=100, min_compactions=1,
            ),
        },
    ),
    "check_wide": CheckWorkload(
        "check_wide",
        {
            "full": CheckSize(6, 7, 30_000, 30_000, 138_909, truncated=True, vectorized=False),
            "toy": CheckSize(6, 7, 2_000, 2_000, 6_666, truncated=True, vectorized=False),
        },
    ),
}


def setup_probe(name: str, seed: int, scale: str, workdir: Path) -> float:
    """Seconds to import a workload's modules, build its inputs and construct
    its store or checker — call in a fresh process, before ``repro`` is imported."""
    start = time.perf_counter()
    workload = WORKLOADS[name]
    state = workload.setup(seed, scale, workdir)
    elapsed = time.perf_counter() - start
    workload.close(state)
    return elapsed
