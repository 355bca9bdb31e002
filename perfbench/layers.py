"""Per-layer tracing from outside the program: span wrappers and self times.

A traced repetition installs a :class:`SpanRecorder` wrapper around the
public entry point of every layer (see :data:`TARGETS`), runs the workload,
and restores the originals.  Each wrapped call becomes one span — name,
start, end, parent span and run id — kept in flat in-memory columns and
written out as ``.npz`` when the benchmark ends.  A span's self time is its
duration minus the time its child spans cover; the sum of every span's
self time equals the time covered by root spans, so the traced wall time
minus that sum is the time no layer accounts for (``trace.other_s``).

Nothing here imports ``repro`` or numpy at module level: the set-up probe
(:func:`workloads.setup_probe`) times those imports, so this module must
not have paid for them already.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: (span name, "module:attribute path") — every layer boundary the traced
#: run wraps.  Module-level functions are patched in the module that *calls*
#: them (``runner`` imports ``mask_final_state_checks`` by name, ``checker``
#: imports the batch invariants by name), so the wrapper is what the caller
#: looks up.  Several targets may share one span name.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("spec.expand", "repro.experiments.spec:CampaignSpec.expand"),
    ("runner.execute_scenario", "repro.experiments.runner:execute_scenario"),
    ("kernels.instance", "repro.kernels.simulator:KernelCache.instance"),
    ("kernels.kernel", "repro.kernels.simulator:KernelCache.kernel"),
    ("kernels.run_phase", "repro.kernels.simulator:SignatureSimulator.run_phase"),
    ("kernels.final_checks", "repro.experiments.runner:mask_final_state_checks"),
    ("churn.rebuild", "repro.experiments.runner:_surviving_instance_from_edges"),
    ("store.append", "repro.experiments.store:ResultStore.append"),
    ("store.resume_scan", "repro.experiments.store:ResultStore.existing_run_ids"),
    ("store.read", "repro.experiments.store:ResultStore.records"),
    ("telemetry.sidecar", "repro.experiments.store:ResultStore.record_telemetry"),
    ("aggregate.build_report", "repro.experiments.aggregate:build_report"),
    ("vector.expand", "repro.kernels.vector:VectorExpander.expand"),
    ("vector.acyclic", "repro.exploration.checker:mask_is_acyclic_batch"),
    ("vector.oriented", "repro.exploration.checker:mask_is_destination_oriented_batch"),
    ("frontier.probe", "repro.exploration.frontier:VisitedSet.contains_many"),
    ("frontier.insert", "repro.exploration.frontier:VisitedSet.update_sorted"),
    ("frontier.insert", "repro.exploration.frontier:VisitedSet.add_many"),
    ("frontier.add", "repro.exploration.frontier:VisitedSet.add"),
    ("signature.successors", "repro.kernels.signature:FullReversalExpander.successors"),
    ("signature.successors", "repro.kernels.signature:PartialReversalExpander.successors"),
    ("signature.successors", "repro.kernels.signature:OneStepPRExpander.successors"),
    ("signature.successors", "repro.kernels.signature:NewPRExpander.successors"),
    ("signature.acyclic", "repro.exploration.checker:mask_is_acyclic"),
    ("checker.run", "repro.exploration.checker:ModelChecker.run"),
    ("fast_network.quiesce", "repro.distributed.fast_network:FastAsyncNetwork.run_to_quiescence"),
    ("fast_network.quiesce", "repro.distributed.fast_network:FastAsyncNetwork.run_with_beacons"),
    ("fast_network.fail_link", "repro.distributed.fast_network:FastAsyncNetwork.fail_link"),
    ("dataplane.step", "repro.dataplane.packets:PacketSimulator.step"),
    ("dataplane.inject", "repro.dataplane.packets:PacketSimulator.inject_slot"),
    ("dataplane.step_slot", "repro.dataplane.run:DataPlaneRun.step_slot"),
)


def _count_expand(counts: Counter, args, result) -> None:
    frontier = args[1]
    counts["vector.rounds"] += 1
    counts["vector.successors"] += int(result.successors.size)
    # computed, not measured: the bytes of every array the round reads or emits
    counts["vector.bytes_moved"] += int(
        frontier.nbytes + result.successors.nbytes + result.parents.nbytes
        + result.tokens.nbytes + result.quiescent.nbytes
    )


def _count_acyclic_batch(counts: Counter, args, result) -> None:
    counts["vector.acyclic_states"] += int(args[1].size)


def _count_probe(counts: Counter, args, result) -> None:
    counts["frontier.probed"] += int(result.size)
    counts["frontier.new"] += int(result.size - result.sum())


def _count_add(counts: Counter, args, result) -> None:
    counts["frontier.probed"] += 1
    counts["frontier.new"] += bool(result)


def _count_record(counts: Counter, args, record) -> None:
    engine = record.get("engine")
    if engine == "kernel":
        counts["kernels.steps"] += record.get("steps_taken") or 0
    if engine in ("async", "dataplane"):
        counts["fast_network.events"] += record.get("events_dispatched") or 0
        counts["fast_network.messages_sent"] += record.get("messages_sent") or 0
        counts["fast_network.messages_lost"] += record.get("messages_lost") or 0
    if engine == "dataplane":
        for field in ("packets_delivered", "packets_dropped", "packets_injected"):
            counts["dataplane." + field] += record.get(field) or 0


#: Span name → hook ``(counts, args, result)`` that counts work at the same
#: boundary, so ratios are measured where the work happens.
_COUNTERS: Dict[str, Callable[[Counter, Any, Any], None]] = {
    "vector.expand": _count_expand,
    "vector.acyclic": _count_acyclic_batch,
    "frontier.probe": _count_probe,
    "frontier.add": _count_add,
    "runner.execute_scenario": _count_record,
}


def _run_id_of(args) -> str:
    spec = args[0]
    return spec.get("run_id", "") if isinstance(spec, dict) else spec.run_id


class SpanRecorder:
    """In-memory span columns plus the counters recorded at the same calls."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        #: 1 where an enclosing span has the same name (recursion or two
        #: targets sharing a name); such spans are inside the outer one's
        #: inclusive time already
        self.nested = array("b")
        self.run_ids: List[str] = [""]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._depth: Dict[int, int] = {}
        self._run = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` wrapped so that every call records one span."""
        nid = self._name_id(name)
        count = _COUNTERS.get(name)
        scoped = name == "runner.execute_scenario"
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            outer_run = self._run
            if scoped:
                self.run_ids.append(_run_id_of(args))
                self._run = len(self.run_ids) - 1
            index = len(self.start)
            stack = self._stack
            depth = self._depth.get(nid, 0)
            self.name_col.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self._run)
            self.nested.append(1 if depth else 0)
            self.end.append(0.0)
            stack.append(index)
            self._depth[nid] = depth + 1
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
                self._depth[nid] = depth
                self._run = outer_run
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    # -- aggregation ----------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``inclusive_s`` (outermost spans) and ``self_s``."""
        import numpy as np

        if not self.start:
            return {}
        names = np.frombuffer(self.name_col, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = np.frombuffer(self.nested, dtype=np.int8).astype(bool)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        own = duration - child
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        inclusive = np.bincount(names[~nested], weights=duration[~nested], minlength=width)
        self_s = np.bincount(names, weights=own, minlength=width)
        return {
            name: {
                "calls": int(calls[i]),
                "inclusive_s": float(inclusive[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def columns(self) -> Dict[str, Any]:
        """The spans as numpy columns (what :func:`write_spans` saves)."""
        import numpy as np

        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install ``recorder``'s wrappers on every target for the scope."""
    installed: List[Tuple[Any, str, Any]] = []
    try:
        for name, target in TARGETS:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr]
            installed.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def write_spans(path, recorders: Sequence[SpanRecorder]) -> None:
    """Save every recorder's spans to one ``.npz`` (a ``rep`` column tells them apart).

    Recorders installed from the same targets share one name table.
    """
    import numpy as np

    parts: Dict[str, List[Any]] = {}
    run_ids: List[str] = []
    for rep, recorder in enumerate(recorders):
        columns = recorder.columns()
        columns["rep"] = np.full(columns["start"].size, rep, dtype=np.int32)
        columns["run"] += len(run_ids)  # index into the saved run_ids
        run_ids.extend(recorder.run_ids)
        for key, value in columns.items():
            parts.setdefault(key, []).append(value)
    arrays = {key: np.concatenate(values) for key, values in parts.items()}
    np.savez(path, names=np.array(recorders[0].names), run_ids=np.array(run_ids), **arrays)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Every per-layer metric the traced run emits, with its unit.
LAYER_UNITS: Dict[str, str] = {
    "spec.expand_s": "s",
    "executor.utilisation": "ratio",
    "executor.idle_s": "s",
    "executor.outside_s": "s",
    "executor.retries": "count",
    "runner.runs": "count",
    "runner.run_p50_ms": "ms",
    "runner.run_p99_ms": "ms",
    "kernels.instance_s": "s",
    "kernels.instance_builds": "count",
    "kernels.instance_hit_ratio": "ratio",
    "kernels.compile_s": "s",
    "kernels.kernel_compiles": "count",
    "kernels.kernel_hit_ratio": "ratio",
    "kernels.run_phase_s": "s",
    "kernels.run_phase_calls": "count",
    "kernels.steps": "count",
    "kernels.final_checks_s": "s",
    "churn.rebuild_s": "s",
    "churn.rebuilds": "count",
    "store.append_s": "s",
    "store.append_calls": "count",
    "store.bytes_written": "bytes",
    "store.resume_scan_s": "s",
    "store.read_s": "s",
    "telemetry.sidecar_s": "s",
    "telemetry.sidecar_bytes": "bytes",
    "aggregate.self_s": "s",
    "vector.expand_s": "s",
    "vector.rounds": "count",
    "vector.successors": "count",
    "vector.bytes_moved": "bytes",
    "vector.acyclic_s": "s",
    "vector.acyclic_states": "count",
    "vector.oriented_s": "s",
    "frontier.probe_s": "s",
    "frontier.insert_s": "s",
    "frontier.new_ratio": "ratio",
    "frontier.spills": "count",
    "frontier.compactions": "count",
    "frontier.spilled_signatures": "count",
    "frontier.add_s": "s",
    "signature.successors_s": "s",
    "signature.successors_calls": "count",
    "signature.acyclic_s": "s",
    "checker.self_s": "s",
    "checker.frontier_max": "count",
    "fast_network.quiesce_s": "s",
    "fast_network.fail_link_s": "s",
    "fast_network.events": "count",
    "fast_network.messages_sent": "count",
    "fast_network.messages_lost": "count",
    "dataplane.step_s": "s",
    "dataplane.inject_s": "s",
    "dataplane.control_s": "s",
    "dataplane.packets_delivered": "count",
    "dataplane.packets_per_s": "packets/s",
    "dataplane.drop_ratio": "ratio",
    "trace.other_s": "s",
    "trace.overhead_s": "s",
    "calib.python_s": "s",
    "calib.numpy_s": "s",
}

#: Metrics that are the inclusive time of one span name.
_INCLUSIVE = {
    "spec.expand_s": "spec.expand",
    "kernels.instance_s": "kernels.instance",
    "kernels.compile_s": "kernels.kernel",
    "kernels.run_phase_s": "kernels.run_phase",
    "kernels.final_checks_s": "kernels.final_checks",
    "churn.rebuild_s": "churn.rebuild",
    "store.append_s": "store.append",
    "store.resume_scan_s": "store.resume_scan",
    "store.read_s": "store.read",
    "telemetry.sidecar_s": "telemetry.sidecar",
    "vector.expand_s": "vector.expand",
    "vector.acyclic_s": "vector.acyclic",
    "vector.oriented_s": "vector.oriented",
    "frontier.probe_s": "frontier.probe",
    "frontier.insert_s": "frontier.insert",
    "frontier.add_s": "frontier.add",
    "signature.successors_s": "signature.successors",
    "signature.acyclic_s": "signature.acyclic",
    "fast_network.quiesce_s": "fast_network.quiesce",
    "fast_network.fail_link_s": "fast_network.fail_link",
    "dataplane.step_s": "dataplane.step",
    "dataplane.inject_s": "dataplane.inject",
}

#: Metrics that are the self time of one span name (the layer minus its children).
_SELF = {
    "aggregate.self_s": "aggregate.build_report",
    "checker.self_s": "checker.run",
    "dataplane.control_s": "dataplane.step_slot",
}

#: Metrics that are the call count of one span name.
_CALLS = {
    "kernels.run_phase_calls": "kernels.run_phase",
    "churn.rebuilds": "churn.rebuild",
    "store.append_calls": "store.append",
    "signature.successors_calls": "signature.successors",
}

#: Metrics copied straight from the recorder's counters.
_COUNTS = (
    "kernels.steps",
    "vector.rounds",
    "vector.successors",
    "vector.bytes_moved",
    "vector.acyclic_states",
    "fast_network.events",
    "fast_network.messages_sent",
    "fast_network.messages_lost",
    "dataplane.packets_delivered",
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced_metrics(recorder: SpanRecorder, traced_wall_s: float) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced repetition."""
    totals = recorder.totals()

    def total(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    metrics: Dict[str, float] = {}
    for metric, name in _INCLUSIVE.items():
        metrics[metric] = total(name, "inclusive_s")
    for metric, name in _SELF.items():
        metrics[metric] = total(name, "self_s")
    for metric, name in _CALLS.items():
        metrics[metric] = total(name, "calls")
    counts = recorder.counts
    for metric in _COUNTS:
        metrics[metric] = counts.get(metric, 0)
    metrics["frontier.new_ratio"] = _ratio(counts["frontier.new"], counts["frontier.probed"])
    metrics["dataplane.packets_per_s"] = _ratio(
        counts["dataplane.packets_delivered"], total("dataplane.step_slot", "inclusive_s")
    )
    metrics["dataplane.drop_ratio"] = _ratio(
        counts["dataplane.packets_dropped"], counts["dataplane.packets_injected"]
    )
    # every span's self time summed is the time covered by root spans
    metrics["trace.other_s"] = traced_wall_s - sum(t["self_s"] for t in totals.values())
    return metrics


def cache_metrics(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    """Instance/kernel cache builds and hit ratios from two ``kernel_cache_stats()``."""

    def delta(suffix: str, prefixes: Sequence[str]) -> int:
        return sum(after.get(p + suffix, 0) - before.get(p + suffix, 0) for p in prefixes)

    # the kernel, async and dataplane engines each keep an instance cache
    engines = ("", "async_", "dataplane_")
    builds = delta("instance_builds", engines)
    hits = delta("instance_hits", engines)
    compiles = delta("kernel_compiles", ("",))
    kernel_hits = delta("kernel_hits", ("",))
    return {
        "kernels.instance_builds": builds,
        "kernels.instance_hit_ratio": _ratio(hits, hits + builds),
        "kernels.kernel_compiles": compiles,
        "kernels.kernel_hit_ratio": _ratio(kernel_hits, kernel_hits + compiles),
    }


def executor_metrics(reports: Sequence[Any]) -> Dict[str, float]:
    """Executor utilisation, idle, outside-window time and retries from ``CampaignReport``s."""
    capacity = sum(r.execution_wall_s * r.workers for r in reports)
    busy = sum(r.execution_wall_s * r.workers * r.worker_utilisation for r in reports)
    return {
        "executor.utilisation": _ratio(busy, capacity),
        "executor.idle_s": capacity - busy,
        "executor.outside_s": sum(r.wall_time_s - r.execution_wall_s for r in reports),
        "executor.retries": sum(
            r.retries + r.watchdog_kills + r.pool_reforms + r.degraded_serial
            for r in reports
        ),
    }


def latency_metrics(wall_times_s: Sequence[float]) -> Dict[str, float]:
    """Run count and p50/p99 of per-run wall times (nearest-rank)."""
    ordered = sorted(wall_times_s)
    if not ordered:
        return {"runner.runs": 0, "runner.run_p50_ms": 0.0, "runner.run_p99_ms": 0.0}

    def rank(q: float) -> float:
        return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]

    return {
        "runner.runs": len(ordered),
        "runner.run_p50_ms": rank(0.50) * 1e3,
        "runner.run_p99_ms": rank(0.99) * 1e3,
    }
