"""Experiment E21 — the memoised chunk path vs per-scenario kernel runs.

``run_scenarios`` puts an outcome memo in front of the kernel engine: a
run's result fields are a pure function of its outcome key (instance
structure, algorithm, scheduler, churn model and only the seeds the run
consumes), so every replicate of a deterministic cell after the first is a
memo hit, and seed-deterministic families share one compiled kernel.  This
experiment times the same 6144-run campaign chunk — two families, PR + FR,
all six mask schedulers, 256 replicates — through ``run_scenarios`` on
``auto`` and through one ``execute_scenario(..., engine="kernel")`` call
per spec (the memo-off oracle), with every cache cleared inside each
workload so both sides pay cold-start costs.

Expected shape: identical records run for run (the differential suite pins
this field by field) and a memo/oracle throughput ratio well above 1; the
deterministic five-sixths of the runs collapse to one executed run per
cell, so the ratio approaches the scheduler mix's dedup ceiling as size
grows.  The floor asserted here is deliberately conservative (CI boxes are
noisy); the measured ratio is recorded in ``extra_info`` and tracked across
PRs by the ``bench_batch_sweep`` / ``bench_batch_sweep_kernel`` pair in
``BENCH_baseline.json`` (names kept from the retired lockstep engine).
"""

from __future__ import annotations

from benchmarks._harness import claim_experiment, print_table, record

claim_experiment("E21", __name__)

from repro.experiments.runner import (
    clear_kernel_caches,
    execute_scenario,
    kernel_cache_stats,
    run_scenarios,
)
from repro.experiments.spec import CampaignSpec

#: Conservative CI floor for the memo/oracle throughput ratio; the measured
#: value (tracked in BENCH_baseline.json) sits well above this on a quiet box.
MIN_BATCH_SPEEDUP = 3.0

#: Runs per campaign cell — the chunk width the memo is measured at.
REPLICATES = 256


def _campaign() -> CampaignSpec:
    return CampaignSpec(
        name="bench-batch-sweep",
        families=("chain", "grid"),
        algorithms=("pr", "fr"),
        schedulers=(
            "greedy", "sequential", "lazy", "adversarial", "round-robin", "random",
        ),
        sizes=(16,),
        replicates=REPLICATES,
    )


#: The expanded benchmark chunk, built once — spec construction (6144
#: ``to_dict`` calls, each hashing a run_id) is shared input prep, not engine
#: work, and neither path mutates the input dicts.
_SPEC_CACHE: list = []


def _specs() -> list:
    if not _SPEC_CACHE:
        _SPEC_CACHE.extend(spec.to_dict() for spec in _campaign().expand())
    return _SPEC_CACHE


def _measure_kernel() -> list:
    """One memo-off ``execute_scenario`` per spec on the kernel engine, cold caches."""
    clear_kernel_caches()
    return [execute_scenario(spec, engine="kernel") for spec in _specs()]


def _measure_batch() -> list:
    """``run_scenarios`` on ``auto`` (outcome memo on) over the same chunk, cold caches."""
    clear_kernel_caches()
    return run_scenarios(_specs())


def test_e21_batch_vs_kernel(benchmark):
    import time

    def workload():
        start = time.perf_counter()
        kernel_records = _measure_kernel()
        kernel_s = time.perf_counter() - start
        start = time.perf_counter()
        batch_records = _measure_batch()
        batch_s = time.perf_counter() - start
        return kernel_records, kernel_s, batch_records, batch_s

    kernel_records, kernel_s, batch_records, batch_s = benchmark.pedantic(
        workload, rounds=1, iterations=1
    )

    lanes = len(batch_records)
    volatile = ("wall_time_s",)
    mismatches = sum(
        1
        for a, b in zip(kernel_records, batch_records)
        if {k: v for k, v in a.items() if k not in volatile}
        != {k: v for k, v in b.items() if k not in volatile}
    )
    stats = kernel_cache_stats()
    ratio = kernel_s / batch_s if batch_s else 0.0

    rows = [
        ("execute_scenario (memo off)", lanes, round(kernel_s, 4),
         round(lanes / kernel_s) if kernel_s else 0),
        ("run_scenarios (memo on)", lanes, round(batch_s, 4),
         round(lanes / batch_s) if batch_s else 0),
    ]
    print_table(
        "E21 — memoised chunk vs per-scenario kernel runs (runs/s)",
        ["path", "runs", "wall s", "runs/s"],
        rows,
    )
    record(
        benchmark,
        experiment="E21",
        rows=rows,
        lanes=lanes,
        replicates=REPLICATES,
        speedup_batch_vs_kernel=round(ratio, 2),
        outcome_hits=stats.get("outcome_hits"),
        outcome_misses=stats.get("outcome_misses"),
        mismatched_lanes=mismatches,
    )
    assert lanes == len(kernel_records) == _campaign().run_count
    assert all(r["status"] == "ok" for r in batch_records)
    assert mismatches == 0, "memoised records must match execute_scenario exactly"
    assert ratio >= MIN_BATCH_SPEEDUP, (
        f"memoised chunk only {ratio:.2f}x faster than per-scenario runs "
        f"(floor {MIN_BATCH_SPEEDUP}x)"
    )
