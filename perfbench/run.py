"""Benchmark of record for the link-reversal reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  The workload
repeats for ``--seconds`` seconds, and each repetition's outputs must pass
the workload's correctness gate.  Every metric is the median over the
repetitions, and times and rates are machine-normalised by the machine
speed sampled while each repetition runs (see ``calibration.py``).

``--trace 1`` gives the per-layer split instead.  The workload repeats
inline (one process), once plainly and once under span wrappers, and
campaign workloads first run once pooled for the executor's numbers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the raw samples and the machine calibration.  A failed gate prints
``correct: false`` with no metrics and exits 1.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from calibration import SpeedSampler, calibrate  # noqa: E402
from layers import (  # noqa: E402
    LAYER_UNITS,
    SpanRecorder,
    cache_metrics,
    executor_metrics,
    latency_metrics,
    traced_metrics,
    write_spans,
)
from workloads import WORKLOADS, CampaignWorkload, GateError, setup_probe  # noqa: E402

END_TO_END_UNITS = {
    "runs_per_s": "runs/s",
    "states_per_s": "states/s",
    "report_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}

#: Pool size of the traced run's pooled campaign (the reference box has 2 CPUs).
POOL_WORKERS = 2
#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 7
OUTPUT_DIR = ROOT / ".perfbench_out"


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "toy"), default="full",
        help="workload size; 'toy' runs in seconds and is what the self-test uses",
    )
    # internal: time one fresh-process set-up into this work directory
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _repeat(run_once: Callable[[], Dict[str, Any]], seconds: float) -> List[Dict[str, Any]]:
    """Repeat ``run_once`` for about ``seconds`` (at least once).

    Another repetition starts only while it is expected to end no more than
    half a repetition past the budget.  A failed gate keeps the operations
    of the repetitions before it in its counts.
    """
    reps: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        try:
            reps.append(run_once())
        except GateError as error:
            error.attempted += sum(r["attempted"] for r in reps)
            error.failed += sum(r["failed"] for r in reps)
            raise
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(reps) / 2 >= seconds:
            return reps


def _peak_rss_mib() -> Dict[str, float]:
    """Peak RSS of this process and of its largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"self": own, "children": children}


def _setup_probe(args: argparse.Namespace, workdir: Path, index: int) -> Dict[str, float]:
    """Set-up seconds of one fresh process, and the slowdown it measured."""
    probe_dir = workdir / f"probe-{index}"
    done = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--scale", args.scale, "--setup-probe", str(probe_dir),
        ],
        capture_output=True, text=True, timeout=120, check=True,
    )
    shutil.rmtree(probe_dir, ignore_errors=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_end_to_end(args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric, medians over repetitions.

    Rates and times are machine-normalised (see :mod:`calibration`) by the
    speed sampled while each repetition, and each set-up probe, ran.
    """
    workload = WORKLOADS[args.workload]
    calibration = calibrate()
    state = workload.setup(args.seed, args.scale, workdir)
    setup: List[Dict[str, float]] = []
    sampler = SpeedSampler()
    start = time.perf_counter()

    def repetition() -> Dict[str, Any]:
        # set-up probes are spread over the run, so that a slow spell of the
        # machine reaches few of them
        if len(setup) * args.seconds / SETUP_PROBES <= time.perf_counter() - start:
            setup.append(_setup_probe(args, workdir, len(setup)))
        return workload.repetition(state, workload.workers)

    try:
        # one untimed, gated repetition first, so that lazy work inside the
        # program (engine caches, allocator growth) is done before timing;
        # without it the first timed repetition read slowest in nearly every run
        warmup = workload.repetition(state, workload.workers)
        with sampler:
            reps = _repeat(repetition, args.seconds - (time.perf_counter() - start))
    finally:
        workload.close(state)
    # the probes are children too, but never outgrow this process: they
    # import what it imports and hold no workload state
    rss = _peak_rss_mib()
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_probe(args, workdir, len(setup)))
    attempted = sum(r["attempted"] for r in reps) + warmup["attempted"]
    failed = sum(r["failed"] for r in reps) + warmup["failed"]
    raw = workload.end_to_end(reps, lambda *window: 1.0)
    raw["setup_s"] = statistics.median(p["setup_s"] for p in setup)
    metrics = workload.end_to_end(reps, sampler.slowdown)
    metrics.update(
        setup_s=statistics.median(p["setup_s"] / p["slowdown"] for p in setup),
        peak_rss_mb=max(rss.values()),
        ok_frac=(attempted - failed) / attempted,
    )
    detail = {
        "repetitions": len(reps),
        "raw": raw,
        "slowdown": {
            "repetitions": [
                {part: sampler.slowdown(*window) for part, window in r["windows"].items()}
                for r in reps
            ],
            "setup": [p["slowdown"] for p in setup],
        },
        "samples": {
            key: [r[key] for r in reps]
            for key in ("wall_s", "report_s", "states")
        },
        "setup_samples_s": [p["setup_s"] for p in setup],
        "speed_samples": sampler.summary(),
        "peak_rss_mib": rss,
        "calibration": {"before": calibration, "after": calibrate()},
    }
    return {
        "attempted": attempted, "failed": failed, "detail": detail,
        "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()},
    }


def measure_layers(args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    """The traced run: every per-layer metric, medians over traced repetitions."""
    from repro.experiments.runner import kernel_cache_stats

    workload = WORKLOADS[args.workload]
    calibration = calibrate()
    start = time.perf_counter()
    state = workload.setup(args.seed, args.scale, workdir)
    recorders: List[SpanRecorder] = []
    try:
        pooled = None
        if isinstance(workload, CampaignWorkload):
            # the executor's numbers come from an untraced pooled run
            pooled = workload.repetition(state, POOL_WORKERS)

        def pair() -> Dict[str, Any]:
            plain = workload.repetition(state, 1)
            recorder = SpanRecorder()
            before = kernel_cache_stats()
            rep = workload.repetition(state, 1, recorder)
            after = kernel_cache_stats()
            recorders.append(recorder)
            layers = traced_metrics(recorder, rep["wall_s"])
            layers.update(cache_metrics(before, after))
            if "store_bytes" in rep:
                layers["store.bytes_written"] = rep["store_bytes"]["store"]
                layers["telemetry.sidecar_bytes"] = rep["store_bytes"]["sidecar"]
            if "spill_stats" in rep:
                for key in ("spills", "compactions", "spilled_signatures"):
                    layers["frontier." + key] = rep["spill_stats"].get(key, 0)
                layers["checker.frontier_max"] = rep["frontier_max"]
            return {
                "attempted": plain["attempted"] + rep["attempted"],
                "failed": plain["failed"] + rep["failed"],
                "plain_wall_s": plain["wall_s"],
                "traced_wall_s": rep["wall_s"],
                "layers": layers,
            }

        reps = _repeat(pair, max(0.0, args.seconds - (time.perf_counter() - start)))
    finally:
        workload.close(state)

    metrics = {
        name: statistics.median(r["layers"].get(name, 0) for r in reps)
        for name in LAYER_UNITS
    }
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if pooled is not None:
        metrics.update(executor_metrics(pooled["reports"]))
        metrics.update(latency_metrics(pooled["run_walls_s"]))
        attempted += pooled["attempted"]
        failed += pooled["failed"]
    plain = statistics.median(r["plain_wall_s"] for r in reps)
    traced = statistics.median(r["traced_wall_s"] for r in reps)
    metrics["trace.overhead_s"] = traced - plain
    metrics["calib.python_s"] = calibration["python_s"]
    metrics["calib.numpy_s"] = calibration["numpy_s"]

    OUTPUT_DIR.mkdir(exist_ok=True)
    spans_path = OUTPUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    write_spans(spans_path, recorders)
    detail = {
        "repetitions": len(reps),
        "plain_wall_s": [r["plain_wall_s"] for r in reps],
        "traced_wall_s": [r["traced_wall_s"] for r in reps],
        "spans": str(spans_path.relative_to(ROOT)),
        "span_count": sum(len(r.start) for r in recorders),
        "calibration": {"before": calibration, "after": calibrate()},
    }
    return {
        "attempted": attempted, "failed": failed, "detail": detail,
        "metrics": {name: (metrics[name], unit) for name, unit in LAYER_UNITS.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro under {ROOT}; run the benchmark from a full checkout",
            file=sys.stderr,
        )
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe is not None:
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            seconds = setup_probe(args.workload, args.seed, args.scale, Path(args.setup_probe))
            end = time.perf_counter()
        print(json.dumps({"setup_s": seconds, "slowdown": sampler.slowdown(start, end)}))
        return 0

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    # spill files and any library temp files stay inside the checkout
    os.environ["TMPDIR"] = str(workdir / "tmp")
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        outcome = measure(args, workdir)
    except GateError as error:
        print(f"perfbench: correctness gate failed: {error}", file=sys.stderr)
        print(json.dumps({
            "correct": False, "attempted": error.attempted, "failed": error.failed,
            "metrics": {},
        }))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  scale=args.scale, **outcome["detail"])
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n"
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
