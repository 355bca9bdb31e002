"""Differential tests: the outcome memo of ``run_scenarios`` vs ``execute_scenario``.

``run_scenarios`` serves a kernel-resolved spec from the outcome memo when a
spec with the same outcome key already ran ``ok``; ``execute_scenario`` never
consults the memo, so it is the memo-off oracle.  The contract pinned here:
``run_scenarios(specs)`` equals ``[execute_scenario(s) for s in specs]``
field for field (bar ``wall_time_s``) across every kernel algorithm × mask
scheduler × churn model, crash-stop faults, mixed keys, any spec order and
repeated calls — and the memo is bypassed entirely for timed runs and for
specs the kernel engine does not run.  On top of the record contract these
tests pin the plumbing: the cache counters, the deprecated ``batch`` engine
alias through the executor and the CLI, and campaign resume.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.experiments import engines as _engines
from repro.experiments.executor import run_campaign
from repro.experiments.engines import DEPRECATED_BATCH as ENGINE_BATCH
from repro.experiments.runner import (
    ENGINE_KERNEL,
    ENGINE_LEGACY,
    RECORD_DEFAULTS,
    execute_scenario,
    kernel_cache_stats,
    resolve_engine,
    run_scenarios,
)
from repro.experiments.spec import CampaignSpec, ScenarioSpec, derive_seed
from repro.experiments.store import ResultStore
from repro.kernels import MASK_SCHEDULER_FACTORIES
from repro.kernels.simulator import CACHE_CAPACITY_ENV, cache_capacity_from_env
from repro.topology.generators import SEEDLESS_FAMILIES, build_family

KERNEL_ALGORITHMS = ("pr", "onestep-pr", "new-pr", "fr")
MASK_SCHEDULERS = tuple(MASK_SCHEDULER_FACTORIES)

#: Everything except the wall clock must be identical.
VOLATILE = ("wall_time_s",)

#: The result fields a memoised outcome carries.
RESULT_FIELDS = tuple(k for k in RECORD_DEFAULTS if k not in ("engine", "wall_time_s"))


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        family="grid", size=16, algorithm="pr", scheduler="greedy",
        topology_seed=derive_seed("memo-topo"), scheduler_seed=derive_seed("memo-sched"),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _stable(record):
    return {k: v for k, v in record.items() if k not in VOLATILE}


def _outcome(record):
    return tuple(record[k] for k in RESULT_FIELDS)


def _memo_delta(before):
    after = kernel_cache_stats()
    return {k: after[k] - before[k] for k in ("outcome_hits", "outcome_misses")}


def _assert_memo_matches_oracle(specs, **kwargs) -> list:
    """Run the specs as one chunk and pin each record to the memo-off oracle."""
    dicts = [s.to_dict() for s in specs]
    memo = run_scenarios(dicts, **kwargs)
    engine = kwargs.get("engine", "auto")
    oracle = [
        execute_scenario(d, timeout_s=kwargs.get("timeout_s"), engine=engine)
        for d in dicts
    ]
    assert len(memo) == len(oracle)
    for spec, record, expected in zip(specs, memo, oracle):
        assert _stable(record) == _stable(expected), spec.run_id
    return memo


def _replicates(**overrides):
    """Three specs: two seed pairs plus a replicate that repeats the first."""
    first = dict(topology_seed=derive_seed("t", 0), scheduler_seed=derive_seed("s", 0))
    second = dict(topology_seed=derive_seed("t", 1), scheduler_seed=derive_seed("s", 1))
    return [
        _spec(replicate=0, **first, **overrides),
        _spec(replicate=1, **second, **overrides),
        _spec(replicate=2, **first, **overrides),
    ]


class TestFieldForFieldEquality:
    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    @pytest.mark.parametrize("scheduler", MASK_SCHEDULERS)
    def test_plain_convergence(self, algorithm, scheduler):
        before = kernel_cache_stats()
        records = _assert_memo_matches_oracle(
            _replicates(algorithm=algorithm, scheduler=scheduler)
        )
        assert all(r["status"] == "ok" and r["converged"] for r in records)
        assert _memo_delta(before)["outcome_hits"] >= 1

    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    @pytest.mark.parametrize("scheduler", MASK_SCHEDULERS)
    def test_link_failure_churn(self, algorithm, scheduler):
        before = kernel_cache_stats()
        records = _assert_memo_matches_oracle(_replicates(
            algorithm=algorithm, scheduler=scheduler,
            failure_model="link-failures", failure_count=3,
        ))
        assert all(r["failures_applied"] >= 1 for r in records)
        assert _memo_delta(before)["outcome_hits"] >= 1

    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    @pytest.mark.parametrize("scheduler", MASK_SCHEDULERS)
    def test_mobility_churn(self, algorithm, scheduler):
        before = kernel_cache_stats()
        records = _assert_memo_matches_oracle(_replicates(
            family="geometric", size=12, algorithm=algorithm, scheduler=scheduler,
            failure_model="mobility", failure_count=5,
        ))
        assert all(r["status"] == "ok" for r in records)
        assert _memo_delta(before)["outcome_hits"] >= 1

    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    def test_node_faults(self, algorithm):
        # the crashed nodes derive from the topology seed even on a
        # seed-deterministic family, so those seeds are distinct outcomes
        specs = [
            _spec(family="grid", size=16, algorithm=algorithm, node_faults=3,
                  topology_seed=derive_seed("faults", r), replicate=r)
            for r in range(6)
        ] + [_spec(family="grid", size=16, algorithm=algorithm, node_faults=3,
                   topology_seed=derive_seed("faults", 0), replicate=6)]
        records = _assert_memo_matches_oracle(specs)
        assert all(r["crashed_nodes"] == 3 for r in records)
        assert len({_outcome(r) for r in records}) > 1

    def test_random_scheduler_seeds_are_distinct_outcomes(self):
        # one seed-deterministic topology, several random-scheduler seeds:
        # the memo must tell them apart
        specs = [
            _spec(size=25, algorithm="fr", scheduler="random",
                  scheduler_seed=derive_seed("rnd", r), replicate=r)
            for r in range(6)
        ]
        records = _assert_memo_matches_oracle(specs)
        assert len({_outcome(r) for r in records}) > 1

    def test_truncated_runs_match(self):
        _assert_memo_matches_oracle([
            _spec(family="chain", size=12, algorithm="fr",
                  failure_model="link-failures", failure_count=2, max_steps=2),
            _spec(family="chain", size=12, algorithm="fr",
                  failure_model="link-failures", failure_count=2, max_steps=2,
                  replicate=1),
            _spec(family="chain", size=12, algorithm="fr", max_steps=2, replicate=2),
        ])

    def test_memo_agrees_with_legacy_oracle(self):
        # the transitive pin, asserted directly once: memo hit == legacy
        specs = [_spec(family="tree", size=14, scheduler="random", replicate=r)
                 for r in range(2)]
        records = run_scenarios([s.to_dict() for s in specs])
        for spec, record in zip(specs, records):
            legacy = execute_scenario(spec.to_dict(), engine=ENGINE_LEGACY)
            assert {k: record[k] for k in RESULT_FIELDS} == {
                k: legacy[k] for k in RESULT_FIELDS
            }

    def test_mixed_keys_in_one_call(self):
        _assert_memo_matches_oracle([
            _spec(family=f, size=s, algorithm=a, scheduler=sc, replicate=r,
                  topology_seed=derive_seed("mix-t", r),
                  scheduler_seed=derive_seed("mix-s", r))
            for f, s in (("chain", 10), ("grid", 9), ("tree", 12), ("random-dag", 10))
            for a in ("pr", "fr")
            for sc in ("greedy", "lazy", "random")
            for r in range(3)
        ])

    def test_spec_objects_and_bare_dicts(self):
        # inputs without a run_id take the from_dict path on both sides
        specs = _replicates(scheduler="adversarial")
        bare = [{k: v for k, v in s.to_dict().items() if k != "run_id"} for s in specs]
        for chunk in (specs, bare):
            records = run_scenarios(chunk)
            for spec, record in zip(specs, records):
                expected = execute_scenario(spec)
                assert _stable(record) == _stable(expected)


class TestMemoBehaviour:
    def _specs(self):
        return [
            _spec(family=f, size=10, algorithm=a, scheduler=sc, replicate=r,
                  topology_seed=derive_seed("order-t", r),
                  scheduler_seed=derive_seed("order-s", r))
            for f in ("chain", "tree")
            for a in ("pr", "fr")
            for sc in ("greedy", "random")
            for r in range(3)
        ]

    def test_order_independence(self):
        specs = self._specs()
        straight = run_scenarios([s.to_dict() for s in specs])
        reversed_ = run_scenarios([s.to_dict() for s in reversed(specs)])
        for record, mirrored in zip(straight, reversed(reversed_)):
            assert _stable(record) == _stable(mirrored)

    def test_second_call_is_served_from_the_memo(self):
        specs = [s.to_dict() for s in self._specs()]
        first = run_scenarios(specs)
        before = kernel_cache_stats()
        second = run_scenarios(specs)
        assert _memo_delta(before) == {"outcome_hits": len(specs), "outcome_misses": 0}
        assert [_stable(r) for r in second] == [_stable(r) for r in first]
        assert all(r["engine"] == ENGINE_KERNEL for r in second)

    def test_seedless_family_replicates_share_one_outcome(self):
        # chain ignores its topology seed and greedy its scheduler seed:
        # every replicate is provably the same run
        assert "chain" in SEEDLESS_FAMILIES
        specs = [
            _spec(family="chain", size=18, topology_seed=derive_seed("t", r),
                  scheduler_seed=derive_seed("s", r), replicate=r)
            for r in range(8)
        ]
        before = kernel_cache_stats()
        _assert_memo_matches_oracle(specs)
        delta = _memo_delta(before)
        assert delta["outcome_misses"] <= 1
        assert delta["outcome_hits"] >= 7

    def test_seedless_registry_is_accurate(self):
        for family in SEEDLESS_FAMILIES:
            a = build_family(family, 12, seed=1)
            b = build_family(family, 12, seed=2)
            assert a.nodes == b.nodes
            assert a.initial_edges == b.initial_edges

    def test_timeout_bypasses_the_memo(self):
        specs = [s.to_dict() for s in self._specs()]
        run_scenarios(specs)  # every key is now memoised ok
        before = kernel_cache_stats()
        expired = run_scenarios(specs, timeout_s=0.0)
        assert _memo_delta(before) == {"outcome_hits": 0, "outcome_misses": 0}
        for spec, record in zip(specs, expired):
            oracle = execute_scenario(spec, timeout_s=0.0)
            assert _stable(record) == _stable(oracle)
        # long chains cannot converge in zero time: the memo's ok was not used
        chains = [r for r in expired if r["family"] == "chain"]
        assert chains and all(r["status"] == "timeout" for r in chains)

    def test_generous_timeout_matches_oracle_without_memo(self):
        before = kernel_cache_stats()
        _assert_memo_matches_oracle(_replicates(), timeout_s=60.0)
        assert _memo_delta(before) == {"outcome_hits": 0, "outcome_misses": 0}

    def test_failed_runs_are_not_memoised(self):
        spec = _spec(family="chain", size=40).to_dict()
        before = kernel_cache_stats()
        run_scenarios([spec], timeout_s=0.0)
        assert run_scenarios([spec])[0]["status"] == "ok"
        assert _memo_delta(before)["outcome_hits"] == 0


class TestNonKernelSpecs:
    @pytest.mark.parametrize("overrides", [
        dict(algorithm="bll", size=8),
        dict(algorithm="fr", delay_model="uniform"),
        dict(algorithm="pr", traffic="steady", delay_model="fixed", size=9),
        dict(algorithm="no-such-algorithm"),
        dict(family="grid", size=9, loss=0.5),
    ])
    def test_never_touch_the_memo(self, overrides):
        specs = [_spec(replicate=r, **overrides) for r in range(2)]
        before = kernel_cache_stats()
        records = _assert_memo_matches_oracle(specs)
        assert _memo_delta(before) == {"outcome_hits": 0, "outcome_misses": 0}
        assert all(r["engine"] != ENGINE_KERNEL for r in records)

    def test_forced_legacy_engine_bypasses_the_memo(self):
        before = kernel_cache_stats()
        records = _assert_memo_matches_oracle(_replicates(), engine=ENGINE_LEGACY)
        assert _memo_delta(before) == {"outcome_hits": 0, "outcome_misses": 0}
        assert all(r["engine"] == ENGINE_LEGACY for r in records)

    def test_invalid_spec_is_an_error_record(self):
        records = run_scenarios([
            _spec(size=8).to_dict(),
            _spec(algorithm="bll", size=8).to_dict(),
        ])
        assert records[0]["status"] == "ok"
        assert records[1]["engine"] == ENGINE_LEGACY
        forced = run_scenarios([_spec(algorithm="bll").to_dict()], engine=ENGINE_KERNEL)
        assert forced[0]["status"] == "error"
        assert "use engine='legacy'" in forced[0]["error"]


class TestBatchAlias:
    def test_alias_resolves_to_kernel_with_one_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(_engines, "_batch_warned", False)
        with caplog.at_level(logging.WARNING, logger=_engines.__name__):
            assert resolve_engine(ENGINE_BATCH, _spec()) == ENGINE_KERNEL
            assert resolve_engine(ENGINE_BATCH, _spec(size=9)) == ENGINE_KERNEL
        warnings = [r for r in caplog.records if "deprecated" in r.getMessage()]
        assert len(warnings) == 1

    def test_alias_rejects_what_kernel_rejects(self):
        with pytest.raises(ValueError, match="legacy"):
            resolve_engine(ENGINE_BATCH, _spec(algorithm="bll"))

    def test_alias_chunk_matches_kernel_chunk(self):
        specs = [s.to_dict() for s in _replicates(scheduler="random")]
        aliased = run_scenarios(specs, engine=ENGINE_BATCH)
        kernel = [execute_scenario(s, engine=ENGINE_KERNEL) for s in specs]
        assert [_stable(r) for r in aliased] == [_stable(r) for r in kernel]
        assert all(r["engine"] == ENGINE_KERNEL for r in aliased)


class TestExecutorIntegration:
    def _campaign(self, replicates=3):
        return CampaignSpec(
            name="memo-diff",
            families=("chain", "tree"),
            sizes=(8, 10),
            algorithms=("pr", "fr"),
            schedulers=("greedy", "random"),
            replicates=replicates,
        )

    def test_alias_campaign_records_match_kernel_campaign(self, tmp_path):
        campaign = self._campaign()
        with ResultStore(tmp_path / "kernel") as store:
            run_campaign(campaign, store, workers=1, engine=ENGINE_KERNEL)
            kernel = {r["run_id"]: _stable(r) for r in store.records()}
        with ResultStore(tmp_path / "batch") as store:
            report = run_campaign(campaign, store, workers=1, engine=ENGINE_BATCH)
            aliased = {r["run_id"]: _stable(r) for r in store.records()}
        assert report.engines == {"kernel": report.executed}
        assert aliased == kernel

    def test_pooled_campaign_matches_inline(self, tmp_path):
        campaign = self._campaign(replicates=2)
        with ResultStore(tmp_path / "inline") as store:
            run_campaign(campaign, store, workers=1)
            inline = {r["run_id"]: _stable(r) for r in store.records()}
        with ResultStore(tmp_path / "pooled") as store:
            report = run_campaign(campaign, store, workers=2)
            pooled = {r["run_id"]: _stable(r) for r in store.records()}
        assert report.crashed == 0
        assert pooled == inline

    def test_interrupt_and_resume_through_the_store(self, tmp_path):
        campaign = self._campaign()
        specs = campaign.expand()
        half = [s.to_dict() for s in specs[: len(specs) // 2]]
        with ResultStore(tmp_path / "resume") as store:
            # simulate an interrupted sweep: half the records already stored
            store.append(run_scenarios(half))
            report = run_campaign(campaign, store, workers=1)
            assert report.skipped == len(half)
            assert report.executed == len(specs) - len(half)
            resumed = {r["run_id"]: _stable(r) for r in store.records()}
        with ResultStore(tmp_path / "oneshot") as store:
            run_campaign(campaign, store, workers=1)
            oneshot = {r["run_id"]: _stable(r) for r in store.records()}
        assert resumed == oneshot
        # and a second invocation is a no-op
        with ResultStore(tmp_path / "resume") as store:
            report = run_campaign(campaign, store, workers=1)
            assert report.executed == 0

    def test_campaign_report_sidecar_records_memo_counters(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            run_campaign(self._campaign(replicates=2), store, workers=1)
            sidecar = store.load_report()
        assert sidecar["engines"] == {"kernel": sidecar["executed"]}
        for name in ("outcome_hits", "outcome_misses"):
            assert name in sidecar["kernel_cache"]
        assert sidecar["kernel_cache"]["outcome_hits"] > 0


class TestCacheConfiguration:
    def test_env_var_overrides_capacity(self, monkeypatch):
        monkeypatch.setenv(CACHE_CAPACITY_ENV, "128")
        assert cache_capacity_from_env() == 128
        monkeypatch.setenv(CACHE_CAPACITY_ENV, "not-a-number")
        assert cache_capacity_from_env() == 64
        monkeypatch.setenv(CACHE_CAPACITY_ENV, "0")
        assert cache_capacity_from_env() == 64
        monkeypatch.delenv(CACHE_CAPACITY_ENV)
        assert cache_capacity_from_env(default=7) == 7

    def test_configure_kernel_cache_resizes_all_engines(self):
        from repro.experiments.async_engine import _INSTANCE_CACHE
        from repro.experiments.runner import _KERNEL_CACHE, configure_kernel_cache

        original = _KERNEL_CACHE.capacity
        try:
            configure_kernel_cache(3)
            assert _KERNEL_CACHE.capacity == 3
            assert _INSTANCE_CACHE.capacity == 3
            assert len(_KERNEL_CACHE._instances) <= 3
        finally:
            configure_kernel_cache(original)

    def test_memo_counters_surface_in_kernel_cache_stats(self):
        run_scenarios([_spec(size=8).to_dict()])
        stats = kernel_cache_stats()
        for name in ("instance_hits", "kernel_compiles",
                     "outcome_hits", "outcome_misses"):
            assert name in stats
        assert not any(name.startswith("batch_") for name in stats)


class TestCli:
    def test_sweep_engine_batch_alias(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--families", "chain", "--algorithms", "pr,fr",
            "--sizes", "5,7", "--replicates", "2", "--engine", "batch",
            "--store", str(tmp_path / "s"), "--quiet", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engines"] == {"kernel": 8}
        assert "outcome_hits" in payload["kernel_cache"]

    def test_alias_sweep_store_matches_kernel_sweep_store(self, tmp_path, capsys):
        from repro.cli import main

        base = [
            "sweep", "--families", "chain,tree", "--algorithms", "pr",
            "--sizes", "6", "--replicates", "2", "--quiet",
        ]
        assert main(base + ["--engine", "kernel", "--store", str(tmp_path / "k")]) == 0
        assert main(base + ["--engine", "batch", "--store", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        with ResultStore(tmp_path / "k") as ks, ResultStore(tmp_path / "b") as bs:
            kernel = {r["run_id"]: _stable(r) for r in ks.records()}
            aliased = {r["run_id"]: _stable(r) for r in bs.records()}
        assert aliased == kernel

    def test_report_shows_last_sweep_engines(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--families", "chain", "--algorithms", "pr", "--sizes", "5",
            "--engine", "batch", "--store", str(tmp_path / "s"), "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--store", str(tmp_path / "s"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine_counts"] == {"kernel": 1}
        assert payload["last_campaign_report"]["engines"] == {"kernel": 1}
