"""Tests for the scenario runner and the sharded campaign executor."""

from __future__ import annotations

import pytest

from repro.experiments.executor import (
    CRASH_SENTINEL,
    _crashed_records,
    _default_chunk_size,
    run_campaign,
)
from repro.experiments.runner import execute_scenario
from repro.experiments.spec import CampaignSpec, ScenarioSpec, derive_seed
from repro.experiments.store import ResultStore


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        family="chain", size=6, algorithm="pr", scheduler="greedy",
        topology_seed=derive_seed("t"), scheduler_seed=derive_seed("s"),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestExecuteScenario:
    def test_basic_run_record(self):
        record = execute_scenario(_spec())
        assert record["status"] == "ok"
        assert record["node_steps"] > 0
        assert record["converged"] is True
        assert record["destination_oriented"] is True
        assert record["acyclic_final"] is True
        assert record["rounds"] >= 1
        assert record["nodes"] == 6
        assert record["run_id"] == _spec().run_id

    def test_deterministic_given_spec(self):
        spec = _spec(family="random-dag", size=12, scheduler="random").to_dict()
        first = execute_scenario(dict(spec))
        second = execute_scenario(dict(spec))
        volatile = ("wall_time_s",)
        assert {k: v for k, v in first.items() if k not in volatile} == {
            k: v for k, v in second.items() if k not in volatile
        }

    def test_invalid_spec_is_error_record_not_exception(self):
        record = execute_scenario(dict(_spec().to_dict(), algorithm="nope"))
        assert record["status"] == "error"
        assert "nope" in record["error"]

    def test_timeout_recorded(self):
        record = execute_scenario(_spec(family="chain", size=60), timeout_s=0.0)
        assert record["status"] == "timeout"

    def test_link_failures_applied_on_robust_topology(self):
        record = execute_scenario(
            _spec(family="grid", size=16, failure_model="link-failures", failure_count=3)
        )
        assert record["status"] == "ok"
        assert record["failures_applied"] + record["partition_skips"] == 3
        assert record["failures_applied"] >= 1
        assert record["acyclic_final"] is True
        assert record["destination_oriented"] is True

    def test_link_failures_on_chain_all_skipped(self):
        # removing any chain link partitions the graph, so every failure is skipped
        record = execute_scenario(
            _spec(failure_model="link-failures", failure_count=2)
        )
        assert record["status"] == "ok"
        assert record["failures_applied"] == 0
        assert record["partition_skips"] == 2

    def test_truncated_churn_run_not_marked_converged(self):
        # the initial convergence hits max_steps, so even though every
        # injected failure is partition-skipped the record must say
        # converged=False (regression: churn phases used to reset the flag)
        record = execute_scenario(_spec(
            family="chain", size=12, algorithm="fr",
            failure_model="link-failures", failure_count=3, max_steps=2,
        ))
        assert record["status"] == "ok"
        assert record["converged"] is False
        assert record["destination_oriented"] is False

    def test_mobility_churn(self):
        record = execute_scenario(
            _spec(family="geometric", size=12, failure_model="mobility", failure_count=5)
        )
        assert record["status"] == "ok"
        assert record["failures_applied"] + record["partition_skips"] <= 5
        assert record["acyclic_final"] is True

    @pytest.mark.parametrize("algorithm", ["pr", "onestep-pr", "new-pr", "fr", "bll"])
    def test_every_algorithm_executes(self, algorithm):
        record = execute_scenario(_spec(algorithm=algorithm, family="random-dag", size=8))
        assert record["status"] == "ok"
        assert record["destination_oriented"] is True


class TestRunCampaign:
    def _campaign(self, **overrides) -> CampaignSpec:
        base = dict(
            name="t", families=("chain", "random-dag"), algorithms=("pr", "fr"),
            schedulers=("greedy",), sizes=(4, 6), replicates=2,
        )
        base.update(overrides)
        return CampaignSpec(**base)

    def test_inline_campaign(self, tmp_path):
        store = ResultStore(tmp_path)
        report = run_campaign(self._campaign(), store, workers=1)
        assert report.total == report.executed == report.ok == 16
        assert store.count() == 16
        assert store.load_campaign()["name"] == "t"

    def test_resume_skips_stored_runs(self, tmp_path):
        store = ResultStore(tmp_path)
        partial = self._campaign(sizes=(4,))
        run_campaign(partial, store, workers=1)
        report = run_campaign(self._campaign(), store, workers=1)
        assert report.skipped == 8
        assert report.executed == 8
        assert store.count() == 16

    def test_no_resume_reexecutes(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign(self._campaign(), store, workers=1)
        report = run_campaign(self._campaign(), store, workers=1, resume=False)
        assert report.skipped == 0
        assert report.executed == 16
        assert store.count() == 16  # run_ids are primary keys: replaced, not duplicated

    def test_pooled_matches_inline(self, tmp_path):
        inline_store = ResultStore(tmp_path / "inline")
        pooled_store = ResultStore(tmp_path / "pooled")
        campaign = self._campaign(schedulers=("greedy", "random"))
        run_campaign(campaign, inline_store, workers=1)
        report = run_campaign(campaign, pooled_store, workers=2, chunk_size=3)
        assert report.ok == report.executed == 32

        volatile = ("wall_time_s",)
        inline_records = {
            r["run_id"]: {k: v for k, v in r.items() if k not in volatile}
            for r in inline_store.records()
        }
        pooled_records = {
            r["run_id"]: {k: v for k, v in r.items() if k not in volatile}
            for r in pooled_store.records()
        }
        assert inline_records == pooled_records

    def test_worker_crash_is_isolated(self, tmp_path):
        store = ResultStore(tmp_path)
        campaign = self._campaign(algorithms=("pr", CRASH_SENTINEL), sizes=(4,))
        report = run_campaign(campaign, store, workers=2, chunk_size=1)
        assert report.crashed == 4  # every __crash__ run, and only those
        assert report.ok == 4
        crashed = store.records(status="crashed")
        assert {r["algorithm"] for r in crashed} == {CRASH_SENTINEL}
        assert all(r["status"] == "ok" for r in store.records(algorithm="pr"))

    def test_campaign_interruption_then_resume(self, tmp_path):
        # simulate an interrupted campaign by storing only the first shard's
        # worth of records, then resuming
        store = ResultStore(tmp_path)
        campaign = self._campaign()
        specs = [s.to_dict() for s in campaign.expand()]
        from repro.experiments.runner import run_scenarios

        store.append(run_scenarios(specs[:5]))
        report = run_campaign(campaign, store, workers=1)
        assert report.skipped == 5
        assert report.executed == len(specs) - 5
        assert store.count() == len(specs)

    def test_progress_callback(self, tmp_path):
        seen = []
        run_campaign(
            self._campaign(sizes=(4,)), ResultStore(tmp_path), workers=1,
            chunk_size=2, progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (8, 8)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_per_run_timeout_in_campaign(self, tmp_path):
        store = ResultStore(tmp_path)
        campaign = self._campaign(families=("chain",), sizes=(80,), algorithms=("fr",),
                                  replicates=1)
        report = run_campaign(campaign, store, workers=1, timeout_s=0.0)
        assert report.timeouts == 1
        assert store.records()[0]["status"] == "timeout"

    def test_kernel_timeout_record_keeps_partial_tallies(self):
        spec = _spec(family="chain", size=40, algorithm="pr").to_dict()
        record = execute_scenario(spec, timeout_s=0.0, engine="kernel")
        assert record["status"] == "timeout"
        assert record["engine"] == "kernel"
        assert record["error"] == "deadline exceeded at step 0"
        assert record["node_steps"] >= 1  # the aborted step's work is kept
        assert record["steps_taken"] == 0  # but not counted as completed
        assert record["converged"] is False

    def test_chunk_sizes_derive_from_workload(self):
        # sizing scales with the pending count instead of a fixed cap
        assert _default_chunk_size(10_000, workers=4) == 313
        assert _default_chunk_size(10, workers=4) == 1

    def test_crashed_record_schema_is_pinned(self):
        spec = _spec(family="grid", size=9).to_dict()
        record = _crashed_records([spec], "worker died")[0]
        expected = dict(spec)
        expected.update(
            status="crashed", error="worker died", engine=None,
            node_steps=0, edge_reversals=0, dummy_steps=0, rounds=0, steps_taken=0,
            converged=False, destination_oriented=False, acyclic_final=False,
            failures_applied=0, partition_skips=0, reorientations=0, crashed_nodes=0,
            wall_time_s=0.0, nodes=None, edges=None, bad_nodes=None,
            messages_sent=None, messages_delivered=None, messages_lost=None,
            simulated_time=None, events_dispatched=None,
            slots=0, packets_injected=0, packets_delivered=0,
            packets_dropped=0, packets_in_flight=0, drop_tail=0, drop_ttl=0,
            drop_no_route=0, drop_link_down=0, transient_loops=0,
            peak_queue_depth=0, mean_latency_slots=None,
            max_latency_slots=None, mean_hops=None, mean_stretch=None,
        )
        assert record == expected
