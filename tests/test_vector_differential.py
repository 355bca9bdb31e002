"""Differential pins for the vectorised frontier engine (PR 10).

The batch kernels in :mod:`repro.kernels.vector` and the checker's
``vectorized`` paths promise *exact* equality with the scalar oracle —
not just the same verdict but the same state/transition counts, the same
visited sets, the same truncation points, the same failure lists in the
same order, and counterexample traces that replay.  Every promise gets a
pin here, plus coverage for the batch-first :class:`VisitedSet` API the
engine rides on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.full_reversal import FullReversal
from repro.core.graph import LinkReversalInstance
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
import repro.exploration.checker as checker_module
from repro.exploration.checker import ModelChecker
from repro.exploration.frontier import VisitedSet
from repro.exploration.state_space import StateSpaceExplorer
from repro.kernels.signature import compile_expander, shard_of
from repro.kernels.vector import (
    compile_vector_expander,
    decode_token,
    mask_is_acyclic_batch,
    shard_of_batch,
)
from repro.topology.generators import chain_instance, grid_instance, random_dag_instance
from repro.verification.acyclicity import is_acyclic

ALGORITHM_CLASSES = (PartialReversal, OneStepPartialReversal, NewPartialReversal, FullReversal)

REPORT_FIELDS = (
    "states_explored",
    "transitions_explored",
    "quiescent_states",
    "max_depth",
    "truncated",
)


def _vectorisable_instance(automaton_class):
    """A non-trivial instance whose signature fits the 64-bit batch lane."""
    if automaton_class is NewPartialReversal:
        # NewPR packs E + 16·n bits; only toy instances fit one word
        return chain_instance(3, towards_destination=False)
    return grid_instance(3, 3, oriented_towards_destination=False)


def _run(automaton, predicates=None, **kwargs):
    kwargs.setdefault("max_traced_failures", 10_000)
    return ModelChecker(automaton, predicates, **kwargs).run()


def _summaries(report):
    return tuple(getattr(report, field) for field in REPORT_FIELDS)


def _failure_keys(report):
    return [
        (
            failure.predicate_name,
            failure.detail,
            tuple(failure.trace.signatures or ()),
            tuple(str(action) for action in failure.trace.actions),
        )
        for failure in report.failures
    ]


def _cyclic_start_instance():
    """Initial orientation with the cycle a -> b -> c -> a.  No cycle node
    can ever become a sink (its cycle successor would have to step first),
    so every reachable state keeps the cycle: 5 states, 5 acyclicity
    failures under FR and PR."""
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "f"), ("b", "g"),
             ("g", "h"), ("f", "h"), ("D", "h")]
    return LinkReversalInstance.from_directed_edges(list("Dabcfgh"), "D", edges)


def _planted_predicates(automaton):
    initial_signature = automaton.initial_state().signature()
    return {
        "is-initial": lambda s: s.signature() == initial_signature,
        "at-most-one-reversal": lambda s: bin(s.graph_signature()).count("1") <= 1,
    }


# ----------------------------------------------------------------------
# engine-level pins: vectorised == scalar, field for field
# ----------------------------------------------------------------------
class TestVectorMatchesScalar:
    @pytest.mark.parametrize("automaton_class", ALGORITHM_CLASSES)
    def test_counts_and_visited_sets(self, automaton_class):
        instance = _vectorisable_instance(automaton_class)
        base = dict(check_acyclicity=True, collect_signatures=True)
        scalar = _run(automaton_class(instance), vectorized="never", **base)
        batch = _run(automaton_class(instance), vectorized="always", **base)
        assert not scalar.vectorized and batch.vectorized
        assert _summaries(scalar) == _summaries(batch)
        assert scalar.signatures == batch.signatures

    @pytest.mark.parametrize("automaton_class", ALGORITHM_CLASSES)
    def test_failure_lists_identical_in_order(self, automaton_class):
        instance = _vectorisable_instance(automaton_class)
        automaton = automaton_class(instance)
        predicates = _planted_predicates(automaton)
        base = dict(check_acyclicity=True, check_progress=True)
        scalar = _run(automaton_class(instance), predicates, vectorized="never", **base)
        batch = _run(automaton_class(instance), predicates, vectorized="always", **base)
        assert _failure_keys(scalar), "planted predicates must actually fail"
        assert _failure_keys(scalar) == _failure_keys(batch)

    @pytest.mark.parametrize("max_states", [1, 3, 10, 50, 200])
    def test_truncation_points_identical(self, max_states):
        instance = grid_instance(3, 3, oriented_towards_destination=False)
        base = dict(check_acyclicity=True, collect_signatures=True, max_states=max_states)
        scalar = _run(FullReversal(instance), vectorized="never", **base)
        batch = _run(FullReversal(instance), vectorized="always", **base)
        assert _summaries(scalar) == _summaries(batch)
        assert scalar.signatures == batch.signatures

    def test_sharded_vector_matches_single(self):
        instance = grid_instance(3, 3, oriented_towards_destination=False)
        base = dict(check_acyclicity=True, check_progress=True, collect_signatures=True)
        single = _run(FullReversal(instance), vectorized="always", **base)
        sharded = _run(FullReversal(instance), vectorized="always", workers=3, **base)
        assert sharded.vectorized
        assert _summaries(single) == _summaries(sharded)
        assert single.signatures == sharded.signatures
        assert sorted(_failure_keys(single)) == sorted(_failure_keys(sharded))

    def test_sharded_spill_and_compaction_match_scalar(self, tmp_path):
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        base = dict(check_acyclicity=True, collect_signatures=True,
                    spill_threshold=200, spill_max_runs=2)
        scalar = _run(FullReversal(instance), vectorized="never", workers=2,
                      spill_dir=str(tmp_path / "scalar"), **base)
        batch = _run(FullReversal(instance), vectorized="always", workers=2,
                     spill_dir=str(tmp_path / "batch"), **base)
        assert batch.spilled and scalar.spilled
        assert batch.spill_stats["spills"] > 0
        assert batch.spill_stats["compactions"] > 0
        assert scalar.spill_stats["spills"] > 0
        assert scalar.spill_stats["compactions"] > 0
        assert _summaries(scalar) == _summaries(batch)
        assert scalar.signatures == batch.signatures

    def test_counterexamples_replay(self):
        instance = grid_instance(3, 3, oriented_towards_destination=False)
        for workers in (1, 2):
            automaton = OneStepPartialReversal(instance)
            predicates = _planted_predicates(automaton)
            report = _run(automaton, predicates, vectorized="always", workers=workers)
            assert report.vectorized and report.failures
            for failure in report.failures:
                assert failure.trace.reconstructed
                execution = failure.trace.replay(OneStepPartialReversal(instance))
                execution.validate()
                assert not predicates[failure.predicate_name](execution.final_state)

    def test_wide_signatures_fall_back_to_scalar(self):
        # NewPR on a 4×4 grid needs 24 + 16·16 bits — far past one word
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        expander = compile_expander(NewPartialReversal(instance))
        assert compile_vector_expander(expander) is None
        report = _run(NewPartialReversal(instance), vectorized="auto", max_states=50)
        assert not report.vectorized  # fell back, still answered
        with pytest.raises(ValueError, match="vectorized='always'"):
            ModelChecker(NewPartialReversal(instance), vectorized="always")

    def test_vectorized_accepts_only_the_three_modes(self):
        instance = grid_instance(3, 3, oriented_towards_destination=False)
        for value in (True, "sometimes"):
            with pytest.raises(ValueError, match="vectorized must be"):
                ModelChecker(FullReversal(instance), vectorized=value)

    def test_certificate_fallback_reports_every_cycle(self):
        """A cyclic start: no state is certifiable, so every cycle must come
        back through the exact fallback, in the scalar order."""
        instance = _cyclic_start_instance()
        for automaton_class in (FullReversal, PartialReversal):
            for options in (
                dict(check_acyclicity=True, check_progress=True),  # immediate
                dict(check_acyclicity=True),  # acyclicity only
            ):
                scalar = _run(
                    automaton_class(instance, require_dag=False),
                    vectorized="never",
                    **options,
                )
                acyclic = [f for f in scalar.failures if f.predicate_name == "acyclic"]
                assert scalar.states_explored == 5 and len(acyclic) == 5
                for workers in (1, 2):
                    batch = _run(
                        automaton_class(instance, require_dag=False),
                        vectorized="always",
                        workers=workers,
                        **options,
                    )
                    assert batch.vectorized
                    assert _summaries(batch) == _summaries(scalar)
                    if workers == 1:
                        assert _failure_keys(batch) == _failure_keys(scalar)
                    else:
                        assert sorted(_failure_keys(batch)) == sorted(
                            _failure_keys(scalar)
                        )

    def test_shard_of_batch_matches_scalar_shard_of(self):
        mersenne = (1 << 61) - 1
        edge_values = [0, 1, mersenne - 1, mersenne, mersenne + 1, (1 << 64) - 1]
        rng = np.random.default_rng(7)
        values = np.concatenate([
            np.array(edge_values, dtype=np.uint64),
            rng.integers(0, 1 << 63, size=1000, dtype=np.uint64),
        ])
        for shards in (2, 3, 7):
            batch = shard_of_batch(values, shards)
            expected = [shard_of(int(v), shards) for v in values.tolist()]
            assert batch.tolist() == expected


# ----------------------------------------------------------------------
# the acyclicity certificate column
# ----------------------------------------------------------------------
def _is_source(instance, mask, node_id):
    """Naive oracle: no edge of the ``mask`` orientation points at the node."""
    for e, (tail_id, head_id) in enumerate(instance._edge_node_ids):
        if (mask >> e) & 1:
            tail_id, head_id = head_id, tail_id
        if head_id == node_id:
            return False
    return True


class TestAcyclicityCertificate:
    @pytest.mark.parametrize("automaton_class", ALGORITHM_CLASSES)
    def test_sources_column_on_random_masks(self, automaton_class):
        if automaton_class is NewPartialReversal:
            # E + 16·n bits fit one word only for n <= 3: a triangle can cycle
            instance = LinkReversalInstance.from_directed_edges(
                [0, 1, 2], 0, [(1, 0), (2, 1), (2, 0)]
            )
        else:
            instance = random_dag_instance(9, edge_probability=0.4, seed=4)
        expander = compile_expander(automaton_class(instance))
        vector = compile_vector_expander(expander)
        assert vector is not None
        edges = instance.edge_count
        rng = np.random.default_rng(19)
        masks = rng.integers(0, 1 << edges, size=400, dtype=np.uint64)
        if automaton_class in (PartialReversal, OneStepPartialReversal):
            # PR/OneStepPR: random neighbour-list rows above the mask too
            lists = rng.integers(0, 1 << (2 * edges), size=400, dtype=np.uint64)
            masks = masks | (lists << np.uint64(edges))
        elif automaton_class is NewPartialReversal:
            # small step counters of either parity above the mask
            for node in range(instance.node_count):
                counts = rng.integers(0, 4, size=400, dtype=np.uint64)
                masks = masks | (counts << np.uint64(edges + 16 * node))
        edge_mask = np.uint64(expander._edge_mask)
        expansion = vector.expand(masks)
        assert expansion.sources.shape == expansion.successors.shape
        assert expansion.sources.dtype == bool
        expected = [
            all(_is_source(instance, succ & expander._edge_mask, i)
                for i in decode_token(token))
            for succ, token in zip(
                expansion.successors.tolist(), expansion.tokens.tolist()
            )
        ]
        assert expansion.sources.tolist() == expected
        # the scalar loops' certificate agrees with the column lane for lane
        scalar = [
            expander.actors_are_sources(succ, decode_token(token))
            for succ, token in zip(
                expansion.successors.tolist(), expansion.tokens.tolist()
            )
        ]
        assert scalar == expansion.sources.tolist()
        if automaton_class is FullReversal:
            assert expansion.sources.all()  # a reversing sink becomes a source
        elif automaton_class is not NewPartialReversal:
            # partial reversals leave some actors with an incoming edge
            assert not expansion.sources.all()
        # the certificate is sound: acyclic parent + source actors → acyclic
        parent_ok = mask_is_acyclic_batch(instance, masks & edge_mask)
        child_ok = mask_is_acyclic_batch(instance, expansion.successors & edge_mask)
        certified = parent_ok[expansion.parents] & expansion.sources
        assert certified.any() and not parent_ok.all()
        assert child_ok[certified].all()


def _twin_rich_instance():
    """Two twin classes: hubs h1, h2 (each fed by D) and leaves x1..x4
    (each fed by both hubs).  Under PR a hub keeps its leaf edges incoming
    when it steps, so some actors are not sources after the step."""
    hubs = ("h1", "h2")
    leaves = ("x1", "x2", "x3", "x4")
    edges = [("D", h) for h in hubs] + [(h, x) for h in hubs for x in leaves]
    return LinkReversalInstance.from_directed_edges(["D", *hubs, *leaves], "D", edges)


class TestScalarCertificate:
    """The scalar loops certify acyclicity per step like the vector ones.

    Their oracles are engines that do not certify: the legacy explorer with
    an ``is_acyclic`` predicate, a counted ``mask_is_acyclic``, and counts
    pinned by hand from the full-Kahn scalar checker.
    """

    @pytest.mark.parametrize("automaton_class", (FullReversal, PartialReversal))
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("check_progress", (False, True))
    def test_cyclic_start_reports_every_cycle(
        self, automaton_class, workers, check_progress
    ):
        report = _run(
            automaton_class(_cyclic_start_instance(), require_dag=False),
            vectorized="never",
            workers=workers,
            check_acyclicity=True,
            check_progress=check_progress,
        )
        assert not report.vectorized
        assert report.states_explored == 5
        acyclic = [f for f in report.failures if f.predicate_name == "acyclic"]
        assert len(acyclic) == 5

    @pytest.mark.parametrize("automaton_class", (FullReversal, PartialReversal))
    def test_cyclic_start_matches_legacy_explorer(self, automaton_class):
        instance = _cyclic_start_instance()
        legacy = StateSpaceExplorer(
            automaton_class(instance, require_dag=False), {"acyclic": is_acyclic}
        ).explore()
        scalar = _run(
            automaton_class(instance, require_dag=False),
            vectorized="never",
            check_acyclicity=True,
        )
        assert len(legacy.failures) == 5
        assert [(f.predicate_name, f.path) for f in scalar.failures] == [
            (f.predicate_name, f.path) for f in legacy.failures
        ]

    def test_fr_kahn_checks_only_the_root(self, monkeypatch):
        calls = []
        kahn = checker_module.mask_is_acyclic

        def counted(instance, mask):
            calls.append(mask)
            return kahn(instance, mask)

        monkeypatch.setattr(checker_module, "mask_is_acyclic", counted)
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        report = _run(FullReversal(instance), vectorized="never", check_acyclicity=True)
        assert report.states_explored == 2604 and report.all_predicates_hold
        assert calls == [0]  # the root's mask, nothing else

    def test_pr_kahn_checks_only_uncertified_states(self, monkeypatch):
        calls = []
        kahn = checker_module.mask_is_acyclic

        def counted(instance, mask):
            calls.append(mask)
            return kahn(instance, mask)

        monkeypatch.setattr(checker_module, "mask_is_acyclic", counted)
        instance = grid_instance(3, 3, oriented_towards_destination=False)
        report = _run(
            PartialReversal(instance), vectorized="never", check_acyclicity=True
        )
        assert report.all_predicates_hold
        # partial reversals leave some actors with an incoming edge
        assert 1 < len(calls) < report.states_explored

    @pytest.mark.parametrize("workers", (1, 2))
    def test_symmetry_counts_pinned(self, workers):
        # (states, transitions, quiescent, depth, truncated), failures —
        # recorded from the scalar checker that Kahn-checked every state
        cases = (
            (FullReversal, _twin_rich_instance(), True, (11, 23, 1, 10, False), 0),
            (PartialReversal, _twin_rich_instance(), True, (7, 30, 1, 2, False), 0),
            (FullReversal, _cyclic_start_instance(), False, (5, 5, 1, 3, False), 5),
            (PartialReversal, _cyclic_start_instance(), False, (5, 6, 1, 2, False), 5),
        )
        for automaton_class, instance, reduced, summary, failures in cases:
            report = _run(
                automaton_class(instance, require_dag=False),
                symmetry=True,
                check_acyclicity=True,
                workers=workers,
            )
            assert not report.vectorized
            assert report.symmetry_reduced is reduced
            assert _summaries(report) == summary
            assert len(report.failures) == failures


# ----------------------------------------------------------------------
# the batch-first VisitedSet underneath the engine
# ----------------------------------------------------------------------
class TestVisitedSetBatch:
    def test_add_many_mask_matches_scalar_add_semantics(self, tmp_path):
        vs = VisitedSet(key_bytes=8, spill_threshold=64, spill_dir=tmp_path)
        reference: set = set()
        rng = np.random.default_rng(11)
        try:
            for _ in range(40):
                batch = rng.integers(0, 500, size=37, dtype=np.uint64)
                expected = []
                for value in batch.tolist():
                    expected.append(value not in reference)
                    reference.add(value)
                mask = vs.add_many(batch)
                assert mask.tolist() == expected
            assert len(vs) == len(reference)
            assert set(vs) == reference
        finally:
            vs.close()

    def test_contains_many_across_memory_segments_and_runs(self, tmp_path):
        vs = VisitedSet(key_bytes=8, spill_threshold=50, spill_dir=tmp_path, max_runs=2)
        members = list(range(0, 600, 3))
        try:
            for value in members:
                vs.add(value)
            assert vs.spilled_runs > 0
            probes = np.arange(0, 620, dtype=np.uint64)
            hits = vs.contains_many(probes)
            assert hits.tolist() == [int(p) in set(members) for p in probes.tolist()]
        finally:
            vs.close()

    def test_iter_streams_spilled_runs(self, tmp_path):
        vs = VisitedSet(key_bytes=8, spill_threshold=32, spill_dir=tmp_path)
        values = set(range(1000, 1500))
        try:
            for value in values:
                vs.add(value)
            assert vs.spilled_runs > 1
            assert set(vs) == values
        finally:
            vs.close()

    def test_compaction_folds_runs_and_counts_survive(self, tmp_path):
        vs = VisitedSet(key_bytes=8, spill_threshold=40, spill_dir=tmp_path, max_runs=2)
        try:
            for value in range(700):
                vs.add(value)
            stats = vs.stats
            assert stats["compactions"] > 0
            assert stats["runs"] <= 2
            assert len(vs) == 700
            assert all(value in vs for value in range(0, 700, 97))
        finally:
            vs.close()

    def test_close_empties_the_set(self, tmp_path):
        """Satellite pin: ``close()`` must leave a genuinely empty set."""
        vs = VisitedSet(key_bytes=8, spill_threshold=16, spill_dir=tmp_path)
        for value in range(100):
            vs.add(value)
        assert vs.spilled_runs > 0 and len(vs) == 100
        vs.close()
        assert len(vs) == 0
        assert list(vs) == []
        assert 5 not in vs
        assert list(tmp_path.glob("run-*.bin")) == []
        # close() is idempotent and the set stays usable as an empty one
        vs.close()
        assert len(vs) == 0
