"""Mechanics of the batched engine: results, the one query, errors, telemetry.

The fine-grained behavior contract of
:class:`~repro.backends.batched.BatchVectorRuntime` and the
``execution="batched"`` mode of
:class:`~repro.backends.batch.BatchRunner` -- the numerical agreement
bar lives in ``test_batched_crosscheck.py``.
"""

import numpy as np
import pytest

from repro.algorithms import GreedyBalance, Policy, available_policies, get_policy
from repro.backends import (
    BatchRunner,
    BatchVectorRuntime,
    VectorBackend,
    make_campaign_instances,
    run_batch,
)
from repro.backends.vector import VectorRuntime
from repro.core import Instance
from repro.exceptions import (
    BackendError,
    InfeasibleAssignmentError,
    SimulationLimitError,
    VectorizationUnsupportedError,
)
from repro.generators import (
    bag_instance,
    general_size_instance,
    uniform_instance,
    with_arrivals,
    with_deadlines,
    with_resources,
    with_weights,
)
from repro.objectives import available_objectives
from repro.sequencing import LocalSearchSequencer
from repro.telemetry import TelemetrySession, use_session


class _ExactOnly(Policy):
    """A policy with no array path at all."""

    name = "exact-only"

    def shares(self, state):  # pragma: no cover - never stepped
        raise NotImplementedError


class _Overcommit(Policy):
    """Oversubscribes the resource on every lane."""

    name = "overcommit"

    def shares_array(self, state):
        return np.ones(state.num_jobs.shape)


class _LateOvercommit(GreedyBalance):
    """GreedyBalance, then 0.6 to every pending processor from step 4 on."""

    name = "late-overcommit"

    def shares_array(self, state):
        if state.t < 4:
            return super().shares_array(state)
        return np.where(state.pending_mask, 0.6, 0.0)


class _LaneOnly(GreedyBalance):
    """A float rule written for one lane: it returns an ``(m,)`` row."""

    name = "lane-only"

    def shares_array(self, state):
        return super().shares_array(state).reshape(-1, state.num_processors)[0]


def _batch(n=3, *, seed=0):
    return [bag_instance(3, 4, seed=seed + j) for j in range(n)]


class TestRunResult:
    def test_result_accounting(self):
        insts = _batch(4)
        result = run_batch(insts, "greedy-balance")
        assert result.lanes == 4
        assert result.makespans.shape == (4,)
        assert result.makespans.dtype == np.int64
        assert result.steps == int(result.makespans.max())
        assert result.lane_steps == int(result.makespans.sum())
        assert result.wall_seconds > 0

    def test_objective_vectors_in_lane_order(self):
        insts = _batch(3)
        result = run_batch(insts, "greedy-balance", objectives=("makespan",))
        values = result.objective_values["makespan"]
        assert len(values) == 3
        assert values == [float(ms) for ms in result.makespans]

    def test_policy_resolved_by_name(self):
        by_name = run_batch(_batch(), "greedy-balance")
        by_object = run_batch(_batch(), GreedyBalance())
        assert by_name.makespans.tolist() == by_object.makespans.tolist()


def _padded(row: np.ndarray, shape: tuple) -> np.ndarray:
    """A lane's ``(m,)`` / ``(k, m)`` shares, zero-padded to a batch row."""
    m = row.shape[-1]
    rows = row.reshape(-1, m)
    out = np.zeros(shape)
    out.reshape(-1, shape[-1])[: len(rows), :m] = rows
    return out


class TestOneQuery:
    """``shares_array`` serves a single lane and a batch alike."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", sorted(available_policies()))
    def test_batch_rows_equal_lane_queries(self, name, k):
        """Each lane's batched row equals its own single-lane query, bitwise."""
        policy = get_policy(name)
        insts = [
            with_arrivals(uniform_instance(4, 3, seed=1), max_release=3, seed=1),
            with_resources(with_weights(general_size_instance(3, 4, seed=2), seed=2), k, seed=2),
            with_deadlines(uniform_instance(2, 5, seed=3), seed=3),
        ]
        batch = BatchVectorRuntime(insts, policy, compact_threshold=None)
        lanes = [VectorRuntime(inst) for inst in insts]
        while not all(lane.all_done for lane in lanes):
            batch.state.begin_step()
            shares = batch._query()
            for b, lane in enumerate(lanes):
                lane.begin_step()
                row = lane.query(policy)
                assert np.array_equal(shares[b], _padded(row, shares.shape[1:])), (b, lane.t)
                lane.apply(row)
            batch._check(shares)
            batch._apply(shares)

    def test_exact_only_policy_is_rejected(self):
        with pytest.raises(VectorizationUnsupportedError, match="exact-only"):
            BatchVectorRuntime(_batch(), _ExactOnly())

    def test_lane_only_policy_fails_run_batch(self):
        # The single-lane engine runs it; the batch engine rejects it at step 0.
        insts = _batch(3)
        VectorBackend().run(insts[0], _LaneOnly())
        with pytest.raises(InfeasibleAssignmentError, match=r"step 0 \(expected \(3, 3\)\)"):
            run_batch(insts, _LaneOnly())

    def test_lane_only_policy_fails_batched_search(self):
        search = LocalSearchSequencer(policy=_LaneOnly(), batch_lanes=8, budget=16)
        with pytest.raises(InfeasibleAssignmentError, match=r"step 0 \(expected \(9, 3\)\)"):
            search.sequence(bag_instance(3, 4, seed=0))

    def test_lane_only_policy_runs_sequential_search(self):
        # One lane per batch: every order, the starting ones included,
        # runs alone on the single-lane engine.
        inst = bag_instance(3, 4, seed=0)
        search = LocalSearchSequencer(policy=_LaneOnly(), batch_lanes=1, budget=16)
        assert search.sequence(inst).same_bag(inst)
        assert search.last_stats["kernel_runs"] > 1


class TestErrorPaths:
    def test_empty_batch(self):
        with pytest.raises(BackendError, match="at least one instance"):
            run_batch([], "greedy-balance")

    def test_nonpositive_tolerance(self):
        with pytest.raises(ValueError, match="tol"):
            BatchVectorRuntime(_batch(), "greedy-balance", tol=0.0)

    def test_step_limit_names_offending_lane(self):
        insts = [
            Instance.from_percent([[100]]),  # finishes in 1 step
            Instance.from_percent([[100], [100], [100]]),  # needs 3
        ]
        with pytest.raises(SimulationLimitError, match="lane 1"):
            run_batch(insts, "greedy-balance", max_steps=2)

    def test_overcommitted_shares_rejected(self):
        with pytest.raises(InfeasibleAssignmentError, match="overused"):
            run_batch(_batch(), _Overcommit())

    @pytest.mark.parametrize("compact", [0.5, None])
    def test_overuse_names_the_original_lane(self, compact):
        # Lanes 0-2 finish at step 2, so the default threshold compacts
        # the batch to lane 3 alone before it overuses at step 4.
        short = Instance.from_percent([[100], [100]])
        long = Instance.from_percent([[100] * 6, [100] * 6])
        runtime = BatchVectorRuntime(
            [short, short, short, long], _LateOvercommit(), compact_threshold=compact
        )
        with pytest.raises(InfeasibleAssignmentError, match="step 4: resource overused in lane 3 "):
            runtime.run()
        assert runtime.state.num_lanes == (1 if compact else 4)


class TestTelemetry:
    def test_batched_run_span_and_metrics(self):
        insts = _batch(5)
        with use_session(TelemetrySession()) as session:
            result = run_batch(insts, "greedy-balance")
        (span,) = [
            r for r in session.tracer.records if r.name == "batched.run"
        ]
        assert span.attrs["lanes"] == 5
        assert span.attrs["steps"] == result.steps
        assert span.attrs["lane_steps"] == result.lane_steps
        assert span.attrs["policy"] == "greedy-balance"
        metrics = session.metrics
        assert metrics.gauge("batch.lanes").value == 5
        assert metrics.counter("batched.runs").value == 1
        assert metrics.counter("batched.steps").value == result.steps
        assert (
            metrics.counter("batched.lane_steps").value == result.lane_steps
        )

    def test_batched_run_span_notes_build_and_objective_time(self):
        with use_session(TelemetrySession()) as session:
            run_batch(_batch(4), "greedy-balance", objectives=("weighted-flow",))
            run_batch(_batch(4), "greedy-balance")
        spans = [r for r in session.tracer.records if r.name == "batched.run"]
        assert len(spans) == 2
        for span in spans:
            assert span.attrs["build_s"] > 0.0
            assert 0.0 <= span.attrs["objective_s"] < span.dur
        assert spans[0].attrs["objective_s"] > 0.0

    def test_no_session_no_overhead(self):
        result = run_batch(_batch(), "greedy-balance")
        assert result.lanes == 3  # ran fine without telemetry
        # No session: state construction is not timed.
        assert BatchVectorRuntime(_batch(), "greedy-balance").build_s == 0.0


class TestBatchedExecutionMode:
    """``BatchRunner(execution="batched")`` vs the multiprocessing path."""

    def test_rows_match_process_execution(self):
        insts = [bag_instance(3, 4, seed=s) for s in range(7)]
        batched = BatchRunner(
            execution="batched", batch_lanes=3, objectives=("makespan",)
        ).run(insts)
        processes = BatchRunner(workers=2, objectives=("makespan",)).run(
            insts
        )
        assert batched.makespans == processes.makespans
        assert batched.ratios == processes.ratios
        assert batched.objective_values("makespan") == (
            processes.objective_values("makespan")
        )

    def test_rows_equal_but_for_timing(self):
        """Both modes build the same row dicts, objective reports included."""
        insts = make_campaign_instances(
            6, 3, 4, seed=1, weights_profile="skewed", deadline_profile="mixed"
        )
        objectives = tuple(available_objectives())
        batched = BatchRunner(execution="batched", batch_lanes=4, objectives=objectives)
        serial = BatchRunner(workers=1, objectives=objectives)

        def untimed(result):
            return [{k: v for k, v in row.items() if k != "seconds"} for row in result.rows]

        rows = untimed(batched.run(insts))
        assert rows == untimed(serial.run(insts))
        assert set(rows[0]["objectives"]) == set(objectives)
        # A certificate that cannot grade its run stores None, not inf.
        ratios = [r["ratio"] for row in rows for r in row["objectives"].values()]
        assert None in ratios

    def test_rows_match_with_sequencer(self):
        insts = [bag_instance(3, 3, seed=s) for s in range(4)]
        kwargs = dict(
            sequencer="local-search",
            sequencer_options={"budget": 12, "seed": 0},
        )
        batched = BatchRunner(execution="batched", **kwargs).run(insts)
        serial = BatchRunner(workers=1, **kwargs).run(insts)
        assert batched.makespans == serial.makespans

    def test_summary_records_execution_mode(self):
        insts = _batch(2)
        batched = BatchRunner(execution="batched").run(insts)
        assert batched.summary()["execution"] == "batched"
        # Legacy multiprocessing stores keep their exact shape.
        assert "execution" not in BatchRunner(workers=1).run(insts).summary()

    def test_unknown_execution_mode(self):
        with pytest.raises(BackendError, match="unknown execution mode"):
            BatchRunner(execution="threads")

    def test_bad_batch_lanes(self):
        with pytest.raises(BackendError, match="batch_lanes"):
            BatchRunner(execution="batched", batch_lanes=0)

    def test_batched_requires_vector_backend(self):
        with pytest.raises(BackendError, match="vector"):
            BatchRunner(backend="exact", execution="batched")
