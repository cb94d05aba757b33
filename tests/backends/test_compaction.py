"""Lane compaction in the batched engine.

Compaction is a pure bookkeeping optimization: once the live fraction
of a ragged batch drops below the threshold the state shrinks to the
surviving lanes, and every result (makespans, objective values, error
attribution) must be reported against *original* lane indices exactly
as an uncompacted run reports them.  These tests pin that equivalence,
the ``compactions``/``batch.compactions`` accounting, and the
``compact_threshold`` parameter of ``run_batch``.
"""

import numpy as np
import pytest

from repro.algorithms import get_policy
from repro.algorithms.base import _fill_arrays_batch_multi, _fill_arrays_multi
from repro.backends import run_batch
from repro.backends.batched import BatchVectorRuntime
from repro.generators import (
    multi_resource_instance,
    uniform_instance,
    with_arrivals,
)

OBJECTIVES = ("makespan", "weighted-flow")


def _ragged_batch(seed, lanes=12):
    """A batch with widely mixed makespans, so most lanes finish early."""
    insts = [uniform_instance(2, 1, seed=seed + j) for j in range(lanes - 2)]
    insts.append(uniform_instance(4, 8, seed=seed + 100))
    insts.append(
        with_arrivals(
            uniform_instance(3, 6, seed=seed + 200), max_release=8, seed=seed
        )
    )
    return insts


class TestCompactionEquivalence:
    @pytest.mark.parametrize("policy_name", ["greedy-balance", "round-robin"])
    @pytest.mark.parametrize("seed", range(5))
    def test_ragged_batch_results_unchanged(self, policy_name, seed):
        insts = _ragged_batch(seed)
        base = run_batch(
            insts,
            policy_name,
            objectives=OBJECTIVES,
            compact_threshold=None,
        )
        compacted = run_batch(
            insts,
            policy_name,
            objectives=OBJECTIVES,
            compact_threshold=0.5,
        )
        assert compacted.compactions > 0  # the ragged shape triggers it
        assert np.array_equal(base.makespans, compacted.makespans)
        for name in OBJECTIVES:
            # Bit-identity: dead lanes contribute nothing to survivors.
            assert base.objective_values[name] == compacted.objective_values[name]
        assert base.steps == compacted.steps

    @pytest.mark.parametrize("seed", range(3))
    def test_multires_ragged_batch(self, seed):
        insts = [
            multi_resource_instance(3, 1, 2, seed=seed + j) for j in range(6)
        ] + [multi_resource_instance(3, 7, 3, seed=seed + 50)]
        base = run_batch(insts, "greedy-balance", compact_threshold=None)
        compacted = run_batch(insts, "greedy-balance", compact_threshold=0.5)
        assert compacted.compactions > 0
        assert np.array_equal(base.makespans, compacted.makespans)

    def test_uniform_batch_never_compacts(self):
        """Lanes finishing together leave nothing to compact."""
        insts = [uniform_instance(3, 3, seed=7)] * 6
        result = run_batch(insts, "greedy-balance")
        assert result.compactions == 0

    def test_small_batches_never_compact(self):
        """Below 4 lanes the bookkeeping outweighs the saving."""
        insts = _ragged_batch(0)[:3]
        result = run_batch(insts, "greedy-balance", compact_threshold=0.9)
        assert result.compactions == 0

    def test_threshold_validation(self):
        insts = [uniform_instance(2, 2, seed=0)]
        with pytest.raises(ValueError):
            BatchVectorRuntime(
                insts, get_policy("greedy-balance"), compact_threshold=1.5
            )

    def test_compaction_telemetry_counter(self):
        from repro.telemetry import TelemetrySession, use_session

        session = TelemetrySession()
        with use_session(session):
            result = run_batch(
                _ragged_batch(3),
                "greedy-balance",
                compact_threshold=0.5,
            )
        counters = {
            name: metric.value
            for name, labels, metric in session.metrics.items()
            if name == "batch.compactions"
        }
        assert result.compactions > 0
        assert counters.get("batch.compactions") == result.compactions


class TestBatchedMultiFillBitIdentity:
    """Satellite check: the (B, k, m) fill == the per-lane fill, bitwise."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_lane_fill(self, seed):
        rng = np.random.default_rng(seed)
        B, k, m = 6, int(rng.integers(2, 4)), int(rng.integers(2, 8))
        remaining = rng.uniform(0, 1.5, (B, m))
        req_matrix = rng.uniform(0, 0.8, (B, k, m)) * (
            rng.random((B, k, m)) < 0.8
        )
        rstar = req_matrix.max(axis=1)
        eligible = (rng.random((B, m)) < 0.85) & (rstar > 0)
        order = np.argsort(rng.random((B, m)), axis=1).astype(np.int64)
        got = _fill_arrays_batch_multi(
            remaining, rstar, req_matrix, order, eligible, 1.0
        )
        for b in range(B):
            # The per-lane core has no eligibility mask; zeroing the
            # remaining work retires a processor the same way.
            masked = np.where(eligible[b], remaining[b], 0.0)
            want = _fill_arrays_multi(
                masked, rstar[b], req_matrix[b], order[b], 1.0
            )
            assert np.array_equal(got[b], want), b
