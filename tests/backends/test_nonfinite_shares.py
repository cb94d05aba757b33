"""Non-finite shares fail both float engines' feasibility checks.

``(shares < -tol).any()`` is False for NaN, so a range test written
that way lets a NaN share through; the run then dies steps later as a
"made no progress" stall.  Both engines test "inside the range"
instead, which NaN fails, and must report every non-finite share as
:class:`~repro.exceptions.InfeasibleAssignmentError` at the step the
policy emitted it -- on the vector engine and on the batched engine,
which ask the same ``shares_array`` query.
"""

import numpy as np
import pytest

from repro.algorithms import Policy
from repro.backends import VectorBackend, run_batch
from repro.core import Instance, Job
from repro.exceptions import InfeasibleAssignmentError

BAD = [np.nan, np.inf, -np.inf]


def _instance(k: int) -> Instance:
    """``Instance.from_percent([[50, 50], [50, 50]])``, on *k* resources."""
    return Instance([[Job(["1/2"] * k) for _ in range(2)] for _ in range(2)])


class _Poison(Policy):
    """Grants half a share everywhere, with one *value* at processor 0.

    One lane or a batch: the rows take their shape from the state's.
    """

    name = "poison"

    def __init__(self, value: float) -> None:
        self.value = value

    def shares_array(self, state):
        shape = state.num_jobs.shape
        if state.num_resources > 1:
            shape = shape[:-1] + (state.num_resources, shape[-1])
        shares = np.full(shape, 0.5)
        shares[..., 0] = self.value
        return shares


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("value", BAD)
class TestNonFiniteShares:
    def test_vector_engine(self, value, k):
        with pytest.raises(InfeasibleAssignmentError, match="step 0: share outside"):
            VectorBackend().run(_instance(k), _Poison(value))

    def test_batched_engine(self, value, k):
        with pytest.raises(InfeasibleAssignmentError, match="step 0: share outside"):
            run_batch([_instance(k), _instance(k)], _Poison(value))
