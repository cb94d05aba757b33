"""MILP exact oracle via ``scipy.optimize.milp`` (HiGHS).

A third, formulation-level-independent way to compute optimal CRSharing
makespans: a time-indexed mixed-integer program.  For a candidate
horizon ``T`` we ask for a feasible assignment; the optimum is the
smallest feasible ``T`` scanned upward from a lower bound.

Variables (jobs ``(i,j)``, steps ``t in 0..T-1``):

* ``z[i,j,t] >= 0`` -- work processed for job ``(i,j)`` at step ``t``;
* ``f[i,j,t] in {0,1}`` -- job ``(i,j)`` is completed by the *end* of
  step ``t`` (monotone in ``t``).

Constraints:

1. capacity: ``sum_{i,j} z[i,j,t] <= 1`` for every ``t``;
2. speed cap: ``z[i,j,t] <= r_ij``;
3. completion of every job: ``sum_t z[i,j,t] = work_ij``;
4. completion flags: ``sum_{t' <= t} z[i,j,t'] >= work_ij * f[i,j,t]``;
5. precedence + one-job-per-processor-per-step:
   ``z[i,j+1,t] <= r_{i,j+1} * f[i,j,t-1]`` -- the successor may only
   receive resource strictly after its predecessor's completion step;
6. deadline: ``f[i, last, T-1] = 1``.

This oracle validates the makespan only (HiGHS returns floats, so we
do not reconstruct exact schedules from it).  Intended for tiny
instances in tests; size grows as ``2 * |jobs| * T`` variables.
"""

from __future__ import annotations

import numpy as np

from ..core.instance import Instance
from ..core.lower_bounds import length_bound, work_bound
from ..core.numerics import as_float
from ..exceptions import MissingDependencyError, SolverError

__all__ = ["milp_makespan", "milp_feasible"]


def _job_list(instance: Instance) -> list[tuple[int, int]]:
    return [jid for jid, _ in instance.jobs()]


def _highs():
    """scipy's MILP entry points, imported on first use (the ``milp`` extra)."""
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import lil_matrix
    except ImportError as exc:
        raise MissingDependencyError(
            "the MILP oracle needs scipy: pip install 'crsharing-repro[milp]'"
        ) from exc
    return Bounds, LinearConstraint, milp, lil_matrix


def milp_feasible(instance: Instance, horizon: int) -> bool:
    """Is there a feasible schedule with makespan at most *horizon*?

    Solves the time-indexed feasibility MILP described in the module
    docstring.  Works for unit and general job sizes (the model never
    assumes unit size).

    Raises:
        SolverError: if HiGHS reports anything other than a clean
            feasible/infeasible answer.
        MissingDependencyError: if scipy is not installed.
    """
    Bounds, LinearConstraint, milp, lil_matrix = _highs()
    instance.require_single_resource("milp_feasible")
    instance.require_static("milp_feasible")
    if horizon <= 0:
        return False
    jobs = _job_list(instance)
    J = len(jobs)
    T = horizon
    jindex = {jid: k for k, jid in enumerate(jobs)}

    # Variable layout: z variables first (J*T), then f variables (J*T).
    def zvar(k: int, t: int) -> int:
        return k * T + t

    def fvar(k: int, t: int) -> int:
        return J * T + k * T + t

    nvars = 2 * J * T
    req = np.array(
        [as_float(instance.job(*jid).requirement) for jid in jobs]
    )
    work = np.array([as_float(instance.job(*jid).work) for jid in jobs])

    lower = np.zeros(nvars)
    upper = np.ones(nvars)
    for k in range(J):
        for t in range(T):
            upper[zvar(k, t)] = min(req[k], work[k]) if work[k] > 0 else 0.0

    integrality = np.zeros(nvars)
    integrality[J * T :] = 1  # f variables are binary

    rows: list[tuple[dict[int, float], float, float]] = []
    INF = np.inf

    # (1) capacity per step.
    for t in range(T):
        rows.append(({zvar(k, t): 1.0 for k in range(J)}, -INF, 1.0))
    # (3) every job fully processed.
    for k in range(J):
        rows.append(({zvar(k, t): 1.0 for t in range(T)}, work[k], work[k]))
    # (4) completion flags need enough work accumulated.
    for k in range(J):
        for t in range(T):
            coeffs = {zvar(k, tp): 1.0 for tp in range(t + 1)}
            coeffs[fvar(k, t)] = -work[k]
            rows.append((coeffs, 0.0, INF))
    # (4') monotone flags.
    for k in range(J):
        for t in range(T - 1):
            rows.append(({fvar(k, t): 1.0, fvar(k, t + 1): -1.0}, -INF, 0.0))
    # (5) precedence: successor only after predecessor completed.
    for (i, j), k in jindex.items():
        succ = (i, j + 1)
        if succ not in jindex:
            continue
        ks = jindex[succ]
        cap = max(req[ks], 1e-12)
        for t in range(T):
            coeffs = {zvar(ks, t): 1.0}
            if t == 0:
                # Nothing can be completed before step 0.
                rows.append((coeffs, -INF, 0.0))
            else:
                coeffs[fvar(k, t - 1)] = -cap
                rows.append((coeffs, -INF, 0.0))
    # (6) last jobs done by the horizon.
    for i in range(instance.num_processors):
        k = jindex[(i, instance.num_jobs(i) - 1)]
        lower[fvar(k, T - 1)] = 1.0

    a = lil_matrix((len(rows), nvars))
    lo = np.empty(len(rows))
    hi = np.empty(len(rows))
    for ridx, (coeffs, lob, hib) in enumerate(rows):
        for col, val in coeffs.items():
            a[ridx, col] = val
        lo[ridx] = lob
        hi[ridx] = hib

    res = milp(
        c=np.zeros(nvars),
        constraints=LinearConstraint(a.tocsr(), lo, hi),
        bounds=Bounds(lower, upper),
        integrality=integrality,
    )
    if res.status == 0:
        return True
    if res.status == 2:  # infeasible
        return False
    raise SolverError(f"HiGHS returned status {res.status}: {res.message}")


def milp_makespan(instance: Instance, *, upper: int | None = None) -> int:
    """Optimal makespan via upward scan of :func:`milp_feasible`.

    Args:
        instance: the CRSharing instance.
        upper: optional known upper bound (e.g. a greedy schedule's
            makespan); the scan stops there at the latest.

    Raises:
        SolverError: if no feasible horizon is found up to the bound.
        MissingDependencyError: if scipy is not installed.
    """
    _highs()
    lb = max(work_bound(instance), length_bound(instance), 1)
    if upper is None:
        from .greedy_balance import GreedyBalance

        upper = GreedyBalance().run(instance).makespan
    for horizon in range(lb, upper + 1):
        if milp_feasible(instance, horizon):
            return horizon
    raise SolverError(
        f"no feasible horizon in [{lb}, {upper}] -- inconsistent bounds"
    )
