"""Frozen copies of the per-job converters the integer job table replaced.

Each function below is the conversion an engine used to run on its
own, straight from the ``Fraction`` fields of the jobs: the float rows
of the vector backend (``_job_fields`` and the padded table it filled),
the integer grid (``to_integer_grid`` / ``grid_units``), the bag's
weight grid (``JobBag.weight_grid``) and the ``product_sum`` work sums.
:mod:`tests.core.test_job_table` checks the table against them.  Do
not edit them to match the table.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import Instance, Job
from repro.core.numerics import product_sum


def job_fields(job: Job) -> tuple[float, float, float, float]:
    """*job*'s requirement / work / weight / deadline row entries."""
    req = float(job.requirement)
    work = req if job.size == 1 else float(job.work)
    dl = np.inf if job.deadline is None else float(job.deadline)
    return req, work, float(job.weight), dl


def float_rows(instance: Instance) -> np.ndarray:
    """The padded ``(F, m, n + 1)`` float table of one instance."""
    k = instance.num_resources
    rows = 4 + k if k > 1 else 4
    table = np.zeros((rows, instance.m, instance.max_jobs + 1))
    table[3] = np.inf
    for (i, j), job in instance.jobs():
        column = list(job_fields(job))
        if k > 1:
            column += [float(r) for r in job.requirements]
        table[:, i, j] = column
    return table


def resource_denominator(instance: Instance) -> int:
    return math.lcm(
        *(r.denominator for queue in instance.queues for job in queue for r in job.requirements)
    )


def to_integer_grid(instance: Instance) -> tuple[list[list[int]], int]:
    d = resource_denominator(instance)
    units = [
        [job.requirement.numerator * (d // job.requirement.denominator) for job in queue]
        for queue in instance.queues
    ]
    return units, d


def grid_units(instance: Instance):
    """``(requirement units, work units, D)``, or None off the grid (k=1)."""
    units, d = to_integer_grid(instance)
    works = []
    for queue, row in zip(instance.queues, units):
        works.append([])
        for job, unit in zip(queue, row):
            size = job.size
            work, off_grid = divmod(unit * size.numerator, size.denominator)
            if off_grid:
                return None
            works[-1].append(work)
    return units, works, d


def weight_grid(jobs) -> tuple[np.ndarray | None, int]:
    """Exact weights as ``(numerators, d)``, ending in the sentinel's 0."""
    ratios = [job.weight.as_integer_ratio() for job in jobs]
    d = math.lcm(*(q for _, q in ratios))
    num = [p * (d // q) for p, q in ratios] + [0]
    return (np.array(num) if max(num) < 2**63 else None, d)


def work_sums(instance: Instance):
    """``(bottleneck total, per-resource totals)`` in ``Fraction``."""
    jobs = [job for queue in instance.queues for job in queue]
    per_resource = tuple(
        product_sum((job.requirements[r], job.size) for job in jobs)
        for r in range(instance.num_resources)
    )
    total = product_sum((job.requirement, job.size) for job in jobs)
    return total, per_resource


def bag_ids(instances) -> tuple[list[Job], list]:
    """Distinct jobs (by ``Job.__eq__``, first seen) and per-queue ids."""
    ids: dict[Job, int] = {}
    jobs: list[Job] = []
    lanes = []
    for instance in instances:
        lane = []
        for queue in instance.queues:
            row = []
            for job in queue:
                if job not in ids:
                    ids[job] = len(jobs)
                    jobs.append(job)
                row.append(ids[job])
            lane.append(tuple(row))
        lanes.append(tuple(lane))
    return jobs, lanes
