"""``BagSelection.row_ids`` against a frozen copy of the tuple builder.

The builder fills the padded id block with one ``np.fromiter`` over the
flat id stream and a length mask; the frozen copy padded one Python
tuple per queue.  Hypothesis draws ragged batches: lanes with different
queue counts, empty queues, uneven lengths and release steps.
"""

from itertools import chain

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.vector import BagSelection, JobBag


def frozen_row_ids(queues, releases):
    """The padded-tuple builder, as it was before the mask fill."""
    m = max(map(len, queues))
    width = max(len(q) for lane in queues for q in lane) + 1
    pad, empty = (-1,) * width, ((),) * m
    rows = [
        tuple(q) + pad[len(q):]
        for lane in queues
        for q in (lane if len(lane) == m else tuple(lane) + empty[len(lane):])
    ]
    shape = (len(queues), m)
    ids = np.fromiter(chain.from_iterable(rows), np.intp, len(rows) * width)
    release = [tuple(r) + (0,) * (m - len(r)) for r in releases]
    num_jobs = np.array([width - r.count(-1) for r in rows]).reshape(shape)
    return num_jobs, np.array(release, np.int64), ids.reshape(shape + (width,))


_queue = st.lists(st.integers(0, 40), max_size=6).map(tuple)


@st.composite
def batches(draw):
    lanes = draw(
        st.lists(st.lists(_queue, min_size=1, max_size=5).map(tuple), min_size=1, max_size=6)
    )
    releases = [
        tuple(draw(st.integers(0, 9)) if draw(st.booleans()) else 0 for _ in lane)
        for lane in lanes
    ]
    return lanes, releases


@settings(max_examples=400, deadline=None)
@given(batch=batches())
def test_row_ids_equal_frozen_builder(batch):
    queues, releases = batch
    got = BagSelection(JobBag(), queues, releases).row_ids()
    for new, old in zip(got, frozen_row_ids(queues, releases)):
        assert new.dtype == old.dtype
        np.testing.assert_array_equal(new, old)


def test_every_queue_empty():
    queues, releases = [((), ()), ((),)], [(0, 3), (1,)]
    got = BagSelection(JobBag(), queues, releases).row_ids()
    for new, old in zip(got, frozen_row_ids(queues, releases)):
        np.testing.assert_array_equal(new, old)
    assert got[2].shape == (2, 2, 1)
