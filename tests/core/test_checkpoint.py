"""Round-trip tests for the kernel checkpoint layer.

The contract under test: suspending a run at any step boundary,
serializing the :class:`~repro.core.checkpoint.KernelCheckpoint` to
JSON, restoring it into a fresh runtime, and continuing must be
**bit-identical** to the uninterrupted run -- same makespan, same
completion steps, same objective value, same recorded shares -- on
both the exact and the vector backend, across every registered policy,
multiple resources, arrivals, weights, and deadlines.  Corrupted or
version-skewed documents must raise the typed ``CheckpointError``.
"""

import json

import pytest

from repro.algorithms import available_policies, get_policy
from repro.backends.vector import VectorRuntime
from repro.core import (
    CompletionRecorder,
    ExactRuntime,
    Instance,
    Job,
    KernelCheckpoint,
    ShareRecorder,
    checkpoint_run,
    restore_runtime,
    run_kernel,
)
from repro.exceptions import CheckpointError
from repro.generators import (
    multi_resource_instance,
    uniform_instance,
    with_arrivals,
    with_deadlines,
    with_weights,
)
from repro.objectives import get_objective

BACKENDS = ("exact", "vector")


def _runtime(kind: str, instance: Instance):
    return ExactRuntime(instance) if kind == "exact" else VectorRuntime(instance)


def _observers(instance: Instance):
    return [CompletionRecorder()]


def _outcome(instance, makespan, obs):
    """Makespan, completion steps, and the weighted-flow value of a run."""
    steps = obs[0].completion_steps
    flow = get_objective("weighted-flow")
    return makespan, steps, flow.value_from_completions(instance, steps, makespan)


def _full_run(instance, policy, kind):
    obs = _observers(instance)
    makespan = run_kernel(_runtime(kind, instance), policy, obs)
    return _outcome(instance, makespan, obs)


def _resumed_run(instance, policy, kind, cut, *, via_json=True):
    """Run to step *cut*, checkpoint, (de)serialize, resume to the end."""
    obs = _observers(instance)
    rt = _runtime(kind, instance)
    suspended = run_kernel(
        rt, policy, obs, stop=lambda r: r.t >= cut
    )
    ckpt = checkpoint_run(rt, obs)
    if via_json:
        ckpt = KernelCheckpoint.from_json(ckpt.to_json())
    fresh = _observers(instance)
    rt2 = restore_runtime(ckpt, observers=fresh)
    makespan = run_kernel(rt2, policy, fresh)
    if suspended is not None:
        # the stop predicate never fired: the run had already finished
        assert makespan == suspended
    return _outcome(instance, makespan, fresh)


@pytest.fixture(scope="module")
def annotated_instance() -> Instance:
    """Arrivals + skewed weights + mixed deadlines on one instance."""
    inst = uniform_instance(3, 4, seed=7)
    inst = with_arrivals(inst, max_release=3, seed=11)
    inst = with_weights(inst, profile="skewed", seed=13)
    return with_deadlines(inst, profile="mixed", seed=17)


class TestRoundTripAllPolicies:
    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("policy_name", available_policies())
    def test_resume_matches_uninterrupted(
        self, annotated_instance, policy_name, kind
    ):
        policy = get_policy(policy_name)
        expected = _full_run(annotated_instance, policy, kind)
        got = _resumed_run(annotated_instance, policy, kind, cut=2)
        assert got == expected

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_every_cut_point(self, annotated_instance, kind):
        """Suspending at *any* boundary resumes bit-identically."""
        policy = get_policy("greedy-balance")
        expected = _full_run(annotated_instance, policy, kind)
        makespan = expected[0]
        for cut in range(1, makespan + 2):
            assert _resumed_run(annotated_instance, policy, kind, cut) == expected


class TestRoundTripMultiResource:
    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "policy_name", ["greedy-balance", "proportional-share"]
    )
    def test_resume_matches(self, k, policy_name, kind):
        inst = multi_resource_instance(3, 3, k, seed=5)
        policy = get_policy(policy_name)
        expected = _full_run(inst, policy, kind)
        assert _resumed_run(inst, policy, kind, cut=1) == expected


class TestShareRows:
    """ShareRecorder is deliberately stateless: a resumed run records
    exactly the suffix rows of the uninterrupted run."""

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_suffix_rows(self, annotated_instance, kind):
        policy = get_policy("round-robin")
        full = ShareRecorder()
        run_kernel(_runtime(kind, annotated_instance), policy, [full])
        cut = 2
        rt = _runtime(kind, annotated_instance)
        run_kernel(rt, policy, stop=lambda r: r.t >= cut)
        ckpt = KernelCheckpoint.from_json(checkpoint_run(rt).to_json())
        suffix = ShareRecorder()
        run_kernel(restore_runtime(ckpt), policy, [suffix])
        assert [list(r) for r in suffix.shares] == [
            list(r) for r in full.shares[cut:]
        ]


class TestSerializationExactness:
    def test_exact_state_survives_json(self):
        inst = Instance.from_requirements([["1/3", "1/7"], ["2/3", "5/7"]])
        rt = ExactRuntime(inst)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt)
        back = KernelCheckpoint.from_json(ckpt.to_json())
        assert back.state == ckpt.state
        assert back.instance == inst
        assert back.kind == "exact"
        assert back.t == 1

    def test_vector_floats_survive_json(self, annotated_instance):
        rt = VectorRuntime(annotated_instance, tol=1e-9)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 2)
        ckpt = checkpoint_run(rt)
        back = KernelCheckpoint.from_json(ckpt.to_json())
        assert back.state == ckpt.state  # repr round-trip is exact
        rt2 = restore_runtime(back)
        assert rt2.tol == rt.tol
        assert list(rt2.state.remaining) == list(rt.state.remaining)

    def test_finished_run_checkpoints(self, annotated_instance):
        rt = ExactRuntime(annotated_instance)
        makespan = run_kernel(rt, get_policy("greedy-balance"))
        ckpt = checkpoint_run(rt)
        assert ckpt.t == makespan
        # resuming a finished run terminates immediately at the same step
        assert run_kernel(restore_runtime(ckpt), get_policy("greedy-balance")) == makespan


class TestCorruption:
    @pytest.fixture()
    def document(self, annotated_instance) -> dict:
        rt = ExactRuntime(annotated_instance)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 2)
        return checkpoint_run(rt).to_dict()

    def test_tampered_state_digest_mismatch(self, document):
        document["state"]["t"] = 99
        with pytest.raises(CheckpointError, match="digest"):
            KernelCheckpoint.from_dict(document)

    def test_tampered_instance_digest_mismatch(self, document):
        document["instance"]["releases"][0] += 1
        with pytest.raises(CheckpointError, match="digest"):
            KernelCheckpoint.from_dict(document)

    def test_version_skew(self, document):
        document["version"] = 999
        with pytest.raises(CheckpointError, match="version"):
            KernelCheckpoint.from_dict(document)

    def test_wrong_format_tag(self, document):
        document["format"] = "something-else"
        with pytest.raises(CheckpointError, match="not a kernel checkpoint"):
            KernelCheckpoint.from_dict(document)

    def test_unknown_kind_rejected(self, document):
        document["kind"] = "quantum"
        document["digest"] = None
        # recompute a valid digest so the kind check itself is exercised
        doc = KernelCheckpoint(
            kind="exact",
            instance=Instance.from_percent([[50]]),
            state={"t": 0},
        ).to_dict()
        doc["kind"] = "quantum"
        import hashlib

        trimmed = {k: v for k, v in doc.items() if k != "digest"}
        doc["digest"] = hashlib.sha256(
            json.dumps(trimmed, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        with pytest.raises(CheckpointError, match="kind"):
            KernelCheckpoint.from_dict(doc)

    def test_unparseable_json(self):
        with pytest.raises(CheckpointError, match="unparseable"):
            KernelCheckpoint.from_json("{not json")

    def test_non_dict_document(self):
        with pytest.raises(CheckpointError, match="must be a dict"):
            KernelCheckpoint.from_dict([1, 2, 3])

    def test_malformed_state_payload_on_restore(self, document):
        ckpt = KernelCheckpoint.from_dict(document)
        bad = KernelCheckpoint(
            kind=ckpt.kind,
            instance=ckpt.instance,
            state={**ckpt.state, "done": [99] * 3},
            observers=ckpt.observers,
        )
        with pytest.raises(CheckpointError):
            restore_runtime(bad)


class TestObserverRestore:
    def test_observer_count_mismatch(self, two_proc_instance):
        rt = ExactRuntime(two_proc_instance)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt, [CompletionRecorder()])
        with pytest.raises(CheckpointError, match="observer"):
            restore_runtime(
                ckpt, observers=[CompletionRecorder(), CompletionRecorder()]
            )

    def test_stateless_observer_with_state_payload(self, two_proc_instance):
        rt = ExactRuntime(two_proc_instance)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt, [CompletionRecorder()])
        # pretend the captured CompletionRecorder state belongs to a
        # ShareRecorder: stateless observers must reject foreign state
        with pytest.raises(CheckpointError, match="stateless"):
            restore_runtime(ckpt, observers=[ShareRecorder()])

    def test_resume_without_observers_is_legal(self, two_proc_instance):
        rt = ExactRuntime(two_proc_instance)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt, [CompletionRecorder()])
        assert run_kernel(
            restore_runtime(ckpt), get_policy("greedy-balance")
        ) is not None


class TestExtension:
    """Restoring into a grown instance: the service-layer primitive."""

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_tail_append_and_new_queue(self, kind):
        small = Instance.from_percent([[50, 30], [40, 60]])
        policy = get_policy("greedy-balance")
        rt = _runtime(kind, small)
        run_kernel(rt, policy, stop=lambda r: r.t >= 1)
        ckpt = KernelCheckpoint.from_json(checkpoint_run(rt).to_json())
        big = Instance.from_percent(
            [[50, 30, 20], [40, 60], [70]]
        ).with_releases([0, 0, 2])
        rt2 = restore_runtime(ckpt, instance=big)
        makespan = run_kernel(rt2, policy)
        assert makespan is not None and makespan >= 2

    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_in_place_extend_equals_restore(self, kind, k):
        """``runtime.extend`` reaches the state a restore into the grown
        instance builds: same captured state after every growth step,
        same completions and share rows to the end."""

        def job(r, size=1):
            return Job([r] * k if k > 1 else r, size)

        small = Instance([[job("1/2")], [job("1/4", 3), job("1/3")]])
        policy = get_policy("greedy-balance")
        live = _runtime(kind, small)
        run_kernel(live, policy, stop=lambda r: r.t >= 2)  # queue 0 drained
        reference = restore_runtime(checkpoint_run(live))
        growth = [
            (job("1/4"), 1, None),  # tail of a busy queue
            (job("3/4", 2), 2, 2),  # a new queue, released now
            (job("1/2"), 2, None),  # before that queue is released
            (job("1"), 0, None),  # onto the drained queue
            (job("0"), 2, None),
            (job("1/3", "5/2"), 1, None),  # grows the padded tables
            (job("1/4"), 3, 7),  # a new queue released later
        ]
        for new, processor, release in growth:
            live.extend(new, processor, release)
            reference = restore_runtime(
                checkpoint_run(reference), instance=live.instance
            )
            assert live.capture() == reference.capture()
            run_kernel(live, policy, stop=lambda r: r.t >= r.instance.total_jobs)
            run_kernel(reference, policy, stop=lambda r: r.t >= live.t)
        results = []
        for rt in (live, reference):
            obs = [CompletionRecorder(), ShareRecorder()]
            run_kernel(rt, policy, obs)
            results.append(
                (obs[0].completion_steps, [list(map(str, row)) for row in obs[1].shares])
            )
        assert results[0] == results[1]

    def test_prefix_mutation_rejected(self):
        small = Instance.from_percent([[50, 30], [40, 60]])
        rt = ExactRuntime(small)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt)
        mutated = Instance.from_percent([[55, 30], [40, 60]])
        with pytest.raises(CheckpointError, match="prefix"):
            restore_runtime(ckpt, instance=mutated)

    def test_release_change_rejected(self):
        small = Instance.from_percent([[50, 30], [40, 60]])
        rt = ExactRuntime(small)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt)
        shifted = small.with_releases([0, 3])
        with pytest.raises(CheckpointError, match="release"):
            restore_runtime(ckpt, instance=shifted)

    def test_dropped_processor_rejected(self):
        small = Instance.from_percent([[50, 30], [40, 60]])
        rt = ExactRuntime(small)
        run_kernel(rt, get_policy("greedy-balance"), stop=lambda r: r.t >= 1)
        ckpt = checkpoint_run(rt)
        narrow = Instance.from_percent([[50, 30]])
        with pytest.raises(CheckpointError, match="processors"):
            restore_runtime(ckpt, instance=narrow)


class TestTableWidthBoundary:
    """The vector state's sentinel column at the edge of its tables.

    Every queue keeps one empty-job column past its last job:
    ``extend`` widens the tables before a job would take that column,
    and a drained queue's ``done == n_i`` indexes it.
    """

    @staticmethod
    def _finish(rt, policy):
        obs = [CompletionRecorder(), ShareRecorder()]
        makespan = run_kernel(rt, policy, obs)
        return makespan, obs[0].completion_steps, [row.tolist() for row in obs[1].shares]

    @pytest.mark.parametrize("k", [1, 2])
    # Queue 0 is the widest (its job widens the tables); queue 1 is one
    # short (its job fills them up to the sentinel column).
    @pytest.mark.parametrize("processor", [0, 1])
    @pytest.mark.parametrize("cut", [0, 1])
    def test_extend_to_table_width_then_drain(self, k, processor, cut):
        def job(r, size=1):
            return Job([r] * k, size)

        small = Instance(
            [[job("1/2"), job("1/4"), job("1/4")], [job("1/4", 2), job("1/2")]]
        )
        policy = get_policy("greedy-balance")
        live = VectorRuntime(small)
        run_kernel(live, policy, stop=lambda r: r.t >= cut)
        reference = restore_runtime(checkpoint_run(live))
        live.extend(job("1/3", 2), processor)
        assert live.instance.num_jobs(processor) == live.instance.max_jobs
        # The extended queue still ends in a sentinel column.
        assert live.state._table.shape[-1] > live.instance.max_jobs
        reference = restore_runtime(
            checkpoint_run(reference), instance=live.instance
        )
        assert live.capture() == reference.capture()
        outcome = self._finish(live, policy)
        assert outcome == self._finish(reference, policy)
        if cut == 0:
            assert outcome == self._finish(VectorRuntime(live.instance), policy)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("cut", [3, 4, 6])
    def test_restore_with_widest_queue_drained(self, k, cut):
        # Queue 0 (the widest) drains after 3 steps; queue 1 runs 10.
        inst = Instance(
            [[Job(["1/10"] * k) for _ in range(3)], [Job(["1/2"] * k, 10)]]
        )
        policy = get_policy("greedy-balance")
        live = VectorRuntime(inst)
        run_kernel(live, policy, stop=lambda r: r.t >= cut)
        assert live.state.done.tolist()[0] == inst.num_jobs(0) == inst.max_jobs
        restored = restore_runtime(
            KernelCheckpoint.from_json(checkpoint_run(live).to_json())
        )
        assert restored.capture() == live.capture()
        assert _resumed_run(inst, policy, "vector", cut) == _full_run(
            inst, policy, "vector"
        )


class TestFastForward:
    def test_at_step_moves_clock(self, two_proc_instance):
        rt = ExactRuntime(two_proc_instance)
        run_kernel(rt, get_policy("greedy-balance"))
        ckpt = checkpoint_run(rt)
        later = ckpt.at_step(ckpt.t + 5)
        assert later.t == ckpt.t + 5
        assert ckpt.t == int(ckpt.state["t"])  # original untouched

    def test_at_step_backwards_rejected(self, two_proc_instance):
        rt = ExactRuntime(two_proc_instance)
        run_kernel(rt, get_policy("greedy-balance"))
        ckpt = checkpoint_run(rt)
        with pytest.raises(CheckpointError, match="backwards"):
            ckpt.at_step(ckpt.t - 1)


class TestUnsupportedRuntime:
    def test_checkpoint_run_rejects_foreign_runtime(self):
        class Foreign:
            instance = None

        with pytest.raises(CheckpointError, match="does not support"):
            checkpoint_run(Foreign())
