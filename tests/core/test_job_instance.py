"""Unit tests for Job and Instance."""

from fractions import Fraction

import pytest

from repro.core import Instance, Job
from repro.exceptions import InvalidInstanceError, UnitSizeRequiredError


class TestJob:
    def test_basic(self):
        job = Job("1/2")
        assert job.requirement == Fraction(1, 2)
        assert job.size == 1
        assert job.is_unit
        assert job.work == Fraction(1, 2)

    def test_general_size_work(self):
        job = Job("1/4", 3)
        assert job.work == Fraction(3, 4)
        assert not job.is_unit
        assert job.steps_at_full_speed() == 3

    def test_fractional_size_steps(self):
        assert Job("1/2", "5/2").steps_at_full_speed() == 3

    def test_requirement_bounds(self):
        Job(0)
        Job(1)
        with pytest.raises(InvalidInstanceError):
            Job("3/2")
        with pytest.raises(InvalidInstanceError):
            Job(-1)

    def test_size_positive(self):
        with pytest.raises(InvalidInstanceError):
            Job("1/2", 0)

    def test_immutable(self):
        job = Job("1/2")
        with pytest.raises(AttributeError):
            job.requirement = Fraction(1)  # type: ignore[misc]

    def test_equality_and_hash(self):
        assert Job("1/2") == Job("0.5") == Job(Fraction(1, 2))
        assert hash(Job("1/2")) == hash(Job("0.5"))


class TestInstanceConstruction:
    def test_from_numbers(self):
        inst = Instance([[0.5, "1/4"], [1]])
        assert inst.num_processors == 2
        assert inst.requirement(0, 1) == Fraction(1, 4)

    def test_from_percent(self):
        inst = Instance.from_percent([[50], [100]])
        assert inst.requirement(0, 0) == Fraction(1, 2)
        assert inst.requirement(1, 0) == 1

    def test_rejects_empty_system(self):
        with pytest.raises(InvalidInstanceError):
            Instance([])

    def test_rejects_empty_queue(self):
        with pytest.raises(InvalidInstanceError):
            Instance([[0.5], []])

    # Typed boundary: these raised a bare ValueError.  The typed error
    # is still a ValueError, so callers catching the builtin keep working.
    def test_rejects_nan_requirement(self):
        with pytest.raises(InvalidInstanceError, match="requirement must be a finite number"):
            Instance([[float("nan")]])

    def test_rejects_infinite_size(self):
        with pytest.raises(InvalidInstanceError, match="size must be a finite number"):
            Job("1/2", float("inf"))

    def test_rejects_nan_weight(self):
        with pytest.raises(InvalidInstanceError, match="weight must be a finite number"):
            Job("1/2", weight=float("nan"))

    def test_rejects_non_integer_release(self):
        with pytest.raises(InvalidInstanceError, match="release times must be integers"):
            Instance([[0.5]], releases=["a"])

    def test_typed_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            Instance([[0.5]], releases=[None])

    def test_equality_hash(self):
        a = Instance.from_requirements([["1/2"], ["1/3"]])
        b = Instance.from_requirements([[Fraction(1, 2)], [Fraction(1, 3)]])
        assert a == b and hash(a) == hash(b)


class TestInstanceDerived:
    @pytest.fixture
    def inst(self) -> Instance:
        return Instance.from_requirements(
            [["1/2", "1/4", "1/4"], ["1/3"], ["1/2", "1/2"]]
        )

    def test_shape(self, inst):
        assert inst.m == 3
        assert inst.max_jobs == 3
        assert inst.total_jobs == 6
        assert [inst.num_jobs(i) for i in range(3)] == [3, 1, 2]

    def test_m_j_sets(self, inst):
        assert inst.processors_with_at_least(1) == (0, 1, 2)
        assert inst.processors_with_at_least(2) == (0, 2)
        assert inst.processors_with_at_least(3) == (0,)
        assert inst.processors_with_at_least(4) == ()

    def test_m_j_rejects_zero(self, inst):
        with pytest.raises(ValueError):
            inst.processors_with_at_least(0)

    def test_total_work(self, inst):
        assert inst.total_work() == Fraction(1, 2) + Fraction(1, 4) * 2 + Fraction(
            1, 3
        ) + Fraction(1, 2) * 2

    def test_work_lower_bound_is_ceil(self, inst):
        assert inst.work_lower_bound() == 3  # total = 2 + 1/3

    def test_jobs_iteration_order(self, inst):
        ids = [jid for jid, _ in inst.jobs()]
        assert ids == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1)]

    def test_unit_size_detection(self, inst):
        assert inst.is_unit_size
        general = Instance([[Job("1/2", 2)]])
        assert not general.is_unit_size
        with pytest.raises(UnitSizeRequiredError):
            general.require_unit_size("test")

    def test_integer_grid(self, inst):
        units, den = inst.to_integer_grid()
        assert den == 12
        assert units[0] == [6, 3, 3]
        assert units[1] == [4]

    def test_restrict_to_suffix(self, inst):
        sub = inst.restrict_to_suffix([1, 1, 0])
        assert sub.num_processors == 2  # processor 1 dropped entirely
        assert sub.requirements(0) == (Fraction(1, 4), Fraction(1, 4))
        assert sub.requirements(1) == (Fraction(1, 2), Fraction(1, 2))

    def test_restrict_rejects_bad_counts(self, inst):
        with pytest.raises(ValueError):
            inst.restrict_to_suffix([4, 0, 0])
        with pytest.raises(ValueError):
            inst.restrict_to_suffix([0, 0])

    def test_restrict_all_done_rejected(self, inst):
        with pytest.raises(InvalidInstanceError):
            inst.restrict_to_suffix([3, 1, 2])


class TestObjectiveAnnotations:
    """Job.weight / Job.deadline and the Instance-level helpers."""

    def test_defaults_are_neutral(self):
        job = Job("1/2")
        assert job.weight == 1
        assert job.deadline is None
        assert job.is_unit_weight
        assert not job.has_deadline

    def test_equality_includes_annotations(self):
        assert Job("1/2") != Job("1/2", weight=2)
        assert Job("1/2") != Job("1/2", deadline=3)
        assert Job("1/2", weight=2, deadline=3) == Job("1/2", weight=2, deadline=3)

    def test_validation(self):
        import pytest

        from repro.exceptions import InvalidInstanceError

        with pytest.raises(InvalidInstanceError, match="weight must be positive"):
            Job("1/2", weight=0)
        with pytest.raises(InvalidInstanceError, match="deadline must be a step"):
            Job("1/2", deadline=0)

    def test_replace(self):
        job = Job("1/2", weight=2, deadline=3)
        assert job.replace(weight=5).weight == 5
        assert job.replace(weight=5).deadline == 3
        assert job.replace(deadline=None).deadline is None
        assert job.replace(deadline=None).weight == 2

    def test_instance_with_weights_and_deadlines(self):
        inst = Instance.from_percent([[50, 50], [50, 50]])
        assert not inst.has_weights and not inst.has_deadlines
        weighted = inst.with_weights([[1, 2], [3, 4]])
        assert weighted.has_weights
        assert weighted.total_weight() == 10
        dated = inst.with_deadlines([[1, None], [2, 3]])
        assert dated.has_deadlines
        assert dated.job(0, 1).deadline is None

    def test_shape_validation(self):
        import pytest

        from repro.exceptions import InvalidInstanceError

        inst = Instance.from_percent([[50, 50], [50, 50]])
        with pytest.raises(InvalidInstanceError):
            inst.with_weights([[1, 2]])
        with pytest.raises(InvalidInstanceError):
            inst.with_deadlines([[1], [2, 3]])

    def test_earliest_completion_times(self):
        inst = Instance(
            [[Job("1/2"), Job("1/2", 3)], [Job("1/4")]], releases=[0, 5]
        )
        earliest = inst.earliest_completion_times()
        assert earliest[(0, 0)] == 1
        assert earliest[(0, 1)] == 4  # 1 + ceil(3)
        assert earliest[(1, 0)] == 6  # release 5 + 1

    def test_annotations_survive_suffix_restriction(self):
        inst = Instance(
            [[Job("1/2", weight=2, deadline=3), Job("1/2", deadline=4)]]
        )
        suffix = inst.restrict_to_suffix([1])
        assert suffix.job(0, 0).deadline == 4


class TestAppendJob:
    def test_tail_append_equals_constructor(self):
        inst = Instance([["1/2", "1/4"], ["1/3"]], releases=[0, 2])
        grown = inst.append_job(Job("3/4", 2), 1)
        assert grown == Instance(
            [["1/2", "1/4"], [Job("1/3"), Job("3/4", 2)]], releases=[0, 2]
        )
        assert grown.queues[0] is inst.queues[0]
        assert inst.num_jobs(1) == 1  # the original is untouched

    def test_new_queue_carries_its_release(self):
        inst = Instance([["1/2"]])
        grown = inst.append_job("1/4", 1, release=5)
        assert grown == Instance([["1/2"], ["1/4"]], releases=[0, 5])
        assert grown.append_job("1/4", 2).releases == (0, 5, 0)

    def test_multi_resource_job(self):
        inst = Instance([[Job(["1/2", "1/4"])]])
        grown = inst.append_job(Job(["1/3", "1"]), 0)
        assert grown.num_resources == 2
        assert grown.resource_work(1) == Fraction(5, 4)

    @pytest.mark.parametrize(
        "job, processor, release, match",
        [
            (Job(["1/2", "1/2"]), 0, None, "same number of shared resources"),
            ("1/2", 3, None, "cannot append to processor 3"),
            ("1/2", -1, None, "cannot append to processor -1"),
            ("1/2", 0, 4, "release time cannot be set"),
            ("1/2", 2, -1, "non-negative"),
        ],
    )
    def test_rejects(self, job, processor, release, match):
        inst = Instance([["1/2"], ["1/4"]])
        with pytest.raises(InvalidInstanceError, match=match):
            inst.append_job(job, processor, release=release)
