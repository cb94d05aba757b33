"""Unit tests for exact JSON serialization."""

import json
from fractions import Fraction

import pytest

from repro.algorithms import GreedyBalance
from repro.core import Instance, Job
from repro.exceptions import InvalidInstanceError, InvalidScheduleError
from repro.generators import uniform_instance
from repro.io import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)


class TestInstanceRoundTrip:
    def test_unit_instance(self, two_proc_instance):
        data = instance_to_dict(two_proc_instance)
        assert data["format"] == "crsharing-instance"
        assert instance_from_dict(data) == two_proc_instance

    def test_general_sizes(self):
        inst = Instance([[Job("1/3", "5/2")], [Job(1)]])
        assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_exactness_of_thirds(self):
        # 1/3 has no finite decimal/binary representation; the round
        # trip must still be exact.
        inst = Instance.from_requirements([["1/3", "2/3"]])
        back = instance_from_dict(instance_to_dict(inst))
        assert back.requirement(0, 0) == Fraction(1, 3)

    def test_integers_stay_bare(self):
        data = instance_to_dict(Instance.from_requirements([[1]]))
        assert data["processors"][0][0]["r"] == 1

    def test_format_checks(self):
        with pytest.raises(ValueError, match="not a CRSharing instance"):
            instance_from_dict({"format": "bogus"})
        data = instance_to_dict(Instance.from_requirements([[1]]))
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            instance_from_dict(data)

    def test_foreign_document_raises_typed_error(self):
        with pytest.raises(InvalidInstanceError, match="not a CRSharing instance"):
            instance_from_dict({"x": 1})

    def test_file_round_trip(self, tmp_path, two_proc_instance):
        path = tmp_path / "instance.json"
        save_instance(two_proc_instance, path)
        assert load_instance(path) == two_proc_instance


class TestMultiResourceRoundTrip:
    def multi_instance(self) -> Instance:
        return Instance(
            [
                [Job(["1/2", "1/3"], "5/2"), Job(["1/4", "1"])],
                [Job(["9/10", "1/10"])],
            ],
            releases=[0, 4],
        )

    def test_round_trip_with_releases_and_requirements(self):
        inst = self.multi_instance()
        data = instance_to_dict(inst)
        assert data["version"] == 2
        assert data["resources"] == 2
        assert data["releases"] == [0, 4]
        assert data["processors"][0][0]["r"] == ["1/2", "1/3"]
        back = instance_from_dict(data)
        assert back == inst
        assert back.num_resources == 2
        assert back.releases == (0, 4)
        assert back.job(0, 0).size == Fraction(5, 2)

    def test_file_round_trip(self, tmp_path):
        from repro.generators import multi_resource_instance, with_arrivals

        inst = with_arrivals(
            multi_resource_instance(3, 4, 3, profile="correlated", seed=2),
            max_release=5,
            seed=9,
        )
        path = tmp_path / "multi.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_single_resource_documents_stay_version_1(self, two_proc_instance):
        data = instance_to_dict(two_proc_instance)
        assert data["version"] == 1
        assert "resources" not in data

    def test_contradictory_resource_count_rejected(self):
        data = instance_to_dict(self.multi_instance())
        data["resources"] = 3
        with pytest.raises(ValueError, match="declares 3 shared resources"):
            instance_from_dict(data)

    def test_exactness_of_vector_components(self):
        inst = Instance([[Job(["1/3", "2/7"])]])
        back = instance_from_dict(instance_to_dict(inst))
        assert back.job(0, 0).requirements == (Fraction(1, 3), Fraction(2, 7))


class TestScheduleRoundTrip:
    def test_round_trip(self, two_proc_instance):
        sched = GreedyBalance().run(two_proc_instance)
        back = schedule_from_dict(schedule_to_dict(sched))
        assert back == sched
        assert back.makespan == sched.makespan

    def test_revalidates_on_load(self, two_proc_instance):
        sched = GreedyBalance().run(two_proc_instance)
        data = schedule_to_dict(sched)
        data["shares"][0] = ["1", "1"]  # corrupt: overuse
        with pytest.raises(Exception):
            schedule_from_dict(data)

    def test_file_round_trip(self, tmp_path):
        inst = uniform_instance(3, 3, seed=1)
        sched = GreedyBalance().run(inst)
        path = tmp_path / "schedule.json"
        save_schedule(sched, path)
        assert load_schedule(path) == sched

    def test_format_check(self):
        with pytest.raises(ValueError, match="not a CRSharing schedule"):
            schedule_from_dict({"format": "bogus"})


class TestObjectiveAnnotationRoundTrip:
    """Version-3 documents: per-job weights and deadlines."""

    def test_annotated_instance_round_trips(self):
        inst = Instance(
            [
                [Job("1/2", weight=3, deadline=4), Job("1/4")],
                [Job("2/3", 2, weight="5/2")],
            ],
            releases=[0, 2],
        )
        data = instance_to_dict(inst)
        assert data["version"] == 3
        back = instance_from_dict(data)
        assert back == inst
        assert back.job(0, 0).weight == Fraction(3)
        assert back.job(0, 0).deadline == 4
        assert back.job(1, 0).weight == Fraction(5, 2)
        assert back.job(0, 1).deadline is None

    def test_default_annotations_keep_version_1(self):
        inst = uniform_instance(3, 3, seed=0)
        data = instance_to_dict(inst)
        assert data["version"] == 1
        assert all(
            "w" not in job and "d" not in job
            for queue in data["processors"]
            for job in queue
        )

    def test_multi_resource_annotated_is_version_3(self):
        inst = Instance([[Job(["1/2", "1/4"], deadline=2)]])
        data = instance_to_dict(inst)
        assert data["version"] == 3
        assert data["resources"] == 2
        back = instance_from_dict(data)
        assert back == inst

    def test_generated_profiles_round_trip(self):
        from repro.generators import with_deadlines, with_weights

        inst = with_deadlines(
            with_weights(uniform_instance(3, 4, seed=5), profile="skewed", seed=5),
            profile="mixed",
            seed=5,
        )
        assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_annotated_schedule_round_trips(self):
        inst = Instance.from_requirements(
            [["1/2", "1/2"], ["1/2", "1/2"]]
        ).with_deadlines([[1, 3], [2, 4]])
        sched = GreedyBalance().run(inst)
        back = schedule_from_dict(schedule_to_dict(sched))
        assert back == sched
        assert back.instance.has_deadlines

    def test_version_3_rejected_fields_still_validated(self):
        data = instance_to_dict(Instance([[Job("1/2", weight=2)]]))
        data["processors"][0][0]["w"] = "-1"
        with pytest.raises(Exception):
            instance_from_dict(data)


class TestUnreadableFiles:
    """Loaders raise the typed error on files that are not documents."""

    def test_malformed_instance_json_is_chained(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{bad")
        with pytest.raises(InvalidInstanceError, match="not valid JSON") as info:
            load_instance(path)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_non_utf8_instance_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00{")
        with pytest.raises(InvalidInstanceError, match="not valid JSON"):
            load_instance(path)

    def test_instance_json_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(InvalidInstanceError, match="not a JSON object"):
            load_instance(path)

    def test_malformed_schedule_json_is_chained(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("")
        with pytest.raises(InvalidScheduleError, match="not valid JSON") as info:
            load_schedule(path)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_missing_file_stays_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_instance(tmp_path / "absent.json")


class TestMalformedDocuments:
    """The dict loaders raise the typed error, chained, on bad documents."""

    def test_missing_processors_key(self):
        with pytest.raises(InvalidInstanceError, match="KeyError") as info:
            instance_from_dict({"format": "crsharing-instance", "version": 1})
        assert isinstance(info.value.__cause__, KeyError)

    @pytest.mark.parametrize("job", [{"r": "x", "p": 1}, {"r": "1/2"}, {"r": None, "p": 1}])
    def test_bad_job_fields(self, job):
        doc = {"format": "crsharing-instance", "version": 1, "processors": [[job]]}
        with pytest.raises(InvalidInstanceError, match="malformed instance document") as info:
            instance_from_dict(doc)
        assert isinstance(info.value.__cause__, (KeyError, ValueError))

    def test_processors_not_a_list(self):
        with pytest.raises(InvalidInstanceError) as info:
            instance_from_dict({"format": "crsharing-instance", "version": 1, "processors": 5})
        assert isinstance(info.value.__cause__, TypeError)

    def test_non_dict_document(self):
        with pytest.raises(InvalidInstanceError, match="not a CRSharing instance"):
            instance_from_dict([1, 2])
        with pytest.raises(InvalidScheduleError, match="not a CRSharing schedule"):
            schedule_from_dict("schedule")

    def test_model_violations_keep_their_message(self):
        doc = {"format": "crsharing-instance", "version": 1, "processors": [[{"r": 2, "p": 1}]]}
        with pytest.raises(InvalidInstanceError, match=r"\[0, 1\]"):
            instance_from_dict(doc)

    def test_instance_document_is_no_schedule(self, two_proc_instance):
        with pytest.raises(InvalidScheduleError, match="not a CRSharing schedule"):
            schedule_from_dict(instance_to_dict(two_proc_instance))

    def test_schedule_version_and_keys(self, two_proc_instance):
        data = schedule_to_dict(GreedyBalance().run(two_proc_instance))
        with pytest.raises(InvalidScheduleError, match="version"):
            schedule_from_dict({**data, "version": 99})
        with pytest.raises(InvalidScheduleError, match="KeyError") as info:
            schedule_from_dict({k: v for k, v in data.items() if k != "shares"})
        assert isinstance(info.value.__cause__, KeyError)
        data["shares"][0][0] = "half"
        with pytest.raises(InvalidScheduleError, match="ValueError"):
            schedule_from_dict(data)

    def test_schedule_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            schedule_from_dict({"format": "bogus"})
        assert issubclass(InvalidScheduleError, ValueError)
