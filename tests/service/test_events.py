"""Trace and event-log wire formats (:mod:`repro.service.events`)."""

import json

import pytest

from repro.core import Job
from repro.exceptions import InvalidInstanceError, ServiceError
from repro.service import (
    ArrivalEvent,
    read_event_log,
    read_trace,
    write_event_log,
    write_trace,
)


class TestArrivalEvent:
    def test_round_trip(self):
        event = ArrivalEvent(3, Job("3/4", 2, weight=5, deadline=9))
        again = ArrivalEvent.from_dict(event.to_dict())
        assert again == event

    def test_dict_form_is_json_serializable(self):
        doc = ArrivalEvent(0, Job("1/2")).to_dict()
        assert json.loads(json.dumps(doc)) == doc

    def test_non_object_rejected(self):
        with pytest.raises(ServiceError, match="must be an object"):
            ArrivalEvent.from_dict([1, 2])

    def test_missing_time_rejected(self):
        with pytest.raises(ServiceError, match="no valid 't'"):
            ArrivalEvent.from_dict({"job": {"r": "1/2", "p": 1}})

    def test_negative_time_rejected(self):
        with pytest.raises(ServiceError, match=">= 0"):
            ArrivalEvent.from_dict({"t": -1, "job": {"r": "1/2", "p": 1}})

    def test_missing_job_rejected(self):
        with pytest.raises(ServiceError, match="no 'job'"):
            ArrivalEvent.from_dict({"t": 0})

    def test_bad_job_rejected(self):
        with pytest.raises(ServiceError, match="bad job"):
            ArrivalEvent.from_dict({"t": 0, "job": {"p": 1}})

    def test_model_violation_keeps_its_type(self):
        # InvalidInstanceError is also a ValueError; the ValueError
        # handler must not rewrap it as a ServiceError.
        with pytest.raises(InvalidInstanceError, match=r"in \[0, 1\]"):
            ArrivalEvent.from_dict({"t": 0, "job": {"r": "2", "p": 1}})


class TestTraceFormat:
    def test_write_read_round_trip(self, tmp_path):
        events = [
            ArrivalEvent(0, Job("1/2")),
            ArrivalEvent(0, Job("3/4", 2)),
            ArrivalEvent(5, Job("1/4", deadline=20)),
        ]
        path = tmp_path / "trace.jsonl"
        assert write_trace(events, path) == 3
        assert read_trace(path) == events

    def test_reads_in_memory_lines(self):
        lines = ['{"t": 0, "job": {"r": "1/2", "p": 1}}', "", "  "]
        events = read_trace(lines)
        assert len(events) == 1
        assert events[0].time == 0

    def test_out_of_order_rejected(self):
        lines = [
            '{"t": 4, "job": {"r": "1/2", "p": 1}}',
            '{"t": 2, "job": {"r": "1/2", "p": 1}}',
        ]
        with pytest.raises(ServiceError, match="non-decreasing"):
            read_trace(lines)

    def test_unparseable_line_names_the_line(self):
        with pytest.raises(ServiceError, match="line 2"):
            read_trace(['{"t": 0, "job": {"r": "1/2", "p": 1}}', "{oops"])


class TestEventLogFormat:
    def test_write_read_round_trip(self, tmp_path):
        config = {"policy": "greedy-balance", "max_queues": 4}
        records = [
            {"type": "arrival", "seq": 0, "t": 0, "admitted": True},
            {"type": "drain", "t": 7},
        ]
        path = tmp_path / "events.jsonl"
        assert write_event_log(config, records, path) == 3
        got_config, got_records = read_event_log(path)
        assert got_config == config
        assert got_records == records

    def test_missing_header_rejected(self):
        with pytest.raises(ServiceError, match="header"):
            read_event_log(['{"type": "drain", "t": 0}'])

    def test_version_skew_rejected(self):
        line = json.dumps(
            {"format": "crsharing-events", "version": 99, "config": {}}
        )
        with pytest.raises(ServiceError, match="version"):
            read_event_log([line])

    def test_header_without_config_rejected(self):
        line = json.dumps({"format": "crsharing-events", "version": 1})
        with pytest.raises(ServiceError, match="no config"):
            read_event_log([line])

    def test_record_without_type_rejected(self):
        header = json.dumps(
            {"format": "crsharing-events", "version": 1, "config": {}}
        )
        with pytest.raises(ServiceError, match="no 'type'"):
            read_event_log([header, '{"t": 3}'])

    def test_empty_log_rejected(self):
        with pytest.raises(ServiceError, match="empty event log"):
            read_event_log([])
