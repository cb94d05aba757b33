"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core import Instance
from repro.io import save_instance


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    save_instance(
        Instance.from_requirements([["9/10", "1/10"], ["1/10", "9/10"]]), path
    )
    return path


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "FIG3" in out
        assert "greedy-balance" in out


class TestExperiment:
    def test_runs_and_prints(self, capsys):
        assert main(["experiment", "FIG1"]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out

    def test_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        assert main(["experiment", "FIG1", "--csv", str(csv_path)]) == 0
        assert csv_path.read_text().startswith("component")

    def test_unknown_experiment(self, capsys):
        with pytest.raises(KeyError):
            main(["experiment", "FIG99"])


class TestUnreadableInstanceFiles:
    """Bad instance files end in one error line and exit status 2."""

    @pytest.fixture(params=["malformed", "missing", "foreign", "keyless", "bad-job"])
    def bad_file(self, request, tmp_path):
        path = tmp_path / f"{request.param}.json"
        header = {"format": "crsharing-instance", "version": 1}
        if request.param == "malformed":
            path.write_text("{bad")
        elif request.param == "foreign":
            path.write_text(json.dumps({"queues": 5}))
        elif request.param == "keyless":
            path.write_text(json.dumps(header))
        elif request.param == "bad-job":
            path.write_text(json.dumps({**header, "processors": [[{"r": "x", "p": 1}]]}))
        return request.param, path

    @pytest.mark.parametrize("command", ["schedule", "certify", "solve"])
    def test_one_line_error(self, command, bad_file, capsys):
        kind, path = bad_file
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("crsharing: error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        expected = {
            "malformed": "not valid JSON",
            "missing": "No such file or directory",
            "foreign": "not a CRSharing instance document",
            "keyless": "malformed instance document (KeyError",
            "bad-job": "malformed instance document (ValueError",
        }[kind]
        assert expected in captured.err


class TestSolve:
    def test_two_processor_instance(self, instance_file, capsys):
        assert main(["solve", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "optimal makespan: 2" in out


class TestSchedule:
    def test_default_policy(self, instance_file, capsys):
        assert main(["schedule", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "metrics" in out

    def test_svg_and_json_outputs(self, instance_file, tmp_path, capsys):
        svg = tmp_path / "sched.svg"
        js = tmp_path / "sched.json"
        assert (
            main(
                [
                    "schedule",
                    str(instance_file),
                    "--policy",
                    "round-robin",
                    "--svg",
                    str(svg),
                    "--json",
                    str(js),
                ]
            )
            == 0
        )
        assert svg.read_text().startswith("<svg")
        data = json.loads(js.read_text())
        assert data["format"] == "crsharing-schedule"


class TestRunAliasAndArrivals:
    def test_run_is_an_alias_of_schedule(self, instance_file, capsys):
        assert main(["run", str(instance_file)]) == 0
        run_out = capsys.readouterr().out
        assert main(["schedule", str(instance_file)]) == 0
        sched_out = capsys.readouterr().out
        assert run_out == sched_out
        assert "makespan" in run_out

    def test_run_with_arrivals_exact(self, instance_file, capsys):
        assert (
            main(
                [
                    "run",
                    str(instance_file),
                    "--arrivals",
                    "4",
                    "--arrival-seed",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "arrivals: releases=" in out
        assert "makespan" in out

    def test_run_with_arrivals_vector(self, instance_file, capsys):
        assert (
            main(
                [
                    "run",
                    str(instance_file),
                    "--arrivals",
                    "4",
                    "--arrival-seed",
                    "1",
                    "--backend",
                    "vector",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "feasible (tolerance 1e-9): True" in out

    def test_batch_with_arrivals(self, capsys):
        assert (
            main(
                [
                    "batch",
                    "--count",
                    "4",
                    "--m",
                    "3",
                    "--n",
                    "3",
                    "--arrivals",
                    "5",
                    "--arrival-seed",
                    "2",
                    "--workers",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "arrivals=5" in out
        assert "mean_ratio" in out

    def test_crosscheck_with_arrivals(self, capsys):
        assert (
            main(
                [
                    "crosscheck",
                    "--count",
                    "5",
                    "--m",
                    "3",
                    "--n",
                    "3",
                    "--arrivals",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "arrivals=5" in out
        assert "result: OK" in out

    def test_arr_experiment_listed(self, capsys):
        assert main(["list"]) == 0
        assert "ARR" in capsys.readouterr().out


class TestMultiResourceFlags:
    def test_list_groups_and_mentions_resources(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "experiments (" in out
        assert "policies (" in out
        assert "backends (" in out
        assert "--resources K" in out
        assert "MULTIRES" in out

    def test_run_with_resources_exact(self, instance_file, capsys):
        assert main(["run", str(instance_file), "--resources", "2"]) == 0
        out = capsys.readouterr().out
        assert "resources: lifted to k=2" in out
        assert "feasible (tolerance 1e-9): True" in out

    def test_run_with_resources_vector(self, instance_file, capsys):
        assert (
            main(
                [
                    "run",
                    str(instance_file),
                    "--resources",
                    "3",
                    "--resource-profile",
                    "anti-correlated",
                    "--backend",
                    "vector",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "feasible (tolerance 1e-9): True" in out

    def test_run_resources_compose_with_arrivals(self, instance_file, capsys):
        assert (
            main(
                [
                    "run",
                    str(instance_file),
                    "--resources",
                    "2",
                    "--arrivals",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "resources: lifted to k=2" in out
        assert "arrivals: releases=" in out

    def test_batch_with_resources(self, capsys):
        assert (
            main(
                [
                    "batch",
                    "--count",
                    "4",
                    "--m",
                    "3",
                    "--n",
                    "3",
                    "--resources",
                    "2",
                    "--workers",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "resources=2" in out
        assert "mean_ratio" in out

    def test_crosscheck_with_resources(self, capsys):
        assert (
            main(
                [
                    "crosscheck",
                    "--count",
                    "5",
                    "--m",
                    "3",
                    "--n",
                    "3",
                    "--resources",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "resources=3" in out
        assert "result: OK" in out

    def test_multires_experiment_runs(self, capsys):
        # Keep it tiny: the registry default would be slower.
        from repro.experiments import get_experiment

        result = get_experiment("MULTIRES").run(
            m=3, n=3, resources=(1, 2), seeds=(0,)
        )
        assert result.verdict


class TestVerify:
    def test_valid_schedule(self, instance_file, tmp_path, capsys):
        js = tmp_path / "sched.json"
        main(["schedule", str(instance_file), "--json", str(js)])
        capsys.readouterr()
        assert main(["verify", str(js)]) == 0
        out = capsys.readouterr().out
        assert "feasible: True" in out
        assert "balanced:" in out

    def test_corrupted_schedule(self, instance_file, tmp_path, capsys):
        js = tmp_path / "sched.json"
        main(["schedule", str(instance_file), "--json", str(js)])
        data = json.loads(js.read_text())
        data["shares"] = data["shares"][:-1]
        js.write_text(json.dumps(data))
        # Loading re-validates; the CLI reports the failure in one line.
        assert main(["verify", str(js)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("crsharing: error: ")
        assert err.count("\n") == 1


    def test_instance_file_is_no_schedule(self, instance_file, capsys):
        assert main(["verify", str(instance_file)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("crsharing: error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert "not a CRSharing schedule document" in captured.err


class TestCertify:
    def test_certify_instance_file(self, instance_file, capsys):
        assert main(["certify", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "PROVED optimal" in out
        assert "offline optimum" in out
        assert "witness order" in out

    def test_certify_generated_instance(self, capsys):
        assert main(["certify", "--m", "2", "--n", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "uniform(m=2, n=3, seed=1)" in out
        assert "PROVED optimal" in out

    def test_certify_policy_mode(self, instance_file, capsys):
        assert (
            main(["certify", str(instance_file), "--policy", "round-robin"])
            == 0
        )
        out = capsys.readouterr().out
        assert "best order for policy 'round-robin'" in out
        assert "epsilon mode" in out

    def test_certify_json_and_trace(self, instance_file, tmp_path, capsys):
        js = tmp_path / "cert.json"
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "certify",
                    str(instance_file),
                    "--json",
                    str(js),
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        cert = json.loads(js.read_text())
        assert cert["proved"] is True
        assert cert["value"] >= 1
        assert any(
            json.loads(line)["name"] == "certify.opt"
            for line in trace.read_text().splitlines()
        )

    def test_certify_budget_exhaustion_exits_nonzero(self, capsys):
        # An instance needing real search, strangled to one node.
        code = main(
            [
                "certify",
                "--m",
                "2",
                "--n",
                "4",
                "--grid",
                "7",
                "--seed",
                "1",
                "--max-nodes",
                "1",
            ]
        )
        out = capsys.readouterr().out
        if "upper bound only" in out:
            assert code == 1
        else:  # the seed closed at the root; still a proof, exit 0
            assert code == 0

    def test_crosscheck_certify_flag(self, capsys):
        assert (
            main(
                [
                    "crosscheck",
                    "--count",
                    "4",
                    "--m",
                    "2",
                    "--n",
                    "3",
                    "--certify",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "certified: 4/4 proved" in out
        assert "result: OK" in out


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1 instance" in out
        assert "hypergraph" in out


class TestObjectiveFlags:
    def test_list_mentions_objectives(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "objectives (" in out
        assert "weighted-flow" in out
        assert "--objective NAME" in out
        assert "FLOW" in out and "DEADLINE" in out

    def test_run_with_tardiness_objective(self, instance_file, capsys):
        assert (
            main(
                [
                    "run",
                    str(instance_file),
                    "--objective",
                    "tardiness",
                    "--deadline-profile",
                    "tight",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "deadlines: tight profile" in out
        assert "objective tardiness:" in out

    def test_run_vector_with_flow_objective(self, instance_file, capsys):
        assert (
            main(
                [
                    "run",
                    str(instance_file),
                    "--backend",
                    "vector",
                    "--objective",
                    "weighted-flow",
                    "--weights-profile",
                    "skewed",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "weights: skewed profile" in out
        assert "objective weighted-flow:" in out

    def test_default_run_output_has_no_objective_noise(self, instance_file, capsys):
        assert main(["run", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "objective " not in out

    def test_batch_with_objective(self, capsys):
        assert (
            main(
                [
                    "batch",
                    "--count",
                    "3",
                    "--m",
                    "3",
                    "--n",
                    "3",
                    "--workers",
                    "1",
                    "--objective",
                    "weighted-flow",
                    "--weights-profile",
                    "uniform",
                    "--arrival-rate",
                    "1.0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "objective=weighted-flow" in out
        assert "objective weighted-flow: mean_value=" in out
        assert "poisson(rate=1)" in out

    def test_crosscheck_with_objective(self, capsys):
        assert (
            main(
                [
                    "crosscheck",
                    "--count",
                    "4",
                    "--m",
                    "3",
                    "--n",
                    "3",
                    "--objective",
                    "tardiness",
                    "--deadline-profile",
                    "mixed",
                    "--policy",
                    "edf-waterfill",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "objective=tardiness" in out
        assert "max relative objective error" in out
        assert "result: OK" in out

    def test_flow_and_deadline_experiments_run(self, capsys):
        assert main(["experiment", "FLOW"]) == 0
        assert "REPRODUCED" in capsys.readouterr().out
        assert main(["experiment", "DEADLINE"]) == 0
        assert "REPRODUCED" in capsys.readouterr().out


class TestBenchReport:
    def test_reports_stores(self, tmp_path, capsys):
        (tmp_path / "BENCH_demo.json").write_text(
            json.dumps(
                {
                    "benchmark": "demo",
                    "generated_at": "2026-07-31T00:00:00+00:00",
                    "rows": [{"m": 8, "speedup": 42.0}],
                }
            )
        )
        assert main(["bench-report", "--results", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "speedup=42.0" in out

    def test_empty_directory_fails(self, tmp_path, capsys):
        assert main(["bench-report", "--results", str(tmp_path)]) == 1
        assert "no BENCH_*.json" in capsys.readouterr().out

    def test_repo_results_directory_summarizes(self, capsys):
        from pathlib import Path

        results = Path(__file__).resolve().parents[1] / "benchmarks" / "results"
        if not any(results.glob("BENCH_*.json")):
            import pytest

            pytest.skip("no benchmark stores present")
        assert main(["bench-report", "--results", str(results)]) == 0
        assert "benchmark stores" in capsys.readouterr().out


class TestServeAndReplay:
    TRACE = (
        '{"t": 0, "job": {"r": "1/2", "p": 1}}\n'
        '{"t": 1, "job": {"r": "3/4", "p": 2}}\n'
        '{"t": 4, "job": {"r": "1/4", "p": 1}}\n'
    )

    def test_poisson_stream_report(self, capsys):
        assert main(["serve", "--rate", "2", "--count", "30"]) == 0
        out = capsys.readouterr().out
        assert "poisson(rate=2" in out
        assert "submitted=30" in out
        assert "dropped=0" in out

    def test_trace_replay_and_event_log(self, tmp_path, capsys):
        trace = tmp_path / "arrivals.jsonl"
        trace.write_text(self.TRACE)
        log = tmp_path / "events.jsonl"
        assert main(["serve", str(trace), "--event-log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "(3 arrivals)" in out
        assert log.exists()
        assert main(["replay", str(log)]) == 0
        assert "deterministic" in capsys.readouterr().out

    def test_tampered_log_fails_replay(self, tmp_path, capsys):
        trace = tmp_path / "arrivals.jsonl"
        trace.write_text(self.TRACE)
        log = tmp_path / "events.jsonl"
        assert main(["serve", str(trace), "--event-log", str(log)]) == 0
        capsys.readouterr()
        tampered = log.read_text().replace(
            '"admitted": true', '"admitted": false', 1
        )
        log.write_text(tampered)
        assert main(["replay", str(log)]) == 1
        assert "diverged" in capsys.readouterr().out

    def test_telemetry_trace_does_not_clobber_the_arrival_trace(
        self, tmp_path, capsys
    ):
        # The serve positional (input trace) and the telemetry --trace
        # (output file) must stay independent argparse dests.
        trace = tmp_path / "arrivals.jsonl"
        trace.write_text(self.TRACE)
        out_trace = tmp_path / "telemetry.jsonl"
        assert main(["serve", str(trace), "--trace", str(out_trace)]) == 0
        capsys.readouterr()
        assert trace.read_text() == self.TRACE
        assert out_trace.exists()

    def test_json_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(
            ["serve", "--rate", "1", "--count", "10", "--json", str(report)]
        ) == 0
        capsys.readouterr()
        doc = json.loads(report.read_text())
        assert doc["submitted"] == 10
        assert doc["dropped_events"] == 0

    def test_admission_listed(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "utilization-cap" in out
        assert "deadline-feasibility" in out
