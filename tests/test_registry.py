"""Run registry, cross-run regression gates, and the report/compare CLI.

The gate the CI workflow relies on is exercised end to end here: a real
``anonymize --trace --registry`` run produces a record and a JSONL trace,
``repro report`` renders histograms + critical path + folded stacks from
the trace, and ``repro compare`` exits non-zero when a 10x span regression
is injected into the candidate.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro import obs
from repro.cli import main
from repro.data.datasets import make_census
from repro.data.loaders import save_relation


def _record(label="unit", runtime=1.0, span_totals=None, **metrics):
    block = None
    if span_totals:
        block = {
            "spans": {
                name: {"count": 1, "total_s": total, "mean_s": total}
                for name, total in span_totals.items()
            },
            "counters": {},
        }
    return obs.new_record(
        kind="test",
        label=label,
        metrics={"runtime_s": runtime, **metrics},
        obs_block=block,
    )


class TestRunRegistry:
    def test_append_load_round_trip(self, tmp_path):
        registry = obs.RunRegistry(tmp_path)
        record = _record(runtime=0.25)
        path = registry.append(record)
        assert path.parent == tmp_path / "runs"
        loaded = obs.load_run(path)
        assert loaded == json.loads(json.dumps(record, default=str))
        assert loaded["schema_version"] == 1
        assert loaded["run_id"].startswith("unit-")
        assert loaded["host"]["cpus"] >= 1

    def test_append_rejects_non_records(self, tmp_path):
        with pytest.raises(ValueError, match="schema_version"):
            obs.RunRegistry(tmp_path).append({"run_id": "x"})

    def test_load_rejects_future_schema(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema_version": 99, "run_id": "x"}))
        with pytest.raises(ValueError, match="newer"):
            obs.load_run(path)

    def test_latest_filters_and_excludes(self, tmp_path):
        registry = obs.RunRegistry(tmp_path)
        first = _record(label="a")
        second = _record(label="a")
        other = _record(label="b")
        for record in (first, second, other):
            registry.append(record)
        assert registry.latest(label="a")["run_id"] == second["run_id"]
        assert (
            registry.latest(label="a", exclude_run_id=second["run_id"])[
                "run_id"
            ]
            == first["run_id"]
        )
        assert registry.latest(label="missing") is None
        assert [r["label"] for r in registry.runs(label="b")] == ["b"]


class TestCompareRuns:
    def test_detects_10x_span_regression(self):
        baseline = _record(span_totals={"diva.run": 0.1, "diva.suppress": 0.01})
        candidate = copy.deepcopy(baseline)
        candidate["obs"]["spans"]["diva.run"]["total_s"] = 1.0
        comparison = obs.compare_runs(baseline, candidate, threshold=1.5)
        assert not comparison.ok
        assert [r.name for r in comparison.regressions] == ["span:diva.run"]
        assert comparison.regressions[0].ratio == pytest.approx(10.0)
        assert "REGRESSION" in obs.render_comparison(comparison)

    def test_noise_floor_suppresses_tiny_baselines(self):
        baseline = _record(span_totals={"s": 1e-5})
        candidate = _record(span_totals={"s": 1e-3})
        comparison = obs.compare_runs(
            baseline, candidate, threshold=1.5, min_baseline_s=0.001
        )
        assert comparison.ok and comparison.compared >= 1

    def test_improvements_reported_not_gated(self):
        baseline = _record(runtime=1.0)
        candidate = _record(runtime=0.2)
        comparison = obs.compare_runs(baseline, candidate)
        assert comparison.ok
        assert [r.name for r in comparison.improvements] == [
            "metric:runtime_s"
        ]

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError):
            obs.compare_runs(_record(), _record(), threshold=1.0)


@pytest.fixture(scope="module")
def anonymize_artifacts(tmp_path_factory):
    """One real ``anonymize --stats --trace --registry`` CLI run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    save_relation(make_census(seed=5, n_rows=120), data)
    sigma = root / "sigma.txt"
    sigma.write_text("OCC[Sales], 1, 30\n")
    trace = root / "trace.jsonl"
    registry = root / "registry"
    code = main(
        [
            "anonymize", str(data), str(root / "out.csv"),
            "-k", "4", "-c", str(sigma),
            "--trace", str(trace),
            "--registry", str(registry),
            "--label", "cli-test",
        ]
    )
    assert code == 0
    runs = list((registry / "runs").glob("*.json"))
    assert len(runs) == 1
    return {"trace": trace, "registry": registry, "record": runs[0]}


class TestReportCli:
    def test_report_renders_trace_analytics(self, anonymize_artifacts, capsys):
        code = main(["report", str(anonymize_artifacts["trace"])])
        out = capsys.readouterr().out
        assert code == 0
        # Histograms (percentile columns), critical path, folded stacks.
        assert "p50_s" in out and "p99_s" in out
        assert "critical path" in out
        assert "folded stacks" in out
        assert "diva.run" in out
        assert any(";" in line for line in out.splitlines())

    def test_report_renders_registry_record(self, anonymize_artifacts, capsys):
        code = main(["report", str(anonymize_artifacts["record"])])
        out = capsys.readouterr().out
        assert code == 0
        assert "cli-test" in out
        assert "metrics:" in out and "runtime_s" in out
        assert "diva.run" in out


class TestCompareCli:
    def test_exits_nonzero_on_injected_10x_regression(
        self, anonymize_artifacts, tmp_path, capsys
    ):
        record = obs.load_run(anonymize_artifacts["record"])
        regressed = copy.deepcopy(record)
        regressed["run_id"] += "-regressed"
        for agg in regressed["obs"]["spans"].values():
            agg["total_s"] *= 10
        regressed["metrics"]["runtime_s"] *= 10
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(regressed, default=str))

        code = main(
            [
                "compare", str(candidate),
                "--against", str(anonymize_artifacts["record"]),
                "--threshold", "3.0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out
        assert "span:diva.run" in out

    def test_exits_zero_against_itself(self, anonymize_artifacts, capsys):
        code = main(
            [
                "compare", str(anonymize_artifacts["record"]),
                "--against", str(anonymize_artifacts["record"]),
            ]
        )
        assert code == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_baseline_from_registry_by_label(
        self, anonymize_artifacts, capsys
    ):
        registry = obs.RunRegistry(anonymize_artifacts["registry"])
        candidate_record = obs.load_run(anonymize_artifacts["record"])
        code = main(
            [
                "compare", str(anonymize_artifacts["record"]),
                "--registry", str(anonymize_artifacts["registry"]),
            ]
        )
        out = capsys.readouterr().out
        # The only run with this label is the candidate itself, which
        # ``latest`` excludes — so there is no baseline to compare against.
        assert code == 2
        assert "no baseline" in out

        # Append a baseline under the same label; now the gate engages.
        baseline = copy.deepcopy(candidate_record)
        baseline["run_id"] = "cli-test-0-0"
        registry.append(baseline)
        code = main(
            [
                "compare", str(anonymize_artifacts["record"]),
                "--registry", str(anonymize_artifacts["registry"]),
            ]
        )
        assert code == 0
        assert "verdict: OK" in capsys.readouterr().out
