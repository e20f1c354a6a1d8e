"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, load_constraint_file, main
from repro.data.loaders import load_relation, save_relation
from repro.data.datasets import make_running_example
from repro.metrics.stats import is_k_anonymous


@pytest.fixture
def csv_relation(tmp_path):
    path = tmp_path / "input.csv"
    save_relation(make_running_example(), path)
    return path


@pytest.fixture
def constraints_file(tmp_path):
    path = tmp_path / "sigma.txt"
    path.write_text(
        "# the paper's running example\n"
        "ETH[Asian], 2, 5\n"
        "ETH[African], 1, 3\n"
        "\n"
        "CTY[Vancouver], 2, 4\n"
    )
    return path


class TestConstraintFile:
    def test_parse(self, constraints_file):
        sigma = load_constraint_file(constraints_file)
        assert len(sigma) == 3
        assert sigma[0].attrs == ("ETH",)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("this is not a constraint\n")
        with pytest.raises(SystemExit, match="cannot parse"):
            load_constraint_file(path)


class TestAnonymize:
    def test_end_to_end(self, csv_relation, constraints_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = main(
            [
                "anonymize", str(csv_relation), str(out),
                "-k", "2", "-c", str(constraints_file),
            ]
        )
        assert rc == 0
        published = load_relation(out)
        assert is_k_anonymous(published, 2)
        sigma = load_constraint_file(constraints_file)
        assert sigma.is_satisfied_by(published)
        assert "accuracy=" in capsys.readouterr().out

    def test_without_constraints(self, csv_relation, tmp_path):
        out = tmp_path / "out.csv"
        rc = main(["anonymize", str(csv_relation), str(out), "-k", "2"])
        assert rc == 0
        assert is_k_anonymous(load_relation(out), 2)

    def test_best_effort_flag(self, csv_relation, constraints_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = main(
            [
                "anonymize", str(csv_relation), str(out),
                "-k", "3", "-c", str(constraints_file), "--best-effort",
            ]
        )
        assert rc == 0
        assert "dropped" in capsys.readouterr().out

    def test_stats_flag(self, csv_relation, constraints_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = main(
            [
                "anonymize", str(csv_relation), str(out),
                "-k", "2", "-c", str(constraints_file), "--stats",
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "spans:" in printed and "counters:" in printed
        # Per-phase timings and search counters, by their stable names.
        assert "diva.run" in printed
        assert "diva.diverse_clustering" in printed
        assert "coloring.candidates_tried" in printed

    def test_trace_flag_writes_replayable_jsonl(
        self, csv_relation, constraints_file, tmp_path, capsys
    ):
        from repro import obs

        out = tmp_path / "out.csv"
        trace = tmp_path / "trace.jsonl"
        rc = main(
            [
                "anonymize", str(csv_relation), str(out),
                "-k", "2", "-c", str(constraints_file),
                "--trace", str(trace),
            ]
        )
        assert rc == 0
        assert f"trace written to {trace}" in capsys.readouterr().out
        replayed = obs.replay(trace)
        assert obs.SPAN_DIVA_RUN in {e.name for e in replayed.spans}
        assert replayed.counters[obs.GRAPH_NODES] == 3

    def test_stats_and_trace_together(
        self, csv_relation, constraints_file, tmp_path, capsys
    ):
        from repro import obs

        out = tmp_path / "out.csv"
        trace = tmp_path / "trace.jsonl"
        rc = main(
            [
                "anonymize", str(csv_relation), str(out),
                "-k", "2", "-c", str(constraints_file),
                "--stats", "--trace", str(trace),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "spans:" in printed
        # The tee sends identical events both ways: the trace replays to
        # the same counters the --stats report printed.
        for name, value in obs.replay(trace).counters.items():
            assert f"{name}" in printed and str(value) in printed

    def test_no_flags_leaves_obs_disabled(self, csv_relation, tmp_path, capsys):
        from repro import obs

        out = tmp_path / "out.csv"
        rc = main(["anonymize", str(csv_relation), str(out), "-k", "2"])
        assert rc == 0
        assert not obs.enabled()
        assert "spans:" not in capsys.readouterr().out


class TestCheck:
    def test_valid_output_passes(self, csv_relation, constraints_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        main(
            [
                "anonymize", str(csv_relation), str(out),
                "-k", "2", "-c", str(constraints_file),
            ]
        )
        rc = main(
            [
                "check", str(out), "-k", "2",
                "-c", str(constraints_file),
                "--original", str(csv_relation),
            ]
        )
        assert rc == 0

    def test_original_fails_k(self, csv_relation, capsys):
        rc = main(["check", str(csv_relation), "-k", "2"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_reports_per_constraint_counts(
        self, csv_relation, constraints_file, tmp_path, capsys
    ):
        out = tmp_path / "out.csv"
        main(
            [
                "anonymize", str(csv_relation), str(out),
                "-k", "2", "-c", str(constraints_file),
            ]
        )
        rc = main(["check", str(out), "-k", "2", "-c", str(constraints_file)])
        assert rc == 0
        printed = capsys.readouterr().out
        # One count line per constraint, not just a boolean verdict.
        assert "OK: (ETH[Asian], 2, 5) count=" in printed
        assert "range=[2, 5]" in printed
        assert "constraints violated: 0 of 3" in printed

    def test_violating_input_exits_nonzero_with_counts(
        self, csv_relation, tmp_path, capsys
    ):
        # The raw running example is 2-anonymous nowhere and has 3 Asians —
        # a [4, 9] lower bound is violated by count, not just k.
        sigma_path = tmp_path / "strict.txt"
        sigma_path.write_text("ETH[Asian], 4, 9\n")
        rc = main(["check", str(csv_relation), "-k", "1", "-c", str(sigma_path)])
        assert rc == 1
        printed = capsys.readouterr().out
        assert "FAIL: (ETH[Asian], 4, 9) count=3" in printed
        assert "shortfall=1" in printed
        assert "constraints violated: 1 of 1" in printed


class TestStream:
    def test_end_to_end_writes_releases(
        self, csv_relation, constraints_file, tmp_path, capsys
    ):
        outdir = tmp_path / "releases"
        rc = main(
            [
                "stream", str(csv_relation), str(outdir),
                "-k", "2", "-c", str(constraints_file),
                "--batch-size", "3",
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "stream done:" in printed
        written = sorted(outdir.glob("release_*.csv"))
        assert written, "no releases written"
        # The last release is the head: full history, valid under (k, Σ).
        final = load_relation(written[-1])
        assert len(final) == 10
        assert is_k_anonymous(final, 2)
        assert load_constraint_file(constraints_file).is_satisfied_by(final)

    def test_stats_flag_prints_stream_counters(
        self, csv_relation, constraints_file, tmp_path, capsys
    ):
        rc = main(
            [
                "stream", str(csv_relation), str(tmp_path / "rel"),
                "-k", "2", "-c", str(constraints_file),
                "--batch-size", "5", "--stats",
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "stream.ingest" in printed
        assert "stream.batches_ingested" in printed

    def test_nothing_publishable_exits_nonzero(self, tmp_path, capsys):
        # One lone tuple can never be 2-anonymous: no release, rc 1.
        from repro.data.relation import Relation, Schema

        schema = Schema.from_names(qi=["A"], sensitive=["S"])
        path = tmp_path / "lone.csv"
        save_relation(Relation(schema, [("a", "s")]), path)
        rc = main(["stream", str(path), str(tmp_path / "rel"), "-k", "2"])
        assert rc == 1
        printed = capsys.readouterr().out
        assert "could not be published" in printed


class TestDataset:
    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "credit.csv"
        rc = main(["dataset", "credit", str(out), "--rows", "50"])
        assert rc == 0
        relation = load_relation(out)
        assert len(relation) == 50

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["dataset", "mnist", str(tmp_path / "x.csv")])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_unknown_artifact(self):
        with pytest.raises(SystemExit, match="unknown artifact"):
            main(["bench", "fig99"])


class TestBenchCommand:
    def test_table4_artifact(self, capsys, monkeypatch):
        """The bench subcommand renders an artifact's series."""
        import repro.bench.harness as harness

        original = harness.table4_characteristics

        def tiny_table4(**kwargs):
            return original(
                n_rows={"pantheon": 60, "census": 60, "credit": 60, "popsyn": 60},
                n_constraints={"pantheon": 2, "census": 2, "credit": 2, "popsyn": 2},
            )

        monkeypatch.setattr(harness, "table4_characteristics", tiny_table4)
        rc = main(["bench", "table4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dataset" in out and "credit" in out


class TestReportErrors:
    """``repro report`` fails loudly (exit 2) on unusable inputs."""

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_empty_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        rc = main(["report", str(path)])
        assert rc == 2
        assert "no spans or counters" in capsys.readouterr().err

    def test_truncated_trace_exits_2(self, csv_relation, constraints_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        out = tmp_path / "out.csv"
        assert main(
            [
                "anonymize", str(csv_relation), str(out),
                "-k", "2", "-c", str(constraints_file),
                "--trace", str(trace),
            ]
        ) == 0
        capsys.readouterr()
        # A killed writer leaves a half-written final line.
        data = trace.read_bytes()
        trace.write_bytes(data[: len(data) - 25])
        rc = main(["report", str(trace)])
        assert rc == 2
        assert "truncated or corrupt" in capsys.readouterr().err

    def test_corrupt_record_exits_2(self, tmp_path, capsys):
        path = tmp_path / "record.json"
        path.write_text("{not json")
        rc = main(["report", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "not a run record" in err


class TestCompareErrors:
    """``repro compare`` exits 2 on unreadable input — never 1, the
    regression code CI gates read."""

    @staticmethod
    def record(tmp_path):
        from repro import obs

        path = tmp_path / "run.json"
        path.write_text(json.dumps(obs.new_record(kind="test", label="x")))
        return path

    def test_missing_candidate_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = main(
            ["compare", str(missing), "--against", str(self.record(tmp_path))]
        )
        assert rc == 2
        assert f"repro compare: {missing}:" in capsys.readouterr().err

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = main(
            ["compare", str(self.record(tmp_path)), "--against", str(missing)]
        )
        assert rc == 2
        assert f"repro compare: {missing}:" in capsys.readouterr().err

    def test_truncated_record_exits_2(self, tmp_path, capsys):
        good = self.record(tmp_path)
        truncated = tmp_path / "truncated.json"
        data = good.read_bytes()
        truncated.write_bytes(data[: len(data) // 2])
        rc = main(["compare", str(truncated), "--against", str(good)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"repro compare: {truncated}: unreadable run record" in err


class TestTraceCommand:
    def stored_payload(self, tmp_path):
        from repro import obs
        from repro.obs import tracectx

        with obs.collecting() as collector:
            with tracectx.use_trace(tracectx.new_trace()):
                with obs.span("serve.request"):
                    with obs.span("serve.publish"):
                        pass
        payload = {
            "trace_id": "ab" * 16,
            "state": "completed",
            "method": "POST",
            "path": "/ingest",
            "status": 202,
            "wall_s": 0.01,
            "spans": obs.forest_payload(obs.build_forest(collector.spans)),
        }
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        return path

    def test_renders_stored_trace_json(self, tmp_path, capsys):
        rc = main(["trace", str(self.stored_payload(tmp_path))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace: " + "ab" * 16 in out
        assert "state=completed" in out
        assert "serve.request;serve.publish" in out  # folded stacks

    def test_renders_jsonl_source(self, csv_relation, constraints_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        out = tmp_path / "out.csv"
        assert main(
            [
                "anonymize", str(csv_relation), str(out),
                "-k", "2", "-c", str(constraints_file),
                "--trace", str(trace),
            ]
        ) == 0
        capsys.readouterr()
        rc = main(["trace", str(trace)])
        assert rc == 0
        assert "critical path" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["trace", str(tmp_path / "gone.json")])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_empty_spans_exits_2(self, tmp_path, capsys):
        path = tmp_path / "open.json"
        path.write_text(json.dumps({"trace_id": "ab" * 16, "spans": []}))
        rc = main(["trace", str(path)])
        assert rc == 2
        assert "no spans" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        rc = main(["trace", str(path)])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_unreachable_service_exits_2(self, capsys):
        rc = main(["trace", "http://127.0.0.1:1", "ab" * 16])
        assert rc == 2
        assert "repro trace:" in capsys.readouterr().err

    def test_live_service_fetch_and_index(self, capsys):
        """End to end over a real socket: ingest with a caller traceparent,
        fetch the tree by id, list the index."""
        import asyncio
        import threading
        import urllib.request

        from repro.core.constraints import ConstraintSet
        from repro.data.relation import Schema
        from repro.serve import AnonymizationService
        from repro.stream import StreamingAnonymizer

        schema = Schema.from_names(qi=["A", "B"], sensitive=["S"])
        engine = StreamingAnonymizer(schema, ConstraintSet(), 2, bootstrap=4)
        service = AnonymizationService(engine, micro_batch=4)
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def serve():
            asyncio.set_event_loop(loop)

            async def _up():
                await service.start()
                started.set()

            loop.run_until_complete(_up())
            loop.run_forever()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(10)
        try:
            base = f"http://127.0.0.1:{service.port}"
            rows = [["a1", "b1", "s1"], ["a1", "b1", "s2"],
                    ["a2", "b2", "s1"], ["a2", "b2", "s3"]]
            req = urllib.request.Request(
                base + "/ingest",
                data=json.dumps({"rows": rows}).encode(),
                headers={"traceparent": "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"},
                method="POST",
            )
            with urllib.request.urlopen(req, timeout=10) as resp:
                assert resp.status == 202

            rc = main(["trace", base, "ab" * 16])
            assert rc == 0
            out = capsys.readouterr().out
            assert "trace: " + "ab" * 16 in out
            assert "serve.request" in out

            rc = main(["trace", base])
            assert rc == 0
            out = capsys.readouterr().out
            assert "completed traces" in out
            assert "ab" * 16 in out
        finally:
            asyncio.run_coroutine_threadsafe(service.stop(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)
