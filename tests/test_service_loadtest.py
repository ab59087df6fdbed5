"""Tests for the serve load generator (:mod:`repro.service.loadtest`).

A short real-HTTP load run must complete with zero request errors,
verify a non-trivial number of deferred bit-identity samples with zero
mismatches, and report every field the bench serve phase and the CI
smoke gate consume.
"""

import pytest

from repro.errors import ServiceError
from repro.service.engine import EstimationEngine, ServiceConfig
from repro.service.loadtest import (
    corpus_modules,
    format_report,
    main,
    run_load,
)
from repro.service.server import start_server


@pytest.fixture(scope="module")
def report():
    server = start_server(EstimationEngine(ServiceConfig()))
    try:
        yield run_load(server.base_url, sessions=4, duration=1.0, seed=2)
    finally:
        server.stop(drain=True)


class TestRunLoad:
    def test_clean_run(self, report):
        assert report["errors"] == []
        assert report["sessions"] == 4
        assert report["requests"] > 0
        assert report["estimates"] > 0
        assert report["edits"] > 0

    def test_bit_identity_samples(self, report):
        assert report["verified"] > 0
        assert report["mismatches"] == []

    def test_latency_and_throughput_fields(self, report):
        latency = report["latency"]
        assert latency["count"] == report["requests"]
        assert 0 <= latency["p50_ms"] <= latency["p99_ms"] <= (
            latency["max_ms"]
        )
        assert report["estimates_per_sec"] > 0

    def test_format_report_mentions_the_headlines(self, report):
        text = format_report(report)
        assert "p99" in text and "estimates/sec" in text
        assert "0 mismatches" in text

    def test_rejects_bad_parameters(self):
        with pytest.raises(ServiceError):
            run_load("http://127.0.0.1:1", sessions=0)
        with pytest.raises(ServiceError):
            run_load("http://127.0.0.1:1", duration=0)


class TestCorpusModules:
    def test_deterministic_standard_cell_population(self):
        first = corpus_modules(6, base_seed=1)
        second = corpus_modules(6, base_seed=1)
        assert [m.name for m in first] == [m.name for m in second]
        assert len(first) == 6


class TestMain:
    def test_smoke_run_exits_clean(self, tmp_path, capsys):
        out = tmp_path / "load.json"
        code = main([
            "--sessions", "3", "--duration", "1",
            "--assert-p99-ms", "5000",
            "--assert-throughput", "1",
            "--json", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert out.exists()
        assert "bit-identity" in captured.out

    def test_backend_follows_the_environment(self, monkeypatch, capsys):
        """``$MAE_BACKEND`` selects the backend, as for every ``mae``
        command; an unknown one is an ``error:`` line and exit 1."""
        pytest.importorskip("numpy")
        monkeypatch.setenv("MAE_BACKEND", "numpy")
        code = main(["--sessions", "2", "--duration", "0.5"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "backend numpy" in captured.out
        monkeypatch.setenv("MAE_BACKEND", "bogus")
        assert main(["--sessions", "2", "--duration", "0.5"]) == 1
        assert "error: unknown backend 'bogus'" in capsys.readouterr().err

    def test_unmeetable_throughput_fails(self, capsys):
        code = main([
            "--sessions", "2", "--duration", "1",
            "--assert-throughput", "1e9",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "below the bound" in captured.err
