"""Tests for the estimation-engine facade (:mod:`repro.service.engine`).

The load-bearing guarantees: every estimate served through the
sessions/queue/dispatcher machinery is bit-identical to the direct
estimator call on the same module state; the bounded queue answers
backpressure and timeouts deterministically; and shutdown drains
in-flight work instead of dropping it.
"""

import dataclasses
import threading

import pytest

from repro.core.config import EstimatorConfig
from repro.core.standard_cell import estimate_standard_cell
from repro.errors import (
    QueueFullError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    SessionError,
)
from repro.incremental.editgen import random_mutation
from repro.service.engine import EstimationEngine, ServiceConfig
from repro.technology.libraries import cmos_process, nmos_process
from repro.workloads.generators import counter_module, random_gate_module


def _fields(estimate):
    return dataclasses.astuple(estimate)


@pytest.fixture(scope="module")
def nmos():
    return nmos_process()


@pytest.fixture()
def engine():
    engine = EstimationEngine(ServiceConfig(max_sessions=8, queue_limit=16))
    yield engine
    engine.shutdown()


@pytest.fixture()
def module():
    return counter_module("svc_counter", bits=6)


class TestServiceConfig:
    @pytest.mark.parametrize("field,value", [
        ("max_sessions", 0), ("queue_limit", 0), ("coalesce_limit", 0),
        ("request_timeout", 0.0),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ServiceError):
            ServiceConfig(**{field: value})


class TestSessions:
    def test_create_and_describe(self, engine, module, nmos):
        session = engine.create_session(module, nmos, name="mine")
        info = session.info()
        assert info["name"] == "mine"
        assert info["module"] == module.name
        assert info["devices"] == module.device_count
        assert info["version"] == 0
        assert engine.session(session.session_id) is session
        assert [s["session"] for s in engine.list_sessions()] == [
            session.session_id
        ]

    def test_session_module_is_copied(self, engine, module, nmos):
        session = engine.create_session(module, nmos)
        assert session.engine.module is not module

    def test_unknown_session(self, engine):
        with pytest.raises(SessionError, match="unknown"):
            engine.session("s999999")

    def test_close(self, engine, module, nmos):
        session = engine.create_session(module, nmos)
        engine.close_session(session.session_id)
        assert engine.list_sessions() == []
        with pytest.raises(SessionError):
            engine.close_session(session.session_id)

    def test_session_limit(self, module, nmos):
        engine = EstimationEngine(ServiceConfig(max_sessions=2))
        try:
            engine.create_session(module, nmos)
            engine.create_session(module, nmos)
            with pytest.raises(SessionError, match="limit"):
                engine.create_session(module, nmos)
        finally:
            engine.shutdown()


class TestEstimateBitIdentity:
    def test_default_rows(self, engine, module, nmos):
        session = engine.create_session(module, nmos)
        version, served = engine.estimate(session.session_id)
        direct = estimate_standard_cell(module, nmos, EstimatorConfig())
        assert version == 0
        assert _fields(served) == _fields(direct)

    def test_rows_int_and_list(self, engine, module, nmos):
        session = engine.create_session(module, nmos)
        _, one = engine.estimate(session.session_id, rows=4)
        assert _fields(one) == _fields(estimate_standard_cell(
            module, nmos, EstimatorConfig(rows=4)
        ))
        _, many = engine.estimate(session.session_id, rows=[2, 3, 4])
        assert isinstance(many, tuple) and len(many) == 3
        for rows, served in zip((2, 3, 4), many):
            direct = estimate_standard_cell(
                module, nmos, EstimatorConfig(rows=rows)
            )
            assert _fields(served) == _fields(direct)

    def test_edits_then_estimate(self, engine, module, nmos):
        import random

        session = engine.create_session(module, nmos)
        mirror = module.copy()
        rng = random.Random(5)
        config = EstimatorConfig()
        for _ in range(6):
            mutation = random_mutation(mirror, rng, config.power_nets)
            version, served = engine.apply_edits(
                session.session_id, [mutation]
            )
            mutation.apply(mirror)
            direct = estimate_standard_cell(mirror, nmos, config)
            assert _fields(served) == _fields(direct)
        assert version == 6
        assert session.edits_applied == 6

    def test_edits_without_estimate(self, engine, module, nmos):
        import random

        session = engine.create_session(module, nmos)
        mutation = random_mutation(
            module.copy(), random.Random(1), EstimatorConfig().power_nets
        )
        version, result = engine.apply_edits(
            session.session_id, [mutation], estimate=False
        )
        assert version == 1
        assert result is None

    def test_concurrent_sessions_all_identical(self, engine, nmos):
        modules = [
            random_gate_module(f"svc_rand_{i}", gates=40 + 10 * i,
                               inputs=6, outputs=4, seed=100 + i)
            for i in range(4)
        ]
        sessions = [engine.create_session(m, nmos) for m in modules]
        results = {}
        errors = []

        def work(index):
            try:
                _, served = engine.estimate(
                    sessions[index].session_id, rows=[2, 3]
                )
                results[index] = served
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for index, module in enumerate(modules):
            for rows, served in zip((2, 3), results[index]):
                direct = estimate_standard_cell(
                    module, nmos, EstimatorConfig(rows=rows)
                )
                assert _fields(served) == _fields(direct)

    def test_multi_session_drain_identical(self, nmos):
        """A drain coalescing requests from three sessions serves the
        same bits as direct estimation."""
        engine = EstimationEngine(ServiceConfig())
        try:
            modules = [
                random_gate_module(f"svc_batch_{i}", gates=30, inputs=5,
                                   outputs=3, seed=i)
                for i in range(3)
            ]
            sessions = [engine.create_session(m, nmos) for m in modules]
            # Park the dispatcher so all requests coalesce into one
            # drain.
            engine._dispatch_gate.clear()
            results = {}

            def work(index):
                _, served = engine.estimate(sessions[index].session_id)
                results[index] = served

            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(3)
            ]
            for t in threads:
                t.start()
            engine._dispatch_gate.set()
            for t in threads:
                t.join()
            for index, module in enumerate(modules):
                direct = estimate_standard_cell(
                    module, nmos, EstimatorConfig()
                )
                assert _fields(results[index]) == _fields(direct)
        finally:
            engine.shutdown()

    def test_mixed_process_sessions(self, engine, module, nmos):
        cmos = cmos_process()
        s1 = engine.create_session(module, nmos)
        s2 = engine.create_session(module, cmos)
        _, from_nmos = engine.estimate(s1.session_id)
        _, from_cmos = engine.estimate(s2.session_id)
        assert _fields(from_nmos) == _fields(
            estimate_standard_cell(module, nmos, EstimatorConfig())
        )
        assert _fields(from_cmos) == _fields(
            estimate_standard_cell(module, cmos, EstimatorConfig())
        )


class TestBackpressureAndTimeouts:
    def test_queue_full(self, module, nmos):
        engine = EstimationEngine(ServiceConfig(queue_limit=2))
        try:
            session = engine.create_session(module, nmos)
            engine._dispatch_gate.clear()
            threads = [
                threading.Thread(
                    target=lambda: engine.estimate(session.session_id),
                    daemon=True,
                )
                for _ in range(2)
            ]
            for t in threads:
                t.start()
            deadline = 50
            while len(engine._queue) < 2 and deadline:
                deadline -= 1
                threading.Event().wait(0.02)
            with pytest.raises(QueueFullError):
                engine.estimate(session.session_id)
            assert engine.service_stats()["requests"]["rejected"] == 1
        finally:
            engine._dispatch_gate.set()
            engine.shutdown()

    def test_request_timeout(self, module, nmos):
        engine = EstimationEngine(ServiceConfig())
        try:
            session = engine.create_session(module, nmos)
            engine._dispatch_gate.clear()
            with pytest.raises(RequestTimeoutError):
                engine.estimate(session.session_id, timeout=0.05)
            assert engine.service_stats()["requests"]["timeouts"] == 1
        finally:
            engine._dispatch_gate.set()
            engine.shutdown()

    def test_queued_request_for_closed_session_fails(self, module, nmos):
        engine = EstimationEngine(ServiceConfig())
        try:
            session = engine.create_session(module, nmos)
            engine._dispatch_gate.clear()
            caught = []

            def work():
                try:
                    engine.estimate(session.session_id)
                except SessionError as exc:
                    caught.append(exc)

            thread = threading.Thread(target=work)
            thread.start()
            deadline = 50
            while not engine._queue and deadline:
                deadline -= 1
                threading.Event().wait(0.02)
            engine.close_session(session.session_id)
            engine._dispatch_gate.set()
            thread.join()
            assert caught and "closed" in str(caught[0])
        finally:
            engine.shutdown()


class TestShutdown:
    def test_rejects_after_shutdown(self, module, nmos):
        engine = EstimationEngine(ServiceConfig())
        session = engine.create_session(module, nmos)
        engine.shutdown()
        with pytest.raises(ServiceClosedError):
            engine.estimate(session.session_id)
        with pytest.raises(ServiceClosedError):
            engine.create_session(module, nmos)
        engine.shutdown()  # idempotent

    def test_drain_serves_queued_requests(self, module, nmos):
        engine = EstimationEngine(ServiceConfig())
        session = engine.create_session(module, nmos)
        engine._dispatch_gate.clear()
        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                engine.estimate(session.session_id)
            )
        )
        thread.start()
        deadline = 50
        while not engine._queue and deadline:
            deadline -= 1
            threading.Event().wait(0.02)
        shutdown = threading.Thread(target=engine.shutdown)
        shutdown.start()
        engine._dispatch_gate.set()
        shutdown.join()
        thread.join()
        assert results and results[0][1] is not None
        direct = estimate_standard_cell(module, nmos, EstimatorConfig())
        assert _fields(results[0][1]) == _fields(direct)

    def test_no_drain_fails_queued_requests(self, module, nmos):
        engine = EstimationEngine(ServiceConfig())
        session = engine.create_session(module, nmos)
        engine._dispatch_gate.clear()
        caught = []

        def work():
            try:
                engine.estimate(session.session_id)
            except ServiceClosedError as exc:
                caught.append(exc)

        thread = threading.Thread(target=work)
        thread.start()
        deadline = 50
        while not engine._queue and deadline:
            deadline -= 1
            threading.Event().wait(0.02)
        engine.shutdown(drain=False)
        engine._dispatch_gate.set()
        thread.join()
        assert caught


class TestMetrics:
    def test_sections(self, engine, module, nmos):
        session = engine.create_session(module, nmos)
        engine.estimate(session.session_id)
        stats = engine.service_stats()
        assert stats["sessions"]["open"] == 1
        assert stats["queue"]["limit"] == 16
        assert stats["requests"]["estimates_served"] >= 1
        assert stats["latency"]["dispatch"]["count"] >= 1
        assert stats["accepting"] is True
        snapshot = engine.metrics()
        for key in ("counters", "kernels", "plans", "triangle",
                    "backend", "service"):
            assert key in snapshot

    def test_submit_job_runs_on_dispatcher(self, engine):
        name = engine.submit_job(lambda: threading.current_thread().name)
        assert name == "mae-dispatcher"

    def test_submit_job_propagates_errors(self, engine):
        def boom():
            raise ValueError("nope")

        with pytest.raises(ValueError, match="nope"):
            engine.submit_job(boom)
