"""Tests for the estimation-engine facade (:mod:`repro.service.engine`).

The load-bearing guarantees: every estimate served through the
sessions/engine-lock machinery is bit-identical to the direct
estimator call on the same module state; only one thread at a time
evaluates; the bounded admission answers backpressure and timeouts
deterministically; and shutdown drains in-flight work instead of
dropping it.

To fill the engine deterministically, a test holds the engine lock
with a submitted job that blocks on an event (:func:`holding`).
"""

import contextlib
import dataclasses
import sys
import threading
import time

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


def _depth(engine):
    """Requests admitted but not yet holding the engine lock."""
    return engine.service_stats()["queue"]["depth"]


@contextlib.contextmanager
def holding(engine):
    """Hold the engine lock from another thread for the ``with`` block:
    a submitted job that blocks until the block exits."""
    entered, release = threading.Event(), threading.Event()

    def job():
        entered.set()
        assert release.wait(30)

    holder = threading.Thread(target=engine.submit_job, args=(job,),
                              daemon=True)
    holder.start()
    assert entered.wait(5)
    try:
        yield
    finally:
        release.set()
        holder.join(30)
        assert not holder.is_alive()


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
        ("max_sessions", 0), ("queue_limit", 0), ("request_timeout", 0.0),
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
            with holding(engine):
                threads = [
                    threading.Thread(
                        target=lambda: engine.estimate(session.session_id),
                        daemon=True,
                    )
                    for _ in range(2)
                ]
                for t in threads:
                    t.start()
                _wait_for(lambda: _depth(engine) == 2)
                with pytest.raises(QueueFullError):
                    engine.estimate(session.session_id)
                assert engine.service_stats()["requests"]["rejected"] == 1
            _join_all(threads)
        finally:
            engine.shutdown()

    def test_request_timeout(self, module, nmos):
        engine = EstimationEngine(ServiceConfig())
        try:
            session = engine.create_session(module, nmos)
            with holding(engine):
                with pytest.raises(RequestTimeoutError):
                    engine.estimate(session.session_id, timeout=0.05)
                assert engine.service_stats()["requests"]["timeouts"] == 1
        finally:
            engine.shutdown()

    @pytest.mark.parametrize("timeout", [-1, -0.5, 0, float("nan")])
    def test_non_positive_timeout_runs_out_at_once(self, module, nmos,
                                                   timeout):
        """A timeout that is not positive times out at once, idle engine
        or not, and gives its admission slot back: -1 must not wait
        forever, NaN must not leak the slot through ``acquire``."""
        engine = EstimationEngine(ServiceConfig(queue_limit=2))
        try:
            session = engine.create_session(module, nmos)
            for _ in range(3):
                with pytest.raises(RequestTimeoutError):
                    engine.estimate(session.session_id, timeout=timeout)
                with pytest.raises(RequestTimeoutError):
                    engine.submit_job(lambda: None, timeout=timeout)
            stats = engine.service_stats()
            assert stats["queue"]["depth"] == 0
            assert stats["requests"]["timeouts"] == 6
            assert "estimates_served" not in stats["requests"]
            assert "jobs_served" not in stats["requests"]
            assert engine.estimate(session.session_id)[1] is not None
        finally:
            engine.shutdown(timeout=5)

    def test_queued_request_for_closed_session_fails(self, module, nmos):
        engine = EstimationEngine(ServiceConfig())
        try:
            session = engine.create_session(module, nmos)
            caught = []

            def work():
                try:
                    engine.estimate(session.session_id)
                except SessionError as exc:
                    caught.append(exc)

            thread = threading.Thread(target=work)
            with holding(engine):
                thread.start()
                _wait_for(lambda: _depth(engine) == 1)
                engine.close_session(session.session_id)
            _join_all([thread])
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
        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                engine.estimate(session.session_id)
            )
        )
        shutdown = threading.Thread(target=engine.shutdown)
        with holding(engine):
            thread.start()
            _wait_for(lambda: _depth(engine) == 1)
            shutdown.start()
            _wait_for(lambda: not engine.service_stats()["accepting"])
        _join_all([shutdown, thread])
        assert results and results[0][1] is not None
        direct = estimate_standard_cell(module, nmos, EstimatorConfig())
        assert _fields(results[0][1]) == _fields(direct)

    def test_no_drain_fails_queued_requests(self, module, nmos):
        engine = EstimationEngine(ServiceConfig())
        session = engine.create_session(module, nmos)
        caught = []

        def work():
            try:
                engine.estimate(session.session_id)
            except ServiceClosedError as exc:
                caught.append(exc)

        thread = threading.Thread(target=work)
        shutdown = threading.Thread(target=engine.shutdown,
                                    kwargs={"drain": False})
        with holding(engine):
            thread.start()
            _wait_for(lambda: _depth(engine) == 1)
            shutdown.start()
            _wait_for(lambda: not engine.service_stats()["accepting"])
        _join_all([shutdown, thread])
        assert caught
        assert engine.service_stats()["requests"].get(
            "estimates_served", 0) == 0


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

    def test_submit_job_runs_on_the_submitting_thread(self, engine):
        """An idle engine serves a request on the thread that submitted
        it: no hand-off to another thread."""
        name = engine.submit_job(lambda: threading.current_thread().name)
        assert name == threading.current_thread().name

    def test_submit_job_propagates_errors(self, engine):
        def boom():
            raise ValueError("nope")

        with pytest.raises(ValueError, match="nope"):
            engine.submit_job(boom)
        # A job that ran counts as served, whether or not it raised.
        assert engine.service_stats()["requests"]["jobs_served"] == 1


class _ConcurrencyProbe:
    """Wraps evaluation entry points and records how many threads are
    inside any of them at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.active = 0
        self.peak = 0
        self.calls = 0

    def __call__(self, function):
        def probed(*args, **kwargs):
            with self.lock:
                self.active += 1
                self.calls += 1
                self.peak = max(self.peak, self.active)
            try:
                time.sleep(0.0005)  # a window another evaluator would hit
                return function(*args, **kwargs)
            finally:
                with self.lock:
                    self.active -= 1
        return probed


def _join_all(threads, timeout=30.0):
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads)


def _wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.005)


class TestDrainLock:
    """Submitting threads evaluate their own requests under the engine
    lock, one at a time."""

    def test_jobs_and_estimates_never_evaluate_concurrently(self, nmos):
        engine = EstimationEngine(ServiceConfig(queue_limit=64))
        probe = _ConcurrencyProbe()
        modules = [
            random_gate_module(f"svc_probe_{i}", gates=30 + 5 * i,
                               inputs=5, outputs=3, seed=40 + i)
            for i in range(4)
        ]
        sessions = [engine.create_session(m, nmos) for m in modules]
        for session in sessions:
            session.engine.estimate = probe(session.engine.estimate)
            session.engine.estimate_rows = probe(
                session.engine.estimate_rows
            )
        served = {}
        errors = []

        def work(slot):
            session = sessions[slot % len(sessions)]
            try:
                for step in range(12):
                    if step % 3 == 0:
                        engine.submit_job(probe(lambda: None))
                    elif step % 3 == 1:
                        served[(slot, step)] = (
                            session, None,
                            engine.estimate(session.session_id)[1],
                        )
                    else:
                        served[(slot, step)] = (
                            session, (2, 3),
                            engine.estimate(session.session_id,
                                            rows=[2, 3])[1],
                        )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(slot,))
                       for slot in range(8)]
            for thread in threads:
                thread.start()
            _join_all(threads)
        finally:
            sys.setswitchinterval(interval)
            engine.shutdown()
        assert not errors
        # Each request is one evaluation call: a job, ``estimate()`` or
        # one ``estimate_rows``.
        assert len(served) == 8 * 8 and probe.calls == 8 * 12
        assert probe.peak == 1
        by_module = {s.session_id: m for s, m in zip(sessions, modules)}
        for session, rows, result in served.values():
            module = by_module[session.session_id]
            if rows is None:
                direct = estimate_standard_cell(module, nmos,
                                                EstimatorConfig())
                assert _fields(result) == _fields(direct)
            else:
                for row, estimate in zip(rows, result):
                    direct = estimate_standard_cell(
                        module, nmos, EstimatorConfig(rows=row)
                    )
                    assert _fields(estimate) == _fields(direct)

    def test_a_timed_out_request_strands_no_queue(self, module, nmos):
        """Of three requests waiting behind a held engine lock, the one
        with a short timeout gives up and is never evaluated; the other
        two are served once the lock is free."""
        engine = EstimationEngine(ServiceConfig())
        try:
            session = engine.create_session(module, nmos)
            probe = _ConcurrencyProbe()
            session.engine.estimate = probe(session.engine.estimate)
            outcomes = {}

            def work(name, timeout):
                try:
                    outcomes[name] = engine.estimate(
                        session.session_id, timeout=timeout
                    )[1]
                except RequestTimeoutError as exc:
                    outcomes[name] = exc

            short = threading.Thread(target=work, args=("short", 1.0))
            longs = [
                threading.Thread(target=work, args=(name, 30.0))
                for name in ("first", "second")
            ]
            with holding(engine):
                short.start()
                _wait_for(lambda: _depth(engine) == 1)
                for thread in longs:
                    thread.start()
                _join_all([short])
                assert isinstance(outcomes["short"], RequestTimeoutError)
                _wait_for(lambda: _depth(engine) == 2)
            _join_all(longs)
            direct = estimate_standard_cell(module, nmos, EstimatorConfig())
            for name in ("first", "second"):
                assert _fields(outcomes[name]) == _fields(direct)
            assert probe.calls == 2
            stats = engine.service_stats()
            assert stats["queue"]["depth"] == 0
            assert stats["requests"]["timeouts"] == 1
        finally:
            engine.shutdown()

    def test_shutdown_during_another_drain_serves_every_queued_request(
        self, module, nmos
    ):
        engine = EstimationEngine(ServiceConfig())
        session = engine.create_session(module, nmos)
        entered = threading.Event()
        release = threading.Event()
        outcomes = {}

        def blocking_job():
            entered.set()
            assert release.wait(10)
            return "job"

        def run_job():
            outcomes["job"] = engine.submit_job(blocking_job)

        def work(rows):
            outcomes[rows] = engine.estimate(session.session_id, rows=rows)

        holder = threading.Thread(target=run_job)
        holder.start()
        assert entered.wait(5)  # the holder is inside its job
        waiters = [threading.Thread(target=work, args=(rows,))
                   for rows in (2, 3, 4)]
        for thread in waiters:
            thread.start()
        _wait_for(lambda: _depth(engine) == 3)
        stopper = threading.Thread(target=engine.shutdown)
        stopper.start()
        _wait_for(lambda: not engine.service_stats()["accepting"])
        release.set()
        _join_all([holder, stopper] + waiters)
        assert outcomes["job"] == "job"
        for rows in (2, 3, 4):
            version, served = outcomes[rows]
            direct = estimate_standard_cell(
                module, nmos, EstimatorConfig(rows=rows)
            )
            assert version == 0 and _fields(served) == _fields(direct)
        assert engine.service_stats()["queue"]["depth"] == 0
