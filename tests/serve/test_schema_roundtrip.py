"""Every Summary implementor's ``to_json()`` is wire-safe.

The serving layer puts those dicts on the wire verbatim, so each must
be built purely from JSON-native types (``ensure_json_native``) and
survive a ``json.dumps``/``loads`` round trip unchanged -- no tuples,
no sets, no Fractions, no numpy scalars.
"""

import json

import pytest

from repro.api import Session, Summary
from repro.serve.protocol import ensure_json_native


def roundtrip(payload: dict) -> None:
    ensure_json_native(payload)
    assert json.loads(json.dumps(payload)) == payload


@pytest.fixture(scope="module")
def session():
    with Session("L2", strategy="duplicate") as s:
        yield s


class TestSummaryImplementors:
    def test_parallel_result(self, session):
        result = session.run()
        assert isinstance(result, Summary)
        roundtrip(result.to_json())

    def test_verification_report(self, session):
        report = session.verify()
        assert isinstance(report, Summary)
        roundtrip(report.to_json())

    def test_cross_checked_verification_report(self, session):
        roundtrip(session.verify(backend="all").to_json())

    def test_audit_report(self, session):
        report = session.audit()
        assert isinstance(report, Summary)
        roundtrip(report.to_json())
        assert report.to_json()["certificate"] == {
            "decided_by": "symbolic", "pairs": 2, "reason": ""}

    def test_failed_audit_report(self):
        from repro.obs.audit import audit_plan, inject_violation

        with Session("L1", strategy="duplicate") as s:
            bad = inject_violation(s.plan())
            report = audit_plan(bad, run_engines=False)
        assert not report.ok
        roundtrip(report.to_json())
        assert report.to_json()["certificate"]["decided_by"] == "symbolic"

    def test_machine_run(self, session):
        run = session.machine(p=4)
        assert isinstance(run, Summary)
        roundtrip(run.to_json())

    def test_scheduler_result(self):
        from repro.runtime.scheduler.core import LeaseRecord, SchedulerResult

        result = SchedulerResult(
            mode="dynamic", units=2, blocks=4, workers=2, batch=2,
            chaos="crash-prob=0.2",
            leases=[LeaseRecord(unit=0, attempt=1, blocks=(0, 1),
                                start_s=0.0, end_s=0.5, outcome="ok",
                                pid=123)],
            retries=1, completed_units=2, wall_s=0.25)
        assert isinstance(result, Summary)
        roundtrip(result.to_json())

    def test_scheduler_result_from_real_run(self, session):
        result = session.run(backend="multiprocess")
        assert result.scheduler is not None
        roundtrip(result.scheduler.to_json())
        roundtrip(result.to_json())
