"""The communication audit: certificate, replay, attribution, reconciliation."""

import io
import json
import pathlib
import re

import pytest

from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.machine.memory import RemoteAccessError
from repro.obs.audit import (
    THEOREMS,
    _static_replay,
    audit_plan,
    inject_violation,
    render_audit_dashboard,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.runtime import numpy_compat as npc
from repro.runtime.engine.base import available_backends
from repro.runtime.engine.codegen.geometry import certify_zero_cross
from repro.runtime.parallel import run_parallel

from tests.strategies import PLAN_KWARGS, repartitioned

ALL_BACKENDS = ("interp", "compiled", "vectorized", "multiprocess")

#: certified example plans: (id, nest factory, plan kwargs, theorem)
PLANS = [
    ("L1-nondup", catalog.l1, dict(), 1),
    ("L1-dup", catalog.l1, dict(strategy=Strategy.DUPLICATE), 2),
    ("L2-dup", catalog.l2, dict(strategy=Strategy.DUPLICATE), 2),
    ("L3-elim", catalog.l3, dict(eliminate_redundant=True), 3),
    ("L3-dup-elim", catalog.l3,
     dict(strategy=Strategy.DUPLICATE, eliminate_redundant=True), 4),
    ("L4-nondup", catalog.l4, dict(), 1),
    ("STENCIL2D-nondup", catalog.stencil2d, dict(), 1),
]


def _plan(spec):
    _, factory, kwargs, _ = spec
    return build_plan(factory(), **kwargs)


class TestStaticReplay:
    @pytest.mark.parametrize("spec", PLANS, ids=[s[0] for s in PLANS])
    def test_example_plans_have_zero_cross_block_accesses(self, spec):
        report = audit_plan(_plan(spec), run_engines=False)
        assert report.cross_block_accesses == 0
        assert report.communication_free
        assert report.certified
        assert report.violations == []

    @pytest.mark.parametrize("spec", PLANS, ids=[s[0] for s in PLANS])
    def test_theorem_mapping(self, spec):
        report = audit_plan(_plan(spec), run_engines=False)
        assert report.theorem == spec[3]

    def test_totals_count_every_live_access(self):
        # L1: 2 statements x 16 iterations, S1 has 1 read, S2 has 2
        report = audit_plan(build_plan(catalog.l1()), run_engines=False)
        assert report.executed_computations == 32
        assert report.total_writes == 32     # one write per statement
        assert report.total_reads == 48      # 16*1 + 16*2
        assert report.executed_iterations == 16

    def test_elimination_shrinks_the_footprint(self):
        full = audit_plan(build_plan(catalog.l3()), run_engines=False)
        elim = audit_plan(build_plan(catalog.l3(), eliminate_redundant=True),
                          run_engines=False)
        assert elim.executed_computations < full.executed_computations
        assert elim.total_accesses < full.total_accesses
        assert elim.communication_free

    @pytest.mark.parametrize("spec", PLANS, ids=[s[0] for s in PLANS])
    def test_closed_form_totals_equal_the_replay(self, spec):
        plan = _plan(spec)
        report = audit_plan(plan, run_engines=False)
        fps = _static_replay(plan, max_detail=0).footprints.values()
        assert report.total_reads == sum(fp.reads for fp in fps)
        assert report.total_writes == sum(fp.writes for fp in fps)
        assert sum(report.reference_counts.values()) == report.total_accesses

    def test_a_subset_replay_walks_only_its_blocks(self):
        plan = build_plan(catalog.l1())
        part = _static_replay(plan, max_detail=0, blocks=plan.blocks[2:4])
        assert {blk for blk, _ in part.footprints} == {2, 3}

    def test_footprints_partition_the_accesses(self):
        plan = build_plan(catalog.l1(), strategy=Strategy.DUPLICATE)
        report = audit_plan(plan, run_engines=False)
        assert sum(fp.reads for fp in report.footprints.values()) \
            == report.total_reads
        assert sum(fp.writes for fp in report.footprints.values()) \
            == report.total_writes
        # every touched element is inside the block's data block
        for (blk, name), fp in report.footprints.items():
            allocated = plan.data_blocks[name][blk].elements
            assert fp.elements <= allocated

    def test_duplicate_footprints_overlap_elements(self):
        # Definition 5: under the duplicate strategy the same element
        # may legitimately live in (and be read by) several blocks.
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        report = audit_plan(plan, run_engines=False)
        assert report.cross_block_accesses == 0
        seen = {}
        overlapped = False
        for (blk, name), fp in report.footprints.items():
            for e in fp.elements:
                if (name, e) in seen and seen[(name, e)] != blk:
                    overlapped = True
                seen.setdefault((name, e), blk)
        assert overlapped

    def test_publishes_audit_metrics(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            audit_plan(build_plan(catalog.l1()), run_engines=False)
        assert reg.get("audit.runs").value == 1
        assert reg.get("audit.cross_block_accesses").value == 0
        assert reg.get("audit.certified").value == 1
        assert reg.get("audit.theorem").value == 1


class TestCertificate:
    """Who decided, and that the report, the trace, the registry and the
    dashboard all say so."""

    def _audit(self, **kwargs):
        tracer, reg = Tracer(enabled=True), MetricsRegistry()
        with use_tracer(tracer), use_registry(reg):
            report = audit_plan(build_plan(catalog.l4(), **kwargs),
                                run_engines=False)
        (span,) = tracer.find("audit.certificate")
        (static,) = tracer.find("audit.static")
        assert span.parent_id == static.span_id
        return report, span.attributes, reg

    def test_symbolic(self):
        report, attrs, reg = self._audit()
        assert attrs == {"decided_by": "symbolic", "pairs": 4, "reason": ""}
        assert report.to_dict()["certificate"] == attrs
        assert reg.value("audit.certificate.symbolic") == 1
        assert reg.get("audit.certificate.fallback") is None
        assert report.replay is None        # nothing walked the accesses
        assert ("certificate: symbolic (4 reference pairs)"
                in render_audit_dashboard(report, spans=[]))

    def test_live_mask_falls_back_to_the_replay(self):
        report, attrs, reg = self._audit(eliminate_redundant=True)
        assert attrs == {"decided_by": "replay", "pairs": 0,
                         "reason": "live mask"}
        assert reg.value("audit.certificate.fallback") == 1
        assert report.replay is not None and report.certified
        assert ("certificate: replay (live mask)"
                in render_audit_dashboard(report, spans=[]))


class TestWrongPsi:
    """L1 cut along span{(1,0)}, across its (1,1) flow dependence, with
    data blocks built from the accesses: the replay is clean by
    construction, the certificate is not."""

    def _bad_plan(self):
        from repro.ratlinalg import Subspace

        return repartitioned(build_plan(catalog.l1()), Subspace(2, [[1, 0]]))

    def test_audit_refuses_it(self):
        plan = self._bad_plan()
        report = audit_plan(plan, run_engines=False)
        assert _static_replay(plan, max_detail=1).cross == 0
        assert not report.communication_free and not report.certified
        (v,) = report.violations
        assert (v.array, v.r, v.delta) == ("A", (-2, -1), (1, 1))
        assert v.block != v.owner_block
        verdict = report.verdict()
        assert "VIOLATED" in verdict
        assert "via A[2 * i - 2, j - 1] (R@S2)" in verdict
        assert "via A[2 * i, j] (W@S1)" in verdict
        assert "delta = [1, 1] (delta in Psi: no)" in verdict

    def test_codegen_refuses_it(self):
        assert certify_zero_cross(self._bad_plan()) is False


#: every catalog plan that needed dim(Psi) >= 1, under all four
#: strategy / elimination combinations -- but one: L2 non-duplicate
#: under elimination keeps Ker(H_A) in Psi (strategy.py's exclusivity
#: rule) although no two of its *live* computations share an element,
#: so one iteration per block really is communication-free there
COUPLED = [(name, kwargs) for name in sorted(catalog.ALL_LOOPS)
           for kwargs in PLAN_KWARGS
           if build_plan(catalog.ALL_LOOPS[name](), **kwargs).psi.dim
           and (name, kwargs) != ("L2", PLAN_KWARGS[2])]


class TestEngineReconciliation:
    @pytest.mark.parametrize("spec", PLANS[:4], ids=[s[0] for s in PLANS[:4]])
    def test_all_available_engines_reconcile(self, spec):
        report = audit_plan(_plan(spec), backends=ALL_BACKENDS)
        ran = set(report.engine_runs)
        assert {"interp", "compiled", "multiprocess"} <= ran
        if npc.have_numpy():
            assert "vectorized" in ran
        for run in report.engine_runs.values():
            assert run.completed, run.aborted
            assert run.remote_accesses == 0
            assert run.matches_static, (run.reads, run.writes,
                                        report.total_reads,
                                        report.total_writes)
        assert report.certified

    def test_counters_equal_static_totals(self):
        report = audit_plan(build_plan(catalog.l2(),
                                       strategy=Strategy.DUPLICATE),
                            backends=["interp"])
        run = report.engine_runs["interp"]
        assert run.reads == report.total_reads
        assert run.writes == report.total_writes
        assert run.executed_iterations == report.executed_iterations

    def test_unavailable_backend_records_resolved_engine(self, monkeypatch):
        from repro.runtime.engine import vectorized as vec

        monkeypatch.setattr(vec.VectorizedEngine, "is_available",
                            classmethod(lambda cls: False))
        report = audit_plan(build_plan(catalog.l1()),
                            backends=["vectorized"])
        (run,) = report.engine_runs.values()
        assert run.backend == "vectorized"
        assert run.resolved == "compiled"
        assert run.ok


class TestInjectedViolation:
    @pytest.mark.parametrize(
        "name, kwargs", COUPLED,
        ids=[f"{n}-{k['strategy'].value}"
             f"{'-elim' if k.get('eliminate_redundant') else ''}"
             for n, k in COUPLED])
    def test_every_coupled_plan_is_refused_once_sabotaged(self, name, kwargs,
                                                           scalars):
        plan = inject_violation(
            build_plan(catalog.ALL_LOOPS[name](), **kwargs))
        assert plan.breakdown.duplicated_arrays == frozenset()
        report = audit_plan(plan, run_engines=False)
        assert not report.communication_free
        assert report.cross_block_accesses > 0 and report.violations
        assert certify_zero_cross(plan) is False
        with pytest.raises(RemoteAccessError):
            run_parallel(plan, scalars=scalars, backend="codegen")

    def test_the_ci_negative_control_exits_nonzero(self):
        from repro.cli import main

        assert main(["audit", "--loop", "L1", "--duplicate",
                     "--inject-violation", "--static"],
                    out=io.StringIO()) != 0

    def _broken_report(self, **plan_kwargs):
        plan = build_plan(catalog.l1(), **plan_kwargs)
        return audit_plan(inject_violation(plan), backends=["interp"])

    def test_static_replay_finds_the_violations(self):
        report = self._broken_report(strategy=Strategy.DUPLICATE)
        assert report.cross_block_accesses > 0
        assert not report.communication_free
        assert not report.certified
        assert report.violations

    def test_violation_names_array_reference_pair_and_r(self):
        report = self._broken_report(strategy=Strategy.DUPLICATE)
        v = report.violations[0]
        assert v.array == "A"
        assert "A[2 * i - 2, j - 1]" in v.reference
        assert "A[2 * i, j]" in v.owner_reference
        # r = c - c' between the two references (Definition 1)
        assert v.r == (-2, -1)
        # the iteration offset escaping the (broken) partitioning space
        assert v.delta is not None
        assert v.delta_in_psi is False
        assert v.owner_block != v.block

    def test_verdict_is_self_contained(self):
        report = self._broken_report(strategy=Strategy.DUPLICATE)
        verdict = report.verdict()
        assert "VIOLATED" in verdict
        assert "A[2 * i - 2, j - 1]" in verdict
        assert "A[2 * i, j]" in verdict
        assert "r = [-2, -1]" in verdict
        assert "delta in Psi: no" in verdict

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_every_engine_aborts_on_the_broken_plan(self, backend):
        plan = inject_violation(build_plan(catalog.l1(),
                                           strategy=Strategy.DUPLICATE))
        report = audit_plan(plan, backends=[backend])
        (run,) = report.engine_runs.values()
        assert not run.completed
        assert "remote access" in run.aborted
        assert run.remote_accesses == 1

    def test_detail_cap_does_not_cap_the_count(self):
        plan = inject_violation(build_plan(catalog.l1(),
                                           strategy=Strategy.DUPLICATE))
        report = audit_plan(plan, run_engines=False, max_detail=2)
        assert len(report.violations) == 2
        assert report.cross_block_accesses > 2

    def test_to_dict_round_trips_through_json(self):
        report = self._broken_report(strategy=Strategy.DUPLICATE)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["certified"] is False
        assert data["cross_block_accesses"] == report.cross_block_accesses
        assert data["violations"][0]["r"] == [-2, -1]
        assert data["engine_runs"]["interp"]["completed"] is False


class TestTheoremTable:
    def test_covers_all_four_combinations(self):
        assert set(THEOREMS.values()) == {1, 2, 3, 4}
        assert len(THEOREMS) == 4


GOLDEN = pathlib.Path(__file__).parent.parent / "golden" / "audit_l1.txt"


def _mask_ms(text: str) -> str:
    return re.sub(r"\d+\.\d{3}", "X.XXX", text)


class TestDashboardGolden:
    def regenerate(self):  # python -c "...; TestDashboardGolden().regenerate()"
        GOLDEN.write_text(self._render() + "\n")

    def _render(self) -> str:
        from repro.cli import main

        out = io.StringIO()
        code = main(["audit", "--loop", "L1", "--duplicate", "--static"],
                    out=out)
        assert code == 0
        return _mask_ms(out.getvalue().rstrip("\n"))

    def test_dashboard_matches_golden(self):
        assert self._render() == GOLDEN.read_text().rstrip("\n"), \
            "audit dashboard changed; regenerate tests/golden/audit_l1.txt " \
            "if intended"

    def test_dashboard_shows_violations_section(self):
        plan = inject_violation(build_plan(catalog.l1(),
                                           strategy=Strategy.DUPLICATE))
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            report = audit_plan(plan, backends=["interp"])
        text = render_audit_dashboard(report, spans=tracer.spans)
        assert "-- violations (showing" in text
        assert "-- engine reconciliation --" in text
        assert "aborted" in text
        assert "verdict: VIOLATED" in text
        assert "-- span rollup --" in text

    def test_dashboard_heatmap_limits(self):
        # 3-deep nests have no rank-2 iteration rendering but rank-2
        # arrays (matmul C/A/B) still get heatmaps
        plan = build_plan(catalog.l5(), strategy=Strategy.DUPLICATE)
        report = audit_plan(plan, run_engines=False)
        text = render_audit_dashboard(report, spans=[])
        assert "access heatmap" in text
