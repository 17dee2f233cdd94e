"""End-to-end verification across every strategy on every catalog loop."""

import pytest

from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.runtime import verify_plan

SCALARS = {"D": 2.0, "F": 3.0, "G": 1.5, "K": 0.5}

CASES = [
    ("L1-nondup", catalog.l1, dict()),
    ("L1-dup", catalog.l1, dict(strategy=Strategy.DUPLICATE)),
    ("L2-nondup", catalog.l2, dict()),
    ("L2-dup", catalog.l2, dict(strategy=Strategy.DUPLICATE)),
    ("L3-nondup", catalog.l3, dict()),
    ("L3-min-nondup", catalog.l3, dict(eliminate_redundant=True)),
    ("L3-min-dup", catalog.l3, dict(strategy=Strategy.DUPLICATE,
                                    eliminate_redundant=True)),
    ("L3sub-min-dup", catalog.l3_sub, dict(strategy=Strategy.DUPLICATE,
                                           eliminate_redundant=True)),
    ("L4-nondup", catalog.l4, dict()),
    ("L5-dup", catalog.l5, dict(strategy=Strategy.DUPLICATE)),
    ("L5-dupB", catalog.l5, dict(strategy=Strategy.DUPLICATE,
                                 duplicate_arrays={"B"})),
    ("L5-dupA", catalog.l5, dict(strategy=Strategy.DUPLICATE,
                                 duplicate_arrays={"A"})),
    ("CONV-dup", catalog.convolution, dict(strategy=Strategy.DUPLICATE)),
    ("DFT-dup", catalog.dft, dict(strategy=Strategy.DUPLICATE)),
    ("STENCIL2D-nondup", catalog.stencil2d, dict()),
    ("TRI-nondup", catalog.triangular, dict()),
    ("INDEP-nondup", catalog.independent, dict()),
    ("INDEP-min-dup", catalog.independent, dict(strategy=Strategy.DUPLICATE,
                                                eliminate_redundant=True)),
]


@pytest.mark.parametrize("name,fn,kwargs", CASES, ids=[c[0] for c in CASES])
def test_parallel_equals_sequential_and_communication_free(name, fn, kwargs):
    plan = build_plan(fn(), **kwargs)
    report = verify_plan(plan, scalars=SCALARS)
    assert report.communication_free, f"{name}: {report.remote_accesses} remote"
    assert report.equal, f"{name}: {report.mismatches[:3]}"
    report.raise_on_failure()


def test_mismatches_keep_their_shape_and_order(l1, monkeypatch):
    """``(name, coords, sequential, parallel)``, arrays in model order,
    coordinates in ``coords_iter`` order -- as the per-element compare
    reported them."""
    from repro.runtime import verify as verify_mod

    real = verify_mod.merge_copies

    def corrupting_merge(result, initial):
        merged = real(result, initial)
        merged["A"][(2, 1)] += 1.0
        merged["A"][(0, 3)] = float("nan")
        merged["C"][(1, 1)] -= 0.5
        return merged

    monkeypatch.setattr(verify_mod, "merge_copies", corrupting_merge)
    report = verify_plan(build_plan(l1))
    assert not report.equal
    assert [(n, c) for n, c, _, _ in report.mismatches] == \
        [("A", (0, 3)), ("A", (2, 1)), ("C", (1, 1))]
    (_, _, seq, par), (_, _, seq2, par2), _ = report.mismatches
    assert type(seq) is float and par != par          # NaN never equal
    assert par2 == seq2 + 1.0


class TestReport:
    def test_report_fields(self, l1):
        report = verify_plan(build_plan(l1))
        assert report.num_blocks == 7
        assert report.executed_iterations == 16
        assert report.skipped_computations == 0
        assert report.ok

    def test_raise_on_failure_passes_through(self, l1):
        report = verify_plan(build_plan(l1))
        assert report.raise_on_failure() is report

    def test_failure_raises(self, l1):
        report = verify_plan(build_plan(l1))
        report.mismatches.append(("A", (0, 0), 1.0, 2.0))
        report.equal = False
        with pytest.raises(AssertionError, match="differs"):
            report.raise_on_failure()

    def test_custom_block_mapping(self, l1):
        plan = build_plan(l1)
        mapping = {b.index: 0 for b in plan.blocks}  # everything on PE0
        report = verify_plan(plan, block_to_pid=mapping)
        assert report.ok

    def test_scaled_instances(self):
        for n in (2, 3, 5, 6):
            plan = build_plan(catalog.l1(n))
            assert verify_plan(plan).ok


class TestCrossCheck:
    def test_one_parallel_run_per_backend_and_one_golden_run(self,
                                                             monkeypatch):
        from repro.api import Session
        from repro.runtime import verify as verify_mod
        from repro.runtime.engine import available_backends

        golden_runs = []
        run_sequential = verify_mod.run_sequential
        monkeypatch.setattr(
            verify_mod, "run_sequential",
            lambda *a, **kw: golden_runs.append(1) or run_sequential(*a, **kw))
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        with Session("L1", strategy="duplicate") as s:
            report = s.verify(backend="all")
        backends = available_backends()
        assert report.ok and sorted(report.cross_checked) == sorted(backends)
        assert s.registry.value("runtime.runs") == len(backends)
        assert s.registry.value("verify.runs") == len(backends)
        assert len(golden_runs) == 1

    def test_disagreeing_write_stamps_fail_the_cross_check(self, l1,
                                                           monkeypatch):
        from repro.runtime.engine.compiled import CompiledEngine

        run_blocks = CompiledEngine.run_blocks

        def skewed(self, plan, memories, result, initial, scalars):
            run_blocks(self, plan, memories, result, initial, scalars)
            key = next(iter(result.write_stamps))
            result.write_stamps[key] += 1

        monkeypatch.setattr(CompiledEngine, "run_blocks", skewed)
        monkeypatch.setenv("REPRO_MP_WORKERS", "1")
        report = verify_plan(build_plan(l1), backend="all")
        assert not report.ok
        assert any(name.startswith("<write-stamps:compiled")
                   for name, _, _, _ in report.mismatches)
