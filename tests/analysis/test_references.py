"""Reference extraction and the uniformly-generated-references check."""

from fractions import Fraction

import pytest

from repro.analysis import NonUniformReferenceError, extract_references
from repro.lang import parse
from repro.ratlinalg import RatMat, RatVec


class TestExtraction:
    def test_l1_reference_matrices(self, l1):
        model = extract_references(l1)
        assert model.arrays["A"].h == RatMat([[2, 0], [0, 1]])
        assert model.arrays["B"].h == RatMat([[0, 1], [1, 0]])
        assert model.arrays["C"].h == RatMat([[1, 0], [0, 1]])

    def test_l1_offsets(self, l1):
        model = extract_references(l1)
        offsets_a = [tuple(int(x) for x in r.offset)
                     for r in model.arrays["A"].references]
        assert offsets_a == [(0, 0), (-2, -1)]
        offsets_b = [tuple(int(x) for x in r.offset)
                     for r in model.arrays["B"].references]
        assert offsets_b == [(0, 1)]

    def test_roles_and_slots(self, l1):
        model = extract_references(l1)
        a = model.arrays["A"].references
        assert a[0].is_write and a[0].slot == 0 and a[0].stmt_index == 0
        assert not a[1].is_write and a[1].stmt_index == 1

    def test_l5_rectangular_h(self, l5):
        model = extract_references(l5)
        assert model.arrays["A"].h == RatMat([[1, 0, 0], [0, 0, 1]])
        assert model.arrays["B"].h == RatMat([[0, 0, 1], [0, 1, 0]])
        assert model.arrays["C"].h == RatMat([[1, 0, 0], [0, 1, 0]])

    def test_distinct_offsets_dedup(self, l5):
        model = extract_references(l5)
        # C appears twice with offset (0,0): one distinct referenced variable
        assert len(model.arrays["C"].references) == 2
        assert len(model.arrays["C"].distinct_offsets()) == 1

    def test_writes_reads_partition(self, l2):
        model = extract_references(l2)
        info = model.arrays["A"]
        assert len(info.writes()) == 2
        assert len(info.reads()) == 1
        assert not info.is_read_only()
        assert model.arrays["B"].is_read_only()

    def test_element_at(self, l1):
        model = extract_references(l1)
        info = model.arrays["A"]
        assert info.element_at((1, 1), info.references[0].c) == (2, 1)
        assert info.element_at((2, 2), info.references[1].c) == (2, 1)

    def test_integer_rows_and_offsets_mirror_h_and_c(self, l1):
        for info in extract_references(l1).arrays.values():
            assert info.h == RatMat(info.h_rows)
            for ref in info.references:
                assert ref.offset == RatVec(ref.c)
                assert all(type(x) is int for x in ref.c)

    @pytest.mark.parametrize("bad", [
        (Fraction(3, 2), 1), (1.5, 1), (Fraction(2), 1)])
    def test_element_at_rejects_non_integral_iteration(self, l1, bad):
        # A[2i, j]: truncating 2 * 3/2 + 0 would silently name A[3, 1]
        info = extract_references(l1).arrays["A"]
        with pytest.raises(TypeError):
            info.element_at(bad, info.references[0].c)

    def test_element_at_rejects_wrong_depth(self, l1):
        info = extract_references(l1).arrays["A"]
        with pytest.raises(ValueError):
            info.element_at((1, 1, 1), info.references[0].c)

    def test_all_references_flat(self, l1):
        model = extract_references(l1)
        assert len(model.all_references()) == 5


class TestNonUniform:
    def test_different_h_rejected(self):
        nest = parse("for i = 1 to 2 { A[i] = A[2*i]; }")
        with pytest.raises(NonUniformReferenceError, match="non-uniformly"):
            extract_references(nest)

    def test_transposed_access_rejected(self):
        nest = parse("for i = 1 to 2 { for j = 1 to 2 { A[i, j] = A[j, i]; } }")
        with pytest.raises(NonUniformReferenceError):
            extract_references(nest)

    def test_uniform_offsets_accepted(self):
        nest = parse("for i = 1 to 2 { A[i + 3] = A[i - 5]; }")
        model = extract_references(nest)
        assert len(model.arrays["A"].references) == 2

    def test_scalar_in_subscript_rejected(self):
        nest = parse("for i = 1 to 2 { A[i + N] = 0; }")
        with pytest.raises(NonUniformReferenceError, match="affine"):
            extract_references(nest)

    def test_fractional_subscript_rejected(self):
        nest = parse("for i = 1 to 2 { A[i / 2] = 0; }")
        with pytest.raises(NonUniformReferenceError, match="non-integer"):
            extract_references(nest)

    def test_rank_consistency(self):
        nest = parse("for i = 1 to 2 { for j = 1 to 2 { A[i, j] = A[i]; } }")
        with pytest.raises(NonUniformReferenceError):
            extract_references(nest)
