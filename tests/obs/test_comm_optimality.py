"""The communication-optimality gauge behind ``repro top``."""

import pytest

from repro.obs.top import comm_optimality


class TestCommOptimality:
    def test_zero_remote_is_communication_free(self):
        assert comm_optimality(1000, 0) == 1.0

    def test_fraction_of_remote_traffic(self):
        assert comm_optimality(100, 25) == pytest.approx(0.75)

    def test_no_accesses_reads_optimistic(self):
        assert comm_optimality(0, 0) == 1.0

    def test_clamped_at_zero(self):
        assert comm_optimality(10, 50) == 0.0
