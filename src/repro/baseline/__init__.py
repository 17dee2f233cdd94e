"""Baseline comparator: Ramanujam & Sadayappan hyperplane partitioning.

The paper claims (Section III.A) that its method extracts more
parallelism than Ramanujam & Sadayappan's compile-time technique [18],
which (a) applies only to For-all loops and (b) partitions iterations
and data along ``(n-1)``-dimensional hyperplanes, yielding a
1-dimensional family of blocks.  :mod:`~repro.baseline.hyperplane`
reimplements that scheme so benches can compare degrees of parallelism.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "hyperplane": ("HyperplaneResult", "hyperplane_partition"),
})
