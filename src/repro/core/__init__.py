"""Communication-free partitioning: the paper's primary contribution.

- :mod:`~repro.core.refspace`: reference spaces ``Psi_A`` (Def. 4),
  reduced spaces ``Psi_A^r`` (Def. 5 / Thm 2), and the minimal variants
  of Section III.C (Thms 3-4);
- :mod:`~repro.core.strategy`: strategy selection (non-duplicate /
  duplicate, optional per-array duplication, optional redundancy
  elimination) and the combined partitioning space;
- :mod:`~repro.core.partition`: the iteration partition ``P_Psi(I^n)``
  (Def. 2) and data partitions ``P_Psi(A)`` (Def. 3);
- :mod:`~repro.core.plan`: the :class:`PartitionPlan` orchestrator and
  static communication-freedom checks.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "refspace": (
        "minimal_reduced_reference_space", "minimal_reference_space",
        "reduced_reference_space", "reference_space",
    ),
    "strategy": ("Strategy", "SpaceBreakdown", "partitioning_space"),
    "partition": (
        "DataBlock", "IterationBlock", "data_partition",
        "iteration_partition",
    ),
    "plan": (
        "PartitionPlan", "build_plan", "check_data_blocks_disjoint",
        "check_no_interblock_flow", "check_partition_covers_space",
    ),
})
