"""Processor assignment (Section IV, second half).

- :mod:`~repro.mapping.grid`: shaping ``p`` processors into a
  ``p_1 x ... x p_k`` grid with the paper's rule
  ``p_i = floor(p^(1/k))`` for ``i < k`` and
  ``p_k = floor(p / floor(p^(1/k))^(k-1))``;
- :mod:`~repro.mapping.cyclic`: the mod-based cyclic assignment of
  forall points (iteration blocks) to grid processors;
- :mod:`~repro.mapping.balance`: workload metrics quantifying the
  paper's load-balancing claim ("neighboring iteration blocks have
  almost the same number of iterations").
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "grid": ("ProcessorGrid", "shape_grid"),
    "cyclic": ("CyclicAssignment", "assign_blocks"),
    "balance": ("WorkloadStats", "workload_stats"),
})
