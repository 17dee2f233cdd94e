"""Performance study (Section IV + Tables I/II).

- :mod:`~repro.perf.model`: the paper's analytic complexity formulas
  ``T1``, ``T2``, ``T3`` for matrix multiplication;
- :mod:`~repro.perf.matmul`: the simulated Transputer-mesh study of
  loops L5, L5' and L5'' (message-level simulation, compute charged per
  iteration);
- :mod:`~repro.perf.tables`: the paper's Table I / Table II data and
  comparison helpers;
- :mod:`~repro.perf.general`: cost estimation for *any* plan on *any*
  machine size (generalizing the matmul study);
- :mod:`~repro.perf.selector`: automatic strategy selection by
  estimated makespan (the paper's "can be appropriately estimated").
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "model": ("t1_sequential", "t2_duplicate_b", "t3_duplicate_ab"),
    "matmul": (
        "MatmulSim", "simulate_l5", "simulate_l5_prime",
        "simulate_l5_doubleprime", "run_study",
    ),
    "tables": (
        "PAPER_TABLE1", "PAPER_TABLE2", "paper_time", "paper_speedup",
        "table1_rows", "table2_rows",
    ),
    "general": ("PlanEstimate", "estimate_plan", "mesh_for"),
    "selector": ("Candidate", "SelectionResult", "choose_strategy"),
})
