"""repro: communication-free data allocation for parallelizing compilers.

A complete, from-scratch reproduction of

    Tzung-Shi Chen and Jang-Ping Sheu,
    "Communication-Free Data Allocation Techniques for Parallelizing
    Compilers on Multicomputers",
    IEEE Trans. Parallel and Distributed Systems 5(9), 1994
    (conference version ICPP 1993).

Quickstart::

    from repro import parse, build_plan, Strategy, verify_plan

    nest = parse('''
        for i = 1 to 4 {
          for j = 1 to 4 {
            S1: A[2*i, j] = C[i, j] * 7;
            S2: B[j, i + 1] = A[2*i - 2, j - 1] + C[i - 1, j - 1];
          }
        }
    ''')
    plan = build_plan(nest, Strategy.NONDUPLICATE)
    print(plan.summary())              # Psi = span{(1,1)}, 7 blocks
    verify_plan(plan).raise_on_failure()   # parallel == sequential, 0 messages

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-reproduction record.
"""

from repro._lazy import lazy_surface

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "api": ("RunOptions", "Session"),
    "analysis": (
        "analyze_redundancy", "build_reference_graph",
        "data_referenced_vectors", "extract_references",
        "is_fully_duplicable",
    ),
    "baseline": ("hyperplane_partition",),
    "config": ("config",),
    "core": (
        "PartitionPlan", "Strategy", "build_plan",
        "iteration_partition", "partitioning_space",
    ),
    "lang": ("catalog", "parse", "to_source"),
    "machine": ("CostModel", "Mesh2D", "Multicomputer", "TRANSPUTER"),
    "mapping": ("assign_blocks", "shape_grid", "workload_stats"),
    "perf": ("run_study", "table1_rows", "table2_rows"),
    "pipeline": (
        "PipelineConfig", "PipelineContext", "PassManager",
        "run_pipeline",
    ),
    "runtime": (
        "make_arrays", "run_parallel", "run_sequential", "verify_plan",
    ),
    "transform": ("compile_nest", "to_pseudocode", "transform_nest"),
})
__all__.append("__version__")
