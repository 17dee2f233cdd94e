"""Reference-pattern and dependence analysis (Sections II-III of the paper).

- :mod:`~repro.analysis.references`: extract ``A[H i + c]`` reference
  functions and offsets; verify *uniformly generated* references.
- :mod:`~repro.analysis.drv`: data-referenced vectors (Definition 1).
- :mod:`~repro.analysis.dependence`: exact dependence existence and
  classification (flow / anti / output / input) on the integer solution
  lattice of ``H t = r``.
- :mod:`~repro.analysis.refgraph`: the data reference graph ``G^A``
  (Definition 6).
- :mod:`~repro.analysis.trace`: the sequential access trace.
- :mod:`~repro.analysis.redundancy`: redundant-computation elimination,
  ``N(S_k)`` sets, ``Val`` sets and false-dependence detection
  (Section III.C).
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "references": (
        "ArrayInfo", "NonUniformReferenceError", "Reference",
        "ReferenceModel", "extract_references",
    ),
    "drv": ("data_referenced_vectors",),
    "dependence": (
        "Dependence", "DependenceKind", "all_dependences",
        "dependence_between", "has_flow_dependence",
        "is_fully_duplicable",
    ),
    "refgraph": ("DataReferenceGraph", "build_reference_graph"),
    "trace": ("AccessEvent", "Computation", "SequentialTrace", "build_trace"),
    "redundancy": ("RedundancyAnalysis", "analyze_redundancy"),
})
