"""ASCII rendering of partitions -- the data behind Figures 1-10.

The paper's figures are diagrams of data spaces, partitioned data/
iteration blocks, reference graphs and the processor assignment.  Their
information content is the block structure, which we compute; these
helpers render it as deterministic text artifacts that the figure
benches regenerate and the tests pin down.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "ascii": (
        "render_data_partition", "render_data_space",
        "render_iteration_partition",
    ),
    "figures": (
        "fig01_l1_dataspaces", "fig02_l1_data_partition",
        "fig03_l1_iteration_partition", "fig04_l2_data_partition",
        "fig05_l2_iteration_partition", "fig07_l3_reference_graph",
        "fig08_l3_data_partition", "fig09_l3_iteration_partition",
        "fig10_l4_processor_assignment",
    ),
})
