"""Distributed-memory multicomputer simulator.

The paper evaluates on a 16-node Transputer multicomputer (mesh).  We
simulate the same structure:

- :mod:`~repro.machine.topology`: the mesh interconnect plus a *host*
  processor attached to node 0 (the paper's host distributes initial
  data to the nodes);
- :mod:`~repro.machine.cost`: the ``(t_comp, t_start, t_comm)`` cost
  model, with Transputer-calibrated defaults fitted to Table I;
- :mod:`~repro.machine.network`: message primitives with the paper's
  accounting -- pipelined point-to-point sends
  (``t_start + (w + h - 1) t_comm``) and store-and-forward multicast /
  broadcast (``t_start + path * w * t_comm``), plus full message logs;
- :mod:`~repro.machine.memory` / :mod:`~repro.machine.processor`: local
  memories with ownership bookkeeping and per-processor counters;
- :mod:`~repro.machine.machine`: the assembled :class:`Multicomputer`.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "cost": ("CostModel", "TRANSPUTER", "UNIT_COSTS"),
    "topology": ("HOST", "Mesh2D", "Topology"),
    "message": ("Message",),
    "memory": ("LocalMemory", "RemoteAccessError"),
    "processor": ("Processor",),
    "network": ("Network",),
    "machine": ("Multicomputer",),
})
