"""Last-writer merge of replicated array copies.

Under the duplicate-data strategy several processors hold (and may
write) private copies of one element; the sequentially correct final
value is the one produced by the lexicographically last writing
computation -- exactly the output-dependence order the paper preserves.
:func:`merge_copies` reconstructs global arrays by picking, per
element, the copy with the greatest write timestamp (initial values
where nobody wrote).

The merge walks ``result.write_stamps`` and the per-block memory dicts
element by element, whatever engine filled them (the shared-memory
store rebuilds both in :meth:`SharedBlockStore.collect`).  Write stamps
are globally unique in any real run (stamp = ``rank * nstmts + k`` over
a partition of the iteration space); on synthetic equal stamps the
first entry seen wins (strict ``>`` comparison).  A run that stayed on
its flat store (an engine ran on it in place, nothing has been read as
a dict since) is merged box by box straight from the store: its written
arrays are partitioned, so every written slot has exactly one writer.
"""

from __future__ import annotations

from repro.runtime.arrays import Coords, DataSpace
from repro.runtime.parallel import ParallelResult


def merge_copies(result: ParallelResult,
                 initial: dict[str, DataSpace]) -> dict[str, DataSpace]:
    """Merge local copies into fresh global arrays.

    ``initial`` must be the same initial arrays the parallel run was
    seeded from (unwritten elements keep their initial values).
    """
    merged = {name: ds.copy() for name, ds in initial.items()}
    store = result.store
    if store is not None and store.stamps is not None \
            and store.all_views(result.memories):
        for name, stamps in store.stamps.items():
            spec = store.layout.specs[name]
            if spec.size:
                kept = merged[name].box_values(spec.lo, spec.shape)
                merged[name].assign_box(spec.lo, spec.shape, [
                    new if stamp >= 0 else old for new, stamp, old
                    in zip(store.grids[name], stamps, kept)])
        return merged
    # element -> (stamp, value) of the best writer seen so far
    best: dict[tuple[str, Coords], tuple[int, float]] = {}
    for (block, array, coords), stamp in result.write_stamps.items():
        value = result.memories[block].values[array][coords]
        key = (array, coords)
        cur = best.get(key)
        if cur is None or stamp > cur[0]:
            best[key] = (stamp, value)
    for (array, coords), (_stamp, value) in best.items():
        merged[array][coords] = value
    return merged
