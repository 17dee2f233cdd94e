"""Grid renderers for 2-D data spaces and iteration spaces.

Conventions follow the paper's figures: the first coordinate grows
rightwards along the horizontal axis, the second upwards; each cell
shows the owning block's index (``.`` = element unused / iteration
absent).  Elements owned by several blocks (duplicate data) render as
``*`` with the owner list available separately.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.partition import DataBlock, IterationBlock

Coords = tuple[int, ...]


def _cell(owners: list[int]) -> str:
    if not owners:
        return "."
    if len(owners) == 1:
        v = owners[0]
        return str(v) if v < 36 else "#"
    return "*"


def _axis_ranges(points: Sequence[Coords]) -> tuple[range, range]:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return range(min(xs), max(xs) + 1), range(min(ys), max(ys) + 1)


def render_data_space(elements: Sequence[Coords], title: str = "") -> str:
    """Mark used elements of a 2-D data space with ``o``."""
    if not elements:
        return f"{title}\n(empty)"
    used = set(elements)
    xr, yr = _axis_ranges(list(used))
    lines = [title] if title else []
    for y in reversed(yr):
        row = " ".join("o" if (x, y) in used else "." for x in xr)
        lines.append(f"{y:>3} | {row}")
    lines.append("    +" + "-" * (2 * len(xr)))
    lines.append("      " + " ".join(f"{x % 10}" for x in xr))
    return "\n".join(lines)


def render_data_partition(dblocks: Sequence[DataBlock], title: str = "") -> str:
    """Render block ownership of every element of a 2-D array."""
    owners: dict[Coords, list[int]] = {}
    for db in dblocks:
        for e in db.elements:
            owners.setdefault(e, []).append(db.block_index)
    if not owners:
        return f"{title}\n(empty)"
    for v in owners.values():
        v.sort()
    xr, yr = _axis_ranges(list(owners))
    lines = [title] if title else []
    for y in reversed(yr):
        row = " ".join(_cell(owners.get((x, y), [])) for x in xr)
        lines.append(f"{y:>3} | {row}")
    lines.append("    +" + "-" * (2 * len(xr)))
    lines.append("      " + " ".join(f"{x % 10}" for x in xr))
    return "\n".join(lines)


def render_heatmap(counts: dict[Coords, int], title: str = "") -> str:
    """Render per-element counts of a 2-D space as a density grid.

    Cells show the count itself for 1..9, ``#`` for 10 or more and
    ``.`` for zero/untouched -- the same glyph conventions as the
    partition grids.  Used by the communication-audit dashboard for
    per-array access heatmaps.
    """
    used = {c: n for c, n in counts.items() if n}
    if not used:
        return f"{title}\n(empty)"
    xr, yr = _axis_ranges(list(used))
    lines = [title] if title else []
    for y in reversed(yr):
        cells = []
        for x in xr:
            n = used.get((x, y), 0)
            cells.append("." if n == 0 else str(n) if n < 10 else "#")
        lines.append(f"{y:>3} | {' '.join(cells)}")
    lines.append("    +" + "-" * (2 * len(xr)))
    lines.append("      " + " ".join(f"{x % 10}" for x in xr))
    return "\n".join(lines)


def render_iteration_partition(blocks: Sequence[IterationBlock],
                               title: str = "",
                               mark: Optional[dict[Coords, str]] = None) -> str:
    """Render a 2-D iteration partition; ``mark`` overrides cell glyphs
    (e.g. the paper's Fig. 9 dotted points for S2-only iterations)."""
    owner: dict[Coords, int] = {}
    for b in blocks:
        for it in b.iterations:
            owner[it] = b.index
    if not owner:
        return f"{title}\n(empty)"
    xr, yr = _axis_ranges(list(owner))
    lines = [title] if title else []
    for y in reversed(yr):
        cells = []
        for x in xr:
            if (x, y) not in owner:
                cells.append(".")
            elif mark and (x, y) in mark:
                cells.append(mark[(x, y)])
            else:
                cells.append(_cell([owner[(x, y)]]))
        lines.append(f"{y:>3} | {' '.join(cells)}")
    lines.append("    +" + "-" * (2 * len(xr)))
    lines.append("      " + " ".join(f"{x % 10}" for x in xr))
    return "\n".join(lines)
