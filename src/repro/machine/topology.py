"""Interconnect topologies.

Node processors are numbered ``0 .. p-1``; the special :data:`HOST`
node (-1) models the paper's host processor, attached to node 0 (a
corner of the mesh).  Hop counts come from exact shortest paths on the
topology graph (one breadth-first search per node), so routing distance
is topology-accurate.
"""

from __future__ import annotations

from typing import Iterable

#: The host processor's node id.
HOST = -1


class Topology:
    """Base class: a connected undirected graph over nodes + HOST."""

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int]],
                 host_attach: int = 0):
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes
        self._adj: dict[int, set[int]] = {
            n: set() for n in (HOST, *range(num_nodes))}
        for a, b in (*edges, (HOST, host_attach)):
            self._adj.setdefault(a, set()).add(b)
            self._adj.setdefault(b, set()).add(a)
        self._hops = {src: self._bfs(src) for src in self._adj}
        if len(self._hops[HOST]) != len(self._adj):
            raise ValueError("topology graph is not connected")

    def _bfs(self, src: int) -> dict[int, int]:
        """Hop count from ``src`` to every node it can reach."""
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for a in frontier:
                for b in self._adj[a]:
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        return dist

    # -- queries -----------------------------------------------------------
    def nodes(self) -> list[int]:
        return list(range(self.num_nodes))

    def hops(self, a: int, b: int) -> int:
        """Shortest-path hop count between two nodes (0 for a == b)."""
        return self._hops[a][b]

    def neighbors(self, a: int) -> list[int]:
        return sorted(self._adj[a])

    def diameter_from(self, src: int) -> int:
        """Longest shortest path from ``src`` to any node processor."""
        return max(self.hops(src, n) for n in self.nodes())

    def chain_length(self, src: int, dsts: list[int]) -> int:
        """Greedy nearest-neighbor path length visiting all ``dsts`` from ``src``.

        Used to cost a store-and-forward multicast chain; exact optimal
        routing is a TSP, the greedy chain is the standard practical
        schedule and is optimal for row/column sets on a mesh.
        """
        remaining = set(dsts)
        remaining.discard(src)
        total = 0
        cur = src
        while remaining:
            nxt = min(remaining, key=lambda d: (self.hops(cur, d), d))
            total += self.hops(cur, nxt)
            remaining.remove(nxt)
            cur = nxt
        return total

    def describe(self) -> str:
        return f"{type(self).__name__}(p={self.num_nodes})"


class Mesh2D(Topology):
    """A ``rows x cols`` 2-D mesh; node ``r*cols + c``; host at node 0."""

    def __init__(self, rows: int, cols: int):
        self.rows, self.cols = rows, cols
        edges = []
        for r in range(rows):
            for c in range(cols):
                n = r * cols + c
                if c + 1 < cols:
                    edges.append((n, n + 1))
                if r + 1 < rows:
                    edges.append((n, n + cols))
        super().__init__(rows * cols, edges)

    def coords(self, node: int) -> tuple[int, int]:
        return divmod(node, self.cols)

    def node_at(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"({r},{c}) outside {self.rows}x{self.cols} mesh")
        return r * self.cols + c

    def row_nodes(self, r: int) -> list[int]:
        return [self.node_at(r, c) for c in range(self.cols)]

    def col_nodes(self, c: int) -> list[int]:
        return [self.node_at(r, c) for r in range(self.rows)]

    def describe(self) -> str:
        return f"Mesh2D({self.rows}x{self.cols})"
