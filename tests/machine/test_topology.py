"""Interconnect topologies and routing distances."""

import pytest

from repro.machine import HOST, Mesh2D, Topology


class TestMesh2D:
    def test_structure(self):
        m = Mesh2D(4, 4)
        assert m.num_nodes == 16
        assert m.coords(5) == (1, 1)
        assert m.node_at(1, 1) == 5

    def test_manhattan_hops(self):
        m = Mesh2D(4, 4)
        assert m.hops(0, 15) == 6  # (0,0) -> (3,3)
        assert m.hops(0, 3) == 3
        assert m.hops(5, 5) == 0

    def test_host_attached_to_corner(self):
        m = Mesh2D(4, 4)
        assert m.hops(HOST, 0) == 1
        assert m.hops(HOST, 15) == 7
        assert m.diameter_from(HOST) == 7

    def test_rows_and_cols(self):
        m = Mesh2D(3, 3)
        assert m.row_nodes(1) == [3, 4, 5]
        assert m.col_nodes(2) == [2, 5, 8]

    def test_node_at_bounds(self):
        with pytest.raises(IndexError):
            Mesh2D(2, 2).node_at(2, 0)

    def test_neighbors(self):
        m = Mesh2D(3, 3)
        assert m.neighbors(4) == [1, 3, 5, 7]  # center of 3x3
        assert HOST in m.neighbors(0)

    def test_single_node_mesh(self):
        m = Mesh2D(1, 1)
        assert m.hops(HOST, 0) == 1


class TestChainLength:
    def test_row_chain_from_host(self):
        m = Mesh2D(4, 4)
        # host -> node 0 -> 1 -> 2 -> 3: 4 hops total
        assert m.chain_length(HOST, m.row_nodes(0)) == 4

    def test_column_chain(self):
        m = Mesh2D(4, 4)
        # host -> 0 -> 4 -> 8 -> 12
        assert m.chain_length(HOST, m.col_nodes(0)) == 4

    def test_far_row(self):
        m = Mesh2D(4, 4)
        # host -> (3 rows down) + 3 across = 1+3 + 3 = 7
        assert m.chain_length(HOST, m.row_nodes(3)) == 7

    def test_src_excluded(self):
        m = Mesh2D(2, 2)
        assert m.chain_length(0, [0]) == 0
        assert m.chain_length(0, [0, 1]) == 1


class TestHopCounts:
    """Every value below is computed by hand from the mesh's closed
    form, not read back from the breadth-first search."""

    def test_mesh_is_manhattan_distance(self):
        m = Mesh2D(3, 4)
        for a in m.nodes():
            for b in m.nodes():
                (ra, ca), (rb, cb) = m.coords(a), m.coords(b)
                assert m.hops(a, b) == abs(ra - rb) + abs(ca - cb)
        assert m.hops(0, 11) == 5 and m.hops(3, 8) == 5

    def test_host_is_one_hop_beyond_its_attachment(self):
        for topo in (Mesh2D(3, 4), Mesh2D(1, 5)):
            assert topo.neighbors(HOST) == [0]
            for n in topo.nodes():
                assert topo.hops(HOST, n) == 1 + topo.hops(0, n)
                assert topo.hops(n, HOST) == topo.hops(HOST, n)
        off_corner = Topology(3, [(0, 1), (1, 2)], host_attach=2)
        assert [off_corner.hops(HOST, n) for n in range(3)] == [3, 2, 1]

    def test_disconnected_edge_list_raises(self):
        with pytest.raises(ValueError, match="not connected"):
            Topology(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="not connected"):
            Topology(3, [(0, 1)])  # node 2 isolated
