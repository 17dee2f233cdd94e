"""The data reference graph G^A (Definition 6, Figs. 6-7)."""

from repro.analysis import build_reference_graph, extract_references
from repro.analysis.refgraph import build_all_reference_graphs
from repro.lang import parse


class TestL3Graph:
    """Fig. 7 exactly (our read numbering: r1 = A[i-1,j-1] in S1,
    r2 = A[i+1,j-2] in S2 -- the paper numbers them the other way)."""

    def setup_method(self):
        from repro.lang import catalog

        self.model = extract_references(catalog.l3())
        self.g = build_reference_graph(self.model, "A")

    def test_vertices(self):
        assert [self.g.vertex_name(w) for w in self.g.writes] == ["w1", "w2"]
        assert [self.g.vertex_name(r) for r in self.g.reads] == ["r1", "r2"]

    def test_edge_set_matches_fig7(self):
        edges = set(self.g.edge_names())
        # our r1 = A[i-1,j-1] (S1), r2 = A[i+1,j-2] (S2): the paper's
        # r2 and r1 respectively -- same graph under that relabeling.
        assert edges == {
            ("w1", "w2", "output"),
            ("r2", "r1", "input"),
            ("r2", "w1", "anti"),
            ("r2", "w2", "anti"),
            ("w1", "r1", "flow"),
            ("w2", "r1", "flow"),
        }

    def test_edges_of_kind(self):
        from repro.analysis import DependenceKind

        assert len(self.g.edges_of_kind(DependenceKind.FLOW)) == 2
        assert len(self.g.edges_of_kind(DependenceKind.ANTI)) == 2
        assert len(self.g.edges_of_kind(DependenceKind.OUTPUT)) == 1
        assert len(self.g.edges_of_kind(DependenceKind.INPUT)) == 1

    def test_find_edge(self):
        e = self.g.find_edge("w2", "r1")
        assert e is not None
        assert tuple(int(x) for x in e.witness) == (1, 0)  # the paper's t1
        assert self.g.find_edge("r1", "r1") is None

    def test_vertex_and_edge_counts(self):
        g = self.g
        assert {g.vertex_name(r) for r in g.writes + g.reads} == \
            {"w1", "w2", "r1", "r2"}
        assert len(g.edge_names()) == 6


class TestOtherGraphs:
    def test_single_reference_graph_empty(self, l1):
        model = extract_references(l1)
        g = build_reference_graph(model, "B")
        assert g.edges == []
        assert len(g.writes) == 1 and len(g.reads) == 0

    def test_build_all(self, l1):
        graphs = build_all_reference_graphs(extract_references(l1))
        assert set(graphs) == {"A", "B", "C"}
        assert [e[2] for e in graphs["C"].edge_names()] == ["input"]

    def test_self_accumulation_graph(self, l5):
        model = extract_references(l5)
        g = build_reference_graph(model, "C")
        kinds = {k for _, _, k in g.edge_names()}
        # C[i,j] read+write with equal offsets: flow and anti between the
        # two references (output reuse happens through the single write
        # reference itself and is carried by Ker(H_C), not a graph edge)
        assert kinds == {"flow", "anti"}

    def test_iter_protocol(self, l3):
        g = build_reference_graph(extract_references(l3), "A")
        assert len(list(iter(g))) == 6
