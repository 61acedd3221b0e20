"""Edge-list and npz serialization round-trips."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    CSRGraph,
    load_edge_list,
    load_npz,
    random_weights,
    rmat,
    save_edge_list,
    save_npz,
)


def graphs_equal(a: CSRGraph, b: CSRGraph) -> bool:
    if a.num_vertices != b.num_vertices or a.num_edges != b.num_edges:
        return False
    if not np.array_equal(a.out_indptr, b.out_indptr):
        return False
    if not np.array_equal(a.out_indices, b.out_indices):
        return False
    if (a.out_weights is None) != (b.out_weights is None):
        return False
    if a.out_weights is not None and not np.allclose(
        a.out_weights, b.out_weights
    ):
        return False
    return True


class TestEdgeListRoundtrip:
    def test_unweighted(self, tmp_path):
        g = rmat(scale=6, edge_factor=4, seed=2)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        assert graphs_equal(g, load_edge_list(path))

    def test_weighted(self, tmp_path):
        g = random_weights(rmat(scale=5, edge_factor=3, seed=1), seed=4)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        assert graphs_equal(g, load_edge_list(path))

    def test_header_preserves_isolated_tail_vertices(self, tmp_path):
        g = CSRGraph.from_edges(10, [(0, 1)])
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        assert load_edge_list(path).num_vertices == 10

    def test_explicit_vertex_count_overrides(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        assert load_edge_list(path, num_vertices=5).num_vertices == 5

    def test_infers_count_without_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 4\n2 3\n")
        assert load_edge_list(path).num_vertices == 5

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n\n0 1\n# another\n1 2\n")
        assert load_edge_list(path).num_edges == 2

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(GraphError):
            load_edge_list(path)

    def test_mixed_weighting_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.5\n1 0\n")
        with pytest.raises(GraphError):
            load_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("")
        g = load_edge_list(path)
        assert g.num_vertices == 0
        assert g.num_edges == 0

    @pytest.mark.parametrize("text, where", [
        ("0 1\n1 x\n", ":2:"),
        ("0 1.5\n", ":1:"),
        ("0 1 abc\n", ":1:"),
        ("# vertices three\n0 1\n", ":1:"),
    ], ids=["bad-id", "float-id", "bad-weight", "bad-header"])
    def test_bad_token_names_its_line(self, tmp_path, text, where):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(GraphError, match=f"{path}{where}"):
            load_edge_list(path)

    @pytest.mark.parametrize("text", [
        "-1 0\n", "# vertices 3\n0 3\n",
    ], ids=["negative-id", "id-past-header"])
    def test_id_out_of_range_rejected(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(GraphError):
            load_edge_list(path)

    def test_missing_file_is_a_graph_error(self, tmp_path):
        path = tmp_path / "absent.txt"
        with pytest.raises(GraphError, match=str(path)):
            load_edge_list(path)

    def test_binary_file_is_a_graph_error(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(b"0 1\n\xff\xfe\x00\n")
        with pytest.raises(GraphError, match="UTF-8"):
            load_edge_list(path)


class TestNpzRoundtrip:
    def test_unweighted(self, tmp_path):
        g = rmat(scale=7, edge_factor=4, seed=3)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        assert graphs_equal(g, load_npz(path))

    def test_weighted(self, tmp_path):
        g = random_weights(rmat(scale=5, edge_factor=4, seed=5), seed=6)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        assert graphs_equal(g, load_npz(path))

    def test_empty_graph(self, tmp_path):
        g = CSRGraph.from_edges(3, [])
        path = tmp_path / "g.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        assert loaded.num_vertices == 3
        assert loaded.num_edges == 0
