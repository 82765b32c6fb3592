"""Input validation: typed GraphValidationError with location context."""

import numpy as np
import pytest

from repro.errors import GraphValidationError
from repro.graph import CSRGraph, load_csr, load_edge_list, save_csr


def write(tmp_path, text, name="bad.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestEdgeListValidation:
    def test_non_integer_endpoint_names_the_line(self, tmp_path):
        path = write(tmp_path, "0 1\n0 two\n")
        with pytest.raises(GraphValidationError, match="integer endpoints") as info:
            load_edge_list(path)
        assert info.value.context["line"] == 2
        assert str(path) in str(info.value)

    def test_negative_endpoint_rejected(self, tmp_path):
        path = write(tmp_path, "0 1\n-3 1\n")
        with pytest.raises(GraphValidationError, match="negative endpoint") as info:
            load_edge_list(path)
        assert info.value.context["line"] == 2

    def test_out_of_range_endpoint_rejected(self, tmp_path):
        path = write(tmp_path, "0 1\n0 9\n")
        with pytest.raises(GraphValidationError, match="out of range"):
            load_edge_list(path, num_vertices=4)

    def test_bad_weight_rejected(self, tmp_path):
        path = write(tmp_path, "0 1 heavy\n")
        with pytest.raises(GraphValidationError, match="numeric weight"):
            load_edge_list(path, weighted=True)

    def test_nan_weight_rejected(self, tmp_path):
        path = write(tmp_path, "0 1 nan\n")
        with pytest.raises(GraphValidationError, match="NaN"):
            load_edge_list(path, weighted=True)

    def test_negative_weight_rejected_by_default(self, tmp_path):
        path = write(tmp_path, "0 1 -0.5\n")
        with pytest.raises(GraphValidationError, match="negative weight"):
            load_edge_list(path, weighted=True)
        graph = load_edge_list(path, weighted=True, allow_negative_weights=True)
        assert graph.weights[0] == -0.5

    def test_error_is_a_value_error(self, tmp_path):
        # callers written against the old generic errors keep working
        path = write(tmp_path, "0\n")
        with pytest.raises(ValueError):
            load_edge_list(path)


class TestCSRBundleValidation:
    def test_truncated_bundle_names_the_file(self, tmp_path):
        graph = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        path = tmp_path / "g.npz"
        save_csr(graph, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(GraphValidationError, match="corrupt") as info:
            load_csr(path)
        assert info.value.context["path"] == str(path)

    def test_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "g.npz"
        np.savez_compressed(path, offsets=np.array([0, 1, 2]))
        with pytest.raises(GraphValidationError, match="missing array"):
            load_csr(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csr(tmp_path / "absent.npz")


class TestInMemoryValidation:
    def test_out_of_range_edge_names_the_index(self):
        with pytest.raises(GraphValidationError, match="edge index 1") as info:
            CSRGraph.from_edges(3, [(0, 1), (0, 7)])
        assert info.value.context["index"] == 1

    def test_non_integral_endpoint_names_the_index(self):
        # used to truncate silently to the edge 0 -> 1
        with pytest.raises(GraphValidationError, match="edge index 0") as info:
            CSRGraph.from_edges(3, [(0, 1.7), (1, 2)])
        assert info.value.context["index"] == 0

    @pytest.mark.parametrize("container", [list, np.array])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_endpoint_names_the_index(self, bad, container):
        edges = container([(0, 1), (1, 2), (bad, 1)])
        with pytest.raises(GraphValidationError, match="edge index 2") as info:
            CSRGraph.from_edges(3, edges)
        assert info.value.context["index"] == 2

    def test_non_numeric_endpoint_rejected(self):
        with pytest.raises(GraphValidationError, match="integers"):
            CSRGraph.from_edges(3, [(0, "one")])

    def test_integral_floats_build_the_same_graph(self):
        floats = CSRGraph.from_edges(3, np.array([[1.0, 2.0], [0.0, 1.0]]))
        ints = CSRGraph.from_edges(3, [(1, 2), (0, 1)])
        assert floats.adjacency.dtype == np.int64
        assert np.array_equal(floats.offsets, ints.offsets)
        assert np.array_equal(floats.adjacency, ints.adjacency)

    def test_nan_weights_rejected(self):
        with pytest.raises(GraphValidationError, match="NaN"):
            CSRGraph.from_edges(
                2, [(0, 1)], weights=[float("nan")]
            )

    def test_inconsistent_offsets_rejected(self):
        with pytest.raises(GraphValidationError, match="non-decreasing"):
            CSRGraph(offsets=np.array([0, 2, 1]), adjacency=np.array([0]))
