"""Graph construction against frozen reference builders.

The R-MAT generator, ``CSRGraph.from_edges``, ``CSRGraph.reverse`` and the
slice builder behind both partitioners are array code.  This module keeps
per-edge reference copies of each (R-MAT's level loop with ``searchsorted``,
dedupe-then-permute, a ``lexsort`` CSR build, a ``zip``-driven transpose and
a per-edge slice loop) and checks that the library produces the same bytes
and dtypes: offsets, adjacency, weights and every ``GraphSlice`` field.

Two things make the outputs comparable at all:

- the R-MAT draw order is fixed: ``scale`` level draws of ``num_edges``
  uniforms, then one ``rng.permutation(num_vertices)``;
- the CSR order is the stable sort of ``(src, dst)``, so duplicate edges
  keep their input order and their weights stay attached.

The last test pins SHA-256 digests of the benchmark workloads' graphs.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    CSRGraph,
    DATASETS,
    contiguous_partition,
    erdos_renyi_graph,
    greedy_edge_cut_partition,
    load_dataset,
    rmat_graph,
    small_world_graph,
)


# ----------------------------------------------------------------------
# Reference builders (per-edge, as first written)
# ----------------------------------------------------------------------
def ref_from_edges(num_vertices, edges, weights=None, name="graph"):
    edge_array = np.asarray(list(edges), dtype=np.int64)
    if edge_array.size == 0:
        edge_array = edge_array.reshape(0, 2)
    weight_array = None
    if weights is not None:
        weight_array = np.asarray(weights, dtype=np.float64)
    order = np.lexsort((edge_array[:, 1], edge_array[:, 0]))
    edge_array = edge_array[order]
    if weight_array is not None:
        weight_array = weight_array[order]
    counts = np.bincount(edge_array[:, 0], minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CSRGraph(
        offsets=offsets, adjacency=edge_array[:, 1], weights=weight_array,
        name=name,
    )


def ref_dedupe_edges(edge_array):
    if edge_array.size == 0:
        return edge_array.reshape(0, 2)
    mask = edge_array[:, 0] != edge_array[:, 1]
    edge_array = edge_array[mask]
    if edge_array.size == 0:
        return edge_array.reshape(0, 2)
    keys = edge_array[:, 0].astype(np.int64) * (edge_array[:, 1].max() + 1)
    keys = keys + edge_array[:, 1]
    _, unique_idx = np.unique(keys, return_index=True)
    return edge_array[np.sort(unique_idx)]


def ref_rmat_graph(
    num_vertices, num_edges, *, a, b, c, seed, name, permute=True
):
    rng = np.random.default_rng(seed)
    scale = int(np.ceil(np.log2(num_vertices)))
    d = 1.0 - a - b - c
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    cumulative = np.cumsum(np.array([a, b, c, d]))
    for level in range(scale):
        draws = rng.random(num_edges)
        quadrant = np.searchsorted(cumulative, draws)
        bit = 1 << (scale - level - 1)
        src += np.where(quadrant >= 2, bit, 0)
        dst += np.where((quadrant == 1) | (quadrant == 3), bit, 0)
    src %= num_vertices
    dst %= num_vertices
    edge_array = ref_dedupe_edges(np.stack([src, dst], axis=1))
    if permute:
        perm = rng.permutation(num_vertices)
        edge_array = perm[edge_array]
    return ref_from_edges(num_vertices, edge_array, name=name)


def ref_erdos_renyi_graph(num_vertices, num_edges, *, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    edge_array = ref_dedupe_edges(np.stack([src, dst], axis=1))
    return ref_from_edges(num_vertices, edge_array, name="erdos-renyi")


def ref_small_world_graph(num_vertices, neighbors, rewire_prob, *, seed):
    rng = np.random.default_rng(seed)
    sources, targets = [], []
    for v in range(num_vertices):
        for k in range(1, neighbors + 1):
            target = (v + k) % num_vertices
            if rng.random() < rewire_prob:
                target = int(rng.integers(0, num_vertices))
            if target != v:
                sources.append(v)
                targets.append(target)
    edge_array = ref_dedupe_edges(np.stack(
        [np.array(sources, dtype=np.int64), np.array(targets, dtype=np.int64)],
        axis=1,
    ))
    return ref_from_edges(num_vertices, edge_array, name="small-world")


def ref_load_dataset(name, *, scale, weighted, seed_offset):
    spec = DATASETS[name]
    vertices, edges = spec.scaled(scale)
    graph = ref_rmat_graph(
        vertices, edges, a=spec.rmat_a, b=spec.rmat_b, c=spec.rmat_c,
        seed=spec.seed + seed_offset,
        name=spec.name if scale == 1.0 else f"{spec.name}@{scale:g}",
    )
    if weighted:
        rng = np.random.default_rng(spec.seed + seed_offset)
        graph = graph.with_weights(rng.uniform(1.0, 10.0, graph.num_edges))
    return graph


def ref_reverse(graph):
    sources = graph.edge_sources()
    return ref_from_edges(
        graph.num_vertices,
        zip(graph.adjacency.tolist(), sources.tolist()),
        weights=None if graph.weights is None else graph.weights.tolist(),
        name=f"{graph.name}^T",
    )


def ref_build_partition(graph, assignment) -> List[Tuple]:
    """Per-slice ``(vertices, subgraph, bsrc, bdst, bw)`` plus local ids."""
    num_slices = int(assignment.max()) + 1 if assignment.size else 0
    local_ids = np.zeros(graph.num_vertices, dtype=np.int64)
    members_of = []
    for s in range(num_slices):
        members = np.flatnonzero(assignment == s)
        members_of.append(members)
        local_ids[members] = np.arange(len(members))
    slices = []
    for s in range(num_slices):
        members = members_of[s]
        internal, internal_w = [], []
        bsrc, bdst, bw = [], [], []
        for gsrc in members:
            lsrc = int(local_ids[gsrc])
            neigh = graph.neighbors(int(gsrc))
            wts = graph.edge_weights(int(gsrc))
            for gdst, w in zip(neigh.tolist(), wts.tolist()):
                if assignment[gdst] == s:
                    internal.append((lsrc, int(local_ids[gdst])))
                    internal_w.append(w)
                else:
                    bsrc.append(lsrc)
                    bdst.append(int(gdst))
                    bw.append(w)
        sub = ref_from_edges(
            len(members), internal,
            weights=internal_w if graph.is_weighted else None,
            name=f"{graph.name}/slice{s}",
        )
        slices.append((
            members, sub,
            np.array(bsrc, dtype=np.int64),
            np.array(bdst, dtype=np.int64),
            np.array(bw, dtype=np.float64),
        ))
    return slices, local_ids


def ref_greedy_assignment(graph, num_slices, balance_slack=0.05):
    n = graph.num_vertices
    capacity = max(int(np.ceil(n / num_slices) * (1.0 + balance_slack)), 1)
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_slices, dtype=np.int64)
    reverse = ref_reverse(graph)
    for v in range(n):
        scores = np.zeros(num_slices, dtype=np.float64)
        for u in graph.neighbors(v):
            if assignment[u] >= 0:
                scores[assignment[u]] += 1.0
        for u in reverse.neighbors(v):
            if assignment[u] >= 0:
                scores[assignment[u]] += 1.0
        penalty = 1.0 - sizes / capacity
        scores = (scores + 1e-9) * np.maximum(penalty, 0.0)
        scores[sizes >= capacity] = -1.0
        target = int(np.argmax(scores))
        assignment[v] = target
        sizes[target] += 1
    return assignment


def ref_contiguous_assignment(graph, num_slices):
    bounds = np.linspace(0, graph.num_vertices, num_slices + 1).astype(np.int64)
    assignment = np.zeros(graph.num_vertices, dtype=np.int64)
    for s in range(num_slices):
        assignment[bounds[s]: bounds[s + 1]] = s
    return assignment


# ----------------------------------------------------------------------
# Byte-level comparison helpers
# ----------------------------------------------------------------------
def assert_same_array(got, want, what):
    assert isinstance(got, np.ndarray), what
    assert got.dtype == want.dtype, (what, got.dtype, want.dtype)
    assert got.shape == want.shape, (what, got.shape, want.shape)
    assert got.tobytes() == want.tobytes(), what


def assert_same_graph(got, want):
    assert got.name == want.name
    assert_same_array(got.offsets, want.offsets, "offsets")
    assert_same_array(got.adjacency, want.adjacency, "adjacency")
    if want.weights is None:
        assert got.weights is None
    else:
        assert_same_array(got.weights, want.weights, "weights")


def assert_same_partition(partition, graph, assignment):
    want_slices, want_local = ref_build_partition(graph, assignment)
    assert_same_array(partition.slice_of_vertex, assignment, "slice_of_vertex")
    assert_same_array(partition.local_id_of_vertex, want_local, "local ids")
    assert len(partition.slices) == len(want_slices)
    for s, (got, want) in enumerate(zip(partition.slices, want_slices)):
        members, sub, bsrc, bdst, bw = want
        assert got.index == s
        assert_same_array(got.vertices, members, "vertices")
        assert_same_graph(got.subgraph, sub)
        assert_same_array(got.boundary_sources, bsrc, "boundary_sources")
        assert_same_array(got.boundary_targets, bdst, "boundary_targets")
        assert_same_array(got.boundary_weights, bw, "boundary_weights")


# ----------------------------------------------------------------------
# Dataset proxies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed_offset", [0, 7919])
@pytest.mark.parametrize("scale", [0.02, 0.1, 0.25])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_proxies_match_the_reference(name, scale, seed_offset):
    for weighted in (False, True):
        got = load_dataset(
            name, scale=scale, weighted=weighted, seed_offset=seed_offset
        )
        want = ref_load_dataset(
            name, scale=scale, weighted=weighted, seed_offset=seed_offset
        )
        assert_same_graph(got, want)
    # ``got`` is the weighted graph: its transpose carries the weights
    assert_same_graph(got.reverse(), ref_reverse(want))
    assignment = ref_contiguous_assignment(got, 4)
    assert_same_partition(contiguous_partition(got, 4), want, assignment)


@pytest.mark.parametrize("num_slices", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", ["WG", "TW"])
def test_dataset_partitions_match_the_reference(name, num_slices):
    graph = load_dataset(name, scale=0.02, weighted=(num_slices % 2 == 0))
    assert_same_partition(
        contiguous_partition(graph, num_slices), graph,
        ref_contiguous_assignment(graph, num_slices),
    )
    assert_same_partition(
        greedy_edge_cut_partition(graph, num_slices), graph,
        ref_greedy_assignment(graph, num_slices),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("permute", [True, False])
@pytest.mark.parametrize(
    "n, m, abc",
    [(2, 5, (0.57, 0.19, 0.19)), (100, 900, (0.25, 0.25, 0.25)),
     (777, 5000, (0.45, 0.15, 0.3)), (1000, 100, (0.6, 0.2, 0.2))],
)
def test_rmat_matches_the_reference(n, m, abc, permute, seed):
    a, b, c = abc
    got = rmat_graph(n, m, a=a, b=b, c=c, seed=seed, permute=permute)
    want = ref_rmat_graph(
        n, m, a=a, b=b, c=c, seed=seed, name="rmat", permute=permute
    )
    assert_same_graph(got, want)


@pytest.mark.parametrize("seed", [0, 5])
def test_uniform_and_small_world_generators_match_the_reference(seed):
    assert_same_graph(
        erdos_renyi_graph(300, 2000, seed=seed),
        ref_erdos_renyi_graph(300, 2000, seed=seed),
    )
    assert_same_graph(
        small_world_graph(200, 4, 0.3, seed=seed),
        ref_small_world_graph(200, 4, 0.3, seed=seed),
    )


# ----------------------------------------------------------------------
# Generated edge lists: duplicates, self loops, isolated vertices, weights
# ----------------------------------------------------------------------
@st.composite
def weighted_edge_lists(draw, max_vertices=30, max_edges=90):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    # a narrow id range forces duplicates and leaves vertices isolated
    hi = draw(st.integers(min_value=0, max_value=n - 1))
    endpoint = st.integers(min_value=0, max_value=hi)
    edges = draw(st.lists(st.tuples(endpoint, endpoint), max_size=max_edges))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False),
            min_size=len(edges), max_size=len(edges),
        ))
    return n, edges, weights


@given(weighted_edge_lists(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_from_edges_and_reverse_match_the_reference(params, as_array):
    n, edges, weights = params
    want = ref_from_edges(n, edges, weights)
    source = edges
    if as_array:
        source = np.array(edges, dtype=np.int64).reshape(-1, 2)
        weights = None if weights is None else np.array(weights)
    got = CSRGraph.from_edges(n, source, weights=weights)
    assert_same_graph(got, want)
    assert_same_graph(got.reverse(), ref_reverse(want))
    assert list(got.edges()) == list(ref_edges(want))


def ref_edges(graph):
    for src in range(graph.num_vertices):
        for dst in graph.neighbors(src):
            yield src, int(dst)


@given(weighted_edge_lists(), st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_partitions_match_the_reference(params, num_slices):
    n, edges, weights = params
    graph = CSRGraph.from_edges(n, edges, weights=weights)
    num_slices = min(num_slices, n)
    assert_same_partition(
        contiguous_partition(graph, num_slices), graph,
        ref_contiguous_assignment(graph, num_slices),
    )
    assert_same_partition(
        greedy_edge_cut_partition(graph, num_slices), graph,
        ref_greedy_assignment(graph, num_slices),
    )


# ----------------------------------------------------------------------
# The benchmark workloads' graphs, pinned
# ----------------------------------------------------------------------
def graph_digest(graph):
    h = hashlib.sha256()
    for array in (graph.offsets, graph.adjacency, graph.weights):
        if array is None:
            h.update(b"none")
            continue
        h.update(array.dtype.str.encode())
        h.update(array.tobytes())
    return h.hexdigest()


# (dataset, scale, weighted, seed_offset) of pagerank-wg, sssp-tw,
# pagerank-sliced and cycle-pagerank, on seeds 0 and 7919
WORKLOAD_GRAPHS = {
    ("WG", 0.125, False, 0):
        "a96f6fc9081bec3adc8bd471d431e5c904181cf61c52ba91e743a48228e37846",
    ("TW", 0.25, True, 0):
        "4d214a61933b16b52263b4b8b8b9000c22e696fc7adf2251ce0cec4df4c52a58",
    ("WG", 0.1, False, 0):
        "03048898c7e5bb97f6577711d5806366d3fe2e23efb7e19de30dd8f5cdbf0d17",
    ("WG", 0.15, False, 0):
        "44a12e63d5a8193056a494b5af3f2329c796af2c954a73413f915f966ddc6ede",
    ("WG", 0.125, False, 7919):
        "2c113973d27771f242e825aa56e3a284e82a8daf7040f4eddff760e27f6d3792",
    ("TW", 0.25, True, 7919):
        "da6399906179a9f36567586648c0eeec8187f381b0acc6141233d9b0bbac2f51",
    ("WG", 0.1, False, 7919):
        "e75634621c05602b31c8e3915d5899efc402dbba4fd8e424ff58e688a4f36e1d",
    ("WG", 0.15, False, 7919):
        "7a9247f33cbe34369e710ef0cca325915f0301eb3805aca859a1d046317da9c0",
}


@pytest.mark.parametrize("key", list(WORKLOAD_GRAPHS))
def test_workload_graph_digests_are_pinned(key):
    name, scale, weighted, seed_offset = key
    graph = load_dataset(
        name, scale=scale, weighted=weighted, seed_offset=seed_offset
    )
    assert graph_digest(graph) == WORKLOAD_GRAPHS[key]
