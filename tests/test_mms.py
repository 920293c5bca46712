import copy
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import (
    contract,
    dense_graph_energy,
    laplacian_graph_capacity,
    loop_planar_sheet,
    loop_space_from_doc,
    random_component_condenser,
    random_graph_condenser,
    random_matrix_space,
    random_sparse_condenser,
)
import varcap.errors
import varcap.mms
from varcap.errors import DomainError, EmptyRegionWarning, MetricError
from varcap.geometry import Dimension
from varcap.mms import (
    Disk,
    FiniteMetricMeasureSpace,
    GraphCondenser,
    _free_mask,
    _free_system,
    build_planar_sheet,
    capacity_csv,
    graph_capacity,
    harmonicity_residual,
    union_spaces,
)
from varcap.sequences import limit_plane_condenser


def path_space():
    return FiniteMetricMeasureSpace(
        ["v0", "v1", "v2"],
        [1.0, 1.0, 1.0],
        coords=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float),
        edges=np.array([[0, 1], [1, 2]]),
        conductance=[1.0, 1.0],
    )


# -- space construction -------------------------------------------------------


def test_metric_validation_catches_triangle_violation():
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(MetricError, match="triangle"):
        FiniteMetricMeasureSpace(["a", "b", "c"], [1, 1, 1], dist_matrix=d)


def test_metric_validation_catches_asymmetry():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(MetricError, match="symmetric"):
        FiniteMetricMeasureSpace(["a", "b"], [1, 1], dist_matrix=d)


def test_shortest_path_matrices_pass_validation():
    rng = np.random.default_rng(0)
    for _ in range(5):
        random_matrix_space(int(rng.integers(3, 10)), rng)


def test_conductance_must_be_positive():
    with pytest.raises(DomainError):
        FiniteMetricMeasureSpace(
            ["a", "b"],
            [1, 1],
            coords=np.zeros((2, 3)),
            edges=np.array([[0, 1]]),
            conductance=[0.0],
        )


def test_duplicate_labels_rejected():
    with pytest.raises(DomainError):
        FiniteMetricMeasureSpace(["a", "a"], [1, 1], coords=np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_distances_rejected(bad):
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    d[0, 2] = d[2, 0] = bad
    with pytest.raises(MetricError, match="finite"):
        FiniteMetricMeasureSpace(["a", "b", "c"], [1, 1, 1], dist_matrix=d)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coordinates_rejected(bad):
    coords = np.zeros((2, 3))
    coords[1, 0] = bad
    with pytest.raises(DomainError, match="finite"):
        FiniteMetricMeasureSpace(["a", "b"], [1, 1], coords=coords)


# -- graph capacity ------------------------------------------------------------


def test_path_series_resistance():
    pot = graph_capacity(GraphCondenser(path_space(), ("v0",), ("v2",), Dimension(3)))
    assert pot.raw_energy == pytest.approx(0.5, abs=1e-14)
    assert np.allclose(pot.u, [1.0, 0.5, 0.0], atol=1e-14)
    assert pot.capacity == pytest.approx(0.5 / Dimension(3).gamma, rel=1e-14)


def test_disconnected_inner_set_has_zero_capacity():
    space = FiniteMetricMeasureSpace(
        ["a", "b", "c", "d"],
        np.ones(4),
        coords=np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1], [1, 0, 1]], dtype=float),
        edges=np.array([[0, 1], [2, 3]]),
        conductance=[1.0, 1.0],
    )
    pot = graph_capacity(GraphCondenser(space, ("a",), ("c", "d"), Dimension(2)))
    assert pot.raw_energy == 0.0
    assert pot.capacity == 0.0
    assert pot.n_free == 0  # no node is free
    assert pot.u[space.index("a")] == 1.0 and pot.u[space.index("b")] == 1.0


def test_brute_force_equivalence_small_graphs():
    rng = np.random.default_rng(2024)
    dim_gamma_checked = False
    for _ in range(100):
        cond = random_graph_condenser(int(rng.integers(2, 7)), rng)
        pot = graph_capacity(cond)
        oracle_energy, _ = dense_graph_energy(cond.space, cond.inner, cond.outer)
        assert pot.raw_energy == pytest.approx(oracle_energy, abs=1e-10, rel=1e-10)
        assert pot.capacity == pytest.approx(oracle_energy / cond.dim.gamma, rel=1e-12, abs=1e-14)
        dim_gamma_checked = True
    assert dim_gamma_checked


@settings(max_examples=10, deadline=None)
@given(
    n=st.floats(np.log(4), np.log(800)).map(lambda x: int(np.exp(x))),
    decades=st.floats(0.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2050, decades=6.0, seed=1)  # 1,996 free nodes: the top of the size range covered here
@example(n=78, decades=5.976875984746526, seed=32363176)  # residual 6.1e-11 of b, backward error 1.5e-16
def test_sparse_solve_matches_dense_oracle(n, decades, seed):
    from scipy.sparse.csgraph import connected_components

    cond = random_sparse_condenser(n, np.random.default_rng(seed), decades)
    oracle, _ = dense_graph_energy(cond.space, cond.inner, cond.outer)
    pot = graph_capacity(cond)
    assert pot.raw_energy == pytest.approx(oracle, rel=1e-10, abs=1e-10)
    # the true residual of the factored block, as a backward error: at most
    # 3.4e-16 over 20,000 draws of this range.  Relative to b it reached
    # 6.1e-11, where 6 decades of conductance leave b small beside A u.
    _, comp = connected_components(cond.space.adjacency(), directed=False)
    both = np.intersect1d(comp[cond.k_idx], comp[cond.b_idx])
    free = np.flatnonzero(_free_mask(cond) & np.isin(comp, both))
    assert pot.n_free == free.size
    A, b = _free_system(cond, free)
    u = pot.u[free]
    residual = b - A @ u
    scale = abs(A).sum(axis=1).max() * np.abs(u).max(initial=0.0) + np.abs(b).max(initial=0.0)
    assert np.abs(residual).max(initial=0.0) <= 1e-15 * scale


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 7), extra=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_stranded_component_adds_no_energy(n, extra, seed):
    # a path with no edge to the condenser and no node of K or B sits at 0
    rng = np.random.default_rng(seed)
    cond = random_graph_condenser(n, rng)
    stranded = FiniteMetricMeasureSpace(
        [f"w{k}" for k in range(extra)], np.ones(extra), coords=rng.uniform(-1.0, 1.0, size=(extra, 3)),
        edges=np.column_stack([np.arange(extra - 1), np.arange(1, extra)]),
        conductance=rng.uniform(0.1, 3.0, size=extra - 1),
    )
    alone = graph_capacity(cond)
    joined = graph_capacity(GraphCondenser(union_spaces(cond.space, stranded), cond.inner, cond.outer, cond.dim))
    assert np.all(joined.u[cond.space.n :] == 0.0)
    assert joined.u[: cond.space.n] == pytest.approx(alone.u, rel=1e-12, abs=1e-14)
    assert joined.capacity == pytest.approx(alone.capacity, rel=1e-12, abs=1e-14)


def test_no_free_node_solves_nothing():
    # every node is held, so the energy is the conductance of the K-B edges
    space = FiniteMetricMeasureSpace(
        ["a", "b", "c"],
        np.ones(3),
        coords=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
        edges=np.array([[0, 1], [1, 2], [0, 2]]),
        conductance=[2.0, 3.0, 5.0],
    )
    pot = graph_capacity(GraphCondenser(space, ("a",), ("b", "c"), Dimension(2)))
    assert pot.n_free == 0
    assert np.array_equal(pot.u, [1.0, 0.0, 0.0])
    assert pot.raw_energy == 7.0
    assert pot.capacity == 7.0 / Dimension(2).gamma


def test_repeated_solve_is_bit_identical():
    # the ladder's coarse rung, the plane every ex4 family capacity reports
    cond = limit_plane_condenser(0.1, 4.0)
    first, second = graph_capacity(cond), graph_capacity(cond)
    assert first.n_free > 0
    assert second.n_free == first.n_free
    assert second.capacity == first.capacity and np.array_equal(second.u, first.u)


def test_energy_past_the_float_range_raises():
    space = FiniteMetricMeasureSpace(
        ["a", "b", "c"],
        np.ones(3),
        coords=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float),
        edges=np.array([[0, 1], [0, 2]]),
        conductance=[1e308, 1e308],
    )
    with pytest.raises(DomainError, match="capacity exceeds the float range"):
        graph_capacity(GraphCondenser(space, ("a",), ("b", "c"), Dimension(2)))


@pytest.mark.parametrize("c", [1e200, 1e308])
def test_huge_conductances_solve_without_overflow(c):
    # the solve runs on conductances scaled into [1/2, 1), so no pivot of
    # the factorisation overflows
    space = FiniteMetricMeasureSpace(
        ["a", "b", "c"],
        np.ones(3),
        coords=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float),
        edges=np.array([[0, 1], [1, 2]]),
        conductance=[c, c],
    )
    pot = graph_capacity(GraphCondenser(space, ("a",), ("c",), Dimension(2)))
    assert pot.u[1] == 0.5
    assert pot.raw_energy == c / 2.0


@pytest.mark.parametrize("low, refused", [(1e-30, True), (1e-7, False)])
def test_conductance_the_scaling_would_lose_is_refused(low, refused):
    # scaled by 2^-997, 1e-30 falls below the smallest subnormal and the
    # free node's row of A would be zero; 1e-7 scales to a normal float
    space = FiniteMetricMeasureSpace(
        ["k", "y", "b"],
        np.ones(3),
        coords=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float),
        edges=np.array([[0, 2], [0, 1], [1, 2]]),
        conductance=[1e300, low, low],
    )
    cond = GraphCondenser(space, ("k",), ("b",), Dimension(2))
    if refused:
        with pytest.raises(DomainError, match=r"conductance 1e-30 at a free node is more than 2\^1022 times"):
            graph_capacity(cond)
    else:
        assert graph_capacity(cond).u[1] == 0.5


def test_contract_merges_classes():
    # a 4-cycle a-b-c-d-a with the chord b-d; b and d form one class
    space = FiniteMetricMeasureSpace(
        ["a", "b", "c", "d"],
        [1.0, 2.0, 3.0, 4.0],
        coords=np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float),
        edges=np.array([[0, 1], [1, 2], [2, 3], [3, 0], [1, 3]]),
        conductance=[1.0, 2.0, 3.0, 4.0, 5.0],
    )
    quotient = contract(GraphCondenser(space, ["a"], ["c"], Dimension(2)), np.array([7, 3, 9, 3]))
    assert quotient.space.labels == ["b", "a", "c"]  # classes in id order, each labelled by its first member
    assert np.array_equal(quotient.space.weight, [6.0, 1.0, 3.0])
    assert np.array_equal(quotient.space.coords, space.coords[[1, 0, 2]])
    assert np.array_equal(quotient.space.edges, [[0, 1], [0, 2]])
    assert np.array_equal(quotient.space.conductance, [5.0, 5.0])
    assert quotient.inner == ("a",) and quotient.outer == ("c",)
    assert graph_capacity(quotient).raw_energy == 2.5  # two conductances of 5 in series


@pytest.mark.parametrize("classes, split", [([0, 0, 1], "K"), ([0, 1, 1], "B")])
def test_contract_refuses_a_split_class(classes, split):
    cond = GraphCondenser(path_space(), ["v0"], ["v2"], Dimension(2))
    with pytest.raises(DomainError, match=f"{split} splits a class"):
        contract(cond, np.array(classes))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 9), glue=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_contracting_a_mirrored_graph_keeps_its_capacity(n, glue, seed):
    # a random graph glued to its mirror image by mirrored pairs of edges
    # (i, j') and (j, i'), with mirrored K and B: merging each node with its
    # image keeps the capacity
    rng = np.random.default_rng(seed)
    half = random_graph_condenser(n, rng)
    ends = rng.integers(0, n, size=(glue, 2))
    cross = rng.uniform(0.1, 3.0, size=glue)
    space = FiniteMetricMeasureSpace(
        [f"v{k}" for k in range(2 * n)],
        np.tile(half.space.weight, 2),
        coords=np.vstack([half.space.coords, half.space.coords * [-1.0, 1.0, 1.0]]),
        edges=np.vstack([half.space.edges, half.space.edges + n, ends + [0, n], ends[:, ::-1] + [0, n]]),
        conductance=np.concatenate([half.space.conductance, half.space.conductance, cross, cross]),
    )
    full = GraphCondenser(
        space, np.concatenate([half.k_idx, half.k_idx + n]), np.concatenate([half.b_idx, half.b_idx + n]), half.dim
    )
    quotient = contract(full, np.arange(2 * n) % n)
    assert quotient.space.n == n
    assert graph_capacity(quotient).capacity == pytest.approx(graph_capacity(full).capacity, rel=1e-12, abs=0.0)


def test_monotone_in_inner_set():
    rng = np.random.default_rng(7)
    for _ in range(50):
        cond = random_graph_condenser(int(rng.integers(3, 8)), rng)
        cap = graph_capacity(cond).capacity
        spare = [lab for lab in cond.space.labels if lab not in cond.inner and lab not in cond.outer]
        if not spare:
            continue
        bigger = GraphCondenser(cond.space, cond.inner + (spare[0],), cond.outer, cond.dim)
        assert graph_capacity(bigger).capacity >= cap - 1e-12


def test_monotone_in_conductance():
    rng = np.random.default_rng(8)
    for _ in range(25):
        cond = random_graph_condenser(int(rng.integers(3, 7)), rng)
        if cond.space.edges.shape[0] == 0:
            continue
        cap = graph_capacity(cond).capacity
        boosted_c = cond.space.conductance.copy()
        k = int(rng.integers(0, boosted_c.size))
        boosted_c[k] *= 3.0
        boosted = FiniteMetricMeasureSpace(
            cond.space.labels,
            cond.space.weight,
            coords=cond.space.coords,
            edges=cond.space.edges,
            conductance=boosted_c,
        )
        cap2 = graph_capacity(GraphCondenser(boosted, cond.inner, cond.outer, cond.dim)).capacity
        assert cap2 >= cap - 1e-12


# A first part holding K (and B, or not), then parts meeting only K, only B,
# both or neither; size-1 parts are isolated nodes.
_PARTS = st.tuples(
    st.tuples(st.integers(2, 60), st.sampled_from(["KB", "KB", "K"])),
    st.lists(st.tuples(st.integers(1, 12), st.sampled_from(["K", "B", "", "KB"])), max_size=6),
).map(lambda parts: [parts[0], *[(max(size, 2), role) if role == "KB" else (size, role) for size, role in parts[1]]])


@settings(max_examples=80, deadline=None)
@given(parts=_PARTS, decades=st.floats(0.0, 12.0), seed=st.integers(0, 2**32 - 1))
def test_free_block_solve_matches_the_full_laplacian_bit_for_bit(parts, decades, seed):
    # degrees stay at most 8: there the full Laplacian's CSR rows (at most
    # 16 entries) summed in edge order, as the free block does everywhere
    cond = random_component_condenser(parts, np.random.default_rng(seed), decades)
    pot, oracle = graph_capacity(cond), laplacian_graph_capacity(cond)
    assert pot.u.tobytes() == oracle.u.tobytes()
    assert (pot.raw_energy, pot.capacity) == (oracle.raw_energy, oracle.capacity)
    assert pot.n_free == oracle.n_free


def test_high_degree_nodes_match_the_full_laplacian_to_rounding():
    # nodes of up to 16 edges: scipy summed such rows of the full Laplacian
    # in an unstable sort order, the free block sums them in edge order
    rng = np.random.default_rng(5)
    for _ in range(10):
        cond = random_sparse_condenser(300, rng, 6.0)
        pot, oracle = graph_capacity(cond), laplacian_graph_capacity(cond)
        assert pot.n_free == oracle.n_free
        assert pot.raw_energy == pytest.approx(oracle.raw_energy, rel=1e-12)


def test_n_free_counts_the_solved_unknowns():
    assert graph_capacity(GraphCondenser(path_space(), ("v0",), ("v2",), Dimension(3))).n_free == 1
    # v2 has no path to B, so it sits at 1 with K and is not solved for
    assert graph_capacity(GraphCondenser(path_space(), ("v0",), (), Dimension(3))).n_free == 0


def test_harmonicity_residual_small():
    rng = np.random.default_rng(13)
    for _ in range(20):
        cond = random_graph_condenser(int(rng.integers(3, 8)), rng)
        pot = graph_capacity(cond)
        res = harmonicity_residual(cond.space, cond, pot.u)
        assert res <= 1e-10 * max(1.0, float(np.max(cond.space.conductance, initial=1.0)))


def test_empty_inner_set_rejected():
    with pytest.raises(DomainError):
        GraphCondenser(path_space(), (), ("v2",), Dimension(2))
    with pytest.raises(DomainError):
        GraphCondenser(path_space(), ("v0",), ("v0",), Dimension(2))


def test_condenser_unknown_label_rejected():
    with pytest.raises(DomainError, match="unknown point 'v9'"):
        GraphCondenser(path_space(), ("v0",), ("v9",), Dimension(2))


def test_condenser_accepts_index_arrays_and_masks():
    space = path_space()
    by_label = GraphCondenser(space, ("v0",), ("v2",), Dimension(3))
    by_index = GraphCondenser(space, np.array([0]), np.array([2]), Dimension(3))
    first, last = np.array([True, False, False]), np.array([False, False, True])
    by_mask = GraphCondenser(space, first, last, Dimension(3))
    for cond in (by_index, by_mask):
        assert cond.inner == ("v0",) and cond.outer == ("v2",)
        assert np.array_equal(cond.k_idx, by_label.k_idx) and np.array_equal(cond.b_idx, by_label.b_idx)
        assert graph_capacity(cond).raw_energy == graph_capacity(by_label).raw_energy
    with pytest.raises(DomainError, match="out of range"):
        GraphCondenser(space, np.array([3]), np.array([0]), Dimension(2))
    with pytest.raises(DomainError, match="disjoint"):
        GraphCondenser(space, np.array([0, 1]), np.array([1]), Dimension(2))


@pytest.mark.parametrize("inner, outer", [
    (("v0", "v1"), ("v2", "v1")),
    (np.array([0, 1, 1]), np.array([2, 1, 1])),
    (np.array([True, True, False]), np.array([False, True, True])),
], ids=["labels", "repeated indices", "masks"])
def test_condenser_refuses_overlapping_sets(inner, outer):
    with pytest.raises(DomainError, match="^inner and outer sets must be disjoint$"):
        GraphCondenser(path_space(), inner, outer, Dimension(2))


def test_condenser_takes_repeated_indices_in_disjoint_sets():
    cond = GraphCondenser(path_space(), np.array([0, 0]), np.array([2, 2]), Dimension(3))
    assert cond.inner == ("v0", "v0") and cond.outer == ("v2", "v2")
    assert graph_capacity(cond).raw_energy == 0.5


# -- planar sheets -----------------------------------------------------------------


def test_small_lattice_counts():
    sheet = build_planar_sheet((0.0, 1.0, 0.0, 1.0), 0.5)
    assert sheet.n == 9
    assert sheet.edges.shape[0] == 12
    assert np.all(sheet.weight == 0.25)
    assert np.all(sheet.conductance == 1.0)


def _disks():
    return st.none() | st.builds(
        Disk, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.0, 2.5)
    )


@settings(max_examples=60, deadline=None)
@given(
    lo=st.tuples(st.floats(-2.0, 0.5), st.floats(-2.0, 0.5)),
    size=st.tuples(st.floats(0.0, 2.5), st.floats(0.0, 2.5)),
    h=st.floats(0.08, 0.6),
    offset=st.sampled_from([0.0, 0.5, 0.25]),
    z=st.floats(-1.0, 1.0),
    hole=_disks(),
    clip=_disks(),
    prefix=st.sampled_from(["p", "K", "S:1"]),
)
def test_lattice_builder_matches_loop_oracle(lo, size, h, offset, z, hole, clip, prefix):
    bounds = (lo[0], lo[0] + size[0], lo[1], lo[1] + size[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyRegionWarning)
        sheet = build_planar_sheet(
            bounds, h, hole=hole, z_offset=z, clip=clip, label_prefix=prefix, offset=offset
        )
    labels, coords, weight, edges = loop_planar_sheet(bounds, h, hole, z, clip, prefix, offset)
    assert sheet.labels == labels
    assert np.array_equal(sheet.coords, coords)
    assert np.array_equal(sheet.weight, weight)
    assert np.array_equal(sheet.edges, edges)  # same edges in the same order
    assert np.array_equal(sheet.conductance, np.ones(len(edges)))
    assert sheet.labels_at(np.arange(sheet.n)[::2]) == labels[::2]


def test_hole_keeps_boundary_nodes():
    sheet = build_planar_sheet((-2.0, 2.0, -2.0, 2.0), 0.5, hole=Disk(0.0, 0.0, 1.0))
    r = np.sqrt(sheet.coords[:, 0] ** 2 + sheet.coords[:, 1] ** 2)
    assert np.all(r >= 1.0 - 1e-12)
    assert np.any(np.isclose(r, 1.0))


def test_empty_region_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_planar_sheet((-0.4, 0.4, -0.4, 0.4), 0.1, hole=Disk(0.0, 0.0, 5.0))
    assert any(issubclass(w.category, EmptyRegionWarning) for w in caught)


def test_annulus_capacity_converges(planar_study):
    errors = planar_study["errors"]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert planar_study["order"] >= 0.9


# capacities of the h = 0.1, 0.05, 0.025, 0.0125 rungs at the seed commit,
# the values the benchmark's planar-ladder gate holds
LADDER_CAPS = (0.6993664837923906, 0.7109868114124256, 0.715148787026472, 0.7184070064845837)


def test_planar_ladder_rungs_pinned(planar_study):
    assert planar_study["h"] == (0.1, 0.05, 0.025, 0.0125)
    for cap, want in zip(planar_study["caps"], LADDER_CAPS):
        assert cap == pytest.approx(want, rel=1e-9, abs=0.0)


def test_union_disjoint_sheets():
    disk = build_planar_sheet((-1, 1, -1, 1), 0.5, clip=Disk(0, 0, 1), label_prefix="K")
    plane = build_planar_sheet(
        (-2, 2, -2, 2), 0.5, hole=Disk(0, 0, 1), z_offset=0.25, label_prefix="S"
    )
    space = union_spaces(disk, plane)
    assert space.n == disk.n + plane.n
    # vertical distance between coincident (x, y) columns is exactly the offset
    k = space.index("K:0_0")
    s_labels = [lab for lab in plane.labels]
    r = np.sqrt(plane.coords[:, 0] ** 2 + plane.coords[:, 1] ** 2)
    j = space.index(s_labels[int(np.argmin(r))])
    dx = space.coords[k] - space.coords[j]
    assert abs(np.linalg.norm(dx[:2]) - 1.0) < 1e-12 or dx[2] == 0.25


def test_union_rejects_overlapping_labels():
    a = build_planar_sheet((0, 1, 0, 1), 0.5, label_prefix="x")
    with pytest.raises(DomainError, match="overlapping"):
        union_spaces(a, a)
    # same prefix on disjoint cells is a legal union; a labeled space joins too
    b = build_planar_sheet((2, 3, 0, 1), 0.5, label_prefix="x")
    assert union_spaces(a, b).labels == a.labels + b.labels
    assert union_spaces(a, path_space()).labels == a.labels + ["v0", "v1", "v2"]
    with pytest.raises(DomainError, match="overlapping"):
        union_spaces(a, FiniteMetricMeasureSpace(["x:0_0"], [1.0], coords=np.zeros((1, 3))))


def test_union_of_sheets_keeps_labels_and_indices():
    disk = build_planar_sheet((-1, 1, -1, 1), 0.5, clip=Disk(0, 0, 1), label_prefix="K")
    plane = build_planar_sheet((-2, 2, -2, 2), 0.5, hole=Disk(0, 0, 1), z_offset=0.25, label_prefix="S")
    space = union_spaces(disk, plane)
    assert space.labels == disk.labels + plane.labels
    assert space.index(plane.labels[3]) == disk.n + 3
    assert np.array_equal(space.indices(disk.labels), np.arange(disk.n))


def test_union_with_empty_space_is_identity():
    a = build_planar_sheet((0, 1, 0, 1), 0.5)
    empty = FiniteMetricMeasureSpace([], [], coords=np.zeros((0, 3)))
    out = union_spaces(a, empty)
    assert out is a
    out = union_spaces(empty, a)
    assert out is a


def test_sheets_apart_have_exactly_zero_capacity():
    # no edge joins the sheets, however close they sit in R^3
    disk = build_planar_sheet((-1, 1, -1, 1), 0.5, clip=Disk(0, 0, 1), label_prefix="K")
    plane = build_planar_sheet(
        (-3, 3, -3, 3), 0.5, hole=Disk(0, 0, 1), z_offset=0.25, label_prefix="S"
    )
    apart = union_spaces(disk, plane)
    inner = tuple(disk.labels)
    r = np.sqrt(apart.coords[:, 0] ** 2 + apart.coords[:, 1] ** 2)
    outer = tuple(
        lab for lab, ri in zip(apart.labels, r) if lab.startswith("S:") and ri >= 2.5
    )
    cap0 = graph_capacity(GraphCondenser(apart, inner, outer, Dimension(2))).capacity
    assert cap0 == 0.0


# -- serialization --------------------------------------------------------------------


def test_space_serialization_round_trip():
    space = path_space()
    clone = FiniteMetricMeasureSpace.from_doc(json.loads(json.dumps(space.to_doc())))
    assert clone.labels == space.labels
    assert np.allclose(clone.weight, space.weight)
    assert np.allclose(clone.coords, space.coords)
    assert np.array_equal(clone.edges, space.edges)
    assert np.allclose(clone.conductance, space.conductance)


def test_capacity_csv_shape():
    text = capacity_csv([("condenser", 1.5, 0.25)], rim_radius=4.0)
    lines = text.strip().split("\n")
    assert lines[0] == "label,raw_energy,capacity,rim_radius"
    assert lines[1].startswith("condenser,1.5,0.25,4.0")


@pytest.mark.parametrize(
    "edge, message",
    [(["v0", "v1"], "edge 1 must be"), (["v0", "zz", 1.0], "edge 1 names unknown point 'zz'"), ("v0", "edge 1 must be")],
)
def test_space_document_edges_rejected_by_name(edge, message):
    doc = path_space().to_doc()
    doc["edges"][1] = edge
    with pytest.raises(DomainError, match=message):
        FiniteMetricMeasureSpace.from_doc(doc)


# -- the column-wise space reader against the entry-by-entry oracle ----------------------

# JSON numbers of both kinds, with integers past int64 and near the float range
WEIGHTS = st.floats(0.0, 1e6) | st.integers(0, 10**6) | st.sampled_from([2**64 + 1, 10**300])
COORDS = st.floats(-1e6, 1e6) | st.integers(-(10**6), 10**6) | st.sampled_from([-(2**70), 10**300])
CONDUCTANCES = st.floats(1e-3, 1e3) | st.integers(1, 1000) | st.just(2**64 + 1)
NOT_REAL = st.sampled_from([True, False, "1", math.nan, math.inf, -math.inf, 10**400, None, [1.0]])
UNKNOWN_LABEL = "?"  # no drawn label: each ends in "#" and its index


@st.composite
def space_docs(draw, min_points=0, max_points=60, max_edges=120, conductances=CONDUCTANCES):
    """A valid space document: labelled points with or without `xyz` and
    `weight`, edges between distinct points, and an exact integer metric in
    `dist` wherever some point has no coordinates.  Each column is drawn as
    one array."""
    n = draw(st.integers(min_points, max_points))
    names = draw(arrays(object, n, elements=st.text(st.characters(blacklist_characters="#"), max_size=3)))
    labels = [f"{name}#{k}" for k, name in enumerate(names.tolist())]  # unique: each ends in its index
    weights = draw(arrays(object, n, elements=WEIGHTS)).tolist()
    xyz = draw(arrays(object, (n, 3), elements=COORDS)).tolist()
    has_weight, has_xyz, null_xyz = draw(arrays(bool, (3, n))).tolist()
    coords = draw(st.sampled_from(["all", "some", "none"])) if n else "all"
    points = []
    for k, label in enumerate(labels):
        point = {"label": label, **({"weight": weights[k]} if has_weight[k] else {})}
        if coords == "all" or coords == "some" and has_xyz[k]:
            point["xyz"] = xyz[k]
        elif null_xyz[k]:
            point["xyz"] = None
        points.append(point)
    m = draw(st.integers(0, max_edges)) if n >= 2 else 0
    a = draw(arrays(int, m, elements=st.integers(0, max(n - 1, 0))))
    b = (a + draw(arrays(int, m, elements=st.integers(1, max(n - 1, 1))))) % max(n, 1)  # b != a
    cond = draw(arrays(object, m, elements=conductances)).tolist()
    doc = {"points": points, "edges": [[labels[i], labels[j], c] for i, j, c in zip(a.tolist(), b.tolist(), cond)]}
    if n and (coords != "all" or draw(st.booleans())):
        x = draw(arrays(int, n, elements=st.integers(-50, 50))).tolist()
        as_float = draw(st.booleans())
        doc["dist"] = [[float(abs(i - j)) if as_float else abs(i - j) for j in x] for i in x]
    for key in ("points", "edges"):
        if not doc[key] and draw(st.booleans()):
            del doc[key]
    return doc


@st.composite
def with_one_fault(draw, doc):
    """`doc` with exactly one fault, drawn from those that apply to it."""
    doc = copy.deepcopy(doc)
    points, edges, dist = doc.get("points", []), doc.get("edges", []), doc.get("dist")
    given_xyz = [p["xyz"] for p in points if p.get("xyz") is not None]
    faults = ["weight", "xyz_shape", "not_object", "label", "point_key"] if points else []
    faults += ["xyz_entry"] if given_xyz else []
    faults += ["duplicate"] if len(points) >= 2 else []
    faults += ["edge_shape", "edge_end", "conductance"] if edges else []
    faults += ["dist_entry", "ragged"] if dist else []
    faults += ["space_key"]
    fault = draw(st.sampled_from(faults))
    pick = lambda seq: draw(st.integers(0, len(seq) - 1))  # noqa: E731
    if fault == "space_key":
        doc["zz"] = 1
    elif fault == "weight":
        points[pick(points)]["weight"] = draw(NOT_REAL)
    elif fault == "xyz_shape":
        points[pick(points)]["xyz"] = draw(st.sampled_from([[0.0, 1.0], [0.0, 1.0, 2.0, 3.0], "0,1,2", 5, {"x": 0}]))
    elif fault == "xyz_entry":
        xyz = given_xyz[pick(given_xyz)]
        xyz[pick(xyz)] = draw(NOT_REAL)
    elif fault == "not_object":
        points[pick(points)] = draw(st.sampled_from(["p", 3, None, [1, 2]]))
    elif fault == "label":
        point = points[pick(points)]
        label = draw(st.sampled_from([5, None, True, ["a"], "missing"]))
        if label == "missing":
            del point["label"]
        else:
            point["label"] = label
    elif fault == "point_key":
        points[pick(points)]["zz"] = 1
    elif fault == "duplicate":
        k, j = draw(st.lists(st.integers(0, len(points) - 1), min_size=2, max_size=2, unique=True))
        points[k]["label"] = points[j]["label"]
    elif fault == "edge_shape":
        k = pick(edges)
        edges[k] = draw(st.sampled_from([edges[k][:2], edges[k] + [1.0], "edge", None]))
    elif fault == "edge_end":
        edges[pick(edges)][draw(st.integers(0, 1))] = draw(st.sampled_from([UNKNOWN_LABEL, 5, None, ["a"]]))
    elif fault == "conductance":
        edges[pick(edges)][2] = draw(NOT_REAL)
    elif fault == "dist_entry":
        row = dist[pick(dist)]
        row[pick(row)] = draw(NOT_REAL)
    else:
        dist[pick(dist)].pop()
    return doc


def _outcome(read, doc):
    try:
        read(doc)
    except Exception as exc:  # the outcomes compared: error type and message
        return type(exc), str(exc)
    return None


@settings(max_examples=100, deadline=None)
@given(doc=space_docs())
def test_column_reader_matches_loop_oracle_on_valid_documents(doc):
    space, oracle = FiniteMetricMeasureSpace.from_doc(doc), loop_space_from_doc(doc)
    assert space.labels == oracle.labels
    for name in ("weight", "coords", "edges", "conductance", "dist_matrix"):
        ours, theirs = getattr(space, name), getattr(oracle, name)
        assert (ours is None) == (theirs is None), name
        if ours is not None:
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
            assert np.array_equal(ours, theirs), name
    assert [space.index(label) for label in space.labels] == list(range(space.n))


@settings(max_examples=150, deadline=None)
@given(doc=space_docs(min_points=2, max_points=12, max_edges=20).flatmap(with_one_fault))
def test_column_reader_names_the_same_fault_as_the_loop_oracle(doc):
    expected = _outcome(loop_space_from_doc, doc)
    assert expected is not None
    assert _outcome(FiniteMetricMeasureSpace.from_doc, doc) == expected


def test_reader_makes_no_per_entry_number_check(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for module in (varcap.errors, varcap.mms):
        for name in ("real", "is_real"):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))

    def count(doc):
        calls.clear()
        FiniteMetricMeasureSpace.from_doc(doc)
        return len(calls)

    small, large = (build_planar_sheet((0, side, 0, side), 1.0).to_doc() for side in (2, 44))
    assert len(large["points"]) >= 2000
    with_dist = {"points": [{"label": str(k)} for k in range(200)],
                 "dist": [[abs(a - b) for b in range(200)] for a in range(200)]}
    assert count(small) == count(large) == count(with_dist) == 0


def test_space_document_lists_checked_whole():
    with pytest.raises(DomainError, match="points must be a list"):
        FiniteMetricMeasureSpace.from_doc({"points": {"label": "a"}})
    with pytest.raises(DomainError, match="edges must be a list"):
        FiniteMetricMeasureSpace.from_doc({"edges": None})
