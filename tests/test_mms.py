import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    dense_graph_energy,
    loop_planar_sheet,
    random_graph_condenser,
    random_matrix_space,
    random_sparse_condenser,
)
from varcap.errors import DomainError, EmptyRegionWarning, MetricError
from varcap.geometry import Dimension
from varcap.mms import (
    Disk,
    FiniteMetricMeasureSpace,
    GraphCondenser,
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
    assert pot.iterations == 0  # no node is free
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
def test_sparse_solve_matches_dense_oracle(n, decades, seed):
    cond = random_sparse_condenser(n, np.random.default_rng(seed), decades)
    oracle, _ = dense_graph_energy(cond.space, cond.inner, cond.outer)
    assert graph_capacity(cond).raw_energy == pytest.approx(oracle, rel=1e-10, abs=1e-10)


@settings(max_examples=10, deadline=None)
@given(
    n=st.floats(np.log(4), np.log(800)).map(lambda x: int(np.exp(x))),
    decades=st.floats(0.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 1e3),
)
@example(n=2050, decades=6.0, seed=1, spread=1e3)
def test_solve_from_any_guess_matches_dense_oracle(n, decades, seed, spread):
    rng = np.random.default_rng(seed)
    cond = random_sparse_condenser(n, rng, decades)
    oracle, _ = dense_graph_energy(cond.space, cond.inner, cond.outer)
    guess = rng.uniform(-spread, spread, size=cond.space.n)
    assert graph_capacity(cond, guess=guess).raw_energy == pytest.approx(oracle, rel=1e-10, abs=1e-10)


def test_solve_from_its_own_potential_takes_no_iterations():
    # the ladder's coarse rung and well-conditioned small graphs; on a badly
    # conditioned system CG's updated residual can meet the tolerance while
    # the true one does not, and a restart there takes another iteration
    rng = np.random.default_rng(2024)
    conds = [limit_plane_condenser(0.1, 4.0)]
    conds += [random_graph_condenser(int(rng.integers(2, 9)), rng) for _ in range(50)]
    cold_iterations = []
    for cond in conds:
        cold = graph_capacity(cond)
        warm = graph_capacity(cond, guess=cold.u)
        cold_iterations.append(cold.iterations)
        assert warm.iterations == 0
        assert warm.capacity == cold.capacity and np.array_equal(warm.u, cold.u)
    assert cold_iterations[0] > 0


@pytest.mark.parametrize("guess", [np.zeros(2), np.zeros(4), np.zeros((3, 1)), [0.5, np.nan, 0.0],
                                   [0.5, np.inf, 0.0], ["a", "b", "c"]])
def test_bad_guess_rejected(guess):
    with pytest.raises(DomainError, match="guess"):
        graph_capacity(GraphCondenser(path_space(), ("v0",), ("v2",), Dimension(2)), guess=guess)


def test_guess_entries_on_k_and_b_are_ignored():
    cond = GraphCondenser(path_space(), ("v0",), ("v2",), Dimension(3))
    pot = graph_capacity(cond, guess=[-7.0, 0.5, 9.0])
    assert pot.iterations == 0
    assert np.array_equal(pot.u, [1.0, 0.5, 0.0])


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


def test_strip_edges_connect_sheets():
    disk = build_planar_sheet((-1, 1, -1, 1), 0.5, clip=Disk(0, 0, 1), label_prefix="K")
    plane = build_planar_sheet(
        (-3, 3, -3, 3), 0.5, hole=Disk(0, 0, 1), z_offset=0.25, label_prefix="S"
    )
    joined = union_spaces(disk, plane, [("K:2_0", "S:2_0", 0.125)])
    inner = tuple(disk.labels)
    r = np.sqrt(joined.coords[:, 0] ** 2 + joined.coords[:, 1] ** 2)
    outer = tuple(
        lab for lab, ri in zip(joined.labels, r) if lab.startswith("S:") and ri >= 2.5
    )
    cap = graph_capacity(GraphCondenser(joined, inner, outer, Dimension(2))).capacity
    assert cap > 0.0
    # without the strip the capacity is exactly zero
    apart = union_spaces(disk, plane)
    cap0 = graph_capacity(GraphCondenser(apart, inner, outer, Dimension(2))).capacity
    assert cap0 == 0.0


def test_inter_sheet_edges_by_index_equal_label_form():
    disk = build_planar_sheet((-1, 1, -1, 1), 0.5, clip=Disk(0, 0, 1), label_prefix="K")
    plane = build_planar_sheet((-3, 3, -3, 3), 0.5, hole=Disk(0, 0, 1), z_offset=0.25, label_prefix="S")
    ties = [(2, 5, 0.125), (np.int64(0), np.int64(7), 0.5)]
    by_index = union_spaces(disk, plane, ties)
    assert disk._labels is None and plane._labels is None  # no label was formatted or looked up
    by_label = union_spaces(disk, plane, [(disk.labels[a], plane.labels[b], c) for a, b, c in ties])
    assert np.array_equal(by_index.edges, by_label.edges)
    assert by_index.conductance.tobytes() == by_label.conductance.tobytes()


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
