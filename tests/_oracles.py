"""Independent reference computations used to cross-check library results.

Everything here deliberately takes a different route from the library:
dense pseudo-inverse quadratic minimization instead of the sparse condenser
solve, value-grid feasibility scans instead of the McShane formula, and
random feasible extensions built greedily from interval bounds.  The
radial capacity estimate is also kept in its former two-step form: a list of
(grid, L) pairs built first, then solved and grouped by L in dicts, each grid
by the former one-grid `solve_radial`, which evaluates the profile per grid.  The
sparse graph solve is kept in its former form on the whole Laplacian,
ex3's strip family in its former form: one solve of the joined two-sheet
space per family index, and ex4's limit as the union of the disk and the
far sheet that the runner used to solve.  The canonical extension d(K, .)
is kept in its former form too: a new KD-tree over K for every query, with
no bounding-box cut.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.linalg import lstsq
from scipy.sparse.csgraph import shortest_path

from varcap.errors import DomainError, InconsistencyError, PreconditionError, SingularWeightError, real
from varcap.geometry import Dimension
from varcap.mass import MassCurve
from varcap.mms import Disk, FiniteMetricMeasureSpace, GraphCondenser, _LatticeLabels, build_planar_sheet, union_spaces
from varcap.radial_fem import CapacityEstimate, FemSolution, RadialGrid
from varcap.sequences import LATTICE_OFFSET


def dense_graph_energy(space, inner_labels, outer_labels):
    """Minimum Dirichlet energy by dense least-squares on the full Laplacian.

    Free nodes in components without any clamped node get the minimum-norm
    value 0 from lstsq, matching the convention that floating components
    carry no potential.
    """
    n = space.n
    L = np.zeros((n, n))
    for (i, j), c in zip(space.edges, space.conductance):
        L[i, i] += c
        L[j, j] += c
        L[i, j] -= c
        L[j, i] -= c
    u = np.zeros(n)
    fixed = np.zeros(n, dtype=bool)
    for lab in inner_labels:
        k = space.index(lab)
        fixed[k] = True
        u[k] = 1.0
    for lab in outer_labels:
        k = space.index(lab)
        fixed[k] = True
        u[k] = 0.0
    free = ~fixed
    if np.any(free):
        A = L[np.ix_(free, free)]
        rhs = -L[np.ix_(free, fixed)] @ u[fixed]
        sol, *_ = lstsq(A, rhs, lapack_driver="gelsy")  # min-norm, by complete orthogonal factorization
        u[free] = sol
    du = u[space.edges[:, 0]] - u[space.edges[:, 1]]
    return float(np.sum(space.conductance * du * du)), u


def laplacian_graph_capacity(condenser):
    """The former `mms.graph_capacity`, which assembled the whole Laplacian.

    It builds the n x n Laplacian of the scaled conductances from 4E
    entries, takes components from it, and slices the free block and the
    right-hand side out of it before the same SuperLU solve, with the
    library's own `_SUPERLU_OPTIONS`; with no K-B path it still assembles
    everything and returns an energy of exactly 0.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import splu

    from varcap.mms import _SUPERLU_OPTIONS, GraphPotential, _free_mask

    space = condenser.space
    k_idx, b_idx = condenser.k_idx, condenser.b_idx
    scale = math.ldexp(1.0, -math.frexp(float(np.max(space.conductance, initial=0.0)))[1])
    i, j, c = space.edges[:, 0], space.edges[:, 1], space.conductance * scale
    rows, cols = np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j])
    L = sparse.coo_matrix((np.concatenate([-c, -c, c, c]), (rows, cols)), shape=(space.n, space.n)).tocsr()
    _, comp = connected_components(L, directed=False)
    k_comps, b_comps = np.unique(comp[k_idx]), np.unique(comp[b_idx])

    u = np.zeros(space.n)
    u[np.isin(comp, np.setdiff1d(k_comps, b_comps))] = 1.0
    u[k_idx] = 1.0

    free = np.flatnonzero(_free_mask(condenser) & np.isin(comp, np.intersect1d(k_comps, b_comps)))
    if free.size:
        L_free = L[free]
        A = L_free[:, free]
        b_vec = -(L_free @ u - A @ u[free])
        lu = splu(A.tocsc(), **_SUPERLU_OPTIONS)  # the library's factorisation: the oracle checks assembly
        u[free] = lu.solve(b_vec)

    du = u[space.edges[:, 0]] - u[space.edges[:, 1]]
    raw_energy = float(np.sum(space.conductance * du * du))
    return GraphPotential(u, raw_energy, raw_energy / condenser.dim.gamma, free.size)


def loop_space_from_doc(doc):
    """A space document read entry by entry, each number through `errors.real`.

    The library reader checks one column at a time; on a document with a
    single fault both must raise the same error, and on a valid document
    build the same arrays.
    """
    if not isinstance(doc, dict):
        raise DomainError(f"space document must be an object, got {doc!r}")
    unknown = set(doc) - {"points", "edges", "dist"}
    if unknown:
        raise DomainError(f"unknown space keys: {sorted(unknown)}")
    labels, weights, coords = [], [], []
    has_coords = True
    for k, p in enumerate(doc.get("points", [])):
        if not isinstance(p, dict) or not isinstance(p.get("label"), str):
            raise DomainError(f"point {k} must be an object with a string 'label', got {p!r}")
        extra = set(p) - {"label", "xyz", "weight"}
        if extra:
            raise DomainError(f"unknown point keys: {sorted(extra)}")
        labels.append(p["label"])
        weights.append(real(p.get("weight", 0.0), f"point {k} weight", DomainError))
        xyz = p.get("xyz")
        if xyz is None:
            has_coords = False
        elif not isinstance(xyz, list) or len(xyz) != 3:
            raise DomainError(f"point {k} xyz must be [x, y, z], got {xyz!r}")
        else:
            coords.append([real(v, f"point {k} xyz", DomainError) for v in xyz])
    index = {lab: k for k, lab in enumerate(labels)}
    edges, cond = [], []
    for k, edge in enumerate(doc.get("edges", [])):
        if not isinstance(edge, list) or len(edge) != 3:
            raise DomainError(f"edge {k} must be [label, label, conductance], got {edge!r}")
        a, b, c = edge
        for end in (a, b):
            if not isinstance(end, str) or end not in index:
                raise DomainError(f"edge {k} names unknown point {end!r}")
        edges.append((index[a], index[b]))
        cond.append(real(c, f"edge {k} conductance", DomainError))
    dist = doc.get("dist")
    if dist is not None:
        if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
            raise DomainError(f"dist must be a list of rows of distances, got {dist!r}")
        dist = [[real(d, f"dist[{i}][{j}]", DomainError) for j, d in enumerate(row)]
                for i, row in enumerate(dist)]
        if len({len(row) for row in dist}) > 1:
            raise DomainError("dist rows must all have the same length")
    return FiniteMetricMeasureSpace(
        labels, weights, coords=np.asarray(coords) if has_coords and labels else None,
        edges=np.asarray(edges, dtype=int).reshape(-1, 2), conductance=cond,
        dist_matrix=None if dist is None else np.asarray(dist, dtype=float),
    )


def grid_search_extension_value(anchor_values, anchor_dists, lip, resolution=1e-3):
    """Largest candidate value compatible with every anchor constraint at one point.

    Candidates are a uniform value grid at the given resolution plus the
    anchor values themselves; feasibility allows half a grid step of slack so
    that pinched constraint intervals still contain a candidate.
    """
    anchor_values = np.asarray(anchor_values, dtype=float)
    anchor_dists = np.asarray(anchor_dists, dtype=float)
    lo = float(np.min(anchor_values - lip * anchor_dists)) - resolution
    hi = float(np.max(anchor_values + lip * anchor_dists)) + resolution
    grid = np.concatenate([np.arange(lo, hi + resolution, resolution), anchor_values])
    ok = np.all(
        np.abs(grid[None, :] - anchor_values[:, None])
        <= lip * anchor_dists[:, None] + 0.5 * resolution,
        axis=0,
    )
    assert np.any(ok), "feasibility scan found no admissible value"
    return float(np.max(grid[ok]))


def random_feasible_extension(dist, anchor_idx, anchor_values, lip, rng):
    """A random global lip-Lipschitz function agreeing with the anchors."""
    n = dist.shape[0]
    vals = np.zeros(n)
    assigned = list(anchor_idx)
    vals[list(anchor_idx)] = anchor_values
    rest = [k for k in range(n) if k not in set(anchor_idx)]
    for k in rng.permutation(rest):
        d = dist[assigned, k]
        lo = float(np.max(vals[assigned] - lip * d))
        hi = float(np.min(vals[assigned] + lip * d))
        assert lo <= hi + 1e-12
        vals[k] = lo if hi <= lo else rng.uniform(lo, hi)
        assigned.append(int(k))
    return vals


def random_metric_matrix(n, rng, scale=1.0):
    """A genuinely non-Euclidean finite metric via shortest-path closure."""
    raw = rng.uniform(0.2, 1.0, size=(n, n)) * scale
    raw = 0.5 * (raw + raw.T)
    np.fill_diagonal(raw, 0.0)
    d = shortest_path(raw, method="FW", directed=False)
    return np.asarray(d)


def random_point_space(n, rng, weights=None):
    """Random points in the unit cube with Euclidean distances."""
    coords = rng.uniform(-1.0, 1.0, size=(n, 3))
    w = np.ones(n) if weights is None else weights
    return FiniteMetricMeasureSpace([f"x{k}" for k in range(n)], w, coords=coords)


def random_matrix_space(n, rng):
    """Random space carrying an explicit (non-Euclidean) distance matrix."""
    d = random_metric_matrix(n, rng)
    return FiniteMetricMeasureSpace(
        [f"x{k}" for k in range(n)], np.ones(n), dist_matrix=d
    )


def random_graph_condenser(n, rng, edge_prob=0.7):
    """Random conductance graph with disjoint random K and B (K nonempty)."""
    from varcap.geometry import Dimension
    from varcap.mms import GraphCondenser

    coords = rng.uniform(-1.0, 1.0, size=(n, 3))
    edges, cond = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < edge_prob:
                edges.append((i, j))
                cond.append(float(rng.uniform(0.1, 3.0)))
    space = FiniteMetricMeasureSpace(
        [f"v{k}" for k in range(n)],
        rng.uniform(0.1, 2.0, size=n),
        coords=coords,
        edges=np.asarray(edges, dtype=int).reshape(-1, 2),
        conductance=cond,
    )
    labels = list(space.labels)
    rng.shuffle(labels)
    k_size = int(rng.integers(1, max(2, n - 1)))
    b_size = int(rng.integers(0, n - k_size))
    inner = tuple(labels[:k_size])
    outer = tuple(labels[k_size : k_size + b_size])
    return GraphCondenser(space, inner, outer, Dimension(int(rng.choice([2, 3]))))


def random_sparse_condenser(n, rng, decades):
    """Random sparse conductance graph on n nodes with a few K and B nodes.

    A random tree (node i joins an earlier node) plus n random extra edges,
    with about 2% of all edges cut so that some components meet only K, only
    B or neither; conductances are log-uniform over `decades` decades.
    """
    from varcap.geometry import Dimension
    from varcap.mms import GraphCondenser

    tree = np.column_stack([np.arange(1, n), rng.integers(0, np.arange(1, n))])
    extra = rng.integers(0, n, size=(n, 2))
    edges = np.vstack([tree, extra[extra[:, 0] != extra[:, 1]]])
    edges = edges[rng.uniform(size=edges.shape[0]) >= 0.02]
    space = FiniteMetricMeasureSpace(
        [f"v{k}" for k in range(n)], np.ones(n), coords=rng.uniform(-1.0, 1.0, size=(n, 3)), edges=edges,
        conductance=10.0 ** rng.uniform(-decades / 2, decades / 2, size=edges.shape[0]),
    )
    held = rng.permutation(n)[: max(2, n // 40)]
    return GraphCondenser(space, held[: held.size // 2], held[held.size // 2 :], Dimension(2))


def random_component_condenser(parts, rng, decades, max_degree=8):
    """Condenser on a graph of separate connected parts, one per (size, role).

    A role names what its part holds: "KB" nodes of K and of B, "K" or "B"
    only those, "" neither (a part of size 1 is an isolated node).  Each part
    is a random tree plus up to `size` random extra edges, parallel ones
    included, each kept while both of its ends have fewer than `max_degree`
    edges; conductances are log-uniform over `decades` decades.
    """
    from varcap.geometry import Dimension
    from varcap.mms import GraphCondenser

    edges, inner, outer, start = [], [], [], 0
    for size, role in parts:
        degree, pairs = np.zeros(size, dtype=int), []
        for t in range(1, size):  # node t joins an earlier node with room left
            pairs.append((t, int(rng.choice(np.flatnonzero(degree[:t] < max_degree)))))
            degree[list(pairs[-1])] += 1
        for a, b in rng.integers(0, size, size=(size, 2)):
            if a != b and degree[a] < max_degree and degree[b] < max_degree:
                pairs.append((a, b))
                degree[[a, b]] += 1
        edges += [(start + a, start + b) for a, b in pairs]
        held = start + rng.permutation(size)
        k = int(rng.integers(1, size + (role == "K"))) if "K" in role else 0
        b = int(rng.integers(1, size - k + 1)) if "B" in role else 0
        inner += held[:k].tolist()
        outer += held[k : k + b].tolist()
        start += size
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    space = FiniteMetricMeasureSpace(
        [f"v{k}" for k in range(start)], np.ones(start), coords=rng.uniform(-1.0, 1.0, size=(start, 3)),
        edges=edges, conductance=10.0 ** rng.uniform(-decades / 2, decades / 2, size=edges.shape[0]),
    )
    return GraphCondenser(space, np.array(inner, dtype=int), np.array(outer, dtype=int), Dimension(2))


def loop_planar_sheet(bounds, h, hole=None, z_offset=0.0, clip=None, label_prefix="p", offset=0.0):
    """Reference lattice sheet: nodes sorted by cell, edges from a cell dict.

    Returns (labels, coords, weight, edges): every kept node in (kx, ky)
    order, and a per-node loop that emits each node's right edge, then its
    up edge, by dict lookup instead of index arithmetic.
    """
    xmin, xmax, ymin, ymax = bounds
    kx = np.arange(math.ceil(xmin / h - offset - 1e-9), math.floor(xmax / h - offset + 1e-9) + 1, dtype=int)
    ky = np.arange(math.ceil(ymin / h - offset - 1e-9), math.floor(ymax / h - offset + 1e-9) + 1, dtype=int)
    ix, iy = np.meshgrid(kx, ky, indexing="ij")
    ix, iy = ix.ravel(), iy.ravel()
    x = (ix + offset) * h
    y = (iy + offset) * h
    keep = np.ones(x.size, dtype=bool)
    pad = 1e-9 * h
    if hole is not None:
        keep &= (x - hole.cx) ** 2 + (y - hole.cy) ** 2 >= hole.radius**2 - pad
    if clip is not None:
        keep &= (x - clip.cx) ** 2 + (y - clip.cy) ** 2 <= clip.radius**2 + pad
    ix, iy, x, y = ix[keep], iy[keep], x[keep], y[keep]
    order = np.lexsort((iy, ix))
    ix, iy, x, y = ix[order], iy[order], x[order], y[order]

    labels = [f"{label_prefix}:{a}_{b}" for a, b in zip(ix, iy)]
    coords = np.column_stack([x, y, np.full(x.size, float(z_offset))])
    cell = {(a, b): k for k, (a, b) in enumerate(zip(ix.tolist(), iy.tolist()))}
    edges = []
    for k, (a, b) in enumerate(zip(ix.tolist(), iy.tolist())):
        right = cell.get((a + 1, b))
        if right is not None:
            edges.append((k, right))
        up = cell.get((a, b + 1))
        if up is not None:
            edges.append((k, up))
    return labels, coords, np.full(x.size, h * h), np.asarray(edges, dtype=int).reshape(-1, 2)


def radial_label_filter(space, rmin, rmax, prefix=None):
    """Labels with rmin <= r <= rmax in the plane, optionally only those
    starting with ``prefix + ":"``: the label filter the planar experiment
    runners used to pick K and B."""
    r = np.sqrt(space.coords[:, 0] ** 2 + space.coords[:, 1] ** 2)
    mask = (r >= rmin) & (r <= rmax)
    picked = [lab for lab, keep in zip(space.labels, mask) if keep]
    return tuple(lab for lab in picked if prefix is None or lab.startswith(prefix + ":"))


def contract(condenser, classes):
    """The condenser on the quotient graph that merges each class of nodes into one.

    `classes` holds a class id per node.  Each class becomes one
    node that keeps its first member's label and coordinates and carries its
    members' total weight; the edges between two classes merge into one edge
    of their summed conductance, and edges inside a class drop.  A potential
    constant on every class has the same energy on both graphs.  So when the
    classes are the orbits of graph symmetries that map K and B onto
    themselves, the unique minimiser, constant on orbits, gives the quotient
    the same capacity.  A class that K or B splits raises `DomainError`.
    """
    space = condenser.space
    classes = np.asarray(classes)
    if classes.shape != (space.n,):
        raise DomainError("need one class id per point")
    _, first, cls = np.unique(classes, return_index=True, return_inverse=True)
    nc = first.size
    size = np.bincount(cls, minlength=nc)
    for name, idx in (("K", condenser.k_idx), ("B", condenser.b_idx)):
        held = np.bincount(cls[np.unique(idx)], minlength=nc)
        if np.any((held > 0) & (held < size)):
            raise DomainError(f"{name} splits a class of the contraction")

    i, j = cls[space.edges[:, 0]], cls[space.edges[:, 1]]
    cross = i != j
    pair, merged = np.unique(np.minimum(i, j)[cross] * nc + np.maximum(i, j)[cross], return_inverse=True)
    lattice = space._lattice
    quotient = FiniteMetricMeasureSpace(
        space.labels_at(first) if lattice is None else _LatticeLabels(*(part[first] for part in lattice)),
        np.bincount(cls, weights=space.weight, minlength=nc),
        coords=None if space.coords is None else space.coords[first],
        edges=np.column_stack(np.divmod(pair, nc)),
        conductance=np.bincount(merged, weights=space.conductance[cross], minlength=pair.size),
        dist_matrix=None if space.dist_matrix is None else space.dist_matrix[np.ix_(first, first)],
    )
    return GraphCondenser(quotient, np.unique(cls[condenser.k_idx]), np.unique(cls[condenser.b_idx]), condenser.dim)


def plane_orbits(plane):
    """Orbit id of each node of the half-offset plane under the lattice's 8 symmetries.

    The symmetries act on cells by k -> -1-k on either axis and by the axis
    swap; an orbit is keyed by the larger and the smaller of |2kx+1| and
    |2ky+1|.
    """
    kx, ky = plane.cells
    a, b = np.abs(2 * kx + 1), np.abs(2 * ky + 1)
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    return hi * (hi.max() + 1) + lo


def unit_disk(h):
    """The lattice cells in the closed unit disk, labelled "K": the disk
    sheet the planar runners used to build by clipping."""
    return build_planar_sheet(
        (-1.0, 1.0, -1.0, 1.0), h, clip=Disk(0.0, 0.0, 1.0), label_prefix="K", offset=LATTICE_OFFSET
    )


def _lifted_plane_sheet(h, rim, prefix, hole, z_offset=0.0):
    """The planar runners' sheet out to just past the rim, less the open `hole`, at height `z_offset`."""
    half = rim + 2.0 * h
    return build_planar_sheet(
        (-half, half, -half, half), h, hole=hole, z_offset=z_offset, label_prefix=prefix, offset=LATTICE_OFFSET
    )


def fresh_tree_extension_at(defining, xyz, upto=np.inf):
    """d(K, .) at raw R^3 points for a canonical `DefiningFunction`, from a
    KD-tree over K built for this query alone; values above `upto` may be inf."""
    from scipy.spatial import cKDTree

    d, _ = cKDTree(defining.space.coords[defining.region_idx]).query(
        xyz, k=1, distance_upper_bound=upto * (1.0 + 1e-9) + 1e-9)
    return d


def two_sheet_space(h, i, rim):
    """ex3's family space: the disk sheet at z=0 and the holed sheet at z=1/i, with no edge between them."""
    return union_spaces(unit_disk(h), _lifted_plane_sheet(h, rim, "S", Disk(0.0, 0.0, 1.0), 1.0 / i))


def ex4_limit_condenser(h, rim):
    """ex4's limit condenser as the runner used to solve it: the unit disk,
    all of it K, in disjoint union with the far sheet r >= 2, whose rim
    nodes are B.  No edge joins them, so its capacity is exactly 0."""
    disk, far = unit_disk(h), _lifted_plane_sheet(h, rim, "F", Disk(0.0, 0.0, 2.0))
    outer = disk.n + np.flatnonzero(np.sqrt(far.coords[:, 0] ** 2 + far.coords[:, 1] ** 2) >= rim - 1e-9)
    return GraphCondenser(union_spaces(disk, far), np.arange(disk.n), outer, Dimension(2))


def joined_two_sheet_condenser(h, i, rim, strip=None):
    """ex3's family condenser on the joined two-sheet space, as the runner
    used to solve it for each index: K the "K:" disk sheet, B the "S:" sheet
    nodes at the rim, picked by label prefix and radius, and with `strip`
    one edge of that conductance from the disk's outermost node to the sheet
    node nearest the hole (the first of each in node order), appended after
    the sheets' own edges."""
    space = two_sheet_space(h, i, rim)
    labels = space.labels
    on_disk = np.array([lab.startswith("K:") for lab in labels])
    if strip is not None:
        r = np.sqrt(space.coords[:, 0] ** 2 + space.coords[:, 1] ** 2)
        ends = [np.flatnonzero(on_disk)[np.argmax(r[on_disk])], np.flatnonzero(~on_disk)[np.argmin(r[~on_disk])]]
        space = FiniteMetricMeasureSpace(
            labels, space.weight, coords=space.coords, edges=np.vstack([space.edges, ends]),
            conductance=np.append(space.conductance, strip),
        )
    inner = tuple(lab for lab, k in zip(labels, on_disk) if k)
    return GraphCondenser(space, inner, radial_label_filter(space, rim - 1e-9, math.inf, prefix="S"), Dimension(2))


def exact_minimize_chain(cond, k):
    """Reference chain minimizer in exact rational arithmetic: u_k = 1,
    u_N = 0, and the harmonic equations of every other node (a free end at
    node 0) solved by Gaussian elimination along the chain.  Returns Fractions.
    """
    c = [Fraction(float(x)) for x in cond]
    n = len(c)
    fixed = {k: Fraction(1), n: Fraction(0)}
    # row j: (c[j-1] + c[j]) u_j - c[j-1] u_{j-1} - c[j] u_{j+1} = 0, with
    # c[-1] = 0 at the free end; fixed neighbours move to the right-hand side
    pivots, rhs = {}, {}
    for j in range(n):
        if j in fixed:
            continue
        left = c[j - 1] if j > 0 else Fraction(0)
        d, b = left + c[j], c[j] * fixed.get(j + 1, 0)
        if j - 1 in fixed:
            b += left * fixed[j - 1]
        elif j > 0:  # eliminate the free left neighbour
            d -= left * c[j - 1] / pivots[j - 1]
            b += left * rhs[j - 1] / pivots[j - 1]
        pivots[j], rhs[j] = d, b
    u = dict(fixed)
    for j in sorted(pivots, reverse=True):
        up = c[j] * u[j + 1] if j + 1 not in fixed else 0
        u[j] = (rhs[j] + up) / pivots[j]
    return [u[j] for j in range(n + 1)]


def resumming_geometric_nodes(s0, L, h0, ratio):
    """Reference geometric grid nodes: the element sizes are re-summed on
    every step."""
    span = L - s0
    sizes = [h0]
    while sum(sizes) < span:
        sizes.append(sizes[-1] * ratio)
    if len(sizes) < 2:
        sizes = [span / 2.0, span / 2.0]
    h = np.array(sizes) * (span / sum(sizes))
    nodes = s0 + np.concatenate(([0.0], np.cumsum(h)))
    nodes[-1] = L
    return nodes


def separate_mass_curve(af, radii, capacity_fn=None):
    """Reference mass curve with every formula stated inline, one radius at a
    time: V and A from the profile's volume integral and warp factor, and by
    default the capacity omega / (gamma C) from its end resistance C."""
    profile, dim = af.profile, af.profile.dim
    radii = tuple(float(R) for R in radii)
    V, A, cap = [], [], []
    for R in radii:
        f = profile.f(R)
        V.append(dim.omega * profile.volume_between(profile.s_min, R)[0])
        A.append(dim.omega * f * f)
        if capacity_fn is None:
            cap.append(dim.omega / (dim.gamma * profile.resistance_between(R, math.inf)[0]))
        else:
            cap.append(capacity_fn(R))
    V, A, cap = np.array(V), np.array(A), np.array(cap, dtype=float)
    assert np.all(A > 0.0) and np.all(cap > 0.0)
    m_iso = (2.0 / A) * (V - A**1.5 / (6.0 * math.sqrt(math.pi)))
    m_cv = (V - (4.0 * math.pi / 3.0) * cap**3) / (4.0 * math.pi * cap**2)
    m_alt = (V / (4.0 * math.pi)) ** (1.0 / 3.0) - cap
    columns = (A, V, cap, m_iso, m_cv, m_alt)
    return MassCurve(radii, *(tuple(c.tolist()) for c in columns))


def _one_grid_conductances(condenser, grid):
    """Per-element conductance w_k / h_k with midpoint-rule weights."""
    profile = condenser.profile
    nodes = grid.nodes
    if nodes[0] < profile.s_min - 1e-12 or nodes[-1] > profile.s_max:
        raise DomainError("grid exceeds the profile domain")
    interior = nodes[1:-1]
    f_int = np.atleast_1d(profile.f(interior))
    if np.any(f_int <= 0.0):
        bad = float(interior[np.argmin(f_int)])
        raise SingularWeightError(f"warp factor vanishes at interior node s={bad}")
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    with np.errstate(over="ignore"):  # an overflow shows as an infinite weight or conductance, refused below
        w = np.atleast_1d(profile.element_weight(mids))
        cond = w / np.diff(nodes)
    if np.any(w == np.inf):
        bad = float(mids[np.argmax(w)])
        raise DomainError(f"element weight exceeds the float range at the element midpoint s={bad!r}")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise SingularWeightError("nonpositive element weight at an element midpoint")
    return cond


def one_grid_solve_radial(condenser, grid):
    """The library's former `solve_radial`, one grid and one profile evaluation
    at a time: the exact minimizer of the discrete energy with u(s0)=1, u(L)=0.

    For a two-sided symmetric condenser the energy is doubled (the even
    reflection solves the second end).  A chain resistance, potential or
    capacity past the float range raises `DomainError`.
    """
    if abs(grid.s0 - condenser.s0) > 1e-12 * max(1.0, abs(condenser.s0)):
        raise DomainError(f"grid must start at s0={condenser.s0}, starts at {grid.s0}")
    cond = _one_grid_conductances(condenser, grid)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below when not finite
        crossed = np.cumsum(1.0 / cond)
        u = np.concatenate([[1.0], 1.0 - crossed / crossed[-1]])
        energy = condenser.profile.dim.omega * float(np.sum(cond * np.diff(u) ** 2))
    if condenser.ends == "two_symmetric":
        energy *= 2.0
    cap_L = energy / condenser.profile.dim.gamma
    if not (np.all(np.isfinite(u)) and np.isfinite(cap_L)):
        raise DomainError(f"chain resistance or energy over [{grid.s0}, {grid.L}] exceeds the float range")
    return FemSolution(grid, u, energy, cap_L)


def two_step_schedule(condenser, L_values=None, levels=2, h0=None, ratio=1.05):
    """Geometrically graded grids on a ladder of truncation radii: the
    library's former two-step route, kept as it stood but for refining each
    grid `levels - 1` times, as the library does, not once more.

    Default truncation radii are {1e2, 1e3, 1e4} * max(s0, 1); each L carries
    its base grid and `levels - 1` nested refinements of it.
    """
    s0 = condenser.s0
    scale = max(abs(s0), 1.0)
    if L_values is None:
        L_values = [100.0 * scale, 1000.0 * scale, 10000.0 * scale]
    if h0 is None:
        h0 = scale / 64.0
    schedule = []
    for L in sorted(L_values):
        if L <= s0:
            raise DomainError(f"truncation radius {L} must exceed s0={s0}")
        schedule.append((RadialGrid.geometric(s0, L, h0, ratio), L))
        for _ in range(levels - 1):
            schedule.append((schedule[-1][0].refined(), L))
    return schedule


def two_step_capacity_estimate(condenser, schedule):
    """Richardson-extrapolated capacity from a (grid, L) schedule, by
    dicts keyed by L where the library keeps lists in ladder order.

    Per L: second-order extrapolation over the nested refinements.  Across L:
    the cap_L values must be monotone nonincreasing (domain monotonicity);
    a cap + c/L fit on consecutive pairs supplies the L -> inf limit.  The
    error bound combines mesh extrapolation gaps and the spread of the last
    two extrapolants.
    """
    by_L = {}
    rows = []
    for grid, L in schedule:
        if abs(grid.L - L) > 1e-9 * max(1.0, L):
            raise PreconditionError(f"grid ends at {grid.L}, schedule says L={L}")
        sol = one_grid_solve_radial(condenser, grid)
        by_L.setdefault(L, []).append(sol)
        rows.append((L, grid.h_max, sol.cap_L, sol.energy))

    L_sorted = sorted(by_L)
    if len(L_sorted) < 3:
        raise PreconditionError("schedule needs at least 3 distinct increasing L values")
    if max(len(v) for v in by_L.values()) < 2:
        raise PreconditionError("schedule needs at least 2 refinement levels")

    cap_L, mesh_err = {}, {}
    for L in L_sorted:
        sols = sorted(by_L[L], key=lambda s: s.grid.n_elements)
        caps = [s.cap_L for s in sols]
        if len(caps) >= 2:
            # nested bisection: O(h^2) leading error, factor-4 reduction
            extr = caps[-1] + (caps[-1] - caps[-2]) / 3.0
            cap_L[L] = extr
            mesh_err[L] = abs(caps[-1] - caps[-2]) / 3.0 + 1e-15 * abs(extr)
        else:
            cap_L[L] = caps[-1]
            mesh_err[L] = 1e-12 * max(abs(caps[-1]), 1.0)

    scale = max(abs(cap_L[L_sorted[0]]), 1e-30)
    for La, Lb in zip(L_sorted, L_sorted[1:]):
        slack = mesh_err[La] + mesh_err[Lb] + 1e-10 * scale
        if cap_L[Lb] > cap_L[La] + slack:
            raise InconsistencyError(
                f"cap_L increased from L={La} ({cap_L[La]!r}) to L={Lb} ({cap_L[Lb]!r}); "
                "refine the grids"
            )

    extrapolants = []
    for La, Lb in zip(L_sorted[-3:], L_sorted[-3:][1:]):
        ca, cb = cap_L[La], cap_L[Lb]
        extrapolants.append((Lb * cb - La * ca) / (Lb - La))
    cap = max(extrapolants[-1], 0.0)
    err = abs(extrapolants[-1] - extrapolants[0]) if len(extrapolants) > 1 else 0.0
    err += sum(mesh_err[L] for L in L_sorted[-2:]) + 1e-14 * scale
    return CapacityEstimate(cap, err, tuple(rows))
