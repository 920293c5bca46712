"""Finite metric-measure spaces with a conductance-graph Dirichlet form.

The metric (full distance data or ambient R^3 coordinates) and the energy
(edge conductances) are deliberately independent: two sheets can sit a
hair's width apart in R^3 while their Dirichlet forms stay disconnected.
Capacity of a condenser (K grounded against B) is the minimum of

    E(u) = sum_edges c_ij (u_i - u_j)^2,   u = 1 on K, u = 0 on B,

divided by gamma_m, so planar-lattice results compare directly against
continuum condenser values.

Node sets (K, B, regions) are integer index arrays internally.  Labels exist
at the JSON boundary: lattice sheets keep theirs as integer cells and format
the strings only when a caller asks for `labels`, `to_doc` or label tuples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import iadd, is_not, itemgetter
from typing import NamedTuple

import numpy as np

from . import reports
from .errors import DomainError, EmptyRegionWarning, MetricError, is_real, real
from .geometry import Dimension

_TRIANGLE_TOL = 1e-9
_METRIC_CHECK_LIMIT = 1500  # full O(n^3) metric validation cap


class _LatticeLabels(NamedTuple):
    """Labels "prefix:kx_ky" of lattice nodes, formatted only when asked for.

    Labels with distinct prefixes never collide: the prefix is everything
    before the last colon.
    """

    prefix: np.ndarray  # object array, one prefix per node
    kx: np.ndarray
    ky: np.ndarray

    def format(self, idx=slice(None)) -> list[str]:
        return [f"{p}:{a}_{b}" for p, a, b in zip(*(part[idx].tolist() for part in self))]


class FiniteMetricMeasureSpace:
    """Labeled points with measure weights, a metric, and a conductance graph.

    The metric comes from an explicit distance matrix (validated against the
    metric axioms on construction) or from ambient R^3 coordinates (Euclidean
    restriction, a metric by construction).
    """

    def __init__(self, labels, weight, coords=None, edges=(), conductance=(), dist_matrix=None):
        if isinstance(labels, _LatticeLabels):
            self._lattice, self._labels = labels, None  # unique by construction
        else:
            self._lattice, self._labels = None, list(map(str, labels))
            if len(set(self._labels)) != len(self._labels):
                raise DomainError("point labels must be unique")
        self._index = None
        n = len(labels.kx if self._labels is None else self._labels)
        self.weight = np.asarray(weight, dtype=float)
        if self.weight.shape != (n,) or np.any(self.weight < 0) or not np.all(np.isfinite(self.weight)):
            raise DomainError("need one finite nonnegative weight per point")
        self.coords = None if coords is None else np.asarray(coords, dtype=float)
        if self.coords is not None and (self.coords.shape != (n, 3) or not np.all(np.isfinite(self.coords))):
            raise DomainError("coordinates must be a finite (n, 3) array")
        self.dist_matrix = None if dist_matrix is None else np.asarray(dist_matrix, dtype=float)
        if self.coords is None and self.dist_matrix is None and n > 0:
            raise DomainError("need coordinates or an explicit distance matrix")
        if self.dist_matrix is not None:
            self._check_metric(self.dist_matrix)

        edges = np.asarray(edges, dtype=int).reshape(-1, 2)
        conductance = np.asarray(conductance, dtype=float).reshape(-1)
        if edges.shape[0] != conductance.shape[0]:
            raise DomainError("need one conductance per edge")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise DomainError("edge endpoint out of range")
        if edges.size and np.any(edges[:, 0] == edges[:, 1]):
            raise DomainError("self-loop edges are not allowed")
        if np.any(conductance <= 0) or not np.all(np.isfinite(conductance)):
            raise DomainError("conductances must be finite and positive")
        self.edges = edges
        self.conductance = conductance

    def _check_metric(self, d):
        n = self.n
        if d.shape != (n, n):
            raise MetricError(f"distance matrix must be {n}x{n}")
        if not np.all(np.isfinite(d)):
            raise MetricError("distances must be finite")
        if np.any(d < -_TRIANGLE_TOL):
            raise MetricError("distances must be nonnegative")
        if np.max(np.abs(np.diag(d))) > _TRIANGLE_TOL:
            raise MetricError("distance matrix must have zero diagonal")
        if np.max(np.abs(d - d.T)) > _TRIANGLE_TOL * max(1.0, float(np.max(d))):
            raise MetricError("distance matrix must be symmetric")
        if n > _METRIC_CHECK_LIMIT:
            raise MetricError(
                f"explicit distance matrices are only validated up to {_METRIC_CHECK_LIMIT} "
                "points; use coordinates for larger spaces"
            )
        tol = _TRIANGLE_TOL * max(1.0, float(np.max(d)))
        for k in range(n):
            slack = d - (d[:, k][:, None] + d[None, k, :])
            if np.max(slack) > tol:
                i, j = np.unravel_index(np.argmax(slack), slack.shape)
                raise MetricError(
                    f"triangle inequality fails: d({self.labels[i]},{self.labels[j]}) > "
                    f"d(.,{self.labels[k]}) route by {float(slack[i, j]):.3e}"
                )

    # -- queries ---------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.weight.size

    @property
    def labels(self) -> list[str]:
        if self._labels is None:
            self._labels = self._lattice.format()
        return self._labels

    def labels_at(self, idx: np.ndarray) -> list[str]:
        """Labels of the points at an index array or boolean mask."""
        if self._labels is None:
            return self._lattice.format(idx)
        return np.asarray(self._labels, dtype=object)[idx].tolist()

    def index(self, label: str) -> int:
        if self._index is None:
            self._index = {lab: k for k, lab in enumerate(self.labels)}
        return self._index[label]

    def indices(self, nodes) -> np.ndarray:
        """Index array of the given points: labels, or a numpy integer index
        array or boolean mask, which is range-checked and passed through."""
        if isinstance(nodes, np.ndarray) and nodes.dtype.kind in "biu":
            idx = np.arange(self.n)[nodes] if nodes.dtype == bool else nodes.astype(int, copy=False)
            if idx.size and (idx.min() < 0 or idx.max() >= self.n):
                raise DomainError("point index out of range")
            return idx
        return np.array([self.index(str(x)) for x in nodes], dtype=int)

    def distance_matrix(self) -> np.ndarray:
        if self.dist_matrix is not None:
            return self.dist_matrix
        if self.n > 4000:
            raise MetricError("refusing to materialize a distance matrix this large")
        diff = self.coords[:, None, :] - self.coords[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=-1))

    def distances_from(self, idx: np.ndarray) -> np.ndarray:
        """Distances from the given points to every point, shape (len(idx), n)."""
        if self.dist_matrix is not None:
            return self.dist_matrix[np.asarray(idx, dtype=int)]
        diff = self.coords[np.asarray(idx, dtype=int)][:, None, :] - self.coords[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=-1))

    @property
    def cells(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Integer lattice cells (kx, ky) of a lattice space's points; None otherwise."""
        return None if self._lattice is None else (self._lattice.kx, self._lattice.ky)

    def laplacian(self):
        """Graph Laplacian of the conductances, as a scipy CSR matrix."""
        from scipy import sparse

        i, j, c = self.edges[:, 0], self.edges[:, 1], self.conductance
        rows, cols = np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j])
        vals = np.concatenate([-c, -c, c, c])
        return sparse.coo_matrix((vals, (rows, cols)), shape=(self.n, self.n)).tocsr()

    def adjacency(self):
        """Symmetric conductance matrix, as a scipy CSR matrix."""
        from scipy import sparse

        i, j, c = self.edges[:, 0], self.edges[:, 1], self.conductance
        rows, cols, vals = np.concatenate([i, j]), np.concatenate([j, i]), np.concatenate([c, c])
        return sparse.coo_matrix((vals, (rows, cols)), shape=(self.n, self.n)).tocsr()

    # -- serialization ------------------------------------------------------------

    def to_doc(self) -> dict:
        labels = self.labels
        xyz = [None] * self.n if self.coords is None else self.coords.tolist()
        points = zip(labels, xyz, self.weight.tolist())
        edges = zip(self.edges.tolist(), self.conductance.tolist())
        doc = {
            "points": [{"label": lab, "xyz": p, "weight": w} for lab, p, w in points],
            "edges": [[labels[i], labels[j], c] for (i, j), c in edges],
        }
        if self.dist_matrix is not None:
            doc["dist"] = self.dist_matrix.tolist()
        return doc

    @staticmethod
    def from_doc(doc: dict) -> "FiniteMetricMeasureSpace":
        """Read a space document one column at a time.

        Each column (the point objects, their keys, weights and coordinates;
        the edges, their ends and conductances; the distances) passes one
        check on the whole column.  When a check fails, the error names the
        column's first bad entry (`point 2 weight`, `edge 3 names unknown
        point 'zz'`, `dist[1][0]`); with faults in several columns, the first
        column checked is the one reported.
        """
        if not isinstance(doc, dict):
            raise DomainError(f"space document must be an object, got {doc!r}")
        unknown = set(doc) - {"points", "edges", "dist"}
        if unknown:
            raise DomainError(f"unknown space keys: {sorted(unknown)}")
        points, edges = doc.get("points", []), doc.get("edges", [])
        for name, column in (("points", points), ("edges", edges)):
            if not isinstance(column, list):
                raise DomainError(f"{name} must be a list, got {column!r}")

        labels = _entries(points, "label") if _typed(points, {dict}) else None
        if labels is None or not _typed(labels, {str}):
            k = _first_bad(_is_point, points)
            if k is not None:
                raise DomainError(f"point {k} must be an object with a string 'label', got {points[k]!r}")
            labels = _entries(points, "label")
        if not set().union(*points) <= _POINT_KEYS:
            k = _first_bad(_POINT_KEYS.issuperset, points)
            raise DomainError(f"unknown point keys: {sorted(set(points[k]) - _POINT_KEYS)}")
        weight = _reals(_entries(points, "weight", 0.0), lambda k: f"point {k} weight")
        xyz = _entries(points, "xyz")
        has_coords = all(map(is_not, xyz, repeat(None)))
        rows = xyz if has_coords else [row for row in xyz if row is not None]

        def point_of(r):  # the point holding the r-th given xyz
            return r if has_coords else int(np.flatnonzero([row is not None for row in xyz])[r])

        if not (_typed(rows, {list}) and set(map(len, rows)) <= {3}):
            r = _first_bad(_is_triple, rows)
            if r is not None:
                raise DomainError(f"point {point_of(r)} xyz must be [x, y, z], got {rows[r]!r}")
        coords = _reals(_flat(rows), lambda k: f"point {point_of(k // 3)} xyz")

        if not (_typed(edges, {list}) and set(map(len, edges)) <= {3}):
            k = _first_bad(_is_triple, edges)
            if k is not None:
                raise DomainError(f"edge {k} must be [label, label, conductance], got {edges[k]!r}")
        ends = [list(map(itemgetter(j), edges)) for j in (0, 1)]
        index = dict(zip(labels, range(len(labels))))
        ends_idx = np.column_stack([_indices(index, column) for column in ends])
        unknown_end = np.flatnonzero(ends_idx.ravel() < 0)  # the ends of edge 0, then of edge 1, ...
        if unknown_end.size:
            k, j = divmod(int(unknown_end[0]), 2)
            raise DomainError(f"edge {k} names unknown point {ends[j][k]!r}")
        conductance = _reals(list(map(itemgetter(2), edges)), lambda k: f"edge {k} conductance")

        dist = doc.get("dist")
        if dist is not None:
            if not isinstance(dist, list) or not all(map(isinstance, dist, repeat(list))):
                raise DomainError(f"dist must be a list of rows of distances, got {dist!r}")
            lengths = np.fromiter(map(len, dist), int, len(dist))
            row_ends = np.cumsum(lengths)

            def entry(k):  # row and column of the k-th distance
                i = int(np.searchsorted(row_ends, k, side="right"))
                return f"dist[{i}][{k - int(row_ends[i] - lengths[i])}]"

            values = _reals(_flat(dist), entry)
            if np.any(lengths != lengths[:1]):
                raise DomainError("dist rows must all have the same length")
            dist = values.reshape(len(dist), -1) if dist else values
        space = FiniteMetricMeasureSpace(
            labels, weight, coords=coords.reshape(-1, 3) if has_coords and labels else None,
            edges=ends_idx, conductance=conductance, dist_matrix=dist,
        )
        space._index = index  # unique labels, or the constructor refused them
        return space


_NUMBERS = {int, float}
_POINT_KEYS = frozenset({"label", "xyz", "weight"})


def _typed(column: list, kinds: set) -> bool:
    """Whether every entry's type is one of `kinds`: a JSON column's fast check."""
    return set(map(type, column)) <= kinds


def _entries(points: list, key: str, default=None) -> list:
    """The `key` value of every point object, `default` where it is absent."""
    return list(map(dict.get, points, repeat(key), repeat(default)))


def _flat(rows: list) -> list:
    """The entries of a list of lists, row after row.  Extending one list
    allocates nothing per row, unlike `itertools.chain`, so the reader does
    not set off the garbage collector."""
    return reduce(iadd, rows, [])


def _indices(index: dict, ends: list) -> np.ndarray:
    """The index of each label in `ends`; -1 for an end that is not a label."""
    if not _typed(ends, {str}):
        ends = [end if isinstance(end, str) else None for end in ends]
    return np.fromiter(map(index.get, ends, repeat(-1)), int, len(ends))


def _is_point(p) -> bool:
    return isinstance(p, dict) and isinstance(p.get("label"), str)


def _is_triple(v) -> bool:
    return isinstance(v, list) and len(v) == 3


def _first_bad(check, column: list) -> int | None:
    """Index of the first entry failing `check`, or None when every entry
    passes (a column of subclasses, such as numpy scalars, that its fast type
    check refused)."""
    bad = np.flatnonzero(~np.fromiter(map(check, column), bool, len(column)))
    return int(bad[0]) if bad.size else None


def _reals(column: list, where) -> np.ndarray:
    """The entries of `column` as a float array.

    JSON numbers pass on one type set, one conversion and one `np.isfinite`;
    otherwise the first entry that `errors.is_real` refuses is named by
    `where(k)`.
    """
    if _typed(column, _NUMBERS):
        try:
            values = np.array(column, dtype=float)
        except OverflowError:  # an integer past the float range
            values = None
        if values is not None and np.isfinite(values).all():
            return values
    k = _first_bad(is_real, column)
    if k is not None:
        real(column[k], where(k), DomainError)  # raises, naming the entry
    return np.array(column, dtype=float)


class GraphCondenser:
    """Inner set K held at 1, grounded boundary B held at 0.

    K and B are given as anything `space.indices` takes (labels, index arrays
    or masks) and kept as index arrays `k_idx` and `b_idx`; `inner` and
    `outer` return them as label tuples.
    """

    def __init__(self, space: FiniteMetricMeasureSpace, inner, outer, dim: Dimension = Dimension(2)):
        try:
            k_idx, b_idx = space.indices(inner), space.indices(outer)
        except KeyError as exc:
            raise DomainError(f"condenser references unknown point {exc.args[0]!r}") from None
        if not k_idx.size:
            raise DomainError("condenser needs a nonempty inner set K")
        in_k = np.zeros(space.n, dtype=bool)
        in_k[k_idx] = True
        if in_k[b_idx].any():
            raise DomainError("inner and outer sets must be disjoint")
        self.space, self.k_idx, self.b_idx, self.dim = space, k_idx, b_idx, dim

    @property
    def inner(self) -> tuple:
        return tuple(self.space.labels_at(self.k_idx))

    @property
    def outer(self) -> tuple:
        return tuple(self.space.labels_at(self.b_idx))


@dataclass(frozen=True)
class GraphPotential:
    """Minimizer of the graph Dirichlet energy; capacity = raw_energy / gamma_m.

    `n_free` counts the unknowns the solve factored (0 when no node is free).
    """

    u: np.ndarray
    raw_energy: float
    capacity: float
    n_free: int


# Most nodes a capacity-graph document may leave free.  A general graph's sparse factor can fill
# toward dense: at 8,192 nodes, a random graph of mean degree 4 factored in 0.8 s and 105 MB, one
# of mean degree 64 (a factor 76% dense) in 43 s and 750 MB resident, on a 2-vCPU, 8 GB machine.
_DOCUMENT_FREE_BUDGET = 2**13


def _check_document_condenser(space: FiniteMetricMeasureSpace, inner, outer) -> None:
    """capacity-graph's rule: a `GraphCondenser` leaving at most
    `_DOCUMENT_FREE_BUDGET` nodes free."""
    free = int(np.count_nonzero(_free_mask(GraphCondenser(space, inner, outer))))
    if free > _DOCUMENT_FREE_BUDGET:
        raise DomainError(f"the condenser leaves {free:,} nodes free, more than the {_DOCUMENT_FREE_BUDGET:,} "
                          "a graph document may have (a general graph's sparse factor can fill toward dense)")


def _free_mask(condenser: GraphCondenser) -> np.ndarray:
    """Mask of the nodes a condenser leaves free: every node outside K and B."""
    free = np.ones(condenser.space.n, dtype=bool)
    free[condenser.k_idx] = False
    free[condenser.b_idx] = False
    return free


def graph_capacity(condenser: GraphCondenser) -> GraphPotential:
    """Harmonic condenser potential and capacity on the edge graph.

    Components of the edge graph meeting both K and B get the unique
    harmonic minimizer; components meeting only K sit at 1, all others at 0.
    When no component meets both K and B, that potential is the minimizer and
    the capacity is exactly zero, returned before anything is assembled.
    Otherwise only the free block A of the Laplacian (rows and columns of the
    free nodes in components meeting both) and the right-hand side b that
    K's edges put on it are assembled, from the edges at free nodes, and A
    is factored once by SuperLU: a minimum-degree ordering of A + A^T and
    pivots taken from the diagonal, which A (symmetric positive definite)
    allows.  The ordering keeps a planar lattice's factor small, but a
    general graph's can fill toward dense, in time toward the cube of the
    free nodes: the caller bounds the graph (`_PLANE_NODE_BUDGET` in
    `sequences`, `_DOCUMENT_FREE_BUDGET` here for capacity-graph documents).
    The solve runs on the conductances scaled by the power of two that
    brings the largest into [1/2, 1), exactly, so the potential is bit for
    bit the unscaled one, and no pivot overflows; a conductance at a free
    node that the scaling would take below the normal float range raises
    `DomainError`.  The energy sums over every edge.  A capacity past the
    float range raises `DomainError`.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    space = condenser.space
    n, i, j = space.n, space.edges[:, 0], space.edges[:, 1]
    n_comp, comp = connected_components(sparse.csr_matrix((np.ones(i.size), (i, j)), shape=(n, n)), directed=False)
    meets_k, meets_b = np.zeros(n_comp, dtype=bool), np.zeros(n_comp, dtype=bool)
    meets_k[comp[condenser.k_idx]] = True
    meets_b[comp[condenser.b_idx]] = True
    u = (meets_k & ~meets_b)[comp].astype(float)
    u[condenser.k_idx] = 1.0
    if not np.any(meets_k & meets_b):
        return GraphPotential(u, 0.0, 0.0, 0)

    free = np.flatnonzero(_free_mask(condenser) & (meets_k & meets_b)[comp])
    if free.size:
        from scipy.sparse.linalg import splu

        A, b_vec = _free_system(condenser, free)
        lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        u[free] = lu.solve(b_vec)

    du = u[i] - u[j]
    with np.errstate(over="ignore"):  # an overflow shows as an infinite capacity, refused below
        raw_energy = float(np.sum(space.conductance * du * du))
    capacity = raw_energy / condenser.dim.gamma
    if not math.isfinite(capacity):
        raise DomainError(f"capacity exceeds the float range (raw energy {raw_energy!r}, m={condenser.dim.m})")
    return GraphPotential(u, raw_energy, capacity, free.size)


def _free_system(condenser: GraphCondenser, free: np.ndarray):
    """The free block A of the scaled Laplacian and the right-hand side b.

    Only the edges at free nodes are read.  A free node's diagonal entry
    sums its edges' conductances c in edge order.  An edge between two free
    nodes puts -c at both of its off-diagonal places, an edge from a free
    node to K puts c on that node's entry of b (the potential is 1 on K),
    and an edge to B adds nothing else.  Parallel edges, and a row of b over
    its K neighbours, sum as scipy's CSR assembly does: by column, and in
    edge order within a row of at most 16 entries (it sorts longer rows
    unstably).  At nodes of degree at most 8 these are the sums of the full
    Laplacian restricted to the free nodes.
    """
    from scipy import sparse

    space = condenser.space
    n, nf = space.n, free.size
    pos = np.full(n, -1)
    pos[free] = np.arange(nf)
    in_k = np.zeros(n, dtype=bool)
    in_k[condenser.k_idx] = True
    i, j = space.edges[:, 0], space.edges[:, 1]
    c = space.conductance * math.ldexp(1.0, -math.frexp(float(np.max(space.conductance)))[1])
    pi, pj = pos[i], pos[j]
    lost = np.flatnonzero(((pi >= 0) | (pj >= 0)) & (c < np.finfo(float).tiny))
    if lost.size:
        raise DomainError(f"conductance {float(space.conductance[lost[0]])!r} at a free node is more than 2^1022 times "
                          f"below the largest, {float(np.max(space.conductance))!r}; the scaled solve cannot hold it")
    ends = np.concatenate([pi, pj])
    at = ends >= 0
    diag = np.bincount(ends[at], weights=np.concatenate([c, c])[at], minlength=nf)
    ff, fk, kf = (pi >= 0) & (pj >= 0), (pi >= 0) & in_k[j], in_k[i] & (pj >= 0)
    rows, cols = np.concatenate([pi[ff], pj[ff], np.arange(nf)]), np.concatenate([pj[ff], pi[ff], np.arange(nf)])
    A = sparse.csr_matrix((np.concatenate([-c[ff], -c[ff], diag]), (rows, cols)), shape=(nf, nf))
    rows, cols = np.concatenate([pi[fk], pj[kf]]), np.concatenate([j[fk], i[kf]])
    to_k = sparse.csr_matrix((np.concatenate([-c[fk], -c[kf]]), (rows, cols)), shape=(nf, n))
    return A, -(to_k @ np.ones(n))


def harmonicity_residual(space: FiniteMetricMeasureSpace, condenser: GraphCondenser, u: np.ndarray) -> float:
    """Max |(L u)_i| over free nodes; zero for an exactly harmonic potential."""
    r = space.laplacian() @ u
    free = _free_mask(condenser)
    return float(np.max(np.abs(r[free]))) if np.any(free) else 0.0


@dataclass(frozen=True)
class Disk:
    """Closed disk in the lattice plane."""

    cx: float
    cy: float
    radius: float


def build_planar_sheet(
    bounds: tuple[float, float, float, float], h: float, hole: Disk | None = None, z_offset: float = 0.0,
    clip: Disk | None = None, label_prefix: str = "p", offset: float = 0.0,
) -> FiniteMetricMeasureSpace:
    """Square lattice sheet embedded at height z_offset.

    Nodes sit on the global lattice (k + offset) * h inside the bounds, so
    sheets built with the same spacing and offset share exact coordinates.
    A half offset keeps nodes off circles whose radius is a lattice multiple,
    which steadies boundary-staircase convergence.  Each node carries weight
    h^2 and each lattice edge conductance 1 (the FEM-consistent value for the
    five-point stencil in two dimensions).  `hole` removes the open disk
    (boundary nodes survive); `clip` keeps only the closed disk.
    """
    if h <= 0:
        raise DomainError(f"lattice spacing must be positive, got h={h}")
    xmin, xmax, ymin, ymax = bounds
    if xmax < xmin or ymax < ymin:
        raise DomainError("empty lattice bounds")
    kx = np.arange(
        math.ceil(xmin / h - offset - 1e-9), math.floor(xmax / h - offset + 1e-9) + 1, dtype=int
    )
    ky = np.arange(
        math.ceil(ymin / h - offset - 1e-9), math.floor(ymax / h - offset + 1e-9) + 1, dtype=int
    )
    ix, iy = np.meshgrid(kx, ky, indexing="ij")
    x = (ix + offset) * h
    y = (iy + offset) * h

    keep = np.ones(x.shape, dtype=bool)
    pad = 1e-9 * h
    if hole is not None:
        r2 = (x - hole.cx) ** 2 + (y - hole.cy) ** 2
        keep &= r2 >= hole.radius**2 - pad
    if clip is not None:
        r2 = (x - clip.cx) ** 2 + (y - clip.cy) ** 2
        keep &= r2 <= clip.radius**2 + pad

    n = int(np.count_nonzero(keep))
    if n == 0:
        warnings.warn("lattice region came out empty", EmptyRegionWarning, stacklevel=2)
    # Nodes are numbered in (kx, ky) order on a grid padded with -1 past the
    # top and right; each node's right edge, then its up edge, where one exists.
    node = np.full((kx.size + 1, ky.size + 1), -1)
    node[:-1, :-1][keep] = np.arange(n)
    ends = np.column_stack([node[1:, :-1][keep], node[:-1, 1:][keep]]).ravel()
    edges = np.column_stack([np.repeat(np.arange(n), 2), ends])[ends >= 0]

    labels = _LatticeLabels(np.full(n, label_prefix, dtype=object), ix[keep], iy[keep])
    coords = np.column_stack([x[keep], y[keep], np.full(n, float(z_offset))])
    return FiniteMetricMeasureSpace(
        labels, np.full(n, h * h), coords=coords, edges=edges, conductance=np.ones(edges.shape[0])
    )


def union_spaces(a: FiniteMetricMeasureSpace, b: FiniteMetricMeasureSpace) -> FiniteMetricMeasureSpace:
    """Disjoint union; ambient R^3 supplies the metric, sheets keep their edges.

    No edge joins them: the Dirichlet form stays blockwise even though the
    sheets may be arbitrarily close in R^3 (ex3 adds its strip by the series law).
    """
    if a.n == 0:
        return b
    if b.n == 0:
        return a
    cells_a, cells_b = a._lattice, b._lattice
    if cells_a is not None and cells_b is not None and not set(cells_a.prefix) & set(cells_b.prefix):
        labels = _LatticeLabels(*map(np.concatenate, zip(cells_a, cells_b)))
    else:
        overlap = set(a.labels) & set(b.labels)
        if overlap:
            raise DomainError(f"overlapping labels in union: {sorted(overlap)[:5]}")
        labels = a.labels + b.labels
    if a.coords is None or b.coords is None:
        raise DomainError("union requires ambient coordinates on both spaces")
    coords = np.vstack([a.coords, b.coords])
    weight = np.concatenate([a.weight, b.weight])
    edges = np.vstack([a.edges.reshape(-1, 2), b.edges.reshape(-1, 2) + a.n])
    cond = np.concatenate([a.conductance, b.conductance])
    return FiniteMetricMeasureSpace(labels, weight, coords=coords, edges=edges, conductance=cond)


def capacity_csv(rows, rim_radius: float | None) -> str:
    """Capacity report rows as CSV with columns label,raw_energy,capacity,rim_radius."""
    rim = None if rim_radius is None else float(rim_radius)
    return reports.csv_table(["label", "raw_energy", "capacity", "rim_radius"], [(*row, rim) for row in rows])
