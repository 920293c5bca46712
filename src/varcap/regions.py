"""Defining functions, largest Lipschitz extensions, and sublevel regions.

A defining function for a compact K in a finite space S is a 1-Lipschitz u
with {u <= 0} = K that equals d(., K) off K.  Its largest L-Lipschitz
extension to a bigger point set Y is

    U(y) = min over anchors a of ( u(a) + L * d(a, y) ),

an exact finite minimum, no tolerances involved.  Thresholding U at a level
alpha_i >= 0 inside another space S_i produces the region of S_i matched to
K; for the canonical u = d(., K) that region is exactly the closed
alpha_i-neighborhood of K intersected with S_i.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .mms import FiniteMetricMeasureSpace

_LIP_TOL = 1e-9
_CHUNK = 2048  # query points per block of the brute-force McShane minimum


def _check_lipschitz(values: np.ndarray, dists: np.ndarray, lip: float, labels) -> None:
    """Exhaustive pairwise check; raises with a witness pair on failure."""
    gap = np.abs(values[:, None] - values[None, :]) - lip * dists
    worst = float(np.max(gap))
    if worst > _LIP_TOL * max(1.0, float(np.max(np.abs(values)))):
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        raise PreconditionError(
            f"values are not {lip}-Lipschitz: |u({labels[i]}) - u({labels[j]})| = "
            f"{abs(values[i]-values[j])!r} > {lip} * d = {lip * dists[i, j]!r}"
        )


def mcshane_extend(
    space: FiniteMetricMeasureSpace,
    anchor_labels: Sequence[str],
    anchor_values: Sequence[float],
    lip: float = 1.0,
) -> np.ndarray:
    """Largest L-Lipschitz extension of anchor data to every point of `space`.

    Restricts to the anchor values, is L-Lipschitz, and dominates every
    L-Lipschitz extension pointwise.  The anchor data must itself be
    L-Lipschitz; a violating pair is reported otherwise.
    """
    if lip < 0:
        raise DomainError("Lipschitz constant must be nonnegative")
    a_idx = space.indices(anchor_labels)
    if a_idx.size == 0:
        raise PreconditionError("extension needs at least one anchor")
    values = np.asarray(anchor_values, dtype=float)
    if values.shape != (a_idx.size,):
        raise DomainError("need one value per anchor")
    d_rows = space.distances_from(a_idx)  # (n_anchor, n)
    _check_lipschitz(values, d_rows[:, a_idx], lip, space.labels_at(a_idx))
    return np.min(values[:, None] + lip * d_rows, axis=0)


def extend_from_coords(anchor_xyz: np.ndarray, anchor_values: np.ndarray, query_xyz: np.ndarray) -> np.ndarray:
    """1-Lipschitz McShane formula between raw R^3 point sets, in blocks of query points."""
    anchor_xyz = np.asarray(anchor_xyz, dtype=float)
    anchor_values = np.asarray(anchor_values, dtype=float)
    query_xyz = np.asarray(query_xyz, dtype=float)
    out = np.empty(query_xyz.shape[0])
    for lo in range(0, query_xyz.shape[0], _CHUNK):
        q = query_xyz[lo : lo + _CHUNK]
        diff = anchor_xyz[:, None, :] - q[None, :, :]
        d = np.sqrt(np.sum(diff * diff, axis=-1))
        out[lo : lo + _CHUNK] = np.min(anchor_values[:, None] + d, axis=0)
    return out


def _nearest_distance(points: np.ndarray, queries: np.ndarray, upto: float = np.inf) -> np.ndarray:
    """Euclidean distance from each query to the nearest of `points`, by KD-tree.

    Distances above `upto` may come back as inf: the search stops a little
    past it, and the distances at or below it are exact.  With a finite
    `upto`, only the queries inside the points' bounding box widened by that
    search bound reach the tree; the others are farther than it along an axis.
    """
    from scipy.spatial import cKDTree

    bound = upto * (1.0 + 1e-9) + 1e-9
    near = slice(None)
    if np.isfinite(bound):
        lo, hi = points.min(axis=0) - bound, points.max(axis=0) + bound
        near = np.flatnonzero(np.all((queries >= lo) & (queries <= hi), axis=1))
    d = np.full(len(queries), np.inf)
    d[near], _ = cKDTree(points).query(queries[near], k=1, distance_upper_bound=bound)
    return d


def distance_to_set(space: FiniteMetricMeasureSpace, subset) -> np.ndarray:
    """d(., subset) for every point of the space; `subset` as `space.indices` takes it."""
    idx = space.indices(subset)
    if idx.size == 0:
        raise DomainError("distance to an empty set is undefined")
    if space.dist_matrix is not None:
        return np.min(space.dist_matrix[idx], axis=0)
    return _nearest_distance(space.coords[idx], space.coords)


class DefiningFunction:
    """1-Lipschitz u on a space with {u <= 0} = K and u = d(., K) off K.

    K is given as `space.indices` takes it and kept as the index array
    `region_idx`.  The canonical u = d(., K) is computed when `values` is
    first read: its extension reads only K's coordinates.
    """

    def __init__(self, space: FiniteMetricMeasureSpace, values: np.ndarray | None, region_idx: np.ndarray,
                 canonical: bool = False):
        self.space, self._values, self.region_idx, self.canonical = space, values, region_idx, canonical

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = distance_to_set(self.space, self.region_idx)
            self._values[self.region_idx] = 0.0
        return self._values

    @staticmethod
    def canonical_for(space: FiniteMetricMeasureSpace, region) -> "DefiningFunction":
        """The nonnegative defining function u = d(., K)."""
        k_idx = space.indices(region)
        if k_idx.size == 0:
            raise DomainError("a defining function needs a nonempty K")
        return DefiningFunction(space, None, k_idx, canonical=True)

    @staticmethod
    def from_values(space: FiniteMetricMeasureSpace, values: Sequence[float], region) -> "DefiningFunction":
        """User-supplied defining function (e.g. a signed distance), validated.

        Checks {values <= 0} = K, u = d(., K) off K, and (exhaustively) the
        1-Lipschitz bound.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (space.n,):
            raise DomainError("need one value per point of the space")
        k_idx = space.indices(region)
        mask = np.zeros(space.n, dtype=bool)
        mask[k_idx] = True
        if not np.array_equal(values <= 0.0, mask):
            raise PreconditionError("the region {u <= 0} does not match the given K")
        outside = ~mask
        if np.any(outside):
            d_k = distance_to_set(space, k_idx)
            if np.max(np.abs(values[outside] - d_k[outside])) > _LIP_TOL:
                raise PreconditionError("defining function must equal d(., K) outside K")
        _check_lipschitz(values, space.distance_matrix(), 1.0, space.labels)
        return DefiningFunction(space, values, k_idx, canonical=False)

    def extension_on(self, target: FiniteMetricMeasureSpace, upto: float = np.inf) -> np.ndarray:
        """Values of the 1-Lipschitz extension U at the target's points.

        Both spaces must carry ambient R^3 coordinates.  For the canonical
        defining function the extension is exactly d(K, .), evaluated with a
        KD-tree whose values above `upto` may come back as inf; otherwise the
        finite McShane minimum runs over every anchor.
        """
        return self.extension_at(target.coords, upto)

    def extension_at(self, xyz: np.ndarray | None, upto: float = np.inf) -> np.ndarray:
        """`extension_on` at raw R^3 points, an (n, 3) array."""
        if self.space.coords is None or xyz is None:
            raise DomainError("ambient extension needs coordinates on both spaces")
        if self.canonical:
            return _nearest_distance(self.space.coords[self.region_idx], xyz, upto)
        return extend_from_coords(self.space.coords, self.values, xyz)


def region_measure(space: FiniteMetricMeasureSpace, region) -> float:
    """Total measure of the given points (labels, an index array or a mask)."""
    return float(np.sum(space.weight[space.indices(region)]))
