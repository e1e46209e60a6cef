"""Cell-centered meshes of a box domain plus its exterior collar.

The domain is an axis-aligned box given as ``bounds``, one ``(lo, hi)`` pair
per dimension: an interval in 1D, a rectangle in 2D.  This module is the only
one that reads those bounds.  The nonlocal boundary operator lives on a
truncated neighbourhood of the domain, so every mesh carries two node sets:
cell centers inside the domain and cell centers in the collar ``{x outside
the domain : dist(x, domain) <= r_ext}``.  Grids are uniform and
cell-centered, with a spacing that divides every side, which keeps the
quadrature weight per node constant (``h**dim``) and the singular-kernel
diagonal symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DomainMesh", "check_box", "build_box_mesh", "build_interval_mesh"]


@dataclass(frozen=True, eq=False)
class DomainMesh:
    """Immutable discretization of a box domain and its exterior collar.

    Attributes:
        interior_nodes: (n_int, dim) cell centers inside the domain.
        exterior_nodes: (n_ext, dim) cell centers in the collar.
        cell_volume: quadrature weight of one cell, ``h**dim``.
        h: grid spacing.
        r_ext: collar truncation radius measured from the domain.
        lo, hi: (dim,) lower and upper corners of the box.
        cells: (n_total, dim) integer lattice cell ``k`` of every node,
            interior block first, negative below ``lo``: the node is the
            centre ``lo + (k + 1/2) h``.  Reversing either node list
            reflects it through the box centre, so ``n_ext`` is even.
    """

    interior_nodes: np.ndarray
    exterior_nodes: np.ndarray
    cell_volume: float
    h: float
    r_ext: float
    lo: np.ndarray
    hi: np.ndarray
    cells: np.ndarray

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def n_interior(self) -> int:
        return self.interior_nodes.shape[0]

    @property
    def n_exterior(self) -> int:
        return self.exterior_nodes.shape[0]

    @property
    def n_total(self) -> int:
        return self.n_interior + self.n_exterior

    @property
    def nodes(self) -> np.ndarray:
        """All node coordinates, interior block first."""
        return np.vstack([self.interior_nodes, self.exterior_nodes])

    def domain_measure(self) -> float:
        """Discrete |domain| = sum of interior cell volumes."""
        return self.n_interior * self.cell_volume

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Strict interior test for points ``x`` of shape (m, dim)."""
        x = np.atleast_2d(x)
        return np.all((x > self.lo) & (x < self.hi), axis=1)

    def distance_to_domain(self, x: np.ndarray) -> np.ndarray:
        """Euclidean distance from points ``x`` to the closed domain."""
        x = np.atleast_2d(x)
        gap = np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0)
        return np.hypot.reduce(gap, axis=1)


def check_box(bounds, h: float, r_ext: float) -> tuple[np.ndarray, np.ndarray]:
    """The corners ``(lo, hi)`` of the finite box ``bounds``, or ValueError
    unless ``h`` is finite, positive and divides every side to 1e-9 relative
    (the interior cells tile the box) and ``r_ext`` is finite and at least the
    box diameter (the kernel tail seen from interior nodes is not truncated)."""
    for name, value in (("h", h), ("r_ext", r_ext), ("bounds", bounds)):
        if np.any(np.isinf(value)):
            raise ValueError(f"{name} must be finite, got {name}={value}")
    lo, hi = (np.array(corner, dtype=float) for corner in zip(*bounds))
    if not h > 0.0:
        raise ValueError(f"grid spacing must be positive, got h={h}")
    if not np.all(lo < hi):
        raise ValueError(f"degenerate bounds: need lo < hi on every axis, got {bounds}")
    cells = (hi - lo) / h
    if np.any(np.abs(cells - np.round(cells)) > 1e-9 * cells):
        raise ValueError(f"spacing h={h} does not divide every side of the box {bounds}")
    diam = float(np.hypot.reduce(hi - lo))
    if not r_ext >= diam:
        raise ValueError(
            f"collar too thin: r_ext={r_ext} is thinner than the domain diameter "
            f"{diam:.6g}; the truncated kernel tail would dominate the collar coupling"
        )
    return lo, hi


def build_box_mesh(bounds, h: float, r_ext: float) -> DomainMesh:
    """Uniform cell-centered tensor mesh of a box with an exterior collar.

    ``bounds`` holds one ``(lo, hi)`` pair per dimension.  Each axis of the
    lattice has ``m = round(r_ext / h)`` cells below the box at ``lo - (m..1
    - 1/2) h``, the interior cells at ``lo + (k + 1/2) h`` and ``m`` cells
    above it at ``hi + (k + 1/2) h``.  Collar cells are the lattice cells
    outside the closed box whose centers lie within ``r_ext`` of it: all
    ``2 m`` in 1D, a rounded rectangle in 2D.  That distance is measured in
    cells, from each center's half-integer offsets past the box, so rounding
    in the coordinates never moves a cell in or out of the collar.  Both
    node lists are in lexicographic order, so reversing either reflects it
    through the box centre.  Each node's cell ``k`` is kept as ``cells``.
    """
    lo, hi = check_box(bounds, h, r_ext)
    reach = r_ext / h
    m = int(round(reach))
    below = np.arange(m, 0, -1) - 0.5
    above = np.arange(m) + 0.5
    n = np.round((hi - lo) / h).astype(np.intp)
    axes = [np.concatenate([a - below * h, a + (np.arange(k) + 0.5) * h, b + above * h])
            for a, b, k in zip(lo, hi, n)]
    gaps = [np.concatenate([below, np.zeros(k), above]) for k in n]
    # squared distance in cells: sums of squared half-integers, exact
    gap_sq = sum(np.meshgrid(*[g * g for g in gaps], indexing="ij")).ravel()
    inside = np.flatnonzero(gap_sq == 0.0)
    collar = np.flatnonzero((gap_sq > 0.0) & (gap_sq <= reach * reach))
    cells = np.stack(np.unravel_index(np.concatenate([inside, collar]), n + 2 * m),
                     axis=-1)
    nodes = np.stack([x[k] for x, k in zip(axes, cells.T)], axis=-1)
    cells -= m
    return DomainMesh(
        interior_nodes=nodes[:inside.size],
        exterior_nodes=nodes[inside.size:],
        cell_volume=math.prod([h] * len(n)),
        h=h,
        r_ext=r_ext,
        lo=lo,
        hi=hi,
        cells=cells,
    )


def build_interval_mesh(a: float, b: float, h: float, r_ext: float) -> DomainMesh:
    """:func:`build_box_mesh` of the interval (a, b)."""
    return build_box_mesh(((a, b),), h, r_ext)
