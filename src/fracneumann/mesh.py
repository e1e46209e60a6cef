"""Cell-centered meshes for a bounded domain plus its exterior collar.

The nonlocal boundary operator lives on a truncated neighbourhood of the
domain, so every mesh carries two node sets: cell centers inside the domain
and cell centers in the collar ``{x outside the domain : dist(x, domain) <=
r_ext}``.  Grids are uniform and cell-centered, which keeps the quadrature
weight per node constant (``h**dim``) and the singular-kernel diagonal
symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DomainMesh", "build_interval_mesh", "build_box_mesh"]


@dataclass(frozen=True, eq=False)
class DomainMesh:
    """Immutable discretization of a domain and its exterior collar.

    Attributes:
        dim: spatial dimension, 1 or 2.
        interior_nodes: (n_int, dim) cell centers inside the domain.
        exterior_nodes: (n_ext, dim) cell centers in the collar.
        cell_volume: quadrature weight of one cell, ``h**dim``.
        h: grid spacing.
        r_ext: collar truncation radius measured from the domain.
        domain_descriptor: parameters of the domain shape.
    """

    dim: int
    interior_nodes: np.ndarray
    exterior_nodes: np.ndarray
    cell_volume: float
    h: float
    r_ext: float
    domain_descriptor: dict = field(default_factory=dict)

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
        d = self.domain_descriptor
        x = np.atleast_2d(x)
        if d["kind"] == "interval":
            return (x[:, 0] > d["a"]) & (x[:, 0] < d["b"])
        return (
            (x[:, 0] > d["ax"]) & (x[:, 0] < d["bx"])
            & (x[:, 1] > d["ay"]) & (x[:, 1] < d["by"])
        )

    def distance_to_domain(self, x: np.ndarray) -> np.ndarray:
        """Euclidean distance from points ``x`` to the closed domain."""
        d = self.domain_descriptor
        x = np.atleast_2d(x)
        if d["kind"] == "interval":
            return np.maximum.reduce([d["a"] - x[:, 0], x[:, 0] - d["b"],
                                      np.zeros(x.shape[0])])
        dx = np.maximum.reduce([d["ax"] - x[:, 0], x[:, 0] - d["bx"],
                                np.zeros(x.shape[0])])
        dy = np.maximum.reduce([d["ay"] - x[:, 1], x[:, 1] - d["by"],
                                np.zeros(x.shape[0])])
        return np.hypot(dx, dy)


def _validate_spacing(h: float, lo: float, hi: float, r_ext: float) -> None:
    if h <= 0.0:
        raise ValueError(f"grid spacing must be positive, got h={h}")
    if hi <= lo:
        raise ValueError(f"degenerate bounds: need a < b, got ({lo}, {hi})")


def build_interval_mesh(a: float, b: float, h: float, r_ext: float) -> DomainMesh:
    """Uniform cell-centered mesh of the interval (a, b) with collar radius r_ext.

    Interior nodes sit at ``a + (k + 1/2) h``; the collar continues the same
    lattice on both sides for ``round(r_ext / h)`` cells.  ``r_ext`` must be
    at least the interval length, otherwise the kernel tail seen from interior
    nodes is truncated too aggressively for the collar to be meaningful.
    """
    _validate_spacing(h, a, b, r_ext)
    if r_ext < b - a:
        raise ValueError(
            f"collar too thin: r_ext={r_ext} < diam(domain)={b - a}; "
            "the truncated kernel tail would dominate the collar coupling"
        )
    n_cells = int(round((b - a) / h))
    if n_cells < 1:
        raise ValueError(f"spacing h={h} too coarse for interval ({a}, {b})")
    interior = a + (np.arange(n_cells) + 0.5) * h
    m = int(round(r_ext / h))
    left = a - (np.arange(m, 0, -1) - 0.5) * h
    right = b + (np.arange(m) + 0.5) * h
    exterior = np.concatenate([left, right])
    return DomainMesh(
        dim=1,
        interior_nodes=interior.reshape(-1, 1),
        exterior_nodes=exterior.reshape(-1, 1),
        cell_volume=h,
        h=h,
        r_ext=r_ext,
        domain_descriptor={"kind": "interval", "a": float(a), "b": float(b)},
    )


def build_box_mesh(bounds: tuple[tuple[float, float], tuple[float, float]],
                   h: float, r_ext: float) -> DomainMesh:
    """Uniform cell-centered tensor mesh of a 2D box with an exterior collar.

    ``bounds`` is ``((ax, bx), (ay, by))``.  Collar cells are the lattice
    cells outside the closed box whose centers lie within ``r_ext`` of it
    (a rounded rectangle).  Cell volume is ``h**2``.
    """
    (ax, bx), (ay, by) = bounds
    _validate_spacing(h, ax, bx, r_ext)
    _validate_spacing(h, ay, by, r_ext)
    diam = float(np.hypot(bx - ax, by - ay))
    if r_ext < diam:
        raise ValueError(
            f"collar too thin: r_ext={r_ext} < diam(domain)={diam:.6g}"
        )
    nx = int(round((bx - ax) / h))
    ny = int(round((by - ay) / h))
    if nx < 1 or ny < 1:
        raise ValueError(f"spacing h={h} too coarse for box {bounds}")
    m = int(round(r_ext / h))
    gx = ax + (np.arange(-m, nx + m) + 0.5) * h
    gy = ay + (np.arange(-m, ny + m) + 0.5) * h
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])

    inside = (
        (pts[:, 0] > ax) & (pts[:, 0] < bx)
        & (pts[:, 1] > ay) & (pts[:, 1] < by)
    )
    dx = np.maximum.reduce([ax - pts[:, 0], pts[:, 0] - bx, np.zeros(len(pts))])
    dy = np.maximum.reduce([ay - pts[:, 1], pts[:, 1] - by, np.zeros(len(pts))])
    dist = np.hypot(dx, dy)
    collar = (~inside) & (dist > 0.0) & (dist <= r_ext)

    return DomainMesh(
        dim=2,
        interior_nodes=pts[inside],
        exterior_nodes=pts[collar],
        cell_volume=h * h,
        h=h,
        r_ext=r_ext,
        domain_descriptor={
            "kind": "box",
            "ax": float(ax), "bx": float(bx),
            "ay": float(ay), "by": float(by),
        },
    )
