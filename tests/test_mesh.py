import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import small_meshes
from fracneumann import build_box_mesh, build_interval_mesh
from fracneumann.mesh import check_box


def test_interval_example_nodes():
    mesh = build_interval_mesh(-1.0, 1.0, 0.5, 10.0)
    np.testing.assert_allclose(mesh.interior_nodes.ravel(),
                               [-0.75, -0.25, 0.25, 0.75])
    assert mesh.n_exterior == 40
    assert mesh.cell_volume == 0.5


@pytest.mark.parametrize("h", [0.5, 0.25, 0.1, 0.05])
def test_interval_volume_partition(h):
    mesh = build_interval_mesh(-1.0, 1.0, h, 4.0)
    assert mesh.n_interior * h == pytest.approx(2.0, rel=1e-14)


def test_interval_collar_too_thin():
    with pytest.raises(ValueError, match="collar too thin"):
        build_interval_mesh(0.0, 1.0, 0.1, 0.05)


def test_interval_bad_spacing():
    with pytest.raises(ValueError, match="positive"):
        build_interval_mesh(0.0, 1.0, -0.1, 2.0)
    with pytest.raises(ValueError, match="degenerate"):
        build_interval_mesh(1.0, 0.0, 0.1, 2.0)
    # each non-finite argument is named, not left to an empty mesh or an
    # OverflowError from the collar's cell count
    with pytest.raises(ValueError, match="h must be finite, got h=inf"):
        build_interval_mesh(-1.0, 1.0, np.inf, 2.0)
    with pytest.raises(ValueError, match="r_ext must be finite, got r_ext=inf"):
        build_interval_mesh(-1.0, 1.0, 0.1, np.inf)
    with pytest.raises(ValueError, match="bounds must be finite"):
        build_interval_mesh(-1.0, np.inf, 0.1, 2.0)


def test_box_example_counts():
    mesh = build_box_mesh(((0.0, 1.0), (0.0, 1.0)), 0.25, 2.0)
    assert mesh.n_interior == 16
    assert mesh.n_interior * mesh.cell_volume == pytest.approx(1.0, rel=1e-14)


def test_box_degenerate_bounds():
    with pytest.raises(ValueError, match="degenerate"):
        build_box_mesh(((1.0, 0.0), (0.0, 1.0)), 0.25, 4.0)


def test_box_collar_too_thin():
    with pytest.raises(ValueError, match="collar too thin"):
        build_box_mesh(((0.0, 1.0), (0.0, 1.0)), 0.25, 1.0)


@pytest.mark.parametrize("builder,kwargs,dim", [
    (build_interval_mesh, dict(a=-1.0, b=1.0, h=0.1, r_ext=3.0), 1),
    (build_box_mesh, dict(bounds=((0.0, 1.0), (-1.0, 0.5)), h=0.1, r_ext=2.0), 2),
])
def test_node_disjointness_and_containment(builder, kwargs, dim):
    mesh = builder(**kwargs)
    assert mesh.dim == dim
    assert np.all(mesh.contains(mesh.interior_nodes))
    assert not np.any(mesh.contains(mesh.exterior_nodes))
    dist = mesh.distance_to_domain(mesh.exterior_nodes)
    assert np.all(dist > 0.0)
    assert np.all(dist <= mesh.r_ext + 1e-12)
    # no coincident nodes across the two sets
    allpts = mesh.nodes
    diffs = np.linalg.norm(allpts[:, None, :] - allpts[None, :, :], axis=-1)
    np.fill_diagonal(diffs, 1.0)
    assert diffs.min() > mesh.h / 2.0


@pytest.mark.parametrize("dim", [1, 2])
def test_refinement_doubles_counts(dim):
    if dim == 1:
        coarse = build_interval_mesh(-1.0, 1.0, 0.1, 2.0)
        fine = build_interval_mesh(-1.0, 1.0, 0.05, 2.0)
    else:
        coarse = build_box_mesh(((0.0, 1.0), (0.0, 1.0)), 0.2, 2.0)
        fine = build_box_mesh(((0.0, 1.0), (0.0, 1.0)), 0.1, 2.0)
    assert fine.n_interior == coarse.n_interior * 2**dim


def test_spacing_must_divide_every_side():
    # h = 0.3 on (-1, 1) would make 7 cells over (-1, 1.1)
    with pytest.raises(ValueError, match="does not divide"):
        build_interval_mesh(-1.0, 1.0, 0.3, 4.0)
    with pytest.raises(ValueError, match="does not divide"):
        build_box_mesh(((0.0, 1.0), (0.0, 1.0)), 0.3, 2.0)
    with pytest.raises(ValueError, match="does not divide"):
        build_box_mesh(((0.0, 1.0), (0.0, 0.1)), 0.25, 2.0)
    lo, hi = check_box(((0.0, 1.0), (-1.0, 0.5)), 0.1, 2.0)
    assert lo.tolist() == [0.0, -1.0] and hi.tolist() == [1.0, 0.5]


def interval_reference(a, b, h, r_ext):
    """The single-interval construction: interior cells at ``a + (k + 1/2)
    h``, then ``round(r_ext / h)`` collar cells on each side, left first."""
    n, m = int(round((b - a) / h)), int(round(r_ext / h))
    interior = a + (np.arange(n) + 0.5) * h
    left = a - (np.arange(m, 0, -1) - 0.5) * h
    right = b + (np.arange(m) + 0.5) * h
    return interior, np.concatenate([left, right])


def box_reference(lo, hi, h, r_ext):
    """The single-lattice 2D construction: every axis at ``lo + (k + 1/2) h``
    for k from -m to n + m - 1, interior by strict containment, collar
    within ``r_ext`` of the closed box."""
    m = int(round(r_ext / h))
    axes = [a + (np.arange(-m, int(round((b - a) / h)) + m) + 0.5) * h
            for a, b in zip(lo, hi)]
    X, Y = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    inside = np.all((pts > lo) & (pts < hi), axis=1)
    gap = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    dist = np.hypot(gap[:, 0], gap[:, 1])
    return pts[inside], pts[~inside & (dist > 0.0) & (dist <= r_ext)]


@settings(max_examples=300, deadline=None)
@given(mesh=small_meshes())
def test_matches_the_single_lattice_construction(mesh):
    if mesh.dim == 1:
        interior, exterior = interval_reference(mesh.lo[0], mesh.hi[0], mesh.h,
                                                mesh.r_ext)
        assert np.array_equal(mesh.interior_nodes, interior.reshape(-1, 1))
        assert np.array_equal(mesh.exterior_nodes, exterior.reshape(-1, 1))
        assert mesh.cell_volume == mesh.h
        return
    interior, exterior = box_reference(mesh.lo, mesh.hi, mesh.h, mesh.r_ext)
    assert np.array_equal(mesh.interior_nodes, interior)
    assert mesh.cell_volume == mesh.h * mesh.h

    # a cell at distance r_ext to rounding (say r_ext = 7.5 h beside a 3 x 4
    # cell box) is in or out of the reference collar as its coordinates
    # round; compare the cells off that tie
    def off_tie(nodes):
        dist = mesh.distance_to_domain(nodes)
        return nodes[np.abs(dist - mesh.r_ext) > 1e-9 * mesh.r_ext]

    got, ref = off_tie(mesh.exterior_nodes), off_tie(exterior)
    assert got.shape == ref.shape
    # the far-side collar counts from hi, the reference from lo
    ulp = np.spacing(np.maximum(np.abs(got), np.abs(ref)))
    assert np.all(np.abs(got - ref) <= ulp)


@settings(max_examples=100, deadline=None)
@given(mesh=small_meshes(), shift=st.floats(-3.0, 3.0))
def test_collar_does_not_depend_on_where_the_box_sits(mesh, shift):
    bounds = [(a + shift, b + shift) for a, b in zip(mesh.lo, mesh.hi)]
    moved = build_box_mesh(bounds, mesh.h, mesh.r_ext)
    assert moved.n_interior == mesh.n_interior
    assert moved.n_exterior == mesh.n_exterior


@settings(max_examples=200, deadline=None)
@given(mesh=small_meshes())
def test_reversing_a_node_list_reflects_it(mesh):
    # point reflection through the box centre maps each node list onto itself
    # in reverse order, in 1D and 2D; the collar-eliminated matrix sums half
    # the collar on this
    for nodes in (mesh.interior_nodes, mesh.exterior_nodes):
        assert np.all(np.abs(nodes + nodes[::-1] - mesh.lo - mesh.hi)
                      <= 1e-9 * mesh.h)
    assert mesh.n_exterior % 2 == 0


@settings(max_examples=200, deadline=None)
@given(mesh=small_meshes())
def test_cells_give_the_lattice_layout(mesh):
    # each node is the centre of its recorded cell, the cell the coordinates
    # round to; reversing a node list maps every cell k to n - 1 - k, its
    # mirror across the box, on each axis of n interior cells
    assert mesh.cells.shape == (mesh.n_total, mesh.dim)
    assert mesh.cells.dtype.kind == "i"
    centres = mesh.lo + (mesh.cells + 0.5) * mesh.h
    assert np.all(np.abs(centres - mesh.nodes) <= 1e-9 * mesh.h)
    rounded = np.round((mesh.nodes - mesh.lo) / mesh.h - 0.5)
    assert np.array_equal(mesh.cells, rounded)
    n = np.round((mesh.hi - mesh.lo) / mesh.h).astype(int)
    interior, collar = mesh.cells[:mesh.n_interior], mesh.cells[mesh.n_interior:]
    assert np.all((interior >= 0) & (interior < n))
    for cells in (interior, collar):
        assert np.array_equal(cells + cells[::-1], np.broadcast_to(n - 1, cells.shape))
    assert mesh.n_exterior % 2 == 0
