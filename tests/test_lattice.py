"""The lattice-convolution form of the weights against the dense blocks.

Imports no scipy: the numpy-only CI job runs this module.
"""

import dataclasses
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracneumann as fn
from fracneumann import mountain_pass, operators
from fracneumann.config import load_config
from fracneumann.mountain_pass import _newton_polish
from fracneumann.operators import (_centered, _graph_laplacian_apply,
                                   _pair_sums, _pair_weights, _reduced_matrix)

from conftest import dense_weights, small_operators

REFERENCE_1D = Path(__file__).resolve().parents[1] / "configs" / "reference_1d.cfg"


@pytest.fixture(scope="module")
def cfg_ref():
    return load_config(REFERENCE_1D)


@pytest.fixture(scope="module")
def op_ref(cfg_ref):
    return fn.assemble(cfg_ref.build_mesh(), 0.25, 0.1)


def dense_apply(op, u):
    """The full-mesh apply read from the dense blocks ``W_ii`` and ``W_ie``."""
    uc = _centered(u)
    ni = op.n_interior
    out = op.row_sums * uc
    out[..., :ni] -= uc[..., :ni] @ op.w_ii + uc[..., ni:] @ op.w_ie.T
    out[..., ni:] -= uc[..., :ni] @ op.w_ie
    return out


def dense_twin(op):
    """The oracle: ``op`` with the dense blocks, built by ``_pair_weights``,
    and their row sums in place of its stencil."""
    mesh = op.mesh
    xi, vol = mesh.interior_nodes, mesh.cell_volume
    w_ii = _pair_weights(xi, xi, op.s, vol)
    w_ie = _pair_weights(xi, mesh.exterior_nodes, op.s, vol)
    return dataclasses.replace(
        op, w_ii=w_ii, w_ie=w_ie, lattice=None,
        row_sums=np.concatenate([w_ii.sum(1) + w_ie.sum(1), w_ie.sum(0)]))


def lattice_twin(op):
    """``op``'s weights as a stencil: with no entry threshold, every mesh on
    the lattice takes that form."""
    with mock.patch.object(operators, "CONVOLUTION_MIN_ENTRIES", 0):
        twin = fn.assemble(op.mesh, op.s, op.eps)
    assert twin.lattice is not None and twin.w_ii is None and twin.w_ie is None
    return twin


def full_collar_sum(op):
    """``W_ii + sum_e w_e w_e^T / d_e`` over every collar node, 256 collar
    columns at a time in collar order: the oracle for the collar-eliminated
    matrix, which sums mirror pairs of collar nodes instead."""
    mesh, ni = op.mesh, op.n_interior
    xi, xe, vol = mesh.interior_nodes, mesh.exterior_nodes, mesh.cell_volume
    m = _pair_weights(xi, xi, op.s, vol)
    for k in range(0, mesh.n_exterior, 256):
        b = _pair_weights(xi, xe[k:k + 256], op.s, vol)
        b /= np.sqrt(op.row_sums[ni + k:ni + k + 256])
        m += b @ b.T
    return m


def grid_functions(rng, n_rows, n):
    """One grid function for ``n_rows == 0``, else a stack of ``n_rows``."""
    return rng.standard_normal((n_rows, n) if n_rows else n)


def convolutions():
    """A spy on the stencil's pair sums, which the apply takes on a stencil
    operator only."""
    return mock.patch.object(operators, "_pair_sums", wraps=_pair_sums)


class TestConvolutionOracle:
    @settings(max_examples=80, deadline=None)
    @given(op=small_operators(), seed=st.integers(0, 2**32 - 1),
           n_rows=st.integers(0, 8), amplitude=st.floats(1e-3, 1e3),
           offset=st.floats(-5.0, 5.0))
    def test_matches_the_dense_blocks(self, op, seed, n_rows, amplitude, offset):
        rng = np.random.default_rng(seed)
        u = amplitude * (offset + grid_functions(rng, n_rows, op.n_total))
        lat = lattice_twin(op)
        with convolutions() as spy:
            got = _graph_laplacian_apply(lat, u)
        assert spy.call_count == 1
        rows = np.atleast_2d(u)
        diff = rows[:, :, None] - rows[:, None, :]
        w = dense_weights(op)
        scale = np.einsum("ij,kij->ki", w, np.abs(diff))
        tol = 1e-12 * scale.max(axis=1, keepdims=True)
        assert got.shape == u.shape
        assert np.all(np.abs(np.atleast_2d(got) - np.einsum("ij,kij->ki", w, diff))
                      <= tol)
        assert np.all(np.abs(np.atleast_2d(got - dense_apply(op, u))) <= tol)

    @settings(max_examples=60, deadline=None)
    @given(op=small_operators(),
           values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_constant_rows_give_exact_zero(self, op, values):
        lat = lattice_twin(op)
        rows = np.repeat(np.array(values)[:, None], op.n_total, axis=1)
        with convolutions() as spy:
            assert np.all(_graph_laplacian_apply(lat, rows) == 0.0)
            assert np.all(_graph_laplacian_apply(lat, rows[0]) == 0.0)
        assert spy.call_count == 2

    @settings(max_examples=60, deadline=None)
    @given(op=small_operators(), seed=st.integers(0, 2**32 - 1),
           n_pairs=st.integers(0, 4))
    def test_gauss_residual_at_roundoff(self, op, seed, n_pairs):
        # one pair (2, n) for n_pairs == 0, else a (n_pairs, 2, n) stack
        lat = lattice_twin(op)
        shape = (n_pairs, 2, op.n_total) if n_pairs else (2, op.n_total)
        uv = np.random.default_rng(seed).standard_normal(shape)
        with convolutions() as spy:
            terms = fn.check_identities(lat, uv)
        assert spy.call_count == 1
        for resid, scale in terms:  # Gauss, then Green
            assert np.all(resid <= 1e-12 * scale)

    def test_reference_mesh(self, op_ref):
        # the reference operator stores no blocks: the oracle builds them
        oracle = dense_twin(op_ref)
        u = grid_functions(np.random.default_rng(5), 4, op_ref.n_total)
        with convolutions() as spy:
            got = _graph_laplacian_apply(op_ref, u)
        assert spy.call_count == 1
        for resid, scale in fn.check_identities(op_ref, u.reshape(2, 2, -1)):
            assert np.all(resid <= 1e-12 * scale)
        want = dense_apply(oracle, u)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.all(np.abs(op_ref.row_sums - oracle.row_sums)
                      <= 1e-12 * oracle.row_sums)


class TestRule:
    def test_reference_narrow_stacks_convolve(self, op_ref):
        # the representation, not the row count, picks the form: on the
        # reference mesh every stack convolves, 9 and 20 rows too
        assert op_ref.w_ii is None and op_ref.w_ie is None
        oracle = dense_twin(op_ref)
        rng = np.random.default_rng(1)
        with convolutions() as spy:
            for n_rows in (0, 1, 4, 8, 9, 20):
                u = grid_functions(rng, n_rows, op_ref.n_total)
                got = _graph_laplacian_apply(op_ref, u)
                want = dense_apply(oracle, u)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert spy.call_count == 6

    @settings(max_examples=60, deadline=None)
    @given(op=small_operators(), seed=st.integers(0, 2**32 - 1),
           n_rows=st.integers(0, 8))
    def test_small_meshes_stay_dense(self, op, seed, n_rows):
        assert op.lattice is None
        u = grid_functions(np.random.default_rng(seed), n_rows, op.n_total)
        with convolutions() as spy:
            assert np.array_equal(_graph_laplacian_apply(op, u), dense_apply(op, u))
        assert spy.call_count == 0

    def test_spectrum_is_small_and_shared(self, op_ref):
        spectrum, cells, table, offsets = op_ref.lattice
        assert spectrum.size < op_ref.n_interior * op_ref.n_total
        assert np.unique(cells).size == op_ref.n_total
        # one weight per cell offset, 2 reach + 1 = 2,399 of them
        assert table.size == 2399 and np.unique(offsets).size == op_ref.n_total
        # no n_i x n_i or n_i x n_e array on the operator
        arrays = [getattr(op_ref, f.name) for f in dataclasses.fields(op_ref)]
        arrays = [a for a in arrays + list(op_ref.lattice) if isinstance(a, np.ndarray)]
        assert max(a.size for a in arrays) < op_ref.n_interior**2
        other = op_ref.with_eps(0.05)
        assert other.lattice is op_ref.lattice and other.lattice[0] is spectrum
        assert other.row_sums is op_ref.row_sums


class TestLatticeForm:
    """Every reader of the weights on a stencil operator against the same
    reader on the dense blocks of the same mesh."""

    @settings(max_examples=40, deadline=None)
    @given(op=small_operators(), seed=st.integers(0, 2**32 - 1),
           n_rows=st.integers(0, 8))
    def test_readers_match_the_dense_oracle(self, op, seed, n_rows):
        lat, rng = lattice_twin(op), np.random.default_rng(seed)
        ni, n, vol = op.n_interior, op.n_total, op.mesh.cell_volume
        assert np.all(np.abs(lat.row_sums - op.row_sums) <= 1e-12 * op.row_sums)

        u = grid_functions(rng, n_rows, n)
        got, want = _graph_laplacian_apply(lat, u), _graph_laplacian_apply(op, u)
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.max(np.abs(want), axis=-1, keepdims=True))
        c = np.full((max(n_rows, 1), n), 1.0 + seed % 7)
        assert np.all(_graph_laplacian_apply(lat, c) == 0.0)

        w = grid_functions(rng, n_rows, ni)
        ext = fn.exterior_extension(lat, w)
        scale = np.max(np.abs(w), axis=-1, keepdims=True)
        assert np.all(np.abs(ext - fn.exterior_extension(op, w)) <= 1e-12 * scale)
        flux = fn.neumann_derivative(lat, ext)
        assert np.all(np.abs(flux) <= 1e-12 * 2.0 * lat.row_sums.max() / vol * scale)

        m_lat, m = _reduced_matrix(lat), _reduced_matrix(op)
        assert np.all(np.abs(m_lat - m) <= 1e-12 * m)

        # one Newton step from a small start, where the Hessian is near the
        # identity plus the kernel, so the step is well conditioned
        two_star = operators.critical_exponent(op.mesh.dim, op.s)
        f = fn.power_nonlinearity(2.0 + 0.5 * min(two_star - 2.0, 4.0))
        u0 = 0.1 * rng.standard_normal(n)
        steps = []
        for form in (lat, op):
            spec = fn.ProblemSpec(op.mesh, form, f)
            with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
                warnings.simplefilter("ignore", RuntimeWarning)
                mp.setattr(mountain_pass, "NEWTON_MAX_STEPS", 1)
                steps.append(_newton_polish(spec, u0, 1e-300))
        (u_lat, used_lat), (u_dense, used) = steps
        assert used_lat == used == 1
        # relative to the step, which lands near the critical point 0
        assert np.max(np.abs(u_lat - u_dense)) <= 1e-12 * np.max(np.abs(u_dense - u0))


class TestMirroredReducedMatrix:
    """``M`` from the first half of the collar on the mirrored meshes that
    :func:`fracneumann.build_box_mesh` makes."""

    @staticmethod
    def check_mirrored(op):
        m = _reduced_matrix(op)
        d = m @ np.ones(op.n_interior)
        assert np.array_equal(m, m[::-1, ::-1]) and np.array_equal(m, m.T)
        full = full_collar_sum(op)
        assert np.all(np.abs(m - full) <= 1e-13 * full)
        assert np.all(np.abs(d - op.row_sums[:op.n_interior])
                      <= 1e-14 * op.row_sums[:op.n_interior])

    @settings(max_examples=60, deadline=None)
    @given(op=small_operators())
    def test_small_meshes(self, op):
        self.check_mirrored(op)

    def test_reference_mesh(self, op_ref):
        self.check_mirrored(op_ref)

    @pytest.mark.parametrize("form", [lambda op: op, lattice_twin],
                             ids=["blocks", "stencil"])
    @pytest.mark.parametrize("bounds, h, r_ext", [
        (((-1.0, 0.5),), 0.1, 1.6),  # 15 nodes
        (((0.0, 0.5), (0.0, 0.3)), 0.1, 0.6),  # 5 x 3 nodes
    ], ids=["interval", "box"])
    def test_odd_interiors(self, bounds, h, r_ext, form):
        # the centre row belongs to the even block only
        op = form(fn.assemble(fn.build_box_mesh(bounds, h, r_ext), 0.3, 1.0))
        assert op.n_interior % 2 == 1 and (op.lattice is None) == (op.w_ii is not None)
        self.check_mirrored(op)

    @pytest.mark.parametrize("form", [lambda op: op, lattice_twin],
                             ids=["blocks", "stencil"])
    def test_reads_the_stored_weights(self, form):
        op = form(fn.assemble(fn.build_box_mesh(((0.0, 0.5), (0.0, 0.4)), 0.1, 0.7),
                              0.4, 1.0))
        with mock.patch.object(operators, "_pair_weights", wraps=_pair_weights) as spy:
            m = _reduced_matrix(op)
        assert spy.call_count == 0
        assert np.all(np.abs(m - full_collar_sum(op)) <= 1e-13 * m)


class TestThreadCount:
    @pytest.mark.parametrize("form", [lambda op: op, lattice_twin],
                             ids=["blocks", "stencil"])
    def test_reduced_matrix_bits_do_not_depend_on_the_caller_count(self, mesh_1d,
                                                                    form):
        # OpenBLAS splits a product's sums by its thread count: on this mesh
        # two threads move M's last bits unless M is formed on one
        threads = operators._blas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
        get, set_ = threads
        ops = [form(fn.assemble(mesh_1d, 0.25, 0.2)) for _ in range(2)]
        before, forms = get(), []
        try:
            for op, count in zip(ops, (2, 1)):
                set_(count)
                forms.append(_reduced_matrix(op))
                assert get() == count
        finally:
            set_(before)
        assert np.array_equal(*forms)


class TestMemory:
    def test_reference_stores_no_blocks(self, cfg_ref):
        mesh = cfg_ref.build_mesh()
        tracemalloc.start()
        try:
            op = fn.assemble(mesh, cfg_ref.s, cfg_ref.first_eps())
            assembled = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            fn.estimate_embedding_constant(op)
            estimated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.w_ii is None and op.w_ie is None
        assert assembled < 1e6
        assert estimated < 5e6

    def test_refined_reference_mesh_assembles_silently(self, cfg_ref):
        # the h = h_ref / 4 mesh has 1600 x 8000 dense entries, beyond the
        # budget, but stores its stencil only
        mesh = fn.build_box_mesh(cfg_ref.bounds, cfg_ref.h / 4,
                                 cfg_ref.resolved_r_ext())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = fn.assemble(mesh, cfg_ref.s, cfg_ref.first_eps())
        assert op.n_interior * op.n_total > operators.DENSE_ENTRY_BUDGET
        assert op.lattice is not None and op.w_ii is None
