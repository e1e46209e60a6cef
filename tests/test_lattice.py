"""The lattice-convolution form of the kernel apply against the dense blocks.

Imports no scipy: the numpy-only CI job runs this module.
"""

import dataclasses
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracneumann as fn
from fracneumann import operators
from fracneumann.config import load_config
from fracneumann.operators import (_centered, _convolution_apply,
                                   _graph_laplacian_apply, _identity_terms,
                                   _lattice)

from conftest import dense_weights, small_operators

REFERENCE_1D = Path(__file__).resolve().parents[1] / "configs" / "reference_1d.cfg"


@pytest.fixture(scope="module")
def op_ref():
    return fn.assemble(load_config(REFERENCE_1D).build_mesh(), 0.25, 0.1)


def dense_apply(op, u):
    """The full-mesh apply read from the dense blocks ``W_ii`` and ``W_ie``."""
    uc = _centered(u)
    ni = op.n_interior
    out = op.row_sums * uc
    out[..., :ni] -= uc[..., :ni] @ op.w_ii + uc[..., ni:] @ op.w_ie.T
    out[..., ni:] -= uc[..., :ni] @ op.w_ie
    return out


def grid_functions(rng, n_rows, n):
    """One grid function for ``n_rows == 0``, else a stack of ``n_rows``."""
    return rng.standard_normal((n_rows, n) if n_rows else n)


def convolutions():
    """A spy on the convolution calls that the rule makes."""
    return mock.patch.object(operators, "_convolution_apply",
                             wraps=_convolution_apply)


class TestConvolutionOracle:
    @settings(max_examples=80, deadline=None)
    @given(op=small_operators(), seed=st.integers(0, 2**32 - 1),
           n_rows=st.integers(0, 8), amplitude=st.floats(1e-3, 1e3),
           offset=st.floats(-5.0, 5.0))
    def test_matches_the_dense_blocks(self, op, seed, n_rows, amplitude, offset):
        rng = np.random.default_rng(seed)
        u = amplitude * (offset + grid_functions(rng, n_rows, op.n_total))
        got = _convolution_apply(op, u)
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
        rows = np.repeat(np.array(values)[:, None], op.n_total, axis=1)
        assert np.all(_convolution_apply(op, rows) == 0.0)
        assert np.all(_convolution_apply(op, rows[0]) == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(op=small_operators(), seed=st.integers(0, 2**32 - 1),
           n_rows=st.integers(1, 8))
    def test_gauss_residual_at_roundoff(self, op, seed, n_rows):
        u = grid_functions(np.random.default_rng(seed), n_rows, op.n_total)
        resid, scale = _identity_terms(op, _convolution_apply(op, u))[0]
        assert np.all(resid <= 1e-12 * scale)

    def test_reference_mesh(self, op_ref):
        u = grid_functions(np.random.default_rng(5), 3, op_ref.n_total)
        resid, scale = _identity_terms(op_ref, _convolution_apply(op_ref, u))[0]
        assert np.all(resid <= 1e-12 * scale)
        diff = _convolution_apply(op_ref, u) - dense_apply(op_ref, u)
        assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(dense_apply(op_ref, u)))


class TestRule:
    def test_reference_narrow_stacks_convolve(self, op_ref):
        rng = np.random.default_rng(1)
        with convolutions() as spy:
            for n_rows in (0, 1, 4, 8):
                u = grid_functions(rng, n_rows, op_ref.n_total)
                assert np.array_equal(_graph_laplacian_apply(op_ref, u),
                                      _convolution_apply(op_ref, u))
            assert spy.call_count == 4
            wide = grid_functions(rng, 9, op_ref.n_total)
            assert np.array_equal(_graph_laplacian_apply(op_ref, wide),
                                  dense_apply(op_ref, wide))
            assert spy.call_count == 4

    @settings(max_examples=60, deadline=None)
    @given(op=small_operators(), seed=st.integers(0, 2**32 - 1),
           n_rows=st.integers(0, 8))
    def test_small_meshes_stay_dense(self, op, seed, n_rows):
        u = grid_functions(np.random.default_rng(seed), n_rows, op.n_total)
        with convolutions() as spy:
            assert np.array_equal(_graph_laplacian_apply(op, u), dense_apply(op, u))
        assert spy.call_count == 0

    def test_spectrum_is_small_and_shared(self, op_ref):
        spectrum, cells = _lattice(op_ref)
        assert spectrum.size < op_ref.n_interior * op_ref.n_total
        assert np.unique(cells).size == op_ref.n_total
        other = op_ref.with_eps(0.05)
        assert other.lattice is op_ref.lattice
        assert _lattice(other)[0] is spectrum


class TestOffLattice:
    @pytest.fixture
    def jittered(self, op_ref):
        """The reference operator with its first interior node moved off the
        lattice by a thousandth of a cell, weights reassembled."""
        mesh = op_ref.mesh
        nodes = mesh.interior_nodes.copy()
        nodes[0, 0] += 1e-3 * mesh.h
        return fn.assemble(dataclasses.replace(mesh, interior_nodes=nodes),
                           op_ref.s, op_ref.eps)

    def test_direct_call_raises(self, jittered):
        with pytest.raises(ValueError, match="lattice"):
            _convolution_apply(jittered, np.ones(jittered.n_total))

    def test_rule_stays_dense(self, jittered):
        u = np.random.default_rng(2).standard_normal(jittered.n_total)
        with convolutions() as spy:
            assert np.array_equal(_graph_laplacian_apply(jittered, u),
                                  dense_apply(jittered, u))
        assert spy.call_count == 0
