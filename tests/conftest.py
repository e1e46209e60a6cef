"""Shared meshes, operators, and one solved problem for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

import fracneumann as fn
from fracneumann import mountain_pass, operators, problem, runners


@pytest.fixture(scope="session")
def mesh_1d():
    return fn.build_interval_mesh(-1.0, 1.0, 0.01, 4.0)


@pytest.fixture(scope="session")
def op_1d(mesh_1d):
    return fn.assemble(mesh_1d, s=0.25, eps=0.3)


@pytest.fixture(scope="session")
def mesh_2d():
    return fn.build_box_mesh(((0.0, 1.0), (0.0, 1.0)), 0.2, 2.0)


@pytest.fixture(scope="session")
def op_2d(mesh_2d):
    return fn.assemble(mesh_2d, s=0.4, eps=0.5)


@pytest.fixture(scope="session")
def spec_1d(mesh_1d, op_1d):
    return fn.ProblemSpec(mesh_1d, op_1d, fn.power_nonlinearity(3.0))


@pytest.fixture(scope="session")
def solved_problem():
    """A converged mountain-pass solve on a coarse mesh, reused by the
    certificate and ladder tests."""
    mesh = fn.build_interval_mesh(-1.0, 1.0, 0.02, 2.0)
    op = fn.assemble(mesh, s=0.25, eps=0.1)
    spec = fn.ProblemSpec(mesh, op, fn.power_nonlinearity(3.0))
    phi = fn.phi_eps(mesh, 0.1)
    tent = fn.thresholds(spec, phi)
    e = fn.endpoint(spec, phi, tent)
    embedding = fn.estimate_embedding_constant(op)
    cfg = fn.MPAConfig(grad_tol=1e-9)
    report = fn.mountain_pass_solve(spec, e, cfg)
    assert report.converged
    return {"spec": spec, "report": report, "tent": tent, "phi": phi,
            "endpoint": e, "embedding": embedding}


def dense_weights(op):
    """The full-mesh weight matrix of ``op`` rebuilt from its nodes with the
    pairwise formula ``c_ns vol^2 / |x_i - x_j|^(dim+2s)``, zero on the
    diagonal and on the collar-collar block."""
    x = op.mesh.nodes
    r = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
    np.fill_diagonal(r, np.inf)
    w = op.c_ns * op.mesh.cell_volume**2 * r ** -(op.mesh.dim + 2.0 * op.s)
    ni = op.n_interior
    w[ni:, ni:] = 0.0
    return w


def random_grid_function(mesh, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(mesh.n_total)


@pytest.fixture
def apply_counter(monkeypatch):
    """Records the argument shape of every kernel application made through
    the shared full-mesh apply while the test runs: by the operators, the
    energy gradient, the path flow or the identity suite."""
    calls = []
    apply = operators._graph_laplacian_apply

    def counted(op, u):
        calls.append(np.shape(u))
        return apply(op, u)

    # problem, mountain_pass and runners bind the apply by name
    for module in (operators, problem, mountain_pass, runners):
        monkeypatch.setattr(module, "_graph_laplacian_apply", counted)
    return calls


@st.composite
def small_meshes(draw):
    """Small random 1D and 2D meshes whose spacing divides every side."""
    h = draw(st.floats(0.1, 0.5))
    if draw(st.booleans()):
        a = draw(st.floats(-2.0, 0.0))
        length = draw(st.integers(2, 12)) * h
        return fn.build_interval_mesh(a, a + length, h,
                                      draw(st.floats(1.05, 2.0)) * length)
    bx, by = draw(st.integers(1, 4)) * h, draw(st.integers(1, 4)) * h
    return fn.build_box_mesh(((0.0, bx), (0.0, by)), h,
                             draw(st.floats(1.05, 1.5)) * np.hypot(bx, by))


@st.composite
def small_operators(draw):
    """Dense operators on :func:`small_meshes`, random order s."""
    mesh = draw(small_meshes())
    s = draw(st.floats(0.05, 0.45 if mesh.dim == 1 else 0.95))
    return fn.assemble(mesh, s, 1.0)


@st.composite
def small_problems(draw):
    """Power-model problems on :func:`small_operators`, with random eps and
    an exponent p strictly inside (2, 2*)."""
    op = draw(small_operators()).with_eps(draw(st.floats(0.05, 2.0)))
    two_star = operators.critical_exponent(op.mesh.dim, op.s)
    p = 2.0 + draw(st.floats(0.05, 0.95)) * min(two_star - 2.0, 4.0)
    return fn.ProblemSpec(op.mesh, op, fn.power_nonlinearity(p))


def energy_scale(spec, u):
    """``||u||^2/2 + integral F(u)``: the sum of the magnitudes of the energy
    terms, the scale of its roundoff."""
    ui = u[:spec.mesh.n_interior]
    return (0.5 * fn.bilinear_form(spec.op, u, u)
            + spec.mesh.cell_volume * float(np.sum(fn.F_eval(spec.nonlinearity, ui))))
