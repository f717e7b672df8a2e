import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import charts, grid, presets
from curv4.grid import GridError, SolverError

from oracles import lumped_masses, sparse_coboundary, star_gram_loops

PERTURBED = [
    ["1 + 0.1*sin(x1)*cos(x2)", "0.03*sin(x3)*sin(x4)", "0", "0"],
    ["0.03*sin(x3)*sin(x4)", "1 + 0.1*sin(x2)*cos(x3)", "0", "0"],
    ["0", "0", "1 + 0.1*sin(x3)*cos(x4)", "0"],
    ["0", "0", "0", "1 + 0.1*sin(x4)*cos(x1)"],
]


def perturbed_chart():
    return charts.chart_from_strings(PERTURBED, [(0.0, 2 * np.pi)] * 4, 1,
                                     "perturbed_t4")


@pytest.fixture(scope="module")
def flat4():
    return grid.assemble(presets.flat_t4(), 4)


@pytest.fixture(scope="module")
def pert4():
    return grid.assemble(perturbed_chart(), 4)


@pytest.fixture(scope="module")
def pert8():
    return grid.assemble(perturbed_chart(), 8)


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_d_squared_zero_exact(n):
    """d_{k+1} d_k = 0 and d_k^T d_{k+1}^T = 0 exactly: on every identity column for
    n <= 4 (the whole matrix product), on integer-valued random cochains above."""
    gc = grid.assemble(presets.flat_t4(), n)
    rng = np.random.default_rng(n)
    for k in range(3):
        if n <= 4:
            X, Y = np.eye(gc.dim(k), dtype=np.int64), np.eye(gc.dim(k + 2), dtype=np.int64)
        else:
            X, Y = (rng.integers(-50, 51, (gc.dim(j), 6)) for j in (k, k + 2))
        assert not np.any(gc.d[k + 1] @ (gc.d[k] @ X))
        assert not np.any(gc.d[k].T @ (gc.d[k + 1].T @ Y))
        assert not np.any(gc.d[k + 1] @ (gc.d[k] @ X[:, 0]))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_stencil_matches_sparse_oracle(n):
    """d_k and d_k^T equal the CSR incidence matrices exactly on integer-valued
    cochains, 1-D and in 6-column blocks, and _Sym2.diag equals diag(B) from them."""
    gc = grid.assemble(perturbed_chart(), n)
    rng = np.random.default_rng(n)
    ref = [sparse_coboundary(n, k) for k in range(4)]
    for k in range(4):
        assert gc.d[k].nnz == ref[k].nnz
        for cols in ((), (6,)):
            x = rng.integers(-9, 10, (gc.dim(k),) + cols)
            y = rng.integers(-9, 10, (gc.dim(k + 1),) + cols)
            assert np.array_equal(gc.d[k] @ x, ref[k] @ x)
            assert np.array_equal(gc.d[k].T @ y, ref[k].T @ y)
    M1, M2, M3 = gc.M[1:4]
    diag = (ref[2].power(2).T @ M3) / M2 + (ref[1].power(2) @ (1.0 / M1)) * M2
    assert np.allclose(grid._Sym2(gc).diag(), diag, rtol=1e-14, atol=0.0)


def test_flat_mass_matrices(flat4):
    h4 = flat4.h**4
    for k in range(5):
        assert np.allclose(flat4.M[k], h4)
    assert np.all(flat4.M[2] > 0)


def test_adjointness_all_degrees(pert8):
    rng = np.random.default_rng(4)
    for k in (1, 2, 3, 4):
        a = rng.standard_normal(pert8.dim(k - 1))
        b = rng.standard_normal(pert8.dim(k))
        lhs = pert8.inner(k, pert8.d[k - 1] @ a, b)
        rhs = pert8.inner(k - 1, a, pert8.delta(k, b))
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)


def test_laplacian_symmetric(pert8):
    rng = np.random.default_rng(5)
    a = rng.standard_normal(pert8.dim(2))
    b = rng.standard_normal(pert8.dim(2))
    lhs = pert8.inner(2, pert8.laplacian2(a), b)
    rhs = pert8.inner(2, a, pert8.laplacian2(b))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_nonperiodic_metric_rejected():
    bad = charts.chart_from_strings(
        [["1 + 0.1*x1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [(0.0, 2 * np.pi)] * 4, 1, "aperiodic")
    with pytest.raises(GridError, match="periodic"):
        grid.assemble(bad, 4)


def test_indefinite_metric_rejected():
    bad = charts.chart_from_strings(
        [["sin(x1)", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [(0.0, 2 * np.pi)] * 4, 1, "indefinite_t4")
    with pytest.raises(GridError, match="positive definite"):
        grid.assemble(bad, 4)


def test_indefinite_barycenter_named():
    """g11 < 0 only at the (1,)-cell barycenter (pi/4, pi/2, pi, 0) of the n=4
    lattice: assemble passes the sites and names that barycenter."""
    bad = charts.chart_from_strings(
        [["3.9 - cos(x1 - pi/4) - cos(x2 - pi/2) - cos(x3 - pi) - cos(x4)", "0", "0", "0"],
         ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [(0.0, 2 * np.pi)] * 4, 1, "one_bad_cell")
    where = (np.pi / 4, np.pi / 2, np.pi, 0.0)
    message = f"metric not positive definite at cell barycenter {where}"
    with pytest.raises(GridError, match=re.escape(message)):
        grid.assemble(bad, 4)


def _assert_masses_within_ulps(chart, n, ulps=8):
    """The closed-form masses det(g_{S^c S^c}) h^4 / sqrt(det g) (Jacobi's
    complementary minor) equal sqrt(det g) det((g^-1)_SS) h^4 from LAPACK."""
    gc = grid.assemble(chart, n)
    for got, ref in zip(gc.M, lumped_masses(chart, n)):
        assert np.all(np.abs(got - ref) <= ulps * np.spacing(np.abs(ref)))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_masses_match_inverse_determinant(n):
    _assert_masses_within_ulps(presets.flat_t4(), n)
    _assert_masses_within_ulps(perturbed_chart(), n)


_TRIG = st.tuples(st.floats(-0.1, 0.1), st.sampled_from(("sin", "cos")),
                  st.integers(1, 2), st.integers(1, 4))


@given(st.lists(_TRIG, min_size=10, max_size=10), st.sampled_from((3, 4, 5)))
@settings(max_examples=25, deadline=None)
def test_masses_match_inverse_determinant_random(terms, n):
    """Random near-flat periodic trig metrics g = I + (a sin|cos(f x_v)), |a| <= 0.1
    per entry, so positive definite by Gershgorin."""
    entries = [[None] * 4 for _ in range(4)]
    upper = iter(terms)
    for i in range(4):
        for j in range(i, 4):
            a, fn, f, v = next(upper)
            entries[i][j] = entries[j][i] = f"{int(i == j)} + ({a:.6f})*{fn}({f}*x{v})"
    chart = charts.chart_from_strings(entries, [(0.0, 2 * np.pi)] * 4, 1, "near_flat")
    _assert_masses_within_ulps(chart, n)


def test_star_gram_matches_loops(pert4):
    """The contracted S and G equal one inner_lambda2 per basis pair."""
    basis = grid.harmonic_kernel(pert4)
    S, G = grid._star_gram(basis)
    S_ref, G_ref = star_gram_loops(basis)
    assert np.allclose(S, S_ref, rtol=0, atol=1e-15 * np.max(np.abs(S_ref)))
    assert np.allclose(G, G_ref, rtol=0, atol=1e-15 * np.max(np.abs(G_ref)))


def test_flat_kernel_is_constants(flat4):
    """Oracle: the 6 constant 2-cochains span the kernel on the flat torus."""
    basis = grid.harmonic_kernel(flat4)
    assert basis.vectors.shape[1] == 6
    assert basis.kernel_residual <= 1e-10
    N = flat4.sites
    consts = np.zeros((flat4.dim(2), 6))
    for p in range(6):
        consts[p * N:(p + 1) * N, p] = 1.0
    # the constants lie in the computed kernel span: M-projection returns them
    gram = consts.T @ (flat4.M[2][:, None] * basis.vectors)
    back = basis.vectors @ gram.T
    assert np.max(np.abs(back - consts)) < 1e-6
    resid = np.max(np.abs(flat4.laplacian2(basis.vectors[:, 0])))
    assert resid < 1e-10


def test_kernel_orthonormal_in_M(flat4):
    basis = grid.harmonic_kernel(flat4)
    gram = basis.vectors.T @ (flat4.M[2][:, None] * basis.vectors)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_flat_definiteness(flat4):
    rep = grid.definiteness_report(grid.harmonic_kernel(flat4))
    assert rep["kernel_dim"] == 6
    assert rep["b2_plus"] == 3 and rep["b2_minus"] == 3
    assert rep["signature"] == 0 and rep["definite"] is False
    assert not rep["b2_equals_abs_signature"]
    mus = np.array(rep["star_eigenvalues"])
    assert np.all(np.minimum(np.abs(mus - 1), np.abs(mus + 1)) < 0.1)


def test_perturbed_counts_invariant(pert8):
    rep = grid.definiteness_report(grid.harmonic_kernel(pert8))
    assert rep["kernel_dim"] == 6
    assert (rep["b2_plus"], rep["b2_minus"], rep["signature"]) == (3, 3, 0)
    assert rep["definite"] is False


def test_kernel_dim_independent_of_n():
    dims = []
    for n in (4, 6):
        gc = grid.assemble(perturbed_chart(), n)
        dims.append(grid.harmonic_kernel(gc).vectors.shape[1])
    assert dims == [6, 6]


def test_synthetic_self_dual_basis_definite(flat4):
    """A kernel restricted to the self-dual constants reports definite."""
    N = flat4.sites
    sd_pairs = [(0, 5, 1.0), (1, 4, -1.0), (2, 3, 1.0)]  # w12+w34, w13-w24, w14+w23
    vecs = np.zeros((flat4.dim(2), 3))
    for m, (a, b, sign) in enumerate(sd_pairs):
        vecs[a * N:(a + 1) * N, m] = 1.0
        vecs[b * N:(b + 1) * N, m] = sign
    norms = np.sqrt(np.einsum("im,i,im->m", vecs, flat4.M[2], vecs))
    vecs /= norms
    basis = grid.HarmonicBasis(complex=flat4, vectors=vecs)
    rep = grid.definiteness_report(basis)
    assert rep["definite"] is True
    assert rep["b2_plus"] == 3 and rep["b2_minus"] == 0
    assert rep["b2_equals_abs_signature"]


def test_green_stokes(flat4, pert8):
    rng = np.random.default_rng(6)
    # 0-cochains, any metric: exact by construction
    u = rng.standard_normal(pert8.dim(0))
    val = abs(np.sum(pert8.M[0] * pert8.delta(1, pert8.d[0] @ u)))
    assert val <= 1e-10 * np.linalg.norm(u)
    # flat 2-cochains
    x = rng.standard_normal(flat4.dim(2))
    val2 = abs(np.sum(flat4.M[2] * flat4.laplacian2(x)))
    assert val2 <= 1e-10 * np.linalg.norm(x)


def test_solver_gates_fail(pert4):
    """A CG solve capped above its tolerance and a kernel residual above the
    gate both raise SolverError, naming the class or the residual."""
    with pytest.raises(SolverError, match=r"dx1\^dx2 stopped at its cap of 2 iterations"):
        grid.harmonic_kernel(pert4, maxit=2)
    with pytest.raises(SolverError, match=r"dx3\^dx4 stopped at its cap of 2 iterations"):
        grid.harmonic_representative(pert4, (2, 3), maxit=2)
    with pytest.raises(SolverError, match="harmonic basis residual"):
        grid.harmonic_kernel(pert4, tol=1e-20)


def test_kernel_matches_eigensolver(pert4):
    """Independent path: the eigensolver's six smallest Ritz vectors span the
    kernel built from the cohomology classes."""
    basis = grid.harmonic_kernel(pert4)
    theta, X, lam_max, _ = grid.smallest_eigenpairs(pert4, 10, seed=1)
    assert np.max(theta[:6]) / lam_max < 1e-12 < theta[6] / lam_max
    Q = np.sqrt(pert4.M[2])[:, None] * basis.vectors  # orthonormal, like X
    U = X[:, :6]
    sines = np.linalg.svd(U - Q @ (Q.T @ U), compute_uv=False)
    assert np.max(sines) <= 1e-6


def test_harmonic_representative(pert8):
    phi, resid, cg = grid.harmonic_representative(pert8, (0, 1))
    assert cg["cg_iterations"] > 0 and cg["cg_relative_residual"] <= 1e-12
    assert resid < 1e-10
    assert np.max(np.abs(pert8.d[2] @ phi)) < 1e-10  # still closed
    # nontrivial class: not the zero cochain, non-constant representative
    assert np.linalg.norm(phi) > 0
    N = pert8.sites
    assert np.std(phi[:N]) > 1e-4


def test_discrete_export_flat_constant(flat4):
    N = flat4.sites
    z = np.zeros(flat4.dim(2))
    z[:N] = 1.0
    fieldd = grid.discrete_field_export(flat4, z)
    cg = grid._CellGeometry(flat4)
    T = grid._covariant_nabla_discrete(flat4, cg, fieldd.coloc6)
    assert np.max(np.abs(T)) == 0.0  # constant form, flat metric: exactly parallel


def test_mass_consistency_order():
    """Lumped mass inner products converge to smooth L2 pairings at O(h^2)."""
    chart = perturbed_chart()
    from curv4 import expr as ex

    errs = []
    for n in (6, 12):
        gc = grid.assemble(chart, n)
        pts = grid._barycenters(n, gc.h, (0, 1))
        vals = ex.eval_values(ex.parse("sin(x1)*cos(x2) + 0.5"), pts)
        z = np.zeros(gc.dim(2))
        z[:gc.sites] = vals
        discrete = float(np.sum(gc.M[2][:gc.sites] * vals**2))
        # reference: dense quadrature of the smooth integrand
        fine = 24
        ref_pts = grid._barycenters(fine, 2 * np.pi / fine, (0, 1))
        g = charts.metric_values(chart, ref_pts)
        ginv = np.linalg.inv(g)
        w = (ginv[:, 0, 0] * ginv[:, 1, 1] - ginv[:, 0, 1]**2) * np.sqrt(np.linalg.det(g))
        f = ex.eval_values(ex.parse("sin(x1)*cos(x2) + 0.5"), ref_pts)
        ref = float(np.sum(w * f**2) * (2 * np.pi / fine)**4)
        errs.append(abs(discrete - ref))
    assert errs[1] < errs[0] / 2.5  # better than first order; nominal 4x


def test_discrete_eq23_convergence_small():
    chart = perturbed_chart()
    reports = {}
    for n in (4, 8):
        gc = grid.assemble(chart, n)
        phi, _, _ = grid.harmonic_representative(gc, (0, 1))
        reports[n] = grid.discrete_eq23_report(grid.discrete_field_export(gc, phi))
    ratio = reports[4]["rms_relative_residual"] / reports[8]["rms_relative_residual"]
    assert 2.0 < ratio < 8.0  # second-order trend on a coarse pair
    assert abs(reports[8]["green_stokes_conservative"]) < 1e-12

