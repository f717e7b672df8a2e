import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curv4 import charts, cli, forms, grid, jets, presets
from curv4.grid import GridError, SolverError
from curv4.scenario import DEFAULT_TOLERANCES

from oracles import (NEAR_FLAT_TERMS, discrete_eq23_fields, lumped_masses, near_flat_chart,
                     roll_diff, roll_diff2, sparse_coboundary, star_gram_loops)

PERTURBED = [
    ["1 + 0.1*sin(x1)*cos(x2)", "0.03*sin(x3)*sin(x4)", "0", "0"],
    ["0.03*sin(x3)*sin(x4)", "1 + 0.1*sin(x2)*cos(x3)", "0", "0"],
    ["0", "0", "1 + 0.1*sin(x3)*cos(x4)", "0"],
    ["0", "0", "0", "1 + 0.1*sin(x4)*cos(x1)"],
]


def perturbed_chart():
    return charts.chart_from_strings(PERTURBED, [(0.0, 2 * np.pi)] * 4,
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
        [(0.0, 2 * np.pi)] * 4, "aperiodic")
    with pytest.raises(GridError, match="periodic"):
        grid.assemble(bad, 4)


def test_indefinite_metric_rejected():
    bad = charts.chart_from_strings(
        [["sin(x1)", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [(0.0, 2 * np.pi)] * 4, "indefinite_t4")
    with pytest.raises(GridError, match="positive definite"):
        grid.assemble(bad, 4)


def test_indefinite_barycenter_named():
    """g11 < 0 only at the (1,)-cell barycenter (pi/4, pi/2, pi, 0) of the n=4
    lattice: assemble passes the sites and names that barycenter."""
    bad = charts.chart_from_strings(
        [["3.9 - cos(x1 - pi/4) - cos(x2 - pi/2) - cos(x3 - pi) - cos(x4)", "0", "0", "0"],
         ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [(0.0, 2 * np.pi)] * 4, "one_bad_cell")
    where = (np.pi / 4, np.pi / 2, np.pi, 0.0)
    message = f"metric not positive definite at cell barycenter {where}"
    with pytest.raises(GridError, match=re.escape(message)):
        grid.assemble(bad, 4)


def _assert_masses_within_ulps(chart, n, ulps=8):
    """The closed-form masses det(g_{S^c S^c}) h^4 / sqrt(det g) (Jacobi's
    complementary minor) are within `ulps` of sqrt(det g) det((g^-1)_SS) h^4
    computed exactly on the same float g (oracles.lumped_masses).  A LAPACK
    reference is itself up to 6 ulps off, so it left the bound no margin."""
    gc = grid.assemble(chart, n)
    for got, ref in zip(gc.M, lumped_masses(chart, n)):
        assert np.all(np.abs(got - ref) <= ulps * np.spacing(np.abs(ref)))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_masses_match_inverse_determinant(n):
    _assert_masses_within_ulps(presets.flat_t4(), n)
    _assert_masses_within_ulps(perturbed_chart(), n)


@given(NEAR_FLAT_TERMS, st.sampled_from((3, 4, 5)))
@example([(0.016328195418681107, "cos", 1, 1), (0.030186166512291987, "sin", 1, 2),
          (0.0, "sin", 1, 1), (0.08408306076810587, "sin", 1, 2), (0.0, "sin", 1, 1),
          (0.0, "sin", 1, 1), (0.02840570198655605, "cos", 1, 1),
          (-0.01388375765175949, "cos", 1, 1), (0.021419728404329624, "cos", 1, 1),
          (0.02840570198655605, "sin", 2, 2)], 4)
@settings(max_examples=25, deadline=None)
def test_masses_match_inverse_determinant_random(terms, n):
    """Random near-flat periodic trig metrics (oracles.near_flat_chart).  The
    example put a LAPACK reference 9 ulps from the closed form (the closed form
    is 3 ulps from the exact masses, LAPACK 6)."""
    chart = near_flat_chart(terms)
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
    """The report states the star test's bound, and that test fails on the
    same basis when no eigenvalue may be near +-1."""
    basis = grid.harmonic_kernel(flat4)
    rep = grid.definiteness_report(basis)
    assert rep["kernel_dim"] == 6
    assert rep["b2_plus"] == 3 and rep["b2_minus"] == 3
    assert rep["signature"] == 0 and rep["definite"] is False
    assert not rep["b2_equals_abs_signature"]
    mus = np.array(rep["star_eigenvalues"])
    assert np.all(np.minimum(np.abs(mus - 1), np.abs(mus + 1)) < 0.1)
    assert rep["star_tolerance"] == grid.STAR_TOL == 0.1
    with pytest.raises(SolverError, match="star eigenvalue not near"):
        grid._star_counts(basis, tol=-1)


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


def test_open_reference_cochain_exits_1(flat4, monkeypatch):
    """A reference cochain that d_2 does not close is the grid's own fault, not
    the input's: SolverError, exit 1."""
    d2 = flat4.d[2]

    class Leaky:
        def __matmul__(self, x):
            return d2 @ x + 1.0

    monkeypatch.setattr(flat4, "d", (*flat4.d[:2], Leaky(), *flat4.d[3:]))
    with pytest.raises(SolverError, match="reference cochain is not closed") as err:
        grid.harmonic_representative(flat4, (0, 1))
    assert err.value.exit_code == 1


def test_star_eigenvalue_off_unit_exits_1(flat4, monkeypatch):
    """A star eigenvalue away from +-1 signals a convention bug in the grid:
    SolverError, exit 1."""
    star_gram = grid._star_gram

    def halved(basis):
        S, G = star_gram(basis)
        return 0.5 * S, G

    monkeypatch.setattr(grid, "_star_gram", halved)
    with pytest.raises(SolverError, match="star eigenvalue not near") as err:
        grid.harmonic_kernel(flat4)
    assert err.value.exit_code == 1


@pytest.mark.parametrize("name", ["flat4", "pert4", "pert8"])
def test_kernel_scale_below_lambda_max(name, request):
    """harmonic_kernel's scale max diag(Delta_2) is at most the largest
    eigenvalue (here its power estimate), so kernel_residual is at least the
    residual relative to lambda_max: the gate can only be tighter."""
    gc = request.getfixturevalue(name)
    A = grid._Sym2(gc)
    lam = grid._power_estimate(A, charts.normals(1, charts.POWER, gc.dim(2)))
    assert np.max(A.diag()) <= lam
    basis = grid.harmonic_kernel(gc)
    Y = A.rt[:, None] * basis.vectors
    resid = np.max(np.linalg.norm(A(Y), axis=0) / (lam * np.linalg.norm(Y, axis=0)))
    assert basis.kernel_residual >= resid


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
    """A constant form on the flat torus is exactly parallel: its difference
    jets have zero first slots, Gamma is zero, so nabla phi+- and every
    derivative _CellGeometry takes of F, G and FG are exactly 0."""
    N = flat4.sites
    z = np.zeros(flat4.dim(2))
    z[:N] = 1.0
    fieldd = grid.discrete_field_export(flat4, z)
    cg = grid._CellGeometry(fieldd)
    geom = charts.Geometry.of_chart(flat4.chart, grid._cell_centers(flat4))
    jet = grid._difference_jets(fieldd.coloc6.T, grid._neighbours(4, np.arange(N)), flat4.h, 1)
    assert np.max(np.abs(forms.nabla_two_form_values(geom, jet))) == 0.0
    for field in (cg.nabla_plus_sq, cg.nabla_minus_sq, cg.lap_FG, cg.dF_dG, cg.flux_div):
        assert np.max(np.abs(field)) == 0.0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_difference_jets_match_roll_stencils(n):
    """_difference_jets gathers the same operands as the shifts of the whole
    lattice (oracles.roll_diff, roll_diff2) and combines them in the same
    order: slot for slot bit-identical, on a scalar field and on one with
    components, over chunks of cells that do not start at a row.  At n=3 the
    two neighbours along an axis are the other two cells of that line, and a
    corner's diagonal steps wrap round on both axes at once."""
    rng = np.random.default_rng(n)
    N, h = n**4, 2.0 * np.pi / n
    u = rng.standard_normal((N, 3)) * 10.0 ** rng.integers(-3, 4, size=(N, 3))
    for cells in np.array_split(np.arange(N), 3):
        idx = grid._neighbours(n, cells)
        for order in (1, 2):
            jet = grid._difference_jets(u, idx, h, order)
            assert np.array_equal(jet[0], u[cells])
            for p in range(3):
                grid_u = u[:, p].reshape(n, n, n, n)
                one = grid._difference_jets(u[:, p], idx, h, order)
                assert np.array_equal(one, jet[..., p])
                for a in range(4):
                    assert np.array_equal(one[1 + a], roll_diff(grid_u, a, h).ravel()[cells])
                if order == 2:
                    hess = jets.Jet3(one).hessian()
                    for a in range(4):
                        for b in range(a, 4):
                            want = roll_diff2(grid_u, a, b, h).ravel()[cells]
                            assert np.array_equal(hess[:, a, b], want)


@pytest.mark.parametrize("n", [4, 6])
def test_cell_geometry_matches_stencils(n):
    """|nabla phi+-|^2, Delta(FG) and <dF, dG> of _CellGeometry, the forms
    operators on difference jets, against the shift stencils with their own
    covariant derivative, Laplacian drift and contraction
    (oracles.discrete_eq23_fields): within 1e-14 of the largest value (the
    worst seen is 5.5e-16), the sums in another order."""
    gc = grid.assemble(perturbed_chart(), n)
    phi, _, _ = grid.harmonic_representative(gc, (0, 1))
    fieldd = grid.discrete_field_export(gc, phi)
    cg = grid._CellGeometry(fieldd)
    got = (cg.nabla_plus_sq, cg.nabla_minus_sq, cg.lap_FG, cg.dF_dG)
    for new, ref in zip(got, discrete_eq23_fields(fieldd)):
        assert np.max(np.abs(new - ref)) <= 1e-14 * np.max(np.abs(ref))


# an inline periodic metric with a quotient entry: a/b and a (1/b) differ in the
# last bit at about a quarter of the points
QUOTIENT = [["(3 + sin(x1))/(2 + cos(x2))" if i == j == 0 else str(int(i == j))
             for j in range(4)] for i in range(4)]


def test_cell_geometry_is_the_value_layer(monkeypatch):
    """_CellGeometry's sqrt(det g), F, G, *phi, K and degenerate flags are
    forms.PointValues at the cell centres, bit for bit, on the perturbed torus
    and on a quotient metric: the grid and the verifiers share one g, one F/G
    and one adapted frame with K."""
    stars, star_coord = [], forms.star_coord
    monkeypatch.setattr(forms, "star_coord", lambda *a: stars.append(star_coord(*a)) or stars[-1])
    for metric in (PERTURBED, QUOTIENT):
        cx = grid.assemble(charts.chart_from_strings(metric, [(0.0, 2 * np.pi)] * 4), 4)
        z = np.zeros(cx.dim(2))
        z[:cx.sites] = 1.0  # dx1^dx2
        fieldd = grid.discrete_field_export(cx, z)
        stars.clear()
        cg = grid._CellGeometry(fieldd)
        got_star = np.concatenate(stars)
        pts = grid._cell_centers(cx)
        v = forms.PointValues(charts.Geometry.of_chart(cx.chart, pts), fieldd.coloc6.T,
                              DEFAULT_TOLERANCES)
        F, G, _ = v.fg
        star = star_coord(forms.raised_pairs(v.geom.ginv_values, v.phi), v.sqrt_det[:, None])
        for got, want in ((cg.sqrt_det, v.sqrt_det), (cg.F, F), (cg.G, G), (got_star, star),
                          (cg.K, v.curvature_K["K"]), (cg.degenerate, v.adapted.degenerate)):
            assert np.array_equal(got, want)


def test_thm21_rhs_mutant_reaches_both_paths(pert4, monkeypatch, tmp_path):
    """Theorem 2.1's right side has one definition, forms.thm21_rhs: with 7KFG
    in place of 8KFG, `verify thm21` and the analytic `integral` fail on the
    conformal product (its balance residual reads 6.80 against 2.1e-13), and
    the grid report's 8KFG integral scales by 7/8 while its residual moves."""
    phi, _, _ = grid.harmonic_representative(pert4, (0, 1))
    fieldd = grid.discrete_field_export(pert4, phi)
    rep8 = grid.discrete_eq23_report(fieldd)
    rhs = forms.thm21_rhs

    def mutant(F, G, K, *rest):
        return (7.0 * K * F * G,) + rhs(F, G, K, *rest)[1:]

    monkeypatch.setattr(forms, "thm21_rhs", mutant)
    rep7 = grid.discrete_eq23_report(fieldd)
    assert rep7["integral_8KFG"] == pytest.approx(7 / 8 * rep8["integral_8KFG"], rel=1e-14)
    assert rep7["integral_delta_FG"] == rep8["integral_delta_FG"]
    # at n=4 the residual reads 0.160 and the mutant's 0.138
    assert abs(rep7["rms_relative_residual"] / rep8["rms_relative_residual"] - 1.0) > 0.05
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "conformal_product.json"
    assert cli.main(["verify", "thm21", "--scenario", str(scenario), "--out", str(tmp_path)]) == 1
    assert cli.main(["integral", "--scenario", str(scenario), "--out", str(tmp_path)]) == 1


def test_discrete_eq23_chunk_invariant(pert4, monkeypatch):
    """Cell chunks only bound the working set: the report in chunks of 64
    cells is the report in one chunk, bit for bit."""
    phi, _, _ = grid.harmonic_representative(pert4, (0, 1))
    fieldd = grid.discrete_field_export(pert4, phi)
    rep1 = grid.discrete_eq23_report(fieldd)
    monkeypatch.setattr(charts, "CHUNK", 64)
    assert grid.discrete_eq23_report(fieldd) == rep1


def test_integral_pipeline_memory():
    """The tracemalloc peak of the grid integral pipeline (assemble, the
    representative of dx1^dx2, its export and discrete_eq23_report) on the
    perturbed T^4 stays under 2.5 MB at n=6 (2.01 MB measured) and 3.8 MB at
    n=8 (3.20 MB measured).  The peak sits in the report, whose 256-cell
    chunks of _CellGeometry hold difference jets beside the chunk's metric
    jets and forms.PointValues (the report alone traces 1.70 and 2.27 MB);
    in 512-cell chunks the pipeline traced 3.41 MB at n=6 and 4.61 MB at
    n=8.  With g^-1, Gamma, the Laplacian drift and the centred differences
    of phi and *phi held at every cell, it was 3.60 MB at n=6 and 7.19 MB at
    n=8; with a 256-entry Riemann tensor per cell, 6.8 MB at n=6."""
    import tracemalloc

    chart = perturbed_chart()

    def pipeline(n):
        gc = grid.assemble(chart, n)
        phi, _, _ = grid.harmonic_representative(gc, (0, 1))
        grid.discrete_eq23_report(grid.discrete_field_export(gc, phi))

    for n, bound in ((6, 2.5e6), (8, 3.8e6)):
        pipeline(n)  # warm caches
        tracemalloc.start()
        try:
            pipeline(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (n, peak)


def test_harmonic_kernel_memory():
    """harmonic_kernel traces at most 4.5 cochain blocks U = (dim_2, 6) floats
    on the perturbed T^4 at n=6 and 8 (4.05 and 4.01 U measured; 7.3 U with
    the dense phi0, a fresh block per CG update and A(Y) on all six columns).
    The peak is the CG solve: X, R, P and A P on 1-cochains (2/3 U each) with
    the 2-cochain block inside A."""
    import tracemalloc

    chart = perturbed_chart()
    grid.harmonic_kernel(grid.assemble(chart, 3))  # warm caches
    for n in (6, 8):
        gc = grid.assemble(chart, n)
        tracemalloc.start()
        try:
            grid.harmonic_kernel(gc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * gc.dim(2) * 6 * 8, (n, peak / (gc.dim(2) * 6 * 8))


def test_star_gram_chunk_sums(pert4, monkeypatch):
    """_star_gram adds per-chunk partial sums: chunks of 64 cells agree with
    one chunk of every cell to round-off."""
    basis = grid.harmonic_kernel(pert4)
    monkeypatch.setattr(charts, "CHUNK", pert4.sites)
    S1, G1 = grid._star_gram(basis)
    monkeypatch.setattr(charts, "CHUNK", 64)
    S2, G2 = grid._star_gram(basis)
    assert np.max(np.abs(S2 - S1)) <= 1e-13 and np.max(np.abs(G2 - G1)) <= 1e-13


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

