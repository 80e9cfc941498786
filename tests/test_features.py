"""Random feature maps: sampling, evaluation, jacobians, projector."""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from _exact import dense_projector, eval_kernel, exact_field_eval, exact_ridge_fit
from cvfield import features, kernels, modelfile
from cvfield.dynamics import TrainedField
from cvfield.errors import DimensionError
from cvfield.kernels import KernelKind
from cvfield.solver import SolverSettings, assemble_problem, interior_point_solve

GS = KernelKind("gaussian_separable", 1.0)
CF = KernelKind("curl_free", 1.0)


def test_sampling_deterministic_in_seed():
    a = features.sample_feature_map(CF, 64, 2, seed=5)
    b = features.sample_feature_map(CF, 64, 2, seed=5)
    c = features.sample_feature_map(CF, 64, 2, seed=6)
    np.testing.assert_array_equal(a.freqs, b.freqs)
    np.testing.assert_array_equal(a.phases, b.phases)
    assert not np.array_equal(a.freqs, c.freqs)
    assert a.freqs.shape == (64, 2) and a.phases.shape == (64,)


@pytest.mark.parametrize("n", [2, 3])
def test_separable_profile_repeats_its_distinct_angles(monkeypatch, n):
    # the separable rows repeat each frequency's angle over the n directions:
    # the profile is evaluated on the (N, s) distinct angles only, and field
    # values and Jacobians keep the bits of the formula over every row,
    # g(X W^T + b)
    fm = features.sample_feature_map(KernelKind("gaussian_separable", 2.0), 40, n, seed=3)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(64, n)) * 3.0
    eta = rng.normal(size=fm.feature_dim)
    a = np.einsum("nd,ds->ns", X, np.ascontiguousarray(fm.W.T))
    a += fm.b
    form = kernels.FORMS["gaussian_separable"]
    values = np.einsum("nk,dk->nd", fm.scale * (form.g(a) * eta), np.ascontiguousarray(fm.U.T))
    jacobians = np.einsum("gk,ka,kb->gab", fm.scale * form.dg(a) * eta, fm.U, fm.W)
    shapes = []
    monkeypatch.setitem(kernels.FORMS, "gaussian_separable", form._replace(
        g=lambda a, out=None: shapes.append(a.shape) or form.g(a, out=out),
        dg=lambda a, out=None: shapes.append(a.shape) or form.dg(a, out=out)))
    assert np.array_equal(features.field_values(fm, eta, X), values)
    assert np.array_equal(features.field_jacobians(fm, eta, X), jacobians)
    assert shapes == [(64, 40)] * 2


def test_sampling_needs_a_feature():
    with pytest.raises(ValueError, match="need at least one feature"):
        features.sample_feature_map(CF, 0, 2, seed=0)


def test_sampling_needs_a_state_dimension():
    with pytest.raises(ValueError, match="state dimension must be at least 1"):
        features.sample_feature_map(CF, 10, 0, seed=0)


@pytest.mark.parametrize("kind", [GS, CF], ids=["separable", "curl-free"])
def test_feature_maps_pickle(kind):
    # a map holds arrays and its kind, not its form's functions
    fm = features.sample_feature_map(kind, 6, 2, seed=1)
    again = pickle.loads(pickle.dumps(fm))
    X = np.random.default_rng(0).normal(size=(4, 2))
    assert np.array_equal(features.feature_rows(again, X), features.feature_rows(fm, X))


def test_frequency_scale_matches_bandwidth():
    # spectral density of the gaussian: E ||w||^2 = n / sigma^2
    kind = KernelKind("gaussian_separable", 5.0)
    fm = features.sample_feature_map(kind, 10000, 2, seed=0)
    mean_sq = float(np.mean(np.sum(fm.freqs**2, axis=1)))
    assert abs(mean_sq - 2 / 25.0) <= 0.05 * (2 / 25.0)


def test_separable_features_zero_frequency():
    # w = 0, b = 0 collapses cos(wx + b) to 1: rows are sqrt(2) I
    fm = features.FeatureMap(GS, np.zeros((1, 2)), np.array([0.0]))
    F = features.feature_rows(fm, np.array([0.3, -0.7])).T
    np.testing.assert_allclose(F, np.sqrt(2.0) * np.eye(2), atol=1e-15)


def test_separable_features_are_feature_major():
    # feature k = j n + c of the separable map is phi_j(x) e_c, with phi_j
    # paired with its own frequency w_j and phase b_j
    fm = features.sample_feature_map(GS, 5, 3, seed=2)
    x = np.array([0.3, -1.2, 2.0])
    phi = fm.scale * np.cos(fm.freqs @ x + fm.phases)
    np.testing.assert_allclose(features.feature_rows(fm, x), np.kron(phi, np.eye(3)),
                               rtol=1e-14, atol=0.0)


def test_monte_carlo_kernel_error_decays():
    # the feature gram approaches the closed-form kernel roughly like
    # 1/sqrt(s); a 16x budget increase should cut the error well below half
    rng = np.random.default_rng(2)
    pairs = [(rng.normal(size=2), rng.normal(size=2)) for _ in range(20)]

    def err(kind, s):
        fm = features.sample_feature_map(kind, s, 2, seed=1)
        tot = 0.0
        for x, y in pairs:
            Khat = features.feature_rows(fm, x) @ features.feature_rows(fm, y).T
            tot += np.linalg.norm(Khat - eval_kernel(kind, x, y))
        return tot / len(pairs)

    for kind in (GS, CF):
        assert err(kind, 2048) < 0.45 * err(kind, 128)


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(4)
    for kind in (GS, CF):
        fm = features.sample_feature_map(kind, 50, 2, seed=3)
        p = fm.feature_dim
        theta = rng.normal(size=p)
        x = rng.normal(size=2)
        J = features.field_jacobians(fm, theta, x[None])[0]
        h = 1e-6
        Jfd = np.zeros((2, 2))
        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            fp = features.field_values(fm, theta, (x + e)[None, :])[0]
            fmn = features.field_values(fm, theta, (x - e)[None, :])[0]
            Jfd[:, c] = (fp - fmn) / (2 * h)
        assert np.linalg.norm(J - Jfd) <= 1e-5 * max(1.0, np.linalg.norm(J))
        if kind is CF:
            np.testing.assert_allclose(J, J.T, atol=1e-12)


@pytest.mark.parametrize("kind", [GS, CF], ids=["GS", "CF"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_point_alone_matches_its_batch_bitwise(kind, n):
    # a rollout batch relies on a point's field value and Jacobian having
    # the same bits alone as in any batch
    rng = np.random.default_rng(n)
    fm = features.sample_feature_map(kind, 37, n, seed=9)
    coeffs = rng.normal(size=fm.feature_dim)
    X = rng.normal(size=(50, n)) * 3
    values = features.field_values(fm, coeffs, X)
    jacobians = features.field_jacobians(fm, coeffs, X)
    for i in range(X.shape[0]):
        assert np.array_equal(features.field_values(fm, coeffs, X[i:i + 1]), values[i:i + 1])
        assert np.array_equal(features.field_jacobians(fm, coeffs, X[i:i + 1]),
                              jacobians[i:i + 1])


@pytest.mark.parametrize("kind", [GS, CF], ids=["GS", "CF"])
@pytest.mark.parametrize("entry", [features.field_values, features.field_jacobians],
                         ids=["values", "jacobians"])
def test_field_evaluation_holds_one_array_of_profiles(kind, entry):
    # a batch of N points holds its (N, s) angles, which the profile
    # overwrites, and for a separable map their (N, feature_dim) repeat;
    # the coefficients and the scale are applied in place.  The peak is at
    # most 1.08 times that and the bound 1.2 times; scaled out of place, as
    # two (N, feature_dim) temporaries, the curl-free map peaked at 2 times
    fm = features.sample_feature_map(kind, 200, 2, seed=4)
    rng = np.random.default_rng(2)
    coeffs, X = rng.normal(size=fm.feature_dim), rng.normal(size=(2000, 2)) * 3.0
    held = X.shape[0] * (fm.s + (fm.feature_dim if fm.feature_dim > fm.s else 0)) * 8
    tracemalloc.start()
    try:
        entry(fm, coeffs, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * held, f"peak {peak / 2**20:.2f} MiB > 1.2 x {held / 2**20:.2f} MiB"


def test_jacobian_zero_coefficients():
    fm = features.sample_feature_map(CF, 30, 2, seed=0)
    J = features.field_jacobians(fm, np.zeros(30), np.ones((1, 2)))
    np.testing.assert_allclose(J, 0.0, atol=0.0)


def test_projector_empty_zset_is_identity():
    fm = features.sample_feature_map(GS, 20, 2, seed=1)
    proj = features.build_vanishing_projector(fm, np.zeros((0, 2)))
    L = dense_projector(proj)
    np.testing.assert_allclose(L, np.eye(L.shape[0]), atol=1e-15)


def test_projector_idempotent_and_vanishing():
    rng = np.random.default_rng(8)
    Z = np.array([[0.0, 0.0], [1.5, -2.0]])
    for kind in (GS, CF):
        fm = features.sample_feature_map(kind, 80, 2, seed=2)
        proj = features.build_vanishing_projector(fm, Z)
        L = dense_projector(proj)
        np.testing.assert_allclose(L @ L, L, atol=1e-9)
        for _ in range(5):
            theta = L @ rng.normal(size=L.shape[0])
            vals = features.field_values(fm, theta, Z)
            assert np.abs(vals).max() <= 1e-9


def test_projector_holds_its_basis_only(tmp_path, angle_model):
    # at feature_dim 1000 a dense L would be one 8 MB (p, p) array; the
    # projector is Q and Z, for a trained and a loaded field alike
    fm = features.sample_feature_map(CF, 1000, 2, seed=0)
    tracemalloc.start()
    try:
        proj = features.build_vanishing_projector(fm, np.zeros((1, 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * 1000 * 8
    assert [f.name for f in dataclasses.fields(proj)] == ["basis", "Z"]
    field = angle_model[0]
    modelfile.save_model(tmp_path / "model.json", field)
    loaded = modelfile.load_model(tmp_path / "model.json")[0]
    assert not hasattr(field.proj, "L") and not hasattr(loaded.proj, "L")


def test_projector_warns_when_the_block_at_z_is_rank_deficient():
    # with every phase 0, each curl-free feature sqrt(2/s) sin(w^T x) w
    # vanishes at the origin, so Phi(0) = 0 spans nothing to project out
    fm = features.FeatureMap(CF, np.random.default_rng(0).normal(size=(8, 2)), np.zeros(8))
    with pytest.warns(UserWarning, match=r"rank deficient \(0 < 2\)"):
        proj = features.build_vanishing_projector(fm, np.zeros((1, 2)))
    assert proj.basis.shape == (8, 0)


def test_symmetrized_jacobian_basis_consistency():
    # at every point of a batch, the basis is C-ordered (m, n, n, p), the
    # layout the solver reads without a copy; E[i] @ theta reproduces the
    # symmetrized jacobian of the projected field, and the adjoint identity
    # holds exactly
    rng = np.random.default_rng(12)
    X = rng.normal(size=(7, 2)) * 2
    for kind in (CF, GS):
        fm = features.sample_feature_map(kind, 40, 2, seed=4)
        proj = features.build_vanishing_projector(fm, np.zeros((1, 2)))
        B = features.symmetrized_jacobian_basis(fm, proj, X)
        assert B.shape == (7, 2, 2, fm.feature_dim) and B.flags.c_contiguous
        theta = rng.normal(size=fm.feature_dim)
        J = features.field_jacobians(fm, dense_projector(proj) @ theta, X)
        np.testing.assert_allclose(B @ theta, 0.5 * (J + J.transpose(0, 2, 1)), atol=1e-12)
        M = rng.normal(size=(2, 2))
        for Bi in B:
            lhs = float(np.sum((Bi @ theta) * M))
            rhs = float(theta @ np.tensordot(Bi, M, axes=([0, 1], [0, 1])))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    assert features.symmetrized_jacobian_basis(fm, proj, np.empty((0, 2))).shape == (
        0, 2, 2, fm.feature_dim)


@pytest.mark.parametrize("entry", ["projector", "jacobian-basis", "assembly", "field"])
@pytest.mark.parametrize("points", [np.ones((4, 3)), np.zeros((2, 3)), np.zeros((0, 3)),
                                    np.zeros(2), np.zeros((1, 1, 2))],
                         ids=["4x3", "2x3", "0x3", "flat", "3-d"])
def test_points_of_another_shape_are_dimension_errors(entry, points):
    # equilibria and constraint points are (k, n): a (4, 3) batch is not
    # reread as six 2-D points, nor a flat (2,) array as one
    fm = features.sample_feature_map(CF, 30, 2, seed=0)
    proj = features.build_vanishing_projector(fm, np.empty((0, 2)))
    call = {
        "projector": lambda P: features.build_vanishing_projector(fm, P),
        "jacobian-basis": lambda P: features.symmetrized_jacobian_basis(fm, proj, P),
        "assembly": lambda P: assemble_problem(fm, proj, (np.ones((3, 2)), np.ones((3, 2))),
                                               P, 0.01, 0.0),
        "field": lambda P: TrainedField(fm, proj, np.zeros(fm.feature_dim), P),
    }[entry]
    with pytest.raises(DimensionError, match=r"\(k, 2\)"):
        call(points)


def test_potential_zero_coefficients():
    fm = features.sample_feature_map(CF, 25, 2, seed=0)
    V = features.potential_from_features(fm, np.zeros(25), np.ones((1, 2)))[0]
    assert float(V) == 0.0


def test_potential_single_feature_value():
    # one unit frequency, zero phase, theta = 1 at the origin: sqrt(2)
    fm = features.FeatureMap(CF, np.array([[1.0, 0.0]]), np.array([0.0]))
    V = features.potential_from_features(fm, np.array([1.0]), np.zeros((1, 2)))[0]
    assert abs(float(V) - 1.4142135623730951) <= 1e-15


def test_potential_of_a_separable_map_is_an_error():
    # the separable features are not gradients: the form has no potential
    fm = features.sample_feature_map(GS, 5, 2, seed=0)
    with pytest.raises(ValueError, match="gaussian_separable map .* has no potential"):
        features.potential_from_features(fm, np.zeros(10), np.zeros((1, 2)))


def test_potential_gradient_is_negative_field():
    rng = np.random.default_rng(14)
    fm = features.sample_feature_map(CF, 60, 2, seed=5)
    proj = features.build_vanishing_projector(fm, np.zeros((1, 2)))
    theta = dense_projector(proj) @ rng.normal(size=60)
    h = 1e-6
    for _ in range(10):
        x = rng.normal(size=2) * 2
        g = np.zeros(2)
        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            vp = features.potential_from_features(fm, theta, (x + e)[None])[0]
            vm = features.potential_from_features(fm, theta, (x - e)[None])[0]
            g[c] = float(vp - vm) / (2 * h)
        f = features.field_values(fm, theta, x[None, :])[0]
        assert np.linalg.norm(g + f) <= 1e-5 * max(1.0, np.linalg.norm(f))


def test_feature_ridge_approaches_exact_ridge():
    """The random-feature ridge fit converges to the exact kernel ridge fit
    on held-out points as the feature count grows."""
    rng = np.random.default_rng(20)
    kind = KernelKind("curl_free", 2.0)
    X = rng.normal(size=(60, 2)) * 2
    Xdot = np.stack([-X[:, 0] + 0.3 * X[:, 1], -X[:, 1]], axis=1)
    Xdot += 0.05 * rng.normal(size=Xdot.shape)
    exact = exact_ridge_fit(kind, np.zeros((0, 2)), X, Xdot, 0.01)
    holdout = rng.normal(size=(50, 2)) * 2
    ref = np.stack([exact_field_eval(exact, x) for x in holdout])
    rms_ref = np.sqrt(np.mean(np.sum(ref**2, axis=1)))

    rel = {}
    for num in (200, 8000):
        fm = features.sample_feature_map(kind, num, 2, seed=6)
        proj = features.build_vanishing_projector(fm, np.zeros((0, 2)))
        prob = assemble_problem(fm, proj, (X, Xdot), np.zeros((0, 2)), 0.01, 0.0)
        rep = interior_point_solve(prob, SolverSettings())
        got = features.field_values(fm, rep.theta, holdout)
        rel[num] = np.sqrt(np.mean(np.sum((got - ref) ** 2, axis=1))) / rms_ref

    # measured 0.121 -> 0.024 for this seed; frozen with 2x margin
    assert rel[8000] <= 0.5 * rel[200]
    assert rel[8000] <= 0.05
