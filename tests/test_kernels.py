"""Matrix-valued kernels, vanishing construction and the exact ridge path."""

import ast
from pathlib import Path

import numpy as np
import pytest

from _exact import (ConditioningError, ExactModel, eval_kernel, eval_vanishing_kernel,
                    exact_field_eval, exact_potential_eval, exact_ridge_fit, gram_matrix)
import cvfield
from cvfield.errors import DimensionError
from cvfield.kernels import FORMS, KernelKind

GS = KernelKind("gaussian_separable", 1.0)
CF = KernelKind("curl_free", 1.0)


def test_kind_validation():
    with pytest.raises(ValueError):
        KernelKind("bogus", 1.0)
    with pytest.raises(ValueError, match="unknown kernel variant"):
        KernelKind(["curl_free"], 1.0)          # unhashable, as a JSON list is
    with pytest.raises(ValueError):
        KernelKind("gaussian_separable", 0.0)
    with pytest.raises(DimensionError):
        eval_kernel(CF, np.zeros(3), np.zeros(2))


def _kernel_comparisons(path):
    """Line numbers of the comparisons in the module at `path` with an operand
    that reads `.variant` or names CURL_FREE or GAUSSIAN_SEPARABLE."""
    names = {"CURL_FREE", "GAUSSIAN_SEPARABLE"}
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Compare)
            and any(isinstance(sub, ast.Attribute) and sub.attr in names | {"variant"}
                    or isinstance(sub, ast.Name) and sub.id in names for sub in ast.walk(node))]


def test_no_module_but_kernels_compares_kernel_families():
    # each family's random-feature form is its entry of kernels.FORMS, and
    # every other module reads the entry instead of testing which family it is
    found = [f"{path.name}:{line}" for path in sorted(Path(cvfield.__file__).parent.glob("*.py"))
             if path.name != "kernels.py" for line in _kernel_comparisons(path)]
    assert found == []


def test_no_module_but_kernels_computes_a_feature_profile():
    # the profiles live in kernels.FORMS alone; the solver's 2 x 2
    # eigenvector angles are no profile
    package = Path(cvfield.__file__).parent
    found = [f"{name}:{node.lineno}" for name in ("features.py", "dynamics.py", "metrics.py")
             for node in ast.walk(ast.parse((package / name).read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ("sin", "cos", "tan")
             and isinstance(node.value, ast.Name) and node.value.id == "np"]
    assert found == []


def _angles():
    # uniform angles, small ones, multiples of pi / 2 and magnitudes up to
    # 1e300, each sign
    rng = np.random.default_rng(5)
    magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, 50_000)
    return np.concatenate([rng.uniform(-100.0, 100.0, 200_000), rng.normal(size=50_000) * 1e-3,
                           np.arange(-4000, 4001) * (np.pi / 2), magnitudes, -magnitudes,
                           [0.0, -0.0, 5e-324, np.pi, 1e300, -1e300]])


@pytest.mark.parametrize("variant, references", [
    ("curl_free", (np.sin, np.cos, np.cos)),
    ("gaussian_separable", (np.cos, lambda a: -np.sin(a), None)),
], ids=["curl-free", "separable"])
def test_profiles_are_sine_and_cosine(variant, references):
    # g, dg and the potential profile are the half-angle forms of numpy's
    # sine and cosine to 4.5e-16; like a ufunc, each writes into out, and it
    # gives the same bits for one row, a batch and a strided view
    a = _angles()
    form = FORMS[variant]
    batch = np.random.default_rng(6).uniform(-60.0, 60.0, (64, 200))
    for profile, reference in zip((form.g, form.dg, form.potential), references):
        if reference is None:
            assert profile is None
            continue
        values = profile(a)
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(values - reference(a))) <= 4.5e-16
        out = batch.copy()
        assert profile(out, out=out) is out
        assert np.array_equal(out, profile(batch))
        assert np.array_equal(out, np.vstack([profile(row[None]) for row in batch]))
        wide = np.zeros((64, 400))
        wide[:, ::2] = batch
        strided = wide[:, ::2]
        profile(strided, out=strided)
        assert np.array_equal(wide[:, ::2], out) and not wide[:, 1::2].any()


def test_separable_at_identical_points():
    x = np.array([0.3, -1.2])
    np.testing.assert_allclose(eval_kernel(GS, x, x), np.eye(2), atol=1e-15)


def test_separable_known_value():
    # ||x - y||^2 = 2 with sigma 1 gives exp(-1) times identity
    K = eval_kernel(GS, np.zeros(2), np.ones(2))
    np.testing.assert_allclose(K, 0.36787944117144233 * np.eye(2), atol=1e-15)


def test_curl_free_at_identical_points():
    kind = KernelKind("curl_free", 2.5)
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(eval_kernel(kind, x, x), np.eye(2) / 2.5**2,
                               atol=1e-15)


def test_curl_free_eigenstructure():
    # along x - y the eigenvalue is (1/s^2) e^{-r^2/2s^2} (1 - r^2/s^2),
    # orthogonal directions carry (1/s^2) e^{-r^2/2s^2}
    rng = np.random.default_rng(7)
    for sigma in (0.8, 3.0):
        kind = KernelKind("curl_free", sigma)
        for _ in range(10):
            x, y = rng.normal(size=2), rng.normal(size=2)
            d = x - y
            r2 = d @ d
            base = np.exp(-r2 / (2 * sigma**2)) / sigma**2
            K = eval_kernel(kind, x, y)
            u = d / np.sqrt(r2)
            np.testing.assert_allclose(u @ K @ u, base * (1 - r2 / sigma**2),
                                       atol=1e-12)
            v = np.array([-u[1], u[0]])
            np.testing.assert_allclose(v @ K @ v, base, atol=1e-12)
            np.testing.assert_allclose(u @ K @ v, 0.0, atol=1e-12)


def test_kernel_symmetry():
    rng = np.random.default_rng(11)
    for kind in (GS, KernelKind("curl_free", 1.7)):
        for _ in range(20):
            x, y = rng.normal(size=2), rng.normal(size=2)
            np.testing.assert_allclose(eval_kernel(kind, x, y),
                                       eval_kernel(kind, y, x).T, atol=1e-12)


def test_vanishing_kernel_zero_at_zset():
    kind = KernelKind("curl_free", 1.3)
    Z = np.array([[0.0, 0.0], [1.0, -0.5]])
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.normal(size=2) * 2
        for z in Z:
            assert np.linalg.norm(eval_vanishing_kernel(kind, Z, z, y)) <= 1e-9
            assert np.linalg.norm(eval_vanishing_kernel(kind, Z, y, z)) <= 1e-9


def test_vanishing_kernel_empty_zset_is_plain_kernel():
    x, y = np.array([0.4, 0.1]), np.array([-0.2, 0.9])
    np.testing.assert_allclose(eval_vanishing_kernel(GS, np.zeros((0, 2)), x, y),
                               eval_kernel(GS, x, y), atol=1e-15)


def test_vanishing_kernel_known_value():
    # scalar case, z = 0, x = y = 1: K - k(1,0) k(0,0)^{-1} k(0,1)
    # = 1 - exp(-1/2)^2 = 1 - exp(-1)
    kind = KernelKind("gaussian_separable", 1.0)
    got = eval_vanishing_kernel(kind, np.array([[0.0]]), np.array([1.0]),
                                np.array([1.0]))
    assert abs(got[0, 0] - 0.6321205588285577) <= 1e-9


def test_gram_identity_and_psd():
    x = np.array([[0.5, -0.5]])
    np.testing.assert_allclose(gram_matrix(GS, x, x), np.eye(2), atol=1e-15)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(10, 2)) * 3
    for kind in (GS, KernelKind("curl_free", 2.0)):
        G = gram_matrix(kind, X, X)
        assert G.shape == (20, 20)
        np.testing.assert_allclose(G, G.T, atol=1e-12)
        assert np.linalg.eigvalsh(G).min() >= -1e-8
        # vanishing variant stays symmetric PSD as well
        GZ = gram_matrix(kind, X, X, Z=np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(GZ, GZ.T, atol=1e-10)
        assert np.linalg.eigvalsh(GZ).min() >= -1e-8


def test_gram_vanishes_on_zset():
    Z = np.array([[0.0, 0.0], [2.0, 1.0]])
    G = gram_matrix(CF, Z, Z, Z=Z)
    assert np.abs(G).max() <= 1e-8


def test_ridge_single_pair_closed_form():
    X = np.array([[2.0, 1.0]])
    Xdot = np.array([[0.6, -0.2]])
    m = exact_ridge_fit(GS, np.zeros((0, 2)), X, Xdot, 0.5)
    np.testing.assert_allclose(exact_field_eval(m, X[0]), Xdot[0] / 1.5,
                               atol=1e-12)
    # curl-free K(x,x) = I/s^2 shifts the shrinkage to 1 + lam s^2
    cf2 = KernelKind("curl_free", 2.0)
    m2 = exact_ridge_fit(cf2, np.zeros((0, 2)), X, Xdot, 0.5)
    np.testing.assert_allclose(exact_field_eval(m2, X[0]), Xdot[0] / 3.0,
                               atol=1e-12)


def test_ridge_zero_targets_zero_field():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(6, 2))
    m = exact_ridge_fit(GS, np.zeros((0, 2)), X, np.zeros((6, 2)), 0.01)
    np.testing.assert_allclose(m.alphas, 0.0, atol=1e-12)
    assert np.linalg.norm(exact_field_eval(m, rng.normal(size=2))) <= 1e-12


def test_ridge_vanishing_fit_has_equilibrium():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(15, 2)) * 2 + 3
    Xdot = rng.normal(size=(15, 2))
    Z = np.zeros((1, 2))
    m = exact_ridge_fit(CF, Z, X, Xdot, 0.01)
    assert np.linalg.norm(exact_field_eval(m, np.zeros(2))) <= 1e-8


def test_ridge_far_field_decays():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(8, 2))
    Xdot = rng.normal(size=(8, 2))
    m = exact_ridge_fit(GS, np.zeros((0, 2)), X, Xdot, 0.1)
    assert np.linalg.norm(exact_field_eval(m, np.array([50.0, -40.0]))) <= 1e-6


def test_ridge_conditioning_guard():
    # non-finite anchors must surface as ConditioningError, never as a
    # silently garbage model
    X = np.array([[np.nan, 0.0], [1.0, 0.0]])
    Xdot = np.ones((2, 2))
    with pytest.raises(ConditioningError):
        exact_ridge_fit(GS, np.zeros((0, 2)), X, Xdot, 0.01)


def test_potential_known_value():
    # single anchor at the origin with alpha = e1: V(e1) = -exp(-1/2)
    m = ExactModel(CF, np.zeros((1, 2)), np.array([[1.0, 0.0]]),
                   np.zeros((0, 2)))
    got = exact_potential_eval(m, np.array([1.0, 0.0]))
    assert abs(got - (-0.6065306597126334)) <= 1e-12
    assert abs(exact_potential_eval(m, np.zeros(2))) <= 1e-15


def test_potential_gradient_matches_field():
    # numerical gradient of V equals -f for curl-free models
    rng = np.random.default_rng(21)
    X = rng.normal(size=(10, 2)) * 1.5
    Xdot = rng.normal(size=(10, 2))
    m = exact_ridge_fit(KernelKind("curl_free", 1.4), np.zeros((0, 2)),
                        X, Xdot, 0.05)
    h = 1e-6
    for _ in range(20):
        x = rng.normal(size=2) * 2
        g = np.zeros(2)
        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            g[c] = (exact_potential_eval(m, x + e) - exact_potential_eval(m, x - e)) / (2 * h)
        f = exact_field_eval(m, x)
        assert np.linalg.norm(g + f) <= 1e-5 * max(1.0, np.linalg.norm(f))
