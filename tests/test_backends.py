import numpy as np
import pytest
import scipy.linalg

from svbench.backends import (PldaModel, center_and_length_normalize,
                              cosine_score, fit_lda, fit_plda, plda_log_likelihood)
from svbench.errors import UsageError


def test_cosine_self():
    v = np.array([[1.0, 2.0, -3.0]])
    assert cosine_score(v, v)[0, 0] == pytest.approx(1.0)
    assert cosine_score(v, -v)[0, 0] == pytest.approx(-1.0)


def test_cosine_scale_invariant():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((1, 5)), rng.standard_normal((1, 5))
    assert cosine_score(3.7 * a, b)[0, 0] == pytest.approx(cosine_score(a, b)[0, 0])


def test_cosine_zero_vector_rejected():
    with pytest.raises(UsageError):
        cosine_score(np.zeros((1, 3)), np.ones((1, 3)))


def test_normalize_unit_norms():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 6)) + 4.0
    out = center_and_length_normalize(x, x.mean(axis=0))
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_normalize_idempotent_on_sphere():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((10, 4))
    once = center_and_length_normalize(x, x.mean(axis=0))
    again = center_and_length_normalize(once, mean=np.zeros(4))
    np.testing.assert_allclose(again, once, atol=1e-12)


def test_normalize_preserves_cosine_under_joint_scaling():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((1, 5)), rng.standard_normal((1, 5))
    na = center_and_length_normalize(2.5 * a, mean=np.zeros(5))
    nb = center_and_length_normalize(2.5 * b, mean=np.zeros(5))
    assert cosine_score(na, nb)[0, 0] == pytest.approx(cosine_score(a, b)[0, 0])


def _gaussian_classes(rng, num_classes=5, dim=8, per_class=30, spread=2.0):
    means = spread * rng.standard_normal((num_classes, dim))
    x = np.concatenate([m + rng.standard_normal((per_class, dim)) for m in means])
    labels = np.repeat(np.arange(num_classes), per_class)
    return x, labels


def test_lda_closed_form_two_classes():
    rng = np.random.default_rng(4)
    a = np.array([1.0, 0.0]) + 0.5 * rng.standard_normal((400, 2))
    b = np.array([-1.0, 0.0]) + 0.5 * rng.standard_normal((400, 2))
    lda = fit_lda(np.concatenate([a, b]), [0] * 400 + [1] * 400, target_dim=1)
    direction = lda.projection[:, 0] / np.linalg.norm(lda.projection[:, 0])
    # isotropic within-class scatter, means on the x axis -> direction (1, 0)
    assert abs(direction[0]) > 0.99


def test_lda_relabeling_invariance():
    rng = np.random.default_rng(5)
    x, labels = _gaussian_classes(rng)
    lda_a = fit_lda(x, labels, target_dim=3)
    lda_b = fit_lda(x, (labels + 1) % 5, target_dim=3)
    for j in range(3):
        ca, cb = lda_a.projection[:, j], lda_b.projection[:, j]
        assert min(np.linalg.norm(ca - cb), np.linalg.norm(ca + cb)) < 1e-8


def test_lda_matches_dense_generalized_eig():
    rng = np.random.default_rng(6)
    x, labels = _gaussian_classes(rng)
    lda = fit_lda(x, labels, target_dim=4)
    # independent dense solve on the raw scatter matrices
    n, d = x.shape
    mean = x.mean(axis=0)
    sw = np.zeros((d, d))
    sb = np.zeros((d, d))
    for c in np.unique(labels):
        xc = x[labels == c]
        mc = xc.mean(axis=0)
        sw += (xc - mc).T @ (xc - mc)
        sb += len(xc) * np.outer(mc - mean, mc - mean)
    sw /= n
    sb /= n
    vals, vecs = scipy.linalg.eigh(sb, sw + 1e-6 * np.trace(sw) / d * np.eye(d))
    w = vecs[:, ::-1][:, :4]
    w = w / np.sqrt(np.einsum("ij,ik,kj->j", w, sw, w))
    for j in range(4):
        ca, cb = lda.projection[:, j], w[:, j]
        assert min(np.linalg.norm(ca - cb), np.linalg.norm(ca + cb)) < 1e-8


def test_lda_whitens_within_class_scatter():
    rng = np.random.default_rng(7)
    x, labels = _gaussian_classes(rng)
    lda = fit_lda(x, labels, target_dim=4)
    projected = lda.transform(x)
    n, d = x.shape
    sw = np.zeros((4, 4))
    for c in np.unique(labels):
        pc = projected[labels == c]
        sw += (pc - pc.mean(axis=0)).T @ (pc - pc.mean(axis=0))
    np.testing.assert_allclose(np.diag(sw / n), 1.0, atol=1e-6)


def test_lda_target_dim_validation():
    rng = np.random.default_rng(8)
    x, labels = _gaussian_classes(rng, num_classes=3)
    with pytest.raises(UsageError):
        fit_lda(x, labels, target_dim=3)      # > classes - 1
    with pytest.raises(UsageError):
        fit_lda(x, np.zeros(len(x)), target_dim=1)


def test_lda_rejects_non_finite_projection(rank_deficient_vectors):
    x, labels = rank_deficient_vectors
    with pytest.raises(UsageError, match="not finite"):
        fit_lda(x, labels, target_dim=12)


def _plda_data(rng, num_classes=200, per_class=10, dim=3):
    b_chol = np.array([[1.0, 0.0, 0.0], [0.3, 0.8, 0.0], [-0.2, 0.1, 0.6]])
    w_chol = 0.5 * np.eye(dim)
    ys = rng.standard_normal((num_classes, dim)) @ b_chol.T
    x = np.concatenate([y + rng.standard_normal((per_class, dim)) @ w_chol.T for y in ys])
    labels = np.repeat(np.arange(num_classes), per_class)
    return x, labels, b_chol @ b_chol.T, w_chol @ w_chol.T


def test_plda_recovers_generating_covariances():
    rng = np.random.default_rng(9)
    x, labels, b_true, w_true = _plda_data(rng)
    model = fit_plda(x, labels, iterations=25)
    assert np.linalg.norm(model.between - b_true) / np.linalg.norm(b_true) < 0.15
    assert np.linalg.norm(model.within - w_true) / np.linalg.norm(w_true) < 0.15


def test_plda_likelihood_monotone():
    rng = np.random.default_rng(10)
    x, labels, _, _ = _plda_data(rng, num_classes=50)
    history = [plda_log_likelihood(fit_plda(x, labels, iterations=k),
                                   x, labels) for k in range(1, 21)]
    diffs = np.diff(history)
    assert np.all(diffs >= -1e-9)


def test_plda_single_class_rejected():
    with pytest.raises(UsageError):
        fit_plda(np.random.default_rng(11).standard_normal((10, 3)), np.zeros(10), iterations=20)


def test_plda_zero_between_gives_zero_llr():
    model = PldaModel(np.zeros(3), np.zeros((3, 3)), np.eye(3))
    rng = np.random.default_rng(13)
    for _ in range(5):
        a, b = rng.standard_normal((1, 3)), rng.standard_normal((1, 3))
        assert model.score(a, b)[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_plda_score_symmetric():
    rng = np.random.default_rng(14)
    c = rng.standard_normal((2, 2))
    model = PldaModel(rng.standard_normal(2), c @ c.T + np.eye(2), np.eye(2))
    a, b = rng.standard_normal((1, 2)), rng.standard_normal((1, 2))
    assert model.score(a, b)[0, 0] == pytest.approx(model.score(b, a)[0, 0], abs=1e-12)


def test_plda_score_matches_direct_densities():
    # validated in depth (100 random instances) in the acceptance suite;
    # single spot check here
    rng = np.random.default_rng(15)
    c = rng.standard_normal((2, 2))
    between = c @ c.T
    model = PldaModel(rng.standard_normal(2), between, np.eye(2) * 0.5)
    a, b = rng.standard_normal(2), rng.standard_normal(2)
    total = between + model.within
    same_cov = np.block([[total, between], [between, total]])
    diff_cov = np.block([[total, np.zeros((2, 2))], [np.zeros((2, 2)), total]])
    z = np.concatenate([a - model.mean, b - model.mean])

    def log_density(cov):
        sign, logdet = np.linalg.slogdet(2 * np.pi * cov)
        return -0.5 * (z @ np.linalg.inv(cov) @ z + logdet)

    expect = log_density(same_cov) - log_density(diff_cov)
    assert model.score(a[None], b[None])[0, 0] == pytest.approx(expect, abs=1e-9)
