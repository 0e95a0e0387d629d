"""Back-end scoring for d-vectors: cosine, LDA, and two-covariance PLDA."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import UsageError


def _unit_rows(x, refusal):
    """`x` with each row scaled to unit norm; UsageError(`refusal`) if a row is zero."""
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise UsageError(refusal)
    return x / norms[:, None]


def cosine_score(a, b):
    """Cosine similarity of every row pair of two matrices (n x d, m x d): the
    n x m grid, from row-normalized matrices."""
    zero = "cosine score undefined for zero vector"
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return _unit_rows(a, zero) @ _unit_rows(b, zero).T


def center_and_length_normalize(vectors, mean):
    """Subtract the training mean from each row, then scale each row to unit norm."""
    x = np.asarray(vectors, dtype=np.float64) - np.asarray(mean, dtype=np.float64)
    return _unit_rows(x, "vector equal to the centering mean cannot be length normalized")


def _scatter_matrices(x, labels):
    labels = np.asarray(labels)
    classes = np.unique(labels)
    n, d = x.shape
    mean = x.mean(axis=0)
    sw = np.zeros((d, d))
    sb = np.zeros((d, d))
    for c in classes:
        xc = x[labels == c]
        mc = xc.mean(axis=0)
        dev = xc - mc
        sw += dev.T @ dev
        diff = (mc - mean)[:, None]
        sb += len(xc) * (diff @ diff.T)
    return sw / n, sb / n, mean, classes


@dataclass
class LdaTransform:
    mean: np.ndarray
    projection: np.ndarray          # D x d, whitened: W' Sw W = I

    def transform(self, vectors):
        x = np.asarray(vectors, dtype=np.float64)
        return (x - self.mean) @ self.projection


def fit_lda(vectors, labels, target_dim):
    """Generalized-eigenvector LDA with whitened within-class scatter."""
    x = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels)
    sw, sb, mean, classes = _scatter_matrices(x, labels)
    if len(classes) < 2:
        raise UsageError("LDA needs at least 2 classes")
    if target_dim > min(x.shape[1], len(classes) - 1):
        raise UsageError(f"target_dim {target_dim} exceeds min(D, classes - 1)")
    d = x.shape[1]
    eps = 1e-6 * np.trace(sw) / d
    sw_reg = sw + eps * np.eye(d)
    eigvals, eigvecs = scipy.linalg.eigh(sb, sw_reg)
    w = eigvecs[:, ::-1][:, :target_dim]
    # renormalize against the unregularized scatter so W' Sw W has unit diagonal
    norm2 = np.einsum("ij,ik,kj->j", w, sw, w)
    if not np.all(norm2 >= 0.0):   # negative by rounding: the column would be NaN
        raise UsageError("LDA projection is not finite: near-singular within-class scatter")
    scale = np.sqrt(norm2)
    scale[scale == 0.0] = 1.0
    return LdaTransform(mean=mean, projection=w / scale)


class PldaModel:
    """Two-covariance PLDA: class mean y ~ N(mu, B), observation x ~ N(y, W)."""

    def __init__(self, mean, between, within):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.between = np.asarray(between, dtype=np.float64)
        self.within = np.asarray(within, dtype=np.float64)

    @property
    def dim(self):
        return self.mean.shape[0]

    def _score_terms(self):
        """(Q_enroll, Q_test, P, c): the LLR of a pair (x, y) centered on the mean is
        -0.5 (x'Q_enroll x + y'Q_test y + x'P y + c).

        The blocks come from the inverses of the stacked 2d x 2d same-speaker
        and different-speaker pair covariances, c from their log-determinants.
        """
        d = self.dim
        total = self.between + self.within
        same = np.block([[total, self.between], [self.between, total]])
        diff = np.block([[total, np.zeros((d, d))], [np.zeros((d, d)), total]])
        q = np.linalg.inv(same) - np.linalg.inv(diff)
        return (q[:d, :d], q[d:, d:], q[:d, d:] + q[d:, :d].T,
                np.linalg.slogdet(same)[1] - np.linalg.slogdet(diff)[1])

    def score(self, enroll, test):
        """Log-likelihood ratio ln p(pair | same) - ln p(pair | different) of every
        row pair of two matrices (n x d, m x d): the n x m grid."""
        x = np.asarray(enroll, dtype=np.float64)
        y = np.asarray(test, dtype=np.float64)
        if x.shape[-1] != self.dim or y.shape[-1] != self.dim:
            raise UsageError(f"vector dim mismatch: model dim {self.dim}")
        x, y = x - self.mean, y - self.mean
        q_enroll, q_test, cross, logdet = self._score_terms()
        quad = (np.sum((x @ q_enroll) * x, axis=1)[:, None]
                + np.sum((y @ q_test) * y, axis=1)[None, :] + x @ cross @ y.T)
        return -0.5 * (quad + logdet)


def _group_stats(x, labels):
    groups = []
    for c in np.unique(labels):
        xc = x[labels == c]
        groups.append((len(xc), xc.sum(axis=0), xc))
    return groups


def plda_log_likelihood(model, x, labels):
    """Marginal log-likelihood of grouped data under the two-covariance model.

    Uses |Sigma| = |W|^(n-1) |W + nB| and the matching Woodbury quadratic
    form per class, so no stacked covariance is ever materialized.
    """
    b, w, mu = model.between, model.within, model.mean
    d = model.dim
    w_inv = np.linalg.inv(w)
    _, w_logdet = np.linalg.slogdet(w)
    total = 0.0
    for n, s, xc in _group_stats(x, labels):
        dev = xc - mu
        m = w + n * b
        _, m_logdet = np.linalg.slogdet(m)
        corr = w_inv @ b @ np.linalg.inv(m)
        dsum = dev.sum(axis=0)
        quad = np.einsum("ij,jk,ik->", dev, w_inv, dev) - dsum @ corr @ dsum
        total += -0.5 * (n * d * np.log(2 * np.pi) + (n - 1) * w_logdet + m_logdet + quad)
    return float(total)


def fit_plda(vectors, labels, iterations):
    """EM for the two-covariance model; returns the PldaModel.

    Expects centered, length-normalized input.
    """
    x = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise UsageError("PLDA needs at least 2 classes")
    counts = np.array([np.sum(labels == c) for c in classes])
    if counts.min() < 2:
        raise UsageError("every class needs at least 2 examples")

    d = x.shape[1]
    sw, sb, mean, _ = _scatter_matrices(x, labels)

    def regularize(mat):
        # only touch genuinely degenerate covariances; exact EM updates
        # keep plda_log_likelihood monotone
        floor = 1e-10 * max(np.trace(mat) / d, 1e-30)
        if np.linalg.eigvalsh(mat).min() < floor:
            return mat + floor * np.eye(d)
        return mat

    between = regularize(sb)
    within = regularize(sw)
    mu = mean
    groups = _group_stats(x, labels)
    for _ in range(iterations):
        b_inv = np.linalg.inv(between)
        w_inv = np.linalg.inv(within)
        post_means, post_covs = [], []
        for n, s, _xc in groups:
            cov = np.linalg.inv(b_inv + n * w_inv)
            post_means.append(cov @ (b_inv @ mu + w_inv @ s))
            post_covs.append(cov)
        post_means = np.array(post_means)
        mu = post_means.mean(axis=0)
        between = np.zeros((d, d))
        within = np.zeros((d, d))
        for (n, s, xc), y, cov in zip(groups, post_means, post_covs):
            dy = (y - mu)[:, None]
            between += cov + dy @ dy.T
            dev = xc - y
            within += dev.T @ dev + n * cov
        between = regularize(between / len(groups))
        within = regularize(within / len(x))
    return PldaModel(mu, between, within)
