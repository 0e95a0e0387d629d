"""Typed save/load wrappers over the binary container."""

import numpy as np

from .backends import LdaTransform, PldaModel
from .container import read_container, write_container
from .e2e import BilinearScorer
from .errors import FormatError
from .frontend import FeatureMatrix
from .nn import Network


def _entry(path, table, key):
    """table[key] from a container's header or arrays; FormatError naming file and key if absent."""
    try:
        return table[key]
    except KeyError:
        raise FormatError(f"{path}: missing {key!r}") from None


def same_frontend(path, record, other_path, other):
    """FormatError naming both artifacts unless their frontend records agree."""
    if record != other:
        raise FormatError(f"{path} and {other_path} were made with different frontends: "
                          f"{record} vs {other}")


def save_features(path, feat, frontend):
    """Features with the record of the frontend that made them."""
    write_container(path, "features", {"frontend": frontend},
                    {"frames": feat.frames.astype(np.float32)})


def load_features(path):
    """(FeatureMatrix, frontend record) of a feature file."""
    _, header, arrays = read_container(path, expect_kind="features")
    return (FeatureMatrix(_entry(path, arrays, "frames").astype(np.float64)),
            _entry(path, header, "frontend"))


def save_vectors(path, kind, ids, speakers, matrix):
    """A vector set (one row per utterance) with its id/speaker tables."""
    write_container(path, kind, {"ids": list(ids), "speakers": list(speakers)},
                    {"vectors": np.asarray(matrix, dtype=np.float32)})


def load_vectors(path, kind=None):
    _, header, arrays = read_container(path, expect_kind=kind)
    return (_entry(path, header, "ids"), _entry(path, header, "speakers"),
            _entry(path, arrays, "vectors").astype(np.float64))


def save_network(path, net, kind="network"):
    arrays = {name: arr for name, arr in net.param_map().items()}
    write_container(path, kind, {"layers": net.specs(), "meta": net.meta}, arrays)


def build_network(path, header, arrays):
    """Network from the header and arrays of a container read from `path`.

    A malformed layer, a break in the layer width chain or a missing, extra
    or misshaped parameter array is a FormatError naming `path`.
    """
    specs, meta = _entry(path, header, "layers"), _entry(path, header, "meta")
    try:
        net = Network.from_specs(specs, meta=meta)
        net.set_params(arrays)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None
    return net


def load_network(path, kind="network"):
    _, header, arrays = read_container(path, expect_kind=kind)
    return build_network(path, header, arrays)


def save_e2e_model(path, net, scorer):
    arrays = {name: arr for name, arr in net.param_map().items()}
    arrays["scorer.S"] = scorer.S
    arrays["scorer.b"] = scorer.b
    write_container(path, "e2e_model", {"layers": net.specs(), "meta": net.meta}, arrays)


def build_e2e_model(path, header, arrays):
    """(network, scorer) from the header and arrays of an e2e_model container."""
    S, b = _entry(path, arrays, "scorer.S"), _entry(path, arrays, "scorer.b")
    if S.ndim != 2 or S.shape[0] != S.shape[1] or b.shape != (1,):
        raise FormatError(f"{path}: scorer arrays have shapes {S.shape} and {b.shape}, "
                          f"expected (d, d) and (1,)")
    scorer = BilinearScorer(S.shape[0])
    scorer.S[...] = S
    scorer.b[...] = b
    net_params = {k: v for k, v in arrays.items() if not k.startswith("scorer.")}
    return build_network(path, header, net_params), scorer


def load_e2e_model(path):
    _, header, arrays = read_container(path, expect_kind="e2e_model")
    return build_e2e_model(path, header, arrays)


def save_lda(path, lda):
    write_container(path, "lda", {}, {"mean": lda.mean, "projection": lda.projection})


def load_lda(path):
    _, _, arrays = read_container(path, expect_kind="lda")
    return LdaTransform(mean=_entry(path, arrays, "mean"),
                        projection=_entry(path, arrays, "projection"))


def save_plda(path, model, center_mean):
    """center_mean is the pre-normalization centering mean applied to inputs."""
    write_container(path, "plda", {},
                    {"mean": model.mean, "between": model.between,
                     "within": model.within, "center_mean": center_mean})


def load_plda(path):
    _, _, arrays = read_container(path, expect_kind="plda")
    mean, between, within, center_mean = (
        _entry(path, arrays, key) for key in ("mean", "between", "within", "center_mean"))
    return PldaModel(mean, between, within), center_mean
