"""Typed save/load wrappers over the binary container."""

import numpy as np

from .backends import LdaTransform, PldaModel
from .container import read_container, write_container
from .e2e import BilinearScorer
from .errors import FormatError, SvbenchError
from .frontend import FeatureMatrix, FrontendConfig
from .nn import Network

FRONTEND_KEYS = sorted(FrontendConfig().record())


def _entry(path, table, key):
    """table[key] from a container's header or arrays; FormatError naming file and key if absent."""
    try:
        return table[key]
    except KeyError:
        raise FormatError(f"{path}: missing {key!r}") from None


def frontend_record(path, table):
    """table["frontend"]: FormatError naming `path` unless it has exactly the keys
    FRONTEND_KEYS of FrontendConfig().record() and FrontendConfig accepts its values."""
    record = _entry(path, table, "frontend")
    if not isinstance(record, dict) or sorted(record) != FRONTEND_KEYS:
        raise FormatError(f"{path}: frontend record {record!r}, expected keys {FRONTEND_KEYS}")
    try:
        FrontendConfig(**record)
    except (SvbenchError, TypeError) as e:
        raise FormatError(f"{path}: frontend record {record}: {e}") from None
    return record


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
            frontend_record(path, header))


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


def save_e2e_model(path, net, scorer):
    arrays = {name: arr for name, arr in net.param_map().items()}
    arrays["scorer.S"] = scorer.S
    arrays["scorer.b"] = scorer.b
    write_container(path, "e2e_model", {"layers": net.specs(), "meta": net.meta}, arrays)


MODEL_KINDS = {"dvector_net": "dvector", "e2e_model": "e2e"}   # container kind -> meta["model"]


def load_model(path):
    """(network, scorer) of a dvector_net file (scorer None) or an e2e_model file,
    read once. Any other kind or family, a bad frontend record, layer or width,
    or a missing, extra or misshaped array is a FormatError naming `path`."""
    kind, header, arrays = read_container(path)
    if kind not in MODEL_KINDS:
        raise FormatError(f"{path}: kind {kind!r}, expected a model ({' or '.join(MODEL_KINDS)})")
    specs, meta = _entry(path, header, "layers"), _entry(path, header, "meta")
    if _entry(path, meta, "model") != MODEL_KINDS[kind]:
        raise FormatError(f"{path}: kind {kind!r} holding a {meta['model']!r} model")
    frontend_record(path, meta)
    scorer = None
    if kind == "e2e_model":
        S, b = _entry(path, arrays, "scorer.S"), _entry(path, arrays, "scorer.b")
        if S.ndim != 2 or S.shape[0] != S.shape[1] or b.shape != (1,):
            raise FormatError(f"{path}: scorer arrays have shapes {S.shape} and {b.shape}, "
                              f"expected (d, d) and (1,)")
        scorer = BilinearScorer(S.shape[0])
        scorer.S[...], scorer.b[...] = arrays.pop("scorer.S"), arrays.pop("scorer.b")
    try:
        net = Network.from_specs(specs, meta=meta)
        net.set_params(arrays)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None
    return net, scorer


def save_lda(path, lda):
    write_container(path, "lda", {}, {"mean": lda.mean, "projection": lda.projection})


def save_plda(path, model, center_mean):
    """center_mean is the pre-normalization centering mean applied to inputs."""
    write_container(path, "plda", {},
                    {"mean": model.mean, "between": model.between,
                     "within": model.within, "center_mean": center_mean})


def _backend(path, expect_kind=None):
    kind, _, arrays = read_container(path, expect_kind=expect_kind)
    get = lambda key: _entry(path, arrays, key)
    if kind == "lda":
        return {"lda": LdaTransform(mean=get("mean"), projection=get("projection"))}
    if kind == "plda":
        return {"plda": PldaModel(get("mean"), get("between"), get("within")),
                "plda_center": get("center_mean")}
    raise FormatError(f"{path}: kind {kind!r}, expected a back-end ('lda' or 'plda')")


def load_backend(path):
    """The scoring keywords of an lda file, {"lda": LdaTransform}, or of a plda file,
    {"plda": PldaModel, "plda_center": the pre-normalization centering mean}."""
    return _backend(path)


def load_lda(path):
    return _backend(path, "lda")["lda"]


def load_plda(path):
    backend = _backend(path, "plda")
    return backend["plda"], backend["plda_center"]
