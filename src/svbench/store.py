"""Typed save/load wrappers over the binary container."""

import os

import numpy as np

from .backends import LdaTransform, PldaModel
from .container import iter_container, read_container, write_container
from .e2e import BilinearScorer
from .errors import FormatError, SvbenchError, UsageError
from .frontend import CMVN_MODES, FeatureMatrix, FrontendConfig
from .nn import Affine, Network

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


# container kind ("features" also serving each side-file row) -> its arrays' shape letters,
# one letter one size, given by the loader or read off the first array with it: F mel bins,
# N ids, E/S enroll/test sides, D vector width, K LDA width, T frames (at least 1).
ARRAYS = {"features": {"frames": "TF"},
          "dvector": {"vectors": "ND"}, "e2e": {"vectors": "ND"},
          "side_vectors": {"enroll": "ED", "test": "SD"},
          "lda": {"mean": "D", "projection": "DK"},
          "plda": {"mean": "D", "between": "DD", "within": "DD", "center_mean": "D"}}


def _finite(path, name, a):
    """FormatError naming `path` and the array `name` if `a` holds a NaN or an inf."""
    if not np.isfinite(a).all():
        raise FormatError(f"{path}: {name!r} holds a NaN or inf entry")


def _arrays(path, kind, arrays, **sizes):
    """`arrays` if it holds exactly the arrays ARRAYS[kind] names, each finite, float64 and
    of the shape its letters give, else a FormatError naming `path` and the array."""
    for name, letters in ARRAYS[kind].items():
        a = _entry(path, arrays, name)
        expected = " x ".join(str(sizes.get(letter, letter)) for letter in letters)
        if a.ndim == len(letters):
            for letter, n in zip(letters, a.shape):
                sizes.setdefault(letter, n)
        if (a.dtype != np.float64 or a.ndim != len(letters) or sizes.get("T", 1) < 1
                or a.shape != tuple(sizes[letter] for letter in letters)):
            raise FormatError(f"{path}: {name!r} needs a float64 {expected} array"
                              f"{' with T >= 1' if 'T' in letters else ''}, "
                              f"found {a.dtype} {a.shape}")
        _finite(path, name, a)
    extra = sorted(set(arrays) - set(ARRAYS[kind]))
    if extra:
        raise FormatError(f"{path}: {kind} file with an unexpected array {extra[0]!r}")
    return arrays


def save_features(path, feat, frontend):
    """Raw float64 features with the record of the frontend that made them."""
    write_container(path, "features", {"frontend": frontend},
                    {"frames": feat.frames})


def load_features(path):
    """(FeatureMatrix, frontend record) of a feature file."""
    _, header, arrays = read_container(path, expect_kind="features")
    frontend = frontend_record(path, header)
    frames = _arrays(path, "features", arrays, F=frontend["num_mel_bins"])["frames"]
    return FeatureMatrix(frames), frontend


def _row_names(n):
    """Row indices 0..n-1, zero-padded so that the container's sorted order is row order."""
    return [f"{i:0{len(str(n - 1))}d}" for i in range(n)]


def save_side_features(path, frontend, segments, count, rows):
    """Trial-side features: `count` raw float64 matrices, one per segments-file row, named
    by _row_names and written as `rows` yields them, with the frontend record and
    `segments`, the segments file's sha256."""
    write_container(path, "side_features", {"frontend": frontend, "segments": segments},
                    zip(_row_names(count), (np.asarray(r, np.float64) for r in rows)), count)


def load_side_features(path):
    """(frontend record, segments sha256, row count, rows) of a side-features file, where
    `rows` yields the row matrices in row order, each read as it is asked for. A missing
    file or header entry is a FormatError naming `path` before any row is read; a row not
    named by _row_names or not a float64 T x num_mel_bins matrix with T >= 1 is one at
    that row."""
    if not os.path.exists(path):
        raise FormatError(f"{path}: no trial-side features; `svbench trials` writes them "
                          f"beside its segments file")
    items = iter_container(path, expect_kind="side_features")
    _, header, count = next(items)
    frontend = frontend_record(path, header)
    segments = _entry(path, header, "segments")
    names = _row_names(count)

    def rows():
        for expected, (name, frames) in zip(names, items):
            if name != expected:
                raise FormatError(f"{path}: array {name!r} is not a row index "
                                  f"(expected {count} arrays named {names[0]} to {names[-1]})")
            yield _arrays(f"{path}: row {name}", "features", {"frames": frames},
                          F=frontend["num_mel_bins"])["frames"]

    return frontend, segments, count, rows()


def save_vectors(path, kind, ids, speakers, matrix):
    """A vector set (one float64 row per utterance) with its id/speaker tables."""
    write_container(path, kind, {"ids": list(ids), "speakers": list(speakers)},
                    {"vectors": np.asarray(matrix, dtype=np.float64)})


def load_vectors(path, kind):
    """(ids, speakers, vectors) of a vector set; FormatError naming `path` unless there are
    as many ids as speakers and the vectors are a float64 matrix with a row for each."""
    _, header, arrays = read_container(path, expect_kind=kind)
    ids, speakers = _entry(path, header, "ids"), _entry(path, header, "speakers")
    if len(ids) != len(speakers):
        raise FormatError(f"{path}: {len(ids)} ids but {len(speakers)} speakers")
    return ids, speakers, _arrays(path, kind, arrays, N=len(ids))["vectors"]


def save_side_vectors(path, stamp, enroll, test):
    """The float64 vectors of the enroll and of the test sides of a segments file, one row
    per side in segments-file order, with `stamp`, the sha256 of the files they came from."""
    write_container(path, "side_vectors", {"stamp": stamp},
                    {"enroll": np.asarray(enroll, np.float64),
                     "test": np.asarray(test, np.float64)})


def load_side_vectors(path, stamp, enroll_rows, test_rows, width):
    """(enroll, test) matrices of a side-vectors file, or None if its stamp is not `stamp`.
    Under a matching stamp, anything but float64 `enroll` and `test` matrices of enroll_rows
    and test_rows rows and `width` columns is a FormatError naming `path`."""
    _, header, arrays = read_container(path, expect_kind="side_vectors")
    if _entry(path, header, "stamp") != stamp:
        return None
    _arrays(path, "side_vectors", arrays, E=enroll_rows, S=test_rows, D=width)
    return arrays["enroll"], arrays["test"]


MODEL_KINDS = {"dvector_net": "dvector", "e2e_model": "e2e"}   # container kind -> meta["model"]


def save_model(path, net, scorer=None):
    """A trained net (and an e2e net's bilinear scorer) in the container kind
    that MODEL_KINDS maps its meta["model"] to, as load_model reads it."""
    kind = {model: kind for kind, model in MODEL_KINDS.items()}[net.meta["model"]]
    if (scorer is None) == (kind == "e2e_model"):
        raise UsageError("an e2e model is saved with its scorer, a dvector model without one")
    arrays = dict(net.param_map())
    if scorer is not None:
        arrays.update({"scorer.S": scorer.S, "scorer.b": scorer.b})
    write_container(path, kind, {"layers": net.specs(), "meta": net.meta}, arrays)


def load_model(path):
    """(network, scorer) of a dvector_net file (scorer None) or an e2e_model file, read
    once. Any other kind or family, a bad frontend record or cmvn mode, layer or width, a
    missing, extra, misshaped, non-float64 or non-finite array, or a scorer that does not
    fit the embeddings of the net's last affine, is a FormatError naming `path`."""
    kind, header, arrays = read_container(path)
    if kind not in MODEL_KINDS:
        raise FormatError(f"{path}: kind {kind!r}, expected a model ({' or '.join(MODEL_KINDS)})")
    specs, meta = _entry(path, header, "layers"), _entry(path, header, "meta")
    if _entry(path, meta, "model") != MODEL_KINDS[kind]:
        raise FormatError(f"{path}: kind {kind!r} holding a {meta['model']!r} model")
    frontend_record(path, meta)
    if _entry(path, meta, "cmvn") not in CMVN_MODES:
        raise FormatError(f"{path}: cmvn {meta['cmvn']!r}, expected one of {CMVN_MODES}")
    for name in sorted(arrays):
        if arrays[name].dtype != np.float64:
            raise FormatError(f"{path}: {name!r} needs a float64 array, found {arrays[name].dtype}")
        _finite(path, name, arrays[name])
    if kind == "e2e_model":
        S, b = _entry(path, arrays, "scorer.S"), _entry(path, arrays, "scorer.b")
        del arrays["scorer.S"], arrays["scorer.b"]
    try:
        net = Network.from_specs(specs, meta=meta)
        net.set_params(arrays)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None
    if kind == "dvector_net":
        return net, None
    d = next((layer.d_out for layer in reversed(net.layers) if isinstance(layer, Affine)), None)
    if S.shape != (d, d) or b.shape != (1,):
        raise FormatError(f"{path}: scorer arrays have shapes {S.shape} and {b.shape}, expected "
                          f"'scorer.S' ({d}, {d}) for {d}-dim embeddings and 'scorer.b' (1,)")
    scorer = BilinearScorer(d)
    scorer.S[...], scorer.b[...] = S, b
    return net, scorer


def save_lda(path, lda):
    write_container(path, "lda", {}, {"mean": lda.mean, "projection": lda.projection})


def save_plda(path, model, center_mean):
    """center_mean is the pre-normalization centering mean applied to inputs."""
    write_container(path, "plda", {},
                    {"mean": model.mean, "between": model.between,
                     "within": model.within, "center_mean": center_mean})


def load_backend(path):
    """The scoring keywords of an lda file, {"lda": LdaTransform}, or of a plda file,
    {"plda": PldaModel, "plda_center": the pre-normalization centering mean}. A missing,
    extra, non-float64 or misshaped array is a FormatError naming `path` and the array."""
    kind, _, arrays = read_container(path)
    if kind not in ("lda", "plda"):
        raise FormatError(f"{path}: kind {kind!r}, expected a back-end ('lda' or 'plda')")
    _arrays(path, kind, arrays)
    if kind == "lda":
        return {"lda": LdaTransform(mean=arrays["mean"], projection=arrays["projection"])}
    return {"plda": PldaModel(arrays["mean"], arrays["between"], arrays["within"]),
            "plda_center": arrays["center_mean"]}
