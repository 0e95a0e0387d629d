"""Run configuration: sectioned key-value file with strict key checking.

Every subcommand reads the same file; unknown sections or keys are
rejected so typos fail loudly. CLI flags (--seed, --out-dir) override
the file, and each run writes its resolved configuration beside its
artifacts.
"""

import configparser
import dataclasses
import io
import math

from .datagen import SyntheticSpec
from .dvector import DVectorConfig
from .e2e import E2EConfig
from .errors import ConfigError
from .evaluation import MIN_SEGMENT_SECS
from .frontend import CMVN_MODES, FrontendConfig
from .nn import TrainerConfig


def _finite(raw):
    """float(raw), refusing NaN and inf: a NaN would pass every range check."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _secs_pair(raw):
    lo, hi = (_finite(p) for p in raw.split(","))
    return (lo, hi)


def _cmvn_mode(raw):
    if raw not in CMVN_MODES:
        raise ValueError(f"not one of {CMVN_MODES}")
    return raw


def _above(low, parse, reason):
    """`parse`, refusing with `reason` a value that is not above `low`."""
    def check(raw):
        value = parse(raw)
        if not value > low:
            raise ValueError(reason)
        return value
    return check


def _fields(cls, *derived):
    """key -> (parser, default) of every field of dataclass `cls` but `derived`,
    the fields that the CLI fills in itself."""
    parsers = {int: int, float: _finite, tuple: _secs_pair}
    return {f.name: (parsers[f.type], f.default)
            for f in dataclasses.fields(cls) if f.name not in derived}


# section -> key -> (parser, default); a dataclass-fed section takes its keys
# from the dataclass's fields, and only keys that no field has are written here
SCHEMA = {
    "run": {
        "out_dir": (str, "runs/default"),
        "seed": (_above(-1, int, "must not be negative"), 0),
    },
    "datagen": {
        **_fields(SyntheticSpec, "seed"),
        "train_speakers": (_above(-1, int, "must not be negative"), 0),
        "eval_speakers": (_above(-1, int, "must not be negative"), 0),
    },
    "frontend": _fields(FrontendConfig, "dither_seed"),
    "dvector": {
        **_fields(DVectorConfig, "input_dim", "num_speakers"),
        "cmvn": (_cmvn_mode, "per-utterance"),   # applied on load, recorded in the model
    },
    "e2e": {
        **_fields(E2EConfig, "input_dim"),
        # pair training runs on iterations, not epochs, and needs a much
        # smaller step than frame classification, so it gets its own schedule
        "learning_rate": (_finite, 0.003),
        "lr_decay": (_finite, 0.5),
        "lr_decay_interval": (int, 400),
        "cmvn": (_cmvn_mode, "none"),
    },
    "trainer": _fields(TrainerConfig, "seed"),
    "backends": {
        "lda_dim": (_above(0, int, "must be positive"), 150),
        "plda_iterations": (_above(0, int, "must be positive"), 10),
    },
    "eval": {
        # build_conditions cuts no enrollment shorter than MIN_SEGMENT_SECS (up to rounding)
        "enroll_secs": (_above(MIN_SEGMENT_SECS - 1e-9, _above(0, _finite, "must be positive"),
                               f"must be at least {MIN_SEGMENT_SECS:g} s, the shortest "
                               f"enrollment cut `trials` makes"), 4.0),
        "test_secs": (_above(0, _finite, "must be positive"), 4.0),
    },
}


def default_config():
    return {section: {key: default for key, (_, default) in keys.items()}
            for section, keys in SCHEMA.items()}


def _read_ini(path):
    """section -> key -> raw value; a malformed file is a ConfigError naming path:line."""
    parser = configparser.ConfigParser(interpolation=None)   # values are literal, as dumped
    try:
        with open(path) as f:
            parser.read_file(f)
        return {section: dict(parser.items(section)) for section in parser.sections()}
    except configparser.MissingSectionHeaderError as e:
        raise ConfigError(f"{path}:{e.lineno}: {e.line.strip()!r} comes before any [section]") from e
    except configparser.ParsingError as e:
        raise ConfigError(f"{path}:{e.errors[0][0]}: expected 'key = value'") from e
    except configparser.DuplicateOptionError as e:
        raise ConfigError(f"{path}:{e.lineno}: duplicate key {e.option!r} in [{e.section}]") from e
    except configparser.DuplicateSectionError as e:
        raise ConfigError(f"{path}:{e.lineno}: duplicate section [{e.section}]") from e
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e.message}") from e


def load_config(path=None, overrides=None):
    """Parse the run configuration; `overrides` maps (section, key) -> value."""
    cfg = default_config()
    if path is not None:
        for section, items in _read_ini(path).items():
            if section not in SCHEMA:
                raise ConfigError(f"{path}: unknown config section [{section}]")
            for key, raw in items.items():
                if key not in SCHEMA[section]:
                    raise ConfigError(f"{path}: unknown config key {key!r} in [{section}]")
                parse, _ = SCHEMA[section][key]
                try:
                    cfg[section][key] = parse(raw)
                except ValueError as e:
                    raise ConfigError(f"{path}: bad value for [{section}] {key}: {raw!r} "
                                      f"({e})") from e
    for (section, key), value in (overrides or {}).items():
        cfg[section][key] = value
    return cfg


def from_sections(cls, cfg, *sections, **explicit):
    """Dataclass `cls` from the keys of `sections` that match its field names.

    Later sections override earlier ones, and `explicit` overrides both; it
    also carries values whose config key differs from the field name.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for section in sections:
        kwargs.update((key, value) for key, value in cfg[section].items() if key in names)
    kwargs.update(explicit)
    return cls(**kwargs)


def dump_config(cfg):
    """Resolved configuration as deterministic INI text."""
    buf = io.StringIO()
    for section in SCHEMA:
        buf.write(f"[{section}]\n")
        for key in SCHEMA[section]:
            value = cfg[section][key]
            if isinstance(value, tuple):
                value = ",".join(f"{v:g}" for v in value)
            buf.write(f"{key} = {value}\n")
        buf.write("\n")
    return buf.getvalue()
