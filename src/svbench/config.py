"""Run configuration: sectioned key-value file with strict key checking.

Every subcommand reads the same file; unknown sections or keys are
rejected so typos fail loudly. CLI flags (--seed, --out-dir) override
the file, and each run writes its resolved configuration beside its
artifacts.
"""

import configparser
import dataclasses
import io

from .errors import ConfigError
from .frontend import CMVN_MODES


def _secs_pair(raw):
    lo, hi = (float(p) for p in raw.split(","))
    return (lo, hi)


def _cmvn_mode(raw):
    if raw not in CMVN_MODES:
        raise ValueError(f"not one of {CMVN_MODES}")
    return raw


# section -> key -> (parser, default)
SCHEMA = {
    "run": {
        "out_dir": (str, "runs/default"),
        "seed": (int, 0),
    },
    "datagen": {
        "num_speakers": (int, 10),
        "utterances_per_speaker": (int, 5),
        "utterance_secs": (_secs_pair, (2.0, 4.0)),
        "sample_rate": (int, 16000),
        "separability": (float, 1.0),
        "noise_level": (float, 0.05),
        "train_speakers": (int, 0),
        "eval_speakers": (int, 0),
    },
    "frontend": {
        "frame_length_ms": (float, 25.0),
        "frame_shift_ms": (float, 10.0),
        "num_mel_bins": (int, 40),
        "pre_emphasis": (float, 0.97),
        "dither": (float, 0.0),
    },
    "dvector": {
        "conv_dim": (int, 256),
        "bottleneck_dim": (int, 256),
        "td_dim": (int, 256),
        "feature_dim": (int, 400),
        "cmvn": (_cmvn_mode, "per-utterance"),   # applied on load, recorded in the model
    },
    "e2e": {
        "lift_dim": (int, 150),
        "nin_hidden": (int, 1000),
        "nin_out": (int, 500),
        "pre_pool_dim": (int, 150),
        "embedding_dim": (int, 200),
        "pair_batch_n": (int, 64),
        "iterations": (int, 200),
        "loss_k": (float, 0.0),           # 0 means 1/(N-1)
        "chunk_min": (int, 50),
        "chunk_max": (int, 300),
        # pair training runs on iterations, not epochs, and needs a much
        # smaller step than frame classification, so it gets its own schedule
        "learning_rate": (float, 0.003),
        "lr_decay": (float, 0.5),
        "lr_decay_interval": (int, 400),
        "cmvn": (_cmvn_mode, "none"),
    },
    "trainer": {
        "learning_rate": (float, 0.02),
        "lr_decay": (float, 0.7),
        "lr_decay_interval": (int, 2),
        "momentum": (float, 0.9),
        "max_epochs": (int, 10),
        "clip_norm": (float, 5.0),
    },
    "backends": {
        "lda_dim": (int, 150),
        "plda_iterations": (int, 10),
    },
    "eval": {
        "enroll_secs": (float, 4.0),
        "test_secs": (float, 4.0),
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
                    raise ConfigError(f"{path}: bad value for [{section}] {key}: {raw!r}") from e
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
