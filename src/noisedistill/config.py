"""Experiment configuration: one JSON document, schema-validated, hashable.

``SCHEMA`` (JSON Schema, draft 2020-12) is the one definition of a valid
config.  One compact walk of it validates a document, words each failure as
jsonschema does and reports the one jsonschema's ``best_match`` picks.  It
returns the document as the program reads it: an integral float at an
``integer`` position (``300.0``) becomes an int.  Every count that sizes an
array is capped at ``MAX_ARRAY_SIZE``.

Unknown keys are rejected everywhere so a typo cannot silently fall back to a
default.  The effective config (after a ``--seed`` override) is
canonicalized and hashed; every artifact a run writes embeds that hash next to
the seed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass, replace

from . import __version__, toydata
from .errors import ConfigError

CONFIG_VERSION = 1
KINDS = ("verify", "pretrain", "distill", "sample", "eval", "sigma_sweep")
OUT_ROOT_ENV = "NOISEDISTILL_OUT_ROOT"

_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_NONNEG_NUM = {"type": "number", "minimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
# Largest count that sizes an array (the sampling grid's ``steps`` among them).
# A product of two such counts stays inside numpy's index range (2**63), so an
# oversized request fails as MemoryError (exit 2), not as an index overflow.
# Loop counts are not capped: a huge one is only a long run.
MAX_ARRAY_SIZE = 2**28
# Largest linear.sigma for which 4 (1 + sigma^2), the verify battery's bracket
# for the profile minimizer, is finite.
SIGMA_LIMIT = math.sqrt(sys.float_info.max) / 2


def _size(minimum: int) -> dict:
    return {"type": "integer", "minimum": minimum, "maximum": MAX_ARRAY_SIZE}


SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "kind", "seed"],
    "properties": {
        "version": {"const": CONFIG_VERSION},
        "kind": {"enum": list(KINDS)},
        "seed": {"type": "integer", "minimum": 0},
        "linear": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dim", "rank", "sigma"],
            "properties": {
                "dim": _size(1),
                "rank": _size(1),
                "sigma": {"type": "number", "minimum": 0, "maximum": SIGMA_LIMIT},
                "mc_instances": _POS_INT,
                "mc_samples": _size(100),
                "opt": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"seeds": _POS_INT, "max_iters": _POS_INT},
                },
            },
        },
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"sigma_min": _POS_NUM, "sigma_max": _POS_NUM},
        },
        "dataset": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "n", "sigma_data"],
            "properties": {
                "kind": {"enum": list(toydata.KINDS)},
                "n": _size(toydata.MIN_POINTS),
                "sigma_data": _NONNEG_NUM,
            },
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "batch_size": _size(1),
                "lr": _POS_NUM,
                "steps": {"type": "integer", "minimum": 0},
                "sigma_hat": _NONNEG_NUM,
                "mode": {"enum": ["standard", "ambient"]},
                "hidden": {"type": "array", "items": _size(1), "minItems": 1},
            },
        },
        "distill": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "teacher": {"type": "string"},
                "method": {"enum": ["sds", "dmd", "sid"]},
                "mode": {"enum": ["standard", "adjusted"]},
                "alpha": {"type": "number"},
                "lr_fake": _POS_NUM,
                "lr_gen": _POS_NUM,
                "steps": _POS_INT,
                "batch_size": _size(1),
                "sigma_hat": _NONNEG_NUM,
                "eval_every": _POS_INT,
                "weighting": {"enum": ["constant", "sigma2", "sid-normalized"]},
            },
        },
        "sample": {
            "type": "object",
            "additionalProperties": False,
            "required": ["source", "sampler", "n"],
            "properties": {
                "source": {"type": "string"},
                "sampler": {"enum": ["one_step", "full", "truncated"]},
                "n": _size(0),
                "steps": _size(2),
            },
        },
        "eval": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "teacher": {"type": "string"},
                "generator": {"type": "string"},
                "n_eval": _size(100),
                "sample_steps": _size(2),
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sigma_hats": {"type": "array", "items": _NONNEG_NUM, "minItems": 1,
                               "uniqueItems": True},
            },
        },
    },
}

# The sections each kind reads, True for the required ones; any other section
# is rejected.
SECTIONS = {
    "verify": {"linear": True, "schedule": False},
    "pretrain": {"dataset": True, "train": True, "schedule": False},
    "distill": {"dataset": True, "distill": True, "schedule": False, "eval": False},
    "sample": {"sample": True},
    "eval": {"dataset": True, "eval": True, "schedule": False},
    "sigma_sweep": {"dataset": True, "train": True, "distill": True, "schedule": False,
                    "eval": False, "sweep": False},
}

_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_key(value):
    """A hashable stand-in that is equal for exactly the values JSON Schema
    calls equal: ``1`` and ``1.0`` are one number, but ``true`` is not ``1``."""
    if isinstance(value, list):
        return "array", tuple(map(_json_key, value))
    if isinstance(value, dict):
        return "object", frozenset((key, _json_key(item)) for key, item in value.items())
    return "number" if _is_number(value) else type(value).__name__, value


def _conform(schema: dict, value, path: tuple, errors: list):
    """``value`` as the program reads it: each integral float at an
    ``integer`` position becomes an int.  Appends a ``(path, message)`` pair,
    worded as jsonschema words it, to ``errors`` for each failure of the
    keywords ``SCHEMA`` uses (``$schema`` is an annotation), checking each
    object's own keywords in ``SCHEMA``'s order before its properties."""

    def reject(message: str):
        errors.append((path, message))

    number = _is_number(value)
    kind = schema.get("type")
    typed = (kind is None or isinstance(value, _JSON_TYPES.get(kind, ())) or kind == "number" and number
             or kind == "integer" and number and (isinstance(value, int) or value.is_integer()))
    if not typed:  # checked no further
        reject(f"{value!r} is not of type {kind!r}")
        return value
    if "const" in schema and _json_key(value) != _json_key(schema["const"]):
        reject(f"{schema['const']!r} was expected")
    if "enum" in schema and _json_key(value) not in set(map(_json_key, schema["enum"])):
        reject(f"{value!r} is not one of {schema['enum']!r}")
    if number:  # bounds are worded with the number as the document spells it
        if "minimum" in schema and value < schema["minimum"]:
            reject(f"{value!r} is less than the minimum of {schema['minimum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            reject(f"{value!r} is less than or equal to the minimum of {schema['exclusiveMinimum']!r}")
        if "maximum" in schema and value > schema["maximum"]:
            reject(f"{value!r} is greater than the maximum of {schema['maximum']!r}")
    if kind == "integer":
        return int(value)
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        extras = sorted(key for key in value if key not in properties)
        if extras and schema.get("additionalProperties") is False:
            reject(f"Additional properties are not allowed ({', '.join(map(repr, extras))} "
                   f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        errors.extend((path, f"{key!r} is a required property")
                      for key in schema.get("required", ()) if key not in value)
        return {key: _conform(properties[key], item, (*path, key), errors) if key in properties else item
                for key, item in value.items()}
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            reject(f"{value!r} {'should be non-empty' if schema['minItems'] == 1 else 'is too short'}")
        if schema.get("uniqueItems") and len(set(map(_json_key, value))) < len(value):
            reject(f"{value!r} has non-unique elements")
        return [_conform(schema.get("items", {}), item, (*path, index), errors)
                for index, item in enumerate(value)]
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config document, plus the two run settings that only the
    command line gives: the output directory (None: under OUT_ROOT_ENV, named
    by kind and hash) and whether to emit SVG plots.  Neither changes what
    gets computed, so neither is in ``raw`` or the hash."""

    raw: dict
    out: str | None
    plots: bool

    @property
    def kind(self) -> str:
        return self.raw["kind"]

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    def section(self, name: str) -> dict:
        return self.raw.get(name, {})

    def out_dir(self) -> str:
        if self.out is not None:
            return self.out
        root = os.environ.get(OUT_ROOT_ENV, "runs")
        return os.path.join(root, f"{self.kind}-{self.config_hash()}")

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def parse_config(raw: dict) -> ExperimentConfig:
    errors = []
    raw = _conform(SCHEMA, raw, (), errors)
    if errors:
        # best_match's pick: the shallowest, then the greatest path, then the first
        path, message = max(errors, key=lambda error: (-len(error[0]), error[0]))
        raise ConfigError(f"config invalid at {'/'.join(map(str, path)) or '<root>'}: {message}")
    for section, required in SECTIONS[raw["kind"]].items():
        if required and section not in raw:
            raise ConfigError(f"kind {raw['kind']!r} requires a {section!r} section")
    unread = _unread_keys(raw)
    if unread:
        raise ConfigError(f"not read by a {raw['kind']!r} config, so rejected: {', '.join(unread)}")
    if raw["kind"] == "distill" and "teacher" not in raw["distill"]:  # sigma_sweep trains its own
        raise ConfigError("distill.teacher (checkpoint path) is required")
    return ExperimentConfig(raw=raw, out=None, plots=False)


def _unread_keys(raw: dict) -> list[str]:
    """Sections and keys the schema allows in every kind that this config's
    command would drop: the sections outside its ``SECTIONS`` entry, and
    within them, ``distill`` and ``sigma_sweep`` evaluate their own generator,
    ``sigma_sweep`` pretrains its own teachers at the sweep's sigma_hats, and
    the one-step sampler takes no steps."""
    kind = raw["kind"]
    unread = [key for key in raw if key not in (*SCHEMA["required"], *SECTIONS[kind])]
    if kind in ("distill", "sigma_sweep"):
        unread += [f"eval.{key}" for key in ("teacher", "generator") if key in raw.get("eval", {})]
    if kind == "sigma_sweep":
        swept = (("train", "sigma_hat"), ("distill", "teacher"), ("distill", "sigma_hat"))
        unread += [f"{section}.{key}" for section, key in swept if key in raw[section]]
    if kind == "sample" and raw["sample"]["sampler"] == "one_step" and "steps" in raw["sample"]:
        unread.append("sample.steps")
    return unread


def _finite_number(literal: str) -> float:
    """A JSON float literal or NaN/Infinity constant; non-finite (even 1e400) is rejected."""
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"config holds a non-finite number: {literal}")
    return value


def load_config(
    path: str,
    seed_override: int | None = None,
    out_override: str | None = None,
    plots_override: bool = False,
    expected_kind: str | None = None,
) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    if seed_override is not None:
        raw["seed"] = int(seed_override)
    cfg = replace(parse_config(raw), out=out_override, plots=plots_override)
    if expected_kind is not None and cfg.kind != expected_kind:
        raise ConfigError(f"config kind is {cfg.kind!r} but the command expects {expected_kind!r}")
    return cfg


def from_section(build, section: dict, **fixed):
    """Call ``build`` (a dataclass or a function) with the keys of a validated
    config section that name its parameters, then the caller-fixed values on
    top.  Every parameter the section omits keeps the default ``build``
    declares, so each default has one home."""
    params = inspect.signature(build).parameters
    return build(**{**{k: v for k, v in section.items() if k in params}, **fixed})


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def provenance(cfg: ExperimentConfig) -> str:
    """The {config hash, seed, tool version} triple every artifact embeds."""
    return f"config_hash={cfg.config_hash()} seed={cfg.seed} version={__version__}"


def format_cell(value) -> str:
    """CSV cell formatting: repr for floats (exact round-trip), str otherwise.

    numpy float scalars are floats too, but their repr carries the type
    (``np.float64(0.5)``), so they are written as plain floats."""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv_atomic(path: str, cfg: ExperimentConfig, columns, rows) -> None:
    """Pinned CSV dialect: comma, '.' decimals, LF endings, mandatory header,
    preceded by one comment line carrying the provenance triple.  An (n, width)
    float64 array of rows is formatted in one pass, to ``format_cell``'s bytes."""
    width = len(columns)
    if getattr(rows, "dtype", None) == float and rows.shape[1:] == (width,):
        body = ("%r" + ",%r" * (width - 1) + "\n") * len(rows) % tuple(rows.ravel().tolist())
    else:
        cells = ([row[c] for c in columns] if isinstance(row, dict) else row[:width] for row in rows)
        body = "".join(",".join(map(format_cell, row)) + "\n" for row in cells)
    write_text_atomic(path, f"# {provenance(cfg)}\n{','.join(columns)}\n{body}")
