"""Experiment configuration: one JSON document, schema-validated, hashable.

Unknown keys are rejected everywhere so a typo cannot silently fall back to a
default.  The effective config (after CLI overrides) is canonicalized and
hashed; every artifact a run writes embeds that hash next to the seed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from dataclasses import dataclass

import jsonschema

from . import __version__
from .errors import ConfigError

CONFIG_VERSION = 1
KINDS = ("verify", "pretrain", "distill", "sample", "eval", "sigma_sweep")
OUT_ROOT_ENV = "NOISEDISTILL_OUT_ROOT"

_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_NONNEG_NUM = {"type": "number", "minimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "kind", "seed"],
    "properties": {
        "version": {"const": CONFIG_VERSION},
        "kind": {"enum": list(KINDS)},
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": "string"},
        "plots": {"type": "boolean"},
        "linear": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dim", "rank", "sigma"],
            "properties": {
                "dim": _POS_INT,
                "rank": _POS_INT,
                "sigma": _NONNEG_NUM,
                "basis": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
                "quad_points": {"type": "integer", "minimum": 8},
                "mc_instances": _POS_INT,
                "mc_samples": {"type": "integer", "minimum": 100},
                "opt": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "step_size": _POS_NUM,
                        "max_iters": _POS_INT,
                        "grad_tol": _POS_NUM,
                        "retraction": {"enum": ["qr", "polar"]},
                        "seeds": _POS_INT,
                    },
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
                "kind": {"enum": ["ring", "two_moons", "mode_grid"]},
                "n": {"type": "integer", "minimum": 256},
                "sigma_data": _NONNEG_NUM,
            },
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "batch_size": _POS_INT,
                "lr": _POS_NUM,
                "steps": {"type": "integer", "minimum": 0},
                "sigma_hat": _NONNEG_NUM,
                "mode": {"enum": ["standard", "ambient"]},
                "hidden": {"type": "array", "items": _POS_INT, "minItems": 1},
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
                "batch_size": _POS_INT,
                "sigma_hat": _NONNEG_NUM,
                "eval_every": _POS_INT,
                "weighting": {"enum": ["constant", "sigma2", "sid-normalized"]},
                "fake_steps_per_gen": _POS_INT,
            },
        },
        "sample": {
            "type": "object",
            "additionalProperties": False,
            "required": ["source", "sampler", "n"],
            "properties": {
                "source": {"type": "string"},
                "sampler": {"enum": ["one_step", "full", "truncated"]},
                "n": {"type": "integer", "minimum": 0},
                "steps": {"type": "integer", "minimum": 2},
            },
        },
        "eval": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "teacher": {"type": "string"},
                "generator": {"type": "string"},
                "n_eval": {"type": "integer", "minimum": 100},
                "sample_steps": {"type": "integer", "minimum": 2},
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

_REQUIRED_SECTIONS = {
    "verify": ["linear"],
    "pretrain": ["dataset", "train"],
    "distill": ["dataset", "distill"],
    "sample": ["sample"],
    "eval": ["dataset", "eval"],
    "sigma_sweep": ["dataset", "train", "distill"],
}


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict

    @property
    def kind(self) -> str:
        return self.raw["kind"]

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def plots(self) -> bool:
        return bool(self.raw.get("plots", False))

    def section(self, name: str) -> dict:
        return self.raw.get(name, {})

    def out_dir(self) -> str:
        if "out_dir" in self.raw:
            return self.raw["out_dir"]
        root = os.environ.get(OUT_ROOT_ENV, "runs")
        return os.path.join(root, f"{self.kind}-{self.config_hash()}")

    def canonical(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        """Hash of the experiment content; output placement and plot toggles
        do not change what gets computed, so they are excluded."""
        content = {k: v for k, v in self.raw.items() if k not in ("out_dir", "plots")}
        canon = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def parse_config(raw: dict) -> ExperimentConfig:
    try:
        jsonschema.validate(raw, SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from exc
    for section in _REQUIRED_SECTIONS[raw["kind"]]:
        if section not in raw:
            raise ConfigError(f"kind {raw['kind']!r} requires a {section!r} section")
    return ExperimentConfig(raw=raw)


def load_config(
    path: str,
    seed_override: int | None = None,
    out_override: str | None = None,
    plots_override: bool | None = None,
    expected_kind: str | None = None,
) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    if seed_override is not None:
        raw["seed"] = int(seed_override)
    if out_override is not None:
        raw["out_dir"] = out_override
    if plots_override is not None:
        raw["plots"] = bool(plots_override)
    cfg = parse_config(raw)
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
    preceded by one comment line carrying the provenance triple."""
    lines = [f"# {provenance(cfg)}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(format_cell(row[c] if isinstance(row, dict) else row[i])
                              for i, c in enumerate(columns)))
    write_text_atomic(path, "\n".join(lines) + "\n")
