"""Experiment configs, artifact writing, SVG plots, and the CLI contract."""

import copy
import functools
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisedistill import cli, config, parallel, stiefel, svgplot
from noisedistill.cli import main
from noisedistill.config import (
    KINDS,
    MAX_ARRAY_SIZE,
    SCHEMA,
    SECTIONS,
    format_cell,
    from_section,
    load_config,
    parse_config,
    provenance,
    write_csv_atomic,
    write_text_atomic,
)
from noisedistill.diffusion import TrainConfig, ambient_sample, load_checkpoint, save_checkpoint
from noisedistill.distill import PAIRED_MODE, DistillConfig, generator_forward
from noisedistill.errors import ConfigError
from noisedistill.metrics import evaluate_sources, frechet_between_samples, make_eval_hook
from noisedistill.nets import DenseNet
from noisedistill.rng import derive
from noisedistill.schedule import NoiseSchedule
from noisedistill.svgplot import emit_scatter_svg
from noisedistill.toydata import make_dataset, sample_clean
from noisedistill.verify import run_verification


def verify_config(**overrides):
    raw = {
        "version": 1,
        "kind": "verify",
        "seed": 0,
        "linear": {
            "dim": 4,
            "rank": 1,
            "sigma": 0.3,
            "mc_instances": 2,
            "mc_samples": 20000,
            "opt": {"seeds": 3, "max_iters": 800},
        },
        "schedule": {"sigma_min": 0.02, "sigma_max": 5.0},
    }
    raw.update(overrides)
    return raw


def pipeline_config(kind, **sections):
    """A small ``kind`` config: the base sections that ``kind`` reads, then
    ``sections`` (any keys, read or not) on top.  A sweep sets ``train.sigma_hat``
    per level, so its base ``train`` section has none."""
    base = {
        "dataset": {"kind": "ring", "n": 256, "sigma_data": 0.05},
        "schedule": {"sigma_min": 0.035, "sigma_max": 1.0},
        "train": {"batch_size": 64, "lr": 1e-3, "steps": 60,
                  **({} if kind == "sigma_sweep" else {"sigma_hat": 0.05}),
                  "mode": "ambient", "hidden": [16, 16]},
    }
    raw = {"version": 1, "kind": kind, "seed": 3,
           **{name: sec for name, sec in base.items() if name in SECTIONS[kind]}}
    raw.update(sections)
    return raw


# The keywords config._conform interprets; SCHEMA may use no other.
CHECKED_KEYWORDS = {"$schema", "type", "const", "enum", "minimum", "exclusiveMinimum", "maximum",
                    "required", "properties", "additionalProperties", "items", "minItems",
                    "uniqueItems"}
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def schema_keywords(schema):
    yield from schema
    for sub in [*schema.get("properties", {}).values(), schema.get("items"),
                schema.get("additionalProperties")]:
        if isinstance(sub, dict):
            yield from schema_keywords(sub)


def schema_at(path):
    """The subschema at ``path`` (keys and list indices), {} where SCHEMA says nothing."""
    schema = SCHEMA
    for step in path:
        schema = schema.get("items", {}) if isinstance(step, int) else schema.get("properties", {}).get(step, {})
    return schema


def integer_positions(schema, value):
    """The values at ``integer`` positions of a document that ``schema`` accepts."""
    if schema.get("type") == "integer":
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from integer_positions(schema["properties"][key], item)
    elif isinstance(value, list):
        for item in value:
            yield from integer_positions(schema["items"], item)


# Values for any position: bools, integral and fractional floats, repeated
# items and one value of each JSON type.
ANY_VALUES = [None, True, False, 0, 1, 2.0, 2.5, -1.0, 1e308, "x", [], [0.5, 0.5], [1, 1.0],
              [True, 1], {}]


def schema_edges(schema):
    """Values at the edges of ``schema``: its bounds, off by one and as
    floats, and its const and enum members, the const also as a float."""
    values = []
    for key in ("minimum", "exclusiveMinimum", "maximum"):
        if key in schema:
            values += [schema[key], schema[key] - 1, schema[key] + 1, float(schema[key])]
    if "const" in schema:
        values += [schema["const"], float(schema["const"])]
    return values + schema.get("enum", [])


def document_paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from document_paths(item, (*path, key))


# A valid document of each kind, with every key its sections allow.
VALID_DOCUMENTS = {
    "verify": verify_config(linear={"dim": 4, "rank": 1, "sigma": 0.3, "mc_instances": 2, "mc_samples": 100,
                                    "opt": {"seeds": 3, "max_iters": 800}}),
    "pretrain": pipeline_config("pretrain"),
    "distill": pipeline_config("distill", distill={
        "teacher": "t.json", "method": "sid", "mode": "adjusted", "alpha": 1.2, "lr_fake": 1e-3,
        "lr_gen": 1e-3, "steps": 5, "batch_size": 8, "sigma_hat": 0.05, "eval_every": 2,
        "weighting": "sigma2"}, eval={"n_eval": 100, "sample_steps": 2}),
    "sample": pipeline_config("sample", sample={"source": "t.json", "sampler": "full", "n": 0, "steps": 2}),
    "eval": pipeline_config("eval", eval={"teacher": "t.json", "generator": "g.json", "n_eval": 100,
                                          "sample_steps": 2}),
    "sigma_sweep": pipeline_config("sigma_sweep", distill={"steps": 1}, sweep={"sigma_hats": [0.0, 0.1]}),
}


@st.composite
def config_documents(draw):
    """A valid document of any kind with one to three edits: a value replaced
    by one at the edge of its schema, a key deleted, an unknown key added, or
    a list item repeated."""
    doc = copy.deepcopy(VALID_DOCUMENTS[draw(st.sampled_from(KINDS))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(document_paths(doc))[1:]))
        *head, last = path
        owner = doc
        for step in head:
            owner = owner[step]
        target = owner[last]
        edit = draw(st.sampled_from(["replace", "delete", "unknown", "repeat"]))
        if edit == "replace" or edit == "delete" and isinstance(owner, list):
            edges = schema_edges(schema_at(path))
            pool = edges if edges and draw(st.booleans()) else ANY_VALUES
            # a copy, so a later edit of this document cannot change the pool
            owner[last] = copy.deepcopy(draw(st.sampled_from(pool)))
        elif edit == "delete":
            del owner[last]
        elif edit == "unknown" and isinstance(target, dict):
            target["unknown"] = 1
        elif edit == "repeat" and isinstance(target, list) and target:
            target.append(copy.deepcopy(target[0]))
    return doc


class TestConfigValidation:
    def test_roundtrip_identity(self):
        cfg = parse_config(verify_config())
        again = parse_config(json.loads(json.dumps(cfg.raw)))
        assert again.raw == cfg.raw
        assert again.config_hash() == cfg.config_hash()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(verify_config(extra_knob=1))
        bad = verify_config()
        bad["linear"]["bogus"] = True
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_kind_requires_sections(self):
        raw = verify_config()
        del raw["linear"]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_version_pinned(self):
        with pytest.raises(ConfigError):
            parse_config(verify_config(version=2))

    def test_seed_override_changes_hash(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(verify_config()))
        a = load_config(str(path))
        b = load_config(str(path), seed_override=9)
        assert b.seed == 9
        assert a.config_hash() != b.config_hash()

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_schema_is_valid_against_its_metaschema(self):
        jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)

    @pytest.mark.parametrize("bad", [
        verify_config(extra_knob=1),
        verify_config(version=2, seed=-1),
        verify_config(linear={"dim": 0, "rank": "one", "sigma": -1.0}),
        verify_config(schedule={"sigma_min": 0, "sigma_max": "big", "extra": 1}),
        {"kind": "verify"},
        # sibling failures at one depth in two sections
        verify_config(linear={"dim": 0, "rank": 1, "sigma": 0.3}, schedule={"sigma_min": 0}),
        pipeline_config("pretrain", train={"hidden": [0, 2.5]}),  # list-index paths
        verify_config(linear={"dim": 4, "rank": 1, "extra": 1}),  # unknown and missing key in one object
        # a fraction at an integer key below its minimum fails type and bound
        verify_config(linear={"dim": 4, "rank": 1, "sigma": 0.3, "mc_instances": 0.5}),
        verify_config(linear={"dim": 4, "rank": 1, "sigma": 1e160}),
    ])
    def test_error_message_matches_jsonschema_validate(self, bad):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(bad, SCHEMA)
        path = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
        with pytest.raises(ConfigError) as got:
            parse_config(bad)
        assert str(got.value) == f"config invalid at {path}: {expected.value.message}"

    def test_schema_uses_only_the_keywords_the_checker_interprets(self):
        assert set(schema_keywords(SCHEMA)) <= CHECKED_KEYWORDS

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(doc=config_documents())
    def test_checker_agrees_with_jsonschema(self, doc):
        """The checker rejects a document exactly when jsonschema does, and
        parse_config words the rejection as jsonschema's best match."""
        error = jsonschema.exceptions.best_match(VALIDATOR.iter_errors(doc))
        errors = []
        conformed = config._conform(SCHEMA, doc, (), errors)
        assert bool(errors) == (error is not None)
        if error is not None:
            path = "/".join(str(p) for p in error.absolute_path) or "<root>"
            with pytest.raises(ConfigError) as got:
                parse_config(doc)
            assert str(got.value) == f"config invalid at {path}: {error.message}"
        else:
            assert conformed == doc
            assert all(type(v) is int for v in integer_positions(SCHEMA, conformed))


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_cli_import_pins_blas_threads_unless_set(preset, expected):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import os, noisedistill.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == expected


def test_cli_import_does_not_load_scipy(tmp_path):
    """Neither the import nor a verify battery loads scipy: numpy is the only
    runtime dependency."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    verify = write_cfg(tmp_path, verify_config(linear={"dim": 3, "rank": 1, "sigma": 0.3, "mc_instances": 1,
                                                       "mc_samples": 100, "opt": {"seeds": 1, "max_iters": 5}}))
    code = (
        "import json, sys\n"
        "import noisedistill.cli as cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "seen = [loaded()]\n"
        f"assert cli.main(['verify', '--config', {verify!r}, '--out', {str(tmp_path / 'verify')!r}]) in (0, 1)\n"
        "seen.append(loaded())\n"
        "print(json.dumps(seen))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(result.stdout.splitlines()[-1]) == [[], []]


def test_valid_runs_do_not_load_jsonschema(tmp_path):
    """The program never loads jsonschema, not even to word a rejected config,
    and only verify builds the quadrature rule."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    pretrain = write_cfg(tmp_path, pipeline_config("pretrain", train={"steps": 2, "hidden": [4]}), "pre.json")
    rejected = write_cfg(tmp_path, pipeline_config("pretrain", train={"steps": -1}), "bad.json")
    verify = write_cfg(tmp_path, verify_config(linear={"dim": 3, "rank": 1, "sigma": 0.3, "mc_instances": 1,
                                                       "mc_samples": 100, "opt": {"seeds": 1, "max_iters": 5}}),
                       "verify.json")
    code = (
        "import json, sys\n"
        "import noisedistill.cli as cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'\n"
        "                  or m.startswith('numpy.polynomial'))\n"
        "seen = [loaded()]\n"
        f"assert cli.main(['pretrain', '--config', {pretrain!r}, '--out', {str(tmp_path / 'pre')!r}]) == 0\n"
        "seen.append(loaded())\n"
        f"assert cli.main(['verify', '--config', {verify!r}, '--out', {str(tmp_path / 'verify')!r}]) in (0, 1)\n"
        "seen.append([m for m in loaded() if m.split('.')[0] == 'jsonschema'])\n"
        f"assert cli.main(['pretrain', '--config', {rejected!r}, '--out', {str(tmp_path / 'bad')!r}]) == 2\n"
        "seen.append([m for m in loaded() if m.split('.')[0] == 'jsonschema'])\n"
        "print(json.dumps(seen))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(result.stdout.splitlines()[-1]) == [[], [], [], []]


def test_config_documents_share_no_value_with_the_pool():
    """Each draw edits its own copy of a pool value, so no draw sees the edits
    of an earlier one: no list or dict of a document is one of ANY_VALUES, and
    500 draws leave them as they were."""
    pristine = copy.deepcopy(ANY_VALUES)
    pool = {id(value) for value in ANY_VALUES if isinstance(value, (list, dict))}
    shared = []

    def containers(value):
        if isinstance(value, (list, dict)):
            yield value
            for item in value.values() if isinstance(value, dict) else value:
                yield from containers(item)

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(doc=config_documents())
    def draw(doc):
        shared.extend(value for value in containers(doc) if id(value) in pool)

    draw()
    assert not shared and ANY_VALUES == pristine


# Floats whose repr is easy to get wrong, as an (n, 2) array.
EDGE_FLOATS = np.array([-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 1e-5,
                        0.1 + 0.2, 1.7976931348623157e308, 1.0]).reshape(5, 2)


class TestAtomicWrites:
    def test_no_partial_artifact_on_interrupted_rename(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("original\n")
        real_replace = os.replace

        def exploding_replace(src, dst):
            raise RuntimeError("simulated kill point")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(RuntimeError):
            write_text_atomic(str(target), "new content\n")
        monkeypatch.setattr(os, "replace", real_replace)
        assert target.read_text() == "original\n"  # old artifact intact

    def test_csv_dialect_and_header(self, tmp_path):
        cfg = parse_config(verify_config())
        path = tmp_path / "rows.csv"
        write_csv_atomic(str(path), cfg, ["a", "b"], [[1, 0.5], {"a": 2, "b": 1.25}])
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == f"# {provenance(cfg)}"
        assert provenance(cfg) == f"config_hash={cfg.config_hash()} seed=0 version=0.1.0"
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.5"
        assert lines[3] == "2,1.25"
        assert "\r" not in text

    @pytest.mark.parametrize("columns, rows", [
        (["a", "b"], [{"b": 0.1, "a": 3, "extra": 9}, {"a": "x y", "b": np.float64(-0.0)}]),
        (["step", "loss"], list(enumerate([0.5, np.float64(1e-300), float("inf")]))),
        (["source", "n", "ok"], [["noisy", 16384, True], ("one_step", np.int64(7), False, "dropped")]),
        (["x", "y"], np.random.default_rng(0).standard_normal((16384, 2)).tolist()),
        (["x", "y"], np.random.default_rng(0).standard_normal((16384, 2))),
        (["x", "y"], EDGE_FLOATS.tolist()),
        (["x", "y"], EDGE_FLOATS),
        (["x", "y"], np.empty((0, 2))),
    ])
    def test_csv_rows_match_the_per_cell_line_builder(self, tmp_path, columns, rows):
        """The cells of a row are chosen once (a dict's values in column order, a
        sequence's first ``len(columns)`` items, an (n, len(columns)) float64
        array in one formatting pass); the bytes are those of the builder that
        looked up every cell on its own."""
        def per_cell_line(row):
            return ",".join(format_cell(row[c] if isinstance(row, dict) else row[i])
                            for i, c in enumerate(columns))

        cfg = parse_config(verify_config())
        path = tmp_path / "rows.csv"
        write_csv_atomic(str(path), cfg, columns, rows)
        expected = [f"# {provenance(cfg)}", ",".join(columns), *map(per_cell_line, rows)]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_numpy_float_cell_is_plain_repr(self):
        value = np.float64(2.7755575615628914e-07)
        assert format_cell(value) == "2.7755575615628914e-07"
        assert format_cell(np.float64(0.5)) == repr(0.5)
        assert format_cell(3) == "3"
        assert format_cell(True) == "True"


class TestFromSection:
    TRAIN_FIXED = {"schedule": NoiseSchedule(), "seed": 3}
    DISTILL_FIXED = {"mode": "adjusted", "sigma_hat": 0.1, "schedule": NoiseSchedule(), "seed": 3}

    def test_empty_section_gives_dataclass_defaults(self):
        assert from_section(TrainConfig, {}, **self.TRAIN_FIXED) == TrainConfig(**self.TRAIN_FIXED)
        assert from_section(DistillConfig, {}, **self.DISTILL_FIXED) == DistillConfig(**self.DISTILL_FIXED)
        assert from_section(NoiseSchedule, {}) == NoiseSchedule()

    def test_section_key_overrides_default(self):
        tcfg = from_section(TrainConfig, {"lr": 3e-3, "hidden": [8], "mode": "standard"},
                            **self.TRAIN_FIXED)
        assert tcfg.lr == 3e-3
        assert tcfg.steps == declared_default(TrainConfig, "steps")
        dcfg = from_section(DistillConfig, {"steps": 7, "teacher": "t.json"}, **self.DISTILL_FIXED)
        assert dcfg.steps == 7
        assert from_section(NoiseSchedule, {"sigma_max": 2.0}) == NoiseSchedule(0.02, 2.0)

    def test_fixed_value_overrides_section(self):
        dcfg = from_section(DistillConfig, {"mode": "standard", "sigma_hat": 0.1},
                            mode="adjusted", schedule=NoiseSchedule(), seed=4)
        assert (dcfg.mode, dcfg.sigma_hat, dcfg.seed) == ("adjusted", 0.1, 4)

    def test_verify_runs_at_the_optimizer_default_tolerance(self):
        max_iters = inspect.signature(run_verification).parameters["max_iters"].default
        assert (stiefel.STEP_SIZE, stiefel.GRAD_TOL, max_iters) == (0.2, 1e-7, 2000)


class TestScatterSvg:
    SVG_META = "config_hash=000000000000 seed=0 version=0.1.0"

    def test_golden_bytes_for_tiny_input(self, tmp_path):
        path1 = tmp_path / "a.svg"
        path2 = tmp_path / "b.svg"
        pts = np.array([[0.0, 0.0], [1.0, -1.0]])
        emit_scatter_svg([("data", pts)], str(path1), self.SVG_META)
        emit_scatter_svg([("data", pts)], str(path2), self.SVG_META)
        assert path1.read_bytes() == path2.read_bytes()
        body = path1.read_text()
        assert body.startswith('<?xml version="1.0"')
        assert "<svg" in body and "</svg>" in body

    def test_empty_input_still_valid(self, tmp_path):
        path = tmp_path / "empty.svg"
        emit_scatter_svg([], str(path), self.SVG_META)
        body = path.read_text()
        assert body.startswith('<?xml version="1.0"')
        assert "</svg>" in body

    def test_many_points_under_size_budget(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "big.svg"
        emit_scatter_svg([("cloud", rng.standard_normal((10000, 2)))], str(path), self.SVG_META)
        assert path.stat().st_size < 2_000_000

    @pytest.mark.parametrize("point", [(0.25, 0.0), (0.0, 0.25), (-0.25, 0.0), (0.0, -0.25)])
    def test_ring_point_lands_well_away_from_the_centre(self, point, tmp_path):
        """A ring point (radius 0.25) is drawn at least a quarter of the way from
        the centre of the plot to its edge, so the toy data fill the panel."""
        path = tmp_path / "ring.svg"
        emit_scatter_svg([("ring", np.array([point]))], str(path), self.SVG_META)
        cx, cy = map(float, re.search(r'cx="([-\d.]+)" cy="([-\d.]+)"', path.read_text()).groups())
        half_span = (svgplot.CANVAS - 2 * svgplot.MARGIN) / 2
        offset = np.hypot(cx - svgplot.CANVAS / 2, cy - svgplot.CANVAS / 2)
        assert half_span / 4 <= offset <= half_span

    def test_too_many_sets_rejected(self, tmp_path):
        sets = [(f"s{i}", np.zeros((1, 2))) for i in range(6)]
        from noisedistill.errors import PreconditionError

        with pytest.raises(PreconditionError):
            emit_scatter_svg(sets, str(tmp_path / "x.svg"), self.SVG_META)


def write_cfg(tmp_path, raw, name="cfg.json"):
    """Write a config dict as JSON, or a config text as it is."""
    path = tmp_path / name
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    return str(path)


class TestCliVerify:
    def test_small_verify_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, verify_config())
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        report = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert report[1].split(",")[0] == "check"
        assert all(",True," in line or line.endswith("True,") or ",True" in line
                   for line in report[2:])

    def test_large_sigma_verify_passes(self, tmp_path, capsys):
        raw = verify_config()
        raw["linear"]["sigma"] = 3.5
        cfg = write_cfg(tmp_path, raw)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_wide_schedule_verify_passes(self, tmp_path, capsys):
        # the profile is flat near u* on this schedule: only the sign of its slope resolves u* to 1e-6
        raw = verify_config(schedule={"sigma_min": 0.001, "sigma_max": 80.0})
        raw["linear"].update(dim=8, rank=2, sigma=0.5)
        cfg = write_cfg(tmp_path, raw)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_opt_keys_reach_the_battery(self, tmp_path, monkeypatch):
        calls = []

        @functools.wraps(cli.run_verification)  # from_section reads the wrapped signature
        def recording(**kw):
            calls.append(kw)
            return []

        monkeypatch.setattr(cli, "run_verification", recording)
        cfg = write_cfg(tmp_path, verify_config())
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert (calls[0]["seeds"], calls[0]["max_iters"], calls[0]["dim"]) == (3, 800, 4)

    def test_wrong_kind_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, verify_config(kind="pretrain"))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


class TestCliPipeline:
    def test_pretrain_then_sample_then_eval(self, tmp_path):
        out = tmp_path / "run"
        cfg_pre = write_cfg(tmp_path, pipeline_config("pretrain"), "pre.json")
        assert main(["pretrain", "--config", cfg_pre, "--out", str(out)]) == 0
        teacher = out / "teacher.json"
        assert teacher.exists()
        loss_lines = (out / "pretrain_loss.csv").read_text().splitlines()
        assert loss_lines[1] == "step,loss"
        assert len(loss_lines) == 2 + 60

        cfg_sample = write_cfg(
            tmp_path,
            pipeline_config("sample", sample={"source": str(teacher), "sampler": "truncated",
                                              "n": 300, "steps": 16}),
            "sample.json",
        )
        assert main(["sample", "--config", cfg_sample, "--out", str(out / "samples")]) == 0
        sample_lines = (out / "samples" / "samples.csv").read_text().splitlines()
        assert sample_lines[1] == "x,y"
        assert len(sample_lines) == 2 + 300

        cfg_eval = write_cfg(
            tmp_path,
            pipeline_config("eval", eval={"teacher": str(teacher), "n_eval": 512,
                                          "sample_steps": 16}),
            "eval.json",
        )
        assert main(["eval", "--config", cfg_eval, "--out", str(out / "eval")]) == 0
        eval_lines = (out / "eval" / "eval.csv").read_text().splitlines()
        sources = [line.split(",")[0] for line in eval_lines[2:]]
        assert sources == ["raw_noisy", "teacher_full", "teacher_truncated"]

    @pytest.mark.parametrize("sampler", ["full", "truncated", "one_step"])
    def test_sample_n_zero_writes_header_only(self, sampler, tmp_path):
        out = tmp_path / "run"
        cfg_pre = write_cfg(tmp_path, pipeline_config("pretrain"), "pre.json")
        main(["pretrain", "--config", cfg_pre, "--out", str(out)])
        cfg_sample = write_cfg(
            tmp_path,
            pipeline_config("sample", sample={"source": str(out / "teacher.json"),
                                              "sampler": sampler, "n": 0}),
            "s0.json",
        )
        assert main(["sample", "--config", cfg_sample, "--out", str(out / "s0")]) == 0
        lines = (out / "s0" / "samples.csv").read_text().splitlines()
        assert len(lines) == 2  # header comment + column header

    def test_missing_checkpoint_exits_2(self, tmp_path):
        cfg_sample = write_cfg(
            tmp_path,
            pipeline_config("sample", sample={"source": str(tmp_path / "nope.json"),
                                              "sampler": "one_step", "n": 5}),
            "missing.json",
        )
        assert main(["sample", "--config", cfg_sample, "--out", str(tmp_path / "out")]) == 2

    def test_distill_runs_and_writes_metrics(self, tmp_path):
        out = tmp_path / "run"
        cfg_pre = write_cfg(tmp_path, pipeline_config("pretrain"), "pre.json")
        main(["pretrain", "--config", cfg_pre, "--out", str(out)])
        cfg_distill = write_cfg(
            tmp_path,
            pipeline_config(
                "distill",
                distill={"teacher": str(out / "teacher.json"), "method": "sid",
                         "steps": 30, "batch_size": 32, "eval_every": 10,
                         "sigma_hat": 0.05},
                eval={"n_eval": 512},
            ),
            "distill.json",
        )
        assert main(["distill", "--config", cfg_distill, "--out", str(out / "d")]) == 0
        metrics = (out / "d" / "metrics.csv").read_text().splitlines()
        assert metrics[1] == "step,frechet_clean,proximal_fid,fake_loss,gen_grad_norm"
        assert (out / "d" / "generator.json").exists()
        assert (out / "d" / "selection.csv").exists()
        snapshots = list((out / "d" / "snapshots").glob("step_*.csv"))
        assert snapshots

    def test_rerun_identical_config_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write_cfg(tmp_path, pipeline_config("pretrain"), "pre.json")
        assert main(["pretrain", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["pretrain", "--config", cfg, "--out", str(out_b)]) == 0
        a = (out_a / "pretrain_loss.csv").read_bytes()
        b = (out_b / "pretrain_loss.csv").read_bytes()
        assert a == b
        assert (out_a / "dataset.csv").read_bytes() == (out_b / "dataset.csv").read_bytes()

    def test_plots_flag_writes_svg(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, pipeline_config("pretrain"), "pre.json")
        assert main(["pretrain", "--config", cfg, "--out", str(out), "--plots"]) == 0
        assert (out / "dataset.svg").exists()


def pretrained_teacher(tmp_path, mode="ambient"):
    out = tmp_path / f"teacher_{mode}"
    raw = pipeline_config("pretrain", train={"steps": 2, "mode": mode, "hidden": [4]})
    assert main(["pretrain", "--config", write_cfg(tmp_path, raw, f"pre_{mode}.json"),
                 "--out", str(out)]) == 0
    return out / "teacher.json"


BAD_CHECKPOINTS = {
    "foreign_checkpoint": lambda text, payload: json.dumps({"format": "other-tool"}),
    "truncated_checkpoint": lambda text, payload: text[: len(text) // 2],
    "checkpoint_without_layer_sizes": lambda text, payload: json.dumps(
        {k: v for k, v in payload.items() if k != "layer_sizes"}),
    "checkpoint_without_weights": lambda text, payload: json.dumps(
        {k: v for k, v in payload.items() if k != "weights"}),
    "checkpoint_version_1": lambda text, payload: json.dumps(
        {**{k: payload[k] for k in ("format", "mode", "layer_sizes", "weights", "biases")},
         "version": 1, "step": 2,
         "train_config": {"batch_size": 64, "lr": 1e-3, "steps": 2, "sigma_min": 0.035,
                          "sigma_max": 1.0, "sigma_hat": 0.05, "seed": 3}}),
    "checkpoint_unknown_version": lambda text, payload: json.dumps({**payload, "version": 3}),
    # json.dumps cannot write 1e400, the literal that parses to inf
    "layer_size_overflows": lambda text, payload: json.dumps(
        {**payload, "layer_sizes": "SIZES"}).replace('"SIZES"', "[3, 1e400, 2]"),
    "layer_size_not_integer": lambda text, payload: json.dumps(
        {**payload, "layer_sizes": [3, 4.5, 2]}),
    "sigma_hat_past_float_range": lambda text, payload: json.dumps({**payload, "sigma_hat": 10**400}),
    "infinite_sigma_max": lambda text, payload: json.dumps(
        {**payload, "schedule": {**payload["schedule"], "sigma_max": float("inf")}}),
}


# Keys that once set the Stiefel descent, each with the value every run used.
REMOVED_OPT_KEYS = {"opt_step_size_key": ("step_size", 0.2), "opt_grad_tol_key": ("grad_tol", 1e-7),
                    "opt_retraction_key": ("retraction", "qr")}
REMOVED_KEYS = [*REMOVED_OPT_KEYS, "basis_key", "fake_steps_per_gen_key", "out_dir_key", "plots_key"]
# (command, section, key, value): keys the schema allows that the command would not read.
UNREAD_KEYS = {"distill_eval_teacher": ("distill", "eval", "teacher", "runs/teacher.json"),
               "distill_eval_generator": ("distill", "eval", "generator", "no/such/file.json"),
               "sweep_eval_teacher": ("sigma-sweep", "eval", "teacher", "runs/teacher.json"),
               "sweep_eval_generator": ("sigma-sweep", "eval", "generator", "runs/generator.json"),
               "sweep_train_sigma_hat": ("sigma-sweep", "train", "sigma_hat", 0.3),
               "sweep_distill_sigma_hat": ("sigma-sweep", "distill", "sigma_hat", 0.7),
               "one_step_sample_steps": ("sample", "sample", "steps", 99)}
# A section the command does not read: (command, section, its content).
UNREAD_SECTIONS = {"sample_schedule": ("sample", "schedule", {"sigma_max": 2.0}),
                   "distill_train": ("distill", "train", {"steps": 5}),
                   "pretrain_sweep": ("pretrain", "sweep", {"sigma_hats": [0.1]}),
                   "eval_linear": ("eval", "linear", {"dim": 4, "rank": 1, "sigma": 0.1})}
NON_FINITE_LITERALS = {"lr_nan": ("train", "lr", "NaN"),
                       "sigma_max_infinity": ("schedule", "sigma_max", "Infinity"),
                       "lr_overflows_to_inf": ("train", "lr", "1e400")}


# The whole message of the bad-input cases whose wording is part of the contract.
BAD_INPUT_MESSAGES = {"distill_without_teacher": "distill.teacher (checkpoint path) is required",
                      "basis_key": "config invalid at linear: Additional properties are not allowed "
                                   "('basis' was unexpected)"}


def bad_input(case, tmp_path):
    """(command, config) of one bad-input case; the config is a dict, or a
    JSON text where it holds a literal ``json.dumps`` cannot write."""
    teacher = pretrained_teacher(tmp_path)
    if case in BAD_CHECKPOINTS:
        text = teacher.read_text()
        path = tmp_path / "bad_checkpoint.json"
        path.write_text(BAD_CHECKPOINTS[case](text, json.loads(text)))
        return "sample", pipeline_config(
            "sample", sample={"source": str(path), "sampler": "one_step", "n": 5})
    if case in NON_FINITE_LITERALS:
        section, key, literal = NON_FINITE_LITERALS[case]
        raw = pipeline_config("pretrain")
        raw[section][key] = "PLACEHOLDER"
        return "pretrain", json.dumps(raw).replace('"PLACEHOLDER"', literal)
    if case == "sigma_min_above_sigma_max":
        return "pretrain", pipeline_config("pretrain", schedule={"sigma_min": 2.0, "sigma_max": 1.0})
    if case == "quad_points_key":
        raw = verify_config()
        raw["linear"]["quad_points"] = 64
        return "verify", raw
    if case in REMOVED_OPT_KEYS:
        raw = verify_config()
        raw["linear"]["opt"].update([REMOVED_OPT_KEYS[case]])
        return "verify", raw
    if case == "basis_key":
        raw = verify_config()
        raw["linear"]["basis"] = [[1.0], [0.0], [0.0], [0.0]]  # a valid frame for dim 4, rank 1
        return "verify", raw
    if case == "huge_linear_sigma":
        raw = verify_config()
        raw["linear"]["sigma"] = 1e160
        return "verify", raw
    if case == "distill_without_teacher":
        return "distill", pipeline_config("distill", distill={"steps": 1})
    if case == "fake_steps_per_gen_key":
        return "distill", pipeline_config(
            "distill", distill={"teacher": str(teacher), "steps": 1, "fake_steps_per_gen": 1})
    if case == "out_dir_key":
        return "pretrain", pipeline_config("pretrain", out_dir=str(tmp_path / "elsewhere"))
    if case == "plots_key":
        return "pretrain", pipeline_config("pretrain", plots=True)
    if case == "rank_not_below_dim":
        raw = verify_config()
        raw["linear"].update(dim=3, rank=3)
        return "verify", raw
    if case == "duplicate_sigma_hats":
        return "sigma-sweep", pipeline_config("sigma_sweep", distill={"steps": 1},
                                              sweep={"sigma_hats": [0.1, 0.1]})
    if case == "sigma_hat_at_sigma_max":
        return "pretrain", pipeline_config("pretrain", train={
            "batch_size": 64, "lr": 1e-3, "steps": 30, "sigma_hat": 1.5, "hidden": [16, 16]})
    if case == "distill_sigma_hat_at_sigma_max":
        return "distill", pipeline_config("distill", distill={"teacher": str(teacher), "steps": 3,
                                                              "sigma_hat": 1.5})
    if case == "sweep_level_at_sigma_max":
        return "sigma-sweep", pipeline_config("sigma_sweep", distill={"steps": 1},
                                              sweep={"sigma_hats": [0.0, 1.0]})
    if case == "sweep_with_teacher":
        return "sigma-sweep", pipeline_config("sigma_sweep",
                                              distill={"teacher": str(teacher), "steps": 1})
    if case == "sweep_mode_unpaired_with_teacher":  # every level is checked before any writes
        raw = pipeline_config("sigma_sweep", distill={"mode": "adjusted", "steps": 1},
                              sweep={"sigma_hats": [0.0, 0.05]})
        raw["train"]["mode"] = "standard"
        return "sigma-sweep", raw
    if case in UNREAD_KEYS:
        command, section, key, value = UNREAD_KEYS[case]
        sections = {"distill": {"distill": {"teacher": str(teacher), "steps": 1}},
                    "sigma-sweep": {"distill": {"steps": 1}},
                    "sample": {"sample": {"source": str(teacher), "sampler": "one_step", "n": 5}}}
        raw = pipeline_config(command.replace("-", "_"), **sections[command])
        raw.setdefault(section, {})[key] = value
        return command, raw
    assert case == "distill_mode_unpaired_with_teacher"
    return "distill", pipeline_config(
        "distill", distill={"teacher": str(teacher), "mode": "standard", "steps": 1})


def record_distill_modes(monkeypatch):
    """The list that every later ``cli.run_distillation`` call appends its mode to."""
    modes = []
    real = cli.run_distillation

    def recording(teacher_net, dcfg, **kw):
        modes.append(dcfg.mode)
        return real(teacher_net, dcfg, **kw)

    monkeypatch.setattr(cli, "run_distillation", recording)
    return modes


class TestCliBadInput:
    @pytest.mark.parametrize("case", [*BAD_CHECKPOINTS, "sigma_min_above_sigma_max",
                                      "quad_points_key", *REMOVED_KEYS, "huge_linear_sigma",
                                      "rank_not_below_dim",
                                      "duplicate_sigma_hats", "sweep_with_teacher", *UNREAD_KEYS,
                                      "sigma_hat_at_sigma_max", "distill_sigma_hat_at_sigma_max",
                                      "sweep_level_at_sigma_max",
                                      "distill_mode_unpaired_with_teacher", "distill_without_teacher",
                                      "sweep_mode_unpaired_with_teacher",
                                      *NON_FINITE_LITERALS])
    def test_exits_2_without_traceback(self, case, tmp_path, capsys):
        command, raw = bad_input(case, tmp_path)
        cfg = write_cfg(tmp_path, raw, "bad.json")
        capsys.readouterr()
        # an uncaught exception would fail the test here, before the exit code
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        if case in BAD_INPUT_MESSAGES:
            assert err == f"config error: {BAD_INPUT_MESSAGES[case]}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", UNREAD_SECTIONS)
    def test_unread_section_exits_2(self, case, tmp_path, capsys):
        command, section, content = UNREAD_SECTIONS[case]
        teacher = str(pretrained_teacher(tmp_path))
        read = {"sample": {"sample": {"source": teacher, "sampler": "full", "n": 5, "steps": 2}},
                "distill": {"distill": {"teacher": teacher, "steps": 1}},
                "pretrain": {},
                "eval": {"eval": {"teacher": teacher, "n_eval": 256}}}
        raw = pipeline_config(command, **read[command], **{section: content})
        cfg = write_cfg(tmp_path, raw, "unread.json")
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: not read by a {command!r} config, so rejected: {section}\n"
        assert not (tmp_path / "out").exists()

    def test_standard_teacher_distills_in_standard_mode(self, tmp_path, monkeypatch):
        teacher = pretrained_teacher(tmp_path, mode="standard")
        modes = record_distill_modes(monkeypatch)
        raw = pipeline_config("distill", distill={"teacher": str(teacher), "steps": 2,
                                                  "batch_size": 8, "eval_every": 2},
                              eval={"n_eval": 256})
        cfg = write_cfg(tmp_path, raw, "distill.json")
        assert main(["distill", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert modes == ["standard"]

    def test_standard_pretraining_takes_sigma_hat_above_sigma_max(self, tmp_path):
        """Standard pretraining trains at sigma_hat 0, so no level is clipped."""
        raw = pipeline_config("pretrain", train={"steps": 20, "sigma_hat": 1.5, "mode": "standard",
                                                 "hidden": [16, 16]})
        assert main(["pretrain", "--config", write_cfg(tmp_path, raw), "--out", str(tmp_path / "out")]) == 0

    def test_standard_mode_trains_at_sigma_hat_above_sigma_max(self, tmp_path):
        """Only the adjusted fake update clips its noise levels to sigma_hat."""
        teacher = pretrained_teacher(tmp_path, mode="standard")
        raw = pipeline_config("distill", distill={"teacher": str(teacher), "steps": 3, "batch_size": 8,
                                                  "eval_every": 1, "sigma_hat": 1.5},
                              eval={"n_eval": 256})
        out = tmp_path / "out"
        assert main(["distill", "--config", write_cfg(tmp_path, raw, "distill.json"),
                     "--out", str(out)]) == 0
        header, *rows = csv_body(out / "metrics.csv")
        column = header.split(",").index("gen_grad_norm")
        norms = [float(row.split(",")[column]) for row in rows]
        assert len(norms) == 4 and all(norm > 0 for norm in norms[1:])  # step 0 has no update yet


def schema_leaves(schema, prefix=""):
    """(dotted key, schema) of every leaf key below ``schema``."""
    for key, sub in schema["properties"].items():
        if sub.get("type") == "object":
            yield from schema_leaves(sub, f"{prefix}{key}.")
        else:
            yield prefix + key, sub


# The keys whose value sizes an array ("[]": each item of the list).
ARRAY_SIZE_KEYS = {"dataset.n", "train.batch_size", "train.hidden[]", "distill.batch_size", "sample.n",
                   "sample.steps", "eval.n_eval", "eval.sample_steps", "linear.dim", "linear.rank",
                   "linear.mc_samples"}
WRONG_TYPES = {"null": None, "boolean": True, "integer": 1, "number": 0.5, "string": "x", "array": [],
               "object": {}}


def fuzz_values(key, schema):
    """(label, value) of every fuzz value at one leaf key: each wrong JSON
    type, below the minimum and at the exclusive one, 2.0 and 2.5 at
    integers, 10**30 at array sizes, +-1e308 at numbers, and for a list the
    same values as its one item."""
    kind = schema.get("type")
    right = {"integer": {"integer"}, "number": {"integer", "number"}}.get(kind, {kind})
    values = [(f"type_{name}", value) for name, value in WRONG_TYPES.items() if name not in right]
    if "minimum" in schema:
        values.append(("below_minimum", schema["minimum"] - 1))
    if "exclusiveMinimum" in schema:
        values.append(("at_exclusive_minimum", schema["exclusiveMinimum"]))
    if kind == "integer":
        values += [("2.0", 2.0), ("2.5", 2.5)]
    if kind == "number":
        values += [("1e308", 1e308), ("-1e308", -1e308)]
    if key in ARRAY_SIZE_KEYS:
        values.append(("1e30", 10**30))
    if kind == "array":
        values.append(("empty", []))
        values += [(f"[{label}]", [value]) for label, value in fuzz_values(f"{key}[]", schema["items"])]
        if schema.get("uniqueItems"):
            values.append(("repeated", [0.5, 0.5]))
    return values


# Leaf keys the schema no longer holds, (command, dotted key): former
# schema. Each fuzz value of the former schema must still meet the contract,
# now as an unknown key (exit 2, nothing written).
FORMER_LEAVES = {("verify", "linear.basis"):
                 {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}}

FUZZ_CASES = [pytest.param(kind, key, value, id=f"{kind}-{key}-{label}")
              for kind, key, schema in [
                  *((kind, key, schema) for kind in KINDS for key, schema in schema_leaves(SCHEMA)
                    if key.split(".")[0] in (*SCHEMA["required"], *SECTIONS[kind])),
                  *((kind, key, schema) for (kind, key), schema in FORMER_LEAVES.items())]
              for label, value in fuzz_values(key, schema)]


@pytest.fixture(scope="module")
def fuzz_teacher(tmp_path_factory):
    return str(pretrained_teacher(tmp_path_factory.mktemp("fuzz")))


def tiny_config(kind, teacher):
    """A valid ``kind`` config that runs in well under a second."""
    train = {"batch_size": 8, "steps": 2, "hidden": [4]}
    evaluation = {"n_eval": 100, "sample_steps": 2}
    return {
        "verify": verify_config(linear={"dim": 3, "rank": 1, "sigma": 0.3, "mc_instances": 1,
                                        "mc_samples": 100, "opt": {"seeds": 1, "max_iters": 5}}),
        "pretrain": pipeline_config("pretrain", train=train),
        "distill": pipeline_config("distill", distill={"teacher": teacher, "steps": 1, "batch_size": 8},
                                   eval=evaluation),
        "sample": pipeline_config("sample", sample={"source": teacher, "sampler": "full", "n": 5,
                                                    "steps": 2}),
        "eval": pipeline_config("eval", eval={"teacher": teacher, **evaluation}),
        "sigma_sweep": pipeline_config("sigma_sweep", train=train, eval=evaluation,
                                       distill={"steps": 1, "batch_size": 8}, sweep={"sigma_hats": [0.05]}),
    }[kind]


def set_key(raw, key, value):
    *sections, last = key.split(".")
    for section in sections:
        raw = raw.setdefault(section, {})
    raw[last] = value


class TestCliFuzz:
    @pytest.mark.parametrize("kind,key,value", FUZZ_CASES)
    def test_exit_code_contract(self, kind, key, value, fuzz_teacher, tmp_path):
        """One leaf key of a tiny valid config set to one fuzz value: the
        command exits with a contract code, exit 2 on a config that
        load_config rejects, and an exit 2 writes nothing."""
        raw = tiny_config(kind, fuzz_teacher)
        set_key(raw, key, value)
        cfg, out = write_cfg(tmp_path, raw), tmp_path / "out"
        # an uncaught exception would fail the test here, before the exit code
        code = main([kind.replace("_", "-"), "--config", cfg, "--out", str(out)])
        assert code in ((0, 1, 2, 3) if kind == "verify" else (0, 2, 3))
        try:
            load_config(cfg, expected_kind=kind)
        except ConfigError:
            assert code == 2
        else:
            assert (kind, key) not in FORMER_LEAVES
        assert code != 2 or not out.exists()

    @pytest.mark.parametrize("kind,key,value", [
        ("pretrain", "dataset.n", 300.0), ("pretrain", "train.batch_size", 64.0),
        ("pretrain", "train.hidden", [8.0]), ("pretrain", "train.steps", 5.0), ("pretrain", "seed", 1.0),
        ("verify", "linear.dim", 8.0), ("verify", "linear.mc_samples", 1000.0),
        ("verify", "linear.opt.seeds", 1.0)])
    def test_integral_float_runs_as_its_integer(self, kind, key, value, fuzz_teacher, tmp_path):
        """Artifacts, provenance line included, are those of the int spelling."""
        runs = []
        for name, spelling in (("float", value), ("int", json.loads(json.dumps(value).replace(".0", "")))):
            raw = tiny_config(kind, fuzz_teacher)
            set_key(raw, key, spelling)
            out = tmp_path / name
            code = main([kind, "--config", write_cfg(tmp_path, raw, f"{name}.json"), "--out", str(out)])
            runs.append((code, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert runs[0][0] in (0, 1) and runs[0] == runs[1]

    def test_array_past_the_address_space_exits_2(self, tmp_path, capsys):
        """Widths within MAX_ARRAY_SIZE whose weight matrix (256 TiB) no
        machine can map: the first layer takes 3 MiB, then allocation fails."""
        raw = pipeline_config("pretrain", train={"steps": 1, "hidden": [2**17, MAX_ARRAY_SIZE]})
        capsys.readouterr()
        assert main(["pretrain", "--config", write_cfg(tmp_path, raw), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: Unable to allocate 256. TiB")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


def save_net(path, layer_sizes):
    """A freshly initialised net of ``layer_sizes`` saved as a valid checkpoint."""
    net = DenseNet.initialized(list(layer_sizes), derive(0, 1))
    save_checkpoint(str(path), net, "ambient", 0.05, NoiseSchedule(0.035, 1.0), "test")
    return str(path)


# Every command that reads a checkpoint, as (command, config sections for the checkpoint path).
CHECKPOINT_READERS = {
    "sample_one_step": ("sample", lambda c: {"sample": {"source": c, "sampler": "one_step", "n": 5}}),
    "sample_full": ("sample", lambda c: {"sample": {"source": c, "sampler": "full", "n": 5, "steps": 2}}),
    "eval_teacher": ("eval", lambda c: {"eval": {"teacher": c, "n_eval": 100, "sample_steps": 2}}),
    "eval_generator": ("eval", lambda c: {"eval": {"generator": c, "n_eval": 100}}),
    "distill_teacher": ("distill", lambda c: {"distill": {"teacher": c, "steps": 1, "batch_size": 8},
                                              "eval": {"n_eval": 100}}),
}
NOT_2D_NETS = {"non_square": [3, 8, 3], "three_d": [4, 8, 3], "three_d_square": [4, 8, 4]}


class TestCheckpointShapes:
    @pytest.mark.parametrize("reader", CHECKPOINT_READERS)
    @pytest.mark.parametrize("net", NOT_2D_NETS)
    def test_net_not_on_2d_points_exits_2(self, net, reader, tmp_path, capsys):
        command, sections = CHECKPOINT_READERS[reader]
        ckpt = save_net(tmp_path / "net.json", NOT_2D_NETS[net])
        cfg = write_cfg(tmp_path, pipeline_config(command, **sections(ckpt)))
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "2-D" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_checkpoint_exits_0_to_3(self, data):
        """Any one field of a tiny valid checkpoint replaced or deleted: every
        reader exits with a contract code, and an exit 2 writes nothing."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            payload = json.loads(pathlib.Path(save_net(tmp / "valid.json", [3, 4, 2])).read_text())
            path = data.draw(st.sampled_from(CHECKPOINT_FIELDS), label="field")
            owner = payload
            for step in path[:-1]:
                owner = owner[step]
            if data.draw(st.booleans(), label="delete"):
                del owner[path[-1]]
            else:
                owner[path[-1]] = data.draw(JSON_VALUES, label="value")
            ckpt = tmp / "mutated.json"
            ckpt.write_text(json.dumps(payload))
            command, sections = CHECKPOINT_READERS[data.draw(st.sampled_from(sorted(CHECKPOINT_READERS)),
                                                             label="reader")]
            cfg = write_cfg(tmp, pipeline_config(command, **sections(str(ckpt))))
            # an uncaught exception would fail the test here, before the exit code
            code = main([command, "--config", cfg, "--out", str(tmp / "out")])
            assert code in (0, 1, 2, 3)
            if code == 2:
                assert not (tmp / "out").exists()


# Paths into the [3, 4, 2] checkpoint that the fuzz replaces or deletes.
CHECKPOINT_FIELDS = [("format",), ("version",), ("mode",), ("sigma_hat",), ("schedule",),
                     ("schedule", "sigma_min"), ("schedule", "sigma_max"), ("layer_sizes",),
                     ("layer_sizes", 0), ("layer_sizes", 1), ("layer_sizes", 2), ("weights",),
                     ("weights", 0), ("weights", 1, 0), ("weights", 0, 2, 1), ("biases",),
                     ("biases", 0), ("biases", 1, 1), ("provenance",)]
# Half the values are edge cases a random draw seldom makes: integers past the
# float range, fractional sizes, huge finite floats, non-finite floats.
JSON_VALUES = st.sampled_from([10**400, -(10**400), 4.5, 1e308, -1e308, 0, -1, True, float("inf"),
                               float("nan"), "", [], {}]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children,
                                                                       max_size=3),
    max_leaves=8,
)


def blown_up_checkpoint(tmp_path):
    """A loadable checkpoint whose weights are all finite but scaled by 1e110."""
    path = pretrained_teacher(tmp_path)
    payload = json.loads(path.read_text())
    payload["weights"] = [(1e110 * np.array(w)).tolist() for w in payload["weights"]]
    blown = tmp_path / "blown_up.json"
    blown.write_text(json.dumps(payload))
    return str(blown)


def huge_sigma_max_checkpoint(tmp_path, sigma_max):
    """A fresh [3, 4, 2] net saved with the schedule (0.035, sigma_max)."""
    path = str(tmp_path / "huge_sigma_max.json")
    save_checkpoint(path, DenseNet.initialized([3, 4, 2], derive(0, 1)), "ambient", 0.05,
                    NoiseSchedule(0.035, sigma_max), "test")
    return path


class TestCliDivergence:
    @pytest.mark.parametrize("command,section", [
        ("sample", lambda ckpt: {"sample": {"source": ckpt, "sampler": "one_step", "n": 200}}),
        ("sample", lambda ckpt: {"sample": {"source": ckpt, "sampler": "full", "n": 200, "steps": 8}}),
        ("sample", lambda ckpt: {"sample": {"source": ckpt, "sampler": "full", "n": 4096, "steps": 8}}),
        ("eval", lambda ckpt: {"eval": {"teacher": ckpt, "n_eval": 256, "sample_steps": 8}}),
        ("eval", lambda ckpt: {"eval": {"generator": ckpt, "n_eval": 256}}),
    ], ids=["sample_one_step", "sample_full", "sample_full_4_blocks", "eval_teacher", "eval_generator"])
    def test_blown_up_model_exits_3_without_traceback(self, command, section, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(parallel, "CPUS", 2)  # 4096 rows: blocks on two threads
        raw = pipeline_config(command, **section(blown_up_checkpoint(tmp_path)))
        cfg = write_cfg(tmp_path, raw, "blown.json")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("divergence:")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,sections", [
        ("sample", lambda ckpt: {"sample": {"source": ckpt, "sampler": "full", "n": 64, "steps": 8}}),
        ("sample", lambda ckpt: {"sample": {"source": ckpt, "sampler": "truncated", "n": 64, "steps": 8}}),
        ("eval", lambda ckpt: {"eval": {"teacher": ckpt, "n_eval": 256, "sample_steps": 8},
                               "schedule": {"sigma_min": 0.035, "sigma_max": 1e308}}),
    ], ids=["sample_full", "sample_truncated", "eval_teacher"])
    def test_sigma_max_overflowing_the_first_draw_exits_2(self, command, sections, tmp_path, capsys):
        ckpt = huge_sigma_max_checkpoint(tmp_path, 1e308)
        cfg = write_cfg(tmp_path, pipeline_config(command, **sections(ckpt)))
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: sigma_max 1e+308 is too large")
        assert not (tmp_path / "out").exists()

    def test_huge_finite_first_draw_that_blows_up_exits_3(self, tmp_path, capsys):
        """At sigma_max 1e200 the first draw is finite; the full walk's samples
        then really pass the divergence threshold."""
        ckpt = huge_sigma_max_checkpoint(tmp_path, 1e200)
        cfg = write_cfg(tmp_path, pipeline_config("sample", sample={"source": ckpt, "sampler": "full",
                                                                    "n": 64}))
        capsys.readouterr()
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("divergence: full sampler samples diverged")
        assert not (tmp_path / "out").exists()

    def test_generator_blown_up_at_an_eval_leaves_the_last_healthy_checkpoint(self, tmp_path, capsys):
        pre = pipeline_config("pretrain", seed=1, train={"batch_size": 16, "steps": 3, "sigma_hat": 0.05,
                                                         "hidden": [16, 16]})
        assert main(["pretrain", "--config", write_cfg(tmp_path, pre, "pre.json"),
                     "--out", str(tmp_path / "pre")]) == 0
        raw = pipeline_config("distill", seed=1, eval={"n_eval": 256}, distill={
            "teacher": str(tmp_path / "pre" / "teacher.json"), "method": "sds", "steps": 40,
            "batch_size": 16, "lr_gen": 10, "eval_every": 1})
        del raw["schedule"]  # the run takes the teacher's, which last_healthy.json records
        out = tmp_path / "distill"
        capsys.readouterr()
        assert main(["distill", "--config", write_cfg(tmp_path, raw, "distill.json"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("divergence: one-step generator samples diverged")
        assert f"last healthy checkpoint: {out / 'last_healthy.json'}" in err
        net, _, _, schedule = load_checkpoint(str(out / "last_healthy.json"))
        assert net.layer_sizes == [3, 16, 16, 2]
        assert schedule == NoiseSchedule(0.035, 1.0)

    def test_large_scale_data_is_not_divergence(self, tmp_path):
        raw = pipeline_config("pretrain", dataset={"kind": "ring", "n": 256, "sigma_data": 1000})
        out = tmp_path / "out"
        assert main(["pretrain", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 0
        assert float(csv_body(out / "pretrain_loss.csv")[-1].split(",")[1]) > 1e6

    def test_large_scale_data_distills(self, tmp_path):
        """The fake loss is held to pretraining's limit, which scales with the data."""
        scale = {"dataset": {"kind": "ring", "n": 256, "sigma_data": 1e4},
                 "schedule": {"sigma_min": 0.035, "sigma_max": 3e4}}
        pre = pipeline_config("pretrain", **scale, train={"steps": 50, "sigma_hat": 1e4})
        assert main(["pretrain", "--config", write_cfg(tmp_path, pre, "pre.json"),
                     "--out", str(tmp_path / "pre")]) == 0
        raw = pipeline_config("distill", **scale, distill={
            "teacher": str(tmp_path / "pre" / "teacher.json"), "steps": 20, "batch_size": 32})
        assert main(["distill", "--config", write_cfg(tmp_path, raw, "distill.json"),
                     "--out", str(tmp_path / "distill")]) == 0

    def test_exploding_learning_rate_exits_3(self, tmp_path, capsys):
        raw = pipeline_config("pretrain")
        raw["train"]["lr"] = 1e300
        out = tmp_path / "out"
        assert main(["pretrain", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("divergence: pretraining diverged at step 1")
        assert not out.exists()


def csv_body(path):
    """The rows of a CSV artifact below its provenance line."""
    return path.read_text().splitlines()[1:]


def checkpoint_params(path):
    payload = json.loads(path.read_text())
    return payload["weights"], payload["biases"]


def run_files(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


class TestCliSigmaSweep:
    def test_single_value_sweep_degenerates_to_distill(self, tmp_path):
        out = tmp_path / "run"
        distill = {"method": "sid", "steps": 20, "batch_size": 32, "eval_every": 10}
        raw = pipeline_config(
            "sigma_sweep",
            distill=distill,
            sweep={"sigma_hats": [0.05]},
            eval={"n_eval": 512},
        )
        cfg = write_cfg(tmp_path, raw, "sweep.json")
        assert main(["sigma-sweep", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[1] == "sigma_hat,frechet_clean,proximal_fid,best"
        assert len(report) == 3
        assert report[2].endswith("True")
        assert (out / "sigma_hat_0.05" / "metrics.csv").exists()

        # the same sections run as pretrain -> distill give the same rows and weights
        pre, dist = tmp_path / "pre", tmp_path / "dist"
        assert main(["pretrain", "--config", write_cfg(tmp_path, pipeline_config("pretrain"), "p.json"),
                     "--out", str(pre)]) == 0
        raw = pipeline_config("distill", distill={**distill, "teacher": str(pre / "teacher.json")},
                              eval={"n_eval": 512})
        assert main(["distill", "--config", write_cfg(tmp_path, raw, "d.json"), "--out", str(dist)]) == 0
        level = out / "sigma_hat_0.05"
        assert run_files(level) == sorted(run_files(dist) + ["pretrain_loss.csv", "teacher.json"])
        assert csv_body(level / "pretrain_loss.csv") == csv_body(pre / "pretrain_loss.csv")
        for name in run_files(dist):
            if name.endswith(".csv"):
                assert csv_body(level / name) == csv_body(dist / name), name
        assert checkpoint_params(level / "teacher.json") == checkpoint_params(pre / "teacher.json")
        for name in ("generator.json", "fake.json"):
            assert checkpoint_params(level / name) == checkpoint_params(dist / name)

    def test_directories_named_by_float_repr(self, tmp_path):
        out = tmp_path / "run"
        raw = pipeline_config(
            "sigma_sweep",
            train={"steps": 2, "hidden": [4]},
            distill={"method": "sds", "steps": 2, "batch_size": 8, "eval_every": 2},
            sweep={"sigma_hats": [0, 0.1000001, 0.1000002]},
            eval={"n_eval": 256},
        )
        assert main(["sigma-sweep", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
            "sigma_hat_0.0", "sigma_hat_0.1000001", "sigma_hat_0.1000002"]
        cells = [line.split(",")[0] for line in csv_body(out / "report.csv")[1:]]
        assert cells == ["0.0", "0.1000001", "0.1000002"]
        for cell in cells:
            assert json.loads((out / f"sigma_hat_{cell}" / "teacher.json").read_text())[
                "sigma_hat"] == float(cell)

    def test_default_levels_of_clean_data_run_once(self, tmp_path):
        out = tmp_path / "run"
        raw = pipeline_config(
            "sigma_sweep",
            dataset={"kind": "ring", "n": 256, "sigma_data": 0},
            train={"steps": 2, "hidden": [4]},
            distill={"method": "sds", "steps": 2, "batch_size": 8, "eval_every": 2},
            eval={"n_eval": 256},
        )
        assert main(["sigma-sweep", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir() if p.is_dir()] == ["sigma_hat_0.0"]
        assert [line.split(",")[0] for line in csv_body(out / "report.csv")[1:]] == ["0.0"]

    def test_standard_mode_sweep_writes_standard_teachers(self, tmp_path, monkeypatch):
        modes = record_distill_modes(monkeypatch)
        out = tmp_path / "run"
        raw = pipeline_config(
            "sigma_sweep",
            train={"steps": 2, "hidden": [4], "mode": "standard"},
            distill={"method": "sds", "steps": 2, "batch_size": 8, "eval_every": 2},
            sweep={"sigma_hats": [0.0, 0.05]},
            eval={"n_eval": 256},
        )
        assert main(["sigma-sweep", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 0
        assert modes == [PAIRED_MODE["standard"]] * 2
        for level in ("sigma_hat_0.0", "sigma_hat_0.05"):
            for name in ("teacher.json", "generator.json", "fake.json"):
                assert json.loads((out / level / name).read_text())["mode"] == "standard"


def net_on_schedule(tmp_path, name, sigma_max):
    """A fresh [3, 8, 2] net saved with the schedule (0.035, sigma_max)."""
    path = str(tmp_path / name)
    save_checkpoint(path, DenseNet.initialized([3, 8, 2], derive(0, len(name))), "ambient", 0.05,
                    NoiseSchedule(0.035, sigma_max), "test")
    return path


class TestCliGeneratorSchedule:
    def test_distill_runs_on_the_teacher_schedule(self, tmp_path):
        """Without a schedule section, distill queries the teacher on the schedule
        its checkpoint records, as a restated section does, and records it."""
        teacher = pretrained_teacher(tmp_path)  # schedule (0.035, 1.0)
        params = []
        for name, restated in (("bare", False), ("restated", True)):
            raw = pipeline_config("distill", distill={"teacher": str(teacher), "method": "sid", "steps": 2,
                                                      "batch_size": 8, "eval_every": 2},
                                  eval={"n_eval": 256})
            if not restated:
                del raw["schedule"]
            out = tmp_path / name
            assert main(["distill", "--config", write_cfg(tmp_path, raw, f"{name}.json"),
                         "--out", str(out)]) == 0
            for checkpoint in ("generator.json", "fake.json"):
                payload = json.loads((out / checkpoint).read_text())
                assert payload["schedule"] == {"sigma_min": 0.035, "sigma_max": 1.0}
            params.append([checkpoint_params(out / c) for c in ("generator.json", "fake.json")])
        assert params[0] == params[1]

    def test_one_step_sample_uses_the_generator_schedule(self, tmp_path):
        generator = net_on_schedule(tmp_path, "generator.json", 2.0)
        raw = pipeline_config("sample", sample={"source": generator, "sampler": "one_step", "n": 50})
        assert main(["sample", "--config", write_cfg(tmp_path, raw, "s.json"),
                     "--out", str(tmp_path / "s")]) == 0
        rows = csv_body(tmp_path / "s" / "samples.csv")[1:]
        samples = np.array([[float(v) for v in row.split(",")] for row in rows])
        net = load_checkpoint(generator)[0]
        z = derive(raw["seed"], 301).standard_normal((50, 2))
        assert np.array_equal(samples, generator_forward(net, z, NoiseSchedule(0.035, 2.0)))
        assert not np.array_equal(samples, generator_forward(net, z, NoiseSchedule(0.035, 1.0)))


class TestCliEval:
    def test_generator_only_eval_uses_the_generator_sigma_hat(self, tmp_path):
        teacher = pretrained_teacher(tmp_path)  # data sigma 0.05
        distilled = pipeline_config(
            "distill", distill={"teacher": str(teacher), "method": "sds", "steps": 2,
                                "batch_size": 8, "eval_every": 2, "sigma_hat": 0.07},
            eval={"n_eval": 256})
        out = tmp_path / "d"
        assert main(["distill", "--config", write_cfg(tmp_path, distilled, "d.json"),
                     "--out", str(out)]) == 0
        raw = pipeline_config("eval", eval={"generator": str(out / "generator.json"), "n_eval": 256})
        assert main(["eval", "--config", write_cfg(tmp_path, raw, "e.json"),
                     "--out", str(tmp_path / "e")]) == 0
        row = csv_body(tmp_path / "e" / "eval.csv")[-1].split(",")
        assert row[0] == "generator"

        data = make_dataset("ring", 256, 0.05, raw["seed"])
        generator = load_checkpoint(out / "generator.json")[0]
        expected = {sigma_hat: evaluate_sources(data, sigma_hat, teacher=None,
                                                generator=(generator, NoiseSchedule(0.035, 1.0)),
                                                n_eval=256, eval_seed=raw["seed"])[-1]["proximal_fid"]
                    for sigma_hat in (0.07, 0.05)}  # the generator's, the data's
        assert float(row[2]) == expected[0.07] != expected[0.05]

    def run_eval(self, tmp_path, evaluation, restated):
        """Exit code of ``eval`` on the ``eval`` section ``evaluation``, with
        the config's schedule (0.035, 1.0) kept when ``restated``, else dropped."""
        raw = pipeline_config("eval", eval={"n_eval": 256, "sample_steps": 4, **evaluation})
        if not restated:
            del raw["schedule"]
        return main(["eval", "--config", write_cfg(tmp_path, raw, "e.json"), "--out", str(tmp_path / "out")])

    def test_schedule_that_differs_from_the_checkpoints_exits_2(self, tmp_path, capsys):
        teacher = net_on_schedule(tmp_path, "teacher.json", 1e308)
        capsys.readouterr()
        assert self.run_eval(tmp_path, {"teacher": teacher}, restated=True) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert "NoiseSchedule(sigma_min=0.035, sigma_max=1.0)" in err
        assert "NoiseSchedule(sigma_min=0.035, sigma_max=1e+308)" in err
        assert not (tmp_path / "out").exists()

    def test_teacher_walks_on_its_own_schedule(self, tmp_path, capsys):
        teacher = net_on_schedule(tmp_path, "teacher.json", 1e308)
        capsys.readouterr()
        assert self.run_eval(tmp_path, {"teacher": teacher}, restated=False) == 2
        assert capsys.readouterr().err.startswith("config error: sigma_max 1e+308 is too large")
        assert not (tmp_path / "out").exists()

    def test_each_checkpoint_runs_on_the_schedule_it_records(self, tmp_path):
        teacher = net_on_schedule(tmp_path, "teacher.json", 1.0)
        generator = net_on_schedule(tmp_path, "generator.json", 2.0)
        assert self.run_eval(tmp_path, {"teacher": teacher, "generator": generator}, restated=False) == 0
        rows = [line.split(",") for line in csv_body(tmp_path / "out" / "eval.csv")[1:]]
        assert [row[0] for row in rows] == ["raw_noisy", "teacher_full", "teacher_truncated", "generator"]

        seed = 3  # pipeline_config's
        data = make_dataset("ring", 256, 0.05, seed)
        z = derive(seed, 102).standard_normal((256, 2))
        samples = generator_forward(load_checkpoint(generator)[0], z, NoiseSchedule(0.035, 2.0))
        clean = sample_clean("ring", 256, derive(seed, 101))
        assert float(rows[3][1]) == frechet_between_samples(samples, clean)
        assert float(rows[3][3]) == frechet_between_samples(samples, data.points)
        walked = evaluate_sources(data, 0.05, (load_checkpoint(teacher)[0], NoiseSchedule(0.035, 1.0)),
                                  None, seed, n_eval=256, sample_steps=4)
        assert [float(row[1]) for row in rows[1:3]] == [row["frechet_clean"] for row in walked[1:]]

    def test_restated_schedule_must_match_every_checkpoint(self, tmp_path, capsys):
        teacher = net_on_schedule(tmp_path, "teacher.json", 1.0)
        generator = net_on_schedule(tmp_path, "generator.json", 2.0)
        capsys.readouterr()
        assert self.run_eval(tmp_path, {"teacher": teacher, "generator": generator}, restated=True) == 2
        err = capsys.readouterr().err
        assert "sigma_max=2.0" in err and "generator checkpoint" in err
        assert not (tmp_path / "out").exists()

    def test_distill_schedule_that_differs_from_the_teachers_exits_2(self, tmp_path, capsys):
        teacher = net_on_schedule(tmp_path, "teacher.json", 1.0)
        raw = pipeline_config("distill", schedule={"sigma_min": 0.035, "sigma_max": 3.0},
                              distill={"teacher": teacher, "steps": 1})
        capsys.readouterr()
        assert main(["distill", "--config", write_cfg(tmp_path, raw, "d.json"),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert "NoiseSchedule(sigma_min=0.035, sigma_max=3.0)" in err
        assert "NoiseSchedule(sigma_min=0.035, sigma_max=1.0)" in err
        assert not (tmp_path / "out").exists()


def declared_default(build, name):
    return inspect.signature(build).parameters[name].default


# (command, section, key, the default of the dataclass or function the section builds)
OMITTED_KEYS = {
    "train.mode": ("pretrain", "train", "mode", declared_default(TrainConfig, "mode")),
    "train.hidden": ("pretrain", "train", "hidden", list(declared_default(TrainConfig, "hidden"))),
    "eval.n_eval/eval": ("eval", "eval", "n_eval", declared_default(evaluate_sources, "n_eval")),
    "eval.n_eval/distill": ("distill", "eval", "n_eval", declared_default(make_eval_hook, "n_eval")),
    "eval.sample_steps": ("eval", "eval", "sample_steps",
                          declared_default(evaluate_sources, "sample_steps")),
    "sample.steps": ("sample", "sample", "steps", declared_default(ambient_sample, "steps")),
}


def artifacts(root):
    """Every artifact under ``root`` without its provenance line or field, the
    one place the config hash shows."""
    found = {}
    for path in sorted(root.rglob("*")):
        name = str(path.relative_to(root))
        if path.suffix == ".csv":
            found[name] = csv_body(path)
        elif path.suffix == ".json":
            found[name] = {k: v for k, v in json.loads(path.read_text()).items() if k != "provenance"}
    return found


class TestOmittedKeyTakesTheCalleeDefault:
    @pytest.mark.parametrize("case", OMITTED_KEYS)
    def test_omitted_key_writes_what_the_default_writes(self, case, tmp_path):
        command, section, key, default = OMITTED_KEYS[case]
        teacher = str(pretrained_teacher(tmp_path))
        raw = {
            "pretrain": pipeline_config("pretrain", train={"steps": 2, "hidden": [4], "mode": "ambient"}),
            "distill": pipeline_config("distill", eval={"n_eval": 256},
                                       distill={"teacher": teacher, "method": "sds", "steps": 2,
                                                "batch_size": 8, "eval_every": 2}),
            "eval": pipeline_config("eval", eval={"teacher": teacher, "n_eval": 256,
                                                  "sample_steps": 2}),
            "sample": pipeline_config("sample", sample={"source": teacher, "sampler": "full",
                                                        "n": 256, "steps": 2}),
        }[command]
        omitted, explicit = copy.deepcopy(raw), copy.deepcopy(raw)
        del omitted[section][key]
        explicit[section][key] = default
        runs = []
        for name, cfg in (("omitted", omitted), ("explicit", explicit)):
            out = tmp_path / name
            assert main([command, "--config", write_cfg(tmp_path, cfg, f"{name}.json"),
                         "--out", str(out)]) == 0
            runs.append(artifacts(out))
        assert runs[0] and runs[0] == runs[1]


def test_readme_example_configs_parse():
    """Every ```json block of README.md, an example config users save and run, is valid."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"^```json\n(.*?)^```", fh.read(), flags=re.M | re.S)
    assert len(blocks) >= 3
    for block in blocks:
        parse_config(json.loads(block))
