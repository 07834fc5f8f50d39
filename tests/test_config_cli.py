"""Experiment configs, artifact writing, SVG plots, and the CLI contract."""

import functools
import json
import os
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

from noisedistill import cli, parallel, stiefel
from noisedistill.cli import main
from noisedistill.config import (
    SCHEMA,
    format_cell,
    from_section,
    load_config,
    parse_config,
    provenance,
    write_csv_atomic,
    write_text_atomic,
)
from noisedistill.diffusion import TrainConfig, load_checkpoint
from noisedistill.distill import PAIRED_MODE, DistillConfig, generator_forward
from noisedistill.errors import ConfigError
from noisedistill.metrics import evaluate_sources
from noisedistill.rng import derive
from noisedistill.schedule import NoiseSchedule
from noisedistill.svgplot import emit_scatter_svg
from noisedistill.toydata import make_dataset


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
    raw = {
        "version": 1,
        "kind": kind,
        "seed": 3,
        "dataset": {"kind": "ring", "n": 256, "sigma_data": 0.05},
        "schedule": {"sigma_min": 0.035, "sigma_max": 1.0},
        "train": {"batch_size": 64, "lr": 1e-3, "steps": 60, "sigma_hat": 0.05,
                  "mode": "ambient", "hidden": [16, 16]},
    }
    raw.update(sections)
    return raw


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
    ])
    def test_error_message_matches_jsonschema_validate(self, bad):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(bad, SCHEMA)
        path = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
        with pytest.raises(ConfigError) as got:
            parse_config(bad)
        assert str(got.value) == f"config invalid at {path}: {expected.value.message}"


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


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, noisedistill.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


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

    def test_numpy_float_cell_is_plain_repr(self):
        value = np.float64(2.7755575615628914e-07)
        assert format_cell(value) == "2.7755575615628914e-07"
        assert format_cell(np.float64(0.5)) == repr(0.5)
        assert format_cell(3) == "3"
        assert format_cell(True) == "True"


class TestFromSection:
    def test_empty_section_gives_dataclass_defaults(self):
        assert from_section(TrainConfig, {}) == TrainConfig()
        assert from_section(DistillConfig, {}) == DistillConfig()
        assert from_section(NoiseSchedule, {}) == NoiseSchedule()

    def test_section_key_overrides_default(self):
        tcfg = from_section(TrainConfig, {"lr": 3e-3, "hidden": [8], "mode": "standard"})
        assert tcfg.lr == 3e-3
        assert tcfg.steps == TrainConfig().steps
        assert from_section(DistillConfig, {"steps": 7, "teacher": "t.json"}).steps == 7
        assert from_section(NoiseSchedule, {"sigma_max": 2.0}) == NoiseSchedule(0.02, 2.0)

    def test_fixed_value_overrides_section(self):
        dcfg = from_section(DistillConfig, {"mode": "standard", "sigma_hat": 0.1},
                            mode="adjusted", seed=4)
        assert (dcfg.mode, dcfg.sigma_hat, dcfg.seed) == ("adjusted", 0.1, 4)

    def test_verify_runs_at_the_optimizer_default_tolerance(self):
        assert (stiefel.STEP_SIZE, stiefel.GRAD_TOL, stiefel.MAX_ITERS) == (0.2, 1e-7, 2000)


class TestScatterSvg:
    def test_golden_bytes_for_tiny_input(self, tmp_path):
        path1 = tmp_path / "a.svg"
        path2 = tmp_path / "b.svg"
        pts = np.array([[0.0, 0.0], [1.0, -1.0]])
        emit_scatter_svg([("data", pts)], str(path1))
        emit_scatter_svg([("data", pts)], str(path2))
        assert path1.read_bytes() == path2.read_bytes()
        body = path1.read_text()
        assert body.startswith('<?xml version="1.0"')
        assert "<svg" in body and "</svg>" in body

    def test_empty_input_still_valid(self, tmp_path):
        path = tmp_path / "empty.svg"
        emit_scatter_svg([], str(path))
        body = path.read_text()
        assert body.startswith('<?xml version="1.0"')
        assert "</svg>" in body

    def test_many_points_under_size_budget(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "big.svg"
        emit_scatter_svg([("cloud", rng.standard_normal((10000, 2)))], str(path))
        assert path.stat().st_size < 2_000_000

    def test_too_many_sets_rejected(self, tmp_path):
        sets = [(f"s{i}", np.zeros((1, 2))) for i in range(6)]
        from noisedistill.errors import PreconditionError

        with pytest.raises(PreconditionError):
            emit_scatter_svg(sets, str(tmp_path / "x.svg"))


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


BAD_BASES = {
    "non_orthonormal_basis": [[1.0], [1.0], [0.0], [0.0]],
    "basis_shape_disagrees_with_dim": np.eye(6)[:, :2].tolist(),  # with dim 8, rank 2
    "ragged_basis": [[1.0], [0.0, 1.0], [0.0]],
    "empty_basis": [[]],
}

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
}


# Keys that once set the Stiefel descent, each with the value every run used.
REMOVED_OPT_KEYS = {"opt_step_size_key": ("step_size", 0.2), "opt_grad_tol_key": ("grad_tol", 1e-7),
                    "opt_retraction_key": ("retraction", "qr")}
REMOVED_KEYS = [*REMOVED_OPT_KEYS, "fake_steps_per_gen_key", "out_dir_key", "plots_key"]
NON_FINITE_LITERALS = {"lr_nan": ("train", "lr", "NaN"),
                       "sigma_max_infinity": ("schedule", "sigma_max", "Infinity"),
                       "lr_overflows_to_inf": ("train", "lr", "1e400")}


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
    if case == "huge_linear_sigma":
        raw = verify_config()
        raw["linear"]["sigma"] = 1e160
        return "verify", raw
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
    if case in BAD_BASES:
        raw = verify_config()
        raw["linear"]["basis"] = BAD_BASES[case]
        if case == "basis_shape_disagrees_with_dim":
            raw["linear"].update(dim=8, rank=2)
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
                                      "rank_not_below_dim", *BAD_BASES,
                                      "duplicate_sigma_hats", "sweep_with_teacher",
                                      "sigma_hat_at_sigma_max", "distill_sigma_hat_at_sigma_max",
                                      "sweep_level_at_sigma_max",
                                      "distill_mode_unpaired_with_teacher", *NON_FINITE_LITERALS])
    def test_exits_2_without_traceback(self, case, tmp_path, capsys):
        command, raw = bad_input(case, tmp_path)
        cfg = write_cfg(tmp_path, raw, "bad.json")
        capsys.readouterr()
        # an uncaught exception would fail the test here, before the exit code
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
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


def blown_up_checkpoint(tmp_path):
    """A loadable checkpoint whose weights are all finite but scaled by 1e110."""
    path = pretrained_teacher(tmp_path)
    payload = json.loads(path.read_text())
    payload["weights"] = [(1e110 * np.array(w)).tolist() for w in payload["weights"]]
    blown = tmp_path / "blown_up.json"
    blown.write_text(json.dumps(payload))
    return str(blown)


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

    def test_large_scale_data_is_not_divergence(self, tmp_path):
        raw = pipeline_config("pretrain", dataset={"kind": "ring", "n": 256, "sigma_data": 1000})
        out = tmp_path / "out"
        assert main(["pretrain", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 0
        assert float(csv_body(out / "pretrain_loss.csv")[-1].split(",")[1]) > 1e6

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


class TestCliGeneratorSchedule:
    def test_one_step_sample_uses_the_distill_schedule(self, tmp_path):
        teacher = pretrained_teacher(tmp_path)  # schedule sigma_max 1.0
        distilled = pipeline_config(
            "distill", schedule={"sigma_min": 0.035, "sigma_max": 2.0},
            distill={"teacher": str(teacher), "method": "sds", "steps": 2, "batch_size": 8,
                     "eval_every": 2, "sigma_hat": 0.07},
            eval={"n_eval": 256})
        out = tmp_path / "d"
        assert main(["distill", "--config", write_cfg(tmp_path, distilled, "d.json"),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "generator.json").read_text())
        assert payload["schedule"] == {"sigma_min": 0.035, "sigma_max": 2.0}
        assert payload["sigma_hat"] == 0.07

        raw = pipeline_config("sample", sample={"source": str(out / "generator.json"),
                                                "sampler": "one_step", "n": 50})
        assert main(["sample", "--config", write_cfg(tmp_path, raw, "s.json"),
                     "--out", str(tmp_path / "s")]) == 0
        rows = csv_body(tmp_path / "s" / "samples.csv")[1:]
        samples = np.array([[float(v) for v in row.split(",")] for row in rows])
        generator = load_checkpoint(out / "generator.json")[0]
        z = derive(raw["seed"], 301).standard_normal((50, 2))
        assert np.array_equal(samples, generator_forward(generator, z, NoiseSchedule(0.035, 2.0)))
        assert not np.array_equal(samples, generator_forward(generator, z, NoiseSchedule(0.035, 1.0)))


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
        raw["train"]["sigma_hat"] = 0.3  # another command's section: not read by eval
        assert main(["eval", "--config", write_cfg(tmp_path, raw, "e.json"),
                     "--out", str(tmp_path / "e")]) == 0
        row = csv_body(tmp_path / "e" / "eval.csv")[-1].split(",")
        assert row[0] == "generator"

        data = make_dataset("ring", 256, 0.05, raw["seed"])
        generator = load_checkpoint(out / "generator.json")[0]
        expected = {sigma_hat: evaluate_sources(data, NoiseSchedule(0.035, 1.0), sigma_hat,
                                                generator=generator, n_eval=256,
                                                eval_seed=raw["seed"])[-1]["proximal_fid"]
                    for sigma_hat in (0.07, 0.3)}
        assert float(row[2]) == expected[0.07] != expected[0.3]
