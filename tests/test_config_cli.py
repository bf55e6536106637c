import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import goalshot.cli as cli
import goalshot.experiment
import goalshot.scenes
from conftest import write_model
from goalshot.aim import discretize_targets
from goalshot.cli import main
from goalshot.config import RunConfig, load_run_config, scalar_fields
from goalshot.dynamics import BallState, kick, rollout_to_goal_line
from goalshot.experiment import stats_pair_from_json
from goalshot.geometry import FieldConfig, Vec2
from goalshot.keeper import KeeperModel
from goalshot.mlp import TrainConfig
from goalshot.policies import PolicyConfig, lda_train
from goalshot.scenes import CSV_HEADER, SceneTable, load_scenes, split_dataset


CONFIG_TEXT = """
[run]
seed = 7

[dynamics]
decay = 0.9
noise_coefficient = 0.02

[aim]
target_count = 9

[keeper]
max_speed = 0.5
reaction_delay = 1

[train]
max_epochs = 25

[eval_keeper]
max_speed = 0.9
"""


# A 401-digit integer, past the largest float.
_HUGE = "1" + "0" * 400


class TestConfigFile:
    def test_defaults_without_file(self):
        config = RunConfig()
        assert config.seed == 0
        assert config.dynamics.decay == 0.94
        assert config.gen.keeper == config.keeper

    def test_load_overrides(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(CONFIG_TEXT, encoding="utf-8")
        config = load_run_config(path)
        assert config.seed == 7
        assert config.dynamics.decay == 0.9
        assert config.dynamics.noise_coefficient == 0.02
        assert config.aim.target_count == 9
        assert config.keeper.max_speed == 0.5
        assert config.keeper.reaction_delay == 1
        assert config.train.max_epochs == 25
        assert config.eval_keeper == KeeperModel(max_speed=0.9)
        # The labeling keeper inside the generator follows [keeper].
        assert config.gen.keeper == config.keeper

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        # The goal line follows field_length, and nothing reads a penalty area depth.
        for section, key in (("dynamics", "friction"), ("train", "compare_to_previous"),
                             ("field", "goal_line_x"), ("field", "penalty_area_depth")):
            path.write_text(f"[{section}]\n{key} = 1\n", encoding="utf-8")
            with pytest.raises(ValueError, match=f"unknown key '{key}' in section \\[{section}\\]"):
                load_run_config(path)

    @pytest.mark.parametrize("flags,ini", [(["--seed", _HUGE], ""),
                                           ([], f"[run]\nseed = {_HUGE}\n")],
                             ids=["flag", "file"])
    def test_huge_seed_accepted(self, flags, ini, tmp_path, capsys):
        # An int too large for a float is finite: only the class's own checks apply.
        path = tmp_path / "run.ini"
        path.write_text(ini, encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["gen-data", "--n", "5", "--config", str(path), "--out", str(out),
                     *flags]) == 0
        assert capsys.readouterr().out.endswith(f", seed {_HUGE})\n")

    def test_aim_p_goal_threshold_rejected(self, tmp_path):
        # The stage-one threshold lives in [policy]; [aim] has no such key.
        path = tmp_path / "bad.ini"
        path.write_text("[aim]\np_goal_threshold = 0.99\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown key 'p_goal_threshold' in section \\[aim\\]"):
            load_run_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[weather]\nwind = 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="weather"):
            load_run_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nseed = soon\n", encoding="utf-8")
        with pytest.raises(ValueError, match="seed"):
            load_run_config(path)

    @pytest.mark.parametrize("command,section,key,raw", [
        (["aim-table"], "aim", "sigma_horizon", "inf"),
        (["gen-data", "--n", "5"], "gen", "keeper_lateral_spread", "inf"),
        (["gen-data", "--n", "5"], "dynamics", "noise_coefficient", "inf"),
        (["gen-data", "--n", "5"], "keeper", "catch_radius", "nan"),
    ])
    def test_non_finite_value_fails_at_load(self, command, section, key, raw, tmp_path,
                                            capsys):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main([*command, "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: config file {path}: [{section}] {key}: "
                                f"non-finite value '{raw}'\n")
        assert captured.out == ""
        assert not out.exists()

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "nope.ini"
        with pytest.raises(ValueError, match=f"^config file {re.escape(str(path))}: not found$"):
            load_run_config(path)

    @pytest.mark.parametrize("command,ini,message,where", [
        (["gen-data", "--n", "5", "--out", "OUT", "--seed", "-2"], "",
         "run seed must be >= 0, got -2", "--seed: "),
        (["gen-data", "--n", "5", "--out", "OUT"], "[run]\nseed = -3\n",
         "run seed must be >= 0, got -3", "config file INI: [run] "),
        # [run] seed is the run's only seed: [train] has none to check.
        (["train", "--data", "scenes.csv", "--model-out", "OUT"], "[train]\nseed = -3\n",
         "unknown key 'seed' in section [train]", "config file INI: "),
        # Without --mc-rollouts no generator is built, so nothing else catches it.
        (["aim-table", "--out", "OUT", "--seed", "-1"], "", "run seed must be >= 0, got -1",
         "--seed: "),
    ])
    def test_negative_seed_fails_at_load(self, command, ini, message, where, tmp_path,
                                         capsys):
        path = tmp_path / "run.ini"
        path.write_text(ini, encoding="utf-8")
        out = tmp_path / "out"
        argv = [str(out) if arg == "OUT" else arg for arg in command]
        assert main([*argv, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        # An error in the file names the file and its section, an error in a
        # flag its flag.
        assert captured.err == f"error: {where.replace('INI', str(path))}{message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("section,key,raw,message,where", [
        ("keeper", "max_speed", "-1", "KeeperModel parameters must be non-negative",
         "config file INI: "),
        ("eval_keeper", "max_speed", "-1", "KeeperModel parameters must be non-negative",
         "config file INI: "),
        ("policy", "p_goal_threshold", "2", "p_goal_threshold must be in (0, 1)",
         "config file INI: "),
        ("aim", "target_count", "0", "target_count must be >= 1", "config file INI: "),
        pytest.param("gen", "max_defenders", _HUGE, "max_defenders must be in [0, 10]",
                     "config file INI: ", id="gen-max_defenders-huge"),
        # Checked against [dynamics] by the command, past the load, naming the file.
        ("gen", "kick_power_max", "150",
         "kick_power_max 150.0 exceeds [dynamics] max_power 100.0", "config file INI: "),
    ])
    def test_rejected_value_names_its_section(self, section, key, raw, message, where,
                                              tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["gen-data", "--n", "5", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {where.replace('INI', str(path))}[{section}] {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("[gen]\nx_min = abc\n", "[gen] x_min: cannot parse 'abc' as float"),
        ("[gen]\nbogus = 1\n", "unknown key 'bogus' in section [gen]"),
        (b"\xff[gen]\n",
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ("[gen]\nx_min = 5.0\n[gen]\n", "line 3: section 'gen' already exists"),
        ("[gen]\nx_min = 5.0\nx_min = 6.0\n",
         "line 3: option 'x_min' in section 'gen' already exists"),
        ("x_min = 5.0\n", "line 1: no section header before 'x_min = 5.0'"),
        ("[gen]\nx_min\n", "line 2: not a section header or a key = value line"),
        # A '%' is a character, not the start of an interpolation.
        ("[gen]\nx_min = 5%\n", "[gen] x_min: cannot parse '5%' as float"),
        # [DEFAULT] is an unknown section, not defaults for every section.
        ("[DEFAULT]\nseed = 3\n", "unknown config section [DEFAULT]"),
    ], ids=["bad-float", "unknown-key", "not-utf8", "repeated-section", "repeated-key",
            "no-section", "no-value", "percent", "default-section"])
    def test_error_names_the_file_once(self, text, message, tmp_path, capsys):
        # configparser puts the path in its own messages; a "]: " in it
        # must not cut them.
        path = tmp_path / "odd]: dir" / "bad.ini"
        path.parent.mkdir()
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["gen-data", "--n", "5", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: config file {path}: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        path = tmp_path / "readme.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0],
                        encoding="utf-8")
        config = load_run_config(path)
        assert config.seed == 7
        assert config.keeper == KeeperModel(max_speed=0.28, reaction_delay=2)
        assert config.eval_keeper == KeeperModel(max_speed=0.5)
        assert config.gen.max_defenders == 5

    def test_keeper_is_the_generator_keeper(self):
        config = RunConfig()
        keeper = KeeperModel(max_speed=0.4)
        assert replace(config, gen=replace(config.gen, keeper=keeper)).keeper == keeper
        assert "keeper" not in {f.name for f in fields(RunConfig)}


def _subcommand_flags() -> list[tuple[str, str]]:
    """(subcommand, dest) of every option of every subcommand."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return [(name, action.dest) for name, parser in sub.choices.items()
            for action in parser._actions if action.option_strings]


# The sections flags may override, with their classes.
_FLAG_SECTIONS = (("run", RunConfig), ("train", TrainConfig), ("policy", PolicyConfig))
# The file value, then the flag value, of each field a flag overrides; each
# differs from the default.
_FILE_AND_FLAG = {"seed": (7, 9), "learning_rate": (0.01, 0.02), "max_epochs": (30, 40),
                  "patience": (3, 4), "hidden_size": (6, 7),
                  "p_goal_threshold": (0.6, 0.8), "score_threshold": (0.4, 0.45)}
_REQUIRED = {"gen-data": ["--n", "5", "--out", "x.csv"], "stats": ["--data", "x.csv"],
             "train": ["--data", "x.csv", "--model-out", "m.json"],
             "eval": ["--model", "m.json", "--data", "x.csv"],
             "compare": [], "aim-table": []}


def _config_flags() -> list[tuple[str, str]]:
    return [(command, dest) for command, dest in _subcommand_flags()
            if any(dest in scalar_fields(cls) for _, cls in _FLAG_SECTIONS)]


def _flag_section_values(config: RunConfig) -> dict[tuple[str, str], object]:
    parts = {"run": config, "train": config.train, "policy": config.policy}
    return {(section, key): getattr(parts[section], key)
            for section, cls in _FLAG_SECTIONS for key in scalar_fields(cls)}


class TestFlagOverrides:
    def test_every_config_flag_has_values(self):
        assert {dest for _, dest in _config_flags()} == set(_FILE_AND_FLAG)
        assert {command for command, _ in _subcommand_flags()} == set(_REQUIRED)

    def test_no_flag_names_a_section(self):
        sections = {f.name for f in fields(RunConfig)} - set(scalar_fields(RunConfig))
        assert sections
        assert not sections & {dest for _, dest in _subcommand_flags()}

    @pytest.mark.parametrize("command,dest", _config_flags())
    def test_flag_overrides_only_its_field(self, command, dest, tmp_path):
        lines = []
        for section, cls in _FLAG_SECTIONS:
            lines.append(f"[{section}]")
            lines += [f"{key} = {_FILE_AND_FLAG[key][0]}" for key in scalar_fields(cls)
                      if key in _FILE_AND_FLAG]
        path = tmp_path / "run.ini"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        file_config = load_run_config(path)
        value = _FILE_AND_FLAG[dest][1]
        args = cli.build_parser().parse_args(
            [command, *_REQUIRED[command], "--config", str(path),
             "--" + dest.replace("_", "-"), str(value)])
        config = cli._load_config(args)

        before, after = _flag_section_values(file_config), _flag_section_values(config)
        assert all(before[item] == _FILE_AND_FLAG[item[1]][0] for item in before
                   if item[1] in _FILE_AND_FLAG)
        changed = {item for item in before if before[item] != after[item]}
        assert changed == {(section, dest) for section, cls in _FLAG_SECTIONS
                           if dest in scalar_fields(cls)}
        assert all(after[item] == value for item in changed)
        assert replace(config, seed=file_config.seed, train=file_config.train,
                       policy=file_config.policy) == file_config

    @pytest.mark.parametrize("command,flag,raw", [
        ("train", "--learning-rate", "inf"),
        ("train", "--learning-rate", "nan"),
        ("compare", "--score-threshold", "nan"),
    ])
    def test_non_finite_flag_fails_at_load(self, command, flag, raw, tmp_path,
                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command, *_REQUIRED[command], flag, raw]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag}: non-finite value {float(raw)!r}\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command,flag,raw,message", [
        ("train", "--max-epochs", "0", "max_epochs, patience and hidden_size must be >= 1"),
        ("train", "--learning-rate", "-1", "learning_rate must be positive"),
        ("compare", "--p-goal-threshold", "1.5", "p_goal_threshold must be in (0, 1)"),
        ("compare", "--score-threshold", "2", "score_threshold must be in (0, 1)"),
    ])
    def test_rejected_flag_value_names_its_flag(self, command, flag, raw, message,
                                                tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # A valid flag given first does not take the blame.
        assert main([command, *_REQUIRED[command], "--seed", "3", flag, raw]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag}: {message}\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scenes.csv"
    assert main(["gen-data", "--n", "600", "--out", str(path), "--seed", "1"]) == 0
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, data_csv):
    path = tmp_path_factory.mktemp("cli") / "model.json"
    code = main(["train", "--data", str(data_csv), "--model-out", str(path),
                 "--max-epochs", "15", "--patience", "6", "--seed", "1"])
    assert code == 0
    return path


class TestGenData:
    def test_writes_requested_rows(self, data_csv):
        scenes = load_scenes(data_csv)
        assert len(scenes) == 600

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen-data", "--n", "50", "--out", str(a), "--seed", "3"]) == 0
        assert main(["gen-data", "--n", "50", "--out", str(b), "--seed", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("with_config", [False, True], ids=["flags", "config"])
    def test_zero_count_fails(self, with_config, tmp_path, capsys):
        """--n is checked up front and named, with or without --config."""
        config = tmp_path / "run.ini"
        config.write_text("[run]\nseed = 3\n", encoding="utf-8")
        flags = ["--config", str(config)] if with_config else []
        code = main(["gen-data", "--n", "0", *flags, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: --n must be >= 1, got 0\n"
        assert not (tmp_path / "x.csv").exists()

    def test_keeper_noise_out_of_float_range_fails(self, tmp_path, capsys):
        """A config value that fails only while the scenes are labelled
        names the config file and the labelling keeper's section."""
        path = tmp_path / "noise.ini"
        path.write_text("[keeper]\npositioning_noise = 1e308\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        assert main(["gen-data", "--n", "50", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: config file {path}: [keeper] "
                                           "positioning_noise 1e+308 moves the keeper's aim "
                                           "point out of float range\n")
        assert not out.exists()

    def test_field_length_alone_moves_the_goal_line(self, tmp_path):
        path = tmp_path / "field.ini"
        path.write_text("[field]\nfield_length = 100\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        assert main(["gen-data", "--n", "50", "--config", str(path), "--out", str(out)]) == 0
        table = SceneTable.load(out, FieldConfig(field_length=100.0))
        assert len(table) == 50
        assert {scene.target.x for scene in table.scenes()} == {50.0}

    def test_unwritable_path_fails(self, tmp_path):
        out = tmp_path / "missing-dir" / "x.csv"
        assert main(["gen-data", "--n", "5", "--out", str(out)]) == 1


class TestStats:
    def test_prints_feature_table(self, data_csv, capsys):
        assert main(["stats", "--data", str(data_csv)]) == 0
        out = capsys.readouterr().out
        assert "angle_ball_keeper_destiny" in out
        assert "def3_distance_to_ball" in out

    def test_missing_file_fails(self, capsys):
        assert main(["stats", "--data", "/no/such/file.csv"]) == 1
        assert "error:" in capsys.readouterr().err


_SCENE_COMMANDS = pytest.mark.parametrize("command", [
    ["stats"], ["train", "--model-out", "MODEL"], ["eval", "--model", "MODEL"],
    ["compare", "--policy-a", "lda", "--policy-b", "center"]])


class TestSceneCsvErrors:
    """Each command that reads --data exits 1 with one error line that names
    the scene file, its line and, for a bad cell, its column."""

    @staticmethod
    def _fails(tmp_path, data_csv, model_file, command, line, column, value, capsys):
        data = tmp_path / "bad.csv"
        lines = data_csv.read_text(encoding="utf-8").splitlines()[:3]
        cells = lines[line - 1].split(",")
        cells[CSV_HEADER.index(column)] = value
        lines[line - 1] = ",".join(cells)
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model = str(tmp_path / "m.json") if command[0] == "train" else str(model_file)
        argv = [model if arg == "MODEL" else arg for arg in command]
        capsys.readouterr()
        assert main([*argv, "--data", str(data)]) == 1
        return data, capsys.readouterr().err

    @_SCENE_COMMANDS
    def test_cell_over_the_csv_field_limit_fails_in_one_line(self, tmp_path, data_csv,
                                                            model_file, command, capsys):
        data, err = self._fails(tmp_path, data_csv, model_file, command, 3, "kick_power",
                                "8" * 131_073, capsys)
        assert err == f"error: scene file {data}: line 3: field larger than field limit (131072)\n"

    @_SCENE_COMMANDS
    def test_bad_cell_names_the_file(self, tmp_path, data_csv, model_file, command, capsys):
        data, err = self._fails(tmp_path, data_csv, model_file, command, 2, "ball_x", "abc",
                                capsys)
        assert err == f"error: scene file {data}: line 2, column 'ball_x': not a number: 'abc'\n"


class TestTrainEval:
    def test_train_writes_model_and_report(self, tmp_path, data_csv):
        model = tmp_path / "m.json"
        report = tmp_path / "r.json"
        code = main(["train", "--data", str(data_csv), "--model-out", str(model),
                     "--report-out", str(report), "--max-epochs", "10",
                     "--seed", "2"])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["epochs_run"] <= 10
        assert doc["best_epoch"] <= doc["epochs_run"]
        assert doc["stop_reason"] in ("MAX_EPOCHS", "EARLY_STOP")
        assert len(doc["validation_mse_history"]) == doc["epochs_run"]

    def test_train_deterministic(self, tmp_path, data_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["train", "--data", str(data_csv), "--model-out", str(path),
                  "--max-epochs", "8", "--seed", "5"])
        assert a.read_bytes() == b.read_bytes()

    def test_eval_reports_metrics_and_curves(self, tmp_path, data_csv, model_file,
                                             capsys):
        roc = tmp_path / "roc.csv"
        ks2 = tmp_path / "ks2.csv"
        code = main(["eval", "--model", str(model_file), "--data", str(data_csv),
                     "--use-test-split", "--seed", "1",
                     "--roc-out", str(roc), "--ks2-out", str(ks2)])
        assert code == 0
        out = capsys.readouterr().out
        assert "auc=" in out and "ks2=" in out
        roc_rows = roc.read_text().splitlines()
        assert roc_rows[0] == "fpr,tpr"
        first = tuple(float(v) for v in roc_rows[1].split(","))
        last = tuple(float(v) for v in roc_rows[-1].split(","))
        assert first == (0.0, 0.0) and last == (1.0, 1.0)
        ks_rows = ks2.read_text().splitlines()
        assert ks_rows[0] == "threshold,cdf_positive,cdf_negative,gap"
        assert len(ks_rows) > 2

    def test_run_seed_in_the_file_trains_the_model_of_the_flag(self, tmp_path, data_csv):
        """[run] seed is the run's only seed: from the file, as from --seed,
        it also draws the initial weights and each epoch's example order."""
        config = tmp_path / "run.ini"
        config.write_text("[run]\nseed = 2\n", encoding="utf-8")
        by_file, by_flag = tmp_path / "file.json", tmp_path / "flag.json"
        train = ["train", "--data", str(data_csv), "--max-epochs", "3"]
        assert main([*train, "--config", str(config), "--model-out", str(by_file)]) == 0
        assert main([*train, "--seed", "2", "--model-out", str(by_flag)]) == 0
        assert by_file.read_bytes() == by_flag.read_bytes()

    def test_train_seed_key_rejected(self, tmp_path, data_csv, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[train]\nseed = 2\n", encoding="utf-8")
        model = tmp_path / "m.json"
        assert main(["train", "--config", str(config), "--data", str(data_csv),
                     "--model-out", str(model)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: config file {config}: unknown key 'seed' "
                                "in section [train]\n")
        assert captured.out == ""
        assert not model.exists()

    def test_eval_of_a_header_only_file_fails(self, tmp_path, model_file, capsys):
        data = tmp_path / "empty.csv"
        data.write_text(",".join(CSV_HEADER) + "\n", encoding="utf-8")
        assert main(["eval", "--model", str(model_file), "--data", str(data)]) == 1
        assert capsys.readouterr().err == (f"error: scene file {data}: both classes must be "
                                           "present, got 0 GOAL and 0 NO_GOAL\n")


def _scene_file(path, data_csv, labels):
    """A scene CSV of data_csv's first rows of each label, in the given order."""
    header, *lines = data_csv.read_text(encoding="utf-8").splitlines()
    label = CSV_HEADER.index("label")
    pools = {name: [line for line in lines if line.split(",")[label] == name]
             for name in ("GOAL", "NO_GOAL")}
    path.write_text("\n".join([header] + [pools[name].pop(0) for name in labels]) + "\n",
                    encoding="utf-8")
    return path


class TestOneClassScenes:
    """A command that needs both classes names the scenes it read and
    counts them, and fails before it trains, scores or plays."""

    @pytest.fixture
    def all_goal(self, tmp_path, data_csv):
        return _scene_file(tmp_path / "goals.csv", data_csv, ["GOAL"] * 5)

    def _error(self, capsys, *argv):
        assert main(list(argv)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    def test_train(self, all_goal, tmp_path, capsys):
        model = tmp_path / "model.json"
        err = self._error(capsys, "train", "--data", str(all_goal), "--model-out", str(model))
        assert err == (f"error: training split of scene file {all_goal}: both classes must "
                       "be present, got 3 GOAL and 0 NO_GOAL\n")
        assert not model.exists()

    def test_train_on_a_split_without_the_other_class(self, tmp_path, data_csv, capsys):
        """The file holds both classes, its training split does not."""
        failed = 0
        for position in range(5):
            labels = ["GOAL"] * 5
            labels[position] = "NO_GOAL"
            path = _scene_file(tmp_path / f"one_miss_{position}.csv", data_csv, labels)
            if not split_dataset(SceneTable.load(path), 0).train.goal.all():
                continue
            err = self._error(capsys, "train", "--data", str(path),
                              "--model-out", str(tmp_path / "model.json"))
            assert err == (f"error: training split of scene file {path}: both classes "
                           "must be present, got 3 GOAL and 0 NO_GOAL\n")
            failed += 1
        assert failed

    def test_eval(self, all_goal, model_file, capsys):
        err = self._error(capsys, "eval", "--model", str(model_file), "--data", str(all_goal))
        assert err == (f"error: scene file {all_goal}: both classes must be present, "
                       "got 5 GOAL and 0 NO_GOAL\n")
        err = self._error(capsys, "eval", "--model", str(model_file), "--data", str(all_goal),
                          "--use-test-split")
        assert err == (f"error: test split of scene file {all_goal}: both classes must be "
                       "present, got 1 GOAL and 0 NO_GOAL\n")

    def test_stats(self, all_goal, capsys):
        err = self._error(capsys, "stats", "--data", str(all_goal))
        assert err == (f"error: scene file {all_goal}: both classes must be present, "
                       "got 5 GOAL and 0 NO_GOAL\n")

    def test_compare_with_data(self, all_goal, tmp_path, capsys):
        log = tmp_path / "episodes.jsonl"
        err = self._error(capsys, "compare", "--policy-a", "lda", "--policy-b", "center",
                          "--data", str(all_goal), "--episode-log", str(log))
        assert err == (f"error: scene file {all_goal}: both classes must be present, "
                       "got 5 GOAL and 0 NO_GOAL\n")
        assert not log.exists()

    def test_compare_on_one_generated_scene(self, capsys):
        err = self._error(capsys, "compare", "--policy-a", "lda", "--policy-b", "center",
                          "--lda-train-scenes", "1")
        assert err in ("error: --lda-train-scenes 1: both classes must be present, "
                       f"got {goals} GOAL and {1 - goals} NO_GOAL\n" for goals in (0, 1))


class TestTooFewScenes:
    """A scene file too small for the command, or whose scenes carry no
    spread for the lda, fails in one error line that names it."""

    @staticmethod
    def _error(capsys, *argv):
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        return captured.err

    def test_train_on_a_header_only_file(self, tmp_path, data_csv, capsys):
        data = _scene_file(tmp_path / "empty.csv", data_csv, [])
        model = tmp_path / "model.json"
        err = self._error(capsys, "train", "--data", str(data), "--model-out", str(model))
        assert err == f"error: scene file {data}: need at least 4 scenes to split, got 0\n"
        assert not model.exists()

    def test_eval_of_the_test_split_of_two_scenes(self, tmp_path, data_csv, model_file,
                                                  capsys):
        data = _scene_file(tmp_path / "two.csv", data_csv, ["GOAL", "NO_GOAL"])
        err = self._error(capsys, "eval", "--model", str(model_file), "--data", str(data),
                          "--use-test-split")
        assert err == f"error: scene file {data}: need at least 4 scenes to split, got 2\n"

    @pytest.mark.parametrize("labels,message", [([], "need at least one scene"),
                                                (["GOAL"], "need at least two scenes")],
                             ids=["no-scene", "one-scene"])
    def test_stats(self, labels, message, tmp_path, data_csv, capsys):
        data = _scene_file(tmp_path / "few.csv", data_csv, labels)
        err = self._error(capsys, "stats", "--data", str(data))
        assert err == f"error: scene file {data}: {message}\n"

    def test_compare_lda_on_two_scenes_that_differ_only_in_their_label(self, tmp_path,
                                                                       data_csv, capsys):
        data, log = tmp_path / "pair.csv", tmp_path / "episodes.jsonl"
        header, *lines = data_csv.read_text(encoding="utf-8").splitlines()
        label = CSV_HEADER.index("label")
        for line in lines:
            cells = line.split(",")
            pair = [",".join(cells[:label] + [name] + cells[label + 1:])
                    for name in ("GOAL", "NO_GOAL")]
            data.write_text("\n".join([header, *pair]) + "\n", encoding="utf-8")
            try:
                lda_train(load_scenes(data), FieldConfig())
            except ValueError:
                break
        else:
            pytest.fail("every pair gave the lda nonsingular normal equations")
        err = self._error(capsys, "compare", "--policy-a", "lda", "--policy-b", "center",
                          "--data", str(data), "--episode-log", str(log))
        assert err == (f"error: scene file {data}: singular normal equations; "
                       "features carry no spread\n")
        assert not log.exists()


class TestCompare:
    def test_identical_policies_all_draws(self, tmp_path, data_csv, model_file):
        out = tmp_path / "report.json"
        code = main(["compare", "--model", str(model_file), "--data", str(data_csv),
                     "--policy-a", "mlp", "--policy-b", "mlp",
                     "--games", "4", "--shots", "3", "--seed", "2",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        stats_a, stats_b = stats_pair_from_json(out.read_text())
        assert stats_a == stats_b
        assert stats_a.draws == 4

    def test_formats_agree(self, tmp_path, data_csv, model_file, capsys):
        args = ["compare", "--model", str(model_file), "--data", str(data_csv),
                "--games", "3", "--shots", "3", "--seed", "4"]
        json_out = tmp_path / "r.json"
        assert main(args + ["--format", "json", "--out", str(json_out)]) == 0
        stats_a, _ = stats_pair_from_json(json_out.read_text())
        assert main(args + ["--format", "csv"]) == 0
        csv_rows = dict(line.split(",", 1)
                        for line in capsys.readouterr().out.splitlines()[1:])
        assert int(csv_rows["kicks"].split(",")[0]) == stats_a.kicks
        assert int(csv_rows["wins"].split(",")[0]) == stats_a.wins

    def test_episode_log_written(self, tmp_path, data_csv, model_file):
        log = tmp_path / "episodes.jsonl"
        code = main(["compare", "--model", str(model_file), "--data", str(data_csv),
                     "--games", "2", "--shots", "2", "--seed", "5",
                     "--episode-log", str(log), "--format", "text",
                     "--out", str(tmp_path / "r.txt")])
        assert code == 0
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(entries) == 2 * 2 * 2
        assert {e["policy"] for e in entries} == {"mlp", "lda"}

    @pytest.mark.parametrize("section,data", [("eval_keeper", True), ("keeper", False),
                                              ("keeper", True)],
                             ids=["eval-keeper-plays", "keeper-labels-the-lda-scenes",
                                  "keeper-plays"])
    def test_keeper_noise_out_of_float_range_names_the_config(
            self, section, data, tmp_path, data_csv, model_file, capsys):
        """A config value that fails only while a game is played, or while
        the lda's generated scenes are labelled, names the config file and
        the section of the keeper that failed: [eval_keeper] where it plays
        the games, else [keeper]."""
        path = tmp_path / "noise.ini"
        path.write_text(f"[{section}]\npositioning_noise = 1e308\n", encoding="utf-8")
        out = tmp_path / "report.txt"
        argv = ["compare", "--config", str(path), "--model", str(model_file), "--games", "2",
                "--shots", "5", "--lda-train-scenes", "200", "--out", str(out)]
        assert main(argv + (["--data", str(data_csv)] if data else [])) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: config file {path}: [{section}] positioning_noise "
                                "1e+308 moves the keeper's aim point out of float range\n")
        assert captured.out == ""
        assert not out.exists()

    def test_a_game_that_fails_keeps_an_existing_episode_log(self, tmp_path, data_csv,
                                                             model_file, capsys):
        """The episode log is replaced only once every game is played: a
        config value that fails while a game is played leaves an earlier log
        as it was, writes no report and leaves no temporary file."""
        path = tmp_path / "noise.ini"
        path.write_text("[eval_keeper]\npositioning_noise = 1e308\n", encoding="utf-8")
        log, out = tmp_path / "old.log", tmp_path / "report.txt"
        log.write_bytes(b"an earlier log\n")
        assert main(["compare", "--config", str(path), "--model", str(model_file),
                     "--data", str(data_csv), "--games", "2", "--shots", "5",
                     "--episode-log", str(log), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: config file {path}: [eval_keeper] "
                                "positioning_noise 1e+308 moves the keeper's aim point out "
                                "of float range\n")
        assert captured.out == ""
        assert log.read_bytes() == b"an earlier log\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["noise.ini", "old.log"]

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_a_log_path_that_cannot_be_created_fails_before_any_game(
            self, where, tmp_path, data_csv, model_file, capsys, monkeypatch):
        def no_game(*args, **kwargs):
            raise AssertionError("a game was played")

        monkeypatch.setattr(cli, "run_experiment", no_game)
        log = tmp_path / "missing" / "episodes.jsonl" if where == "missing-directory" else tmp_path
        assert main(["compare", "--model", str(model_file), "--data", str(data_csv),
                     "--games", "2", "--shots", "5", "--episode-log", str(log)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and str(log) in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_labelling_keeper_plays_no_part_with_an_eval_keeper(self, tmp_path, data_csv,
                                                                model_file):
        """With [eval_keeper] set and the lda fitted on --data, [keeper]
        labels nothing a compare reads: two different labelling keepers give
        one report and one episode log."""
        outputs = []
        for name, keeper in (("a", "max_speed = 0.1\npositioning_noise = 0.0"),
                             ("b", "max_speed = 0.6\nreaction_delay = 0\ncatch_radius = 1.5")):
            config = tmp_path / f"{name}.ini"
            config.write_text(f"[keeper]\n{keeper}\n[eval_keeper]\nmax_speed = 0.3\n",
                              encoding="utf-8")
            report, log = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
            assert main(["compare", "--config", str(config), "--model", str(model_file),
                         "--data", str(data_csv), "--games", "4", "--shots", "5",
                         "--seed", "3", "--format", "json", "--out", str(report),
                         "--episode-log", str(log)]) == 0
            outputs.append((report.read_bytes(), log.read_bytes()))
        assert outputs[0] == outputs[1]
        assert sum(stats.kicks for stats in stats_pair_from_json(outputs[0][0].decode())) > 0

    def test_center_policy_available(self, tmp_path, data_csv, capsys):
        code = main(["compare", "--policy-a", "center", "--policy-b", "center",
                     "--data", str(data_csv), "--games", "2", "--shots", "2",
                     "--seed", "6", "--format", "text"])
        assert code == 0
        assert "center" in capsys.readouterr().out

    def test_mlp_without_model_fails(self, capsys):
        assert main(["compare", "--policy-a", "mlp", "--policy-b", "center",
                     "--games", "1", "--shots", "1"]) == 1
        assert "--model" in capsys.readouterr().err

    def test_threshold_flags_tighten_kicking(self, tmp_path, data_csv, model_file):
        def kicks_with(extra):
            out = tmp_path / "thr.json"
            code = main(["compare", "--model", str(model_file), "--data",
                         str(data_csv), "--policy-a", "mlp", "--policy-b", "mlp",
                         "--games", "3", "--shots", "4", "--seed", "7",
                         "--format", "json", "--out", str(out)] + extra)
            assert code == 0
            return stats_pair_from_json(out.read_text())[0].kicks

        default_kicks = kicks_with([])
        strict_kicks = kicks_with(["--score-threshold", "0.95",
                                   "--p-goal-threshold", "0.95"])
        assert strict_kicks <= default_kicks

    def test_unknown_format_fails_before_playing(self, tmp_path, data_csv,
                                                 model_file, capsys):
        log = tmp_path / "episodes.jsonl"
        code = main(["compare", "--model", str(model_file), "--data", str(data_csv),
                     "--games", "30", "--episode-log", str(log), "--format", "bogus"])
        assert code == 1
        assert "unknown report format 'bogus'" in capsys.readouterr().err
        assert not log.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--policy-b", "bogus"], "unknown policy 'bogus'"),
        (["--policy-b", "center", "--games", "0"], "games and shots_per_game must be >= 1"),
        (["--policy-b", "center", "--shots", "0"], "games and shots_per_game must be >= 1"),
        (["--policy-b", "center", "--lda-train-scenes", "0"],
         "--lda-train-scenes must be >= 1, got 0"),
    ])
    def test_bad_arguments_fail_before_building_policies(self, flags, message, tmp_path,
                                                         capsys, monkeypatch):
        def no_training_scenes(*args, **kwargs):
            raise AssertionError("the lda policy was built")

        monkeypatch.setattr(cli, "lda_training_scenes", no_training_scenes)
        out = tmp_path / "report.txt"
        assert main(["compare", "--policy-a", "lda", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err
        # one error: line, led by the bad value's flag
        assert err.startswith(f"error: {flags[-2]}") and err.count("\n") == 1
        assert not out.exists()


# eval and compare, the mlp on either side, each given a model file.
_MODEL_COMMANDS = pytest.mark.parametrize("command", [
    ["eval", "--data", "/no/such/file.csv"],
    ["compare", "--policy-b", "lda", "--episode-log", "LOG"],
    ["compare", "--policy-a", "center", "--policy-b", "mlp", "--episode-log", "LOG"],
    ["compare", "--policy-a", "lda", "--policy-b", "mlp", "--episode-log", "LOG"],
    ["compare", "--policy-a", "lda", "--policy-b", "mlp", "--data", "/no/such/file.csv"]],
    ids=["eval", "compare-mlp-lda", "compare-center-mlp", "compare-lda-mlp",
         "compare-lda-mlp-data"])


def _rejects_model(model, command, tmp_path, capsys, monkeypatch):
    """The command exits 1 with one error: line naming the model file, and
    generates no scene for the lda and leaves an existing episode log as it was."""
    def no_training_scenes(*args, **kwargs):
        raise AssertionError("the lda policy was built")

    monkeypatch.setattr(cli, "lda_training_scenes", no_training_scenes)
    log = tmp_path / "old.log"
    log.write_bytes(b"an earlier run's log\n")
    argv = [str(log) if arg == "LOG" else arg for arg in command]
    capsys.readouterr()
    assert main([*argv, "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(model) in err
    assert log.read_bytes() == b"an earlier run's log\n"


class TestModelShape:
    """A model file whose layers do not fit the 22 features and the two
    scored nodes fails eval and compare in one line naming the file, before
    the CSV is read, the lda is fitted or the episode log is opened."""

    @pytest.mark.parametrize("layer_sizes", [(22, 5, 1), (22, 5, 3), (3, 4, 2)],
                             ids=["22-5-1", "22-5-3", "3-4-2"])
    @_MODEL_COMMANDS
    def test_rejected_at_load(self, tmp_path, layer_sizes, command, capsys, monkeypatch):
        model = write_model(tmp_path / "model.json", layer_sizes)
        _rejects_model(model, command, tmp_path, capsys, monkeypatch)


class TestUnreadableModel:
    """So does a model file that is cut short, not UTF-8 or of another
    version."""

    @pytest.mark.parametrize("damage", [
        lambda text: text[:40].encode(), lambda text: b"\xff" + text.encode(),
        lambda text: text.replace('"version": 1', '"version": 2').encode()],
        ids=["truncated", "not-utf8", "version-2"])
    @_MODEL_COMMANDS
    def test_rejected_at_load(self, tmp_path, damage, command, capsys, monkeypatch):
        model = write_model(tmp_path / "model.json", (22, 5, 2))
        model.write_bytes(damage(model.read_text(encoding="utf-8")))
        _rejects_model(model, command, tmp_path, capsys, monkeypatch)


class TestGeneratorChecks:
    """A config whose generator does not fit its field or its dynamics
    fails gen-data and compare in one error line that names the file and
    the keys, before any scene is drawn or any output opened: an existing
    episode log keeps its bytes."""

    @pytest.fixture(params=[
        ("[gen]\nkick_power_max = 150\n",
         "[gen] kick_power_max 150.0 exceeds [dynamics] max_power 100.0"),
        ("[dynamics]\nmax_power = 60\n",
         "[gen] kick_power_max 100.0 exceeds [dynamics] max_power 60.0"),
        ("[gen]\nx_max = 60\n", "ball sampling region reaches the goal line: "
         "[gen] x_max 60.0 >= [field] field_length / 2 = 52.5"),
        ("[field]\nfield_length = 80\n", "ball sampling region reaches the goal line: "
         "[gen] x_max 45.5 >= [field] field_length / 2 = 40.0"),
        ("[gen]\nx_min = -60\n", "ball sampling region leaves the field: "
         "[gen] x_min -60.0 <= -[field] field_length / 2 = -52.5"),
        ("[gen]\ny_half_range = 40\n", "ball sampling region leaves the field: "
         "[gen] y_half_range 40.0 > [field] field_width / 2 = 34.0"),
        ("[gen]\ntarget_margin = 8\n", "no goal mouth to aim at: "
         "[gen] target_margin 8.0 >= [field] goal_width / 2 = 7.01"),
    ], ids=["kick-power-max", "max-power", "x-max", "field-length", "x-min", "y-half-range",
            "target-margin"])
    def bad_ini(self, request, tmp_path):
        text, message = request.param
        path = tmp_path / "gen.ini"
        path.write_text(text, encoding="utf-8")
        return path, message

    @staticmethod
    def _fails(argv, path, message, capsys):
        capsys.readouterr()
        assert main([*argv, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: config file {path}: {message}\n"
        assert captured.out == ""

    def test_gen_data(self, bad_ini, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "generate_synthetic_scenes", None)  # never reached
        out = tmp_path / "out.csv"
        self._fails(["gen-data", "--n", "5", "--out", str(out)], *bad_ini, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("with_data", [True, False], ids=["data", "generated-lda"])
    def test_compare_keeps_an_existing_episode_log(self, bad_ini, with_data, data_csv,
                                                   model_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "lda_training_scenes", None)  # never reached
        log = tmp_path / "old.log"
        log.write_bytes(b"an earlier run's log\n")
        data = ["--data", str(data_csv)] if with_data else []
        self._fails(["compare", *data, "--model", str(model_file), "--episode-log", str(log)],
                    *bad_ini, capsys)
        assert log.read_bytes() == b"an earlier run's log\n"


class TestAimTable:
    def test_grid_symmetric_and_bounded(self, capsys):
        assert main(["aim-table", "--distance-count", "3", "--y-count", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "ball_x,ball_y,target_y,p_left,p_right,p_goal"
        table = {}
        for line in rows[1:]:
            x, y, ty, pl, pr, pg = (float(v) for v in line.split(","))
            for p in (pl, pr, pg):
                assert 0.0 <= p <= 1.0
            table[(round(x, 9), round(y, 9), round(ty, 9))] = pg
        for (x, y, ty), pg in table.items():
            assert abs(table[(x, -y, -ty)] - pg) < 1e-9

    def test_monte_carlo_column(self, capsys):
        assert main(["aim-table", "--distance-count", "1", "--y-count", "1",
                     "--mc-rollouts", "30", "--seed", "8"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].endswith(",mc_p_goal")
        values = rows[1].split(",")
        assert len(values) == 7
        assert 0.0 <= float(values[-1]) <= 1.0

    @pytest.mark.parametrize("rollouts,ini", [
        (1, ""), (7, ""), (300, ""), (7, "[dynamics]\nnoise_coefficient = 0\n")])
    def test_monte_carlo_column_matches_per_call_draws(self, rollouts, ini, tmp_path,
                                                       capsys):
        """The column draws its uniforms in blocks; a loop that calls
        rng.random() once per uniform gives the same column."""
        path = tmp_path / "run.ini"
        path.write_text(ini, encoding="utf-8")
        assert main(["aim-table", "--config", str(path), "--distance-count", "2",
                     "--y-count", "2", "--mc-rollouts", str(rollouts), "--seed", "5"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        config = load_run_config(path)
        field, rng = config.field, np.random.default_rng(5)
        targets = discretize_targets(field, config.aim)
        assert len(rows) == 4 * len(targets)
        for i, row in enumerate(rows):
            ball, target = Vec2(float(row[0]), float(row[1])), targets[i % len(targets)]
            assert float(row[2]) == target.y
            state = kick(BallState.at_rest(ball), 100.0, (target - ball).angle(),
                         config.dynamics)
            goals = 0
            for _ in range(rollouts):
                outcome = rollout_to_goal_line(state, config.dynamics, field, rng)
                goals += (outcome.crossed
                          and abs(outcome.lateral_at_goal_line) <= field.goal_width / 2)
            assert row[-1] == repr(goals / rollouts)

    def test_monte_carlo_power_above_max_fails(self, capsys):
        assert main(["aim-table", "--distance-count", "1", "--y-count", "1",
                     "--mc-rollouts", "3", "--mc-power", "500"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --mc-power must be in [0, 100.0] ([dynamics] max_power), "
                                "got 500.0\n")

    @pytest.mark.parametrize("power,ini,bound", [
        ("150", "", "100.0"), ("nan", "", "100.0"), ("-1", "", "100.0"),
        ("100", "[dynamics]\nmax_power = 60\n", "60.0")])
    def test_monte_carlo_power_rejected_before_any_rollout(self, power, ini, bound, tmp_path,
                                                           monkeypatch, capsys):
        config = tmp_path / "run.ini"
        config.write_text(ini, encoding="utf-8")
        monkeypatch.setattr(cli, "p_goal", lambda *args: pytest.fail("grid computed"))
        assert main(["aim-table", "--config", str(config), "--distance-count", "1",
                     "--y-count", "1", "--mc-rollouts", "3", "--mc-power", power]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --mc-power must be in [0, {bound}] ([dynamics] "
                                f"max_power), got {float(power)!r}\n")

    def test_monte_carlo_power_unused_without_rollouts(self, capsys):
        assert main(["aim-table", "--distance-count", "1", "--y-count", "1",
                     "--mc-power", "150"]) == 0
        assert capsys.readouterr().out.startswith("ball_x,ball_y,target_y,")

    @pytest.mark.parametrize("flags", [
        ["--distance-count", "1", "--y-count", "1", "--mc-rollouts", "-3"],
        ["--distance-count", "0"],
        ["--y-count", "0"],
    ])
    def test_invalid_counts_fail(self, flags, capsys):
        assert main(["aim-table"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("bad,other", [("--distance-count", "--y-count"),
                                           ("--y-count", "--distance-count")])
    def test_a_bad_count_names_its_flag_alone(self, bad, other, capsys):
        """The error line is led by the bad count's flag and does not name
        the other count's."""
        assert main(["aim-table", bad, "0", other, "2"]) == 1
        assert capsys.readouterr().err == f"error: {bad} must be >= 1, got 0\n"

    @pytest.mark.parametrize("flags", [
        ["--y-half", "36", "--min-distance", "5", "--max-distance", "5"],
        ["--y-half=-34.5"],
        ["--max-distance", "110"],
    ])
    def test_grid_off_the_pitch_fails(self, flags, tmp_path, capsys):
        out = tmp_path / "aim.csv"
        assert main(["aim-table", *flags, "--distance-count", "1", "--y-count", "2",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: grid ball off the pitch at distance ")
        assert "with --y-half " in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("flags,ini,message", [
        (["--min-distance", "0"], "",
         "--min-distance must be > 0 (the ball in front of the goal line), got 0.0"),
        (["--min-distance", "1e-20"], "",
         "--min-distance must be > 0 (the ball in front of the goal line), got 1e-20"),
        (["--min-distance", "20", "--max-distance", "-0.0"], "",
         "--max-distance must be > 0 (the ball in front of the goal line), got -0.0"),
        (["--max-distance", "40", "--y-half", "20"], "",
         "--max-distance 40.0 with --y-half 20.0 puts a grid ball at or beyond the sigma "
         "horizon 45.0 ([aim] sigma_horizon)"),
        (["--min-distance", "45", "--max-distance", "10", "--y-half", "0"], "",
         "--min-distance 45.0 with --y-half 0.0 puts a grid ball at or beyond the sigma "
         "horizon 45.0 ([aim] sigma_horizon)"),
        ([], "[aim]\nsigma_horizon = 25\n",
         "--max-distance 28.0 with --y-half 12.0 puts a grid ball at or beyond the sigma "
         "horizon 25.0 ([aim] sigma_horizon)"),
    ])
    def test_grid_behind_the_line_or_the_horizon_fails_before_any_cell(
            self, flags, ini, message, tmp_path, monkeypatch, capsys):
        config = tmp_path / "run.ini"
        config.write_text(ini, encoding="utf-8")
        out = tmp_path / "aim.csv"
        monkeypatch.setattr(cli, "p_goal", lambda *args: pytest.fail("grid computed"))
        assert main(["aim-table", "--config", str(config), *flags, "--mc-rollouts", "3",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_grid_on_the_touchline_passes(self, capsys):
        assert main(["aim-table", "--y-half", "34", "--min-distance", "5",
                     "--max-distance", "5", "--distance-count", "1", "--y-count", "2"]) == 0
        ys = {line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]}
        assert ys == {"-34.0", "34.0"}


_BAD_GRID = ["--y-half", "36", "--min-distance", "5", "--max-distance", "5",
             "--distance-count", "1", "--y-count", "2"]


@pytest.mark.parametrize("launcher", [["-m", "goalshot.cli"],
                                      ["-c", "from goalshot.cli import entry; entry()"]])
@pytest.mark.parametrize("grid,code", [(["--distance-count", "1", "--y-count", "1"], 0),
                                       (_BAD_GRID, 1)])
def test_entry_points_exit_codes(launcher, grid, code):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, *launcher, "aim-table", *grid], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == code
    if code:
        assert result.stdout == ""
        assert result.stderr == ("error: grid ball off the pitch at distance 5.0 "
                                 "with --y-half 36.0\n")
    else:
        assert result.stdout.startswith("ball_x,ball_y,target_y,")


class TestSimulationCallSites:
    """The CLI reaches the simulation core through the names that
    perfbench's `dynamics.*` and `keeper.*` spans wrap in the calling
    modules, once per rollout and once per labeled scene, and the scene
    generator, writer and reader through the names its `scenes.*` spans
    wrap."""

    def test_aim_table_calls_the_rollout_once_per_rollout(self, tmp_path, monkeypatch):
        calls = []
        rollout = cli.rollout_to_goal_line
        monkeypatch.setattr(cli, "rollout_to_goal_line",
                            lambda *args, **kwargs: calls.append(args) or rollout(*args, **kwargs))
        assert main(["aim-table", "--distance-count", "2", "--y-count", "3",
                     "--mc-rollouts", "4", "--out", str(tmp_path / "aim.csv")]) == 0
        config = RunConfig()
        cells = 2 * 3 * len(discretize_targets(config.field, config.aim))
        assert len(calls) == cells * 4

    def test_gen_data_calls_the_shot_once_per_scene(self, tmp_path, monkeypatch):
        calls = []
        shot = goalshot.scenes.simulate_shot
        monkeypatch.setattr(goalshot.scenes, "simulate_shot",
                            lambda *args, **kwargs: calls.append(args) or shot(*args, **kwargs))
        assert main(["gen-data", "--n", "7", "--out", str(tmp_path / "scenes.csv")]) == 0
        assert len(calls) == 7

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
        return calls

    def test_gen_data_generates_and_saves_once(self, tmp_path, monkeypatch):
        generated = self._count(monkeypatch, cli, "generate_synthetic_scenes")
        saved = self._count(monkeypatch, cli, "save_scenes")
        assert main(["gen-data", "--n", "7", "--out", str(tmp_path / "scenes.csv")]) == 0
        assert (len(generated), len(saved)) == (1, 1)

    def test_compare_generates_each_game_through_the_experiment(self, tmp_path, monkeypatch):
        generated = self._count(monkeypatch, goalshot.experiment, "draw_scenes")
        assert main(["compare", "--policy-a", "center", "--policy-b", "center",
                     "--games", "3", "--shots", "2", "--out", str(tmp_path / "r.txt")]) == 0
        assert len(generated) == 3

    def test_compare_without_data_fits_the_lda_on_one_generated_table(self, tmp_path,
                                                                     monkeypatch):
        generated = self._count(monkeypatch, cli, "lda_training_scenes")
        assert main(["compare", "--policy-a", "lda", "--policy-b", "center",
                     "--lda-train-scenes", "40", "--games", "1", "--shots", "2",
                     "--out", str(tmp_path / "r.txt")]) == 0
        assert len(generated) == 1

    def test_compare_with_data_loads_it_once(self, tmp_path, monkeypatch):
        data = tmp_path / "scenes.csv"
        assert main(["gen-data", "--n", "20", "--out", str(data)]) == 0
        loaded = self._count(monkeypatch, cli, "load_scenes")
        assert main(["compare", "--policy-a", "lda", "--policy-b", "center", "--data", str(data),
                     "--games", "1", "--shots", "2", "--out", str(tmp_path / "r.txt")]) == 0
        assert len(loaded) == 1


class TestParser:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("gen-data", "stats", "train", "eval", "compare", "aim-table"):
            assert name in out

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--n", "1", "--out", "x.csv", "--frobnicate"])
        assert exc.value.code != 0

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_values_do_not_leak_between_calls(self, monkeypatch):
        seen = []
        for name in ("cmd_gen_data", "cmd_train", "cmd_eval"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
        calls = [
            (["gen-data", "--n", "5", "--out", "a.csv", "--seed", "3"], "seed", 3),
            (["gen-data", "--n", "5", "--out", "a.csv"], "seed", None),
            (["eval", *_REQUIRED["eval"], "--use-test-split"], "use_test_split", True),
            (["eval", *_REQUIRED["eval"]], "use_test_split", False),
            (["train", *_REQUIRED["train"], "--report-out", "r.json"], "report_out", "r.json"),
            (["train", *_REQUIRED["train"]], "report_out", None),
        ]
        for argv, key, value in calls:
            assert main(argv) == 0
            assert getattr(seen[-1], key) == value
        assert len(seen) == len(calls)

    def test_valid_call_after_a_rejection(self, tmp_path, capsys):
        out = tmp_path / "scenes.csv"
        for argv in (["gen-data", "--n", "five", "--out", str(out)],
                     ["gen-data", "--out", str(out)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert main(["gen-data", "--n", "5", "--out", str(out)]) == 0
        assert len(load_scenes(out)) == 5

    def test_command_replaced_after_the_first_call_runs(self, tmp_path, monkeypatch,
                                                        capsys):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["gen-data", "--n", "5", "--out", str(first)]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_gen_data", lambda args: seen.append(args.out) or 0)
        assert main(["gen-data", "--n", "5", "--out", str(second)]) == 0
        assert seen == [str(second)]
        assert first.exists() and not second.exists()

    def test_config_file_drives_commands(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nseed = 9\n[gen]\nmax_defenders = 0\n",
                          encoding="utf-8")
        out = tmp_path / "scenes.csv"
        assert main(["gen-data", "--config", str(config), "--n", "20",
                     "--out", str(out)]) == 0
        scenes = load_scenes(out)
        assert all(len(s.defenders) == 0 for s in scenes)
