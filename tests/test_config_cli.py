import json

import pytest

import goalshot.cli as cli
from goalshot.cli import main
from goalshot.config import RunConfig, load_run_config
from goalshot.experiment import stats_pair_from_json
from goalshot.keeper import KeeperModel
from goalshot.scenes import load_scenes


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
        for section, key in (("dynamics", "friction"), ("train", "compare_to_previous")):
            path.write_text(f"[{section}]\n{key} = 1\n", encoding="utf-8")
            with pytest.raises(ValueError, match=f"unknown key '{key}' in section \\[{section}\\]"):
                load_run_config(path)

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
        assert captured.err == f"error: [{section}] {key}: non-finite value '{raw}'\n"
        assert captured.out == ""
        assert not out.exists()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_run_config(tmp_path / "nope.ini")


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

    def test_zero_count_fails(self, tmp_path, capsys):
        code = main(["gen-data", "--n", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

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
    ])
    def test_bad_arguments_fail_before_building_policies(self, flags, message, capsys,
                                                         monkeypatch):
        def no_training_scenes(*args, **kwargs):
            raise AssertionError("the lda policy was built")

        monkeypatch.setattr(cli, "generate_synthetic_scenes", no_training_scenes)
        assert main(["compare", "--policy-a", "lda", *flags]) == 1
        assert message in capsys.readouterr().err


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

    def test_monte_carlo_power_above_max_fails(self, capsys):
        assert main(["aim-table", "--distance-count", "1", "--y-count", "1",
                     "--mc-rollouts", "3", "--mc-power", "500"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: power must be in [0, 100.0], got 500.0\n"

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

    def test_config_file_drives_commands(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nseed = 9\n[gen]\nmax_defenders = 0\n",
                          encoding="utf-8")
        out = tmp_path / "scenes.csv"
        assert main(["gen-data", "--config", str(config), "--n", "20",
                     "--out", str(out)]) == 0
        scenes = load_scenes(out)
        assert all(len(s.defenders) == 0 for s in scenes)
