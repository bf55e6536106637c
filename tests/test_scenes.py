import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goalshot.scenes
from conftest import from_scenes, make_scene, random_scene
from goalshot.config import RunConfig
from goalshot.dynamics import UNIFORM_BLOCK, BlockUniforms, DynamicsConfig
from goalshot.geometry import Vec2
from goalshot.keeper import KeeperModel
from goalshot.scenes import (CSV_HEADER, FEATURE_NAMES, MAX_DEFENDERS, SCALAR_COLUMNS,
                             GeneratorConfig, KickScene, Label, SceneTable,
                             balance_by_replication, draw_scenes, extract_features,
                             feature_matrix, generate_synthetic_scenes, load_scenes,
                             save_scenes, split_dataset, univariate_stats)
from oracles import filter_defenders, mirror_scene, save_scenes_csv_writer

CFG = RunConfig()

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POINTS = st.builds(Vec2, _FINITE, _FINITE)
# Any finite scene that load_scenes accepts under the default field and
# dynamics: the ball inside the field and before the goal line, the target
# on the goal line (within its tolerance) and inside the mouth.
_LOADABLE_SCENES = st.builds(
    KickScene,
    time=st.integers(-2**63, 2**63),
    ball=st.builds(Vec2, st.floats(-52.5, 52.5, exclude_max=True), st.floats(-34.0, 34.0)),
    ball_velocity=_POINTS,
    attacker=_POINTS,
    attacker_body_angle=_FINITE,
    keeper=_POINTS,
    defenders=st.lists(_POINTS, max_size=MAX_DEFENDERS).map(tuple),
    kick_power=st.floats(0.0, DynamicsConfig().max_power),
    target=st.builds(Vec2, st.floats(52.5 - 5e-10, 52.5 + 5e-10), st.floats(-7.01, 7.01)),
    label=st.sampled_from(Label),
)

# Loadable scenes near the pitch whose defenders fall both inside the filter
# band in front of the attacker and anywhere around it, band edges included.
_NEAR = st.floats(-60.0, 60.0)
_TABLE_SCENES = st.builds(
    KickScene,
    time=st.integers(-2**70, 2**70),
    ball=st.builds(Vec2, st.floats(-52.5, 45.0), st.floats(-34.0, 34.0)),
    ball_velocity=st.builds(Vec2, _NEAR, _NEAR),
    attacker=st.builds(Vec2, st.floats(-60.0, 45.0), _NEAR),
    attacker_body_angle=_FINITE,
    keeper=st.builds(Vec2, _NEAR, _NEAR),
    defenders=st.lists(st.one_of(
        st.builds(Vec2, st.floats(45.0, 52.5), st.floats(-20.16, 20.16)),
        st.builds(Vec2, _NEAR, _NEAR)), max_size=MAX_DEFENDERS).map(tuple),
    kick_power=st.floats(0.0, DynamicsConfig().max_power),
    target=st.builds(Vec2, st.floats(52.5 - 5e-10, 52.5 + 5e-10), st.floats(-7.01, 7.01)),
    label=st.sampled_from(Label),
)


class TestExtractFeatures:
    def test_names_and_length(self, field):
        fv = extract_features(make_scene(), field)
        assert len(FEATURE_NAMES) == 22
        assert fv.shape == (22,)
        assert np.all(np.isfinite(fv))

    def test_keeper_on_shot_line_gives_zero_angle(self, field):
        scene = make_scene(ball=Vec2(30.0, 2.0), target=Vec2(52.5, 2.0),
                           keeper=Vec2(45.0, 2.0))
        fv = extract_features(scene, field)
        idx = FEATURE_NAMES.index("angle_ball_keeper_destiny")
        assert abs(fv[idx]) < 1e-12
        idx = FEATURE_NAMES.index("keeper_abs_offset_from_shot_line")
        assert abs(fv[idx]) < 1e-12

    def test_vision_angle_ten_meters_out(self, field):
        scene = make_scene(attacker=Vec2(42.5, 0.0))
        fv = extract_features(scene, field)
        idx = FEATURE_NAMES.index("angle_attacker_vision")
        assert math.isclose(fv[idx], 2.0 * math.atan(7.01 / 10.0), abs_tol=1e-12)

    def test_no_defenders_uses_sentinels(self, field):
        fv = extract_features(make_scene(defenders=()), field)
        by_name = dict(zip(FEATURE_NAMES, fv))
        assert by_name["filtered_defender_count"] == 0.0
        assert by_name["def1_distance_to_ball"] == field.field_length
        assert by_name["def1_abs_offset_from_shot_line"] == field.penalty_area_width
        assert by_name["def3_distance_to_ball"] == field.field_length

    def test_mirror_flips_only_signed_laterals(self, field):
        signed = {"ball_y", "keeper_y", "target_lateral"}
        flip = np.array([-1.0 if name in signed else 1.0 for name in FEATURE_NAMES])
        generated = generate_synthetic_scenes(300, replace(CFG.gen, x_min=5.0),
                                              CFG.dynamics, field, seed=16).scenes()
        rng = np.random.default_rng(3)
        # random_scene bodies lie anywhere in +-3 rad of the shot.
        drawn = [random_scene(rng, field) for _ in range(2000)]
        for scene in generated + drawn:
            expected = (flip * extract_features(scene, field)).tolist()
            assert extract_features(mirror_scene(scene), field).tolist() == expected


class TestFilterDefenders:
    def test_defender_behind_attacker_excluded(self, field):
        scene = make_scene(ball=Vec2(30.0, 0.0), defenders=(Vec2(25.0, 0.0),))
        assert filter_defenders(scene, field) == []

    def test_defender_outside_lateral_band_excluded(self, field):
        scene = make_scene(ball=Vec2(30.0, 0.0),
                           defenders=(Vec2(40.0, field.penalty_area_width / 2 + 0.1),))
        assert filter_defenders(scene, field) == []

    def test_matches_brute_force_on_random_scenes(self, field):
        rng = np.random.default_rng(5)
        for _ in range(200):
            scene = random_scene(rng, field)
            expected = []
            for d in scene.defenders:
                in_front = scene.attacker.x <= d.x <= field.goal_line_x
                in_band = abs(d.y) <= field.penalty_area_width / 2
                if in_front and in_band:
                    expected.append(d)
            expected.sort(key=lambda d: math.hypot(d.x - scene.ball.x,
                                                   d.y - scene.ball.y))
            assert filter_defenders(scene, field) == expected

    def test_subset_and_idempotent(self, field):
        rng = np.random.default_rng(7)
        for _ in range(50):
            scene = random_scene(rng, field)
            kept = filter_defenders(scene, field)
            assert all(d in scene.defenders for d in kept)
            refiltered = filter_defenders(replace(scene, defenders=tuple(kept)),
                                          field)
            assert refiltered == kept


class TestCsvRoundTrip:
    def test_round_trip_random_scenes(self, field, tmp_path):
        rng = np.random.default_rng(11)
        scenes = [random_scene(rng, field,
                               label=Label.GOAL if rng.random() < 0.5 else Label.NO_GOAL)
                  for _ in range(100)]
        path = tmp_path / "scenes.csv"
        save_scenes(from_scenes(scenes), path)
        assert load_scenes(path, field) == scenes

    @settings(max_examples=100, deadline=None)
    @given(scenes=st.lists(_LOADABLE_SCENES, max_size=4))
    def test_round_trip_arbitrary_finite_scenes(self, scenes, tmp_path_factory):
        path = tmp_path_factory.mktemp("round_trip") / "scenes.csv"
        save_scenes(from_scenes(scenes), path)
        loaded = load_scenes(path)
        assert loaded == scenes
        assert repr(loaded) == repr(scenes)  # also the sign of each zero

    def test_bytes_equal_the_csv_writer(self, tmp_path):
        """save_scenes joins its lines and writes them once; the bytes are
        csv.writer's, on rows with no defender and with MAX_DEFENDERS, on
        extreme finite values, a time above 2**63 and both labels."""
        extremes = [-0.0, 5e-324, 1e-05, 1e16]
        values = [extremes[i % 4] for i in range(12)]
        rows = [values, values + extremes * (MAX_DEFENDERS // 2),
                values[::-1] + [1e16, -0.0] * MAX_DEFENDERS]
        times = [0, 2 ** 63 + 1, 3 ** 90]
        for table in (SceneTable._of_rows(times, rows, [True, False, True]),
                      SceneTable._of_rows([], [], [])):
            got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
            save_scenes(table, got)
            save_scenes_csv_writer(table, expected)
            assert got.read_bytes() == expected.read_bytes()

    def test_header_only_file(self, field, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_HEADER) + "\n", encoding="utf-8")
        assert load_scenes(path, field) == []

    def test_bad_number_names_line_and_column(self, field, tmp_path):
        scenes = [make_scene(label=Label.GOAL)]
        path = tmp_path / "bad.csv"
        save_scenes(from_scenes(scenes), path)
        text = path.read_text(encoding="utf-8").replace("85.0", "eighty")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="line 2, column 'kick_power'"):
            load_scenes(path, field)

    def test_bad_label_rejected(self, field, tmp_path):
        path = tmp_path / "bad.csv"
        save_scenes(from_scenes([make_scene(label=Label.GOAL)]), path)
        path.write_text(path.read_text(encoding="utf-8").replace("GOAL", "MAYBE"),
                        encoding="utf-8")
        with pytest.raises(ValueError, match="label"):
            load_scenes(path, field)

    def test_out_of_bounds_ball_rejected(self, field, tmp_path):
        path = tmp_path / "oob.csv"
        save_scenes(from_scenes([make_scene(ball=Vec2(32.5, 0.0), label=Label.GOAL)]), path)
        path.write_text(path.read_text(encoding="utf-8").replace("32.5", "90.0"),
                        encoding="utf-8")
        with pytest.raises(ValueError, match="bounds"):
            load_scenes(path, field)

    @pytest.mark.parametrize("column, value, message", [
        ("target_x", "40.0", "off the goal line"),
        ("target_y", "30.0", "outside the goal mouth"),
        ("ball_x", "52.5", "on or past the goal line"),
        ("kick_power", "150.0", "max_power"),
    ])
    def test_row_geometry_rejected(self, field, tmp_path, column, value, message):
        path = tmp_path / "geometry.csv"
        save_scenes(from_scenes([make_scene(label=Label.GOAL)] * 2), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[CSV_HEADER.index(column)] = value
        path.write_text("\n".join(lines[:2] + [",".join(cells)]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"line 3, column '{column}': .*{message}"):
            load_scenes(path, field)

    def test_half_defender_rejected(self, field, tmp_path):
        path = tmp_path / "half.csv"
        save_scenes(from_scenes([make_scene(defenders=(Vec2(40.0, 1.0),), label=Label.GOAL)]),
                    path)
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        cells[CSV_HEADER.index("def1_y")] = ""
        path.write_text(lines[0] + "\n" + ",".join(cells) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="def1"):
            load_scenes(path, field)

    def test_cell_over_the_csv_field_limit_names_its_line(self, field, tmp_path):
        """A cell longer than csv's field size limit fails as a ValueError
        naming its line, not as csv.Error."""
        path = tmp_path / "huge.csv"
        save_scenes(from_scenes([make_scene(label=Label.GOAL)] * 2), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace("85.0", "8" * 131_073, 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for load in (SceneTable.load, load_scenes):
            with pytest.raises(ValueError) as raised:
                load(path, field)
            assert str(raised.value) == (
                f"scene file {path}: line 3: field larger than field limit (131072)")

    def test_wrong_header_rejected(self, field, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            load_scenes(path, field)
        assert str(raised.value) == (
            f"scene file {path}: unexpected header: expected {','.join(CSV_HEADER)}")

    def test_empty_file_is_named(self, field, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            SceneTable.load(path, field)
        assert str(raised.value) == f"scene file {path}: empty file: missing header row"

    def test_first_bad_line_is_reported(self, field, tmp_path):
        """A range error on line 3 is reported before a non-number on line 4."""
        path = tmp_path / "order.csv"
        save_scenes(from_scenes([make_scene(label=Label.GOAL)] * 3), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace("32.5", "90.0", 1)
        lines[3] = lines[3].replace("85.0", "eighty")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            SceneTable.load(path, field)
        assert str(raised.value) == (
            f"scene file {path}: line 3, column 'ball_x': ball outside field bounds")

    @pytest.mark.parametrize("changes, message", [
        # A bad cell is reported before a failed range, cells in column order.
        ({"ball_x": "90.0", "kick_power": "eighty"},
         "line 2, column 'kick_power': not a number: 'eighty'"),
        ({"ball_y": "nan", "keeper_x": "x"}, "line 2, column 'ball_y': non-finite value 'nan'"),
        ({"label": "MAYBE", "def2_y": "inf"},
         "line 2, column 'label': expected GOAL or NO_GOAL, got 'MAYBE'"),
        ({"def1_x": "", "def2_x": "1e999"},
         "line 2, column 'def1_x': defender 1 has only one coordinate"),
        ({"time": "1.5", "ball_x": "x"}, "line 2, column 'time': not an integer: '1.5'"),
        ({"target_y": "30.0", "kick_power": "150.0"},
         "line 2, column 'target_y': target outside the goal mouth"),
        ({"kick_power": "-1.0"}, "line 2: kick_power must be finite and >= 0"),
        ({"kick_power": "-0.0"}, None),
        # A defender given after an empty slot loads, as def1 onwards.
        ({"def1_x": "", "def1_y": "", "def3_x": "40.0", "def3_y": "2.0"}, None),
        # A cell with a comma in it makes one cell more.
        ({"def10_y": "1.0,2.0"}, "line 2: expected 34 cells, got 35"),
        # The row's only defect: the fast path's finite test sends it to the cell scan.
        ({"ball_y": "inf"}, "line 2, column 'ball_y': non-finite value 'inf'"),
    ])
    def test_row_errors_keep_their_text(self, field, tmp_path, changes, message):
        path = tmp_path / "row.csv"
        save_scenes(from_scenes([make_scene(defenders=(Vec2(40.0, 1.0), Vec2(41.0, -1.0)),
                                            label=Label.GOAL)]), path)
        header, row = path.read_text(encoding="utf-8").splitlines()
        cells = row.split(",")
        for column, value in changes.items():
            cells[CSV_HEADER.index(column)] = value
        path.write_text(header + "\n" + ",".join(cells) + "\n", encoding="utf-8")
        if message is None:
            table = SceneTable.load(path, field)
            assert table.scenes() == load_scenes(path, field)
            return
        for load in (SceneTable.load, load_scenes):
            with pytest.raises(ValueError) as raised:
                load(path, field)
            assert str(raised.value) == f"scene file {path}: {message}"


def _outcome(fn, *args):
    """What fn returns, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _hex_rows(matrix):
    return [[float.hex(v) for v in row] for row in matrix.tolist()]


def _row_by_row(scenes):
    """The hex feature rows of extract_features on each scene in turn, or
    the first scene's error."""
    return _outcome(lambda: _hex_rows(np.array(
        [extract_features(s, CFG.field) for s in scenes]).reshape(-1, 22)))


# Rows at the edge of the feature kernel's checks, with the error each
# raises (None: the row is valid).
_EDGE_SCENES = {
    "ball on the target": (make_scene(ball=Vec2(52.5, 1.0), target=Vec2(52.5, 1.0)),
                           "cannot normalize a zero-length vector"),
    "keeper offset overflows": (make_scene(keeper=Vec2(-1e308, 0.0), ball=Vec2(1e308, 0.0)),
                                "Vec2 component must be finite, got -inf"),
    "defender offset overflows": (make_scene(ball=Vec2(1.7e308, 0.0),
                                             attacker=Vec2(-1.7e308, 0.0),
                                             defenders=(Vec2(-1.7e308, 0.0),)),
                                  "Vec2 component must be finite, got -inf"),
    "shot length overflows": (make_scene(ball=Vec2(-1.7e308, -1.7e308)),
                              "Ray direction must be a unit vector"),
    # Only the three threats nearest the ball are offset-checked.
    "fourth threat offset overflows": (make_scene(
        ball=Vec2(1.7e308, 0.0), attacker=Vec2(-1.7e308, 0.0),
        defenders=(Vec2(-1.7e308, 0.0), Vec2(50.0, 1.0), Vec2(51.0, 2.0), Vec2(49.0, -1.0))),
        None),
    # A threat whose distance to the ball overflows still sorts before the
    # defender outside the band that is listed first.
    "threat distance overflows": (make_scene(ball=Vec2(0.0, 1.7e308),
                                             attacker=Vec2(-1.7e308, 0.0),
                                             defenders=(Vec2(40.0, 30.0), Vec2(-1.7e308, 0.0))),
                                  None),
}


class TestSceneTable:
    @settings(max_examples=150, deadline=None)
    @given(scenes=st.lists(_TABLE_SCENES, max_size=12))
    def test_from_scenes_matches_a_round_trip(self, scenes, tmp_path_factory):
        """from_scenes gives, field for field, the table that SceneTable.load
        reads back from save_scenes; its feature rows have the bits of
        extract_features of each scene."""
        path = tmp_path_factory.mktemp("table") / "scenes.csv"
        table = from_scenes(scenes)
        save_scenes(table, path)
        loaded = SceneTable.load(path)
        for name in ("values", "defenders", "defender_count", "goal"):
            mine, theirs = getattr(table, name), getattr(loaded, name)
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert np.array_equal(mine, theirs, equal_nan=True)
            assert np.array_equal(np.signbit(mine), np.signbit(theirs))
        times = table.time.tolist()
        assert times == loaded.time.tolist() == [s.time for s in scenes]
        assert all(type(t) is int for t in times)
        assert len(table) == len(scenes) and table.scenes() == scenes
        assert table.goal.tolist() == [s.label is Label.GOAL for s in scenes]
        assert (_outcome(lambda: _hex_rows(feature_matrix(table, CFG.field)))
                == _outcome(lambda: _hex_rows(np.array(
                    [extract_features(s, CFG.field) for s in scenes]).reshape(-1, 22))))

    def test_from_scenes_rejects_an_unlabeled_scene(self):
        with pytest.raises(ValueError, match="every scene must be labeled"):
            from_scenes([make_scene(label=Label.GOAL), make_scene()])

    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("edge", list(_EDGE_SCENES))
    def test_feature_matrix_on_an_edge_row(self, edge, position):
        """A table with one edge row, first, in the middle or last, gives the
        rows or the error (type and message) of extract_features row by row."""
        scene, error = _EDGE_SCENES[edge]
        rng = np.random.default_rng(position)
        scenes = [random_scene(rng, label=Label.GOAL) for _ in range(6)]
        scenes.insert(position, replace(scene, label=Label.NO_GOAL))
        expected = _row_by_row(scenes)
        assert (expected == (ValueError, error)) if error else isinstance(expected, list)
        assert _outcome(lambda: _hex_rows(feature_matrix(from_scenes(scenes),
                                                         CFG.field))) == expected

    def test_feature_matrix_raises_the_first_bad_row(self):
        bad = [replace(_EDGE_SCENES[edge][0], label=Label.GOAL)
               for edge in ("ball on the target", "keeper offset overflows")]
        good = make_scene(label=Label.GOAL)
        for scenes in ([good, *bad], [good, *bad[::-1]]):
            expected = _row_by_row(scenes[1:2])
            assert _row_by_row(scenes) == expected
            assert _outcome(feature_matrix, from_scenes(scenes), CFG.field) == expected

    @settings(max_examples=100, deadline=None)
    @given(scenes=st.lists(_TABLE_SCENES, min_size=4, max_size=12),
           seed=st.integers(0, 2**32))
    def test_split_and_balance_pick_whole_rows(self, scenes, seed):
        """Each part of a split, and a balanced train part, holds rows of the
        table whole: the scenes at the picked positions."""
        table = from_scenes(scenes)
        split = split_dataset(table, seed)
        order = np.random.default_rng(seed).permutation(len(scenes))
        assert ([s for part in (split.train, split.validation, split.test)
                 for s in part.scenes()] == [scenes[i] for i in order])
        try:
            balanced = balance_by_replication(split.train, seed)
        except ValueError as exc:
            assert str(exc) == "both classes must be present to balance"
            assert len(set(split.train.goal.tolist())) == 1
            return
        assert 2 * int(balanced.goal.sum()) == len(balanced)
        assert balanced.scenes()[:len(split.train)] == split.train.scenes()
        assert all(s in split.train.scenes() for s in balanced.scenes())


class TestSplitDataset:
    def _scenes(self, n):
        return from_scenes([make_scene(time=i, label=Label.GOAL) for i in range(n)])

    def test_eight_scenes(self):
        split = split_dataset(self._scenes(8), seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (4, 2, 2)

    def test_deterministic(self):
        scenes = self._scenes(40)
        a, b = split_dataset(scenes, seed=5), split_dataset(scenes, seed=5)
        for part in ("train", "validation", "test"):
            assert getattr(a, part).time.tolist() == getattr(b, part).time.tolist()

    def test_partition_is_exact(self):
        scenes = self._scenes(101)
        split = split_dataset(scenes, seed=2)
        ids = [t for part in (split.train, split.validation, split.test)
               for t in part.time.tolist()]
        assert sorted(ids) == list(range(101))

    def test_reference_sizes_for_large_dataset(self):
        scenes = from_scenes([make_scene(label=Label.GOAL)] * 10691)
        split = split_dataset(scenes, seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == \
            (5346, 2673, 2672)

    def test_too_few_scenes(self):
        with pytest.raises(ValueError):
            split_dataset(self._scenes(3), seed=0)


class TestBalanceByReplication:
    def _mixed(self, n_goal, n_no_goal):
        return from_scenes(
            [make_scene(time=i, label=Label.GOAL) for i in range(n_goal)]
            + [make_scene(time=1000 + i, label=Label.NO_GOAL) for i in range(n_no_goal)])

    def _counts(self, table):
        goals = int(table.goal.sum())
        return goals, len(table) - goals

    def _goal_times(self, table):
        return [t for t, goal in zip(table.time.tolist(), table.goal) if goal]

    def test_whole_passes_only(self):
        out = balance_by_replication(self._mixed(100, 300), seed=0)
        assert self._counts(out) == (300, 300)
        times = self._goal_times(out)
        assert all(times.count(t) == 3 for t in set(times))

    def test_already_balanced_is_identity(self):
        scenes = self._mixed(50, 50)
        assert balance_by_replication(scenes, seed=0).scenes() == scenes.scenes()

    def test_partial_pass_samples_without_replacement(self):
        out = balance_by_replication(self._mixed(100, 250), seed=3)
        assert self._counts(out) == (250, 250)
        times = self._goal_times(out)
        copies = [times.count(t) for t in set(times)]
        assert sorted(set(copies)) == [2, 3]
        assert sum(1 for c in copies if c == 3) == 50

    def test_every_output_scene_comes_from_input(self):
        scenes = self._mixed(7, 18)
        out = balance_by_replication(scenes, seed=1)
        assert all(s in scenes.scenes() for s in out.scenes())

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            balance_by_replication(self._mixed(10, 0), seed=0)


class TestUnivariateStats:
    def test_known_power_distribution(self, field):
        scenes = [make_scene(kick_power=float(i), label=Label.GOAL)
                  for i in range(1, 101)]
        report = univariate_stats(feature_matrix(from_scenes(scenes), field))
        stats = report.per_feature["kick_power"]
        assert math.isclose(stats.mean, 50.5, abs_tol=1e-12)
        assert math.isclose(stats.median, 50.5, abs_tol=1e-12)
        assert math.isclose(stats.percentile_1, 1.99, abs_tol=1e-12)
        assert math.isclose(stats.percentile_99, 99.01, abs_tol=1e-12)
        assert math.isclose(stats.std, math.sqrt((100.0 ** 2 - 1) / 12), rel_tol=1e-12)
        assert stats.missing_fraction == 0.0

    def test_constant_feature(self, field):
        table = from_scenes([make_scene(label=Label.GOAL) for _ in range(10)])
        stats = univariate_stats(feature_matrix(table, field)).per_feature["ball_x"]
        assert stats.std == 0.0
        assert stats.percentile_1 == stats.median == stats.percentile_99

    def test_percentile_ordering(self, field):
        rng = np.random.default_rng(13)
        table = from_scenes([random_scene(rng, field, label=Label.GOAL) for _ in range(60)])
        for stats in univariate_stats(feature_matrix(table, field)).per_feature.values():
            assert stats.percentile_1 <= stats.median <= stats.percentile_99

    def test_empty_rejected(self, field):
        with pytest.raises(ValueError):
            univariate_stats(feature_matrix(from_scenes([]), field))


class TestGenerator:
    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_scenes(0, CFG.gen, CFG.dynamics, CFG.field, seed=0)

    def test_degenerate_region_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(x_min=40.0, x_max=30.0)
        with pytest.raises(ValueError):
            generate_synthetic_scenes(
                5, GeneratorConfig(x_min=50.0, x_max=60.0), CFG.dynamics,
                CFG.field, seed=0)

    @pytest.mark.parametrize("kick_power_max,max_power", [(100.5, 100.0), (100.0, 60.0)])
    def test_kick_power_above_max_power_rejected_before_any_shot(
            self, kick_power_max, max_power, monkeypatch):
        def no_shot(*args, **kwargs):
            raise AssertionError("a shot was simulated")
        monkeypatch.setattr(goalshot.scenes, "simulate_shot", no_shot)
        gen = replace(CFG.gen, kick_power_max=kick_power_max)
        dynamics = replace(CFG.dynamics, max_power=max_power)
        message = (f"[gen] kick_power_max {kick_power_max!r} exceeds "
                   f"[dynamics] max_power {max_power!r}")
        with pytest.raises(ValueError) as error:
            generate_synthetic_scenes(5, gen, dynamics, CFG.field, seed=0)
        assert str(error.value) == message

    def test_deterministic_per_seed(self):
        a = generate_synthetic_scenes(40, CFG.gen, CFG.dynamics, CFG.field, seed=9)
        b = generate_synthetic_scenes(40, CFG.gen, CFG.dynamics, CFG.field, seed=9)
        assert a.scenes() == b.scenes()

    def test_scene_validity(self, field):
        scenes = generate_synthetic_scenes(200, CFG.gen, CFG.dynamics, field, seed=4)
        for s in scenes.scenes():
            assert field.contains(s.ball)
            assert s.label in (Label.GOAL, Label.NO_GOAL)
            assert len(s.defenders) <= CFG.gen.max_defenders
            assert abs(s.target.y) <= field.goal_width / 2 - CFG.gen.target_margin

    def test_class_mix_in_band(self, field):
        table = generate_synthetic_scenes(4000, CFG.gen, CFG.dynamics, field, seed=21)
        frac = sum(1 for s in table.scenes() if s.label is Label.GOAL) / len(table)
        assert 0.3 <= frac <= 0.7


class _InOrder:
    """The values of default_rng(seed).random(k), read in order: random()
    gives the next, integers(low, high) is low + int((high - low) * u) of it."""

    def __init__(self, seed: int, k: int):
        self.random = iter(np.random.default_rng(seed).random(k).tolist()).__next__

    def integers(self, low: int, high: int) -> int:
        return low + int((high - low) * self.random())


def _are_rows(rows) -> bool:
    """Each is a scene row: a list of the SCALAR_COLUMNS floats, no label,
    and a list of (x, y) float pairs."""
    return all(type(values) is list and len(values) == len(SCALAR_COLUMNS)
               and all(type(v) is float for v in values) and type(defenders) is list
               and all(type(d) is tuple and len(d) == 2 and all(type(c) is float for c in d)
                       for d in defenders)
               for values, defenders in rows)


class TestDrawScenes:
    """draw_scenes: the rows of the generator kernel's scenes without
    labelling shots, read from a block reader."""

    def test_they_are_the_kernels_scenes_on_uniforms_read_in_order(self):
        """draw_scenes gives the kernel's rows, each followed by the draw of
        its time, from default_rng(seed)'s uniforms in order, unlabelled.
        The time is not kept; a scene drawn one uniform off would differ."""
        gen = replace(CFG.gen, max_defenders=MAX_DEFENDERS)
        source = _InOrder(3, 60 * (11 + 2 * MAX_DEFENDERS))
        expected = []
        for row in goalshot.scenes._scene_draws(60, gen, CFG.dynamics, CFG.field, source):
            assert 0 <= source.integers(0, 6000) < 6000
            expected.append(row)
        assert draw_scenes(60, gen, CFG.dynamics, CFG.field, seed=3) == expected
        assert _are_rows(expected)

    @pytest.mark.parametrize("high", [*range(1, MAX_DEFENDERS + 2), 6000])
    def test_integers_stay_in_range_at_the_ends_of_the_uniforms(self, high):
        """Over the defender count's ranges, 1 to MAX_DEFENDERS + 1 values,
        and the time's 6000, u = 0 gives the range's first value and the
        largest u below 1 its last."""
        source = BlockUniforms(np.random.default_rng(0))
        for low in (0, 7):
            source.random = iter([0.0, math.nextafter(1.0, 0.0)]).__next__
            assert source.integers(low, low + high) == low
            assert source.integers(low, low + high) == low + high - 1

    @pytest.mark.parametrize("max_defenders", [0, 5, MAX_DEFENDERS])
    def test_every_defender_count_occurs(self, max_defenders):
        gen = replace(CFG.gen, max_defenders=max_defenders)
        rows = draw_scenes(2000, gen, CFG.dynamics, CFG.field, seed=4)
        counts = {len(defenders) for _, defenders in rows}
        assert counts == set(range(max_defenders + 1))

    def test_a_game_past_its_first_block_repeats_per_seed(self, monkeypatch):
        """With max_defenders = 10, a 20-shot game reads past the first
        UNIFORM_BLOCK uniforms of its seed, and the same seed gives the same
        scenes."""
        sources = []

        class Counted(BlockUniforms):
            def __init__(self, rng):
                super().__init__(rng)
                sources.append(self)
                self.read, uniform = 0, self.random

                def counted():
                    self.read += 1
                    return uniform()
                self.random = counted

        monkeypatch.setattr(goalshot.scenes, "BlockUniforms", Counted)
        gen = replace(CFG.gen, max_defenders=MAX_DEFENDERS)
        first, again, other = (draw_scenes(20, gen, CFG.dynamics, CFG.field, seed)
                               for seed in (6, 6, 7))
        assert first == again != other
        reads = [source.read for source in sources]
        assert reads[0] == reads[1] > UNIFORM_BLOCK
        assert reads[0] == sum(11 + 2 * len(defenders) for _, defenders in first)

    def test_no_shot_and_no_part_for_the_keeper(self, monkeypatch):
        def no_shot(*args, **kwargs):
            raise AssertionError("a shot was simulated")
        monkeypatch.setattr(goalshot.scenes, "simulate_shot", no_shot)
        other = replace(CFG.gen, keeper=KeeperModel(max_speed=0.5, positioning_noise=1.0))
        rows = draw_scenes(40, CFG.gen, CFG.dynamics, CFG.field, seed=9)
        assert rows == draw_scenes(40, other, CFG.dynamics, CFG.field, seed=9)
        assert rows != draw_scenes(40, CFG.gen, CFG.dynamics, CFG.field, seed=10)
        assert _are_rows(rows)
        assert 0 < sum(len(defenders) for _, defenders in rows) <= 40 * CFG.gen.max_defenders

    @pytest.mark.parametrize("n, gen, dynamics", [
        (0, CFG.gen, CFG.dynamics),
        (5, GeneratorConfig(x_min=50.0, x_max=60.0), CFG.dynamics),
        (5, replace(CFG.gen, kick_power_max=100.5), CFG.dynamics),
        (5, CFG.gen, replace(CFG.dynamics, max_power=60.0)),
    ], ids=["zero-count", "region-past-the-goal-line", "power-above-max", "max-power-below"])
    def test_rejects_what_the_generator_rejects(self, n, gen, dynamics):
        with pytest.raises(ValueError) as generated:
            generate_synthetic_scenes(n, gen, dynamics, CFG.field, seed=0)
        with pytest.raises(ValueError) as drawn:
            draw_scenes(n, gen, dynamics, CFG.field, seed=0)
        assert str(drawn.value) == str(generated.value)


class TestKickSceneValidation:
    def test_too_many_defenders(self):
        with pytest.raises(ValueError):
            make_scene(defenders=tuple(Vec2(40.0, i) for i in range(11)))

    def test_bad_power(self):
        with pytest.raises(ValueError):
            make_scene(kick_power=-2.0)

    @pytest.mark.parametrize("changes, message", [
        ({"attacker_body_angle": math.nan}, "attacker_body_angle must be finite"),
        ({"kick_power": math.inf}, "kick_power must be finite and >= 0"),
        ({"defenders": (Vec2(40.0, 0.0),) * 11}, "at most 10 defenders, got 11"),
    ])
    def test_rejection_keeps_its_text(self, changes, message):
        with pytest.raises(ValueError) as raised:
            make_scene(**changes)
        assert str(raised.value) == message

    def test_feature_matrix_shape(self, field):
        scenes = [make_scene(label=Label.GOAL), make_scene(kick_power=50.0, label=Label.GOAL)]
        assert feature_matrix(from_scenes(scenes), field).shape == (2, 22)

    def test_feature_matrix_of_no_rows(self, field, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_HEADER) + "\n", encoding="utf-8")
        for table in (from_scenes([]), SceneTable.load(path, field)):
            assert feature_matrix(table, field).shape == (0, 22)
