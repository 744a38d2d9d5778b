import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fuzgeo as fg
from fuzgeo import cli
from fuzgeo.cli import run
from fuzgeo.svgout import distance_json, fmt, fmt_rows, hausdorff_json, invariance_json
from oracles import line_frame, midset_files_reference, reference_json, reference_rows

EX22_SCENE = """
{
  "points": [
    {"name": "A", "core": [1, 0], "spread": {"kind": "circular", "radii": [1, 1]}},
    {"name": "B", "core": [5, 2], "spread": {"kind": "elliptical", "radii": [1, 1.5]}}
  ],
  "pairs": [["A", "B"]]
}
"""

EX41_SCENE = """
{
  "points": [
    {"name": "A", "core": [0, 0], "spread": {"kind": "circular", "radii": [2, 2]}},
    {"name": "B", "core": [5, 0], "spread": {"kind": "circular", "radii": [2, 2]}}
  ],
  "grids": {"bbox": [-1, -4, 6, 4], "resolution": 96}
}
"""

EX42_SCENE = """
{
  "points": [
    {"name": "A", "core": [0, 0], "spread": {"kind": "circular", "radii": [1, 1]}},
    {"name": "B", "core": [5, 0], "spread": {"kind": "circular", "radii": [2, 2]}}
  ],
  "grids": {"bbox": [-1, -4, 6, 4], "resolution": 96}
}
"""

# cores a subnormal apart: R2 * u0 underflows to 0 in the separation level
SUBNORMAL_SCENE = """
{
  "points": [
    {"name": "A", "core": [5e-324, 0], "spread": {"kind": "elliptical", "radii": [1, 0.25]}},
    {"name": "B", "core": [0, 0], "spread": {"kind": "elliptical", "radii": [0.5, 0.25]}}
  ]
}
"""

# circular and elliptical points: separated, overlapping, nested and
# concentric pairs; midset takes the circular pairs only, in a box that cuts
# the same-points ellipse of (A, C) at alpha 0 into two polylines
MIXED_POINTS = [
    {"name": "A", "core": [0, 0], "spread": {"kind": "circular", "radii": [1, 1]}},
    {"name": "B", "core": [4, 1], "spread": {"kind": "elliptical", "radii": [1, 1.5]}},
    {"name": "C", "core": [1.5, 0], "spread": {"kind": "circular", "radii": [2, 2]}},
    {"name": "D", "core": [5, 0.5], "spread": {"kind": "circular", "radii": [1, 1]}},
    {"name": "E", "core": [0, 0], "spread": {"kind": "elliptical", "radii": [0.5, 2]}},
]
MIXED_CIRCULAR_PAIRS = [["A", "C"], ["A", "D"], ["C", "D"]]
MIXED_MIDSET_BBOX = (-2.0, -1.0, 6.0, 1.2)


# the options each command reads besides --scene and --out, with a valid
# value: small grids where a command has them
READS = {
    "distance": {"--alpha-levels": "3"},
    "metric-curve": {"--t": "0.5,1"},
    "hausdorff": {},
    "midset": {"--alpha-levels": "3", "--resolution": "16", "--format": "csv"},
    "classify": {},
    "invariance": {"--resolution": "16", "--t": "1"},
}
OPTIONS = {"--alpha-levels": "3", "--resolution": "64", "--t": "1", "--format": "svg"}


def _reads(command: str) -> list[str]:
    """The arguments giving command every option it reads."""
    return [arg for option in READS[command].items() for arg in option]


def _module_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


class TestParseScene:
    def test_example_scene(self):
        scene = fg.parse_scene(EX22_SCENE)
        assert set(scene.points) == {"A", "B"}
        assert scene.points["B"].spread.kind == "elliptical"
        assert scene.pairs == (("A", "B"),)

    def test_defaults_filled(self):
        scene = fg.parse_scene(EX22_SCENE)
        assert scene.grids.alpha_levels == 101
        assert scene.grids.resolution == 512
        assert scene.grids.bbox is None

    def test_empty_points_rejected(self):
        with pytest.raises(fg.SceneError):
            fg.parse_scene('{"points": []}')

    def test_duplicate_name_rejected(self):
        text = EX22_SCENE.replace('"name": "B"', '"name": "A"')
        with pytest.raises(fg.SceneError, match="duplicate"):
            fg.parse_scene(text)

    def test_unknown_field_named(self):
        with pytest.raises(fg.SceneError, match="wobble"):
            fg.parse_scene('{"points": [], "wobble": 1}')

    def test_unknown_point_field_named(self):
        text = """{"points": [{"name": "A", "core": [0, 0], "size": 2,
                    "spread": {"kind": "circular", "radii": [1, 1]}}]}"""
        with pytest.raises(fg.SceneError, match="size"):
            fg.parse_scene(text)

    def test_nonpositive_radius_rejected(self):
        text = EX22_SCENE.replace("[1, 1.5]", "[0, 1.5]")
        with pytest.raises(fg.SceneError, match="positive"):
            fg.parse_scene(text)

    @pytest.mark.parametrize("radii, message", [
        ("[0, 1.5]", "point 'B': spread radii must be positive, got (0.0, 1.5)"),
        ("[1, -1]", "point 'B': spread radii must be positive, got (1.0, -1.0)"),
        ("[1, Infinity]", "point 'B': spread radii must be finite, got [1.0, inf]"),
    ])
    def test_bad_radii_message(self, radii, message):
        with pytest.raises(fg.SceneError, match=f"^{re.escape(message)}$"):
            fg.parse_scene(EX22_SCENE.replace("[1, 1.5]", radii))

    @pytest.mark.parametrize("spread, message", [
        ('"kind": "circular", "radii": [1, 1.5]',
         "point 'B': circular spread requires equal radii, got (1.0, 1.5)"),
        ('"kind": "oval", "radii": [1, 1.5]',
         "point 'B': spread kind must be 'circular' or 'elliptical', got 'oval'"),
    ], ids=["unequal-circular", "unknown-kind"])
    def test_bad_spread_message(self, spread, message):
        text = EX22_SCENE.replace('"kind": "elliptical", "radii": [1, 1.5]', spread)
        with pytest.raises(fg.SceneError, match=f"^{re.escape(message)}$"):
            fg.parse_scene(text)

    def test_points_equal_their_checked_construction(self):
        points = fg.parse_scene(EX22_SCENE).points
        assert points == {"A": fg.FuzzyPoint.circular(1.0, 0.0, 1.0),
                          "B": fg.FuzzyPoint.elliptical(5.0, 2.0, 1.0, 1.5)}
        assert all(type(v) is float for p in points.values()
                   for v in (p.core.x, p.core.y, p.spread.p1, p.spread.p2))

    def test_malformed_json_reports_position(self):
        with pytest.raises(fg.SceneError, match=r"line \d+, column \d+"):
            fg.parse_scene('{"points": [,]}')

    def test_undefined_pair_name(self):
        text = EX22_SCENE.replace('["A", "B"]', '["A", "Z"]')
        with pytest.raises(fg.SceneError, match="Z"):
            fg.parse_scene(text)

    def test_pairs_default_to_combinations(self):
        text = """{"points": [
          {"name": "P", "core": [0, 0], "spread": {"kind": "circular", "radii": [1, 1]}},
          {"name": "Q", "core": [4, 0], "spread": {"kind": "circular", "radii": [1, 1]}},
          {"name": "R", "core": [0, 4], "spread": {"kind": "circular", "radii": [1, 1]}}
        ]}"""
        scene = fg.parse_scene(text)
        assert scene.pairs == (("P", "Q"), ("P", "R"), ("Q", "R"))

    @pytest.mark.parametrize("old, new, field", [
        ('"core": [1, 0]', '"core": [NaN, 0]', "core"),
        ("[1, 1.5]", "[1, Infinity]", "spread radii"),
        ('"pairs"', '"grids": {"bbox": [0, 0, NaN, 1]}, "pairs"', "grids.bbox"),
        ('"pairs"', '"t": [1, NaN], "pairs"', "'t'"),
    ])
    def test_non_finite_number_names_field(self, old, new, field):
        with pytest.raises(fg.SceneError, match=f"{re.escape(field)} must be finite"):
            fg.parse_scene(EX22_SCENE.replace(old, new, 1))

    @pytest.mark.parametrize("old, field", [
        ("[1, 0]", "core"),
        ("[1, 1.5]", "spread radii"),
        ('"pairs"', "grids.bbox"),
        ('"pairs"', "'t'"),
    ], ids=["core", "radii", "bbox", "t"])
    @pytest.mark.parametrize("value", ['"1.5"', "true", "false", "null"])
    def test_non_number_names_field(self, old, field, value):
        numbers = {"grids.bbox": '"grids": {"bbox": [0, 0, %s, 1]}, "pairs"',
                   "'t'": '"t": [1, %s], "pairs"'}.get(field, old.replace("1", "%s", 1))
        text = EX22_SCENE.replace(old, numbers % value, 1)
        with pytest.raises(fg.SceneError,
                           match=f"{re.escape(field)} must contain numbers, got "):
            fg.parse_scene(text)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_too_large_for_a_float_is_not_finite(self, sign):
        text = EX22_SCENE.replace('"core": [1, 0]', f'"core": [{sign}1{"0" * 400}, 0]', 1)
        want = f"core must be finite, got [{sign}inf"
        with pytest.raises(fg.SceneError, match=re.escape(want)):
            fg.parse_scene(text)

    @pytest.mark.parametrize("name", ["../esc", "a/b", "a\\b", ".", "..", "a\0b"])
    def test_path_like_point_name_rejected(self, name):
        text = EX22_SCENE.replace('"A"', json.dumps(name))
        with pytest.raises(fg.SceneError, match=f"point {re.escape(repr(name))}"):
            fg.parse_scene(text)

    @pytest.mark.parametrize("pairs", [[["A", "B_C"], ["A_B", "C"]], None],
                             ids=["explicit", "implicit"])
    def test_pairs_sharing_an_output_stem_rejected(self, pairs):
        points = [{"name": name, "core": [i, 0], "spread": {"kind": "circular",
                                                            "radii": [1, 1]}}
                  for i, name in enumerate(["A", "B_C", "A_B", "C"])]
        scene = {"points": points} if pairs is None else {"points": points, "pairs": pairs}
        with pytest.raises(fg.SceneError,
                           match=re.escape("['A', 'B_C'] and ['A_B', 'C']")):
            fg.parse_scene(json.dumps(scene))

    def test_same_pair_twice_and_reversed_pair_accepted(self):
        text = EX22_SCENE.replace('[["A", "B"]]', '[["A", "B"], ["B", "A"], ["A", "B"]]')
        assert fg.parse_scene(text).pairs == (("A", "B"), ("B", "A"), ("A", "B"))

    @pytest.mark.parametrize("pair", [[["A"], "B"], ["A", 1], ["A", None]])
    def test_non_string_pair_entry_names_pair(self, pair):
        text = EX22_SCENE.replace('[["A", "B"]]', json.dumps([pair]))
        with pytest.raises(fg.SceneError, match=re.escape("pairs[0]")):
            fg.parse_scene(text)

    def test_theta_samples_rejected(self):
        text = EX22_SCENE.replace('"pairs"', '"grids": {"theta_samples": 64}, "pairs"', 1)
        with pytest.raises(fg.SceneError, match="theta_samples"):
            fg.parse_scene(text)

    def test_bad_request_rejected(self):
        text = EX22_SCENE.rstrip().rstrip("}") + ', "requests": ["explode"]}'
        with pytest.raises(fg.SceneError, match="requests"):
            fg.parse_scene(text)


@pytest.fixture
def scene_file(tmp_path):
    def write(text, name="scene.json"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def _files(path) -> dict:
    """Name and bytes of every file in path; {} if path does not exist."""
    return {p.name: p.read_bytes() for p in path.iterdir()} if path.exists() else {}


class TestCli:
    def test_distance_command(self, scene_file, tmp_path):
        out = tmp_path / "out"
        code = run(["distance", "--scene", scene_file(EX22_SCENE),
                    "--out", str(out), "--alpha-levels", "5"])
        assert code == 0
        payload = json.loads((out / "A_B_distance.json").read_text())
        lo, mid, hi = payload["summary"]
        assert abs(lo - 2.380551) < 1e-4
        assert abs(mid - 4.472136) < 1e-4
        assert abs(hi - 6.604459) < 1e-4
        csv_lines = (out / "A_B_distance.csv").read_text().splitlines()
        assert csv_lines[0] == "alpha,lo,mid,hi"
        assert len(csv_lines) == 6

    def test_metric_curve_command(self, scene_file, tmp_path):
        out = tmp_path / "out"
        code = run(["metric-curve", "--scene", scene_file(EX22_SCENE),
                    "--out", str(out), "--t", "0.5,1,2"])
        assert code == 0
        lines = (out / "A_B_metric_curve.csv").read_text().splitlines()
        assert lines[0] == "t,lo,mid,hi,spread"
        t1_row = [float(v) for v in lines[2].split(",")]
        assert abs(t1_row[4] - 0.164308) < 1e-4

    def test_hausdorff_command(self, scene_file, tmp_path):
        out = tmp_path / "out"
        code = run(["hausdorff", "--scene", scene_file(EX22_SCENE),
                    "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "A_B_hausdorff.json").read_text())
        assert abs(payload["summary"][1] - 4.47213595) < 1e-6
        assert abs(payload["projected"]["A"][0] - 0.118033989) < 1e-6

    def test_midset_svg_is_vertical_line(self, scene_file, tmp_path):
        out = tmp_path / "out"
        code = run(["midset", "--scene", scene_file(EX41_SCENE),
                    "--out", str(out), "--alpha-levels", "3",
                    "--format", "svg"])
        assert code == 0
        svg = (out / "A_B_midset.svg").read_text()
        points = re.findall(r'<polyline points="([^"]+)"', svg)
        assert points
        for plist in points:
            xs = [float(pt.split(",")[0]) for pt in plist.split()]
            assert all(abs(x - 2.5) < 0.2 for x in xs)

    def test_midset_csv_per_alpha(self, scene_file, tmp_path):
        out = tmp_path / "out"
        code = run(["midset", "--scene", scene_file(EX42_SCENE),
                    "--out", str(out), "--alpha-levels", "3"])
        assert code == 0
        for alpha in ("0.0000", "0.5000", "1.0000"):
            assert (out / f"A_B_midset_a{alpha}.csv").exists()

    def test_classify_command(self, scene_file, tmp_path):
        out = tmp_path / "out"
        code = run(["classify", "--scene", scene_file(EX42_SCENE),
                    "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "A_B_classify.json").read_text())
        assert payload["case_at_support"] == "non_overlapping"
        assert payload["thresholds"]["n"] == 0.0
        assert len(payload["bands"]) == 1
        assert payload["bands"][0]["classes"] == {"inverse_points": "hyperbola"}

    def test_classify_nearly_concentric_single_band(self, scene_file, tmp_path):
        out = tmp_path / "out"
        text = EX42_SCENE.replace('"core": [5, 0]', '"core": [1e-10, 0]')
        assert run(["classify", "--scene", scene_file(text), "--out", str(out)]) == 0
        payload = json.loads((out / "A_B_classify.json").read_text())
        assert payload["thresholds"] == {"n": None, "n1": None, "n2": None}
        assert [band["case"] for band in payload["bands"]] == ["concentric"]

    def test_hausdorff_far_from_origin(self, scene_file, tmp_path):
        text = EX42_SCENE.replace('"core": [0, 0]', '"core": [1.3e7, 7e6]').replace(
            '"core": [5, 0]', '"core": [-9e6, 2.1e7]')
        out = tmp_path / "out"
        assert run(["hausdorff", "--scene", scene_file(text), "--out", str(out)]) == 0
        payload = json.loads((out / "A_B_hausdorff.json").read_text())
        dc = np.hypot(2.2e7, 1.4e7)
        # 9 significant digits of about 2.6e7
        assert payload["summary"] == pytest.approx([dc - 3.0, dc, dc + 3.0], abs=0.1)

    def test_hausdorff_at_1e200(self, scene_file, tmp_path):
        # a*x + b*y of the unnormalised core line normal would overflow here
        points = [{"name": name, "core": core, "spread": {"kind": "circular", "radii": [1, 1]}}
                  for name, core in (("A", [1e200, 1e200]), ("B", [2e200, 2e200]))]
        text = json.dumps({"points": points, "pairs": [["A", "B"]]})
        out = tmp_path / "out"
        assert run(["hausdorff", "--scene", scene_file(text), "--out", str(out)]) == 0
        payload = json.loads((out / "A_B_hausdorff.json").read_text())
        dc = float(np.hypot(1e200, 1e200))
        assert payload["summary"] == pytest.approx([dc - 2.0, dc, dc + 2.0], rel=1e-8)

    def test_classify_far_from_origin(self, scene_file, tmp_path):
        text = EX42_SCENE.replace('"core": [0, 0]', '"core": [1.3e7, 7e6]').replace(
            '"core": [5, 0]', '"core": [13000004, 7000003]')
        out = tmp_path / "out"
        assert run(["classify", "--scene", scene_file(text), "--out", str(out)]) == 0
        payload = json.loads((out / "A_B_classify.json").read_text())
        assert [band["classes"] for band in payload["bands"]] == [
            {"inverse_points": "hyperbola"}]

    def test_classify_near_bisector_pair(self, scene_file, tmp_path):
        # |k| = 0.01 u is far below dc = 5; the discriminant test reads the
        # double-squared conic as degenerate at every level
        text = EX42_SCENE.replace('"radii": [2, 2]', '"radii": [0.99, 0.99]')
        out = tmp_path / "out"
        assert run(["classify", "--scene", scene_file(text), "--out", str(out)]) == 0
        payload = json.loads((out / "A_B_classify.json").read_text())
        assert [band["classes"] for band in payload["bands"]] == [
            {"inverse_points": "hyperbola"}]

    def test_invariance_command(self, scene_file, tmp_path):
        out = tmp_path / "out"
        code = run(["invariance", "--scene", scene_file(EX41_SCENE),
                    "--out", str(out), "--t", "0.5,1,10",
                    "--resolution", "64"])
        assert code == 0
        payload = json.loads((out / "A_B_invariance.json").read_text())
        assert payload["agreed"] is True
        assert payload["disagreements"] == 0

    def test_deterministic_output(self, scene_file, tmp_path):
        scene = scene_file(EX22_SCENE)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert run(["distance", "--scene", scene, "--out", str(out),
                        "--alpha-levels", "21"]) == 0
        for name in ("A_B_distance.json", "A_B_distance.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_json_round_trip(self, scene_file, tmp_path):
        out = tmp_path / "out"
        run(["distance", "--scene", scene_file(EX22_SCENE), "--out", str(out),
             "--alpha-levels", "3"])
        payload = json.loads((out / "A_B_distance.json").read_text())
        assert json.loads(json.dumps(payload)) == payload

    def test_validation_error_exit_code(self, scene_file, tmp_path):
        bad = scene_file('{"points": [], "bogus": 1}', name="bad.json")
        code = run(["distance", "--scene", bad, "--out", str(tmp_path / "o")])
        assert code == 1

    def test_point_name_outside_out_exit_1(self, scene_file, tmp_path, capsys):
        text = EX22_SCENE.replace('"A"', '"../esc"')
        out = tmp_path / "out"
        assert run(["distance", "--scene", scene_file(text), "--out", str(out)]) == 1
        assert "'../esc'" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.glob("esc_*"))

    def test_pairs_sharing_an_output_stem_exit_1(self, scene_file, tmp_path, capsys):
        text = EX22_SCENE.replace('"A"', '"A_B"', 1).replace('"B"', '"C"', 1)
        text = text.replace('"points": [', """"points": [
    {"name": "A", "core": [0, 3], "spread": {"kind": "circular", "radii": [1, 1]}},
    {"name": "B_C", "core": [3, 3], "spread": {"kind": "circular", "radii": [1, 1]}},""")
        text = text.replace('[["A", "B"]]', '[["A", "B_C"], ["A_B", "C"]]')
        out = tmp_path / "out"
        assert run(["distance", "--scene", scene_file(text), "--out", str(out)]) == 1
        assert "['A', 'B_C'] and ['A_B', 'C']" in capsys.readouterr().err
        assert not out.exists()

    def test_non_string_pair_entry_exit_1(self, scene_file, tmp_path, capsys):
        text = EX22_SCENE.replace('[["A", "B"]]', '[[["A"], "B"]]')
        assert run(["distance", "--scene", scene_file(text), "--out", str(tmp_path / "o")]) == 1
        assert "pairs[0]" in capsys.readouterr().err

    def test_missing_scene_exit_code(self, tmp_path):
        code = run(["distance", "--scene", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o")])
        assert code == 1

    def test_unwritable_output_dir(self, scene_file, tmp_path):
        scene = scene_file(EX22_SCENE)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = run(["distance", "--scene", scene, "--out",
                    str(blocker / "sub")])
        assert code == 1

    def test_midset_output_is_byte_identical(self, scene_file, tmp_path):
        scene = scene_file(EX42_SCENE)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert run(["midset", "--scene", scene, "--out", str(out),
                        "--alpha-levels", "5", "--format", "svg"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert len(names) == 6 and names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("command", ["distance", "metric-curve", "hausdorff", "midset",
                                         "classify", "invariance"])
    def test_name_too_long_for_out_writes_nothing(self, command, scene_file, tmp_path, capsys):
        # (A, B) comes first and fits; every pair with the long name does not
        long_name = "L" * 300
        points = [{"name": name, "core": [4 * i, 0], "spread": {"kind": "circular",
                                                                "radii": [1, 1]}}
                  for i, name in enumerate(["A", "B", long_name])]
        out = tmp_path / "out"
        assert run([command, "--scene", scene_file(json.dumps({"points": points})),
                    "--out", str(out), *_reads(command)]) == 1
        message = capsys.readouterr().err.splitlines()[-1]
        assert f"pair ['A', '{long_name}']" in message and "longer than" in message
        assert list(out.iterdir()) == []

    def test_hausdorff_failure_leaves_no_partial_output(self, scene_file, tmp_path):
        # the second pair (A, C) shares a core and fails after (A, B) succeeds
        text = EX22_SCENE.replace('"pairs": [["A", "B"]]', '"pairs": [["A", "B"], ["A", "C"]]')
        text = text.replace('"points": [', """"points": [
    {"name": "C", "core": [1, 0], "spread": {"kind": "circular", "radii": [2, 2]}},""")
        out = tmp_path / "out"
        assert run(["hausdorff", "--scene", scene_file(text), "--out", str(out)]) == 1
        assert list(out.iterdir()) == []

    def test_hausdorff_concentric_pair_named(self, scene_file, tmp_path, capsys):
        text = EX22_SCENE.replace('"pairs": [["A", "B"]]', '"pairs": [["A", "B"], ["A", "C"]]')
        text = text.replace('"points": [', """"points": [
    {"name": "C", "core": [1, 0], "spread": {"kind": "circular", "radii": [2, 2]}},""")
        assert run(["hausdorff", "--scene", scene_file(text), "--out", str(tmp_path / "o")]) == 1
        message = capsys.readouterr().err.splitlines()[-1]
        assert "pair ['A', 'C']" in message and "distinct cores" in message

    @pytest.mark.parametrize("core_c, core_d, message", [
        ([1, 0], [1, 0], "fuzzy Hausdorff distance requires distinct cores"),
        # the core offset overflows, so the line has no unit normal
        ([-1.7e308, 0], [1.7e308, 0], "line requires (a, b) != (0, 0)"),
    ], ids=["coincident-cores", "normal-overflows"])
    def test_hausdorff_bad_pair_in_the_middle_named(self, core_c, core_d, message, scene_file,
                                                    tmp_path, capsys):
        points = [{"name": name, "core": core, "spread": {"kind": "circular", "radii": [1, 1]}}
                  for name, core in (("A", [0, 0]), ("B", [3, 4]), ("C", core_c), ("D", core_d))]
        text = json.dumps({"points": points, "pairs": [["A", "B"], ["C", "D"], ["A", "C"]]})
        out = tmp_path / "out"
        assert run(["hausdorff", "--scene", scene_file(text), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"fuzgeo: error: pair ['C', 'D']: {message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["midset", "classify", "invariance"])
    def test_elliptical_point_named_before_any_write(self, command, scene_file, tmp_path,
                                                     capsys):
        # (A, B) is circular and comes first; C of the second pair is elliptical
        text = EX42_SCENE.replace('"points": [', """"points": [
    {"name": "C", "core": [2, 3], "spread": {"kind": "elliptical", "radii": [1, 2]}},""")
        text = text.replace('"grids"', '"pairs": [["A", "B"], ["A", "C"]], "grids"')
        out = tmp_path / "out"
        assert run([command, "--scene", scene_file(text), "--out", str(out),
                    *_reads(command)]) == 1
        message = capsys.readouterr().err.splitlines()[-1]
        assert "pair ['A', 'C']" in message and "point 'C' is elliptical" in message
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("levels", ["10002", "20001"])
    def test_midset_levels_sharing_a_file_name_rejected(self, levels, scene_file, tmp_path,
                                                        capsys):
        out = tmp_path / "out"
        assert run(["midset", "--scene", scene_file(EX42_SCENE), "--out", str(out),
                    "--alpha-levels", levels, "--resolution", "16"]) == 1
        message = capsys.readouterr().err.splitlines()[-1]
        first, second = re.search(r"alpha levels (\S+) and (\S+) would", message).groups()
        assert float(first) < float(second)
        assert f"{float(first):.4f}" == f"{float(second):.4f}"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("module", ["fuzgeo", "fuzgeo.cli"])
    def test_python_dash_m_runs_cli(self, module, scene_file, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", module, "distance", "--scene", scene_file(EX22_SCENE),
             "--out", str(out), "--alpha-levels", "3"],
            env=_module_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert (out / "A_B_distance.json").exists()

    @pytest.mark.parametrize("command", ["distance", "metric-curve"])
    def test_subnormal_core_offset(self, command, scene_file, tmp_path):
        out = tmp_path / "out"
        assert run([command, "--scene", scene_file(SUBNORMAL_SCENE), "--out", str(out)]) == 0
        assert len(list(out.iterdir())) >= 1

    @pytest.mark.parametrize("command, extra, named", [
        ("invariance", ["--out", "OUT", "--t", "-1"], "--t"),
        ("midset", ["--out", "OUT", "--alpha-levels", "abc"], "--alpha-levels"),
        ("midset", [], "--out"),
        ("midset", ["--out", "OUT", "--format", "png"], "--format"),
        ("midset", ["--out", "OUT", "--format", "json"], "--format"),
    ], ids=["negative-t", "text-alpha-levels", "missing-out", "format-png", "format-json"])
    def test_argument_errors_exit_1(self, command, extra, named, scene_file, tmp_path, capsys):
        argv = [command, "--scene", scene_file(EX41_SCENE),
                *[str(tmp_path / "out") if v == "OUT" else v for v in extra]]
        proc = subprocess.run([sys.executable, "-m", "fuzgeo", *argv], env=_module_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert named in proc.stderr.splitlines()[-1]
        assert run(argv) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("t_args", [["--t", "nan"], ["--t", "1,nan"], ["--t", "inf"],
                                        ["--t=-inf"]], ids=["nan", "nan-in-list", "inf", "minus-inf"])
    def test_nonfinite_t_exit_1(self, t_args, scene_file, tmp_path, capsys):
        argv = ["metric-curve", "--scene", scene_file(EX41_SCENE), "--out", str(tmp_path / "out"),
                *t_args]
        assert run(argv) == 1
        message = capsys.readouterr().err.splitlines()[-1]
        assert "--t" in message and "finite" in message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, named", [([], "command"), (["frob"], "frob")],
                             ids=["missing-command", "unknown-command"])
    def test_command_errors_exit_1(self, command, named, scene_file, tmp_path, capsys):
        argv = [*command, "--scene", scene_file(EX41_SCENE), "--out", str(tmp_path / "out")]
        assert run(argv) == 1
        assert named in capsys.readouterr().err.splitlines()[-1]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", READS)
    def test_options_before_the_command_exit_1(self, command, scene_file, tmp_path, capsys):
        # the scene path must not be read as the command
        out = tmp_path / "out"
        assert run(["--scene", scene_file(EX41_SCENE), "--out", str(out), command]) == 1
        message = capsys.readouterr().err.splitlines()[-1]
        assert message == ("fuzgeo: error: the command comes first, as in "
                           "fuzgeo <command> --scene S --out D")
        assert not out.exists()

    def test_reused_parser_matches_a_fresh_process(self, scene_file, tmp_path, capsys):
        # run() builds its parser once per process; a flag given to one call,
        # or an argument error, must not carry into the next
        scene = scene_file(EX42_SCENE)
        midset = ["midset", "--scene", scene, "--alpha-levels", "3", "--resolution", "16"]
        sequence = [["distance", "--scene", scene, "--alpha-levels", "5"],
                    ["distance", "--scene", scene],
                    [*midset, "--format", "svg"], [*midset, "--format", "csv"],
                    ["distance", "--scene", scene, "--alpha-levels", "x"],
                    ["distance", "--scene", scene]]
        for i, argv in enumerate(sequence):
            here, fresh = tmp_path / f"run{i}", tmp_path / f"fresh{i}"
            code = run([*argv, "--out", str(here)])
            proc = subprocess.run([sys.executable, "-m", "fuzgeo", *argv, "--out", str(fresh)],
                                  env=_module_env(), capture_output=True, text=True, timeout=60)
            assert (code, capsys.readouterr().err) == (proc.returncode, proc.stderr), argv
            assert _files(here) == _files(fresh), argv
        assert cli._parser.cache_info().misses == 1

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        usage = capsys.readouterr().out
        assert all(command in usage for command in READS)
        assert run(["invariance", "--help"]) == 0
        usage = capsys.readouterr().out
        assert all(word in usage for word in ("--scene", "--t"))

    @pytest.mark.parametrize("command", READS)
    def test_command_help_lists_its_own_options(self, command, capsys):
        assert run([command, "--help"]) == 0
        usage = capsys.readouterr().out
        assert set(re.findall(r"--[a-z][a-z-]*", usage)) == {"--help", "--scene", "--out",
                                                              *READS[command]}

    @pytest.mark.parametrize("command, option", [
        (command, option) for command in READS for option in OPTIONS
        if option not in READS[command]])
    def test_unread_option_exit_1(self, command, option, tmp_path, capsys):
        # rejected before the scene is read: the scene file does not exist
        out = tmp_path / "out"
        assert run([command, "--scene", str(tmp_path / "missing.json"), "--out", str(out),
                    option, OPTIONS[option]]) == 1
        message = capsys.readouterr().err.splitlines()[-1]
        assert "unrecognized arguments" in message and option in message
        assert not out.exists()

    @pytest.mark.parametrize("command, option, least", [
        ("distance", "--alpha-levels", 2), ("midset", "--alpha-levels", 2),
        ("midset", "--resolution", 16), ("invariance", "--resolution", 16)])
    def test_option_lower_bound(self, command, option, least, scene_file, tmp_path, capsys):
        # the option's last value, given after _reads's, is the one read
        argv = [command, "--scene", scene_file(EX42_SCENE), *_reads(command)]
        low = tmp_path / "low"
        assert run([*argv, "--out", str(low), option, str(least - 1)]) == 1
        message = capsys.readouterr().err.splitlines()[-1]
        assert message == f"fuzgeo: error: {option} must be at least {least}"
        assert not low.exists()
        assert run([*argv, "--out", str(tmp_path / "least"), option, str(least)]) == 0


FLOATS = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
           np.finfo(float).max, -np.finfo(float).max, 1.0, 123456789.5, 1e-5]


class TestBlockFormatter:
    """fmt_rows against the value-by-value reference writer in oracles."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(FLOATS, st.sampled_from(SPECIAL)), max_size=40),
           st.integers(1, 5))
    def test_rows_match_reference(self, values, width):
        block = np.array(values[:len(values) // width * width], dtype=float).reshape(-1, width)
        assert fmt_rows(block) == reference_rows(block)
        # the SVG points attribute: x,y pairs joined by spaces
        assert fmt_rows(block)[:-1].replace("\n", " ") == reference_rows(block, end=" ")[:-1]

    def test_special_values(self):
        block = np.array(SPECIAL).reshape(-1, 2)
        assert fmt_rows(block) == reference_rows(block)
        for x in SPECIAL:
            assert fmt(x) == format(float(x), ".9g")

    def test_cli_csvs_match_reference_writer(self, scene_file, tmp_path):
        mixed = {"points": MIXED_POINTS}
        scene = fg.parse_scene(json.dumps(mixed))
        out = tmp_path / "out"
        path = scene_file(json.dumps(mixed))
        circular = scene_file(json.dumps(dict(mixed, pairs=MIXED_CIRCULAR_PAIRS,
                                              grids={"bbox": MIXED_MIDSET_BBOX})), "circ.json")
        default_t = np.geomspace(1e-2, 1e2, 81)
        assert run(["distance", "--scene", path, "--out", str(out),
                    "--alpha-levels", "7"]) == 0
        assert run(["metric-curve", "--scene", path, "--out", str(out / "t"),
                    "--t", "0.05,1,20"]) == 0
        assert run(["metric-curve", "--scene", path, "--out", str(out / "default")]) == 0
        assert run(["midset", "--scene", circular, "--out", str(out / "m"),
                    "--alpha-levels", "5", "--resolution", "64", "--format", "svg"]) == 0

        def expect(path, header, rows):
            assert path.read_text() == ",".join(header) + "\n" + reference_rows(rows)

        for a_name, b_name in scene.pairs:
            dist = fg.fuzzy_distance(*scene.pair_points((a_name, b_name)))
            expect(out / f"{a_name}_{b_name}_distance.csv", ["alpha", "lo", "mid", "hi"],
                   [(alpha, lo, dist.dc, hi) for alpha, lo, hi in dist.cuts(7)])
            for sub, ts in (("t", (0.05, 1.0, 20.0)), ("default", default_t)):
                rows = []
                for t in ts:
                    value = fg.closeness(dist, float(t))
                    lo, hi = value.cut(0.0)
                    rows.append((t, lo, value.summary.m, hi, hi - lo))
                expect(out / sub / f"{a_name}_{b_name}_metric_curve.csv",
                       ["t", "lo", "mid", "hi", "spread"], rows)

        for a_name, b_name in MIXED_CIRCULAR_PAIRS:
            a, b = scene.pair_points((a_name, b_name))
            result = fg.compute_midset(a, b, alphas=np.linspace(0.0, 1.0, 5),
                                       bbox=MIXED_MIDSET_BBOX, resolution=64)
            by_alpha = {}
            for entry in result.entries:
                by_alpha.setdefault(entry.alpha, []).extend(
                    (entry.branch.value, i, x, y)
                    for i, polyline in enumerate(entry.polylines) for x, y in polyline)
            for alpha, rows in by_alpha.items():
                expect(out / "m" / f"{a_name}_{b_name}_midset_a{alpha:.4f}.csv",
                       ["branch", "polyline", "x", "y"], rows)
            svg = (out / "m" / f"{a_name}_{b_name}_midset.svg").read_text()
            assert re.findall(r'<polyline points="([^"]*)"', svg) == [
                reference_rows(polyline, end=" ")[:-1]
                for entry in result.entries for polyline in entry.polylines]

    @pytest.mark.parametrize("window", ["support", "mixed", "off_centre"])
    def test_cli_midset_files_match_reference_writer(self, window, scene_file, tmp_path):
        # the six overlap cases and example 4.1 in their support boxes, the
        # mixed circular pairs in a box that cuts the (A, C) ellipse, and a
        # box that excludes every pair's centre
        if window == "mixed":
            points, pairs = MIXED_POINTS, MIXED_CIRCULAR_PAIRS
        else:
            configs = [((0, 0, 1), (5, 0, 2)), ((0, 0, 1), (3, 0, 2)), ((0, 0, 1), (2, 0, 2)),
                       ((0, 0, 1), (2, 0, 3)), ((0, 0, 2), (1, 0, 4)), ((0, 0, 1), (0, 0, 2)),
                       ((0, 0, 2), (5, 0, 2))]
            points, pairs = [], []
            for i, specs in enumerate(configs):
                names = [f"P{i}{side}" for side in "ab"]
                points += [{"name": name, "core": [x, y],
                            "spread": {"kind": "circular", "radii": [r, r]}}
                           for name, (x, y, r) in zip(names, specs)]
                pairs.append(names)
        bbox = {"support": None, "mixed": MIXED_MIDSET_BBOX,
                "off_centre": (-1.0, 1.0, 3.0, 4.0)}[window]
        body = {"points": points, "pairs": pairs}
        if bbox is not None:
            body["grids"] = {"bbox": bbox}
        scene = fg.parse_scene(json.dumps(body))
        out = tmp_path / "out"
        assert run(["midset", "--scene", scene_file(json.dumps(body)), "--out", str(out),
                    "--alpha-levels", "5", "--resolution", "96", "--format", "svg"]) == 0
        vertices = 0
        for pair in scene.pairs:
            a, b = scene.pair_points(pair)
            result = fg.compute_midset(a, b, alphas=np.linspace(0.0, 1.0, 5),
                                       bbox=bbox or fg.support_bbox(a, b), resolution=96)
            vertices += sum(len(p) for e in result.entries for p in e.polylines)
            csvs, svg = midset_files_reference(a, b, result)
            stem = "_".join(pair)
            assert len(csvs) == 5
            for alpha, text in csvs.items():
                path = out / f"{stem}_midset_a{alpha:.4f}.csv"
                assert path.read_bytes() == text.encode("utf-8"), path.name
            assert (out / f"{stem}_midset.svg").read_bytes() == svg.encode("utf-8")
        assert vertices > 500

    def test_cli_jsons_match_reference_writer(self, scene_file, tmp_path):
        mixed = {"points": MIXED_POINTS}
        scene = fg.parse_scene(json.dumps(mixed))
        # A and E share a core, which has no Hausdorff line
        haus_pairs = [pair for pair in scene.pairs if set(pair) != {"A", "E"}]
        circular = dict(mixed, pairs=MIXED_CIRCULAR_PAIRS, grids={"bbox": MIXED_MIDSET_BBOX})
        out = tmp_path / "out"
        assert run(["distance", "--scene", scene_file(json.dumps(mixed)), "--out", str(out),
                    "--alpha-levels", "7"]) == 0
        assert run(["hausdorff", "--scene", scene_file(json.dumps(dict(mixed, pairs=haus_pairs)),
                                                       "haus.json"), "--out", str(out)]) == 0
        path = scene_file(json.dumps(circular), "circ.json")
        assert run(["classify", "--scene", path, "--out", str(out)]) == 0
        assert run(["invariance", "--scene", path, "--out", str(out), "--t", "0.5,1,20",
                    "--resolution", "64"]) == 0

        expected = {}
        for a_name, b_name in scene.pairs:
            dist = fg.fuzzy_distance(*scene.pair_points((a_name, b_name)))
            expected[f"{a_name}_{b_name}_distance.json"] = {
                "pair": [a_name, b_name], "summary": dist.summary.as_tuple(),
                "argmin_theta": dist.argmin_theta, "argmax_theta": dist.argmax_theta,
                "refined": dist.refined}
        for a_name, b_name in haus_pairs:
            res = fg.fuzzy_hausdorff(*scene.pair_points((a_name, b_name)))
            line = res.line
            expected[f"{a_name}_{b_name}_hausdorff.json"] = {
                "pair": [a_name, b_name], "summary": res.summary.as_tuple(),
                "projected": {a_name: res.projected_a.summary.as_tuple(),
                              b_name: res.projected_b.summary.as_tuple()},
                "line": {"a": line.a, "b": line.b, "c": line.c, "theta": line_frame(line)[0]}}
        for a_name, b_name in MIXED_CIRCULAR_PAIRS:
            a, b = scene.pair_points((a_name, b_name))
            th = fg.alpha_thresholds(a, b)
            edges = sorted({0.0, 1.0} | {v for v in (th.n1, th.n2)
                                         if v is not None and 0.0 < v < 1.0})
            bands = []
            for lo, hi in zip(edges[:-1], edges[1:]):
                case = fg.overlap_case(a, b, 0.5 * (lo + hi))
                bands.append({"alpha_lo": lo, "alpha_hi": hi, "case": case.value, "classes": {
                    branch.value: fg.classify_conic(fg.conic_coefficients(
                        a, b, 0.5 * (lo + hi), branch))
                    for branch in fg.active_branches(case)}})
            expected[f"{a_name}_{b_name}_classify.json"] = {
                "pair": [a_name, b_name],
                "thresholds": {"n": th.n, "n1": th.n1, "n2": th.n2},
                "case_at_support": fg.overlap_case(a, b, 0.0).value, "bands": bands}
            report = fg.invariance_check(a, b, (0.5, 1.0, 20.0), bbox=MIXED_MIDSET_BBOX,
                                         resolution=64)
            expected[f"{a_name}_{b_name}_invariance.json"] = {
                "pair": [a_name, b_name], "t": [0.5, 1.0, 20.0], "checked": report.checked,
                "disagreements": report.disagreements, "pole_points": report.pole_points,
                "agreed": report.passed}

        assert sorted(p.name for p in out.glob("*.json")) == sorted(expected)
        for name, payload in expected.items():
            assert (out / name).read_text() == reference_json(payload), name


# every finite float at all magnitudes, with the cases where %.9g and repr
# part ways: -0.0, subnormals, integers and [1e9, 1e16), where %.9g writes
# an exponent and repr does not
JSON_NUMBERS = st.one_of(
    FLOATS, st.sampled_from(SPECIAL),
    st.integers(-2**53, 2**53).map(float),
    st.integers(1, 2**52 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.floats(1e9, 1e16, exclude_max=True), st.floats(-1e16, -1e9, exclude_min=True))
# names with JSON escapes, spaces and non-ASCII characters
JSON_NAMES = st.one_of(st.text(min_size=1), st.text('"\\ A_é€\U0001F600\x01', min_size=1))


class TestJsonTemplates:
    """The fixed-schema JSON templates against the json.dump reference writer in oracles."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_NAMES, JSON_NAMES, st.lists(JSON_NUMBERS, min_size=5, max_size=5),
           st.booleans())
    def test_distance(self, name_a, name_b, v, refined):
        assert distance_json(name_a, name_b, v[:3], v[3], v[4], refined) == reference_json({
            "pair": [name_a, name_b], "summary": v[:3], "argmin_theta": v[3],
            "argmax_theta": v[4], "refined": refined})

    @settings(max_examples=300, deadline=None)
    @given(JSON_NAMES, JSON_NAMES, st.lists(JSON_NUMBERS, min_size=13, max_size=13))
    def test_hausdorff(self, name_a, name_b, v):
        assume(name_a != name_b)
        assert hausdorff_json(name_a, name_b, v[:3], v[3:6], v[6:9], v[9:]) == reference_json({
            "pair": [name_a, name_b], "summary": v[:3],
            "projected": {name_a: v[3:6], name_b: v[6:9]},
            "line": dict(zip(("a", "b", "c", "theta"), v[9:]))})

    @settings(max_examples=300, deadline=None)
    @given(JSON_NAMES, JSON_NAMES, st.lists(JSON_NUMBERS, max_size=6),
           st.lists(st.integers(0, 2**63), min_size=3, max_size=3))
    def test_invariance(self, name_a, name_b, ts, counts):
        checked, disagreements, pole_points = counts
        assert invariance_json(name_a, name_b, ts, checked, disagreements, pole_points,
                               disagreements == 0) == reference_json({
            "pair": [name_a, name_b], "t": ts, "checked": checked,
            "disagreements": disagreements, "pole_points": pole_points,
            "agreed": disagreements == 0})

    @pytest.mark.parametrize("x, text", [(1.0, "1.0"), (-0.0, "-0.0"), (1e10, "10000000000.0"),
                                         (123456789012.0, "123456789000.0"),
                                         (5e-324, "5e-324"), (np.inf, "Infinity"),
                                         (-np.inf, "-Infinity"), (np.nan, "NaN"),
                                         (0.0001, "0.0001"), (1e-5, "1e-05"),
                                         (-1.25, "-1.25"), (9.9999999996, "10.0"),
                                         (123456789.4, "123456789.0"),
                                         (0.123456789123, "0.123456789")])
    def test_number_spelling(self, x, text):
        assert f'"argmin_theta": {text},' in distance_json("A", "B", (0, 0, 0), x, 0.0, True)
