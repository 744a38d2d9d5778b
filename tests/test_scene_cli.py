import json
import os
import re
import subprocess
import sys

import pytest

import fuzgeo as fg
from fuzgeo.cli import run

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

    def test_hausdorff_failure_leaves_no_partial_output(self, scene_file, tmp_path):
        # the second pair (A, C) shares a core and fails after (A, B) succeeds
        text = EX22_SCENE.replace('"pairs": [["A", "B"]]', '"pairs": [["A", "B"], ["A", "C"]]')
        text = text.replace('"points": [', """"points": [
    {"name": "C", "core": [1, 0], "spread": {"kind": "circular", "radii": [2, 2]}},""")
        out = tmp_path / "out"
        assert run(["hausdorff", "--scene", scene_file(text), "--out", str(out)]) == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("module", ["fuzgeo", "fuzgeo.cli"])
    def test_python_dash_m_runs_cli(self, module, scene_file, tmp_path):
        out = tmp_path / "out"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run(
            [sys.executable, "-m", module, "distance", "--scene", scene_file(EX22_SCENE),
             "--out", str(out), "--alpha-levels", "3"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert (out / "A_B_distance.json").exists()
