"""End-to-end command line checks, run in process through main().

Exit code contract: 0 success, 2 malformed input, 3 precondition
violation, 4 inconclusive numeric verdict, 1 numeric failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import horopoly
from horopoly.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def l1_file(tmp_path):
    path = tmp_path / "l1.json"
    path.write_text(json.dumps(
        [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]]))
    return str(path)


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(
        {"vertices": [["1", "1"], ["-1", "1"], ["-1", "-1"], ["1", "-1"]]}))
    return str(path)


@pytest.fixture()
def hexagon_file(tmp_path):
    verts = [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]]
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(verts))
    return str(path)


def hull_out(tmp_path, capsys, src):
    out = tmp_path / "hull.json"
    code, _, _ = run(capsys, "hull", src, "--out", str(out))
    assert code == 0
    return str(out)


class TestHullDual:
    def test_hull_json_on_stdout(self, capsys, l1_file):
        code, out, _ = run(capsys, "hull", l1_file)
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc["vertices"]) == [["-1", "0"], ["0", "-1"],
                                           ["0", "1"], ["1", "0"]]

    def test_hull_out_file_and_table(self, tmp_path, capsys, l1_file):
        out = tmp_path / "ball.json"
        code, table, _ = run(capsys, "hull", l1_file, "--out", str(out))
        assert code == 0
        assert "vertices: 4" in table
        assert json.loads(out.read_text())["dim"] == 2

    def test_dual_of_cross_is_square(self, tmp_path, capsys, l1_file):
        src = hull_out(tmp_path, capsys, l1_file)
        code, out, _ = run(capsys, "dual", src)
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc["vertices"]) == [["-1", "-1"], ["-1", "1"],
                                           ["1", "-1"], ["1", "1"]]

    def test_byte_identical_reruns(self, capsys, l1_file):
        _, out1, _ = run(capsys, "hull", l1_file)
        _, out2, _ = run(capsys, "hull", l1_file)
        assert out1 == out2
        assert out1.endswith("\n")

    def test_hull_rejects_scalar_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("42")
        code, _, err = run(capsys, "hull", str(bad))
        assert code == 2
        assert "error:" in err

    def test_hull_rejects_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[[1, 0], ")
        code, _, _ = run(capsys, "hull", str(bad))
        assert code == 2

    @pytest.mark.parametrize("text", ["[[1e400, 0], [0, 1], [-1, -1]]",
                                      "[[true, 0], [0, 1], [-1, -1]]",
                                      '[["1e5000", "0"], ["0", "1"], ["-1", "-1"]]'])
    def test_hull_rejects_non_rational_numbers(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run(capsys, "hull", str(bad))
        assert code == 2
        assert out == "" and err.startswith("error: bad point")

    @pytest.mark.parametrize("text", [
        '{"vertices": [[true, "-1"], ["0", "1"], ["1", "0"]]}',
        '{"vertices": [["-1", "-1"], ["0", "1"], ["1", "0"]],'
        ' "facets": [[1e400, 0]]}'])
    def test_polytope_rejects_non_rational_numbers(self, tmp_path, capsys,
                                                   text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, _, err = run(capsys, "dual", str(bad))
        assert code == 2
        assert err.startswith("error: bad ")


class TestSatakeVerbs:
    def test_combined_document_without_file_flags(self, capsys):
        code, out, _ = run(capsys, "satake", "--type", "A", "--rank", "2",
                           "--weights", "adjoint")
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc) == ["ball", "hull", "report"]
        assert len(doc["hull"]["vertices"]) == 6
        assert doc["report"]["shape"] == "hexagon"

    def test_file_flags_write_files_and_print_table(self, tmp_path, capsys):
        hull = tmp_path / "hull.json"
        ball = tmp_path / "ball.json"
        rep = tmp_path / "report.json"
        code, table, _ = run(capsys, "satake", "--type", "A", "--rank", "2",
                             "--weights", "adjoint", "--out", str(hull),
                             "--ball", str(ball), "--report", str(rep))
        assert code == 0
        assert "shape: hexagon" in table
        assert len(json.loads(ball.read_text())["vertices"]) == 6
        assert json.loads(rep.read_text())["regular"] is True

    def test_classify_stdout(self, capsys):
        code, out, _ = run(capsys, "classify", "--type", "A", "--rank", "2",
                           "--weights", "standard")
        assert code == 0
        doc = json.loads(out)
        assert doc["hull_f_vector"] == [3, 3, 1]
        assert doc["regular"] is False
        assert doc["singular_supports"] == [[1]]

    def test_scale_flag_accepts_rationals(self, capsys):
        code, out, _ = run(capsys, "classify", "--type", "A", "--rank", "2",
                           "--weights", "adjoint", "--scale", "3/2")
        assert code == 0
        assert json.loads(out)["shape"] == "hexagon"

    def test_bad_scale_is_input_error(self, capsys):
        code, _, err = run(capsys, "classify", "--type", "A", "--rank", "2",
                           "--weights", "adjoint", "--scale", "fast")
        assert code == 2
        assert "scale" in err

    def test_unknown_weight_name(self, capsys):
        code, _, _ = run(capsys, "satake", "--type", "A", "--rank", "2",
                         "--weights", "nonsense")
        assert code == 2

    def test_empty_weight_list(self, capsys):
        code, _, _ = run(capsys, "satake", "--type", "A", "--rank", "2",
                         "--weights", ",")
        assert code == 2

    def test_compare_scale_invariance(self, capsys):
        code, out, _ = run(capsys, "compare", "--type", "A", "--rank", "2",
                           "--weights", "adjoint", "--weights2", "adjoint",
                           "--scale2", "2")
        assert code == 0
        assert json.loads(out)["same"] is True

    def test_compare_distinguishes(self, capsys):
        code, out, _ = run(capsys, "compare", "--type", "A", "--rank", "2",
                           "--weights", "adjoint", "--weights2", "standard")
        assert code == 0
        assert json.loads(out)["same"] is False

    def test_over_cap_rank_refused(self, capsys):
        code, out, err = run(capsys, "classify", "--type", "A", "--rank", "80",
                             "--weights", "adjoint")
        assert code == 3
        assert out == ""
        assert "exceeds the safety cap 25000" in err


class TestBoundaryVerbs:
    def test_strata_square(self, capsys, square_file):
        code, out, _ = run(capsys, "strata", "--ball", square_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["stratum_count"] == 8
        assert doc["finite_boundary"] is True
        dims = sorted(s["dim"] for s in doc["strata"])
        assert dims == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_limit_ray_frozen(self, capsys, square_file):
        code, out, _ = run(capsys, "limit-ray", "--ball", square_file,
                           "--q", "0,3", "--u", "1,0")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"face": [0], "p": ["0", "0"]}

    def test_limit_ray_zero_direction(self, capsys, square_file):
        code, _, err = run(capsys, "limit-ray", "--ball", square_file,
                           "--q", "0,3", "--u", "0,0")
        assert code == 3
        assert "error:" in err

    def test_negative_vectors_joined_with_equals(self, capsys, square_file):
        code, out, _ = run(capsys, "limit-ray", "--ball", square_file,
                           "--q=-1,0", "--u=-1,0")
        assert code == 0
        assert json.loads(out) == {"face": [3], "p": ["0", "0"]}

    def test_negative_vectors_as_separate_tokens(self, capsys, square_file):
        joined = run(capsys, "limit-ray", "--ball", square_file,
                     "--q=-1,0", "--u=-1/2,1")
        spaced = run(capsys, "limit-ray", "--ball", square_file,
                     "--q", "-1,0", "--u", "-1/2,1")
        assert joined[0] == 0 and spaced[:2] == joined[:2]

    def test_flag_is_not_taken_as_a_vector(self, capsys, square_file):
        code, _, err = run(capsys, "limit-ray", "--ball", square_file,
                           "--q", "--u", "1,0")
        assert code == 2
        assert "--q: expected one argument" in err

    def test_bad_vector_text(self, capsys, square_file):
        code, _, err = run(capsys, "limit-ray", "--ball", square_file,
                           "--q", "0;3", "--u", "1,0")
        assert code == 2
        assert "vector" in err


class TestRenderVerb:
    def test_svg_with_walls(self, tmp_path, capsys, hexagon_file):
        src = hull_out(tmp_path, capsys, hexagon_file)
        code, out, _ = run(capsys, "render", src, "--format", "svg", "--walls")
        assert code == 0
        assert out.count("<line") == 6
        assert out.count("<path") == 1

    def test_svg_deterministic(self, tmp_path, capsys, hexagon_file):
        src = hull_out(tmp_path, capsys, hexagon_file)
        _, out1, _ = run(capsys, "render", src, "--format", "svg", "--walls",
                         "--labels")
        _, out2, _ = run(capsys, "render", src, "--format", "svg", "--walls",
                         "--labels")
        assert out1 == out2

    def test_off_output_file(self, tmp_path, capsys):
        cube = tmp_path / "cube.json"
        cube.write_text(json.dumps(
            [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]))
        src = hull_out(tmp_path, capsys, str(cube))
        out = tmp_path / "cube.off"
        code, table, _ = run(capsys, "render", src, "--format", "off",
                             "--out", str(out))
        assert code == 0
        assert "format: off" in table
        assert out.read_text().splitlines()[1] == "8 6 12"

    @pytest.mark.parametrize("points", [
        [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]],
        [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
    ], ids=["hexagon", "square_in_3d"])
    def test_off_rejects_flat_input(self, tmp_path, capsys, points):
        pts = tmp_path / "points.json"
        pts.write_text(json.dumps(points))
        src = hull_out(tmp_path, capsys, str(pts))
        code, _, err = run(capsys, "render", src, "--format", "off")
        assert code == 2
        assert "error:" in err

    def test_overlays_rejected_for_off(self, tmp_path, capsys, hexagon_file):
        src = hull_out(tmp_path, capsys, hexagon_file)
        code, _, _ = run(capsys, "render", src, "--format", "off", "--walls")
        assert code == 2

    def test_walls_need_rank_two(self, tmp_path, capsys, hexagon_file):
        src = hull_out(tmp_path, capsys, hexagon_file)
        code, _, _ = run(capsys, "render", src, "--format", "svg", "--walls",
                         "--rank", "3")
        assert code == 2

    def test_point_overlay_from_file(self, tmp_path, capsys, hexagon_file):
        src = hull_out(tmp_path, capsys, hexagon_file)
        marks = tmp_path / "marks.json"
        marks.write_text(json.dumps([["1/2", "0"], ["0", "1/2"]]))
        code, out, _ = run(capsys, "render", src, "--format", "svg",
                           "--points", str(marks))
        assert code == 0
        assert out.count("<circle") == 2


class TestArgumentHandling:
    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "satake", "--type", "A", "--rank", "2",
                         "--weights", "adjoint", "--bogus")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "dual", "no-such-file.json")
        assert code == 2
        assert "error:" in err

    def test_out_dir_env_override(self, tmp_path, capsys, monkeypatch,
                                  l1_file):
        monkeypatch.setenv("HOROPOLY_OUT_DIR", str(tmp_path / "sink"))
        code, _, _ = run(capsys, "hull", l1_file, "--out", "nested/ball.json")
        assert code == 0
        assert (tmp_path / "sink" / "nested" / "ball.json").exists()

    def test_absolute_out_ignores_env(self, tmp_path, capsys, monkeypatch,
                                      l1_file):
        monkeypatch.setenv("HOROPOLY_OUT_DIR", str(tmp_path / "sink"))
        target = tmp_path / "direct.json"
        code, _, _ = run(capsys, "hull", l1_file, "--out", str(target))
        assert code == 0
        assert target.exists()
        assert not (tmp_path / "sink").exists()


SRC = str(Path(horopoly.__file__).resolve().parents[1])
GOLDEN = Path(__file__).parent / "golden"
SPEC = ["--type", "A", "--rank", "2", "--weights", "adjoint"]


def _cli_import_loads(module):
    code = f"import sys, horopoly.cli; sys.exit({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    return proc.returncode != 0


def test_cli_import_leaves_scipy_out():
    assert not _cli_import_loads("scipy")


def test_cli_import_leaves_numpy_out():
    assert not _cli_import_loads("numpy")


@pytest.mark.parametrize("argv", [
    ["hull", "cross_points.json"],
    ["dual", "square_ball.json"],
    ["satake", *SPEC],
    ["classify", *SPEC],
    ["strata", "--ball", "square_ball.json"],
    ["limit-ray", "--ball", "square_ball.json", "--q=0,1", "--u=1,0"],
    ["render", "square_ball.json", "--format", "svg"],
    ["render", "cube_ball.json", "--format", "off"],
    ["compare", *SPEC, "--weights2", "standard"],
], ids=["hull", "dual", "satake", "classify", "strata", "limit-ray",
        "render-svg", "render-off", "compare"])
def test_exact_verbs_leave_numpy_out(argv):
    # exit 10 flags numpy loaded by a verb that otherwise succeeded
    code = ("import sys; from horopoly.cli import main; code = main(sys.argv[1:]); "
            "sys.exit(10 if 'numpy' in sys.modules else code)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=GOLDEN,
                          capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("argv", [
    ["hull", "points.json"],
    ["dual", "ball.json"],
    ["strata", "--ball", "ball.json"],
    ["satake", *SPEC, "--scale", "1/0"],
    ["classify", *SPEC, "--scale", "1/0"],
    ["compare", *SPEC, "--weights2", "standard", "--scale2", "1/0"],
    ["limit-ray", "--ball", str(GOLDEN / "square_ball.json"), "--q=1/0,0",
     "--u=1,0"],
], ids=lambda argv: argv[0])
def test_zero_denominator_is_input_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("points.json").write_text('[["1/0", "0"], ["0", "1"], ["-1", "-1"]]')
    Path("ball.json").write_text(
        '{"vertices": [["1/0", "0"], ["0", "1"], ["-1", "-1"]]}')
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["dual", "ball.json"],
    ["satake", *SPEC, "--scale", "1e-600"],
    ["classify", *SPEC, "--scale", "1e100000"],
    ["classify", *SPEC, "--scale", "1e1000000"],
    ["compare", *SPEC, "--weights2", "standard", "--scale2", "1E1_000"],
    ["limit-ray", "--ball", str(GOLDEN / "square_ball.json"), "--q=1e5000,0",
     "--u=1,0"],
], ids=["dual", "satake", "classify-1e100000", "classify-1e1000000", "compare",
        "limit-ray"])
def test_decimal_exponent_beyond_cap_is_input_error(tmp_path, capsys,
                                                    monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("ball.json").write_text(
        '{"vertices": [["1e-501", "0"], ["0", "1"], ["-1", "-1"]]}')
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: bad ") and "Traceback" not in err


def test_decimal_exponent_at_cap_is_accepted(tmp_path, capsys):
    points = tmp_path / "points.json"
    points.write_text('[["1e500", "0"], ["0", "1e-500"], ["-1", "-1"]]')
    code, out, _ = run(capsys, "hull", str(points))
    assert code == 0
    assert ["1" + "0" * 500, "0"] in json.loads(out)["vertices"]


def long_literal_points(digits):
    """8 points in dim 4 with literals of about the given length; their
    facet functionals have about seven times as many digits."""
    pts = []
    for k in range(8):
        axis, s = k // 2, 1 - 2 * (k % 2)
        pts.append([str(s * (3 * 10**digits + k)) if j == axis
                    else f"{-s}/{7 * 10**digits + k}" for j in range(4)])
    return pts


def test_long_literals_print_in_full(tmp_path, capsys):
    # long literals print in full, and dual reads the document back
    pts = long_literal_points(300)
    points = tmp_path / "points.json"
    points.write_text(json.dumps(pts))
    code, out, err = run(capsys, "hull", str(points))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert sorted(doc["vertices"]) == sorted(pts)
    assert max(len(x) for f in doc["facets"] for x in f) > 2000
    ball = tmp_path / "ball.json"
    ball.write_text(out)
    code, out, err = run(capsys, "dual", str(ball))
    assert code == 0 and err == ""
    assert json.loads(out)["facets"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
def test_long_literals_past_the_digit_limit_are_refused(tmp_path, capsys):
    # 1,501-digit literals, whose facet functionals outgrow Python's
    # 4300-digit limit on int-to-str conversion, so that dual could not
    # read the document back
    points = tmp_path / "points.json"
    points.write_text(json.dumps(long_literal_points(1500)))
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "hull", str(points))
    assert code == 3 and out == ""
    assert err.startswith(f"error: the exact result has an integer of over {limit} digits")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv", [
    ["hull", "bad.json"],
    ["dual", "bad.json"],
    ["strata", "--ball", "bad.json"],
    ["render", str(GOLDEN / "square_ball.json"), "--format", "svg",
     "--points", "bad.json"],
], ids=lambda argv: argv[0])
def test_file_that_is_not_utf8_is_input_error(tmp_path, capsys, monkeypatch,
                                              argv):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_bytes(b"\xff\xfe[[1, 0]]")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON in bad.json")


class TestFlatTest:
    def test_hexagon_ball_passes(self, tmp_path, capsys, hexagon_file):
        ball = hull_out(tmp_path, capsys, hexagon_file)
        code, out, _ = run(capsys, "flat-test", "--n", "3", "--ball", ball)
        assert code == 0
        doc = json.loads(out)
        assert doc["consistency"]["regular"]["status"] == "converged"
        assert doc["consistency"]["wall"]["status"] == "converged"
        assert doc["consistency"]["wall"]["ray_type"]["indices"] == [0]
        assert doc["invariance"]["limit_monotone"] is True

    def test_short_horizon_is_inconclusive(self, tmp_path, capsys,
                                           hexagon_file):
        ball = hull_out(tmp_path, capsys, hexagon_file)
        code, out, _ = run(capsys, "flat-test", "--n", "3", "--ball", ball,
                           "--tmax", "10")
        assert code == 4
        doc = json.loads(out)
        assert doc["consistency"]["regular"]["status"] == "inconclusive"

    @pytest.mark.parametrize("tmax", ["inf", "nan", "-5"])
    def test_bad_horizon_rejected(self, tmp_path, capsys, hexagon_file, tmax):
        ball = hull_out(tmp_path, capsys, hexagon_file)
        code, out, err = run(capsys, "flat-test", "--n", "3", "--ball", ball,
                             "--tmax", tmax)
        assert code == 2
        assert out == ""
        assert "error: t_max must be positive and finite" in err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        segment = tmp_path / "segment.json"
        segment.write_text("[[-1], [1]]")
        ball = hull_out(tmp_path, capsys, str(segment))
        code, out, err = run(capsys, "flat-test", "--n", "2", "--ball", ball,
                             "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "error: the sampling seed must be non-negative" in err

    def test_ball_without_symmetry_rejected(self, tmp_path, capsys,
                                            square_file):
        ball = hull_out(tmp_path, capsys, square_file)
        code, _, err = run(capsys, "flat-test", "--n", "3", "--ball", ball)
        assert code == 3
        assert "error:" in err


# ---------------------------------------------------------------------------
# malformed-input corpus: every verb, refused with exit 2 or 3, never a
# traceback

CORPUS_FILES = {
    "ragged": [["1", "0"], ["0"]],
    "empty": [],
    "nested": [[["1", "0"]], [["0", "1"]]],
    "no_vertices": {"vertices": []},
    "segment": {"vertices": [["-1", "0"], ["1", "0"]]},
    "off_centre": {"vertices": [["1", "1"], ["1", "3"], ["3", "1"], ["3", "3"]]},
    "square": {"vertices": [["-1", "-1"], ["-1", "1"], ["1", "-1"], ["1", "1"]]},
    "flat_3d": {"vertices": [["0", "0", "1"], ["0", "1", "1"], ["1", "0", "1"],
                             ["1", "1", "1"]]},
    "cube": {"vertices": [[x, y, z] for x in ("-1", "1") for y in ("-1", "1")
                          for z in ("-1", "1")]},
    "points_1d": [["1"]],
    "points_empty": [[]],
    "points_object": {"x": 1},
}

SPEC = "--type A --rank 2 --weights"

MALFORMED = [
    "hull {ragged}",
    "hull {empty}",
    "hull {nested}",
    "hull {no_vertices}",
    "hull {missing}",
    "dual {ragged}",
    "dual {segment}",
    "dual {off_centre}",
    "strata --ball {segment}",
    "strata --ball {off_centre}",
    "strata --ball {nested}",
    "limit-ray --ball {segment} --q 0,0 --u 1,0",
    "limit-ray --ball {off_centre} --q 0,0 --u 1,0",
    "limit-ray --ball {square} --q 0,0 --u 0,0",
    "limit-ray --ball {square} --q 0,0 --u 1,0,0",
    "limit-ray --ball {square} --q 1 --u 1,0",
    "limit-ray --ball {square} --q 0,0 --u ,",
    "flat-test --n 3 --ball {segment}",
    "flat-test --n 3 --ball {off_centre}",
    "flat-test --n 2 --ball {square}",
    "flat-test --n 9 --ball {square}",
    f"classify {SPEC} bogus",
    f"classify {SPEC} ,,",
    f"classify {SPEC} fundamental:3",
    f"classify {SPEC} adjoint --scale 0",
    f"classify {SPEC} adjoint --scale x",
    "classify --type A --rank 0 --weights adjoint",
    "classify --type A --rank two --weights adjoint",
    "classify --type Q --rank 2 --weights adjoint",
    "satake --type A --rank 40 --weights adjoint",
    f"satake {SPEC} adjoint --scale 1/0",
    f"compare {SPEC} adjoint --weights2 nope",
    f"compare {SPEC} adjoint --weights2 adjoint --scale2 -1",
    "render {cube} --format svg",
    "render {flat_3d} --format off",
    "render {square} --format off",
    "render {square} --format svg --points {points_1d}",
    "render {square} --format svg --points {points_empty}",
    "render {square} --format svg --points {points_object}",
    "render {square} --format svg --walls --type B --rank 3",
    "render {cube} --format svg --walls",
]


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    paths = {"missing": str(root / "missing.json")}
    for name, doc in CORPUS_FILES.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_refused(capsys, corpus_paths, case):
    code, out, err = run(capsys, *case.format(**corpus_paths).split())
    assert code in (2, 3)
    assert out == ""
    assert "error:" in err
