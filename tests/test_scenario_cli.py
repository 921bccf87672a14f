import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hfreemaps
from hfreemaps.cli import main, run
from hfreemaps.errors import ScenarioError
from hfreemaps.hfree import induced_metric
from hfreemaps.scenario import TASK_KEYS, parse_scenario

CONTACT = """
[chart]
coords = x, y, z

[distribution]
field = 0, 1, 0
field = 1, 0, -y

[map]
component = y
component = x
component = exp(y)
component = exp(x)
component = z

[points]
count = 50
box = -2:2, -2:2, -2:2
seed = 7

[task]
kind = check-hfree
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestScenarioParsing:
    def test_contact_parses(self, tmp_path):
        sc = parse_scenario(CONTACT, "contact.ini")
        assert sc.task == "check-hfree"
        assert sc.chart.dim == 3
        assert len(sc.frame) == 2
        assert len(sc.map_components) == 5

    def test_unknown_name_with_line(self):
        text = CONTACT.replace("field = 1, 0, -y", "field = 1, 0, -w")
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text, "bad.ini")
        assert "unknown name" in str(info.value)
        assert "bad.ini:7" in str(info.value)

    def test_missing_task(self):
        with pytest.raises(ScenarioError) as info:
            parse_scenario("[chart]\ncoords = x, y\n", "nothing.ini")
        assert "task" in str(info.value)

    def test_bad_kind(self):
        text = CONTACT.replace("kind = check-hfree", "kind = fly")
        with pytest.raises(ScenarioError):
            parse_scenario(text, "bad.ini")

    def test_key_outside_section(self):
        with pytest.raises(ScenarioError) as info:
            parse_scenario("coords = x\n", "loose.ini")
        assert "loose.ini:1" in str(info.value)

    def test_named_exprs_resolve(self):
        text = """
[chart]
coords = x, y

[exprs]
f = y*exp(x)

[distribution]
field = 2*y, 1-y^2

[points]
count = 3
box = -1:1, -1:1

[window]
box = -1:1, -1:1
grid = 11, 11

[task]
kind = transversal
f = f
"""
        sc = parse_scenario(text, "t.ini")
        assert "f" in sc.names


class TestRun:
    def test_contact_check_passes(self, tmp_path, capsys):
        path = write(tmp_path, "contact.ini", CONTACT)
        out = tmp_path / "out"
        assert run(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["n_failures"] == 0
        assert report["summary"]["n_points"] == 50
        assert report["summary"]["min_abs_det"] > 0
        assert report["versions"]["hfreemaps"]
        point = report["points"][0]
        for key in ("certified_rank", "smallest_retained_sv", "threshold",
                    "hfree", "uncertain"):
            assert key in point

    def test_check_failure_exit_code(self, tmp_path):
        text = """
[chart]
coords = x, y

[distribution]
field = 1, 0

[map]
component = x
component = x

[points]
count = 10
box = -1:1, -1:1
seed = 1

[task]
kind = check-hfree
"""
        path = write(tmp_path, "affine.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["n_failures"] == 10

    def test_near_threshold_reported_as_uncertain(self, tmp_path):
        # the second-order row is scaled to sit inside the 10x band
        # around the rank cutoff: the verdict must carry the flag
        text = """
[chart]
coords = x, y

[distribution]
field = 1, 0

[map]
component = x
component = x+0.000000001*x^2

[points]
point = 0.5, 0.0

[task]
kind = check-hfree
"""
        path = write(tmp_path, "near.ini", text)
        out = tmp_path / "out"
        code = run(path, out)
        report = json.loads((out / "report.json").read_text())
        assert report["points"][0]["uncertain"]
        assert code in (0, 2)  # verdict is reported either way, flagged

    def test_unknown_name_exit_one(self, tmp_path, capsys):
        text = CONTACT.replace("component = z", "component = q")
        path = write(tmp_path, "broken.ini", text)
        assert run(path, tmp_path / "out") == 1
        assert "unknown name" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run(tmp_path / "absent.ini", tmp_path / "out") == 1

    def test_seed_override_changes_points(self, tmp_path):
        path = write(tmp_path, "contact.ini", CONTACT)
        run(path, tmp_path / "a", seed=1)
        run(path, tmp_path / "b", seed=2)
        ra = json.loads((tmp_path / "a/report.json").read_text())
        rb = json.loads((tmp_path / "b/report.json").read_text())
        assert ra["points"][0]["point"] != rb["points"][0]["point"]
        assert ra["seed"] == 1 and rb["seed"] == 2

    def test_byte_identical_reruns(self, tmp_path):
        path = write(tmp_path, "contact.ini", CONTACT)
        run(path, tmp_path / "a")
        run(path, tmp_path / "b")
        assert ((tmp_path / "a/report.json").read_bytes()
                == (tmp_path / "b/report.json").read_bytes())

    def test_tol_override_changes_verdict(self, tmp_path):
        # loose enough to discard the smallest retained singular values
        # of the assembled matrix while the frame itself stays valid
        path = write(tmp_path, "contact.ini", CONTACT)
        assert run(path, tmp_path / "strict") == 0
        assert run(path, tmp_path / "loose", tol=0.05) == 2
        report = json.loads((tmp_path / "loose/report.json").read_text())
        assert report["tolerance"] == 0.05
        assert report["summary"]["n_failures"] > 0

    def test_threads_flag_is_deterministic(self, tmp_path):
        text = """
[chart]
coords = x, y

[distribution]
field = 1, 0

[task]
kind = genericity
q = 5
degree = 3
n_maps = 8
n_points = 25
seed = 12
box = -2:2, -2:2
"""
        path = write(tmp_path, "gen.ini", text)
        run(path, tmp_path / "one", threads=1)
        run(path, tmp_path / "four", threads=4)
        assert ((tmp_path / "one/report.json").read_bytes()
                == (tmp_path / "four/report.json").read_bytes())
        assert ((tmp_path / "one/genericity.csv").read_bytes()
                == (tmp_path / "four/genericity.csv").read_bytes())


class TestTasks:
    def test_induced_metric(self, tmp_path):
        text = CONTACT.replace("kind = check-hfree", "kind = induced-metric")
        path = write(tmp_path, "metric.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["n_positive_definite"] == 50

    def test_invert(self, tmp_path):
        text = CONTACT.replace(
            "kind = check-hfree",
            "kind = invert\npoint = 0.2, -0.1, 0.4\npsi = 0, 0\n"
            "dg = 1, 0\ndg = 0, 1")
        path = write(tmp_path, "invert.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["df"]) == 5
        assert report["summary"]["norm_df"] > 0

    def test_construct_1d(self, tmp_path):
        text = """
[chart]
coords = x, y

[exprs]
f = y*exp(x)

[distribution]
field = 2*y, 1-y^2

[points]
count = 40
box = -2:2, -2:2
seed = 3

[task]
kind = construct-1d
f = f
curve = exp
"""
        path = write(tmp_path, "c1.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["n_failures"] == 0
        assert report["map"] == ["y*exp(x)", "exp(y*exp(x))"]
        # stable check-report schema: rank evidence per point
        point = report["points"][0]
        for key in ("certified_rank", "smallest_retained_sv", "threshold"):
            assert key in point

    def test_construct_certified_is_hfree_and_the_det_floor(self, tmp_path):
        # the scale repro: with f = 0.001*x + 0.001*y most points keep a rank
        # certified with a margin while |det| falls below the floor
        demo = os.path.join(os.path.dirname(__file__), "..", "demos", "scenarios",
                            "construct_1d.ini")
        with open(demo, encoding="utf-8") as handle:
            text = handle.read()
        assert "f = y*exp(x)" in text
        path = write(tmp_path, "scale.ini", text.replace("f = y*exp(x)", "f = 0.001*x + 0.001*y"))
        out = tmp_path / "out"
        assert main([path, "--out", str(out)]) == 2
        records = json.loads((out / "report.json").read_text())["points"]
        tol = 1e-9  # the identity tolerance of construct-1d at the default rank tolerance
        for rec in records:
            floor = abs(rec["det"]) > tol * max(1.0, abs(rec["det"]))
            assert rec["certified"] == (rec["hfree"] and floor), rec["point"]
        assert any(r["hfree"] and r["identity"] and not r["certified"] for r in records)
        assert not all(r["hfree"] for r in records)

    def test_construct_cis(self, tmp_path):
        text = """
[chart]
coords = a1, a2, w1, w2

[distribution]
field = 0, 0, 1, 0
field = 0, 0, 0, 1

[points]
count = 30
box = -2:2, -2:2, -2:2, -2:2
seed = 9

[task]
kind = construct-cis
f = w1
f = w2
curve = exp
curve = exp
"""
        path = write(tmp_path, "cis.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["n_failures"] == 0
        assert np.isclose(report["determinant_constant"], 2.0)

    @pytest.mark.parametrize("kind", ["construct-1d", "construct-cis"])
    def test_tolerance_reaches_the_rank_certificate(self, tmp_path, kind):
        # the report states the run's tolerance, so its thresholds must use it
        path = (os.path.join(os.path.dirname(__file__), "..", "demos", "scenarios",
                             "construct_1d.ini") if kind == "construct-1d"
                else write(tmp_path, "cis.ini", TASK_TEXTS[kind]))
        reports = []
        for args in ([], ["--tol", "1e-3"]):
            out = tmp_path / f"out{len(reports)}"
            assert main([path, "--out", str(out), *args]) in (0, 2)
            reports.append(json.loads((out / "report.json").read_text()))
        default, loose = reports
        assert loose["tolerance"] == 1e-3
        assert [r["point"] for r in loose["points"]] == [r["point"] for r in default["points"]]
        for a, b in zip(default["points"], loose["points"], strict=True):
            assert b["threshold"] == pytest.approx(1e6 * a["threshold"], rel=1e-12)

    def test_rp_bracket_and_construct(self, tmp_path):
        base = """
[chart]
coords = x, y, z

[points]
count = 20
box = -2:2, -2:2, -2:2
seed = 4

[task]
kind = rp-bracket
casimir = x
f = y
g = z
"""
        path = write(tmp_path, "rp.ini", base)
        out = tmp_path / "rp_out"
        assert run(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["min"] == 1.0 == report["summary"]["max"]

        text = base.replace("kind = rp-bracket", "kind = construct-rp").replace(
            "f = y\ng = z", "h = y\nf = z\ncurve = exp")
        path = write(tmp_path, "rpc.ini", text)
        out = tmp_path / "rpc_out"
        assert run(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["n_failures"] == 0
        assert report["hamiltonian_field"] == ["0", "0", "1"]

    @pytest.mark.parametrize("kind", ["check-hfree", "construct-1d", "construct-cis",
                                      "construct-rp"])
    def test_rank_records_match_pointwise_certificates(self, tmp_path, kind):
        from hfreemaps.constructions import (FreeCurve, RPBracketSpec, build_cis, build_rp,
                                             compose_1d)
        from hfreemaps.expr import parse
        from hfreemaps.geometry import Distribution
        from hfreemaps.hfree import is_hfree_at
        from hfreemaps.scenario import load_scenario

        # a coarse tolerance, so that some points fail and some are uncertain
        tol = 0.02
        path = write(tmp_path, "rank.ini", RANK_TEXTS[kind])
        out = tmp_path / "out"
        code = run(path, out, tol=tol)
        report = json.loads((out / "report.json").read_text())
        records = report["points"]
        points = np.array([r["point"] for r in records])
        sc = load_scenario(path)
        if kind == "check-hfree":
            dist, F = sc.distribution(), sc.map_spec()
        elif kind == "construct-1d":
            dist = sc.distribution()
            F = compose_1d(parse("y*exp(x)"), FreeCurve.exp(), sc.chart).map_spec
        elif kind == "construct-cis":
            dist = sc.distribution()
            F = build_cis(["w1", "w2"], [FreeCurve.exp()] * 2, sc.chart).map_spec
        else:
            built = build_rp(RPBracketSpec(sc.chart, (parse("x"),)), "y", "z + 0.3*x*y",
                             FreeCurve.exp(), points, tol)
            dist, F = Distribution(sc.chart, (built.field,)), built.map_spec
        for rec, p in zip(records, points):
            cert = is_hfree_at(dist, F, p, tol)
            M = cert.matrix
            rank, thr = M.certified_rank, M.threshold
            critical = M.singular_values[len(M.entries) - 1]
            assert rec["hfree"] is cert.free
            assert rec["certified_rank"] == rank
            assert rec["threshold"] == thr
            assert rec["smallest_retained_sv"] == (M.singular_values[rank - 1] if rank else 0.0)
            assert rec["uncertain"] is bool(0.1 * thr < critical < 10.0 * thr)
        assert 0 < sum(r["hfree"] for r in records) < len(records)
        assert report["summary"]["n_uncertain"] == sum(r["uncertain"] for r in records) > 0
        assert code == (2 if report["summary"]["n_failures"] else 0)

    def test_transversal_verify(self, tmp_path):
        text = """
[chart]
coords = x, y

[exprs]
f = y*exp(x)

[distribution]
field = 2*y, 1-y^2

[window]
box = -1:1, -1:1
grid = 41, 41

[task]
kind = transversal
f = f
"""
        path = write(tmp_path, "tv.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert np.isclose(report["summary"]["min_lie"], np.exp(-1), atol=1e-12)
        grid = (out / "grid.csv").read_text().splitlines()
        assert grid[0] == "x,y,f,lie_f"
        assert len(grid) == 1 + 41 * 41

    def test_transversal_glue(self, tmp_path):
        text = """
[chart]
coords = x, y

[distribution]
field = 2*y, 1-y^2

[window]
box = -1:1, -1:1
grid = 41, 41

[task]
kind = transversal
seed = 0, -0.9
seed = 0, 0
seed = 0, 0.9
"""
        path = write(tmp_path, "glue.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "glue"
        assert report["summary"]["min_lie_interior"] > 0

    def test_genericity(self, tmp_path):
        text = """
[chart]
coords = x, y

[distribution]
field = 1, 0

[task]
kind = genericity
q = 5
degree = 3
n_maps = 10
n_points = 20
seed = 12
box = -2:2, -2:2
"""
        path = write(tmp_path, "gen.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["fraction"] >= 0.99
        csv = (out / "genericity.csv").read_text().splitlines()
        assert csv[0].startswith("q,degree,n,successes")

    def test_render_levels(self, tmp_path):
        text = """
[chart]
coords = x, y

[exprs]
f = y*exp(x)
g = (y^2-1)*exp(x)

[window]
box = -2:2, -2:2
grid = 101, 101

[task]
kind = render-levels
expr = f
expr = g
"""
        path = write(tmp_path, "lv.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["files"] == ["levels_f.svg", "levels_g.svg"]
        svg = (out / "levels_g.svg").read_text()
        assert svg.startswith('<?xml version="1.0"')
        # repeated runs are byte-identical
        run(path, tmp_path / "out2")
        assert ((tmp_path / "out2" / "levels_g.svg").read_bytes()
                == (out / "levels_g.svg").read_bytes())


RENDER = """
[chart]
coords = x, y

[window]
box = -1:1, -1:1
grid = 11, 11

[task]
kind = render-levels
expr = x*y
levels = {levels}
"""


class TestInputErrors:
    @pytest.mark.parametrize("levels", ["many", "0", "-3"])
    def test_render_levels_needs_positive_levels(self, tmp_path, capsys, levels):
        path = write(tmp_path, "lv.ini", RENDER.format(levels=levels))
        out = tmp_path / "out"
        assert run(path, out) == 1
        err = capsys.readouterr().err
        assert f"{path}:12:" in err
        assert "Traceback" not in err
        assert not any(out.iterdir())

    def test_render_levels_accepts_one_level(self, tmp_path):
        path = write(tmp_path, "lv.ini", RENDER.format(levels="1"))
        out = tmp_path / "out"
        assert run(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["n_levels"] == 1

    @pytest.mark.parametrize("grid", ["1, 5", "5, 0"])
    def test_window_grid_below_two(self, tmp_path, capsys, grid):
        text = RENDER.format(levels="3").replace("grid = 11, 11", f"grid = {grid}")
        path = write(tmp_path, "lv.ini", text)
        assert run(path, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"{path}:7:" in err and "at least 2" in err

    @pytest.mark.parametrize("kind, bad", [
        ("genericity", "q = many"),
        ("genericity", "n_points = 2.5"),
        ("genericity", "seed = twelve"),
        ("genericity", "box = 2:-2, -2:2"),
        ("genericity", "degree = 1"),
        ("genericity", "n_maps = -1"),
        ("genericity", "n_points = -2"),
        ("transversal", "t_span = long"),
        ("transversal", "t_span = 1, 2"),
        ("transversal", "weights = 1, heavy, 1"),
        ("transversal", "seed = 0, zero"),
        ("transversal", "seed = 0, 0, 0"),
        ("invert", "point = 0, 0, a"),
        ("invert", "point = 0, 0"),
        ("rp-bracket", "orientation = up"),
        ("rp-bracket", "orientation = 2"),
        ("rp-bracket", "casimir = y"),
        ("construct-cis", "curve = circle"),
        ("construct-cis", "f = y"),
        # counts checked against library constraints, in other sections
        pytest.param("construct-cis", "[distribution]\nfield = 0, 1",
                     id="construct-cis-fewer f than fields"),
        pytest.param("genericity", "[distribution]\nfield = 0, 1\nfield = 1, 1",
                     id="genericity-more fields than coordinates"),
        pytest.param("induced-metric", "[map]\ncomponent = exp(x)",
                     id="induced-metric-one map component"),
        pytest.param("rp-bracket", "[points]\nbox = -1:1, -1:1, -1:1\ncount = -5",
                     id="rp-bracket-negative count"),
    ])
    def test_malformed_task_numbers(self, tmp_path, capsys, kind, bad):
        text = TASK_TEXTS[kind].rstrip("\n") + f"\n{bad}\n"
        line = len(text.splitlines())  # the last line of ``bad``
        path = write(tmp_path, "bad.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 1
        err = capsys.readouterr().err
        assert f"{path}:{line}:" in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("casimir = x\n", "", "need 1 'casimir"),
        ("coords = x, y, z\n", "coords = x\n", "brackets need dimension >= 2"),
    ])
    def test_rp_counts_name_the_task_line(self, tmp_path, capsys, old, new, message):
        # a 3-D point would fail at its own line on the 1-D chart, when
        # the file is parsed, before the task checks its counts
        text = TASK_TEXTS["rp-bracket"].replace(old, new).replace("point = 0, 0, 0\n", "")
        path = write(tmp_path, "bad.ini", text)
        assert run(path, tmp_path / "out") == 1
        err = capsys.readouterr().err
        line = text.splitlines().index("kind = rp-bracket") + 1
        assert f"{path}:{line}: {message}" in err

    @pytest.mark.parametrize("kind", list(TASK_KEYS))
    def test_key_the_kind_does_not_read(self, tmp_path, capsys, kind):
        # 'curv' is no key of any kind: a misspelled 'curve' fails at its line
        text = TASK_TEXTS[kind].replace(f"kind = {kind}\n", f"kind = {kind}\ncurv = circle\n")
        line = text.splitlines().index("curv = circle") + 1
        path = write(tmp_path, "bad.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: unknown key 'curv'")
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("mode, unread", [
        ("glue", "f = y*exp(x)"), ("verify", "weights = 1"), ("verify", "t_span = 2")])
    def test_transversal_key_of_the_other_mode(self, tmp_path, capsys, mode, unread):
        # tube seeds select the glue mode, which reads no 'f'; only it reads
        # 'weights' and 't_span'
        text = TASK_TEXTS["transversal"]
        if mode == "verify":
            text = text.replace("seed = 0, -0.9\nseed = 0, 0\nseed = 0, 0.9\n", "f = x\n")
        text = text.replace("kind = transversal\n", f"kind = transversal\n{unread}\n")
        line = text.splitlines().index(unread) + 1
        path = write(tmp_path, "bad.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 1
        key = unread.split()[0]
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: '{key}'")
        assert not (out / "report.json").exists()

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[chart]\ncoords = x\xff\n")
        assert run(str(path), tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: UnicodeDecodeError")

    def test_render_levels_on_a_3d_chart_names_the_task_line(self, tmp_path, capsys):
        text = RENDER.format(levels="3").replace("coords = x, y", "coords = x, y, z")
        path = write(tmp_path, "lv.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 1
        err = capsys.readouterr().err
        line = text.splitlines().index("kind = render-levels") + 1
        assert err.startswith(f"error: {path}:{line}: render-levels needs a two-dimensional chart")
        assert "ValueError" not in err
        assert not (out / "report.json").exists()

    def test_library_error_names_the_file(self, tmp_path, capsys):
        # a tube seeded on a zero of the field: the library raises, and the
        # error names the file and the exception type, without a traceback
        text = (TASK_TEXTS["transversal"].replace("field = 2*y, 1-y^2", "field = x, y")
                .replace("seed = 0, -0.9\n", "").replace("seed = 0, 0.9\n", ""))
        path = write(tmp_path, "zero.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: BlowUp: field vanishes on the orthogonal leaf")
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    def test_leaf_into_a_focus_is_a_library_error(self, tmp_path, capsys, deadline):
        # the orthogonal leaf of a spiral field reaches its focus: exit 1, no hang
        text = (TASK_TEXTS["transversal"].replace("field = 2*y, 1-y^2", "field = x - y, x + y")
                .replace("seed = 0, -0.9\nseed = 0, 0\nseed = 0, 0.9\n", "seed = 0.5, 0\n"))
        path = write(tmp_path, "focus.ini", text)
        out = tmp_path / "out"
        with deadline(10):
            assert run(path, out) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: BlowUp:")
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("empty", ["n_maps = 0", "n_points = 0"])
    def test_empty_genericity_sweep(self, tmp_path, empty):
        path = write(tmp_path, "gen.ini", TASK_TEXTS["genericity"] + empty + "\n")
        out = tmp_path / "out"
        assert run(path, out) == 0
        summary = json.loads((out / "report.json").read_text())["summary"]
        assert (summary["n_pairs"], summary["successes"]) == (0, 0)

    @pytest.mark.parametrize("bad, message", [
        ("cont = 5", "unknown key 'cont' in [points]"),
        ("count = five", "expected an integer"),
        ("count = -1", "expected an integer of at least 0"),
        ("seed = twelve", "expected an integer"),
        ("box = 2:-2", "empty box range"),
        ("box = -1:1e999", "box bounds must be finite"),
        ("point = 0, a", "expected comma-separated numbers"),
    ])
    @pytest.mark.parametrize("kind", list(TASK_KEYS))
    def test_points_section_fails_at_its_line(self, tmp_path, capsys, kind, bad, message):
        # checked when the file is parsed, also for the kinds that read no points
        text = TASK_TEXTS[kind].rstrip("\n") + f"\n\n[points]\n{bad}\n"
        line = len(text.splitlines())
        path = write(tmp_path, "bad.ini", text)
        out = tmp_path / "out"
        assert run(path, out) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: {message}")
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("override", [None, 3])
    def test_genericity_seed_is_read_under_a_seed_override(self, tmp_path, capsys, override):
        text = TASK_TEXTS["genericity"] + "seed = twelve\n"
        line = len(text.splitlines())
        path = write(tmp_path, "gen.ini", text)
        out = tmp_path / "out"
        assert run(path, out, seed=override) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: expected an integer")
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tolerance_must_be_positive_and_finite(self, tmp_path, capsys, tol):
        # with --tol -1 the threshold is negative and exact zeros would count
        # toward the rank: (x, x) along d/dx would be certified rank 2
        text = """
[chart]
coords = x, y

[distribution]
field = 1, 0

[map]
component = x
component = x

[points]
point = 0.5, 0.5

[task]
kind = check-hfree
"""
        path = write(tmp_path, "tol.ini", text)
        out = tmp_path / "out"
        assert main([path, "--out", str(out), "--tol", tol]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "positive finite number" in err
        assert not out.exists()
        assert main([path, "--out", str(out), "--tol", "1e-9"]) == 2

    @pytest.mark.parametrize("where", ["file", "under a file", "report is a directory"])
    def test_unwritable_output_exits_1(self, tmp_path, capsys, where):
        # the output directory cannot be made, or an artifact cannot be
        # written: an error line and exit 1, never a traceback
        path = write(tmp_path, "contact.ini", CONTACT)
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n")
        out = {"file": blocker, "under a file": blocker / "sub",
               "report is a directory": tmp_path / "out"}[where]
        if where == "report is a directory":
            (out / "report.json").mkdir(parents=True)
        assert main([path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.out == ""
        assert blocker.read_text() == "keep\n"
        if where == "report is a directory":
            assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    def test_a_run_that_exits_1_leaves_no_earlier_report(self, tmp_path, capsys):
        # the second scenario's map is not defined at its point
        demo = os.path.join(os.path.dirname(__file__), "..", "demos", "scenarios",
                            "contact_check.ini")
        out = tmp_path / "out"
        assert main([demo, "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        points = "count = 50\nbox = -2:2, -2:2, -2:2\nseed = 7"
        assert points in CONTACT
        text = CONTACT.replace("component = z", "component = log(z)").replace(
            points, "point = 0.1, 0.2, -0.5")
        assert main([write(tmp_path, "bad.ini", text), "--out", str(out)]) == 1
        assert "DomainError" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_chart_dim_is_an_unknown_key(self, tmp_path, capsys):
        # the dimension is the number of coords; a 'dim' line is not read
        text = CONTACT.replace("coords = x, y, z\n", "coords = x, y, z\ndim = 5\n")
        path = write(tmp_path, "dim.ini", text)
        assert run(path, tmp_path / "out") == 1
        line = text.splitlines().index("dim = 5") + 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}:{line}: unknown key 'dim' in [chart]")


EXPRS = "[exprs]\nf = x\n{name} = y + 1\n\n[window]"
CURVE = "f = y*exp(x)\ncurve = {curve}"
POINT = "kind = invert\npoint = 0.1, 0.2, -0.5"


# (base kind in TASK_TEXTS, text replaced, its replacement, the line the error
# names or None, message); each case breaks one thing in a base that runs
@pytest.mark.parametrize("kind, old, new, at, message", [
    pytest.param("check-hfree", "[points]", "[pointz]", "[pointz]",
                 "unknown section [pointz]", id="unknown section"),
    pytest.param("check-hfree", "coords = x, y, z", "coords x, y, z", "coords x, y, z",
                 "expected 'key = value'", id="no equals sign"),
    pytest.param("check-hfree", "[chart]\ncoords = x, y, z", "", None,
                 "scenario needs a [chart] section with coords", id="no chart"),
    pytest.param("check-hfree", "coords = x, y, z", "coords = x, y, y", "coords = x, y, y",
                 "chart coordinate names must be distinct", id="repeated coordinate"),
    pytest.param("check-hfree", "coords = x, y, z", "coords = x, y, 2z", "coords = x, y, 2z",
                 "invalid coordinate name '2z'", id="coordinate not an identifier"),
    pytest.param("check-hfree", "coords = x, y, z", "coords = x, y, exp",
                 "coords = x, y, exp", "'exp' is a reserved function name",
                 id="coordinate a function name"),
    pytest.param("render-levels", "[window]", EXPRS.format(name="f"), "f = y + 1",
                 "duplicate expression name 'f'", id="duplicate name"),
    pytest.param("render-levels", "[window]", EXPRS.format(name="a/b"), "a/b = y + 1",
                 "invalid expression name 'a/b': a name is an identifier, and neither "
                 "a coordinate nor a function name", id="name not an identifier"),
    pytest.param("render-levels", "[window]", EXPRS.format(name="sin"), "sin = y + 1",
                 "invalid expression name 'sin'", id="name a function name"),
    pytest.param("render-levels", "[window]", EXPRS.format(name="x"), "x = y + 1",
                 "invalid expression name 'x'", id="name a coordinate"),
    # levels_<name>.svg.tmp must fit in a 255-byte file name
    pytest.param("render-levels", "[window]", EXPRS.format(name="a" * 241),
                 "a" * 241 + " = y + 1", "expression name of 241 characters: at most 240",
                 id="name of 241 characters"),
    pytest.param("render-levels", "[window]", EXPRS.format(name="a" * 300),
                 "a" * 300 + " = y + 1", "expression name of 300 characters: at most 240",
                 id="name of 300 characters"),
    pytest.param("check-hfree", "field = 0, 1, 0", "vector = 0, 1, 0", "vector = 0, 1, 0",
                 "unknown key 'vector' in [distribution]", id="distribution key"),
    pytest.param("check-hfree", "component = z", "comp = z", "comp = z",
                 "unknown key 'comp' in [map]", id="map key"),
    pytest.param("render-levels", "grid = 11, 11", "size = 11", "size = 11",
                 "unknown key 'size' in [window]", id="window key"),
    pytest.param("check-hfree", "field = 0, 1, 0", "field = 0, 1", "field = 0, 1",
                 "field needs 3 components", id="field components"),
    pytest.param("check-hfree", "box = -2:2, -2:2, -2:2\n", "", "count = 50",
                 "[points] with count needs a box", id="count without box"),
    pytest.param("check-hfree", "box = -2:2, -2:2, -2:2", "box = -2:2, -2:2",
                 "box = -2:2, -2:2", "box needs 3 ranges, got 2", id="box ranges"),
    pytest.param("check-hfree", "box = -2:2, -2:2, -2:2", "box = -2:2, -2, -2:2",
                 "box = -2:2, -2, -2:2", "box ranges look like lo:hi, got '-2'",
                 id="box range shape"),
    pytest.param("check-hfree", "box = -2:2, -2:2, -2:2", "box = -2:2, a:2, -2:2",
                 "box = -2:2, a:2, -2:2", "invalid box bound in 'a:2'", id="box bound"),
    pytest.param("check-hfree", "box = -2:2, -2:2, -2:2", "box = -2:2, 2:2, -2:2",
                 "box = -2:2, 2:2, -2:2", "empty box range '2:2'", id="empty box range"),
    pytest.param("render-levels", "box = -1:1, -1:1", "box = -1:nan, -1:1",
                 "box = -1:nan, -1:1", "box bounds must be finite, got '-1:nan'",
                 id="window box bound"),
    pytest.param("render-levels", "grid = 11, 11", "grid = 11", "grid = 11",
                 "grid needs two resolutions", id="one grid value"),
    pytest.param("render-levels", "box = -1:1, -1:1\n", "", None,
                 "[window] needs a box", id="window without box"),
    pytest.param("check-hfree", "kind = check-hfree", "kind = check-hfree\nkind = invert",
                 "kind = invert", "[task] needs exactly one kind", id="two kinds"),
    pytest.param("check-hfree", "component = z", "component = z +", "component = z +",
                 "unknown name or invalid expression 'z +'", id="invalid expression"),
    pytest.param("check-hfree", "[distribution]\nfield = 0, 1, 0\nfield = 1, 0, -y\n", "",
                 None, "task needs a [distribution] section", id="no distribution"),
    pytest.param("check-hfree", "[map]\ncomponent = y\ncomponent = x\ncomponent = exp(y)\n"
                 "component = exp(x)\ncomponent = z\n", "", None,
                 "task needs a [map] section", id="no map"),
    pytest.param("render-levels", "[window]\nbox = -1:1, -1:1\ngrid = 11, 11\n", "", None,
                 "render-levels needs a [window] section", id="no window"),
    pytest.param("construct-1d", "field = 2*y, 1-y^2", "field = 2*y, 1-y^2\nfield = 1, 0",
                 None, "construct-1d needs a one-field distribution", id="two fields"),
    pytest.param("construct-1d", "f = y*exp(x)\n", "", "kind = construct-1d",
                 "construct-1d needs 'f = ...'", id="required key"),
    pytest.param("construct-1d", "f = y*exp(x)", CURVE.format(curve="spiral"),
                 "curve = spiral",
                 "unknown curve 'spiral' (expected exp, circle or custom: a, b)",
                 id="unknown curve"),
    pytest.param("construct-1d", "f = y*exp(x)", CURVE.format(curve="custom: t"),
                 "curve = custom: t", "custom curve looks like 'custom: a(t), b(t)'",
                 id="custom curve shape"),
    pytest.param("construct-1d", "f = y*exp(x)", CURVE.format(curve="custom: t, (t"),
                 "curve = custom: t, (t", "unexpected end of input at offset 2",
                 id="custom curve syntax"),
    pytest.param("construct-1d", "f = y*exp(x)", CURVE.format(curve="custom: t, 2*t"),
                 "curve = custom: t, 2*t", "curve is not free on (-4.0, 4.0)",
                 id="custom curve not free"),
    pytest.param("construct-1d", "f = y*exp(x)", CURVE.format(curve="custom: log(t), t^2"),
                 "curve = custom: log(t), t^2",
                 "curve is not defined on (-4.0, 4.0): log of a non-positive argument "
                 "near t=-4", id="custom curve log domain"),
    pytest.param("construct-1d", "f = y*exp(x)", CURVE.format(curve="custom: sqrt(t), t^2"),
                 "curve = custom: sqrt(t), t^2",
                 "curve is not defined on (-4.0, 4.0): sqrt of a negative argument near t=-4",
                 id="custom curve sqrt domain"),
    # the first of the 1000 points of [-4, 4] with t >= 1
    pytest.param("construct-1d", "f = y*exp(x)", CURVE.format(curve="custom: log(1-t), t^2"),
                 "curve = custom: log(1-t), t^2",
                 "curve is not defined on (-4.0, 4.0): log of a non-positive argument "
                 "near t=1.00501", id="custom curve first point outside"),
    pytest.param("construct-1d", "f = y*exp(x)", CURVE.format(curve="custom: t, x^2"),
                 "curve = custom: t, x^2",
                 "curve names coordinates other than t: ['x']",
                 id="custom curve coordinate"),
    pytest.param("invert", "kind = invert\npsi = 0, 0", POINT, "kind = invert",
                 "invert task needs one 'psi = expr, ...' line", id="invert psi"),
    pytest.param("invert", "kind = invert\npsi = 0, 0\ndg = 1, 0", POINT + "\npsi = 0, 0",
                 "kind = invert", "invert task needs 2 'dg = ...' row lines", id="invert dg"),
    pytest.param("construct-cis", "f = x\ncurve = exp\n", "", "kind = construct-cis",
                 "construct-cis needs 'f = ...' lines, one per frame field",
                 id="construct-cis f"),
    pytest.param("transversal", "seed = 0, -0.9\nseed = 0, 0\nseed = 0, 0.9\n", "",
                 "kind = transversal",
                 "transversal needs 'f = ...' or tube 'seed = x, y' lines",
                 id="transversal f or seeds"),
    pytest.param("render-levels", "expr = x*y\n", "", "kind = render-levels",
                 "render-levels needs 'expr = ...' lines", id="render-levels expr"),
])
def test_input_error_fails_at_its_line(tmp_path, capsys, kind, old, new, at, message):
    assert old in TASK_TEXTS[kind]
    text = TASK_TEXTS[kind].replace(old, new)
    path = write(tmp_path, "bad.ini", text)
    out = tmp_path / "out"
    out.mkdir()
    assert main([path, "--out", str(out)]) == 1
    where = path if at is None else f"{path}:{text.splitlines().index(at) + 1}"
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: {message}") and "Traceback" not in err
    assert _names(out) == []


def _names(out):
    return sorted(p.name for p in out.iterdir())


class TestOutputDirectory:
    """``run`` alone writes into ``--out``: after a run every artifact there
    comes from it, and a run that exits 1 writes no file."""

    def test_an_input_error_after_a_rendered_expression_writes_no_file(self, tmp_path, capsys):
        # the first expression renders before the second fails at its line
        text = RENDER.format(levels=3).replace("expr = x*y", "expr = x + y\nexpr = x + q")
        path = write(tmp_path, "lv.ini", text)
        out = tmp_path / "out"
        assert main([path, "--out", str(out)]) == 1
        line = text.splitlines().index("expr = x + q") + 1
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: unknown name 'q'")
        assert _names(out) == []

    def test_an_exit_0_run_leaves_no_earlier_artifact(self, tmp_path):
        demos = os.path.join(os.path.dirname(__file__), "..", "demos", "scenarios")
        out = tmp_path / "out"
        assert main([os.path.join(demos, "transversal_glue.ini"), "--out", str(out)]) == 0
        assert _names(out) == ["grid.csv", "report.json"]
        assert main([os.path.join(demos, "contact_check.ini"), "--out", str(out)]) == 0
        assert _names(out) == ["report.json"]

    def test_an_exit_2_run_leaves_no_earlier_artifact(self, tmp_path):
        out = tmp_path / "out"
        assert main([write(tmp_path, "lv.ini", TASK_TEXTS["render-levels"]),
                     "--out", str(out)]) == 0
        assert _names(out) == ["levels_expr0.svg", "report.json"]
        # (x, x) is H-free nowhere for H spanned by d/dx
        text = ("[chart]\ncoords = x, y\n[distribution]\nfield = 1, 0\n[map]\n"
                "component = x\ncomponent = x\n[points]\npoint = 0.5, 0.5\n"
                "[task]\nkind = check-hfree\n")
        assert main([write(tmp_path, "affine.ini", text), "--out", str(out)]) == 2
        assert _names(out) == ["report.json"]
        assert json.loads((out / "report.json").read_text())["task"] == "check-hfree"

    def test_every_artifact_name_is_cleared(self, tmp_path, capsys):
        # every kind writes into one directory; a run that cannot even read
        # its scenario then leaves the directory empty, so that no artifact
        # name escapes the clean-up
        texts = {**TASK_TEXTS,  # two of them are only the base of input-error cases
                 "induced-metric": TASK_TEXTS["induced-metric"] + "[map]\ncomponent = x\n"
                                                                 "component = y\n",
                 "invert": TASK_TEXTS["invert"] + "point = 0.1, 0.2, -0.5\n"}
        out = tmp_path / "out"
        written = set()
        for kind, text in texts.items():
            assert main([write(tmp_path, f"{kind}.ini", text), "--out", str(out)]) == 0, kind
            written.update(_names(out))
        assert written == {"report.json", "grid.csv", "genericity.csv", "levels_expr0.svg"}
        assert main([str(tmp_path / "missing.ini"), "--out", str(out)]) == 1
        assert "missing.ini" in capsys.readouterr().err
        assert _names(out) == []

    def test_a_failed_write_leaves_no_file(self, tmp_path, capsys):
        # a directory in the place of levels_g.svg's temporary file:
        # levels_f.svg is written before levels_g.svg fails, and is removed again
        text = RENDER.format(levels=3).replace(
            "[window]", "[exprs]\nf = x\ng = y\n\n[window]").replace(
            "expr = x*y", "expr = f\nexpr = g")
        out = tmp_path / "out"
        (out / "levels_g.svg.tmp").mkdir(parents=True)
        assert main([write(tmp_path, "blocked.ini", text), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert _names(out) == ["levels_g.svg.tmp"]

    def test_the_longest_name_renders(self, tmp_path):
        # 240 characters: levels_<name>.svg.tmp takes all 255 bytes of a file name
        name = "a" * 240
        text = RENDER.format(levels=3).replace(
            "[window]", f"[exprs]\n{name} = x\n\n[window]").replace(
            "expr = x*y", f"expr = {name}")
        out = tmp_path / "out"
        assert main([write(tmp_path, "long.ini", text), "--out", str(out)]) == 0
        assert _names(out) == [f"levels_{name}.svg", "report.json"]


# values of exp(1000*x) overflow: each run reports them, in its exit code
# and as null in report.json, or as a DomainError
@pytest.mark.parametrize("kind, edits, code", [
    ("construct-1d", [("f = y*exp(x)", "f = exp(1000*x)")], 1),
    ("construct-cis", [("f = x", "f = exp(1000*x)")], 1),
    ("render-levels", [("expr = x*y", "expr = exp(1000*x)")], 0),
    ("rp-bracket", [("f = y", "f = exp(1000*y)"), ("point = 0, 0, 0", "point = 0, 1, 0")], 2),
    ("transversal", [("seed = 0, -0.9\nseed = 0, 0\nseed = 0, 0.9", "f = exp(1000*x)")], 2),
])
def test_no_numpy_warning_escapes_a_run(tmp_path, kind, edits, code):
    text = TASK_TEXTS[kind]
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = write(tmp_path, "overflow.ini", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([path, "--out", str(tmp_path / "out")]) == code


def _strict(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    @pytest.mark.parametrize("box, min_lie", [("-1:1, -1:1", 0.0), ("1:2, -1:1", None)])
    def test_non_finite_lie_values(self, tmp_path, box, min_lie):
        text = f"""
[chart]
coords = x, y

[distribution]
field = 2*y, 1-y^2

[window]
box = {box}
grid = 5, 5

[task]
kind = transversal
f = y*exp(800*x)
"""
        path = write(tmp_path, "tv.ini", text)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run(path, out) == 2
        summary = _strict((out / "report.json").read_text())["summary"]
        assert summary["min_lie"] == min_lie
        # exp(800 x) overflows for x >= 1: 5 of 25 nodes on [-1, 1], all on [1, 2]
        assert summary["n_nonfinite"] == (5 if min_lie is not None else 25)
        if min_lie is not None:
            assert summary["argmin"] == [-1.0, -1.0]

    def test_non_finite_report_values_are_null(self, tmp_path, capsys):
        text = """
[chart]
coords = x, y

[distribution]
field = 1, 0

[map]
component = x
component = exp(800*x)

[points]
point = 1, 0

[task]
kind = induced-metric
"""
        path = write(tmp_path, "im.ini", text)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run(path, out) == 2
        report = _strict((out / "report.json").read_text())
        assert report["points"][0]["metric"] == [[None]]
        assert "written as null" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [None, float("inf")])
    def test_non_finite_record_and_summary_values_are_null(self, tmp_path, capsys, tol):
        text = """
[chart]
coords = x, y

[points]
point = 1, 0
point = 0, 0

[task]
kind = rp-bracket
f = exp(800*x)
g = y
"""
        path = write(tmp_path, "rp.ini", text)
        out = tmp_path / "out"
        if tol is not None:
            # an infinite tolerance is an input error, not a null in the report
            assert run(path, out, tol=tol) == 1
            assert not out.exists()
            assert "positive finite number" in capsys.readouterr().err
            return
        with np.errstate(all="ignore"):
            assert run(path, out, tol=tol) == 2
        report = _strict((out / "report.json").read_text())
        assert [r["bracket"] for r in report["points"]] == [None, pytest.approx(800.0)]
        assert report["summary"]["min"] is None and report["summary"]["max"] is None
        assert report["tolerance"] == 1e-9
        assert "written as null" in capsys.readouterr().err

    def test_non_finite_metric_is_not_positive_definite(self, tmp_path):
        text = """
[chart]
coords = x, y

[distribution]
field = 1, 0

[map]
component = x
component = exp(800*x)

[points]
point = 1, 0
point = 0, 0

[task]
kind = induced-metric
"""
        path = write(tmp_path, "im.ini", text)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run(path, out) == 2
        report = _strict((out / "report.json").read_text())
        assert [r["positive_definite"] for r in report["points"]] == [False, True]
        assert report["summary"]["n_positive_definite"] == 1
        assert report["summary"]["n_points"] == 2

    def test_mixed_metrics_take_each_verdict_alone(self, tmp_path):
        # a non-finite metric, a singular one and two positive definite
        # ones: one stacked factorization raises, so each is factored alone
        text = """
[chart]
coords = x, y

[distribution]
field = 1, 0

[map]
component = x^2
component = x^3*exp(800*x)

[points]
point = 1, 0
point = 0, 0
point = 0.1, 0
point = -0.5, 0

[task]
kind = induced-metric
"""
        path = write(tmp_path, "im.ini", text)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run(path, out) == 2  # the infinite metric is written as null
            sc = parse_scenario(text, path)
            alone = [induced_metric(sc.distribution(), sc.map_spec(), p).is_positive_definite()
                     for p in sc.points(None)[0]]
        report = _strict((out / "report.json").read_text())
        assert alone == [False, False, True, True]
        assert [r["positive_definite"] for r in report["points"]] == alone
        assert report["summary"]["n_positive_definite"] == 2


RANK_TEXTS = {
    "check-hfree": CONTACT,
    "construct-1d": """
[chart]
coords = x, y

[distribution]
field = 2*y, 1-y^2

[points]
count = 200
box = -2:2, -2:2
seed = 3

[task]
kind = construct-1d
f = y*exp(x)
curve = exp
""",
    "construct-cis": """
[chart]
coords = a1, a2, w1, w2

[distribution]
field = 0, 0, 1, 0
field = 0, 0, 0, 1

[points]
count = 30
box = -2:2, -2:2, -2:2, -2:2
seed = 9

[task]
kind = construct-cis
f = w1
f = w2
curve = exp
curve = exp
""",
    "construct-rp": """
[chart]
coords = x, y, z

[points]
count = 200
box = -2:2, -2:2, -2:2
seed = 1

[task]
kind = construct-rp
casimir = x
h = y
f = z + 0.3*x*y
curve = exp
""",
}


TASK_TEXTS = {
    "genericity": """
[chart]
coords = x, y

[distribution]
field = 1, 0

[task]
kind = genericity
q = 5
n_maps = 2
n_points = 3
box = -2:2, -2:2
""",
    "transversal": """
[chart]
coords = x, y

[distribution]
field = 2*y, 1-y^2

[window]
box = -1:1, -1:1
grid = 11, 11

[task]
kind = transversal
seed = 0, -0.9
seed = 0, 0
seed = 0, 0.9
""",
    "construct-cis": """
[chart]
coords = x, y

[distribution]
field = 1, 0

[points]
point = 0.1, 0.2

[task]
kind = construct-cis
f = x
curve = exp
""",
    "induced-metric": """
[chart]
coords = x, y

[distribution]
field = 1, 0

[points]
point = 0.1, 0.2

[task]
kind = induced-metric
""",
    "invert": CONTACT.replace("kind = check-hfree",
                              "kind = invert\npsi = 0, 0\ndg = 1, 0\ndg = 0, 1"),
    "rp-bracket": """
[chart]
coords = x, y, z

[points]
point = 0, 0, 0

[task]
kind = rp-bracket
casimir = x
f = y
g = z
""",
    "construct-rp": """
[chart]
coords = x, y, z

[points]
point = 0, 0, 0

[task]
kind = construct-rp
casimir = x
h = y
f = z
""",
    "construct-1d": """
[chart]
coords = x, y

[distribution]
field = 2*y, 1-y^2

[points]
point = 0.1, 0.2

[task]
kind = construct-1d
f = y*exp(x)
""",
    "check-hfree": CONTACT,
    "render-levels": RENDER.format(levels=3),
}


def test_readme_task_table_lists_the_task_keys():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as handle:
        rows = [line for line in handle if line.startswith("| `")]
    listed = {}
    for row in rows:
        kind, parameters = re.split(r"(?<!\\)\|", row)[1:3]
        listed[kind.strip().strip("`")] = set(re.findall(r"`([a-z_]+)", parameters))
    assert {kind: listed.get(kind) for kind in TASK_KEYS} == {
        kind: set(keys) for kind, keys in TASK_KEYS.items()}


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(hfreemaps.__file__))
    code = ("import sys, hfreemaps.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[]"
