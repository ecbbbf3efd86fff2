import functools
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gmtkit
from gmtkit import cli
from gmtkit.cubical import CubeFamily, DyadicCube, cubical_complex
from gmtkit.grassmann import Plane
from gmtkit.sampling import ring_sampled_disc, sample_disc
from gmtkit.solver import exhaustive_oracle
from gmtkit.varifold import DiscreteVarifold


def run_cli(args):
    return cli.main([str(a) for a in args])


def artifact_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


def square_problem_dict(level, cells, integrand=None, options=None):
    bcells, gen = [], []
    for i in range(cells):
        for corner, axes in [
            ((i, 0, 0), (0,)),
            ((i, cells, 0), (0,)),
            ((0, i, 0), (1,)),
            ((cells, i, 0), (1,)),
        ]:
            d = {"level": level, "corner": list(corner), "axes": list(axes), "n": 3}
            bcells.append(d)
            gen.append(d)
    return {
        "n": 3,
        "cells": [cells] * 3,
        "level": level,
        "m": 2,
        "boundary_cells": bcells,
        "generators": [gen],
        "integrand": integrand or {"kind": "area"},
        "options": options or {"restarts": 2, "steps": 1200, "oracle_check": True},
    }


class TestRotate:
    def test_report_and_bounds(self, tmp_path):
        planes = tmp_path / "planes.txt"
        planes.write_text("2 1 1 0 1 0\n2 1 1 0 0 1\n")
        rc = run_cli(["--out", tmp_path / "out", "rotate", planes, "--tau", "1.0"])
        assert rc == 0
        lines = (tmp_path / "out" / "rotate_report.csv").read_text().splitlines()
        assert lines[0] == "line,tau,norm_M_minus_I,bound,status"
        first = lines[1].split(",")
        assert float(first[2]) == 0.0  # identity pair
        second = lines[2].split(",")
        assert float(second[2]) == pytest.approx(np.sqrt(2))
        assert float(second[3]) == 8.0
        assert second[4] == "pass"

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1 1 0\n")
        rc = run_cli(["--out", tmp_path / "out", "rotate", bad])
        assert rc == 2
        assert ":1:" in capsys.readouterr().err

    def test_batch_of_random_pairs_all_pass(self, tmp_path, rng):
        lines = []
        for _ in range(100):
            a = rng.standard_normal((3, 2))
            b = rng.standard_normal((3, 2))
            fa = Plane(a).frame.ravel()
            fb = Plane(b).frame.ravel()
            lines.append("3 2 " + " ".join(repr(float(v)) for v in np.concatenate([fa, fb])))
        planes = tmp_path / "many.txt"
        planes.write_text("\n".join(lines) + "\n")
        rc = run_cli(["--out", tmp_path / "out", "rotate", planes])
        assert rc == 0
        report = (tmp_path / "out" / "rotate_report.csv").read_text()
        assert "fail" not in report


class TestRetractProject:
    def test_retract_summary_passes(self, tmp_path):
        rc = run_cli(["--out", tmp_path / "out", "--seed", "1", "retract"])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "retract_summary.json").read_text())
        assert summary["pass"]
        assert summary["identity_beyond_eps"]

    def test_project_summary_passes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"body": "ellipsoid", "semi_axes": [2.0, 1.0]}))
        rc = run_cli(["--out", tmp_path / "out", "--config", cfg, "project"])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "project_summary.json").read_text())
        assert summary["pass"] and summary["q_shorter_than_p"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        rc = run_cli(["--out", tmp_path / "out", "--config", cfg, "retract"])
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_env_override(self, tmp_path):
        os.environ["GMTKIT_EPS"] = "0.2"
        try:
            rc = run_cli(["--out", tmp_path / "out", "retract"])
            assert rc == 0
            summary = json.loads((tmp_path / "out" / "retract_summary.json").read_text())
            assert summary["eps"] == 0.2
        finally:
            del os.environ["GMTKIT_EPS"]


class TestWhitney:
    def test_punctured_plane_artifacts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"open_set": "punctured", "point": [0.0, 0.0], "bbox": [[-1, -1], [1, 1]],
                 "min_level": 5}
            )
        )
        rc = run_cli(["--out", tmp_path / "out", "--config", cfg, "whitney"])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "whitney_summary.json").read_text())
        assert summary["cubes"] > 0 and summary["admissible"]
        assert (tmp_path / "out" / "whitney_skeleton_1.obj").exists()


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestObjArtifacts:
    """One OBJ writer (``cubical.cubes_to_obj``) for skeletons and solution
    chains: these digests are the bytes of the two writers it replaced."""

    @pytest.mark.parametrize("k, digest", [
        (0, "7ef9def638b9295a5c9871870a167048c3ce75b87bc9aeee64ed29f7f2c74015"),
        (1, "8a7688fd525bbf3dd769379207a106a14425ceb0e609cf18184e0c53a60aa6f9"),
        (2, "7b1872580c1d064c00de410b8bb94efba6831cf336868782e6b3232e429ae632"),
    ])
    def test_whitney_skeleton(self, tmp_path, k, digest):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"open_set": "punctured", "point": [0.3, 0.1], "bbox": [[-1, -1], [1, 1]],
                                   "min_level": 3, "skeleton_dim": k}))
        assert run_cli(["--out", tmp_path / "out", "--config", cfg, "whitney"]) == 0
        assert _sha256(tmp_path / "out" / f"whitney_skeleton_{k}.obj") == digest

    @pytest.mark.parametrize("m, digest", [
        (1, "3da1914944815a22772a1546a3ac0b03a720560f0ff846cbaf947c2f09b32c07"),
        (2, "ee2dbf2203ea571fe4e49261bcd77e2e13b89877eee37a2ece361a3a618e73e4"),
    ])
    def test_minimize_chain(self, tmp_path, m, digest):
        ends = [{"level": 1, "corner": c, "axes": [], "n": 2} for c in ([0, 0], [2, 1])]
        problem = square_problem_dict(1, 2) if m == 2 else {
            "n": 2, "cells": [2, 2], "level": 1, "m": 1, "boundary_cells": ends, "generators": [ends],
            "integrand": {"kind": "area"}, "options": {"restarts": 1, "steps": 50}}
        (tmp_path / "problem.json").write_text(json.dumps(problem))
        assert run_cli(["--out", tmp_path / "out", "minimize", tmp_path / "problem.json"]) == 0
        assert _sha256(tmp_path / "out" / "solution.obj") == digest

    def test_minimize_chain_of_3_cells_as_points(self, tmp_path):
        """An m-chain with m >= 3 follows the skeleton rule: one point per cell."""
        faces = [{"level": 0, "corner": [int(j == frozen and s) for j in range(4)], "axes": axes, "n": 4}
                 for axes, frozen in (([0, 1], 2), ([0, 2], 1), ([1, 2], 0)) for s in (0, 1)]
        (tmp_path / "problem.json").write_text(json.dumps(
            {"n": 4, "cells": [1, 1, 1, 1], "level": 0, "m": 3, "boundary_cells": faces, "generators": [faces],
             "integrand": {"kind": "area"}, "options": {"restarts": 1, "steps": 50}}))
        assert run_cli(["--out", tmp_path / "out", "minimize", tmp_path / "problem.json"]) == 0
        cells = json.loads((tmp_path / "out" / "solution.json").read_text())["chain"]["cells"]
        assert (tmp_path / "out" / "solution.obj").read_text() == "v 0.0 0.0 0.0\np 1\n"
        assert cells == [{"level": 0, "corner": [0, 0, 0, 0], "axes": [0, 1, 2], "n": 4}]


class TestCsvArtifacts:
    """One table writer (``varifold._write_table``) for every CSV the CLI
    writes and for ``DiscreteVarifold.to_csv``: these digests are the bytes of
    the per-row writers it replaced, on fixed inputs."""

    @staticmethod
    def inputs(tmp):
        (tmp / "planes.txt").write_text("2 1 1 0 1 0\n2 1 1 0 0.6 0.8\n3 2 1 0 0 1 0 0 1 0 0 0 0 1\n"
                                        "4 2 1 0 0 1 0 0 0 0 0.6 0 0 0.8 0 1 0 0\n")
        (tmp / "retract.json").write_text(json.dumps({"n": 3, "probes": 300, "eps": 0.2}))
        (tmp / "ellipsoid.json").write_text(json.dumps({"body": "ellipsoid", "semi_axes": [2.0, 1.0, 0.5],
                                                        "probes": 300}))
        pts, w = sample_disc(1.3, 200, seed=3, center=[2.0, 2.0, 2.05])
        DiscreteVarifold.flat(pts, Plane.axis(3, (0, 1)), w).to_csv(tmp / "disc.csv")
        pts, w = ring_sampled_disc(1.0, ring_spacing=0.05 / 8, points_per_unit_length=30)
        DiscreteVarifold.flat(pts, Plane.axis(3, (0, 1)), w).to_csv(tmp / "ring.csv")
        square = [{"level": 2, "corner": [i, j, 0], "axes": [0, 1], "n": 3} for i in range(4) for j in range(4)]
        (tmp / "chain.json").write_text(json.dumps({"m": 2, "level": 2, "cells": square}))
        ends = [{"level": 1, "corner": c, "axes": [], "n": 2} for c in ([0, 0], [2, 1])]
        (tmp / "segment.json").write_text(json.dumps(
            {"n": 2, "cells": [2, 2], "level": 1, "m": 1, "boundary_cells": ends, "generators": [ends],
             "integrand": {"kind": "area"}, "options": {"restarts": 1, "steps": 50}}))
        faces = [{"level": 0, "corner": [int(j == frozen and s) for j in range(4)], "axes": axes, "n": 4}
                 for axes, frozen in (([0, 1], 2), ([0, 2], 1), ([1, 2], 0)) for s in (0, 1)]
        (tmp / "cube_3.json").write_text(json.dumps(
            {"n": 4, "cells": [1, 1, 1, 1], "level": 0, "m": 3, "boundary_cells": faces, "generators": [faces],
             "integrand": {"kind": "area"}, "options": {"restarts": 1, "steps": 50}}))

    @pytest.mark.parametrize("argv, csv, digest", [
        ([], "disc.csv", "fb65d825ab354dde6873c647216085ceed928b8e5b53aa08025e64cbdd8e7f29"),
        ([], "ring.csv", "8a047f66c79a6d1e4d7154e82a64278d71c369ca9158cf231889ba47c7996b3c"),
        (["rotate", "planes.txt"], "out/rotate_report.csv",
         "066db3a690103820438e5f916bfa589fe88676474d11881f9a13f3c638e7ef57"),
        (["retract"], "out/retract_probes.csv",
         "b11054a967c0fe037e9735cd63b03fc8ff03670911aa7b043267e972a38e0100"),
        (["--config", "retract.json", "retract"], "out/retract_probes.csv",
         "f269f47dba6ed3153abe2ea40313d6a33ce4dfface01cdab952c5db307157744"),
        (["project"], "out/project_probes.csv",
         "95fed54bdb38e4067723bacbc3de75b771f398ec5a9ec721598c5da23a567c42"),
        (["--config", "ellipsoid.json", "project"], "out/project_probes.csv",
         "39581997641bb5f4b444efbe6a94f70bf2b134609fa7f1c2c05bcdfc8acbe1ff"),
        (["deform", "disc.csv"], "out/deformed_set.csv",
         "92bb2c175436a4a237721212af91f05c86a7562e1e1a991f37d43c7730d5a83d"),
        (["slice", "ring.csv", "--t", "0.5", "--bin", "0.05"], "out/slice.csv",
         "02d81863b82faee6f02fb8baa7d915532daf0d28762f82df88d3e5334b6381bc"),
        (["slice", "ring.csv", "--map", "coord:0", "--t", "0.25", "--bin", "0.02"], "out/slice.csv",
         "b369d30026074fe4b88520f50e3580318ec8e9bd537546a75c2741b1817606b9"),
        (["audit", "chain.json"], "out/audit_ratios.csv",
         "2dcb0ae7125ec5681896c5b2f1627c80d1d1783f7fef361a67bea8319553e79d"),
        (["minimize", "segment.json"], "out/audit_ratios.csv",
         "c9571f70e7f35718b28b00436c584aa857a8ac4677548a027f7180007b9700c0"),
        (["minimize", "cube_3.json"], "out/audit_ratios.csv",
         "4e71d88fb20b6c90e1f227ca69731e2af61cb36fc5bd0c6d337dc784fb251ab1"),
    ])
    def test_digest(self, tmp_path, monkeypatch, argv, csv, digest):
        monkeypatch.chdir(tmp_path)
        self.inputs(tmp_path)
        if argv:
            assert run_cli(["--seed", "7", "--out", "out", *argv]) == 0
        assert _sha256(tmp_path / csv) == digest


class TestDeform:
    def make_set(self, path):
        pts, w = sample_disc(1.3, 800, seed=3, center=[2.0, 2.0, 2.05])
        DiscreteVarifold.flat(pts, Plane.axis(3, (0, 1)), w).to_csv(path)

    def test_deform_and_replay_identical(self, tmp_path):
        set_csv = tmp_path / "disc.csv"
        self.make_set(set_csv)
        rc = run_cli(["--out", tmp_path / "a", "--seed", "5", "deform", set_csv])
        assert rc == 0
        plan = tmp_path / "a" / "deform_plan.json"
        rc = run_cli(["--out", tmp_path / "b", "--seed", "5", "deform", set_csv,
                      "--replay", plan])
        assert rc == 0
        assert (tmp_path / "a" / "deformed_set.csv").read_bytes() == (
            tmp_path / "b" / "deformed_set.csv"
        ).read_bytes()

    def test_log_level_debug_shows_the_centre_search(self, tmp_path, capsys):
        set_csv = tmp_path / "disc.csv"
        self.make_set(set_csv)
        assert run_cli(["--out", tmp_path / "a", "--seed", "5", "deform", set_csv]) == 0
        assert capsys.readouterr().err == ""
        assert run_cli(["--out", tmp_path / "b", "--seed", "5", "--log-level", "DEBUG", "deform", set_csv]) == 0
        err = capsys.readouterr().err
        assert re.search(r"^DEBUG gmtkit\.deform: select_center: \d+ sample positions, \d+ distinct; "
                         r"\d+ candidate rows, \d+ distinct$", err, re.M), err
        assert artifact_bytes(tmp_path / "a") == artifact_bytes(tmp_path / "b")
        assert not logging.getLogger("gmtkit").handlers  # the handler goes with the command

    @pytest.mark.parametrize("budget", ["0", '"many"'])
    def test_bad_budget_exit_2(self, tmp_path, monkeypatch, capsys, budget):
        set_csv = tmp_path / "disc.csv"
        self.make_set(set_csv)
        monkeypatch.setenv("GMTKIT_BUDGET", budget)
        assert run_cli(["--out", tmp_path / "out", "deform", set_csv]) == 2
        assert "budget" in capsys.readouterr().err

    def test_skeleton_check_builds_no_cubes(self, tmp_path, monkeypatch):
        """The skeleton check reads the m-skeleton's bounds from rows: replaying
        a plan of no stages builds only the config family's 4^3 cubes, and
        the distances are those of the 2-cells' ``DyadicCube.bounds``."""
        set_csv, plan = tmp_path / "disc.csv", tmp_path / "plan.json"
        self.make_set(set_csv)
        plan.write_text(json.dumps({"m": 2, "eps": 0.05, "seed": 0, "descent_count": 0, "stages": []}))
        built, check = [], DyadicCube.__post_init__

        def counting(cube):
            built.append(cube)
            check(cube)

        with monkeypatch.context() as patch:
            patch.setattr(DyadicCube, "__post_init__", counting)
            assert run_cli(["--out", tmp_path / "out", "deform", set_csv, "--replay", plan]) == 0
        assert len(built) == 64
        points = DiscreteVarifold.from_csv(set_csv).points
        cx = cubical_complex(CubeFamily([DyadicCube(0, c, (0, 1, 2), 3) for c in np.ndindex(4, 4, 4)]))
        best = np.full(len(points), np.inf)
        for c in cx.skeleton(2):
            lo, hi = c.bounds()
            best = np.minimum(best, np.linalg.norm(points - np.clip(points, lo, hi), axis=1))
        got = json.loads((tmp_path / "out" / "deform_constants.json").read_text())["skeleton_membership"]
        assert (got["max_distance"], got["fraction_within"]) == (float(best.max()), float((best <= 0.05 / 4).mean()))

    def test_empty_set_identity_plan(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# gmtkit varifold n=3 m=2\n")
        rc = run_cli(["--out", tmp_path / "out", "deform", empty])
        assert rc == 0
        plan = json.loads((tmp_path / "out" / "deform_plan.json").read_text())
        assert plan["stages"] == []


class TestSliceCommand:
    def test_slice_mass_report(self, tmp_path):
        from gmtkit.sampling import ring_sampled_disc

        pts, w = ring_sampled_disc(1.0, ring_spacing=0.05 / 16, points_per_unit_length=100)
        set_csv = tmp_path / "disc.csv"
        DiscreteVarifold.flat(pts, Plane.axis(3, (0, 1)), w).to_csv(set_csv)
        rc = run_cli(["--out", tmp_path / "out", "slice", set_csv, "--map", "norm",
                      "--t", "0.5", "--bin", "0.05"])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "slice_summary.json").read_text())
        assert summary["mass"] == pytest.approx(np.pi, rel=0.02)


class TestMinimizeCommand:
    def test_half_resolution_square(self, tmp_path):
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(square_problem_dict(1, 2)))
        rc = run_cli(["--out", tmp_path / "out", "--seed", "3", "minimize", prob])
        assert rc == 0
        sol = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert sol["value"] == 1.0
        assert sol["oracle_match"] is True
        assert (tmp_path / "out" / "solution.obj").read_text().startswith("v ")
        assert (tmp_path / "out" / "audit_report.json").exists()

    @pytest.mark.parametrize("level", [-cli.MAX_GRID_LEVEL, cli.MAX_GRID_LEVEL])
    def test_levels_at_the_ends_of_the_range(self, level, tmp_path, monkeypatch):
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(square_problem_dict(level, 1, options={"restarts": 1, "steps": 50,
                                                                         "oracle_check": True})))
        assert run_cli(["--out", tmp_path / "out", "minimize", prob]) == 0
        sol = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert sol["value"] == 2.0 ** (-2 * level) and sol["oracle_match"] is True
        monkeypatch.setenv("GMTKIT_LEVEL", str(level))
        monkeypatch.setenv("GMTKIT_CELLS", "[1, 1, 1]")
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(sol["chain"]))
        assert run_cli(["--out", tmp_path / "audit", "audit", chain]) == 0
        for out in ("out", "audit"):
            report = json.loads((tmp_path / out / "audit_report.json").read_text())
            ratios = [r[1] for e in report["entries"] for r in e["ratios"]]
            assert ratios and all(0 < r < math.inf for r in ratios)

    def test_empty_generators_value_zero(self, tmp_path):
        data = square_problem_dict(1, 2)
        data["generators"] = []
        data["boundary_cells"] = []
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(data))
        rc = run_cli(["--out", tmp_path / "out", "minimize", prob])
        assert rc == 0
        sol = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert sol["value"] == 0.0 and sol["cells"] == 0

    def test_missing_keys_exit_2(self, tmp_path):
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({"n": 3}))
        assert run_cli(["--out", tmp_path / "out", "minimize", prob]) == 2

    def test_bad_json_exit_2(self, tmp_path):
        prob = tmp_path / "prob.json"
        prob.write_text("{not json")
        assert run_cli(["--out", tmp_path / "out", "minimize", prob]) == 2

    def test_non_cycle_generator_exit_2(self, tmp_path):
        data = square_problem_dict(1, 2)
        data["generators"] = [[data["boundary_cells"][0]]]  # a single edge: not a cycle
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(data))
        assert run_cli(["--out", tmp_path / "out", "minimize", prob]) == 2

    def test_infeasible_exit_4(self, tmp_path, monkeypatch):
        from gmtkit.solver import InfeasibleError

        def boom(*args, **kwargs):
            raise InfeasibleError("no spanning initial chain")

        monkeypatch.setattr(cli, "solver_minimize", boom)
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(square_problem_dict(1, 2)))
        assert run_cli(["--out", tmp_path / "out", "minimize", prob]) == 4

    @pytest.mark.parametrize("vertices, rc", [([[0, 0]], 4), ([[0, 0], [2, 1]], 0)], ids=["odd", "even"])
    def test_zero_cycle_parity_decides_exit_4(self, vertices, rc, tmp_path):
        # a 0-cycle bounds in the grid exactly when it has an even number of vertices
        gen = [{"level": 0, "corner": v, "axes": [], "n": 2} for v in vertices]
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({"n": 2, "cells": [2, 2], "level": 0, "m": 1, "boundary_cells": gen,
                                    "generators": [gen], "integrand": {"kind": "area"},
                                    "options": {"restarts": 1, "steps": 100, "oracle_check": True}}))
        src = str(Path(gmtkit.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if not k.startswith("GMTKIT_")}
        proc = subprocess.run([sys.executable, "-m", "gmtkit.cli", "--out", str(tmp_path / "out"), "minimize", str(prob)],
                              cwd=tmp_path, env=dict(env, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
        assert proc.returncode == rc, proc.stderr
        if rc:
            assert proc.stderr == "infeasible: a generator is not a boundary in the full grid\n"
        else:
            assert json.loads((tmp_path / "out" / "solution.json").read_text())["oracle_match"]

    def test_stage_failure_exit_3(self, tmp_path, monkeypatch):
        from gmtkit.deform import StageError

        def boom(*args, **kwargs):
            raise StageError("centre search failed", cube="K")

        monkeypatch.setattr(cli, "deform_onto_skeleton", boom)
        pts, w = sample_disc(0.5, 50, seed=1, center=[2.0, 2.0, 2.0])
        set_csv = tmp_path / "disc.csv"
        DiscreteVarifold.flat(pts, Plane.axis(3, (0, 1)), w).to_csv(set_csv)
        assert run_cli(["--out", tmp_path / "out", "deform", set_csv]) == 3


class TestAuditCommand:
    def test_audit_chain(self, tmp_path):
        chain = {
            "m": 2,
            "level": 2,
            "cells": [
                {"level": 2, "corner": [i, j, 0], "axes": [0, 1], "n": 3}
                for i in range(4)
                for j in range(4)
            ],
        }
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps(chain))
        rc = run_cli(["--out", tmp_path / "out", "audit", chain_path])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "audit_report.json").read_text())
        assert report["violations"] == 0
        csv = (tmp_path / "out" / "audit_ratios.csv").read_text()
        assert csv.splitlines()[0] == "px,py,pz,radius,ratio,flag"


class TestEllipticityCommand:
    def test_area_probe(self, tmp_path):
        rc = run_cli(["--out", tmp_path / "out", "probe-ellipticity"])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "ellipticity_report.json").read_text())
        assert report["counterexample"] is None
        assert report["min_margin"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("config", [{"plane_axes": [0], "m": 1},
                                        {"n": 2, "plane_axes": [0], "m": 1, "x": [0.0, 0.0]}])
    def test_area_probe_of_a_line(self, tmp_path, config):
        # the m = 1 probe disc: a segment of the line
        (tmp_path / "probe.json").write_text(json.dumps(config))
        assert run_cli(["--out", tmp_path / "out", "--config", tmp_path / "probe.json", "probe-ellipticity"]) == 0
        report = json.loads((tmp_path / "out" / "ellipticity_report.json").read_text())
        assert report["counterexample"] is None
        assert report["margins"] and all(c["margin"] == pytest.approx(1.0, abs=1e-9) for c in report["margins"])


class TestDeterminism:
    @pytest.mark.parametrize("command", ["retract", "project", "probe-ellipticity"])
    def test_seeded_reruns_byte_identical(self, tmp_path, command):
        rc1 = run_cli(["--out", tmp_path / "a", "--seed", "7", command])
        rc2 = run_cli(["--out", tmp_path / "b", "--seed", "7", command])
        assert rc1 == rc2 == 0
        assert artifact_bytes(tmp_path / "a") == artifact_bytes(tmp_path / "b")

    def test_minimize_rerun_byte_identical(self, tmp_path):
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps(square_problem_dict(1, 2)))
        run_cli(["--out", tmp_path / "a", "--seed", "2", "minimize", prob])
        run_cli(["--out", tmp_path / "b", "--seed", "2", "minimize", prob])
        assert artifact_bytes(tmp_path / "a") == artifact_bytes(tmp_path / "b")


def _square_edges(level, cells, z):
    return [{"level": level, "corner": list(corner), "axes": list(axes), "n": 3}
            for i in range(cells)
            for corner, axes in [((i, 0, z), (0,)), ((i, cells, z), (0,)),
                                 ((0, i, z), (1,)), ((cells, i, z), (1,))]]


def _bad_input_files(tmp):
    pts, w = sample_disc(1.3, 200, seed=3, center=[2.0, 2.0, 2.05])
    DiscreteVarifold.flat(pts, Plane.axis(3, (0, 1)), w).to_csv(tmp / "disc.csv")
    (tmp / "noeps.json").write_text(json.dumps({"m": 2, "seed": 0, "descent_count": 0, "stages": []}))
    (tmp / "plan.txt").write_text("not json\n")
    cell = {"level": 2, "corner": [99, 0, 0], "axes": [0, 1], "n": 3}
    (tmp / "far_cell.json").write_text(json.dumps({"m": 2, "level": 2, "cells": [cell]}))
    edge = {"level": 2, "corner": [0, 0, 0], "axes": [0], "n": 3}
    (tmp / "edge_cell.json").write_text(json.dumps({"m": 2, "level": 2, "cells": [edge]}))
    square = [{"level": 2, "corner": [i, j, 0], "axes": [0, 1], "n": 3} for i in range(4) for j in range(4)]
    (tmp / "chain.json").write_text(json.dumps({"m": 2, "level": 2, "cells": square}))
    (tmp / "audit_integrand.json").write_text(json.dumps({"integrand": {"kind": "area"}}))
    (tmp / "chain_m_fraction.json").write_text(json.dumps({"m": 2.7, "level": 2, "cells": square}))
    ends = [{"level": 1, "corner": c, "axes": [0, 1], "n": 2} for c in ([0, 0], [1, 0])]
    (tmp / "planar.json").write_text(json.dumps(
        {"n": 2, "cells": [2, 2], "level": 1, "m": 2, "boundary_cells": ends, "generators": [],
         "integrand": {"kind": "area"}}))
    for name, restarts in (("restarts", "many"), ("no_restarts", 0)):
        (tmp / f"{name}.json").write_text(json.dumps(square_problem_dict(1, 2, options={"restarts": restarts})))
    (tmp / "oracle_budget_over_cap.json").write_text(json.dumps(
        square_problem_dict(1, 2, options={"oracle_check": True, "oracle_budget_dim": 64})))
    low, high = _square_edges(1, 2, z=0), _square_edges(1, 2, z=2)
    (tmp / "stacked.json").write_text(json.dumps(dict(
        square_problem_dict(1, 2), boundary_cells=low + high, generators=[low, high],
        options={"restarts": 1, "steps": 50, "oracle_check": True, "oracle_budget_dim": 0})))
    (tmp / "planes.txt").write_text("2 1 1 0 0 1\n")
    (tmp / "problem.json").write_text(json.dumps(square_problem_dict(1, 2, options={"restarts": 1, "steps": 50})))
    (tmp / "integrand_5.json").write_text(json.dumps(square_problem_dict(1, 2, integrand=5)))
    (tmp / "steps_negative.json").write_text(json.dumps(square_problem_dict(1, 2, options={"steps": -5})))
    for name, key, value in (("level_fraction", "level", 1.7), ("m_fraction", "m", 1.5),
                             ("cells_of_wrong_length", "cells", [2, 2]), ("grid_over_cap", "cells", [512] * 3)):
        (tmp / f"{name}.json").write_text(json.dumps(dict(square_problem_dict(1, 2), **{key: value})))
    # levels outside [-32, 32]: from 538 up the audit's r^m underflowed to 0, from -1022 down the side overflowed
    for level in (538, 1100, -1100):
        (tmp / f"level_{level}.json").write_text(json.dumps(square_problem_dict(level, 1)))
        cells = [{"level": level, "corner": [0, 0, 0], "axes": [0, 1], "n": 3}]
        (tmp / f"chain_level_{level}.json").write_text(json.dumps({"m": 2, "level": level, "cells": cells}))
    # cube dicts that int() truncated, or whose bool corner entry passed as 1
    for name, key, value in (("level_fraction", "level", 2.7), ("n_fraction", "n", 3.9)):
        cells = [dict(square[0], **{key: value})] + square[1:]
        (tmp / f"chain_{name}.json").write_text(json.dumps({"m": 2, "level": 2, "cells": cells}))
    for name, key, i, change in (("boundary_level_fraction", "boundary_cells", 0, {"level": 1.5}),
                                 ("generator_corner_bool", "generators", 4, {"corner": [True, 0, 0]})):
        data = json.loads(json.dumps(square_problem_dict(1, 2, options={"restarts": 1, "steps": 50})))
        (data[key][0] if key == "generators" else data[key])[i].update(change)
        (tmp / f"{name}.json").write_text(json.dumps(data))
    stage = {"cube": {"level": 2.7, "corner": [0, 0, 0], "axes": [0, 1, 2], "n": 3},
             "center": [0.1, 0.1, 0.1], "eps": 0.05, "freeze_radius": 0.0, "kind": "descent"}
    (tmp / "plan_level_fraction.json").write_text(json.dumps(
        {"m": 2, "eps": 0.05, "seed": 0, "descent_count": 1, "stages": [stage]}))
    for name, header in BAD_PLAN_HEADERS.items():
        (tmp / f"plan_{name}.json").write_text(json.dumps(
            dict({"m": 2, "eps": 0.05, "seed": 0, "descent_count": 1, "stages": [PLAN_STAGE]}, **header)))
    (tmp / "probe_m_three.json").write_text(json.dumps({"n": 4, "plane_axes": [0, 1, 2], "m": 3, "x": [0, 0, 0, 0]}))
    for name, text in BAD_SET_FILES.items():
        (tmp / f"set_{name}.csv").write_text(text)
    for name, line in BAD_PLANE_PAIRS.items():
        (tmp / f"planes_{name}.txt").write_text(line + "\n")
    for name, (change, count) in BAD_PLAN_STAGES.items():
        (tmp / f"plan_{name}.json").write_text(json.dumps(
            {"m": 2, "eps": 0.05, "seed": 0, "descent_count": count, "stages": [dict(PLAN_STAGE, **change)]}))


# plane-pair lines that break the rotate rule: integers 1 <= n and 0 <= m <= n, then the
# frames of two planes, with finite entries (1e308 overflows the frame's norm)
BAD_PLANE_PAIRS = {"n_fraction": "2.5 1 1 0 0 1", "nan_entry": "2 1 nan 0 0 1", "n_overflows": "1e400 1 1 0 0 1",
                   "n_zero": "0 0", "entry_overflows": "2 1 1e308 0 0 1"}

# set files that break the set-file rule: a valid row, then the row that breaks it
SET_HEADER, SET_ROW = "# gmtkit varifold n=3 m=2", "2.0,2.0,2.05,1.0,0.0,0.0,0.0,1.0,0.0,0.01"
BAD_SET_FILES = {name: f"{header}\n{SET_ROW}\n{row}\n" for name, header, row in [
    ("nan_coordinate", SET_HEADER, "nan,2.0,2.05,1.0,0.0,0.0,0.0,1.0,0.0,0.01"),
    ("inf_frame_entry", SET_HEADER, "2.0,2.0,2.05,inf,0.0,0.0,0.0,1.0,0.0,0.01"),
    ("inf_weight", SET_HEADER, "2.0,2.0,2.05,1.0,0.0,0.0,0.0,1.0,0.0,inf"),
    ("negative_weight", SET_HEADER, "2.0,2.0,2.05,1.0,0.0,0.0,0.0,1.0,0.0,-0.01"),
    ("scaled_frame_columns", SET_HEADER, "2.0,2.0,2.05,5.0,0.0,0.0,0.0,7.0,0.0,0.01"),
    ("equal_frame_columns", SET_HEADER, "2.0,2.0,2.05,1.0,0.0,0.0,1.0,0.0,0.0,0.01"),
    ("frame_entry_overflows", SET_HEADER, "2.0,2.0,2.05,1e200,0.0,-1e200,0.0,1.0,0.0,0.01"),
    ("extra_fields", SET_HEADER, SET_ROW + ",3.0,4.0"),
    ("too_few_fields", SET_HEADER, "2.0,2.0,2.05,1.0,0.0,0.0,0.0,1.0,0.0"),
    ("header_without_m", "# gmtkit varifold n=3", SET_ROW),
    ("header_n_not_an_integer", "# gmtkit varifold n=3.5 m=2", SET_ROW),
]}
# blank and whitespace-only lines before the bad row, which is line 6
BAD_SET_FILES["blank_lines_before_bad_row"] = (
    f"{SET_HEADER}\n{SET_ROW}\n\n   \n\t\n2.0,2.0,2.05,1.0,0.0,0.0,0.0,1.0,0.0,-0.01\n")
# 17 isotropic rows with n = m = 1024: 70 KB of text, but 17 * 2^20 frame
# entries, above MAX_FRAME_ENTRIES = 2^24, refused before any frame array is made
BAD_SET_FILES["isotropic_rows_over_frame_cap"] = "# gmtkit varifold n=1024 m=1024\n" + (
    "0.0," * 1024 + "isotropic,0.01\n") * 17

# replay plans whose one stage, or descent_count, breaks a plan rule
PLAN_STAGE = {"cube": {"level": 0, "corner": [2, 2, 2], "axes": [0, 1, 2], "n": 3},
              "center": [2.5, 2.5, 2.5], "eps": 0.05, "freeze_radius": 0.1, "kind": "descent"}
BAD_PLAN_STAGES = {
    "center_of_length_1": ({"center": [2.5]}, 1),
    "center_nan": ({"center": [math.nan, 2.5, 2.5]}, 1),
    "kind_bogus": ({"kind": "bogus"}, 1),
    "eps_zero": ({"eps": 0.0}, 1),
    "freeze_radius_inf": ({"freeze_radius": math.inf}, 1),
    "descent_count_above_stages": ({}, 2),
    "descent_count_fraction": ({}, 0.5),
    "eps_text": ({"eps": "0.05"}, 1),
    # a stage cube in R^2 replayed on the set in R^3 (its map took points in R^2 only)
    "other_dimension": ({"cube": {"level": 0, "corner": [2, 2], "axes": [0, 1], "n": 2}, "center": [2.5, 2.5]}, 1),
}
# replay plans whose header breaks the rule to_json writes it under
BAD_PLAN_HEADERS = {"m_text": {"m": "x"}, "eps_null": {"eps": None}, "seed_list": {"seed": [1]},
                    "constants_list": {"constants": [1]}}


BAD_INPUTS = {
    "log_level_unknown": ({}, ["--log-level", "LOUD", "retract"]),
    "replay_missing_file": ({}, ["deform", "disc.csv", "--replay", "missing.json"]),
    "replay_without_eps": ({}, ["deform", "disc.csv", "--replay", "noeps.json"]),
    "replay_not_json": ({}, ["deform", "disc.csv", "--replay", "plan.txt"]),
    "audit_cell_outside_grid": ({}, ["audit", "far_cell.json"]),
    "audit_cell_of_wrong_dimension": ({}, ["audit", "edge_cell.json"]),
    "eps_not_a_number": ({"GMTKIT_EPS": "abc"}, ["deform", "disc.csv"]),
    "m_not_an_integer": ({"GMTKIT_M": '"two"'}, ["deform", "disc.csv"]),
    "coverage_not_a_number": ({"GMTKIT_COVERAGE_THRESHOLD": "null"}, ["deform", "disc.csv"]),
    "grid_level_not_an_integer": ({"GMTKIT_GRID_LEVEL": "[1]"}, ["deform", "disc.csv"]),
    "grid_cells_not_a_list": ({"GMTKIT_GRID_CELLS": "4"}, ["deform", "disc.csv"]),
    "grid_origin_not_integers": ({"GMTKIT_GRID_ORIGIN": '["a", 0, 0]'}, ["deform", "disc.csv"]),
    "deform_eps_out_of_range": ({"GMTKIT_EPS": "5"}, ["deform", "disc.csv"]),
    "deform_eps_zero": ({"GMTKIT_EPS": "0"}, ["deform", "disc.csv"]),
    "deform_m_out_of_range": ({"GMTKIT_M": "7"}, ["deform", "disc.csv"]),
    "deform_m_equals_n": ({"GMTKIT_M": "3"}, ["deform", "disc.csv"]),
    "deform_m_below_set_dimension": ({"GMTKIT_M": "1"}, ["deform", "disc.csv"]),
    "retract_n_not_an_integer": ({"GMTKIT_N": "abc"}, ["retract"]),
    "retract_eps_not_a_number": ({"GMTKIT_EPS": '"x"'}, ["retract"]),
    "retract_probes_not_an_integer": ({"GMTKIT_PROBES": "null"}, ["retract"]),
    "project_n_not_an_integer": ({"GMTKIT_N": "abc"}, ["project"]),
    "project_radius_not_a_number": ({"GMTKIT_RADIUS": "abc"}, ["project"]),
    "project_inner_not_a_number": ({"GMTKIT_BODY": "cube_enclosure", "GMTKIT_INNER": "abc"}, ["project"]),
    "project_eps_not_a_number": ({"GMTKIT_EPS": "[]"}, ["project"]),
    "project_probes_not_an_integer": ({"GMTKIT_PROBES": "abc"}, ["project"]),
    "audit_n_not_an_integer": ({"GMTKIT_N": "abc"}, ["audit", "chain.json"]),
    "audit_level_not_an_integer": ({"GMTKIT_LEVEL": '"x"'}, ["audit", "chain.json"]),
    "audit_cells_not_integers": ({"GMTKIT_CELLS": '["a", 4, 4]'}, ["audit", "chain.json"]),
    "audit_subdivision_not_an_integer": ({"GMTKIT_SUBDIVISION": "abc"}, ["audit", "chain.json"]),
    "probe_n_not_an_integer": ({"GMTKIT_N": "abc"}, ["probe-ellipticity"]),
    "probe_sup_grid_not_an_integer": ({"GMTKIT_SUP_GRID": "abc"}, ["probe-ellipticity"]),
    "minimize_m_equals_n": ({}, ["minimize", "planar.json"]),
    "minimize_restarts_not_an_integer": ({}, ["minimize", "restarts.json"]),
    "minimize_no_restarts": ({}, ["minimize", "no_restarts.json"]),
    # 2^64 Gray-code steps: refused before the minimizer or the oracle starts
    "minimize_oracle_budget_over_cap": ({}, ["minimize", "oracle_budget_over_cap.json"]),
    "retract_n_zero": ({"GMTKIT_N": "0"}, ["retract"]),
    "retract_probes_negative": ({"GMTKIT_PROBES": "-1"}, ["retract"]),
    "retract_eps_negative": ({"GMTKIT_EPS": "-1"}, ["retract"]),
    "project_n_zero": ({"GMTKIT_N": "0"}, ["project"]),
    "audit_subdivision_zero": ({"GMTKIT_SUBDIVISION": "0"}, ["audit", "chain.json"]),
    "probe_n_one": ({"GMTKIT_N": "1"}, ["probe-ellipticity"]),
    "whitney_box_without_hi": ({"GMTKIT_OPEN_SET": '"boxes"', "GMTKIT_BOXES": "[[0]]"}, ["whitney"]),
    "whitney_box_not_a_pair": ({"GMTKIT_OPEN_SET": '"boxes"', "GMTKIT_BOXES": "[5]"}, ["whitney"]),
    "whitney_box_not_numbers": ({"GMTKIT_OPEN_SET": '"boxes"', "GMTKIT_BOXES": '[["a", "b"]]'}, ["whitney"]),
    "project_radius_zero": ({"GMTKIT_RADIUS": "0"}, ["project"]),
    "project_radius_negative": ({"GMTKIT_RADIUS": "-1"}, ["project"]),
    "project_radius_nan": ({"GMTKIT_RADIUS": "NaN"}, ["project"]),
    "project_inner_above_outer": ({"GMTKIT_BODY": "cube_enclosure", "GMTKIT_INNER": "0.2"}, ["project"]),
    "project_semi_axes_empty": ({"GMTKIT_BODY": "ellipsoid", "GMTKIT_SEMI_AXES": "[]"}, ["project"]),
    "project_eps_nan": ({"GMTKIT_EPS": "NaN"}, ["project"]),
    "whitney_min_level_not_an_integer": ({"GMTKIT_MIN_LEVEL": "abc"}, ["whitney"]),
    "whitney_skeleton_dim_not_an_integer": ({"GMTKIT_SKELETON_DIM": "abc"}, ["whitney"]),
    "whitney_radius_not_a_number": ({"GMTKIT_OPEN_SET": '"ball"', "GMTKIT_RADIUS": "abc"}, ["whitney"]),
    "whitney_bbox_one_corner": ({"GMTKIT_BBOX": "[[0]]"}, ["whitney"]),
    "whitney_bbox_not_a_pair": ({"GMTKIT_BBOX": "5"}, ["whitney"]),
    "whitney_point_not_numbers": ({"GMTKIT_POINT": '["a", 1]'}, ["whitney"]),
    "whitney_skeleton_dim_negative": ({"GMTKIT_SKELETON_DIM": "-1"}, ["whitney"]),
    "whitney_center_of_wrong_length": ({"GMTKIT_OPEN_SET": '"ball"', "GMTKIT_CENTER": "[0]"}, ["whitney"]),
    "probe_plane_axes_negative": ({"GMTKIT_PLANE_AXES": "[-1, 0]"}, ["probe-ellipticity"]),
    "project_eps_above_half_circumradius": ({"GMTKIT_EPS": "5"}, ["project"]),
    "probe_m_not_the_plane_dimension": ({"GMTKIT_M": "5"}, ["probe-ellipticity"]),
    "probe_x_of_wrong_length": ({"GMTKIT_X": "[0]"}, ["probe-ellipticity"]),
    "probe_sup_grid_negative": ({"GMTKIT_SUP_GRID": "-1"}, ["probe-ellipticity"]),
    "probe_m_three": ({}, ["--config", "probe_m_three.json", "probe-ellipticity"]),
    "slice_t_not_a_number": ({}, ["slice", "disc.csv", "--t", "abc", "--bin", "0.05"]),
    "slice_bin_zero": ({}, ["slice", "disc.csv", "--t", "0.5", "--bin", "0"]),
    "slice_map_not_a_coordinate": ({}, ["slice", "disc.csv", "--map", "coord:x", "--t", "0.5", "--bin", "0.05"]),
    "slice_map_axis_out_of_range": ({}, ["slice", "disc.csv", "--map", "coord:7", "--t", "0.5", "--bin", "0.05"]),
    "slice_t_nan": ({}, ["slice", "disc.csv", "--t", "nan", "--bin", "0.05"]),
    "slice_bin_nan": ({}, ["slice", "disc.csv", "--t", "0.5", "--bin", "nan"]),
    "rotate_tau_not_a_number": ({}, ["rotate", "planes.txt", "--tau", "abc"]),
    "rotate_tau_nan": ({}, ["rotate", "planes.txt", "--tau", "nan"]),
    "rotate_n_fraction": ({}, ["rotate", "planes_n_fraction.txt"]),
    "rotate_nan_entry": ({}, ["rotate", "planes_nan_entry.txt"]),
    "rotate_n_overflows": ({}, ["rotate", "planes_n_overflows.txt"]),
    "rotate_n_zero": ({}, ["rotate", "planes_n_zero.txt"]),
    "rotate_entry_overflows": ({}, ["rotate", "planes_entry_overflows.txt"]),
    "seed_not_an_integer": ({}, ["--seed", "abc", "retract"]),
    "slice_without_t": ({}, ["slice", "disc.csv"]),
    "out_is_a_file": ({}, ["--out", "disc.csv", "retract"]),
    "minimize_level_not_an_integer": ({}, ["minimize", "level_fraction.json"]),
    "minimize_m_not_an_integer": ({}, ["minimize", "m_fraction.json"]),
    "minimize_cells_of_wrong_length": ({}, ["minimize", "cells_of_wrong_length.json"]),
    "audit_cell_level_fraction": ({}, ["audit", "chain_level_fraction.json"]),
    "audit_cell_n_fraction": ({}, ["audit", "chain_n_fraction.json"]),
    "minimize_boundary_cell_level_fraction": ({}, ["minimize", "boundary_level_fraction.json"]),
    "minimize_generator_corner_bool": ({}, ["minimize", "generator_corner_bool.json"]),
    "replay_cube_level_fraction": ({}, ["deform", "disc.csv", "--replay", "plan_level_fraction.json"]),
    "replay_m_text": ({}, ["deform", "disc.csv", "--replay", "plan_m_text.json"]),
    "replay_eps_null": ({}, ["deform", "disc.csv", "--replay", "plan_eps_null.json"]),
    "replay_seed_list": ({}, ["deform", "disc.csv", "--replay", "plan_seed_list.json"]),
    "replay_constants_list": ({}, ["deform", "disc.csv", "--replay", "plan_constants_list.json"]),
    "audit_chain_m_fraction": ({}, ["audit", "chain_m_fraction.json"]),
    # a number in JSON input must be a JSON number: numpy would read "0.05" as
    # 0.05 and true as 1, and a text that is not JSON stays text
    "deform_eps_text": ({"GMTKIT_EPS": '"0.05"'}, ["deform", "disc.csv"]),
    "deform_grid_cells_bool": ({"GMTKIT_GRID_CELLS": "[true, 2, 2]"}, ["deform", "disc.csv"]),
    "retract_eps_not_json": ({"GMTKIT_EPS": ".5"}, ["retract"]),
    "probe_tilt_lam_text": (
        {"GMTKIT_INTEGRAND": '{"kind": "tilt_penalty", "reference_axes": [0, 1], "lam": "2"}'},
        ["probe-ellipticity"]),
    "probe_tilt_reference_axes_bools": (
        {"GMTKIT_INTEGRAND": '{"kind": "tilt_penalty", "reference_axes": [true, false]}'}, ["probe-ellipticity"]),
    # 1025^3 and 3^40 cells, above MAX_GRID_CELLS, counted before any grid is made
    "minimize_grid_over_cell_cap": ({}, ["minimize", "grid_over_cap.json"]),
    "audit_grid_over_cell_cap": ({"GMTKIT_N": "40", "GMTKIT_CELLS": json.dumps([1] * 40),
                                  "GMTKIT_ORIGIN": json.dumps([0] * 40)}, ["audit", "chain.json"]),
    # levels outside [-MAX_GRID_LEVEL, MAX_GRID_LEVEL]
    "minimize_level_538": ({}, ["minimize", "level_538.json"]),
    "audit_level_1100": ({"GMTKIT_LEVEL": "1100"}, ["audit", "chain_level_1100.json"]),
    "deform_grid_level_minus_1100": ({"GMTKIT_GRID_LEVEL": "-1100"}, ["deform", "disc.csv"]),
    "deform_grid_level_1100": ({"GMTKIT_GRID_LEVEL": "1100"}, ["deform", "disc.csv"]),
    "whitney_min_level_62": ({"GMTKIT_MIN_LEVEL": "62"}, ["whitney"]),
    "whitney_min_level_64": ({"GMTKIT_MIN_LEVEL": "64"}, ["whitney"]),
    "whitney_bbox_flat": ({"GMTKIT_BBOX": "[[0, -1], [0, 1]]"}, ["whitney"]),
    "whitney_box_lo_above_hi": ({"GMTKIT_OPEN_SET": '"boxes"', "GMTKIT_BOXES": "[[[0, 0], [1, -1]]]"}, ["whitney"]),
    # 81 boxes with distinct faces: 325^3 slot cells, above 2^22, counted before any grid is made
    "whitney_boxes_over_face_cap": ({"GMTKIT_OPEN_SET": '"boxes"', "GMTKIT_BBOX": "[[0, 0, 0], [1, 1, 1]]",
                                     "GMTKIT_BOXES": json.dumps([[[i] * 3, [1000 + i] * 3] for i in range(81)])},
                                    ["whitney"]),
    **{f"{command}_set_{name}": ({}, [command, f"set_{name}.csv", *extra]) for name in BAD_SET_FILES
       for command, extra in (("slice", ["--t", "0.5", "--bin", "0.05"]), ("deform", []))},
    **{f"replay_{name}": ({}, ["deform", "disc.csv", "--replay", f"plan_{name}.json"]) for name in BAD_PLAN_STAGES},
}

# the same contract for inputs from the environment and from files, run
# through cli.main in-process
IN_PROCESS_BAD_INPUTS = {
    "probe_integrand_not_a_dict": ({"GMTKIT_INTEGRAND": "5"}, ["probe-ellipticity"]),
    "minimize_integrand_not_a_dict": ({}, ["minimize", "integrand_5.json"]),
    "probe_integrand_kind_unknown": ({"GMTKIT_INTEGRAND": '{"kind": "bogus"}'}, ["probe-ellipticity"]),
    "probe_tilt_without_reference": ({"GMTKIT_INTEGRAND": '{"kind": "tilt_penalty"}'}, ["probe-ellipticity"]),
    "probe_tilt_lam_not_a_number": (
        {"GMTKIT_INTEGRAND": '{"kind": "tilt_penalty", "reference_axes": [0, 1], "lam": "abc"}'},
        ["probe-ellipticity"]),
    "probe_tilt_lam_minus_one": (
        {"GMTKIT_INTEGRAND": '{"kind": "tilt_penalty", "reference_axes": [0, 1], "lam": -1}'},
        ["probe-ellipticity"]),
    "probe_table_values_one_dimensional": (
        {"GMTKIT_INTEGRAND": '{"kind": "table", "origin": [0, 0, 0], "spacing": [1, 1, 1], "values": [1, 2]}'},
        ["probe-ellipticity"]),
    "probe_table_spacing_zero": (
        {"GMTKIT_INTEGRAND": json.dumps({"kind": "table", "origin": [0, 0, 0], "spacing": [0, 0, 0],
                                         "values": np.ones((2, 2, 2)).tolist()})},
        ["probe-ellipticity"]),
    "deform_grid_cells_negative": ({"GMTKIT_GRID_CELLS": "[-1, 2, 2]"}, ["deform", "disc.csv"]),
    "deform_grid_cells_of_wrong_length": ({"GMTKIT_GRID_CELLS": "[2, 2]"}, ["deform", "disc.csv"]),
    "deform_grid_origin_of_wrong_length": ({"GMTKIT_GRID_ORIGIN": "[0]"}, ["deform", "disc.csv"]),
    "deform_coverage_threshold_above_1": ({"GMTKIT_COVERAGE_THRESHOLD": "1.5"}, ["deform", "disc.csv"]),
    "deform_coverage_threshold_negative": ({"GMTKIT_COVERAGE_THRESHOLD": "-0.1"}, ["deform", "disc.csv"]),
    # 4097^2 x 3 cells of all dimensions, above MAX_GRID_CELLS, counted before the family is built
    "deform_grid_cells_over_cell_cap": ({"GMTKIT_GRID_CELLS": "[2048, 2048, 1]"}, ["deform", "disc.csv"]),
    # 16 cells x (2^20)^2 x 3 sample coordinates, above MAX_AUDIT_ENTRIES, counted before any sample is made
    "audit_subdivision_over_cap": ({"GMTKIT_SUBDIVISION": str(2**20)}, ["audit", "chain.json"]),
    "minimize_steps_negative": ({}, ["minimize", "steps_negative.json"]),
    "minimize_level_minus_1100": ({}, ["minimize", "level_-1100.json"]),
    "audit_level_minus_1100": ({"GMTKIT_LEVEL": "-1100"}, ["audit", "chain_level_-1100.json"]),
    # the audit measures area and takes no integrand
    "audit_integrand_key_unknown": ({}, ["--config", "audit_integrand.json", "audit", "chain.json"]),
    # probes x n^2 one past MAX_PROBE_ENTRIES = 2^22, refused before any probe is drawn
    "retract_probes_over_cap": ({"GMTKIT_PROBES": str(2**20 + 1)}, ["retract"]),
    "project_ellipsoid_probes_over_cap": ({"GMTKIT_BODY": '"ellipsoid"', "GMTKIT_SEMI_AXES": "[2, 1, 1]",
                                           "GMTKIT_PROBES": str(2**22 // 9 + 1)}, ["project"]),
}


def run_in_process(tmp_path, monkeypatch, capsys, env, argv):
    """(exit code, stderr, warnings) of cli.main run in tmp_path with only the
    given GMTKIT_ variables set."""
    monkeypatch.chdir(tmp_path)
    for key in [k for k in os.environ if k.startswith("GMTKIT_")]:
        monkeypatch.delenv(key)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main([str(a) for a in ["--seed", 0, "--out", tmp_path / "out", *argv]])
    finally:
        for key in env:
            monkeypatch.delenv(key)
        err = capsys.readouterr().err
    return rc, err, caught


class TestBadInput:
    """Malformed input exits 2 (an exceeded oracle budget 3) with a one-line
    message and no traceback."""

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exit_2_one_line(self, case, tmp_path):
        _bad_input_files(tmp_path)
        env_extra, argv = BAD_INPUTS[case]
        src = str(Path(gmtkit.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if not k.startswith("GMTKIT_")}
        env.update(env_extra, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "gmtkit.cli", "--out", str(tmp_path / "out"), *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("case", sorted(IN_PROCESS_BAD_INPUTS))
    def test_in_process_exit_2_one_line(self, case, tmp_path, monkeypatch, capsys):
        _bad_input_files(tmp_path)
        rc, err, caught = run_in_process(tmp_path, monkeypatch, capsys, *IN_PROCESS_BAD_INPUTS[case])
        assert rc == 2, err
        assert len(err.splitlines()) == 1 and err.startswith("input error: ")
        assert not caught, [str(w.message) for w in caught]

    def test_probe_cap_counts_jacobian_entries(self):
        cli._check_probe_work(cli.MAX_PROBE_ENTRIES // 9, 3)
        cli._check_probe_work(1, 2048)
        for probes, n in [(cli.MAX_PROBE_ENTRIES // 9 + 1, 3), (1, 2049), (2**53, 2**53)]:
            with pytest.raises(cli.InputError, match="MAX_PROBE_ENTRIES"):
                cli._check_probe_work(probes, n)

    def test_audit_refuses_an_integrand(self, tmp_path, monkeypatch, capsys):
        _bad_input_files(tmp_path)
        rc, err, _ = run_in_process(tmp_path, monkeypatch, capsys, *IN_PROCESS_BAD_INPUTS["audit_integrand_key_unknown"])
        assert rc == 2 and "unknown config keys" in err and "integrand" in err

    def test_set_file_error_counts_blank_lines(self, tmp_path, monkeypatch, capsys):
        _bad_input_files(tmp_path)
        argv = ["slice", "set_blank_lines_before_bad_row.csv", "--t", "0.5", "--bin", "0.05"]
        rc, err, _ = run_in_process(tmp_path, monkeypatch, capsys, {}, argv)
        assert rc == 2 and "line 6: every weight must be >= 0" in err

    def test_help_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gmtkit")

    def test_oracle_budget_exceeded_exit_3(self, tmp_path, monkeypatch, capsys):
        # two generators and no enumeration budget send the oracle to branch
        # and bound, which a one-node budget stops at once
        _bad_input_files(tmp_path)
        monkeypatch.setattr(cli, "exhaustive_oracle", functools.partial(exhaustive_oracle, node_budget=1))
        assert run_cli(["--out", tmp_path / "out", "minimize", tmp_path / "stacked.json"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "oracle budget exceeded" in err
        assert len(err.splitlines()) == 1


class TestAuditColumns:
    def test_planar_problem_has_two_coordinate_columns(self, tmp_path):
        ends = [{"level": 1, "corner": [0, 1], "axes": [], "n": 2},
                {"level": 1, "corner": [4, 1], "axes": [], "n": 2}]
        problem = {"n": 2, "cells": [4, 4], "level": 1, "m": 1, "boundary_cells": ends,
                   "generators": [ends], "integrand": {"kind": "area"},
                   "options": {"restarts": 1, "steps": 300}}
        path = tmp_path / "segment.json"
        path.write_text(json.dumps(problem))
        assert run_cli(["--out", tmp_path / "out", "minimize", path]) == 0
        lines = (tmp_path / "out" / "audit_ratios.csv").read_text().splitlines()
        assert lines[0] == "px,py,radius,ratio,flag"
        assert len(lines) > 1
        assert all(len(line.split(",")) == 5 for line in lines[1:])


# ---------------------------------------------------------------------------
# the input tables: defaults, --help and a bad-input sweep generated from them

SWEEP_ARGV = {  # the subcommand's argv around the swept input, with the files of _bad_input_files
    "rotate": ["planes.txt"],
    "retract": [],
    "project": [],
    "whitney": [],
    "deform": ["disc.csv"],
    "slice": ["disc.csv"],
    "minimize": ["problem.json"],
    "audit": ["chain.json"],
    "probe-ellipticity": [],
}
SWEEP_N = {"whitney": 2}  # the ambient dimension of the sweep's inputs; 3 elsewhere
SLICE_VALID = {"t": 0.5, "bin": 0.05}  # the slice inputs without a default


def _outside(rule, sym, bound):
    """Values just past one bound of a rule, and on it when it is open."""
    step = 1 if rule.kind == "int" else None
    if sym in (">", ">="):
        below = bound - step if step else np.nextafter(bound, -math.inf)
        return [bound, bound - 1] if sym == ">" else [below]
    above = bound + step if step else np.nextafter(bound, math.inf)
    return [bound, bound + 1] if sym == "<" else [above]


def _with_first(default, value):
    """The default array with its first entry replaced by value, or value for a scalar."""
    if not isinstance(default, list):
        return value
    out = json.loads(json.dumps(default))
    row = out
    while isinstance(row[0], list):
        row = row[0]
    row[0] = value
    return out


def bad_values(rule, default):
    """(label, value) pairs that break the rule, made from a valid value:
    a wrong type, each side of each bound, NaN and +-inf, a wrong shape and
    null."""
    cases = [("wrong type", "abc" if rule.kind != "choice" else 5), ("null", None), ("wrong shape", [default])]
    if rule.kind != "integrand":
        cases.append(("wrong type", {"a": 1}))
    if rule.kind in ("int", "float"):
        cases += [(label, _with_first(default, v))
                  for label, v in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf))]
        cases += [(f"bound {sym} {bound}", _with_first(default, v))
                  for sym, bound in rule.bounds for v in _outside(rule, sym, bound)]
        if rule.kind == "int":
            cases += [("not integral", _with_first(default, 1.5)), ("beyond 2^53", _with_first(default, 1e20))]
        if rule.shape:
            cases.append(("wrong shape", []))
        if rule.shape == ("n",):
            cases.append(("wrong length", default + default[:1]))
    else:
        cases += [("nan", math.nan), ("inf", math.inf)]
    return cases


def _as_argument(rule, value):
    """value as the text of a command-line argument: a list input comma-separated."""
    if rule.shape and isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


def sweep_cases():
    """(subcommand, key, label, value) for every input of every subcommand."""
    return [(command, key, label, value)
            for command, table in cli.INPUTS.items() for key, rule in table.items()
            for label, value in bad_values(rule, SLICE_VALID[key] if rule.default is None else rule.default)]


class TestInputTables:
    @pytest.mark.parametrize("command", sorted(cli.INPUTS))
    def test_defaults_pass_their_rules(self, command):
        for key, rule in cli.INPUTS[command].items():
            if rule.default is not None:
                rule.check(key, rule.default, SWEEP_N.get(command, 3))

    @pytest.mark.parametrize("command", sorted(cli.INPUTS))
    def test_help_lists_every_input(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for key, rule in cli.INPUTS[command].items():
            default = "required" if rule.default is None else f"default {json.dumps(rule.default)}"
            assert f"  {key}: {default}; {rule.describe()}" in out

    def test_every_subcommand_has_a_table(self):
        assert set(cli.INPUTS) == set(SWEEP_ARGV)

    def test_generated_bad_input_sweep(self, tmp_path, monkeypatch, capsys):
        _bad_input_files(tmp_path)
        failures = []
        for command, key, label, value in sweep_cases():
            rule = cli.INPUTS[command][key]
            argv = [command, *SWEEP_ARGV[command]]
            if command in ("rotate", "slice"):
                given = dict(SLICE_VALID) if command == "slice" else {}
                given[key] = value
                argv += [f"--{k}={_as_argument(cli.INPUTS[command][k], v)}" for k, v in given.items()]
            elif command == "minimize":
                problem = square_problem_dict(1, 2, options={"restarts": 1, "steps": 50, key: value})
                (tmp_path / "swept.json").write_text(json.dumps(problem))
                argv = [command, "swept.json"]
            else:
                config = {key: value, **dict([rule.when] if rule.when else [])}
                (tmp_path / "swept_config.json").write_text(json.dumps(config))
                argv = ["--config", "swept_config.json", *argv]
            try:
                rc, err, caught = run_in_process(tmp_path, monkeypatch, capsys, {}, argv)
            except (Exception, SystemExit) as exc:  # anything escaping main fails the case
                failures.append(f"{command} {key}={value!r} ({label}): {type(exc).__name__}: {exc}")
                continue
            if rc not in (2, 3, 4) or len(err.splitlines()) != 1 or caught:
                failures.append(f"{command} {key}={value!r} ({label}): exit {rc}, stderr {err!r}, "
                                f"warnings {[str(w.message) for w in caught]}")
        assert not failures, "\n".join(failures)
