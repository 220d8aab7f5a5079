"""Tests for run-configuration parsing and the command line driver."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import ellipot
from ellipot import AssembledOperator, CoefficientSet, ConfigError, RunConfig, assemble
from ellipot.cli import main


class TestConfigValues:
    @staticmethod
    def parse(text):
        return RunConfig.from_text(text)

    def test_scalar_kinds(self):
        cfg = self.parse(
            "[a]\n"
            "n = 33\n"
            "x = 2.5\n"
            "y = 1e-3\n"
            "flag = true\n"
            "other = False\n"
            "name = upwind\n"
            'expr = "(1+r)^(-3)"\n'
        )
        assert cfg.get("a", "n") == 33
        assert cfg.get("a", "x") == 2.5
        assert cfg.get("a", "y") == 1e-3
        assert cfg.get("a", "flag") is True
        assert cfg.get("a", "other") is False
        assert cfg.get("a", "name") == "upwind"
        assert cfg.get("a", "expr") == "(1+r)^(-3)"

    def test_lists(self):
        cfg = self.parse("[a]\nv = [1, 2, 3]\nw = [0.5 1.5]\nz = []\n")
        assert cfg.get("a", "v") == [1, 2, 3]
        assert cfg.get("a", "w") == [0.5, 1.5]
        assert cfg.get("a", "z") == []

    def test_comments_are_ignored(self):
        cfg = self.parse("# top\n[a]\n; note\nn = 1\n")
        assert cfg.get("a", "n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            "[a]\nv = [1, 2\n",        # unterminated list
            '[a]\ns = "oops\n',        # unterminated quote
            "[a]\nv = 1 2 3\n",        # bare token with spaces
            "[a]\nv =\n",              # empty value
            "[a]\nn = 1\nn = 2\n",     # duplicate key
        ],
    )
    def test_malformed_values_raise(self, text):
        with pytest.raises(ConfigError):
            self.parse(text)

    def test_typed_access(self):
        cfg = self.parse("[a]\nn = 3\nx = 2.5\nflag = true\nname = abc\n")
        assert cfg.get("a", "n", kind="float") == 3.0  # int accepted as float
        assert cfg.get("a", "n", kind="list") == [3]   # scalar promoted
        with pytest.raises(ConfigError):
            cfg.get("a", "x", kind="int")
        with pytest.raises(ConfigError):
            cfg.get("a", "flag", kind="int")           # bool is not an int
        with pytest.raises(ConfigError):
            cfg.get("a", "name", kind="float")

    def test_missing_keys(self):
        cfg = self.parse("[a]\nn = 1\n")
        assert cfg.get("a", "absent", default=7) == 7
        with pytest.raises(ConfigError, match=r"\[a\] absent"):
            cfg.get("a", "absent")
        assert cfg.has("a", "n")
        assert not cfg.has("b")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.from_file("/nonexistent/run.cfg")


SOLVE_CFG = """\
[geometry]
dim = 1
shape = 33
bounds = [0, 1]

[phi]
family = power
gamma = 0.5
p = 1.0

[experiment]
boundary = 1.0
"""


# demo 07's configs and the artifacts it committed
DEMO_CLI = Path(__file__).resolve().parent.parent / "demos" / "output" / "cli_solve"


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _solution(out):
    """Values column of a solve's solution.csv."""
    with open(out / "solution.csv") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    return np.array([float(r[-1]) for r in rows[1:]])


# drift keeps a box off the DST path: B is factored by SuperLU
DRIFT = "\n[operator]\nb1 = 0.5\n"
# a ball inside the unit cube: not a box, so B is factored by SuperLU
BALL_3D = SOLVE_CFG.replace("dim = 1", "dim = 3").replace(
    "shape = 33", "shape = 17").replace(
    "bounds = [0, 1]",
    'bounds = [0, 1]\nmask = "(x1-0.5)^2 + (x2-0.5)^2 + (x3-0.5)^2 - 0.2"')


class TestCliSolve:
    def _solve_report(self, tmp_path, text):
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text()), out

    def test_end_to_end(self, tmp_path):
        report, out = self._solve_report(tmp_path, SOLVE_CFG + DRIFT)
        assert report["converged"] is True
        assert report["dim"] == 1
        assert report["identity_residual"] < 1e-8
        # drift keeps the interval off DST: the operator's own factor
        assert report["method"] == "fas"
        assert report["factorizations"] == 1
        assert report["factor_nnz"] > 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = [a["name"] for a in manifest["artifacts"]]
        assert names == sorted(names)
        assert "solution.csv" in names
        assert "report.json" in names
        assert all(len(a["sha256"]) == 64 for a in manifest["artifacts"])

    def test_report_carries_the_error_bound(self, tmp_path):
        # sup |B^-1 |r|| bounds the distance to the discrete solution
        report, _ = self._solve_report(tmp_path, SOLVE_CFG)
        assert 0.0 <= report["error_bound"] <= 1e-8

    def test_end_to_end_on_a_box_factors_no_operator(self, tmp_path):
        # the interval is solved by DST and the V-cycles solve nothing
        report, _ = self._solve_report(tmp_path, SOLVE_CFG)
        assert report["converged"] is True
        assert report["identity_residual"] < 1e-8
        assert report["factorizations"] == report["factor_nnz"] == 0

    def test_ball_report_counts_the_operators_factor(self, tmp_path):
        # a 3D ball takes FAS: B is factored once, for the harmonic
        # extension and the certificates, and nothing else is
        report, _ = self._solve_report(tmp_path, BALL_3D)
        assert report["converged"] is True
        assert report["method"] == "fas"
        assert report["factorizations"] == 1
        assert (report["lambda_max"], report["lambda_refreshes"]) == (0.0, 0)
        assert "inner_iterations" not in report

    def test_solve_off_the_sweep_hypotheses_exits_1(self, tmp_path, caplog):
        # centered drift at cell Peclet number 40 / 16 = 2.5 leaves B neither
        # an M-matrix nor symmetric: the solve refuses it before any work
        text = SOLVE_CFG.replace("dim = 1", "dim = 2").replace(
            "shape = 33", "shape = 17") + "\n[operator]\ndrift = centered\nb1 = 40\n"
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert "must have the M-matrix sign pattern or be symmetric" in caplog.text
        assert not (out / "report.json").exists()

    def test_solution_csv_layout(self, tmp_path):
        cfg = _write(tmp_path, SOLVE_CFG)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out", str(out)])
        with open(out / "solution.csv") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        header, data = rows[0], rows[1:]
        assert header[0] == "x1"          # coordinates first
        assert header[-1] == "value"      # values last
        xs = np.array([float(r[0]) for r in data])
        assert np.all(np.diff(xs) > 0)    # row-major order on an interval
        # 17 significant digits round trip bit-for-bit
        vals = np.array([float(r[-1]) for r in data])
        assert np.all(np.isfinite(vals))
        assert vals.max() <= 1.0

    def test_determinism_modulo_timestamp(self, tmp_path):
        cfg = _write(tmp_path, SOLVE_CFG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["solve", "--config", str(cfg), "--out", str(out1)])
        main(["solve", "--config", str(cfg), "--out", str(out2)])
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["artifacts"] == m2["artifacts"]
        assert m1["config_sha256"] == m2["config_sha256"]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = _write(tmp_path, SOLVE_CFG + "seed = 7\n")
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out", str(out), "--seed", "99"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_seed_from_config_section(self, tmp_path):
        cfg = _write(tmp_path, SOLVE_CFG + "seed = 7\n")
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_verbose_runs(self, tmp_path):
        cfg = _write(tmp_path, SOLVE_CFG)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--verbose"]) == 0

    def test_verbose_streams_solver_progress(self, tmp_path):
        cfg = _write(tmp_path, SOLVE_CFG)
        src = str(Path(ellipot.__file__).resolve().parent.parent)
        cmd = [sys.executable, "-m", "ellipot.cli", "solve", "--config",
               str(cfg), "--out", str(tmp_path / "out")]
        env = {**os.environ, "PYTHONPATH": src}
        quiet = subprocess.run(cmd, env=env, capture_output=True, text=True,
                               timeout=120)
        loud = subprocess.run(cmd + ["--verbose"], env=env, capture_output=True,
                              text=True, timeout=120)
        assert quiet.returncode == loud.returncode == 0
        assert "factorizations" not in quiet.stderr
        assert "factorizations (fill" in loud.stderr


DICHOTOMY_CFG = """\
[geometry]
dim = 2
shape = 17
half_widths = [1.0, 2.0, 4.0]
levels = 2

[phi]
family = power
gamma = 0.5
p = "(1 + sqrt(x1^2+x2^2))^(-3)"

[experiment]
c = 1.0
m_min = 1.0
m_max = 100.0
m_count = 4
"""


# on 19^2 boxes the interior side 17 halves to 8, an even side, which
# coarsens to pair midpoints: the FAS levels lie on lattices of their own
EVEN_DICHOTOMY_CFG = DICHOTOMY_CFG.replace("shape = 17", "shape = 19")


def _own_boxes(assembled, shape):
    """The operators assembled on the command's own lattice; every other
    one must be a coarse FAS level, on a smaller lattice."""
    own = [op for op in assembled if op.mask.grid.shape == shape]
    assert all(max(op.mask.grid.shape) < max(shape) for op in assembled
               if op.mask.grid.shape != shape)
    return own


# a 17^2 box that serves every command, with the concave majorant of
# p sqrt(t) as its reaction
MAJORANT_CFG = """\
[geometry]
dim = 2
shape = 17
bounds = [-1.0, 1.0]
half_widths = [1.0, 2.0]
levels = 2

[phi]
family = power
gamma = 0.5
p = "1/(1 + x1^2+x2^2)"
use_majorant = true

[experiment]
boundary = 1.0
c = 1.0
m_min = 1.0
m_max = 100.0
m_count = 4
"""


@pytest.fixture
def factored(monkeypatch):
    """Every operator factored while the test runs, once per new factor."""
    misses = []
    factor_ = AssembledOperator.factor

    def counting_factor(self):
        if not self.is_factored:
            misses.append(self)
        return factor_(self)

    monkeypatch.setattr(AssembledOperator, "factor", counting_factor)
    return misses


class TestCliDichotomy:
    def _run(self, tmp_path, text):
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["dichotomy", "--config", str(cfg), "--out", str(out)]) == 0
        return json.loads((out / "dichotomy.json").read_text())

    def test_each_box_is_assembled_and_factored_once(self, tmp_path, assembled,
                                                     factored):
        report = self._run(tmp_path, EVEN_DICHOTOMY_CFG + DRIFT)
        # three half-widths times two exhaustion levels; the study, the
        # sweep and the Green sums share the whole-box operators, and no
        # coarse level is factored
        own = _own_boxes(assembled, (19, 19))
        assert len(own) == 3 * 2
        assert len(factored) == len(own)
        assert {id(op) for op in factored} == {id(op) for op in own}
        assert report["verdict"]["consistent"] is True
        assert len(report["study"]["sup_estimates"]) == 3

    def test_each_box_is_assembled_once_and_never_factored(self, tmp_path, assembled,
                                                           factored):
        report = self._run(tmp_path, EVEN_DICHOTOMY_CFG)
        assert len(_own_boxes(assembled, (19, 19))) == 3 * 2
        assert factored == []
        assert report["verdict"]["consistent"] is True

    def test_fas_boxes_add_only_their_coarse_levels(self, tmp_path, assembled,
                                                   factored):
        # the outer boxes' interior side 15 halves to 7 and 3, the inner
        # shells' 9 to 4 and 2: each FAS solve re-assembles its coarse
        # levels on coarser lattices, and factors none of them
        report = self._run(tmp_path, DICHOTOMY_CFG)
        own = [op for op in assembled if op.mask.grid.shape == (17, 17)]
        assert len(own) == 3 * 2
        assert len(assembled) > len(own)
        assert {op.mask.grid.shape for op in assembled if op not in own} == {
            (9, 9), (5, 5), (6, 6), (4, 4)}
        assert factored == []
        assert report["verdict"]["consistent"] is True

    def test_sweep_box_outside_the_family_is_assembled(self, tmp_path, assembled):
        cfg = _write(tmp_path, EVEN_DICHOTOMY_CFG + "sweep_half_width = 3.0\n")
        out = tmp_path / "o"
        assert main(["dichotomy", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(_own_boxes(assembled, (19, 19))) == 3 * 2 + 1

    def test_even_shape_is_rejected_before_any_assembly(self, tmp_path, assembled):
        cfg = _write(tmp_path, DICHOTOMY_CFG.replace("shape = 17", "shape = 16"))
        out = tmp_path / "o"
        assert main(["dichotomy", "--config", str(cfg), "--out", str(out)]) == 1
        assert assembled == []

    def test_potential_rejects_even_shape_before_any_assembly(self, tmp_path, caplog,
                                                              assembled):
        # without a probe the diagnostic reads the origin, which an even
        # shape puts between lattice points
        cfg = _write(tmp_path, DICHOTOMY_CFG.replace("shape = 17", "shape = 16"))
        out = tmp_path / "o"
        assert main(["potential", "--config", str(cfg), "--out", str(out)]) == 1
        assert assembled == []
        assert "shape must be odd" in caplog.text


class TestCliExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_missing_geometry_key(self, tmp_path):
        cfg = _write(tmp_path, "[geometry]\ndim = 1\n")
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1

    def test_bad_expression(self, tmp_path):
        bad = SOLVE_CFG.replace('p = 1.0', 'p = "2*^3"')
        cfg = _write(tmp_path, bad)
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1

    def test_hypothesis_failure_in_checks(self, tmp_path):
        text = SOLVE_CFG.replace("gamma = 0.5", "gamma = 3.0")
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["checks", "--config", str(cfg), "--out", str(out)]) == 2
        checks = json.loads((out / "checks.json").read_text())
        assert checks["failures"]

    @pytest.mark.parametrize(
        "phi, where",
        [("family = capped\ncap = -0.5", "cap must be nonnegative"),
         ("family = affine\nslope = -1.0", "slope must be nonnegative")],
        ids=["negative-cap", "negative-slope"],
    )
    def test_reaction_negative_for_positive_t_exits_1(self, tmp_path, caplog, phi, where):
        # phi < 0 for t > 0 puts the sweep's roots outside [0, s / b]: such a
        # solve stagnates with a residual of order 1, so it is refused when
        # the reaction is built
        cfg = _write(tmp_path, SOLVE_CFG.replace("family = power\ngamma = 0.5", phi))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert where in caplog.text
        assert not (out / "report.json").exists()

    def test_numeric_failure(self, tmp_path):
        text = SOLVE_CFG + "\n[solver]\ntol = 1e-14\nmax_iterations = 1\n"
        cfg = _write(tmp_path, text)
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize(
        "line",
        [
            "t_floor = 1e-6",        # a key the solver no longer reads
            "safety = 2.0",
            "tol = 0",               # no positive tolerance to meet
            "tol = -1e-10",
            "max_iterations = 0",
        ],
    )
    def test_bad_solver_setting(self, tmp_path, caplog, line):
        cfg = _write(tmp_path, SOLVE_CFG + "\n[solver]\n" + line + "\n")
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"[solver] {line.split()[0]}" in caplog.text
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "command, text, where",
        [
            # a misspelt key would fall back to its default (gamma = 0.5)
            ("checks", SOLVE_CFG.replace("gamma = 0.5", "gama = 3.0"), "[phi] gama"),
            # checks reads no [solver] key, but one file serves every command
            ("checks", SOLVE_CFG + "\n[solver]\nt_floor = 1e-6\n", "[solver] t_floor"),
            ("solve", SOLVE_CFG + "\n[experimnt]\nboundary = 2.0\n", "[experimnt]"),
            # a 2D operator has drift components b1 and b2 only
            ("solve", SOLVE_CFG.replace("dim = 1", "dim = 2")
             + "\n[operator]\nb3 = 1.0\n", "[operator] b3"),
            # the sup-identity bands are constants, not settings
            ("dichotomy", DICHOTOMY_CFG + "band_fraction = 0.8\n",
             "[experiment] band_fraction"),
            # an affine reaction has a slope only: rho(0) = offset != 0 made
            # phi jump at t = 0, which failed checks and stagnated solves
            ("checks", SOLVE_CFG.replace("family = power\ngamma = 0.5",
                                         "family = affine\nslope = 1.0\noffset = 0.5"),
             "[phi] offset"),
        ],
        ids=["misspelt-key", "unread-solver-key", "unknown-section", "drift-beyond-dim",
             "retired-sup-band", "retired-phi-offset"],
    )
    def test_unknown_key_exits_before_any_work(self, tmp_path, caplog, command,
                                               text, where):
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert where in caplog.text
        assert not out.exists()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestCliCommands:
    @pytest.mark.parametrize(
        "command, text, name, path",
        [
            # the corner cross breaks the M-matrix sign pattern of a
            # symmetric B: the solve runs, with no error bound
            ("solve", SOLVE_CFG.replace("dim = 1", "dim = 2").replace(
                "shape = 33", "shape = 17")
             + "\n[operator]\na = [1.0, 0.8, 0.8, 1.0]\n",
             "report.json", ("error_bound",)),
            # one half-width leaves the sup stability undefined
            ("dichotomy", DICHOTOMY_CFG.replace("[1.0, 2.0, 4.0]", "[2.0]"),
             "dichotomy.json", ("verdict", "sup_stability")),
            # one radius fits no growth exponent, at unit radius as elsewhere
            ("potential", DICHOTOMY_CFG.replace("[1.0, 2.0, 4.0]", "[1.0]"),
             "report.json", ("exponent",)),
            ("dichotomy", DICHOTOMY_CFG.replace("[1.0, 2.0, 4.0]", "[1.0]"),
             "dichotomy.json", ("diagnostic", "exponent")),
        ],
        ids=["withheld-error-bound", "single-half-width", "potential-unit-radius",
             "dichotomy-unit-radius"],
    )
    def test_non_finite_values_are_written_as_null(self, tmp_path, command, text,
                                                   name, path):
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        value = json.loads((out / name).read_text(), parse_constant=_no_constant)
        for key in path:
            value = value[key]
        assert value is None

    def test_checks_pass_for_sublinear(self, tmp_path):
        cfg = _write(tmp_path, SOLVE_CFG)
        out = tmp_path / "o"
        assert main(["checks", "--config", str(cfg), "--out", str(out)]) == 0
        checks = json.loads((out / "checks.json").read_text())
        assert checks["failures"] == []
        assert checks["m_matrix"]["is_m_matrix"] is True

    @pytest.mark.parametrize("name, code", [("run", 0), ("bad", 2)])
    def test_checks_reproduce_the_demo_reports(self, tmp_path, name, code):
        # demo 07's committed checks.json, the sublinear run.cfg and the
        # cubic bad.cfg; the Kato sums are left out, as they round
        # differently from host to host
        cfg = _write(tmp_path, (DEMO_CLI / f"{name}.cfg").read_text(), name=f"{name}.cfg")
        out = tmp_path / "checks"
        assert main(["checks", "--config", str(cfg), "--out", str(out)]) == code
        got = json.loads((out / "checks.json").read_text())
        want = json.loads((DEMO_CLI / f"checks_{name}" / "checks.json").read_text())
        for key in ("hypotheses", "growth_bound_with_given_density", "failures"):
            assert got[key] == want[key], key

    def test_majorant_command(self, tmp_path):
        cfg = _write(tmp_path, SOLVE_CFG)
        out = tmp_path / "o"
        assert main(["majorant", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["domination_defect"] >= -1e-12
        assert report["value_at_zero"] == 0.0
        assert (out / "psi_table.csv").exists()

    def test_majorant_tables_read_the_majorants_own_density(self, tmp_path):
        # the zero family's majorant is 0 * rho1 whatever [phi] p says, so
        # both tables list p = 0 and a psi table of zeros (no -0 entries)
        text = (MAJORANT_CFG.replace("use_majorant = true\n", "")
                .replace("family = power", "family = zero")
                .replace('p = "1/(1 + x1^2+x2^2)"', 'p = "x1 - 0.2"')
                .replace("shape = 17", "shape = 33"))
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["majorant", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["phi"] == "zero" and report["domination_defect"] == 0.0
        for name, column in (("psi_table.csv", slice(1, None)), ("psi_points.csv", -1)):
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(line for line in fh if not line.startswith("#")))
            entries = [cell for row in rows[1:] for cell in np.atleast_1d(row[column])]
            assert len(entries) >= 8 and set(entries) == {"0"}, name

    def test_use_majorant_runs_in_every_command(self, tmp_path):
        cfg = _write(tmp_path, MAJORANT_CFG)
        codes = {
            command: main([command, "--config", str(cfg),
                           "--out", str(tmp_path / command)])
            for command in ("solve", "exhaust", "majorant", "blowup", "potential",
                            "checks", "dichotomy")
        }
        for command in ("solve", "exhaust", "majorant", "blowup", "potential"):
            assert codes[command] == 0, command
        # the dichotomy completes; its verdict is descriptive because the
        # majorant's growth constant exceeds 1 (see the checks test below)
        assert codes["dichotomy"] in (0, 2)
        report = json.loads((tmp_path / "dichotomy" / "dichotomy.json").read_text())
        assert report["verdict"]["hypotheses_ok"] is False

    def test_checks_audits_the_majorant_it_would_solve(self, tmp_path):
        # checks audits the reaction that is actually solved: the majorant
        # p (2 t + psi(min(t, 1))) grows with a universal constant near 7.9
        # against its own density, over the admissible bound 1
        cfg = _write(tmp_path, MAJORANT_CFG)
        out = tmp_path / "o"
        assert main(["checks", "--config", str(cfg), "--out", str(out)]) == 2
        checks = json.loads((out / "checks.json").read_text())
        assert checks["hypotheses"]["linear_bound_constant"] == pytest.approx(
            7.898685598015407, rel=1e-9)
        assert checks["failures"] == [
            "linear growth bound fails with the given density (constant 7.899 > 1)"
        ]
        plain = _write(tmp_path, MAJORANT_CFG.replace("use_majorant = true\n", ""),
                       name="plain.cfg")
        assert main(["checks", "--config", str(plain), "--out", str(tmp_path / "p")]) == 0

    def test_majorant_flags_a_negative_density(self, tmp_path):
        # p = x1 changes sign on the box; where p < 0 the majorant p rho1
        # lies below p rho, so domination fails (exit 2)
        text = MAJORANT_CFG.replace("use_majorant = true\n", "").replace(
            'p = "1/(1 + x1^2+x2^2)"', 'p = "x1"')
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["majorant", "--config", str(cfg), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["domination_defect"] < 0.0

    def test_blowup_command(self, tmp_path):
        text = SOLVE_CFG + "m_min = 1\nm_max = 100\nm_count = 5\n"
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["blowup", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["sweep"]["verdict"] in ("diverges", "saturates")
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "m"
        assert len(rows) == 6

    def test_exhaust_command(self, tmp_path):
        text = SOLVE_CFG.replace("shape = 33", "shape = 33\nlevels = 2")
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["exhaust", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["run"]["decreasing_ok"] is True
        assert (out / "levels.csv").exists()
        assert (out / "vc.csv").exists()


class TestCliConfigPaths:
    @pytest.mark.parametrize(
        "lines, b",
        [
            ('b1 = "x2"\nb2 = 0.5',
             lambda pts: np.stack([pts[:, 1], np.full(len(pts), 0.5)], axis=1)),
            ("b1 = 0.5", np.array([0.5, 0.0])),
        ],
        ids=["expression", "constant"],
    )
    def test_drift_keys_assemble_the_coefficient_set(self, tmp_path, assembled,
                                                     lines, b):
        text = SOLVE_CFG.replace("dim = 1", "dim = 2").replace("shape = 33", "shape = 9")
        cfg = _write(tmp_path, text + "\n[operator]\n" + lines + "\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        op = assembled[0]
        ref = assemble(op.mask, CoefficientSet(b=b))
        npt.assert_array_equal(op.interior_matrix.toarray(), ref.interior_matrix.toarray())
        npt.assert_array_equal(op.boundary_matrix.toarray(), ref.boundary_matrix.toarray())

    def test_expression_family_matches_the_power_family(self, tmp_path):
        expr = SOLVE_CFG.replace("family = power\ngamma = 0.5",
                                 'family = expr\nrho = "sqrt(t)"')
        out = {}
        for name, text in (("power", SOLVE_CFG), ("expr", expr)):
            out[name] = tmp_path / name
            cfg = _write(tmp_path, text, name=f"{name}.cfg")
            assert main(["solve", "--config", str(cfg), "--out", str(out[name])]) == 0
        npt.assert_allclose(_solution(out["expr"]), _solution(out["power"]), rtol=1e-12)

    @pytest.mark.parametrize(
        "phi, code",
        [("family = capped\ncap = 1.0", 0), ("family = power\ngamma = 2", 2)],
        ids=["capped", "power-2"],
    )
    def test_require_concave(self, tmp_path, phi, code):
        text = SOLVE_CFG.replace("family = power\ngamma = 0.5", phi)
        cfg = _write(tmp_path, text + "require_concave = true\n")
        out = tmp_path / "o"
        assert main(["checks", "--config", str(cfg), "--out", str(out)]) == code
        failures = json.loads((out / "checks.json").read_text())["failures"]
        assert ("reaction is not concave in t" in failures) == bool(code)

    def test_reaction_jumping_at_zero_fails_checks_and_dichotomy(self, tmp_path):
        # rho = t + 1/2 jumps at t = 0; the solve on this box stagnates, so
        # the audit must catch it first
        jump = 'family = expr\nrho = "t + 0.5"'
        box = "dim = 2\nshape = 33\nbounds = [-4.0, 4.0]"
        text = SOLVE_CFG.replace("family = power\ngamma = 0.5", jump)
        cfg = _write(tmp_path, text.replace("dim = 1\nshape = 33\nbounds = [0, 1]", box))
        out = tmp_path / "checks"
        assert main(["checks", "--config", str(cfg), "--out", str(out)]) == 2
        failures = json.loads((out / "checks.json").read_text())["failures"]
        assert "reaction does not vanish for t <= 0" in failures

        # the dichotomy's solves stay positive, so it completes, but its
        # verdict is descriptive only
        cfg = _write(tmp_path, DICHOTOMY_CFG.replace("family = power\ngamma = 0.5", jump),
                     name="dichotomy.cfg")
        out = tmp_path / "dichotomy"
        assert main(["dichotomy", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "dichotomy.json").read_text())
        assert report["verdict"]["hypotheses_ok"] is False

    def test_superlinear_growth_fails_checks_and_dichotomy(self, tmp_path):
        cfg = _write(tmp_path, SOLVE_CFG.replace("gamma = 0.5", "gamma = 3.0"))
        out = tmp_path / "checks"
        assert main(["checks", "--config", str(cfg), "--out", str(out)]) == 2
        failures = json.loads((out / "checks.json").read_text())["failures"]
        assert any(f.startswith("linear growth bound fails") for f in failures)

        cfg = _write(tmp_path, DICHOTOMY_CFG.replace("gamma = 0.5", "gamma = 3.0"),
                     name="dichotomy.cfg")
        out = tmp_path / "dichotomy"
        main(["dichotomy", "--config", str(cfg), "--out", str(out)])
        report = json.loads((out / "dichotomy.json").read_text())
        assert report["verdict"]["hypotheses_ok"] is False
