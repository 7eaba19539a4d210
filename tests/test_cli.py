import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import stasis
import stasis.cli as cli
from stasis import catalog, expansion, model, oracle, schrodinger
from stasis.cli import catalog_list, main, run
from stasis.errors import BudgetError, ConvergenceError, DomainError


CONFIG_DIR = Path(stasis.__file__).parent / "configs"


def _write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


PASS_CFG = """
    [experiment]
    kind = sweep-omega

    [amplitude]
    name = beta
    mu1 = 0.4
    mu2 = 0.6

    [phase]
    name = linear

    [grid]
    omega_min = 5
    omega_max = 50
    omega_count = 3
    q = 0.5

    [tolerances]
    oracle_tol = 1e-9

    [output]
    csv = out.csv
    svg = out.svg
"""

# eps = 1/2 exactly, the open bound: inadmissible, must be refused up front
ERROR_CFG = """
    [experiment]
    kind = schrodinger-curve

    [amplitude]
    name = intro
    mu = 0.75

    [grid]
    eps = 0.5
    t_min = 1e2
    t_max = 1e4
    t_count = 8

    [output]
    csv = out.csv
"""

# an impossible slope window forces FAIL rows (computation is fine)
FAIL_CFG = """
    [experiment]
    kind = schrodinger-curve

    [amplitude]
    name = intro
    mu = 0.75

    [grid]
    eps = 0.25
    t_min = 1e2
    t_max = 1e4
    t_count = 8

    [tolerances]
    oracle_tol = 1e-8
    slope_tol = 1e-6
    residual_margin = 0.03

    [output]
    csv = out.csv
"""

# FAIL_CFG's amplitude and grid on the region kind
REGION_CFG = """
    [experiment]
    kind = schrodinger-region

    [amplitude]
    name = intro
    mu = 0.75

    [grid]
    eps = 0.25
    t_min = {t_min}
    t_max = 1e4
    t_count = 8
    rays = {rays}

    [tolerances]
    oracle_tol = 1e-8

    [output]
    csv = out.csv
"""

QUADRATIC_SWEEP_CFG = """
    [experiment]
    kind = sweep-omega

    [amplitude]
    name = intro
    mu = 0.75

    [phase]
    name = quadratic
    p0 = 0.3

    [grid]
    omega_min = 5
    omega_max = 50
    omega_count = 3

    [output]
    csv = out.csv
"""

# no [output] csv: must be refused before any point is computed
NO_CSV_CFG = """
    [experiment]
    kind = critical-direction

    [amplitude]
    name = intro
    mu = 0.5

    [grid]
    t_min = 1e2
    t_max = 1e5
    t_count = 8
"""

# omega = 1e8 would need ~2.4e8 panel-oracle evaluations, over the default
# budget; steepest descent takes it in a few dozen panels
BUDGET_CFG = """
    [experiment]
    kind = sweep-omega

    [amplitude]
    name = beta
    mu1 = 0.5
    mu2 = 0.5

    [phase]
    name = linear

    [grid]
    omega_min = 1e8
    omega_max = 1e8
    omega_count = 1

    [output]
    csv = out.csv
"""

# NO_CSV_CFG with its output
CRITICAL_CFG = NO_CSV_CFG + """
    [output]
    csv = out.csv
"""

# the shipped blowup-scan grid with [grid] x_count set by the test
BLOWUP_CFG = """
    [experiment]
    kind = blowup-scan

    [amplitude]
    name = intro
    mu = 0.75

    [grid]
    t_min = 1e2
    t_max = 1e5
    t_count = 10
    x_count = {x_count}

    [output]
    csv = out.csv
"""


@pytest.fixture
def no_oracle(monkeypatch):
    """Fail the test if any point of u is evaluated."""
    def forbidden(*args, **kwargs):
        pytest.fail("evaluate_solution ran before the config was validated")

    monkeypatch.setattr(schrodinger, "evaluate_solution", forbidden)
    monkeypatch.setattr(cli, "evaluate_solution", forbidden, raising=False)


class TestExitCodes:
    def test_pass_config(self, tmp_path):
        cfg = _write(tmp_path, "ok.cfg", PASS_CFG)
        assert run(cfg, out_dir=str(tmp_path)) == 0
        assert (tmp_path / "out.csv").exists()

    def test_error_config_names_key(self, tmp_path, capsys):
        cfg = _write(tmp_path, "err.cfg", ERROR_CFG)
        assert run(cfg, out_dir=str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "eps" in err and "(0," in err

    def test_fail_config(self, tmp_path):
        cfg = _write(tmp_path, "fail.cfg", FAIL_CFG)
        assert run(cfg, out_dir=str(tmp_path)) == 2

    def test_unreadable_config(self, tmp_path):
        assert run(str(tmp_path / "missing.cfg")) == 1

    def test_bad_kind(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.cfg", "[experiment]\nkind = nonsense\n")
        assert run(cfg) == 1
        assert "kind" in capsys.readouterr().err

    def test_missing_csv_refused_before_computing(self, tmp_path, capsys,
                                                  no_oracle):
        cfg = _write(tmp_path, "nocsv.cfg", NO_CSV_CFG)
        assert run(cfg, out_dir=str(tmp_path)) == 1
        assert "[output] csv" in capsys.readouterr().err

    def test_budget_failure_prints_diagnostics(self, tmp_path, capsys,
                                               monkeypatch):
        def fail(args):
            raise BudgetError("side 1: evaluations exceed budget",
                              diagnostics={"evaluations_needed": 3e8,
                                           "budget": 10_000_000,
                                           "omega": 1e8})

        monkeypatch.setattr(cli, "_sweep_task", fail)
        cfg = _write(tmp_path, "ok.cfg", PASS_CFG)
        assert run(cfg, out_dir=str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "omega=" in err and "budget=" in err
        assert not (tmp_path / "out.csv").exists()

    def test_large_omega_sweep_within_budget(self, tmp_path):
        # w = 1e8 on the linear phase: far beyond the panel oracle's budget,
        # a few dozen panels for steepest descent
        cfg = _write(tmp_path, "budget.cfg", BUDGET_CFG)
        assert run(cfg, out_dir=str(tmp_path)) == 0
        assert (tmp_path / "out.csv").exists()

    def test_convergence_failure_prints_location(self, tmp_path, capsys,
                                                 monkeypatch):
        def fail(args):
            raise ConvergenceError(
                "side 2: the fit of psi~ within 0.1 (p2 - p1) of p2 misses by "
                "3.000e-11 of max 1.000e+00; psi~ must be smooth there",
                where=1.0)

        monkeypatch.setattr(cli, "_sweep_task", fail)
        cfg = _write(tmp_path, "ok.cfg", PASS_CFG)
        assert run(cfg, out_dir=str(tmp_path)) == 1
        assert "where=1.0" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_unsmooth_psi_tilde_refused(self, tmp_path, capsys, monkeypatch,
                                        kinked_phase):
        # a frame whose near-endpoint fit of psi~ misses is refused, not
        # used: the sweep's expansion fails before any row
        monkeypatch.setattr(catalog, "phase", lambda name: kinked_phase)
        cfg = _write(tmp_path, "ok.cfg", PASS_CFG)
        assert run(cfg, out_dir=str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("computation failed: side 1")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("t_min, rays, key", [
        (1, 2, "[grid] t_min"), ("1e2", -1, "[grid] rays")])
    def test_region_grid_names_key(self, tmp_path, capsys, no_oracle,
                                   t_min, rays, key):
        body = REGION_CFG.format(t_min=t_min, rays=rays)
        cfg = _write(tmp_path, "region.cfg", body)
        assert run(cfg, out_dir=str(tmp_path)) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("x_count", [0, -1])
    def test_blowup_x_count_names_key(self, tmp_path, capsys, no_oracle,
                                      x_count):
        cfg = _write(tmp_path, "blowup.cfg", BLOWUP_CFG.format(x_count=x_count))
        assert run(cfg, out_dir=str(tmp_path)) == 1
        assert "[grid] x_count" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("body, key", [
        (FAIL_CFG.replace("slope_tol = 1e-6", "slope_tol = nan"),
         "[tolerances] slope_tol"),
        (FAIL_CFG.replace("slope_tol = 1e-6", "slope_tol = -0.1"),
         "[tolerances] slope_tol"),
        (FAIL_CFG.replace("slope_tol = 1e-6", "slope_tol = inf"),
         "[tolerances] slope_tol"),
        (CRITICAL_CFG + "\n    [tolerances]\n    slope_tol = nan\n",
         "[tolerances] slope_tol"),
        (FAIL_CFG.replace("residual_margin = 0.03", "residual_margin = nan"),
         "[tolerances] residual_margin"),
        (REGION_CFG.format(t_min="1e2", rays=2).replace(
            "oracle_tol = 1e-8", "oracle_tol = 1e-8\n    region_factor = nan"),
         "[tolerances] region_factor"),
        (REGION_CFG.format(t_min="1e2", rays=2).replace(
            "oracle_tol = 1e-8", "oracle_tol = 1e-8\n    region_factor = -1"),
         "[tolerances] region_factor"),
        (PASS_CFG.replace("omega_max = 50", "omega_max = inf"),
         "[grid] omega_max"),
        (CRITICAL_CFG.replace("t_max = 1e5", "t_max = inf"), "[grid] t_max"),
        (CRITICAL_CFG.replace("t_max = 1e5", "t_max = 5e3"),
         "[grid] t_min/t_max"),
        (FAIL_CFG.replace("t_max = 1e4", "t_max = 5e3"), "[grid] t_min/t_max"),
        (FAIL_CFG.replace("eps = 0.25", "eps = 0.6"), "[grid] eps"),
        (FAIL_CFG.replace("eps = 0.25", "eps = nan"), "[grid] eps"),
        (FAIL_CFG.replace("eps = 0.25", "eps = inf"), "[grid] eps"),
        (REGION_CFG.format(t_min="1e2", rays=2).replace("eps = 0.25",
                                                        "eps = nan"),
         "[grid] eps")],
        ids=["slope_tol-nan", "slope_tol-negative", "slope_tol-inf",
             "critical-slope_tol-nan", "residual_margin-nan",
             "region_factor-nan", "region_factor-negative", "omega_max-inf",
             "t_max-inf", "critical-under-two-decades",
             "curve-under-two-decades", "eps-above-half", "eps-nan",
             "eps-inf", "region-eps-nan"])
    def test_bad_value_refused_before_computing(self, tmp_path, capsys,
                                                no_oracle, body, key):
        cfg = _write(tmp_path, "bad.cfg", body)
        assert run(cfg, out_dir=str(tmp_path)) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e-11"])
    @pytest.mark.parametrize("body", [
        FAIL_CFG.replace("oracle_tol = 1e-8", "oracle_tol = {value}"),
        REGION_CFG.format(t_min="1e2", rays=2).replace("oracle_tol = 1e-8",
                                                       "oracle_tol = {value}"),
        CRITICAL_CFG + "\n    [tolerances]\n    oracle_tol = {value}\n",
        BLOWUP_CFG.format(x_count=81)
        + "\n    [tolerances]\n    oracle_tol = {value}\n"],
        ids=["curve", "region", "critical", "blowup"])
    def test_schrodinger_oracle_tol_refused(self, tmp_path, capsys, no_oracle,
                                            body, value):
        # evaluate_solution's floor is 1e-10
        cfg = _write(tmp_path, "tol.cfg", body.format(value=value))
        assert run(cfg, out_dir=str(tmp_path)) == 1
        assert "[tolerances] oracle_tol" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1e-13"])
    def test_sweep_oracle_tol_refused_before_any_frame(self, tmp_path, capsys,
                                                        monkeypatch, value):
        # the panel sums' floor is 1e-12
        def forbidden(*args, **kwargs):
            pytest.fail("a frame was built before oracle_tol was checked")

        monkeypatch.setattr(model, "build_frame", forbidden)
        monkeypatch.setattr(expansion, "build_frame", forbidden)
        monkeypatch.setattr(oracle, "build_frame", forbidden)
        body = PASS_CFG.replace("oracle_tol = 1e-9", f"oracle_tol = {value}")
        cfg = _write(tmp_path, "tol.cfg", body)
        assert run(cfg, out_dir=str(tmp_path)) == 1
        assert "[tolerances] oracle_tol" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_oracle_tol_at_floor_accepted(self, tmp_path):
        # the generic oracle and the quadratic one, which gives each half
        # of the band tol/2
        for body in (PASS_CFG.replace("oracle_tol = 1e-9", "oracle_tol = 1e-12"),
                     QUADRATIC_SWEEP_CFG.replace(
                         "[output]", "[tolerances]\n    oracle_tol = 1e-12\n\n"
                                     "    [output]")):
            assert run(_write(tmp_path, "tol.cfg", body),
                       out_dir=str(tmp_path)) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "7.6", "0.6"])
    @pytest.mark.parametrize("body, key", [
        (FAIL_CFG.replace("t_count = 8", "t_count = {value}"), "[grid] t_count"),
        (REGION_CFG.format(t_min="1e2", rays="{value}"), "[grid] rays"),
        (BLOWUP_CFG.format(x_count="{value}"), "[grid] x_count")],
        ids=["t_count", "rays", "x_count"])
    def test_non_integer_names_key(self, tmp_path, capsys, no_oracle, body,
                                   key, value):
        # refused, not rounded: 7.6 would pass t_count >= 8 as 8 rows
        cfg = _write(tmp_path, "int.cfg", body.format(value=value))
        assert run(cfg, out_dir=str(tmp_path)) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestOutputs:
    def test_quadratic_sweep_q_column_is_cut_used(self, tmp_path):
        # the quadratic expansion cuts at p1 + (p0 - p1)/2 = 0.15, not at
        # the default [grid] q = 0.5
        cfg = _write(tmp_path, "quad.cfg", QUADRATIC_SWEEP_CFG)
        assert run(cfg, out_dir=str(tmp_path)) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert [float(line.split(",")[1]) for line in lines[1:]] == [0.15] * 3

    def test_csv_columns_and_pass(self, tmp_path):
        cfg = _write(tmp_path, "ok.cfg", PASS_CFG)
        run(cfg, out_dir=str(tmp_path))
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == ("omega,q,oracle_re,oracle_im,lead_re,lead_im,"
                            "residual_abs,bound_total,bound_certified,pass")
        assert len(lines) == 4
        assert all(line.endswith("true") for line in lines[1:])

    @pytest.mark.parametrize("body", [
        PASS_CFG, PASS_CFG.replace("name = linear", "name = linear-convex"),
        QUADRATIC_SWEEP_CFG, FAIL_CFG, REGION_CFG.format(t_min="1e2", rays=2)],
        ids=["linear", "linear-convex", "quadratic", "curve", "region"])
    def test_determinism_byte_identical(self, tmp_path, body):
        cfg = _write(tmp_path, "exp.cfg", body)
        codes = [run(cfg, out_dir=str(tmp_path / name)) for name in "ab"]
        assert codes[0] == codes[1]
        a = (tmp_path / "a" / "out.csv").read_bytes()
        b = (tmp_path / "b" / "out.csv").read_bytes()
        assert a == b

    def test_plot_flag_writes_svg(self, tmp_path):
        cfg = _write(tmp_path, "ok.cfg", PASS_CFG)
        run(cfg, plot=True, out_dir=str(tmp_path))
        svg = (tmp_path / "out.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_sweep_builds_one_expansion(self, tmp_path, monkeypatch):
        import stasis.cli as cli
        built = []
        expand = cli.expand_integral

        def counting(*args, **kwargs):
            built.append(args)
            return expand(*args, **kwargs)

        monkeypatch.setattr(cli, "expand_integral", counting)
        cfg = _write(tmp_path, "ok.cfg", PASS_CFG)
        assert run(cfg, out_dir=str(tmp_path)) == 0
        assert len(built) == 1

    def test_sweep_builds_each_frame_once(self, tmp_path, monkeypatch):
        # 13 rows, the two expansion frames at q = 0.3 and no other: every
        # row takes steepest descent, which builds no frame
        built = []
        init = model.SubstitutionFrame.__init__

        def counting(self, *args, **kwargs):
            built.append(args[2:])
            init(self, *args, **kwargs)

        monkeypatch.setattr(model.SubstitutionFrame, "__init__", counting)
        body = (PASS_CFG.replace("name = linear", "name = linear-convex")
                .replace("omega_count = 3", "omega_count = 13")
                .replace("q = 0.5", "q = 0.3"))
        assert run(_write(tmp_path, "ok.cfg", body), out_dir=str(tmp_path)) == 0
        assert sorted(built) == [(1, 0.3), (2, 0.3)]

    @pytest.mark.parametrize("body", [
        PASS_CFG, PASS_CFG.replace("name = linear", "name = linear-convex"),
        QUADRATIC_SWEEP_CFG], ids=["linear", "linear-convex", "quadratic"])
    def test_sweep_takes_steepest_descent(self, tmp_path, body):
        cfg, _ = cli._load_config(_write(tmp_path, "route.cfg", body))
        _, route = cli._integral(cfg)
        assert route.func is schrodinger.steepest_descent

    def test_jobs_option_refused(self, tmp_path, capsys, no_oracle):
        # one process per run: the CLI has no --jobs, and run() takes only
        # jobs=1
        cfg = _write(tmp_path, "exp.cfg", FAIL_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["run", cfg, "--jobs", "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(cfg, out_dir=str(tmp_path), jobs=2) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_run_reads_config_and_builds_amplitude_once(self, tmp_path,
                                                        monkeypatch):
        counts = {"config": 0, "amplitude": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "_load_config",
                            counted("config", cli._load_config))
        monkeypatch.setattr(catalog, "amplitude",
                            counted("amplitude", catalog.amplitude))
        cfg = _write(tmp_path, "ok.cfg", PASS_CFG)
        assert run(cfg, out_dir=str(tmp_path)) == 0
        assert counts == {"config": 1, "amplitude": 1}


class TestCatalog:
    def test_listing_contents(self):
        text = catalog_list()
        assert "intro" in text
        assert "beta-bessel" in text
        assert "fresnel" in text
        assert len(text) > 0

    def test_listing_shows_each_poly(self):
        lines = catalog_list().splitlines()
        for name, poly in (("linear ", "poly = (0, 1, 0)"),
                           ("linear-convex", "poly = (0, 1, 1)"),
                           ("quadratic", "poly = (c - p0^2, 2 p0, -1)")):
            line, = (l for l in lines if l.strip().startswith(name))
            assert line.endswith(poly), line

    @pytest.mark.parametrize("name, poly", [("linear", (0.0, 1.0, 0.0)),
                                            ("linear-convex", (0.0, 1.0, 1.0))])
    def test_phases_have_poly(self, name, poly):
        assert catalog.phase(name).poly == poly

    def test_listing_sorted(self):
        text = catalog_list()
        amp_lines = [l.split()[0] for l in text.splitlines()
                     if l.startswith("  ") and "psi" not in l]
        in_amp_block = amp_lines[:4]
        assert in_amp_block == sorted(in_amp_block)

    def test_main_catalog(self, capsys):
        assert main(["catalog"]) == 0
        assert "intro" in capsys.readouterr().out

    @pytest.mark.parametrize("name, params, accepted", [
        ("intro", {}, "(mu)"),
        ("beta", {"mu": 0.5}, "(mu1=0.5, mu2=0.5)"),
        ("beta-bessel", {"mu1": 0.3}, "()")])
    def test_bad_parameters_raise_domain_error(self, name, params, accepted):
        with pytest.raises(DomainError) as err:
            catalog.amplitude(name, **params)
        assert f"takes parameters {accepted}," in str(err.value)


class TestShippedConfigs:
    @pytest.mark.parametrize("name", sorted(p.stem for p in
                                            CONFIG_DIR.glob("*.cfg")))
    def test_rerun_byte_identical(self, tmp_path, name):
        outs = []
        for out in ("a", "b"):
            assert main(["run", str(CONFIG_DIR / f"{name}.cfg"), "--plot",
                         "--out", str(tmp_path / out)]) == 0
            outs.append({f.name: f.read_bytes()
                         for f in (tmp_path / out).iterdir()})
        assert f"{name}.csv" in outs[0]
        assert outs[0] == outs[1]

    def test_expand_config(self, tmp_path):
        code = main(["run", str(CONFIG_DIR / "beta_expand.cfg"),
                     "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "beta_expand.csv").read_text()
        assert text.splitlines()[0].startswith("term,")

    def test_bessel_bound_config(self, tmp_path):
        code = main(["run", str(CONFIG_DIR / "bessel_bound.cfg"),
                     "--out", str(tmp_path), "--plot"])
        assert code == 0
        lines = (tmp_path / "bessel_bound.csv").read_text().splitlines()
        assert len(lines) == 26
        assert all(line.endswith("true") for line in lines[1:])
        assert (tmp_path / "bessel_bound.svg").exists()

    def test_intro_curve_config(self, tmp_path):
        code = main(["run", str(CONFIG_DIR / "intro_curve_mu075.cfg"),
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "intro_curve_mu075.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        fitted = float(row[header.index("fitted_slope")])
        assert abs(fitted - (-0.4375)) <= 0.05
        assert row[header.index("pass")] == "true"
        assert len(lines) == 25


def test_import_loads_no_scipy():
    # the package runs on numpy alone (scipy is a test dependency), in one
    # process: no process pool comes with it
    code = ("import sys, stasis, stasis.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] in "
            "('scipy', 'concurrent', 'multiprocessing')))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "[]"
