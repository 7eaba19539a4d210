import os
import textwrap

from stasis.cli import catalog_list, main, run


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

# eps = delta - 1/2 exactly: inadmissible, must be refused up front
ERROR_CFG = """
    [experiment]
    kind = schrodinger-curve

    [amplitude]
    name = intro
    mu = 0.75

    [grid]
    eps = 0.375
    delta = 0.875
    t_min = 1e2
    t_max = 1e4
    t_count = 8

    [output]
    csv = out.csv
"""

# delta outside [(mu+1)/2, 1) = [0.875, 1): must be refused up front, even
# though eps < delta - 1/2 holds for it
BAD_DELTA_CFG = """
    [experiment]
    kind = schrodinger-curve

    [amplitude]
    name = intro
    mu = 0.75

    [grid]
    eps = 1.2
    delta = 2
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

    def test_bad_delta_names_key(self, tmp_path, capsys):
        cfg = _write(tmp_path, "delta.cfg", BAD_DELTA_CFG)
        assert run(cfg, out_dir=str(tmp_path)) == 1
        assert "[grid] delta" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_fail_config(self, tmp_path):
        cfg = _write(tmp_path, "fail.cfg", FAIL_CFG)
        assert run(cfg, out_dir=str(tmp_path)) == 2

    def test_unreadable_config(self, tmp_path):
        assert run(str(tmp_path / "missing.cfg")) == 1

    def test_bad_kind(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.cfg", "[experiment]\nkind = nonsense\n")
        assert run(cfg) == 1
        assert "kind" in capsys.readouterr().err


class TestOutputs:
    def test_csv_columns_and_pass(self, tmp_path):
        cfg = _write(tmp_path, "ok.cfg", PASS_CFG)
        run(cfg, out_dir=str(tmp_path))
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == ("omega,q,oracle_re,oracle_im,lead_re,lead_im,"
                            "residual_abs,bound_total,bound_certified,pass")
        assert len(lines) == 4
        assert all(line.endswith("true") for line in lines[1:])

    def test_determinism_byte_identical(self, tmp_path):
        cfg = _write(tmp_path, "ok.cfg", PASS_CFG)
        run(cfg, out_dir=str(tmp_path / "a"))
        run(cfg, out_dir=str(tmp_path / "b"))
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

    def test_jobs_flag_matches_serial(self, tmp_path):
        cfg = _write(tmp_path, "ok.cfg", PASS_CFG)
        run(cfg, out_dir=str(tmp_path / "s"), jobs=1)
        run(cfg, out_dir=str(tmp_path / "p"), jobs=2)
        assert (tmp_path / "s" / "out.csv").read_bytes() == \
            (tmp_path / "p" / "out.csv").read_bytes()


class TestCatalog:
    def test_listing_contents(self):
        text = catalog_list()
        assert "intro" in text
        assert "beta-bessel" in text
        assert "fresnel" in text
        assert len(text) > 0

    def test_listing_sorted(self):
        text = catalog_list()
        amp_lines = [l.split()[0] for l in text.splitlines()
                     if l.startswith("  ") and "psi" not in l]
        in_amp_block = amp_lines[:4]
        assert in_amp_block == sorted(in_amp_block)

    def test_main_catalog(self, capsys):
        assert main(["catalog"]) == 0
        assert "intro" in capsys.readouterr().out


class TestShippedConfigs:
    def test_expand_config(self, tmp_path):
        import stasis
        cfgdir = os.path.join(os.path.dirname(stasis.__file__), "configs")
        code = main(["run", os.path.join(cfgdir, "beta_expand.cfg"),
                     "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "beta_expand.csv").read_text()
        assert text.splitlines()[0].startswith("term,")

    def test_bessel_bound_config(self, tmp_path):
        import stasis
        cfgdir = os.path.join(os.path.dirname(stasis.__file__), "configs")
        code = main(["run", os.path.join(cfgdir, "bessel_bound.cfg"),
                     "--out", str(tmp_path), "--plot"])
        assert code == 0
        lines = (tmp_path / "bessel_bound.csv").read_text().splitlines()
        assert len(lines) == 26
        assert all(line.endswith("true") for line in lines[1:])
        assert (tmp_path / "bessel_bound.svg").exists()

    def test_intro_curve_config(self, tmp_path):
        import stasis
        cfgdir = os.path.join(os.path.dirname(stasis.__file__), "configs")
        code = main(["run", os.path.join(cfgdir, "intro_curve_mu075.cfg"),
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "intro_curve_mu075.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        fitted = float(row[header.index("fitted_slope")])
        assert abs(fitted - (-0.4375)) <= 0.05
        assert row[header.index("pass")] == "true"
        assert len(lines) == 25
