"""Tests for the command-line front end: CSV contract, sweeps, presets,
config-file merging, and exit codes."""

import csv
import importlib
import io
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import esrsel
from esrsel import cli, simulation
from esrsel.channel_model import CorrelationConfig, SystemConfig
from esrsel.cli import CSV_HEADER, figure_preset, main
from esrsel.simulation import estimate_esr

X1 = 2.1004124800191777  # quadrature value at (1,1,1,1,10,1)

HEADER_FIELDS = CSV_HEADER.split(",")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(out):
    reader = csv.DictReader(io.StringIO(out))
    return list(reader)


def run_module(argv):
    """Run ``python -m esrsel`` in a separate process, so that a traceback
    would reach stderr."""
    src = str(Path(esrsel.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "esrsel", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


@pytest.fixture
def rows_run(monkeypatch):
    """The rows ``compute_row`` was called with; a refused run calls it for none."""
    ran = []
    monkeypatch.setattr(cli, "compute_row", ran.append)
    return ran


class TestCsvContract:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "scheme,method,K,L,M_D,M_E,lambda_d_db,lambda_e_db,"
            "rho_s,rho_d,rho_e,esr_bpcu,stderr,term_count,max_log_term,trials,seed"
        )

    def test_single_point_row(self, capsys):
        code, out, _ = run_cli(["esr", "--scheme", "os", "--method", "exact"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        row = parse_rows(out)[0]
        assert row["scheme"] == "os"
        assert row["method"] == "exact"
        assert (row["K"], row["L"], row["M_D"], row["M_E"]) == ("1", "1", "1", "1")
        assert (row["lambda_d_db"], row["lambda_e_db"]) == ("10", "0")
        assert abs(float(row["esr_bpcu"]) - X1) < 1e-6 * X1
        assert row["term_count"] != "" and row["max_log_term"] != ""
        assert row["stderr"] == "" and row["trials"] == "" and row["seed"] == ""

    def test_both_schemes_all_methods_row_count_and_fields(self, capsys):
        code, out, _ = run_cli(
            ["esr", "--scheme", "both", "--method", "all", "--trials", "2000", "--seed", "4"],
            capsys,
        )
        assert code == 0
        rows = parse_rows(out)
        assert len(rows) == 10  # 2 schemes × 5 methods
        combos = {(r["scheme"], r["method"]) for r in rows}
        assert combos == {
            (s, m)
            for s in ("os", "ss")
            for m in ("exact", "highsnr", "asymptotic", "quadrature", "mc")
        }
        for r in rows:
            if r["method"] == "mc":
                assert r["stderr"] != "" and r["trials"] == "2000" and r["seed"] == "4"
                assert r["term_count"] == "" and r["max_log_term"] == ""
            else:
                assert r["stderr"] == "" and r["trials"] == "" and r["seed"] == ""
                assert r["term_count"] != ""

    def test_out_file_instead_of_stdout(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            ["esr", "--scheme", "os", "--method", "asymptotic", "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        content = target.read_text().strip().splitlines()
        assert content[0] == CSV_HEADER
        assert len(content) == 2


class TestDispatch:
    """The benchmark's tracer times each route by wrapping its name in
    ``esrsel.cli``, so ``compute_row`` must call the route through that
    module global at call time."""

    ROUTES = {
        ("os", "exact"): "esr_os_exact",
        ("ss", "exact"): "esr_ss_exact",
        ("os", "highsnr"): "esr_os_highsnr",
        ("ss", "highsnr"): "esr_ss_highsnr",
        ("os", "asymptotic"): "esr_asymptotic",
        ("ss", "asymptotic"): "esr_asymptotic",
        ("os", "quadrature"): "quadrature_esr",
        ("ss", "quadrature"): "quadrature_esr",
        ("os", "mc"): "estimate_esr",
        ("ss", "mc"): "estimate_esr",
    }

    def test_each_row_calls_its_route_through_the_cli_global(self, monkeypatch):
        called = []

        def recording(name, fn):
            def stub(*args, **kwargs):
                called.append(name)
                return fn(*args, **kwargs)
            return stub

        for name in set(self.ROUTES.values()):
            monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
        for (scheme, method), name in self.ROUTES.items():
            called.clear()
            cli.compute_row(cli.RowSpec(scheme, method, 1, 1, 1, 1, 10.0, 0.0,
                                        0.0, 0.0, 0.0, 1000, 1))
            assert called == [name], (scheme, method)


class TestSweep:
    def test_lambda_sweep_rows_and_monotonicity(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--var", "lambda_d_db", "--from", "0", "--to", "10",
                "--step", "5", "--scheme", "os", "--method", "highsnr",
            ],
            capsys,
        )
        assert code == 0
        rows = parse_rows(out)
        assert [r["lambda_d_db"] for r in rows] == ["0", "5", "10"]
        vals = [float(r["esr_bpcu"]) for r in rows]
        assert vals[0] < vals[1] < vals[2]

    def test_integer_variable_sweep(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--var", "m_d", "--from", "1", "--to", "3", "--step", "1",
                "--scheme", "ss", "--method", "exact",
            ],
            capsys,
        )
        assert code == 0
        assert [r["M_D"] for r in parse_rows(out)] == ["1", "2", "3"]

    def test_fractional_step_on_integer_variable_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--var", "m_d", "--from", "1", "--to", "3", "--step", "0.5"])
        assert e.value.code == 2

    def test_reversed_range_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--var", "lambda_d_db", "--from", "10", "--to", "0", "--step", "2"])
        assert e.value.code == 2

    def test_unknown_variable_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--var", "bogus", "--from", "0", "--to", "1", "--step", "1"])
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "bounds",
        [("0", "inf", "1"), ("0", "nan", "1"), ("-inf", "0", "1"), ("0", "1", "inf"), ("0", "1", "nan")],
    )
    def test_non_finite_bounds_rejected(self, capsys, bounds):
        start, stop, step = bounds
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--var", "lambda_d_db", f"--from={start}", f"--to={stop}", f"--step={step}"])
        assert e.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_negative_values_in_exponent_notation(self, capsys):
        base = ["--scheme", "os", "--method", "asymptotic"]
        sweeps = [
            ["sweep", "--var", "lambda_d_db", *bounds, "--step", "5", *base]
            for bounds in (["--from", "-1e1", "--to", "-0e0"], ["--from", "-10", "--to", "0"])
        ]
        points = [
            ["esr", "--lambda-d-db", "-1e1", "--lambda-e-db", "-5e-1", *base],
            ["esr", "--lambda-d-db=-10", "--lambda-e-db=-5e-1", *base],
        ]
        for exponent, plain in (sweeps, points):
            code, out, _ = run_cli(exponent, capsys)
            assert code == 0
            assert (code, out) == run_cli(plain, capsys)[:2]
        assert [r["lambda_d_db"] for r in parse_rows(out)] == ["-10"]
        assert parse_rows(out)[0]["lambda_e_db"] == "-0.5"

    def test_point_count_is_capped_before_the_list_is_built(self, capsys):
        cap = cli.MAX_SWEEP_POINTS
        parser = cli.argparse.ArgumentParser()
        assert len(cli._sweep_values("lambda_d_db", 0.0, cap - 1.0, 1.0, parser)) == cap
        # One value too many, and a span whose point count overflows to inf.
        for start, stop, step in ((0.0, float(cap), 1.0), (-1e308, 1e308, 1e-300)):
            with pytest.raises(SystemExit) as e:
                cli._sweep_values("lambda_d_db", start, stop, step, parser)
            assert e.value.code == 2
        assert f"at most {cap} values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            *((["--var", var, "--from", "0", "--to", "2", "--step", "1"],
               f"{name} must be an integer >= 1, got 0")
              for var, name in (("k", "K"), ("l", "L"), ("m_d", "M_D"), ("m_e", "M_E"))),
            *((["--var", var, "--from", "0", "--to", "1", "--step", "0.5", "--method", "mc",
                "--trials", "1000"], f"{name} must lie in [0, 1), got 1.0")
              for var, name in (("rho_s", "rho_S"), ("rho_d", "rho_D"), ("rho_e", "rho_E"))),
            (["--var", "rho_d", "--from", "0", "--to", "0.5", "--step", "0.5"],
             "correlation (ρ ≠ 0) is only supported by --method mc"),
            (["--var", "lambda_d_db", "--from", "0", "--to", "1", "--step", "1",
              "--trials", "999"], "need at least 1000 trials for a usable estimate"),
        ],
        ids=["k", "l", "m_d", "m_e", "rho_s", "rho_d", "rho_e", "rho_without_mc", "trials"],
    )
    def test_swept_values_are_validated_before_any_row(self, rows_run, capsys, argv, message):
        with pytest.raises(SystemExit) as e:
            main(["sweep", *argv])
        assert e.value.code == 2
        assert message in capsys.readouterr().err
        assert rows_run == []

    def test_swept_value_replaces_an_invalid_base(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--var", "m_d", "--from", "1", "--to", "3", "--step", "1", "--md", "0",
             "--scheme", "os", "--method", "asymptotic"],
            capsys,
        )
        assert code == 0
        assert [r["M_D"] for r in parse_rows(out)] == ["1", "2", "3"]


class TestCorrelationGating:
    def test_correlation_requires_monte_carlo(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["esr", "--method", "exact", "--rho-s", "0.5"])
        assert e.value.code == 2

    def test_correlated_monte_carlo_runs(self, capsys):
        code, out, _ = run_cli(
            [
                "esr", "--scheme", "ss", "--method", "mc", "--rho-s", "0.5",
                "--trials", "2000", "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
        row = parse_rows(out)[0]
        assert row["rho_s"] == "0.5"
        assert row["stderr"] != ""

    def test_out_of_range_rho_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["esr", "--method", "mc", "--rho-s", "1.0"])
        assert e.value.code == 2


MC_POINT = ["esr", "--scheme", "os", "--method", "mc", "--trials", "1000", "--seed", "3"]
SWEEP = ["sweep", "--var", "lambda_d_db", "--from", "0", "--to", "10", "--step", "5",
         "--scheme", "os", "--method", "asymptotic"]


def dropping(argv, flag):
    """``argv`` without ``flag`` and its value."""
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


# (argv without the key's flag, config key, value) for every config key but
# ``out``; one key is written with dashes, which config files also accept.
CONFIG_KEY_CASES = [
    (["esr", "--method", "asymptotic"], "scheme", "ss"),
    (["esr", "--scheme", "os"], "method", "highsnr"),
    *((["esr", "--method", "asymptotic"], key, "2") for key in ("k", "l", "md", "me")),
    (["esr", "--method", "asymptotic"], "lambda_d_db", "-1e1"),
    (["esr", "--method", "asymptotic"], "lambda-e-db", "-5e-1"),
    *((MC_POINT, key, "0.5") for key in ("rho_s", "rho_d", "rho_e")),
    (dropping(MC_POINT, "--trials"), "trials", "1500"),
    (dropping(MC_POINT, "--seed"), "seed", "7"),
    (dropping(SWEEP, "--var"), "var", "lambda_e_db"),
    (dropping(SWEEP, "--from"), "from", "-1e1"),
    (dropping(SWEEP, "--to"), "to", "15"),
    (dropping(SWEEP, "--step"), "step", "2.5"),
]


class TestConfigFile:
    def test_flags_override_file_and_file_overrides_defaults(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# operating point\nmethod = highsnr\nk = 2\nlambda_e_db = 9\n"
        )
        code, out, _ = run_cli(
            ["esr", "--config", str(cfgfile), "--k", "3", "--scheme", "os"], capsys
        )
        assert code == 0
        row = parse_rows(out)[0]
        assert row["method"] == "highsnr"  # from file
        assert row["K"] == "3"  # flag wins over file
        assert row["lambda_e_db"] == "9"  # from file
        assert row["lambda_d_db"] == "10"  # default survives

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("mystery = 1\n")
        with pytest.raises(SystemExit) as e:
            main(["esr", "--config", str(cfgfile)])
        assert e.value.code == 2

    def test_unparseable_value_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("k = abc\n")
        with pytest.raises(SystemExit) as e:
            main(["esr", "--config", str(cfgfile)])
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "text",
        ["scheme = foo\nmethod = exact\n", "method = bogus\n", "scheme = OS\n"],
        ids=["scheme-foo", "method-bogus", "scheme-OS"],
    )
    def test_value_outside_the_flag_choices_is_a_usage_error(self, capsys, tmp_path, text):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        with pytest.raises(SystemExit) as e:
            main(["esr", "--config", str(cfgfile)])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice" in captured.err

    @pytest.mark.parametrize(
        "argv,key,value", CONFIG_KEY_CASES, ids=[key for _, key, _ in CONFIG_KEY_CASES]
    )
    def test_each_key_gives_the_bytes_of_its_flag(self, capsys, tmp_path, argv, key, value):
        code, by_flag, _ = run_cli(argv + ["--" + key.replace("_", "-"), value], capsys)
        assert code == 0
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        assert run_cli(argv + ["--config", str(cfgfile)], capsys)[:2] == (0, by_flag)

    def test_out_key_writes_the_bytes_of_its_flag(self, capsys, tmp_path):
        argv = ["esr", "--scheme", "os", "--method", "asymptotic"]
        by_flag, by_key, cfgfile = tmp_path / "flag.csv", tmp_path / "key.csv", tmp_path / "run.cfg"
        cfgfile.write_text(f"out = {by_key}\n")
        assert main(argv + ["--out", str(by_flag)]) == 0
        assert main(argv + ["--config", str(cfgfile)]) == 0
        assert capsys.readouterr().out == ""
        assert by_key.read_bytes() == by_flag.read_bytes()

    def test_sweep_key_is_ignored_by_esr(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("var = k\n")
        argv = ["esr", "--scheme", "os", "--method", "asymptotic"]
        code, out, _ = run_cli(argv + ["--config", str(cfgfile)], capsys)
        assert (code, out) == run_cli(argv, capsys)[:2]
        assert code == 0


class TestReproducibility:
    def test_monte_carlo_rerun_is_byte_identical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "esr", "--scheme", "both", "--method", "mc", "--trials", "2000",
            "--seed", "99",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


def nested_loop_preset(name, trials, seed):
    """The presets as nested loops, one per figure: the reference for the
    order of ``figure_preset``'s rows."""
    RowSpec = cli.RowSpec
    rows = []
    lam_sweep = [float(v) for v in range(0, 41, 2)]
    if name == "fig2":
        for k, l in ((1, 1), (1, 3), (3, 1), (3, 3)):
            for v in lam_sweep:
                for scheme in ("os", "ss"):
                    for method in ("exact", "highsnr"):
                        rows.append(
                            RowSpec(scheme, method, k, l, 3, 3, v, 9.0,
                                    0.0, 0.0, 0.0, trials, seed)
                        )
    elif name == "fig3":
        for kl in (1, 2):
            for m in (1, 2):
                for v in lam_sweep:
                    for scheme in ("os", "ss"):
                        for method in ("highsnr", "asymptotic"):
                            rows.append(
                                RowSpec(scheme, method, kl, kl, m, m, v, 9.0,
                                        0.0, 0.0, 0.0, trials, seed)
                            )
    elif name == "fig4":
        for m_e in (1, 2, 3):
            for m_d in range(1, 7):
                for scheme in ("os", "ss"):
                    rows.append(
                        RowSpec(scheme, "exact", 2, 2, m_d, m_e, 20.0, 0.0,
                                0.0, 0.0, 0.0, trials, seed)
                    )
    elif name == "fig5":
        rho_sets = ((0.0, 0.0, 0.0), (0.9, 0.0, 0.0), (0.0, 0.9, 0.0),
                    (0.9, 0.9, 0.0), (0.0, 0.0, 0.9), (0.9, 0.0, 0.9))
        for rho_s, rho_d, rho_e in rho_sets:
            for v in [float(x) for x in range(0, 21, 2)]:
                for scheme in ("os", "ss"):
                    rows.append(
                        RowSpec(scheme, "mc", 4, 4, 4, 4, v, 9.0,
                                rho_s, rho_d, rho_e, trials, seed)
                    )
    return rows


class TestFigurePresets:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_row_order_matches_the_nested_loops(self, name):
        assert figure_preset(name, 100000, 1) == nested_loop_preset(name, 100000, 1)

    def test_row_counts(self):
        assert len(figure_preset("fig2", 100000, 1)) == 336
        assert len(figure_preset("fig3", 100000, 1)) == 336
        assert len(figure_preset("fig4", 100000, 1)) == 36
        assert len(figure_preset("fig5", 100000, 1)) == 132

    def test_multipath_sweep_preset_shape(self):
        rows = figure_preset("fig4", 100000, 1)
        assert all(r.method == "exact" for r in rows)
        assert all(r.lambda_d_db == 20.0 and r.lambda_e_db == 0.0 for r in rows)
        assert all(r.k == 2 and r.l == 2 for r in rows)
        assert {r.m_d for r in rows} == set(range(1, 7))
        assert {r.m_e for r in rows} == {1, 2, 3}
        assert {r.scheme for r in rows} == {"os", "ss"}

    def test_exact_plus_highsnr_preset_shape(self):
        rows = figure_preset("fig2", 100000, 1)
        assert {(r.k, r.l) for r in rows} == {(1, 1), (1, 3), (3, 1), (3, 3)}
        assert {r.method for r in rows} == {"exact", "highsnr"}
        assert all(r.m_d == 3 and r.m_e == 3 and r.lambda_e_db == 9.0 for r in rows)
        assert {r.lambda_d_db for r in rows} == set(float(x) for x in range(0, 41, 2))

    def test_correlation_preset_is_monte_carlo_only(self):
        rows = figure_preset("fig5", 100000, 1)
        assert all(r.method == "mc" for r in rows)
        assert all(r.k == 4 and r.l == 4 and r.m_d == 4 and r.m_e == 4 for r in rows)
        rho_sets = {(r.rho_s, r.rho_d, r.rho_e) for r in rows}
        assert len(rho_sets) == 6
        assert (0.0, 0.0, 0.0) in rho_sets

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit) as e:
            main(["figure", "fig9"])
        assert e.value.code == 2

    def test_preset_rows_are_validated_before_any_row(self, rows_run, capsys):
        with pytest.raises(SystemExit) as e:
            main(["figure", "fig5", "--trials", "999"])
        assert e.value.code == 2
        assert "need at least 1000 trials for a usable estimate" in capsys.readouterr().err
        assert rows_run == []

    @pytest.mark.parametrize(
        "flag", [["--k", "5"], ["--method", "mc"], ["--rho-s", "0.5"]], ids=["k", "method", "rho-s"]
    )
    def test_point_flag_is_a_usage_error(self, flag):
        # A preset fixes every parameter but trials and seed, so a flag it
        # would ignore is refused.
        proc = run_module(["figure", "fig4", *flag])
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_point_config_key_is_ignored(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("k = 5\nmethod = mc\n")
        code, out, _ = run_cli(["figure", "fig4", "--config", str(cfgfile)], capsys)
        assert (code, out) == run_cli(["figure", "fig4"], capsys)[:2]
        assert code == 0

    def test_multipath_figure_end_to_end(self, capsys):
        code, out, _ = run_cli(["figure", "fig4", "--jobs", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 37


class TestValidate:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run_cli(["validate", "--grid", "small", "--jobs", "8"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].startswith("SUMMARY ")
        assert "fail=0" in lines[-1]
        assert all(l.startswith(("PASS", "FAIL", "SUMMARY")) for l in lines)
        assert sum(1 for l in lines if l.startswith("PASS")) >= 130


class TestJobsCap:
    """A pool never gets more workers than usable CPUs or rows.  The pool here is a
    stand-in that records its size and maps in this process, so no worker
    is ever started."""

    SWEEP = ["sweep", "--var", "lambda_d_db", "--from", "0", "--to", "4",
             "--step", "2", "--method", "highsnr"]  # 6 rows

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                assert (initializer, initargs) == (simulation._share_cores, (max_workers,))
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize("cpus,want", [(1000, 6), (3, 3)])
    def test_sweep_workers_capped(self, pool_sizes, monkeypatch, capsys, cpus, want):
        _, serial, _ = run_cli(self.SWEEP + ["--jobs", "1"], capsys)
        assert pool_sizes == []
        monkeypatch.setattr(cli, "_usable_cores", lambda: cpus)
        code, out, _ = run_cli(self.SWEEP + ["--jobs", "100000"], capsys)
        assert code == 0
        assert pool_sizes == [want]
        assert out == serial

    @pytest.mark.parametrize("cpus,want", [(1000, 128), (2, 2)])
    def test_validate_workers_capped(self, pool_sizes, monkeypatch, capsys, cpus, want):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cpus)
        monkeypatch.setattr(cli, "_validate_one", lambda task: ("PASS stub", True))
        code, out, _ = run_cli(["validate", "--grid", "small", "--jobs", "100000"], capsys)
        assert code == 0
        assert pool_sizes == [want]
        assert out.count("PASS stub") == 128


class TestMonteCarloThreads:
    def test_jobs_fork_cleanly_after_a_threaded_estimate(self, monkeypatch, capsys):
        # No chunk thread outlives estimate_esr, so a --jobs pool forked
        # afterwards starts from a process with no stray thread, and its
        # workers run their own chunk pools.
        pools = []
        pool = simulation.ThreadPoolExecutor

        def recording(max_workers):
            pools.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(simulation, "_usable_cores", lambda: 2)
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        before = threading.active_count()
        estimate_esr(SystemConfig(2, 2, 2, 2, 10.0, 1.0), CorrelationConfig(rho_S=0.5), "OS", 40_000, 3)
        assert pools == [2]
        assert threading.active_count() == before
        sweep = ["sweep", "--var", "lambda_d_db", "--from", "0", "--to", "10", "--step", "5",
                 "--k", "2", "--l", "2", "--md", "2", "--me", "2", "--rho-s", "0.5",
                 "--method", "mc", "--trials", "40000"]
        serial = run_cli(sweep + ["--jobs", "1"], capsys)
        assert serial[0] == 0 and len(serial[1].splitlines()) == 7
        assert run_cli(sweep + ["--jobs", "2"], capsys) == serial

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the stand-ins below reach the workers only by fork")
    def test_jobs_workers_split_the_cores(self, monkeypatch, capsys, tmp_path):
        # With 4 usable cores, each of the 2 workers of --jobs 2 runs its
        # three chunks on 4 // 2 threads, not 3.  A worker's memory is its
        # own, so each pool's size goes to a file.
        log = tmp_path / "pools"
        pool = simulation.ThreadPoolExecutor

        def recording(max_workers):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {max_workers}\n")
            return pool(max_workers=max_workers)

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(simulation, "_usable_cores", lambda: 4)
        monkeypatch.setattr(cli, "_usable_cores", lambda: 4)
        sweep = ["sweep", "--var", "lambda_d_db", "--from", "0", "--to", "15", "--step", "5",
                 "--scheme", "os", "--method", "mc", "--trials", "40000"]  # 4 rows
        code, out, _ = run_cli(sweep + ["--jobs", "2"], capsys)
        assert code == 0 and len(out.splitlines()) == 5
        pools = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        assert [size for _, size in pools] == ["2"] * 4
        pids = {pid for pid, _ in pools}
        assert str(os.getpid()) not in pids and len(pids) <= 2


# Runs one row of each method but quadrature through compute_row, then a
# quadrature row; prints each row, and whether scipy.special is loaded after
# the first four and after the quadrature row.  With the argument "first" it
# imports scipy.special before esrsel.
COLD_START = """
import sys
from dataclasses import replace
if sys.argv[1] == "first":
    import scipy.special
import esrsel
import esrsel.cli as cli
point = cli.RowSpec("os", "exact", 2, 2, 2, 2, 10.0, 0.0, 0.0, 0.0, 0.0, 20_000, 7)
for method in ("exact", "highsnr", "asymptotic", "mc"):
    print(cli.compute_row(replace(point, method=method)))
print("scipy.special" in sys.modules)
print(cli._evaluate(replace(point, method="quadrature")).value.hex())
print("scipy.special" in sys.modules)
"""


class TestColdStart:
    def test_only_quadrature_loads_scipy(self):
        src = str(Path(esrsel.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        lazy, first = (
            subprocess.run([sys.executable, "-c", COLD_START, order], capture_output=True,
                           text=True, timeout=120, env=env, check=True).stdout.splitlines()
            for order in ("lazy", "first")
        )
        assert lazy[4:] == ["False", first[5], "True"]
        assert first[4] == "True"
        assert lazy[:4] == first[:4] and lazy[5] == first[5]


class TestExitCodes:
    def test_engine_error_maps_to_one(self, capsys):
        code, out, err = run_cli(
            ["esr", "--scheme", "os", "--method", "exact", "--k", "8", "--l", "8",
             "--md", "12", "--me", "12"],
            capsys,
        )
        assert code == 1
        assert "error" in err.lower()
        assert "method='quadrature'" in err

    def test_oracle_failure_maps_to_one(self, capsys):
        # At -300 dB the exact-form oracle cannot resolve the eavesdropper
        # range; it used to print a 0 row and exit 0.
        code, out, err = run_cli(
            ["esr", "--scheme", "both", "--method", "quadrature", "--lambda-e-db", "-300"],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ")
        assert "too narrow" in err
        assert out == ""

    def test_unresolvable_small_value_maps_to_one(self, capsys, tmp_path):
        # At -60 dB the ESR (1.4e-12 by the closed forms) is within the
        # oracle's epsabs; it used to print 0 and exit 0.
        path = tmp_path / "row.csv"
        code, out, err = run_cli(
            ["esr", "--method", "quadrature", "--k", "1", "--l", "1", "--md", "1", "--me", "1",
             "--lambda-d-db", "-60", "--lambda-e-db", "0", "--out", str(path)],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ")
        assert "epsabs" in err
        assert out == "" and not path.exists()

    @pytest.mark.parametrize("m", ["2", "3"])
    def test_symmetric_asymptotic_ratio_is_zero(self, capsys, m):
        # The sum cancels to 0; that is the value, not a cancellation error.
        code, out, err = run_cli(
            ["esr", "--scheme", "both", "--method", "asymptotic", "--k", "1", "--l", "1",
             "--md", m, "--me", m, "--lambda-d-db", "0", "--lambda-e-db", "0"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert [float(r["esr_bpcu"]) for r in parse_rows(out)] == [0.0, 0.0]

    def test_invalid_count_rejected(self):
        with pytest.raises(SystemExit) as e:
            main(["esr", "--k", "0"])
        assert e.value.code == 2

    def test_too_few_trials_rejected(self):
        with pytest.raises(SystemExit) as e:
            main(["esr", "--method", "mc", "--trials", "500"])
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "seed,source,command",
        [
            pytest.param(seed, source, command,
                         id=f"{seed}-{source}" + ("" if command == "esr" else f"-{command}"))
            for command in ("esr", "figure")
            for seed in (-1, 2**64)
            for source in ("flag", "config")
        ],
    )
    def test_out_of_range_seed_is_a_usage_error(self, tmp_path, seed, source, command):
        # Run as a separate process so that a traceback would reach stderr.
        if command == "esr":
            argv = ["esr", "--method", "mc", "--trials", "1000"]
        else:
            argv = ["figure", "fig5", "--trials", "1000"]
        if source == "flag":
            argv += ["--seed", str(seed)]
        else:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(f"seed = {seed}\n")
            argv += ["--config", str(cfgfile)]
        src = str(Path(esrsel.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "esrsel", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 2
        assert f"seed must lie in [0, 2**64), got {seed}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["esr", "--lambda-d-db", "1e6"],
            ["esr", "--lambda-d-db", "-1e6"],
            ["esr", "--lambda-e-db", "nan"],
            ["esr", "--lambda-e-db", "inf"],
            ["sweep", "--var", "lambda_d_db", "--from", "0", "--to", "4e3", "--step", "1e3"],
        ],
        ids=["overflow", "underflow", "nan", "inf", "swept-overflow"],
    )
    def test_lambda_the_library_refuses_is_a_usage_error(self, rows_run, capsys, argv):
        # 10^(dB/10) must be positive and finite: 1e6 dB overflows, -1e6 dB
        # underflows to 0, and the sweep's last value (4000 dB) overflows.
        proc = run_module(argv)
        assert proc.returncode == 2
        assert "must be positive and finite" in proc.stderr.splitlines()[-1]
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert rows_run == []

    @pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, target):
        out = tmp_path / target
        proc = run_module(["esr", "--method", "asymptotic", "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"esrsel esr: error: cannot write {out}: ")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""

    def test_unwritable_out_is_refused_before_any_row(self, rows_run, capsys, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["esr", "--method", "all", "--out", str(tmp_path / "missing" / "x.csv")])
        assert e.value.code == 2
        assert rows_run == []

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "absent"])
    def test_failing_row_leaves_the_out_file_as_it_was(self, capsys, tmp_path, existing):
        target = tmp_path / "rows.csv"
        if existing:
            target.write_text("kept\n")
        code, _, err = run_cli(
            ["esr", "--scheme", "os", "--method", "exact", "--k", "8", "--l", "8",
             "--md", "12", "--me", "12", "--out", str(target)],
            capsys,
        )
        assert code == 1
        assert "budget" in err
        if existing:
            assert target.read_text() == "kept\n"
        else:
            assert not target.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["esr", "--method", "asymptotic"],
            ["sweep", "--var", "lambda_d_db", "--from", "0", "--to", "2", "--step", "2"],
            ["figure", "fig3"],
            ["validate", "--grid", "small"],
        ],
        ids=["esr", "sweep", "figure", "validate"],
    )
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, command, jobs):
        # argparse refuses the value before any row or worker starts.
        with pytest.raises(SystemExit) as e:
            main(command + ["--jobs", jobs])
        assert e.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err

    def test_jobs_is_no_config_key(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("jobs = 0\n")
        with pytest.raises(SystemExit) as e:
            main(["esr", "--method", "asymptotic", "--config", str(cfgfile)])
        assert e.value.code == 2
        assert "unknown key 'jobs'" in capsys.readouterr().err

    def test_console_script_entry_point_runs(self, capsys):
        # The [project.scripts] wiring, checked without an installed script.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["esrsel"]
        assert target == "esrsel.cli:main"
        module, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module), attr)
        assert entry(["esr", "--scheme", "os", "--method", "asymptotic"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == CSV_HEADER

    @pytest.mark.skipif(shutil.which("esrsel") is None, reason="console script not on PATH")
    def test_console_script_wired(self):
        proc = subprocess.run(
            ["esrsel", "esr", "--scheme", "os", "--method", "asymptotic"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == CSV_HEADER
