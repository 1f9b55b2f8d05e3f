"""Command-line interface: outputs, manifests, exit codes, determinism."""

import argparse
import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import bdhit as b
from bdhit import cli
from bdhit.cli import main


ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


class TestParsing:
    def test_no_command_exits_1(self, tmp_path, monkeypatch, capsys):
        assert run([], tmp_path, monkeypatch) == 1

    def test_unknown_flag_exits_1(self, tmp_path, monkeypatch, capsys):
        code = run(["cmatrix", "--frobnicate"], tmp_path, monkeypatch)
        assert code == 1

    def test_missing_spec_file_exits_1_with_path(self, tmp_path, monkeypatch, capsys):
        code = run(["spectrum", "--spec", "no_such_chain.json"], tmp_path, monkeypatch)
        assert code == 1
        err = capsys.readouterr().err
        assert "no_such_chain.json" in err
        assert "not found" in err

    def test_bad_nu_sum_rejected(self, tmp_path, monkeypatch, capsys):
        code = run(
            ["density", "--model", "symmetric_rw", "--kappa", "1", "--N", "4",
             "--nu", "1:0.4,2:0.4"],
            tmp_path, monkeypatch,
        )
        assert code == 1
        assert "refusing to renormalize" in capsys.readouterr().err

    def test_model_and_spec_both_work(self, tmp_path, monkeypatch):
        doc = {"model": "symmetric_rw", "kappa": 1, "N": 6}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        assert run(["cmatrix", "--spec", str(path)], tmp_path, monkeypatch) == 0
        by_spec = (tmp_path / "cmatrix.csv").read_bytes()
        assert run(
            ["cmatrix", "--model", "symmetric_rw", "--kappa", "1", "--N", "6"],
            tmp_path, monkeypatch,
        ) == 0
        assert (tmp_path / "cmatrix.csv").read_bytes() == by_spec


COMMANDS = ("cmatrix", "spectrum", "density", "transition", "reproduce", "htransform",
            "simulate", "verify")

USAGE_CASES = [
    ["-h"],
    *([name, "-h"] for name in COMMANDS),
    [],
    ["--version"],
    ["frobnicate"],
    ["reproduce", "--bogus"],
    ["transition", "--model", "symmetric_rw", "--kappa", "1", "--N", "4"],
    ["reproduce", "--mode", "bad"],
    ["--bogus", "reproduce"],
    ["-h", "reproduce"],
]


def built_commands(parser):
    """Names of the subparsers a parser holds."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


class TestCommandTable:
    @pytest.mark.parametrize("argv", USAGE_CASES, ids=" ".join)
    def test_help_and_usage_match_the_full_parser(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        got = main(list(argv)), capsys.readouterr()
        full = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda argv: full([]))
        want = main(list(argv)), capsys.readouterr()
        assert got == want
        assert got[1].out or got[1].err

    def test_builds_only_the_named_subparser(self):
        assert built_commands(cli._build_parser(["reproduce", "--nu", "1:1"])) == ["reproduce"]
        for argv in ([], ["-h"], ["--version"], ["frobnicate"], ["--bogus", "reproduce"]):
            assert built_commands(cli._build_parser(argv)) == list(COMMANDS)

    def test_console_script_reads_sys_argv(self, tmp_path, monkeypatch):
        built = []
        full = cli._build_parser

        def spy(argv):
            parser = full(argv)
            built.append(built_commands(parser))
            return parser

        monkeypatch.setattr(cli, "_build_parser", spy)
        monkeypatch.setattr(sys, "argv", [
            "bdhit", "cmatrix", "--model", "symmetric_rw", "--kappa", "1", "--N", "4",
            "--out-dir", str(tmp_path),
        ])
        assert main() == 0
        assert built == [["cmatrix"]]
        assert (tmp_path / "cmatrix.csv").exists()

    def test_every_handler_listed_once(self):
        handlers = {name: fn for name, fn in vars(cli).items() if name.startswith("_cmd_")}
        listed = [cmd[3] for cmd in cli._COMMANDS]
        assert [cmd[0] for cmd in cli._COMMANDS] == list(COMMANDS)
        assert sorted(fn.__name__ for fn in listed) == sorted(handlers)
        for name, help_text, arguments, fn in cli._COMMANDS:
            assert listed.count(fn) == 1
            assert fn is handlers[f"_cmd_{name}"]


class TestCMatrixCommand:
    def test_rational_entries_round_trip(self, tmp_path, monkeypatch):
        code = run(
            ["cmatrix", "--model", "symmetric_rw", "--kappa", "1", "--N", "8",
             "--rows", "5"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        with open(tmp_path / "cmatrix.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["row", "col", "value"]
        from fractions import Fraction

        c = b.build_c_matrix(b.symmetric_rw_spec(1, 8), 5)
        for r, col, val in rows[1:]:
            assert Fraction(val) == c.value(int(r), int(col))

    def test_exact_rate_beyond_float_range(self, tmp_path, monkeypatch):
        # only the floating-point routes refuse it (spectrum names lambda[0])
        kappa = 10**400
        code = run(
            ["cmatrix", "--model", "symmetric_rw", "--kappa", str(kappa), "--N", "3"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        with open(tmp_path / "cmatrix.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        c = b.build_c_matrix(b.symmetric_rw_spec(kappa, 3), 3)
        assert [Fraction(val) for _, _, val in rows] == [
            c.value(int(r), int(col)) for r, col, _ in rows
        ]
        assert Fraction(rows[2][2]) == Fraction(1, kappa)

    def test_manifest_written(self, tmp_path, monkeypatch):
        run(
            ["cmatrix", "--model", "symmetric_rw", "--kappa", "1", "--N", "4"],
            tmp_path, monkeypatch,
        )
        doc = json.loads((tmp_path / "cmatrix_manifest.json").read_text())
        assert doc["command"] == "cmatrix"
        assert doc["outputs"] == ["cmatrix.csv"]
        assert "bdhit" in doc["versions"]
        assert "numpy" in doc["versions"]
        assert len(doc["input_digest"]) == 64


    def test_manifest_names_the_lapack_source(self, tmp_path, monkeypatch):
        run(
            ["spectrum", "--model", "symmetric_rw", "--kappa", "1", "--N", "4"],
            tmp_path, monkeypatch,
        )
        versions = json.loads((tmp_path / "spectrum_manifest.json").read_text())["versions"]
        assert sorted(versions) == ["bdhit", "lapack", "numpy", "python"]
        assert versions["lapack"] == b._lapack.SOURCE


class TestLibraryWarnings:
    WALK = ("--model", "symmetric_rw", "--kappa", "1")

    @pytest.mark.parametrize("argv,code,message", [
        (("cmatrix", *WALK, "--N", "5", "--rows", "99"), 0,
         "C-matrix rows beyond 5 are not constructible (lambda_5 = 0); "
         "truncating the requested max_index 99 to 5"),
        (("htransform", *WALK, "--N", "5", "--gamma", "0.5", "--rows", "99"), 0,
         "C-matrix rows beyond 5 are not constructible (lambda_5 = 0); "
         "truncating the requested max_index 99 to 5"),
        (("reproduce", *WALK, "--N", "10", "--nu", "1:0.5,2:0.5", "--mode", "numeric",
          "--j-max", "7", "--force"), 2,
         "numeric recovery at j_max = 7 exceeds the reliable range (6)"),
    ], ids=["cmatrix", "htransform", "reproduce"])
    def test_user_warning_is_one_line(self, argv, code, message, tmp_path, monkeypatch, capfd):
        assert run(argv, tmp_path, monkeypatch) == code
        err = capfd.readouterr().err.splitlines()
        assert err[0] == f"warning: {message}"
        assert not any("cli.py" in line or "Warning" in line for line in err)

    def test_runtime_warning_still_follows_the_filters(self, tmp_path, monkeypatch):
        # pytest's configuration makes RuntimeWarning an error; main keeps it one
        def warn(*args):
            warnings.warn("overflow in a rate", RuntimeWarning)

        monkeypatch.setattr(cli, "build_c_matrix", warn)
        with pytest.raises(RuntimeWarning, match="overflow in a rate"):
            run(["cmatrix", *self.WALK, "--N", "5"], tmp_path, monkeypatch)


class TestSpectrumCommand:
    def test_discrete_atoms_match_library(self, tmp_path, monkeypatch):
        code = run(
            ["spectrum", "--model", "symmetric_rw", "--kappa", "1", "--N", "10"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        header, data = read_csv(tmp_path / "spectrum.csv")
        assert header == ["theta", "weight"]
        m = b.finite_spectrum(b.build_c_matrix(b.symmetric_rw_spec(1, 10), 10, rational=False))
        np.testing.assert_allclose([r[0] for r in data], m.theta, rtol=1e-15)
        np.testing.assert_allclose([r[1] for r in data], m.weights, rtol=1e-15)

    def test_speed_measure_overflow_named(self, tmp_path, monkeypatch, capsys):
        code = run(
            ["spectrum", "--model", "asymmetric_rw", "--lambda", "2", "--mu", "1",
             "--N", "1025"],
            tmp_path, monkeypatch,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "pi[1025]" in err
        assert "integer division" not in err

    @pytest.mark.parametrize("n", [1076, 1077])
    def test_speed_measure_underflow_named(self, tmp_path, monkeypatch, capsys, n):
        # pi_i = 2^(1 - i): pi_1076 = 2^-1075 rounds to 0.0, which once
        # ended in "does not symmetrize the generator" (N = 1076) or a
        # ZeroDivisionError in the scale function (N = 1077)
        code = run(
            ["spectrum", "--model", "asymmetric_rw", "--lambda", "1.0", "--mu", "2.0",
             "--N", str(n)],
            tmp_path, monkeypatch,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "underflows to 0 at pi[1076]" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kappa", ["1e200", "1e-200"])
    def test_rates_near_float_limits_refused(self, tmp_path, monkeypatch, capsys, kappa):
        # lambda mu overflowed (1e200: every weight inf, exit 0) or underflowed
        # (1e-200: "does not symmetrize"); the weights themselves leave range
        code = run(
            ["spectrum", "--model", "symmetric_rw", "--kappa", kappa, "--N", "5",
             "--out-dir", "out"],
            tmp_path, monkeypatch,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "weights: leave float range at atom 0" in err
        assert "symmetrize" not in err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_c_rows_warn_nothing(self, tmp_path, monkeypatch):
        # the Horner cross-check once read a row holding inf and nan, with
        # two "invalid value" warnings, and passed on the nan it gave
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                ["spectrum", "--model", "symmetric_rw", "--kappa", "1e-150", "--N", "5"],
                tmp_path, monkeypatch,
            )
        assert code == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flags,name", [
        (("--model", "symmetric_rw", "--N", "5", "--kappa={}"), "kappa"),
        (("--model", "asymmetric_rw", "--N", "5", "--mu", "1", "--lambda={}"), "lambda"),
        (("--model", "asymmetric_rw", "--N", "5", "--lambda", "1", "--mu={}"), "mu"),
    ])
    def test_nonfinite_rate_flag_named(self, tmp_path, monkeypatch, capsys, value, flags, name):
        argv = ["spectrum", *flags[:-1], flags[-1].format(value), "--out-dir", "out"]
        assert run(argv, tmp_path, monkeypatch) == 1
        assert f"error: {name}: rate must be finite, got {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_continuous_quadrature(self, tmp_path, monkeypatch):
        code = run(
            ["spectrum", "--continuous", "--model", "symmetric_rw", "--kappa", "2",
             "--N", "8", "--nodes", "24"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        header, data = read_csv(tmp_path / "spectrum.csv")
        assert len(data) == 24
        assert all(0 < r[0] < 8 for r in data)  # theta in (0, 4 kappa)

    def test_continuous_two_nodes_is_the_smallest_rule(self, tmp_path, monkeypatch, capsys):
        argv = ["spectrum", "--continuous", "--model", "symmetric_rw", "--kappa", "1", "--nodes"]
        assert run([*argv, "2"], tmp_path, monkeypatch) == 0
        assert len(read_csv(tmp_path / "spectrum.csv")[1]) == 2
        assert run([*argv, "1"], tmp_path, monkeypatch) == 1
        assert "n_nodes: must be >= 2, got 1" in capsys.readouterr().err


class TestDensityCommand:
    def test_values_match_library(self, tmp_path, monkeypatch):
        code = run(
            ["density", "--model", "symmetric_rw", "--kappa", "1", "--N", "12",
             "--nu", "1:0.5,3:0.5", "--t-min", "0.2", "--t-max", "2.0",
             "--t-count", "7"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        header, data = read_csv(tmp_path / "density.csv")
        assert header == ["t", "f"]
        assert len(data) == 7
        ev = b.finite_evaluator(b.symmetric_rw_spec(1, 12))
        nu = b.InitialDistribution({1: 0.5, 3: 0.5})
        t, f = np.array(data).T
        assert f == pytest.approx(b.spectral_sum(ev, t, nu), rel=1e-15)

    def test_linear_grid_takes_the_grid_kernel(self, tmp_path, monkeypatch):
        calls = []

        def counted(name, real):
            def kernel(ev, *args, **kwargs):
                calls.append(name)
                return real(ev, *args, **kwargs)

            monkeypatch.setattr(b.cli, name, kernel)

        counted("spectral_sum", b.cli.spectral_sum)
        counted("_grid_sum", b.cli._grid_sum)
        chain = ["--model", "symmetric_rw", "--kappa", "1", "--N", "10", "--t-min", "0.1"]
        for argv, kernel in (
            (["density", *chain], "_grid_sum"),
            (["transition", *chain, "--from", "1", "--to", "3"], "_grid_sum"),
            (["density", *chain, "--log-grid"], "spectral_sum"),
            (["transition", *chain, "--from", "1", "--to", "3", "--log-grid"], "spectral_sum"),
        ):
            calls.clear()
            assert run(argv, tmp_path, monkeypatch) == 0
            assert calls == [kernel], argv

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        args = ["density", "--model", "symmetric_rw", "--kappa", "1", "--N", "10",
                "--t-count", "20"]
        run(args, tmp_path, monkeypatch)
        first = (tmp_path / "density.csv").read_bytes()
        run(args, tmp_path, monkeypatch)
        assert (tmp_path / "density.csv").read_bytes() == first

    def test_continuous_clamps_t_zero(self, tmp_path, monkeypatch):
        code = run(
            ["density", "--continuous", "--model", "symmetric_rw", "--kappa", "1",
             "--N", "16", "--nodes", "48", "--t-min", "0", "--t-max", "1",
             "--t-count", "3"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        header, data = read_csv(tmp_path / "density.csv")
        assert data[0][0] > 0

    def test_continuous_table_reaches_the_states_read(self, tmp_path, monkeypatch):
        # with no --N the walk's table stops at the deepest state read, so
        # a rule of 32 nodes is enough; the values do not depend on --N
        args = ["density", "--continuous", "--model", "symmetric_rw", "--kappa", "1",
                "--nodes", "32", "--t-count", "9"]
        for extra in ([], ["--nu", "2:0.5,31:0.5"]):
            assert run([*args, *extra], tmp_path, monkeypatch) == 0
            default = (tmp_path / "density.csv").read_bytes()
            assert run([*args, *extra, "--N", "31"], tmp_path, monkeypatch) == 0
            assert (tmp_path / "density.csv").read_bytes() == default

    @pytest.mark.parametrize("flag", ["--t-min", "--t-max"])
    def test_nan_bound_exits_1(self, tmp_path, monkeypatch, capsys, flag):
        args = ["density", "--model", "symmetric_rw", "--kappa", "1", "--N", "10",
                "--t-min", "0.1", "--t-max", "1", "--t-count", "3"]
        args[args.index(flag) + 1] = "nan"
        assert run(args, tmp_path, monkeypatch) == 1
        name = flag[2:].replace("-", "_")
        assert f"grid: {name}: must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "density.csv").exists()


class TestTransitionCommand:
    def test_values_match_library(self, tmp_path, monkeypatch):
        code = run(
            ["transition", "--model", "asymmetric_rw", "--lambda", "2", "--mu", "1",
             "--N", "10", "--from", "1", "--to", "3", "--t-min", "0.5",
             "--t-max", "1.5", "--t-count", "3"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        header, data = read_csv(tmp_path / "transition.csv")
        assert header == ["t", "p"]
        ev = b.finite_evaluator(b.asymmetric_rw_spec(2, 1, 10))
        t, p = np.array(data).T
        assert p == pytest.approx(b.spectral_sum(ev, t, 1, ("state", 3)), rel=1e-13)


class TestReproduceCommand:
    def test_spectral_round_trip(self, tmp_path, monkeypatch):
        code = run(
            ["reproduce", "--model", "symmetric_rw", "--kappa", "1", "--N", "10",
             "--nu", "1:0.3,2:0.5,4:0.2", "--mode", "spectral", "--j-max", "5"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        doc = json.loads((tmp_path / "reproduce.json").read_text())
        assert doc["mode"] == "spectral"
        assert max(doc["abs_error"]) < 1e-9
        header, data = read_csv(tmp_path / "reproduce.csv")
        assert header == ["j", "recovered", "reference", "abs_error"]
        assert [r[1] for r in data] == pytest.approx([0.3, 0.5, 0, 0.2, 0], abs=1e-9)

    def test_numeric_synthesizes_samples_from_nu(self, tmp_path, monkeypatch):
        code = run(
            ["reproduce", "--model", "symmetric_rw", "--kappa", "1", "--N", "10",
             "--nu", "2:1", "--mode", "numeric", "--j-max", "3"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        doc = json.loads((tmp_path / "reproduce.json").read_text())
        assert doc["reliable"] is True
        assert abs(doc["recovered"][1] - 1.0) < 1e-3

    def test_numeric_from_samples_file(self, tmp_path, monkeypatch):
        ev = b.finite_evaluator(b.symmetric_rw_spec(1, 10))
        nu = b.InitialDistribution({2: 1.0})
        t0 = 0.005
        ts = np.unique(
            np.concatenate(
                [np.linspace(t0 * 0.6, t0 * 1.4, 101), np.linspace(t0 * 0.3, t0 * 0.7, 101)]
            )
        )
        lines = ["t,f"]
        for t, f in zip(ts, b.spectral_sum(ev, ts, nu)):
            lines.append(f"{float(t)!r},{float(f)!r}")
        (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")
        code = run(
            ["reproduce", "--model", "symmetric_rw", "--kappa", "1", "--N", "10",
             "--samples", "samples.csv", "--mode", "numeric", "--j-max", "3",
             "--t0", "0.005"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        doc = json.loads((tmp_path / "reproduce.json").read_text())
        assert abs(doc["recovered"][1] - 1.0) < 1e-3
        assert doc.get("reference") is None

    @pytest.mark.parametrize("text, cause", [
        ("t,f\n0.003,1.5\n0.004,nan\n0.005,2.0\n",
         "data row 2 of bad.csv is not finite (t=0.004, f=nan)"),
        ("inf,1.5\n", "data row 1 of bad.csv is not finite (t=inf, f=1.5)"),
        ("", "no rows in bad.csv"),
        ("t,f\n", "no rows in bad.csv"),
    ])
    def test_bad_samples_file_refused_with_cause(self, text, cause, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.csv").write_text(text)
        code = run(
            ["reproduce", "--model", "symmetric_rw", "--kappa", "1", "--N", "5",
             "--samples", "bad.csv", "--mode", "numeric"],
            tmp_path, monkeypatch,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: samples: {cause}" in err
        assert "ill-conditioned" not in err
        assert not (tmp_path / "reproduce.json").exists()

    def test_headerless_samples_keep_their_first_row(self, tmp_path):
        # a first row with an exponent is data, not a header
        (tmp_path / "s.csv").write_text("1e-3,2.5\n0.002,3.0\n")
        data = cli._read_samples_csv(str(tmp_path / "s.csv"))
        assert data.tolist() == [[1e-3, 2.5], [0.002, 3.0]]

    def test_missing_samples_file(self, tmp_path, monkeypatch, capsys):
        code = run(
            ["reproduce", "--model", "symmetric_rw", "--kappa", "1", "--N", "6",
             "--samples", "nowhere.csv", "--mode", "numeric"],
            tmp_path, monkeypatch,
        )
        assert code == 1
        assert "nowhere.csv" in capsys.readouterr().err


class TestHTransformCommand:
    def test_gamma_form(self, tmp_path, monkeypatch):
        code = run(
            ["htransform", "--model", "symmetric_rw", "--kappa", "1", "--N", "10",
             "--gamma", "0.5", "--branch", "plus", "--rows", "6"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        doc = json.loads((tmp_path / "htransform_spec.json").read_text())
        assert doc["gamma"] == 0.5
        np.testing.assert_allclose(doc["k_values"], 2.0 ** np.arange(11))
        np.testing.assert_allclose(doc["lambda"][:-1], 2.0)
        np.testing.assert_allclose(doc["mu"], 0.5)
        header, data = read_csv(tmp_path / "htransform_cmatrix.csv")
        assert header == ["row", "col", "value"]

    def test_target_rates_form(self, tmp_path, monkeypatch):
        code = run(
            ["htransform", "--target-lambda", "2", "--target-mu", "1", "--N", "12",
             "--rows", "4"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        doc = json.loads((tmp_path / "htransform_spec.json").read_text())
        assert doc["gamma"] == pytest.approx(3 - 2 * math.sqrt(2.0), rel=1e-12)
        assert doc["lambda"][:3] == [2, 2, 2]
        assert doc["mu"][:3] == [1, 1, 1]

    def test_target_form_writes_the_exact_chain(self, tmp_path, monkeypatch):
        # the C rows belong to the chain in the spec file, exact rates included
        code = run(
            ["htransform", "--target-lambda", "5/4", "--target-mu", "1", "--N", "10",
             "--rows", "6"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        doc = json.loads((tmp_path / "htransform_spec.json").read_text())
        c = b.build_c_matrix(b.spec_from_dict(doc), 6)
        with open(tmp_path / "htransform_cmatrix.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(int(i), int(j), Fraction(v)) for i, j, v in rows] == [
            (i, j, c.rows[i][j]) for i in range(7) for j in range(i + 1)
        ]

    def test_gamma_form_transforms_the_rates_once(self, tmp_path, monkeypatch):
        # the written chain is the one transform_cmatrix built
        calls = []
        real = b.htransform.transform_rates
        monkeypatch.setattr(
            b.htransform, "transform_rates", lambda ht: calls.append(ht) or real(ht)
        )
        code = run(
            ["htransform", "--model", "symmetric_rw", "--kappa", "1", "--N", "12",
             "--gamma", "1/2"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        assert len(calls) == 1
        doc = json.loads((tmp_path / "htransform_spec.json").read_text())
        assert b.spec_from_dict(doc) == real(calls[0])


class TestSimulateCommand:
    def test_summary_and_samples(self, tmp_path, monkeypatch):
        spec_path = tmp_path / "chain.json"
        spec_path.write_text(json.dumps({"N": 2, "lambda": [1, 0], "mu": [1, 1]}))
        code = run(
            ["simulate", "--spec", str(spec_path), "--nu", "1:1", "--paths", "4000",
             "--horizon", "80", "--seed", "42"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        doc = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert doc["n_paths"] == 4000
        assert doc["n_censored"] == 0
        assert doc["passed"] is True
        assert doc["ks_statistic"] < doc["ks_critical_1pct"]
        header, data = read_csv(tmp_path / "simulate_samples.csv")
        assert header == ["t_hit"]
        assert len(data) == doc["n_absorbed"]
        times = [r[0] for r in data]
        assert times == sorted(times)

    def test_censoring_exits_2(self, tmp_path, monkeypatch, capsys):
        spec_path = tmp_path / "chain.json"
        spec_path.write_text(json.dumps({"N": 2, "lambda": [1, 0], "mu": [1, 1]}))
        code = run(
            ["simulate", "--spec", str(spec_path), "--paths", "300",
             "--horizon", "0.4", "--seed", "1"],
            tmp_path, monkeypatch,
        )
        assert code == 2
        doc = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert doc["n_censored"] > 0
        assert doc["ks_statistic"] is None

    def test_ks_is_one_kernel_call(self, tmp_path, monkeypatch):
        calls = []
        real = b.checks.spectral_sum

        def counted(ev, t, *args, **kwargs):
            calls.append(len(t))
            return real(ev, t, *args, **kwargs)

        monkeypatch.setattr(b.checks, "spectral_sum", counted)
        spec_path = tmp_path / "chain.json"
        spec_path.write_text(json.dumps({"N": 2, "lambda": [1, 0], "mu": [1, 1]}))
        code = run(
            ["simulate", "--spec", str(spec_path), "--nu", "1:0.5,2:0.5", "--paths", "3000",
             "--horizon", "80", "--seed", "3"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        assert calls == [3000]

    def test_refuses_run_over_jump_budget(self, tmp_path, monkeypatch, capsys):
        # From state 1 the (2, 1) walk with N = 40 makes about 2.2e12 jumps
        # before absorption; a horizon that does not censor it is refused.
        code = run(
            ["simulate", "--model", "asymmetric_rw", "--lambda", "2", "--mu", "1",
             "--N", "40", "--horizon", "1e15"],
            tmp_path, monkeypatch,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "10000 paths x 2.2e+12 expected jumps each" in err
        assert "over the budget" in err
        assert not (tmp_path / "simulate_samples.csv").exists()

    def test_short_horizon_bounds_the_work(self, tmp_path, monkeypatch):
        # The same chain with a horizon of 20 makes at most 60 jumps per path
        # on average: it runs, and censors.
        code = run(
            ["simulate", "--model", "asymmetric_rw", "--lambda", "2", "--mu", "1",
             "--N", "40", "--horizon", "20", "--paths", "500"],
            tmp_path, monkeypatch,
        )
        assert code == 2
        doc = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert doc["n_censored"] > 0

    def test_deterministic_rerun(self, tmp_path, monkeypatch):
        spec_path = tmp_path / "chain.json"
        spec_path.write_text(json.dumps({"N": 2, "lambda": [1, 0], "mu": [1, 1]}))
        args = ["simulate", "--spec", str(spec_path), "--paths", "1000",
                "--horizon", "60", "--seed", "9"]
        run(args, tmp_path, monkeypatch)
        first = (tmp_path / "simulate_samples.csv").read_bytes()
        run(args, tmp_path, monkeypatch)
        assert (tmp_path / "simulate_samples.csv").read_bytes() == first


class TestVerifyCommand:
    def test_battery_passes_on_symmetric_rw(self, tmp_path, monkeypatch, capsys):
        code = run(
            ["verify", "--model", "symmetric_rw", "--kappa", "1", "--N", "12"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln]
        assert all(ln.startswith("PASS ") for ln in lines)
        assert any("stieltjes-ratio" in ln for ln in lines)
        assert any("monte-carlo-ks" in ln for ln in lines)
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert all(r["passed"] for r in doc["results"])

    def test_battery_builds_each_quantity_once(self, tmp_path, monkeypatch, capsys):
        # pi, s and the C rows come from the one evaluator, and the
        # transformed chain from the transformed evaluator: the battery
        # builds none of them itself.
        for name in ("build_speed_measure", "build_scale_function", "transform_rates"):
            assert not hasattr(b.checks, name)
        built = []
        real = b.checks.finite_evaluator
        monkeypatch.setattr(
            b.checks, "finite_evaluator", lambda *a, **k: built.append(a) or real(*a, **k)
        )
        tilted = []
        real_rates = b.htransform.transform_rates
        monkeypatch.setattr(
            b.htransform, "transform_rates", lambda ht: tilted.append(ht) or real_rates(ht)
        )
        code = run(
            ["verify", "--model", "symmetric_rw", "--kappa", "1", "--N", "12"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        assert len(built) == 1
        assert len(tilted) == 1
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert [r["name"] for r in doc["results"]] == [
            "speed-measure-balance", "generator-factorization", "scale-harmonic",
            "cmatrix-column-recursion", "spectrum-atoms-positive-ascending",
            "eigenfunction-orthogonality", "density-total-mass", "hitting-cdf-limits",
            "density-transition-link", "spectral-reproduction", "derivative-bounds",
            "stieltjes-ratio", "htransform-cmatrix-commutation",
            "htransform-density-conjugacy", "monte-carlo-ks", "simulation-determinism",
        ]

    def test_drifted_walk_skips_simulation_it_cannot_finish(self, tmp_path, monkeypatch, capsys):
        # Its horizon 80 / theta_min is about 1.8e14: the simulations would
        # not end, so they are skipped with the expected jump count.
        started = time.monotonic()
        code = run(
            ["verify", "--model", "asymmetric_rw", "--lambda", "2", "--mu", "1", "--N", "40"],
            tmp_path, monkeypatch,
        )
        assert time.monotonic() - started < 10.0
        assert code == 0
        out = capsys.readouterr().out
        assert "SKIP monte-carlo-ks (2000 paths x 2.2e+12 expected jumps each" in out
        assert "SKIP simulation-determinism (1 paths x 2.2e+12 expected jumps each" in out
        doc = json.loads((tmp_path / "verify.json").read_text())
        skipped = [r["name"] for r in doc["results"] if r["passed"] is None]
        assert skipped == ["monte-carlo-ks", "simulation-determinism"]
        assert all(r["passed"] for r in doc["results"] if r["name"] not in skipped)

    @pytest.mark.parametrize("error", [ValueError, OverflowError])
    def test_refused_tilt_fails_two_checks_and_goes_on(self, tmp_path, monkeypatch, capsys, error):
        # from N = 513 the tilted walk's speed measure leaves float range
        def refuse(ev, ht):
            raise error("speed measure overflows at pi[7]")

        monkeypatch.setattr(b.checks, "transformed_evaluator", refuse)
        code = run(
            ["verify", "--model", "symmetric_rw", "--kappa", "1", "--N", "6"],
            tmp_path, monkeypatch,
        )
        assert code == 2
        out = capsys.readouterr().out
        detail = "tilted evaluator refused: speed measure overflows at pi[7]"
        assert f"FAIL htransform-cmatrix-commutation ({detail})" in out
        assert f"FAIL htransform-density-conjugacy ({detail})" in out
        doc = json.loads((tmp_path / "verify.json").read_text())
        failed = [r["name"] for r in doc["results"] if not r["passed"]]
        assert failed == ["htransform-cmatrix-commutation", "htransform-density-conjugacy"]
        assert [r["name"] for r in doc["results"]][-2:] == [
            "monte-carlo-ks", "simulation-determinism",
        ]

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
    def test_raising_check_fails_alone_and_battery_goes_on(
        self, tmp_path, monkeypatch, capsys, error
    ):
        # kappa = 1e200 at N = 5 once made math.fsum raise "-inf + inf in
        # fsum" in the orthogonality check, which ended the whole battery
        # (that chain is now refused before the battery runs)
        def raising(ev, i, j):
            raise error("-inf + inf in fsum")

        monkeypatch.setattr(b.checks, "orthogonality_defect", raising)
        code = run(
            ["verify", "--model", "symmetric_rw", "--kappa", "1", "--N", "6"],
            tmp_path, monkeypatch,
        )
        assert code == 2
        out = capsys.readouterr().out
        detail = f"raised {error.__name__}: -inf + inf in fsum"
        assert f"FAIL eigenfunction-orthogonality ({detail})" in out
        doc = json.loads((tmp_path / "verify.json").read_text())
        failed = [r for r in doc["results"] if not r["passed"]]
        assert failed == [
            {"name": "eigenfunction-orthogonality", "passed": False, "detail": detail}
        ]
        names = [r["name"] for r in doc["results"]]
        assert names.index("eigenfunction-orthogonality") == 5
        assert names[-2:] == ["monte-carlo-ks", "simulation-determinism"]

    def test_battery_passes_on_random_chain(self, tmp_path, monkeypatch, capsys):
        doc = {
            "N": 6,
            "lambda": [1.3, 0.8, 2.1, 0.6, 1.9, 0.0],
            "mu": [0.9, 1.4, 0.7, 2.2, 1.1, 0.8],
        }
        spec_path = tmp_path / "chain.json"
        spec_path.write_text(json.dumps(doc))
        code = run(["verify", "--spec", str(spec_path)], tmp_path, monkeypatch)
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS derivative-bounds" in out
        # Constant-symmetric-only checks are skipped for a generic chain.
        assert "stieltjes-ratio" not in out


class TestOutputDirectory:
    def test_out_dir_flag(self, tmp_path, monkeypatch):
        target = tmp_path / "results"
        target.mkdir()
        run(
            ["cmatrix", "--model", "symmetric_rw", "--kappa", "1", "--N", "4",
             "--out-dir", str(target)],
            tmp_path, monkeypatch,
        )
        assert (target / "cmatrix.csv").exists()
        assert (target / "cmatrix_manifest.json").exists()

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        target.mkdir()
        monkeypatch.setenv("BDHIT_OUTDIR", str(target))
        run(
            ["density", "--model", "symmetric_rw", "--kappa", "1", "--N", "6",
             "--t-count", "3"],
            tmp_path, monkeypatch,
        )
        assert (target / "density.csv").exists()


SMALL_WALK = ("--model", "symmetric_rw", "--kappa", "1", "--N", "4")

JOB_ARGV = {
    "cmatrix": (),
    "spectrum": (),
    "density": ("--t-count", "5"),
    "transition": ("--from", "1", "--to", "2", "--t-count", "5"),
    "reproduce": ("--nu", "1:0.5,2:0.5", "--j-max", "2"),
    "htransform": ("--gamma", "1/2"),
    "simulate": ("--paths", "200", "--horizon", "200", "--seed", "1"),
    "verify": (),
}

REFUSED = {
    "spectrum-no-chain": (["spectrum"], "need --spec FILE or --model NAME"),
    "density-equal-endpoints": (
        ["density", *SMALL_WALK, "--t-min", "1", "--t-max", "1", "--t-count", "3"],
        "grid: 3 points on [1.0, 1.0] are not strictly increasing",
    ),
    "simulate-over-budget": (
        ["simulate", "--model", "asymmetric_rw", "--lambda", "2", "--mu", "1", "--N", "40",
         "--horizon", "1e15"],
        "over the budget",
    ),
    "reproduce-j-max-above-N": (
        ["reproduce", *SMALL_WALK, "--nu", "1:1", "--j-max", "5"],
        "j_max 5: evaluator covers states 1..4",
    ),
    # a zero denominator once ended in a ZeroDivisionError traceback, and
    # then in argparse's "invalid _parse_rate value", naming no cause
    "kappa-zero-denominator": (
        ["spectrum", "--model", "symmetric_rw", "--kappa", "1/0", "--N", "3"],
        "argument --kappa: rate: cannot parse rational string '1/0'",
    ),
    "target-lambda-zero-denominator": (
        ["htransform", "--target-lambda", "2/0", "--target-mu", "1", "--N", "3"],
        "argument --target-lambda: rate: cannot parse rational string '2/0'",
    ),
    "kappa-not-a-number": (
        ["spectrum", "--model", "symmetric_rw", "--kappa", "abc", "--N", "3"],
        "argument --kappa: could not convert string to float: 'abc'",
    ),
    # nan passed the t0 <= 0 test and was refused downstream as t
    "reproduce-t0-nan": (
        ["reproduce", *SMALL_WALK, "--nu", "1:1", "--j-max", "2", "--mode", "numeric",
         "--t0", "nan"],
        "error: t0: must be positive, got nan",
    ),
    # inf passed the t0 > 0 test and was refused downstream as t = nan
    "reproduce-t0-inf": (
        ["reproduce", *SMALL_WALK, "--nu", "1:1", "--j-max", "2", "--mode", "numeric",
         "--t0", "inf"],
        "error: t0: must be finite, got inf",
    ),
    # non-finite or overflowing masses reached math.fsum, whose error named neither
    "density-nu-not-finite": (
        ["density", *SMALL_WALK, "--nu", "1:inf,2:-inf"],
        "error: nu: mass in '1:inf' must lie in (0, 1]",
    ),
    "density-nu-overflowing-sum": (
        ["density", *SMALL_WALK, "--nu", "1:1e308,2:1e308"],
        "error: nu: mass in '1:1e308' must lie in (0, 1]",
    ),
    # the named-model fields are checked by spec_from_dict, as in a JSON spec
    "symmetric-rw-missing-kappa": (
        ["spectrum", "--model", "symmetric_rw", "--N", "3"],
        "error: kappa: required for model symmetric_rw",
    ),
    # the flag is named, not the library's max_index
    "cmatrix-rows-negative": (
        ["cmatrix", *SMALL_WALK, "--rows", "-1"], "error: --rows: must be >= 1, got -1",
    ),
    # inf became k(1) = inf, and the refusal named k_values
    "htransform-gamma-inf": (
        ["htransform", "--model", "symmetric_rw", "--kappa", "1", "--N", "4", "--gamma", "inf"],
        "error: gamma: must be finite, got inf",
    ),
    # a raw OverflowError, "error: (34, 'Numerical result out of range')"
    "htransform-eigenfunction-beyond-float-range": (
        ["htransform", "--model", "symmetric_rw", "--kappa", "1", "--N", "200", "--gamma", "100"],
        "error: gamma: alpha_+^i at gamma = 100.0 on the kappa = 1 walk leaves float range "
        "by state N = 200",
    ),
    # "error: int too large to convert to float", naming no rate
    "spectrum-exact-rate-beyond-float-range": (
        ["spectrum", "--model", "symmetric_rw", "--kappa", "1" + "0" * 400, "--N", "3"],
        "error: lambda[0]: beyond float range",
    ),
    "htransform-rows-zero": (
        ["htransform", "--target-lambda", "2", "--target-mu", "1", "--N", "4", "--rows", "0"],
        "error: --rows: must be >= 1, got 0",
    ),
}


class TestJobOutputs:
    @pytest.mark.parametrize("name", list(REFUSED))
    def test_refused_job_writes_nothing(self, name, tmp_path, monkeypatch, capsys):
        argv, cause = REFUSED[name]
        assert run([*argv, "--out-dir", "out"], tmp_path, monkeypatch) == 1
        assert cause in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_manifest_lists_every_file_written(self, command, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        code = run([command, *SMALL_WALK, *JOB_ARGV[command], "--out-dir", str(out)],
                   tmp_path, monkeypatch)
        assert code in (0, 2)  # simulate's KS gate may fail on 200 paths
        manifest = f"{command}_manifest.json"
        doc = json.loads((out / manifest).read_text())
        written = {p.name for p in out.iterdir()} - {manifest}
        assert doc["outputs"] == sorted(written)
        assert written

    @pytest.mark.parametrize("command", COMMANDS)
    def test_only_verify_builds_the_scale_function(self, command, tmp_path, monkeypatch):
        built = []
        real = b.model.build_scale_function
        for module in (b.model, b.cmatrix):
            monkeypatch.setattr(
                module, "build_scale_function", lambda *a: built.append(a) or real(*a)
            )
        code = run([command, *SMALL_WALK, *JOB_ARGV[command], "--out-dir", "out"],
                   tmp_path, monkeypatch)
        assert code in (0, 2)
        assert len(built) == (1 if command == "verify" else 0)


class TestWriteTable:
    def test_mixed_table_cell_by_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        columns = ([1, np.int64(2)], [Fraction(1, 3), Fraction(5)], [0.1, 2.5], [None, 1e-300])
        cli._write_table(path, ("j", "exact", "x", "maybe"), columns)
        assert path.read_text() == (
            "j,exact,x,maybe\n"
            "1,1/3,0.10000000000000001,\n"
            "2,5/1,2.5,1e-300\n"
        )

    def test_all_float_table_in_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_BLOCK", 2)
        path = tmp_path / "t.csv"
        t = np.array([0.0, 0.5, 1.0])
        cli._write_table(path, ("t", "f"), (t, np.array([1.0, 0.25, 1 / 3])))
        assert path.read_text() == "t,f\n0,1\n0.5,0.25\n1,0.33333333333333331\n"

    def test_zero_row_table_is_its_header(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_table(path, ("t_hit",), (np.empty(0),))
        assert path.read_text() == "t_hit\n"
        cli._write_table(path, ("j", "value"), ((), ()))
        assert path.read_text() == "j,value\n"

    def test_float32_column_widened_exactly(self, tmp_path):
        path = tmp_path / "t.csv"
        t32 = np.array([0.1, 1 / 3, 2.5e-8], dtype=np.float32)
        cli._write_table(path, ("t", "f"), (t32, np.array([0.1, 1.0, -2.0])))
        assert path.read_text() == (
            "t,f\n"
            "0.10000000149011612,0.10000000000000001\n"
            "0.3333333432674408,1\n"
            "2.5000000292152436e-08,-2\n"
        )
        cli._write_table(path, ("t",), (t32,))
        assert path.read_text() == percent_table(("t",), (t32,))


def percent_table(header, columns):
    """A float table as '%' formats it: the reference for format_rows."""
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return ",".join(header) + "\n" + row * len(data) % tuple(data.ravel().tolist())


def hard_doubles():
    """About 1.3 M doubles over every exponent, sign and layout of %.17g."""
    rng = np.random.default_rng(2024)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = np.array([1e-280, 1e280, 1e-5, 1e-4, 1e16, 1e17, 1e99, 1e100, 1e-99, 1e-100])
    # x = 10^k + odd / 2^(17 - k) scales to 10^16 + odd 5^(16 - k) / 2, an
    # exact tie between two 17-digit decimals, which '%' rounds half even
    ties = np.array([10.0**k + (2 * j + 1) / 2.0 ** (17 - k)
                     for k in range(16) for j in range(40)])
    parts = [
        rng.integers(0, 2**64, size=900_000, dtype=np.uint64).view(np.float64),
        np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.225073858507201e-308,
                  2.2250738585072014e-308, 1.7976931348623157e308, 1000000000000000.25]),
        np.linspace(0.0, 20.0, 20001),
        np.geomspace(1e-12, 20.0, 20000),
        np.geomspace(1e-300, 1e300, 20000),
        np.arange(-50_000.0, 50_000.0),
        2.0**53 + np.arange(-100.0, 100.0),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
        rng.random(50_000) * 10.0 ** rng.integers(-20, 21, 50_000),
    ]
    x = np.concatenate(parts)
    return np.concatenate([x, -x[900_000:]])


class TestFloatFormatter:
    """The all-float path writes exactly the bytes of '%.17g' % x."""

    def test_bytes_equal_percent_on_a_million_doubles(self, tmp_path):
        # a third of them each in a table of 1, 2 and 3 columns
        for n_cols, x in zip((1, 2, 3), np.array_split(hard_doubles(), 3)):
            x = x[: x.size // n_cols * n_cols].reshape(-1, n_cols)
            columns = tuple(x[:, j] for j in range(n_cols))
            header = tuple(f"c{j}" for j in range(n_cols))
            path = tmp_path / "t.csv"
            cli._write_table(path, header, columns)
            assert path.read_bytes() == percent_table(header, columns).encode()

    @pytest.mark.parametrize("n_cols", [1, 2, 3])
    @pytest.mark.parametrize("shift", [None, -1, 0, 1])
    def test_row_counts_around_the_block(self, tmp_path, n_cols, shift):
        n_rows = 0 if shift is None else cli._CSV_BLOCK + shift
        x = np.random.default_rng(n_rows).standard_normal((n_rows or 1, n_cols))
        x[::97] = np.nan  # rows that go through '%' on both sides of a block edge
        x[1::89, 0] = 0.0
        for rows in {n_rows, 1}:
            columns = tuple(x[:rows, j] for j in range(n_cols))
            header = tuple(f"c{j}" for j in range(n_cols))
            path = tmp_path / "t.csv"
            cli._write_table(path, header, columns)
            assert path.read_bytes() == percent_table(header, columns).encode()

    def test_tables_built_on_first_float_table_not_at_import(self, tmp_path):
        # setup_s (import plus --version) must not pay for the lookup tables
        code = (
            "import numpy as np\n"
            "from bdhit import _floatfmt\n"
            "from bdhit.cli import _write_table, main\n"
            "assert main(['--version']) == 0\n"
            "print(_floatfmt._tables.cache_info().currsize)\n"
            f"_write_table({str(tmp_path / 't.csv')!r}, ('j', 'v'), ([1], [0.5]))\n"
            "print(_floatfmt._tables.cache_info().currsize)\n"
            f"_write_table({str(tmp_path / 't.csv')!r}, ('v',), (np.ones(3),))\n"
            "print(_floatfmt._tables.cache_info().currsize)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split()[-3:] == ["0", "0", "1"]
