"""CLI contract tests: CSV layouts, JSON report schema, exit codes,
byte-level determinism of the verification reports, and the console-script
lines of the CI workflow."""

import argparse
import csv
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symjacobi import cli, core
from symjacobi.basis import mode_eigenvalues
from symjacobi.cli import _check_entry, _ladder_entry, main
from symjacobi.core import JacobiParams
from symjacobi.estimates import EstimateReport, LadderResult
from symjacobi.kernels import AccuracyWarning, poisson_kernel_series, semigroup_mass, tilde_kernel
from symjacobi.quadrature import mu_plus_rule

DATA = Path(__file__).parent / "data"
WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
# a console-script line of the workflow: `symjacobi ...` or `"$venv/symjacobi" ...`
SCRIPT_LINE = re.compile(r'^(?:symjacobi|"\$venv/symjacobi")\s+(.*)$')


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0].startswith("# symjacobi ")
    header = rows[1]
    data = rows[2:]
    return rows[0][0], header, data


class TestParsing:
    def test_bad_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["basis", "--nmax", "-1"], ["kernel", "--level", "-3"], ["verify", "--nodes", "-5"]],
        ids=["nmax", "level", "nodes"],
    )
    def test_negative_count_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("t", ["0", "-1", "inf", "nan", "soon"])
    def test_kernel_time_must_be_positive_and_finite(self, t, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--t", t, "--alpha", "-0.5", "--beta", "-0.5", "--level", "0"])
        assert exc.value.code == 2
        assert "expected a positive finite time" in capsys.readouterr().err

    def test_parser_built_once_and_calls_independent(self, tmp_path):
        """The parser is built once per process; consecutive calls with other
        flags, other subcommands and a usage error in between each parse
        from the defaults, with nothing carried over."""
        assert cli._build_parser() is cli._build_parser()
        first, second, third = (tmp_path / f"{k}.csv" for k in "abc")
        assert main(["basis", "--alpha", "0.5", "--nmax", "2", "--level", "1",
                     "--out", str(first)]) == 0
        with pytest.raises(SystemExit):
            main(["kernel", "--level", "-3"])
        assert main(["basis", "--level", "1", "--out", str(second)]) == 0
        assert main(["kernel", "--level", "0", "--t", "2.0", "--out", str(third)]) == 0
        echoes = [read_table(p)[0] for p in (first, second, third)]
        assert "alpha=0.5" in echoes[0] and "nmax=2" in echoes[0]
        assert "alpha=0.0" in echoes[1] and "nmax=16" in echoes[1]
        assert "alpha=0.0" in echoes[2] and "route=series" in echoes[2]

    # the flags each command reads, and takes: 37 in all
    COMMAND_FLAGS = {
        "basis": {"alpha", "beta", "nmax", "level", "out"},
        "kernel": {"alpha", "beta", "level", "out", "t", "route"},
        "operator": {
            "alpha", "beta", "nmax", "level", "out", "op", "t", "M", "N", "parity", "input"
        },
        "verify": {"alpha", "beta", "nmax", "level", "seed", "out", "suite", "stamp"},
        "ap-check": {"alpha", "beta", "level", "out", "r", "s", "p"},
    }

    def test_each_command_takes_only_the_flags_it_reads(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.COMMAND_FLAGS)
        for name, want in self.COMMAND_FLAGS.items():
            got = {a.dest for a in sub.choices[name]._actions if a.dest != "help"}
            assert got == want, name
        assert sum(map(len, self.COMMAND_FLAGS.values())) == 37

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel", "--nodes", "1000"],
            ["kernel", "--nmax", "4"],
            ["basis", "--seed", "1"],
            ["operator", "--op", "riesz", "--nodes", "9"],
            ["operator", "--op", "riesz", "--seed", "9"],
            ["ap-check", "--r", "1", "--s", "0", "--nmax", "3"],
            ["verify", "--suite", "basis", "--nodes", "9"],
        ],
        ids=["kernel-nodes", "kernel-nmax", "basis-seed", "operator-nodes", "operator-seed",
             "ap-check-nmax", "verify-nodes"],
    )
    def test_unread_flag_is_usage_error(self, argv, capsys):
        """A flag the command would not read is refused, not silently dropped
        or overridden."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, echo",
        [
            (["basis", "--nmax", "1", "--level", "0"],
             "# symjacobi basis alpha=0.0 beta=0.0 nmax=1 level=0"),
            (["kernel", "--level", "0", "--alpha", "0.5"],
             "# symjacobi kernel alpha=0.5 beta=0.0 level=0 t=1.0 route=series"),
            (["operator", "--op", "riesz", "--nmax", "2"],
             "# symjacobi operator alpha=0.0 beta=0.0 nmax=2 level=2 op=riesz parity=full "
             "t=1.0 M=1 N=0 n_coeffs=3"),
            (["ap-check", "--r", "1", "--s", "-1", "--level", "0"],
             "# symjacobi ap-check alpha=0.0 beta=0.0 level=0 r=1.0 s=-1.0 p=2.0"),
        ],
        ids=["basis", "kernel", "operator", "ap-check"],
    )
    def test_echo_line_prints_the_command_flags(self, tmp_path, argv, echo):
        out = tmp_path / "table.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert read_table(out)[0] == echo

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["basis", "--alpha", "inf", "--nmax", "2", "--level", "0"],
             "alpha must be finite and exceed -1, got inf"),
            (["operator", "--op", "semigroup", "--beta", "inf"],
             "beta must be finite and exceed -1, got inf"),
            (["ap-check", "--r", "1", "--s", "0", "--p", "nan"],
             "exponent must be finite and satisfy p >= 1, got nan"),
            (["ap-check", "--r", "nan", "--s", "0"], "r must be finite, got nan"),
        ],
        ids=["basis-alpha", "operator-beta", "ap-check-p", "ap-check-r"],
    )
    def test_nonfinite_parameter_fails(self, argv, message, capsys):
        """A non-finite parameter is an error naming it, with no table of
        NaNs, zeros or infinite constants written."""
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--M", "--N"])
    def test_negative_operator_order_is_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["operator", "--op", "gfun", flag, "-1"])
        assert exc.value.code == 2
        assert "expected a nonnegative integer" in capsys.readouterr().err


class TestBasisTable:
    def test_layout_and_parity(self, tmp_path):
        out = tmp_path / "basis.csv"
        rc = main(
            ["basis", "--alpha", "0.5", "--beta", "2.0", "--nmax", "4",
             "--level", "1", "--out", str(out)]
        )
        assert rc == 0
        echo, header, data = read_table(out)
        assert "alpha=0.5" in echo and "beta=2.0" in echo and "nmax=4" in echo
        assert header == ["n", "parity", "theta", "phi"]
        table = {}
        for n, parity, th, val in data:
            assert parity == ("even" if int(n) % 2 == 0 else "odd")
            table[(int(n), float(th))] = float(val)
        n_theta = len({th for _, th in table})
        assert len(data) == 5 * n_theta
        # mode zero is constant; mirrored rows carry the parity sign
        zeros = [v for (n, _), v in table.items() if n == 0]
        assert np.ptp(zeros) == 0.0
        for (n, th), val in table.items():
            sign = 1.0 if n % 2 == 0 else -1.0
            assert_allclose(table[(n, -th)], sign * val, atol=1e-14)

    def test_writes_stdout_by_default(self, capsys):
        assert main(["basis", "--nmax", "0", "--level", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "n,parity,theta,phi"
        assert len(lines) == 2 + 15


class TestKernelTable:
    def test_columns_and_identities(self, tmp_path):
        out = tmp_path / "kernel.csv"
        rc = main(
            ["kernel", "--alpha", "0.5", "--beta", "2.0", "--t", "0.8",
             "--level", "1", "--out", str(out)]
        )
        assert rc == 0
        _, header, data = read_table(out)
        assert header == ["t", "theta", "phi", "H", "H_tilde", "H_full", "mass"]
        vals = np.array([[float(x) for x in row] for row in data])
        params = JacobiParams(0.5, 2.0)
        # split identity, symmetry of H, and the half-line mass per theta row
        assert_allclose(vals[:, 5], vals[:, 3] + vals[:, 4], rtol=1e-12)
        h = {(r[1], r[2]): r[3] for r in vals}
        for (th, ph), v in h.items():
            assert_allclose(h[(ph, th)], v, rtol=1e-12)
        assert_allclose(vals[:, 6], semigroup_mass(params, 0.8), rtol=1e-10)

    @pytest.mark.parametrize("route", ["dk", "both"])
    def test_overflowing_dk_time_fails(self, capsys, route):
        """At t = 1500 sinh(t/2) overflows: the integral route refuses the
        time instead of writing NaN columns."""
        assert main(["kernel", "--t", "1500", "--route", route, "--level", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "t=1500.0" in captured.err

    @pytest.mark.parametrize("out", [None, "kernel.csv"])
    def test_nonfinite_column_fails_before_writing(self, capsys, tmp_path, out):
        """At alpha = -1 + 2^-53 the mass rule has a NaN node, so the mass
        column is NaN: the table is refused with the column and the first
        (theta, phi) point named, and no row is written."""
        argv = ["kernel", "--alpha", "-0.9999999999999999", "--beta", "-0.5",
                "--level", "0", "--t", "1"]
        if out is not None:
            argv += ["--out", str(tmp_path / out)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            "column mass is not finite at (theta, phi) = "
            "(-1.5707963267948966, -1.5707963267948966)"
        ) in captured.err
        assert out is None or not (tmp_path / out).exists()

    def test_both_route_reports_difference(self, tmp_path):
        out = tmp_path / "kernel.csv"
        rc = main(["kernel", "--level", "1", "--route", "both", "--out", str(out)])
        assert rc == 0
        _, header, data = read_table(out)
        assert header[-1] == "rel_diff"
        diffs = np.array([float(row[-1]) for row in data])
        assert np.max(diffs) < 1e-6


    def test_dk_route_matches_series_at_small_t(self, tmp_path):
        """At t = 0.2 every dk column, H_tilde and H_full included, agrees with
        the series table within 1e-6 of H, and no AccuracyWarning is raised."""
        tables = {}
        for route in ("series", "dk"):
            out = tmp_path / f"{route}.csv"
            argv = ["kernel", "--route", route, "--t", "0.2", "--level", "1",
                    "--alpha", "0.5", "--beta", "2", "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error", AccuracyWarning)
                assert main(argv) == 0
            _, _, data = read_table(out)
            tables[route] = np.array([[float(x) for x in row] for row in data])
        dk, series = tables["dk"], tables["series"]
        assert np.array_equal(dk[:, :3], series[:, :3])
        scale = np.abs(series[:, 3])
        for j in range(3, dk.shape[1]):
            assert np.max(np.abs(dk[:, j] - series[:, j]) / scale) < 1e-6

    @pytest.mark.parametrize("route", ["series", "dk", "both"])
    def test_route_computes_only_written_columns(self, tmp_path, monkeypatch, route):
        """Per table, every column is computed once over the whole grid.  The
        series columns read two recurrence passes: one over the distinct
        |theta| that stacks (alpha, beta) with (alpha + 1, beta + 1) where
        H_tilde is a series column, and one of (alpha, beta) over the mass
        nodes.  The dk route makes one dk H and one dk H_tilde call; `both`
        adds one dk H call and no dk H_tilde; the series route makes none."""
        passes, calls = [], {}
        inner_rows = core.recurrence_rows

        def stacked(out, x, families):
            passes.append(len(families))
            return inner_rows(out, x, families)

        monkeypatch.setattr(core, "recurrence_rows", stacked)
        for name in ("tilde_kernel", "poisson_kernel_dk_auto"):
            inner = getattr(cli, name)

            def counted(*args, _name=name, _inner=inner, **kw):
                key = (_name, kw.get("route", "series")) if _name == "tilde_kernel" else _name
                calls[key] = calls.get(key, 0) + 1
                return _inner(*args, **kw)

            monkeypatch.setattr(cli, name, counted)
        out = tmp_path / "kernel.csv"
        argv = ["kernel", "--route", route, "--t", "0.8", "--level", "1", "--out", str(out)]
        assert main(argv) == 0
        read_table(out)
        assert passes == ([1, 1] if route == "dk" else [2, 1])
        want = {
            ("tilde_kernel", "series"): 0,
            ("tilde_kernel", "dk"): 1 if route == "dk" else 0,
            "poisson_kernel_dk_auto": 0 if route == "series" else 1,
        }
        assert {k: calls.get(k, 0) for k in want} == want

    @pytest.mark.parametrize("t", [0.2, 2.0])
    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.5, 2.0), (8.0, 7.5)])
    @pytest.mark.parametrize("level", [1, 2])
    def test_series_table_is_the_per_column_calls(self, tmp_path, level, alpha, beta, t):
        """The series table is, byte for byte, the one assembled from the
        public per-column calls: poisson_kernel_series and tilde_kernel on
        the outer signed grid, and the mass from poisson_kernel_series over
        |theta| x the mass nodes, integrated per row.  So summing on the
        distinct |theta| and gathering back moves no bit."""
        out = tmp_path / "kernel.csv"
        argv = ["kernel", "--route", "series", "--alpha", repr(alpha), "--beta", repr(beta),
                "--t", repr(t), "--level", str(level), "--out", str(out)]
        assert main(argv) == 0
        _, _, data = read_table(out)
        params = JacobiParams(alpha, beta)
        theta = cli._sym_grid(level, size_exp=2)
        half = poisson_kernel_series(params, t, theta[:, None], theta[None, :])
        odd = tilde_kernel(params, t, theta[:, None], theta[None, :])
        rule = mu_plus_rule(params, cli.MASS_NODES)
        kern = poisson_kernel_series(params, t, np.abs(theta)[:, None], rule.nodes[None, :])
        mass = np.repeat([rule.integrate(row) for row in kern], theta.size)
        th, ph = np.meshgrid(theta, theta, indexing="ij")
        cols = [th.ravel(), ph.ravel(), half.ravel(), odd.ravel(), (half + odd).ravel(), mass]
        assert data == [[repr(t)] + [repr(float(c)) for c in row] for row in zip(*cols)]

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("kernel_a0.5_b2_t0.2_both.csv",
             ["--alpha", "0.5", "--beta", "2", "--t", "0.2", "--route", "both"]),
            ("kernel_a-0.5_b-0.5_t0.5_series.csv",
             ["--alpha", "-0.5", "--beta", "-0.5", "--t", "0.5", "--route", "series"]),
            ("kernel_t2.0_dk.csv", ["--t", "2.0", "--route", "dk"]),
        ],
    )
    def test_golden_tables(self, tmp_path, name, argv):
        """A level-1 table of each route is byte-identical to the committed
        reference table."""
        out = tmp_path / name
        assert main(["kernel", "--level", "1"] + argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / name).read_bytes()


class TestOperatorTable:
    def test_semigroup_on_input_file(self, tmp_path):
        src = tmp_path / "c.csv"
        src.write_text("coeff\n1.0\n0.0\n0.5\n")
        out = tmp_path / "o.csv"
        rc = main(
            ["operator", "--op", "semigroup", "--t", "0.5",
             "--input", str(src), "--out", str(out)]
        )
        assert rc == 0
        _, header, data = read_table(out)
        assert header == ["n", "value"]
        got = np.array([float(row[1]) for row in data])
        lam = mode_eigenvalues(JacobiParams(0.0, 0.0), 3)
        assert_allclose(got, np.array([1.0, 0.0, 0.5]) * np.exp(-0.5 * np.sqrt(lam)))

    def test_semigroup_at_infinite_time(self, capsys):
        """operator --t still takes infinity: on the critical line the
        bottom mode survives and every other mode is gone."""
        argv = ["operator", "--op", "semigroup", "--t", "inf", "--nmax", "3",
                "--alpha", "-0.5", "--beta", "-0.5"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [float(row.split(",")[1]) for row in rows] == [1.0, 0.0, 0.0, 0.0]

    def test_semigroup_at_nan_time_fails(self, capsys):
        """operator --t nan is an error naming the value, with no rows
        written."""
        assert main(["operator", "--op", "semigroup", "--t", "nan", "--nmax", "3"]) == 1
        captured = capsys.readouterr()
        assert "time must be nonnegative, got nan" in captured.err
        assert captured.out == ""

    def test_reads_own_output_and_header_rows(self, tmp_path):
        """A coefficient table written by the tool (echo line, n,value header)
        reads back as the same coefficients."""
        first = tmp_path / "first.csv"
        assert main(["operator", "--op", "semigroup", "--t", "0", "--nmax", "5",
                     "--out", str(first)]) == 0
        second = tmp_path / "second.csv"
        assert main(["operator", "--op", "semigroup", "--t", "0",
                     "--input", str(first), "--out", str(second)]) == 0
        _, _, data = read_table(second)
        assert_allclose([float(row[1]) for row in data], 0.5 ** np.arange(6))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("n,value\n0,np.float64(0.3)\n1,np.float64(0.5)\n", 2),
            ("0,1.0\n1,abc\n2,0.5\n", 2),
        ],
    )
    def test_bad_row_fails_with_line(self, tmp_path, capsys, text, line):
        """A row that does not parse is an error naming the file and line,
        never a silently dropped coefficient."""
        src = tmp_path / "c.csv"
        src.write_text(text)
        rc = main(["operator", "--op", "semigroup", "--input", str(src)])
        assert rc == 1
        assert f"{src}:{line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN"])
    def test_nonfinite_row_fails_with_line(self, tmp_path, capsys, field):
        """A nan or inf coefficient is refused with its file and line, not
        passed through to the output."""
        src = tmp_path / "c.csv"
        src.write_text(f"n,value\n0,1.0\n1,{field}\n")
        assert main(["operator", "--op", "semigroup", "--input", str(src)]) == 1
        assert f"{src}:3: last field {field!r} is not a finite number" in capsys.readouterr().err

    def test_multiplier_matches_inverse_root(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = main(
            ["operator", "--op", "multiplier", "--alpha", "0.5", "--beta", "0.5",
             "--nmax", "4", "--out", str(out)]
        )
        assert rc == 0
        _, _, data = read_table(out)
        got = np.array([float(row[1]) for row in data])
        coeffs = 0.5 ** np.arange(5)
        lam = mode_eigenvalues(JacobiParams(0.5, 0.5), 5)
        assert_allclose(got[1:], coeffs[1:] * lam[1:] ** -0.25, rtol=1e-6)

    def test_pointwise_ops_emit_theta_rows(self, tmp_path):
        for op in ("maximal", "gfun"):
            out = tmp_path / f"{op}.csv"
            rc = main(
                ["operator", "--op", op, "--nmax", "4", "--level", "1",
                 "--M", "1", "--N", "1", "--out", str(out)]
            )
            assert rc == 0
            _, header, data = read_table(out)
            assert header == ["theta", "value"]
            assert len(data) == 2**4 - 1
            assert all(float(row[1]) >= 0.0 for row in data)


class TestVerifyReports:
    FAST_SUITES = ("basis", "kernels", "operators", "ap")

    def test_fast_suites_pass_with_valid_schema(self, tmp_path):
        for suite in self.FAST_SUITES:
            path = tmp_path / f"{suite}.json"
            rc = main(["verify", "--suite", suite, "--out", str(path)])
            assert rc == 0, suite
            report = json.loads(path.read_text())
            assert report["schema_version"] == "1"
            assert report["passed"] is True and report["failures"] == []
            assert report["suite"] == suite
            for entry in report["results"]:
                assert set(entry) >= {"estimate_id", "levels", "verdict"}
                for lv in entry["levels"]:
                    assert set(lv) == {"level", "sup", "argmax"}
                    assert isinstance(lv["level"], int)

    @pytest.mark.parametrize("nmax, nodes", [(16, 256), (112, 256), (120, 272)])
    def test_basis_suite_sizes_gram_rule_from_nmax(self, tmp_path, nmax, nodes):
        """The Gram rule has 256 half-line nodes, or 2*nmax + 32 when that is
        more, so it never drops below the nmax/2 + 2 that integrate the Gram
        matrix exactly; the report records the count used."""
        path = tmp_path / "basis.json"
        argv = ["verify", "--suite", "basis", "--nmax", str(nmax), "--out", str(path)]
        assert main(argv) == 0
        report = json.loads(path.read_text())
        assert report["nodes"] == nodes
        assert [e["estimate_id"] for e in report["results"]] == [
            "BasisOrthonormality", "BasisRoundtrip"
        ]

    def test_report_to_stdout_by_default(self, capsys):
        assert main(["verify", "--suite", "basis"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == "1"

    def test_reports_are_byte_identical(self, tmp_path):
        for suite in ("kernels", "ap"):
            a, b = tmp_path / "a.json", tmp_path / "b.json"
            argv = ["verify", "--suite", suite, "--seed", "11"]
            assert main(argv + ["--out", str(a)]) == 0
            assert main(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_stamp_isolated_in_header(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--suite", "basis", "--out", str(a)]) == 0
        assert main(["verify", "--suite", "basis", "--stamp", "--out", str(b)]) == 0
        plain = json.loads(a.read_text())
        stamped = json.loads(b.read_text())
        assert "generated_at" not in plain
        assert stamped.pop("generated_at")
        assert stamped == plain

    def test_ap_suite_flags_out_of_window_weight(self, tmp_path):
        path = tmp_path / "ap.json"
        assert main(["verify", "--suite", "ap", "--out", str(path)]) == 0
        report = json.loads(path.read_text())
        verdicts = {e["member"]: e["verdict"] for e in report["results"]}
        assert verdicts[True] == "stable"
        assert verdicts[False] == "diverging"

    @pytest.mark.parametrize("alpha, beta", [(-0.9, -0.9), (-0.7, 0.5)])
    def test_ap_probe_clears_narrow_window(self, tmp_path, alpha, beta):
        """At alpha near -1 the window (-(2 alpha + 2), 2 alpha + 2) is narrow;
        the out-of-window probe sits at least 1/2 past it and diverges."""
        path = tmp_path / "ap.json"
        argv = ["verify", "--suite", "ap", "--alpha", str(alpha), "--beta", str(beta),
                "--out", str(path)]
        assert main(argv) == 0
        report = json.loads(path.read_text())
        verdicts = {e["member"]: e["verdict"] for e in report["results"]}
        assert verdicts == {True: "stable", False: "diverging"}
        probe = next(e for e in report["results"] if not e["member"])
        assert probe["weight"][0] == pytest.approx(2.0 * alpha + 2.0 + 0.5)

    @pytest.mark.parametrize("alpha, beta", [(6.0, 2.0), (2.0, 6.0)])
    def test_split_identity_relative_to_kernel_size(self, tmp_path, alpha, beta):
        """Here |HH| reaches 1e5-1e7, so rounding alone leaves absolute
        split-identity gaps above 1e-10; the gap is judged relative to the
        largest sampled |HH|."""
        path = tmp_path / "kernels.json"
        argv = ["verify", "--suite", "kernels", "--alpha", str(alpha), "--beta", str(beta),
                "--out", str(path)]
        assert main(argv) == 0
        report = json.loads(path.read_text())
        entry = next(e for e in report["results"] if e["estimate_id"] == "KernelSplitIdentity")
        assert entry["verdict"] == "stable" and entry["levels"][0]["sup"] < 1e-13

    def test_module_error_exits_one(self, capsys, tmp_path, monkeypatch):
        """A suite that raises ends the run with exit 1, and the report keeps
        the entries of the suites that finished before it."""

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._SUITE_FUNCS, "kernels", broken)
        path = tmp_path / "r.json"
        rc = main(["verify", "--suite", "all", "--out", str(path)])
        assert rc == 1
        assert "RuntimeError: boom" in capsys.readouterr().err
        report = json.loads(path.read_text())
        assert report["passed"] is False
        assert report["error"] == "suite kernels: RuntimeError: boom"
        assert report["failures"] == []
        ids = [e["estimate_id"] for e in report["results"]]
        assert ids == ["BasisOrthonormality", "BasisRoundtrip"]

    def test_nonfinite_sup_is_null_and_inconclusive(self, tmp_path):
        """Just above alpha = -1 the Gram rule has a node outside [-1, 1], so
        both basis checks have a NaN sup.  The report stays strict JSON: the
        sup is written as null, the verdict is inconclusive, and the run
        exits 1."""

        def no_constant(name):
            raise ValueError(f"report holds the non-JSON constant {name}")

        path = tmp_path / "basis.json"
        argv = ["verify", "--suite", "basis", "--alpha", "-0.9999999999999999",
                "--beta", "-0.5", "--out", str(path)]
        with np.errstate(invalid="ignore"):
            assert main(argv) == 1
        report = json.loads(path.read_text(), parse_constant=no_constant)
        assert report["passed"] is False
        assert report["failures"] == [
            "BasisOrthonormality: sup nan is not finite",
            "BasisRoundtrip: sup nan is not finite",
        ]
        for entry in report["results"]:
            assert entry["verdict"] == "inconclusive"
            assert entry["levels"][0]["sup"] is None

    @pytest.mark.parametrize("suite", ["kernels", "estimates"])
    def test_product_checks_skipped_below_minus_half(self, tmp_path, suite):
        """Outside alpha, beta >= -1/2 the product-formula checks are written
        as skipped entries with a reason; the series-route checks still run."""
        path = tmp_path / f"{suite}.json"
        argv = ["verify", "--suite", suite, "--alpha", "-0.9", "--beta", "-0.9",
                "--level", "1", "--out", str(path)]
        assert main(argv) == 0
        report = json.loads(path.read_text())
        assert report["passed"] is True and "error" not in report
        skipped = [e for e in report["results"] if e["verdict"] == "skipped"]
        ran = {e["estimate_id"] for e in report["results"] if e["verdict"] != "skipped"}
        for entry in skipped:
            assert entry["levels"] == [] and "alpha, beta >= -1/2" in entry["reason"]
        if suite == "kernels":
            assert [e["estimate_id"] for e in skipped] == ["KernelRouteAgreement"]
            assert ran == {"KernelSplitIdentity", "KernelHalfMass", "KernelFullMass"}
        else:
            assert len(skipped) == 20 + 3
            assert {e["estimate_id"] for e in skipped if "kernel_id" not in e} == {
                "Bridge1", "Bridge2", "L43Star"
            }
            assert ran == {"Trig", "Comp", "Asympt", "EstimatesA", "EstimatesB"}

    def test_entry_builders_record_failures(self):
        failures = []
        entry = _check_entry("BasisOrthonormality", 1, 2.0, (0, 0), 1.0, failures)
        assert entry["verdict"] == "diverging" and len(failures) == 1
        rep = EstimateReport("Growth", 1, 1.0, 10, (0.5, 0.6))
        entry = _ladder_entry("Growth", LadderResult((rep,), "inconclusive"), failures)
        assert entry["levels"][0]["argmax"] == [0.5, 0.6]
        assert len(failures) == 2
        entry = _check_entry("BasisRoundtrip", 1, np.inf, (0,), 1.0, failures)
        assert entry["verdict"] == "inconclusive"
        assert failures[-1] == "BasisRoundtrip: sup inf is not finite"


class TestApCheck:
    def test_member_and_nonmember(self, capsys, tmp_path):
        out = tmp_path / "ladder.csv"
        rc = main(["ap-check", "--r", "1", "--s", "-1", "--out", str(out)])
        assert rc == 0
        assert "ladder verdict: stable" in capsys.readouterr().out
        _, header, data = read_table(out)
        assert header == ["depth", "constant"]
        assert [int(row[0]) for row in data] == [3, 4, 5, 6]

        rc = main(["ap-check", "--r", "2.5", "--s", "0"])
        assert rc == 0
        assert "ladder verdict: diverging" in capsys.readouterr().out

    def test_p_one_endpoint(self, capsys):
        rc = main(["ap-check", "--r", "-0.5", "--s", "0", "--p", "1"])
        assert rc == 0
        assert "predicts: member" in capsys.readouterr().out

    @pytest.mark.parametrize("r, s", [("0.5", "0"), ("0", "0.25")])
    def test_p_one_weight_with_a_zero_diverges(self, capsys, r, s):
        """Outside the A_1 window by a zero of w (theta = 0 for r > 0, +-pi
        for s > 0), the constants are +inf at every depth and the ladder
        diverges, as the window predicts."""
        rc = main(["ap-check", "--r", r, "--s", s, "--p", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ladder verdict: diverging" in out
        assert out.count(": inf\n") == 4


def test_workflow_console_script_lines_run(capsys):
    """Every console-script line of the CI workflow, in both jobs, exits 0
    through cli.main, so a renamed flag or command fails here and not only
    on the CI runner."""
    lines = [m.group(1) for line in WORKFLOW.read_text().splitlines()
             if (m := SCRIPT_LINE.match(line.strip()))]
    assert len(lines) >= 11
    for line in lines:
        assert main(shlex.split(line)) == 0, line
        capsys.readouterr()
