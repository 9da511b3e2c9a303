"""End-to-end runs of the command-line driver through main(argv)."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from trunceig import check_condition, parse_constraint, parse_kernel, parse_pfunction, spectral
from trunceig.cli import MAX_MODES, _build_parser, _csv, main
from trunceig.regularize import truncation_identity, truncation_weighted
from trunceig.spectral import MAX_ORDER


def run_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:] if not line.startswith("#")]


def test_spectrum_triangular_analytic_column(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--kernel", "triangular", "--n-nodes", "200",
               "--n-modes", "5", "--output", str(out)])
    assert rc == 0
    header, rows = run_rows(out)
    assert header == "k,lambda,lambda_analytic,rel_err"
    assert len(rows) == 5
    assert rows[0][0] == "1"
    assert rows[0][2] == "0.101321184"  # 1/pi^2 at nine significant digits
    for row in rows:
        assert float(row[3]) < 1e-3
    lam = [float(r[1]) for r in rows]
    assert lam == sorted(lam, reverse=True)


def test_spectrum_sinc_leaves_analytic_cells_empty(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--kernel", "sinc:c=2", "--n-nodes", "60",
               "--n-modes", "4", "--output", str(out)])
    assert rc == 0
    header, rows = run_rows(out)
    assert len(rows) == 4
    for row in rows:
        assert row[2] == "" and row[3] == ""
    assert float(rows[0][1]) > 0.5


def test_truncate_closed_form_counts(tmp_path):
    out = tmp_path / "tr.csv"
    rc = main(["truncate", "--kernel", "triangular", "--n-modes", "80",
               "--constraint", "derivative", "--eps-grid", "1e-2,1e-3,1e-4",
               "--output", str(out)])
    assert rc == 0
    header, rows = run_rows(out)
    assert header == "eps,k1,k2"
    assert [(r[1], r[2]) for r in rows] == [("3", "1"), ("10", "3"), ("31", "6")]


def _table(path, sign=1.0, n=60, a=-0.5, b=1.0):
    """A tabulated kernel: sign times the triangular kernel moved to [a, b]."""
    grid = spectral.gauss_legendre(n, a, b)
    lo, hi = np.minimum.outer(grid.nodes, grid.nodes), np.maximum.outer(grid.nodes, grid.nodes)
    path.write_text(json.dumps({"a": a, "b": b, "nodes": grid.nodes.tolist(),
                                "weights": grid.weights.tolist(),
                                "samples": (sign * (lo - a) * (b - hi) / (b - a)).tolist()}))
    return f"tabulated:{path}"


@pytest.mark.parametrize("tabulated", [False, True], ids=["sinc", "tabulated"])
def test_truncate_on_discretized_kernels(tmp_path, capsys, tabulated):
    # Kernels without closed-form eigenvalues keep the first --n-modes
    # positive eigenvalues of their discretization.
    if tabulated:
        kernel, constraint = _table(tmp_path / "table.json"), "derivative"
    else:
        kernel, constraint = "sinc:c=10", "sinc_log:c=10"
    assert main(["truncate", "--kernel", kernel, "--n-nodes", "200", "--n-modes", "30",
                 "--constraint", constraint]) == 0
    lines = capsys.readouterr().out.splitlines()
    spec = parse_kernel(kernel)
    lam = spectral.spectral_eigenvalues(spec.kernel,
                                        spec.grid or spectral.gauss_legendre(200, spec.a, spec.b))
    lam = lam[lam > 0][:30]
    assert lam.size == (30 if tabulated else 16)  # sinc keeps 16 positive eigenvalues here
    beta = parse_constraint(constraint, lam.size)
    rows = [(eps, truncation_identity(lam, eps, 1.0), truncation_weighted(lam, beta, eps, 1.0))
            for eps in (1e-2, 1e-3, 1e-4)]
    assert lines == ["eps,k1,k2"] + [f"{eps:g},{k1},{k2}" for eps, k1, k2 in rows]
    assert len({k for row in rows for k in row[1:]}) > 2  # the cutoffs move with eps


def test_tabulated_kernel_rule_errors(tmp_path, capsys):
    kernel = _table(tmp_path / "negative.json", sign=-1.0)
    assert main(["truncate", "--kernel", kernel]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: kernel has no positive retained eigenvalues\n"


def test_sweep_pinned_header_and_inequalities(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--kernel", "triangular", "--n-modes", "80",
               "--constraint", "derivative", "--E", "1", "--seed", "0",
               "--output", str(out)])
    assert rc == 0
    header, rows = run_rows(out)
    assert header == ("eps,k1,k2,err_f1_weak_bound,err_f2,bound_sqrt2_M,"
                      "lemma6_ok,lemma7_ok,H_bits_k1,H_bits_k2")
    assert [r[1] for r in rows] == ["3", "10", "31", "80", "80"]
    assert [r[2] for r in rows] == ["1", "3", "6", "14", "31"]
    for row in rows:
        assert row[6] == "true" and row[7] == "true"
        assert float(row[4]) <= float(row[5])  # reconstruction error under the cap
        assert float(row[8]) >= float(row[9]) >= 0.0
    # Bit count of the plain rule at eps = 1e-2 matches the entropy bound value.
    assert float(rows[0][8]) == pytest.approx(4.852666791047949, abs=1e-3)


def test_entropy_command(tmp_path):
    out = tmp_path / "ent.csv"
    rc = main(["entropy", "--kernel", "triangular", "--n-modes", "80",
               "--constraint", "derivative", "--eps-grid", "1e-2,1e-3",
               "--output", str(out)])
    assert rc == 0
    header, rows = run_rows(out)
    assert header == "eps,k1,bits_k1,k2,bits_k2,bit_diff"
    assert rows[0][1] == "3" and rows[0][3] == "1"
    assert float(rows[0][2]) == pytest.approx(4.852666791047949, abs=1e-6)
    for row in rows:
        diff = float(row[2]) - float(row[4])
        assert float(row[5]) == pytest.approx(diff, abs=1e-6)
        assert diff >= 0.0


def test_stability_command_with_classification(tmp_path):
    out = tmp_path / "st.csv"
    rc = main(["stability", "--kernel", "triangular", "--n-modes", "50",
               "--constraint", "derivative", "--p", "power:gamma=0.3333333333333333",
               "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,bound,exact_sup,condition_ok"
    body = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    for row in body:
        assert float(row[2]) <= float(row[1]) * (1.0 + 1e-9)
        assert row[3] == "true"
    tail = lines[-1]
    assert tail.startswith("# classification: model=holder exponent=")
    exponent = float(tail.split("exponent=")[1].split()[0])
    assert 0.30 <= exponent <= 0.37


@pytest.mark.parametrize("options, ok", [
    (["--constraint", "derivative"], True),
    (["--constraint", "derivative", "--n-modes", "30"], True),
    (["--constraint", "power:p=0.1", "--p", "explog"], False),
], ids=["derivative", "derivative-K-30", "power-explog"])
def test_stability_condition_column_matches_check_condition(capsys, options, ok):
    # The condition does not depend on eps: every row carries one verdict.
    assert main(["stability", "--n-modes", "60", *options]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:-1]]
    argv = dict(zip(options[::2], options[1::2]))
    K = int(argv.get("--n-modes", 60))
    lam = 1.0 / (np.arange(1, K + 1) * math.pi) ** 2
    beta = parse_constraint(argv["--constraint"], K)
    pfun = parse_pfunction(argv.get("--p", "power:gamma=0.3333333333333333"))
    assert check_condition(lam, beta, pfun)[0] is ok
    assert len(rows) == 6
    assert all(row[3] == ("true" if ok else "false") for row in rows)


def test_stability_classification_unavailable_on_a_short_grid(capsys):
    assert main(["stability", "--eps-grid", "1e-2,1e-3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[-1] == "# classification: unavailable (need at least five grid points)"


@pytest.mark.parametrize("argv, err", [
    (["truncate", "--eps-grid", ","], "error: expected a comma-separated list of numbers\n"),
    (["sweep", "--f-decay", "1"], "error: expected two comma-separated numbers\n"),
], ids=["empty-eps-grid", "one-number-f-decay"])
def test_number_list_errors_exit_2(capsys, argv, err):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_cover_command_square(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n1,0\n0,1\n1,1\n0.5,0.5\n")
    out = tmp_path / "cover.txt"
    rc = main(["cover", "--points", str(pts), "--eps", "1.2", "--output", str(out)])
    assert rc == 0
    assert out.read_text() == "N=1, M=2, holds=true\n"

    rc = main(["cover", "--points", str(pts), "--eps", "0.6", "--output", str(out)])
    assert rc == 0
    assert out.read_text() == "N=5, M=5, holds=true\n"


@pytest.mark.parametrize("content", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_cover_on_an_empty_points_file_exits_2(tmp_path, capsys, content):
    # numpy's loadtxt used to print a UserWarning before the error line.
    pts = tmp_path / "pts.csv"
    pts.write_text(content)
    assert main(["cover", "--points", str(pts), "--eps", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: points must form a non-empty 2-d array\n"


@pytest.mark.parametrize("content", ["0,0\n1,0\nnan,0\n", "0,0\ninf,1\n"], ids=["nan", "inf"])
def test_cover_on_non_finite_points_exits_2(tmp_path, capsys, content):
    # The nan file used to print N=3, M=2, holds=false and the inf file
    # N=2, M=2, both with exit 0.
    pts = tmp_path / "pts.csv"
    pts.write_text(content)
    assert main(["cover", "--points", str(pts), "--eps", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: points must be finite\n"


@pytest.mark.parametrize("eps, rc, out, err", [
    ("1.2e200", 0, "N=1, M=2, holds=true\n", ""),
    ("nan", 2, "", "error: need finite eps >= 0\n"),
    ("-1", 2, "", "error: need finite eps >= 0\n"),
], ids=["eps-1.2e200", "eps-nan", "eps-negative"])
def test_cover_at_coordinates_whose_squares_overflow(tmp_path, capsys, eps, rc, out, err):
    # Squared differences near 1e200 used to overflow with a RuntimeWarning,
    # printed even before --eps nan was rejected.  A bad --eps gets the message
    # of the one eps check (it read "eps must be finite and non-negative").
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n1e200,0\n0,1e200\n")
    assert main(["cover", "--points", str(pts), "--eps", eps]) == rc
    assert capsys.readouterr() == (out, err)


def test_simulate_is_deterministic(tmp_path):
    args = ["simulate", "--kernel", "triangular", "--n-modes", "40",
            "--constraint", "derivative", "--eps", "1e-3", "--seed", "5"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    third = tmp_path / "c.json"
    assert main(args[:-1] + ["6", "--output", str(third)]) == 0
    assert third.read_bytes() != first.read_bytes()


def test_simulate_solve_round_trip_noise_free(tmp_path):
    inst = tmp_path / "inst.json"
    rc = main(["simulate", "--kernel", "triangular", "--n-modes", "12",
               "--constraint", "identity", "--eps", "0", "--f-coeffs", "1",
               "--seed", "3", "--output", str(inst)])
    assert rc == 0
    payload = json.loads(inst.read_text())
    lam = np.asarray(payload["eigenvalues"])
    g = np.asarray(payload["g_noisy"])
    f = np.asarray(payload["f_true"])
    assert np.array_equal(g, lam * f)  # eps = 0 leaves no room for noise

    out = tmp_path / "sol.csv"
    rc = main(["solve", "--instance", str(inst), "--rule", "k1", "--output", str(out)])
    assert rc == 0
    header, rows = run_rows(out)
    assert header == "k,lambda_k,beta_k,f_k,gbar_k,fhat_k"
    assert len(rows) == 12
    for row in rows:
        assert row[5] == row[3]  # exact inversion of noise-free data


def test_solve_zeroes_beyond_cutoff(tmp_path):
    inst = tmp_path / "inst.json"
    assert main(["simulate", "--kernel", "triangular", "--n-modes", "40",
                 "--constraint", "derivative", "--eps", "1e-3", "--seed", "2",
                 "--output", str(inst)]) == 0
    out = tmp_path / "sol.csv"
    assert main(["solve", "--instance", str(inst), "--rule", "k2",
                 "--output", str(out)]) == 0
    _, rows = run_rows(out)
    fhat = [float(r[5]) for r in rows]
    assert all(v == 0.0 for v in fhat[3:])  # k2 = 3 at this noise level
    assert any(v != 0.0 for v in fhat[:3])
    k1_val = float(rows[0][4]) / float(rows[0][1])
    assert fhat[0] == pytest.approx(k1_val, rel=1e-8)


def test_config_file_sets_defaults_but_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps_grid": "1e-2", "constraint": "derivative"}))
    out = tmp_path / "tr.csv"
    assert main(["truncate", "--kernel", "triangular", "--n-modes", "80",
                 "--config", str(cfg), "--output", str(out)]) == 0
    _, rows = run_rows(out)
    assert len(rows) == 1 and rows[0][2] == "1"

    assert main(["truncate", "--kernel", "triangular", "--n-modes", "80",
                 "--config", str(cfg), "--eps-grid", "1e-2,1e-3",
                 "--output", str(out)]) == 0
    _, rows = run_rows(out)
    assert len(rows) == 2


def test_csv_reads_each_column_kind_once():
    text = _csv("none,flag,int,np_int,float", None, np.array([True, False, True]), [3, -4, 0],
                np.array([5, 2**62, -1]), np.array([-0.0, 1e-300, 1e308]))
    assert text == ("none,flag,int,np_int,float\n"
                    ",true,3,5,-0\n"
                    ",false,-4,4611686018427387904,1e-300\n"
                    ",true,0,-1,1e+308\n")
    assert _csv("k,lambda", np.arange(1, 1), np.zeros(0)) == "k,lambda\n"


def test_default_output_is_stdout(capsys):
    rc = main(["truncate", "--kernel", "triangular", "--n-modes", "10",
               "--eps-grid", "1e-2"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("eps,k1,k2\n")


def test_exit_codes(tmp_path, capsys):
    assert main(["spectrum", "--kernel", "gaussian"]) == 2
    assert main(["truncate", "--constraint", "wat:x=1"]) == 2
    assert main(["simulate", "--f-coeffs", "0,0,0"]) == 3
    assert main(["solve", "--instance", str(tmp_path / "missing.json")]) == 4
    assert main(["truncate", "--output", str(tmp_path / "no-dir" / "x.csv")]) == 4
    assert main(["bogus-command"]) == 2
    assert main(["truncate", "--bogus-flag", "1"]) == 2
    assert main(["simulate", "--n-modes", "2", "--f-coeffs", "1,2,3"]) == 2

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{not json")
    assert main(["truncate", "--config", str(bad_cfg)]) == 2
    list_cfg = tmp_path / "list.json"
    list_cfg.write_text("[1, 2]")
    assert main(["truncate", "--config", str(list_cfg)]) == 2
    assert main(["truncate", "--config"]) == 2
    capsys.readouterr()  # swallow the accumulated argparse chatter
    assert main(["truncate", "--config", str(tmp_path / "nope.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: I/O failure: ") and "nope.json" in err


@pytest.mark.parametrize("argv, code, usage, fragment", [
    (["truncate", "--con", "derivative"], 2, "usage: trunceig truncate",
     "ambiguous option: --con could match --config, --constraint"),
    (["truncate", "--help", "--config", "MISSING"], 0, "usage: trunceig truncate", ""),
    (["--config", "MISSING", "truncate"], 2, "usage: trunceig [-h]", "invalid choice: "),
    (["truncate", "--config"], 2, "usage: trunceig truncate",
     "argument --config: expected one argument"),
], ids=["abbreviation", "help", "before-subcommand", "no-value"])
def test_config_is_read_after_the_subcommand_parse(tmp_path, capsys, argv, code, usage, fragment):
    # The subcommand's parser alone reads argv: it decides abbreviations, --help and where
    # --config may stand, and no missing --config file is opened before it has.
    argv = [str(tmp_path / "missing.json") if arg == "MISSING" else arg for arg in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    text = captured.out if code == 0 else captured.err
    assert text.startswith(usage) and fragment in captured.err
    assert "I/O failure" not in captured.err


@pytest.mark.parametrize("field", ["beta", "eigenvalues", "f_true", "g_noisy", "eps", "E"])
def test_solve_rejects_non_finite_instance(tmp_path, capsys, field):
    inst = tmp_path / "inst.json"
    assert main(["simulate", "--n-modes", "10", "--constraint", "derivative",
                 "--output", str(inst)]) == 0
    payload = json.loads(inst.read_text())
    if isinstance(payload[field], list):
        payload[field][3] = math.nan
    else:
        payload[field] = math.nan
    inst.write_text(json.dumps(payload))  # written as the NaN literal json reads back
    assert main(["solve", "--instance", str(inst)]) == 2
    assert capsys.readouterr().out == ""


FINITE_ERROR = "error: need finite eps > 0 and E > 0\n"


def _range_error(what, eps, E):
    return f"error: {what} is not a finite, normal double at eps = {eps}, E = {E}\n"


@pytest.mark.parametrize("argv, err", [
    (["truncate", "--eps-grid", "nan,1e-3"], "error: expected finite numbers\n"),
    (["entropy", "--E", "nan"], FINITE_ERROR),
    (["stability", "--eps-grid", "nan,1e-2,1e-3,1e-4,1e-5"], "error: expected finite numbers\n"),
    (["stability", "--E", "inf"], FINITE_ERROR),
    (["stability", "--constraint", "derivative", "--E", "1e-300", "--n-modes", "10"],
     _range_error("(eps/E)^2", "0.01", "1e-300")),
    (["sweep", "--constraint", "derivative", "--E", "1e-300", "--n-modes", "10"],
     _range_error("(eps/E)^2", "0.01", "1e-300")),
    (["simulate", "--constraint", "derivative", "--E", "1e300", "--n-modes", "10"], ""),
    (["simulate", "--constraint", "derivative", "--E", "1e300", "--n-modes", "10",
      "--no-tight"], ""),
    (["stability", "--constraint", "derivative", "--E", "1e308", "--n-modes", "10"],
     _range_error("(eps/E)^2", "0.01", "1e+308")),
    (["entropy", "--constraint", "derivative", "--E", "1e308"], ""),
    (["sweep", "--constraint", "derivative", "--E", "1e308", "--n-modes", "10"],
     _range_error("(eps/E)^2", "0.01", "1e+308")),
], ids=["truncate-nan-eps", "entropy-nan-E", "stability-nan-eps", "stability-inf-E",
        "stability-E-1e-300", "sweep-E-1e-300", "simulate-E-1e300", "simulate-no-tight-E-1e300",
        "stability-E-1e308", "entropy-E-1e308", "sweep-E-1e308"])
@pytest.mark.filterwarnings("error")
def test_non_finite_eps_or_E_exits_2(capsys, argv, err):
    # Beyond finiteness, (eps/E)^2 must be a normal double where the stability layer
    # forms it: an overflow or underflow there exits 2 with one line.  No other step
    # forms a square of eps or E.  A bit count is a sum of logarithms, finite at every
    # scale, so entropy at E = 1e308, which exited 2 because E lambda_k / eps overflowed,
    # now prints its bits, and simulate at E = 1e300, refused by an E^2 rule that named
    # a square no code formed, writes its instance (err "" marks exit 0;
    # tests/test_overflow_contract.py checks those bits against decimal).
    assert main(argv) == (2 if err else 0)
    captured = capsys.readouterr()
    assert (captured.out == "") == bool(err)
    assert captured.err == err


@pytest.mark.filterwarnings("error")
def test_stability_at_tiny_eps_and_E(capsys):
    # eps^2 and E^2 underflow here, though eps/E does not: exact_sup used to
    # print 0 below a positive bound, with four RuntimeWarnings.
    assert main(["stability", "--constraint", "derivative", "--E", "1e-160", "--eps-grid",
                 "1e-161,1e-162,1e-163,1e-164,1e-165", "--n-modes", "10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[1:-1]]
    assert len(rows) == 5
    for _, bound, exact_sup, _ in rows:
        assert 0 < float(exact_sup) <= float(bound) * (1 + 1e-9)


@pytest.mark.parametrize("argv, row", [
    (["--constraint", "derivative", "--E", "1e10", "--eps-grid", "1e160", "--n-modes", "5"],
     "1e+160,0,0,2.41959593e+10,2.73476431e+09,1.41421356e+60,true,true,0,0"),
    (["--E", "1.34e154", "--eps-grid", "1.3e153", "--n-modes", "3", "--f-coeffs", "0,0,1"],
     "1.3e+153,1,1,2.42976827e+154,1.34564545e+154,8.70761691e+153,true,true,"
     "0.0626572134,0.0626572134"),
], ids=["four-eps-squared", "err-f2"])
@pytest.mark.filterwarnings("error")
def test_sweep_where_a_square_overflows(capsys, argv, row):
    # 4 eps**2 raised OverflowError (exit 1) at eps = 1e160, and err_f2 printed
    # inf with a RuntimeWarning from np.linalg.norm where its true value,
    # math.hypot of the error on the seed-0 instance, is 1.34564545e+154.
    assert main(["sweep", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1] == row


def test_sweep_lemma_flags_where_eps_lies_below_the_rounding_of_gbar(capsys):
    # eps = 1e130 lies below u ||gbar|| (about 1e137) here: the report allowed no
    # rounding and printed false,false, though both lemmas hold.
    assert main(["sweep", "--E", "1e154", "--eps-grid", "1e130", "--n-modes", "20"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[6:8] == ["true", "true"]


@pytest.mark.filterwarnings("error")
def test_stability_where_lambda_over_eps_squared_overflows(tmp_path, capsys):
    # lambda_1 ~ 2.28 and (eps/E)^2 near the least normal double: lambda_1^2 / eps^2
    # overflowed, and exact_sup printed 0 at eps = 1.6e-154 with a RuntimeWarning.
    kernel = _table(tmp_path / "table.json", sign=10.0)
    assert main(["stability", "--kernel", kernel, "--constraint", "derivative", "--n-modes", "1",
                 "--E", "1", "--eps-grid", "1e-150,1e-151,1e-152,1e-153,1.6e-154"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[1:-1]]
    sups = [float(row[2]) for row in rows]
    # One mode whose noise side decides: sup = eps / lambda_1 on the whole grid.
    assert sups[-1] == pytest.approx(sups[0] * 1.6e-4, rel=1e-8)


@pytest.mark.filterwarnings("error")
def test_stability_at_tiny_lambda_and_eps(tmp_path, capsys):
    # A kernel scaled by 1e-90 at eps / E = 1e-90 has the suprema of the unscaled kernel
    # at eps / E = 1; they used to end in a ZeroDivisionError traceback.
    sups = []
    for sign, grid in ((1e-90, "1e-90,1e-91,1e-92,1e-93,1e-94"), (1.0, "1,0.1,0.01,1e-3,1e-4")):
        kernel = _table(tmp_path / "table.json", sign=sign)
        assert main(["stability", "--kernel", kernel, "--constraint", "derivative",
                     "--n-modes", "5", "--eps-grid", grid]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        sups.append([line.split(",")[2] for line in captured.out.splitlines()[1:-1]])
    assert sups[0] == sups[1] == ["0.318309886", "0.318309886", "0.159956283", "0.0749375579",
                                  "0.0108638113"]


@pytest.mark.filterwarnings("error")
def test_simulate_where_lambda_f_overflows_exits_3(tmp_path, capsys):
    # The rescaled f_1 is about 1e308 and lambda_1 ~ 2.28: lambda * f used to overflow
    # with a RuntimeWarning and exit 2 with "g_noisy must be finite".
    kernel = _table(tmp_path / "table.json", sign=10.0)
    assert main(["simulate", "--kernel", kernel, "--constraint", "power:p=0,scale=1e-158",
                 "--E", "1e150", "--f-coeffs", "1e10", "--n-modes", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: infeasible request: lambda_k f_k overflows at k = 1, "
                            "so the data cannot be formed\n")


@pytest.mark.filterwarnings("error")
def test_simulate_at_huge_eps(capsys):
    # ||noise||^2 overflows here; the noise check used to warn and pass vacuously.
    assert main(["simulate", "--eps", "1e200", "--n-modes", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["eps"] == 1e200


NOT_FINITE_ERROR = "error: infeasible request: solution coefficients are not finite\n"
DECAY_F = [c / math.sqrt(1 + 1 / 16 + 1 / 81) for c in (1.0, 1 / 4, 1 / 9)]  # f_k ~ k^-2, ||f|| = 1


@pytest.mark.parametrize("argv, want", [
    (["--f-coeffs", "1e200"], [1.0, 0.0, 0.0]),
    (["--f-coeffs", "1e200", "--no-tight"], [1.0, 0.0, 0.0]),
    (["--f-decay", "1e200,2"], DECAY_F),
    (["--f-coeffs", "1e-200"], [1.0, 0.0, 0.0]),
    (["--f-decay", "1,-1000"], NOT_FINITE_ERROR),
    (["--f-decay", "1e308,-5"], NOT_FINITE_ERROR),
], ids=["coeffs-overflow", "coeffs-overflow-no-tight", "decay-overflow", "coeffs-underflow",
        "decay-power-overflow", "decay-product-overflow"])
@pytest.mark.filterwarnings("error")
def test_simulate_names_a_budget_sum_out_of_range(capsys, argv, want):
    # sum beta^2 f^2 overflows or underflows in the first four cases, but ||beta f|| does
    # not, and the rescale by E / ||beta f|| is read from exponents: each writes f scaled
    # to the budget E = 1, where it exited 3 (and before that wrote an all-zero f).  A
    # decay law whose c k^-q overflows exits 3, with no RuntimeWarning.
    if isinstance(want, str):
        assert main(["simulate", "--n-modes", "3", *argv]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", want)
        return
    assert main(["simulate", "--n-modes", "3", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["f_true"] == pytest.approx(want, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_simulate_where_the_rescaled_f_underflows_exits_3(capsys):
    # E = 1e-320 is subnormal, so f_k E / ||f|| keeps too few digits to meet E to 5e-10.
    assert main(["simulate", "--E", "1e-320", "--n-modes", "3", "--eps", "1e-321"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: infeasible request: cannot meet the constraint budget "
                            "with equality: the rescaled f underflows\n")


def test_simulate_without_tight_keeps_a_tiny_solution(capsys):
    assert main(["simulate", "--n-modes", "3", "--f-coeffs", "1e-200", "--no-tight"]) == 0
    assert json.loads(capsys.readouterr().out)["f_true"] == [1e-200, 0.0, 0.0]


@pytest.mark.parametrize("fields, err", [
    ({"eigenvalues": [1.0, 0.5], "f_true": [1e200, 0.0], "g_noisy": [1e200, 0.0]},
     "error: constraint budget exceeded: sum beta^2 f^2 > E^2\n"),
    ({"eigenvalues": [1e200], "f_true": [1e200], "g_noisy": [0.0]},
     "error: noise norm exceeds its stated bound eps\n"),
], ids=["budget-overflow", "g-clean-overflow"])
def test_solve_rejects_an_overflowing_instance_without_a_warning(tmp_path, capsys, fields, err):
    inst = tmp_path / "inst.json"
    m = len(fields["eigenvalues"])
    inst.write_text(json.dumps({"beta": [1.0] * m, "eps": 0.0, "E": 1.0, "seed": 0,
                                "noise_mode": "flat", **fields}))
    assert main(["solve", "--instance", str(inst)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_solve_decides_the_budget_on_the_products(tmp_path, capsys):
    # beta^2 overflows where f^2 underflows, and ||beta f|| = 1 > E.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"eigenvalues": [1.0], "beta": [1e200], "f_true": [1e-200],
                                "g_noisy": [1e-200], "eps": 0.1, "E": 0.5, "seed": 0,
                                "noise_mode": "flat"}))
    assert main(["solve", "--instance", str(inst)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: constraint budget exceeded: sum beta^2 f^2 > E^2\n"


@pytest.mark.filterwarnings("error")
def test_solve_where_gbar_over_lambda_overflows_exits_2(tmp_path, capsys):
    # gbar_1 / lambda_1 = 5e312: solve printed fhat_1 = inf with a RuntimeWarning and exit 0.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"eigenvalues": [2e-300], "beta": [1e-160], "f_true": [0.0],
                                "g_noisy": [1e13], "eps": 1e13, "E": 1e153, "seed": 0,
                                "noise_mode": "flat"}))
    assert main(["solve", "--instance", str(inst)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fhat_k = gbar_k / lambda_k overflows at k = 1\n"


@pytest.mark.filterwarnings("error")
def test_reconstruction_of_a_simulated_instance_that_overflows_exits_2(tmp_path, capsys):
    # eps = 1e308 against lambda_2 ~ 0.025: gbar_2 / lambda_2 leaves the range.  solve
    # printed -inf, and sweep err_f2 = inf with lemma6_ok = true, its bound being inf too.
    args = ["--E", "1e300", "--constraint", "power:p=1,scale=1e-10", "--no-tight",
            "--f-coeffs", "1e-10", "--n-modes", "3"]
    inst = tmp_path / "inst.json"
    assert main(["simulate", *args, "--eps", "1e308", "--output", str(inst)]) == 0
    capsys.readouterr()
    err = "error: fhat_k = gbar_k / lambda_k overflows at k = 2\n"
    for argv in (["solve", "--instance", str(inst)], ["sweep", *args, "--eps-grid", "1e308"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)


@pytest.mark.parametrize("rule, fhat", [("k1", "1"), ("k2", "0")])
def test_solve_where_eps_over_E_underflows(tmp_path, capsys, rule, fhat):
    # eps / E = 1e-454 rounds to 0, and k2 kept every mode: lambda_1 E = 1e-146 lies
    # below eps beta_1 = 1e-100, so it keeps none; k1 keeps mode 1 (lambda_1 >= 1e-454).
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"eigenvalues": [1e-300], "beta": [1e200], "f_true": [0.0],
                                "g_noisy": [1e-300], "eps": 1e-300, "E": 1e154, "seed": 0,
                                "noise_mode": "flat"}))
    assert main(["solve", "--instance", str(inst), "--rule", rule]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"1,1e-300,1e+200,0,1e-300,{fhat}"


def _instance_text(**fields):
    """A valid one-mode instance, with `fields` in place of its own."""
    return json.dumps({"eigenvalues": [1.0], "beta": [1.0], "f_true": [0.0], "g_noisy": [0.0],
                       "eps": 0.1, "E": 1.0, "seed": 0, "noise_mode": "flat", **fields})


@pytest.mark.parametrize("text, err", [
    ('{"eigenvalues": [1.0]}', "error: instance lacks beta, f_true, g_noisy, eps, E, seed, "
                               "noise_mode\n"),
    ("[1, 2]", "error: instance must be a JSON object\n"),
    (_instance_text(eps=[0.1]), None),
    # Each of these was cast, and solved: seed 2.7 as 2, E true as 1.0.
    (_instance_text(seed=2.7), "error: instance field of the wrong type: 'seed' must be a "
                               "JSON integer\n"),
    (_instance_text(E=True), "error: instance field of the wrong type: 'E' must be a JSON "
                             "number\n"),
    (_instance_text(eps="0.001"), "error: instance field of the wrong type: 'eps' must be a "
                                  "JSON number\n"),
    (_instance_text(noise_mode=5), "error: instance field of the wrong type: 'noise_mode' "
                                   "must be a JSON string\n"),
    (_instance_text(E=10**400), None),  # an int beyond the doubles: an OverflowError traceback
    # These solved too: numpy parsed the strings and the bool in the arrays, and any mode passed.
    (_instance_text(eigenvalues=["1.0"], beta=[True], f_true=["0"]),
     "error: instance field of the wrong type: 'eigenvalues' must be a JSON array of numbers\n"),
    (_instance_text(noise_mode="bogus"),
     "error: noise mode must be 'flat' or 'range_compatible'\n"),
], ids=["missing-keys", "not-an-object", "list-eps", "float-seed", "bool-E", "string-eps",
        "int-noise-mode", "huge-int-E", "string-arrays", "bogus-noise-mode"])
def test_solve_on_a_malformed_instance_exits_2(tmp_path, capsys, text, err):
    inst = tmp_path / "inst.json"
    inst.write_text(text)
    assert main(["solve", "--instance", str(inst)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if err is None:
        assert captured.err.startswith("error: instance field of the wrong type: ")
    else:
        assert captured.err == err


def _string_first(raw):
    """A table's samples with samples[0][0] written as a JSON string."""
    (first, *row), *rows = raw["samples"]
    return [[str(first), *row], *rows]


@pytest.mark.parametrize("edit, err", [
    (lambda raw: {k: v for k, v in raw.items() if k != "samples"},
     "error: kernel table lacks samples\n"),
    (lambda raw: [1, 2], "error: kernel table must be a JSON object\n"),
    (lambda raw: {**raw, "a": None}, "error: kernel table field of the wrong type: "),
    (lambda raw: {**raw, "nodes": {"x": 1}}, "error: kernel table field of the wrong type: "),
    (lambda raw: {**raw, "a": "0", "b": True},
     "error: kernel table field of the wrong type: 'a' must be a JSON number\n"),
    (lambda raw: {**raw, "b": True},
     "error: kernel table field of the wrong type: 'b' must be a JSON number\n"),
    (lambda raw: {**raw, "samples": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
     "error: sample matrix must be square and match the grid\n"),
    # numpy parsed these strings, and the spectrum printed.
    (lambda raw: {**raw, "nodes": list(map(str, raw["nodes"])), "samples": _string_first(raw)},
     "error: kernel table field of the wrong type: 'nodes' must be a JSON array of numbers\n"),
    (lambda raw: {**raw, "samples": _string_first(raw)},
     "error: kernel table field of the wrong type: 'samples' must be a JSON array of numbers\n"),
    # The weights' sum overflowed with a RuntimeWarning before this error.
    (lambda raw: {"a": 0.0, "b": 1.0, "nodes": [0.25, 0.75], "weights": [1e308, 1e308],
                  "samples": [[1, 0], [0, 1]]},
     "error: weights must sum to b - a\n"),
], ids=["missing-samples", "not-an-object", "null-a", "object-nodes", "string-a", "bool-b",
        "2x3-samples", "string-nodes-and-sample", "string-sample", "overflowing-weights"])
def test_spectrum_on_a_malformed_kernel_table_exits_2(tmp_path, capsys, edit, err):
    # The first four used to end in a KeyError or TypeError traceback, exit 1.
    path = tmp_path / "table.json"
    _table(path, n=8)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert main(["spectrum", "--kernel", f"tabulated:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(err) and captured.err.endswith("\n")


@pytest.mark.parametrize("p, k", [("100", 35), ("-200", 6)])
def test_stability_names_the_first_weight_whose_square_leaves_the_range(capsys, p, k):
    # beta_k = k^p: beta_k^2 overflows from k = 35 at p = 100 and is subnormal
    # from k = 6 at p = -200.
    assert main(["stability", "--constraint", f"power:p={p}", "--n-modes", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: beta_k^2 is not a finite, normal double at k = {k}\n"


def test_simulate_keeps_a_weight_whose_square_overflows_where_f_is_zero(capsys):
    # beta_40^2 overflows, but f_40 = 0 and sum beta^2 f^2 = 1.
    assert main(["simulate", "--constraint", "power:p=100", "--n-modes", "40",
                 "--f-coeffs", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["f_true"] == [1.0] + [0.0] * 39


def test_simulate_rescales_a_budget_whose_square_is_subnormal(capsys):
    # ||beta f||^2 = 1e-310 is subnormal but not zero, so --tight rescales f to E = 1.
    assert main(["simulate", "--n-modes", "1", "--f-coeffs", "1e-155"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["f_true"] == [pytest.approx(1.0, rel=1e-15)]


def test_simulate_rescales_where_E_over_the_budget_overflows(capsys):
    # ||beta f|| = 1e-160, so E / ||beta f|| = 1e314 overflows, yet f E / ||beta f|| = 1e124.
    assert main(["simulate", "--n-modes", "1", "--constraint", "power:p=1,scale=1e30",
                 "--E", "1e154", "--f-coeffs", "1e-190"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["f_true"] == [pytest.approx(1e124, rel=1e-15)]


@pytest.mark.parametrize("rule", ["k1", "k2"])
def test_solve_keeps_no_mode_where_the_truncation_cap_underflows(tmp_path, capsys, rule):
    # lambda_1 / (eps / E) = 1e-325 rounds to zero, and no mode passes either rule.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"eigenvalues": [1e-20, 1e-21], "beta": [1.0, 1.0],
                                "f_true": [0.0, 0.0], "g_noisy": [1.0, 1.0], "eps": 1e304,
                                "E": 0.1, "seed": 0, "noise_mode": "flat"}))
    assert main(["solve", "--instance", str(inst), "--rule", rule]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [row.split(",")[-1] for row in captured.out.splitlines()[1:]] == ["0", "0"]


def test_simulate_names_a_rescaled_solution_that_overflows(capsys):
    # ||beta f|| is in range, but f_2 E / ||beta f|| = E / beta_2 is not.
    assert main(["simulate", "--constraint", "power:p=-520", "--n-modes", "2", "--E", "1e154",
                 "--f-coeffs", "0,1e4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: infeasible request: cannot meet the constraint budget "
                            "with equality: the rescaled f overflows\n")


def test_truncate_with_an_overflowing_threshold(capsys):
    # (eps/E) beta_k overflows here, and no mode is kept.
    assert main(["truncate", "--constraint", "power:p=100", "--n-modes", "40", "--E", "1e-10",
                 "--eps-grid", "1e190"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == "eps,k1,k2\n1e+190,0,0\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--E", "nan"],
    ["simulate", "--eps", "nan"],
], ids=["sweep-nan-E", "simulate-nan-eps"])
def test_synthesis_names_non_finite_eps_or_E(capsys, argv):
    # These used to blame f_true or the noise vector for the bad input.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need finite eps >= 0 and E > 0\n"


def test_cover_over_budget_exits_before_distance_matrix(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    rng = np.random.default_rng(0)
    np.savetxt(pts, rng.uniform(-1.0, 1.0, size=(1000, 2)), delimiter=",")
    tracemalloc.start()
    try:
        rc = main(["cover", "--points", str(pts), "--eps", "0.1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exact search limited to 30 points, got 1000\n"
    assert peak < 5e6  # the 1000 x 1000 x 2 difference tensor alone is 16 MB


@pytest.mark.parametrize("argv", [
    ["spectrum", "--kernel", "sinc:c=10", "--n-nodes", str(MAX_ORDER + 1)],
    ["stability", "--constraint", "prolate:c=1", "--n-modes", str(MAX_ORDER)],
], ids=["n-nodes", "prolate-n-modes"])
def test_size_limit_exits_before_dense_build(capsys, argv):
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f" the limit MAX_ORDER = {MAX_ORDER}\n")
    assert peak < 5e6  # one MAX_ORDER x MAX_ORDER matrix alone is 34 MB


POWER_ERROR = "error: power constraint needs a finite p and a finite scale > 0\n"
BANDWIDTH_ERROR = "error: bandwidth c must be finite and positive\n"
OVERFLOW_ERROR = "error: bandwidth c = 1e+308 is too large: c^2 overflows\n"


@pytest.mark.parametrize("argv, err", [
    (["entropy", "--constraint", "power:p=nan"], POWER_ERROR),
    (["stability", "--constraint", "power:p=nan"], POWER_ERROR),
    (["truncate", "--constraint", "power:p=1,scale=nan"], POWER_ERROR),
    (["truncate", "--constraint", "power:p=1,scale=inf"], POWER_ERROR),
    (["truncate", "--constraint", "sinc_log:c=inf"], BANDWIDTH_ERROR),
    (["truncate", "--constraint", "sinc_log:c=nan"], BANDWIDTH_ERROR),
    (["truncate", "--constraint", "prolate:c=inf"], BANDWIDTH_ERROR),
    (["truncate", "--constraint", "sinc_log:c=1e308", "--n-modes", "5"], OVERFLOW_ERROR),
    (["truncate", "--constraint", "prolate:c=1e308", "--n-modes", "5"], OVERFLOW_ERROR),
    (["truncate", "--constraint", "power:p=1e308"],
     "error: power constraint p = 1e+308, scale = 1 gives weights scale*k^p that are not "
     "finite and positive for k <= 100\n"),
    (["truncate", "--constraint", "power:p=1,scale=1e308"],
     "error: power constraint p = 1, scale = 1e+308 gives weights scale*k^p that are not "
     "finite and positive for k <= 100\n"),
    (["spectrum", "--kernel", "sinc:c=10,c=20"],
     "error: repeated sinc kernel parameter 'c'\n"),
    (["spectrum", "--kernel", "sinc:c=10,a=-1,a=0"],
     "error: repeated sinc kernel parameter 'a'\n"),
    (["truncate", "--constraint", "power:p=1,p=2"],
     "error: repeated power constraint parameter 'p'\n"),
    (["stability", "--p", "power:gamma=0.5,gamma=0.2"],
     "error: repeated power preset parameter 'gamma'\n"),
], ids=["entropy-power-p-nan", "stability-power-p-nan", "truncate-scale-nan",
        "truncate-scale-inf", "sinc_log-c-inf", "sinc_log-c-nan", "prolate-c-inf",
        "sinc_log-c-overflow", "prolate-c-overflow", "power-weights-overflow",
        "power-scale-overflow", "sinc-repeated-c", "sinc-repeated-a", "power-repeated-p",
        "p-repeated-gamma"])
@pytest.mark.filterwarnings("error")
def test_non_finite_constraint_parameter_exits_2(capsys, argv, err):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_unresolved_prolate_basis_exits_2(capsys):
    assert main(["truncate", "--constraint", "prolate:c=1e6", "--n-modes", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # Orders 31, 62, ..., 992 were tried; the message names the last one.
    assert captured.err == "error: operator eigenvalues did not stabilize by order 992\n"


def test_convergence_failure_exits_2(capsys, monkeypatch):
    def stalled(n, a, b):
        raise ValueError("Newton iteration for quadrature nodes stalled")

    monkeypatch.setattr(spectral, "gauss_legendre", stalled)
    assert main(["spectrum", "--kernel", "sinc:c=2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Newton iteration for quadrature nodes stalled\n"


def _config_last(tmp_path, argv):
    """argv, with a trailing dict written to a config file and replaced by its path."""
    if not isinstance(argv[-1], dict):
        return argv
    config = tmp_path / "config.json"
    config.write_text(json.dumps(argv[-1]))
    return argv[:-1] + [str(config)]


@pytest.mark.parametrize("argv, option, value", [
    (["spectrum", "--n-modes", "0"], "--n-modes", 0),
    (["spectrum", "--kernel", "sinc:c=2", "--n-modes", "-2"], "--n-modes", -2),
    (["truncate", "--n-modes", "0"], "--n-modes", 0),
    (["spectrum", "--config", {"n_modes": 0}], "--n-modes", 0),
    (["truncate", "--config", {"n_modes": -3}], "--n-modes", -3),
], ids=["spectrum-0", "spectrum-negative", "truncate-0", "spectrum-config-0",
        "truncate-config-negative"])
def test_mode_counts_below_one_exit_2(tmp_path, capsys, argv, option, value):
    assert main(_config_last(tmp_path, argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {option}: must be at least 1, got {value}\n")


@pytest.mark.parametrize("argv, value", [
    (["truncate", "--n-modes", "1000000000000"], 10**12),
    (["entropy", "--n-modes", str(MAX_MODES + 1)], MAX_MODES + 1),
    (["spectrum", "--config", {"n_modes": 10**12}], 10**12),
    (["stability", "--config", {"n_modes": str(MAX_MODES + 1)}], MAX_MODES + 1),
], ids=["truncate-1e12", "entropy-max-plus-1", "spectrum-config-1e12",
        "stability-config-string"])
def test_mode_counts_above_max_modes_exit_2(tmp_path, capsys, argv, value):
    # truncate --n-modes 1e12 ended in numpy's _ArrayMemoryError traceback, exit 1.
    assert main(_config_last(tmp_path, argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument --n-modes: must be at most {MAX_MODES}, got {value}\n")


@pytest.mark.parametrize("config, err", [
    ({"n_modes": 2.5}, "error: argument --n-modes: invalid int value: '2.5'\n"),
    ({"n_modes": None}, "error: argument --n-modes: invalid int value: 'null'\n"),
    ({"n_modes": False}, "error: argument --n-modes: invalid int value: 'false'\n"),
    ({"n_modes": [0]}, "error: argument --n-modes: must be at least 1, got 0\n"),
], ids=["float", "null", "bool", "list"])
def test_config_values_are_converted_like_flags(tmp_path, capsys, config, err):
    # A config value that was not a string used to skip the option's type:
    # 2.5 ran 2 modes, and a list ended in a TypeError traceback.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["stability", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(err)


@pytest.mark.parametrize("config, flags", [
    ({"n_modes": [3]}, ["--n-modes", "3"]),
    ({"eps_grid": [0.01, 0.001], "n_modes": 30}, ["--eps-grid", "0.01,0.001", "--n-modes", "30"]),
    ({"f_decay": [1, 3], "tight": False, "E": 2}, ["--f-decay", "1,3", "--no-tight", "--E", "2"]),
], ids=["list-count", "list-grid", "list-pair-and-bool"])
def test_config_values_match_their_flags(tmp_path, capsys, config, flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == 0
    from_config = capsys.readouterr()
    assert main(["sweep", *flags]) == 0
    assert capsys.readouterr() == from_config


@pytest.mark.parametrize("value", ["false", "true", 0, None, [False]],
                         ids=["string-false", "string-true", "zero", "null", "list"])
def test_config_tight_must_be_a_json_boolean(tmp_path, capsys, value):
    # --tight's action applies no type=, so the string "false" used to count
    # as true and simulate applied the tight rescaling.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tight": value, "f_coeffs": "0.1"}))
    assert main(["simulate", "--n-modes", "3", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: config value 'tight' must be true or false, "
                            f"got {json.dumps(value)}\n")


def test_stability_takes_its_mode_count_from_n_modes_only(capsys):
    # --K used to re-cut the modes that --n-modes had already chosen.
    assert main(["stability", "--K", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --K 5\n")


@pytest.mark.parametrize("config, key", [
    ({"func": "x"}, "func"),
    ({"n_mode": 5}, "n_mode"),
    ({"K": 5}, "K"),
], ids=["internal-default", "typo", "retired-K"])
def test_config_keys_that_name_no_option_exit_2(tmp_path, capsys, config, key):
    # "func" used to replace the command's handler (a TypeError traceback,
    # exit 1), and a misspelt option was ignored with exit 0.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["spectrum", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown config key {key!r}\n"


@pytest.mark.parametrize("kernel, err", [
    ("sinc:c=inf", BANDWIDTH_ERROR),
    ("sinc:c=nan", BANDWIDTH_ERROR),
    ("sinc:c=10,a=-inf", "error: sinc interval must satisfy finite a < b\n"),
    ("sinc:c=10,b=inf", "error: sinc interval must satisfy finite a < b\n"),
    ("sinc:c=1e308", "error: bandwidth c = 1e+308 is too large for [-1, 1]: c*(b - a) overflows\n"),
    ("sinc:c=10,a=-1e308,b=1e308",
     "error: sinc interval [-1e+308, 1e+308] is too long: b - a overflows\n"),
    ("sinc:c=1e-300,a=-1e308,b=1e307",
     "error: sinc interval [-1e+308, 1e+307] is too long: pi*(b - a) overflows\n"),
], ids=["c-inf", "c-nan", "a-minus-inf", "b-inf", "c-length-overflow", "length-overflow",
        "pi-length-overflow"])
@pytest.mark.filterwarnings("error")
def test_non_finite_sinc_parameter_exits_2(capsys, kernel, err):
    # c = inf used to leak a numpy RuntimeWarning and blame node pair (0, 0);
    # a finite c or interval whose c*(b - a) or b - a overflows did the same,
    # and one whose pi*(b - a) overflows warned and exited 0.
    assert main(["spectrum", "--kernel", kernel]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.filterwarnings("error")
def test_spectrum_on_a_wide_sinc_interval_prints_no_warning(capsys):
    # 8 nodes on an interval 1e293 long printed lambda_1 = 5.8e292 with exit 0,
    # though the sinc operator's eigenvalues lie in (0, 1).  The floor is
    # ceil(c (b - a) / 2) = 5e293, named in :g form, not as a 294-digit integer.
    # (row_defect's own overflow at this scale is checked in test_spectral.)
    argv = ["spectrum", "--kernel", "sinc:c=10,a=1e300,b=1.0000001e300", "--n-nodes", "8",
            "--n-modes", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 8 quadrature nodes cannot resolve the kernel: "
                            "it needs at least 5e+293\n")


@pytest.mark.parametrize("kernel, n, least", [
    ("sinc:c=10", 4, 10),
    ("sinc:c=10", 9, 10),
    ("sinc:c=10", 1, 10),
    ("sinc:c=10.5,a=0,b=2", 10, 11),
    ("sinc:c=4", 3, 4),
], ids=["c10-n4", "c10-n9", "c10-n1", "c10.5-n10", "c4-n3"])
@pytest.mark.filterwarnings("error")
def test_sinc_grid_below_its_floor_exits_2(capsys, kernel, n, least):
    # sinc:c=10 on 4 nodes printed lambda_1 = 1.58 with exit 0.
    assert main(["spectrum", "--kernel", kernel, "--n-nodes", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {n} quadrature nodes cannot resolve the kernel: "
                            f"it needs at least {least}\n")


@pytest.mark.parametrize("kernel, n, excess", [
    ("sinc:c=10", 10, "0.0242"),
    ("sinc:c=40", 50, "6.32e-12"),
], ids=["c10-n10", "c40-n50"])
def test_sinc_grid_whose_lambda_1_exceeds_one_exits_2(capsys, kernel, n, excess):
    # These grids pass the node floor; the first printed lambda_1 = 1.02423755
    # with exit 0, though every sinc eigenvalue lies in (0, 1).  The check allows
    # n u lambda_1 of round-off (1.1e-14 at n = 50); both excesses are hundreds of
    # times that, so no LAPACK build's last bits decide these exits.
    assert main(["spectrum", "--kernel", kernel, "--n-nodes", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {n} quadrature nodes do not resolve the kernel: "
                            f"lambda_1 exceeds its bound 1 by {excess}\n")


@pytest.mark.parametrize("kernel, n", [
    ("sinc:c=10", 15), ("sinc:c=10", 22), ("sinc:c=40", 60), ("sinc:c=100", 400),
    ("sinc:c=10,a=0,b=2", 400),
])
def test_sinc_grid_whose_lambda_1_is_within_round_off_of_one_runs(capsys, kernel, n):
    # Resolved grids put lambda_1 within a few u of 1, far inside n u.  At c = 10
    # on 15 nodes the eigenvalues are off by up to 1.6e-5, yet lambda_1 stays below
    # 1: the check is necessary, not sufficient.
    assert main(["spectrum", "--kernel", kernel, "--n-nodes", str(n), "--n-modes", "1"]) == 0
    lam_1 = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
    assert lam_1 - 1.0 <= n * math.ulp(1.0)


def test_sinc_grid_at_its_floor_runs(capsys):
    # The check is n < floor: 4 nodes pass it for c = 4 (and 3 do not, above).
    assert main(["spectrum", "--kernel", "sinc:c=4", "--n-nodes", "4", "--n-modes", "1"]) == 0
    assert capsys.readouterr().out.startswith("k,lambda,lambda_analytic,rel_err\n1,")


# One grammar reads all three preset families: each family's malformed strings
# fail the same way, with the family's word in the message.
PRESET_FAMILIES = {
    "kernel": ["spectrum", "--kernel"],
    "constraint": ["truncate", "--constraint"],
    "p": ["stability", "--p"],
}


@pytest.mark.parametrize("family, text, err", [
    ("kernel", "bogus", "unknown kernel 'bogus'"),
    ("kernel", "sinc:c", "malformed sinc kernel parameter 'c'"),
    ("kernel", "sinc:c=1,d=2", "unknown sinc kernel parameter 'd'"),
    ("kernel", "sinc:c=1,c=2", "repeated sinc kernel parameter 'c'"),
    ("kernel", "sinc:a=0", "sinc kernel requires c=..."),
    ("kernel", "triangular:x=1", "unknown triangular kernel parameter 'x'"),
    ("constraint", "bogus", "unknown constraint 'bogus'"),
    ("constraint", "power:p", "malformed power constraint parameter 'p'"),
    ("constraint", "power:p=1,q=2", "unknown power constraint parameter 'q'"),
    ("constraint", "power:p=1,p=2", "repeated power constraint parameter 'p'"),
    ("constraint", "power:scale=2", "power constraint requires p=..."),
    ("constraint", "derivative:x=1", "unknown derivative constraint parameter 'x'"),
    ("p", "bogus", "unknown preset 'bogus'"),
    ("p", "power:gamma", "malformed power preset parameter 'gamma'"),
    ("p", "power:gamma=0.5,g=1", "unknown power preset parameter 'g'"),
    ("p", "power:gamma=0.5,gamma=0.2", "repeated power preset parameter 'gamma'"),
    ("p", "power:", "power preset requires gamma=..."),
    ("p", "explog:x", "malformed explog preset parameter 'x'"),
], ids=[f"{family}-{case}" for family in PRESET_FAMILIES for case in (
    "unknown-head", "malformed-chunk", "unknown-key", "repeated-key", "missing-key",
    "no-parameter-head")])
def test_malformed_preset_strings_exit_2(capsys, family, text, err):
    assert main([*PRESET_FAMILIES[family], text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_preset_grammar_skips_empty_chunks():
    # 'sinc:c=1,' and 'derivative:,' always parsed; 'triangular:,' and 'explog:,' now do too.
    assert parse_kernel("sinc:c=1,").a == parse_kernel("sinc:c=1").a
    assert parse_kernel("triangular:,").kernel is parse_kernel("triangular").kernel
    assert np.array_equal(parse_constraint("derivative:,", 3), parse_constraint("derivative", 3))
    assert parse_pfunction("explog:,").p(0.5) == parse_pfunction("explog").p(0.5)


OUTPUT_COMMANDS = {
    "spectrum": ["spectrum", "--n-nodes", "40", "--n-modes", "4"],
    "truncate": ["truncate", "--n-modes", "20"],
    "solve": ["solve", "--instance", "{tmp}/instance.json"],
    "sweep": ["sweep", "--n-modes", "20", "--eps-grid", "1e-2,1e-3"],
    "entropy": ["entropy", "--n-modes", "20"],
    "stability": ["stability", "--n-modes", "20", "--p", "explog"],
    "cover": ["cover", "--points", "{tmp}/points.csv", "--eps", "0.75"],
    "simulate": ["simulate", "--n-modes", "5", "--seed", "3"],
}


def test_output_table_covers_every_subcommand():
    assert set(OUTPUT_COMMANDS) == set(_build_parser()[1])


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_output_file_holds_the_stdout_bytes(tmp_path, capsys, command):
    (tmp_path / "points.csv").write_text("0,0\n1,0\n0,1\n1,1\n")
    assert main(["simulate", "--n-modes", "5", "--output", str(tmp_path / "instance.json")]) == 0
    argv = [arg.format(tmp=tmp_path) for arg in OUTPUT_COMMANDS[command]]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed and out.read_bytes() == printed.encode()
