"""Command line interface: formats, round trips, and exit codes."""

import csv
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.optimize import brentq
from scipy.special import jn_zeros

import jost1d as j
from jost1d.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def barrier_file(tmp_path):
    path = tmp_path / "barrier.json"
    path.write_text(json.dumps(
        {"kind": "square", "params": {"left": -1.0, "right": 1.0, "height": 1.0}}
    ))
    return str(path)


@pytest.fixture
def resonant_well_file(tmp_path):
    path = tmp_path / "well.json"
    path.write_text(json.dumps(
        {"kind": "square",
         "params": {"left": -1.0, "right": 1.0, "height": -((np.pi / 2) ** 2)}}
    ))
    return str(path)


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows


# ---------------------------------------------------------------------------
# scatter


def test_scatter_csv_round_trip(runner, barrier_file, barrier):
    result = runner.invoke(main, ["scatter", "--potential", barrier_file, "--k", "1.5"])
    assert result.exit_code == 0, result.output
    rows = _parse_csv(result.output)
    header, data = rows[0], rows[1]
    sd = j.scattering(barrier, 1.5)
    record = dict(zip(header, data))
    # repr round trip must be bit-exact
    assert float(record["r_re"]) == sd.r.real
    assert float(record["r_im"]) == sd.r.imag
    assert float(record["t_re"]) == sd.t.real
    assert float(record["a_re"]) == sd.a.real
    assert float(record["unitarity_defect"]) == sd.unitarity_defect()


def test_scatter_multiple_k_and_complex(runner, barrier_file):
    result = runner.invoke(main, [
        "scatter", "--potential", barrier_file,
        "--k", "1.0", "--k", "2.0,0.5", "--k-list", "0.5;3.0",
    ])
    assert result.exit_code == 0
    rows = _parse_csv(result.output)
    assert len(rows) == 5  # header + 4 wavenumbers
    assert rows[2][0] == "2.0" and rows[2][1] == "0.5"


def test_scatter_json(runner, barrier_file, barrier):
    result = runner.invoke(main, [
        "scatter", "--potential", barrier_file, "--k", "1.0", "--format", "json",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    sd = j.scattering(barrier, 1.0)
    assert payload[0]["r_re"] == sd.r.real
    assert payload[0]["t_im"] == sd.t.imag


def test_scatter_out_file(runner, barrier_file, tmp_path):
    out = tmp_path / "table.csv"
    result = runner.invoke(main, [
        "scatter", "--potential", barrier_file, "--k", "1.0", "--out", str(out),
    ])
    assert result.exit_code == 0
    assert out.exists()
    assert out.read_text().startswith("k_re,")


def test_scatter_requires_wavenumbers(runner, barrier_file):
    result = runner.invoke(main, ["scatter", "--potential", barrier_file])
    assert result.exit_code == 2


def test_scatter_bad_wavenumber(runner, barrier_file):
    result = runner.invoke(main, ["scatter", "--potential", barrier_file, "--k", "abc"])
    assert result.exit_code == 2


def test_scatter_missing_file(runner, tmp_path):
    result = runner.invoke(main, [
        "scatter", "--potential", str(tmp_path / "nope.json"), "--k", "1.0",
    ])
    assert result.exit_code == 2


def test_scatter_malformed_json(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["scatter", "--potential", str(path), "--k", "1.0"])
    assert result.exit_code == 2


def test_scatter_at_bound_state_exits_3(runner, tmp_path):
    # k on the discrete spectrum: the plane-wave expansion degenerates
    depth = 4.0
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(
        {"kind": "square", "params": {"left": -1.0, "right": 1.0, "height": -depth}}
    ))

    def g(q):
        return q * np.tan(q) - np.sqrt(depth - q * q)

    q = brentq(g, 1e-9, np.pi / 2 - 1e-9)
    kappa = float(np.sqrt(depth - q * q))
    result = runner.invoke(main, [
        "scatter", "--potential", str(path), "--k", f"0,{kappa!r}",
    ])
    assert result.exit_code == 3


# ---------------------------------------------------------------------------
# resonance


def test_resonance_theta_resonant(runner, resonant_well_file):
    result = runner.invoke(main, ["resonance", "theta", "--potential", resonant_well_file])
    assert result.exit_code == 0, result.output
    rows = _parse_csv(result.output)
    record = dict(zip(rows[0], rows[1]))
    assert record["is_resonant"] == "true"
    assert float(record["theta"]) == pytest.approx(-1.0, abs=1e-10)
    assert float(record["ddot0_im"]) == pytest.approx(2.0, abs=1e-5)


def test_resonance_theta_nonresonant(runner, barrier_file):
    result = runner.invoke(main, ["resonance", "theta", "--potential", barrier_file])
    assert result.exit_code == 0
    rows = _parse_csv(result.output)
    record = dict(zip(rows[0], rows[1]))
    assert record["is_resonant"] == "false"
    assert record["theta"] == ""
    assert float(record["d0"]) == pytest.approx(np.sinh(2.0), rel=1e-12)


def test_resonance_theta_json_nonresonant(runner, barrier_file):
    result = runner.invoke(main, [
        "resonance", "theta", "--potential", barrier_file, "--format", "json",
    ])
    payload = json.loads(result.output)
    assert payload["is_resonant"] is False
    assert payload["theta"] is None


def test_resonance_sweep_sections(runner, tmp_path):
    path = tmp_path / "well.json"
    path.write_text(json.dumps(
        {"kind": "square", "params": {"left": -1.0, "right": 1.0, "height": -1.0}}
    ))
    result = runner.invoke(main, [
        "resonance", "sweep", "--potential", str(path),
        "--alpha-min", "0.5", "--alpha-max", "11.0", "--grid", "43",
    ])
    assert result.exit_code == 0, result.output
    blocks = result.output.strip().split("\n\n")
    assert len(blocks) == 2  # sweep table + roots table, no trivial root
    sweep_rows = _parse_csv(blocks[0])
    assert sweep_rows[0] == ["alpha", "d0"]
    assert len(sweep_rows) == 44
    root_rows = _parse_csv(blocks[1])
    assert root_rows[0] == ["root_alpha", "bracket_lo", "bracket_hi", "residual"]
    found = sorted(float(r[0]) for r in root_rows[1:])
    assert len(found) == 2
    assert found[0] == pytest.approx((np.pi / 2) ** 2, abs=1e-5)
    assert found[1] == pytest.approx(np.pi**2, abs=1e-5)


def test_resonance_sweep_json(runner, tmp_path):
    path = tmp_path / "well.json"
    path.write_text(json.dumps(
        {"kind": "square", "params": {"left": -1.0, "right": 1.0, "height": -1.0}}
    ))
    result = runner.invoke(main, [
        "resonance", "sweep", "--potential", str(path),
        "--alpha-min", "-1.0", "--alpha-max", "3.0", "--grid", "17",
        "--format", "json",
    ])
    payload = json.loads(result.output)
    assert payload["trivial_root"] == 0.0
    assert len(payload["sweep"]) == 17
    assert len(payload["roots"]) == 1


def test_resonance_sweep_exponential_well(runner, tmp_path):
    # the README's exp well: a sweep over couplings on an infinite tail,
    # whose anchors and report thresholds read the closed-form integrals
    path = tmp_path / "exp_well.json"
    path.write_text(json.dumps(
        {"kind": "exp_decay", "params": {"rate": 1.0, "amplitude": 1.0}, "coupling": -1.4458}
    ))
    result = runner.invoke(main, [
        "resonance", "sweep", "--potential", str(path),
        "--alpha-min", "0.5", "--alpha-max", "8", "--format", "json",
    ])
    assert result.exit_code == 0, result.output
    roots = [r["alpha"] for r in json.loads(result.output)["roots"]]
    # zeros of J0 J1 at 2 sqrt(1.4458 alpha)
    want = [(z / 2.0) ** 2 / 1.4458 for z in (jn_zeros(0, 2)[0], jn_zeros(1, 1)[0],
                                              jn_zeros(0, 2)[1])]
    assert roots == pytest.approx(want, abs=1e-4)


@pytest.mark.parametrize("command", [["scatter", "--k", "1.0"],
                                     ["converge", "--k", "1.0", "--eps", "0.1"]])
@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "1"])
def test_tol_outside_unit_interval_exits_2(runner, tmp_path, command, tol):
    path = tmp_path / "well.json"
    path.write_text(json.dumps(
        {"kind": "exp_decay", "params": {"rate": 1.0, "amplitude": 1.0}, "coupling": -1.4458}
    ))
    result = runner.invoke(main, [*command, "--potential", str(path), "--tol", tol])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:") and "tol" in result.stderr
    assert result.stdout == ""


def test_resonance_sweep_bad_range(runner, barrier_file):
    result = runner.invoke(main, [
        "resonance", "sweep", "--potential", barrier_file,
        "--alpha-min", "2.0", "--alpha-max", "1.0",
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize("lo, hi", [("0.5", "inf"), ("-inf", "1.0"), ("-1e308", "1e308")])
def test_resonance_sweep_infinite_range_exits_2(runner, barrier_file, lo, hi):
    result = runner.invoke(main, [
        "resonance", "sweep", "--potential", barrier_file,
        "--alpha-min", lo, "--alpha-max", hi, "--grid", "5",
    ])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:") and "finite" in result.stderr
    assert result.stdout == ""


def test_resonance_sweep_overflowing_range_exits_2(runner, tmp_path):
    # the range is finite, but alpha * V overflows the propagator at its top
    path = tmp_path / "well.json"
    path.write_text(json.dumps(
        {"kind": "square", "params": {"left": -1.0, "right": 1.0, "height": -1.0}}
    ))
    result = runner.invoke(main, [
        "resonance", "sweep", "--potential", str(path),
        "--alpha-min", "0.5", "--alpha-max", "1e308", "--grid", "5",
    ])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:") and "not finite" in result.stderr
    assert result.stdout == ""


def test_resonance_sweep_root_without_digits_exits_2(runner, tmp_path):
    # d0 is finite over the range, but has no correct digits at the root
    path = tmp_path / "well.json"
    path.write_text(json.dumps(
        {"kind": "square", "params": {"left": -1.0, "right": 1.0, "height": -1.0}}
    ))
    result = runner.invoke(main, [
        "resonance", "sweep", "--potential", str(path),
        "--alpha-min", "0.5", "--alpha-max", "2.6e307", "--grid", "2",
    ])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:") and "root_tol" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("root_tol", ["nan", "inf"])
def test_resonance_sweep_non_finite_root_tol_exits_2(runner, barrier_file, root_tol):
    result = runner.invoke(main, [
        "resonance", "sweep", "--potential", barrier_file,
        "--alpha-min", "0.5", "--alpha-max", "25", "--root-tol", root_tol,
    ])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")
    assert "root_tol must be positive and finite" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
def test_resonance_theta_bad_threshold_exits_2(runner, barrier_file, threshold):
    result = runner.invoke(main, [
        "resonance", "theta", "--potential", barrier_file, "--threshold", threshold,
    ])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:") and "threshold" in result.stderr
    assert result.stdout == ""


def test_resonance_theta_overflowing_d0_exits_2(runner, tmp_path):
    path = tmp_path / "barrier.json"
    path.write_text(json.dumps(
        {"kind": "square", "params": {"left": -1.0, "right": 1.0, "height": 1e6}}
    ))
    result = runner.invoke(main, ["resonance", "theta", "--potential", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:") and "not finite" in result.stderr
    assert result.stdout == ""


def test_scatter_overflowing_product_exits_2(runner, tmp_path):
    # at k = 20i the step maps are finite but their product overflows
    path = tmp_path / "well.json"
    path.write_text(json.dumps({"kind": "exp_decay", "params": {"rate": 1.0, "amplitude": -1.0}}))
    result = runner.invoke(main, ["scatter", "--potential", str(path), "--k", "0,20"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:") and "not finite at k = 20j" in result.stderr
    assert result.stdout == ""


# ---------------------------------------------------------------------------
# converge


def test_converge_csv(runner, resonant_well_file, tmp_path):
    result = runner.invoke(main, [
        "converge", "--potential", resonant_well_file,
        "--k", "1.0", "--eps", "0.1,0.05", "--box", "4", "--n", "40",
    ])
    assert result.exit_code == 0, result.output
    rows = _parse_csv(result.output)
    assert rows[0] == ["eps", "r_re", "r_im", "t_re", "t_im", "kernel_distance",
                       "limit_r", "limit_t", "classification"]
    assert [r[0] for r in rows[1:]] == ["0.1", "0.05"]
    assert all(r[-1] == "interface" for r in rows[1:])
    # distances decrease toward the limit
    assert float(rows[2][5]) < float(rows[1][5])


def test_converge_json_classification(runner, barrier_file):
    result = runner.invoke(main, [
        "converge", "--potential", barrier_file,
        "--k", "1.0", "--eps", "0.1", "--box", "3", "--n", "30",
        "--format", "json",
    ])
    payload = json.loads(result.output)
    assert payload[0]["classification"] == "dirichlet"
    assert payload[0]["limit_r"] == -1.0


@pytest.mark.parametrize("well, label", [("barrier_file", "dirichlet"),
                                         ("resonant_well_file", "interface")])
def test_converge_classifies_once(runner, request, monkeypatch, well, label):
    # the CLI takes its label from the table, which classifies the limit once
    import jost1d.cli as cli
    import jost1d.limits as limits

    classify = limits.classify_limit
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(limits, "classify_limit", counted)
    monkeypatch.setattr(cli, "classify_limit", counted, raising=False)
    path = request.getfixturevalue(well)
    result = runner.invoke(main, [
        "converge", "--potential", path,
        "--k", "1.0", "--eps", "0.1,0.05", "--box", "4", "--n", "40",
    ])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    p = j.load_potential(path)
    assert (classify(p).theta is None) == (label == "dirichlet")
    lines = ["eps,r_re,r_im,t_re,t_im,kernel_distance,limit_r,limit_t,classification"]
    for rec in j.convergence_table(p, 1.0, [0.1, 0.05], box=4.0, n=40):
        values = [rec.eps, rec.r_eps.real, rec.r_eps.imag, rec.t_eps.real, rec.t_eps.imag,
                  rec.kernel_distance, rec.limit_r.real, rec.limit_t.real]
        lines.append(",".join(repr(float(v)) for v in values) + "," + label)
    assert result.output == "\n".join(lines) + "\n"


@pytest.mark.parametrize("eps", ["0,-1", ","])
def test_converge_bad_eps(runner, barrier_file, eps):
    # the table, not the CLI, rejects an empty or nonpositive eps list
    result = runner.invoke(main, [
        "converge", "--potential", barrier_file, "--k", "1.0", "--eps", eps,
    ])
    assert result.exit_code == 2
    assert result.output.startswith("error:")


@pytest.mark.parametrize("eps", [",", "0.1,-0.2"])
def test_converge_eps_error_names_the_option(runner, barrier_file, eps):
    # the table's messages are the command's: they name eps, not a Python parameter
    result = runner.invoke(main, [
        "converge", "--potential", barrier_file, "--k", "1.0", "--eps", eps,
    ])
    assert result.exit_code == 2
    assert "eps" in result.stderr and "eps_list" not in result.stderr


@pytest.mark.parametrize("args", [
    ["scatter", "--k", "nan"],
    ["scatter", "--k", "inf"],
    ["scatter", "--k", "1,nan"],
    ["converge", "--k", "1.0", "--eps", "nan"],
    ["converge", "--k", "1.0", "--eps", "0.1,nan"],
    ["converge", "--k", "nan", "--eps", "0.1"],
    ["converge", "--k", "1.0", "--eps", "0.1", "--box", "nan"],
], ids=lambda args: " ".join(args))
def test_non_finite_arguments_exit_2(runner, barrier_file, args):
    result = runner.invoke(main, [args[0], "--potential", barrier_file, *args[1:]])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("spec", [
    '{"kind": "square", "params": {"left": -1, "right": 1, "height": NaN}}',
    '{"kind": "square", "params": {"left": -1, "right": 1, "height": 1}, "coupling": Infinity}',
    '{"kind": "piecewise", "params": [{"left": -Infinity, "right": 0, "height": -1}]}',
    '{"kind": "table", "params": {"x": [-1, 0, 1], "v": [0, NaN, 0]}}',
    '{"kind": "exp_decay", "params": {"rate": NaN}}',
    '{"kind": "exp_decay", "params": {"amplitude": -Infinity}}',
], ids=["square height", "coupling", "piecewise edge", "table value", "exp rate",
        "exp amplitude"])
def test_non_finite_potential_file_exits_2(runner, tmp_path, spec):
    # json reads NaN and Infinity, so a potential file can carry them
    path = tmp_path / "potential.json"
    path.write_text(spec)
    result = runner.invoke(main, ["scatter", "--potential", str(path), "--k", "1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error:") and "finite" in result.stderr
    assert "Traceback" not in result.output


def test_string_parameter_in_potential_file_exits_2(runner, tmp_path):
    path = tmp_path / "potential.json"
    path.write_text('{"kind": "square", "params": {"left": "a", "right": 1, "height": 1}}')
    result = runner.invoke(main, ["scatter", "--potential", str(path), "--k", "1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error:") and "must be numbers" in result.stderr
    assert "Traceback" not in result.output


@pytest.mark.parametrize("params", ["[1, 2]", "null", '{"rate": true}', '{"rate": "2"}'])
def test_malformed_parameters_in_potential_file_exit_2(runner, tmp_path, params):
    # parameters that are no JSON object, or a bool or string for a number
    path = tmp_path / "potential.json"
    path.write_text(f'{{"kind": "exp_decay", "params": {params}}}')
    result = runner.invoke(main, ["scatter", "--potential", str(path), "--k", "1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("flag, value", [("--n", "1"), ("--box", "0")])
def test_converge_bad_lattice(runner, barrier_file, flag, value):
    result = runner.invoke(main, [
        "converge", "--potential", barrier_file, "--k", "1.0", "--eps", "0.1", flag, value,
    ])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.output
