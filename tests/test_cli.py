import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

import contextnet
from contextnet import cli, hardy3, nonlocal4
from contextnet.cli import RESIDUAL_THRESHOLD, main
from contextnet.errors import BOUNDARY_MARGIN
from contextnet.hilbert import ORTH_TOL, inner
from contextnet.network import ContextNetwork, builtin_network, validate_realization
from contextnet.report import report_to_json


def scalar_sweep(alphas, betas, out):
    """The sweep's CSV bytes and summary line, computed one cell at a time."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["alpha", "beta", "p_paradox"])
    best = None
    for a in alphas:
        for b in betas:
            p = hardy3.predicted_paradox(float(a), float(b))
            writer.writerow([f"{a:.17g}", f"{b:.17g}", f"{p:.17g}"])
            if best is None or p > best[0]:  # the first maximum wins every tie
                best = (p, a, b)
    n = len(alphas)
    summary = (f"sweep {n}x{n}: max p_paradox={best[0]:.17g} "
               f"at alpha={best[1]:.17g} beta={best[2]:.17g} -> {out}\n")
    return expected.getvalue().encode("utf-8"), summary


def cli_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(contextnet.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def hardy_params(tmp_path):
    path = tmp_path / "hardy.json"
    path.write_text(json.dumps({"alpha": 0.5, "beta": 0.5, "phase_d1": 0, "phase_d2": 0}))
    return str(path)


@pytest.fixture
def nonlocal_params(tmp_path):
    path = tmp_path / "nonlocal.json"
    path.write_text(json.dumps({"a2": 0.5, "phase_a": 0}))
    return str(path)


class TestVerify:
    def test_hardy_center(self, hardy_params, capsys):
        assert main(["verify", "hardy3", "--params", hardy_params]) == 0
        doc = json.loads(capsys.readouterr().out)
        eq16 = next(r for r in doc["relations"] if r["id"] == "eq16")
        assert eq16["formula"] == pytest.approx(1 / 9, abs=1e-12)
        assert all(r["residual"] < RESIDUAL_THRESHOLD for r in doc["relations"])
        assert doc["params"]["alpha"] == 0.5
        assert "timestamp" in doc["metadata"]

    def test_nonlocal_center(self, nonlocal_params, capsys):
        assert main(["verify", "nonlocal4", "--params", nonlocal_params]) == 0
        doc = json.loads(capsys.readouterr().out)
        eq21 = next(r for r in doc["relations"] if r["id"] == "eq21")
        assert eq21["formula"] == pytest.approx(1 / 12, abs=1e-12)

    def test_out_of_domain_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"alpha": 1.0, "beta": 0.5}))
        assert main(["verify", "hardy3", "--params", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_of_domain_error_line_names_the_domain(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"alpha": 0.9999999995, "beta": 0.5}))
        assert main(["verify", "hardy3", "--params", str(path)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: alpha=0.9999999995 must lie in [1e-09, 0.999999999]; "
            "boundary values break the scenario's non-orthogonality requirements\n",
        )

    def test_unparseable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        assert main(["verify", "hardy3", "--params", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["verify", "hardy3", "--params", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_object_params_exits_2(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[0.5, 0.5]")
        assert main(["verify", "hardy3", "--params", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("module,params", [
        (hardy3, {"alpha": a, "beta": b}) for a in (1e-9, 0.5, 1 - 1e-9) for b in (1e-9, 1 - 1e-9)
    ] + [(nonlocal4, {"a2": x}) for x in (1e-9, 0.5, 1 - 1e-9)])
    def test_network_key_checks_the_scenarios_figure(self, module, params, tmp_path, capsys):
        # The figure check is added after the report's keys, and at the
        # corners of the domain every required non-edge keeps an overlap of
        # about 10 ORTH_TOL, so none is near the gate.
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        kind = module.__name__.rpartition(".")[2]
        assert main(["verify", kind, "--params", str(path)]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        s = module.build(module.PARAMS(**params))
        net = s.NETWORK
        assert list(doc) == ["params", "relations", "phase_canon", "metadata", "network"]
        assert doc["network"] == {
            "edges": len(net.edges), "non_edges": len(net.required_non_edges), "violations": [],
        }
        assert err == ""
        thinnest = min(abs(inner(s.vectors[a], s.vectors[b])) for a, b in net.required_non_edges)
        assert thinnest > 9 * ORTH_TOL

    def test_interior_params_verify_clean(self, tmp_path, capsys):
        for i, (alpha, beta) in enumerate([(0.11, 0.83), (0.42, 0.58), (0.97, 0.03)]):
            path = tmp_path / f"p{i}.json"
            path.write_text(json.dumps(
                {"alpha": alpha, "beta": beta, "phase_d1": 0.9, "phase_d2": 2.4}
            ))
            assert main(["verify", "hardy3", "--params", str(path)]) == 0
            capsys.readouterr()


class TestVerifyFailure:
    """A relation at or above the threshold, or NaN, or a broken pair of the
    figure, exits 1 after the full report."""

    def _run(self, params_path, capsys):
        code = main(["verify", "hardy3", "--params", params_path])
        out, err = capsys.readouterr()
        assert out == json.dumps(json.loads(out), indent=2) + "\n"  # NaN included
        doc = json.loads(out)
        del doc["metadata"]["timestamp"]
        assert doc.pop("network")["violations"] == []
        return code, doc, err

    def test_a_broken_edge_fails_and_names_the_pair(self, hardy_params, capsys, monkeypatch):
        # No relation reads S1, so only the figure check sees it replaced
        # by |3>, which is orthogonal to 1 but not to D1 or f.
        build = hardy3.build

        def with_s1_at_3(params):
            s = build(params)
            return s._replace(vectors=types.MappingProxyType({**s.vectors, "S1": s.k3}))

        monkeypatch.setattr(hardy3, "build", with_s1_at_3)
        code = main(["verify", "hardy3", "--params", hardy_params])
        out, err = capsys.readouterr()
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        doc = json.loads(out)
        s = with_s1_at_3(hardy3.ScenarioParams(0.5, 0.5))
        violations = validate_realization(s.NETWORK, s.vectors)
        assert [v.pair for v in violations] == [("D1", "S1"), ("S1", "f")]
        assert code == 1
        assert all(r["residual"] < RESIDUAL_THRESHOLD for r in doc["relations"])
        assert doc["network"]["violations"] == [
            {"kind": "edge", "pair": list(v.pair), "overlap": v.overlap} for v in violations
        ]
        assert err.splitlines() == ["FAIL network: edge (D1, S1)", "FAIL network: edge (S1, f)"]

    def test_zero_threshold_fails_the_first_relation(self, hardy_params, capsys, monkeypatch):
        monkeypatch.setattr(cli, "RESIDUAL_THRESHOLD", 0.0)
        code, doc, err = self._run(hardy_params, capsys)
        expected = hardy3.verify_all(hardy3.build_scenario(hardy3.ScenarioParams(0.5, 0.5)))
        assert code == 1
        assert doc == report_to_json(expected)
        assert err.splitlines() == [f"FAIL {expected.relations[0].id}: residual >= 0.0"]

    def test_nan_residual_fails(self, hardy_params, capsys, monkeypatch):
        verify_all = hardy3.verify_all

        def with_nan_residual(s):
            report = verify_all(s)
            relations = list(report.relations)
            relations[2] = relations[2]._replace(residual=math.nan)
            return report._replace(relations=tuple(relations))

        monkeypatch.setattr(hardy3, "verify_all", with_nan_residual)
        code, doc, err = self._run(hardy_params, capsys)
        expected = with_nan_residual(hardy3.build_scenario(hardy3.ScenarioParams(0.5, 0.5)))
        assert code == 1
        assert len(doc["relations"]) == len(expected.relations)
        assert math.isnan(doc["relations"][2]["residual"])
        assert json.dumps(doc) == json.dumps(report_to_json(expected))
        assert err.splitlines() == [
            f"FAIL {expected.relations[2].id}: residual >= {RESIDUAL_THRESHOLD}"
        ]


@pytest.mark.parametrize("command", ["verify", "sample"])
@pytest.mark.parametrize("scenario,text,named", [
    ("nonlocal4", '{"a2": 0.5, "phase_a": true}', "error: phase_a=True "),
    ("hardy3", '{"alpha": "0.5", "beta": 0.5}', "error: alpha='0.5' "),
    ("nonlocal4", '{"a2": 0.5, "phase_a": null}', "error: phase_a=None "),
    ("nonlocal4", '{"a2": 0.5, "phase_a": 1' + "0" * 400 + "}", "error: phase_a "),
    ("hardy3", "[0.5]", "error: parameters must be a JSON object"),
    ("hardy3", "0.5", "error: parameters must be a JSON object"),
    # json alone would keep the last value and verify alpha = 0.3
    ("hardy3", '{"alpha": 0.5, "beta": 0.5, "alpha": 0.3}', "error: key 'alpha' is given twice\n"),
], ids=["bool", "string", "null", "huge-int", "array", "number", "repeated-key"])
def test_non_numeric_params_exit_2(tmp_path, capsys, command, scenario, text, named):
    path = tmp_path / "params.json"
    path.write_text(text)
    argv = [command, scenario, "--params", str(path)]
    if command == "sample":
        argv += ["--seed", "1", "--trials", "100"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(named)


@pytest.mark.parametrize("command", ["verify", "sample"])
def test_deeply_nested_params_exit_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    argv = [command, "hardy3", "--params", str(path)]
    if command == "sample":
        argv += ["--seed", "1", "--trials", "100"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} nests too deeply to parse\n"


def test_integer_params_are_accepted_as_floats(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text('{"alpha": 0.5, "beta": 0.5, "phase_d1": 0, "phase_d2": 1}')
    assert main(["verify", "hardy3", "--params", str(path)]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert params == {"alpha": 0.5, "beta": 0.5, "phase_d1": 0.0, "phase_d2": 1.0}
    assert all(type(v) is float for v in params.values())


@pytest.mark.parametrize("command", ["verify", "sample"])
@pytest.mark.parametrize("phase", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_phase_exits_2(tmp_path, capsys, command, phase):
    path = tmp_path / "phase.json"
    path.write_text(f'{{"alpha": 0.5, "beta": 0.5, "phase_d1": {phase}}}')
    argv = [command, "hardy3", "--params", str(path)]
    if command == "sample":
        argv += ["--seed", "1", "--trials", "100"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: phase_d1=") and "finite" in err


class TestSweep:
    def test_small_grid_bounded_by_maximum(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--grid", "3",
            "--alpha-range", "0.4,0.6", "--beta-range", "0.4,0.6",
            "--out", str(out),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        for row in rows:
            assert float(row["p_paradox"]) <= 1 / 9 + 1e-12
        summary = capsys.readouterr().out
        assert "max p_paradox" in summary

    def test_header_first_and_symmetric(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--grid", "5", "--alpha-range", "0.2,0.8",
              "--beta-range", "0.2,0.8", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,beta,p_paradox"
        table = {}
        for row in csv.DictReader(lines):
            table[(row["alpha"], row["beta"])] = float(row["p_paradox"])
        for (a, b), p in table.items():
            assert abs(table[(b, a)] - p) < 1e-14

    def test_deterministic_output(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--grid", "7", "--alpha-range", "0.1,0.9",
                "--beta-range", "0.1,0.9"]
        main(args + ["--out", str(first)])
        main(args + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_seventeen_significant_digits(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--grid", "3", "--alpha-range", "0.1,0.9",
              "--beta-range", "0.1,0.9", "--out", str(out)])
        row = out.read_text().splitlines()[1].split(",")
        # 0.1 is not exactly representable; 17 significant digits expose that
        assert row[0] == "0.10000000000000001"

    @pytest.mark.parametrize("grid,lo,hi", [
        (3, 0.01, 0.99), (4, 0.2, 0.7), (99, 0.01, 0.99), (5, 0.3, 0.3),
        (111, 0.01, 0.99),  # two cells, the corners, take the %.17g piece
        (21, 1e-9, 1e-5),  # every p below 1e-4: every cell takes the %.17g piece
    ])
    def test_bytes_match_scalar_reference(self, tmp_path, capsys, grid, lo, hi):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", str(grid), "--alpha-range", f"{lo},{hi}",
                     "--beta-range", f"{lo},{hi}", "--out", str(out)]) == 0
        values = np.linspace(lo, hi, grid)
        csv_bytes, summary = scalar_sweep(values, values, out)
        assert out.read_bytes() == csv_bytes
        assert capsys.readouterr().out == summary

    @pytest.mark.parametrize("grid,lo,hi,fallback_cells", [
        (111, 0.01, 0.99, 2),  # the corners (0.01, 0.99) and (0.99, 0.01), where p < 1e-4
        (21, 1e-9, 1e-5, 441), (5, 0.3, 0.3, 0),
    ])
    def test_cells_take_the_17g_piece_where_p_is_not_ok(self, grid, lo, hi, fallback_cells):
        axis = np.linspace(lo, hi, grid)
        ok = cli._fixed17(hardy3._paradox(axis[:, None], axis))[0]
        assert int((~ok).sum()) == fallback_cells

    def test_cells_that_are_not_ok_in_the_middle_of_rows(self, tmp_path, capsys, monkeypatch):
        # One p that _fixed17 does not mark ok in the middle of each row,
        # between cells with 0 to 3 zeros: each must print as %.17g.
        odd = [math.nan, math.inf, -math.inf, 1.0, 5e-5]
        paradox = hardy3._paradox

        def with_odd_cells(alphas, betas):
            block = paradox(alphas, betas)
            for r in range(block.shape[0]):
                block[r, 3] = odd[r % len(odd)]
            return block

        monkeypatch.setattr(hardy3, "_paradox", with_odd_cells)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "7", "--alpha-range=0.002,0.5", "--beta-range=0.01,0.99",
                     "--out", str(out)]) == 0
        alphas, betas = np.linspace(0.002, 0.5, 7), np.linspace(0.01, 0.99, 7)
        block = with_odd_cells(alphas[:, None], betas)
        ok, zeros, _ = cli._fixed17(block)
        assert set(zeros[ok].tolist()) == {0, 1, 2, 3} and int((~ok).sum()) == 8
        expected = b"alpha,beta,p_paradox\r\n" + b"".join(
            b"%.17g,%.17g,%.17g\r\n" % (a, b, p)
            for a, row in zip(alphas.tolist(), block.tolist()) for b, p in zip(betas.tolist(), row))
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("grid,alpha_range", [
        (257, "0.01,0.99"),  # 66,049 cells: a full block of 255 rows, then 2 rows
        (300, "0.5,0.5"),  # every row equal: the maximum ties in both blocks
    ])
    def test_bytes_match_scalar_reference_across_blocks(
            self, tmp_path, capsys, grid, alpha_range):
        assert grid * grid > cli._SWEEP_BLOCK_CELLS
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", str(grid), f"--alpha-range={alpha_range}",
                     "--out", str(out)]) == 0
        lo, hi = map(float, alpha_range.split(","))
        csv_bytes, summary = scalar_sweep(
            np.linspace(lo, hi, grid), np.linspace(0.01, 0.99, grid), out)
        assert out.read_bytes() == csv_bytes
        assert capsys.readouterr().out == summary

    def test_one_row_blocks_when_a_row_exceeds_the_block(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_SWEEP_BLOCK_CELLS", 4)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "5", "--alpha-range=0.5,0.5", "--out", str(out)]) == 0
        values = np.linspace(0.01, 0.99, 5)
        csv_bytes, summary = scalar_sweep(np.full(5, 0.5), values, out)
        assert out.read_bytes() == csv_bytes
        assert capsys.readouterr().out == summary

    @seed(20231018)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(grid=st.integers(3, 25), data=st.data())
    def test_bytes_match_scalar_reference_on_random_grids(self, tmp_path, capsys, grid, data):
        value = st.floats(BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN)
        ranges = []
        for _ in range(2):
            lo = data.draw(value)
            hi = data.draw(st.one_of(st.just(lo), st.floats(lo, 1.0 - BOUNDARY_MARGIN)))
            ranges.append((lo, hi))
        (alo, ahi), (blo, bhi) = ranges
        # Blocks of 2 to grid - 1 rows that do not divide the grid: several
        # blocks, the last one partial. The spare cells floor away.
        rows = data.draw(st.integers(2, grid - 1).filter(lambda r: grid % r))
        cells = rows * grid + data.draw(st.integers(0, grid - 1))
        out = tmp_path / "sweep.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_SWEEP_BLOCK_CELLS", cells)
            assert main(["sweep", "--grid", str(grid), "--alpha-range", f"{alo},{ahi}",
                         "--beta-range", f"{blo},{bhi}", "--out", str(out)]) == 0
        csv_bytes, summary = scalar_sweep(
            np.linspace(alo, ahi, grid), np.linspace(blo, bhi, grid), out)
        assert out.read_bytes() == csv_bytes
        assert capsys.readouterr().out == summary

    @seed(20231018)
    @settings(max_examples=2000, deadline=None)
    @given(x=st.floats())
    @example(x=math.nan)
    @example(x=math.inf)
    @example(x=-math.inf)
    @example(x=0.0)
    @example(x=-0.0)
    @example(x=5e-324)
    @example(x=-2.2250738585072009e-308)
    @example(x=1.7976931348623157e308)
    def test_bytes_formatting_spells_floats_as_the_str_format(self, x):
        # The sweep formats through a bytes template; its CSV is defined by f"{x:.17g}".
        assert b"%.17g" % x == f"{x:.17g}".encode()

    def test_e_notation_values_match_scalar_reference(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "5", "--alpha-range", "1e-9,2e-9",
                     "--beta-range", "1e-9,2e-9", "--out", str(out)]) == 0
        values = np.linspace(1e-9, 2e-9, 5)
        csv_bytes, summary = scalar_sweep(values, values, out)
        assert out.read_bytes() == csv_bytes
        assert capsys.readouterr().out == summary
        # every field of every data row, p included, prints in e-notation
        assert all(field.count(b"e-") == 1
                   for line in csv_bytes.splitlines()[1:] for field in line.split(b","))

    def test_longer_existing_file_is_replaced_by_exactly_the_new_bytes(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"previous run\r\n" * 10_000)
        assert main(["sweep", "--grid", "3", "--out", str(out)]) == 0
        values = np.linspace(0.01, 0.99, 3)
        assert out.read_bytes() == scalar_sweep(values, values, out)[0]

    @pytest.mark.parametrize("grid", [10**16, 2**63, 10**30])
    def test_grid_too_large_for_memory_exits_2_and_keeps_the_file(self, tmp_path, capsys, grid):
        # 10**16 float64 values are 8e16 bytes, beyond the address space, so
        # numpy fails at once and allocates nothing; the larger grids are
        # rejected before numpy sees them.
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"previous run\r\n")
        assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: grid {grid} is too large: its axes and row template do not fit in memory\n"
        )
        assert out.read_bytes() == b"previous run\r\n"

    @pytest.mark.parametrize("alpha_range,beta_range,prefix", [
        ("0.1,0.5", "1e-12,0.5", "error: beta=1e-12"),
        ("1e-12,0.5", "1e-12,0.5", "error: alpha=1e-12"),
        ("0.1,0.9999999999999", "0.1,0.5", "error: alpha=0.9999999999999"),
        # a cell-by-cell loop meets every beta before the second alpha
        ("0.1,0.9999999999999", "1e-12,0.5", "error: beta=1e-12"),
        # of two alphas out of domain, the earlier one is named
        ("0.5,1.5", "0.1,0.5", "error: alpha=1.0 "),
    ])
    def test_out_of_domain_error_names_the_first_bad_cell(
            self, tmp_path, capsys, alpha_range, beta_range, prefix):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "3", "--alpha-range", alpha_range,
                     "--beta-range", beta_range, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(prefix)

    def test_out_of_domain_keeps_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"previous run\r\n")
        assert main(["sweep", "--grid", "3", "--alpha-range", "1e-12,0.5",
                     "--out", str(out)]) == 2
        assert out.read_bytes() == b"previous run\r\n"

    def test_out_of_domain_creates_no_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "3", "--alpha-range", "1e-12,0.5",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "sweep.csv"
        assert main(["sweep", "--grid", "3", "--out", str(target)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_out_path_exits_2_and_names_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--grid", "3", "--out", ""]) == 2
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"
        assert list(tmp_path.iterdir()) == []

    def test_summary_echoes_the_out_path_as_given(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--grid", "3", "--out", "./sweep.csv"]) == 0
        assert capsys.readouterr().out.endswith(" -> ./sweep.csv\n")
        assert (tmp_path / "sweep.csv").exists()

    def test_range_outside_unit_interval_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "3", "--alpha-range", "0,0.5",
                     "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["alpha", "beta"])
    def test_negative_range_in_equals_form_reaches_the_domain_check(self, tmp_path, capsys, axis):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "3", f"--{axis}-range=-0.5,0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {axis}=-0.5 ")
        assert not out.exists()

    def test_range_inside_unit_interval_but_out_of_domain_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "3", "--alpha-range", "1e-12,0.5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: alpha=1e-12")

    def test_grid_below_three_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: grid needs at least 3 points per axis\n"
        assert not out.exists()

    @pytest.mark.parametrize("option,text", [
        ("--alpha-range", "0.5,0.1"),
        ("--beta-range", "0.9,0.2"),
        ("--alpha-range", "nan,0.5"),
        ("--beta-range", "0.1,inf"),
        ("--alpha-range", "-1e308,1e308"),
    ], ids=["alpha-lo-above-hi", "beta-lo-above-hi", "nan", "inf", "infinite-width"])
    def test_range_without_finite_lo_le_hi_exits_2_and_keeps_the_file(
            self, tmp_path, capsys, option, text):
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"previous run\r\n")
        assert main(["sweep", "--grid", "3", f"{option}={text}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option[2:-6]} range [") and err.count("\n") == 1
        assert out.read_bytes() == b"previous run\r\n"


    @pytest.mark.parametrize("option", ["--alpha-range", "--beta-range"])
    @pytest.mark.parametrize("text,reason", [
        ("0.1", "expected 'lo,hi', got '0.1'"),
        ("0.1,0.2,0.3", "expected 'lo,hi', got '0.1,0.2,0.3'"),
        ("x,0.5", "invalid _parse_range value: 'x,0.5'"),
    ], ids=["one-value", "three-values", "not-a-number"])
    @pytest.mark.parametrize("existing", [False, True], ids=["no-file", "existing-file"])
    def test_malformed_range_exits_2_through_argparse(
            self, tmp_path, capsys, option, text, reason, existing):
        out = tmp_path / "sweep.csv"
        if existing:
            out.write_bytes(b"previous run\r\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--grid", "3", f"{option}={text}", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {option}: {reason}\n")
        if existing:
            assert out.read_bytes() == b"previous run\r\n"
        else:
            assert not out.exists()


def _fixed17_checked(values):
    """``_fixed17``'s ``ok`` over ``values``, after checking every cell it marks ok.

    Such a cell lies in [1e-4, 1) and prints, as ``b"0." + b"0" * zeros +
    b"%d" % digits``, exactly the bytes of ``b"%.17g" % value``.
    """
    p = np.asarray(values, dtype=np.float64)
    ok, zeros, digits = cli._fixed17(p)
    assert ok.shape == zeros.shape == digits.shape == p.shape
    for x, good, z, d in zip(*(a.ravel().tolist() for a in (p, ok, zeros, digits))):
        if good:
            assert 1e-4 <= x < 1.0, x
            assert b"0." + b"0" * z + b"%d" % d == b"%.17g" % x, x
    return ok


class TestFixed17:
    """The sweep's vectorised %.17g for p in [1e-4, 1): exact where it says ok."""

    @seed(20261020)
    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(), st.floats(1e-5, 1.0)), min_size=1, max_size=40))
    @example(values=[math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                     1.0, -0.5, -1e-3, 1e-4, math.nextafter(1e-4, 0.0), 1e300])
    def test_ok_cells_print_as_17g_and_lie_in_the_fixed_point_range(self, values):
        # A 2-D block, as the sweep passes.
        _fixed17_checked(np.reshape(values, (1, -1)))

    def test_exact_decimal_ties_round_half_to_even(self):
        # x = M * 2**-(m + 1) with M odd: x * 10**m = M * 5**m / 2 ends in
        # exactly .5, so every such x in [10**(16 - m), 10**(17 - m)) is a tie
        # of its 17th digit.
        ties = []
        for m in range(17, 21):
            lo, hi = 2 ** (m + 1) // 10 ** (m - 16) + 1, 2 ** (m + 1) * 10 // 10 ** (m - 16)
            ties.append(np.ldexp(np.arange(lo | 1, hi, 2, dtype=np.float64), -(m + 1)))
        ties = np.concatenate(ties)
        assert ties.size == 147_219
        assert _fixed17_checked(ties).all()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_fifty_ulps_around_a_power_of_ten(self, k):
        around = [10.0**-k]
        for toward in (0.0, 1.0):
            x = 10.0**-k
            for _ in range(50):
                x = math.nextafter(x, toward)
                around.append(x)
        ok = _fixed17_checked(around)
        assert ok[(np.array(around) >= 1e-4) & (np.array(around) < 1.0)].all()

    @pytest.mark.parametrize("x,text", [
        (math.nextafter(1.0, 0.0), b"0.99999999999999989"),
        (0.5, b"0.5"), (0.25, b"0.25"), (0.0625, b"0.0625"),  # %.17g drops trailing zeros
        (0.1, b"0.10000000000000001"), (1e-4, b"0.0001"),
    ])
    def test_ends_of_the_range_and_trailing_zeros(self, x, text):
        assert _fixed17_checked([x]).all()
        assert b"%.17g" % x == text

    def test_every_value_of_a_seeded_sample_in_range_is_ok(self):
        rng = np.random.default_rng(20261020)
        values = np.concatenate([rng.uniform(1e-4, 1.0, 20_000), 10 ** rng.uniform(-4, 0, 20_000)])
        values = values[(values >= 1e-4) & (values < 1.0)]
        assert _fixed17_checked(values).all()

    def test_non_finite_cells_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok = _fixed17_checked([math.nan, math.inf, -math.inf, -0.0, 5e-324, -1e308, 1e308])
        assert not ok.any()


class TestParser:
    def test_defaults_do_not_leak_between_calls(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("sweep 5x5:")
        assert main(["sweep", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("sweep 99x99:")

    def test_valid_call_after_a_rejected_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["graph", "--figure", "5"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["graph", "--figure", "4"]) == 0
        assert len(json.loads(capsys.readouterr().out)["nodes"]) == 10


class TestSample:
    def test_hardy_estimate(self, hardy_params, capsys):
        code = main(["sample", "hardy3", "--params", hardy_params,
                     "--seed", "42", "--trials", "200000"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"estimate", "stderr", "trials", "seed", "rng"}
        assert abs(doc["estimate"] - 1 / 9) <= 4 * doc["stderr"]
        assert doc["seed"] == 42

    def test_nonlocal_estimate(self, nonlocal_params, capsys):
        code = main(["sample", "nonlocal4", "--params", nonlocal_params,
                     "--seed", "7", "--trials", "200000"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["estimate"] - 1 / 12) <= 4 * doc["stderr"]

    def test_same_seed_identical_json(self, hardy_params, capsys):
        args = ["sample", "hardy3", "--params", hardy_params,
                "--seed", "9", "--trials", "5000"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_zero_trials_exits_2(self, hardy_params, capsys):
        assert main(["sample", "hardy3", "--params", hardy_params,
                     "--seed", "1", "--trials", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: trials=0; trials run from 1 to {2**63 - 1}\n"

    @pytest.mark.parametrize("trials", [str(2**63), str(10**20)])
    def test_trials_beyond_the_sampler_exit_2(self, hardy_params, capsys, trials):
        assert main(["sample", "hardy3", "--params", hardy_params,
                     "--seed", "1", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: trials={trials}; trials run from 1 to {2**63 - 1}\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**200)])
    def test_seed_outside_the_unsigned_64_bit_range_exits_2(self, hardy_params, capsys, seed):
        assert main(["sample", "hardy3", "--params", hardy_params,
                     "--seed", seed, "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed={seed}; seeds run from 0 to {2**64 - 1}\n"

    def test_largest_seed_is_accepted(self, hardy_params, capsys):
        assert main(["sample", "hardy3", "--params", hardy_params,
                     "--seed", str(2**64 - 1), "--trials", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 2**64 - 1

    @pytest.mark.parametrize("seed,trials,option", [("true", "100", "--seed"),
                                                    ("1", "2.5", "--trials")])
    def test_non_integer_seed_or_trials_exits_2(self, hardy_params, capsys, seed, trials, option):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "hardy3", "--params", hardy_params,
                  "--seed", seed, "--trials", trials])
        assert exc.value.code == 2
        assert f"error: argument {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,params", [
        ("hardy3", {"alpha": 0.2, "beta": 0.7, "phase_d1": 0.3, "phase_d2": -1.1}),
        ("nonlocal4", {"a2": 0.37, "phase_a": 2.0}),
    ], ids=["hardy3", "nonlocal4"])
    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize("trials", [10**3, 10**6], ids=["1e3", "1e6"])
    def test_printed_count_is_the_multinomial_over_a_completed_basis(
        self, tmp_path, capsys, kind, params, seed, trials
    ):
        # The reference count: the SAMPLED outcome completed to an orthonormal
        # basis by this test's own SVD, and outcome 0 of one Philox
        # multinomial over the normalised Born weights. It is drawn with the
        # numpy under test, so no one version's stream is pinned.
        module = cli.SCENARIOS[kind]
        s = module.build(module.PARAMS.from_dict(params))
        prep, outcome = (np.asarray(s.vectors[label].components) for label in s.SAMPLED)
        _, _, vh = np.linalg.svd(outcome[None, :])
        weights = np.array([abs(np.vdot(b, prep)) ** 2 for b in [outcome, *vh[1:]]])
        rng = np.random.Generator(np.random.Philox(seed))
        count = int(rng.multinomial(trials, weights / weights.sum())[0])
        e = count / trials
        expected = {"estimate": e, "stderr": math.sqrt(e * (1.0 - e) / trials),
                    "trials": trials, "seed": seed, "rng": "philox4x64"}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        assert main(["sample", kind, "--params", str(path),
                     "--seed", str(seed), "--trials", str(trials)]) == 0
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


class TestGraph:
    @pytest.mark.parametrize("figure,nodes", [(1, 5), (2, 8), (3, 8), (4, 10)])
    def test_node_counts(self, figure, nodes, capsys):
        assert main(["graph", "--figure", str(figure)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["nodes"]) == nodes

    def test_round_trip(self, capsys):
        main(["graph", "--figure", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert ContextNetwork(doc["nodes"], doc["edges"], doc["non_edges"]) == builtin_network(2)


#: JSON leaves, with the floats and strings where an encoder could slip.
json_leaves = (
    st.none() | st.booleans() | st.integers(-(2**200), 2**200) | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf, 2**63, -(2**64)])
    | st.floats().map(np.float64)  # a float subclass whose repr is np.float64(...) on numpy 2
    | st.text(max_size=12)  # non-ASCII, control characters, quotes and backslashes included
)
json_docs = st.recursive(
    json_leaves,
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(max_size=12), children),
    max_leaves=25,
)

#: Every document kind the CLI prints: verify and sample for each scenario, graph per figure.
PRINTING_COMMANDS = [
    ["verify", "hardy3", "--params", "{hardy3}"],
    ["verify", "nonlocal4", "--params", "{nonlocal4}"],
    ["sample", "hardy3", "--params", "{hardy3}", "--seed", "42", "--trials", "1000"],
    ["sample", "nonlocal4", "--params", "{nonlocal4}", "--seed", "7", "--trials", "1000"],
] + [["graph", "--figure", str(figure)] for figure in (1, 2, 3, 4)]


class TestJsonText:
    """The CLI's writer gives ``json.dumps(doc, indent=2)`` and leaves no cyclic garbage;
    each document is printed through it and a newline, in ASCII."""

    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(doc=json_docs)
    @example(doc={"\u00e9\x00\"\\": [np.float64(0.1), -0.0, 5e-324, 1e16, math.nan, 2**64]})
    def test_equals_json_dumps_indent_2(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [
        {1: 2}, {None: 1}, {1.5}, b"x", np.int64(1), np.bool_(True), [1, object()],
    ], ids=["int-key", "null-key", "set", "bytes", "np-int", "np-bool", "object"])
    def test_anything_else_is_a_type_error(self, doc):
        with pytest.raises(TypeError):
            cli._json_text(doc)

    @pytest.mark.parametrize("argv", PRINTING_COMMANDS,
                             ids=lambda argv: "-".join(a for a in argv[:3] if a[0] != "-"))
    def test_prints_json_dumps_indent_2(self, argv, hardy_params, nonlocal_params, capsys):
        argv = [a.format(hardy3=hardy_params, nonlocal4=nonlocal_params) for a in argv]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert out.isascii()

    @pytest.mark.parametrize("argv", PRINTING_COMMANDS,
                             ids=lambda argv: "-".join(a for a in argv[:3] if a[0] != "-"))
    def test_writer_leaves_no_cyclic_garbage(self, argv, hardy_params, nonlocal_params, capsys):
        # Only the writer is measured: the rest of a command runs argparse and
        # numpy, whose garbage is theirs. json.dumps(doc, indent=2), which runs
        # json's Python encoder before 3.13, leaves 33 objects per call on 3.11.
        argv = [a.format(hardy3=hardy_params, nonlocal4=nonlocal_params) for a in argv]
        main(argv)
        doc = json.loads(capsys.readouterr().out)
        gc.collect()
        gc.disable()
        try:
            cli._json_text(doc)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0

    @pytest.mark.parametrize("argv,params,digest", [
        (["verify", "hardy3"], {"alpha": 0.5, "beta": 0.5},
         "ab952a1ac0eb353e4e86e031626b0fe42fe6a31f03c94ca2ffebe543fd3f2da9"),
        (["verify", "hardy3"], {"alpha": 0.999999999, "beta": 0.999999999},
         "24971b9b650c948cdd1f077c62f4a521b5a6e83237b2f43a1ea8721e641d2831"),
        (["verify", "nonlocal4"], {"a2": 0.5},
         "1a73b30d75a6af2afa9e3a3da834ebadfeb755780aac38ce34c563aec0d82487"),
        (["graph", "--figure", "1"], None,
         "d78e06a5c015690d4228e5fa099bc50e5c6506f9ba850e4359791c6009d17b32"),
        (["graph", "--figure", "2"], None,
         "2926e047cc242ff1a47d9e36fa6a3af4f33c0080597a17c713aa2d7723ec5fa1"),
        (["graph", "--figure", "3"], None,
         "2decb2a03be100bca59dcef4f424e835aba1754e432dda7dec2f6a602a8759ba"),
        (["graph", "--figure", "4"], None,
         "c98affd2b00d6aa1bf4a9be430aed6c2299ecbb10e063673cf4dde59001ed53c"),
    ], ids=["verify-hardy3-center", "verify-hardy3-corner", "verify-nonlocal4-center",
            "graph-1", "graph-2", "graph-3", "graph-4"])
    def test_printed_bytes_are_pinned(self, tmp_path, capsys, argv, params, digest):
        # The sha256 of stdout with the timestamp's value emptied. Every phase
        # is 0, so no libm cos or sin enters the bytes; sample is left out, as
        # numpy does not promise its sampler's stream across versions (TestSample
        # checks its count against a multinomial drawn with the numpy under
        # test). The report carries tool_version, so a version bump changes
        # the digests.
        if params is not None:
            path = tmp_path / "params.json"
            path.write_text(json.dumps(params))
            argv = [*argv, "--params", str(path)]
        assert main(argv) == 0
        out = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', capsys.readouterr().out)
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_python_m_contextnet_runs_the_cli():
    src = str(Path(contextnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "contextnet", "graph", "--figure", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["nodes"]) == 5


def test_python_m_contextnet_cli_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "contextnet.cli", "graph", "--figure", "4"],
                          capture_output=True, text=True, env=cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["nodes"]) == 10


def test_closed_stdout_exits_141_without_error_line():
    r, w = os.pipe()
    os.close(r)  # no reader before the child starts: its first write fails
    try:
        proc = subprocess.run([sys.executable, "-m", "contextnet", "graph", "--figure", "4"],
                              stdout=w, stderr=subprocess.PIPE, text=True,
                              env=cli_env(), timeout=60)
    finally:
        os.close(w)
    assert proc.returncode == 141
    assert proc.stderr == ""
