"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import csv
import math
import time
from functools import lru_cache

import numpy as np

from contextnet import hardy3, nonlocal4
from contextnet.cli import main
from contextnet.hardy3 import (
    ScenarioParams,
    build_scenario,
    predicted_f3,
    predicted_nf3,
    predicted_paradox,
)
from contextnet.hilbert import inner
from contextnet.network import builtin_network, validate_realization
from contextnet.nonlocal4 import (
    LocalParams,
    build_nonlocal,
    predicted_aa_nf,
    predicted_faa,
    predicted_fnl_nf,
)
from contextnet.oracle import estimate
from contextnet.report import nan_max
from test_nonlocal4 import det_c

ONE_NINTH = 1 / 9
ONE_TWELFTH = 1 / 12


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@lru_cache(maxsize=1)
def _random_ensembles():
    """1000 random scenarios of each kind, checked in a single timed pass.

    Returns the worst formula-vs-vector magnitude deviation, the worst
    complex-identity residual and the elapsed wall time.
    """
    rng = np.random.default_rng(20260810)
    t0 = time.perf_counter()

    worst_magnitude = 0.0
    worst_identity = 0.0
    for _ in range(1000):
        alpha, beta = rng.uniform(0.01, 0.99, size=2)
        ph1, ph2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        s = build_scenario(ScenarioParams(alpha, beta, ph1, ph2))
        worst_magnitude = nan_max((
            worst_magnitude,
            abs(predicted_nf3(alpha, beta) - abs(inner(s.k3, s.n_f)) ** 2),
            abs(predicted_f3(alpha, beta) - abs(inner(s.f, s.k3)) ** 2),
            abs(predicted_paradox(alpha, beta) - abs(inner(s.f, s.n_f)) ** 2),
        ))
        via_d1 = inner(s.f, s.d1) * inner(s.d1, s.k3)
        via_d2 = inner(s.f, s.d2) * inner(s.d2, s.k3)
        direct_f3 = inner(s.f, s.k3)
        normalization = (
            abs(inner(s.f, s.d1)) ** 2
            + abs(inner(s.f, s.d2)) ** 2
            - abs(inner(s.f, s.k3)) ** 2
        )
        report = hardy3.verify_all(s)
        worst_identity = nan_max((
            worst_identity,
            report.relation("eq3").residual,
            report.relation("eq6").direct_value,
            report.relation("eq9").residual,
            report.relation("eq10a").residual,
            report.relation("eq10b").residual,
            abs(via_d1 - direct_f3),
            abs(via_d2 - direct_f3),
            abs(normalization - 1.0),
        ))

    for _ in range(1000):
        a2 = rng.uniform(0.01, 0.99)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        s = build_nonlocal(LocalParams(a2, phase))
        worst_magnitude = nan_max((
            worst_magnitude,
            abs(predicted_fnl_nf(a2) - abs(inner(s.f_nl, s.n_f)) ** 2),
            abs(predicted_faa(a2) - abs(inner(s.f_nl, s.kaa)) ** 2),
            abs(predicted_aa_nf(a2) - abs(inner(s.kaa, s.n_f)) ** 2),
        ))
        worst_identity = nan_max((
            worst_identity, nonlocal4.verify_all(s).relation("eq18").direct_value
        ))

    elapsed = time.perf_counter() - t0
    return worst_magnitude, worst_identity, elapsed


def test_criterion_1_paradox_maximum(tmp_path):
    formula_dev = abs(predicted_paradox(0.5, 0.5) - ONE_NINTH)

    out = tmp_path / "sweep.csv"
    t0 = time.perf_counter()
    code = main([
        "sweep", "--grid", "99",
        "--alpha-range", "0.01,0.99", "--beta-range", "0.01,0.99",
        "--out", str(out),
    ])
    elapsed = time.perf_counter() - t0
    with open(out, newline="") as fh:
        rows = [(float(r["alpha"]), float(r["beta"]), float(r["p_paradox"]))
                for r in csv.DictReader(fh)]
    best = max(rows, key=lambda r: r[2])
    step = (0.99 - 0.01) / 98

    ok = (
        formula_dev < 1e-12
        and code == 0
        and len(rows) == 99 * 99
        and abs(best[0] - 0.5) <= step + 1e-12
        and abs(best[1] - 0.5) <= step + 1e-12
        and abs(best[2] - ONE_NINTH) < 1e-4
        and elapsed < 1.0
    )
    _report(
        "1 paradox-maximum",
        ok,
        f"formula dev {formula_dev:.2e}, argmax ({best[0]:.4f}, {best[1]:.4f}), "
        f"max {best[2]:.10f}, sweep {elapsed * 1e3:.0f} ms",
    )
    assert ok


def test_criterion_2_one_twelfth_point():
    predicted_aa_nf(0.5)  # warm the call path before timing
    t0 = time.perf_counter()
    value = predicted_aa_nf(0.5)
    elapsed = time.perf_counter() - t0
    dev = abs(value - ONE_TWELFTH)
    ok = dev < 1e-12 and elapsed < 1e-3
    _report("2 one-twelfth-point", ok, f"dev {dev:.2e}, call {elapsed * 1e6:.1f} us")
    assert ok


def test_criterion_3_formula_oracle_equivalence():
    worst_magnitude, _, elapsed = _random_ensembles()
    ok = worst_magnitude < 1e-10 and elapsed < 5.0
    _report(
        "3 formula-oracle-equivalence",
        ok,
        f"worst magnitude deviation {worst_magnitude:.2e} over 2x1000 scenarios, "
        f"{elapsed:.2f} s",
    )
    assert ok


def test_criterion_4_complex_identity_residuals():
    _, worst_identity, elapsed = _random_ensembles()
    ok = worst_identity < 1e-10 and elapsed < 5.0
    _report(
        "4 complex-identity-residuals",
        ok,
        f"worst residual {worst_identity:.2e} over the same ensembles",
    )
    assert ok


def test_criterion_5_reduction_identity():
    rng = np.random.default_rng(515)
    worst = nan_max(
        abs(predicted_fnl_nf(a2) - predicted_paradox(a2, a2))
        for a2 in rng.uniform(0.01, 0.99, size=100)
    )
    ok = worst < 1e-13
    _report("5 reduction-identity", ok, f"worst deviation {worst:.2e} over 100 points")
    assert ok


def test_criterion_6_graph_faithfulness_and_entanglement():
    fig2, fig3, fig4 = builtin_network(2), builtin_network(3), builtin_network(4)
    grid = np.linspace(0.05, 0.95, 19)

    total_violations = 0
    det_ok = True
    for t in grid:
        hardy = build_scenario(ScenarioParams(float(t), float(1.0 - t), 0.6 * t, -1.2 * t))
        total_violations += len(validate_realization(fig2, hardy.realization()))

        nl = build_nonlocal(LocalParams(float(t), 2.1 * t))
        total_violations += len(validate_realization(fig3, nl.realization()))
        total_violations += len(validate_realization(fig4, nl.realization()))

        # f_NL, the replacement for f, and N_f must be entangled: |det C| is
        # s_max * s_min with s_max <= 1, so it bounds s_min from below. Every
        # product outcome must stay a product state, det C = 0 up to round-off.
        for label, ket in nl.vectors.items():
            if label in ("f_NL", "N_f"):
                det_ok &= det_c(ket) > 1e-10
            else:
                det_ok &= det_c(ket) < 1e-15

    ok = total_violations == 0 and det_ok
    _report(
        "6 graph-faithfulness",
        ok,
        f"{total_violations} violations across 19-point grid, "
        f"det C classification {'clean' if det_ok else 'broken'}",
    )
    assert ok


def test_criterion_7_statistical_check():
    t0 = time.perf_counter()
    hardy_est = estimate(build_scenario(ScenarioParams(0.5, 0.5)), seed=20260810, trials=10**6)
    nl_est = estimate(build_nonlocal(LocalParams(0.5)), seed=20260810, trials=10**6)
    elapsed = time.perf_counter() - t0

    hardy_dev = abs(hardy_est.estimate - ONE_NINTH)
    nl_dev = abs(nl_est.estimate - ONE_TWELFTH)
    ok = (
        hardy_dev <= 4 * hardy_est.standard_error
        and nl_dev <= 4 * nl_est.standard_error
        and elapsed < 10.0
    )
    _report(
        "7 statistical-check",
        ok,
        f"f-outcome {hardy_est.estimate:.5f} (dev {hardy_dev / hardy_est.standard_error:.2f} se), "
        f"a,a outcome {nl_est.estimate:.5f} (dev {nl_dev / nl_est.standard_error:.2f} se), "
        f"{elapsed:.2f} s",
    )
    assert ok


def test_criterion_8_equal_superposition():
    s = build_scenario(ScenarioParams(0.5, 0.5))
    weights = [abs(inner(k, s.n_f)) ** 2 for k in (s.k1, s.k2, s.k3)]
    worst = nan_max(abs(w - 1 / 3) for w in weights)
    ok = worst < 1e-12
    _report(
        "8 equal-superposition",
        ok,
        f"coefficients {[round(w, 12) for w in weights]}, worst dev {worst:.2e}",
    )
    assert ok
