"""The benchmark's workloads: inputs made from a seed, one timed operation, output checks.

Each workload prepares its inputs in ``__init__``, before any timing, and
names how many untimed ``warmup_ops`` run first. ``op(i)`` is the operation a
closed loop times, and ``check(i, out)`` classifies its output as one of

* ``OK``;
* ``GATE``: the program itself reports a relation residual at or above the
  1e-10 gate, as ``contextnet verify`` does by exiting with code 1. This is a
  failed operation the program owns up to, like the known eq11a
  cancellation near alpha = beta = 1;
* ``WRONG``: an output the benchmark's own checks find wrong and the program
  did not flag, or an operation that raised.

Only ``WRONG`` counts in the result line's ``failed`` and makes a run
incorrect. Both kinds count against ``pass_ratio`` and in ``fail_ratio``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

from contextnet import cli, hardy3, hilbert, network, nonlocal4, report
from contextnet.hardy3 import ScenarioParams
from contextnet.nonlocal4 import LocalParams

OK, GATE, WRONG = "ok", "gate", "wrong"

#: Same gate as the verify command; never loosened here.
RESIDUAL_GATE = 1e-10

#: Every fifth point of each scenario lies this close (log-uniform) to 1.
BOUNDARY_DISTANCE = (1e-9, 1e-3)

HARDY3_IDS = (
    "eq3", "eq6", "eq9", "eq10a", "eq10b", "eq11a", "eq11b",
    "eq12", "eq13a", "eq13b", "eq14", "eq15", "eq16",
)
NONLOCAL4_IDS = ("eq17", "eq18", "eq19", "eq20", "eq21")

#: (nodes, edges) of each built-in figure, from the paper's diagrams.
FIGURE_SIZES = {1: (5, 5), 2: (8, 11), 3: (8, 11), 4: (10, 21)}

#: Sweep data rows per operation checked against the ``build_scenario`` vectors.
ROWS_CHECKED = 64

#: Born-rule trials per ``sample`` call.
SAMPLE_TRIALS = 10**6

#: Relative tolerance between a closed form of the program and its
#: independent form here, and between a reported residual and
#: |formula - direct| recomputed from the report.
REL_TOL = 1e-9


def make_points(seed: int, n: int) -> list[ScenarioParams | LocalParams]:
    """``n`` parameter points alternating hardy3 (even index) and nonlocal4.

    A fixed share, every fifth point of each scenario, is near the boundary:
    each probability is 1 - d with log10(d) uniform over
    ``BOUNDARY_DISTANCE``, where the closed forms cancel. The others are
    uniform in [1e-3, 1 - 1e-3]. Phases are uniform in [0, 2 pi).
    """
    rng = np.random.default_rng(seed)
    lo, hi = (math.log10(d) for d in BOUNDARY_DISTANCE)
    points: list[ScenarioParams | LocalParams] = []
    for i in range(n):
        k = 2 if i % 2 == 0 else 1
        if (i // 2) % 5 == 0:
            x = 1.0 - 10.0 ** rng.uniform(lo, hi, k)
        else:
            x = rng.uniform(1e-3, 1.0 - 1e-3, k)
        ph = rng.uniform(0.0, 2.0 * math.pi, k)
        if k == 2:
            points.append(ScenarioParams(float(x[0]), float(x[1]), float(ph[0]), float(ph[1])))
        else:
            points.append(LocalParams(float(x[0]), float(ph[0])))
    return points


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``contextnet`` call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def paradox_probability(a: float, b: float) -> float:
    """|<f|N_f>|^2 of the dimension-3 scenario, written out independently.

    With u = 1 - a and v = 1 - b it is ab uv / ((1 - ab)(1 - uv)), and
    1 - ab = u + av, 1 - uv = a + ub are formed without cancellation, so
    the value stays accurate near the boundary.
    """
    u, v = 1.0 - a, 1.0 - b
    return a * b * u * v / ((u + a * v) * (a + u * b))


def aa_nf_probability(a2: float) -> float:
    """|<a,a|N_f>|^2 of the two-qubit scenario, written out independently."""
    return a2 * a2 * (1.0 - a2) / (1.0 + a2)


def _scalar(x) -> complex:
    return complex(*x) if isinstance(x, list) else complex(x)


def relations_hold_together(doc: dict, p: ScenarioParams | LocalParams) -> bool:
    """The report is self-consistent and agrees with the closed forms here.

    Every residual is finite and equals |formula - direct| recomputed from
    the report. The closed form of the paradox overlap (eq16) or of
    |<a,a|N_f>|^2 (eq21) matches its independent form above within
    ``REL_TOL``, or within the residual gate for values near 0. So a report
    cannot pass by giving residual 0, or by comparing a wrong value with itself.
    """
    if isinstance(p, ScenarioParams):
        ids, key, expected = HARDY3_IDS, "eq16", paradox_probability(p.alpha, p.beta)
    else:
        ids, key, expected = NONLOCAL4_IDS, "eq21", aa_nf_probability(p.a2)
    relations = doc["relations"]
    if tuple(r["id"] for r in relations) != ids:
        return False
    for r in relations:
        residual = abs(_scalar(r["formula"]) - _scalar(r["direct"]))
        if not (math.isfinite(r["residual"])
                and math.isclose(r["residual"], residual, rel_tol=REL_TOL)):
            return False
    formula = _scalar(relations[ids.index(key)]["formula"])
    return formula.imag == 0.0 and math.isclose(
        formula.real, expected, rel_tol=REL_TOL, abs_tol=RESIDUAL_GATE
    )


class Ensemble:
    """Library path: build -> verify_all -> validate_realization -> report_to_json."""

    warmup_ops = 256

    def __init__(self, seed: int, pool: int = 1 << 15) -> None:
        self.points = make_points(seed, pool)
        self.fig2 = network.builtin_network(2)
        self.fig4 = network.builtin_network(4)
        self.relations_checked = 0
        self.max_residual = 0.0

    def op(self, i: int):
        p = self.points[i % len(self.points)]
        if isinstance(p, ScenarioParams):
            s = hardy3.build_scenario(p)
            rel_report, net = hardy3.verify_all(s), self.fig2
        else:
            s = nonlocal4.build_nonlocal(p)
            rel_report, net = nonlocal4.verify_all(s), self.fig4
        violations = network.validate_realization(net, s.realization())
        return report.report_to_json(rel_report), violations

    def check(self, i: int, out) -> str:
        doc, violations = out
        p = self.points[i % len(self.points)]
        if violations or doc["params"] != p.to_dict() or not relations_hold_together(doc, p):
            return WRONG
        residuals = [r["residual"] for r in doc["relations"]]
        self.relations_checked += len(residuals)
        worst = max(residuals)
        self.max_residual = max(self.max_residual, worst)
        return OK if worst < RESIDUAL_GATE else GATE


class Sweep:
    """``contextnet sweep`` over the default (alpha, beta) square, written to CSV."""

    warmup_ops = 3

    def __init__(self, seed: int, workdir: Path, grid: int = 111) -> None:
        if grid < 3 or grid % 2 == 0:
            raise ValueError("grid must be odd so that (0.5, 0.5) lies on it")
        self.seed = seed
        self.grid = grid
        self.path = Path(workdir) / "sweep.csv"
        self.axis = np.linspace(0.01, 0.99, grid)
        self.argv = [
            "sweep", "--grid", str(grid), "--alpha-range", "0.01,0.99",
            "--beta-range", "0.01,0.99", "--out", str(self.path),
        ]
        self.csv_bytes = 0

    def op(self, i: int):
        return run_cli(self.argv)

    def rows(self, i: int) -> list[int]:
        """Data-row indices whose value op ``i`` checks against the vectors."""
        rng = np.random.default_rng([self.seed, i])
        n = self.grid * self.grid
        return sorted(int(k) for k in rng.choice(n, size=min(ROWS_CHECKED, n), replace=False))

    def _row_ok(self, k: int, line: bytes) -> bool:
        a, b, p = (float(x) for x in line.split(b","))
        if a != self.axis[k // self.grid] or b != self.axis[k % self.grid]:
            return False
        s = hardy3.build_scenario(ScenarioParams(a, b))
        return abs(p - abs(hilbert.inner(s.f, s.n_f)) ** 2) <= RESIDUAL_GATE

    def check(self, i: int, out) -> str:
        rc, stdout, _ = out
        m = re.fullmatch(
            r"sweep (\d+)x(\d+): max p_paradox=(\S+) at alpha=(\S+) beta=(\S+) -> .*\n", stdout
        )
        if rc != 0 or m is None or m[1] != m[2] or int(m[1]) != self.grid:
            return WRONG
        p_max, a_max, b_max = (float(x) for x in m.groups()[2:])
        if abs(p_max - 1 / 9) > 1e-12 or abs(a_max - 0.5) > 1e-12 or abs(b_max - 0.5) > 1e-12:
            return WRONG
        wanted = set(self.rows(i))
        n_rows, rows_ok = 0, True
        with open(self.path, "rb") as fh:
            if fh.readline().rstrip(b"\r\n") != b"alpha,beta,p_paradox":
                return WRONG
            for k, line in enumerate(fh):
                n_rows += 1
                if k in wanted and not self._row_ok(k, line):
                    rows_ok = False
        self.csv_bytes += self.path.stat().st_size
        return OK if rows_ok and n_rows == self.grid * self.grid else WRONG


class CliMix:
    """In-process ``contextnet`` calls rotating over verify, sample and graph."""

    warmup_ops = 45
    #: Eight verify/sample slots and one graph slot per round.
    CYCLE = (
        ("verify", "hardy3"), ("verify", "nonlocal4"),
        ("sample", "hardy3"), ("sample", "nonlocal4"),
    ) * 2 + (("graph", None),)

    def __init__(self, seed: int, workdir: Path, files: int = 256) -> None:
        points = make_points(seed, 2 * files)
        rng = np.random.default_rng([seed, 1])
        self.files = {"hardy3": [], "nonlocal4": []}
        for j, p in enumerate(points):
            scenario = "hardy3" if isinstance(p, ScenarioParams) else "nonlocal4"
            path = Path(workdir) / f"{scenario}-{j}.json"
            path.write_text(json.dumps(p.to_dict()))
            if scenario == "hardy3":
                expected = paradox_probability(p.alpha, p.beta)
            else:
                expected = aa_nf_probability(p.a2)
            sample_seed = int(rng.integers(2**63))
            self.files[scenario].append((str(path), p, expected, sample_seed))

    def _slot(self, i: int):
        command, scenario = self.CYCLE[i % len(self.CYCLE)]
        if scenario is None:
            return command, None, i // len(self.CYCLE) % 4 + 1
        files = self.files[scenario]
        return command, scenario, files[i % len(files)]

    def op(self, i: int):
        command, scenario, arg = self._slot(i)
        if command == "graph":
            return run_cli(["graph", "--figure", str(arg)])
        argv = [command, scenario, "--params", arg[0]]
        if command == "sample":
            argv += ["--seed", str(arg[3]), "--trials", str(SAMPLE_TRIALS)]
        return run_cli(argv)

    def check(self, i: int, out) -> str:
        rc, stdout, stderr = out
        command, _, arg = self._slot(i)
        try:
            doc = json.loads(stdout)
        except ValueError:
            return WRONG
        if command == "graph":
            sizes = (len(doc["nodes"]), len(doc["edges"]))
            return OK if rc == 0 and sizes == FIGURE_SIZES[arg] else WRONG
        _, point, expected, sample_seed = arg
        if command == "verify":
            if doc["params"] != point.to_dict() or not relations_hold_together(doc, point):
                return WRONG
            over = not all(r["residual"] < RESIDUAL_GATE for r in doc["relations"])
            if rc == 0 and not over:
                return OK
            return GATE if rc == 1 and over and stderr.startswith("FAIL") else WRONG
        # sample: within 5 standard errors of the closed form, plus five counts
        # of slack for the discrete tail when trials * p is small.
        if rc != 0 or doc["trials"] != SAMPLE_TRIALS or doc["seed"] != sample_seed:
            return WRONG
        mean = SAMPLE_TRIALS * expected
        deviation = abs(doc["estimate"] * SAMPLE_TRIALS - mean)
        return OK if deviation <= 5.0 * math.sqrt(mean * (1.0 - expected)) + 5.0 else WRONG


def make(name: str, seed: int, workdir: Path):
    """The named workload at its benchmark size."""
    if name == "ensemble":
        return Ensemble(seed)
    if name == "sweep":
        return Sweep(seed, workdir)
    if name == "cli-mix":
        return CliMix(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
