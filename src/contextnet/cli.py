"""Command-line front end.

Subcommands:
    verify  build a scenario from a params file and report every relation
    sweep   tabulate the paradox probability over an (alpha, beta) grid
    sample  Monte-Carlo estimate of the paradox probability
    graph   print a built-in orthogonality network as JSON

Exit codes: 0 success, 1 a relation residual exceeded the threshold,
2 bad input (unparseable file, out-of-domain parameters, unwritable path).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import hardy3, nonlocal4, oracle
from ._version import __version__
from .errors import ContextNetError
from .network import builtin_network, network_to_json
from .report import report_to_json

#: A relation with residual at or above this fails the verify command.
RESIDUAL_THRESHOLD = 1e-10

#: Scenario name -> module. Each module defines ``PARAMS``, ``build`` and
#: ``verify_all``, looked up on the module at every call.
SCENARIOS = {"hardy3": hardy3, "nonlocal4": nonlocal4}


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for the paradox-probability sweep."""

    grid_points_per_axis: int
    alpha_range: tuple[float, float]
    beta_range: tuple[float, float]
    output_path: Path

    def __post_init__(self) -> None:
        if self.grid_points_per_axis < 3:
            raise ValueError("grid needs at least 3 points per axis")
        for name, (lo, hi) in (("alpha", self.alpha_range), ("beta", self.beta_range)):
            if not (0.0 < lo <= hi < 1.0):
                raise ValueError(f"{name} range [{lo}, {hi}] must lie strictly inside (0, 1)")


def _build(kind: str, path: str):
    """The scenario named ``kind``, built from the JSON parameter file."""
    module = SCENARIOS[kind]
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return module.build(module.PARAMS.from_dict(doc))


def cmd_verify(kind: str, params_path: str) -> int:
    report = SCENARIOS[kind].verify_all(_build(kind, params_path))
    timestamp = datetime.now(timezone.utc).isoformat()
    print(json.dumps(report_to_json(report, timestamp=timestamp), indent=2))
    failing = [r.id for r in report.relations if not r.residual < RESIDUAL_THRESHOLD]
    if failing:
        print(f"FAIL {failing[0]}: residual >= {RESIDUAL_THRESHOLD}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(spec: SweepSpec) -> int:
    n = spec.grid_points_per_axis
    alphas = np.linspace(spec.alpha_range[0], spec.alpha_range[1], n)
    betas = np.linspace(spec.beta_range[0], spec.beta_range[1], n)
    # (p, alpha, beta). Rows run in lexicographic (alpha, beta) order, so the
    # first maximum is also the lexicographically smallest one: ties keep it.
    best = (-1.0, 1.0, 1.0)
    with open(spec.output_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "p_paradox"])
        for a in alphas:
            for b in betas:
                p = hardy3.predicted_paradox(float(a), float(b))
                writer.writerow([f"{a:.17g}", f"{b:.17g}", f"{p:.17g}"])
                if p > best[0]:
                    best = (p, float(a), float(b))
    print(
        f"sweep {n}x{n}: max p_paradox={best[0]:.17g} "
        f"at alpha={best[1]:.17g} beta={best[2]:.17g} -> {spec.output_path}"
    )
    return 0


def cmd_sample(kind: str, params_path: str, seed: int, trials: int) -> int:
    estimate = oracle.estimate(_build(kind, params_path), seed, trials)
    print(json.dumps(estimate.to_json(), indent=2))
    return 0


def cmd_graph(figure: int) -> int:
    print(json.dumps(network_to_json(builtin_network(figure)), indent=2))
    return 0


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo,hi', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextnet",
        description="Measurement-context networks: closed-form overlap relations, "
        "brute-force vector checks and Born-rule sampling.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check every relation of a scenario")
    p_verify.add_argument("scenario", choices=list(SCENARIOS))
    p_verify.add_argument("--params", required=True, help="JSON parameter file")

    p_sweep = sub.add_parser("sweep", help="grid sweep of the paradox probability")
    p_sweep.add_argument("--grid", type=int, default=99, help="points per axis (default 99)")
    p_sweep.add_argument("--alpha-range", type=_parse_range, default=(0.01, 0.99))
    p_sweep.add_argument("--beta-range", type=_parse_range, default=(0.01, 0.99))
    p_sweep.add_argument("--out", required=True, help="CSV output path")

    p_sample = sub.add_parser("sample", help="Monte-Carlo estimate of the paradox")
    p_sample.add_argument("scenario", choices=list(SCENARIOS))
    p_sample.add_argument("--params", required=True, help="JSON parameter file")
    p_sample.add_argument("--seed", type=_parse_seed, required=True)
    p_sample.add_argument("--trials", type=int, required=True)

    p_graph = sub.add_parser("graph", help="print a built-in network as JSON")
    p_graph.add_argument("--figure", type=int, choices=[1, 2, 3, 4], required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; every bad input, whatever the command, exits 2 here."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.scenario, args.params)
        if args.command == "sweep":
            return cmd_sweep(
                SweepSpec(
                    grid_points_per_axis=args.grid,
                    alpha_range=args.alpha_range,
                    beta_range=args.beta_range,
                    output_path=Path(args.out),
                )
            )
        if args.command == "sample":
            return cmd_sample(args.scenario, args.params, args.seed, args.trials)
        return cmd_graph(args.figure)
    except (ContextNetError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
