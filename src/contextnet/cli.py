"""Command-line front end.

Subcommands:
    verify  build a scenario from a params file, report every relation and
            check the vectors against the scenario's figure
    sweep   tabulate the paradox probability over an (alpha, beta) grid
    sample  Monte-Carlo estimate of the paradox probability
    graph   print a built-in orthogonality network as JSON

Exit codes: 0 success, 1 a relation residual exceeded the threshold or
a vector broke a pair of the scenario's figure, 2 bad input (unparseable
file or one that repeats a key, out-of-domain parameters, unwritable path)
or ``sample`` or ``sweep`` without numpy, 141 standard output was closed
before the output was written (128 + SIGPIPE, as a shell reports a process
that a broken pipe killed). ``verify``, ``sample`` and ``graph`` print through
``_json_text``, which gives ``json.dumps(doc, indent=2)`` byte for byte.

Run it as ``contextnet``, ``python -m contextnet`` or ``python -m contextnet.cli``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii

from . import hardy3, nonlocal4, oracle
from ._version import __version__
from .errors import BOUNDARY_MARGIN, require_interior
from .network import NETWORKS, builtin_network, network_to_json, validate_realization
from .report import report_to_json

#: A relation with residual at or above this fails the verify command.
RESIDUAL_THRESHOLD = 1e-10

#: Exit status when stdout's reader has gone: 128 + SIGPIPE, as a shell reports it.
BROKEN_PIPE_EXIT = 141

#: Most cells of one block of alpha rows that ``cmd_sweep`` evaluates in one
#: call; a grid wider than this gets one-row blocks.
_SWEEP_BLOCK_CELLS = 2**16

#: 10**17 ... 10**20, the scales of p = 0.1 ... 0.0001 to 17 integer digits, by
#: the zeros after "0." in p. Literals, as ``10.0 ** k`` is not exact everywhere;
#: each is exact as a double, since 10**k = 2**k * 5**k and 5**20 < 2**53.
_SCALES = (1e17, 1e18, 1e19, 1e20)

#: Veltkamp's splitter 2**27 + 1 (see ``_split``).
_SPLITTER = 134217729.0

#: json's tokens for the floats that ``float.__repr__`` spells nan, inf and -inf.
_FLOAT_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: Scenario name -> module. Each module defines ``PARAMS``, ``build`` and
#: ``verify_all``, looked up on the module at every call.
SCENARIOS = {"hardy3": hardy3, "nonlocal4": nonlocal4}


def _json_text(doc, indent: str = "\n") -> str:
    """``json.dumps(doc, indent=2)``, character for character; ``indent`` closes ``doc``.

    ``doc`` holds str-keyed dicts, lists, tuples, str, int, float, bool and
    None; anything else raises TypeError. No call leaves a reference cycle.
    """
    if isinstance(doc, float):
        text = float.__repr__(doc)  # repr() spells a numpy.float64 np.float64(...)
        return _FLOAT_TOKENS.get(text, text)
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    inner = indent + "  "
    if isinstance(doc, dict):
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in doc.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(doc, (list, tuple)):
        items = [_json_text(v, inner) for v in doc]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if doc is None:
        return "null"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a key given twice raises ValueError naming it."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is given twice")
        doc[key] = value
    return doc


def _build(kind: str, path: str):
    """The scenario named ``kind``, built from the JSON parameter file."""
    module = SCENARIOS[kind]
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError(f"{path} nests too deeply to parse") from None
    return module.build(module.PARAMS.from_dict(doc))


def cmd_verify(kind: str, params_path: str) -> int:
    """Print the report plus the figure check as ``network``; 1 on a residual or a broken pair."""
    s = _build(kind, params_path)
    report = SCENARIOS[kind].verify_all(s)
    violations = validate_realization(s.NETWORK, s.vectors)
    doc = report_to_json(report, timestamp=datetime.now(timezone.utc).isoformat())
    doc["network"] = {
        "edges": len(s.NETWORK.edges),
        "non_edges": len(s.NETWORK.required_non_edges),
        "violations": [
            {"kind": v.kind, "pair": list(v.pair), "overlap": v.overlap} for v in violations
        ],
    }
    print(_json_text(doc))
    failing = [r.id for r in report.relations if not r.residual < RESIDUAL_THRESHOLD]
    if failing:
        print(f"FAIL {failing[0]}: residual >= {RESIDUAL_THRESHOLD}", file=sys.stderr)
    for v in violations:
        print(f"FAIL network: {v.kind} ({v.pair[0]}, {v.pair[1]})", file=sys.stderr)
    return 1 if failing or violations else 0


def _split(v):
    """Veltkamp's split of a float64 array: ``v == hi + lo``, each of at most 26 bits."""
    hi = v * _SPLITTER
    hi -= hi - v
    return hi, v - hi


def _fixed17(p):
    """``(ok, zeros, digits)`` for each cell of ``p``, a float64 array.

    Where ``ok``, ``b"0." + b"0" * zeros + b"%d" % digits == b"%.17g" % p``:
    p lies in [1e-4, 1), where ``%.17g`` prints fixed-point, and its 17 digits
    are proved exact. Any other cell, NaN and the infinities included, is not
    ``ok``, and its zeros and digits mean nothing.
    """
    import numpy as np

    with np.errstate(invalid="ignore"):  # some numpy builds warn when a NaN is compared
        ok = (p >= 1e-4) & (p < 1.0)
    x = np.where(ok, p, 0.5)  # finite everywhere, so every int cast below is defined
    # The zeros after "0.", -1 - floor(log10 x): each literal is the double just
    # above its power of ten, so x < 0.1 exactly when x < 1/10. Cast before
    # adding, as numpy's bool + bool is a logical or.
    zeros = (x < 0.1).astype(np.intp)
    zeros += x < 0.01
    zeros += x < 0.001
    s = np.array(_SCALES).take(zeros)
    # Dekker's two-product, hi + lo == x * s == x * 10**(17 + zeros) exactly, as
    # lo = ((x_hi*s_hi - hi) + x_hi*s_lo + x_lo*s_hi) + x_lo*s_lo, in place.
    (x_hi, x_lo), (s_hi, s_lo) = _split(x), _split(s)
    hi = x * s
    lo = x_hi * s_hi
    lo -= hi
    for a, b in ((x_hi, s_lo), (x_lo, s_hi), (x_lo, s_lo)):
        lo += np.multiply(a, b, out=s)
    # hi + lo in [10**16, 10**17): 17 digits. A guard: the exact zero count
    # already puts every p of [1e-4, 1) there, its hi included.
    ok &= ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (hi < 1e17)
    # Where ok, hi is a double in [1e16, 1e17], so an even integer, and |lo| <= 8:
    # rounding lo half to even rounds hi + lo half to even, as %.17g does, and
    # both casts are exact.
    digits = hi.astype(np.int64)
    digits += np.rint(lo, out=lo).astype(np.int64)
    # %.17g drops trailing zeros.
    flat = digits.reshape(-1)
    cells = np.flatnonzero(ok.reshape(-1) & (flat // 10 * 10 == flat))
    while cells.size:
        flat[cells] //= 10
        cells = cells[flat[cells] % 10 == 0]
    return ok, zeros, digits


def cmd_sweep(
    grid: int, alpha_range: tuple[float, float], beta_range: tuple[float, float], out: str
) -> int:
    """Write the paradox probability over the grid as CSV, one block of alpha rows at a time.

    The grid size and the two ranges are checked first, then every grid
    value, all before the file is opened, so bad input leaves an existing
    file as it was. The first grid value out of the domain, in the order a
    cell-by-cell loop would meet them (the first alpha, every beta, the
    other alphas), fixes the ``error:`` text. A grid whose axes or piece
    table do not fit in memory is bad input too. Each row is filled in one
    ``%`` pass and each block's rows are joined and written in one
    ``write``, so memory holds one block's text, of at most about 2**16
    cells. ``out`` is opened, and echoed in the summary line, as given. The
    summary names the grid's first largest p, or its first NaN p.
    """
    if grid < 3:
        raise ValueError("grid needs at least 3 points per axis")
    for name, (lo, hi) in (("alpha", alpha_range), ("beta", beta_range)):
        # A range of infinite width would make np.linspace warn before the checks below.
        if not (lo <= hi and math.isfinite(hi - lo)):
            raise ValueError(f"{name} range [{lo}, {hi}] needs lo <= hi and a finite width")
    too_large = f"grid {grid} is too large: its axes and row template do not fit in memory"
    # An axis of this many float64s exceeds any address space, and numpy
    # fails on it with errors that do not name the grid (IndexError at 2**63).
    if grid > sys.maxsize // 8:
        raise ValueError(too_large)
    import numpy as np  # after the checks above, so they fail alike without numpy

    try:
        alpha_axis = np.linspace(alpha_range[0], alpha_range[1], grid)
        alphas = alpha_axis.tolist()
        betas = np.linspace(beta_range[0], beta_range[1], grid)
        # Five pieces per beta, each beta formatted once: ",<beta>,0.%d\r\n"
        # with 0 to 3 zeros after "0.", and ",<beta>,%.17g\r\n". Each cell
        # takes the piece of its ``_fixed17`` zeros where ``ok``, else the last
        # (a p below 1e-4, which %.17g prints with an exponent, or a NaN); a
        # row's template is its alpha text joined with its cells' pieces and
        # takes each cell's digits or p in one C-level formatting pass. bytes
        # %-formatting spells a float as f"{x:.17g}" does (both call
        # PyOS_double_to_string), so each p is spelled as %.17g spells it.
        heads = [b",%.17g," % b for b in betas.tolist()]
        pieces = np.empty((grid, 5), dtype=object)
        for z, tail in enumerate((b"0.%d\r\n", b"0.0%d\r\n", b"0.00%d\r\n", b"0.000%d\r\n",
                                  b"%.17g\r\n")):
            pieces[:, z] = [h + tail for h in heads]
    except MemoryError:
        raise ValueError(too_large) from None
    if not all(((axis >= BOUNDARY_MARGIN) & (axis <= 1.0 - BOUNDARY_MARGIN)).all()
               for axis in (alpha_axis, betas)):
        # Some value is out of the domain: name the first, as require_interior words it.
        require_interior(alphas[0], "alpha")
        for b in betas:
            require_interior(b, "beta")
        for a in alphas[1:]:
            require_interior(a, "alpha")
    rows = max(1, _SWEEP_BLOCK_CELLS // grid)
    columns = np.arange(grid)
    # (p, alpha, beta). Blocks and the rows within a block run in
    # lexicographic (alpha, beta) order and argmax returns the first maximum,
    # or the first NaN, of a block in row-major order, so a strict > that
    # never replaces a NaN keeps the grid's first maximum, or its first NaN.
    best = (-1.0, 1.0, 1.0)
    with open(out, "wb") as fh:
        # The csv module's excel dialect would write the same bytes: it never
        # quotes these fields, and it ends each row with \r\n.
        fh.write(b"alpha,beta,p_paradox\r\n")
        for i in range(0, grid, rows):
            block = hardy3._paradox(alpha_axis[i : i + rows, None], betas)
            ok, zeros, digits = _fixed17(block)
            lines = pieces[columns, np.where(ok, zeros, 4)].tolist()
            args = digits.ravel().tolist()
            odd = np.flatnonzero(~ok)
            for k, p in zip(odd.tolist(), block.ravel()[odd].tolist()):
                args[k] = p
            args = tuple(args)
            # One write per block. A single % over the block's joined row
            # templates would grow its result by realloc, faulting in fresh
            # pages on every call; a join allocates its result once.
            fh.write(b"".join(
                (a + a.join(row_lines)) % args[k : k + grid]
                for a, row_lines, k in zip(
                    (b"%.17g" % a for a in alphas[i : i + rows]), lines, range(0, len(args), grid))
            ))
            r, j = divmod(int(block.argmax()), grid)
            p = float(block[r, j])
            if p > best[0] or (math.isnan(p) and not math.isnan(best[0])):
                best = (p, alphas[i + r], float(betas[j]))
    print(
        f"sweep {grid}x{grid}: max p_paradox={best[0]:.17g} "
        f"at alpha={best[1]:.17g} beta={best[2]:.17g} -> {out}"
    )
    return 0


def cmd_sample(kind: str, params_path: str, seed: int, trials: int) -> int:
    estimate = oracle.estimate(_build(kind, params_path), seed, trials)
    print(_json_text(estimate.to_json()))
    return 0


def cmd_graph(figure: int) -> int:
    print(_json_text(network_to_json(builtin_network(figure))))
    return 0


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo,hi', got {text!r}")
    return float(parts[0]), float(parts[1])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared within the process.

    Parsing does not change it: every ``parse_args`` call starts from the
    declared defaults.
    """
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
    # argparse reads "-0.5,0.5" as an option, so a negative lo needs the "=" form.
    for axis in ("alpha", "beta"):
        p_sweep.add_argument(
            f"--{axis}-range", type=_parse_range, default=(0.01, 0.99), metavar="LO,HI",
            help=f"default 0.01,0.99; negative LO: --{axis}-range=LO,HI",
        )
    p_sweep.add_argument("--out", required=True, help="CSV output path")

    p_sample = sub.add_parser("sample", help="Monte-Carlo estimate of the paradox")
    p_sample.add_argument("scenario", choices=list(SCENARIOS))
    p_sample.add_argument("--params", required=True, help="JSON parameter file")
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--trials", type=int, required=True)

    p_graph = sub.add_parser("graph", help="print a built-in network as JSON")
    p_graph.add_argument("--figure", type=int, choices=list(NETWORKS), required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; every bad input, whatever the command, exits 2 here.

    Bad input is a ``ValueError`` or ``OSError``; a ``TypeError`` is a defect.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.scenario, args.params)
        if args.command == "sweep":
            return cmd_sweep(args.grid, args.alpha_range, args.beta_range, args.out)
        if args.command == "sample":
            return cmd_sample(args.scenario, args.params, args.seed, args.trials)
        return cmd_graph(args.figure)
    except BrokenPipeError:
        raise  # a closed stdout is not bad input; ``run`` handles it
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: {args.command} needs numpy", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry point: ``main`` on ``sys.argv``, then exit with its code."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
    except BrokenPipeError:
        # The recipe of the ``signal`` docs: point stdout at devnull so that
        # the interpreter's own flush at exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(BROKEN_PIPE_EXIT)
    sys.exit(code)


if __name__ == "__main__":
    run()
