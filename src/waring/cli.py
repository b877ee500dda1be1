"""Command line front end.

Every decomposition command prints a JSON certificate on stdout (or a
human summary with --text) and exits 0 when the certificate is valid.
Budget exhaustion exits 2 and prints its diagnostics on stderr as one
line of sorted-key JSON, an unmet mathematical hypothesis exits 3, and
malformed input exits 1.  Polynomials are given inline or as a path to a
file containing the same text; `verify` also accepts '-' for stdin.

The installed `waring` command enters through `waring_launcher`, which
pins the BLAS under numpy to one thread before this module loads (see
the package docstring); running this module directly pins nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import partial

from .apolarity import cat_rank_table, essential_variables
from .avoidance import AvoidanceSet
from .binary import border_rank_binary, open_rank_binary, rank_binary
from .certify import (
    BOUND_WITNESS_CLAIM,
    ROUTES,
    VERSION,
    from_json,
    replay,
    route_by_shape,
    to_json,
    verify_decomposition,
)
from .decomposition import RESIDUAL_TOL
from .errors import (
    DimensionMismatch,
    ParseFormError,
    PreconditionError,
    RetryExhausted,
    WaringError,
)
from .forms import Form, form_to_string, parse_form
from .quartic import witness_quartic
from .ternary import bound_B1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RETRY = 2
EXIT_PRECONDITION = 3
MIN_NUM_VARS = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad usage; route it to exit 1 instead
    def error(self, message):
        raise _UsageError(message)


def _read_text(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if os.path.isfile(arg):
        with open(arg, encoding="utf-8") as handle:
            return handle.read()
    return arg


def _infer_num_vars(text: str) -> int:
    """One past the largest index of an x<i> in text, at least MIN_NUM_VARS."""
    indices = [int(m) for m in re.findall(r"x(\d+)", text)]
    return max([MIN_NUM_VARS - 1] + indices) + 1


def _load_form(arg: str, num_vars: int | None = None) -> Form:
    text = _read_text(arg).strip()
    n = num_vars if num_vars is not None else _infer_num_vars(text)
    return parse_form(text, n)


def _load_avoidance(path: str, text: str, num_vars: int) -> AvoidanceSet:
    """The avoided set of the generators in `text`, one per line, read from `path`."""
    texts = [ln for ln in (ln.strip() for ln in text.split("\n"))
             if ln and not ln.startswith("#")]
    if not texts:
        raise ParseFormError(f"avoidance file {path!r} has no generators")
    return AvoidanceSet(num_vars, tuple(parse_form(t, num_vars) for t in texts))


def _emit(cert, as_text: bool) -> int:
    print(cert.summary() if as_text else to_json(cert))
    return EXIT_OK if cert.valid else EXIT_RETRY


def _print_value(payload: dict, as_text: bool, text_value) -> int:
    if as_text:
        print(text_value)
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return EXIT_OK


# -- command bodies ------------------------------------------------------------


def _cmd_scalar_rank(args, kind: str) -> int:
    f = _load_form(args.input, num_vars=2)
    value = {"rank": rank_binary, "border-rank": border_rank_binary,
             "open-rank": open_rank_binary}[kind](f)
    payload = {"command": kind, "input": form_to_string(f), "n": 2,
               "d": f.degree, "value": value, "version": VERSION}
    return _print_value(payload, args.text, value)


def _cmd_decompose(args, route: str | None = None) -> int:
    """Decompose along `route`, or along the route the form's shape picks.

    A named route takes ternary quartics, so its input is read in three
    variables; otherwise the variable count is inferred from the form and
    from the avoidance file.
    """
    text = _read_text(args.input).strip()
    avoid_text = None
    if args.avoid is not None:
        with open(args.avoid, encoding="utf-8") as handle:
            avoid_text = handle.read()
    # the forbidden set may live in more variables than the form shows
    n = 3 if route is not None else max(_infer_num_vars(text), _infer_num_vars(avoid_text or ""))
    f = parse_form(text, n)
    avoid = None if avoid_text is None else _load_avoidance(args.avoid, avoid_text, n)
    decompose, bound_value, bound_tag = ROUTES[route or route_by_shape(f, avoid)]
    dec = decompose(f, avoid, seed=args.seed, tol=args.tol, retries=args.retries)
    cert = verify_decomposition(f, dec, tol=args.tol, avoid=avoid, seed=args.seed,
                                bound=(bound_value(f), bound_tag))
    return _emit(cert, args.text)


def _cmd_witness(args) -> int:
    weights = (1, 1, 1, 1)
    if args.weights:
        parts = [p for p in re.split(r"[,\s]+", args.weights.strip()) if p]
        try:
            weights = tuple(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError) as err:
            raise ParseFormError(f"witness weights must be rationals: {err}") from err
    f = witness_quartic(weights)
    payload = {
        "command": "witness",
        "form": form_to_string(f),
        "n": 3,
        "d": 4,
        "essential_variables": essential_variables(f),
        "cat_ranks": [[delta, r] for delta, r in cat_rank_table(f)],
        "bound": {"value": 8, "source_tag": BOUND_WITNESS_CLAIM},
        "version": VERSION,
    }
    return _print_value(payload, args.text, form_to_string(f))


def _cmd_bound(args) -> int:
    value = bound_B1(args.n, args.d)
    payload = {"command": "bound", "n": args.n, "d": args.d,
               "value": value, "version": VERSION}
    return _print_value(payload, args.text, value)


def _cmd_verify(args) -> int:
    payload = from_json(_read_text(args.input))
    cert = replay(payload, tol=args.tol)
    return _emit(cert, args.text)


# -- parser --------------------------------------------------------------------


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for every randomized search (default 0)")
    common.add_argument("--tol", type=float, default=RESIDUAL_TOL,
                        help="residual tolerance for validity (default 1e-8)")
    common.add_argument("--retries", type=int, default=64,
                        help="sampling budget for randomized searches")
    output = common.add_mutually_exclusive_group()
    output.add_argument("--json", dest="text", action="store_false",
                        help="JSON certificate output (default)")
    output.add_argument("--text", dest="text", action="store_true",
                        help="human-readable summary instead of JSON")
    common.set_defaults(text=False)

    parser = _Parser(prog="waring",
                     description="Power-sum decompositions of binary and "
                                 "ternary forms, with avoidance certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in ("rank", "border-rank", "open-rank"):
        p = sub.add_parser(kind, parents=[common],
                           help=f"exact binary {kind.replace('-', ' ')}")
        p.add_argument("input", help="binary form, inline or a file path")
        p.set_defaults(handler=partial(_cmd_scalar_rank, kind=kind))

    p = sub.add_parser("decompose", parents=[common],
                       help="minimal-length power sum (binary or ternary)")
    p.add_argument("input", help="form text or file path")
    p.set_defaults(avoid=None, handler=_cmd_decompose)

    p = sub.add_parser("decompose-avoid", parents=[common],
                       help="power sum whose points miss a closed subset")
    p.add_argument("input", help="form text or file path")
    p.add_argument("--avoid", required=True,
                   help="file of avoided-set generators, one per line")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("quartic8", parents=[common],
                       help="at most eight avoiding powers for a ternary quartic")
    p.add_argument("input", help="ternary quartic, inline or a file path")
    p.add_argument("--avoid", help="file of avoided-set generators")
    p.set_defaults(handler=partial(_cmd_decompose, route="quartic8"))

    p = sub.add_parser("brk3", parents=[common],
                       help="seven avoiding powers via the conic pullback")
    p.add_argument("input", help="ternary quartic of middle rank three")
    p.add_argument("--avoid", help="file of avoided-set generators")
    p.set_defaults(handler=partial(_cmd_decompose, route="brk3"))

    p = sub.add_parser("witness", parents=[common],
                       help="a quartic that needs all eight summands")
    p.add_argument("weights", nargs="?", default="",
                   help="optional comma-separated weights (default 1,1,1,1)")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("bound", parents=[common],
                       help="general avoiding-length upper bound")
    p.add_argument("n", type=int, help="number of variables (>= 3)")
    p.add_argument("d", type=int, help="degree (>= 4)")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("verify", parents=[common],
                       help="replay a JSON certificate ('-' reads stdin)")
    p.add_argument("input", help="certificate JSON text, file path, or '-'")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseFormError, DimensionMismatch, FileNotFoundError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except RetryExhausted as err:
        print(f"search budget exhausted: {err}", file=sys.stderr)
        if err.diagnostics:
            print(f"diagnostics: {json.dumps(err.diagnostics, sort_keys=True)}", file=sys.stderr)
        return EXIT_RETRY
    except PreconditionError as err:
        print(f"precondition failed: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except WaringError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
