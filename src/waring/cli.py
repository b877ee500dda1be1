"""Command line front end.

Every decomposition command prints a JSON certificate on stdout (or a
human summary with --text) and exits 0 when the certificate is valid.
Budget exhaustion exits 2, an unmet mathematical hypothesis exits 3, and
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

from .apolarity import cat_rank_table, essential_variables
from .avoidance import AvoidanceSet
from .binary import (
    border_rank_binary,
    decompose_binary,
    decompose_binary_avoiding,
    generic_rank_in_subspace,
    open_rank_binary,
    rank_binary,
)
from .certify import (
    BOUND_BINARY_OPEN,
    BOUND_BINARY_RANK,
    BOUND_CONIC_PULLBACK,
    BOUND_ODD_SPLIT,
    BOUND_QUARTIC_EIGHT,
    BOUND_WITNESS_CLAIM,
    VERSION,
    from_json,
    replay,
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
from .quartic import quartic_brk3_decompose, quartic_decompose_open, witness_quartic
from .ternary import bound_B1, decompose_ternary_odd

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RETRY = 2
EXIT_PRECONDITION = 3


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


def _infer_num_vars(text: str, minimum: int = 2) -> int:
    indices = [int(m) for m in re.findall(r"x(\d+)", text)]
    return max([minimum - 1] + indices) + 1


def _load_form(arg: str, num_vars: int | None = None) -> Form:
    text = _read_text(arg).strip()
    n = num_vars if num_vars is not None else _infer_num_vars(text)
    return parse_form(text, n)


def _load_avoidance(path: str | None, num_vars: int) -> AvoidanceSet | None:
    if path is None:
        return None
    with open(path, encoding="utf-8") as handle:
        lines = [ln.strip() for ln in handle]
    texts = [ln for ln in lines if ln and not ln.startswith("#")]
    if not texts:
        raise ParseFormError(f"avoidance file {path!r} has no generators")
    gens = tuple(parse_form(t, num_vars) for t in texts)
    return AvoidanceSet(num_vars, gens)


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


# route -> (decomposer(f, avoid, args), bound value of f, bound tag)
_ROUTES = {
    "binary-rank": (lambda f, avoid, a: decompose_binary(f, seed=a.seed, tol=a.tol),
                    rank_binary, BOUND_BINARY_RANK),
    "binary-open": (lambda f, avoid, a: decompose_binary_avoiding(
                        f, avoid, seed=a.seed, tol=a.tol, retries=a.retries),
                    open_rank_binary, BOUND_BINARY_OPEN),
    "quartic8": (lambda f, avoid, a: quartic_decompose_open(
                     f, avoid, seed=a.seed, tol=a.tol, retries=a.retries),
                 lambda f: 8, BOUND_QUARTIC_EIGHT),
    "odd-split": (lambda f, avoid, a: decompose_ternary_odd(
                      f, seed=a.seed, tol=a.tol, retries=a.retries),
                  lambda f: (f.degree ** 2 - 1) // 2, BOUND_ODD_SPLIT),
    "brk3": (lambda f, avoid, a: quartic_brk3_decompose(f, avoid, seed=a.seed, tol=a.tol),
             lambda f: 7, BOUND_CONIC_PULLBACK),
}


def _route_by_shape(f: Form, avoid) -> str:
    if f.num_vars == 2:
        return "binary-rank" if avoid is None else "binary-open"
    if f.num_vars == 3:
        if f.degree == 4:
            return "quartic8"
        if f.degree >= 5 and f.degree % 2 == 1:
            if avoid is not None:
                raise PreconditionError(
                    "avoidance in three variables is implemented for degree four; "
                    "odd degrees decompose without a forbidden set")
            return "odd-split"
        raise PreconditionError(
            "ternary decomposition covers degree four and odd degrees five and up")
    raise PreconditionError("decomposition handles two or three variables")


def _cmd_decompose(args, route: str | None = None) -> int:
    """Decompose along `route`, or along the route the form's shape picks.

    A named route takes ternary quartics, so its input is read in three
    variables; otherwise the variable count is inferred from the form and
    from the avoidance file.
    """
    text = _read_text(args.input).strip()
    if route is not None:
        n = 3
    else:
        n = _infer_num_vars(text)
        if args.avoid is not None:
            # the forbidden set may live in more variables than the form shows
            with open(args.avoid, encoding="utf-8") as handle:
                n = max(n, _infer_num_vars(handle.read()))
    f = parse_form(text, n)
    avoid = _load_avoidance(args.avoid, n)
    decompose, bound_value, bound_tag = _ROUTES[route or _route_by_shape(f, avoid)]
    dec = decompose(f, avoid, args)
    cert = verify_decomposition(f, dec, tol=args.tol, avoid=avoid, seed=args.seed,
                                bound=(bound_value(f), bound_tag))
    return _emit(cert, args.text)


def _cmd_witness(args) -> int:
    weights = (1, 1, 1, 1)
    if args.weights:
        parts = [p for p in re.split(r"[,\s]+", args.weights.strip()) if p]
        weights = tuple(parts)
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


def _cmd_crn_sample(args) -> int:
    observed = generic_rank_in_subspace(args.d, args.k, trials=args.trials,
                                        seed=args.seed)
    cap = max(args.d + 1 - args.k, (args.d + 2) // 2)
    payload = {"command": "crn-sample", "d": args.d, "k": args.k,
               "trials": args.trials, "max_observed": observed,
               "bound": cap, "within_bound": observed <= cap,
               "version": VERSION}
    text = f"max observed rank {observed} vs bound {cap} over {args.trials} trials"
    code = _print_value(payload, args.text, text)
    return code if observed <= cap else EXIT_RETRY


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

    p = sub.add_parser("decompose", parents=[common],
                       help="minimal-length power sum (binary or ternary)")
    p.add_argument("input", help="form text or file path")
    p.set_defaults(avoid=None)

    p = sub.add_parser("decompose-avoid", parents=[common],
                       help="power sum whose points miss a closed subset")
    p.add_argument("input", help="form text or file path")
    p.add_argument("--avoid", required=True,
                   help="file of avoided-set generators, one per line")

    p = sub.add_parser("quartic8", parents=[common],
                       help="at most eight avoiding powers for a ternary quartic")
    p.add_argument("input", help="ternary quartic, inline or a file path")
    p.add_argument("--avoid", help="file of avoided-set generators")

    p = sub.add_parser("brk3", parents=[common],
                       help="seven avoiding powers via the conic pullback")
    p.add_argument("input", help="ternary quartic of middle rank three")
    p.add_argument("--avoid", help="file of avoided-set generators")

    p = sub.add_parser("witness", parents=[common],
                       help="a quartic that needs all eight summands")
    p.add_argument("weights", nargs="?", default="",
                   help="optional comma-separated weights (default 1,1,1,1)")

    p = sub.add_parser("bound", parents=[common],
                       help="general avoiding-length upper bound")
    p.add_argument("n", type=int, help="number of variables (>= 3)")
    p.add_argument("d", type=int, help="degree (>= 4)")

    p = sub.add_parser("verify", parents=[common],
                       help="replay a JSON certificate ('-' reads stdin)")
    p.add_argument("input", help="certificate JSON text, file path, or '-'")

    p = sub.add_parser("crn-sample", parents=[common],
                       help="probe the generic rank cap on binary pencils")
    p.add_argument("d", type=int, help="degree of the sampled forms")
    p.add_argument("k", type=int, help="projective dimension of the subspace")
    p.add_argument("trials", type=int, nargs="?", default=100)

    return parser


_HANDLERS = {
    "rank": lambda a: _cmd_scalar_rank(a, "rank"),
    "border-rank": lambda a: _cmd_scalar_rank(a, "border-rank"),
    "open-rank": lambda a: _cmd_scalar_rank(a, "open-rank"),
    "decompose": _cmd_decompose,
    "decompose-avoid": _cmd_decompose,
    "quartic8": lambda a: _cmd_decompose(a, route="quartic8"),
    "brk3": lambda a: _cmd_decompose(a, route="brk3"),
    "witness": _cmd_witness,
    "bound": _cmd_bound,
    "verify": _cmd_verify,
    "crn-sample": _cmd_crn_sample,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseFormError, DimensionMismatch, FileNotFoundError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except RetryExhausted as err:
        print(f"search budget exhausted: {err}", file=sys.stderr)
        if err.diagnostics:
            print(f"diagnostics: {err.diagnostics}", file=sys.stderr)
        return EXIT_RETRY
    except PreconditionError as err:
        print(f"precondition failed: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except WaringError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
