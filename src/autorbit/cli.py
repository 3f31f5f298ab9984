"""Command-line front end.

Groups are comma-separated cyclic orders (`-g 2,4,8,8`), elements are
comma-separated residues with matching arity.  Shared options are declared
once: `--format text|json` on all four subcommands, `-g` on `quotient`,
`autoeq` and `orbits`, and `--oracle` and `--cap` (default
`errors.DEFAULT_CAP`) on `autoeq` and `orbits`.  argparse converts every
operand: `-g`, `-x` and `-y` to integer lists, and a `--cap` and `factor`'s
`n` to positive integers.  It does so under the interpreter's limit on
decimal digits (4300 by default), so a malformed operand or an over-long
integer is a usage error (exit 2) that names its option.  A list that starts
with a minus sign takes the `=` form (`-x=-1,0`): argparse reads the `-1,0`
of `-x -1,0` as an option, so `-x` lacks its operand (exit 2).  Results go to
stdout, diagnostics to stderr.  Each command builds its JSON payload and its
text lines once, and `_emit` prints the one that `--format` asks for.  JSON
output renders unbounded integers as decimal strings so 64-bit consumers
cannot truncate them.  A result prints every digit: `main` lifts the limit
only while a command runs, after parsing, and restores it on return.

Exit codes: 0 success (autoeq: equivalent), 1 autoeq inequivalent, 2 usage
or parse error, 3 arity mismatch, 4 factorization failure, 5 capacity
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import oracle
from .arith import factorize
# are_automorphic is unused here; perfbench/spans.py::BINDINGS traces it under
# cli, and test_oracle_route_never_calls_the_fast_path stubs it out.
from .equivalence import are_automorphic, quotient_key
from .errors import (
    DEFAULT_CAP,
    CapacityExceeded,
    DimensionMismatch,
    FactorizationFailure,
    NonPositiveModulus,
)
from .groups import AbelianGroup, CanonicalGroupKey
from .orbits import orbit_census

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_PARSE = 2
EXIT_ARITY = 3
EXIT_FACTORIZATION = 4
EXIT_CAPACITY = 5

# The errors a command may raise, each printed as "error: ..." with its code.
ERROR_EXIT_CODES = {
    NonPositiveModulus: EXIT_PARSE,
    DimensionMismatch: EXIT_ARITY,
    FactorizationFailure: EXIT_FACTORIZATION,
    CapacityExceeded: EXIT_CAPACITY,
}


def parse_int_list(spec: str) -> list[int]:
    """argparse type for -g, -x and -y: comma-separated integers, each under
    the interpreter's digit limit, else a usage error (exit 2)."""
    return [int(part) for part in spec.split(",")]


def positive_int(spec: str) -> int:
    """argparse type for a cap or factor's n: a positive integer, else a usage
    error (exit 2)."""
    value = int(spec)  # argparse reports a ValueError as a usage error too
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _key_json(key: CanonicalGroupKey) -> dict:
    return {
        "primary": {str(p): list(exps) for p, exps in key.parts},
        "elementary": [str(d) for d in key.elementary_divisors()],
        "invariant": [str(m) for m in key.invariant_factors()],
        "order": str(key.order()),
    }


def _emit(
    args: argparse.Namespace, payload: dict, lines: list[str], indent: int | None = 2
) -> None:
    """Print the payload as JSON under --format json, else the text lines."""
    if args.format == "json":
        print(json.dumps(payload, indent=indent))
    else:
        print(*lines, sep="\n")


def cmd_quotient(args: argparse.Namespace) -> int:
    G = AbelianGroup(args.group)
    x = G.element(args.element)
    key = quotient_key(G, x, method=args.method)
    payload = {
        "group": [str(d) for d in G.moduli],
        "element": [str(c) for c in x.coords],
        "method": args.method,
        "quotient": _key_json(key),
    }
    _emit(args, payload, [
        f"elementary: {key.describe_elementary()}",
        f"invariant: {key.describe_invariant()}",
    ])
    return EXIT_OK


def cmd_autoeq(args: argparse.Namespace) -> int:
    G = AbelianGroup(args.group)
    x, y = G.element(args.x), G.element(args.y)
    if args.oracle:
        # the Aut(G) search's cap is never looser than the keys', so an
        # over-cap group fails here before any key work
        equivalent = oracle.is_automorphic_image_bruteforce(G, x, y, cap=args.cap)
        kx, ky = (oracle.brute_quotient_key(G, z, cap=args.cap) for z in (x, y))
    else:
        # x and y are automorphic exactly when G/<x> and G/<y> are isomorphic
        kx, ky = quotient_key(G, x), quotient_key(G, y)
        equivalent = kx == ky
    payload = {
        "group": [str(d) for d in G.moduli],
        "x": [str(c) for c in x.coords],
        "y": [str(c) for c in y.coords],
        "x_quotient": _key_json(kx),
        "y_quotient": _key_json(ky),
        "equivalent": equivalent,
    }
    _emit(args, payload, [
        f"x quotient: {kx.describe_invariant()}",
        f"y quotient: {ky.describe_invariant()}",
        "equivalent" if equivalent else "not equivalent",
    ])
    return EXIT_OK if equivalent else EXIT_NOT_EQUIVALENT


def cmd_orbits(args: argparse.Namespace) -> int:
    G = AbelianGroup(args.group)
    # one row per orbit: (quotient key, size, representative, form count or None)
    if args.oracle:
        partition = oracle.brute_orbits(G, cap=args.cap)
        keys = oracle.brute_quotient_keys(G, cap=args.cap)
        reps = [min(e.coords for e in orbit) for orbit in partition]
        rows = [(keys[rep], len(orbit), rep, None) for orbit, rep in zip(partition, reps)]
    else:
        rows = [
            (r.quotient_key, r.size, r.first.realize(G).coords, r.form_count)
            for r in orbit_census(G, cap=args.cap)
        ]
    total = sum(size for _, size, _, _ in rows)
    payload = {
        "group": [str(d) for d in G.moduli],
        "order": str(G.order),
        "orbit_count": len(rows),
        "size_total": str(total),
        "orbits": [
            {
                "quotient": _key_json(key),
                "size": str(size),
                "representative": [str(c) for c in rep],
                **({} if forms is None else {"forms": forms}),
            }
            for key, size, rep, forms in rows
        ],
    }
    names = [key.describe_invariant() for key, _, _, _ in rows]
    width = max(map(len, names + ["quotient"]))
    _emit(args, payload, [
        f"group: {','.join(payload['group'])}",
        f"order: {G.order}",
        f"{'quotient':<{width}}  {'size':>8}  representative",
        *(
            f"{name:<{width}}  {size:>8}  {','.join(map(str, rep))}"
            for name, (_, size, rep, _) in zip(names, rows)
        ),
        f"orbits: {len(rows)}",
        f"size total: {total}",
    ])
    return EXIT_OK


def cmd_factor(args: argparse.Namespace) -> int:
    factors = factorize(args.n)
    body = " * ".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in factors.items())
    payload = {"n": str(args.n), "factors": {str(p): e for p, e in factors.items()}}
    _emit(args, payload, [f"{args.n} = {body if body else 1}"], indent=None)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autorbit",
        description="Finite abelian groups: quotients by cyclic subgroups, "
        "automorphic equivalence of elements, and orbit enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options that several subcommands share, each declared once
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    grp = argparse.ArgumentParser(add_help=False)
    grp.add_argument("-g", "--group", type=parse_int_list, required=True, help="cyclic orders, e.g. 2,4,8,8; a leading minus needs -g=...")
    brute = argparse.ArgumentParser(add_help=False)
    brute.add_argument(
        "--oracle", action="store_true", help="answer by brute force instead (desk-scale)"
    )
    brute.add_argument(
        "--cap",
        type=positive_int,
        default=DEFAULT_CAP,
        help="bounds the --oracle search; on orbits, also the number of orbits",
    )

    q = sub.add_parser("quotient", parents=[grp, fmt], help="canonical form of G/<x>")
    q.add_argument("-x", "--element", type=parse_int_list, required=True, help="coordinates, e.g. 2,1,2,4; a leading minus needs -x=-1,0")
    q.add_argument("--method", choices=("fast", "snf"), default="fast")
    q.set_defaults(func=cmd_quotient)

    a = sub.add_parser(
        "autoeq", parents=[grp, fmt, brute], help="is some automorphism mapping x to y?"
    )
    a.add_argument("-x", type=parse_int_list, required=True, help="first element; a leading minus needs -x=-1,0")
    a.add_argument("-y", type=parse_int_list, required=True, help="second element; a leading minus needs -y=-1,0")
    a.set_defaults(func=cmd_autoeq)

    o = sub.add_parser("orbits", parents=[grp, fmt, brute], help="list all automorphic orbits")
    o.set_defaults(func=cmd_orbits)

    f = sub.add_parser("factor", parents=[fmt], help="prime factorization")
    f.add_argument("n", type=positive_int)
    f.set_defaults(func=cmd_factor)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    # every operand was converted under the limit; lift it only for output
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except tuple(ERROR_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in ERROR_EXIT_CODES.items() if isinstance(exc, kind))
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
