"""Command-line interface.

Every command reads DAGs as JSON files {"n": int, "edges": [[u, v], ...]}
with 0-based node ids (pass --one-based to transcribe 1-based inputs) and
writes a JSON result to stdout. Exit codes: 0 for yes/true/ok, 1 for a
no/false verdict, 2 for input or parameter errors, 3 for an internal
error (a fault of the program, never a verdict). All randomness derives
from --seed (default 0), so default runs are reproducible byte-for-byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from fractions import Fraction

from .ci import (
    CiError,
    d_separated,
    imposed_minors,
    implied_relations,
    lies_below_ci,
    marginal_implied,
    toposorted_imposed,
    tree_reduced_generators,
)
from .classify import ClassifyError, CrossCheckError, classify_trees
from .dag import Dag, DagError
from .fields import MERSENNE31, FieldArithmeticError, PrimeField
from .points import SamplerError, gaussian_ci, sample_point
from .randomized import (
    IsoParams,
    ParameterError,
    choose_params,
    degree_surrogate,
    equivalence_test,
    failure_bound,
    isomorphism_test,
)


class InputError(ValueError):
    """A malformed command-line value or input file."""


_USER_ERRORS = (CiError, ClassifyError, DagError, FieldArithmeticError,
                InputError, ParameterError, SamplerError, OSError,
                json.JSONDecodeError, UnicodeDecodeError)


def _read_json(path: str, **kwargs):
    """Parse a JSON input file. An integer longer than the int-conversion
    digit limit, or nesting deeper than the recursion limit, is an input
    error like any other malformed file."""
    with open(path) as fh:
        try:
            return json.load(fh, **kwargs)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{path}: unreadable JSON: {exc}") from None


def _load_dag(path: str, one_based: bool) -> Dag:
    return Dag.from_json_dict(_read_json(path), one_based=one_based)


def _parse_nodes(text: str, one_based: bool):
    if not text:
        return []
    shift = 1 if one_based else 0
    try:
        return [int(tok) - shift for tok in text.split(",")]
    except ValueError:
        raise InputError(f"expected comma-separated node ids, got {text!r}"
                         ) from None


def _fraction(text: str) -> Fraction:
    """Fraction(text), refusing a decimal exponent past the int digit limit
    that JSON integers obey: Fraction would build 10**exponent first."""
    _, e, exponent = text.lower().partition("e")
    if e and 0 < sys.get_int_max_str_digits() < abs(int(exponent)):
        raise InputError("a decimal exponent exceeds the int digit limit")
    return Fraction(text)


def _load_matrix(path: str):
    """Read {"mat": [[...], ...]} with exact entries: JSON integers, or
    decimals or "p/q" strings read by ``_fraction``; no booleans."""
    data = _read_json(path, parse_float=_fraction)
    if not isinstance(data, dict) or "mat" not in data:
        raise InputError('matrix JSON needs the key "mat"')
    try:
        if any(isinstance(x, bool) for row in data["mat"] for x in row):
            raise TypeError("a boolean is not a number")
        return [[_fraction(x) if isinstance(x, str) else Fraction(x)
                 for x in row] for row in data["mat"]]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f'"mat" must be a list of rows of exact numbers: '
                         f'{exc}') from None


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:  # first, so a run that cannot write it prints no verdict
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _test_params(args, g: Dag, g2: Dag) -> IsoParams:
    m = args.m
    if args.eps is not None:
        try:
            eps = _fraction(args.eps)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"--eps must be a number, got {args.eps!r}: "
                             f"{exc}") from None
        chosen = choose_params(max(g.n, g2.n),
                               max(g.num_edges, g2.num_edges), eps,
                               q=args.q, seed=args.seed,
                               with_permutations=args.command == "iso").m
        m = chosen if m is None else max(m, chosen)
    return IsoParams(m=3 if m is None else m, q=args.q, seed=args.seed)


def _cmd_test(args) -> int:
    g = _load_dag(args.graph1, args.one_based)
    g2 = _load_dag(args.graph2, args.one_based)
    iso = args.command == "iso"
    params = _test_params(args, g, g2)
    cert = failure_bound(g.n, degree_surrogate(g, g2), params.q, params.m, iso)
    limit = sys.get_int_max_str_digits()  # the certificate prints in decimal
    if limit and max(cert.numerator, cert.denominator) >= 10 ** limit:
        raise InputError(f"m={params.m} gives a certificate too long to print")
    verdict = (isomorphism_test if iso else equivalence_test)(g, g2, params)
    _emit(verdict.to_json_dict(), args.out)
    return 0 if verdict.accepted else 1


def _cmd_dsep(args) -> int:
    g = _load_dag(args.graph, args.one_based)
    shift = 1 if args.one_based else 0
    i, j = args.i - shift, args.j - shift
    cond = _parse_nodes(args.cond, args.one_based)
    sep = d_separated(g, i, j, cond)
    _emit({"i": i, "j": j, "cond": sorted(cond), "d_separated": sep},
          args.out)
    return 0 if sep else 1


def _cmd_relations(args) -> int:
    g = _load_dag(args.graph, args.one_based)
    if args.marginalize is not None:
        eliminated = _parse_nodes(args.marginalize, args.one_based)
        stmts = marginal_implied(g, eliminated)
        _emit({"kind": "marginal-implied", "eliminated": sorted(eliminated),
               "statements": [s.to_json_dict() for s in stmts]}, args.out)
        return 0
    if args.kind == "toposorted":
        stmts = toposorted_imposed(g)
        payload = {"kind": args.kind,
                   "statements": [s.to_json_dict() for s in stmts]}
    elif args.kind == "implied":
        stmts = implied_relations(g)
        payload = {"kind": args.kind,
                   "statements": [s.to_json_dict() for s in stmts]}
    elif args.kind == "minors":
        minors = imposed_minors(g)
        payload = {"kind": args.kind,
                   "minors": [dict(m.to_json_dict(), label=m.label())
                              for m in minors]}
    else:  # "tree"
        rels = tree_reduced_generators(g)
        payload = {"kind": args.kind,
                   "relations": [r.to_json_dict() for r in rels]}
    _emit(payload, args.out)
    return 0


def _cmd_sample(args) -> int:
    g = _load_dag(args.graph, args.one_based)
    point = sample_point(g, PrimeField(args.q), args.seed)
    _emit(dict(point.to_json_dict(), seed=args.seed), args.out)
    return 0


def _cmd_classify(args) -> int:
    report = classify_trees(args.n, mode=args.mode, q=args.q, m=args.m,
                            seed=args.seed)
    _emit(report.to_json_dict(), args.out)
    return 0


def _cmd_ci_gaussian(args) -> int:
    mat = _load_matrix(args.sigma)
    a = _parse_nodes(args.a, args.one_based)
    b = _parse_nodes(args.b, args.one_based)
    c = _parse_nodes(args.c, args.one_based)
    independent = gaussian_ci(mat, a, b, c)
    _emit({"a": sorted(a), "b": sorted(b), "c": sorted(c),
           "independent": independent}, args.out)
    return 0 if independent else 1


def _cmd_lies_below(args) -> int:
    m = _load_dag(args.model, args.one_based)
    g = _load_dag(args.graph, args.one_based)
    embed = _parse_nodes(args.map, args.one_based)
    below = lies_below_ci(m, g, embed)
    _emit({"embedding": embed, "lies_below": below}, args.out)
    return 0 if below else 1


def _add_common(p):
    p.add_argument("--one-based", action="store_true",
                   help="treat node ids in inputs as 1-based")
    p.add_argument("--out", default=None, help="also write JSON here")


def _add_random(p):
    p.add_argument("--q", type=int, default=MERSENNE31,
                   help="prime modulus (default 2^31 - 1)")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagiso",
        description="Exact-arithmetic isomorphism and Markov-equivalence "
                    "tests for directed graphical models.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("iso", "equiv"):
        p = sub.add_parser(name, help=f"randomized {name} test")
        p.add_argument("graph1")
        p.add_argument("graph2")
        p.add_argument("--m", type=int, default=None, help="rounds")
        p.add_argument("--eps", default=None,
                       help="target false-accept bound; picks m")
        _add_random(p)
        _add_common(p)
        p.set_defaults(fn="_cmd_test")

    p = sub.add_parser("dsep", help="d-separation query")
    p.add_argument("graph")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--cond", default="", help="comma-separated nodes")
    _add_common(p)
    p.set_defaults(fn="_cmd_dsep")

    p = sub.add_parser("relations", help="CI relation and generator lists")
    p.add_argument("graph")
    p.add_argument("--kind", default="toposorted",
                   choices=["toposorted", "implied", "minors", "tree"])
    p.add_argument("--marginalize", default=None,
                   help="nodes to eliminate; emits the marginal implied list")
    _add_common(p)
    p.set_defaults(fn="_cmd_relations")

    p = sub.add_parser("sample", help="sample a variety point over F_q")
    p.add_argument("graph")
    _add_random(p)
    _add_common(p)
    p.set_defaults(fn="_cmd_sample")

    p = sub.add_parser("classify-trees",
                       help="isomorphism classes of directed tree models")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default="cross-check",
                   choices=["oracle", "randomized", "cross-check"])
    p.add_argument("--m", type=int, default=3)
    _add_random(p)
    _add_common(p)
    p.set_defaults(fn="_cmd_classify")

    p = sub.add_parser("ci-gaussian",
                       help="rank-based CI test on an exact matrix")
    p.add_argument("sigma", help='JSON file {"mat": [[...], ...]}; entries '
                                 'may be ints, exact decimals or "p/q" strings')
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", default="")
    _add_common(p)
    p.set_defaults(fn="_cmd_ci_gaussian")

    p = sub.add_parser("lies-below",
                       help="does the small model lie below the big one")
    p.add_argument("model")
    p.add_argument("graph")
    p.add_argument("--map", required=True,
                   help="comma-separated images: position k holds the "
                        "graph node that model node k maps to")
    _add_common(p)
    p.set_defaults(fn="_cmd_lies_below")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # the handler is named, not bound, in the parser, so that one
        # replaced on this module after the parser was built is the one run
        return globals()[args.fn](args)
    except CrossCheckError as exc:
        print(json.dumps({"error": "cross-check-disagreement",
                          "message": str(exc)}), file=sys.stderr)
        return 2
    except _USER_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, reported apart from every verdict
        print(json.dumps({"error": "internal-error",
                          "type": type(exc).__name__, "message": str(exc),
                          "traceback": traceback.format_exc()}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
