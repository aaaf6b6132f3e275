"""Command-line front end.

Subcommands cover the small calculator surface (quantum integers, idempotent
eigenvalues, products, closures, torus knots, the chord operator, the pattern
solver) plus the `verify` suites.  Every subcommand takes --json for a
machine-readable form that round-trips through qskein.jsonio.

Exit codes: 0 success, 1 verification or evaluation failure, 2 parse or
usage error.
"""

import argparse
import json
import sys

from . import jsonio
from .adams_skein import P, solve_pattern, torus_invariant
from .annulus import Q, closure_word, theta
from .chords import psi_chords
from .diagram_ring import DiagramVector, psi
from .hecke import alpha
from .partitions import lr_product
from .parsing import ParseError, parse_braid_word, parse_cpoly, parse_matching, parse_partition, parse_rational
from .scalars import PoleError, Scalar, SpecializationError, format_terms, h_expand, quantum_int
from .verify import DEFAULT_MAX, SUITE_ORDER, run_suite, suite_names


def _emit(args, value, encode, text=str):
    """Print value as text, or its JSON encoding under --json; build only the one printed."""
    print(json.dumps(encode(value)) if args.json else text(value))
    return 0


def _format_hseries(coeffs) -> str:
    return format_terms((((i,), c) for i, c in enumerate(coeffs) if c), "h")


def _format_tally(tally) -> str:
    return "\n".join("%d  %s" % (n, d) for d, n in sorted(tally.items()))


def _cmd_qint(args):
    return _emit(args, quantum_int(args.i), jsonio.encode_poly)


def _cmd_alpha(args):
    return _emit(args, alpha(parse_partition(args.partition)), jsonio.encode_scalar)


def _cmd_lr(args):
    terms = lr_product(parse_partition(args.first), parse_partition(args.second))
    vec = DiagramVector({lam: Scalar(c) for lam, c in terms.items()})
    return _emit(args, vec, jsonio.encode_diagrams)


def _cmd_adams(args):
    cpoly, diagrams = psi(args.m)
    if args.as_diagrams:
        return _emit(args, diagrams, jsonio.encode_diagrams)
    return _emit(args, cpoly, jsonio.encode_cpoly)


def _cmd_theta(args):
    return _emit(args, theta(parse_cpoly(args.cpoly)), jsonio.encode_annulus)


def _cmd_q(args):
    return _emit(args, Q(parse_partition(args.partition)), jsonio.encode_annulus)


def _cmd_closure(args):
    e = closure_word(parse_braid_word(args.word, args.strands))
    return _emit(args, e, jsonio.encode_annulus)


def _cmd_pm(args):
    return _emit(args, P(args.m), jsonio.encode_annulus)


def _cmd_torus(args):
    if args.h_order is not None and args.sl is None:
        raise ValueError("--h-order needs --sl")
    value = torus_invariant(args.m, args.p, sl=args.sl, normalize=args.normalize)
    if args.h_order is not None:
        coeffs = h_expand(value, args.sl, args.h_order)
        return _emit(args, coeffs, jsonio.encode_hseries, _format_hseries)
    if args.sl is not None:
        return _emit(args, value, jsonio.encode_tfraction)
    return _emit(args, value, jsonio.encode_scalar)


def _cmd_solve_pattern(args):
    # an integer past Python's conversion limit is refused as a rational one is
    with open(args.file, encoding="utf-8") as fh:
        obj = json.load(fh, parse_int=lambda text: parse_rational(text).numerator)
    return _emit(args, solve_pattern(jsonio.decode_pattern_system(obj)), jsonio.encode_outcome)


def _cmd_psi_chords(args):
    tally = psi_chords(parse_matching(args.matching), args.m)
    return _emit(args, tally, jsonio.encode_chord_tally, _format_tally)


def _cmd_verify(args):
    for tag in SUITE_ORDER if args.suite == "all" else [args.suite]:
        if args.max is not None and args.max > DEFAULT_MAX[tag]:
            print("warning: --max %d exceeds the tested size %d for suite %s; "
                  "runtime grows factorially" % (args.max, DEFAULT_MAX[tag], tag), file=sys.stderr)
    rows = run_suite(args.suite, args.max)
    if args.json:
        print(json.dumps([["PASS" if ok else "FAIL", text] for ok, text in rows]))
    else:
        for ok, text in rows:
            print(("PASS " if ok else "FAIL ") + text)
    return 0 if all(ok for ok, _ in rows) else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qskein",
        description="Skein-algebra calculator: Hecke closures, annulus elements, "
        "power sums, torus knots, chord diagrams.",
    )
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="print the JSON encoding")
        p.set_defaults(fn=fn)
        return p

    p = add("qint", _cmd_qint, "quantum integer [i] as a Laurent polynomial in s")
    p.add_argument("i", type=int)

    p = add("alpha", _cmd_alpha, "eigenvalue of the squared quasi-idempotent")
    p.add_argument("partition", help='partition literal, e.g. "(2,1)"')

    p = add("lr", _cmd_lr, "product of two partitions in the diagram basis")
    p.add_argument("first")
    p.add_argument("second")

    p = add("adams", _cmd_adams, "m-th power sum of the first column generator")
    p.add_argument("m", type=int)
    p.add_argument("--as-diagrams", action="store_true", help="print the diagram-basis form")

    p = add("theta", _cmd_theta, "annulus image of a column polynomial")
    p.add_argument("cpoly", help='expression, e.g. "c1^2 - 2*c2"')

    p = add("q", _cmd_q, "normalized idempotent closure for a partition")
    p.add_argument("partition")

    p = add("closure", _cmd_closure, "annulus closure of a braid word")
    p.add_argument("word", help='letters like "1 2 -1"')
    p.add_argument("--strands", type=int, help="strand count (default: inferred)")

    p = add("pm", _cmd_pm, "skein power sum P_m as closed braids")
    p.add_argument("m", type=int)

    p = add("torus", _cmd_torus, "invariant of the (m, p) torus closure")
    p.add_argument("m", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--sl", type=int, metavar="N", help="specialize at sl(N)")
    p.add_argument("--h-order", type=int, metavar="K", help="expand in h through degree K (needs --sl)")
    p.add_argument("--normalize", action="store_true", help="divide out the writhe framing monomial")

    p = add("solve-pattern", _cmd_solve_pattern, "solve a target against decorated patterns")
    p.add_argument("file", help="JSON file with 'target' and 'patterns'")

    p = add("psi-chords", _cmd_psi_chords, "chord-diagram lift tallies on the m-fold cover")
    p.add_argument("matching", help='matching literal, e.g. "1-3,2-4"')
    p.add_argument("m", type=int)

    p = add("verify", _cmd_verify, "run a named identity suite")
    p.add_argument("--suite", choices=suite_names(), default="all")
    p.add_argument("--max", type=int, help="size cap (default: the tested sizes)")

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as err:
        print("error: " + err.annotated(), file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except (SpecializationError, PoleError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, RecursionError, MemoryError) as err:
        print("error: %s" % (str(err) or type(err).__name__), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
