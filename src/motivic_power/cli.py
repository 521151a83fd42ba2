"""Command-line front end.

Commands compute with exact truncated series and print either a text
table (one ``t^k: ...`` line per coefficient) or the JSON forms shared
with the library.  Exit status: 0 on success, 1 on computation or check
failure, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from .axioms import run_axiom_suite
from .checks import run_oracle_checks
from .expressions import (
    ParseError,
    Size,
    _size_product,
    expression_size,
    parse_polynomial,
    parse_series,
    series_ring,
)
from .hilbert import (
    LocalHilbertData,
    VarietyClass,
    euler_specialization,
    global_series,
    hodge_deligne_series,
    kapranov_zeta,
    local_series,
)
from .localdata import MOTIVIC_RING
from .power import EulerProduct, exp_map, factor, pow_series
from .rings import RingDescriptor
from .series import Series

HODGE_RING = RingDescriptor(("u", "v"))

MAX_ORDER = 200


# Requests whose estimated cost (see ``request_cost``) exceeds this are
# refused before any work starts.  On a 2-vCPU VM (2026) a request at the
# bound took from about 2 s (Hilbert series) to about 40 s (classes with
# coefficients of hundreds of bits), depending on the route it takes.
MAX_COST = 2e10

# A --local-data file is priced once parsed, so its size is bounded before
# it is read.  A punctual series to MAX_ORDER with 3n+1 terms of 60-digit
# coefficients in degree n is 5 MB, read and checked in 0.2 s on that VM.
MAX_LOCAL_DATA_BYTES = 8 * 2 ** 20


def request_cost(bits: float, widths: Sequence[int], order: int,
                 terms: float) -> float:
    """Estimated word products of one recurrence solve to ``order``.

    Step n of ``n f_n = sum_m g_m f_(n-m)`` multiplies g_m, counted over
    its dense box, by f_(n-m).  Degree k spans k * w + 1 cells per class
    width w in ``widths``, each of 1 + k * bits / 64 words.  f_k is
    counted as min(terms^k, cells) cells, the most a class of ``terms``
    terms can give it.
    """
    g, f, power = [], [], 1.0  # terms^k, which overflows to inf, not raising
    for k in range(order + 1):
        words = 1 + k * bits / 64
        g.append(math.prod(k * w + 1 for w in widths) * words)
        f.append(min(power * words, g[k]))
        power *= terms
    return sum(g[m] * f[n - m] for n in range(1, order + 1)
               for m in range(1, n + 1))


# Work that ``request_cost`` does not count, in its units, taken at the
# slow end of the calibration above (2e-9 s per unit): the fixed Python
# cost of one recurrence solve (about 1 ms), and per step of the oracle
# sweeps one enumerated candidate (0.2 us) and one multiplicity vector of
# the closed formula (2 us).
SOLVE_OVERHEAD = 5e5
CANDIDATE_COST = 100
VECTOR_COST = 1000

# One axioms sample runs eleven powers and three series products; most
# powers are a reverse and a forward solve.
SOLVES_PER_SAMPLE = 20


def _solve_cost(order: int, *sizes: Size, spread: int = 0) -> float:
    """Estimated cost of one solve, evaluating the expressions included.

    The class is the product of ``sizes``; ``spread`` widens it by what
    the punctual series adds to every exponent in the Hilbert commands.
    """
    widths = [sum(hi - lo for lo, hi in axis) + spread
              for axis in zip(*(size.box for size in sizes))]
    terms = math.prod(size.terms for size in sizes) + spread
    bits = sum(size.bits for size in sizes)
    return sum(size.work for size in sizes) + request_cost(bits, widths, order,
                                                          terms)


def _check_cost(cost: float):
    """Refuse a request whose estimated cost is above the bound, before any work."""
    if cost > MAX_COST:
        raise ValueError(
            "request too large: estimated cost %.3g exceeds the bound %.3g; "
            "ask for less: a smaller class, series or count, or a lower "
            "--truncate" % (cost, MAX_COST))


def _axioms_cost(ring: RingDescriptor, order: int, samples: int) -> float:
    """The solves of ``samples`` axiom samples at the generator's sizes,
    and each sample's product m*n of law 5.

    ``axioms.random_polynomial`` fills every exponent vector of total
    degree at most 2 (absolute degree if Laurent) with a coefficient in
    [-3, 3]; a power multiplies such a coefficient of A by such an m.
    The product m*n of two such polynomials is priced as an expression's
    product is (``expressions._size_product``): in n Laurent variables
    it has (2n^2 + 2n + 1)^2 term pairs, 3.5e6 at n = 30.
    """
    n = ring.nvars
    terms = 2 * n * n + 2 * n + 1 if ring.laurent else (n + 1) * (n + 2) // 2
    lo = -2 if ring.laurent else 0
    drawn = Size(terms, math.log2(3 * terms), ((lo, 2),) * n, 0.0)
    return samples * (SOLVES_PER_SAMPLE * (SOLVE_OVERHEAD
                                           + _solve_cost(order, drawn, drawn))
                      + _size_product(drawn, drawn).work)


def _geometric(x: float, n: int) -> float:
    """1 + x + ... + x^n for x >= 1, infinite when it overflows."""
    if x == 1:
        return n + 1.0
    try:
        return (x ** (n + 1) - 1) / (x - 1)
    except OverflowError:
        return math.inf


def _sweep_cost(points: int, weight: int, size: int, order: int) -> float:
    """Estimated cost of ``checks.oracle_equivalence_sweep``.

    Each of the (size+1)^weight profiles runs, for every point count
    p <= points, passes over its ``weight`` sizes, one power over Z, the
    closed formula over every multiplicity vector of degree <= order,
    and an enumeration of (1+s)^p candidates, s the profile's total
    size.  The candidates are counted by total size only once the rest
    is within the bound, which keeps the number of totals small.
    """
    try:
        runs = float(size + 1) ** weight * (points + 1)
    except OverflowError:
        return math.inf
    vectors = [1] + [0] * order  # partitions of k into parts <= weight
    for part in range(1, min(weight, order) + 1):
        for k in range(part, order + 1):
            vectors[k] += vectors[k - part]
    bits = math.log2((1 + size * weight) * (1 + points))
    cost = runs * (2 * (SOLVE_OVERHEAD + request_cost(bits, [], order, 1))
                   + VECTOR_COST * sum(vectors[1:]) + CANDIDATE_COST * weight)
    if cost > MAX_COST:
        return cost
    by_total = [1]  # profiles by total size
    for _ in range(weight if size else 0):
        prefix = [0, *itertools.accumulate(by_total)]
        last = len(by_total) - 1
        by_total = [prefix[min(t, last) + 1] - prefix[max(t - size, 0)]
                    for t in range(last + size + 1)]
    return cost + CANDIDATE_COST * sum(
        count * _geometric(1.0 + total, points)
        for total, count in enumerate(by_total))


def _local_size(data: LocalHilbertData, order: int, nvars: int) -> Size:
    """A user's punctual series to ``order``, sized like a ``--series`` input.

    Terms, the bits of the L1 norm and the exponent box in L, which
    L -> uv puts on both axes of the Hodge ring.
    """
    coeffs = data.series.coefficients[:order + 1]
    exps = [e for c in coeffs for (e,) in c.terms]
    norm = sum(abs(v) for c in coeffs for v in c.terms.values())
    return Size(len(exps), math.log2(max(norm, 1)),
                ((min(exps), max(exps)),) * nvars, 0.0)


def _count(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("counts must be nonnegative, got %d" % n)
    return n


def _samples(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("need at least one sample, got %d" % n)
    return n


def _order(value: str) -> int:
    n = int(value)
    if not 0 <= n <= MAX_ORDER:
        raise argparse.ArgumentTypeError(
            "truncation order must be between 0 and %d" % MAX_ORDER
        )
    return n


def _add_common(parser: argparse.ArgumentParser, default_truncate: int = 10):
    parser.add_argument("--vars", nargs="*", default=None, metavar="NAME",
                        help="ring variables (default: none, plain integers)")
    parser.add_argument("--laurent", action="store_true",
                        help="allow negative exponents on the ring variables")
    parser.add_argument("--truncate", type=_order, default=default_truncate,
                        metavar="N", help="truncation order (0..%d)" % MAX_ORDER)
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _ring(args, default: Optional[RingDescriptor] = None) -> RingDescriptor:
    if args.vars is not None:
        return RingDescriptor(tuple(args.vars), args.laurent)
    if default is not None:
        return default
    return RingDescriptor((), args.laurent)


@contextmanager
def _digit_limit():
    """Name Python's limit on printed integers when a result passes it.

    ``str`` refuses an integer of more decimal digits than the limit
    with a ValueError.  The cost bound does not price printing, so such
    a result is refused here rather than the limit lifted.
    """
    try:
        yield
    except ValueError:
        raise ValueError(
            "the result has a coefficient of more than %d decimal digits, "
            "the most that can be printed" % sys.get_int_max_str_digits()
        ) from None


def _print_series(S: Series, fmt: str, out):
    with _digit_limit():
        if fmt == "json":
            json.dump(S.to_json(), out)
            out.write("\n")
            return
        for k, c in enumerate(S.coefficients):
            out.write("t^%d: %s\n" % (k, c))


def _print_exponents(exponents, order: int, fmt: str, out):
    with _digit_limit():
        if fmt == "json":
            payload = EulerProduct(exponents[0].ring, order,
                                   list(exponents)).to_json() \
                if exponents else {"order": order, "exponents": []}
            json.dump(payload, out)
            out.write("\n")
            return
        for i, b in enumerate(exponents, start=1):
            out.write("b_%d: %s\n" % (i, b))


def _series_size(src: str, ring: RingDescriptor) -> Size:
    size = expression_size(src, series_ring(ring))
    return size._replace(box=size.box[:-1])


def _cmd_zeta(args, out) -> int:
    ring = _ring(args)
    _check_cost(_solve_cost(args.truncate, expression_size(args.cls, ring)))
    cls = parse_polynomial(args.cls, ring)
    _print_series(kapranov_zeta(cls, args.truncate), args.format, out)
    return 0


def _cmd_pow(args, out) -> int:
    ring = _ring(args)
    _check_cost(_solve_cost(args.truncate, _series_size(args.series, ring),
                            expression_size(args.exponent, ring)))
    A = parse_series(args.series, ring, args.truncate)
    m = parse_polynomial(args.exponent, ring)
    _print_series(pow_series(A, m), args.format, out)
    return 0


def _cmd_factor(args, out) -> int:
    ring = _ring(args)
    _check_cost(_solve_cost(args.truncate, _series_size(args.series, ring)))
    A = parse_series(args.series, ring, args.truncate)
    _print_exponents(factor(A).exponents, args.truncate, args.format, out)
    return 0


def _cmd_assemble(args, out) -> int:
    ring = _ring(args)
    for src in args.exponents:
        _check_cost(_solve_cost(args.truncate, expression_size(src, ring)))
    exponents = [parse_polynomial(src, ring) for src in args.exponents]
    _print_series(exp_map(exponents, order=args.truncate, ring=ring),
                  args.format, out)
    return 0


def _load_local_data(path: str, order: int) -> LocalHilbertData:
    """Read a ``--local-data`` file, refusing it before parsing when too big.

    Only the coefficients up to ``order`` are parsed: a series that
    declares a higher order, and carries exactly the coefficients it
    declares, is cut to that prefix first.
    """
    with open(path, "rb") as fh:
        raw = fh.read(MAX_LOCAL_DATA_BYTES + 1)
    if len(raw) > MAX_LOCAL_DATA_BYTES:
        raise ValueError("local data file %s is larger than %d bytes"
                         % (path, MAX_LOCAL_DATA_BYTES))
    try:
        payload = json.loads(raw)
    except RecursionError:
        raise ValueError("local data file %s nests too deeply" % path) from None
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except ValueError:  # int() refused a JSON integer past the digit limit
        raise ValueError("local data file %s has an integer of more than the "
                         "%d decimal digits allowed"
                         % (path, sys.get_int_max_str_digits())) from None
    series = payload.get("series") if isinstance(payload, dict) else None
    if isinstance(series, dict):
        declared, coeffs = series.get("order"), series.get("coeffs")
        if (type(declared) is int and declared > order
                and isinstance(coeffs, list) and len(coeffs) == declared + 1):
            payload = dict(payload, series=dict(series, order=order,
                                                coeffs=coeffs[:order + 1]))
    return LocalHilbertData.from_json(payload)


def _cmd_hilbert(args, out) -> int:
    hodge = args.specialize == "hodge"
    ring = _ring(args, default=HODGE_RING if hodge else MOTIVIC_RING)
    sizes = [expression_size(args.cls, ring)]
    user_data = None
    if args.local_data:
        user_data = _load_local_data(args.local_data, args.truncate)
        sizes.append(_local_size(user_data, args.truncate, ring.nvars))
    elif args.dim > 2:
        raise ValueError("no closed form is bundled for dimension %d; pass "
                         "the punctual series with --local-data FILE"
                         % args.dim)
    _check_cost(_solve_cost(args.truncate, *sizes, spread=1))
    cls = VarietyClass(parse_polynomial(args.cls, ring), args.dim)
    if hodge:
        result = hodge_deligne_series(cls, args.truncate, user_data)
    else:
        local = local_series(args.dim, args.truncate, user_data)
        result = global_series(cls, local, args.truncate)
        if args.specialize == "euler":
            result = euler_specialization(result)
    _print_series(result, args.format, out)
    return 0


def _cmd_oracle_check(args, out) -> int:
    _check_cost(_sweep_cost(args.max_points, args.max_weight, args.max_size,
                            args.truncate))
    failures = run_oracle_checks(args.max_points, args.max_weight,
                                 args.max_size, args.truncate)
    if args.format == "json":
        json.dump({"status": "fail" if failures else "pass",
                   "failures": failures}, out)
        out.write("\n")
    else:
        out.write("equivalence sweep: points<=%d weights<=%d sizes<=%d "
                  "order=%d\n" % (args.max_points, args.max_weight,
                                  args.max_size, args.truncate))
        for failure in failures:
            out.write("FAIL %s\n" % failure)
        out.write("oracle-check: %s\n" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def _env_seed() -> int:
    text = os.environ.get("MOTIVIC_POWER_SEED", "0")
    try:
        return int(text)
    except ValueError:
        shown = repr(text) if len(text) <= 40 else "%d characters" % len(text)
        raise ValueError(
            "MOTIVIC_POWER_SEED must be a decimal integer of at most %d "
            "digits, got %s" % (sys.get_int_max_str_digits(), shown)) from None


def _cmd_axioms(args, out) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    ring = _ring(args)
    _check_cost(_axioms_cost(ring, args.truncate, args.samples))
    report = run_axiom_suite(ring, args.truncate, args.samples, seed)
    if args.format == "json":
        json.dump({"status": "pass" if report.ok else "fail",
                   "seed": seed, "samples": args.samples,
                   "order": args.truncate,
                   "failures": report.failures}, out)
        out.write("\n")
    else:
        for line in report.summary_lines():
            out.write(line + "\n")
        for failure in report.failures:
            out.write("FAIL %s\n" % failure)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motivic-power",
        description="Exact power structures over polynomial rings and "
                    "generating series of Hilbert schemes of points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeta", help="zeta series of a class (symmetric powers)")
    p.add_argument("--class", dest="cls", required=True, metavar="EXPR")
    _add_common(p)
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("pow", help="raise a unital series to a class power")
    p.add_argument("--series", required=True, metavar="EXPR")
    p.add_argument("--exponent", required=True, metavar="EXPR")
    _add_common(p)
    p.set_defaults(handler=_cmd_pow)

    p = sub.add_parser("factor", help="Euler-product exponents of a series")
    p.add_argument("--series", required=True, metavar="EXPR")
    _add_common(p)
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("assemble", help="multiply out an Euler product")
    p.add_argument("--exponents", nargs="+", required=True, metavar="EXPR",
                   help="exponents b_1 b_2 ... (missing ones are zero)")
    _add_common(p)
    p.set_defaults(handler=_cmd_assemble)

    p = sub.add_parser("exp", help="Exp of P_1 t + P_2 t^2 + ...")
    p.add_argument("--exponents", nargs="+", required=True, metavar="EXPR",
                   help="coefficients P_1 P_2 ... (missing ones are zero)")
    _add_common(p)
    # Exp is the assembly of the Euler product whose exponents are P_k
    p.set_defaults(handler=_cmd_assemble)

    p = sub.add_parser("log", help="Log of a unital series")
    p.add_argument("--series", required=True, metavar="EXPR")
    _add_common(p)
    # Log reads off the Euler-product exponents of the series
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("hilbert",
                       help="generating series of Hilbert schemes of points")
    p.add_argument("--dim", type=int, required=True, metavar="D")
    p.add_argument("--class", dest="cls", required=True, metavar="EXPR",
                   help="class of the variety (e_X polynomial for hodge)")
    p.add_argument("--specialize", choices=("euler", "hodge"), default=None)
    p.add_argument("--local-data", metavar="FILE", default=None,
                   help="JSON file with the punctual series (needed for dim >= 3)")
    _add_common(p)
    p.set_defaults(handler=_cmd_hilbert)

    p = sub.add_parser("oracle-check",
                       help="exhaustive equivalence sweeps of the counting oracles")
    p.add_argument("--max-points", type=_count, default=4, metavar="M")
    p.add_argument("--max-weight", type=_count, default=4, metavar="W")
    p.add_argument("--max-size", type=_count, default=3, metavar="A")
    _add_common(p, default_truncate=6)
    p.set_defaults(handler=_cmd_oracle_check)

    p = sub.add_parser("axioms",
                       help="randomized check of the seven power-structure laws")
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to MOTIVIC_POWER_SEED, then 0")
    p.add_argument("--samples", type=_samples, default=20)
    _add_common(p, default_truncate=8)
    p.set_defaults(handler=_cmd_axioms)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the whole output is rendered before any of it is written, so a
    # command that fails leaves stdout empty
    out = io.StringIO()
    try:
        status = args.handler(args, out)
    except (ParseError, ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    sys.stdout.write(out.getvalue())
    return status


if __name__ == "__main__":
    sys.exit(main())
