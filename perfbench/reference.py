"""Independent reference series for the benchmark's verifiers.

Nothing here imports the library.  Both references multiply out
Goettsche's product formula factor by factor on plain Python integers:

    sum_n [X^[n]] t^n = prod_{k>=1} prod_x (1 - x * D^(k-1) t^k)^(-c_x)

where the class of the surface X is sum_x c_x x over monomials x, and D
is the class of the affine line (L in Z[L^(+-)], uv in Z[u, v]).  A
factor with c_x > 0 is applied c_x times as the in-place recurrence
f_n += x D^(k-1) f_(n-k) in ascending n; one with c_x < 0 is the
literal polynomial power, f_n -= x D^(k-1) f_(n-k) in descending n.

Each coefficient of t^n is a polynomial in at most two variables,
carried as one Python integer: the monomial u^i v^j sits at digit
i + stride * j in base 2^width (a Kronecker substitution, which is a
ring homomorphism, so sums and shifts of packed values are exact).
The width is chosen from a coefficient bound that holds for every
intermediate product, so the final digits decode without overlap.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Exps = Tuple[int, ...]


def euler_product(chi: int, order: int) -> List[int]:
    """Coefficients of prod_{k>=1} (1 - t^k)^(-chi) up to t^order."""
    f = [1] + [0] * order
    for k in range(1, order + 1):
        for _ in range(abs(chi)):
            if chi > 0:
                for n in range(k, order + 1):
                    f[n] += f[n - k]
            else:
                for n in range(order, k - 1, -1):
                    f[n] -= f[n - k]
    return f


def goettsche_series(cls: Dict[Exps, int], line: Exps,
                     order: int) -> List[Dict[Exps, int]]:
    """Term maps of the Hilbert-scheme series of a surface of class ``cls``.

    ``cls`` maps exponent vectors (one or two variables, nonnegative) to
    integer coefficients; ``line`` is the exponent vector of the class
    of the affine line, (1,) for L or (1, 1) for uv.
    """
    nvars = len(line)
    if nvars not in (1, 2) or any(len(e) != nvars for e in cls):
        raise ValueError("reference supports one or two variables")
    if any(x < 0 for e in cls for x in e):
        raise ValueError("reference needs nonnegative exponents")
    # a part of size k contributes at most top + (k - 1) to any exponent
    top = max([1] + [x for e in cls for x in e])
    stride = order * top + 1
    digits = stride ** nvars

    def position(exps: Exps) -> int:
        return exps[0] + (stride * exps[1] if nvars == 2 else 0)

    # |coefficients| of every partial product are bounded by those of
    # prod (1 - t^k)^(-sum |c_x|), all variables set to one
    bound = max(euler_product(sum(abs(c) for c in cls.values()), order))
    width = 8 * ((bound.bit_length() + 2 + 7) // 8)

    f = [1] + [0] * order
    line_pos = position(line)
    for k in range(1, order + 1):
        for exps, c in cls.items():
            shift = (position(exps) + (k - 1) * line_pos) * width
            for _ in range(abs(c)):
                if c > 0:
                    for n in range(k, order + 1):
                        f[n] += f[n - k] << shift
                else:
                    for n in range(order, k - 1, -1):
                        f[n] -= f[n - k] << shift
    return [_unpack(v, width, digits, stride, nvars) for v in f]


def _unpack(value: int, width: int, digits: int, stride: int,
            nvars: int) -> Dict[Exps, int]:
    """Decode balanced base-2^width digits into a term map."""
    nbytes = width // 8
    half = 1 << (width - 1)
    offset = int.from_bytes(half.to_bytes(nbytes, "little") * digits, "little")
    raw = (value + offset).to_bytes(nbytes * digits, "little")
    terms: Dict[Exps, int] = {}
    for p in range(digits):
        d = int.from_bytes(raw[p * nbytes:(p + 1) * nbytes], "little") - half
        if d:
            terms[(p,) if nvars == 1 else (p % stride, p // stride)] = d
    return terms


def along_line(series: List[Dict[Exps, int]]) -> List[Dict[Exps, int]]:
    """Push a series over Z[L] through L -> uv."""
    return [{(e[0], e[0]): c for e, c in terms.items()} for terms in series]
