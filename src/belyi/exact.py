"""Exact scalars, the integer polynomial, its printer, and rational functions.

The work is done on ascending lists of integer coefficients.  A `Poly` is a
dense tuple of int coefficients (ascending degree, no trailing zeros) with
no arithmetic of its own: it is what squarefree decomposition and gcd take,
and squarefree decomposition returns its factors as integer lists.
`poly_text` prints an ascending list of integer and rational coefficients.
A rational function is stored reduced, as one pair of integer coefficient
tuples with no common content and a positive leading denominator
coefficient, and printed with a monic denominator.  Only
`RatFunc.from_json` reads "p/q" strings.  Nothing in this module touches
floating point, so every identity checked downstream is exact.  Messages
name a bad value by `brief_repr`, its repr cut short in length and depth.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import accumulate, compress, count, zip_longest
from reprlib import repr as brief_repr
from typing import Container, Iterable, Sequence


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(s: str) -> Fraction:
    """Parse "p" or "p/q" (decimal integers, q nonzero) into a reduced
    Fraction; anything else, including non-strings, raises ValueError."""
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise ValueError(f"not a rational \"p\" or \"p/q\": {brief_repr(s)}")
    num, _, den = s.partition("/")
    if den and int(den) == 0:
        raise ValueError(f"zero denominator in {brief_repr(s)}")
    return Fraction(int(num), int(den or 1))


def parse_int(v: object) -> int:
    """A JSON integer as read by json.load; bool, float, str and anything
    else raise ValueError."""
    if type(v) is not int:
        raise ValueError(f"not an integer: {brief_repr(v)}")
    return v


def json_object(data: object, what: str, fields: Container) -> dict:
    """``data`` as the JSON object named ``what``, whose writer writes only
    ``fields``; a non-object, or a key that writing back would drop, raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, not {brief_repr(data)}")
    for key in data:
        if key not in fields:
            raise ValueError(f"{what} has unknown field {brief_repr(key)}")
    return data


def json_field(data: dict, key: str, what: str) -> object:
    """``data[key]`` where ``data`` is the JSON object named ``what``, as
    ``json_object`` returns it; one without ``key`` raises ValueError."""
    if key not in data:
        raise ValueError(f"{what} has no {key!r} field")
    return data[key]


def ratfunc_lists(data: object) -> tuple[list, list]:
    """f's num and den lists, their entries unread; a malformed f raises ValueError."""
    json_object(data, "f", ("num", "den"))
    if "num" not in data or "den" not in data:
        raise ValueError(f"a rational function needs num and den, not {brief_repr(data)}")
    for cs in (data["num"], data["den"]):
        if not isinstance(cs, list):
            raise ValueError(f"coefficients must be a list of strings, not {brief_repr(cs)}")
    return data["num"], data["den"]


# the encoder of every JSON text the package writes: compact, with no
# space after a separator.  A record line is joined from such texts, each
# permutation's cycles among them, encoded from its kept tuples.  What it
# encodes is built by a to_json or is a permutation's cycles, nested
# tuples of ints, so it holds no cycle to scan for.
compact_json = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


# one encoder for every stored-field check; json.dumps(sort_keys=True)
# builds a new one on each call.  It is the one reader step that recurses
# into a stored value: with no circular-reference scan, a self-referential
# value raises RecursionError there, as one nested too deeply does.
_sorted_json = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def check_stored(data: dict, derived: dict, source: str) -> None:
    """Raise ValueError unless ``data`` stores each field of ``derived`` as
    it is, compared as sorted-key JSON text, so that a rotated cycle, 0.0
    or false cannot pass for what the writer derives from ``source``.

    The fields are encoded together, as one list in ``derived``'s order, and
    only a mismatch is traced to its first field, whose stored and derived
    values the message names by ``brief_repr``.  A JSON text parses one way
    only, so the lists' texts agree exactly when each field's does.
    """
    try:
        if _sorted_json([data.get(key) for key in derived]) == _sorted_json(list(derived.values())):
            return
    except RecursionError:
        raise ValueError(f"stored {', '.join(derived)} nested too deeply to read") from None
    for key, value in derived.items():
        stored = data.get(key)
        if _sorted_json(stored) != _sorted_json(value):
            raise ValueError(
                f"stored {key} {brief_repr(stored)} disagrees with {brief_repr(value)},"
                f" derived from {source}"
            )


def poly_text(coeffs: Sequence[int | Fraction]) -> str:
    """The polynomial with ascending coefficients ``coeffs`` (ints and
    Fractions), printed from its leading term down; "0" when all are zero."""
    parts: list[str] = []
    for p in range(len(coeffs) - 1, -1, -1):
        c = coeffs[p]
        if c == 0:
            continue
        mag = abs(c)
        if p == 0:
            body = str(mag)
        else:
            xp = "x" if p == 1 else f"x^{p}"
            if mag == 1:
                body = xp
            elif mag.denominator == 1:
                body = f"{mag}{xp}"
            else:
                body = f"({mag}){xp}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


class Poly:
    """Dense univariate polynomial over the integers, as squarefree
    decomposition and gcd take it.

    Coefficients are ints, stored ascending by degree with trailing zeros
    stripped; the zero polynomial is the empty tuple.  Any other
    coefficient, a rational one included, raises ValueError.  Instances
    are treated as immutable and are hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        if not set(map(type, cs)) <= {int}:
            bad = next(c for c in cs if type(c) is not int)
            raise ValueError(f"not an int: {brief_repr(bad)}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({poly_text(self.coeffs)!r})"


def _derivative(u: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(u)][1:]


def _wronskian(u: list[int], v: list[int]) -> list[int]:
    """u'v - uv' of ascending integer coefficient lists, trailing zeros
    stripped: the terms u_i x^i and v_j x^j give (i - j) u_i v_j x^(i+j-1)."""
    out = [0] * max(len(u) + len(v) - 2, 0)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if i != j and b:
                    out[i + j - 1] += (i - j) * a * b
    while out and out[-1] == 0:
        out.pop()
    return out


def _sub(u: list[int], v: list[int]) -> list[int]:
    # u - v, trailing zeros stripped
    out = [a - b for a, b in zip_longest(u, v, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _exact_quo(u: list[int], v: list[int]) -> list[int]:
    """u / v over the integers; raises ArithmeticError unless v divides u.

    By Gauss's lemma a primitive v that divides u over the rationals also
    divides it over the integers, so every quotient Yun forms is integral.
    """
    dv = len(v) - 1
    lead = v[-1]
    r = u[:]
    q = [0] * max(0, len(u) - dv)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + dv], lead)
        if rem:
            raise ArithmeticError("inexact polynomial division over the integers")
        if c:
            q[k] = c
            r[k:k + dv] = [a - c * b for a, b in zip(r[k:k + dv], v)]
    if any(r[:dv]):
        raise ArithmeticError("inexact polynomial division over the integers")
    return q


def _prem(u: list[int], v: list[int]) -> list[int]:
    # pseudo-remainder of ascending integer coefficient lists, v nonzero
    dv = len(v) - 1
    lv = v[-1]
    while len(u) > dv:
        lu = u[-1]
        u = [lv * c for c in u[:-1]]
        shift = len(u) - dv
        u[shift:] = [a - lu * b for a, b in zip(u[shift:], v)]
        while u and u[-1] == 0:
            u.pop()
    return u


# the largest prime below 2^30: a residue is one 30-bit CPython digit
_P = (1 << 30) - 35


def _coprime_mod_p(u: list[int], v: list[int]) -> bool:
    """True when the gcd of u and v modulo _P is a constant.

    If _P divides neither leading coefficient, the gcd over the rationals
    keeps its degree modulo _P and divides both images there, so its degree
    is at most that of the gcd modulo _P: a constant there proves u and v
    coprime.  False means only "not proven"; the caller then runs the PRS.
    Only the degrees of the remainders matter, so each may be scaled by a
    unit.  In a normal sequence each division has two quotient terms, and
    lc(b)^2 a mod b is formed in one pass with no inverse, a's entries
    reduced once per division, not once per step.  _P is below 2^30, so a
    residue is one CPython digit and a product of two is two: the loop
    multiplies machine-sized integers, where a 61-bit prime's products
    take five digits.
    """
    if u[-1] % _P == 0 or v[-1] % _P == 0:
        return False
    a = [c % _P for c in u]
    b = [c % _P for c in v]
    while len(b) > 1:
        lb = b[-1]
        if len(a) == len(b) + 1:
            # lb^2 a - (q1 x + q0) b: zip drops its top term and pop the next, both zero
            q1 = lb * a[-1] % _P
            q0 = (lb * a[-2] - a[-1] * b[-2]) % _P
            l2 = lb * lb % _P
            a = [(l2 * x - q1 * y - q0 * z) % _P for x, y, z in zip(a, [0] + b, b)]
            a.pop()
        else:
            # a mod b, one step per quotient term
            inv = pow(lb, -1, _P)
            db = len(b) - 1
            for k in range(len(a) - 1 - db, -1, -1):
                c = a[k + db] * inv % _P
                if c:
                    a[k:k + db] = [(x - c * y) % _P for x, y in zip(a[k:k + db], b)]
            del a[db:]
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return len(b) == 1


def _int_gcd(u: list[int], v: list[int]) -> list[int]:
    """Primitive gcd of two nonzero integer coefficient lists.

    Powers of x come off first: gcd(x^a U, x^b V) = x^min(a, b) gcd(U, V)
    when U(0) and V(0) are nonzero, so the modular test and the PRS see
    only U and V.
    """
    a = next(compress(count(), u))
    b = next(compress(count(), v))
    return [0] * min(a, b) + _int_gcd_at_nonzero(u[a:], v[b:])


def _int_gcd_at_nonzero(u: list[int], v: list[int]) -> list[int]:
    # primitive gcd of two integer lists whose constant terms are nonzero
    if len(u) < len(v):
        u, v = v, u
    if _coprime_mod_p(u, v):
        return [1]
    while True:
        r = _prem(u, v)
        if not r:
            g = math.gcd(*v)
            return [c // g for c in v]
        if len(r) == 1:
            return [1]
        g = math.gcd(*r)
        u, v = v, [c // g for c in r]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive greatest common divisor with a positive leading coefficient,
    via a primitive remainder sequence over the integers, skipped when the
    inputs are coprime modulo a prime."""
    u, v = list(a.coeffs), list(b.coeffs)
    if not u and not v:
        raise ValueError("gcd of two zero polynomials")
    g = _int_gcd(u, v) if u and v else u or v
    content = math.gcd(*g) if g[-1] > 0 else -math.gcd(*g)
    return Poly([c // content for c in g])


def _divide_out_x_minus_1(r: list[int]) -> tuple[list[int], int]:
    """(q, m) with r = (x - 1)^m q and q(1) nonzero, or q a constant, where
    r and q are descending coefficient lists and r is nonzero.

    On descending coefficients, accumulate(r) is the quotient by x - 1
    followed by the remainder r(1): one pass per division, which tests for
    the root and divides it out at once.
    """
    m = 0
    while len(r) > 1:
        q = list(accumulate(r))
        if q.pop():
            break
        r = q
        m += 1
    return r, m


def squarefree_decomposition(p: Poly) -> list[tuple[list[int], int]]:
    """Yun's squarefree decomposition.

    Returns squarefree factors with their multiplicities, ordered by
    strictly increasing multiplicity, such that p = c * prod(f**m) for an
    integer c.  Each factor is an ascending list of integer coefficients,
    primitive, with a positive leading coefficient.  Factors of degree zero
    are omitted; a constant input decomposes into the empty product.

    The content of p comes off, then powers x^m and (x - 1)^m1 are split
    off, by a slice and by synthetic division on the reversed coefficients,
    so Yun's loop only sees roots other than 0 and 1.  On a fiber of a map
    normalized at 0 and 1 that rest is often squarefree, which the mod-p
    test proves at once.
    """
    if not p.coeffs:
        raise ValueError("zero polynomial has no squarefree decomposition")
    content = math.gcd(*p.coeffs)
    m = next(compress(count(), p.coeffs))
    r, m1 = _divide_out_x_minus_1([c // content for c in reversed(p.coeffs[m:])])
    u = r[::-1]
    factors: dict[int, list[int]] = {}  # multiplicity -> integer factor
    if len(u) > 1:
        du = _derivative(u)
        a0 = _int_gcd(u, du)
        b = _exact_quo(u, a0)
        c = _exact_quo(du, a0)
        d = _sub(c, _derivative(b))
        i = 1
        while len(b) > 1:
            a = _int_gcd(b, d) if d else b
            if len(a) > 1:
                factors[i] = a
            b = _exact_quo(b, a)
            c = _exact_quo(d, a)
            d = _sub(c, _derivative(b))
            i += 1
    if m1:
        # (x - 1)^m1 joins the factor of multiplicity m1, or stands alone
        f = factors.get(m1, [1])
        factors[m1] = _sub([0] + f, f)
    if m:
        # x^m joins the factor of multiplicity m, or stands alone
        factors[m] = [0] + factors.get(m, [1])
    return [(f if f[-1] > 0 else [-c for c in f], i) for i, f in sorted(factors.items())]


def _content_free(n: list[int], d: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # n and d over the content common to both, with lc(d) > 0
    content = math.gcd(*n, *d) if d[-1] > 0 else -math.gcd(*n, *d)
    return tuple(c // content for c in n), tuple(c // content for c in d)


class RatFunc:
    """Rational function num/den in lowest terms.

    Stored as one integer pair (N, D): ascending coefficient tuples, coprime,
    with no content common to both and lc(D) > 0, so that equal functions
    store equal pairs.  It is built from num and den, ascending coefficient
    sequences of ints and Fractions, and printed with a monic denominator.
    The constructor reduces the pair by `_int_gcd`; the single-cycle
    builders' route, `_of_coprime`, takes no gcd, and their certificate
    proves the pair reduced instead.
    """

    __slots__ = ("pair",)

    def __init__(self, num: Sequence[int | Fraction], den: Sequence[int | Fraction] = (1,)):
        n, d = list(num), list(den)
        kinds = set(map(type, n + d))
        if not kinds <= {int, Fraction}:
            bad = next(c for c in n + d if type(c) not in (int, Fraction))
            raise ValueError(f"not an int or Fraction: {brief_repr(bad)}")
        if Fraction in kinds:
            # clear both denominators at once
            scale = math.lcm(*(c.denominator for c in n + d))
            n = [c.numerator * (scale // c.denominator) for c in n]
            d = [c.numerator * (scale // c.denominator) for c in d]
        for u in (n, d):
            while u and u[-1] == 0:
                u.pop()
        # cancel the gcd, then the content
        if not d:
            raise ValueError("zero denominator")
        if not n:
            d = [1]
        else:
            g = _int_gcd(n, d)
            if len(g) > 1:
                n, d = _exact_quo(n, g), _exact_quo(d, g)
        self.pair: tuple[tuple[int, ...], tuple[int, ...]] = _content_free(n, d)

    @classmethod
    def _of_coprime(cls, num: list[int], den: list[int]) -> "RatFunc":
        """num/den, two int lists with nonzero leading coefficients that the
        caller proves coprime, stored with no gcd taken: only the content
        comes off.  The single-cycle builders are its callers, and their
        certificate proves the pair reduced before a map leaves them."""
        f = object.__new__(cls)
        f.pair = _content_free(num, den)
        return f

    @property
    def degree(self) -> int:
        """Degree as a map of the projective line."""
        return max(map(len, self.pair)) - 1

    @property
    def is_constant(self) -> bool:
        return self.degree <= 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RatFunc) and self.pair == other.pair

    def __hash__(self) -> int:
        return hash(("RatFunc", self.pair))

    def to_json(self) -> dict:
        """{"num": [...], "den": [...]}, each coefficient of the monic form
        as "p/q" or "p", a nonzero one written from one gcd with lc(D)."""
        n, d = self.pair
        lead = d[-1]

        def text(c: int) -> str:
            if not c:
                return "0"
            g = math.gcd(c, lead)
            return str(c // g) if g == lead else f"{c // g}/{lead // g}"

        return {"num": [text(c) for c in n], "den": [text(c) for c in d]}

    @classmethod
    def from_json(cls, data: dict) -> "RatFunc":
        """Read {"num": [...], "den": [...]}, ascending lists of "p" or "p/q"
        strings; raises ValueError on a malformed object or a zero
        denominator."""
        num, den = ([parse_rational(s) for s in cs] for cs in ratfunc_lists(data))
        return cls(num, den)

    def __str__(self) -> str:
        lead = self.pair[1][-1]
        num, den = (poly_text([Fraction(c, lead) for c in u]) for u in self.pair)
        return num if len(self.pair[1]) == 1 else f"({num}) / ({den})"

    def __repr__(self) -> str:
        return f"RatFunc({str(self)!r})"
