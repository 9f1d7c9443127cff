"""Seeded random generators, the projective evaluation of rational
functions, the polynomial arithmetic of the test oracles and the earlier
implementations kept as oracles, shared across the test modules."""

from __future__ import annotations

import json
import math
import random
import reprlib
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, zip_longest

from belyi import (
    CombinatorialType,
    GeneratingSystem,
    Permutation,
    Poly,
    RatFunc,
    is_transitive,
    make_gensys,
)
from belyi.exact import _P, parse_int
from belyi.families import _single_cycle_ints


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of the projective line over the rationals.

    Either a finite rational value or the point at infinity (finite=None).
    """

    finite: Fraction | None = None

    @classmethod
    def of(cls, v: int | Fraction) -> "ProjectivePoint":
        return cls(Fraction(v))

    def __str__(self) -> str:
        return "inf" if self.finite is None else str(self.finite)


INFINITY = ProjectivePoint(None)


# Oracle arithmetic on ascending lists of int or Fraction coefficients, the
# zero polynomial being []: print a result with poly_text, and clear its
# denominators with `cleared` to hand it to Yun or gcd.


def trimmed(out: list) -> list:
    """The list with its trailing zeros stripped, in place."""
    while out and out[-1] == 0:
        out.pop()
    return out


def cleared(p: list) -> Poly:
    """p times the lcm of its denominators: an integer Poly with the same
    roots, of the same multiplicities."""
    scale = math.lcm(*(c.denominator for c in p))
    return Poly([int(c * scale) for c in p])


def add(*ps: list) -> list:
    """The sum of coefficient lists, trailing zeros stripped."""
    return trimmed([sum(cs) for cs in zip_longest(*ps, fillvalue=0)])


def sub(p: list, q: list) -> list:
    return add(p, [-c for c in q])


def mul(*ps: list) -> list:
    """The product of coefficient lists, trailing zeros stripped; the empty
    product is [1]."""
    out = [1]
    for p in ps:
        acc = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                acc[i + j] += a * b
        out = acc
    return trimmed(out)


def power(p: list, n: int) -> list:
    return mul(*[p] * n)


def derivative(p: list) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def horner(p: list, x: int | Fraction) -> int | Fraction:
    """p(x) at a finite point."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def evaluate(f: RatFunc, z: ProjectivePoint | int | Fraction) -> ProjectivePoint:
    """f(z) as a map of the projective line (poles go to infinity)."""
    if not isinstance(z, ProjectivePoint):
        z = ProjectivePoint.of(z)
    num, den = f.pair
    if z.finite is None:
        if len(num) > len(den):
            return INFINITY
        if len(num) < len(den):
            return ProjectivePoint.of(0)
        return ProjectivePoint.of(Fraction(num[-1], den[-1]))
    nv = horner(num, z.finite)
    dv = horner(den, z.finite)
    if dv == 0:
        if nv == 0:
            raise ArithmeticError("num and den share a root: not reduced")
        return INFINITY
    return ProjectivePoint.of(Fraction(nv, dv))


def product(f: RatFunc, g: RatFunc) -> RatFunc:
    """f g, reduced."""
    (a, b), (c, d) = f.pair, g.pair
    return RatFunc(mul(a, c), mul(b, d))


def substitute_reciprocal(f: RatFunc) -> RatFunc:
    """The composite f(1/x), reduced."""
    k = f.degree  # x^k f(1/x) reverses each coefficient list padded to k + 1
    n, d = ([0] * (k + 1 - len(c)) + list(c[::-1]) for c in f.pair)
    return RatFunc(n, d)


def poly_params(d: int, k: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    """The polynomial family's own formulas for (c, a), kept as an oracle:

        a_i = (-1)^(k-i) / (d - i) * binom(k, i),
        c   = (1/k!) * prod_{j=0..k} (d - j).
    """
    a = tuple(Fraction((-1) ** (k - i) * math.comb(k, i), d - i) for i in range(k + 1))
    return Fraction(math.prod(range(d - k, d + 1)), math.factorial(k)), a


def symmetric_coeffs(d: int, k: int) -> tuple[int, ...]:
    """The symmetric family's own formula, kept as an oracle:
    a_i = k! * binom(d, i) * binom(d-k-i-1, k-i) for 0 <= i <= k."""
    kf = math.factorial(k)
    return tuple(
        kf * math.comb(d, i) * math.comb(d - k - i - 1, k - i) for i in range(k + 1)
    )


def single_cycle_closed_form(ct: CombinatorialType) -> tuple[list[int], list[int]]:
    """u = perm(d, m) P and v = perm(e0-1, n) Q of the map of type ct, from
    the hypergeometric terms one comb and two perms at a time, kept as an
    oracle for the term ratios:

        u_j = (-1)^j binom(m, j) perm(d-e1+j, j) perm(d, m-j),
        v_j = (-1)^j binom(n, j) perm(d, j) perm(e0-1-j, n-j).
    """
    d, e0, e1 = ct.d, ct.e0, ct.e1
    m, n = d - e0, d - ct.e_inf
    u = [(-1) ** j * math.comb(m, j) * math.perm(d - e1 + j, j) * math.perm(d, m - j)
         for j in range(m + 1)]
    v = [(-1) ** j * math.comb(n, j) * math.perm(d, j) * math.perm(e0 - 1 - j, n - j)
         for j in range(n + 1)]
    return u, v


def single_cycle_map(ct: CombinatorialType) -> RatFunc:
    """The normalized map of type ct: its closed-form pair, reduced by
    RatFunc, and so the reference for the single-cycle builders, which take
    no gcd."""
    return RatFunc(*_single_cycle_ints(ct))


def divisibility_certificate(num, den, ct: CombinatorialType) -> bool:
    """The certificate in divisibility form (ROADMAP item 14), an oracle of
    the Yun form in `families._certified_profile`: N/D, ascending integer
    lists, is the normalized map of type ct when len(N) = d + 1,
    len(N) - len(D) = eInf, x^e0 | N and (x - 1)^e1 | N - D.  Each of the
    e1 divisions by x - 1 is one `accumulate` pass over the descending
    coefficients, the quotient followed by the remainder, which must be 0."""
    d, (e0, e1, e_inf) = ct.d, ct.indices
    if len(num) != d + 1 or len(num) - len(den) != e_inf or any(num[:e0]):
        return False
    r = sub(num, den)[::-1]
    for _ in range(e1):
        *r, remainder = accumulate(r)
        if remainder:
            return False
    return True


def split_x_minus_1_by_tail_sums(u: list[int]) -> tuple[list[int], int]:
    """(w, m) with u = (x - 1)^m w, ascending lists, dividing while the
    coefficients sum to zero, each quotient read off as the tail sums of u:
    a sum, a slice, a reverse, an accumulate and a reverse per division,
    kept as an oracle for the one-pass split."""
    m = 0
    while len(u) > 1 and sum(u) == 0:
        u = list(accumulate(reversed(u[1:])))[::-1]
        m += 1
    return u, m


def coprime_mod_p_per_step(u: list[int], v: list[int]) -> bool:
    """Euclid over GF(_P), every entry reduced at every step and each
    quotient coefficient scaled by the inverse of lc(b), kept as an oracle
    for the fused divisions: True when the gcd modulo _P is a constant and
    _P divides neither leading coefficient."""
    if u[-1] % _P == 0 or v[-1] % _P == 0:
        return False
    a = [c % _P for c in u]
    b = [c % _P for c in v]
    while len(b) > 1:
        inv = pow(b[-1], -1, _P)
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


def random_permutation(rng: random.Random, d: int) -> Permutation:
    imgs = list(range(1, d + 1))
    rng.shuffle(imgs)
    return Permutation(imgs)


def conjugate(p: Permutation, t: Permutation) -> Permutation:
    """t^-1 * p * t under the left-to-right convention: p relabeled by t."""
    return t.inverse() * p * t


def closure_is_transitive(perms: list[Permutation]) -> bool:
    """Oracle for ``is_transitive``: breadth-first closure of the point 1
    under the generators and their inverses."""
    gens = list(perms) + [p.inverse() for p in perms]
    seen = {1}
    queue = deque([1])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = g(x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == perms[0].degree


def minimal_block(gens, a: int, b: int) -> frozenset[int]:
    """The block holding a and b in the finest block system of the group
    that ``gens``, image tuples on 1..d, generate in which a and b share a
    block (Atkinson's algorithm, with union-find).

    Each pair of classes merged is queued, and each generator's images of
    a queued pair are merged in turn, so the partition ends invariant under
    every generator, hence under the finite group they generate.  A
    transitive group is primitive when the block of every pair (1, b) is
    the whole point set.
    """
    parent = list(range(len(gens[0]) + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parent[b] = a
    queue = [(a, b)]
    while queue:
        x, y = queue.pop()
        for g in gens:
            u, v = find(g[x - 1]), find(g[y - 1])
            if u != v:
                parent[v] = u
                queue.append((u, v))
    root = find(a)
    return frozenset(x for x in range(1, len(parent)) if find(x) == root)


def closure_order(gens) -> int:
    """Oracle for ``group_order``: the order of the group that ``gens``,
    image tuples on 1..d, generate, by listing every element breadth-first
    from the identity.  In a finite group the inverses are products of the
    generators, so right multiplication by the generators reaches all."""
    seen = {tuple(range(1, len(gens[0]) + 1))}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for g in gens:
            y = tuple(g[i - 1] for i in x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen)


def group_order(gens) -> int:
    """The order of the group that ``gens``, image tuples on 1..d, generate,
    by deterministic Schreier-Sims.

    Level l holds a base point, generators that fix the base points before
    it, and a transversal: for each point p of the base point's orbit under
    them, an element u_p (with its inverse) taking the base point to p.  A
    Schreier generator u_p s u_{s(p)}^-1 fixes the base point; each is sifted
    through the levels below, and a residue that is not the identity joins
    every level down to where it stopped, and work resumes there.  The
    transversals only grow, so a pair (p, s) once sifted to the identity
    stays sifted.  When no pair is left, the generators at each level
    generate the stabilizer of the base points before it (Schreier's lemma),
    and the order is the product of the orbit lengths.
    """
    n = len(gens[0])
    ident = tuple(range(n))

    def mul(a, b):  # a, then b
        return tuple(b[x] for x in a)

    def inv(a):
        out = [0] * n
        for x, y in enumerate(a):
            out[y] = x
        return tuple(out)

    base, strong, trans, orbits, sifted = [], [], [], [], []

    def add_level(g):
        b = next(x for x in range(n) if g[x] != x)
        base.append(b)
        strong.append([])
        trans.append({b: (ident, ident)})
        orbits.append([b])
        sifted.append(set())

    def add_strong(g, level):
        strong[level].append(g)
        orbit, tr = orbits[level], trans[level]
        for p in orbit:  # the list grows as it is walked
            u = tr[p][0]
            for s in strong[level]:
                q = s[p]
                if q not in tr:
                    v = mul(u, s)
                    tr[q] = (v, inv(v))
                    orbit.append(q)

    def sift(g, level):
        for j in range(level, len(base)):
            u = trans[j].get(g[base[j]])
            if u is None:
                return g, j
            g = mul(g, u[1])
        return g, len(base)

    gens = [tuple(x - 1 for x in g) for g in gens]
    gens = [g for g in gens if g != ident]
    if not gens:
        return 1
    add_level(gens[0])
    for g in gens:
        add_strong(g, 0)
    level = 0
    while level >= 0:
        residue = None
        for p in orbits[level]:
            u = trans[level][p][0]
            for k, s in enumerate(strong[level]):
                if (p, k) in sifted[level]:
                    continue
                sifted[level].add((p, k))
                y = mul(mul(u, s), trans[level][s[p]][1])
                h, stop = sift(y, level + 1)
                if h != ident:
                    residue = h, stop
                    break
            if residue is not None:
                break
        if residue is None:
            level -= 1
            continue
        h, stop = residue
        if stop == len(base):
            add_level(h)
        for j in range(level + 1, stop + 1):
            add_strong(h, j)
        level = stop
    return math.prod(map(len, orbits))


def random_poly(rng: random.Random, max_degree: int = 6, span: int = 9) -> list[Fraction]:
    """Ascending Fraction coefficients, trailing zeros stripped."""
    deg = rng.randint(0, max_degree)
    coeffs = [
        Fraction(rng.randint(-span, span), rng.randint(1, 4))
        for _ in range(deg + 1)
    ]
    return trimmed(coeffs)


def random_gensys(rng: random.Random, dmin: int = 3, dmax: int = 10) -> GeneratingSystem:
    """A uniformly scrambled transitive pair, completed with sigmaInf."""
    while True:
        d = rng.randint(dmin, dmax)
        s0 = random_permutation(rng, d)
        s1 = random_permutation(rng, d)
        if is_transitive([s0, s1]):
            return make_gensys(s0, s1)


def stated_canonical_triple(ct: CombinatorialType) -> GeneratingSystem:
    """Oracle for ``canonical_single_cycle``: the triple built from its
    stated cycles sigma0 = (d d-1 ... d-e0+1), sigma1 = (1 2 ... e1) and
    sigmaInf = (1 e1+1 ... d d-e0+1 d-e0 ... 2)."""
    d, e0, e1 = ct.d, ct.e0, ct.e1
    s0 = Permutation.from_cycles(d, [range(d, d - e0, -1)])
    s1 = Permutation.from_cycles(d, [range(1, e1 + 1)])
    runs = (*range(e1 + 1, d + 1), *range(d - e0 + 1, 1, -1))
    return GeneratingSystem(s0, s1, Permutation.from_cycles(d, [(1, *runs)]))


def stated_from_cycles(d: int, cycles) -> Permutation:
    """Oracle for ``Permutation.from_cycles``: each point checked by
    ``parse_int``, against 1..d and against a set of the points seen, and
    each cycle's images written only once all its points pass.  A value
    that is not a list or tuple of iterables is named by ``reprlib.repr``."""
    images = list(range(1, d + 1))
    seen: set[int] = set()
    try:
        if not isinstance(cycles, (list, tuple)):
            raise TypeError
        cycles = [tuple(c) for c in cycles]
    except TypeError:
        raise ValueError(f"cycles must be a list of lists, not {reprlib.repr(cycles)}") from None
    for cyc in cycles:
        if not cyc:
            raise ValueError("empty cycle")
        for x in cyc:
            if not 1 <= parse_int(x) <= d:
                raise ValueError(f"point {x} outside 1..{d}")
            if x in seen:
                raise ValueError(f"point {x} repeated across cycles")
            seen.add(x)
        for i, x in enumerate(cyc):
            images[x - 1] = cyc[(i + 1) % len(cyc)]
    return Permutation(images)


def stored_field_oracle(data: dict, derived: dict, source: str) -> None:
    """Oracle for ``check_stored``: each field of ``derived`` and its stored
    copy in ``data`` encoded on their own by ``json.dumps(sort_keys=True)``,
    in ``derived``'s order, and the first that differs named, both values
    by ``reprlib.repr``."""
    for key, value in derived.items():
        stored = data.get(key)
        if json.dumps(stored, sort_keys=True) != json.dumps(value, sort_keys=True):
            raise ValueError(
                f"stored {key} {reprlib.repr(stored)} disagrees with {reprlib.repr(value)},"
                f" derived from {source}"
            )


def random_single_cycle_pair(
    rng: random.Random, dmin: int = 3, dmax: int = 12
) -> GeneratingSystem:
    """sigma0 and sigma1 each one scattered cycle, jointly transitive.

    The supports are random subsets in random cyclic order, so the result
    ranges over all genera, not just the planar representatives.
    """
    while True:
        d = rng.randint(dmin, dmax)
        e0 = rng.randint(2, d)
        e1 = rng.randint(max(2, d + 1 - e0), d)
        s0 = Permutation.from_cycles(d, [rng.sample(range(1, d + 1), e0)])
        s1 = Permutation.from_cycles(d, [rng.sample(range(1, d + 1), e1)])
        if is_transitive([s0, s1]):
            return make_gensys(s0, s1)


# the fields of a family map record that its reader rebuilds the map from,
# or checks before it builds; the fuzzes send half their mutations here
MAP_LABELS = {("family",), ("d",), ("k",), ("f", "num"), ("f", "den")}


def json_paths(value, path=()):
    """Every path to a value inside a JSON document, the root included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_paths(item, path + (i,))


def nested_list(depth: int) -> list:
    """[[...[]...]], ``depth`` lists deep, built without recursion."""
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


def shape_oracle(ds) -> dict | None:
    """A two-hub dessin's shape as ``DessinShape.to_json`` writes it, read
    straight off its hubs, or None unless each colour has exactly one
    vertex of degree >= 2: the hub degrees are the hub cycle lengths, and
    the parallel edges are the labels the two hubs share."""
    bhubs = [c for c in ds.black if len(c) >= 2]
    whubs = [c for c in ds.white if len(c) >= 2]
    if len(bhubs) != 1 or len(whubs) != 1:
        return None
    (bhub,), (whub,) = bhubs, whubs
    return {
        "whiteLeaves": len(ds.white) - 1,
        "blackLeaves": len(ds.black) - 1,
        "parallelEdges": len(set(bhub) & set(whub)),
        "blackHubDegree": len(bhub),
        "whiteHubDegree": len(whub),
    }


def dot_oracle(ds) -> str:
    """Oracle for ``Dessin.to_dot``: the Graphviz text written one
    formatted line at a time, each edge's ends looked up in the cycles."""
    at_black = {x: i for i, c in enumerate(ds.black) for x in c}
    at_white = {x: j for j, c in enumerate(ds.white) for x in c}
    lines = [
        "graph dessin {",
        "  node [shape=circle, fixedsize=true, width=0.25];",
    ]
    for i in range(len(ds.black)):
        lines.append(f'  b{i} [style=filled, fillcolor=black, label=""];')
    for j in range(len(ds.white)):
        lines.append(f'  w{j} [label=""];')
    for lab in range(1, ds.d + 1):
        lines.append(f'  b{at_black[lab]} -- w{at_white[lab]} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def diameter_oracle(gs: GeneratingSystem) -> int:
    """Oracle for a dessin's vertex diameter: all-pairs shortest paths by
    Floyd–Warshall over the label sets of the sigma0 and sigma1 cycles, two
    vertices adjacent when they share a label, plus one for the vertex a
    longest shortest path starts at."""
    verts = [set(c) for s in (gs.sigma0, gs.sigma1) for c in s.cycles()]
    n = len(verts)
    far = n  # longer than any path, which has at most n - 1 edges
    dist = [[0 if u is v else 1 if u & v else far for v in verts] for u in verts]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return max(map(max, dist)) + 1


def compose(f: RatFunc, g: RatFunc) -> RatFunc:
    """The composite f(g(x)), reduced: with g = A/B and n = deg f, the
    homogenized substitution sum p_i A^i B^(n-i) / sum q_i A^i B^(n-i)."""
    a, b = g.pair
    n = f.degree

    def homogenized(p: tuple[int, ...]) -> list[int]:
        terms = (mul([c], power(a, i), power(b, n - i)) for i, c in enumerate(p) if c)
        return add(*terms)

    num, den = f.pair
    return RatFunc(homogenized(num), homogenized(den))


# ---- the number of classes of a single-cycle type, by the Frobenius formula
#
# N_m, the number of triples of S_m in the classes (e0, 1^(m-e0)),
# (e1, 1^(m-e1)) and (eInf, 1^(m-eInf)) with product 1, is
# |C0||C1||Cinf| / m! * sum over lambda of chi(C0) chi(C1) chi(Cinf) / chi(1)
# (Lando & Zvonkin, Graphs on Surfaces and Their Applications, 2004, ch. 1).
# Each such triple moves one orbit, on which it is transitive, and fixes the
# rest, so the transitive count is T_m = N_m - sum over m' < m of
# C(m, m') T_m'.  A type's classes, weighted by 1 / |Aut|, number T_d / d!.


def partitions(n: int, largest: int | None = None):
    """The partitions of n, as descending tuples, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


def hook_dimension(lam: tuple[int, ...]) -> int:
    """chi^lambda(1) = n! / (the product of the hook lengths of lambda)."""
    conj = [sum(1 for row in lam if row > j) for j in range(lam[0] if lam else 0)]
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(sum(lam)) // hooks


def _height_sign(h: int) -> int:
    return -1 if h % 2 else 1


def single_cycle_characters(dmax: int, sign=_height_sign) -> dict[int, list[tuple[int, list[int]]]]:
    """m -> [(chi^lambda(1), chi) for lambda a partition of m], 1 <= m <= dmax,
    where chi[e] is chi^lambda on the class (e, 1^(m-e)).

    By Murnaghan-Nakayama, chi[e] sums sign(height) * dim(lambda minus the
    strip) over the border strips of size e.  With the beta-numbers
    b_i = lambda_i + k - i of lambda's k parts, a strip of size e is a b_i
    moved down to a free c = b_i - e, and its height h is the number of
    beta-numbers it passes: parts i+1 .. i+h move up one place, each one
    cell shorter, and what is left of part i follows them.
    """
    dims: dict[tuple[int, ...], int] = {(): 1}
    table = {}
    for m in range(1, dmax + 1):
        rows = []
        for lam in partitions(m):
            k = len(lam)
            beta = [part + k - 1 - i for i, part in enumerate(lam)]
            chi = [0] * (m + 1)
            for i, b in enumerate(beta):
                h = 0
                for c in range(b - 1, -1, -1):
                    if i + 1 + h < k and beta[i + 1 + h] == c:
                        h += 1  # c is taken: the strip passes it
                        continue
                    moved = tuple(part - 1 for part in lam[i + 1:i + 1 + h])
                    mu = lam[:i] + moved + (c - (k - 1 - i - h),) + lam[i + 1 + h:]
                    chi[b - c] += sign(h) * dims[tuple(p for p in mu if p)]
            dims[lam] = hook_dimension(lam)
            rows.append((dims[lam], chi))
        table[m] = rows
    return table


def class_counts(passports, characters) -> dict[tuple[int, int, int, int], Fraction]:
    """(d, e0, e1, eInf) -> T_d / d!, the classes of transitive triples of
    S_d in the three single-cycle classes, each weighted by 1 / |Aut|.

    Each chi / chi(1) is brought to the lcm L of the degree's chi(1), so
    that N_m is one integer sum divided by L m! once.
    """
    scaled = {}
    for m, rows in characters.items():
        lcm = math.lcm(*(dim for dim, _ in rows))
        scaled[m] = (lcm, [(lcm // dim, chi) for dim, chi in rows])
    out = {}
    for d, *es in passports:
        e0, e1, e2 = es
        transitive: dict[int, Fraction] = {}
        for m in range(max(es), d + 1):
            lcm, rows = scaled[m]
            sizes = math.prod(math.factorial(m) // (e * math.factorial(m - e)) for e in es)
            total = sum(q * chi[e0] * chi[e1] * chi[e2] for q, chi in rows)
            n = Fraction(sizes * total, lcm * math.factorial(m))
            transitive[m] = n - sum(math.comb(m, k) * t for k, t in transitive.items())
        out[(d, *es)] = transitive[d] / math.factorial(d)
    return out
