"""Polynomial machinery with `Fraction` coefficients.

Sparse trivariate polynomials, dense univariate polynomials, Sturm-based
distinct-real-root counting, restriction of trivariate polynomials to lines,
exact divisibility by planes, Taylor-style directional systems around surface
points, and small-degree common factors of homogeneous polynomials.

The partition's hot paths decide signs on Python ints (see `partition`):
its line kernel restricts levels to lines and counts Sturm roots on integer
coefficients.  `restrict_to_line`, `count_real_roots` and `sign_gap_samples`
here are the `Fraction` references that kernel is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .geom import Rational3Point, RationalLine, RationalPlane, cleared
from .qformat import qparse, qstr

NEG_INF = float("-inf")  # degree marker of the zero polynomial


def _q(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class TriPoly:
    """Sparse polynomial in three variables with Fraction coefficients.

    Terms map exponent triples (i, j, k) to nonzero coefficients.  The zero
    polynomial has an empty term map and degree NEG_INF.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int, int], Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for expo, coeff in items:
                e = (int(expo[0]), int(expo[1]), int(expo[2]))
                if min(e) < 0:
                    raise ValueError("exponents must be nonnegative")
                c = clean.get(e, Fraction(0)) + _q(coeff)
                if c:
                    clean[e] = c
                elif e in clean:
                    del clean[e]
        self._terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "TriPoly":
        return cls()

    @classmethod
    def one(cls) -> "TriPoly":
        return cls({(0, 0, 0): 1})

    @classmethod
    def constant(cls, c) -> "TriPoly":
        return cls({(0, 0, 0): _q(c)})

    @classmethod
    def variable(cls, index: int) -> "TriPoly":
        e = [0, 0, 0]
        e[index] = 1
        return cls({tuple(e): 1})

    @classmethod
    def monomial(cls, expo, coeff=1) -> "TriPoly":
        return cls({tuple(expo): _q(coeff)})

    # -- basic queries ----------------------------------------------------

    def terms(self) -> dict[tuple[int, int, int], Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self._terms)

    @property
    def degree(self):
        if not self._terms:
            return NEG_INF
        return max(sum(e) for e in self._terms)

    def degree_wrt(self, var: int):
        if not self._terms:
            return NEG_INF
        return max(e[var] for e in self._terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self._terms}
        return len(degs) <= 1

    def coefficient(self, expo) -> Fraction:
        return self._terms.get(tuple(expo), Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return TriPoly(out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return TriPoly({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _q(other)
            if not c:
                return TriPoly.zero()
            return TriPoly({e: c * v for e, v in self._terms.items()})
        other = self._coerce(other)
        out: dict[tuple[int, int, int], Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return TriPoly(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = TriPoly.one()
        for _ in range(k):
            result = result * self
        return result

    @staticmethod
    def _coerce(other) -> "TriPoly":
        if isinstance(other, TriPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return TriPoly.constant(other)
        raise TypeError(f"cannot combine TriPoly with {type(other)!r}")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TriPoly.constant(other)
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    # -- evaluation and serialization ---------------------------------------

    def evaluate(self, x, y, z) -> Fraction:
        x, y, z = _q(x), _q(y), _q(z)
        total = Fraction(0)
        for (i, j, k), c in self._terms.items():
            total += c * x ** i * y ** j * z ** k
        return total

    def evaluate_point(self, p: Rational3Point) -> Fraction:
        return self.evaluate(p.x, p.y, p.z)

    def to_records(self) -> list[dict]:
        recs = []
        for e in sorted(self._terms):
            c = self._terms[e]
            recs.append({"e": list(e), "c": qstr(c)})
        return recs

    @classmethod
    def from_records(cls, records) -> "TriPoly":
        """The polynomial of `to_records`: each "e" a list of three ints,
        no exponent twice."""
        terms = {}
        for r in records:
            e = r["e"]
            if type(e) is not list or len(e) != 3 or any(type(v) is not int for v in e):
                raise ValueError(f"exponent must be a list of three ints, got {e!r}")
            if tuple(e) in terms:
                raise ValueError(f"exponent {e} repeats")
            terms[tuple(e)] = qparse(r["c"])
        return cls(terms)

    def __repr__(self):
        if not self._terms:
            return "TriPoly(0)"
        bits = []
        for e in sorted(self._terms, reverse=True):
            bits.append(f"{self._terms[e]}*x^{e[0]}y^{e[1]}z^{e[2]}")
        return "TriPoly(" + " + ".join(bits) + ")"


X = TriPoly.variable(0)
Y = TriPoly.variable(1)
Z = TriPoly.variable(2)


# ---------------------------------------------------------------------------
# Dense univariate polynomials
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial, coefficients low to high degree."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable = ()):  # trailing zeros trimmed
        cs = [_q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self):
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    @property
    def lead(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def evaluate(self, t) -> Fraction:
        t = _q(t)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self._coeffs)][1:])

    def __add__(self, other):
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other):
        return self + UniPoly([-c for c in other._coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([_q(other) * c for c in self._coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self._coeffs)
        dv = other._coeffs
        dd = len(dv) - 1
        lead = dv[-1]
        if len(rem) - 1 < dd:
            return UniPoly(), UniPoly(rem)
        quot = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                q = c / lead
                quot[i - dd] = q
                for j, b in enumerate(dv):
                    rem[i - dd + j] -= q * b
        return UniPoly(quot), UniPoly(rem)

    def rem(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def scale_primitive(self) -> "UniPoly":
        """Scale by a positive rational to coprime integer coefficients."""
        if not self._coeffs:
            return self
        _, ints = cleared(self._coeffs)
        g = math.gcd(*ints)
        return UniPoly([Fraction(c, g) for c in ints])

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"UniPoly({[str(c) for c in self._coeffs]})"


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic-free gcd: primitive integer coefficients, positive lead."""
    while not b.is_zero():
        a, b = b, a.rem(b).scale_primitive()
    if a.is_zero():
        return a
    a = a.scale_primitive()
    if a.lead < 0:
        a = a * Fraction(-1)
    return a


def squarefree_part(q: UniPoly) -> UniPoly:
    if q.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    if q.degree == 0:
        return UniPoly([1])
    g = uni_gcd(q, q.derivative())
    if g.degree == 0:
        return q
    quo, rem = q.divmod(g)
    assert rem.is_zero()
    return quo


def sturm_chain(q: UniPoly) -> list[UniPoly]:
    """Sturm chain of the squarefree part; positive rescaling only."""
    sf = squarefree_part(q)
    chain = [sf, sf.derivative()]
    while not chain[-1].is_zero():
        r = chain[-2].rem(chain[-1])
        if r.is_zero():
            break
        # Positive rescaling keeps every sign pattern in the chain intact.
        r = r.scale_primitive()
        chain.append(UniPoly([-c for c in r.coeffs]))
    return chain


def _sign_variations(values: Sequence[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain: Sequence[UniPoly], t: Fraction) -> int:
    return _sign_variations([p.evaluate(t) for p in chain if not p.is_zero()])


def _variations_at_inf(chain: Sequence[UniPoly], positive: bool) -> int:
    vals = []
    for p in chain:
        if p.is_zero():
            continue
        s = 1 if p.lead > 0 else -1
        if not positive and p.degree % 2 == 1:
            s = -s
        vals.append(Fraction(s))
    return _sign_variations(vals)


def count_real_roots(q: UniPoly) -> int:
    """Number of distinct real roots; errors on the zero polynomial."""
    if q.is_zero():
        raise ValueError("root counting is undefined for the zero polynomial")
    if q.degree == 0:
        return 0
    chain = sturm_chain(q)
    return _variations_at_inf(chain, positive=False) - _variations_at_inf(chain, positive=True)


def cauchy_root_bound(q: UniPoly) -> Fraction:
    if q.is_zero() or q.degree == 0:
        return Fraction(1)
    lead = abs(q.lead)
    return 1 + max(abs(c) for c in q.coeffs[:-1]) / lead


def sign_gap_samples(q: UniPoly) -> list[Fraction]:
    """One rational point inside each maximal open interval where q != 0.

    Returns k+1 samples for a polynomial with k distinct real roots, ordered
    left to right.  Sturm counts steer a plateau bisection, so every sample
    is certified to avoid the roots exactly.
    """
    if q.is_zero():
        raise ValueError("sign sampling is undefined for the zero polynomial")
    sf = squarefree_part(q)
    if sf.degree == 0:
        return [Fraction(0)]
    chain = sturm_chain(sf)
    bound = cauchy_root_bound(sf)
    lo = -bound - 1
    hi = bound + 1
    v_lo = _variations_at(chain, lo)
    k = v_lo - _variations_at(chain, hi)
    samples = [lo]
    for i in range(1, k):
        a, b = lo, hi
        while True:
            mid = (a + b) / 2
            c = v_lo - _variations_at(chain, mid)
            if c < i:
                a = mid
            elif c > i:
                b = mid
            elif sf.evaluate(mid) != 0:
                samples.append(mid)
                break
            else:
                a = mid  # mid is exactly the i-th root; plateau lies rightward
    return samples + [hi] if k else samples


# ---------------------------------------------------------------------------
# Restriction to lines, planes, directional systems
# ---------------------------------------------------------------------------


def restrict_to_line(f: TriPoly, line: RationalLine) -> UniPoly:
    """Univariate polynomial t -> f(base + t * dir)."""
    bx, by, bz = line.base.coords
    dx, dy, dz = (Fraction(c) for c in line.dir)
    max_e = [0, 0, 0]
    for e in f.terms():
        for i in range(3):
            max_e[i] = max(max_e[i], e[i])
    pows: list[list[list[Fraction]]] = []
    for (b, d), top in zip(((bx, dx), (by, dy), (bz, dz)), max_e):
        cur = [[Fraction(1)]]
        for _ in range(top):
            prev = cur[-1]
            nxt = [Fraction(0)] * (len(prev) + 1)
            for i, c in enumerate(prev):
                nxt[i] += c * b
                nxt[i + 1] += c * d
            cur.append(nxt)
        pows.append(cur)
    out = [Fraction(0)] * (int(f.degree) + 1 if not f.is_zero() else 1)
    for (i, j, k), coeff in f.terms().items():
        part = _conv(_conv(pows[0][i], pows[1][j]), pows[2][k])
        for idx, c in enumerate(part):
            if c:
                out[idx] += coeff * c
    return UniPoly(out)


def _conv(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def line_in_zero_set(f: TriPoly, line: RationalLine) -> bool:
    if f.is_zero():
        raise ValueError("containment in the zero set of 0 is vacuous")
    return restrict_to_line(f, line).is_zero()


def plane_poly(plane: RationalPlane) -> TriPoly:
    return TriPoly(
        {
            (1, 0, 0): plane.a,
            (0, 1, 0): plane.b,
            (0, 0, 1): plane.c,
            (0, 0, 0): plane.d,
        }
    )


def divide_by_plane(f: TriPoly, plane: RationalPlane) -> TriPoly | None:
    """Exact quotient f / (a x + b y + c z + d), or None if not divisible."""
    if f.is_zero():
        return TriPoly.zero()
    lin = plane_poly(plane)
    pivot = 0 if plane.a != 0 else (1 if plane.b != 0 else 2)
    lead = Fraction(plane.coeffs[pivot])
    quot = TriPoly.zero()
    rem = f
    while not rem.is_zero() and rem.degree_wrt(pivot) >= 1:
        e_top = int(rem.degree_wrt(pivot))
        top_terms = {}
        for e, c in rem.terms().items():
            if e[pivot] == e_top:
                e2 = list(e)
                e2[pivot] = e_top - 1
                top_terms[tuple(e2)] = c / lead
        t = TriPoly(top_terms)
        quot = quot + t
        rem = rem - t * lin
    return quot if rem.is_zero() else None


def divides_by_plane(f: TriPoly, plane: RationalPlane) -> bool:
    return divide_by_plane(f, plane) is not None


def shift_to_origin(f: TriPoly, p: Rational3Point) -> TriPoly:
    """Expand f(p + v) as a polynomial in the displacement v."""
    px, py, pz = p.coords
    out: dict[tuple[int, int, int], Fraction] = {}
    binom = math.comb
    for (i, j, k), c in f.terms().items():
        for a in range(i + 1):
            ca = c * binom(i, a) * px ** (i - a)
            if not ca:
                continue
            for b in range(j + 1):
                cb = ca * binom(j, b) * py ** (j - b)
                if not cb:
                    continue
                for d in range(k + 1):
                    cd = cb * binom(k, d) * pz ** (k - d)
                    if not cd:
                        continue
                    e = (a, b, d)
                    s = out.get(e, Fraction(0)) + cd
                    if s:
                        out[e] = s
                    elif e in out:
                        del out[e]
    return TriPoly(out)


def homogeneous_parts(f: TriPoly) -> dict[int, TriPoly]:
    parts: dict[int, dict] = {}
    for e, c in f.terms().items():
        parts.setdefault(sum(e), {})[e] = c
    return {d: TriPoly(t) for d, t in parts.items()}


@dataclass(frozen=True)
class DirectionalSystem:
    """Homogeneous expansion of f around a zero p.

    polys[i-1] is F_i, homogeneous of degree i in the direction variables,
    with f(p + t*v) = sum_i F_i(v) * t^i / i! for every direction v.
    """

    point: Rational3Point
    polys: tuple[TriPoly, ...]

    def F(self, i: int) -> TriPoly:
        return self.polys[i - 1]

    @property
    def order(self) -> int:
        return len(self.polys)


def directional_system(f: TriPoly, p: Rational3Point) -> DirectionalSystem:
    if f.is_zero():
        raise ValueError("directional system of the zero polynomial")
    if f.evaluate_point(p) != 0:
        raise ValueError("base point must lie in the zero set")
    shifted = shift_to_origin(f, p)
    parts = homogeneous_parts(shifted)
    top = int(f.degree)
    polys = tuple(
        parts.get(i, TriPoly.zero()) * Fraction(math.factorial(i)) for i in range(1, top + 1)
    )
    return DirectionalSystem(point=p, polys=polys)


def is_cone_with_apex(f: TriPoly, p: Rational3Point) -> bool:
    """True iff the zero set of f is invariant under scaling around p."""
    if f.is_zero():
        return False
    parts = homogeneous_parts(shift_to_origin(f, p))
    return set(parts.keys()) == {int(f.degree)}


# ---------------------------------------------------------------------------
# Multivariate gcd via primitive pseudo-remainder sequences
# ---------------------------------------------------------------------------


def _coeffs_wrt(f: TriPoly, var: int) -> dict[int, TriPoly]:
    out: dict[int, dict] = {}
    for e, c in f.terms().items():
        e2 = list(e)
        d = e2[var]
        e2[var] = 0
        out.setdefault(d, {})[tuple(e2)] = c
    return {d: TriPoly(t) for d, t in out.items()}


def _mul_var_power(f: TriPoly, var: int, k: int) -> TriPoly:
    out = {}
    for e, c in f.terms().items():
        e2 = list(e)
        e2[var] += k
        out[tuple(e2)] = c
    return TriPoly(out)


def primitive_normalize(f: TriPoly) -> TriPoly:
    """Scale to coprime integer coefficients; lex-leading coefficient > 0."""
    if f.is_zero():
        return f
    terms = f.terms()
    _, ints = cleared(list(terms.values()))
    g = math.gcd(*ints)
    if terms[max(terms)] < 0:
        g = -g
    return TriPoly({e: c // g for e, c in zip(terms, ints)})


def tp_divmod(f: TriPoly, g: TriPoly) -> tuple[TriPoly, TriPoly]:
    """Division with remainder by a single divisor under lex order."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    g_terms = g.terms()
    e_g = max(g_terms)
    c_g = g_terms[e_g]
    quot: dict[tuple[int, int, int], Fraction] = {}
    rem: dict[tuple[int, int, int], Fraction] = {}
    work = f
    while not work.is_zero():
        terms = work.terms()
        e_f = max(terms)
        c_f = terms[e_f]
        if all(a >= b for a, b in zip(e_f, e_g)):
            e_t = (e_f[0] - e_g[0], e_f[1] - e_g[1], e_f[2] - e_g[2])
            c_t = c_f / c_g
            quot[e_t] = quot.get(e_t, Fraction(0)) + c_t
            work = work - TriPoly.monomial(e_t, c_t) * g
        else:
            rem[e_f] = rem.get(e_f, Fraction(0)) + c_f
            work = work - TriPoly.monomial(e_f, c_f)
    return TriPoly(quot), TriPoly(rem)


def tp_divides(g: TriPoly, f: TriPoly) -> bool:
    """Whether g divides f exactly."""
    if g.is_zero():
        return f.is_zero()
    return tp_divmod(f, g)[1].is_zero()


def _prem(f: TriPoly, g: TriPoly, var: int) -> TriPoly:
    """Pseudo-remainder of f by g in the chosen variable."""
    dg = int(g.degree_wrt(var))
    lead_g = _coeffs_wrt(g, var)[dg]
    r = f
    while not r.is_zero() and int(r.degree_wrt(var)) >= dg:
        dr = int(r.degree_wrt(var))
        lead_r = _coeffs_wrt(r, var)[dr]
        r = lead_g * r - _mul_var_power(lead_r, var, dr - dg) * g
    return r


def _content_wrt(f: TriPoly, var: int) -> TriPoly:
    cont = TriPoly.zero()
    for part in _coeffs_wrt(f, var).values():
        cont = mv_gcd(cont, part)
        if cont.is_constant() and not cont.is_zero():
            break
    return cont


def _cont_pp(f: TriPoly, var: int) -> tuple[TriPoly, TriPoly]:
    cont = _content_wrt(f, var)
    if cont.is_constant():
        return TriPoly.one(), primitive_normalize(f)
    quo, rem = tp_divmod(f, cont)
    assert rem.is_zero()
    return cont, primitive_normalize(quo)


def mv_gcd(f: TriPoly, g: TriPoly) -> TriPoly:
    """Gcd in Q[x,y,z], primitive-normalized; gcd(0, g) = primitive(g)."""
    if f.is_zero():
        return primitive_normalize(g)
    if g.is_zero():
        return primitive_normalize(f)
    if f.is_constant() or g.is_constant():
        return TriPoly.one()
    var = next(
        v for v in range(3) if f.degree_wrt(v) > 0 or g.degree_wrt(v) > 0
    )
    fc, fp = _cont_pp(f, var)
    gc, gp = _cont_pp(g, var)
    c = mv_gcd(fc, gc)
    a, b = fp, gp
    if a.degree_wrt(var) < b.degree_wrt(var):
        a, b = b, a
    while not b.is_zero() and int(b.degree_wrt(var)) > 0:
        r = _prem(a, b, var)
        a, b = b, (r if r.is_zero() else _cont_pp(r, var)[1])
    part = a if b.is_zero() else TriPoly.one()
    if int(part.degree_wrt(var)) == 0:
        part = TriPoly.one()
    return primitive_normalize(c * part)


def common_factor(polys: Sequence[TriPoly], degree_cap: int = 8) -> TriPoly | None:
    """Common divisor of homogeneous inputs, or None when they are coprime.

    Inputs must be nonzero, homogeneous, and of degree at most degree_cap;
    the cap keeps the pseudo-remainder growth at desk scale.  The returned
    factor is primitive-normalized.  All arithmetic is over the rationals,
    so a None verdict certifies coprimality over Q only.
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    for p in polys:
        if p.is_zero():
            raise ValueError("inputs must be nonzero")
        if not p.is_homogeneous():
            raise ValueError("inputs must be homogeneous")
        if p.degree > degree_cap:
            raise ValueError(f"degree {p.degree} exceeds cap {degree_cap}")
    g = primitive_normalize(polys[0])
    for p in polys[1:]:
        g = mv_gcd(g, p)
        if g.is_constant():
            return None
    return None if g.is_constant() else g


def coprimality_certificate(f: TriPoly, g: TriPoly, var: int) -> TriPoly:
    """Last pseudo-remainder free of `var`; nonzero iff the resultant is.

    Runs the primitive pseudo-remainder sequence in the chosen variable and
    returns its terminal element of degree zero in `var`.  It vanishes
    exactly when f and g share a factor of positive degree in `var`.
    """
    if f.is_zero() or g.is_zero():
        return TriPoly.zero()
    a, b = f, g
    if a.degree_wrt(var) < b.degree_wrt(var):
        a, b = b, a
    if int(b.degree_wrt(var)) == 0:
        return primitive_normalize(b)
    while True:
        r = _prem(a, b, var)
        if r.is_zero():
            return TriPoly.zero()
        r = _cont_pp(r, var)[1] if r.degree_wrt(var) > 0 else primitive_normalize(r)
        if int(r.degree_wrt(var)) == 0:
            return r
        a, b = b, r
