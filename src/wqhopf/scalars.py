"""Exact arithmetic in cyclotomic fields, plus a tolerance-based complex backend.

An exact scalar is an element of Q(zeta_n) written over the power basis
1, zeta, ..., zeta^(phi(n)-1) as integer numerators over one positive integer
denominator.  Phi_n is monic with integer coefficients, so the coordinates of
every power zeta^k are integers, and a product reduces through a precomputed
integer table without leaving the integers.  No floating point enters any
exact code path; irrational constants (sqrt 2, the golden ratio, ...) are
written as cyclotomic expressions, e.g. sqrt(5) = z5 + z5^4 - z5^2 - z5^3.

Two backends:

* ``Cyc``    -- exact; equality is exact, tolerance arguments are ignored.
* ``Approx`` -- a complex double; equality means |difference| <= tol.

Mixing backends in one operation raises ``MixedBackendError``.  Canonical
form (used for hashing and serialization) rewrites a value over the smallest
cyclotomic field that contains it.  ``Fraction`` appears only at the edges:
the constructor, the rational coordinates ``Cyc.c``, canonicalization,
``sqrt_in_field`` and JSON.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class ScalarError(ValueError):
    """Invalid scalar construction or operation."""


class MixedBackendError(ScalarError):
    """Exact and approximate scalars were combined in one operation."""


# ---------------------------------------------------------------------------
# dense polynomial helpers over Fraction, coefficients in ascending degree
# ---------------------------------------------------------------------------

def _ptrim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return _ptrim(out)


def _pdivmod(a, b):
    # b must be nonzero; exact division over Q
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = Fraction(1) / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coef = a[k + len(b) - 1] * inv_lead
        if coef != 0:
            q[k] = coef
            for j, y in enumerate(b):
                a[k + j] -= coef * y
    return _ptrim(q), _ptrim(a)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n <= 0:
        raise ScalarError(f"conductor must be positive, got {n}")
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficients of Phi_n, ascending, as Fractions."""
    if n == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]   # x^n - 1
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = _pmul(den, list(cyclotomic_polynomial(d)))
    q, r = _pdivmod(num, den)
    assert not r, "cyclotomic division must be exact"
    return tuple(q)


@lru_cache(maxsize=None)
def _zeta_power(n: int, k: int):
    """Coordinates of zeta_n^k by polynomial division over Q, as Fractions.

    The reference route: tests compare ``_zeta_table`` against it.
    """
    k %= n
    phi = euler_phi(n)
    if k < phi:
        v = [Fraction(0)] * phi
        v[k] = Fraction(1)
        return tuple(v)
    poly = [Fraction(0)] * k + [Fraction(1)]
    _, r = _pdivmod(poly, list(cyclotomic_polynomial(n)))
    r = list(r) + [Fraction(0)] * (phi - len(r))
    return tuple(r)


def _reduce(n, coeffs):
    """Reduce arbitrary-length Fraction coordinates mod Phi_n to length phi(n).

    The reference route for ``Cyc`` arithmetic: tests compare products and
    sums against ``_reduce(n, _pmul(a, b))``.
    """
    phi = euler_phi(n)
    out = [Fraction(0)] * phi
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        zk = _zeta_power(n, k)
        for j in range(phi):
            out[j] += c * zk[j]
    return tuple(out)


@lru_cache(maxsize=None)
def _zeta_table(n: int):
    """Integer coordinates of zeta_n^k for k = 0, ..., n-1.

    Row k is row k-1 times x, reduced once by the monic integer Phi_n:
    x^phi = -(Phi_0 + Phi_1 x + ... + Phi_(phi-1) x^(phi-1)).
    """
    phi = euler_phi(n)
    poly = [int(c) for c in cyclotomic_polynomial(n)[:phi]]
    rows = [tuple(int(j == k) for j in range(phi)) for k in range(phi)]
    while len(rows) < n:
        prev = rows[-1]
        top = prev[-1]
        rows.append(tuple((prev[j - 1] if j else 0) - top * poly[j]
                          for j in range(phi)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _fold_rows(n: int):
    """Nonzero (j, coefficient) pairs of zeta_n^k for phi <= k <= 2 phi - 2:
    the powers a product of two reduced vectors reaches."""
    phi, table = euler_phi(n), _zeta_table(n)
    return tuple(tuple((j, c) for j, c in enumerate(table[k % n]) if c)
                 for k in range(phi, 2 * phi - 1))


@lru_cache(maxsize=None)
def _divisors(n: int):
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def _subfield_matrix(n: int, d: int):
    """Columns are the Q(zeta_n)-coordinates of zeta_d^j, j < phi(d)."""
    step = n // d
    table = _zeta_table(n)
    cols = [table[step * j % n] for j in range(euler_phi(d))]
    # row-major phi(n) x phi(d)
    return tuple(tuple(col[i] for col in cols) for i in range(euler_phi(n)))


def _solve_exact(A, b):
    """Solve A x = b over Q (A row-major, possibly rectangular).

    Returns the coordinate list or None when inconsistent.
    """
    rows = [list(r) + [v] for r, v in zip(A, b)]
    nr, nc = len(rows), len(A[0]) if A else 0
    piv_cols = []
    r = 0
    for c in range(nc):
        p = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if rows[i][-1] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(piv_cols):
        x[c] = rows[i][-1]
    return x


def _convolve(n, a, b):
    """Integer coordinates of the product of two integer vectors of Q(zeta_n)."""
    phi = len(a)
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                if y:
                    conv[k] += x * y
    for k, row in enumerate(_fold_rows(n), phi):
        t = conv[k]
        if t:
            for j, z in row:
                conv[j] += t * z
    return tuple(conv[:phi])


def _cyc(n, num, den):
    """The Cyc with integer numerators `num` over `den` > 0, put in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
    out = object.__new__(Cyc)
    out.n, out.num, out.den = n, num, den
    return out


class Cyc:
    """An exact cyclotomic number: ``sum_j num[j] zeta_n^j / den``.

    ``num`` is a tuple of ``phi(n)`` ints and ``den`` a positive int, always
    in lowest terms: ``gcd(*num, den) == 1``, so zero is ``(0, ..., 0) / 1``.
    Two values of one conductor are therefore equal exactly when their
    ``num`` and ``den`` are, and ``c`` gives the rational coordinates.

    Arithmetic stays in the ambient conductor (conductors only grow, by lcm);
    ``canonical()`` rewrites over the smallest containing field.  Equality
    compares after lifting both sides to the least common conductor.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n, coeffs):
        """Reduce rational coefficients of any length modulo Phi_n."""
        if n <= 0:
            raise ScalarError(f"conductor must be positive, got {n}")
        qs = [Fraction(x) for x in coeffs]
        den = lcm(*(q.denominator for q in qs))
        table = _zeta_table(n)
        num = [0] * euler_phi(n)
        for k, q in enumerate(qs):
            if q:
                a = q.numerator * (den // q.denominator)
                for j, z in enumerate(table[k % n]):
                    if z:
                        num[j] += a * z
        x = _cyc(n, tuple(num), den)
        self.n, self.num, self.den = n, x.num, x.den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyc":
        if type(q) is not int:
            q = Fraction(q)
            return _cyc(1, (q.numerator,), q.denominator)
        return _cyc(1, (q,), 1)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyc":
        return _cyc(n, _zeta_table(n)[k % n], 1)

    # -- structure ---------------------------------------------------------

    @property
    def c(self):
        """The rational coordinates over the power basis, as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    def lift(self, m: int) -> "Cyc":
        """Rewrite over Q(zeta_m); m must be a multiple of the conductor."""
        if m == self.n:
            return self
        if m % self.n:
            raise ScalarError(f"cannot lift conductor {self.n} into {m}")
        phi = euler_phi(m)
        if self.n == 1:
            return _cyc(m, self.num + (0,) * (phi - 1), self.den)
        return _cyc(m, self._mapped(m, m // self.n), self.den)

    def _mapped(self, m, k):
        """Integer coordinates in Q(zeta_m) of num under zeta_n -> zeta_m^k."""
        table = _zeta_table(m)
        out = [0] * euler_phi(m)
        for j, cj in enumerate(self.num):
            if cj:
                for i, z in enumerate(table[k * j % m]):
                    if z:
                        out[i] += cj * z
        return tuple(out)

    def canonical(self) -> "Cyc":
        """The same value over the smallest cyclotomic field containing it."""
        if self.n == 1:
            return self
        if self.is_rational:
            return _cyc(1, self.num[:1], self.den)
        for d in _divisors(self.n)[:-1]:
            if d == 1:
                continue
            sol = _solve_exact(_subfield_matrix(self.n, d), self.num)
            if sol is not None:
                return Cyc(d, [x / self.den for x in sol])
        return self

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ScalarError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def is_zero(self, tol: float = 0.0) -> bool:
        return not any(self.num)

    def galois(self, k: int) -> "Cyc":
        """Apply zeta -> zeta^k; requires gcd(k, n) = 1."""
        if gcd(k, self.n) != 1:
            raise ScalarError(f"galois exponent {k} not coprime to {self.n}")
        return _cyc(self.n, self._mapped(self.n, k), self.den)

    def conjugate(self) -> "Cyc":
        return self.galois(self.n - 1) if self.n > 1 else self

    def embed(self) -> complex:
        """Image under zeta_n -> exp(2 pi i / n)."""
        return sum(
            cj / self.den * cmath.exp(2j * cmath.pi * j / self.n)
            for j, cj in enumerate(self.num) if cj
        ) or 0j

    def sort_key(self):
        s = self.canonical()
        return (s.n, s.c)

    # -- arithmetic --------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, Cyc):
            pass
        elif isinstance(other, (int, Fraction)):
            other = Cyc.rational(other)
        elif isinstance(other, Approx):
            raise MixedBackendError("cannot mix exact and approximate scalars")
        else:
            return None, None
        if self.n == other.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.lift(m), other.lift(m)

    def _scaled(self, p: int, q: int) -> "Cyc":
        """self * p / q for integers p and q > 0."""
        if not p:
            return _cyc(self.n, (0,) * len(self.num), 1)
        if p == q == 1:
            return self
        return _cyc(self.n, tuple(x * p for x in self.num), self.den * q)

    def _sum(self, other, sign):
        """self + sign * other, with sign 1 or -1."""
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if not any(b.num):
            return a
        if not any(a.num):
            return b if sign == 1 else -b
        if a.den == b.den:
            num = tuple(x + sign * y for x, y in zip(a.num, b.num))
            return _cyc(a.n, num, a.den)
        fa, fb = b.den, sign * a.den
        num = tuple(x * fa + y * fb for x, y in zip(a.num, b.num))
        return _cyc(a.n, num, a.den * b.den)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.n, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Cyc):
            if isinstance(other, int):
                return self._scaled(other, 1)
            if isinstance(other, Fraction):
                return self._scaled(other.numerator, other.denominator)
            if isinstance(other, Approx):
                raise MixedBackendError("cannot mix exact and approximate scalars")
            return NotImplemented
        a, b = self._pair(other)
        if b.is_rational:
            return a._scaled(b.num[0], b.den)
        if a.is_rational:
            return b._scaled(a.num[0], a.den)
        return _cyc(a.n, _convolve(a.n, a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.is_rational:
            return Cyc.rational(Fraction(self.den, self.num[0]))
        # y = num is nonzero and the norm N(y), the product of its Galois
        # conjugates, is a nonzero integer; P = N(y) / y is the product of
        # the conjugates other than y itself, so 1/self = den P / N(y).
        n = self.n
        p = None
        for k in range(2, n):
            if gcd(k, n) == 1:
                g = self._mapped(n, k)
                p = g if p is None else _convolve(n, p, g)
        norm = _convolve(n, self.num, p)[0]
        f = self.den if norm > 0 else -self.den
        return _cyc(n, tuple(x * f for x in p), abs(norm))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            if q < 0:
                return self._scaled(-q.denominator, -q.numerator)
            return self._scaled(q.denominator, q.numerator)
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Cyc.rational(other) / self if isinstance(other, (int, Fraction)) else NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Cyc):
            if isinstance(other, Approx):
                raise MixedBackendError("cannot compare exact and approximate scalars")
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
        a, b = self._pair(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        s = self.canonical()
        return hash((s.n, s.c))

    def __repr__(self):
        s = self.canonical()
        if s.is_rational:
            return f"Cyc({s.c[0]})"
        terms = ", ".join(str(x) for x in s.c)
        return f"Cyc(n={s.n}, [{terms}])"


class Approx:
    """A complex double standing in for a scalar; compared with a tolerance."""

    __slots__ = ("z",)

    def __init__(self, z):
        self.z = complex(z)

    def is_zero(self, tol: float = 0.0) -> bool:
        return abs(self.z) <= tol

    @staticmethod
    def rational(q) -> "Approx":
        return Approx(float(Fraction(q)))

    def embed(self) -> complex:
        return self.z

    @property
    def is_rational(self) -> bool:
        return abs(self.z.imag) < 1e-12

    def canonical(self) -> "Approx":
        return self

    def _lift(self, other):
        if isinstance(other, Approx):
            return other
        if isinstance(other, (int, float, Fraction, complex)):
            return Approx(complex(other))
        if isinstance(other, Cyc):
            raise MixedBackendError("cannot mix exact and approximate scalars")
        return None

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Approx(self.z + o.z)

    __radd__ = __add__

    def __neg__(self):
        return Approx(-self.z)

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Approx(self.z - o.z)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Approx(self.z * o.z)

    __rmul__ = __mul__

    def inverse(self) -> "Approx":
        if self.z == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return Approx(1 / self.z)

    def __truediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Approx(self.z / o.z)

    def __rtruediv__(self, other):
        return Approx(other) / self

    def __pow__(self, k: int):
        return Approx(self.z ** k)

    def __eq__(self, other):
        if isinstance(other, Cyc):
            raise MixedBackendError("cannot compare exact and approximate scalars")
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.z == o.z

    def __hash__(self):
        return hash(self.z)

    def __repr__(self):
        return f"Approx({self.z!r})"


# ---------------------------------------------------------------------------
# public helpers
# ---------------------------------------------------------------------------

def make_scalar(conductor: int, coeffs) -> Cyc:
    """Build an exact scalar from rational coordinates; result is canonical."""
    if not isinstance(conductor, int) or conductor <= 0:
        raise ScalarError(f"conductor must be a positive integer, got {conductor!r}")
    try:
        cs = [Fraction(x) for x in coeffs]
    except (ValueError, TypeError) as exc:
        raise ScalarError(f"non-rational coefficient in {coeffs!r}") from exc
    return Cyc(conductor, cs).canonical()


def scalars_equal(a, b, tol: float = 0.0) -> bool:
    ea, eb = isinstance(a, Cyc), isinstance(b, Cyc)
    if ea and eb:
        return a == b
    if not ea and not eb:
        return abs(a.embed() - b.embed()) <= tol
    raise MixedBackendError("cannot compare exact and approximate scalars")


_CYC_ZERO, _CYC_ONE = Cyc.rational(0), Cyc.rational(1)


def zero_like(x):
    return _CYC_ZERO if isinstance(x, Cyc) else Approx(0)


def one_like(x):
    return _CYC_ONE if isinstance(x, Cyc) else Approx(1)


def from_int_like(x, k):
    return Cyc.rational(k) if isinstance(x, Cyc) else Approx(k)


def scalar_to_json(x):
    if isinstance(x, Cyc):
        s = x.canonical()
        return {"conductor": s.n, "coeffs": [str(c) for c in s.c]}
    return {"re": x.z.real, "im": x.z.imag}


def _json_is(x, kinds) -> bool:
    """x is one of `kinds`; JSON true and false are not numbers here."""
    return isinstance(x, kinds) and not isinstance(x, bool)


def scalar_from_json(obj):
    """Read a scalar written by `scalar_to_json`.

    Every scalar read from a file passes through here, so any other shape
    raises ScalarError: the object must be a dict, ``conductor`` an int,
    ``coeffs`` a list of ints or strings, ``re`` and ``im`` numbers.
    """
    if not isinstance(obj, dict):
        raise ScalarError(f"a scalar must be a JSON object, got {obj!r}")
    if "conductor" in obj:
        n, coeffs = obj["conductor"], obj.get("coeffs")
        if not _json_is(n, int):
            raise ScalarError(f"conductor must be an integer, got {n!r}")
        if not (isinstance(coeffs, list)
                and all(_json_is(c, (int, str)) for c in coeffs)):
            raise ScalarError(
                f"coeffs must be a list of integers or strings, got {coeffs!r}")
        return make_scalar(n, coeffs)
    if "re" in obj:
        re, im = obj["re"], obj.get("im", 0.0)
        if not (_json_is(re, (int, float)) and _json_is(im, (int, float))):
            raise ScalarError(f"re and im must be numbers, got {obj!r}")
        return Approx(complex(float(re), float(im)))
    raise ScalarError(f"unrecognized scalar object {obj!r}")


def to_approx(x) -> Approx:
    return Approx(x.embed()) if isinstance(x, Cyc) else x


@lru_cache(maxsize=None)
def roots_of_unity(n: int):
    """All roots of unity inside Q(zeta_n): the group generated by -1 and zeta_n."""
    out = {}
    for j in range(n):
        for s in (1, -1):
            z = Cyc.zeta(n, j) * s
            out[(z.n, z.c)] = z
    return tuple(out.values())


@lru_cache(maxsize=None)
def _embedding_inverse(n: int):
    """Inverse of the complex matrix V[k][j] = zeta_n^(k j), k coprime to n."""
    units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
    phi = len(units)
    V = [[cmath.exp(2j * cmath.pi * k * j / n) for j in range(phi)] for k in units]
    # Gauss-Jordan with partial pivoting
    aug = [row[:] + [1.0 + 0j if i == r else 0j for i in range(phi)]
           for r, row in enumerate(V)]
    for c in range(phi):
        p = max(range(c, phi), key=lambda i: abs(aug[i][c]))
        aug[c], aug[p] = aug[p], aug[c]
        f = aug[c][c]
        aug[c] = [x / f for x in aug[c]]
        for i in range(phi):
            if i != c:
                g = aug[i][c]
                if g != 0:
                    aug[i] = [x - g * y for x, y in zip(aug[i], aug[c])]
    inv = [row[phi:] for row in aug]
    return units, inv


def sqrt_in_field(x: Cyc, n: int):
    """A square root of x inside Q(zeta_n), or None when none exists there.

    Candidate coordinates are recognized from the Galois conjugates of x
    (each conjugate of the root is one of the two complex square roots);
    every candidate is verified exactly before being returned.
    """
    x = x.lift(n) if n % x.n == 0 else x.lift(n * x.n // gcd(n, x.n))
    n = x.n
    if x.is_zero():
        return Cyc.rational(0)
    units, inv = _embedding_inverse(n)
    phi = len(units)
    roots = []
    for k in units:
        w = x.galois(k).embed()
        roots.append(cmath.sqrt(w))
    for mask in range(1 << (phi - 1)):
        b = [roots[0]]
        for i in range(1, phi):
            b.append(roots[i] if not (mask >> (i - 1)) & 1 else -roots[i])
        coeffs = []
        ok = True
        for row in inv:
            v = sum(r * bi for r, bi in zip(row, b))
            if abs(v.imag) > 1e-7:
                ok = False
                break
            coeffs.append(Fraction(v.real).limit_denominator(4096))
        if not ok:
            continue
        cand = Cyc(n, coeffs)
        if cand * cand == x:
            return cand
    return None
