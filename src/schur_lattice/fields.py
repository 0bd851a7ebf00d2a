"""Exact arithmetic in discretely valued fields.

Two backends are provided:

* :class:`RationalAtP` -- the rationals with the p-adic valuation; scalars
  are :class:`fractions.Fraction` and the valuation ring is Z localized
  at p, with uniformizer p and residue field F_p.
* :class:`RationalFunctionOverFq` -- rational functions over a finite
  field F_q with the order-of-vanishing-at-0 valuation; scalars are
  :class:`LaurentRational` and the valuation ring is F_q[t] localized at
  (t), with uniformizer t and residue field F_q.

All arithmetic is exact; ``val`` returns an integer or the ``INF``
sentinel for zero.  Residue-field elements are encoded as plain ints in
``[0, q)`` (for non-prime q the int's base-p digits are the coefficients
of the element written over F_p).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from .errors import CapExceeded, NegativeValuation, SchurLatticeError

INF = math.inf


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

# Largest number _prime_factors splits: at most 2^20 trial divisions.
MAX_FACTORED = 2 ** 40


def _prime_factors(m: int) -> list[int]:
    """The distinct prime factors of m, ascending, by trial division;
    m above MAX_FACTORED raises CapExceeded."""
    if m > MAX_FACTORED:
        raise CapExceeded(
            f"{m} exceeds the cap MAX_FACTORED = 2^40 on the numbers that "
            f"are factored by trial division (a prime p or a field size q)")
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


def _prime_power(q: int) -> tuple[int, int]:
    """Split q = p**e with p prime; raise on anything else."""
    if q < 2:
        raise SchurLatticeError(f"field size must be >= 2, got {q}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise SchurLatticeError(f"{q} is not a prime power")
    p = primes[0]
    return p, next(e for e in range(1, q) if p ** e == q)


def _fp_poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _fp_poly_mul(a, b, p):
    """Product over F_p of coefficient tuples.  The sums run in plain
    integers and are reduced once at the end: reduction mod p is a ring
    map Z -> F_p, so it commutes with every sum and product."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _fp_poly_trim([c % p for c in out])


def _fp_poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1]:
            c = (a[-1] * inv_lead) % p
            shift = len(a) - 1 - dm
            for i, y in enumerate(m):
                a[shift + i] = (a[shift + i] - c * y) % p
        a.pop()
    return _fp_poly_trim(a)


def _find_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e over F_p, by brute force:
    the first f, in the order of its low digits, with no monic divisor of
    degree 1 to e // 2."""
    def monic(k, deg):
        # the monic polynomial of degree deg whose low coefficients are
        # the base-p digits of k
        digits = []
        for _ in range(deg):
            digits.append(k % p)
            k //= p
        return tuple(digits) + (1,)

    for k in range(p ** e):
        f = monic(k, e)
        if all(_fp_poly_mod(f, monic(j, deg), p)
               for deg in range(1, e // 2 + 1) for j in range(p ** deg)):
            return f
    raise SchurLatticeError("no irreducible polynomial found")  # pragma: no cover


# Cap on the entries of each q x q table of GF.tables: 8 MiB of int64,
# so q <= 1024.
MAX_TABLE_ENTRIES = 2 ** 20


def require_tables(q: int) -> None:
    """Raise CapExceeded, before GF(q) is built, when q is not prime and
    its lookup tables would exceed MAX_TABLE_ENTRIES.  Every F_q kernel of
    a non-prime field uses them, so a caller that will run one refuses
    the field here instead of after the search for its modulus.  A prime
    field is built at once, and the order over it needs no tables."""
    if _prime_power(q)[1] > 1:
        _check_table_size(q)


def _check_table_size(q: int) -> None:
    if q * q > MAX_TABLE_ENTRIES:
        raise CapExceeded(
            f"GF({q}) lookup tables would hold q^2 = {q * q} entries each; "
            f"at most {MAX_TABLE_ENTRIES} are allowed")


# Largest non-prime field size: _find_irreducible grows like sqrt(q).  On a
# 2-vCPU x86 host (Python 3.11) GF(2^30) took 1.2 s, GF(3^20) 2.4 s and
# GF(2^32) 3.6 s; GF(2^36) took 17.7 s and GF(2^39) ran past 30 s.
MAX_NONPRIME_Q = 2 ** 32


class GF:
    """The finite field with q elements; elements are ints in [0, q).
    A non-prime q above MAX_NONPRIME_Q raises CapExceeded before the
    search for the modulus."""

    def __init__(self, q: int):
        self.q = q
        self.p, self.e = _prime_power(q)
        if self.e > 1 and q > MAX_NONPRIME_Q:
            raise CapExceeded(
                f"GF({q}) = GF({self.p}^{self.e}) exceeds the cap "
                f"MAX_NONPRIME_Q = 2^32 on non-prime field sizes (the search "
                f"for its modulus grows like sqrt(q))")
        if self.e > 1:
            self._modulus = _find_irreducible(self.p, self.e)
        else:
            self._modulus = None
        self._tables = None
        self._neg = None
        self._gen = None

    # -- encoding helpers (non-prime fields store base-p digit vectors) ----
    def _to_poly(self, a: int) -> tuple[int, ...]:
        digits = []
        while a:
            digits.append(a % self.p)
            a //= self.p
        return tuple(digits)

    def _from_poly(self, c) -> int:
        out = 0
        for d in reversed(c):
            out = out * self.p + d
        return out

    # -- field operations ---------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b  # base-2 digits added mod 2
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._from_poly(tuple((-d) % self.p for d in self._to_poly(a)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        prod = _fp_poly_mul(self._to_poly(a), self._to_poly(b), self.p)
        return self._from_poly(_fp_poly_mod(prod, self._modulus, self.p))

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        out, base = 1, a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF")
        if self.e == 1:
            return pow(a, -1, self.p)
        return self.pow(a, self.q - 2)

    def generator(self) -> int:
        """A generator of the multiplicative group (1 for q = 2)."""
        if self._gen is None:
            order = self.q - 1
            primes = _prime_factors(order)
            g = 1
            for cand in range(1, self.q):
                if all(self.pow(cand, order // f) != 1 for f in primes):
                    g = cand
                    break
            self._gen = g
        return self._gen

    def tables(self):
        """(add, mul, inv) lookup tables as int64 numpy arrays.

        Addition adds base-p digits mod p.  Multiplication and inversion
        go through discrete logarithms to the base generator() g: with
        g^log[a] = a, a*b = g^(log[a] + log[b]) and 1/a = g^(-log[a]),
        exponents mod q - 1.  Fields whose q x q tables would hold more
        than MAX_TABLE_ENTRIES entries raise CapExceeded.
        """
        if self._tables is None:
            import numpy as np

            q, p = self.q, self.p
            _check_table_size(q)
            add = np.zeros((q, q), dtype=np.int64)
            for i in range(self.e):
                digit = np.arange(q) // p ** i % p
                add += (digit[:, None] + digit[None, :]) % p * p ** i
            g, antilog = self.generator(), [1]
            for _ in range(q - 2):
                antilog.append(self.mul(antilog[-1], g))
            antilog = np.array(antilog, dtype=np.int64)
            log = np.zeros(q, dtype=np.int64)
            log[antilog] = np.arange(q - 1)
            mul = np.zeros((q, q), dtype=np.int64)
            mul[1:, 1:] = antilog[(log[1:, None] + log[None, 1:]) % (q - 1)]
            inv = np.zeros(q, dtype=np.int64)
            inv[1:] = antilog[-log[1:] % (q - 1)]
            self._tables = (add, mul, inv)
        return self._tables

    def neg_table(self):
        """-a for every a, as an int64 array: the b with a + b = 0 in the
        add table of tables()."""
        if self._neg is None:
            self._neg = (self.tables()[0] == 0).argmax(axis=1)
        return self._neg

    def __eq__(self, other):
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self):
        return hash(("GF", self.q))

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def _gf(q: int) -> GF:
    return GF(q)


# ---------------------------------------------------------------------------
# scalars for the equal-characteristic backend
# ---------------------------------------------------------------------------

# Coefficient tuples are trimmed (no trailing zeros), lowest degree first.
# Over a prime field (e = 1) the elements are the residues 0..p-1 and the
# helpers below use plain integer arithmetic mod p; over F_{p^e} they call
# the GF methods coefficient by coefficient.

def _gf_poly_add(fq, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    if fq.e == 1:
        p = fq.p
        for i, y in enumerate(b):
            out[i] = (out[i] + y) % p
    else:
        for i, y in enumerate(b):
            out[i] = fq.add(out[i], y)
    return _fp_poly_trim(out)


def _gf_poly_neg(fq, a):
    if fq.p == 2:
        return a  # characteristic 2: -x = x
    if fq.e == 1:
        p = fq.p
        return tuple(-x % p for x in a)
    return tuple(fq.neg(x) for x in a)


def _gf_poly_scale(fq, a, c):
    """c * a for a scalar c of F_q."""
    if fq.e == 1:
        p = fq.p
        return tuple(x * c % p for x in a)
    return tuple(fq.mul(x, c) for x in a)


def _gf_poly_mul(fq, a, b):
    """a * b.  A factor (1,) returns the other one as it is: 1 * b = b,
    and b is trimmed."""
    if not a or not b:
        return ()
    if a == (1,):
        return b
    if b == (1,):
        return a
    if fq.e == 1:
        return _fp_poly_mul(a, b, fq.p)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = fq.add(out[i + j], fq.mul(x, y))
    return _fp_poly_trim(out)


def _gf_poly_divmod(fq, a, b):
    """(quotient, remainder) of a by b.  Division by (1,) is the
    identity: a = a * 1 + 0."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if b == (1,):
        return a, ()
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = fq.inv(b[-1])
    if fq.e == 1:
        p = fq.p
        while len(r) >= len(b) and r:
            if r[-1]:
                c = r[-1] * inv_lead % p
                shift = len(r) - len(b)
                q[shift] = c
                for i, y in enumerate(b, shift):
                    r[i] = (r[i] - c * y) % p
            r.pop()
        return _fp_poly_trim(q), _fp_poly_trim(r)
    while len(r) >= len(b) and r:
        if r[-1]:
            c = fq.mul(r[-1], inv_lead)
            shift = len(r) - len(b)
            q[shift] = c
            for i, y in enumerate(b):
                r[shift + i] = fq.sub(r[shift + i], fq.mul(c, y))
        r.pop()
    return _fp_poly_trim(q), _fp_poly_trim(r)


def _gf_poly_gcd(fq, a, b):
    """The monic gcd of a and b (Euclid)."""
    while b:
        a, b = b, _gf_poly_divmod(fq, a, b)[1]
    if a:
        a = _gf_poly_scale(fq, a, fq.inv(a[-1]))
    return a


def _gf_series_inv(fq, b, k):
    """Inverse of b (with b(0) != 0) as a power series mod t^k."""
    out = [0] * k
    inv0 = fq.inv(b[0])
    out[0] = inv0
    for i in range(1, k):
        acc = 0
        for j in range(1, min(i, len(b) - 1) + 1):
            acc = fq.add(acc, fq.mul(b[j], out[i - j]))
        out[i] = fq.neg(fq.mul(acc, inv0))
    return _fp_poly_trim(out)


class LaurentRational:
    """Exact element of F_q(t), stored as t^v * num/den.

    ``num`` and ``den`` are coprime polynomials (tuples of GF-encoded
    coefficients, lowest degree first) with nonzero constant terms and a
    monic denominator; ``v`` is the valuation (INF for zero).
    """

    __slots__ = ("fq", "v", "num", "den")

    def __init__(self, fq: GF, v, num, den):
        self.fq = fq
        self.v = v
        self.num = num
        self.den = den

    @classmethod
    def make(cls, fq: GF, v, num, den, coprime=False) -> "LaurentRational":
        """Normalize an arbitrary (v, num, den) triple; `coprime` says
        that the caller knows gcd(num, den) to be a power of t.

        The gcd runs only when both polynomials have positive degree and
        are not known to be coprime.  A nonzero constant is a unit, so its
        gcd with anything is 1; and when den is (1,) after the t-shift,
        scaling by 1/lead = 1 is the identity too, so the triple is
        already normal."""
        num = _fp_poly_trim(list(num))
        den = _fp_poly_trim(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return cls(fq, INF, (), (1,))
        shift = 0
        while num[shift] == 0:
            shift += 1
        v += shift
        num = num[shift:]
        shift = 0
        while den[shift] == 0:
            shift += 1
        v -= shift
        den = den[shift:]
        if den == (1,):
            return cls(fq, v, num, den)
        if not coprime and len(num) > 1 and len(den) > 1:
            g = _gf_poly_gcd(fq, num, den)
            if len(g) > 1:
                num = _gf_poly_divmod(fq, num, g)[0]
                den = _gf_poly_divmod(fq, den, g)[0]
        if den[-1] != 1:
            inv_lead = fq.inv(den[-1])
            num = _gf_poly_scale(fq, num, inv_lead)
            den = _gf_poly_scale(fq, den, inv_lead)
        return cls(fq, v, num, den)

    @classmethod
    def zero(cls, fq: GF) -> "LaurentRational":
        return cls(fq, INF, (), (1,))

    @classmethod
    def const(cls, fq: GF, c: int) -> "LaurentRational":
        if c == 0:
            return cls.zero(fq)
        return cls(fq, 0, (c,), (1,))

    def is_zero(self) -> bool:
        return not self.num

    # -- ring operations ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, LaurentRational):
            return other
        if isinstance(other, int):
            return LaurentRational.const(self.fq, other % self.fq.p)
        return NotImplemented

    def _plus(self, w, num, den):
        """self + t^w * num/den, the right-hand side normal and nonzero.

        When either denominator is (1,), the sum t^v * (a*d + c*b)/(b*d)
        is already in lowest terms: an irreducible factor of d (say b = 1)
        that divides a*d + c divides c, and gcd(c, d) = 1.  Neither den
        has the factor t, so stripping t from the numerator keeps that."""
        if not self.num:
            return LaurentRational(self.fq, w, num, den)
        fq = self.fq
        v = min(self.v, w)
        a = (0,) * int(self.v - v) + _gf_poly_mul(fq, self.num, den)
        b = (0,) * int(w - v) + _gf_poly_mul(fq, num, self.den)
        return LaurentRational.make(
            fq, v, _gf_poly_add(fq, a, b), _gf_poly_mul(fq, self.den, den),
            coprime=self.den == (1,) or den == (1,))

    def __add__(self, other):
        if not isinstance(other, LaurentRational):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.num:
            return self
        return self._plus(other.v, other.num, other.den)

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return LaurentRational(self.fq, self.v,
                               _gf_poly_neg(self.fq, self.num), self.den)

    def __sub__(self, other):
        if not isinstance(other, LaurentRational):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.num:
            return self
        return self._plus(other.v, _gf_poly_neg(self.fq, other.num), other.den)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, LaurentRational):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num:
            return self
        if not other.num:
            return other
        fq = self.fq
        if self.den == (1,) and other.den == (1,):
            # F_q[t] is a domain: the product of two polynomials with
            # nonzero constant terms has a nonzero constant term and a
            # nonzero leading coefficient, so it is already normal
            return LaurentRational(fq, self.v + other.v,
                                   _gf_poly_mul(fq, self.num, other.num), (1,))
        return LaurentRational.make(fq, self.v + other.v,
                                    _gf_poly_mul(fq, self.num, other.num),
                                    _gf_poly_mul(fq, self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if self.is_zero():
            return self
        return LaurentRational.make(self.fq, self.v - other.v,
                                    _gf_poly_mul(self.fq, self.num, other.den),
                                    _gf_poly_mul(self.fq, self.den, other.num))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return LaurentRational.const(self.fq, 1) / self ** (-k)
        out = LaurentRational.const(self.fq, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, LaurentRational):
            return NotImplemented
        return (self.v == other.v and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.v, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"LaurentRational({laurent_to_str(self)!r})"


def _poly_to_str(coeffs, shift: int = 0) -> str:
    """The polynomial t^shift * sum(c_i t^i), lowest degree first."""
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs, shift):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
    return " + ".join(parts)


def laurent_to_str(x: LaurentRational) -> str:
    if x.is_zero():
        return "0"
    v = int(x.v)
    ns = _poly_to_str(x.num, max(v, 0))
    ds = _poly_to_str(x.den, max(-v, 0))
    return ns if ds == "1" else f"({ns})/({ds})"


_TERM_RE = re.compile(
    r"^\s*(?P<coef>\d+)?\s*\*?\s*(?P<t>t(\^(?P<exp>-?\d+))?)?\s*$")

# Largest hi - lo of the exponents of a parsed polynomial's nonzero terms:
# its coefficients are stored densely from t^lo to t^hi.
MAX_DEGREE_SPAN = 4096


def _parse_poly(fq: GF, text: str):
    """Parse a Laurent polynomial; returns (valuation shift, coefficients).

    Raises ValueError when the exponents of the nonzero terms span more
    than ``MAX_DEGREE_SPAN``.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    # a minus sign starts a negated term unless it is an exponent sign
    text = re.sub(r"(?<!\^)-", "+-", text)
    coeffs: dict[int, int] = {}
    for raw in text.split("+"):
        raw = raw.strip()
        if not raw:
            continue
        negate = raw.startswith("-")
        if negate:
            raw = raw[1:]
        m = _TERM_RE.match(raw)
        if not m or (m.group("coef") is None and m.group("t") is None):
            raise ValueError(f"cannot parse polynomial term {raw!r}")
        coef = int(m.group("coef")) if m.group("coef") else 1
        coef %= fq.q
        if negate:
            coef = fq.neg(coef)
        exp = 0
        if m.group("t"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        coeffs[exp] = fq.add(coeffs.get(exp, 0), coef)
    live = [e for e, c in coeffs.items() if c != 0]
    if not live:
        return 0, ()
    lo, hi = min(live), max(live)
    if hi - lo > MAX_DEGREE_SPAN:
        raise ValueError(
            f"polynomial term 't^{hi}' is {hi - lo} degrees above "
            f"'t^{lo}'; at most {MAX_DEGREE_SPAN} are allowed")
    return lo, _fp_poly_trim([coeffs.get(i, 0) for i in range(lo, hi + 1)])


def laurent_parse(fq: GF, text: str) -> LaurentRational:
    """Parse 'num/den' with polynomial parts like '1 + t + 2*t^2'."""
    text = text.strip()
    depth = 0
    split_at = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            split_at = i
            break
    if split_at is None:
        num_text, den_text = text, "1"
    else:
        num_text, den_text = text[:split_at], text[split_at + 1:]
    num_text = num_text.strip()
    den_text = den_text.strip()
    if num_text.startswith("(") and num_text.endswith(")"):
        num_text = num_text[1:-1]
    if den_text.startswith("(") and den_text.endswith(")"):
        den_text = den_text[1:-1]
    v_num, num = _parse_poly(fq, num_text)
    v_den, den = _parse_poly(fq, den_text)
    if not den:
        raise ZeroDivisionError("zero denominator")
    return LaurentRational.make(fq, v_num - v_den, num, den)


# ---------------------------------------------------------------------------
# field specifications
# ---------------------------------------------------------------------------

class FieldSpec:
    """Common interface of the two concrete discretely valued fields.

    Attributes: ``residue_char`` (p), ``field_char`` (0 or p),
    ``residue_size`` (size of the residue field), ``residue_field``
    (:class:`GF` instance).
    """

    residue_char: int
    field_char: int
    residue_size: int
    residue_field: GF

    # subclasses implement: zero, one, uniformizer, from_int, to_int, val,
    # reduce, lift, mod_uniformizer_power, to_str, parse, describe

    def is_zero(self, x) -> bool:
        return self.val(x) == INF


class RationalAtP(FieldSpec):
    """Q with the p-adic valuation; scalars are Fractions."""

    def __init__(self, p: int):
        if _prime_factors(p) != [p]:
            raise SchurLatticeError(f"p must be prime, got {p}")
        self.p = p
        self.residue_char = p
        self.field_char = 0
        self.residue_size = p
        self.residue_field = _gf(p)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def uniformizer(self):
        return Fraction(self.p)

    def from_int(self, k: int):
        return Fraction(k)

    def to_int(self, x):
        """The integer x, or None when x is not one."""
        return x.numerator if x.denominator == 1 else None

    def val(self, x):
        if x == 0:
            return INF
        num, den = x.numerator, x.denominator
        v = 0
        while num % self.p == 0:
            num //= self.p
            v += 1
        while den % self.p == 0:
            den //= self.p
            v -= 1
        return v

    def reduce(self, x) -> int:
        if x == 0:
            return 0
        if self.val(x) < 0:
            raise NegativeValuation(f"cannot reduce {x} mod {self.p}")
        return (x.numerator * pow(x.denominator, -1, self.p)) % self.p

    def lift(self, r: int):
        return Fraction(r % self.p)

    def mod_uniformizer_power(self, x, k: int):
        """Canonical representative of x modulo p^k R (an integer in [0, p^k))."""
        if x == 0:
            return Fraction(0)
        if self.val(x) >= k:
            return Fraction(0)
        if self.val(x) < 0:
            raise NegativeValuation(f"{x} is not integral")
        pk = self.p ** k
        return Fraction((x.numerator * pow(x.denominator, -1, pk)) % pk)

    def to_str(self, x) -> str:
        return str(x)

    def parse(self, text: str):
        return Fraction(text.strip())

    def describe(self) -> dict:
        return {"backend": "p-adic", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, RationalAtP) and other.p == self.p

    def __hash__(self):
        return hash(("RationalAtP", self.p))

    def __repr__(self):
        return f"RationalAtP({self.p})"


class RationalFunctionOverFq(FieldSpec):
    """F_q(t) with the order-of-vanishing valuation at t = 0."""

    def __init__(self, q: int):
        self.q = q
        self.residue_field = _gf(q)
        self.residue_char = self.residue_field.p
        self.field_char = self.residue_field.p
        self.residue_size = q

    def zero(self):
        return LaurentRational.zero(self.residue_field)

    def one(self):
        return LaurentRational.const(self.residue_field, 1)

    def uniformizer(self):
        return LaurentRational(self.residue_field, 1, (1,), (1,))

    def from_int(self, k: int):
        # integers embed through the prime subfield F_p
        return LaurentRational.const(self.residue_field, k % self.residue_char)

    def to_int(self, x: LaurentRational):
        """The k in [0, p) with from_int(k) == x, or None when x is not
        in the prime field."""
        if not x.num:
            return 0
        if (x.v == 0 and x.den == (1,) and len(x.num) == 1
                and x.num[0] < self.residue_char):
            return x.num[0]
        return None

    def val(self, x: LaurentRational):
        return x.v

    def is_zero(self, x: LaurentRational) -> bool:
        return not x.num

    def reduce(self, x: LaurentRational) -> int:
        if x.is_zero():
            return 0
        if x.v < 0:
            raise NegativeValuation(f"cannot reduce {laurent_to_str(x)}")
        if x.v > 0:
            return 0
        fq = self.residue_field
        return fq.mul(x.num[0], fq.inv(x.den[0]))

    def lift(self, r: int):
        return LaurentRational.const(self.residue_field, r % self.q)

    def mod_uniformizer_power(self, x: LaurentRational, k: int):
        """Canonical representative mod t^k R: the series truncation."""
        if x.is_zero() or x.v >= k:
            return LaurentRational.zero(self.residue_field)
        if x.v < 0:
            raise NegativeValuation(f"{laurent_to_str(x)} is not integral")
        fq = self.residue_field
        order = k - int(x.v)
        inv_den = _gf_series_inv(fq, self.__pad(x.den, order), order)
        series = _gf_poly_mul(fq, x.num, inv_den)[:order]
        return LaurentRational.make(fq, x.v, series, (1,))

    @staticmethod
    def __pad(poly, order):
        return poly if len(poly) >= order else poly + (0,) * (order - len(poly))

    def to_str(self, x) -> str:
        return laurent_to_str(x)

    def parse(self, text: str):
        return laurent_parse(self.residue_field, text)

    def describe(self) -> dict:
        return {"backend": "laurent", "q": self.q}

    def __eq__(self, other):
        return isinstance(other, RationalFunctionOverFq) and other.q == self.q

    def __hash__(self):
        return hash(("RationalFunctionOverFq", self.q))

    def __repr__(self):
        return f"RationalFunctionOverFq({self.q})"


# ---------------------------------------------------------------------------
# unit sample sets
# ---------------------------------------------------------------------------

def _primitive_root_mod_p2(p: int) -> int:
    """Smallest integer that generates the units of Z/p^2 (p odd)."""
    order = p * (p - 1)
    primes = _prime_factors(p - 1) + [p]
    for g in range(2, p * p):
        if g % p == 0:
            continue
        if all(pow(g, order // f, p * p) != 1 for f in primes):
            return g
    raise SchurLatticeError("no primitive root found")  # pragma: no cover


def unit_sample_set(spec: FieldSpec):
    """The units of the saturation alphabet's diagonals.

    For the p-adic backend with p odd this is {g, -1} with g the smallest
    primitive root mod p^2 (so <g> is dense in the units); for p = 2 it is
    {-1, 3}.  For the equal-characteristic backend it is {c, 1 + c*t}
    where c generates the multiplicative group of F_q (c = 1 when
    q = 2); the order adds the unit diagonals it needs beyond these
    (dvr._saturate_generic).
    """
    if isinstance(spec, RationalAtP):
        if spec.p == 2:
            return [Fraction(-1), Fraction(3)]
        return [Fraction(_primitive_root_mod_p2(spec.p)), Fraction(-1)]
    fq = spec.residue_field
    c = fq.generator()
    return [LaurentRational.const(fq, c),
            LaurentRational.make(fq, 0, (1, c), (1,))]
