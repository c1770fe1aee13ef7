"""Exact scalar arithmetic over Q.

Multivariate polynomials, localizations at declared denominator generators,
ring maps, and exact linear systems over Q.  All values are immutable after
construction and all comparisons are exact.  A ``RingMap`` is a coordinate
inclusion, which only re-indexes denominators, a monomial map, which moves
terms by exponents, or a substitution.

A scalar is an ``int`` or a ``Fraction``; anything else (a float, a string)
raises TypeError.  A polynomial stores each coefficient as a plain ``int``
when it is integral and as a ``Fraction`` only when it is not, so products
and sums of integral coefficients never build a ``Fraction``; every true
division goes through ``Fraction`` and never yields a float.

Every linear system over Q, sparse or dense, is reduced by one eliminator,
``echelon_reduce``, and solved by one back-substitution; ``QLinearSystem``,
``solve_affine_q`` (fixed loci) and the Hochschild zero test all go through
it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

__all__ = [
    "Fraction",
    "ScalarPoly",
    "Ring",
    "LocalFrac",
    "RingMap",
    "QLinearSystem",
    "echelon_reduce",
    "solve_affine_q",
    "monomials_up_to",
    "parse_scalar",
]


def _exact(c):
    """c as an int when it is integral and as a Fraction when it is not;
    anything but an int or a Fraction raises TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact scalar: {c!r}")


def _nonzero_terms(sums):
    """sums without its zero coefficients, each integral Fraction as an int."""
    return {
        e: c.numerator if type(c) is not int and c.denominator == 1 else c
        for e, c in sums.items()
        if c
    }


def _power(base, n):
    """base ** n for n >= 1 by repeated squaring, starting from the first
    factor instead of multiplying it into the constant 1."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


def _grlex_key(exps):
    return (sum(exps), exps)


def monomials_up_to(nvars, bound):
    """All exponent tuples of length nvars with total degree <= bound, grlex order."""
    out = []
    for total in range(bound + 1):
        out.extend(_compositions(total, nvars))
    return out


def _compositions(total, nparts):
    if nparts == 0:
        return [()] if total == 0 else []
    out = []
    for head in range(total + 1):
        for tail in _compositions(total - head, nparts - 1):
            out.append((head,) + tail)
    return out


def _subsets(n):
    """All subsets of range(n) as increasing tuples, by size and then lexically."""
    out = [()]
    for j in range(n):
        out = out + [s + (j,) for s in out]
    return sorted(out, key=lambda s: (len(s), s))


class ScalarPoly:
    """Polynomial over Q in an ordered variable list, stored sparsely.

    terms maps exponent tuples to nonzero coefficients, each an ``int`` when
    it is integral and a ``Fraction`` (with denominator > 1) otherwise; the
    zero polynomial has an empty term dict.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        clean = {}
        for exps, c in terms.items():
            c = _exact(c)
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != len(self.vars):
                raise ValueError(f"exponent tuple {exps} does not fit variables {self.vars}")
            clean[exps] = clean.get(exps, 0) + c
        self.terms = _nonzero_terms(clean)

    @classmethod
    def _of(cls, variables, terms):
        """The polynomial with terms, a dict the arithmetic here built
        already stored as the constructor stores it: nonzero coefficients,
        integral ones as ints, keyed by exponent tuples of the right length.
        Nothing is checked or copied."""
        out = cls.__new__(cls)
        out.vars = variables
        out.terms = terms
        return out

    @classmethod
    def _of_sums(cls, variables, sums):
        """The polynomial with coefficients sums, a dict the arithmetic below
        built: exact scalars keyed by exponent tuples of the right length.
        Skips the constructor's checks; zero sums are dropped and integral
        Fractions stored as ints."""
        out = cls.__new__(cls)
        out.vars = variables
        out.terms = _nonzero_terms(sums)
        return out

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c):
        c = _exact(c)
        if c == 0:
            return cls.zero(variables)
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exps: 1})

    def is_zero(self):
        return not self.terms

    def as_constant(self):
        """The constant value if this polynomial is constant, else None; an
        int when it is integral and a Fraction otherwise."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            (exps, c), = self.terms.items()
            if all(e == 0 for e in exps):
                return c
        return None

    def _check_operand(self, other):
        if not isinstance(other, ScalarPoly):
            raise TypeError(f"not a ScalarPoly: {other!r}")
        if other.vars != self.vars:
            raise ValueError(f"operand variables {other.vars} differ from {self.vars}")

    def __add__(self, other):
        self._check_operand(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return ScalarPoly._of_sums(self.vars, terms)

    def __neg__(self):
        return ScalarPoly._of(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ScalarPoly):
            c = _exact(other)
            return ScalarPoly._of_sums(self.vars, {e: c * v for e, v in self.terms.items()})
        self._check_operand(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return ScalarPoly._of_sums(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError(f"exponent {n!r} is not an int")
        if n < 0:
            raise ValueError(f"negative exponent {n} of a polynomial")
        if n == 0:
            return ScalarPoly.const(self.vars, 1)
        return _power(self, n)

    def __eq__(self, other):
        return (
            isinstance(other, ScalarPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def leading(self):
        """(exponent tuple, coefficient) of the grlex-leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def divide_exact(self, divisor):
        """Exact quotient self / divisor, or None when division is not exact.

        A one-term divisor c*x^e divides exactly when every exponent of self
        is at least e componentwise; the quotient shifts the exponents and
        divides the coefficients by c.  Any other divisor goes through grlex
        long division.
        """
        if not isinstance(divisor, ScalarPoly):
            raise TypeError(f"cannot divide by a {type(divisor).__name__}")
        if divisor.vars != self.vars:
            raise ValueError(f"divisor variables {divisor.vars} differ from {self.vars}")
        if divisor.is_zero():
            raise ValueError("division by zero polynomial")
        if self.is_zero():
            return ScalarPoly.zero(self.vars)
        if len(divisor.terms) == 1:
            (de, dc), = divisor.terms.items()
            qterms = {}
            for e, c in self.terms.items():
                qe = tuple(a - b for a, b in zip(e, de))
                if any(x < 0 for x in qe):
                    return None
                qterms[qe] = c if dc == 1 else Fraction(c, dc)
            return ScalarPoly._of_sums(self.vars, qterms)
        lead_e, lead_c = divisor.leading()
        remainder = self
        qterms = {}
        while not remainder.is_zero():
            re, rc = remainder.leading()
            qe = tuple(a - b for a, b in zip(re, lead_e))
            if any(x < 0 for x in qe):
                return None
            qc = Fraction(rc, lead_c)
            qterms[qe] = qterms.get(qe, 0) + qc
            remainder = remainder - divisor * ScalarPoly._of_sums(self.vars, {qe: qc})
        return ScalarPoly._of_sums(self.vars, qterms)

    def partial(self, var_index):
        terms = {}
        for e, c in self.terms.items():
            if e[var_index] == 0:
                continue
            ne = tuple(x - 1 if j == var_index else x for j, x in enumerate(e))
            terms[ne] = terms.get(ne, 0) + c * e[var_index]
        return ScalarPoly._of_sums(self.vars, terms)

    def substitute(self, images, target_ring):
        """Evaluate with each variable replaced by a LocalFrac of target_ring;
        each power of an image is computed once per call."""
        if len(images) != len(self.vars):
            raise ValueError(f"{len(images)} images for the variables {self.vars}")
        powers = {}
        out = target_ring.zero()
        for e, c in sorted(self.terms.items(), key=lambda item: _grlex_key(item[0])):
            term = target_ring.const(c)
            for k, exp in enumerate(e):
                if exp:
                    if (k, exp) not in powers:
                        powers[k, exp] = images[k] ** exp
                    term = term * powers[k, exp]
            out = out + term
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            factors = [
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.vars, e)
                if k > 0
            ]
            if not factors:
                pieces.append(str(c))
            elif c == 1:
                pieces.append("*".join(factors))
            elif c == -1:
                pieces.append("-" + "*".join(factors))
            else:
                pieces.append(str(c) + "*" + "*".join(factors))
        out = " + ".join(pieces)
        return out.replace("+ -", "- ")

    __repr__ = __str__


class Ring:
    """A patch or intersection ring: Q[vars] localized at denominator generators.
    ``_monomials`` holds (e, c, the nonzero (i, e_i)) per generator when each
    is one term c*x^e, and None otherwise.  Two one-term generators may not
    share a variable, so that cancelling one of them never changes whether
    another divides, and every value has one canonical form.  A constant
    generator is rejected: it is already a unit, and trial division by it
    would never stop.  Each constant and coordinate numerator is built once
    per ring (``_numerators``, keyed by the exact scalar or the variable
    name); numerators are never mutated, so values may share them."""

    __slots__ = ("name", "vars", "denominators", "_monomials", "_den_powers", "_numerators")

    def __init__(self, name, variables, denominators=()):
        self.name = name
        self.vars = tuple(variables)
        dens = tuple(denominators)
        monomials = []
        owners = {}  # variable index -> index of the one-term generator using it
        for j, g in enumerate(dens):
            if not isinstance(g, ScalarPoly):
                raise TypeError(f"denominator generator of ring {name} is a {type(g).__name__}")
            if g.vars != self.vars:
                raise ValueError(
                    f"denominator generator {g} of ring {name} is in variables {g.vars}, "
                    f"not {self.vars}"
                )
            if g.is_zero():
                raise ValueError(f"zero denominator generator in ring {name}")
            if g.as_constant() is not None:
                raise ValueError(
                    f"constant denominator generator {g} in ring {name}: a nonzero "
                    f"constant is already a unit"
                )
            if len(g.terms) == 1:
                (e, c), = g.terms.items()
                support = tuple((i, k) for i, k in enumerate(e) if k)
                for i, _k in support:
                    if owners.setdefault(i, j) != j:
                        raise ValueError(
                            f"denominator generators {dens[owners[i]]} and {g} of ring {name} share "
                            f"the variable {self.vars[i]}; localize at one-term generators in "
                            f"disjoint variables instead, e.g. (x, y) for (x, x*y)"
                        )
                monomials.append((e, c, support))
        self.denominators = dens
        self._monomials = tuple(monomials) if len(monomials) == len(dens) else None
        self._den_powers = {}  # multiplicity tuple -> its den_power
        self._numerators = {}  # exact scalar or variable name -> its ScalarPoly

    def zero(self):
        return self.const(0)

    def one(self):
        return self.const(1)

    def const(self, c):
        c = _exact(c)
        num = self._numerators.get(c)
        if num is None:
            num = self._numerators[c] = ScalarPoly.const(self.vars, c)
        return LocalFrac._canonical(self, num, (0,) * len(self.denominators))

    def var(self, name):
        num = self._numerators.get(name)
        if num is None:
            num = self._numerators[name] = ScalarPoly.variable(self.vars, name)
        return LocalFrac._canonical(self, num, (0,) * len(self.denominators))

    def den_power(self, mults):
        """The product of the denominator generators to the multiplicities
        mults (a tuple), built from its first factor once per tuple."""
        out = self._den_powers.get(mults)
        if out is None:
            for g, m in zip(self.denominators, mults):
                if m:
                    out = g ** m if out is None else out * g ** m
            if out is None:
                out = ScalarPoly.const(self.vars, 1)
            self._den_powers[mults] = out
        return out

    def __repr__(self):
        return f"Ring({self.name})"


def _check_same_ring(a, b):
    """Rings are the same when they are one object or agree in name, variables
    and denominator generators; anything else raises."""
    if a is b:
        return
    if a.name != b.name:
        raise ValueError(f"ambient ring mismatch: {a.name} vs {b.name}")
    if a.vars != b.vars or a.denominators != b.denominators:
        raise ValueError(f"ambient ring mismatch: two different rings are named {a.name}")


def _cancel(ring, num, limits):
    """(quotient, counts): the nonzero num divided exactly by generator j of
    ring counts[j] times, as often as it divides but at most limits[j] times
    (no limit when limits is None).

    When every generator is one term c*x^e, one pass in ring order takes k as
    the least floor(exponent_i / e_i) over the terms and the variables i of e,
    shifts the exponents by k*e and divides the coefficients by c^k (``Ring``
    rejects constant generators, so every e has a variable).  This is
    what repeated trial division gives: a monomial division shifts every term
    by the same vector, so it can only make a later division impossible, never
    possible.  Other rings divide by trial with ``divide_exact``.
    """
    counts = [0] * len(ring.denominators)
    if ring._monomials is None:
        changed = True
        while changed:
            changed = False
            for j, g in enumerate(ring.denominators):
                while limits is None or counts[j] < limits[j]:
                    q = num.divide_exact(g)
                    if q is None:
                        break
                    num = q
                    counts[j] += 1
                    changed = True
        return num, counts
    terms = num.terms
    for j, (exps, c, support) in enumerate(ring._monomials):
        k = None if limits is None else limits[j]
        for i, ei in support:
            if k == 0:
                break
            least = min(t[i] for t in terms) // ei
            k = least if k is None else min(k, least)
        if not k:
            continue
        ck = c ** k
        shift = tuple(k * e for e in exps)
        terms = {
            tuple(map(sub, t, shift)): v if ck == 1 else Fraction(v, ck)
            for t, v in terms.items()
        }
        counts[j] = k
    if any(counts):
        num = ScalarPoly._of_sums(num.vars, terms)
    return num, counts


class LocalFrac:
    """numerator / product of declared denominator generators, canonicalized.

    The denominator is a multiplicity tuple over the ring's generator list;
    the canonical form cancels each generator as often as it divides the
    numerator exactly (see ``_cancel``): by exponents when every generator is
    one term, by trial division otherwise.  Negation, scaling by a nonzero
    rational and coordinate inclusions skip ``_settle``: they change no
    divisibility by a generator, so a canonical value stays canonical.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, num, den=None):
        if not isinstance(ring, Ring):
            raise TypeError(f"not a Ring: {ring!r}")
        if not isinstance(num, ScalarPoly):
            raise TypeError(f"numerator is not a ScalarPoly: {num!r}")
        if num.vars != ring.vars:
            raise ValueError(f"numerator variables {num.vars} differ from {ring.name}'s {ring.vars}")
        if den is None:
            den = (0,) * len(ring.denominators)
        den = tuple(den)
        if len(den) != len(ring.denominators):
            raise ValueError(
                f"{len(den)} multiplicities for the {len(ring.denominators)} "
                f"denominator generators of {ring.name}"
            )
        if den and min(den) < 0:
            raise ValueError(f"negative denominator multiplicity in {den}")
        self._settle(ring, num, den)

    @classmethod
    def _of(cls, ring, num, den):
        """num / den in canonical form, for results the arithmetic here built
        from checked values: ring, numerator variables and the multiplicity
        tuple are right by construction, so the constructor's checks are
        skipped."""
        out = cls.__new__(cls)
        out._settle(ring, num, den)
        return out

    @classmethod
    def _canonical(cls, ring, num, den):
        """num / den, already canonical: nothing is checked or cancelled."""
        out = cls.__new__(cls)
        out.ring, out.num, out.den = ring, num, den
        return out

    def _settle(self, ring, num, den):
        self.ring = ring
        if num.is_zero():
            self.num = num
            self.den = (0,) * len(den)
        elif any(den):
            self.num, counts = _cancel(ring, num, den)
            self.den = tuple(map(sub, den, counts))
        else:
            self.num = num
            self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def as_constant(self):
        if any(self.den):
            return None
        return self.num.as_constant()

    def _same_ring(self, other):
        if not isinstance(other, LocalFrac):
            raise TypeError(f"not a LocalFrac: {other!r}")
        if other.ring is not self.ring:
            _check_same_ring(self.ring, other.ring)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._same_ring(other)
        if self.den == other.den:
            return LocalFrac._of(self.ring, self.num + other.num, self.den)
        common = tuple(max(a, b) for a, b in zip(self.den, other.den))
        n1 = self._lift(common)
        n2 = other._lift(common)
        return LocalFrac._of(self.ring, n1 + n2, common)

    def _lift(self, den):
        """The numerator over the larger denominator multiplicities den."""
        shift = tuple(c - a for c, a in zip(den, self.den))
        return self.num * self.ring.den_power(shift) if any(shift) else self.num

    __radd__ = __add__

    def __neg__(self):
        return LocalFrac._canonical(self.ring, -self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LocalFrac):
            c = _exact(other)
            return LocalFrac._canonical(self.ring, self.num * c, self.den) if c else self.ring.zero()
        self._same_ring(other)
        return LocalFrac._of(
            self.ring,
            self.num * other.num,
            tuple(a + b for a, b in zip(self.den, other.den)),
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError(f"exponent {n!r} is not an int")
        if n < 0:
            return self.unit_inverse() ** (-n)
        if n == 0:
            return self.ring.one()
        return _power(self, n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, LocalFrac):
            return NotImplemented
        self._same_ring(other)
        if self.den == other.den:
            return self.num == other.num
        lhs = self.num * self.ring.den_power(other.den)
        rhs = other.num * self.ring.den_power(self.den)
        return lhs == rhs

    def __hash__(self):
        # With a multi-term generator a value has several forms that are
        # equal (1/(x - 1) and (x + 1)/(x^2 - 1)), so only the ring is hashed.
        if self.ring._monomials is None:
            return hash((self.ring.name, self.ring.vars))
        return hash((self.ring.name, self.num, self.den))

    def inverse(self):
        """Exact inverse when the value is a unit; None otherwise.

        Cancellation takes whole generators out of the numerator, so it can
        leave a factor of a generator (x on the generator x^2, x + 1 on
        generators x - 1, x^2 - 1).  A numerator of total degree N is a unit
        exactly when it divides G^N, for G the product of the generators."""
        if self.is_zero():
            return None
        ring = self.ring
        num, powers = _cancel(ring, self.num, None)
        c = num.as_constant()
        if c is None:
            n = max(map(sum, num.terms))
            q = ring.den_power((n,) * len(powers)).divide_exact(num)
            if q is None:
                return None
            return LocalFrac(ring, ring.den_power(self.den) * q, tuple(p + n for p in powers))
        if any(self.den):
            inv_num = ring.den_power(self.den) * Fraction(1, c)
        else:
            inv_num = ScalarPoly.const(ring.vars, Fraction(1, c))
        return LocalFrac._of(ring, inv_num, tuple(powers))

    def unit_inverse(self):
        inv = self.inverse()
        if inv is None:
            raise ValueError(f"not a unit in {self.ring.name}: {self}")
        return inv

    def gradient(self, skip=()):
        """{i: partial derivative by variable i} for the variables not in skip
        whose partial is nonzero, in variable order.  One pass over the
        numerator's terms takes every partial of the numerator; then each
        generator g in the denominator, in ring order, adds -m*num*dg/g^(m+1)
        to the partials that dg has (d(1/g) = -dg/g^2)."""
        ring = self.ring
        sums = {}  # variable index -> coefficient sums of the numerator's partial
        for e, c in self.num.terms.items():
            for i, k in enumerate(e):
                if k and i not in skip:
                    s = sums.setdefault(i, {})
                    ne = e[:i] + (k - 1,) + e[i + 1 :]
                    s[ne] = s.get(ne, 0) + c * k
        out = {}
        for i in range(len(ring.vars)):
            if i in skip:
                continue
            value = None
            if i in sums:
                value = LocalFrac._of(ring, ScalarPoly._of_sums(ring.vars, sums[i]), self.den)
            for j, (g, m) in enumerate(zip(ring.denominators, self.den)):
                if not m:
                    continue
                dg = g.partial(i)
                if dg.is_zero():
                    continue
                bump = self.den[:j] + (m + 1,) + self.den[j + 1 :]
                term = LocalFrac._of(ring, self.num * dg * (-m), bump)
                value = term if value is None else value + term
            if value is not None and not value.is_zero():
                out[i] = value
        return out

    def partial(self, var_index):
        """Partial derivative by one variable (see ``gradient``)."""
        n = len(self.ring.vars)
        if not 0 <= var_index < n:
            raise IndexError(f"no variable {var_index} in {self.ring.name}")
        skip = tuple(k for k in range(n) if k != var_index)
        out = self.gradient(skip).get(var_index)
        return self.ring.zero() if out is None else out

    def __str__(self):
        num = str(self.num)
        if not any(self.den):
            return num
        parts = []
        for g, m in zip(self.ring.denominators, self.den):
            if m == 0:
                continue
            gs = str(g)
            if len(self.num.terms) > 0 and (" " in gs or "*" in gs):
                gs = f"({gs})"
            parts.append(gs if m == 1 else f"{gs}^{m}")
        den = "*".join(parts)
        if " " in num or "*" in num or "/" in num:
            num = f"({num})"
        return f"{num}/{den}"

    __repr__ = __str__


def _one_term(value):
    """(coefficient, exponent tuple, denominator) of a value whose numerator
    is one term."""
    (e, c), = value.num.terms.items()
    return c, e, value.den


def _inclusion_positions(source, target, images):
    """Target position of each source generator for an inclusion, else None."""
    dens, n, gens = target.denominators, len(target.vars), source.denominators
    if source.vars != target.vars or not all(g in dens for g in gens) or any(
        any(img.den) or img.num.terms != {tuple(int(k == i) for k in range(n)): 1}
        for i, img in enumerate(images)
    ):
        return None
    out = tuple(dens.index(g) for g in gens)
    if target._monomials is None and any(
        g.divide_exact(h) is not None for g, p in zip(gens, out) for h in dens[:p]
    ):
        return None
    return out


class RingMap:
    """Variable-wise substitution from one ring into another.

    Well-definedness on the multiplicative set is enforced lazily: the image
    of each source denominator generator must be a unit of the target.

    A map is one of three kinds.  An inclusion has the same variables on both
    sides, each variable as its own image, and each source generator among
    the target's with no earlier target generator dividing it (one-term
    generators in disjoint variables never do); a value keeps its numerator
    object and canonical form, and its multiplicities move to cached target
    positions.  A monomial map, whose generators and image numerators are
    all one term (the covers of projective space), moves each term
    c*x^t/g^m by exponents, lifts to the common denominator and
    canonicalises once; its cached images as (coefficient, exponents,
    denominator) give what substitution gives.  Any other map substitutes.
    Off an inclusion a map caches the inverse of each source denominator's
    image on first use; every map caches, filled by ``forms``, the
    pulled-back dx-monomial of each index tuple.
    """

    __slots__ = ("source", "target", "images", "_den_inverses", "_inclusion", "_monomial",
                 "_dx_pullbacks")

    def __init__(self, source, target, images):
        if not isinstance(source, Ring) or not isinstance(target, Ring):
            raise TypeError(
                f"ring map needs two Rings, got a {type(source).__name__} "
                f"and a {type(target).__name__}"
            )
        images = tuple(images)
        if len(images) != len(source.vars):
            raise ValueError(
                f"ring map from {source.name} needs {len(source.vars)} images, got {len(images)}"
            )
        for img in images:
            if not isinstance(img, LocalFrac):
                raise TypeError(f"ring map image is not a LocalFrac: {img!r}")
            _check_same_ring(img.ring, target)
        self.source = source
        self.target = target
        self.images = images
        self._den_inverses = None
        self._inclusion = _inclusion_positions(source, target, images)
        monomial = None not in (source._monomials, target._monomials) and all(
            len(img.num.terms) == 1 for img in images
        )
        self._monomial = tuple(map(_one_term, images)) if monomial else None
        self._dx_pullbacks = {}

    @classmethod
    def identity(cls, ring):
        return cls(ring, ring, tuple(ring.var(v) for v in ring.vars))

    def _denominator_inverse(self, j):
        """Inverse of the image of source denominator j, computed on first use."""
        if self._den_inverses is None:
            self._den_inverses = [None] * len(self.source.denominators)
        if self._den_inverses[j] is None:
            g = self.source.denominators[j]
            inv = g.substitute(self.images, self.target).inverse()
            if inv is None:
                raise ValueError(
                    f"denominator {g} of {self.source.name} does not map to "
                    f"a unit of {self.target.name}"
                )
            self._den_inverses[j] = inv
        return self._den_inverses[j]

    def apply(self, a):
        if not isinstance(a, LocalFrac):
            raise TypeError(f"not a LocalFrac: {a!r}")
        if a.ring is not self.source:
            _check_same_ring(self.source, a.ring)
        if self._inclusion is not None:
            den = [0] * len(self.target.denominators)
            for p, m in zip(self._inclusion, a.den):
                den[p] = m
            return LocalFrac._canonical(self.target, a.num, tuple(den))
        if self._monomial is None:
            out = a.num.substitute(self.images, self.target)
            for j, m in enumerate(a.den):
                if m:
                    out = out * self._denominator_inverse(j) ** m
            return out
        target = self.target
        if a.is_zero():
            return target.zero()
        inverses = [(_one_term(self._denominator_inverse(j)), m) for j, m in enumerate(a.den) if m]
        moved = []
        for t, c in a.num.terms.items():
            e, d = (0,) * len(target.vars), (0,) * len(target.denominators)
            for (ck, ek, dk), n in inverses + [(self._monomial[k], n) for k, n in enumerate(t) if n]:
                c = c * ck ** n
                e = [x + n * y for x, y in zip(e, ek)]
                d = [x + n * y for x, y in zip(d, dk)]
            moved.append((c, e, d))
        common = tuple(map(max, zip(*(d for _c, _e, d in moved))))
        sums = {}
        for c, e, d in moved:
            for (ge, gc, _support), k in zip(target._monomials, map(sub, common, d)):
                if k:
                    c = c * gc ** k
                    e = [x + k * y for x, y in zip(e, ge)]
            e = tuple(e)
            sums[e] = sums.get(e, 0) + c
        return LocalFrac._of(target, ScalarPoly._of_sums(target.vars, sums), common)

    def __call__(self, a):
        return self.apply(a)

    def compose(self, inner):
        """self after inner."""
        _check_same_ring(self.source, inner.target)
        return RingMap(inner.source, self.target, tuple(self.apply(im) for im in inner.images))


def echelon_reduce(pivots, coeffs, rhs=0):
    """Reduce one sparse row over Q against echelon rows; keep what is left.

    ``pivots`` maps a column to ``(row, rhs)``, where ``row`` is a dict
    column -> Fraction with 1 at that column.  The smallest reducible column
    is eliminated first.  A nonzero remainder joins ``pivots``, scaled to 1
    at its smallest column by exact division.  Returns ``(coords, rest)``:
    ``coords`` maps pivot columns to nonzero exact scalars such that
    ``coeffs`` is the sum of ``coords[c]`` times the row of ``c`` (the new
    row included), and ``rest`` is the right-hand side left over when the
    row reduced to zero, which is nonzero exactly when the row is
    inconsistent with the pivots.  A coefficient or right-hand side that is
    not an int or a Fraction raises TypeError.
    """
    coeffs = {c: _exact(v) for c, v in coeffs.items()}
    rhs = _exact(rhs)
    coords = {}
    while True:
        reducible = [c for c in coeffs if c in pivots]
        if not reducible:
            break
        col = min(reducible)
        prow, prhs = pivots[col]
        factor = coeffs.pop(col)
        coords[col] = coords.get(col, 0) + factor
        for c, v in prow.items():
            if c == col:
                continue
            coeffs[c] = coeffs.get(c, 0) - factor * v
            if coeffs[c] == 0:
                del coeffs[c]
        rhs = rhs - factor * prhs
    rest = 0
    if coeffs:
        pivot_col = min(coeffs)
        lead = coeffs[pivot_col]
        pivots[pivot_col] = (
            {c: Fraction(v, lead) for c, v in coeffs.items()},
            Fraction(rhs, lead),
        )
        coords[pivot_col] = lead
    else:
        rest = rhs
    return {c: q for c, q in coords.items() if q}, rest


class QLinearSystem:
    """Sparse exact linear system over Q with deterministic elimination."""

    def __init__(self):
        self.rows = []

    def add_row(self, coeffs, rhs):
        """coeffs: dict column-index -> int or Fraction."""
        coeffs = {c: _exact(v) for c, v in coeffs.items() if v != 0}
        self.rows.append((coeffs, _exact(rhs)))

    def solve(self, ncols):
        """One exact solution as a list of Fractions (free columns set to 0),
        or None when the system is inconsistent."""
        pivots = _reduce_rows(self.rows)
        if pivots is None:
            return None
        return _back_substitute(pivots, [Fraction(0)] * ncols)


def _reduce_rows(rows):
    """Echelon pivots (see echelon_reduce) of (coeffs, rhs) rows, or None when
    the rows are inconsistent."""
    pivots = {}
    for coeffs, rhs in rows:
        _coords, rest = echelon_reduce(pivots, coeffs, rhs)
        if rest != 0:
            return None
    return pivots


def _back_substitute(pivots, solution, homogeneous=False):
    """Fill the pivot columns of solution, whose free columns are set, so that
    every pivot row holds (with right-hand sides 0 when homogeneous).  A pivot
    row has entries only at columns from its pivot on, so pivots are solved
    from the last column back."""
    for col in sorted(pivots, reverse=True):
        row, rhs = pivots[col]
        val = Fraction(0) if homogeneous else rhs
        for c, v in row.items():
            if c != col:
                val -= v * solution[c]
        solution[col] = val
    return solution


def solve_affine_q(matrix, rhs):
    """Solve A x = rhs exactly over Q.

    Returns (particular solution, kernel basis) with entries as Fractions,
    or None when inconsistent.  The particular solution has every free
    column at 0, and the kernel vector of a free column is 1 there and 0 at
    the other free columns, so both are unique.  On the solution set
    x = particular + sum t_k basis[k], the k-th free column of x is exactly
    t_k: a fixed locus reads its coordinates off the ambient coordinates
    there.
    """
    ncols = len(matrix[0]) if matrix else 0
    pivots = _reduce_rows(
        ({c: _exact(v) for c, v in enumerate(row) if v}, _exact(r))
        for row, r in zip(matrix, rhs)
    )
    if pivots is None:
        return None
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            basis.append(_back_substitute(pivots, vec, homogeneous=True))
    return _back_substitute(pivots, [Fraction(0)] * ncols), basis


def parse_scalar(ring, text):
    """Parse an arithmetic expression string into a LocalFrac of ring.

    Supports + - * / ** (also ^), integer constants, and the ring variables.
    Division requires the divisor to be a unit of the localization.
    """
    import ast

    if isinstance(text, LocalFrac):
        _check_same_ring(ring, text.ring)
        return text
    if isinstance(text, (int, Fraction)):
        return ring.const(text)
    if not isinstance(text, str):
        raise TypeError(f"cannot parse a {type(text).__name__} as a scalar")
    try:
        node = ast.parse(text.replace("^", "**"), mode="eval").body
    except SyntaxError as err:
        raise ValueError(f"cannot parse {text!r}: {err.msg}") from None

    def ev(n):
        if isinstance(n, ast.Constant):
            if type(n.value) is not int:
                raise ValueError(f"non-integer constant: {n.value!r}")
            return ring.const(n.value)
        if isinstance(n, ast.Name):
            if n.id not in ring.vars:
                raise ValueError(f"unknown variable {n.id!r} in ring {ring.name}")
            return ring.var(n.id)
        if isinstance(n, ast.UnaryOp):
            if isinstance(n.op, ast.USub):
                return -ev(n.operand)
            if isinstance(n.op, ast.UAdd):
                return ev(n.operand)
        if isinstance(n, ast.BinOp):
            if isinstance(n.op, ast.Pow):
                exp, sign = n.right, 1
                if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub):
                    exp, sign = exp.operand, -1
                if not (isinstance(exp, ast.Constant) and type(exp.value) is int):
                    raise ValueError(f"exponent must be an integer literal: {ast.dump(n.right)}")
                return ev(n.left) ** (sign * exp.value)
            a, b = ev(n.left), ev(n.right)
            if isinstance(n.op, ast.Add):
                return a + b
            if isinstance(n.op, ast.Sub):
                return a - b
            if isinstance(n.op, ast.Mult):
                return a * b
            if isinstance(n.op, ast.Div):
                return a * b.unit_inverse()
        raise ValueError(f"unsupported expression node: {ast.dump(n)}")

    return ev(node)


def _add_monomial_rows(system, parts, rhs):
    """Add sum(x_col * value for col, value in parts) = rhs, an equation over
    the ring of rhs, to system: clear the common denominator and add one row
    per monomial."""
    ring = rhs.ring
    common = tuple(map(max, zip(rhs.den, *(value.den for _col, value in parts))))
    rows = {}
    for col, value in parts + [(None, rhs)]:
        if value.ring is not ring:
            _check_same_ring(ring, value.ring)
        shift = tuple(c - d for c, d in zip(common, value.den))
        lift = value.num * ring.den_power(shift) if any(shift) else value.num
        for exps, q in lift.terms.items():
            row = rows.setdefault(exps, {})
            row[col] = row.get(col, 0) + q
    for exps in sorted(rows):
        row = rows[exps]
        rhs_q = row.pop(None, 0)
        system.add_row(row, rhs_q)
