"""Differential tests of the integer exact core against the Fraction-only
kernels it replaced: the ScalarPoly constructor that made every coefficient a
Fraction, +, * and ** starting from the constant 1, Ring.den_power starting
from the constant 1, LocalFrac + and == lifting through den_power always,
ScalarPoly.substitute raising every image to every power afresh, and the
LocalFrac canonical form and inverse that cancelled every generator by trial
division.

The oracles work on plain term dicts.  Results are compared term by term, in
insertion order, and every polynomial the package builds must keep the
coefficient invariant: each stored coefficient is a nonzero int, or a
Fraction whose denominator is not 1, and never a float."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mfchern.rings import LocalFrac, Ring, ScalarPoly, _exact, monomials_up_to

from .test_rings import random_frac

VARS = ("x", "y")
X = ScalarPoly.variable(VARS, "x")
Y = ScalarPoly.variable(VARS, "y")
PLAIN = Ring("A", VARS)
# Two generators that share no factor, one of them with a constant term.
LOCALIZED = Ring("B", VARS, (X, X + Y + ScalarPoly.const(VARS, 2)))
RINGS = (PLAIN, LOCALIZED)
Z = ScalarPoly.variable(("z",), "z")
TARGET = Ring("U", ("z",), (Z,))


# -- the replaced kernels, as they were, on plain term dicts ----------------


def oracle_terms(nvars, terms):
    """The replaced ScalarPoly constructor: every coefficient a Fraction."""
    clean = {}
    for exps, c in terms.items():
        c = c if isinstance(c, Fraction) else Fraction(c)
        if c == 0:
            continue
        exps = tuple(exps)
        assert len(exps) == nvars, "exponent arity mismatch"
        clean[exps] = clean.get(exps, Fraction(0)) + c
    return {e: c for e, c in clean.items() if c != 0}


def oracle_add(nvars, a, b):
    terms = dict(a)
    for e, c in b.items():
        terms[e] = terms.get(e, Fraction(0)) + c
    return oracle_terms(nvars, terms)


def oracle_mul(nvars, a, b):
    if isinstance(b, (int, Fraction)):
        c = Fraction(b)
        return oracle_terms(nvars, {e: c * v for e, v in a.items()})
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return oracle_terms(nvars, terms)


def oracle_pow(nvars, a, n):
    out = oracle_terms(nvars, {(0,) * nvars: 1})
    base = a
    while n:
        if n & 1:
            out = oracle_mul(nvars, out, base)
        base = oracle_mul(nvars, base, base)
        n >>= 1
    return out


def oracle_den_power(ring, mults):
    nvars = len(ring.vars)
    out = oracle_terms(nvars, {(0,) * nvars: 1})
    for g, m in zip(ring.denominators, mults):
        if m:
            out = oracle_mul(nvars, out, oracle_pow(nvars, g.terms, m))
    return out


def oracle_frac_add(a, b):
    """LocalFrac + lifting both numerators through den_power."""
    ring = a.ring
    nvars = len(ring.vars)
    common = tuple(max(p, q) for p, q in zip(a.den, b.den))
    n1 = oracle_mul(nvars, a.num.terms, oracle_den_power(ring, [c - p for c, p in zip(common, a.den)]))
    n2 = oracle_mul(nvars, b.num.terms, oracle_den_power(ring, [c - q for c, q in zip(common, b.den)]))
    return LocalFrac(ring, ScalarPoly(ring.vars, oracle_add(nvars, n1, n2)), common)


def oracle_frac_eq(a, b):
    ring = a.ring
    nvars = len(ring.vars)
    lhs = oracle_mul(nvars, a.num.terms, oracle_den_power(ring, b.den))
    rhs = oracle_mul(nvars, b.num.terms, oracle_den_power(ring, a.den))
    return lhs == rhs


def oracle_frac_pow(a, n):
    out = a.ring.one()
    base = a
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def oracle_substitute(poly, images, target_ring):
    out = target_ring.zero()
    for e, c in sorted(poly.terms.items(), key=lambda item: (sum(item[0]), item[0])):
        term = target_ring.const(c)
        for img, exp in zip(images, e):
            if exp:
                term = term * oracle_frac_pow(img, exp)
        out = out + term
    return out


def oracle_canonical(ring, num, den):
    """(numerator, multiplicities) of the replaced LocalFrac constructor:
    cancellation by exact division only."""
    if num.is_zero():
        return num, (0,) * len(den)
    mults = list(den)
    changed = True
    while changed:
        changed = False
        for j, g in enumerate(ring.denominators):
            while mults[j] > 0:
                q = num.divide_exact(g)
                if q is None:
                    break
                num = q
                mults[j] -= 1
                changed = True
    return num, tuple(mults)


def oracle_inverse(value):
    """The replaced LocalFrac.inverse, as (numerator, multiplicities)."""
    if value.is_zero():
        return None
    num = value.num
    powers = [0] * len(value.ring.denominators)
    changed = True
    while changed:
        changed = False
        for j, g in enumerate(value.ring.denominators):
            q = num.divide_exact(g)
            while q is not None:
                num = q
                powers[j] += 1
                changed = True
                q = num.divide_exact(g)
    c = num.as_constant()
    if c is None or c == 0:
        return None
    inv_num = value.ring.den_power(value.den) * Fraction(1, c)
    return oracle_canonical(value.ring, inv_num, tuple(powers))


# -- checks ------------------------------------------------------------------


def assert_invariant(poly):
    for c in poly.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def assert_matches(poly, oracle):
    """Same terms in the same insertion order, and the coefficient invariant."""
    assert list(poly.terms.items()) == list(oracle.items())
    assert_invariant(poly)


def assert_same_frac(value, oracle):
    assert value.den == oracle.den
    assert_matches(value.num, oracle.num.terms)


def scalar(rng):
    """An int, an integral Fraction or a proper Fraction, zero included."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return Fraction(rng.randint(-3, 3))
    return Fraction(rng.randint(-3, 3), rng.randint(2, 4))


def raw_terms(rng, nvars, degree=2, size=3):
    monos = monomials_up_to(nvars, degree)
    return {rng.choice(monos): scalar(rng) for _ in range(rng.randint(0, size))}


def check_polys(nvars, ta, tb, c, n):
    variables = VARS[:nvars]
    a, b = ScalarPoly(variables, ta), ScalarPoly(variables, tb)
    oa, ob = oracle_terms(nvars, ta), oracle_terms(nvars, tb)
    assert_matches(a, oa)
    assert_matches(b, ob)
    assert_matches(a + b, oracle_add(nvars, oa, ob))
    assert_matches(a - b, oracle_add(nvars, oa, oracle_mul(nvars, ob, -1)))
    assert_matches(a * b, oracle_mul(nvars, oa, ob))
    assert_matches(a * c, oracle_mul(nvars, oa, c))
    assert_matches(c * a, oracle_mul(nvars, oa, c))
    assert_matches(a ** n, oracle_pow(nvars, oa, n))
    assert_matches(ScalarPoly.const(variables, c), oracle_terms(nvars, {(0,) * nvars: c}))


def check_division(ta, c, shift):
    """A product by a one-term divisor c*x^shift divides back exactly."""
    a = ScalarPoly(VARS, ta)
    divisor = ScalarPoly(VARS, {shift: c})
    quotient = (a * divisor).divide_exact(divisor)
    assert_matches(quotient, oracle_terms(2, ta))
    if not a.is_zero() and any(shift):
        assert (a + ScalarPoly.const(VARS, 1)).divide_exact(divisor) is None


def check_fracs(a, b, n):
    ring = a.ring
    for mults in (a.den, b.den, tuple(p + q for p, q in zip(a.den, b.den))):
        assert_matches(ring.den_power(mults), oracle_den_power(ring, mults))
    assert_same_frac(a + b, oracle_frac_add(a, b))
    assert_same_frac(a + a, oracle_frac_add(a, a))
    assert (a == b) == oracle_frac_eq(a, b)
    assert (a == a * 1) and oracle_frac_eq(a, a * 1)
    assert_same_frac(a ** n, oracle_frac_pow(a, n))


def check_substitute(ta, images):
    poly = ScalarPoly(VARS, ta)
    assert_same_frac(poly.substitute(images, TARGET), oracle_substitute(poly, images, TARGET))


def test_int_core_matches_fraction_oracles_seeded():
    rng = random.Random(20261018)
    for _ in range(150):
        nvars = rng.choice((0, 1, 2))
        check_polys(
            nvars,
            raw_terms(rng, nvars),
            raw_terms(rng, nvars),
            scalar(rng),
            rng.randint(0, 4),
        )
        ring = rng.choice(RINGS)
        check_fracs(random_frac(rng, ring, den_bound=2), random_frac(rng, ring, den_bound=2), rng.randint(0, 3))
        images = tuple(random_frac(rng, TARGET, degree=1, den_bound=1) for _ in VARS)
        check_substitute(raw_terms(rng, 2, degree=3, size=4), images)
        check_division(
            raw_terms(rng, 2),
            rng.choice((1, -1, 3, Fraction(-1, 2), Fraction(4, 3))),
            rng.choice(monomials_up_to(2, 1)),
        )


def test_exact_scalars():
    assert type(_exact(Fraction(4, 2))) is int and _exact(Fraction(4, 2)) == 2
    assert type(_exact(True)) is int and _exact(True) == 1
    assert _exact(Fraction(1, 2)) == Fraction(1, 2)
    for bad in (2.0, "1", None, ScalarPoly.const(VARS, 1)):
        with pytest.raises(TypeError):
            _exact(bad)


def test_integral_inputs_stay_int():
    p = ScalarPoly(VARS, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (0, 0): Fraction(-3)})
    assert [type(c) for c in p.terms.values()] == [int, Fraction, int]
    q = (p * 2) * (p + p)
    assert_invariant(q)
    assert ScalarPoly.const(VARS, Fraction(6, 3)).as_constant() == 2
    assert type(ScalarPoly.const(VARS, Fraction(6, 3)).as_constant()) is int
    assert type(ScalarPoly.zero(VARS).as_constant()) is int
    # a true division leaves a Fraction, and one that comes out integral an int
    assert_invariant(p.divide_exact(ScalarPoly.const(VARS, 3)))
    assert (X * 6).divide_exact(ScalarPoly.const(VARS, 3)).terms == {(1, 0): 2}
    assert type(PLAIN.const(3).inverse().as_constant()) is Fraction
    assert type(PLAIN.const(Fraction(1, 3)).inverse().as_constant()) is int


COEFFS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
EXPS = st.tuples(st.integers(0, 2), st.integers(0, 2))
TERMS = st.dictionaries(EXPS, COEFFS, max_size=4)


@settings(max_examples=60, deadline=None)
@given(ta=TERMS, tb=TERMS, c=COEFFS, n=st.integers(0, 4))
def test_polynomial_arithmetic_matches_oracle(ta, tb, c, n):
    check_polys(2, ta, tb, c, n)


@settings(max_examples=40, deadline=None)
@given(
    ta=TERMS,
    tb=TERMS,
    da=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    db=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    localized=st.booleans(),
    n=st.integers(0, 3),
)
def test_fraction_arithmetic_matches_oracle(ta, tb, da, db, localized, n):
    ring = LOCALIZED if localized else PLAIN
    k = len(ring.denominators)
    a = LocalFrac(ring, ScalarPoly(VARS, ta), da[:k])
    b = LocalFrac(ring, ScalarPoly(VARS, tb), db[:k])
    check_fracs(a, b, n)


@settings(max_examples=30, deadline=None)
@given(
    ta=TERMS,
    images=st.tuples(
        st.tuples(st.dictionaries(st.tuples(st.integers(0, 1)), COEFFS, max_size=2), st.integers(0, 1)),
        st.tuples(st.dictionaries(st.tuples(st.integers(0, 1)), COEFFS, max_size=2), st.integers(0, 1)),
    ),
)
def test_substitute_matches_oracle(ta, images):
    check_substitute(
        ta, tuple(LocalFrac(TARGET, ScalarPoly(("z",), t), (m,)) for t, m in images)
    )


# Rings for the cancellation oracle: one-term generators, cancelled by
# exponents (a plain variable, one with a coefficient, a square next to a
# variable, and a product of two variables), and the mixed ring, which keeps
# trial division.
CANCEL_RINGS = (
    Ring("C1", VARS, (X,)),
    Ring("C2", VARS, (X * 2,)),
    Ring("C3", VARS, (X * X, Y)),
    Ring("C4", VARS, (X * Y * 2,)),
    LOCALIZED,
)
EXPS4 = st.tuples(st.integers(0, 4), st.integers(0, 4))
MULTS = st.tuples(st.integers(0, 3), st.integers(0, 3))


def is_unit(value):
    """Whether value is a unit of one of CANCEL_RINGS, decided without
    inverse.  With one-term generators in disjoint variables, a unit's
    numerator is one term in the generators' variables.  The generators of
    LOCALIZED are irreducible and coprime, so trial division leaves a constant
    exactly on a unit."""
    ring = value.ring
    if ring._monomials is None:
        return oracle_inverse(value) is not None
    support = {i for g in ring.denominators for e in g.terms for i, k in enumerate(e) if k}
    terms = list(value.num.terms)
    return len(terms) == 1 and all(i in support for i, k in enumerate(terms[0]) if k)


def assert_canonical(value, oracle):
    num, den = oracle
    assert value.den == den
    assert_matches(value.num, num.terms)


@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, len(CANCEL_RINGS) - 1),
    ta=st.dictionaries(EXPS4, COEFFS, max_size=4),
    tb=st.dictionaries(EXPS4, COEFFS, max_size=3),
    boost=MULTS,
    da=MULTS,
    db=MULTS,
    c=st.sampled_from((1, -1, 3, Fraction(-2, 3))),
)
def test_cancellation_matches_trial_division_oracle(which, ta, tb, boost, da, db, c):
    """The constructor, arithmetic results and inverse agree with trial
    division term by term, in insertion order, except that inverse also finds
    the units trial division misses (x on x^2 or on 2xy), checked by
    multiplying back.  Numerators are multiplied by generator powers (boost)
    so that cancellation happens often, and a constant times a product of
    generators over any denominator is a unit."""
    ring = CANCEL_RINGS[which]
    k = len(ring.denominators)
    boost, da, db = boost[:k], da[:k], db[:k]
    num = ScalarPoly(VARS, ta) * ring.den_power(boost)
    a = LocalFrac(ring, num, da)
    assert_canonical(a, oracle_canonical(ring, num, da))
    b = LocalFrac(ring, ScalarPoly(VARS, tb), db)
    den = tuple(p + q for p, q in zip(a.den, b.den))
    assert_canonical(a * b, oracle_canonical(ring, a.num * b.num, den))
    assert_canonical(-a, oracle_canonical(ring, -a.num, a.den))
    for value in (a + b, a - b, a.partial(0), a.partial(1)):
        assert_canonical(value, oracle_canonical(ring, value.num, value.den))
    unit = LocalFrac(ring, ring.den_power(boost) * c, da)
    for value in (a, b, unit, a * b):
        got, want = value.inverse(), oracle_inverse(value)
        if want is not None:
            assert_canonical(got, want)
        elif is_unit(value):
            assert value * got == ring.one(), value
        else:
            assert got is None
    assert unit.inverse() is not None


def test_one_term_generators_sharing_a_variable_are_rejected():
    """With (x, x*y) the values y/(x*y) and 1/x would be equal with two
    canonical forms, and with (x*y, x) the unit y would have no inverse."""
    for gens in ((X, X * Y), (X * Y, X), (X, X), (X * X, X * Y * 2)):
        with pytest.raises(ValueError, match="share the variable x.*disjoint"):
            Ring("D", VARS, gens)
    assert Ring("D", VARS, (X * Y,))._monomials is not None
    assert Ring("D", VARS, (X, X + Y))._monomials is None
