"""Differential tests of the one-pass numerator kernels against the routes
they replaced.

Products: ``MatrixForm.mul`` and ``MatrixForm._supertrace_mul`` share
``_product_terms``, which scales each factor to integer coefficients, sums the
numerator products of every composing pair in ints per output key and summed
denominator tuple, divides each sum once and canonicalises it once.  The
oracle is the per-pair route, kept here verbatim: ``_signed_products`` builds
one ``LocalFrac`` per pair of terms and the callers add them.  The factors mix
coefficient denominators (also 5, 7, 11 and 13), all-integer factors, pairs
whose products cancel to integers, and the curvature of the first seed-1
``koszul_affine`` job.

Derivatives: ``LocalFrac.gradient`` takes every nonzero partial in one pass
over the numerator's terms, and ``forms._d_term`` is the unchecked kernel of
``de_rham_d``, ``MatrixForm.d_form`` and the closed-form columns of
``cohomologous``.  The oracles are ``oracle_partial`` (every partial, every
generator term) and the checked ``de_rham_d`` that took one partial at a time.

On rings whose generators are one term in disjoint variables, or multi-term
and coprime, every value has one canonical form, so results are compared by
canonical string and term by term.  On (x - 1, x^2 - 1), whose generators
share a factor, the representative may differ and results are compared
with ``==``."""

import cProfile
import itertools
import os
import pstats
import random
import sys
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mfchern import cohomology
from mfchern.cech import MatrixForm, product_sign
from mfchern.connection import total_curvature
from mfchern.forms import _d_of_function, _d_term, _form_ring, _merge_indices, de_rham_d
from mfchern.geometry import build_scheme
from mfchern.hochschild import GeometricCategory, HochschildChain, tr_nabla
from mfchern.mf import MorphismCochain
from mfchern.rings import LocalFrac, Ring, ScalarPoly, monomials_up_to

from .test_geometry import three_patch_line
from .test_rings import random_frac
from .test_trace_oracle import curved_connection, koszul_space, twist_p2
from .test_transport_oracle import (
    P1,
    P2,
    assert_same_frac,
    assert_same_terms,
    long_division_everywhere,
    oracle_d_of_function,
    oracle_partial,
)

# -- the per-pair product route, as it was -----------------------------------


def _signed_products(self, other, cech_left, partners):
    """Yield (row, col, dx indices, u power), value for every composing
    pair of a term of self and a term of other, with the ledger signs;
    partners(r1, c1) lists the terms of other paired with self's terms
    at (r1, c1)."""
    for (r1, c1, i1, m1), f1 in self.terms.items():
        bucket = partners(r1, c1)
        if not bucket:
            continue
        e1 = (self.row_parities[r1] + self.col_parities[c1]) % 2
        for (r2, c2, i2, m2), f2 in bucket:
            wsign, merged = _merge_indices(i1, i2)
            if wsign == 0:
                continue
            e2 = (other.row_parities[r2] + other.col_parities[c2]) % 2
            sign = wsign * product_sign(cech_left, e1, len(i2), e2)
            val = f1 * f2
            yield (r1, c2, merged, m1 + m2), (val if sign > 0 else -val)


def per_pair_mul(self, other, cech_left=0):
    self._check_factor(other)
    by_row = {}
    for key, f2 in other.terms.items():
        by_row.setdefault(key[0], []).append((key, f2))
    terms = {}
    for key, val in _signed_products(
        self, other, cech_left, lambda r1, c1: by_row.get(c1)
    ):
        terms[key] = terms[key] + val if key in terms else val
    return MatrixForm._of(self.ring, self.row_parities, other.col_parities, terms)


def per_pair_supertrace_mul(self, other, cech_left=0):
    self._check_factor(other)
    if self.row_parities != other.col_parities:
        raise ValueError("supertrace needs square shape")
    by_entry = {}
    for key, f2 in other.terms.items():
        by_entry.setdefault(key[:2], []).append((key, f2))
    terms = {}
    for (r, _c, idxs, m), val in _signed_products(
        self, other, cech_left, lambda r1, c1: by_entry.get((c1, r1))
    ):
        if self.row_parities[r]:
            val = -val
        key = (0, 0, idxs, m)
        terms[key] = terms[key] + val if key in terms else val
    return MatrixForm._of(self.ring, (0,), (0,), terms)


# -- the one-partial-at-a-time exterior derivative, as it was -----------------


def checked_de_rham_d(form):
    """de_rham_d before the one-pass kernel: the form is checked, then every
    partial outside a term's index tuple is taken on its own (here through
    oracle_partial, since LocalFrac.partial now goes through gradient)."""
    _form_ring(form)
    terms = {}
    for idxs, coeff in form.items():
        for i in range(len(coeff.ring.vars)):
            if i in idxs:
                continue
            p = oracle_partial(coeff, i)
            if not p.is_zero():
                sign, merged = _merge_indices((i,), idxs)
                terms[merged] = terms[merged] + p * sign if merged in terms else p * sign
    return {idxs: c for idxs, c in terms.items() if not c.is_zero()}


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

import run  # noqa: E402
import workloads  # noqa: E402


def fraction_constructions(fn):
    """fn() and the number of Fractions it constructed, counted by cProfile."""
    profile = cProfile.Profile()
    out = profile.runcall(fn)
    calls = sum(
        stat[1]
        for (path, _line, name), stat in pstats.Stats(profile).stats.items()
        if os.path.basename(path) == "fractions.py" and name in ("__new__", "_from_coprime_ints")
    )
    return out, calls


def koszul_curvature():
    """The curvature matrix R of the first seed-1 koszul_affine job: 71 terms
    in a 16 x 16 matrix over A^4, with the potential's rational coefficients."""
    workload = run.WORKLOADS["koszul_affine"]
    out = workload.run(run.import_api(), workload.make_inputs(1)[0])
    R = total_curvature(
        out["P"], out["conn"], with_u=True, u_truncation=workloads.KOSZUL_TRUNC
    ).cochain()
    return R.entries[(0,)]


# -- rings and values ------------------------------------------------------------


def koszul_ring():
    return Ring("A4", ("x1", "x2", "x3", "x4"))


def overlap_rings():
    """The P^1 overlap and every P^2 overlap ring: one-term generators."""
    p1, p2 = build_scheme(P1), build_scheme(P2)
    rings = [p1.intersection((0, 1)).ring]
    rings += [p2.intersection(t).ring for t in ((0, 1), (0, 2), (1, 2), (0, 1, 2))]
    return rings


def shared_factor_ring():
    x = ScalarPoly.variable(("x",), "x")
    one = ScalarPoly.const(("x",), 1)
    return Ring("S", ("x",), (x - one, x * x - one))


def coprime_ring():
    x = ScalarPoly.variable(("x", "y"), "x")
    y = ScalarPoly.variable(("x", "y"), "y")
    one = ScalarPoly.const(("x", "y"), 1)
    return Ring("C", ("x", "y"), (x - one, x * y + one))


def unit_value(rng, ring):
    """c * x^e / g^m with a small exponent and multiplicities: on a ring with
    one-term generators these cancel against each other in products, as
    z * (1/z) does."""
    e = tuple(rng.randint(0, 2) for _ in ring.vars)
    num = ScalarPoly(ring.vars, {e: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2))})
    den = tuple(rng.randint(0, 2) for _ in ring.denominators)
    return LocalFrac(ring, num, den)


def generator_value(rng, ring):
    """A generator, its inverse or a power of either, times a constant."""
    if not ring.denominators:
        return unit_value(rng, ring)
    j = rng.randrange(len(ring.denominators))
    k = rng.choice([-2, -1, 1, 2])
    c = ScalarPoly.const(ring.vars, rng.choice([1, -1, 2]))
    if k > 0:
        return LocalFrac(ring, c * ring.denominators[j] ** k)
    return LocalFrac(ring, c, tuple(-k if i == j else 0 for i in range(len(ring.denominators))))


def mixed_value(rng, ring):
    kind = rng.randrange(3)
    if kind == 0:
        return random_frac(rng, ring, degree=2, den_bound=2)
    if kind == 1:
        return unit_value(rng, ring)
    return generator_value(rng, ring)


PRIME_DENOMINATORS = (1, 5, 7, 11, 13)


def dense_value(rng, ring, denominators=PRIME_DENOMINATORS):
    """A value of three terms of degree <= 2 whose coefficients have
    denominators drawn from denominators, by default 1, 5, 7, 11 and 13."""
    monos = monomials_up_to(len(ring.vars), 2)
    terms = {
        rng.choice(monos): Fraction(rng.randint(-9, 9), rng.choice(denominators))
        for _ in range(3)
    }
    den = tuple(rng.randint(0, 1) for _ in ring.denominators)
    return LocalFrac(ring, ScalarPoly(ring.vars, terms), den)


def integer_value(rng, ring):
    return dense_value(rng, ring, (1,))


def mixed_matrix_form(rng, ring, rows, cols, nterms, max_u=3, value=mixed_value):
    """A random MatrixForm whose terms are value(rng, ring), by default a mix
    of dense fractions, monomial units and powers of generators, with u
    powers up to max_u and random dx index tuples."""
    nvars = len(ring.vars)
    terms = {}
    for _ in range(nterms):
        key = (
            rng.randrange(len(rows)),
            rng.randrange(len(cols)),
            tuple(sorted(rng.sample(range(nvars), rng.randint(0, min(2, nvars))))),
            rng.randint(0, max_u),
        )
        f = value(rng, ring)
        terms[key] = terms[key] + f if key in terms else f
    return MatrixForm(ring, rows, cols, {k: f for k, f in terms.items() if not f.is_zero()})


PARITIES = [(0,), (1,), (0, 1), (1, 0, 1), (0, 0, 1, 1)]


def check_products(rng, ring, exact=True, value=mixed_value):
    """mul and _supertrace_mul against the per-pair route on random factors
    of every parity pattern, for cech_left 0, 1 and 2.  exact compares
    canonical strings and terms; otherwise values by ==.  Returns the number
    of product entries that collect more than one denominator tuple."""
    a, b, square = random_factors(rng, ring, value)
    check_pair(a, b, square, exact)
    return len(grouped_keys(a, b))


def random_factors(rng, ring, value=mixed_value):
    """Random a, b and square of every parity pattern such that a.mul(b)
    and a._supertrace_mul(square) are defined."""
    rows, mid, cols = (rng.choice(PARITIES) for _ in range(3))
    return tuple(
        mixed_matrix_form(rng, ring, r, c, rng.randint(0, 8), value=value)
        for r, c in ((rows, mid), (mid, cols), (mid, rows))
    )


def check_pair(a, b, square, exact=True):
    """a.mul(b) and a._supertrace_mul(square) against the per-pair route for
    cech_left 0, 1 and 2."""
    for cech_left in (0, 1, 2):
        pairs = [
            (a.mul(b, cech_left), per_pair_mul(a, b, cech_left)),
            (a._supertrace_mul(square, cech_left), per_pair_supertrace_mul(a, square, cech_left)),
        ]
        for new, old in pairs:
            assert new.row_parities == old.row_parities
            assert new.col_parities == old.col_parities
            if exact:
                assert str(new) == str(old)
                assert_same_terms(new, old)
            else:
                assert new == old, f"{new} vs {old}"


def grouped_keys(a, b):
    """The output keys of a.mul(b) that collect more than one summed
    denominator tuple."""
    dens = {}
    for (r1, c1, i1, m1), f1 in a.terms.items():
        for (r2, c2, i2, m2), f2 in b.terms.items():
            if c1 == r2 and not set(i1) & set(i2):
                key = (r1, c2, tuple(sorted(i1 + i2)), m1 + m2)
                dens.setdefault(key, set()).add(tuple(x + y for x, y in zip(f1.den, f2.den)))
    return [key for key, seen in dens.items() if len(seen) > 1]


# -- product tests --------------------------------------------------------------


def test_products_match_the_per_pair_route():
    rng = random.Random(2109)
    grouped = 0
    for ring in [koszul_ring(), coprime_ring()] + overlap_rings():
        for _ in range(25):
            grouped += check_products(rng, ring)
    assert grouped >= 20, grouped


def test_products_match_on_generators_that_share_a_factor():
    rng = random.Random(2110)
    ring = shared_factor_ring()
    grouped = sum(check_products(rng, ring, exact=False) for _ in range(60))
    assert grouped >= 10, grouped


@settings(max_examples=40, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_products_match_the_per_pair_route_property(rng):
    check_products(rng, rng.choice([koszul_ring()] + overlap_rings()))


def test_cancelling_denominators_and_denominator_groups():
    """On the P^1 overlap, z * (1/z^2) + (1/z) * z collects the summed
    denominators z^2 and z at one entry, whose sum is 1/z +- 1, and
    (1/z) * (z dz) cancels to a constant; odd rows give the supertrace its
    sign."""
    ring = build_scheme(P1).intersection((0, 1)).ring
    z = ring.var("z")
    a = MatrixForm(ring, (0, 1), (0, 1), {(0, 0, (), 0): z, (0, 1, (), 0): z ** -1,
                                          (1, 0, (), 0): z, (1, 1, (0,), 1): z ** -2})
    b = MatrixForm(ring, (0, 1), (0, 1), {(0, 0, (), 0): z ** -2, (0, 1, (), 0): z ** -1,
                                          (1, 0, (), 0): z, (1, 1, (0,), 0): z})
    assert grouped_keys(a, b) == [(0, 0, (), 0)]
    for cech_left in (0, 1, 2):
        new, old = a.mul(b, cech_left), per_pair_mul(a, b, cech_left)
        assert str(new) == str(old)
        assert_same_terms(new, old)
        # rule 2 signs (1/z) * z, whose factors are both odd, by (-1)^cech_left
        assert new.terms[(0, 0, (), 0)] == z ** -1 + (-1) ** cech_left
        assert new.terms[(0, 1, (0,), 0)].as_constant() in (1, -1)
        new, old = a._supertrace_mul(b, cech_left), per_pair_supertrace_mul(a, b, cech_left)
        assert str(new) == str(old)
        assert new == a.mul(b, cech_left).supertrace()
        assert new.terms[(0, 0, (), 0)] == z ** -1


def test_products_match_with_prime_denominators():
    rng = random.Random(2114)
    for ring in [koszul_ring(), coprime_ring()] + overlap_rings():
        for _ in range(12):
            check_products(rng, ring, value=dense_value)
    for _ in range(20):
        check_products(rng, shared_factor_ring(), exact=False, value=dense_value)


def integral_coefficients(value):
    return all(type(c) is int for f in value.terms.values() for c in f.num.terms.values())


def test_products_of_integer_factors_build_no_fraction():
    """All-integer factors take no scale: no Fraction is built on rings
    whose generators are one term with coefficient 1."""
    rng = random.Random(2115)
    for ring in [koszul_ring()] + overlap_rings():
        for _ in range(12):
            a, b, square = random_factors(rng, ring, integer_value)
            check_pair(a, b, square)
            for product in (lambda: a.mul(b, 1), lambda: a._supertrace_mul(square, 1)):
                value, built = fraction_constructions(product)
                assert built == 0 and integral_coefficients(value), (built, value)
    for _ in range(12):
        check_products(rng, coprime_ring(), value=integer_value)


def test_products_that_cancel_to_integers():
    """Factors scaled by 1/d and d, and non-integral terms whose sum is
    integral: every output coefficient is an int, and no Fraction is built."""
    rng = random.Random(2116)
    for ring in [koszul_ring()] + overlap_rings():
        for _ in range(12):
            d = rng.choice((3, 5, 7, 11, 13))
            a, b, square = random_factors(rng, ring, integer_value)
            a, b, square = a.scale(Fraction(1, d)), b.scale(d), square.scale(d)
            check_pair(a, b, square)
            for product in (lambda: a.mul(b, 2), lambda: a._supertrace_mul(square, 2)):
                value, built = fraction_constructions(product)
                assert built == 0 and integral_coefficients(value), (built, value)
    ring = koszul_ring()
    x = ring.var("x1")
    row = MatrixForm(ring, (0,), (0, 0), {(0, 0, (), 0): x * Fraction(1, 3),
                                          (0, 1, (), 0): x * Fraction(2, 3)})
    for sign, expected, fractions in ((1, x, 0), (-1, x * Fraction(-1, 3), 1)):
        col = MatrixForm(ring, (0, 0), (0,), {(0, 0, (), 0): ring.one(),
                                              (1, 0, (), 0): ring.one() * sign})
        check_pair(row, col, col)
        product, built = fraction_constructions(lambda: row.mul(col))
        assert_same_terms(product, MatrixForm(ring, (0,), (0,), {(0, 0, (), 0): expected}))
        assert built == fractions, built


def test_koszul_curvature_products_match_the_per_pair_route():
    """R.R, R^2.R^2 and R.R^2 of the seed-1 koszul_affine curvature, with
    their supertraces, for cech_left 0, 1 and 2."""
    R = koszul_curvature()
    R2 = R.mul(R)
    assert len(R.terms) == 71 and len(R2.terms) == 130
    for a, b in ((R, R), (R2, R2), (R, R2)):
        check_pair(a, b, b)


def test_curvature_square_builds_one_fraction_per_non_integral_coefficient():
    """A count, not a time: R.R of the seed-1 koszul_affine curvature sums in
    ints and divides once per output coefficient, so it builds at most one
    Fraction per non-integral coefficient of the result (36), where adding
    Fraction products pair by pair built 288."""
    R = koszul_curvature()
    product, built = fraction_constructions(lambda: R.mul(R))
    non_integral = sum(
        type(c) is not int for f in product.terms.values() for c in f.num.terms.values()
    )
    assert non_integral == 36
    assert built <= non_integral, built


def test_tr_nabla_matches_with_the_per_pair_route(monkeypatch):
    """tr_nabla of the identity on the rank-16 Koszul object on A^4 and of
    O(2) on P^2, with random connections: the same canonical string with
    the per-pair products swapped in."""
    rng = random.Random(17)
    sch, P = koszul_space(rng, 4)
    objects = [(sch, P, 6)]
    p2 = build_scheme(P2)
    objects.append((p2, twist_p2(p2, 2), 4))
    for sch, P, trunc in objects:
        conn = curved_connection(rng, P)
        chain = HochschildChain.single(
            GeometricCategory(sch, trunc), trunc, 2, MorphismCochain.identity(P, trunc), ()
        )
        new = tr_nabla(chain, {P: conn}).canonical_string()
        with monkeypatch.context() as patch:
            patch.setattr(MatrixForm, "mul", per_pair_mul)
            patch.setattr(MatrixForm, "_supertrace_mul", per_pair_supertrace_mul)
            old = tr_nabla(chain, {P: conn}).canonical_string()
        assert new == old and new != "0"


# -- derivative tests ---------------------------------------------------------


def derivative_rings():
    """Rings with denominators: the P^1 overlap, the P^2 triple overlap and
    the overlaps of the cover of A^1 with the chart D(x - 1); and A^4."""
    a1 = build_scheme(three_patch_line())
    rings = [build_scheme(P1).intersection((0, 1)).ring]
    rings.append(build_scheme(P2).intersection((0, 1, 2)).ring)
    rings += [a1.intersection(t).ring for t in ((0, 2), (1, 2), (0, 1, 2))]
    assert any(len(g.terms) > 1 for r in rings for g in r.denominators)
    return rings + [koszul_ring(), coprime_ring()]


def derivative_values(rng, ring):
    """Random values, values with denominators, units, and values whose
    partials are all zero (constants, also over a denominator power that
    cancels)."""
    values = [mixed_value(rng, ring) for _ in range(4)]
    values.append(ring.const(Fraction(rng.randint(-5, 5), 3)))
    values.append(ring.zero())
    if ring.denominators:
        g = LocalFrac(ring, ring.denominators[0])
        values.append(g * g ** -1 * 7)
    return values


def assert_equal(x, y):
    assert x == y, f"{x} != {y}"


def check_derivatives(rng, ring, exact=True):
    nvars = len(ring.vars)
    same = assert_same_frac if exact else assert_equal
    for f in derivative_values(rng, ring):
        with long_division_everywhere():
            partials = [oracle_partial(f, i) for i in range(nvars)]
        grad = f.gradient()
        assert list(grad) == [i for i in range(nvars) if not partials[i].is_zero()]
        for i, p in grad.items():
            same(p, partials[i])
        for i in range(nvars):
            same(f.partial(i), partials[i])
        with long_division_everywhere():
            old_d = oracle_d_of_function(f)
        d = _d_of_function(f)
        assert set(d) == set(old_d)
        for key in d:
            same(d[key], old_d[key])
        for idxs in itertools.chain.from_iterable(
            itertools.combinations(range(nvars), k) for k in range(nvars + 1)
        ):
            skipped = f.gradient(skip=idxs)
            assert set(skipped) == set(grad) - set(idxs)
            with long_division_everywhere():
                old = checked_de_rham_d({idxs: f})
            pairs = _d_term(idxs, f)
            new = dict(pairs)
            assert len(new) == len(pairs)
            for got in (new, de_rham_d({idxs: f})):
                assert set(got) == set(old)
                for key in got:
                    same(got[key], old[key])
            if idxs == tuple(range(nvars)) or not grad:
                assert new == {}



def test_derivatives_match_the_oracles():
    rng = random.Random(2111)
    for ring in derivative_rings():
        for _ in range(8):
            check_derivatives(rng, ring)


def test_derivatives_match_on_generators_that_share_a_factor():
    rng = random.Random(2112)
    for _ in range(20):
        check_derivatives(rng, shared_factor_ring(), exact=False)


def test_d_form_squares_to_zero_and_matches_the_checked_d():
    rng = random.Random(2113)
    for ring in derivative_rings():
        for parities in ((0,), (0, 1)):
            value = mixed_matrix_form(rng, ring, parities, parities, nterms=8)
            d = value.d_form()
            assert d.d_form().is_zero()
            terms = {}
            for (r, c, idxs, m), f in value.terms.items():
                with long_division_everywhere():
                    piece = checked_de_rham_d({idxs: f})
                for nidxs, nf in piece.items():
                    key = (r, c, nidxs, m)
                    terms[key] = terms[key] + nf if key in terms else nf
            old = MatrixForm(ring, parities, parities, terms)
            assert str(d) == str(old)
            assert_same_terms(d, old)


def test_minus_dw_takes_every_nonzero_partial():
    """-dW of a potential with a variable it does not involve."""
    config = {
        "grading": "Z2",
        "dimension": 3,
        "patches": [{"name": "A3", "variables": ["x1", "x2", "x3"], "denominators": []}],
        "gluings": [],
        "potentials": ["x1^2*x2 - 3*x2"],
    }
    sch = build_scheme(config)
    got = cohomology._minus_dw_cochain(sch, 2).entries[(0,)]
    ring = sch.patch_ring(0)
    w = sch.potential(0)
    expected = {(0, 0, (i,), 0): -oracle_partial(w, i) for i in range(3)}
    expected = {k: v for k, v in expected.items() if not v.is_zero()}
    assert set(got.terms) == {(0, 0, (0,), 0), (0, 0, (1,), 0)}
    assert_same_terms(got, MatrixForm(ring, (0,), (0,), expected))
