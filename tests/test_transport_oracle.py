"""Differential tests of the overlap-transport kernels against the forms they
replaced: grlex long division for every divisor, RingMap.apply by
substitution for every map (monomial maps now move values by exponents),
forms.pullback recomputing d(image) on every call, wedge and de_rham_d adding
one piece at a time, de_rham_d taking every partial and LocalFrac.partial
adding a term for every generator in the denominator, MatrixForm.d_form and
pullback_matrix moving one term at a time through those oracles,
MatrixForm.mul testing every pair of terms, frame changes that rerooted each
pair transition into the bigger overlap's ring instead of pulling it back
along CoveredScheme.restriction and conjugated line-bundle endomorphisms
too, nabla_bracket pulling each pair's frame form back along every
restriction, the identity included, and hom_differential and nabla_bracket
splitting their argument by total parity.

The oracles run with ScalarPoly.divide_exact swapped for the long-division
oracle, so every LocalFrac they build is cancelled as before.  Results are
compared term by term (numerator terms, denominator multiplicities and keys),
not only by value."""

import contextlib
import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mfchern import cech, cohomology, connection, hochschild, mf, rings
from mfchern.cech import (
    TRIVIAL_LINE,
    CechCochain,
    MatrixForm,
    _cup,
    acw_product,
    cech_differential,
    form_derivative,
    product_sign,
    pullback_matrix,
)
from mfchern.connection import default_connection, frame_form, total_curvature
from mfchern.forms import (
    _dx_pullback,
    _merge_indices,
    _pullback_term,
    de_rham_d,
    pullback,
    wedge,
)
from mfchern.geometry import build_scheme, reroot
from mfchern.hochschild import GeometricCategory, HochschildChain, nabla_bracket, tr_nabla
from mfchern.mf import MatrixFactorization, MorphismCochain, hom_differential
from mfchern.rings import LocalFrac, Ring, RingMap, ScalarPoly, _check_same_ring

from .test_cech import TwistPlusTrivial, proj_line_three_patch, random_matrix_form
from .test_geometry import three_patch_line
from .test_hochschild import proj_pool
from .test_rings import random_frac, random_poly
from .test_trace_oracle import curved_connection, p2_bundle, twist_p2

P1 = {
    "grading": "Z2",
    "dimension": 1,
    "patches": [
        {"name": "U0", "variables": ["z"], "denominators": []},
        {"name": "U1", "variables": ["w"], "denominators": []},
    ],
    "gluings": [{"pair": [0, 1], "denominators": ["z"], "images": ["1/z"]}],
    "potentials": ["0", "0"],
}

P2 = {
    "grading": "Z",
    "dimension": 2,
    "patches": [
        {"name": "V0", "variables": ["y", "z"], "denominators": []},
        {"name": "V1", "variables": ["x", "z"], "denominators": []},
        {"name": "V2", "variables": ["x", "y"], "denominators": []},
    ],
    "gluings": [
        {"pair": [0, 1], "denominators": ["y"], "images": ["1/y", "z/y"]},
        {"pair": [0, 2], "denominators": ["z"], "images": ["1/z", "y/z"]},
        {"pair": [1, 2], "denominators": ["z"], "images": ["x/z", "1/z"]},
    ],
    "potentials": ["0", "0", "0"],
}

# P^1 glued along D(z + 1) by the Moebius coordinate w = z/(z + 1).
MOEBIUS_LINE = {
    "grading": "Z",
    "dimension": 1,
    "patches": [
        {"name": "M0", "variables": ["z"], "denominators": []},
        {"name": "M1", "variables": ["w"], "denominators": []},
    ],
    "gluings": [{"pair": [0, 1], "denominators": ["z + 1"], "images": ["z/(z + 1)"]}],
    "potentials": ["0", "0"],
}


# -- the replaced kernels, as they were ------------------------------------


def _split_by_total_parity(cochain):
    parts = {0: {}, 1: {}}
    for tup, mf in cochain.entries.items():
        for key, f in mf.terms.items():
            p = (len(tup) - 1 + mf.term_total_parity(key)) % 2
            parts[p].setdefault(tup, {})[key] = f
    out = {}
    for p, entries in parts.items():
        if entries:
            out[p] = CechCochain(
                cochain.scheme,
                cochain.source,
                cochain.target,
                {
                    tup: MatrixForm(
                        cochain.scheme.intersection(tup).ring,
                        cochain.target.parities(),
                        cochain.source.parities(),
                        terms,
                    )
                    for tup, terms in entries.items()
                },
                cochain.u_truncation,
            )
    return out


def long_division(self, divisor):
    """Exact quotient self / divisor, or None when division is not exact."""
    assert isinstance(divisor, ScalarPoly) and divisor.vars == self.vars
    assert not divisor.is_zero(), "division by zero polynomial"
    if self.is_zero():
        return ScalarPoly.zero(self.vars)
    lead_e, lead_c = divisor.leading()
    remainder = self
    qterms = {}
    while not remainder.is_zero():
        re, rc = remainder.leading()
        qe = tuple(a - b for a, b in zip(re, lead_e))
        if any(x < 0 for x in qe):
            return None
        qc = Fraction(rc) / lead_c
        qterms[qe] = qterms.get(qe, Fraction(0)) + qc
        remainder = remainder - divisor * ScalarPoly(self.vars, {qe: qc})
    return ScalarPoly(self.vars, qterms)


@contextlib.contextmanager
def long_division_everywhere():
    fast = ScalarPoly.divide_exact
    ScalarPoly.divide_exact = long_division
    try:
        yield
    finally:
        ScalarPoly.divide_exact = fast


def substitute_apply(ring_map, a):
    """RingMap.apply by substitution, with the denominator inverses computed
    the way the lazy cache computes them."""
    out = a.num.substitute(ring_map.images, ring_map.target)
    for j, m in enumerate(a.den):
        if m:
            g = ring_map.source.denominators[j]
            out = out * g.substitute(ring_map.images, ring_map.target).inverse() ** m
    return out


def oracle_partial(value, i):
    """LocalFrac.partial adding -m * num * dg / g^(m+1) for every generator g
    in the denominator, also when dg is zero."""
    ring = value.ring
    out = LocalFrac(ring, value.num.partial(i), value.den)
    for j, g in enumerate(ring.denominators):
        m = value.den[j]
        if m:
            bump = tuple(x + (k == j) for k, x in enumerate(value.den))
            out = out + LocalFrac(ring, value.num * g.partial(i) * (-m), bump)
    return out


def oracle_d_of_function(value):
    """The exterior derivative of a function with every partial taken."""
    terms = {}
    for i in range(len(value.ring.vars)):
        p = oracle_partial(value, i)
        if not p.is_zero():
            terms[(i,)] = p
    return terms


def nonzero_form(terms):
    return {idxs: c for idxs, c in terms.items() if not c.is_zero()}


def add_forms(a, b):
    """a + b the way a form container added them: the zero terms of b
    dropped, then coefficientwise sums, then zero sums dropped."""
    terms = dict(a)
    for idxs, c in nonzero_form(b).items():
        terms[idxs] = terms[idxs] + c if idxs in terms else c
    return nonzero_form(terms)


def piecewise_de_rham_d(form):
    out = {}
    for idxs, coeff in form.items():
        dcoeff = oracle_d_of_function(coeff)
        for (i,), p in dcoeff.items():
            sign, merged = _merge_indices((i,), idxs)
            if sign == 0:
                continue
            out = add_forms(out, {merged: p * sign})
    return out


def piecewise_wedge(a, b):
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            sign, merged = _merge_indices(ia, ib)
            if sign == 0:
                continue
            out = add_forms(out, {merged: ca * cb * sign})
    return out


def recomputing_pullback(ring_map, form):
    image_differentials = [oracle_d_of_function(img) for img in ring_map.images]
    out = {}
    for idxs, coeff in form.items():
        piece = nonzero_form({(): substitute_apply(ring_map, coeff)})
        for i in idxs:
            piece = piecewise_wedge(piece, image_differentials[i])
        out = add_forms(out, piece)
    return out


def per_term_matrix(value, ring, move):
    """The MatrixForm over ring whose entry at (row, col, ., u power) sums
    move({dx indices: coefficient}) over value's terms at (row, col, ., u
    power)."""
    terms = {}
    for (r, c, idxs, m), f in value.terms.items():
        for nidxs, nf in move({idxs: f}).items():
            key = (r, c, nidxs, m)
            terms[key] = terms[key] + nf if key in terms else nf
    return MatrixForm(ring, value.row_parities, value.col_parities, terms)


def all_pairs_mul(self, other, cech_left=0):
    terms = {}
    for (r1, c1, i1, m1), f1 in self.terms.items():
        e1 = (self.row_parities[r1] + self.col_parities[c1]) % 2
        for (r2, c2, i2, m2), f2 in other.terms.items():
            if c1 != r2:
                continue
            wsign, merged = _merge_indices(i1, i2)
            if wsign == 0:
                continue
            e2 = (other.row_parities[r2] + other.col_parities[c2]) % 2
            sign = wsign * product_sign(cech_left, e1, len(i2), e2)
            key = (r1, c2, merged, m1 + m2)
            val = f1 * f2 * sign
            terms[key] = terms[key] + val if key in terms else val
    return MatrixForm(self.ring, self.row_parities, other.col_parities, terms)


def oracle_reroot(ring, value):
    """Reinterpret a LocalFrac in a ring with the same variables and a
    superset of the denominator generators."""
    if value.ring.vars != ring.vars:
        raise ValueError(f"cannot reroot {value.ring.name} into {ring.name}: variables differ")
    num = ScalarPoly(ring.vars, value.num.terms)
    out = LocalFrac(ring, num)
    for g, m in zip(value.ring.denominators, value.den):
        if m:
            g2 = ScalarPoly(ring.vars, g.terms)
            out = out * LocalFrac(ring, g2).unit_inverse() ** m
    return out


def oracle_in_ring(ring, m):
    """m with its entries rerooted into ring when ring is another ring (same
    variables, more denominator generators); m itself otherwise."""
    if ring.name == m.ring.name:
        _check_same_ring(m.ring, ring)
        return m
    terms = {key: oracle_reroot(ring, f) for key, f in m.terms.items()}
    return MatrixForm(ring, m.row_parities, m.col_parities, terms)


def oracle_transition(bundle, ring, i, j):
    """VectorBundle.transition; the trivial line and the identity test double
    answered with the identity."""
    if not bundle.transitions:
        return MatrixForm.identity(ring, bundle.parities())
    return oracle_in_ring(ring, bundle.transitions[(i, j)])


def oracle_transition_inverse(bundle, ring, i, j):
    if not bundle.inverses:
        return MatrixForm.identity(ring, bundle.parities())
    return oracle_in_ring(ring, bundle.inverses[(i, j)])


def oracle_intersection_images(sch, tup, j):
    """The images of patch j's variables that Intersection.restrictions[j]
    held for the overlap tup."""
    ring = sch.intersection(tup).ring
    if j == tup[0]:
        return tuple(ring.var(v) for v in sch.patch_ring(j).vars)
    return tuple(oracle_reroot(ring, img) for img in sch.pair_data[(tup[0], j)][1])


def oracle_transport(self, small, big, value=None):
    """Move the entry at the small tuple into the big tuple's ring and
    frame: pull back coefficients and forms, then change frames by the
    bundle transitions when the leading index changes."""
    small, big = tuple(small), tuple(big)
    if value is None:
        value = self.entries[small]
    if small == big:
        return value
    rm = self.scheme.restriction(small, big)
    moved = pullback_matrix(rm, value)
    if small[0] != big[0]:
        ring = self.scheme.intersection(big).ring
        g_t = oracle_transition(self.target, ring, big[0], small[0])
        g_s = oracle_transition_inverse(self.source, ring, big[0], small[0])
        moved = g_t.mul(moved).mul(g_s)
    return moved


def scanning_cup(a, b, product):
    """cech._cup as it was: for each pair of entry sizes, scan every nonempty
    tuple of the joint size and keep those whose front and back faces are
    entries."""
    trunc = min(a.u_truncation, b.u_truncation)
    by_size_a = {}
    for t in a.entries:
        by_size_a.setdefault(len(t), set()).add(t)
    by_size_b = {}
    for t in b.entries:
        by_size_b.setdefault(len(t), set()).add(t)
    out = {}
    for size_a, fronts in by_size_a.items():
        for size_b, backs in by_size_b.items():
            size = size_a + size_b - 1
            for big in a.scheme.tuples(size):
                front = big[: size_a]
                back = big[size_a - 1 :]
                if front not in fronts or back not in backs:
                    continue
                left = a.transport(front, big)
                right = b.transport(back, big)
                value = product(left, right, size_a - 1).truncate_u(trunc)
                if value.is_zero():
                    continue
                out[big] = out[big] + value if big in out else value
    return out, trunc


@contextlib.contextmanager
def rerooted_transport_everywhere():
    fast = CechCochain.transport
    CechCochain.transport = oracle_transport
    try:
        yield
    finally:
        CechCochain.transport = fast


def oracle_frame_differences(P, conn, u_truncation):
    scheme = P.scheme
    bundle = P.bundle
    conn_cochain = conn.cochain(u_truncation)
    entries = {}
    for (i, j) in scheme.tuples(2):
        ring = scheme.intersection((i, j)).ring
        g = oracle_transition(bundle, ring, i, j)
        ginv = oracle_transition_inverse(bundle, ring, i, j)
        # nabla_j in the i frame is d + g d(g^{-1}) + g C_j g^{-1}
        value = g.mul(ginv.d_form()).scale(-1)
        if (i,) in conn_cochain.entries:
            value = value + conn_cochain.transport((i,), (i, j))
        if (j,) in conn_cochain.entries:
            value = value - conn_cochain.transport((j,), (i, j))
        if not value.is_zero():
            entries[(i, j)] = value
    return CechCochain(scheme, bundle, bundle, entries, u_truncation)


def oracle_nabla_bracket(cochain, conn_target, conn_source):
    trunc = cochain.u_truncation
    scheme = cochain.scheme
    out = form_derivative(cochain)
    ct = conn_target.cochain(trunc)
    cs = conn_source.cochain(trunc)
    for parity, part in _split_by_total_parity(cochain).items():
        if part.is_zero():
            continue
        if not ct.is_zero():
            out = out + acw_product(ct, part)
        if not cs.is_zero():
            out = out - acw_product(part, cs).scale((-1) ** parity)
        gauge = {}
        for t, value in part.entries.items():
            if len(t) < 2:
                continue
            ring = scheme.intersection(t).ring
            g = oracle_transition(cochain.source, ring, t[0], t[-1])
            ginv = oracle_transition_inverse(cochain.source, ring, t[0], t[-1])
            theta = g.mul(ginv.d_form()).scale(-1)
            term = value.mul(theta, cech_left=len(t) - 1)
            if not term.is_zero():
                gauge[t] = term
        if gauge:
            correction = CechCochain(
                scheme, cochain.source, cochain.target, gauge, trunc
            )
            out = out + correction.scale((-1) ** parity)
    return out


# -- term-by-term comparison -------------------------------------------------


def assert_same_poly(p, q):
    """Same variables, terms and coefficient types: Fraction(2, 1) == 2, so
    comparing values alone would miss an integral coefficient left a Fraction."""
    assert p.vars == q.vars
    assert p.terms == q.terms, f"{p} vs {q}"
    types = [(e, type(c).__name__, type(q.terms[e]).__name__) for e, c in p.terms.items()]
    assert all(a == b for _, a, b in types), f"coefficient types differ: {p} vs {q}: {types}"


def assert_same_frac(a, b):
    assert a.ring.name == b.ring.name and a.ring.vars == b.ring.vars
    assert a.ring.denominators == b.ring.denominators
    assert_same_poly(a.num, b.num)
    assert a.den == b.den, f"{a} has den {a.den}, {b} has {b.den}"


def assert_same_terms(x, y):
    """x and y are both MatrixForms or both forms (dicts of dx index tuples)."""
    xt, yt = getattr(x, "terms", x), getattr(y, "terms", y)
    assert set(xt) == set(yt), f"{x} vs {y}"
    for key in xt:
        assert_same_frac(xt[key], yt[key])


# -- inputs --------------------------------------------------------------------


def restriction_maps(config):
    sch = build_scheme(config)
    maps = []
    for size in range(1, sch.npatches() + 1):
        for big in sch.tuples(size):
            for k in range(1, size + 1):
                for small in itertools.combinations(big, k):
                    maps.append(sch.restriction(small, big))
    return maps


def cover_restriction_maps():
    return [
        rm
        for config in (P1, P2, MOEBIUS_LINE, three_patch_line())
        for rm in restriction_maps(config)
    ]


def poly_from(variables, data):
    return ScalarPoly(variables, {tuple(e): Fraction(n, d) for e, n, d in data})


def random_divisor(rng, variables, monomial):
    nvars = len(variables)
    if monomial:
        e = tuple(rng.randint(0, 2) for _ in range(nvars))
        return ScalarPoly(variables, {e: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))})
    while True:
        d = random_poly_in(rng, variables, degree=2, terms=rng.randint(2, 3))
        if len(d.terms) > 1:
            return d


def random_poly_in(rng, variables, degree=2, terms=3):
    return random_poly(rng, Ring("P", variables), degree=degree, terms=terms)


def division_cases(rng, variables):
    """(numerator, divisor) pairs: exact and inexact, monomial and not,
    including zero and constant numerators and constant divisors."""
    cases = []
    for monomial in (True, True, False):
        d = random_divisor(rng, variables, monomial)
        q = random_poly_in(rng, variables, degree=2, terms=rng.randint(1, 4))
        cases.append((q * d, d))
        cases.append((q * d + random_poly_in(rng, variables, degree=3, terms=2), d))
        cases.append((random_poly_in(rng, variables, degree=3, terms=4), d))
        cases.append((ScalarPoly.zero(variables), d))
        cases.append((ScalarPoly.const(variables, Fraction(rng.randint(-5, 5), 3)), d))
    cases.append((random_poly_in(rng, variables), ScalarPoly.const(variables, Fraction(-2, 7))))
    return cases


def assert_same_division(p, d):
    new = p.divide_exact(d)
    old = long_division(p, d)
    assert (new is None) == (old is None), f"{p} / {d}: {new} vs {old}"
    if new is not None:
        assert_same_poly(new, old)
    return new is not None


def random_form(rng, ring, nterms=3):
    nvars = len(ring.vars)
    terms = {}
    for _ in range(nterms):
        idxs = tuple(sorted(rng.sample(range(nvars), rng.randint(0, nvars))))
        f = random_frac(rng, ring, degree=2, den_bound=2)
        terms[idxs] = terms[idxs] + f if idxs in terms else f
    return nonzero_form(terms)


def check_map(rng, rm, trials):
    for _ in range(trials):
        a = random_frac(rng, rm.source, degree=3, den_bound=2)
        new = rm.apply(a)
        with long_division_everywhere():
            old = substitute_apply(rm, a)
        assert_same_frac(new, old)
        form = random_form(rng, rm.source)
        new = pullback(rm, form)
        with long_division_everywhere():
            old = recomputing_pullback(rm, form)
        assert_same_terms(new, old)


def mul_rings():
    x = ScalarPoly.variable(("x", "y"), "x")
    y = ScalarPoly.variable(("x", "y"), "y")
    one = ScalarPoly.const(("x", "y"), 1)
    return [
        Ring("A", ("x", "y")),
        Ring("B", ("x", "y"), (x, y)),
        Ring("C", ("x", "y"), (x - one, x * y + one)),
    ]


def check_mul(rng, ring):
    parities = [(0,), (0, 1), (1, 0, 1)]
    rows, mid, cols = (rng.choice(parities) for _ in range(3))
    a = random_matrix_form(rng, ring, rows, mid, max_u=2, nterms=rng.randint(0, 6))
    b = random_matrix_form(rng, ring, mid, cols, max_u=2, nterms=rng.randint(0, 6))
    cech_left = rng.randint(0, 2)
    new = a.mul(b, cech_left=cech_left)
    with long_division_everywhere():
        old = all_pairs_mul(a, b, cech_left=cech_left)
    assert new.row_parities == old.row_parities and new.col_parities == old.col_parities
    assert_same_terms(new, old)


def check_forms(rng, ring):
    a, b = random_form(rng, ring), random_form(rng, ring)
    with long_division_everywhere():
        old_wedge, old_d = piecewise_wedge(a, b), piecewise_de_rham_d(a)
    assert_same_terms(wedge(a, b), old_wedge)
    assert_same_terms(de_rham_d(a), old_d)


# -- tests -----------------------------------------------------------------------


def test_monomial_division_matches_long_division():
    rng = random.Random(20261018)
    exact = {True: 0, False: 0}
    for variables in (("x",), ("x", "y"), ("x", "y", "z")):
        for _ in range(40):
            for p, d in division_cases(rng, variables):
                exact[assert_same_division(p, d)] += 1
    assert exact[True] >= 100 and exact[False] >= 100, exact


def test_division_in_no_variables():
    p = ScalarPoly.const((), Fraction(3, 4))
    assert_same_division(p, ScalarPoly.const((), Fraction(-2)))


@settings(max_examples=200, deadline=None, database=None)
@given(
    data=st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(-6, 6),
            st.integers(1, 4),
        ),
        max_size=5,
    ),
    lead=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    coeff=st.integers(-5, 5).filter(bool),
    rest=st.lists(
        st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), st.just(1)),
        max_size=2,
    ),
    multiply=st.booleans(),
)
def test_division_property(data, lead, coeff, rest, multiply):
    variables = ("x", "y")
    p = poly_from(variables, data)
    d = poly_from(variables, [(lead, coeff, 1)] + rest)
    if d.is_zero():
        return
    if multiply:
        p = p * d
    assert_same_division(p, d)


def one_term(polys):
    return all(len(p.terms) == 1 for p in polys)


def is_inclusion(rm):
    return rm.source.vars == rm.target.vars and all(
        str(img) == v for img, v in zip(rm.images, rm.target.vars)
    )


def test_monomial_maps_detected_by_their_images():
    """A map moves values by exponents exactly when every generator of both
    rings and the numerator of every image is one term: every restriction of
    the covers of P^1 and P^2, and a coordinate inclusion between such rings,
    but no map into a ring localized at x - 1 or z + 1."""
    for config in (P1, P2, MOEBIUS_LINE, three_patch_line()):
        for rm in restriction_maps(config):
            expected = one_term(rm.source.denominators + rm.target.denominators) and one_term(
                img.num for img in rm.images
            )
            assert (rm._monomial is not None) == expected, rm.images
            if config in (P1, P2):
                assert expected
            elif not one_term(rm.target.denominators):
                assert not expected
    A = Ring("A", ("x", "y"))
    assert RingMap.identity(A)._monomial == ((1, (1, 0), ()), (1, (0, 1), ()))
    assert RingMap(A, A, (A.var("y"), A.var("x") * Fraction(-1, 2)))._monomial is not None
    assert RingMap(A, A, (A.var("x") + A.var("y"), A.var("y")))._monomial is None
    assert RingMap(A, A, (A.zero(), A.var("y")))._monomial is None
    x = ScalarPoly.variable(("x", "y"), "x")
    shifted = Ring("D", ("x", "y"), (x - ScalarPoly.const(("x", "y"), 1),))
    assert RingMap(A, shifted, (shifted.var("x"), shifted.var("y")))._monomial is None
    assert RingMap(shifted, A, (A.var("y"), A.var("x")))._monomial is None


def test_restriction_maps_match_substitution():
    rng = random.Random(2109)
    for rm in cover_restriction_maps():
        check_map(rng, rm, trials=6)


def test_non_inclusion_maps_on_one_ring_match_substitution():
    rng = random.Random(14372)
    x = ScalarPoly.variable(("x", "y"), "x")
    y = ScalarPoly.variable(("x", "y"), "y")
    B = Ring("B", ("x", "y"), (x, y))
    maps = [
        RingMap(B, B, (B.var("y"), B.var("x"))),
        RingMap(B, B, (B.var("x") * 3, B.var("y") ** -1)),
        RingMap.identity(B),
    ]
    for rm in maps:
        check_map(rng, rm, trials=15)


@settings(max_examples=30, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_restriction_maps_property(rng):
    maps = cover_restriction_maps()
    check_map(rng, rng.choice(maps), trials=2)


def coefficient_maps():
    """Monomial maps whose generators and images carry coefficients other
    than 1, so that moving a term and lifting it to the common denominator
    scale its coefficient."""
    vs, ts = ("x", "y"), ("u", "v")
    x, y = (ScalarPoly.variable(vs, v) for v in vs)
    u, v = (ScalarPoly.variable(ts, t) for t in ts)
    S = Ring("S", vs, (x * 2, y * y * -3))
    T = Ring("T", ts, (u * Fraction(1, 2), v * 3))
    inv_u = T.var("u").unit_inverse()
    return [
        RingMap(S, T, (inv_u * Fraction(3, 2), T.var("v") * inv_u * Fraction(-1, 2))),
        RingMap(S, S, (S.var("x") ** -1, S.var("y") * S.var("x") ** 2 * 5)),
        RingMap(Ring("A", vs), S, (S.var("x"), S.var("y"))),
    ]


MONOMIAL_MAPS = restriction_maps(P1) + restriction_maps(P2) + coefficient_maps()
VALUE_COEFFS = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_monomial_apply_matches_substitution_property(data):
    """Along every restriction of the covers of P^1 and P^2 and the maps with
    coefficients, moving by exponents gives the numerator terms and
    denominator that substitution and the denominator inverses give, on
    values with denominators, zero and constants."""
    rm = data.draw(st.sampled_from(MONOMIAL_MAPS))
    assert rm._monomial is not None
    src = rm.source
    exps = st.tuples(*[st.integers(0, 3)] * len(src.vars))
    num = ScalarPoly(src.vars, data.draw(st.dictionaries(exps, VALUE_COEFFS, max_size=4)))
    den = data.draw(st.tuples(*[st.integers(0, 2)] * len(src.denominators)))
    a = LocalFrac(src, num, den)
    new = rm.apply(a)
    with long_division_everywhere():
        old = substitute_apply(rm, a)
    assert_same_frac(new, old)
    for c in new.num.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def test_substitution_only_off_monomial_maps(monkeypatch):
    """The covers of P^1 and P^2 never substitute once the denominator
    inverses are cached; on the A^1 cover localized at x - 1 and the P^1
    glued by z/(z + 1), every map into a ring with a generator of more than
    one term substitutes unless it is a coordinate inclusion, and no
    inclusion does."""
    calls = []
    real = ScalarPoly.substitute

    def spy(self, images, target_ring):
        calls.append(target_ring.name)
        return real(self, images, target_ring)

    monkeypatch.setattr(ScalarPoly, "substitute", spy)
    for config in (P1, P2, MOEBIUS_LINE, three_patch_line()):
        substituted = 0
        for rm in restriction_maps(config):
            src = rm.source
            num = ScalarPoly.variable(src.vars, src.vars[0]) * 3 + ScalarPoly.const(src.vars, 2)
            a = LocalFrac(src, num, (1,) * len(src.denominators))
            rm.apply(a)
            calls.clear()
            rm.apply(a)
            off_path = rm._monomial is None and rm._inclusion is None
            assert bool(calls) == off_path, rm.images
            if not one_term(rm.target.denominators):
                assert bool(calls) != is_inclusion(rm)
            substituted += bool(calls)
        # the gluings of the three-patch line send x to x: only inclusions
        assert (substituted == 0) == (config is not MOEBIUS_LINE), substituted


# -- values that are already canonical ------------------------------------------


def shared_factor_rings():
    """Rings in x localized at x - 1, x^2 - 1 and x^2 + 1, the first two of
    which share the factor x - 1, with their generators in several orders."""
    vs = ("x",)
    x, one = ScalarPoly.variable(vs, "x"), ScalarPoly.const(vs, 1)
    a, b, c = x - one, x * x - one, x * x + one
    orders = [(), (a,), (b,), (c,), (a, b), (b, a), (b, c), (a, c, b), (c, b, a)]
    return [Ring(f"L{k}", vs, gens) for k, gens in enumerate(orders)]


def shared_factor_maps():
    """The map x -> x between every two of shared_factor_rings() whose
    source generators are all target generators."""
    rs = shared_factor_rings()
    return [
        RingMap(s, t, (t.var("x"),))
        for s in rs
        for t in rs
        if all(g in t.denominators for g in s.denominators)
    ]


def inclusion_maps():
    maps = cover_restriction_maps() + shared_factor_maps()
    return [rm for rm in maps if rm._inclusion is not None]


def draw_value(data, ring, max_den=2):
    exps = st.tuples(*[st.integers(0, 3)] * len(ring.vars))
    num = ScalarPoly(ring.vars, data.draw(st.dictionaries(exps, VALUE_COEFFS, max_size=4)))
    den = data.draw(st.tuples(*[st.integers(0, max_den)] * len(ring.denominators)))
    return LocalFrac(ring, num, den)


def assert_same_as_substitution(rm, a):
    """rm.apply(a) equals substitution, prints the same and has the same
    numerator terms and multiplicities."""
    new = rm.apply(a)
    with long_division_everywhere():
        old = substitute_apply(rm, a)
    assert new == old and str(new) == str(old), (rm.images, a, new, old)
    assert_same_frac(new, old)
    return new


def test_inclusions_detected():
    """Every restriction that keeps the leading index is an inclusion, on the
    covers with one-term and with multi-term generators; x -> x between the
    shared-factor rings is one exactly when no target generator listed
    before a source generator divides it."""
    for rm in cover_restriction_maps():
        assert (rm._inclusion is not None) == is_inclusion(rm), rm.images
    for rm in shared_factor_maps():
        dens = rm.target.denominators
        expected = all(
            long_division(g, h) is None
            for g in rm.source.denominators
            for h in dens[: dens.index(g)]
        )
        assert (rm._inclusion is not None) == expected, (rm.source.denominators, dens)
        if expected:
            assert [dens[p] for p in rm._inclusion] == list(rm.source.denominators)
    assert len(inclusion_maps()) >= 40


INCLUSIONS = inclusion_maps()
SHARED_FACTOR_MAPS = shared_factor_maps()


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_inclusion_apply_matches_substitution_property(data):
    """Along every inclusion, and along x -> x between rings sharing the
    factor x - 1 whether it is an inclusion or not, the value equals what
    substitution gives and prints the same; an inclusion keeps the numerator
    object and only moves the multiplicities."""
    rm = data.draw(st.sampled_from(INCLUSIONS + SHARED_FACTOR_MAPS))
    a = draw_value(data, rm.source)
    new = assert_same_as_substitution(rm, a)
    if rm._inclusion is not None:
        assert new.ring is rm.target and new.num is a.num
        assert sum(new.den) == sum(a.den)


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_reroot_matches_substitution_property(data):
    """reroot into every overlap ring of the covers, from the patch ring of
    the tuple's leading index, goes through an inclusion; it gives the value
    and string that substitution gives and that the old reroot oracle gives."""
    config = data.draw(st.sampled_from([P1, P2, MOEBIUS_LINE, three_patch_line()]))
    sch = build_scheme(config)
    tup = data.draw(st.sampled_from([t for n in (2, 3) for t in sch.tuples(n)]))
    small, big = sch.patch_ring(tup[0]), sch.intersection(tup).ring
    a = draw_value(data, small)
    new = reroot(big, a)
    with long_division_everywhere():
        old = substitute_apply(RingMap(small, big, tuple(big.var(v) for v in big.vars)), a)
        oracle = oracle_reroot(big, a)
    assert new.num is a.num
    assert new == old == oracle and str(new) == str(old) == str(oracle)


def test_pullback_term_along_an_inclusion_keeps_the_term():
    rng = random.Random(2121)
    for rm in INCLUSIONS:
        nvars = len(rm.source.vars)
        for idxs in [()] + [tuple(range(k, nvars)) for k in range(nvars)]:
            coeff = random_frac(rng, rm.source, degree=2, den_bound=2)
            got = _pullback_term(rm, idxs, coeff)
            if coeff.is_zero():
                assert got == ()
                continue
            ((key, moved),) = got
            assert key == idxs and moved.num is coeff.num
            with long_division_everywhere():
                expected = recomputing_pullback(rm, {idxs: coeff})
            assert_same_terms({key: moved}, expected)


def test_inclusions_never_cancel_substitute_or_invert(monkeypatch):
    """Applying an inclusion, pulling a term back along it and rerooting call
    none of _cancel, ScalarPoly.substitute and RingMap._denominator_inverse."""
    rng = random.Random(212)
    values = {
        id(rm): [random_frac(rng, rm.source, degree=3, den_bound=2) for _ in range(4)]
        for rm in INCLUSIONS
    }
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(rings, "_cancel", spy("_cancel", rings._cancel))
    monkeypatch.setattr(ScalarPoly, "substitute", spy("substitute", ScalarPoly.substitute))
    monkeypatch.setattr(
        RingMap, "_denominator_inverse", spy("_denominator_inverse", RingMap._denominator_inverse)
    )
    for rm in INCLUSIONS:
        for a in values[id(rm)]:
            rm.apply(a)
            _pullback_term(rm, (0,), a)
            reroot(rm.target, a)
    assert calls == []
    rm = split_map()
    rm.apply(rm.source.var("x") * 3)
    assert "substitute" in calls


def split_map():
    """x -> x from the ring localized at x^2 - 1 into the one localized at
    x - 1, x + 1 and x^2 - 1 in that order, where x - 1 divides x^2 - 1 before
    it is reached: substitution inverts x^2 - 1 there as 1/((x - 1)(x + 1)),
    which moving the multiplicity would not give, so it is no inclusion."""
    vs = ("x",)
    x, one = ScalarPoly.variable(vs, "x"), ScalarPoly.const(vs, 1)
    square = Ring("Q", vs, (x * x - one,))
    split = Ring("S", vs, (x - one, x + one, x * x - one))
    return RingMap(square, split, (split.var("x"),))


def test_non_inclusions_stay_on_their_old_path():
    """x -> 2x and the swap (x, y) -> (y, x), identity-looking maps into
    rings that lack a source generator, and split_map() are no inclusions,
    and still agree with substitution term by term."""
    rng = random.Random(21)
    vs = ("x", "y")
    x, y = (ScalarPoly.variable(vs, v) for v in vs)
    B = Ring("B", vs, (x, y))
    D = Ring("D", vs, (x * y,))
    ws = ("x",)
    w, w1 = ScalarPoly.variable(ws, "x"), ScalarPoly.const(ws, 1)
    square = Ring("Q", ws, (w * w - w1,))
    pair = Ring("P", ws, (w - w1, w + w1))
    monomial = [
        RingMap(B, B, (B.var("x") * 2, B.var("y"))),
        RingMap(B, B, (B.var("y"), B.var("x"))),
        RingMap(B, D, (D.var("x"), D.var("y"))),
    ]
    other = [RingMap(square, pair, (pair.var("x"),)), split_map()]
    for rm in monomial + other:
        assert rm._inclusion is None, rm.images
    assert all(rm._monomial is not None for rm in monomial)
    a = LocalFrac(split_map().source, w1, (1,))
    assert str(split_map().apply(a)) == "1/(x - 1)*(x + 1)"
    for rm in monomial:
        check_map(rng, rm, trials=8)
    for rm in other:
        for _ in range(30):
            assert_same_as_substitution(rm, random_frac(rng, rm.source, degree=3, den_bound=2))


CANONICAL_RINGS = (
    mul_rings() + shared_factor_rings()[4:] + [build_scheme(P2).intersection((0, 1, 2)).ring]
)
SCALARS = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=5)
)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_negation_and_scaling_match_canonicalisation_property(data):
    """-a, a * q and q * a for an int or Fraction q, zero included, have the
    terms and multiplicities that canonicalising the new numerator gives;
    MatrixForm.scale(q) has those of multiplying every term by the constant
    q as a value of the ring."""
    ring = data.draw(st.sampled_from(CANONICAL_RINGS))
    a = draw_value(data, ring)
    q = data.draw(SCALARS)
    with long_division_everywhere():
        neg = LocalFrac._of(ring, -a.num, a.den)
        scaled = LocalFrac._of(ring, a.num * q, a.den)
    assert_same_frac(-a, neg)
    assert_same_frac(a * q, scaled)
    assert_same_frac(q * a, scaled)
    m = MatrixForm(ring, (0, 1), (0, 1), {(0, 0, (), 0): a, (1, 0, (), 1): -a + 1})
    expected = {k: f * ring.const(q) for k, f in m.terms.items()}
    assert_same_terms(m.scale(q), nonzero_form(expected))


def check_skipped_partials(rng, ring):
    """partial and de_rham_d against the oracles that take every partial and
    every generator term: on top-degree forms, on forms dx_i whose index
    tuple holds the variable differentiated, and on random forms."""
    nvars = len(ring.vars)
    top = tuple(range(nvars))
    f = random_frac(rng, ring, degree=3, den_bound=2)
    for i in range(nvars):
        with long_division_everywhere():
            old = oracle_partial(f, i)
        assert_same_frac(f.partial(i), old)
    forms = [{top: f}, random_form(rng, ring)] + [{(i,): f} for i in range(nvars)]
    for form in forms:
        with long_division_everywhere():
            old = piecewise_de_rham_d(nonzero_form(form))
        assert_same_terms(de_rham_d(nonzero_form(form)), old)
    assert de_rham_d(nonzero_form({top: f})) == {}


def test_skipped_partials_match_oracles():
    rng = random.Random(2109143)
    triple = build_scheme(P2).intersection((0, 1, 2)).ring
    assert triple.vars == ("y", "z") and len(triple.denominators) == 2
    for ring in [triple] + mul_rings():
        for _ in range(40):
            check_skipped_partials(rng, ring)


def test_dx_pullbacks_cached_per_map():
    sch = build_scheme(P2)
    rm = sch.restriction((1,), (0, 1))
    form = {(0, 1): rm.source.one()}
    first = pullback(rm, form)
    assert set(rm._dx_pullbacks) == {(0, 1)}
    cached = rm._dx_pullbacks[(0, 1)]
    assert _dx_pullback(rm, (0, 1)) is cached and _dx_pullback(rm, (0, 1)) is cached
    assert_same_terms(pullback(rm, form), first)
    with long_division_everywhere():
        assert_same_terms(first, recomputing_pullback(rm, form))


def test_indexed_mul_matches_all_pairs():
    rng = random.Random(5)
    for ring in mul_rings():
        for _ in range(60):
            check_mul(rng, ring)


@settings(max_examples=60, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_indexed_mul_property(rng):
    check_mul(rng, rng.choice(mul_rings()))


def test_accumulating_wedge_and_d_match_piecewise():
    rng = random.Random(17)
    for ring in mul_rings():
        for _ in range(30):
            check_forms(rng, ring)


@settings(max_examples=40, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_accumulating_wedge_and_d_property(rng):
    check_forms(rng, rng.choice(mul_rings()))


def test_matrix_d_form_and_pullback_match_per_term_oracles():
    rng = random.Random(10)
    moved = 0
    for config in (P1, P2):
        for rm in restriction_maps(config):
            for parities in ((0,), (0, 1)):
                value = random_matrix_form(rng, rm.source, parities, parities, max_u=2, nterms=5)
                with long_division_everywhere():
                    old_d = per_term_matrix(value, value.ring, piecewise_de_rham_d)
                    old_pullback = per_term_matrix(
                        value, rm.target, lambda form: recomputing_pullback(rm, form)
                    )
                assert_same_terms(value.d_form(), old_d)
                new_pullback = pullback_matrix(rm, value)
                assert new_pullback.ring is rm.target
                assert_same_terms(new_pullback, old_pullback)
                moved += not new_pullback.is_zero() and not is_inclusion(rm)
    assert moved >= 10, moved


def test_one_pass_pullback_matrix_matches_termwise_forms_pullback():
    """pullback_matrix moves each checked term once through the kernel of
    forms.pullback; the result is the sum of forms.pullback over the terms,
    along every restriction of P^2 (monomial maps, two-index dx terms) and of
    the three-patch line (coordinate inclusions into rings localized at
    x - 1)."""
    rng = random.Random(16)
    wide = 0
    for config in (P2, three_patch_line()):
        for rm in restriction_maps(config):
            for parities in ((0,), (0, 1), (1, 0, 1)):
                value = random_matrix_form(rng, rm.source, parities, parities, max_u=3, nterms=6)
                expected = per_term_matrix(value, rm.target, lambda form: pullback(rm, form))
                got = pullback_matrix(rm, value)
                assert got.ring is rm.target
                assert_same_terms(got, expected)
                wide += any(len(key[2]) > 1 and key[3] > 0 for key in value.terms)
    assert wide >= 10, wide


# -- frame changes ------------------------------------------------------------


def frame_objects():
    """(scheme, factorizations): O(n) for n = 1, 2, 3 and O + O(1)[odd] on the
    three-chart projective plane; the section and the rank-four object on the
    projective line."""
    p2 = build_scheme(P2)
    twists = [twist_p2(p2, n) for n in (1, 2, 3)]
    yield p2, twists + [MatrixFactorization(p2_bundle(p2, (0, 1), (0, 1)), [[[0, 0], [0, 0]]] * 3)]
    sch, pool = proj_pool()
    yield sch, [P for P, _twists in pool[:2]]


def frame_bundles():
    for sch, objects in frame_objects():
        yield sch, [P.bundle for P in objects]
    X = build_scheme(proj_line_three_patch())
    yield X, [TwistPlusTrivial(X, 1), TwistPlusTrivial(X, 2)]


def filled_cochain(rng, sch, source, target, sizes):
    """A random cochain with an entry at every nonempty tuple of the given
    sizes."""
    entries = {}
    for size in sizes:
        for tup in sch.tuples(size):
            ring = sch.intersection(tup).ring
            entries[tup] = random_matrix_form(
                rng, ring, target.parities(), source.parities(), max_u=1, nterms=4
            )
    return CechCochain(sch, source, target, entries, 3)


def frame_cochains(rng, sch, bundle):
    """Cochains of each Cech degree in End(E), Hom(E, O), Hom(O, E), End(O)."""
    for source, target in itertools.product((bundle, TRIVIAL_LINE), repeat=2):
        for size in range(1, sch.npatches() + 1):
            yield filled_cochain(rng, sch, source, target, (size,))


def test_restrictions_are_built_once_with_the_old_images():
    rng = random.Random(91)
    for config in (P1, P2, MOEBIUS_LINE, three_patch_line(), proj_line_three_patch()):
        sch = build_scheme(config)
        for size in range(1, sch.npatches() + 1):
            for big in sch.tuples(size):
                for k in range(1, size + 1):
                    for small in itertools.combinations(big, k):
                        rm = sch.restriction(small, big)
                        assert sch.restriction(small, big) is rm
                        assert rm.source is sch.intersection(small).ring
                        assert rm.target is sch.intersection(big).ring
                        old = oracle_intersection_images(sch, big, small[0])
                        for new_image, old_image in zip(rm.images, old, strict=True):
                            assert_same_frac(new_image, old_image)
                        if small[0] == big[0]:
                            a = random_frac(rng, rm.source, degree=3, den_bound=2)
                            assert_same_frac(reroot(rm.target, a), oracle_reroot(rm.target, a))


def test_transport_and_differential_match_rerooted_transitions():
    rng = random.Random(92)
    changed = 0
    for sch, bundles in frame_bundles():
        for bundle in bundles:
            for c in frame_cochains(rng, sch, bundle):
                for small in c.entries:
                    for size in range(len(small), sch.npatches() + 1):
                        for big in sch.tuples(size):
                            if not set(small) <= set(big):
                                continue
                            new = c.transport(small, big)
                            old = oracle_transport(c, small, big)
                            assert_same_terms(new, old)
                            assert str(new) == str(old)
                            changed += small[0] != big[0] and not new.is_zero()
                new = cech_differential(c)
                with rerooted_transport_everywhere():
                    old = cech_differential(c)
                assert new.canonical_string() == old.canonical_string()
    assert changed >= 100, changed


def frame_changes(c, big):
    """(transport, oracle transport, bare pullback) for each entry of c
    inside big whose leading index differs from big's."""
    for small in sorted(c.entries):
        if set(small) <= set(big) and small[0] != big[0]:
            bare = pullback_matrix(c.scheme.restriction(small, big), c.entries[small])
            yield c.transport(small, big), oracle_transport(c, small, big), bare


def test_line_endomorphisms_keep_their_frame():
    """End(O(n)) on the three-chart P^2 moves into (0,1,2) by the bare
    pullback, which is term by term what conjugating by the transitions
    gives.  Hom(O(1), O(2)) and End(O + O(-1)) still conjugate: they match
    the oracle, and there the oracle differs from the bare pullback."""
    rng = random.Random(181)
    sch = build_scheme(P2)
    big = (0, 1, 2)
    moved = 0
    for n in (1, 2, 3):
        L = twist_p2(sch, n).bundle
        c = filled_cochain(rng, sch, L, L, (1, 2))
        for new, old, bare in frame_changes(c, big):
            assert_same_terms(new, old)
            assert_same_terms(new, bare)
            moved += not new.is_zero()
    assert moved >= 9, moved
    o1, o2 = twist_p2(sch, 1).bundle, twist_p2(sch, 2).bundle
    o_plus = p2_bundle(sch, (0, 0), (0, -1))
    for source, target in ((o1, o2), (o_plus, o_plus)):
        c = filled_cochain(rng, sch, source, target, (1, 2))
        conjugated = 0
        for new, old, bare in frame_changes(c, big):
            assert_same_terms(new, old)
            conjugated += old != bare
        assert conjugated >= 2, (source.rank(), target.rank(), conjugated)


def test_frame_forms_match_rerooted_transitions():
    rng = random.Random(93)
    nonzero = total = 0
    for sch, objects in frame_objects():
        conns = {P: curved_connection(rng, P) for P in objects}
        for P in objects:
            for conn in (default_connection(P), conns[P]):
                new = total_curvature(P, conn, u_truncation=4).frame_difference
                with rerooted_transport_everywhere():
                    old = oracle_frame_differences(P, conn, 4)
                assert new.canonical_string() == old.canonical_string()
                nonzero += not new.is_zero()
                total += 1
        sizes = range(1, sch.npatches() + 1)
        for source, target in itertools.product(objects, repeat=2):
            c = filled_cochain(rng, sch, source.bundle, target.bundle, sizes)
            new = nabla_bracket(c, conns[target], conns[source])
            with rerooted_transport_everywhere():
                old = oracle_nabla_bracket(c, conns[target], conns[source])
            assert new.canonical_string() == old.canonical_string()
            nonzero += not new.is_zero()
            total += 1
    assert nonzero >= total - 2, (nonzero, total)


def spy_pullbacks(monkeypatch):
    """Record, for every pullback_matrix call in the layers, whether it runs
    along an identity restriction."""
    along = []
    real = cech.pullback_matrix

    def spy(ring_map, value):
        along.append(ring_map.source is ring_map.target)
        return real(ring_map, value)

    for module in (cech, cohomology, connection, hochschild, mf):
        monkeypatch.setattr(module, "pullback_matrix", spy)
    return along


def test_transport_uses_pair_frames_as_they_are(monkeypatch):
    """Transport into a pair uses the pair's transition and inverse as they
    are: over one tr_nabla of O(2) on the three-chart P^2 with a random
    connection, no pullback_matrix call runs along an identity restriction."""
    along = spy_pullbacks(monkeypatch)
    sch = build_scheme(P2)
    P = twist_p2(sch, 2)
    conn = curved_connection(random.Random(3), P)
    chain = HochschildChain.single(
        GeometricCategory(sch, 4), 4, 2, MorphismCochain.identity(P, 4), ()
    )
    assert not tr_nabla(chain, {P: conn}).is_zero()
    assert along and not any(along), along


def pulled_frame_nabla_bracket(cochain, conn_target, conn_source):
    """nabla_bracket as it was: every tuple of every parity part pulls the
    frame form of its pair back along restriction(pair, t), also when t is
    the pair itself."""
    trunc = cochain.u_truncation
    scheme = cochain.scheme
    out = form_derivative(cochain)
    ct = conn_target.cochain(trunc)
    cs = conn_source.cochain(trunc)
    for parity, part in _split_by_total_parity(cochain).items():
        if part.is_zero():
            continue
        if not ct.is_zero():
            out = out + acw_product(ct, part)
        if not cs.is_zero():
            out = out - acw_product(part, cs).scale((-1) ** parity)
        gauge = {}
        for t, value in part.entries.items():
            if len(t) < 2:
                continue
            pair = (t[0], t[-1])
            theta = cech.pullback_matrix(
                scheme.restriction(pair, t), frame_form(cochain.source, pair)
            )
            term = value.mul(theta, cech_left=len(t) - 1)
            if not term.is_zero():
                gauge[t] = term
        if gauge:
            correction = CechCochain(scheme, cochain.source, cochain.target, gauge, trunc)
            out = out + correction.scale((-1) ** parity)
    return out


def split_hom_differential(phi):
    """hom_differential as it was: split phi by total parity and sign each
    part's product with delta_source by its parity."""
    trunc = phi.cochain.u_truncation
    dQ = phi.target.delta_cochain(trunc)
    dP = phi.source.delta_cochain(trunc)
    out = None
    for parity, part in _split_by_total_parity(phi.cochain).items():
        piece = cech_differential(part)
        piece = piece + acw_product(dQ, part)
        piece = piece + acw_product(part, dP).scale(-((-1) ** parity))
        out = piece if out is None else out + piece
    if out is None:
        out = CechCochain(
            phi.cochain.scheme,
            phi.source.bundle,
            phi.target.bundle,
            {},
            trunc,
        )
    return MorphismCochain(phi.source, phi.target, out)


def test_hom_differential_on_mixed_parities_matches_the_split():
    """hom_differential takes (parity_sign phi) once instead of splitting phi
    by total parity.  On random morphisms with entries in every Cech degree,
    mixing both parities, it gives the canonical string of the split route:
    between the section and the rank-four object on P^1, and for
    Hom(O(1), O(2)) on the three-chart P^2."""
    rng = random.Random(194)
    sch, pool = proj_pool()
    cases = [(sch, P, Q) for (P, _), (Q, _) in itertools.product(pool[:2], repeat=2)]
    p2 = build_scheme(P2)
    cases.append((p2, twist_p2(p2, 1), twist_p2(p2, 2)))
    with_delta = 0
    for sch, source, target in cases:
        sizes = range(1, sch.npatches() + 1)
        for _trial in range(3):
            c = filled_cochain(rng, sch, source.bundle, target.bundle, sizes)
            assert set(_split_by_total_parity(c)) == {0, 1}
            phi = MorphismCochain(source, target, c)
            got, expected = hom_differential(phi), split_hom_differential(phi)
            assert got.cochain.u_truncation == expected.cochain.u_truncation
            assert got.cochain.canonical_string() == expected.cochain.canonical_string() != "0"
            with_delta += not source.delta_cochain(3).is_zero()
    assert with_delta >= 6, with_delta


def test_nabla_bracket_uses_pair_frames_as_they_are(monkeypatch):
    """For a degree-1 cochain of Hom(O(1), O(2)) on the three-chart P^2, with
    random connections, nabla_bracket pulls no frame form back along an
    identity restriction, builds each pair's frame form once, and gives the
    canonical string of the route that pulled every frame form back along
    restriction(pair, t), one identity pullback per pair and parity part."""
    rng = random.Random(171)
    sch = build_scheme(P2)
    source, target = twist_p2(sch, 1), twist_p2(sch, 2)
    conns = {P: curved_connection(rng, P) for P in (source, target)}
    c = filled_cochain(rng, sch, source.bundle, target.bundle, (2,))
    parts = _split_by_total_parity(c)
    assert set(parts) == {0, 1}
    along = spy_pullbacks(monkeypatch)
    expected = pulled_frame_nabla_bracket(c, conns[target], conns[source])
    assert sum(along) == sum(len(part.entries) for part in parts.values()) > 3, along
    along.clear()
    frames = []
    real_frame_form = hochschild.frame_form

    def counted_frame_form(bundle, pair):
        frames.append(pair)
        return real_frame_form(bundle, pair)

    monkeypatch.setattr(hochschild, "frame_form", counted_frame_form)
    got = nabla_bracket(c, conns[target], conns[source])
    assert along and not any(along), along
    assert sorted(frames) == [(0, 1), (0, 2), (1, 2)]
    assert got.canonical_string() == expected.canonical_string() != "0"


def sparse_cochain(rng, sch, source, target, keep=0.5):
    """A random cochain with an entry at about half of the nonempty tuples
    of every size."""
    entries = {}
    for size in range(1, sch.npatches() + 1):
        for tup in sch.tuples(size):
            if rng.random() < keep:
                ring = sch.intersection(tup).ring
                entries[tup] = random_matrix_form(
                    rng, ring, target.parities(), source.parities(), max_u=1, nterms=3
                )
    return CechCochain(sch, source, target, entries, rng.randint(1, 3))


def check_cup(rng, sch, bundles):
    """(pairs compared, nonzero products) for random cochains a: F -> G and
    b: E -> F over bundles and the trivial line, with the present-entry cup
    against the scan, as products and as supertraces of products."""
    compared = nonzero = 0
    for E, F, G in itertools.product(bundles + [TRIVIAL_LINE], repeat=3):
        a = sparse_cochain(rng, sch, F, G)
        b = sparse_cochain(rng, sch, E, F)
        products = [MatrixForm.mul]
        if E.parities() == G.parities():
            products.append(MatrixForm._supertrace_mul)
        for product in products:
            new, new_trunc = _cup(a, b, product)
            old, old_trunc = scanning_cup(a, b, product)
            assert new_trunc == old_trunc
            assert set(new) == set(old)
            for big in new:
                assert_same_terms(new[big], old[big])
            compared += 1
            nonzero += bool(new)
    return compared, nonzero


def test_cup_pairs_present_entries_like_the_scan():
    rng = random.Random(95)
    compared = nonzero = 0
    for sch, bundles in frame_bundles():
        got = check_cup(rng, sch, bundles[:2])
        compared += got[0]
        nonzero += got[1]
    assert nonzero >= compared // 2 and compared >= 60, (nonzero, compared)


@settings(max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cup_pairs_present_entries_property(seed):
    rng = random.Random(seed)
    sch = build_scheme(P2)
    check_cup(rng, sch, [twist_p2(sch, rng.randint(1, 2)).bundle])
