"""Differential test of tr_nabla, which folds a scalar-identity a0 into the
coefficient, builds curvature powers lazily, takes the last product of each
composite as a trace and splits str(R^j) as str(R^(j//2) R^(j - j//2)),
against the form it replaced: every composite built in full by acw_product
from the identity cochain up, then traced.  The regrouping rests on the
associativity of the cup product, which is checked here too, with the
diagonal-only product, on cochains with odd entries over the projective
plane."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from mfchern.cech import (
    CechCochain,
    MatrixForm,
    acw_product,
    identity_cochain,
    supertrace,
    supertrace_product,
)
from mfchern.cohomology import TotalCochain, cohomologous, total_differential
from mfchern.connection import Connection, default_connection, total_curvature
from mfchern.geometry import build_scheme
from mfchern.hochschild import (
    GeometricCategory,
    HochschildChain,
    nabla_bracket,
    tr_nabla,
)
from mfchern.mf import MatrixFactorization, MorphismCochain, VectorBundle, koszul_mf
from mfchern.rings import parse_scalar

from .test_cech import random_matrix_form
from .test_mf import affine_plane
from .test_rings import random_frac
from .test_hochschild import (
    line_objects,
    plane_objects,
    proj_pool,
    random_chain,
    random_morphism,
)

# Charts [1:y:z], [x:1:z] and [x:y:1] of the projective plane.
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
P2_UNITS = {(0, 1): "y", (0, 2): "z", (1, 2): "z"}


# -- the replaced trace, verbatim ----------------------------------------------


def _j_vectors(count, total_max):
    if count == 0:
        yield ()
        return
    for first in range(total_max + 1):
        for rest in _j_vectors(count - 1, total_max - first):
            yield (first,) + rest


def _curvature_powers(P, conn, trunc, jmax):
    R = total_curvature(P, conn, with_u=True, u_truncation=trunc).cochain()
    powers = [identity_cochain(P.scheme, P.bundle, trunc)]
    for _j in range(jmax):
        powers.append(acw_product(powers[-1], R))
    return powers


def oracle_tr_nabla(x, connections):
    """Chain-level trace against a connection assignment per object.

    Every string contributes sums over curvature insertions; insertions
    beyond the scheme dimension vanish because each curvature factor carries
    at least one form degree.
    """
    cat = x.category
    if not isinstance(cat, GeometricCategory):
        raise TypeError("trace needs geometric chains")
    scheme = cat.scheme
    trunc = x.u_truncation
    jmax = scheme.dimension
    power_cache = {}
    bracket_cache = {}

    def powers_of(P):
        c = power_cache.get(id(P))
        if c is None:
            conn = connections.get(P)
            if conn is None:
                raise ValueError("missing connection for an object of the chain")
            c = _curvature_powers(P, conn, trunc, jmax)
            power_cache[id(P)] = c
        return c

    def bracket_of(a):
        c = bracket_cache.get(id(a))
        if c is None:
            src = connections.get(a.source)
            tgt = connections.get(a.target)
            if src is None or tgt is None:
                raise ValueError("missing connection for an object of the chain")
            c = nabla_bracket(a.cochain, tgt, src)
            bracket_cache[id(a)] = c
        return c

    out = CechCochain.scalar(scheme, {}, trunc)
    for (u_pow, a0, slots) in x.items():
        n = len(slots)
        sources = [a0.source] + [s.source for s in slots]
        brackets = [bracket_of(s) for s in slots]
        contribution = CechCochain.scalar(scheme, {}, trunc)
        for jvec in _j_vectors(n + 1, jmax):
            J = sum(jvec)
            acc = None
            if jvec[n]:
                acc = powers_of(sources[n])[jvec[n]]
            for i in range(n, 0, -1):
                acc = brackets[i - 1] if acc is None else acw_product(
                    brackets[i - 1], acc
                )
                if jvec[i - 1]:
                    acc = acw_product(powers_of(sources[i - 1])[jvec[i - 1]], acc)
            composite = a0.cochain if acc is None else acw_product(a0.cochain, acc)
            if composite.is_zero():
                continue
            term = supertrace(composite).scale(
                Fraction((-1) ** (J % 2), factorial(n + J))
            )
            contribution = contribution + term
        out = out + contribution.shift_u(u_pow)
    return out


# -- objects ----------------------------------------------------------------------


def koszul_space(rng, n):
    """A^n with W = sum c_i x_i^2 and its Koszul factorization, rank 2^n."""
    names = [f"x{i}" for i in range(1, n + 1)]
    coeffs = [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3)) for _ in names]
    config = {
        "grading": "Z2",
        "dimension": n,
        "patches": [{"name": f"A{n}", "variables": names, "denominators": []}],
        "gluings": [],
        "potentials": [" + ".join(f"({c})*{v}^2" for c, v in zip(coeffs, names))],
        "all_critical_values_zero": True,
    }
    sch = build_scheme(config)
    return sch, koszul_mf(sch, [[v] for v in names], [[f"({c})*{v}"] for c, v in zip(coeffs, names)])


def p2_bundle(sch, parities, twists):
    """Sum of O(t) over (parity, t) pairs on the projective plane."""
    blocks = {}
    for pair, var in P2_UNITS.items():
        ring = sch.intersection(pair).ring
        rows = []
        for k, t in enumerate(twists):
            row = [ring.zero()] * len(twists)
            row[k] = ring.var(var) ** t if t else ring.one()
            rows.append(row)
        blocks[pair] = rows
    return VectorBundle(sch, list(parities), blocks)


def twist_p2(sch, n):
    return MatrixFactorization(p2_bundle(sch, [0], [n]), [[[0]]] * 3)


def identity_objects(rng):
    """(scheme, object, u truncation) for every identity chain of the test."""
    for n in (1, 2, 3, 4):
        sch, P = koszul_space(rng, n)
        yield sch, P, n + 2
    sch, pool = proj_pool()
    for P, _twists in pool[:2]:
        yield sch, P, 4
    sch = build_scheme(P2)
    for n in (1, 2, 3):
        yield sch, twist_p2(sch, n), 4


def curved_connection(rng, P):
    """A connection with max(2, rank / 2) random diagonal entries f dx_k per
    chart, f of degree at most one: enough for str(R^3) and str(R^4) to be
    nonzero on A^4, small enough for the full products of the oracle."""
    mats = []
    parities = P.bundle.parities()
    for i in range(P.scheme.npatches()):
        ring = P.scheme.patch_ring(i)
        terms = {}
        while len(terms) < max(2, len(parities) // 2):
            f = random_frac(rng, ring, degree=1, den_bound=0)
            r = rng.randrange(len(parities))
            if not f.is_zero():
                terms[(r, r, (rng.randrange(len(ring.vars)),), 0)] = f
        mats.append(MatrixForm(ring, parities, parities, terms))
    return Connection(P, mats)


def assert_same_trace(x, conns):
    got, expected = tr_nabla(x, conns), oracle_tr_nabla(x, conns)
    assert got.canonical_string() == expected.canonical_string(), x.canonical_string()
    assert got.u_truncation == expected.u_truncation
    return got


# -- tests -------------------------------------------------------------------------


def test_identity_chains_match_the_full_products():
    rng = random.Random(8)
    for sch, P, trunc in identity_objects(rng):
        cat = GeometricCategory(sch, trunc)
        conns = {P: curved_connection(rng, P)}
        one = MorphismCochain.identity(P, trunc)
        ch = tr_nabla(HochschildChain.single(cat, trunc, 2, one, ()), conns)
        # on A^1 the curvature has no 2-form part, so str(1) = str(R) = 0 there
        assert ch.is_zero() == (sch.dimension == 1 and sch.npatches() == 1)
        for coeff, u_pow in ((1, 0), (0, 0), (Fraction(-3, 2), 1)):
            x = HochschildChain(cat, trunc, 2, [(coeff, u_pow, one, ())])
            assert_same_trace(x, conns)
        # an a0 cut at a lower power of u than the chain
        low = MorphismCochain.identity(P, trunc - 1).scale(Fraction(-3, 2))
        assert_same_trace(HochschildChain.single(cat, trunc, 2, low, ()), conns)


def test_identity_trace_is_nonzero_beyond_the_split():
    """On A^4 the split takes str(R^3) = str(R R^2) and str(R^4) =
    str(R^2 R^2); they carry the 4-forms of the trace, which must be present
    for the comparison with the oracle to bite."""
    rng = random.Random(4)
    sch, P = koszul_space(rng, 4)
    conn = curved_connection(rng, P)
    R = total_curvature(P, conn, with_u=True, u_truncation=6).cochain()
    R2 = acw_product(R, R)
    assert not supertrace_product(R, R2).is_zero()
    assert not supertrace_product(R2, R2).is_zero()
    cat = GeometricCategory(sch, 6)
    x = HochschildChain.single(cat, 6, 2, MorphismCochain.identity(P, 6), ())
    got = tr_nabla(x, {P: conn})
    assert {len(k[2]) for mf in got.entries.values() for k in mf.terms} == {2, 4}


def test_non_identity_a0_and_slots_match_the_full_products():
    rng = random.Random(88)
    cases = [line_objects(), plane_objects()]
    sch, pool = proj_pool()
    cases.append((sch, [P for P, _tw in pool]))
    p2 = build_scheme(P2)
    cases.append((p2, [twist_p2(p2, 1), MatrixFactorization(
        p2_bundle(p2, (0, 1), (0, 1)), [[[0, 0], [0, 0]]] * 3)]))
    nonzero = total = 0
    for sch, objects in cases:
        trunc = 3
        cat = GeometricCategory(sch, trunc)
        conns = {P: curved_connection(rng, P) for P in objects}
        P = objects[-1]
        one = MorphismCochain.identity(P, trunc)
        for n in (0, 1, 2):
            slots = tuple(
                random_morphism(rng, P, P, rng.randint(0, 1), trunc) for _ in range(n)
            )
            a0 = random_morphism(rng, P, P, rng.randint(0, 1), trunc)
            for head in (one, one.scale(Fraction(-3, 2)), a0):
                x = HochschildChain.single(cat, trunc, 2, head, slots)
                nonzero += not assert_same_trace(x, conns).is_zero()
                total += 1
        for _ in range(2):
            x = random_chain(rng, cat, objects, trunc, 3, max_n=2)
            nonzero += not assert_same_trace(x, conns).is_zero()
            total += 1
    assert nonzero >= total // 2, (nonzero, total)


def p2_cochains(rng):
    """Seeded triples of cochains on O + O(1)[odd] over the projective plane,
    one for each triple of Cech degrees with a nonempty triple product (sum
    at most 2), with odd and even entries and powers of u."""
    sch = build_scheme(P2)
    E = p2_bundle(sch, (0, 1), (0, 1))
    p = E.parities()

    def cochain(degree):
        entries = {}
        for tup in sch.tuples(degree + 1):
            ring = sch.intersection(tup).ring
            entries[tup] = random_matrix_form(rng, ring, p, p, max_u=1, nterms=6)
        return CechCochain(sch, E, E, entries, 3)

    for degrees in itertools.product(range(3), repeat=3):
        if sum(degrees) <= 2:
            yield [cochain(d) for d in degrees]


def test_diagonal_product_is_the_trace_of_the_product():
    rng = random.Random(2)
    nonzero = 0
    for a, b, _c in p2_cochains(rng):
        for left, right in ((a, b), (b, a), (a, a)):
            expected = supertrace(acw_product(left, right))
            got = supertrace_product(left, right)
            assert got == expected
            assert got.canonical_string() == expected.canonical_string()
            assert got.u_truncation == expected.u_truncation
            nonzero += not got.is_zero()
    assert nonzero >= 20


def test_cup_product_is_associative_on_odd_entries():
    rng = random.Random(3)
    for a, b, c in p2_cochains(rng):
        assert acw_product(acw_product(a, b), c) == acw_product(a, acw_product(b, c))


@pytest.mark.parametrize(
    "a, b, det",
    [
        ("x", "y", "1"),
        ("x + y", "x^2 - x*y + y^2", "3*y - 3*x"),
        ("y", "x^2 + y^2", "-2*x"),
    ],
)
def test_affine_koszul_class_is_the_jacobian(a, b, det):
    """On A^2 with W = ab, tr_nabla(1_P) for the default connection is
    det d(a, b)/d(x, y) dx^dy at u^0, a nonzero class.  cohomologous finds
    a primitive against +det dx^dy and none within degree bound 3 against
    -det dx^dy or 0; None means "none within bound", not "disproved"."""
    sch = build_scheme(affine_plane(f"({a})*({b})"))
    P = koszul_mf(sch, [[a]], [[b]])
    cat = GeometricCategory(sch, 2)
    one = MorphismCochain.identity(P, 2)
    ch = tr_nabla(HochschildChain.single(cat, 2, 2, one, ()), {P: default_connection(P)})
    ring = sch.patch_ring(0)

    def jacobian(sign):
        value = parse_scalar(ring, det) * sign
        entry = MatrixForm(ring, (0,), (0,), {(0, 0, (0, 1), 0): value})
        return TotalCochain.scalar(sch, {(0,): entry}, 2)

    assert ch == jacobian(1)
    assert total_differential(ch).is_zero()
    assert cohomologous(ch, jacobian(1), 3) is not None
    assert cohomologous(ch, jacobian(-1), 3) is None
    assert cohomologous(ch, TotalCochain.zero(sch, 2), 3) is None


def test_declared_dimension_must_match_the_charts():
    """tr_nabla inserts curvature up to the scheme dimension, so a dimension
    declared below the chart size once cut the trace: on A^2 with W = xy,
    tr_nabla(1_P) read 1 dx^dy with dimension 2 but 0 with dimension 1 or 0.
    The dimension is now the chart size, and build_scheme refuses another."""
    config = affine_plane("x*y")
    sch = build_scheme(config)
    assert sch.dimension == 2
    P = koszul_mf(sch, [["x"]], [["y"]])
    cat = GeometricCategory(sch, 4)
    one = MorphismCochain.identity(P, 4)
    ch = tr_nabla(HochschildChain.single(cat, 4, 2, one, ()), {P: default_connection(P)})
    assert ch.canonical_string() == "(0,) u^0 dx^dy [0,0] = 1"
    for wrong in (0, 1, 3):
        with pytest.raises(ValueError, match=f"declared dimension {wrong} differs from the 2"):
            build_scheme(dict(config, dimension=wrong))
