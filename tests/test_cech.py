import itertools
import random
from fractions import Fraction

import pytest

from mfchern.cech import (
    CechCochain,
    MatrixForm,
    TRIVIAL_LINE,
    acw_product,
    cech_differential,
    exp_neg,
    identity_cochain,
    pullback_matrix,
    supertrace,
)
from mfchern.forms import de_rham_d, pullback, wedge
from mfchern.geometry import build_scheme
from mfchern.rings import Ring, ScalarPoly

from .test_geometry import affine_line_squared, proj_line, three_patch_line
from .test_rings import random_frac


class ConstantBundle:
    """Test double: a bundle with identity transitions on every overlap,
    which the bundle protocol writes as no frame change at all."""

    transitions = inverses = {}

    def __init__(self, parities):
        self._parities = tuple(parities)

    def parities(self):
        return self._parities


def random_matrix_form(rng, ring, row_parities, col_parities, parity=None,
                       max_u=1, nterms=3):
    nvars = len(ring.vars)
    terms = {}
    for _ in range(nterms):
        r = rng.randrange(len(row_parities))
        c = rng.randrange(len(col_parities))
        q = rng.randint(0, nvars)
        idxs = tuple(sorted(rng.sample(range(nvars), q)))
        if parity is not None:
            if (row_parities[r] + col_parities[c] + q) % 2 != parity:
                continue
        m = rng.randint(0, max_u)
        key = (r, c, idxs, m)
        f = random_frac(rng, ring, degree=2, den_bound=1)
        terms[key] = terms.get(key, ring.zero()) + f
    return MatrixForm(ring, row_parities, col_parities,
                      {k: v for k, v in terms.items() if not v.is_zero()})


def random_cochain(rng, scheme, bundle, cech_degree, parity=None, max_u=1,
                   u_truncation=3):
    entries = {}
    p = bundle.parities()
    want = None
    if parity is not None:
        want = (parity + cech_degree) % 2
    for tup in scheme.tuples(cech_degree + 1):
        ring = scheme.intersection(tup).ring
        mf = random_matrix_form(rng, ring, p, p, parity=want, max_u=max_u)
        if not mf.is_zero():
            entries[tup] = mf
    return CechCochain(scheme, bundle, bundle, entries, u_truncation)


def scalar_cochain_from_values(scheme, values, u_truncation=3):
    entries = {}
    for tup, val in values.items():
        ring = scheme.intersection(tup).ring
        entries[tup] = MatrixForm(ring, (0,), (0,), {(0, 0, (), 0): val})
    return CechCochain.scalar(scheme, entries, u_truncation)


def test_scalar_zero_cochain_differential():
    X = build_scheme(proj_line())
    z0 = X.patch_ring(0).var("z")
    w1 = X.patch_ring(1).var("w")
    c = scalar_cochain_from_values(X, {(0,): z0 ** 2, (1,): w1 + 1})
    d = cech_differential(c)
    inter = X.intersection((0, 1))
    z = inter.ring.var("z")
    expected = (z ** -1 + 1) - z ** 2
    assert d.entry((0, 1)).terms[(0, 0, (), 0)] == expected


def test_differential_koszul_sign_on_odd_values():
    # one-form values pick up a global minus relative to the function case
    X = build_scheme(proj_line())
    U0, U1 = X.patch_ring(0), X.patch_ring(1)
    f0, f1 = U0.var("z") ** 2, U1.var("w")
    even = scalar_cochain_from_values(X, {(0,): f0, (1,): f1})
    odd_entries = {
        (0,): MatrixForm(U0, (0,), (0,), {(0, 0, (0,), 0): f0}),
        (1,): MatrixForm(U1, (0,), (0,), {(0, 0, (0,), 0): f1}),
    }
    odd = CechCochain.scalar(X, odd_entries, 3)
    d_even = cech_differential(even).entry((0, 1)).terms[(0, 0, (), 0)]
    d_odd = cech_differential(odd).entry((0, 1))
    inter = X.intersection((0, 1))
    z = inter.ring.var("z")
    # pullback of w dw under w = 1/z is -dz/z^3; the Koszul rule then negates
    # the whole alternating sum
    assert d_odd.terms[(0, 0, (0,), 0)] == -(-(z ** -3)) + z ** 2 * 1
    assert d_even == (z ** -1) - z ** 2


def test_differential_squares_to_zero_random():
    rng = random.Random(71)
    X = build_scheme(three_patch_line())
    E = ConstantBundle((0, 1))
    for _ in range(20):
        deg = rng.choice([0, 0, 1])
        c = random_cochain(rng, X, E, deg)
        dd = cech_differential(cech_differential(c))
        assert dd.is_zero()


def proj_line_three_patch():
    # P^1 with a redundant third chart D(z-1) inside the first one
    return {
        "grading": "Z",
        "dimension": 1,
        "patches": [
            {"name": "W0", "variables": ["z"], "denominators": []},
            {"name": "W1", "variables": ["w"], "denominators": []},
            {"name": "W2", "variables": ["v"], "denominators": ["v - 1"]},
        ],
        "gluings": [
            {"pair": [0, 1], "denominators": ["z"], "images": ["1/z"]},
            {"pair": [0, 2], "denominators": ["z - 1"], "images": ["z"]},
            {"pair": [1, 2], "denominators": ["w", "w - 1"], "images": ["1/w"]},
        ],
        "potentials": ["0", "0", "0"],
    }


class TwistPlusTrivial:
    """Rank-2 test bundle on the three-patch projective line: a z-power
    twist summed with a trivial line."""

    def __init__(self, scheme, n):
        self.transitions = {}
        self.inverses = {}
        # g12 is forced by the cocycle rule g02 = g01 g12, written in w = 1/z
        for pair, var in (((0, 1), "z"), ((0, 2), None), ((1, 2), "w")):
            ring = scheme.intersection(pair).ring
            for store, power in ((self.transitions, -n), (self.inverses, n)):
                g = ring.var(var) ** power if var else ring.one()
                store[pair] = MatrixForm(ring, (0, 0), (0, 0),
                                         {(0, 0, (), 0): g, (1, 1, (), 0): ring.one()})

    def parities(self):
        return (0, 0)


def test_differential_squares_to_zero_with_frames():
    rng = random.Random(72)
    X = build_scheme(proj_line_three_patch())
    E = TwistPlusTrivial(X, 2)
    for _ in range(8):
        c = random_cochain(rng, X, E, rng.choice([0, 1]))
        assert cech_differential(cech_differential(c)).is_zero()


def test_acw_associative_with_frames():
    rng = random.Random(78)
    X = build_scheme(proj_line_three_patch())
    E = TwistPlusTrivial(X, 1)
    for _ in range(6):
        a = random_cochain(rng, X, E, rng.choice([0, 1]), max_u=0)
        b = random_cochain(rng, X, E, rng.choice([0, 1]), max_u=0)
        c = random_cochain(rng, X, E, rng.choice([0, 1]), max_u=0)
        assert acw_product(acw_product(a, b), c) == acw_product(a, acw_product(b, c))


def test_acw_degree_zero_is_pointwise_product():
    X = build_scheme(affine_line_squared())
    x = X.patch_ring(0).var("x")
    a = scalar_cochain_from_values(X, {(0,): x + 1})
    b = scalar_cochain_from_values(X, {(0,): x - 1})
    ab = acw_product(a, b)
    assert ab.entry((0,)).terms[(0, 0, (), 0)] == x ** 2 - 1


def test_acw_front_back_faces():
    X = build_scheme(three_patch_line())
    inter01 = X.intersection((0, 1))
    inter12 = X.intersection((1, 2))
    a = CechCochain.scalar(
        X,
        {(0, 1): MatrixForm(inter01.ring, (0,), (0,),
                            {(0, 0, (), 0): inter01.ring.var("x") ** 2})},
        3,
    )
    b = CechCochain.scalar(
        X,
        {(1, 2): MatrixForm(inter12.ring, (0,), (0,),
                            {(0, 0, (), 0): inter12.ring.var("x") + 3})},
        3,
    )
    ab = acw_product(a, b)
    assert set(ab.entries) == {(0, 1, 2)}
    ring = X.intersection((0, 1, 2)).ring
    x = ring.var("x")
    assert ab.entry((0, 1, 2)).terms[(0, 0, (), 0)] == x ** 2 * (x + 3)
    # no other face combination contributes
    ba = acw_product(b, a)
    assert ba.is_zero()


def test_acw_front_face_sign_on_odd_values():
    # p = 1 left factor times an internally odd right factor flips sign
    X = build_scheme(three_patch_line())
    E = ConstantBundle((0, 1))
    inter01 = X.intersection((0, 1))
    one01 = inter01.ring.one()
    a = CechCochain(
        X, E, E,
        {(0, 1): MatrixForm.identity(inter01.ring, (0, 1)).scale(one01)},
        3,
    )
    ring1 = X.patch_ring(1)
    b_odd = CechCochain(
        X, E, E,
        {(1,): MatrixForm(ring1, (0, 1), (0, 1),
                          {(0, 1, (), 0): ring1.one(),
                           (1, 0, (), 0): ring1.one()})},
        3,
    )
    b_even = CechCochain(
        X, E, E,
        {(1,): MatrixForm.identity(ring1, (0, 1))},
        3,
    )
    ab_odd = acw_product(a, b_odd)
    ab_even = acw_product(a, b_even)
    # even case: identity back factor reproduces a's entry on (0,1)
    assert ab_even.entry((0, 1)) == a.entry((0, 1))
    # odd case: the naive matrix product times (-1)^{1*1}
    naive = a.entry((0, 1)).mul(b_odd.transport((1,), (0, 1)))
    assert ab_odd.entry((0, 1)) == -naive


def test_acw_associative_random():
    rng = random.Random(73)
    X = build_scheme(three_patch_line())
    E = ConstantBundle((0, 1))
    for _ in range(12):
        a = random_cochain(rng, X, E, rng.choice([0, 1]), max_u=1)
        b = random_cochain(rng, X, E, rng.choice([0, 1]), max_u=1)
        c = random_cochain(rng, X, E, rng.choice([0, 1]), max_u=1)
        assert acw_product(acw_product(a, b), c) == acw_product(a, acw_product(b, c))


def test_acw_leibniz_random():
    rng = random.Random(74)
    X = build_scheme(three_patch_line())
    E = ConstantBundle((0, 1))
    for _ in range(12):
        pa = rng.choice([0, 1])
        a = random_cochain(rng, X, E, rng.choice([0, 1]), parity=pa)
        b = random_cochain(rng, X, E, rng.choice([0, 1]), parity=rng.choice([0, 1]))
        lhs = cech_differential(acw_product(a, b))
        rhs = acw_product(cech_differential(a), b)
        signed = acw_product(a, cech_differential(b)).scale((-1) ** pa)
        rhs = rhs + signed
        assert lhs == rhs


def test_cdg_axioms_scalars():
    # d^2 and the commutator with the potential both vanish identically
    rng = random.Random(75)
    X = build_scheme(affine_line_squared())
    w = scalar_cochain_from_values(X, {(0,): X.potential(0)})
    for _ in range(10):
        c = random_cochain(rng, X, TRIVIAL_LINE, 0)
        assert cech_differential(cech_differential(c)).is_zero()
        assert (acw_product(w, c) - acw_product(c, w)).is_zero()


def test_exp_of_zero_is_identity():
    X = build_scheme(proj_line())
    E = ConstantBundle((0, 1))
    zero = CechCochain(X, E, E, {}, 3)
    assert exp_neg(zero) == identity_cochain(X, E, 3)


def test_exp_stops_on_proj_line():
    X = build_scheme(proj_line())
    inter = X.intersection((0, 1))
    z = inter.ring.var("z")
    c = CechCochain.scalar(
        X,
        {(0, 1): MatrixForm(inter.ring, (0,), (0,), {(0, 0, (0,), 0): z ** -1})},
        3,
    )
    e = exp_neg(c)
    assert e.entry((0,)) == MatrixForm.identity(X.patch_ring(0), (0,))
    assert e.entry((0, 1)) == -c.entry((0, 1))


def test_exp_one_variable_square_vanishes():
    X = build_scheme(affine_line_squared())
    ring = X.patch_ring(0)
    x = ring.var("x")
    c = CechCochain.scalar(
        X, {(0,): MatrixForm(ring, (0,), (0,), {(0, 0, (0,), 0): x ** 2})}, 3
    )
    e = exp_neg(c)
    expected = identity_cochain(X, TRIVIAL_LINE, 3) - c
    assert e == expected


def test_exp_rejects_non_nilpotent():
    X = build_scheme(affine_line_squared())
    c = scalar_cochain_from_values(X, {(0,): X.patch_ring(0).const(2)})
    with pytest.raises(ValueError, match="nilpotent"):
        exp_neg(c)


def test_supertrace_of_identity_counts_ranks():
    X = build_scheme(affine_line_squared())
    E = ConstantBundle((0, 0, 1))
    tr = supertrace(identity_cochain(X, E, 3))
    assert tr.entry((0,)).terms[(0, 0, (), 0)].as_constant() == 1  # 2 - 1


def test_supertrace_kills_odd_endomorphisms():
    X = build_scheme(affine_line_squared())
    ring = X.patch_ring(0)
    E = ConstantBundle((0, 1))
    odd = CechCochain(
        X, E, E,
        {(0,): MatrixForm(ring, (0, 1), (0, 1),
                          {(0, 1, (), 0): ring.var("x"),
                           (1, 0, (), 0): ring.one()})},
        3,
    )
    assert supertrace(odd).is_zero()


def test_supertrace_vanishes_on_graded_commutators():
    rng = random.Random(76)
    X = build_scheme(affine_line_squared())
    ring = X.patch_ring(0)
    for _ in range(20):
        pa = rng.choice([0, 1])
        pb = rng.choice([0, 1])
        a = random_matrix_form(rng, ring, (0, 1), (0, 1), parity=pa)
        b = random_matrix_form(rng, ring, (0, 1), (0, 1), parity=pb)
        comm = a.mul(b) - b.mul(a).scale((-1) ** (pa * pb))
        assert comm.supertrace().is_zero()


def test_transport_changes_frame():
    X = build_scheme(proj_line_three_patch())
    E = TwistPlusTrivial(X, 1)
    ring1 = X.patch_ring(1)
    # strictly upper-triangular value in the frame of patch 1
    c = CechCochain(
        X, E, E,
        {(1,): MatrixForm(ring1, (0, 0), (0, 0),
                          {(0, 1, (), 0): ring1.var("w")})},
        3,
    )
    moved = c.transport((1,), (0, 1))
    z = X.intersection((0, 1)).ring.var("z")
    # coordinates: w -> 1/z; frame: diag(z^-1,1) . M . diag(z,1)
    assert moved.terms == {(0, 1, (), 0): z ** -2} or moved.terms[
        (0, 1, (), 0)
    ] == z ** -2
    assert len(moved.terms) == 1


def test_canonical_string_deterministic():
    X = build_scheme(three_patch_line())
    ring01 = X.intersection((0, 1)).ring
    ring12 = X.intersection((1, 2)).ring
    x01 = ring01.var("x")
    x12 = ring12.var("x")
    forward = {
        (0, 1): MatrixForm(ring01, (0,), (0,), {(0, 0, (0,), 1): x01 ** -1}),
        (1, 2): MatrixForm(ring12, (0,), (0,), {(0, 0, (), 0): x12 + 2}),
    }
    backward = dict(reversed(list(forward.items())))
    a = CechCochain.scalar(X, forward, 3)
    b = CechCochain.scalar(X, backward, 3)
    assert a.canonical_string() == b.canonical_string()
    assert "u^1" in a.canonical_string()


def test_matrix_form_keys_validated():
    ring = Ring("A", ("x",))
    one = ring.one()
    # row 5 of a 1-row matrix, dx index 7 on a one-variable ring, u^-1
    with pytest.raises(ValueError, match="bad term key"):
        MatrixForm(ring, (0,), (0,), {(5, 0, (7,), -1): one})
    for key in [(5, 0, (), 0), (0, 1, (), 0), (0, 0, (7,), 0), (0, 0, (), -1), (0, 0, (0, 0), 0)]:
        with pytest.raises(ValueError, match="bad term key"):
            MatrixForm(ring, (0,), (0,), {key: one})
    with pytest.raises(ValueError, match="parities"):
        MatrixForm(ring, (2,), (0,), {})
    with pytest.raises(TypeError):
        MatrixForm(ring, (0,), (0,), {(0, 0, (), 0): 1})


def test_matrix_form_rings_compared_by_structure():
    z = ScalarPoly.variable(("z",), "z")
    plain = Ring("U", ("z",))
    punctured = Ring("U", ("z",), (z,))
    with pytest.raises(ValueError, match="two different rings are named U"):
        MatrixForm(plain, (0,), (0,), {(0, 0, (), 0): punctured.var("z").unit_inverse()})
    a = MatrixForm.identity(plain, (0,))
    b = MatrixForm.identity(punctured, (0,))
    for op in (lambda: a + b, lambda: a.mul(b), lambda: a == b):
        with pytest.raises(ValueError, match="two different rings are named U"):
            op()
    with pytest.raises(TypeError):
        a.mul(plain.one())
    # a second ring of the same structure is the same ring
    twin = Ring("U", ("z",), (z,))
    assert MatrixForm.identity(twin, (0,)) == b
    assert (b + MatrixForm.identity(twin, (0,))).terms[(0, 0, (), 0)] == punctured.const(2)


def test_cochain_and_form_inputs_validated():
    sch = build_scheme(proj_line())
    other = sch.patch_ring(1)
    bundle = ConstantBundle((0,))
    with pytest.raises(ValueError, match="ambient ring mismatch"):
        CechCochain(sch, bundle, bundle, {(0,): MatrixForm.identity(other, (0,))}, 1)
    with pytest.raises(TypeError):
        CechCochain(sch, bundle, bundle, {(0,): sch.patch_ring(0).one()}, 1)
    with pytest.raises(ValueError, match="truncation"):
        u_term = MatrixForm(sch.patch_ring(0), (0,), (0,), {(0, 0, (), 2): sch.patch_ring(0).one()})
        CechCochain(sch, bundle, bundle, {(0,): u_term}, 1)
    one = identity_cochain(sch, bundle, 1)
    for op in (acw_product, lambda a, b: a + b):
        with pytest.raises(TypeError):
            op(one, MatrixForm.identity(sch.patch_ring(0), (0,)))
    with pytest.raises(ValueError, match="square"):
        exp_neg(CechCochain(sch, bundle, ConstantBundle((0, 1)), {}, 1))
    ring = sch.patch_ring(0)
    with pytest.raises(ValueError, match="dx index out of range"):
        de_rham_d({(3,): ring.one()})
    with pytest.raises(ValueError, match="strictly increasing"):
        wedge({(0, 0): ring.one()}, {})
    with pytest.raises(TypeError, match="is a int"):
        de_rham_d({(0,): 1})
    with pytest.raises(TypeError, match="not a form"):
        wedge({(): ring.one()}, [((), ring.one())])
    with pytest.raises(ValueError, match="ambient ring mismatch"):
        de_rham_d({(): ring.one(), (0,): other.one()})
    # the colliding pair dx ^ dx is never multiplied; the rings still differ
    with pytest.raises(ValueError, match="ambient ring mismatch"):
        wedge({(0,): ring.one()}, {(0,): other.one()})
    restriction = sch.restriction((0,), (0, 1))
    with pytest.raises(ValueError, match="ambient ring mismatch"):
        pullback(restriction, {(0,): other.one()})
    with pytest.raises(TypeError, match="not a RingMap"):
        pullback(None, {(0,): ring.one()})
    with pytest.raises(ValueError, match="ambient ring mismatch"):
        pullback_matrix(restriction, MatrixForm.identity(other, (0,)))


def test_caller_arguments_checked_on_built_values():
    """Results built from checked values skip the constructor's checks, but
    a u shift and a scalar come from the caller and are still checked, also
    on zero values, where no term would catch them."""
    sch = build_scheme(proj_line())
    ring = sch.patch_ring(0)
    u_one = MatrixForm(ring, (0,), (0,), {(0, 0, (), 1): ring.one()})
    bundle = ConstantBundle((0,))
    cochains = tuple(CechCochain(sch, bundle, bundle, e, 2) for e in ({(0,): u_one}, {}))
    for value in (u_one, MatrixForm(ring, (0,), (0,), {})) + cochains:
        with pytest.raises(ValueError, match="negative u shift"):
            value.shift_u(-1)
        with pytest.raises(TypeError, match="not an int"):
            value.shift_u(1.0)
    for value in (u_one, MatrixForm(ring, (0,), (0,), {})):
        with pytest.raises(TypeError, match="not an exact scalar"):
            value.scale(2.5)
    assert u_one.shift_u(2).terms == {(0, 0, (), 3): ring.one()}
    assert cochains[0].shift_u(2).is_zero()
    assert (u_one - u_one).terms == {}


def test_truncate_u_checks_its_bound_and_never_raises_the_truncation():
    """On P^1, c = dz/z + u^2 dz at truncation 2: truncate_u(9) keeps the
    truncation 2, truncate_u(1) drops the u^2 term, and a bound that is not
    an int >= 0 raises, on the cochain and on its entry."""
    sch = build_scheme(proj_line())
    ring = sch.intersection((0, 1)).ring
    z = ring.var("z")
    mf = MatrixForm(ring, (0,), (0,), {(0, 0, (0,), 0): z ** -1, (0, 0, (0,), 2): ring.one()})
    c = CechCochain.scalar(sch, {(0, 1): mf}, 2)
    high = c.truncate_u(9)
    assert high.u_truncation == 2 and high == c
    assert (c + high).u_truncation == 2 and c + high == c.scale(2)
    low = c.truncate_u(1)
    assert low.u_truncation == 1
    assert low.entry((0, 1)).terms == {(0, 0, (0,), 0): z ** -1}
    for value in (c, mf):
        with pytest.raises(ValueError, match="negative u truncation -1"):
            value.truncate_u(-1)
        for bound in (1.5, True):
            with pytest.raises(TypeError, match="not an int"):
                value.truncate_u(bound)
