import itertools
import random

import pytest

from mfchern.cech import CechCochain, MatrixForm, pullback_matrix
from mfchern.geometry import build_scheme
from mfchern.mf import (
    EquivariantStructure,
    _square_form,
    MatrixFactorization,
    MorphismCochain,
    RetractData,
    VectorBundle,
    check_mf,
    direct_sum,
    group_twist,
    hom_differential,
    invert_matrix,
    koszul_mf,
    shift,
    twist_by_character,
)
from mfchern.rings import Fraction, LocalFrac, Ring, parse_scalar

from .test_cech import proj_line_three_patch, random_matrix_form
from .test_geometry import (
    affine_line_squared,
    proj_line,
    z2_on_proj_line,
    z2_reflection_on_line,
)
from .test_rings import plain_ring, punctured_line, random_frac, random_poly


def affine_plane(potential):
    return {
        "grading": "Z2",
        "dimension": 2,
        "patches": [{"name": "A2", "variables": ["x", "y"], "denominators": []}],
        "gluings": [],
        "potentials": [potential],
        "all_critical_values_zero": True,
    }


def section_mf_proj_line():
    # O + O(-1)[odd] with delta the section z of O(1): z on U0, 1 on U1
    cfg = proj_line()
    cfg["grading"] = "Z2"
    sch = build_scheme(cfg)
    r = sch.intersection((0, 1)).ring
    bundle = VectorBundle(
        sch,
        [0, 1],
        {(0, 1): [[r.one(), r.zero()], [r.zero(), r.var("z") ** -1]]},
    )
    return MatrixFactorization(bundle, [[[0, "z"], [0, 0]], [[0, 1], [0, 0]]])


def section_mf_three_patch():
    # same factorization over the redundant three-chart cover
    cfg = proj_line_three_patch()
    cfg["grading"] = "Z2"
    sch = build_scheme(cfg)

    def diag(pair, unit):
        r = sch.intersection(pair).ring
        return [[r.one(), r.zero()], [r.zero(), unit(r)]]

    bundle = VectorBundle(
        sch,
        [0, 1],
        {
            (0, 1): diag((0, 1), lambda r: r.var("z") ** -1),
            (0, 2): diag((0, 2), lambda r: r.one()),
            (1, 2): diag((1, 2), lambda r: r.var("w") ** -1),
        },
    )
    deltas = [[[0, "z"], [0, 0]], [[0, 1], [0, 0]], [[0, "v"], [0, 0]]]
    return MatrixFactorization(bundle, deltas)


def dense(mf):
    """The rows of a form-free, u-free MatrixForm."""
    ring = mf.ring
    out = [[ring.zero() for _ in mf.col_parities] for _ in mf.row_parities]
    for (r, c, idxs, u), f in mf.terms.items():
        assert idxs == () and u == 0
        out[r][c] = out[r][c] + f
    return out


def matrix_of(morphism, patch):
    return dense(morphism.cochain.entry((patch,)))


def test_koszul_line_matrix_frozen():
    sch = build_scheme(affine_line_squared())
    P = koszul_mf(sch, [["x"]], [["x"]])
    assert P.bundle.gradings == (0, 1)
    ring = sch.patch_ring(0)
    x = ring.var("x")
    assert dense(P.deltas[0])[0][0] == ring.zero()
    assert dense(P.deltas[0])[0][1] == x
    assert dense(P.deltas[0])[1][0] == x
    assert dense(P.deltas[0])[1][1] == ring.zero()
    assert check_mf(P).ok


def test_koszul_rejects_wrong_potential():
    sch = build_scheme(affine_line_squared())
    with pytest.raises(ValueError):
        koszul_mf(sch, [["x"]], [["1"]])


def test_koszul_rejects_data_that_does_not_glue():
    # delta = z on U0 and w = 1/z on U1 disagree on the overlap
    sch = build_scheme(proj_line())
    with pytest.raises(ValueError, match=r"overlap \(0,1\): g delta_j != delta_i g"):
        koszul_mf(sch, [["z", "w"]], [["0", "0"]])


def test_koszul_two_variables_frozen():
    sch = build_scheme(affine_plane("x^2 + y^2"))
    P = koszul_mf(sch, [["x"], ["y"]], [["x"], ["y"]])
    assert P.bundle.gradings == (0, 1, 1, 0)
    ring = sch.patch_ring(0)
    x, y = ring.var("x"), ring.var("y")
    z = ring.zero()
    # basis order: (), (0,), (1,), (0,1)
    expected = [
        [z, x, y, z],
        [x, z, z, -y],
        [y, z, z, x],
        [z, -y, x, z],
    ]
    for r in range(4):
        for c in range(4):
            assert dense(P.deltas[0])[r][c] == expected[r][c], (r, c)
    assert check_mf(P).ok


def test_koszul_mixed_pair_on_plane():
    sch = build_scheme(affine_plane("x*y"))
    P = koszul_mf(sch, [["x"]], [["y"]])
    ring = sch.patch_ring(0)
    assert dense(P.deltas[0])[0][1] == ring.var("y")
    assert dense(P.deltas[0])[1][0] == ring.var("x")
    assert check_mf(P).ok


def test_check_mf_reports_delta_square_failure():
    sch = build_scheme(affine_line_squared())
    bundle = VectorBundle(sch, [0, 1], {})
    P = MatrixFactorization(bundle, [[[0, 1], ["x", 0]]])
    report = check_mf(P)
    assert not report.ok
    assert any("delta^2" in msg for msg in report.failures)


def test_check_mf_reports_overlap_failure():
    cfg = proj_line()
    cfg["grading"] = "Z2"
    sch = build_scheme(cfg)
    r = sch.intersection((0, 1)).ring
    bundle = VectorBundle(
        sch, [0, 1], {(0, 1): [[r.one(), r.zero()], [r.zero(), r.one()]]}
    )
    P = MatrixFactorization(bundle, [[[0, "z"], [0, 0]], [[0, 1], [0, 0]]])
    report = check_mf(P)
    assert not report.ok
    assert any("overlap (0,1)" in msg for msg in report.failures)
    # delta^2 = 0 = w holds patchwise, so only the overlap is reported
    assert all("delta^2" not in msg for msg in report.failures)


def test_line_bundle_on_proj_line_z_graded():
    sch = build_scheme(proj_line())
    r = sch.intersection((0, 1)).ring
    bundle = VectorBundle(sch, [0], {(0, 1): [[r.var("z") ** 2]]})
    P = MatrixFactorization(bundle, [[[0]], [[0]]])
    assert check_mf(P).ok
    assert bundle.parities() == (0,)


def test_transition_degree_zero_enforced():
    sch = build_scheme(proj_line())
    r = sch.intersection((0, 1)).ring
    with pytest.raises(ValueError, match="degree 0"):
        VectorBundle(
            sch,
            [0, 1],
            {(0, 1): [[r.one(), r.var("z")], [r.zero(), r.one()]]},
        )


def test_wrong_declared_inverse_rejected():
    sch = build_scheme(proj_line())
    r = sch.intersection((0, 1)).ring
    z = r.var("z")
    with pytest.raises(ValueError, match="inverse"):
        VectorBundle(sch, [0], {(0, 1): [[z]]}, inverses={(0, 1): [[z]]})


def test_missing_transition_rejected():
    sch = build_scheme(proj_line())
    with pytest.raises(ValueError, match="missing transition"):
        VectorBundle(sch, [0], {})


def test_cocycle_failure_detected():
    sch = build_scheme(proj_line_three_patch())

    def entries(vals):
        out = {}
        for pair, text in vals.items():
            r = sch.intersection(pair).ring
            out[pair] = [[parse_scalar(r, text)]]
        return out

    good = entries({(0, 1): "z", (0, 2): "1", (1, 2): "w"})
    VectorBundle(sch, [0], good)
    bad = entries({(0, 1): "z", (0, 2): "1", (1, 2): "1"})
    with pytest.raises(ValueError, match="cocycle"):
        VectorBundle(sch, [0], bad)


def test_delta_degree_enforced_z_graded():
    sch = build_scheme(proj_line())
    r = sch.intersection((0, 1)).ring
    bundle = VectorBundle(
        sch, [1, 0], {(0, 1): [[r.one(), r.zero()], [r.zero(), r.one()]]}
    )
    MatrixFactorization(bundle, [[[0, 1], [0, 0]], [[0, 1], [0, 0]]])
    with pytest.raises(ValueError, match="degree 1"):
        MatrixFactorization(bundle, [[[0, 0], [1, 0]], [[0, 0], [1, 0]]])


def test_invert_matrix():
    def inverse(ring, rows):
        parities = (0,) * len(rows)
        return dense(invert_matrix(MatrixForm.from_entries(ring, parities, parities, rows)))

    ring = plain_ring(variables=("x",))
    x = ring.var("x")
    inv = inverse(ring, [[ring.one(), x], [ring.zero(), ring.one()]])
    assert inv[0][0] == ring.one()
    assert inv[0][1] == -x
    assert inv[1][0] == ring.zero()
    assert inv[1][1] == ring.one()
    with pytest.raises(ValueError):
        inverse(ring, [[x]])
    punct = punctured_line()
    z = punct.var("z")
    inv = inverse(punct, [[z]])
    assert inv[0][0] == z ** -1


def dense_invert_matrix(m):
    """invert_matrix as it was: Gauss-Jordan on dense rows, zeros included,
    each pivot's inverse taken twice."""
    ring = m.ring
    n = len(m.row_parities)
    aug = [[ring.zero()] * (2 * n) for _ in range(n)]
    for r in range(n):
        aug[r][n + r] = ring.one()
    for (r, c, _idxs, _u), f in m.terms.items():
        aug[r][c] = f
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if aug[r][c].inverse() is not None:
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix not invertible over the localization")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = aug[c][c].unit_inverse()
        aug[c] = [v * inv for v in aug[c]]
        for r in range(n):
            if r != c and not aug[r][c].is_zero():
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return MatrixForm.from_entries(
        ring, m.col_parities, m.row_parities, [row[n:] for row in aug]
    )


def assert_same_terms(a, b):
    """Same keys, numerator terms (coefficient types included) and
    denominator multiplicities: the same canonical forms, not only values."""
    assert set(a.terms) == set(b.terms), f"{a} vs {b}"
    for key, f in a.terms.items():
        g = b.terms[key]
        assert f.den == g.den and f.num.terms == g.num.terms, (key, f, g)
        assert [type(c) for c in f.num.terms.values()] == [
            type(g.num.terms[e]) for e in f.num.terms
        ], (key, f, g)


def random_invertible(rng, ring, n):
    """A permutation times unipotent lower, unit diagonal and unipotent upper
    factors: entries z^k with k in -2..2 on the diagonal and random values
    off it."""
    z = ring.var("z")
    one, zero = ring.one(), ring.zero()
    lower = [[one if r == c else random_frac(rng, ring) if r > c else zero for c in range(n)]
             for r in range(n)]
    upper = [[one if r == c else random_frac(rng, ring) if r < c else zero for c in range(n)]
             for r in range(n)]
    diag = [[z ** rng.randint(-2, 2) * rng.choice((-2, 1, 3)) if r == c else zero
             for c in range(n)] for r in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    factors = [[[one if c == perm[r] else zero for c in range(n)] for r in range(n)],
               lower, diag, upper]
    parities = (0,) * n
    out = MatrixForm.identity(ring, parities)
    for rows in factors:
        out = out.mul(MatrixForm.from_entries(ring, parities, parities, rows))
    return out


def test_sparse_invert_matrix_matches_the_dense_elimination():
    rng = random.Random(29)
    ring = build_scheme(proj_line()).intersection((0, 1)).ring
    z, one, zero = ring.var("z"), ring.one(), ring.zero()
    cases = [random_invertible(rng, ring, rng.randint(1, 4)) for _ in range(24)]
    for rows in (
        [[zero, one], [one, z]],  # zero leading entry: the rows swap
        [[one, z, z ** -1 + one], [zero, one, z * z], [zero, zero, one]],  # unipotent
    ):
        parities = (0,) * len(rows)
        cases.append(MatrixForm.from_entries(ring, parities, parities, rows))
    inverted = 0
    for m in cases:
        try:
            want = dense_invert_matrix(m)
        except ValueError:  # invertible, but some column has no unit left
            assert m.mul(invert_matrix(m)) == MatrixForm.identity(ring, m.row_parities)
            continue
        got = invert_matrix(m)
        assert_same_terms(got, want)
        assert m.mul(got) == MatrixForm.identity(ring, m.row_parities)
        inverted += 1
    assert inverted >= 18, inverted
    assert sum(len(m.terms) < len(m.row_parities) ** 2 for m in cases) >= 2
    singular = MatrixForm.from_entries(ring, (0, 0), (0, 0), [[z, one], [z * z, z]])
    for m in (singular, MatrixForm.from_entries(ring, (0,), (0,), [[z + one]])):
        with pytest.raises(ValueError, match="matrix not invertible over the localization"):
            invert_matrix(m)


def test_bundle_with_a_transition_without_unit_pivots():
    """On P^1 the transition [[z + 1, 1], [z + 2, 1]] has no unit in its
    first column, but its determinant -1 is a unit: the bundle is accepted
    and the inverse is the adjugate over the determinant."""
    sch = build_scheme(proj_line())
    r = sch.intersection((0, 1)).ring
    z, one = r.var("z"), r.one()
    bundle = VectorBundle(sch, [0, 0], {(0, 1): [[z + one, one], [z + 2, one]]})
    want = MatrixForm.from_entries(r, (0, 0), (0, 0), [[-one, one], [z + 2, -(z + one)]])
    assert bundle.inverses[(0, 1)] == want


def test_invert_matrix_scales_and_inverts_only_nonzero_entries(monkeypatch):
    """A diagonal 4 x 4 takes four pivot inverses and eight scalings: two
    nonzero entries per pivot row, the pivot and its identity column (the
    dense elimination made eight inverses and 32 scalings)."""
    ring = build_scheme(proj_line()).intersection((0, 1)).ring
    z = ring.var("z")
    rows = [[z ** k if r == c else ring.zero() for c in range(4)] for r, k in
            enumerate((1, -1, 2, 0))]
    m = MatrixForm.from_entries(ring, (0,) * 4, (0,) * 4, rows)
    calls = {"mul": 0, "inverse": 0}
    real_mul, real_inverse = LocalFrac.__mul__, LocalFrac.inverse

    def mul(self, other):
        calls["mul"] += 1
        return real_mul(self, other)

    def inverse(self):
        calls["inverse"] += 1
        return real_inverse(self)

    monkeypatch.setattr(LocalFrac, "__mul__", mul)
    monkeypatch.setattr(LocalFrac, "inverse", inverse)
    got = invert_matrix(m)
    assert calls == {"mul": 8, "inverse": 4}, calls
    monkeypatch.undo()
    assert_same_terms(got, dense_invert_matrix(m))


def test_identity_morphism_is_closed():
    P = section_mf_proj_line()
    one = MorphismCochain.identity(P, 1)
    assert one.parity() == 0
    assert hom_differential(one).is_zero()


def test_hom_differential_even_morphism_frozen():
    sch = build_scheme(affine_line_squared())
    P = koszul_mf(sch, [["x"]], [["x"]])
    Q = koszul_mf(sch, [["x^2"]], [["1"]])
    ring = sch.patch_ring(0)
    x = ring.var("x")
    psi = MorphismCochain.from_entries(
        P,
        Q,
        {(0,): MatrixForm(ring, (0, 1), (0, 1), {(0, 0, (), 0): x, (1, 1, (), 0): ring.one()})},
        0,
    )
    d = hom_differential(psi)
    got = matrix_of(d, 0)
    # delta_Q psi - psi delta_P by hand
    assert got[0][0] == ring.zero()
    assert got[0][1] == ring.one() - x ** 2
    assert got[1][0] == x ** 3 - x
    assert got[1][1] == ring.zero()


def test_hom_differential_odd_morphism_frozen():
    sch = build_scheme(affine_line_squared())
    P = koszul_mf(sch, [["x"]], [["x"]])
    Q = koszul_mf(sch, [["x^2"]], [["1"]])
    ring = sch.patch_ring(0)
    x = ring.var("x")
    theta = MorphismCochain.from_entries(
        P, Q, {(0,): MatrixForm(ring, (0, 1), (0, 1), {(0, 1, (), 0): ring.one()})}, 0
    )
    assert theta.parity() == 1
    d = hom_differential(theta)
    got = matrix_of(d, 0)
    # delta_Q theta + theta delta_P by hand
    assert got[0][0] == x
    assert got[0][1] == ring.zero()
    assert got[1][0] == ring.zero()
    assert got[1][1] == x ** 2


def test_closed_comparison_morphism():
    sch = build_scheme(affine_line_squared())
    P = koszul_mf(sch, [["x"]], [["x"]])
    Q = koszul_mf(sch, [["x^2"]], [["1"]])
    ring = sch.patch_ring(0)
    x = ring.var("x")
    phi = MorphismCochain.from_entries(
        P,
        Q,
        {(0,): MatrixForm(ring, (0, 1), (0, 1), {(0, 0, (), 0): ring.one(), (1, 1, (), 0): x})},
        0,
    )
    assert hom_differential(phi).is_zero()


def test_hom_differential_squares_to_zero_random():
    P = section_mf_three_patch()
    sch = P.scheme
    rng = random.Random(20260819)
    for trial in range(20):
        entries = {}
        for tup in sch.tuples(1) + sch.tuples(2):
            ring = sch.intersection(tup).ring
            mf = random_matrix_form(rng, ring, (0, 1), (0, 1), max_u=1, nterms=3)
            if not mf.is_zero():
                entries[tup] = mf
        phi = MorphismCochain(P, P, CechCochain(sch, P.bundle, P.bundle, entries, 2))
        dd = hom_differential(hom_differential(phi))
        assert dd.is_zero(), trial


def test_compose_shape_checked():
    P = section_mf_proj_line()
    sch = P.scheme
    Q = koszul_mf(sch, [["1", "1"]], [["0", "0"]])
    one_P = MorphismCochain.identity(P, 1)
    one_Q = MorphismCochain.identity(Q, 1)
    with pytest.raises(ValueError, match="shape"):
        one_P.compose(one_Q)


def test_shift_involutive_z2():
    sch = build_scheme(affine_line_squared())
    P = koszul_mf(sch, [["x"]], [["x"]])
    S = shift(P)
    assert S.bundle.gradings == (1, 0)
    assert dense(S.deltas[0])[0][1] == -dense(P.deltas[0])[0][1]
    assert check_mf(S).ok
    SS = shift(S)
    assert SS.bundle.gradings == P.bundle.gradings
    for r in range(2):
        for c in range(2):
            assert dense(SS.deltas[0])[r][c] == dense(P.deltas[0])[r][c]


def test_shift_raises_grading_z():
    sch = build_scheme(proj_line())
    r = sch.intersection((0, 1)).ring
    bundle = VectorBundle(sch, [0], {(0, 1): [[r.var("z")]]})
    P = MatrixFactorization(bundle, [[[0]], [[0]]])
    S = shift(P)
    assert S.bundle.gradings == (1,)


def test_direct_sum_blocks():
    sch = build_scheme(affine_line_squared())
    P = koszul_mf(sch, [["x"]], [["x"]])
    Q = koszul_mf(sch, [["x^2"]], [["1"]])
    D = direct_sum(P, Q)
    assert D.bundle.gradings == (0, 1, 0, 1)
    ring = sch.patch_ring(0)
    x = ring.var("x")
    assert dense(D.deltas[0])[0][1] == x
    assert dense(D.deltas[0])[2][3] == ring.one()
    assert dense(D.deltas[0])[3][2] == x ** 2
    assert dense(D.deltas[0])[0][3] == ring.zero()
    assert dense(D.deltas[0])[2][1] == ring.zero()
    assert check_mf(D).ok


def test_direct_sum_on_two_patches():
    P = section_mf_proj_line()
    D = direct_sum(P, P)
    assert D.rank() == 4
    assert check_mf(D).ok


def test_retract_data_validates_projection():
    sch = build_scheme(affine_line_squared())
    P = koszul_mf(sch, [["x"]], [["x"]])
    Q = koszul_mf(sch, [["x^2"]], [["1"]])
    N = direct_sum(P, Q)
    ring = sch.patch_ring(0)
    one = ring.one()
    g = MorphismCochain.from_entries(
        P,
        N,
        {(0,): MatrixForm(ring, N.bundle.parities(), P.bundle.parities(),
                          {(0, 0, (), 0): one, (1, 1, (), 0): one})},
        0,
    )
    f = MorphismCochain.from_entries(
        N,
        P,
        {(0,): MatrixForm(ring, P.bundle.parities(), N.bundle.parities(),
                          {(0, 0, (), 0): one, (1, 1, (), 0): one})},
        0,
    )
    rd = RetractData(P, N, g, f)
    pi = matrix_of(rd.pi, 0)
    for r in range(4):
        for c in range(4):
            want = one if (r == c and r < 2) else ring.zero()
            assert pi[r][c] == want


def test_retract_data_rejects_non_closed_f():
    sch = build_scheme(affine_line_squared())
    P = koszul_mf(sch, [["x"]], [["x"]])
    Q = koszul_mf(sch, [["x^2"]], [["1"]])
    N = direct_sum(P, Q)
    ring = sch.patch_ring(0)
    one = ring.one()
    g = MorphismCochain.from_entries(
        P,
        N,
        {(0,): MatrixForm(ring, N.bundle.parities(), P.bundle.parities(),
                          {(0, 0, (), 0): one, (1, 1, (), 0): one})},
        0,
    )
    f_bad = MorphismCochain.from_entries(
        N,
        P,
        {(0,): MatrixForm(ring, P.bundle.parities(), N.bundle.parities(),
                          {(0, 0, (), 0): one, (1, 1, (), 0): one, (0, 2, (), 0): one})},
        0,
    )
    with pytest.raises(ValueError, match="not closed"):
        RetractData(P, N, g, f_bad)


def test_retract_data_rejects_wrong_composite():
    sch = build_scheme(affine_line_squared())
    P = koszul_mf(sch, [["x"]], [["x"]])
    N = direct_sum(P, P)
    ring = sch.patch_ring(0)
    one = ring.one()
    g = MorphismCochain.from_entries(
        P,
        N,
        {(0,): MatrixForm(ring, N.bundle.parities(), P.bundle.parities(),
                          {(0, 0, (), 0): one, (1, 1, (), 0): one})},
        0,
    )
    f_zero = MorphismCochain.from_entries(
        N, P, {}, 0
    )
    with pytest.raises(ValueError, match="1_P"):
        RetractData(P, N, g, f_zero)


def test_group_twist_frozen():
    sch = build_scheme(z2_reflection_on_line())
    P = koszul_mf(sch, [["x"]], [["x"]])
    sP = group_twist(P, "s")
    ring = sch.patch_ring(0)
    x = ring.var("x")
    assert dense(sP.deltas[0])[0][1] == -x
    assert dense(sP.deltas[0])[1][0] == -x
    assert check_mf(sP).ok
    eP = group_twist(P, "e")
    assert dense(eP.deltas[0])[0][1] == x


def test_twist_of_twist_recovers_delta():
    sch = build_scheme(z2_reflection_on_line())
    P = koszul_mf(sch, [["x"]], [["x"]])
    back = group_twist(group_twist(P, "s"), "s")
    for r in range(2):
        for c in range(2):
            assert dense(back.deltas[0])[r][c] == dense(P.deltas[0])[r][c]


def test_equivariant_structure_on_line():
    sch = build_scheme(z2_reflection_on_line())
    P = koszul_mf(sch, [["x"]], [["x"]])
    es = EquivariantStructure(
        P, {"e": [[[1, 0], [0, 1]]], "s": [[[1, 0], [0, -1]]]}
    )
    ring = sch.patch_ring(0)
    assert dense(es.phi["s"][0])[1][1] == ring.const(-1)
    tw = twist_by_character(es, {"e": 1, "s": -1})
    assert dense(tw.phi["s"][0])[0][0] == ring.const(-1)
    assert dense(tw.phi["s"][0])[1][1] == ring.one()
    assert dense(tw.phi["e"][0])[0][0] == ring.one()


def test_equivariant_cocycle_violation_rejected():
    sch = build_scheme(z2_reflection_on_line())
    P = koszul_mf(sch, [["x"]], [["x"]])
    with pytest.raises(ValueError, match="cocycle"):
        EquivariantStructure(P, {"e": [[[1, 0], [0, 1]]], "s": [[[2, 0], [0, -2]]]})


def test_equivariant_delta_compat_rejected():
    sch = build_scheme(z2_reflection_on_line())
    P = koszul_mf(sch, [["x"]], [["x"]])
    with pytest.raises(ValueError, match="intertwine"):
        EquivariantStructure(P, {"e": [[[1, 0], [0, 1]]], "s": [[[1, 0], [0, 1]]]})


def test_character_must_be_multiplicative():
    sch = build_scheme(z2_reflection_on_line())
    P = koszul_mf(sch, [["x"]], [["x"]])
    es = EquivariantStructure(
        P, {"e": [[[1, 0], [0, 1]]], "s": [[[1, 0], [0, -1]]]}
    )
    with pytest.raises(ValueError, match="multiplicative"):
        twist_by_character(es, {"e": 1, "s": 2})


def test_equivariant_structure_across_patches():
    sch = build_scheme(z2_on_proj_line())
    r = sch.intersection((0, 1)).ring
    # even twist: the sign action lifts with constant phi
    bundle = VectorBundle(sch, [0], {(0, 1): [[r.var("z") ** 2]]})
    P = MatrixFactorization(bundle, [[[0]], [[0]]])
    EquivariantStructure(P, {"e": [[[1]], [[1]]], "s": [[[1]], [[1]]]})
    # odd twist: the same constants break on the overlap, opposite signs work
    bundle1 = VectorBundle(sch, [0], {(0, 1): [[r.var("z")]]})
    P1 = MatrixFactorization(bundle1, [[[0]], [[0]]])
    with pytest.raises(ValueError, match="transition"):
        EquivariantStructure(P1, {"e": [[[1]], [[1]]], "s": [[[1]], [[1]]]})
    EquivariantStructure(P1, {"e": [[[1]], [[1]]], "s": [[[1]], [[-1]]]})


def oracle_validate(P, phi):
    """EquivariantStructure._validate as it was, on coerced phi: the
    cocycle loop, then delta intertwined chart by chart, then each
    transition compared with its pullback along the action."""
    scheme = P.scheme
    act = scheme.action
    parities = P.bundle.parities()
    for i in range(scheme.npatches()):
        if phi[act.identity][i] != MatrixForm.identity(scheme.patch_ring(i), parities):
            raise ValueError("phi_e must be the identity")
    for g in act.elements:
        f = scheme.action_map(g)
        for h in act.elements:
            gh = act.mult(g, h)
            for i in range(scheme.npatches()):
                moved = pullback_matrix(f.charts[i], phi[h][i])
                if phi[g][i].mul(moved) != phi[gh][i]:
                    raise ValueError(f"phi cocycle fails for ({g},{h}) on patch {i}")
        for i in range(scheme.npatches()):
            moved = pullback_matrix(f.charts[i], P.deltas[i])
            if P.deltas[i].mul(phi[g][i]) != phi[g][i].mul(moved):
                raise ValueError(f"phi_{g} does not intertwine delta on patch {i}")
    for (i, j) in scheme.tuples(2):
        gij = P.bundle.transitions[(i, j)]
        for g in act.elements:
            phi_i = pullback_matrix(scheme.restriction((i,), (i, j)), phi[g][i])
            phi_j = pullback_matrix(scheme.restriction((j,), (i, j)), phi[g][j])
            moved = pullback_matrix(scheme.action_map(g).on((i, j)), gij)
            if gij.mul(phi_j) != phi_i.mul(moved):
                raise ValueError(f"phi_{g} not compatible with transition ({i},{j})")


def verdict(check):
    """"ok", or the kind of the ValueError that check raises."""
    try:
        check()
    except ValueError as err:
        return next(k for k in ("identity", "cocycle", "intertwine", "transition") if k in str(err))
    return "ok"


def test_equivariant_validation_matches_the_three_loop_oracle():
    """phi_g is checked as a closed morphism g*P -> P of the hom complex.
    It accepts what the three loops accepted, and rejects with the same
    kind of message: Koszul x*x on the reflected line with phi_s = diag(a,
    b), and O(n) on P^1 (n = 0..3) with phi_s constants a and b on the two
    charts, for a and b in {-1, 0, 1, 2}."""
    line = build_scheme(z2_reflection_on_line())
    P1 = build_scheme(z2_on_proj_line())
    z = P1.intersection((0, 1)).ring.var("z")
    cases = []
    koszul = koszul_mf(line, [["x"]], [["x"]])
    for a, b in itertools.product((-1, 0, 1, 2), repeat=2):
        cases.append((koszul, {"e": [[[1, 0], [0, 1]]], "s": [[[a, 0], [0, b]]]}))
    for n in range(4):
        line_bundle = MatrixFactorization(VectorBundle(P1, [0], {(0, 1): [[z ** n]]}), [[[0]]] * 2)
        for a, b in itertools.product((-1, 0, 1, 2), repeat=2):
            cases.append((line_bundle, {"e": [[[1]], [[1]]], "s": [[[a]], [[b]]]}))
    kinds = []
    for P, spec in cases:
        coerced = {
            g: [_square_form(P.scheme.patch_ring(i), m, P.bundle.parities(), "phi")
                for i, m in enumerate(mats)]
            for g, mats in spec.items()
        }
        want = verdict(lambda: oracle_validate(P, coerced))
        assert verdict(lambda: EquivariantStructure(P, spec)) == want, (spec, want)
        kinds.append(want)
    assert set(kinds) == {"ok", "cocycle", "intertwine", "transition"}, kinds
    assert kinds.count("ok") == 2 + 4 * 2, kinds


def test_tilde_factorization_rank_doubles():
    sch = build_scheme(z2_reflection_on_line())
    P = koszul_mf(sch, [["x"]], [["x"]])
    tilde = direct_sum(P, group_twist(P, "s"))
    assert tilde.rank() == 4
    assert check_mf(tilde).ok
    ring = sch.patch_ring(0)
    x = ring.var("x")
    assert dense(tilde.deltas[0])[2][3] == -x


def test_delta_cochain_round_trip():
    P = section_mf_proj_line()
    d = P.delta_cochain(2)
    assert d.homogeneous_total_parity() == 1
    ring = P.scheme.patch_ring(0)
    mf = d.entry((0,))
    assert mf.terms[(0, 1, (), 0)] == ring.var("z")


def affine_space(n, potential):
    return {
        "grading": "Z2",
        "dimension": n,
        "patches": [
            {"name": f"A{n}", "variables": [f"x{k}" for k in range(1, n + 1)], "denominators": []}
        ],
        "gluings": [],
        "potentials": [potential],
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_koszul_outputs_pass_the_full_check_on_affine_space(n):
    """koszul_mf does not square its deltas, since delta^2 = sum a_j b_j by
    construction; check_mf still does, and must pass on its outputs: the
    workload shape a_j = x_j, b_j = c_j x_j and random a_j, b_j, with up to
    four generators (rank 16).  Data whose sum a_j b_j is not W still raises."""
    rng = random.Random(8100 + n)
    ring = Ring("T", [f"x{k}" for k in range(1, n + 1)])
    xs = [ring.var(v) for v in ring.vars]
    cases = [(xs, [x * (k + 2) for k, x in enumerate(xs)])]
    for m in (1, n):
        cases.append([[LocalFrac(ring, random_poly(rng, ring)) for _ in range(m)] for _ in "ab"])
    for a, b in cases:
        w = sum((aj * bj for aj, bj in zip(a, b)), ring.zero())
        sch = build_scheme(affine_space(n, str(w)))
        rows = [[[str(v)] for v in side] for side in (a, b)]
        P = koszul_mf(sch, *rows)
        assert check_mf(P).ok
        wrong = build_scheme(affine_space(n, str(w + ring.var("x1"))))
        with pytest.raises(ValueError, match="differs from the potential"):
            koszul_mf(wrong, *rows)


@pytest.mark.parametrize("config", [proj_line(), proj_line_three_patch()])
def test_koszul_outputs_pass_the_full_check_on_proj_line(config):
    """The overlap checks still run in koszul_mf, and its outputs pass
    check_mf on the two-chart and the redundant three-chart cover of P^1."""
    sch = build_scheme(config)
    n = sch.npatches()
    P = koszul_mf(sch, [["1"] * n, ["-2"] * n], [["0"] * n, ["0"] * n])
    assert check_mf(P).ok
    with pytest.raises(ValueError, match="differs from the potential"):
        koszul_mf(sch, [["1"] * n], [["1"] * n])
    with pytest.raises(ValueError, match=r"g delta_j != delta_i g"):
        koszul_mf(sch, [["1"] + ["2"] * (n - 1)], [["0"] * n])
