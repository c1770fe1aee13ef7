import random

import pytest

from mfchern import cohomology
from mfchern.cech import CechCochain, MatrixForm
from mfchern.cohomology import (
    TotalCochain,
    _cofaces,
    _column_image,
    _minus_dw_cochain,
    _total_differential,
    cohomologous,
    coinvariant_project,
    is_cocycle,
    total_differential,
)
from mfchern.geometry import build_scheme
from mfchern.rings import (
    Fraction,
    LocalFrac,
    ScalarPoly,
    _subsets,
    monomials_up_to,
    parse_scalar,
)

from .test_geometry import (
    affine_line_squared,
    proj_line,
    three_patch_line,
    z2_swap_on_plane,
)
from .test_rings import random_frac
from .test_trace_oracle import P2


def scalar_cochain(scheme, spec, u_truncation):
    """spec: {tup: [(idxs, u_pow, text), ...]} with entry texts parsed in the
    intersection ring of tup."""
    entries = {}
    for tup, items in spec.items():
        ring = scheme.intersection(tup).ring
        terms = {}
        for idxs, m, text in items:
            value = parse_scalar(ring, text)
            key = (0, 0, tuple(idxs), m)
            terms[key] = terms[key] + value if key in terms else value
        entries[tup] = MatrixForm(ring, (0,), (0,), terms)
    return CechCochain.scalar(scheme, entries, u_truncation)


def affine_line_flat():
    cfg = affine_line_squared()
    cfg["potentials"] = ["0"]
    cfg.pop("all_critical_values_zero", None)
    return cfg


def three_patch_squared():
    cfg = three_patch_line()
    cfg["grading"] = "Z2"
    cfg["potentials"] = ["x^2", "x^2", "x^2"]
    return cfg


def s3_plane_config():
    # standard two-dimensional representation over Q; the stored maps are
    # coordinate substitutions, so the table multiplies matrices in reverse
    def mmul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    e = ((1, 0), (0, 1))
    r = ((0, -1), (1, -1))
    s = ((0, 1), (1, 0))
    mats = [e, r, mmul(r, r), s, mmul(r, s), mmul(mmul(r, r), s)]
    names = ["e", "r", "r2", "s", "rs", "r2s"]
    idx = {m: k for k, m in enumerate(mats)}
    assert len(idx) == 6
    table = [[idx[mmul(mb, ma)] for mb in mats] for ma in mats]

    def images(m):
        return [f"({row[0]})*x + ({row[1]})*y" for row in m]

    return {
        "grading": "Z2",
        "dimension": 2,
        "patches": [{"name": "A2", "variables": ["x", "y"], "denominators": []}],
        "gluings": [],
        "potentials": ["0"],
        "group": {
            "elements": names,
            "table": table,
            "action": [[images(m)] for m in mats],
        },
    }


def random_scalar(rng, scheme, u_truncation, nterms=4):
    entries = {}
    for size in range(1, scheme.npatches() + 1):
        for tup in scheme.tuples(size):
            if rng.random() < 0.4:
                continue
            ring = scheme.intersection(tup).ring
            terms = {}
            for _ in range(rng.randint(1, nterms)):
                nvars = len(ring.vars)
                idxs = tuple(sorted(rng.sample(range(nvars), rng.randint(0, nvars))))
                m = rng.randint(0, u_truncation)
                key = (0, 0, idxs, m)
                value = random_frac(rng, ring, degree=2, den_bound=1)
                terms[key] = terms[key] + value if key in terms else value
            terms = {k: v for k, v in terms.items() if not v.is_zero()}
            if terms:
                entries[tup] = MatrixForm(ring, (0,), (0,), terms)
    return CechCochain.scalar(scheme, entries, u_truncation)


def test_constant_one_maps_to_minus_dw():
    sch = build_scheme(affine_line_squared())
    one = scalar_cochain(sch, {(0,): [((), 0, "1")]}, 2)
    out = total_differential(one)
    expected = scalar_cochain(sch, {(0,): [((0,), 0, "-2*x")]}, 2)
    assert out == expected


def test_constant_one_closed_for_flat_potential():
    sch = build_scheme(proj_line())
    one = scalar_cochain(sch, {(0,): [((), 0, "1")], (1,): [((), 0, "1")]}, 2)
    assert total_differential(one).is_zero()
    assert is_cocycle(one)


def test_dz_over_z_is_closed():
    sch = build_scheme(proj_line())
    c = scalar_cochain(sch, {(0, 1): [((0,), 0, "1/z")]}, 2)
    assert is_cocycle(c)


def test_total_differential_squares_to_zero():
    rng = random.Random(20260819)
    schemes = [
        build_scheme(affine_line_squared()),
        build_scheme(three_patch_squared()),
        build_scheme(z2_swap_on_plane()),
    ]
    for trial in range(30):
        sch = schemes[trial % len(schemes)]
        c = random_scalar(rng, sch, u_truncation=3)
        dd = total_differential(total_differential(c))
        assert dd.is_zero(), f"trial {trial}:\n{dd}"


def test_is_cocycle_flags_open_cochains():
    sch = build_scheme(affine_line_squared())
    zero = CechCochain.scalar(sch, {}, 2)
    assert is_cocycle(zero)
    open_cochain = scalar_cochain(sch, {(0,): [((), 0, "x^2")]}, 2)
    assert not is_cocycle(open_cochain)
    rng = random.Random(7)
    boundary = total_differential(random_scalar(rng, sch, 3))
    assert is_cocycle(boundary)


def test_degree_bookkeeping():
    sch = build_scheme(proj_line())
    c = TotalCochain(
        scalar_cochain(sch, {(0, 1): [((0,), 1, "z")], (0,): [((), 0, "3")]}, 2)
    )
    assert c.components() == [(0, 0, 0), (1, 1, 1)]
    assert c.total_degrees() == [0, 2]
    assert c.homogeneous_total_parity() == 0


def test_total_cochain_scalar_is_a_total_cochain():
    sch = build_scheme(proj_line())
    plain = scalar_cochain(sch, {(0, 1): [((0,), 1, "z")], (0,): [((), 0, "3")]}, 2)
    c = TotalCochain.scalar(sch, plain.entries, 2)
    assert type(c) is TotalCochain
    assert c == plain and c.u_truncation == 2
    assert c.total_degrees() == [0, 2]
    assert type(TotalCochain.zero(sch, 2)) is TotalCochain


def test_primitive_at_a_higher_power_of_u():
    """u d raises the power of u by one, so x dx at u^3 has the primitive
    x^2/2 at u^2: its column's image is the u^0 image shifted by two."""
    sch = build_scheme(affine_line_flat())
    c = scalar_cochain(sch, {(0,): [((0,), 3, "x")]}, 3)
    prim = cohomologous(c, TotalCochain.zero(sch, 3), degree_bound=2)
    assert prim == scalar_cochain(sch, {(0,): [((), 2, "x^2")]}, 3).scale(Fraction(1, 2))


def test_primitive_at_the_top_power_of_u():
    """With W = x^2, -dw keeps the power of u and u d raises it past the
    truncation: x at u^2 is the primitive of its image -dw x at u^2, and the
    u dx it would add at u^3 is cut, not required to vanish."""
    sch = build_scheme(affine_line_squared())
    prim = scalar_cochain(sch, {(0,): [((), 2, "x")]}, 2)
    c = total_differential(prim)
    assert c.entries[(0,)].terms.keys() == {(0, 0, (0,), 2)}
    assert cohomologous(c, TotalCochain.zero(sch, 2), degree_bound=1) == prim


def test_primitive_polynomial_case():
    sch = build_scheme(affine_line_flat())
    c = TotalCochain(scalar_cochain(sch, {(0,): [((0,), 1, "x")]}, 2))
    zero = TotalCochain.zero(sch, 2)
    prim = cohomologous(c, zero, degree_bound=3)
    assert prim is not None
    half_square = scalar_cochain(sch, {(0,): [((), 0, "x^2")]}, 2).scale(Fraction(1, 2))
    assert prim == TotalCochain(half_square)
    assert prim == half_square
    assert total_differential(prim) == c
    assert total_differential(TotalCochain(c)) == total_differential(c)


def test_primitive_across_charts():
    sch = build_scheme(proj_line())
    c = TotalCochain(scalar_cochain(sch, {(0, 1): [((0,), 0, "1/z^2")]}, 2))
    zero = TotalCochain.zero(sch, 2)
    prim = cohomologous(c, zero, degree_bound=2, den_bound=2)
    assert prim is not None
    assert total_differential(prim) == c
    # reversing the order negates the primitive
    rev = cohomologous(zero, c, degree_bound=2, den_bound=2)
    assert rev is not None
    assert rev == -prim


def test_distinct_classes_stay_undecided():
    flat = build_scheme(affine_line_flat())
    one = TotalCochain(scalar_cochain(flat, {(0,): [((), 0, "1")]}, 2))
    zero = TotalCochain.zero(flat, 2)
    assert cohomologous(one, zero, degree_bound=4, den_bound=0) is None

    sch = build_scheme(proj_line())
    res_class = TotalCochain(scalar_cochain(sch, {(0, 1): [((0,), 0, "1/z")]}, 2))
    assert cohomologous(res_class, TotalCochain.zero(sch, 2), 3, den_bound=2) is None


def basis_values(ring, degree_bound, den_bound):
    """The values x^a/g^m that cohomologous takes as column bases: those
    whose canonical form keeps the monomial and the multiplicities."""
    for den in monomials_up_to(len(ring.denominators), den_bound):
        for mono in monomials_up_to(len(ring.vars), degree_bound):
            value = LocalFrac(ring, ScalarPoly(ring.vars, {mono: 1}), den)
            if value.den == tuple(den) and value.num.terms == {tuple(mono): 1}:
                yield value


def test_column_images_match_the_total_differential():
    """Each column image that cohomologous builds in closed form equals the
    terms of total_differential of its one-entry cochain, numerators and
    multiplicities included: every tuple, every dx index set (both parities),
    degree <= 3 and multiplicity <= 2 at u^0, on the two-chart P^1, the
    three-chart P^2 (monomial gluings) and the three-patch line with W = x^2
    (gluings through x - 1, and a nonzero -dw)."""
    trunc = 1  # keeps the u d part
    for config in (proj_line(), P2, three_patch_squared()):
        sch = build_scheme(config)
        dw = _minus_dw_cochain(sch, trunc)
        parts = set()
        for size in range(1, sch.npatches() + 1):
            for tup in sch.tuples(size):
                ring = sch.intersection(tup).ring
                cofaces = _cofaces(sch, tup)
                minus_dw = dw.transport(tup[:1], tup) if tup[:1] in dw.entries else None
                for idxs in _subsets(len(ring.vars)):
                    for value in basis_values(ring, 3, 2):
                        image = _column_image(tup, idxs, value, cofaces, minus_dw)
                        got = dict(image)
                        assert len(got) == len(image)
                        one = MatrixForm(ring, (0,), (0,), {(0, 0, idxs, 0): value})
                        full = _total_differential(CechCochain.scalar(sch, {tup: one}, trunc), dw)
                        expected = {
                            (t, key[2], key[3]): f
                            for t, mf in full.entries.items()
                            for key, f in mf.terms.items()
                        }
                        assert got.keys() == expected.keys(), (tup, idxs, value)
                        for key, f in got.items():
                            assert (f.num.terms, f.den) == (
                                expected[key].num.terms,
                                expected[key].den,
                            ), (tup, idxs, value, key)
                        parts.update(
                            "cech" if len(t) > len(tup) else "d" if m else "dw"
                            for t, _i, m in got
                        )
        assert parts == ({"cech", "d", "dw"} if dw.entries else {"cech", "d"})


def test_cohomologous_runs_the_total_differential_only_to_check(monkeypatch):
    """Columns are built in closed form, so total_differential runs once on
    a found primitive (the check by substitution) and not at all when the
    search is undecided."""
    checked = []
    real = cohomology._total_differential
    monkeypatch.setattr(
        cohomology, "_total_differential", lambda c, dw: checked.append(c) or real(c, dw)
    )
    sch = build_scheme(proj_line())
    zero = TotalCochain.zero(sch, 2)
    c = TotalCochain(scalar_cochain(sch, {(0, 1): [((0,), 0, "1/z^2")]}, 2))
    prim = cohomologous(c, zero, degree_bound=2, den_bound=2)
    assert prim is not None and len(checked) == 1 and checked[0] is prim
    res_class = TotalCochain(scalar_cochain(sch, {(0, 1): [((0,), 0, "1/z")]}, 2))
    assert cohomologous(res_class, zero, 3, den_bound=2) is None
    assert len(checked) == 1


def test_equal_cocycles_give_zero_primitive():
    sch = build_scheme(proj_line())
    c = TotalCochain(scalar_cochain(sch, {(0, 1): [((0,), 0, "1/z")]}, 2))
    prim = cohomologous(c, c, degree_bound=1)
    assert prim is not None and prim.is_zero()


def test_parity_mismatch_raises():
    sch = build_scheme(affine_line_flat())
    even = TotalCochain(scalar_cochain(sch, {(0,): [((), 0, "1")]}, 2))
    odd = TotalCochain(scalar_cochain(sch, {(0,): [((0,), 0, "x")]}, 2))
    with pytest.raises(ValueError):
        cohomologous(even, odd, degree_bound=2)


def test_coinvariant_identity_for_abelian_group():
    sch = build_scheme(z2_swap_on_plane())
    rng = random.Random(11)
    family = {
        "e": TotalCochain(random_scalar(rng, sch, 2)),
        "s": TotalCochain(random_scalar(rng, sch, 2)),
    }
    out = coinvariant_project(family, sch)
    assert out["e"] == family["e"]
    assert out["s"] == family["s"]


def test_coinvariant_single_component_orbit():
    sch = build_scheme(s3_plane_config())
    c = TotalCochain(scalar_cochain(sch, {(0,): [((0,), 0, "x"), ((), 1, "y^2")]}, 2))
    family = {"r": c}
    out = coinvariant_project(family, sch)
    assert out["r"] == c.scale(Fraction(1, 2))
    assert out["e"].is_zero()
    assert out["s"].is_zero()
    assert not out["r2"].is_zero()


def test_coinvariant_idempotent():
    sch = build_scheme(s3_plane_config())
    rng = random.Random(20260819)
    for _ in range(3):
        family = {
            g: TotalCochain(random_scalar(rng, sch, 2))
            for g in sch.action.elements
        }
        once = coinvariant_project(family, sch)
        twice = coinvariant_project(once, sch)
        for g in sch.action.elements:
            assert twice[g] == once[g], g


def test_coinvariant_commutes_with_differential():
    sch = build_scheme(s3_plane_config())
    rng = random.Random(5)
    family = {
        g: TotalCochain(random_scalar(rng, sch, 2)) for g in sch.action.elements
    }
    left = coinvariant_project(
        {g: total_differential(c) for g, c in family.items()}, sch
    )
    right = {
        g: total_differential(c)
        for g, c in coinvariant_project(family, sch).items()
    }
    for g in sch.action.elements:
        assert left[g] == right[g], g
