import itertools
import random

import pytest

from mfchern import cohomology
from mfchern.cech import CechCochain, MatrixForm, acw_product, cech_differential, pullback_matrix
from mfchern.cohomology import (
    TotalCochain,
    _candidate_values,
    _cofaces,
    _column_image,
    _minus_dw_cochain,
    _pullback,
    _total_differential,
    cohomologous,
    coinvariant_project,
    total_differential,
)
from mfchern.connection import Connection
from mfchern.geometry import build_scheme, fixed_locus, locus_transport
from mfchern.hochschild import GeometricCategory, HochschildChain, connes_B, hochschild_b, tr_nabla
from mfchern.mf import MorphismCochain, koszul_mf
from mfchern.rings import Fraction, RingMap, _subsets, parse_scalar

from .test_cech import random_matrix_form
from .test_connection import random_one_form_matrix
from .test_geometry import (
    affine_line_squared,
    proj_line,
    three_patch_line,
    z2_on_proj_line,
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


def test_dz_over_z_is_closed():
    sch = build_scheme(proj_line())
    c = scalar_cochain(sch, {(0, 1): [((0,), 0, "1/z")]}, 2)
    assert total_differential(c).is_zero()


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


def polynomial_morphism(rng, source, target, trunc):
    """A global morphism between objects on the trivial bundle of
    three_patch_squared(): a random polynomial matrix on chart 0, restricted
    to every chart, so its Cech differential vanishes."""
    sch = source.scheme
    ring0 = sch.patch_ring(0)
    value = random_matrix_form(
        rng,
        ring0,
        target.bundle.parities(),
        source.bundle.parities(),
        parity=rng.randint(0, 1),
        max_u=0,
        nterms=4,
    )
    entries = {}
    for (i,) in sch.tuples(1):
        ring = sch.intersection((i,)).ring
        entries[(i,)] = pullback_matrix(RingMap(ring0, ring, (ring.var("x"),)), value)
    return MorphismCochain.from_entries(source, target, entries, trunc)


def test_trace_chain_map_three_charts_with_potential():
    """D tr_nabla = tr_nabla (b + uB) on the three-chart A^1 with w = x^2,
    with a random connection on every chart.  D carries -dw and the Cech
    differential of a real cover, and both act on some of the traces."""
    sch = build_scheme(three_patch_squared())
    objects = [
        koszul_mf(sch, [["x"] * 3], [["x"] * 3]),
        koszul_mf(sch, [["x^2"] * 3], [["1"] * 3]),
    ]
    rings = [sch.patch_ring(i) for i in range(sch.npatches())]
    minus_dw = _minus_dw_cochain(sch, 3)
    rng = random.Random(20261020)
    cat = GeometricCategory(sch, 3)
    cech_acts = dw_acts = 0
    for trial in range(12):
        conns = {
            P: Connection(
                P,
                [random_one_form_matrix(rng, ring, P.bundle.parities()) for ring in rings],
            )
            for P in objects
        }
        items = []
        for _ in range(2):
            n = rng.randint(0, 2)
            route = [rng.choice(objects) for _ in range(n + 1)]
            entries = [
                polynomial_morphism(rng, route[(j + 1) % (n + 1)], route[j], 3)
                for j in range(n + 1)
            ]
            items.append((1, rng.randint(0, 1), entries[0], tuple(entries[1:])))
        x = HochschildChain(cat, 3, 4, items)
        trace = tr_nabla(x, conns)
        cech_acts += not cech_differential(trace).is_zero()
        dw_acts += not acw_product(minus_dw, trace).is_zero()
        lhs = total_differential(trace)
        rhs = tr_nabla(hochschild_b(x) + connes_B(x).shift_u(1), conns)
        diff = lhs - rhs
        assert diff.is_zero(), f"trial {trial}:\n{diff.canonical_string()}"
    assert cech_acts and dw_acts, (cech_acts, dw_acts)


def test_is_cocycle_flags_open_cochains():
    sch = build_scheme(affine_line_squared())
    zero = CechCochain.scalar(sch, {}, 2)
    assert total_differential(zero).is_zero()
    open_cochain = scalar_cochain(sch, {(0,): [((), 0, "x^2")]}, 2)
    assert not total_differential(open_cochain).is_zero()
    rng = random.Random(7)
    boundary = total_differential(random_scalar(rng, sch, 3))
    assert total_differential(boundary).is_zero()


def test_degree_bookkeeping():
    sch = build_scheme(proj_line())
    c = TotalCochain(
        scalar_cochain(sch, {(0, 1): [((0,), 1, "z")], (0,): [((), 0, "3")]}, 2)
    )
    assert c.homogeneous_total_parity() == 0


def test_total_cochain_scalar_is_a_total_cochain():
    sch = build_scheme(proj_line())
    plain = scalar_cochain(sch, {(0, 1): [((0,), 1, "z")], (0,): [((), 0, "3")]}, 2)
    c = TotalCochain.scalar(sch, plain.entries, 2)
    assert type(c) is TotalCochain
    assert c == plain and c.u_truncation == 2
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
                    for value in _candidate_values(ring, 3, 2):
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


def fixed_loci(X):
    return {g: fixed_locus(X, g) for g in X.action.elements}


def random_family(rng, loci):
    """A random scalar cochain at u truncation 2 on each fixed locus."""
    return {g: TotalCochain(random_scalar(rng, f.source, 2)) for g, f in loci.items()}


EQUIVARIANT_CONFIGS = [s3_plane_config, z2_swap_on_plane, z2_on_proj_line]


def test_coinvariant_averages_the_swap_on_the_plane():
    """For the swap s on A^2 the e-component is averaged over the group:
    s pulls t0 dt0 on X^e = A^2 back to t1 dt1.  No element conjugates e
    to s, so the s-component stays 0."""
    X = build_scheme(z2_swap_on_plane())
    loci = fixed_loci(X)
    plane = loci["e"].source
    out = coinvariant_project({"e": scalar_cochain(plane, {(0,): [((0,), 0, "t0")]}, 1)}, loci)
    want = scalar_cochain(plane, {(0,): [((0,), 0, "t0/2"), ((1,), 0, "t1/2")]}, 1)
    assert out["e"] == want
    assert out["s"].scheme is loci["s"].source and out["s"].is_zero()


def test_coinvariant_single_component_orbit():
    """The rotation r of S_3 fixes only the origin; its class is {r, r2},
    so a family at r alone is split in half between r and r2."""
    X = build_scheme(s3_plane_config())
    loci = fixed_loci(X)
    c = TotalCochain(scalar_cochain(loci["r"].source, {(0,): [((), 0, "3"), ((), 1, "1")]}, 2))
    out = coinvariant_project({"r": c}, loci)
    assert out["r"] == c.scale(Fraction(1, 2))
    assert out["r2"].scheme is loci["r2"].source and not out["r2"].is_zero()
    assert out["e"].is_zero()
    assert out["s"].is_zero()


@pytest.mark.parametrize("config", EQUIVARIANT_CONFIGS)
def test_coinvariant_projection_is_invariant_under_conjugation(config):
    """Each transport f_h: X^g -> X^(h^-1 g h) pulls component h^-1 g h of
    the projection back to component g, on random families; for S_3 the
    projection is not the identity."""
    X = build_scheme(config())
    act = X.action
    loci = fixed_loci(X)
    rng = random.Random(30)
    for _ in range(2):
        family = random_family(rng, loci)
        out = coinvariant_project(family, loci)
        for g, h in itertools.product(act.elements, repeat=2):
            hinv = act.inverse(h)
            conj = act.mult(act.mult(hinv, g), h)
            f = locus_transport(X, loci[g], loci[conj], hinv)
            assert _pullback(f, out[conj]) == out[g], (g, h)
        if len(act.elements) == 6:
            assert any(out[g] != family[g] for g in act.elements)


def test_coinvariant_idempotent():
    rng = random.Random(20260819)
    for config in EQUIVARIANT_CONFIGS:
        X = build_scheme(config())
        loci = fixed_loci(X)
        for _ in range(2):
            once = coinvariant_project(random_family(rng, loci), loci)
            twice = coinvariant_project(once, loci)
            for g in X.action.elements:
                assert twice[g] == once[g], (config.__name__, g)


def test_coinvariant_commutes_with_differential():
    rng = random.Random(5)
    for config in EQUIVARIANT_CONFIGS:
        X = build_scheme(config())
        loci = fixed_loci(X)
        family = random_family(rng, loci)
        left = coinvariant_project({g: total_differential(c) for g, c in family.items()}, loci)
        right = coinvariant_project(family, loci)
        for g in X.action.elements:
            assert left[g] == total_differential(right[g]), (config.__name__, g)


@pytest.mark.parametrize("config", [z2_on_proj_line, z2_swap_on_plane, s3_plane_config])
def test_pullback_commutes_with_the_total_differential(config):
    """f* d = d f* on random scalar cochains, for f every group element, every
    fixed-locus inclusion X^g -> X and every transport X^g -> X^{hgh^-1}."""
    X = build_scheme(config())
    act = X.action
    rng = random.Random(28)
    loci = {g: fixed_locus(X, g) for g in act.elements}
    maps = [X.action_map(g) for g in act.elements] + list(loci.values())
    for g, h in itertools.product(act.elements, repeat=2):
        conj = act.mult(act.mult(h, g), act.inverse(h))
        maps.append(locus_transport(X, loci[g], loci[conj], h))
    moved = 0
    for f in maps:
        for _ in range(3):
            c = random_scalar(rng, f.target, 2)
            pulled = _pullback(f, c)
            assert pulled.scheme is f.source
            assert total_differential(pulled) == _pullback(f, total_differential(c))
            moved += not pulled.is_zero()
    assert moved >= len(maps), moved
