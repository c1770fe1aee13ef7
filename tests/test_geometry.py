import itertools
import random
from collections import namedtuple

import pytest

from mfchern.cech import CechCochain, MatrixForm
from mfchern.cohomology import _pullback
from mfchern.geometry import (
    CoveredScheme,
    Patch,
    _restricted_denominators,
    build_scheme,
    fixed_locus,
    locus_transport,
    reroot,
)
from mfchern.rings import (
    Fraction,
    LocalFrac,
    Ring,
    RingMap,
    ScalarPoly,
    parse_scalar,
    solve_affine_q,
)

from .test_rings import random_frac


def affine_line_squared():
    return {
        "grading": "Z2",
        "dimension": 1,
        "patches": [{"name": "A1", "variables": ["x"], "denominators": []}],
        "gluings": [],
        "potentials": ["x^2"],
        "all_critical_values_zero": True,
    }


def proj_line(potentials=("0", "0")):
    return {
        "grading": "Z",
        "dimension": 1,
        "patches": [
            {"name": "U0", "variables": ["z"], "denominators": []},
            {"name": "U1", "variables": ["w"], "denominators": []},
        ],
        "gluings": [{"pair": [0, 1], "denominators": ["z"], "images": ["1/z"]}],
        "potentials": list(potentials),
    }


def three_patch_line():
    # A^1 with the redundant cover A^1, D(x), D(x-1); gives honest triples
    return {
        "grading": "Z",
        "dimension": 1,
        "patches": [
            {"name": "V0", "variables": ["x"], "denominators": []},
            {"name": "V1", "variables": ["x"], "denominators": ["x"]},
            {"name": "V2", "variables": ["x"], "denominators": ["x - 1"]},
        ],
        "gluings": [
            {"pair": [0, 1], "denominators": ["x"], "images": ["x"]},
            {"pair": [0, 2], "denominators": ["x - 1"], "images": ["x"]},
            {"pair": [1, 2], "denominators": ["x - 1"], "images": ["x"]},
        ],
        "potentials": ["0", "0", "0"],
    }


def z2_reflection_on_line():
    cfg = affine_line_squared()
    cfg["group"] = {
        "elements": ["e", "s"],
        "table": [[0, 1], [1, 0]],
        "action": [[["x"]], [["-x"]]],
    }
    return cfg


def z2_swap_on_plane():
    return {
        "grading": "Z2",
        "dimension": 2,
        "patches": [{"name": "A2", "variables": ["x", "y"], "denominators": []}],
        "gluings": [],
        "potentials": ["x*y"],
        "group": {
            "elements": ["e", "s"],
            "table": [[0, 1], [1, 0]],
            "action": [[["x", "y"]], [["y", "x"]]],
        },
    }


def z2_on_proj_line():
    cfg = proj_line()
    cfg["grading"] = "Z2"
    cfg["group"] = {
        "elements": ["e", "s"],
        "table": [[0, 1], [1, 0]],
        "action": [[["z"], ["w"]], [["-z"], ["-w"]]],
    }
    return cfg


def test_affine_line_builds():
    X = build_scheme(affine_line_squared())
    assert X.dimension == 1
    assert X.npatches() == 1


def test_proj_line_builds():
    X = build_scheme(proj_line())
    z = X.intersection((0, 1)).ring.var("z")
    assert X.restriction((1,), (0, 1)).apply(X.patch_ring(1).var("w")) == z ** -1


def test_grading_Z_forces_zero_potential():
    cfg = proj_line()
    cfg["potentials"] = ["z^2", "w^2"]
    with pytest.raises(ValueError, match="grading Z requires zero potential"):
        build_scheme(cfg)


def test_potential_mismatch_is_an_error():
    cfg = proj_line()
    cfg["grading"] = "Z2"
    # z^2 on U0 restricts to z^2, w^3 on U1 restricts to 1/z^3: no match
    cfg["potentials"] = ["z^2", "w^3"]
    with pytest.raises(ValueError, match="potential mismatch"):
        build_scheme(cfg)


def test_inconsistent_covers_rejected():
    fewer_potentials = dict(proj_line(), potentials=["0"])
    with pytest.raises(ValueError, match="2 patches but 1 potentials"):
        build_scheme(fewer_potentials)
    glued_to_nothing = proj_line()
    glued_to_nothing["gluings"] = [dict(glued_to_nothing["gluings"][0], pair=[0, 2])]
    with pytest.raises(ValueError, match=r"gluing pair \(0,2\) is not increasing below 2"):
        build_scheme(glued_to_nothing)
    with pytest.raises(ValueError, match=r"nonempty pair \(0, 1\) has no gluing"):
        build_scheme(dict(proj_line(), gluings=[]))
    # declared empty, the pair needs no gluing
    X = build_scheme(dict(proj_line(), gluings=[], empty_pairs=[[0, 1]]))
    assert X.npatches() == 2 and X.tuples(2) == []


def test_matching_nonzero_potential_across_patches():
    # w = z^2/(pole at 0): z^2 on U0 matches w^-2 written in U1 coordinates
    cfg = proj_line()
    cfg["grading"] = "Z2"
    cfg["patches"][1]["denominators"] = ["w"]
    cfg["potentials"] = ["z^2", "1/w^2"]
    X = build_scheme(cfg)
    assert X.npatches() == 2


def test_triple_consistency_passes_and_restrictions_compose():
    X = build_scheme(three_patch_line())
    assert X.tuples(3) == [(0, 1, 2)]
    rng = random.Random(3)
    for small, mid, big in [((0,), (0, 1), (0, 1, 2)), ((1,), (1, 2), (0, 1, 2))]:
        step1 = X.restriction(small, mid)
        step2 = X.restriction(mid, big)
        direct = X.restriction(small, big)
        for _ in range(5):
            a = random_frac(rng, X.intersection(small).ring)
            assert step2.apply(step1.apply(a)) == direct.apply(a)


def test_triple_inconsistency_detected():
    cfg = three_patch_line()
    cfg["gluings"][2]["images"] = ["x + 1"]
    with pytest.raises(ValueError, match="triple|incompatible"):
        build_scheme(cfg)


def test_action_group_law_enforced():
    cfg = z2_reflection_on_line()
    cfg["group"]["action"][1] = [["x + 1"]]  # not an involution
    with pytest.raises(ValueError, match="group law"):
        build_scheme(cfg)


def test_action_must_fix_potential():
    cfg = z2_reflection_on_line()
    cfg["potentials"] = ["x^3"]
    with pytest.raises(ValueError, match="potential not fixed"):
        build_scheme(cfg)


def test_action_must_respect_gluing():
    """On P^1, z -> -z must go with w -> -w, since w = 1/z on the overlap."""
    cfg = z2_on_proj_line()
    cfg["group"]["action"][1] = [["-z"], ["w"]]
    with pytest.raises(ValueError, match="respect gluing"):
        build_scheme(cfg)
    X = build_scheme(z2_on_proj_line())
    w = X.patch_ring(1).var("w")
    assert X.action_map("s").charts[1].apply(w) == -w


def test_fixed_locus_of_reflection_is_origin():
    X = build_scheme(z2_reflection_on_line())
    loc = fixed_locus(X, "s")
    assert loc.index[0] == 0
    ring = loc.source.patch_ring(0)
    assert ring.vars == ()
    restr = loc.charts[0]
    x = X.patch_ring(0).var("x")
    assert restr.apply(x ** 2 + 3).as_constant() == 3
    assert loc.source.potential(0).is_zero()


def test_fixed_locus_of_identity_is_everything():
    X = build_scheme(z2_reflection_on_line())
    loc = fixed_locus(X, "e")
    ring = loc.source.patch_ring(0)
    assert len(ring.vars) == 1
    rng = random.Random(5)
    restr = loc.charts[0]
    for _ in range(5):
        a = random_frac(rng, X.patch_ring(0))
        b = random_frac(rng, X.patch_ring(0))
        assert restr.apply(a * b) == restr.apply(a) * restr.apply(b)


def test_fixed_locus_of_swap_is_diagonal_line():
    X = build_scheme(z2_swap_on_plane())
    loc = fixed_locus(X, "s")
    ring = loc.source.patch_ring(0)
    assert len(ring.vars) == 1
    restr = loc.charts[0]
    x = X.patch_ring(0).var("x")
    y = X.patch_ring(0).var("y")
    assert restr.apply(x) == restr.apply(y)
    t = restr.apply(x)
    assert loc.source.potential(0) == t * t


def test_fixed_locus_restriction_absorbs_action():
    X = build_scheme(z2_swap_on_plane())
    loc = fixed_locus(X, "s")
    restr = loc.charts[0]
    act = X.action_map("s").charts[0]
    rng = random.Random(6)
    for _ in range(10):
        a = random_frac(rng, X.patch_ring(0))
        assert restr.apply(act.apply(a)) == restr.apply(a)


def test_fixed_locus_on_proj_line_has_empty_overlap():
    X = build_scheme(z2_on_proj_line())
    loc = fixed_locus(X, "s")
    # two point pieces, one per patch, never overlapping
    assert loc.index == (0, 1)
    assert loc.source.npatches() == 2
    assert not loc.source.is_nonempty((0, 1))
    assert loc.source.tuples(2) == []
    assert loc.source.dimension == 0


def test_fixed_locus_of_identity_keeps_gluing():
    X = build_scheme(z2_on_proj_line())
    loc = fixed_locus(X, "e")
    assert loc.source.tuples(2) == [(0, 1)]
    t = loc.source.intersection((0, 1)).ring.var("t0")
    img = loc.source.restriction((1,), (0, 1)).apply(loc.source.patch_ring(1).var("t0"))
    assert img == t ** -1


def torus_with_swap(images, denominators=("x", "y")):
    return {
        "grading": "Z2",
        "dimension": 2,
        "patches": [{"name": "T", "variables": ["x", "y"], "denominators": list(denominators)}],
        "gluings": [],
        "potentials": ["0"],
        "group": {
            "elements": ["e", "s"],
            "table": [[0, 1], [1, 0]],
            "action": [[["x", "y"]], [images]],
        },
    }


@pytest.mark.parametrize("images, sign", [(["y", "x"], 1), (["-y", "-x"], -1)])
def test_fixed_locus_of_a_swap_on_the_torus(images, sign):
    """x and y both restrict to +-t0 on the fixed line of a swap of the
    torus; the line's ring inverts t0 once, and 1/x restricts to +-1/t0."""
    X = build_scheme(torus_with_swap(images))
    loc = fixed_locus(X, "s")
    ring = loc.source.patch_ring(0)
    t0 = ScalarPoly.variable(("t0",), "t0")
    assert ring.vars == ("t0",) and ring.denominators == (t0,)
    x = X.patch_ring(0).var("x") ** -1
    c = CechCochain.scalar(X, {(0,): MatrixForm(x.ring, (0,), (0,), {(0, 0, (), 0): x})}, 0)
    want = ring.var("t0") ** -1 * sign
    assert _pullback(loc, c).entry((0,)).terms == {(0, 0, (), 0): want}


def test_restricted_denominators_are_listed_once():
    """x - 1 and y - 1 both restrict to t0 - 1 on the diagonal, which the
    locus ring inverts once; a generator the ring already inverts, and one
    whose restriction has a variable the ring inverts, add nothing."""
    X = build_scheme(torus_with_swap(["y", "x"], ("x - 1", "y - 1")))
    ring = fixed_locus(X, "s").source.patch_ring(0)
    assert ring.denominators == (parse_scalar(ring, "t0 - 1").num,)
    ring = Ring("L", ("t0",), (ScalarPoly.variable(("t0",), "t0"),))
    plane = Ring("A", ("x", "y"))
    dens = [parse_scalar(plane, d).num for d in
            ("x^2", "y - 1", "x - 2", "y - 1", "x - 2*y + 3", "2*y - 4", "2*y - x - 2")]
    images = (ring.var("t0") * 2, ring.var("t0") + 1)  # x = 2 t0, y = t0 + 1
    assert _restricted_denominators(dens[:-1], images, ring) == [parse_scalar(ring, "2*t0 - 2").num]
    assert _restricted_denominators(dens, images, ring) is None


def test_locus_transport_on_swap_action():
    X = build_scheme(z2_swap_on_plane())
    loc_s = fixed_locus(X, "s")
    transport = locus_transport(X, loc_s, loc_s, "s")
    ring = loc_s.source.patch_ring(0)
    # the swap fixes the diagonal pointwise, so transport is the identity
    t = ring.var("t0")
    assert transport.charts[0].apply(t) == t


def test_locus_transport_identity_element():
    X = build_scheme(z2_on_proj_line())
    loc = fixed_locus(X, "s")
    transport = locus_transport(X, loc, loc, "e")
    for k in (0, 1):
        ring = loc.source.patch_ring(k)
        assert transport.charts[k].apply(ring.one()) == ring.one()


# -- fixed loci against the left-inverse route they replaced ----------------------


# The shape fixed loci had: patch_map sends an ambient patch to its locus
# patch or None, and restrictions[i] is the RingMap of ambient patch i.
OldLocus = namedtuple("OldLocus", "scheme patch_map restrictions")


def as_old_locus(inclusion):
    """A fixed-locus inclusion SchemeMap in the shape of OldLocus."""
    where = {a: k for k, a in enumerate(inclusion.index)}
    return OldLocus(
        inclusion.source,
        {i: where.get(i) for i in range(inclusion.target.npatches())},
        {a: inclusion.charts[k] for a, k in where.items()},
    )


def _affine_data_of_map(rm):
    """The (matrix, shift) of an affine substitution, or an error."""
    nvars = len(rm.source.vars)
    matrix = [[Fraction(0)] * nvars for _ in range(nvars)]
    shift = [Fraction(0)] * nvars
    for m, img in enumerate(rm.images):
        if any(img.den):
            raise ValueError("unsupported action: image has denominators")
        for exps, c in img.num.terms.items():
            total = sum(exps)
            if total == 0:
                shift[m] = c
            elif total == 1:
                matrix[m][exps.index(1)] = c
            else:
                raise ValueError("unsupported action: nonlinear substitution")
    return matrix, shift


def _affine_substitute(matrix, shift, values, ring):
    """Evaluate x -> matrix.x + shift at a vector of LocalFracs."""
    out = []
    for row, s in zip(matrix, shift):
        acc = ring.const(s)
        for c, v in zip(row, values):
            if c != 0:
                acc = acc + v * c
        out.append(acc)
    return out


def _left_inverse(columns):
    """Rows m_k with m_k . columns[j] = [j == k]: a rational left inverse of
    the matrix with the given independent columns, one solve per column."""
    out = []
    for k in range(len(columns)):
        sol = solve_affine_q(columns, [int(j == k) for j in range(len(columns))])
        assert sol is not None, "kernel basis columns must be independent"
        out.append(sol[0])
    return out


def _locus_coordinates(ring, x0, columns, values, failure):
    """Coordinates t over ring with values = x0 + L t, L the matrix with the
    given columns; raises ValueError(failure) when values are off the piece."""
    diffs = [v - c for v, c in zip(values, x0)]
    t = _affine_substitute(_left_inverse(columns), [0] * len(columns), diffs, ring)
    rows = [[col[r] for col in columns] for r in range(len(x0))]
    if _affine_substitute(rows, x0, t, ring) != values:
        raise ValueError(failure)
    return t


def oracle_fixed_locus(scheme, g):
    """fixed_locus as it was, returning the locus and its parametrizations
    {ambient patch: (x0, L)} with x = x0 + L t.  The affine data comes from
    _affine_data_of_map, as GroupAction.affine_data gave it, and the locus
    scheme's dimension from its charts."""
    act = scheme.action
    if act is None:
        raise ValueError("scheme has no group action")
    n = scheme.npatches()
    patch_map = {}
    restrictions = {}
    parametrizations = {}
    locus_patches = []
    locus_rings = []
    for i in range(n):
        ring = scheme.patch_ring(i)
        nvars = len(ring.vars)
        matrix, shift = _affine_data_of_map(act.maps[g][i])
        rows = [
            [matrix[r][c] - (1 if r == c else 0) for c in range(nvars)]
            for r in range(nvars)
        ]
        sol = solve_affine_q(rows, [-s for s in shift])
        if sol is None:
            patch_map[i] = None
            continue
        x0, basis = sol
        columns = basis  # each entry is a length-nvars column
        tvars = tuple(f"t{k}" for k in range(len(columns)))
        pre = Ring(f"{ring.name}^{g}", tvars)
        # parametrization x = x0 + L t as polynomials in t
        param = []
        for r in range(nvars):
            terms = {}
            if x0[r] != 0:
                terms[(0,) * len(tvars)] = x0[r]
            for c, col in enumerate(columns):
                if col[r] != 0:
                    e = tuple(1 if k == c else 0 for k in range(len(tvars)))
                    terms[e] = terms.get(e, Fraction(0)) + col[r]
            param.append(ScalarPoly(tvars, terms))
        # ambient denominators restricted to the piece; zero means empty
        dens = []
        empty = False
        for d in ring.denominators:
            rd = d.substitute(
                [LocalFrac(pre, p) for p in param], pre
            )
            if rd.is_zero():
                empty = True
                break
            if rd.as_constant() is None:
                assert not any(rd.den)
                dens.append(rd.num)
        if empty:
            patch_map[i] = None
            continue
        locus_ring = Ring(f"{ring.name}^{g}", tvars, tuple(dens))
        restr = RingMap(
            ring,
            locus_ring,
            tuple(LocalFrac(locus_ring, ScalarPoly(tvars, p.terms)) for p in param),
        )
        # the locus must actually be fixed
        for v, img in zip(ring.vars, restr.images):
            assert restr.apply(act.maps[g][i].apply(ring.var(v))) == img, (
                f"parametrized locus not fixed by {g} on patch {i}"
            )
        patch_map[i] = len(locus_patches)
        locus_rings.append(locus_ring)
        restrictions[i] = restr
        parametrizations[i] = (x0, columns)
        locus_patches.append(Patch(locus_ring, restr.apply(scheme.potential(i))))

    pair_data = {}
    empty_pairs = []
    ambient_alive = [i for i in range(n) if patch_map[i] is not None]
    for ai, aj in itertools.combinations(ambient_alive, 2):
        if not scheme.is_nonempty((ai, aj)):
            empty_pairs.append((patch_map[ai], patch_map[aj]))
            continue
        li, lj = patch_map[ai], patch_map[aj]
        ring_i = locus_rings[li]
        restr_i = restrictions[ai]
        # gluing denominators restricted to the locus piece
        dens = []
        empty = False
        for d in scheme.pair_data[(ai, aj)][0]:
            rd = d.substitute(restr_i.images, ring_i)
            assert not any(rd.den)
            if rd.num.is_zero():
                empty = True
                break
            if rd.num.as_constant() is None:
                dens.append(rd.num)
        if empty:
            empty_pairs.append((li, lj))
            continue
        pair_ring = Ring(
            f"{ring_i.name}&{lj}", ring_i.vars, ring_i.denominators + tuple(dens)
        )
        # ambient transition functions restricted to the locus
        lifted = tuple(reroot(pair_ring, v) for v in restr_i.images)
        try:
            restricted = [
                RingMap(img.ring, pair_ring, lifted).apply(img)
                for img in scheme.pair_data[(ai, aj)][1]
            ]
        except ValueError as err:
            raise ValueError(
                f"gluing ({ai},{aj}) does not restrict to the locus of {g}"
            ) from err
        images = _locus_coordinates(
            pair_ring,
            *parametrizations[aj],
            restricted,
            f"gluing ({ai},{aj}) does not carry the locus of {g} to itself",
        )
        pair_data[(li, lj)] = (tuple(dens), tuple(images))

    locus_scheme = CoveredScheme(
        scheme.grading,
        locus_patches,
        pair_data,
        empty_pairs=empty_pairs,
        action=None,
    )
    return OldLocus(locus_scheme, patch_map, restrictions), parametrizations


def oracle_locus_transport(scheme, locus_src, locus_dst, params_dst, h):
    """locus_transport as it was, given the parametrizations of locus_dst."""
    act = scheme.action
    hinv = act.inverse(h)
    out = {}
    for i in range(scheme.npatches()):
        si = locus_src.patch_map.get(i)
        di = locus_dst.patch_map.get(i)
        if si is None:
            continue
        if di is None:
            raise ValueError(f"transport by {h} hits an empty piece on patch {i}")
        ring_src = locus_src.scheme.patch_ring(si)
        matrix, shift = _affine_data_of_map(act.maps[hinv][i])
        # image of ambient coordinates under the point map, on the g-locus
        moved = _affine_substitute(
            matrix, shift, list(locus_src.restrictions[i].images), ring_src
        )
        images = _locus_coordinates(
            ring_src,
            *params_dst[i],
            moved,
            f"transport by {h} does not map the locus correctly on patch {i}",
        )
        out[i] = RingMap(locus_dst.scheme.patch_ring(di), ring_src, tuple(images))
    return out


def s3_permuting_a3():
    """S_3 permuting the coordinates of A^3, W = x1^2 + x2^2 + x3^2; the
    element p sends x_i to x_{p[i]}, so p after q is i -> p[q[i]]."""
    perms = list(itertools.permutations(range(3)))
    names = ["".join(map(str, p)) for p in perms]
    table = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    return {
        "grading": "Z2",
        "dimension": 3,
        "patches": [{"name": "A3", "variables": ["x1", "x2", "x3"], "denominators": []}],
        "gluings": [],
        "potentials": ["x1^2 + x2^2 + x3^2"],
        "group": {
            "elements": names,
            "table": table,
            "action": [[[f"x{p[i] + 1}" for i in range(3)]] for p in perms],
        },
    }


def assert_same_locus(new, old):
    new = as_old_locus(new)
    assert new.patch_map == old.patch_map
    assert set(new.restrictions) == set(old.restrictions)
    for i, restr in new.restrictions.items():
        assert [str(v) for v in restr.images] == [str(v) for v in old.restrictions[i].images]
        assert restr.images == old.restrictions[i].images
    ns, olds = new.scheme, old.scheme
    assert ns.dimension == olds.dimension and ns.npatches() == olds.npatches()
    for k in range(ns.npatches()):
        a, b = ns.patch_ring(k), olds.patch_ring(k)
        assert (a.name, a.vars, a.denominators) == (b.name, b.vars, b.denominators)
        assert ns.potential(k) == olds.potential(k)
    assert ns.empty_pairs == olds.empty_pairs
    assert set(ns.pair_data) == set(olds.pair_data)
    for pair, (dens, images) in ns.pair_data.items():
        assert dens == olds.pair_data[pair][0]
        assert [str(v) for v in images] == [str(v) for v in olds.pair_data[pair][1]]


@pytest.mark.parametrize("config", [z2_on_proj_line(), z2_swap_on_plane(), s3_permuting_a3()])
def test_fixed_loci_and_transport_match_the_left_inverse_route(config):
    """fixed_locus and locus_transport read locus coordinates off the
    restriction RingMaps; they give the loci and the transport maps of the
    left-inverse route for every g and every pair (g, h), and transport by h
    carries restr_dst(x) to restr_src(h^-1 x) for every ambient coordinate
    x.  For S_3 on A^3 that is 36 pairs, 18 of them between distinct loci."""
    X = build_scheme(config)
    act = X.action
    loci, params = {}, {}
    for g in act.elements:
        loci[g] = fixed_locus(X, g)
        old, params[g] = oracle_fixed_locus(X, g)
        assert_same_locus(loci[g], old)
    moved = 0
    for g, h in itertools.product(act.elements, repeat=2):
        conj = act.mult(act.mult(h, g), act.inverse(h))
        src, dst = loci[g], loci[conj]
        transport = locus_transport(X, src, dst, h)
        src, dst = as_old_locus(src), as_old_locus(dst)
        expected = oracle_locus_transport(X, src, dst, params[conj], h)
        assert set(src.restrictions) == set(expected)
        for i, rm in zip(src.restrictions, transport.charts):
            assert rm.source is expected[i].source and rm.target is expected[i].target
            assert [str(v) for v in rm.images] == [str(v) for v in expected[i].images]
            hinv = act.maps[act.inverse(h)][i]
            for v in X.patch_ring(i).vars:
                x = X.patch_ring(i).var(v)
                got = rm.apply(dst.restrictions[i].apply(x))
                assert got == src.restrictions[i].apply(hinv.apply(x))
            moved += rm.images != tuple(rm.target.var(v) for v in rm.target.vars)
    if len(act.elements) == 6:
        assert moved >= 12, moved
