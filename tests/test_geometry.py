import random

import pytest

from mfchern.geometry import build_scheme, fixed_locus, locus_transport
from mfchern.rings import Fraction

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


def test_fixed_locus_of_reflection_is_origin():
    X = build_scheme(z2_reflection_on_line())
    loc = fixed_locus(X, "s")
    assert loc.patch_map[0] == 0
    ring = loc.scheme.patch_ring(0)
    assert ring.vars == ()
    restr = loc.restrictions[0]
    x = X.patch_ring(0).var("x")
    assert restr.apply(x ** 2 + 3).as_constant() == 3
    assert loc.scheme.potential(0).is_zero()


def test_fixed_locus_of_identity_is_everything():
    X = build_scheme(z2_reflection_on_line())
    loc = fixed_locus(X, "e")
    ring = loc.scheme.patch_ring(0)
    assert len(ring.vars) == 1
    rng = random.Random(5)
    restr = loc.restrictions[0]
    for _ in range(5):
        a = random_frac(rng, X.patch_ring(0))
        b = random_frac(rng, X.patch_ring(0))
        assert restr.apply(a * b) == restr.apply(a) * restr.apply(b)


def test_fixed_locus_of_swap_is_diagonal_line():
    X = build_scheme(z2_swap_on_plane())
    loc = fixed_locus(X, "s")
    ring = loc.scheme.patch_ring(0)
    assert len(ring.vars) == 1
    restr = loc.restrictions[0]
    x = X.patch_ring(0).var("x")
    y = X.patch_ring(0).var("y")
    assert restr.apply(x) == restr.apply(y)
    t = restr.apply(x)
    assert loc.scheme.potential(0) == t * t


def test_fixed_locus_restriction_absorbs_action():
    X = build_scheme(z2_swap_on_plane())
    loc = fixed_locus(X, "s")
    restr = loc.restrictions[0]
    act = X.action.map("s", 0)
    rng = random.Random(6)
    for _ in range(10):
        a = random_frac(rng, X.patch_ring(0))
        assert restr.apply(act.apply(a)) == restr.apply(a)


def test_fixed_locus_on_proj_line_has_empty_overlap():
    X = build_scheme(z2_on_proj_line())
    loc = fixed_locus(X, "s")
    # two point pieces, one per patch, never overlapping
    assert loc.patch_map == {0: 0, 1: 1}
    assert loc.scheme.npatches() == 2
    assert not loc.scheme.is_nonempty((0, 1))
    assert loc.scheme.tuples(2) == []
    assert loc.scheme.dimension == 0


def test_fixed_locus_of_identity_keeps_gluing():
    X = build_scheme(z2_on_proj_line())
    loc = fixed_locus(X, "e")
    assert loc.scheme.tuples(2) == [(0, 1)]
    t = loc.scheme.intersection((0, 1)).ring.var("t0")
    img = loc.scheme.restriction((1,), (0, 1)).apply(loc.scheme.patch_ring(1).var("t0"))
    assert img == t ** -1


def test_locus_transport_on_swap_action():
    X = build_scheme(z2_swap_on_plane())
    loc_s = fixed_locus(X, "s")
    transport = locus_transport(X, loc_s, loc_s, "s")
    ring = loc_s.scheme.patch_ring(0)
    # the swap fixes the diagonal pointwise, so transport is the identity
    t = ring.var("t0")
    assert transport[0].apply(t) == t


def test_locus_transport_identity_element():
    X = build_scheme(z2_on_proj_line())
    loc = fixed_locus(X, "s")
    transport = locus_transport(X, loc, loc, "e")
    for i in (0, 1):
        ring = loc.scheme.patch_ring(loc.patch_map[i])
        assert transport[i].apply(ring.one()) == ring.one()
