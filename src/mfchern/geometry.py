"""Schemes presented by finite ordered affine covers.

A CoveredScheme is a list of patches with pairwise gluing data, a potential,
and optionally a finite group acting linearly patch by patch.  Ordered
intersections are presented in the coordinates of their smallest-index patch.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .rings import (
    LocalFrac,
    Ring,
    RingMap,
    ScalarPoly,
    _check_same_ring,
    parse_scalar,
    solve_affine_q,
)

__all__ = [
    "Patch",
    "CoveredScheme",
    "GroupAction",
    "FixedLocus",
    "build_scheme",
    "reroot",
    "fixed_locus",
]


class Patch:

    __slots__ = ("ring", "potential")

    def __init__(self, ring, potential):
        if not isinstance(ring, Ring) or not isinstance(potential, LocalFrac):
            raise TypeError("a patch needs a Ring and a LocalFrac potential")
        _check_same_ring(ring, potential.ring)
        self.ring = ring
        self.potential = potential


class Intersection:
    """Ordered multiple overlap, presented in the smallest-index patch's coordinates."""

    __slots__ = ("ring",)

    def __init__(self, ring):
        self.ring = ring


class GroupAction:
    """Finite group given by a multiplication table, acting patchwise.

    maps[g][i] is a RingMap from patch i's ring to itself and the assignment
    g -> maps[g][i] is a homomorphism for composition of ring maps.
    """

    __slots__ = ("elements", "table", "maps", "identity")

    def __init__(self, elements, table, maps):
        self.elements = tuple(elements)
        n = len(self.elements)
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"multiplication table is not {n} x {n}")
        self.table = tuple(tuple(row) for row in table)
        self.maps = maps
        ident = None
        for a in range(n):
            if all(self.table[a][b] == b and self.table[b][a] == b for b in range(n)):
                ident = a
        if ident is None:
            raise ValueError("multiplication table has no identity")
        self.identity = self.elements[ident]
        for a in range(n):
            if sorted(self.table[a]) != list(range(n)):
                raise ValueError("table row not a bijection")

    def index(self, g):
        return self.elements.index(g)

    def mult(self, g, h):
        return self.elements[self.table[self.index(g)][self.index(h)]]

    def inverse(self, g):
        gi = self.index(g)
        for b in range(len(self.elements)):
            if self.table[gi][b] == self.index(self.identity):
                return self.elements[b]
        raise AssertionError("element without inverse")

    def map(self, g, patch_index):
        return self.maps[g][patch_index]


class CoveredScheme:
    """Its dimension is the largest number of chart variables."""

    def __init__(
        self,
        grading,
        patches,
        pair_data,
        empty_pairs=(),
        action=None,
    ):
        if grading not in ("Z", "Z2"):
            raise ValueError(f"need grading Z or Z2: {grading!r}")
        self.grading = grading
        self.patches = list(patches)
        self.dimension = max((len(p.ring.vars) for p in self.patches), default=0)
        # pair_data[(i, j)] = (denominator polys in patch-i coordinates,
        #                      images of patch-j variables) for i < j
        self.pair_data = dict(pair_data)
        self.empty_pairs = {tuple(sorted(p)) for p in empty_pairs}
        self.action = action
        self._intersections = {}
        self._restrictions = {}
        self._validate()

    # -- structure ---------------------------------------------------------

    def patch_ring(self, i):
        return self.patches[i].ring

    def potential(self, i):
        return self.patches[i].potential

    def npatches(self):
        return len(self.patches)

    def is_nonempty(self, tup):
        return all(
            tuple(sorted(p)) not in self.empty_pairs
            for p in itertools.combinations(sorted(tup), 2)
        )

    def tuples(self, size):
        """All nonempty strictly increasing index tuples of the given length."""
        return [
            t
            for t in itertools.combinations(range(self.npatches()), size)
            if self.is_nonempty(t)
        ]

    def intersection(self, tup):
        tup = tuple(tup)
        if tup in self._intersections:
            return self._intersections[tup]
        if any(a >= b for a, b in zip(tup, tup[1:])):
            raise ValueError(f"tuple not increasing: {tup}")
        if not self.is_nonempty(tup):
            raise ValueError(f"empty intersection requested: {tup}")
        base = self.patches[tup[0]].ring
        dens = list(base.denominators)
        for j in tup[1:]:
            for d in self.pair_data[(tup[0], j)][0]:
                if d not in dens:
                    dens.append(d)
        if len(tup) == 1:
            ring = base
        else:
            name = "&".join(self.patches[k].ring.name for k in tup)
            ring = Ring(name, base.vars, dens)
        out = Intersection(ring)
        self._intersections[tup] = out
        return out

    def restriction(self, small, big):
        """RingMap from the small tuple's ring into the big tuple's ring, built
        once per pair of tuples: the coordinate inclusion when the leading
        index stays, the gluing images of pair (big[0], small[0]) otherwise."""
        small, big = tuple(small), tuple(big)
        if (small, big) in self._restrictions:
            return self._restrictions[(small, big)]
        if not set(small) <= set(big):
            raise ValueError(f"{small} is not contained in {big}")
        src = self.intersection(small).ring
        dst = self.intersection(big).ring
        if small[0] == big[0]:
            images = tuple(dst.var(v) for v in src.vars)
        else:
            raw = self.pair_data[(big[0], small[0])][1]
            images = tuple(reroot(dst, img) for img in raw)
        out = RingMap(src, dst, images)
        self._restrictions[(small, big)] = out
        return out

    def action_on(self, tup, g):
        """The g-action transported to the intersection ring of tup."""
        if self.action is None:
            raise ValueError("scheme has no group action")
        inclusion = self.restriction(tup[:1], tup)
        base = self.action.map(g, tup[0])
        images = tuple(inclusion.apply(img) for img in base.images)
        return RingMap(inclusion.target, inclusion.target, images)

    # -- validation --------------------------------------------------------

    def _validate(self):
        if self.grading == "Z":
            for i, p in enumerate(self.patches):
                if not p.potential.is_zero():
                    raise ValueError(
                        f"grading Z requires zero potential, patch {i} has {p.potential}"
                    )
        n = self.npatches()
        for (i, j), (dens, images) in self.pair_data.items():
            if not 0 <= i < j < n:
                raise ValueError(f"gluing pair ({i},{j}) is not increasing below {n}")
            base = self.patches[i].ring
            for d in dens:
                if not isinstance(d, ScalarPoly) or d.vars != base.vars or d.is_zero():
                    raise ValueError(f"bad denominator {d!r} for gluing ({i},{j})")
            if len(images) != len(self.patches[j].ring.vars):
                raise ValueError(f"gluing ({i},{j}) needs one image per variable")
        for pair in self.tuples(2):
            if pair not in self.pair_data:
                raise ValueError(f"nonempty pair {pair} has no gluing")
        # potentials agree on pairwise overlaps
        for (i, j) in sorted(self.pair_data):
            if not self.is_nonempty((i, j)):
                continue
            wi = self.restriction((i,), (i, j)).apply(self.patches[i].potential)
            wj = self.restriction((j,), (i, j)).apply(self.patches[j].potential)
            if wi != wj:
                raise ValueError(
                    f"potential mismatch on overlap ({i},{j}): {wi} vs {wj}"
                )
        # triple consistency: going through the middle patch agrees
        for (i, j, k) in self.tuples(3):
            big = (i, j, k)
            via_j = self.restriction((j, k), big).compose(self.restriction((k,), (j, k)))
            if via_j.images != self.restriction((k,), big).images:
                raise ValueError(f"incompatible gluing data on triple ({i},{j},{k})")
        if self.action is not None:
            self._validate_action()

    def _validate_action(self):
        act = self.action
        n = self.npatches()
        if set(act.maps) != set(act.elements) or any(len(m) != n for m in act.maps.values()):
            raise ValueError("the action needs one ring map per element and patch")
        # group law patchwise, exact equality of images
        for g in act.elements:
            for h in act.elements:
                gh = act.mult(g, h)
                for i in range(n):
                    comp = act.map(g, i).compose(act.map(h, i))
                    if comp.images != act.map(gh, i).images:
                        raise ValueError(f"action fails group law at ({g},{h}), patch {i}")
        # identity acts as identity
        for i in range(n):
            if act.map(act.identity, i).images != RingMap.identity(self.patches[i].ring).images:
                raise ValueError("identity element must act trivially")
        # the potential is fixed
        for g in act.elements:
            for i in range(n):
                w = self.patches[i].potential
                if act.map(g, i).apply(w) != w:
                    raise ValueError(f"potential not fixed by {g} on patch {i}")
        # actions commute with the gluing maps
        for (i, j) in sorted(self.pair_data):
            if not self.is_nonempty((i, j)):
                continue
            rho_ij = self.restriction((j,), (i, j))
            for g in act.elements:
                gi = self.action_on((i, j), g)
                lhs = [gi.apply(img) for img in rho_ij.images]
                rhs = [
                    rho_ij.apply(img) for img in act.map(g, j).images
                ]
                if lhs != rhs:
                    raise ValueError(f"action of {g} does not respect gluing ({i},{j})")


def reroot(ring, value):
    """Reinterpret a LocalFrac in a ring with the same variables and a
    superset of the denominator generators, by the coordinate inclusion."""
    if value.ring.vars != ring.vars:
        raise ValueError(f"cannot reroot {value.ring.name} into {ring.name}: variables differ")
    return RingMap(value.ring, ring, tuple(ring.var(v) for v in ring.vars)).apply(value)


def build_scheme(config):
    """Build a CoveredScheme from a structured description.

    The description is a plain dict; polynomials and substitutions are given
    as expression strings in the patch variables.  CoveredScheme checks the
    gluing data: potentials agree on overlaps, the triple overlaps glue
    consistently, and a group action respects both.  The declared dimension
    must be the largest number of chart variables.
    """
    grading = config["grading"]
    rings = []
    for spec in config["patches"]:
        variables = tuple(spec["variables"])
        pre = Ring(spec["name"], variables)
        dens = tuple(
            parse_scalar(pre, d).num for d in spec.get("denominators", ())
        )
        rings.append(Ring(spec["name"], variables, dens))
    if len(config["potentials"]) != len(rings):
        raise ValueError(f"{len(rings)} patches but {len(config['potentials'])} potentials")
    patches = [Patch(ring, parse_scalar(ring, w)) for ring, w in zip(rings, config["potentials"])]
    pair_data = {}
    for glue in config.get("gluings", ()):
        i, j = glue["pair"]
        if not 0 <= i < j < len(rings):
            raise ValueError(f"gluing pair ({i},{j}) is not increasing below {len(rings)}")
        base = rings[i]
        dens = tuple(parse_scalar(base, d).num for d in glue.get("denominators", ()))
        scratch = Ring(f"{base.name}*{j}", base.vars, base.denominators + dens)
        images = tuple(parse_scalar(scratch, e) for e in glue["images"])
        pair_data[(i, j)] = (dens, images)
    empty_pairs = [tuple(p) for p in config.get("empty_pairs", ())]
    action = None
    if "group" in config and config["group"] is not None:
        gspec = config["group"]
        elements = tuple(gspec["elements"])
        maps = {}
        for g, per_patch in zip(elements, gspec["action"]):
            maps[g] = [
                RingMap(
                    ring, ring, tuple(parse_scalar(ring, e) for e in images)
                )
                for ring, images in zip(rings, per_patch)
            ]
        action = GroupAction(elements, gspec["table"], maps)
    scheme = CoveredScheme(grading, patches, pair_data, empty_pairs=empty_pairs, action=action)
    if config["dimension"] != scheme.dimension:
        raise ValueError(
            f"declared dimension {config['dimension']} differs from the "
            f"{scheme.dimension} variables of the largest chart"
        )
    return scheme


class FixedLocus:
    """The fixed-point subscheme of one group element, as its own covered scheme.

    patch_map sends an ambient patch index to the locus patch index, or None
    when the fixed locus misses that patch.  restrictions[i] is the RingMap
    from ambient patch i onto its locus piece, which describes the piece: it
    sends each ambient coordinate to an affine function of the locus
    coordinates t, and some ambient coordinate exactly to each t_k.
    """

    __slots__ = ("element", "scheme", "patch_map", "restrictions")

    def __init__(self, element, scheme, patch_map, restrictions):
        self.element = element
        self.scheme = scheme
        self.patch_map = patch_map
        self.restrictions = restrictions


def _locus_coordinates(restriction, ring, values, failure):
    """The locus coordinates t over ring of the point whose ambient
    coordinates are values, for the restriction of an ambient patch onto its
    locus piece.  Each t_k is read off values at an ambient coordinate whose
    restriction image is t_k; raises ValueError(failure) when the
    restriction at t does not give back values, so values are off the piece."""
    locus = restriction.target
    images = restriction.images
    t = tuple(values[images.index(locus.var(v))] for v in locus.vars)
    point = RingMap(locus, ring, t)
    if [point.apply(img) for img in images] != list(values):
        raise ValueError(failure)
    return t


def fixed_locus(scheme, g):
    """Present the fixed subscheme of the group element g patch by patch."""
    act = scheme.action
    if act is None:
        raise ValueError("scheme has no group action")
    n = scheme.npatches()
    patch_map = {}
    restrictions = {}
    locus_patches = []
    locus_rings = []
    for i in range(n):
        ring = scheme.patch_ring(i)
        nvars = len(ring.vars)
        # g acts by x -> A x + s, so its fixed points solve (A - 1) x = -s
        rows = [[Fraction(-int(r == c)) for c in range(nvars)] for r in range(nvars)]
        rhs = [Fraction(0)] * nvars
        for r, img in enumerate(act.map(g, i).images):
            if any(img.den):
                raise ValueError("unsupported action: image has denominators")
            for exps, c in img.num.terms.items():
                if sum(exps) == 0:
                    rhs[r] = -c
                elif sum(exps) == 1:
                    rows[r][exps.index(1)] += c
                else:
                    raise ValueError("unsupported action: nonlinear substitution")
        sol = solve_affine_q(rows, rhs)
        if sol is None:
            patch_map[i] = None
            continue
        # x = x0 + L t; solve_affine_q makes x exactly t_k at the k-th free
        # column, which _locus_coordinates relies on
        x0, columns = sol
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
            assert restr.apply(act.map(g, i).apply(ring.var(v))) == img, (
                f"parametrized locus not fixed by {g} on patch {i}"
            )
        patch_map[i] = len(locus_patches)
        locus_rings.append(locus_ring)
        restrictions[i] = restr
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
            restrictions[aj],
            pair_ring,
            restricted,
            f"gluing ({ai},{aj}) does not carry the locus of {g} to itself",
        )
        pair_data[(li, lj)] = (tuple(dens), tuple(images))

    locus_scheme = CoveredScheme(scheme.grading, locus_patches, pair_data, empty_pairs=empty_pairs)
    return FixedLocus(g, locus_scheme, patch_map, restrictions)


def locus_transport(scheme, locus_src, locus_dst, h):
    """Per-patch ring maps O(X^{h g h^-1}) -> O(X^g) realizing transport by h.

    locus_src is the fixed locus of g, locus_dst the fixed locus of h g h^-1.
    Returns {ambient patch index: RingMap} on patches where both pieces exist.
    """
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
        restr = locus_src.restrictions[i]
        # image of ambient coordinates under the point map, on the g-locus
        moved = [restr.apply(img) for img in act.map(hinv, i).images]
        images = _locus_coordinates(
            locus_dst.restrictions[i],
            ring_src,
            moved,
            f"transport by {h} does not map the locus correctly on patch {i}",
        )
        out[i] = RingMap(locus_dst.scheme.patch_ring(di), ring_src, tuple(images))
    return out
