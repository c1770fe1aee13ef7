"""Schemes presented by finite ordered affine covers.

A CoveredScheme is a list of patches with pairwise gluing data, a potential,
and optionally a finite group acting linearly patch by patch.  Ordered
intersections are presented in the coordinates of their smallest-index patch.

A SchemeMap f: X -> Y is given chart by chart: chart i of X maps into chart
index[i] of Y, with index strictly increasing, by a RingMap O(Y_index[i]) ->
O(X_i).  Its constructor checks that f pulls the potential of Y back to that
of X and respects the gluing.  Group elements (``action_map``), fixed-locus
inclusions X^g -> X (``fixed_locus``) and transports between fixed loci
(``locus_transport``) are all SchemeMaps.
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
    "SchemeMap",
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

    def action_map(self, g):
        """The group element g as a SchemeMap from the scheme to itself."""
        if self.action is None:
            raise ValueError("scheme has no group action")
        return self._action_maps[g]

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
        if set(act.maps) != set(act.elements) or any(
            len(m) != n or not all(isinstance(f, RingMap) for f in m) for m in act.maps.values()
        ):
            raise ValueError("the action needs one ring map per element and patch")
        # group law patchwise, exact equality of images
        for g in act.elements:
            for h in act.elements:
                gh = act.maps[act.mult(g, h)]
                for i in range(n):
                    if act.maps[g][i].compose(act.maps[h][i]).images != gh[i].images:
                        raise ValueError(f"action fails group law at ({g},{h}), patch {i}")
        # identity acts as identity
        for i in range(n):
            if act.maps[act.identity][i].images != RingMap.identity(self.patches[i].ring).images:
                raise ValueError("identity element must act trivially")
        # each element fixes the potential and respects the gluing
        self._action_maps = {}
        for g in act.elements:
            try:
                self._action_maps[g] = SchemeMap(self, self, range(n), act.maps[g])
            except ValueError as err:
                raise ValueError(f"action of {g}: {err}") from err


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


class SchemeMap:
    """A map f: source -> target of covered schemes, chart by chart: chart i
    of the source maps into chart index[i] of the target, index strictly
    increasing, and charts[i] is the RingMap O(target_index[i]) ->
    O(source_i).  The constructor checks the chart counts and rings, that
    index increases, that f*W = W on each chart, that f respects the gluing
    on each nonempty pair of the source, and that on every chart and such
    pair each denominator of the target maps to a unit."""

    __slots__ = ("source", "target", "index", "charts", "_on")

    def __init__(self, source, target, index, charts):
        self.source, self.target = source, target
        self.index, self.charts = tuple(index), tuple(charts)
        if not len(self.index) == len(self.charts) == source.npatches():
            raise ValueError(f"{len(self.index)} chart indices and {len(self.charts)} "
                             f"ring maps for {source.npatches()} charts")
        bounds = (-1,) + self.index + (target.npatches(),)
        if any(type(k) is not int for k in self.index) or any(
            a >= b for a, b in zip(bounds, bounds[1:])
        ):
            raise ValueError(f"chart index {self.index} is not increasing below {bounds[-1]}")
        for i, (k, f) in enumerate(zip(self.index, self.charts)):
            if not isinstance(f, RingMap):
                raise TypeError(f"chart {i} is a {type(f).__name__}, not a RingMap")
            _check_same_ring(f.source, target.patch_ring(k))
            _check_same_ring(f.target, source.patch_ring(i))
            if f.apply(target.potential(k)) != source.potential(i):
                raise ValueError(f"potential not fixed by the map on chart {i}")
        self._on = {(i,): f for i, f in enumerate(self.charts)}
        for i, j in source.tuples(2):
            pair = (self.index[i], self.index[j])
            if not target.is_nonempty(pair):
                raise ValueError(f"charts ({i},{j}) meet but charts {pair} do not")
            lhs = self.on((i, j)).compose(target.restriction(pair[1:], pair))
            rhs = source.restriction((j,), (i, j)).compose(self.charts[j])
            if lhs.images != rhs.images:
                raise ValueError(f"map does not respect gluing ({i},{j})")
        for rm in self._on.values():
            for k in range(len(rm.source.denominators)):
                rm._denominator_inverse(k)  # raises unless its image is a unit

    def on(self, tup):
        """The map on the overlap tup of the source, from the ring of its
        image overlap; built once per tuple."""
        rm = self._on.get(tup)
        if rm is None:
            lift = self.source.restriction(tup[:1], tup)
            images = tuple(lift.apply(img) for img in self.charts[tup[0]].images)
            image = self.target.intersection(tuple(self.index[k] for k in tup))
            rm = self._on[tup] = RingMap(image.ring, lift.target, images)
        return rm


def _restricted_denominators(dens, images, ring):
    """The denominator generators that the polynomials dens, restricted
    along polynomial images, add to ring, each once; None when one restricts
    to zero: the piece is empty.  A one-term restriction adds its variables."""
    out = list(ring.denominators)
    for d in dens:
        rd = d.substitute(images, ring).num
        if rd.is_zero():
            return None
        new = [rd]
        if len(rd.terms) == 1:
            (e,) = rd.terms
            new = [ScalarPoly.variable(ring.vars, v) for v, n in zip(ring.vars, e) if n]
        out += [p for p in new if p not in out]
    return out[len(ring.denominators):]


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
    """The inclusion X^g -> X of the fixed subscheme of the group element g,
    as a SchemeMap.  Chart k of X^g is the piece of ambient chart index[k]
    that g fixes, ambient charts the locus misses are left out, and
    charts[k] sends each ambient coordinate to an affine function of the
    locus coordinates t, and some ambient coordinate exactly to each t_k."""
    action = scheme.action_map(g)
    index, restrictions = [], []
    for i in range(scheme.npatches()):
        ring = scheme.patch_ring(i)
        nvars = len(ring.vars)
        # g acts by x -> A x + s, so its fixed points solve (A - 1) x = -s
        rows = [[Fraction(-int(r == c)) for c in range(nvars)] for r in range(nvars)]
        rhs = [Fraction(0)] * nvars
        for r, img in enumerate(action.charts[i].images):
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
        dens = _restricted_denominators(ring.denominators, [LocalFrac(pre, p) for p in param], pre)
        if dens is None:
            continue
        locus_ring = Ring(f"{ring.name}^{g}", tvars, tuple(dens))
        restr = RingMap(ring, locus_ring, tuple(LocalFrac(locus_ring, p) for p in param))
        # the locus must actually be fixed
        for v, img in zip(ring.vars, restr.images):
            assert restr.apply(action.charts[i].apply(ring.var(v))) == img, (
                f"parametrized locus not fixed by {g} on patch {i}"
            )
        index.append(i)
        restrictions.append(restr)

    pair_data = {}
    empty_pairs = []
    for (li, ai), (lj, aj) in itertools.combinations(enumerate(index), 2):
        restr_i = restrictions[li]
        ring_i = restr_i.target
        dens = None
        if scheme.is_nonempty((ai, aj)):
            dens = _restricted_denominators(scheme.pair_data[(ai, aj)][0], restr_i.images, ring_i)
        if dens is None:
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
            restrictions[lj],
            pair_ring,
            restricted,
            f"gluing ({ai},{aj}) does not carry the locus of {g} to itself",
        )
        pair_data[(li, lj)] = (tuple(dens), tuple(images))

    patches = [Patch(r.target, r.apply(scheme.potential(i))) for i, r in zip(index, restrictions)]
    locus = CoveredScheme(scheme.grading, patches, pair_data, empty_pairs=empty_pairs)
    return SchemeMap(locus, scheme, index, restrictions)


def locus_transport(scheme, locus_src, locus_dst, h):
    """Transport by h as the SchemeMap X^g -> X^{h g h^-1}, for locus_src the
    inclusion of X^g and locus_dst that of X^{h g h^-1}: on each chart it
    sends restr_dst(x) to restr_src(h^-1 x), x an ambient coordinate."""
    hinv = scheme.action_map(scheme.action.inverse(h))
    index, charts = [], []
    for restr, i in zip(locus_src.charts, locus_src.index):
        if i not in locus_dst.index:
            raise ValueError(f"transport by {h} hits an empty piece on patch {i}")
        index.append(locus_dst.index.index(i))
        # image of ambient coordinates under the point map, on the g-locus
        moved = [restr.apply(img) for img in hinv.charts[i].images]
        dst = locus_dst.charts[index[-1]]
        failure = f"transport by {h} does not map the locus correctly on patch {i}"
        images = _locus_coordinates(dst, restr.target, moved, failure)
        charts.append(RingMap(dst.target, restr.target, images))
    return SchemeMap(locus_src.source, locus_dst.source, index, charts)
