"""Graded vector bundles, matrix factorizations, and their hom complexes.

Bundles are given by transition cocycles over the ordered cover; a matrix
factorization adds a degree-1 endomorphism squaring to the potential.  The
hom complex pairs the patchwise differentials with the Cech differential.

Transitions, inverses, deltas and the phi_g are form-free, u-free
MatrixForms over the pair or patch ring, built once at construction.  At form
degree zero ``MatrixForm.mul`` carries no sign and ``pullback_matrix`` maps
entrywise, so every check on them is the plain matrix identity.
"""

from __future__ import annotations

from fractions import Fraction

from .cech import (
    CechCochain,
    MatrixForm,
    acw_product,
    cech_differential,
    identity_cochain,
    pullback_matrix,
)
from .rings import _check_same_ring, _exact, _subsets, parse_scalar

__all__ = [
    "VectorBundle",
    "MatrixFactorization",
    "MorphismCochain",
    "RetractData",
    "EquivariantStructure",
    "MFReport",
    "check_mf",
    "koszul_mf",
    "hom_differential",
    "direct_sum",
    "shift",
    "group_twist",
    "twist_by_character",
    "invert_matrix",
]


def _check_plain(m, what):
    """Raise unless m is a square MatrixForm without dx or u terms."""
    if not isinstance(m, MatrixForm):
        raise TypeError(f"{what} is a {type(m).__name__}, not a MatrixForm")
    n = len(m.row_parities)
    if m.shape() != (n, n):
        raise ValueError(f"{what} is not a square matrix")
    if any(idxs or u for (_r, _c, idxs, u) in m.terms):
        raise ValueError(f"{what} has dx or u terms")


def _square_form(ring, value, parities, what):
    """A form-free, u-free square MatrixForm over ring with the given row and
    column parities, from a MatrixForm or a square list of LocalFracs,
    expression strings or rationals.  A MatrixForm over the very ring object
    with those parities already is returned as it is: it was checked when it
    was built and is immutable.  Any other one is re-tagged through the
    constructor."""
    rank = len(parities)
    if isinstance(value, MatrixForm):
        _check_plain(value, what)
        _check_same_ring(value.ring, ring)
        if value.shape() != (rank, rank):
            raise ValueError(f"{what} is not a {rank} x {rank} matrix")
        if value.ring is ring and value.row_parities == value.col_parities == tuple(parities):
            return value
        return MatrixForm(ring, parities, parities, value.terms)
    rows = [[parse_scalar(ring, v) for v in row] for row in value]
    if len(rows) != rank or any(len(row) != rank for row in rows):
        raise ValueError(f"{what} is not a {rank} x {rank} matrix")
    return MatrixForm.from_entries(ring, parities, parities, rows)


def _differing_entries(a, b):
    """(row, col, entry of a, entry of b), in row-major order, wherever two
    form-free MatrixForms differ."""
    zero = a.ring.zero()
    for r, c in sorted({key[:2] for key in (a - b).terms}):
        yield r, c, a.terms.get((r, c, (), 0), zero), b.terms.get((r, c, (), 0), zero)


def _check_morphism(x, what):
    if not isinstance(x, MorphismCochain):
        raise TypeError(f"{what} is a {type(x).__name__}, not a MorphismCochain")


def invert_matrix(m):
    """Exact inverse of a form-free square MatrixForm by Gauss-Jordan
    elimination with unit pivots, the first unit in each column.  Rows are
    kept sparse, so zero entries are neither scaled nor subtracted.  When a
    column has no unit pivot left, ``_adjugate_inverse`` takes over."""
    _check_plain(m, "matrix")
    ring = m.ring
    n = len(m.row_parities)
    rows = [{n + r: ring.one()} for r in range(n)]  # column -> nonzero entry
    for (r, c, _idxs, _u), f in m.terms.items():
        rows[r][c] = f
    for c in range(n):
        for r in range(c, n):
            inv = rows[r][c].inverse() if c in rows[r] else None
            if inv is not None:
                break
        else:
            return _adjugate_inverse(m)
        rows[c], rows[r] = rows[r], rows[c]
        pivot_row = rows[c] = {k: v * inv for k, v in rows[c].items()}
        for r, row in enumerate(rows):
            f = row.get(c)
            if r == c or f is None:
                continue
            for k, w in pivot_row.items():
                v = row.get(k)
                v = -(f * w) if v is None else v - f * w
                if v.is_zero():
                    del row[k]
                else:
                    row[k] = v
    terms = {
        (r, k - n, (), 0): row[k] for r, row in enumerate(rows) for k in sorted(row) if k >= n
    }
    return MatrixForm(ring, m.col_parities, m.row_parities, terms)


def _adjugate_inverse(m):
    """adj(m) det(m)^-1 by Faddeev-LeVerrier: from M_0 = 0 and c_n = 1,
    M_k = m M_(k-1) + c_(n-k+1) and c_(n-k) = -tr(m M_k)/k, and m M_n = -c_0
    = +-det(m).  Form-free products carry no sign, so even parities serve."""
    ring, even = m.ring, (0,) * len(m.row_parities)
    a, one = MatrixForm(ring, even, even, m.terms), MatrixForm.identity(ring, even)
    am, c = MatrixForm(ring, even, even, {}), ring.one()
    for k in range(1, len(even) + 1):
        mk = am + one.scale(c)
        am = a.mul(mk)
        trace = sum((f for (r, col, _, _), f in am.terms.items() if r == col), ring.zero())
        c = trace * Fraction(-1, k)
    if c.inverse() is None:
        raise ValueError("matrix not invertible over the localization")
    return MatrixForm(ring, m.col_parities, m.row_parities, mk.scale(-c.inverse()).terms)


class VectorBundle:
    """Transition-cocycle presentation of a graded locally free module.

    gradings are integers under Z grading and 0/1 under Z2; transitions map
    ordered pairs (i, j), i < j, to matrices over the pair intersection ring
    carrying frame j into frame i, and inverses to their inverses.
    """

    def __init__(self, scheme, gradings, transitions, inverses=None):
        self.scheme = scheme
        self.gradings = tuple(gradings)
        if scheme.grading == "Z2" and not all(g in (0, 1) for g in self.gradings):
            raise ValueError(f"Z2 gradings must be 0 or 1, got {self.gradings}")
        self._parities = parities = tuple(g % 2 for g in self.gradings)
        self.transitions = {}
        self.inverses = {}
        self._frame_forms = {}  # pair -> frame_form(self, pair)
        overlaps = scheme.tuples(2)
        for pair in inverses or ():
            if pair not in transitions:
                raise ValueError(f"inverse given for {pair}, which has no transition")
        for (i, j), value in transitions.items():
            if not i < j:
                raise ValueError(f"transition pair ({i},{j}) is not increasing")
            if (i, j) not in overlaps:
                raise ValueError(f"transition pair ({i},{j}) is not an overlap of the cover")
            ring = scheme.intersection((i, j)).ring
            g = _square_form(ring, value, parities, f"transition ({i},{j})")
            for r, c, _idxs, _u in g.terms:
                if self.gradings[r] != self.gradings[c]:
                    raise ValueError(f"transition ({i},{j}) entry ({r},{c}) is not degree 0")
            self.transitions[(i, j)] = g
            if inverses and (i, j) in inverses:
                inv = _square_form(ring, inverses[(i, j)], parities, f"inverse ({i},{j})")
            else:
                inv = invert_matrix(g)
            if g.mul(inv) != MatrixForm.identity(ring, parities):
                raise ValueError(f"declared inverse wrong at ({i},{j})")
            self.inverses[(i, j)] = inv
        for pair in overlaps:
            if pair not in self.transitions:
                raise ValueError(f"missing transition for overlap {pair}")
        self._check_cocycle()

    def _check_cocycle(self):
        scheme = self.scheme
        for (i, j, k) in scheme.tuples(3):
            gij, gjk, gik = (
                pullback_matrix(scheme.restriction(pair, (i, j, k)), self.transitions[pair])
                for pair in ((i, j), (j, k), (i, k))
            )
            if gij.mul(gjk) != gik:
                raise ValueError(f"cocycle fails on triple ({i},{j},{k})")

    def rank(self):
        return len(self.gradings)

    def parities(self):
        return self._parities


class MatrixFactorization:
    """A bundle with a degree-1 patchwise endomorphism squaring to w."""

    def __init__(self, bundle, deltas):
        self.bundle = bundle
        self.scheme = bundle.scheme
        if len(deltas) != self.scheme.npatches():
            raise ValueError(f"{len(deltas)} deltas for {self.scheme.npatches()} patches")
        self.deltas = []
        gradings = bundle.gradings
        for i, value in enumerate(deltas):
            d = _square_form(self.scheme.patch_ring(i), value, bundle.parities(), f"delta {i}")
            for r, c, _idxs, _u in d.terms:
                if self.scheme.grading == "Z" and gradings[r] != gradings[c] + 1:
                    raise ValueError(f"delta entry ({r},{c}) on patch {i} is not degree 1")
                if self.scheme.grading == "Z2" and gradings[r] == gradings[c]:
                    raise ValueError(f"delta entry ({r},{c}) on patch {i} is not odd")
            self.deltas.append(d)

    def rank(self):
        return self.bundle.rank()

    def delta_cochain(self, u_truncation):
        entries = {(i,): d for i, d in enumerate(self.deltas) if not d.is_zero()}
        return CechCochain(self.scheme, self.bundle, self.bundle, entries, u_truncation)


class MFReport:

    __slots__ = ("ok", "failures")

    def __init__(self, failures):
        self.failures = list(failures)
        self.ok = not self.failures

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "MFReport(ok)" if self.ok else f"MFReport({self.failures!r})"


def check_mf(P):
    """Verify delta^2 = w id patchwise and transition compatibility on
    overlaps; returns a report instead of raising."""
    failures = []
    scheme = P.scheme
    for i, d in enumerate(P.deltas):
        w_id = MatrixForm.identity(scheme.patch_ring(i), P.bundle.parities())
        for r, c, got, want in _differing_entries(d.mul(d), w_id.scale(scheme.potential(i))):
            failures.append(f"patch {i}: delta^2 entry ({r},{c}) is {got}, expected {want}")
    return MFReport(failures + _overlap_failures(P))


def _overlap_failures(P):
    """The overlaps (i, j) where g delta_j != delta_i g, one message per entry."""
    failures = []
    scheme = P.scheme
    for (i, j) in scheme.tuples(2):
        g = P.bundle.transitions[(i, j)]
        di = pullback_matrix(scheme.restriction((i,), (i, j)), P.deltas[i])
        dj = pullback_matrix(scheme.restriction((j,), (i, j)), P.deltas[j])
        for r, c, _lhs, _rhs in _differing_entries(g.mul(dj), di.mul(g)):
            failures.append(f"overlap ({i},{j}): g delta_j != delta_i g at ({r},{c})")
    return failures


def koszul_mf(scheme, a, b):
    """Exterior-algebra factorization of w = sum a_j b_j.

    a and b are lists over the index j of per-patch scalars; the underlying
    bundle is the exterior algebra on m generators with identity transitions.
    Raises ValueError unless every a_j and b_j has one value per patch, sum
    a_j b_j is the potential on every patch and the deltas glue on every
    overlap.  delta^2 = (sum a_j b_j) id holds for the exterior-algebra
    differential by construction, so it is not squared here; ``check_mf``
    still squares it.  On each patch a_j, -a_j, b_j and -b_j are made once
    and every entry of delta holds one of these shared values.
    """
    m = len(a)
    if len(b) != m:
        raise ValueError(f"{m} elements a_j but {len(b)} elements b_j")
    npatch = scheme.npatches()

    def scalars(name, rows):
        for j, row in enumerate(rows):
            if len(row) != npatch:
                raise ValueError(f"{len(row)} values of {name}_{j} for {npatch} patches")
        return [[parse_scalar(scheme.patch_ring(i), v) for i, v in enumerate(row)] for row in rows]

    a, b = scalars("a", a), scalars("b", b)
    for i in range(npatch):
        total = sum((a[j][i] * b[j][i] for j in range(m)), scheme.patch_ring(i).zero())
        if total != scheme.potential(i):
            raise ValueError(
                f"sum a_j b_j = {total} differs from the potential on patch {i}"
            )
    basis = _subsets(m)
    index = {s: k for k, s in enumerate(basis)}
    gradings = [len(s) if scheme.grading == "Z" else len(s) % 2 for s in basis]
    parities = tuple(len(s) % 2 for s in basis)
    transitions = {
        pair: MatrixForm.identity(scheme.intersection(pair).ring, parities)
        for pair in scheme.tuples(2)
    }
    bundle = VectorBundle(scheme, gradings, transitions)
    deltas = []
    for i in range(npatch):
        signed = [(a[j][i], -a[j][i], b[j][i], -b[j][i]) for j in range(m)]
        terms = {}
        for s in basis:
            col = index[s]
            for j in range(m):
                odd = sum(1 for x in s if x < j) % 2
                if j not in s:
                    row, value = index[tuple(sorted(s + (j,)))], signed[j][odd]
                else:
                    row, value = index[tuple(x for x in s if x != j)], signed[j][2 + odd]
                terms[(row, col, (), 0)] = value
        deltas.append(MatrixForm(scheme.patch_ring(i), parities, parities, terms))
    P = MatrixFactorization(bundle, deltas)
    failures = _overlap_failures(P)
    if failures:
        raise ValueError(f"not a matrix factorization: {'; '.join(failures)}")
    return P


_UNSET = object()  # a parity not computed yet; None is the parity of a mixed value


class MorphismCochain:
    """A Cech cochain of Hom-valued entries between two factorizations.

    A value is immutable, so it computes its parity and differential once
    and keeps them, and keeps each ``self.compose(other)`` in a memo keyed
    by ``id(other)`` that holds ``other`` (so the id is not reused) and
    lives as long as ``self``.  Results of ``scale``, ``+``, ``-`` and
    ``compose`` are new values with empty memos, except that closed values
    stay closed: the identity, and each such result whose operands all
    have a differential known to be zero, start with the zero differential
    (d is linear, d(1) = 0, and d(a b) = (da) b + (parity_sign a)(db)).
    Any other differential is computed when first asked for."""

    __slots__ = ("source", "target", "cochain", "_parity", "_differential", "_composites")

    def __init__(self, source, target, cochain):
        if not isinstance(source, MatrixFactorization) or not isinstance(
            target, MatrixFactorization
        ):
            raise TypeError("source and target must be MatrixFactorizations")
        if not isinstance(cochain, CechCochain):
            raise TypeError(f"not a CechCochain: {cochain!r}")
        if cochain.source is not source.bundle or cochain.target is not target.bundle:
            raise ValueError("cochain bundles differ from the source and target bundles")
        self.source = source
        self.target = target
        self.cochain = cochain
        self._parity, self._differential, self._composites = _UNSET, None, {}

    @classmethod
    def from_entries(cls, source, target, entries, u_truncation):
        c = CechCochain(
            source.scheme, source.bundle, target.bundle, entries, u_truncation
        )
        return cls(source, target, c)

    @classmethod
    def identity(cls, P, u_truncation):
        return cls(P, P, identity_cochain(P.scheme, P.bundle, u_truncation))._closed()

    def _closed(self, *operands):
        """self, given the zero differential when the differential of every
        operand is known to be zero (or there is no operand)."""
        for a in operands:
            if a._differential is None or not a._differential.is_zero():
                return self
        trunc = self.cochain.u_truncation
        self._differential = MorphismCochain.from_entries(self.source, self.target, {}, trunc)
        return self

    def is_zero(self):
        return self.cochain.is_zero()

    def parity(self):
        if self._parity is _UNSET:
            self._parity = self.cochain.homogeneous_total_parity()
        return self._parity

    def __add__(self, other):
        _check_morphism(other, "summand")
        if other.source is not self.source or other.target is not self.target:
            raise ValueError("summands have different sources or targets")
        out = MorphismCochain(self.source, self.target, self.cochain + other.cochain)
        return out._closed(self, other)

    def __neg__(self):
        return MorphismCochain(self.source, self.target, -self.cochain)._closed(self)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        return MorphismCochain(self.source, self.target, self.cochain.scale(scalar))._closed(self)

    def compose(self, other):
        """self after other."""
        held = self._composites.get(id(other))
        if held is None:
            _check_morphism(other, "composed morphism")
            if other.target is not self.source:
                raise ValueError("composition shape mismatch")
            c = MorphismCochain(other.source, self.target, acw_product(self.cochain, other.cochain))
            c._closed(self, other)
            held = self._composites[id(other)] = (other, c)
        return held[1]

    def differential(self):
        if self._differential is None:
            self._differential = hom_differential(self)
        return self._differential

    def __eq__(self, other):
        if not isinstance(other, MorphismCochain):
            return NotImplemented
        return (
            self.source is other.source
            and self.target is other.target
            and self.cochain == other.cochain
        )

    def __repr__(self):
        return f"MorphismCochain({self.cochain.canonical_string()!r})"


def hom_differential(phi):
    """The Cech differential of phi plus the graded commutator
    delta_target phi - (parity_sign phi) delta_source.  It squares to zero:
    [delta, [delta, phi]] = [W, phi] = 0, as W times an identity is
    central.  It is linear in phi, so phi may mix parities."""
    _check_morphism(phi, "phi")
    c = phi.cochain
    trunc = c.u_truncation
    out = (
        cech_differential(c)
        + acw_product(phi.target.delta_cochain(trunc), c)
        - acw_product(c.parity_sign(), phi.source.delta_cochain(trunc))
    )
    return MorphismCochain(phi.source, phi.target, out)


class RetractData:
    """A factorization P exhibited as a summand of N."""

    __slots__ = ("P", "N", "g", "f", "pi")

    def __init__(self, P, N, g, f):
        _check_morphism(g, "g")
        _check_morphism(f, "f")
        if g.source is not P or g.target is not N or f.source is not N or f.target is not P:
            raise ValueError("need g: P -> N and f: N -> P")
        trunc = min(g.cochain.u_truncation, f.cochain.u_truncation)
        one_P = MorphismCochain.identity(P, trunc)
        if not (f.compose(g) - one_P).is_zero():
            raise ValueError("f g != 1_P")
        for name, arrow in (("g", g), ("f", f)):
            if not arrow.differential().is_zero():
                raise ValueError(f"{name} is not closed")
        self.P = P
        self.N = N
        self.g = g
        self.f = f
        self.pi = g.compose(f)
        assert (self.pi.compose(self.pi) - self.pi).is_zero(), "pi not idempotent"


def _block_diagonal(a, b):
    """diag(a, b) for square MatrixForms over one ring."""
    n = len(a.row_parities)
    terms = dict(a.terms)
    for (r, c, idxs, u), f in b.terms.items():
        terms[(r + n, c + n, idxs, u)] = f
    parities = a.row_parities + b.row_parities
    return MatrixForm(a.ring, parities, parities, terms)


def direct_sum(P, Q):
    if P.scheme is not Q.scheme:
        raise ValueError("summands live on different schemes")
    pb, qb = P.bundle, Q.bundle
    bundle = VectorBundle(
        P.scheme,
        pb.gradings + qb.gradings,
        {pair: _block_diagonal(g, qb.transitions[pair]) for pair, g in pb.transitions.items()},
        {pair: _block_diagonal(g, qb.inverses[pair]) for pair, g in pb.inverses.items()},
    )
    deltas = [_block_diagonal(dp, dq) for dp, dq in zip(P.deltas, Q.deltas)]
    return MatrixFactorization(bundle, deltas)


def shift(P):
    """Swap (Z2) or raise (Z) the grading and negate delta."""
    scheme = P.scheme
    if scheme.grading == "Z2":
        gradings = tuple(1 - g for g in P.bundle.gradings)
    else:
        gradings = tuple(g + 1 for g in P.bundle.gradings)
    bundle = VectorBundle(
        scheme, gradings, P.bundle.transitions, P.bundle.inverses
    )
    return MatrixFactorization(bundle, [-d for d in P.deltas])


def group_twist(P, g):
    """The factorization with the g-action applied to transitions and delta."""
    scheme = P.scheme
    f = scheme.action_map(g)

    def moved(stored):
        return {pair: pullback_matrix(f.on(pair), m) for pair, m in stored.items()}

    bundle = VectorBundle(
        scheme, P.bundle.gradings, moved(P.bundle.transitions), moved(P.bundle.inverses)
    )
    deltas = [pullback_matrix(f.charts[i], d) for i, d in enumerate(P.deltas)]
    return MatrixFactorization(bundle, deltas)


class EquivariantStructure:
    """Per-element isomorphisms phi_g : gP -> P with the twisted cocycle rule
    phi_{gh} = phi_g . g(phi_h), compatible with delta."""

    __slots__ = ("P", "phi")

    def __init__(self, P, phi):
        scheme = P.scheme
        act = scheme.action
        if act is None:
            raise ValueError("scheme has no group action")
        _check_elements(phi, act, "phi")
        self.P = P
        self.phi = {}
        gradings = P.bundle.gradings
        for g in act.elements:
            mats = phi[g]
            if len(mats) != scheme.npatches():
                raise ValueError(f"phi_{g} has {len(mats)} patches, not {scheme.npatches()}")
            coerced = []
            for i, value in enumerate(mats):
                m = _square_form(scheme.patch_ring(i), value, P.bundle.parities(), f"phi_{g}")
                for r, c, _idxs, _u in m.terms:
                    if gradings[r] != gradings[c]:
                        raise ValueError(f"phi_{g} not degree 0 at ({r},{c}) on patch {i}")
                coerced.append(m)
            self.phi[g] = coerced
        self._validate()

    def _validate(self):
        P = self.P
        scheme = P.scheme
        act = scheme.action
        parities = P.bundle.parities()
        for i in range(scheme.npatches()):
            if self.phi[act.identity][i] != MatrixForm.identity(scheme.patch_ring(i), parities):
                raise ValueError("phi_e must be the identity")
        for g in act.elements:
            f = scheme.action_map(g)
            for h in act.elements:
                gh = act.mult(g, h)
                for i in range(scheme.npatches()):
                    moved = pullback_matrix(f.charts[i], self.phi[h][i])
                    if self.phi[g][i].mul(moved) != self.phi[gh][i]:
                        raise ValueError(f"phi cocycle fails for ({g},{h}) on patch {i}")
            # phi_g: g*P -> P is closed: delta phi_g = phi_g g*(delta) on each
            # chart, and g_ij phi_j = phi_i g*(g_ij) on each overlap (i, j)
            phi = {(i,): m for i, m in enumerate(self.phi[g])}
            failed = hom_differential(MorphismCochain.from_entries(group_twist(P, g), P, phi, 0))
            for tup in sorted(failed.cochain.entries, key=lambda tup: (len(tup), tup)):
                if len(tup) == 1:
                    raise ValueError(f"phi_{g} does not intertwine delta on patch {tup[0]}")
                raise ValueError(f"phi_{g} not compatible with transition ({tup[0]},{tup[1]})")


def _check_elements(values, act, what):
    """Raise ValueError naming the first group element that values has no
    key for, or else its first key that is not a group element."""
    odd = [g for g in act.elements if g not in values]
    odd += [g for g in values if g not in act.elements]
    if odd:
        raise ValueError(f"{what} needs one value per group element: {odd[0]!r} is missing or extra")


def twist_by_character(structure, character):
    """Scale each phi_g by a character value chi(g) in Q, an int or a
    Fraction."""
    act = structure.P.scheme.action
    _check_elements(character, act, "character")
    chi = {g: _exact(character[g]) for g in act.elements}
    if chi[act.identity] != 1:
        raise ValueError("character is not multiplicative: chi(e) != 1")
    for g in act.elements:
        for h in act.elements:
            if chi[act.mult(g, h)] != chi[g] * chi[h]:
                raise ValueError("character is not multiplicative")
    phi = {g: [m.scale(chi[g]) for m in structure.phi[g]] for g in act.elements}
    return EquivariantStructure(structure.P, phi)
