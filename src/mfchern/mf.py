"""Graded vector bundles, matrix factorizations, and their hom complexes.

Bundles are given by transition cocycles over the ordered cover; a matrix
factorization adds a degree-1 endomorphism squaring to the potential.  The
hom complex pairs the patchwise differentials with the Cech differential.
"""

from __future__ import annotations

from fractions import Fraction

from .cech import CechCochain, MatrixForm, acw_product, cech_differential, pullback_matrix
from .geometry import reroot
from .rings import _subsets, parse_scalar

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


def _matmul(ring, a, b):
    """Product of dense square LocalFrac matrices over ring; zero entries of
    either factor are skipped."""
    out = [[ring.zero()] * len(b) for _ in a]
    for r, row in enumerate(a):
        acc = out[r]
        for k, x in enumerate(row):
            if x.is_zero():
                continue
            for c, y in enumerate(b[k]):
                if not y.is_zero():
                    acc[c] = acc[c] + x * y
    return out


def _dense_form(rows, parities, src, ring=None):
    """The MatrixForm of a dense matrix over src, with its nonzero entries
    rerooted into ring when ring is given and differs from src."""
    if ring is not None and ring.name != src.name:
        rows = [[v if v.is_zero() else reroot(ring, v) for v in row] for row in rows]
    return MatrixForm.from_entries(ring or src, parities, parities, rows)


def _identity_rows(ring, n):
    return [[ring.one() if r == c else ring.zero() for c in range(n)] for r in range(n)]


def _coerce_square(ring, rows, rank, what):
    """A rank x rank matrix over ring from LocalFracs, strings or rationals."""
    mat = [[parse_scalar(ring, v) for v in row] for row in rows]
    if len(mat) != rank or any(len(row) != rank for row in mat):
        raise ValueError(f"{what} is not a {rank} x {rank} matrix")
    return mat


def _map_rows(ring_map, mat):
    return [[ring_map.apply(v) for v in row] for row in mat]


def _check_morphism(x, what):
    if not isinstance(x, MorphismCochain):
        raise TypeError(f"{what} is a {type(x).__name__}, not a MorphismCochain")


def _action(scheme):
    if scheme.action is None:
        raise ValueError("scheme has no group action")
    return scheme.action


def _nonzero_positions(mat):
    return [(r, c) for r, row in enumerate(mat) for c, v in enumerate(row) if not v.is_zero()]


def invert_matrix(ring, rows):
    """Exact inverse of a square matrix of LocalFracs by elimination with
    unit pivots.  Raises when no unit pivot is available."""
    n = len(rows)
    aug = [
        [v for v in row] + [ring.one() if k == r else ring.zero() for k in range(n)]
        for r, row in enumerate(rows)
    ]
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
    return [row[n:] for row in aug]


class VectorBundle:
    """Transition-cocycle presentation of a graded locally free module.

    gradings are integers under Z grading and 0/1 under Z2; transitions map
    ordered pairs (i, j), i < j, to matrices over the pair intersection ring
    carrying frame j into frame i.
    """

    def __init__(self, scheme, gradings, transitions, inverses=None):
        self.scheme = scheme
        self.gradings = tuple(gradings)
        if scheme.grading == "Z2" and not all(g in (0, 1) for g in self.gradings):
            raise ValueError(f"Z2 gradings must be 0 or 1, got {self.gradings}")
        self._parities = tuple(g % 2 for g in self.gradings)
        rank = len(self.gradings)
        self.transitions = {}
        self.inverses = {}
        for (i, j), rows in transitions.items():
            if not i < j:
                raise ValueError(f"transition pair ({i},{j}) is not increasing")
            ring = scheme.intersection((i, j)).ring
            mat = _coerce_square(ring, rows, rank, f"transition ({i},{j})")
            for r, c in _nonzero_positions(mat):
                if self.gradings[r] != self.gradings[c]:
                    raise ValueError(f"transition ({i},{j}) entry ({r},{c}) is not degree 0")
            self.transitions[(i, j)] = mat
            if inverses and (i, j) in inverses:
                inv = _coerce_square(ring, inverses[(i, j)], rank, f"inverse ({i},{j})")
            else:
                inv = invert_matrix(ring, mat)
            if _matmul(ring, mat, inv) != _identity_rows(ring, rank):
                raise ValueError(f"declared inverse wrong at ({i},{j})")
            self.inverses[(i, j)] = inv
        for pair in scheme.tuples(2):
            if pair not in self.transitions:
                raise ValueError(f"missing transition for overlap {pair}")
        self._check_cocycle()

    def _check_cocycle(self):
        for (i, j, k) in self.scheme.tuples(3):
            ring = self.scheme.intersection((i, j, k)).ring
            gij = self._matrix_form(ring, (i, j))
            gik = self._matrix_form(ring, (i, k))
            rm = self.scheme.restriction((j, k), (i, j, k))
            gjk = pullback_matrix(rm, self._matrix_form(None, (j, k)))
            if gij.mul(gjk) != gik:
                raise ValueError(f"cocycle fails on triple ({i},{j},{k})")

    def _matrix_form(self, ring, pair, inverse=False):
        rows = self.inverses[pair] if inverse else self.transitions[pair]
        return _dense_form(rows, self._parities, self.scheme.intersection(pair).ring, ring)

    def rank(self):
        return len(self.gradings)

    def parities(self):
        return self._parities

    def transition(self, scheme, ring, i, j):
        assert scheme is self.scheme and i < j
        return self._matrix_form(ring, (i, j))

    def transition_inverse(self, scheme, ring, i, j):
        assert scheme is self.scheme and i < j
        return self._matrix_form(ring, (i, j), inverse=True)


class MatrixFactorization:
    """A bundle with a degree-1 patchwise endomorphism squaring to w."""

    def __init__(self, bundle, deltas):
        self.bundle = bundle
        self.scheme = bundle.scheme
        if len(deltas) != self.scheme.npatches():
            raise ValueError(f"{len(deltas)} deltas for {self.scheme.npatches()} patches")
        self.deltas = []
        gradings = bundle.gradings
        for i, rows in enumerate(deltas):
            mat = _coerce_square(self.scheme.patch_ring(i), rows, bundle.rank(), f"delta {i}")
            for r, c in _nonzero_positions(mat):
                if self.scheme.grading == "Z" and gradings[r] != gradings[c] + 1:
                    raise ValueError(f"delta entry ({r},{c}) on patch {i} is not degree 1")
                if self.scheme.grading == "Z2" and gradings[r] == gradings[c]:
                    raise ValueError(f"delta entry ({r},{c}) on patch {i} is not odd")
            self.deltas.append(mat)

    def rank(self):
        return self.bundle.rank()

    def delta_matrix_form(self, i, ring=None):
        return _dense_form(
            self.deltas[i], self.bundle.parities(), self.scheme.patch_ring(i), ring
        )

    def delta_cochain(self, u_truncation):
        entries = {}
        for (i,) in self.scheme.tuples(1):
            mf = self.delta_matrix_form(i)
            if not mf.is_zero():
                entries[(i,)] = mf
        return CechCochain(
            self.scheme, self.bundle, self.bundle, entries, u_truncation
        )


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
    for i in range(scheme.npatches()):
        ring = scheme.patch_ring(i)
        w = scheme.potential(i)
        square = _matmul(ring, P.deltas[i], P.deltas[i])
        for r, row in enumerate(square):
            for c, got in enumerate(row):
                want = w if r == c else ring.zero()
                if got != want:
                    failures.append(
                        f"patch {i}: delta^2 entry ({r},{c}) is {got}, expected {want}"
                    )
    for (i, j) in scheme.tuples(2):
        inter = scheme.intersection((i, j))
        g = P.bundle.transitions[(i, j)]
        di = _map_rows(inter.restrictions[i], P.deltas[i])
        dj = _map_rows(inter.restrictions[j], P.deltas[j])
        lhs = _matmul(inter.ring, g, dj)
        rhs = _matmul(inter.ring, di, g)
        for r, row in enumerate(lhs):
            for c, got in enumerate(row):
                if got != rhs[r][c]:
                    failures.append(
                        f"overlap ({i},{j}): g delta_j != delta_i g at ({r},{c})"
                    )
    return MFReport(failures)


def koszul_mf(scheme, a, b):
    """Exterior-algebra factorization of w = sum a_j b_j.

    a and b are lists over the index j of per-patch scalars; the underlying
    bundle is the exterior algebra on m generators with identity transitions.
    """
    m = len(a)
    if len(b) != m:
        raise ValueError(f"{m} elements a_j but {len(b)} elements b_j")
    npatch = scheme.npatches()
    a = [
        [parse_scalar(scheme.patch_ring(i), v) for i, v in enumerate(row)]
        for row in a
    ]
    b = [
        [parse_scalar(scheme.patch_ring(i), v) for i, v in enumerate(row)]
        for row in b
    ]
    for i in range(npatch):
        total = sum((a[j][i] * b[j][i] for j in range(m)), scheme.patch_ring(i).zero())
        if total != scheme.potential(i):
            raise ValueError(
                f"sum a_j b_j = {total} differs from the potential on patch {i}"
            )
    basis = _subsets(m)
    index = {s: k for k, s in enumerate(basis)}
    if scheme.grading == "Z":
        gradings = [len(s) for s in basis]
    else:
        gradings = [len(s) % 2 for s in basis]
    transitions = {
        pair: _identity_rows(scheme.intersection(pair).ring, len(basis))
        for pair in scheme.tuples(2)
    }
    bundle = VectorBundle(scheme, gradings, transitions)
    deltas = []
    for i in range(npatch):
        ring = scheme.patch_ring(i)
        mat = [[ring.zero() for _ in basis] for _ in basis]
        for s in basis:
            col = index[s]
            for j in range(m):
                below = sum(1 for x in s if x < j)
                if j not in s:
                    wedge = tuple(sorted(s + (j,)))
                    mat[index[wedge]][col] = mat[index[wedge]][col] + a[j][i] * (
                        (-1) ** below
                    )
                else:
                    dropped = tuple(x for x in s if x != j)
                    mat[index[dropped]][col] = mat[index[dropped]][col] + b[j][i] * (
                        (-1) ** below
                    )
        deltas.append(mat)
    P = MatrixFactorization(bundle, deltas)
    report = check_mf(P)
    assert report.ok, report.failures
    return P


class MorphismCochain:
    """A Cech cochain of Hom-valued entries between two factorizations."""

    __slots__ = ("source", "target", "cochain")

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

    @classmethod
    def from_entries(cls, source, target, entries, u_truncation):
        c = CechCochain(
            source.scheme, source.bundle, target.bundle, entries, u_truncation
        )
        return cls(source, target, c)

    @classmethod
    def identity(cls, P, u_truncation):
        entries = {}
        for (i,) in P.scheme.tuples(1):
            ring = P.scheme.patch_ring(i)
            entries[(i,)] = MatrixForm.identity(ring, P.bundle.parities())
        return cls.from_entries(P, P, entries, u_truncation)

    def is_zero(self):
        return self.cochain.is_zero()

    def parity(self):
        return self.cochain.homogeneous_total_parity()

    def __add__(self, other):
        _check_morphism(other, "summand")
        if other.source is not self.source or other.target is not self.target:
            raise ValueError("summands have different sources or targets")
        return MorphismCochain(self.source, self.target, self.cochain + other.cochain)

    def __neg__(self):
        return MorphismCochain(self.source, self.target, -self.cochain)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        return MorphismCochain(self.source, self.target, self.cochain.scale(scalar))

    def compose(self, other):
        """self after other."""
        _check_morphism(other, "composed morphism")
        if other.target is not self.source:
            raise ValueError("composition shape mismatch")
        return MorphismCochain(
            other.source, self.target, acw_product(self.cochain, other.cochain)
        )

    def differential(self):
        return hom_differential(self)

    def __eq__(self, other):
        if not isinstance(other, MorphismCochain):
            return NotImplemented
        return (
            self.source is other.source
            and self.target is other.target
            and self.cochain == other.cochain
        )

    def canonical_key(self):
        return (id(self.source), id(self.target), self.cochain.canonical_string())

    def __repr__(self):
        return f"MorphismCochain({self.cochain.canonical_string()!r})"


def _split_by_total_parity(cochain):
    parts = {0: {}, 1: {}}
    for tup, mf in cochain.entries.items():
        for key, f in mf.terms.items():
            p = (len(tup) - 1 + mf.term_total_parity(key)) % 2
            parts[p].setdefault(tup, {})[key] = f
    out = {}
    for p, entries in parts.items():
        if entries:
            out[p] = CechCochain(
                cochain.scheme,
                cochain.source,
                cochain.target,
                {
                    tup: MatrixForm(
                        cochain.scheme.intersection(tup).ring,
                        cochain.target.parities(),
                        cochain.source.parities(),
                        terms,
                    )
                    for tup, terms in entries.items()
                },
                cochain.u_truncation,
            )
    return out


def hom_differential(phi):
    """delta_target after phi, minus (-1)^{|phi|} phi after delta_source,
    plus the Cech differential of phi; squares to zero in the curved sense."""
    _check_morphism(phi, "phi")
    trunc = phi.cochain.u_truncation
    dQ = phi.target.delta_cochain(trunc)
    dP = phi.source.delta_cochain(trunc)
    out = None
    for parity, part in _split_by_total_parity(phi.cochain).items():
        piece = cech_differential(part)
        piece = piece + acw_product(dQ, part)
        piece = piece + acw_product(part, dP).scale(-((-1) ** parity))
        out = piece if out is None else out + piece
    if out is None:
        out = CechCochain(
            phi.cochain.scheme,
            phi.source.bundle,
            phi.target.bundle,
            {},
            trunc,
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


def direct_sum(P, Q):
    if P.scheme is not Q.scheme:
        raise ValueError("summands live on different schemes")
    scheme = P.scheme
    gradings = P.bundle.gradings + Q.bundle.gradings
    rp, rq = P.rank(), Q.rank()
    transitions = {}
    inverses = {}
    for pair in scheme.tuples(2):
        ring = scheme.intersection(pair).ring
        zero = ring.zero()

        def block(mp, mq):
            rows = []
            for r in range(rp):
                rows.append([mp[r][c] for c in range(rp)] + [zero] * rq)
            for r in range(rq):
                rows.append([zero] * rp + [mq[r][c] for c in range(rq)])
            return rows

        transitions[pair] = block(P.bundle.transitions[pair], Q.bundle.transitions[pair])
        inverses[pair] = block(P.bundle.inverses[pair], Q.bundle.inverses[pair])
    bundle = VectorBundle(scheme, gradings, transitions, inverses)
    deltas = []
    for i in range(scheme.npatches()):
        ring = scheme.patch_ring(i)
        zero = ring.zero()
        rows = []
        for r in range(rp):
            rows.append([P.deltas[i][r][c] for c in range(rp)] + [zero] * rq)
        for r in range(rq):
            rows.append([zero] * rp + [Q.deltas[i][r][c] for c in range(rq)])
        deltas.append(rows)
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
    deltas = [
        [[-v for v in row] for row in mat] for mat in P.deltas
    ]
    return MatrixFactorization(bundle, deltas)


def group_twist(P, g):
    """The factorization with the g-action applied to transitions and delta."""
    scheme = P.scheme
    act = _action(scheme)
    transitions = {}
    inverses = {}
    for pair in scheme.tuples(2):
        rho = scheme.action_on(pair, g)
        transitions[pair] = _map_rows(rho, P.bundle.transitions[pair])
        inverses[pair] = _map_rows(rho, P.bundle.inverses[pair])
    bundle = VectorBundle(scheme, P.bundle.gradings, transitions, inverses)
    deltas = []
    for i in range(scheme.npatches()):
        deltas.append(_map_rows(act.map(g, i), P.deltas[i]))
    return MatrixFactorization(bundle, deltas)


class EquivariantStructure:
    """Per-element isomorphisms phi_g : gP -> P with the twisted cocycle rule
    phi_{gh} = phi_g . g(phi_h), compatible with delta."""

    __slots__ = ("P", "phi")

    def __init__(self, P, phi):
        scheme = P.scheme
        act = _action(scheme)
        self.P = P
        self.phi = {}
        gradings = P.bundle.gradings
        for g in act.elements:
            mats = phi[g]
            if len(mats) != scheme.npatches():
                raise ValueError(f"phi_{g} has {len(mats)} patches, not {scheme.npatches()}")
            coerced = []
            for i, rows in enumerate(mats):
                mat = _coerce_square(scheme.patch_ring(i), rows, P.rank(), f"phi_{g}")
                for r, c in _nonzero_positions(mat):
                    if gradings[r] != gradings[c]:
                        raise ValueError(f"phi_{g} not degree 0 at ({r},{c}) on patch {i}")
                coerced.append(mat)
            self.phi[g] = coerced
        self._validate()

    def _validate(self):
        P = self.P
        scheme = P.scheme
        act = scheme.action
        for i in range(scheme.npatches()):
            if self.phi[act.identity][i] != _identity_rows(scheme.patch_ring(i), P.rank()):
                raise ValueError("phi_e must be the identity")
        for g in act.elements:
            for h in act.elements:
                gh = act.mult(g, h)
                for i in range(scheme.npatches()):
                    moved = _map_rows(act.map(g, i), self.phi[h][i])
                    if _matmul(scheme.patch_ring(i), self.phi[g][i], moved) != self.phi[gh][i]:
                        raise ValueError(f"phi cocycle fails for ({g},{h}) on patch {i}")
        # compatibility with delta: delta phi_g = phi_g g(delta)
        for g in act.elements:
            for i in range(scheme.npatches()):
                ring = scheme.patch_ring(i)
                phi, delta = self.phi[g][i], P.deltas[i]
                moved = _map_rows(act.map(g, i), delta)
                if _matmul(ring, delta, phi) != _matmul(ring, phi, moved):
                    raise ValueError(f"phi_{g} does not intertwine delta on patch {i}")
        # transitions: phi is a morphism of bundles gP -> P
        for (i, j) in scheme.tuples(2):
            inter = scheme.intersection((i, j))
            gij = P.bundle.transitions[(i, j)]
            for g in act.elements:
                phi_i = _map_rows(inter.restrictions[i], self.phi[g][i])
                phi_j = _map_rows(inter.restrictions[j], self.phi[g][j])
                moved = _map_rows(scheme.action_on((i, j), g), gij)
                if _matmul(inter.ring, gij, phi_j) != _matmul(inter.ring, phi_i, moved):
                    raise ValueError(f"phi_{g} not compatible with transition ({i},{j})")

    def phi_matrix_form(self, g, i, ring=None):
        return _dense_form(
            self.phi[g][i], self.P.bundle.parities(), self.P.scheme.patch_ring(i), ring
        )


def twist_by_character(structure, character):
    """Scale each phi_g by a character value chi(g) in Q."""
    act = structure.P.scheme.action
    if character[act.identity] != 1:
        raise ValueError("character is not multiplicative: chi(e) != 1")
    for g in act.elements:
        for h in act.elements:
            if character[act.mult(g, h)] != character[g] * character[h]:
                raise ValueError("character is not multiplicative")
    phi = {
        g: [
            [[v * Fraction(character[g]) for v in row] for row in mat]
            for mat in structure.phi[g]
        ]
        for g in act.elements
    }
    return EquivariantStructure(structure.P, phi)
