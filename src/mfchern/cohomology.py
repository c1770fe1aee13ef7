"""Total complex of scalar Cech cochains: degree bookkeeping, the full
differential, primitive solving, and conjugation averaging of families.

Scalar cochains are plain ``CechCochain``s whose source and target bundles
are even lines; every function here takes and returns them.
``TotalCochain`` is such a cochain with degree queries added.
"""

from fractions import Fraction

from .rings import (
    LocalFrac,
    QLinearSystem,
    ScalarPoly,
    _add_monomial_rows,
    _subsets,
    monomials_up_to,
)
from .cech import (
    CechCochain,
    MatrixForm,
    cech_differential,
    differential_sign,
    form_derivative,
    acw_product,
    pullback_matrix,
)
from .forms import _merge_indices, _pullback_term, de_rham_d

__all__ = [
    "TotalCochain",
    "total_differential",
    "is_cocycle",
    "cohomologous",
    "coinvariant_project",
]


def _check_scalar(c):
    if not isinstance(c, CechCochain):
        raise TypeError(f"a {type(c).__name__} is not a CechCochain")
    if c.source.parities() != (0,) or c.target.parities() != (0,):
        raise ValueError("total cochains are scalar-valued")


class TotalCochain(CechCochain):
    """A scalar cochain with (Cech p, form q, u-power m) bookkeeping.

    Total degree is p - q + 2m: the exterior derivative has degree -1, u has
    degree 2, and the Cech direction has degree +1.  Only the parity of the
    total degree is homogeneous for the cochains produced by trace maps, so
    degree queries return sets.  The given cochain's bundles are kept, so an
    even line bundle still transports by its own transitions.
    """

    __slots__ = ()

    def __init__(self, cochain):
        _check_scalar(cochain)
        super().__init__(
            cochain.scheme,
            cochain.source,
            cochain.target,
            cochain.entries,
            cochain.u_truncation,
        )

    @classmethod
    def scalar(cls, scheme, entries, u_truncation):
        return cls(CechCochain.scalar(scheme, entries, u_truncation))

    @classmethod
    def zero(cls, scheme, u_truncation):
        return cls.scalar(scheme, {}, u_truncation)

    def components(self):
        out = set()
        for tup, mf in self.entries.items():
            for (_r, _c, idxs, m) in mf.terms:
                out.add((len(tup) - 1, len(idxs), m))
        return sorted(out)

    def total_degrees(self):
        return sorted({p - q + 2 * m for (p, q, m) in self.components()})


def _minus_dw_cochain(scheme, u_truncation):
    entries = {}
    for (i,) in scheme.tuples(1):
        ring = scheme.intersection((i,)).ring
        w = scheme.potential(i)
        terms = {}
        for j in range(len(ring.vars)):
            dj = w.partial(j)
            if not dj.is_zero():
                terms[(0, 0, (j,), 0)] = -dj
        if terms:
            entries[(i,)] = MatrixForm(ring, (0,), (0,), terms)
    return CechCochain.scalar(scheme, entries, u_truncation)


def total_differential(c):
    """The full differential d_Cech + u d - dw on scalar cochains.

    The -dw summand is graded left multiplication by the odd element -dw,
    realized as a cup product with the degree-zero Cech cochain of patchwise
    potential differentials.
    """
    _check_scalar(c)
    return _total_differential(c, _minus_dw_cochain(c.scheme, c.u_truncation))


def _total_differential(c, dw):
    """total_differential(c), with dw the -dw cochain at c's u truncation."""
    out = cech_differential(c)
    out = out + form_derivative(c).shift_u(1)
    if not dw.is_zero():
        out = out + acw_product(dw, c)
    return out


def is_cocycle(c):
    return total_differential(c).is_zero()


def _cofaces(scheme, tup):
    """(big, k, restriction into big) for every nonempty tuple big one index
    larger than tup, with k the position of the added index."""
    out = []
    for big in scheme.tuples(len(tup) + 1):
        for k in range(len(big)):
            if big[:k] + big[k + 1 :] == tup:
                out.append((big, k, scheme.restriction(tup, big)))
    return out


def _column_image(tup, idxs, value, cofaces, minus_dw):
    """total_differential of the cochain value dx_idxs at tup and u^0, as
    ((tuple, dx indices, u power), coefficient) pairs with distinct keys and
    nonzero coefficients, built from its three parts:

    - the Cech part: value signed by (-1)^k differential_sign(|I|, 0) and
      pulled back into each coface that adds an index at position k;
    - u d(value dx_I) at tup and u^1;
    - minus_dw, the form -dw of patch tup[0] restricted to tup (or None when
      it is zero), wedged on the left of value dx_I; the left factor sits in
      Cech degree 0 and is even, so only the wedge sign enters.
    """
    out = []
    sign = differential_sign(len(idxs), 0)
    for big, k, rm in cofaces:
        signed = value * (sign if k % 2 == 0 else -sign)
        out.extend(((big, nidxs, 0), f) for nidxs, f in _pullback_term(rm, idxs, signed))
    out.extend(((tup, nidxs, 1), f) for nidxs, f in de_rham_d({idxs: value}).items())
    if minus_dw is not None:
        for (_r, _c, dx, _m), f in minus_dw.terms.items():
            wsign, merged = _merge_indices(dx, idxs)
            if wsign:
                f = f * value
                out.append(((tup, merged, 0), f if wsign > 0 else -f))
    return out


def cohomologous(c1, c2, degree_bound, den_bound=1):
    """Search for a primitive p with total_differential(p) = c1 - c2.

    The primitive is sought with polynomial numerators of degree at most
    degree_bound and denominator multiplicities at most den_bound; None means
    undecided within the bound, not a proof of inequality.

    The search space has one column per basis element x^a/g^m dx_I at a
    tuple and a power of u.  Each column's image is built in closed form
    (see ``_column_image``).  A found primitive is checked by substitution
    with total_differential before it is returned, and that check does not
    use the closed form: a wrong column could at worst turn "found" into
    "undecided", never return a wrong primitive.
    """
    _check_scalar(c1)
    _check_scalar(c2)
    diff = c1 - c2  # raises ValueError when the schemes differ
    scheme = c1.scheme
    trunc = diff.u_truncation
    if diff.is_zero():
        return CechCochain.scalar(scheme, {}, trunc)
    parity = diff.homogeneous_total_parity()
    p1, p2 = c1.homogeneous_total_parity(), c2.homogeneous_total_parity()
    if parity is None or (p1 is not None and p2 is not None and p1 != p2):
        raise ValueError("total degree mismatch between the two cocycles")
    target_parity = (parity + 1) % 2

    # total_differential keeps the power of u except on u d, which raises it
    # by one, so a column at u^m has its family's u^0 image shifted by m.
    dw = _minus_dw_cochain(scheme, trunc)
    columns = []
    contributions = {}
    for size in range(1, scheme.npatches() + 1):
        for tup in scheme.tuples(size):
            ring = scheme.intersection(tup).ring
            nvars = len(ring.vars)
            cofaces = _cofaces(scheme, tup)
            minus_dw = dw.transport(tup[:1], tup) if tup[:1] in dw.entries else None
            for idxs in _subsets(nvars):
                if (size - 1 + len(idxs)) % 2 != target_parity:
                    continue
                family = []
                for den in monomials_up_to(len(ring.denominators), den_bound):
                    for mono in monomials_up_to(nvars, degree_bound):
                        value = LocalFrac(
                            ring, ScalarPoly(ring.vars, {mono: Fraction(1)}), den
                        )
                        if value.den != tuple(den) or value.num.terms != {
                            tuple(mono): Fraction(1)
                        }:
                            continue
                        image = _column_image(tup, idxs, value, cofaces, minus_dw)
                        family.append((value, image))
                for m in range(trunc + 1):
                    for value, image in family:
                        col = len(columns)
                        columns.append((tup, idxs, m, value))
                        for (out_tup, out_idxs, out_m), f in image:
                            if out_m + m <= trunc:
                                contributions.setdefault(
                                    (out_tup, out_idxs, out_m + m), []
                                ).append((col, f))

    rhs_values = {}
    for tup, mf in diff.entries.items():
        for (r, c, idxs, m), f in mf.terms.items():
            key = (tup, idxs, m)
            rhs_values[key] = rhs_values.get(key, f.ring.zero()) + f

    system = QLinearSystem()
    for key in sorted(set(contributions) | set(rhs_values)):
        parts = contributions.get(key, [])
        rhs = rhs_values[key] if key in rhs_values else parts[0][1].ring.zero()
        _add_monomial_rows(system, parts, rhs)
    solution = system.solve(len(columns))
    if solution is None:
        return None

    entries = {}
    for coeff, (tup, idxs, m, value) in zip(solution, columns):
        if coeff == 0:
            continue
        ring = value.ring
        add = MatrixForm(ring, (0,), (0,), {(0, 0, idxs, m): value * coeff})
        entries[tup] = entries[tup] + add if tup in entries else add
    primitive = CechCochain.scalar(scheme, entries, trunc)
    if _total_differential(primitive, dw) == diff:
        return primitive
    return None


def _transported(scheme, cochain, h):
    entries = {}
    for tup, mf in cochain.entries.items():
        rm = scheme.action_on(tup, h)
        entries[tup] = pullback_matrix(rm, mf)
    return CechCochain.scalar(scheme, entries, cochain.u_truncation)


def coinvariant_project(family, scheme):
    """Average a per-group-element family over conjugation orbits.

    family: {g: scalar CechCochain}; missing components are zero.
    The component at g becomes the orbit average of the components at all
    h g h^{-1}, each pulled back along a fixed h realizing the conjugation.
    For abelian groups every orbit is a singleton realized by the identity,
    so the projection is the identity map.
    """
    act = scheme.action
    if act is None:
        raise ValueError("scheme carries no group action")
    trunc = None
    for g, c in family.items():
        _check_scalar(c)
        if c.scheme is not scheme:
            raise ValueError(f"the component at {g!r} lives on another scheme")
        trunc = c.u_truncation if trunc is None else min(trunc, c.u_truncation)
    if trunc is None:
        trunc = 0

    def conj(h, g):
        return act.mult(act.mult(h, g), act.inverse(h))

    out = {}
    for g in act.elements:
        orbit = []
        for gp in act.elements:
            movers = [h for h in act.elements if conj(h, gp) == g]
            if movers:
                pick = act.identity if act.identity in movers else movers[0]
                orbit.append((gp, pick))
        acc = CechCochain.scalar(scheme, {}, trunc)
        for gp, h in orbit:
            c = family.get(gp)
            if c is None or c.is_zero():
                continue
            acc = acc + _transported(scheme, c.truncate_u(trunc), h)
        out[g] = acc.scale(Fraction(1, len(orbit)))
    return out
