"""Total complex of scalar Cech cochains: the full differential, primitive
solving, and the coinvariant projection of families over the fixed loci.

Scalar cochains are plain ``CechCochain``s whose source and target bundles
are even lines; every function here takes and returns them.
``TotalCochain`` is such a cochain, checked to be scalar when it is built.
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
    _check_count,
    cech_differential,
    differential_sign,
    form_derivative,
    acw_product,
    pullback_matrix,
)
from .forms import _d_term, _merge_indices, _pullback_term
from .geometry import SchemeMap, locus_transport

__all__ = [
    "TotalCochain",
    "total_differential",
    "cohomologous",
    "coinvariant_project",
]


def _check_scalar(c):
    if not isinstance(c, CechCochain):
        raise TypeError(f"a {type(c).__name__} is not a CechCochain")
    if c.source.parities() != (0,) or c.target.parities() != (0,):
        raise ValueError("total cochains are scalar-valued")


class TotalCochain(CechCochain):
    """A CechCochain checked to be scalar: its source and target bundles are
    even lines.  The given cochain's bundles are kept, so an even line bundle
    still transports by its own transitions.
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


def _minus_dw_cochain(scheme, u_truncation):
    entries = {}
    for (i,) in scheme.tuples(1):
        ring = scheme.intersection((i,)).ring
        w = scheme.potential(i)
        terms = {(0, 0, (j,), 0): -dj for j, dj in w.gradient().items()}
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
    out.extend(((tup, nidxs, 1), f) for nidxs, f in _d_term(idxs, value))
    if minus_dw is not None:
        for (_r, _c, dx, _m), f in minus_dw.terms.items():
            wsign, merged = _merge_indices(dx, idxs)
            if wsign:
                f = f * value
                out.append(((tup, merged, 0), f if wsign > 0 else -f))
    return out


def _candidate_values(ring, degree_bound, den_bound):
    """Every canonical x^a/g^m of ring with |a| <= degree_bound and each
    denominator multiplicity at most den_bound, in (denominator, grlex)
    order; a pair that cancels to another candidate is left out."""
    out = []
    for den in monomials_up_to(len(ring.denominators), den_bound):
        for mono in monomials_up_to(len(ring.vars), degree_bound):
            value = LocalFrac(ring, ScalarPoly(ring.vars, {mono: Fraction(1)}), den)
            if value.den == tuple(den) and value.num.terms == {tuple(mono): Fraction(1)}:
                out.append(value)
    return out


def cohomologous(c1, c2, degree_bound, den_bound=1):
    """Search for a primitive p with total_differential(p) = c1 - c2.

    The primitive is sought with polynomial numerators of degree at most
    degree_bound and denominator multiplicities at most den_bound; None means
    undecided within the bound, not a proof of inequality.

    The search space has one column per basis element x^a/g^m dx_I at a
    tuple and a power u^k.  Each column's image is built in closed form
    (see ``_column_image``).  A found primitive is checked by substitution
    with total_differential before it is returned, and that check does not
    use the closed form: a wrong column could at worst turn "found" into
    "undecided", never return a wrong primitive.

    Only the columns of degrees that c1 - c2 touches are built and solved.
    The degree of dx_I u^k is q = |I| - k.  When every chart has w = 0 the
    total differential preserves q: the Cech part pulls back along ring maps
    and changes frames by u-free transitions, so it keeps |I| and k, and
    u d raises both by one.  The system is then block diagonal in q, and a
    block that c1 - c2 misses is homogeneous.  In the full search such a
    block's columns come out 0 (free columns are set to 0 and back-substitute
    to 0), and it can never be inconsistent.  The kept rows hold the same
    parts in the same order and the kept columns keep their relative order,
    so elimination picks the same pivots: the primitive and the verdict are
    those of the full search.  When some chart has w != 0, -dw raises |I|
    alone, so every degree is kept and nothing is left out.
    """
    _check_count("degree bound", degree_bound)
    _check_count("denominator bound", den_bound)
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

    dw = _minus_dw_cochain(scheme, trunc)
    if dw.is_zero():
        degrees = {
            len(idxs) - k for mf in diff.entries.values() for (_r, _c, idxs, k) in mf.terms
        }
    else:
        degrees = range(-trunc, scheme.dimension + 1)
    # total_differential keeps the power of u except on u d, which raises it
    # by one, so a column at u^m has its family's u^0 image shifted by m.
    columns = []
    contributions = {}
    for size in range(1, scheme.npatches() + 1):
        for tup in scheme.tuples(size):
            ring = scheme.intersection(tup).ring
            values = None
            for idxs in _subsets(len(ring.vars)):
                if (size - 1 + len(idxs)) % 2 != target_parity:
                    continue
                powers = [m for m in range(trunc + 1) if len(idxs) - m in degrees]
                if not powers:
                    continue
                if values is None:
                    values = _candidate_values(ring, degree_bound, den_bound)
                    cofaces = _cofaces(scheme, tup)
                    minus_dw = dw.transport(tup[:1], tup) if tup[:1] in dw.entries else None
                family = [
                    (value, _column_image(tup, idxs, value, cofaces, minus_dw))
                    for value in values
                ]
                for m in powers:
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


def _pullback(f, c):
    """The scalar cochain f*c on f.source of a scalar cochain c on f.target,
    for a SchemeMap f: its entry on a nonempty tuple T is c's entry on the
    image tuple f(T), pulled back along f.on(T)."""
    position = {k: i for i, k in enumerate(f.index)}
    entries = {}
    for tup, mf in c.entries.items():
        pre = tuple(position.get(k) for k in tup)
        if None not in pre and f.source.is_nonempty(pre):
            entries[pre] = pullback_matrix(f.on(pre), mf)
    return CechCochain.scalar(f.source, entries, c.u_truncation)


def coinvariant_project(family, loci):
    """The coinvariant projection of a family over the fixed loci.  loci:
    {g: fixed_locus(X, g)} for each g in X's group; family: {g: scalar
    cochain on loci[g].source}, a missing one zero.  Component g is (1/|G|)
    sum_h f_h^*(c_(hgh^-1)) for f_h = locus_transport(X, loci[g], loci[hgh^-1], h)."""
    for g, f in loci.items():
        if not isinstance(f, SchemeMap):
            raise TypeError(f"the locus of {g!r} is a {type(f).__name__}, not a SchemeMap")
    targets = {f.target for f in loci.values()}
    X = targets.pop() if len(targets) == 1 else None
    act = getattr(X, "action", None)
    if act is None or set(loci) != set(act.elements):
        raise ValueError("need the loci in one scheme of all elements of its group, and no other")
    for g, c in family.items():
        _check_scalar(c)
        if g not in loci or c.scheme is not loci[g].source:
            raise ValueError(f"the component at {g!r} does not live on the fixed locus of {g!r}")
    trunc = min((c.u_truncation for c in family.values()), default=0)
    out = {}
    for g in act.elements:
        acc = CechCochain.scalar(loci[g].source, {}, trunc)
        for h in act.elements:
            conj = act.mult(act.mult(h, g), act.inverse(h))
            if conj in family:
                f = locus_transport(X, loci[g], loci[conj], h)
                acc = acc + _pullback(f, family[conj].truncate_u(trunc))
        out[g] = acc.scale(Fraction(1, len(act.elements)))
    return out
