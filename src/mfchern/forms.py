"""Algebraic differential forms on one affine patch.

A form is a dict from strictly increasing dx index tuples to LocalFrac
coefficients over one ring: {(i1, ..., ik): f, ...} is the sum of the terms
f dx_{i1} ^ ... ^ dx_{ik}, and {} is the zero form.  An index tuple longer
than the number of variables cannot be strictly increasing, so anything above
the top degree is structurally zero.  The kernels check the forms they are
given and return new dicts without zero coefficients.  Values that were
checked when they were built go through the unchecked per-term kernels
instead: ``_pullback_term`` for the pullback of one term and ``_d_term`` for
its exterior derivative.
"""

from __future__ import annotations

from .rings import LocalFrac, RingMap, _check_same_ring

__all__ = ["de_rham_d", "wedge", "pullback"]


def _form_ring(form, ring=None):
    """Check a form's terms against ring (or against the ring of its first
    coefficient when ring is None) and return that ring; None for the zero
    form with no ring given."""
    if not isinstance(form, dict):
        raise TypeError(f"a {type(form).__name__} is not a form (a dict of dx index tuples)")
    for idxs, coeff in form.items():
        if not isinstance(coeff, LocalFrac):
            raise TypeError(f"coefficient of {idxs!r} is a {type(coeff).__name__}")
        if ring is None:
            ring = coeff.ring
        else:
            _check_same_ring(coeff.ring, ring)
        if not isinstance(idxs, tuple):
            raise TypeError(f"dx indices must be a tuple: {idxs!r}")
        if any(a >= b for a, b in zip(idxs, idxs[1:])):
            raise ValueError(f"dx indices must be strictly increasing: {idxs}")
        if idxs and not (0 <= idxs[0] and idxs[-1] < len(ring.vars)):
            raise ValueError(f"dx index out of range for {ring.name}: {idxs}")
    return ring


def _merge_indices(ta, tb):
    """Merge two strictly increasing index tuples.

    Returns (sign, merged tuple), or (0, None) when an index repeats.
    """
    if not ta or not tb:
        return 1, ta or tb
    if set(ta) & set(tb):
        return 0, None
    inversions = sum(1 for i in ta for j in tb if i > j)
    merged = tuple(sorted(ta + tb))
    return (-1) ** inversions, merged


def _d_of_function(value):
    """Exterior derivative of a LocalFrac as a one-form on its ring."""
    return {(i,): p for i, p in value.gradient().items()}


def _d_term(idxs, coeff):
    """d of the checked term coeff dx_idxs, as (dx indices, nonzero
    coefficient) pairs with distinct indices: the partials of coeff by the
    variables outside idxs, from one pass over its numerator, each wedged on
    the left (dx_i ^ dx_I vanishes for i in I)."""
    out = []
    for i, p in coeff.gradient(skip=idxs).items():
        sign, merged = _merge_indices((i,), idxs)
        out.append((merged, p if sign > 0 else -p))
    return out


def _accumulate(terms, idxs, value):
    terms[idxs] = terms[idxs] + value if idxs in terms else value


def _nonzero(terms):
    return {idxs: c for idxs, c in terms.items() if not c.is_zero()}


def de_rham_d(form):
    """Exterior derivative, term by term through ``_d_term``."""
    _form_ring(form)
    terms = {}
    for idxs, coeff in form.items():
        for merged, p in _d_term(idxs, coeff):
            _accumulate(terms, merged, p)
    return _nonzero(terms)


def wedge(a, b):
    _form_ring(b, _form_ring(a))
    terms = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            sign, merged = _merge_indices(ia, ib)
            if sign == 0:
                continue
            _accumulate(terms, merged, ca * cb * sign)
    return _nonzero(terms)


def _dx_pullback(ring_map, idxs):
    """d(image of x_i1) ^ ... ^ d(image of x_ik) in the target coordinates,
    cached on the map per index tuple."""
    cached = ring_map._dx_pullbacks.get(idxs)
    if cached is None:
        cached = {(): ring_map.target.one()}
        for i in idxs:
            cached = wedge(cached, _d_of_function(ring_map.images[i]))
        ring_map._dx_pullbacks[idxs] = cached
    return cached


def _pullback_term(ring_map, idxs, coeff):
    """The pullback of the checked term coeff dx_idxs, a coefficient of the
    map's source ring, as (dx indices, nonzero coefficient) pairs with
    distinct indices: the coefficient moves once and multiplies the cached
    pulled-back dx-monomial.  Along an inclusion dx_idxs pulls back to
    itself, so the moved term is the whole answer."""
    moved = ring_map.apply(coeff)
    if moved.is_zero():
        return ()
    if not idxs or ring_map._inclusion is not None:
        return ((idxs, moved),)
    return [(merged, moved * c) for merged, c in _dx_pullback(ring_map, idxs).items()]


def pullback(ring_map, form):
    """Pull a form on Spec(source) back along the scheme map given by ring_map.

    Coefficients move by the map itself and each dx_i becomes d(image of x_i),
    expanded in the target coordinates.
    """
    if not isinstance(ring_map, RingMap):
        raise TypeError(f"a {type(ring_map).__name__} is not a RingMap")
    _form_ring(form, ring_map.source)
    terms = {}
    for idxs, coeff in form.items():
        for merged, c in _pullback_term(ring_map, idxs, coeff):
            _accumulate(terms, merged, c)
    return _nonzero(terms)
