"""Algebraic differential forms on one affine patch.

A form is a sum of terms f dx_{i1} ^ ... ^ dx_{ik} with strictly increasing
index tuples and LocalFrac coefficients; anything with more factors than the
patch has variables is structurally zero.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import LocalFrac, Ring, RingMap, _check_same_ring

__all__ = ["DifferentialForm", "de_rham_d", "wedge", "pullback"]


def _check_form(x):
    if not isinstance(x, DifferentialForm):
        raise TypeError(f"a {type(x).__name__} is not a DifferentialForm")


def merge_indices(ta, tb):
    """Merge two strictly increasing index tuples.

    Returns (sign, merged tuple), or (0, None) when an index repeats.
    """
    if set(ta) & set(tb):
        return 0, None
    inversions = sum(1 for i in ta for j in tb if i > j)
    merged = tuple(sorted(ta + tb))
    return (-1) ** inversions, merged


class DifferentialForm:

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        if not isinstance(ring, Ring):
            raise TypeError(f"a {type(ring).__name__} is not a Ring")
        self.ring = ring
        clean = {}
        for idxs, coeff in terms.items():
            idxs = tuple(idxs)
            if not all(0 <= i < len(ring.vars) for i in idxs):
                raise ValueError(f"dx index out of range for {ring.name}: {idxs}")
            if not all(a < b for a, b in zip(idxs, idxs[1:])):
                raise ValueError(f"dx indices must be strictly increasing: {idxs}")
            if not isinstance(coeff, LocalFrac):
                raise TypeError(f"coefficient of {idxs} is a {type(coeff).__name__}")
            _check_same_ring(coeff.ring, ring)
            if coeff.is_zero():
                continue
            if idxs in clean:
                clean[idxs] = clean[idxs] + coeff
                if clean[idxs].is_zero():
                    del clean[idxs]
            else:
                clean[idxs] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def function(cls, value):
        return cls(value.ring, {(): value})

    @classmethod
    def dx(cls, ring, var_index, coeff=None):
        if coeff is None:
            coeff = ring.one()
        return cls(ring, {(var_index,): coeff})

    def is_zero(self):
        return not self.terms

    def homogeneous_degree(self):
        """Form degree when homogeneous (zero counts as any degree), else None."""
        degrees = {len(idxs) for idxs in self.terms}
        if not degrees:
            return 0
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def degree_part(self, k):
        return DifferentialForm(
            self.ring, {i: c for i, c in self.terms.items() if len(i) == k}
        )

    def __add__(self, other):
        _check_form(other)
        _check_same_ring(self.ring, other.ring)
        terms = dict(self.terms)
        for idxs, c in other.terms.items():
            if idxs in terms:
                terms[idxs] = terms[idxs] + c
            else:
                terms[idxs] = c
        return DifferentialForm(self.ring, terms)

    def __neg__(self):
        return DifferentialForm(self.ring, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            scalar = self.ring.const(scalar)
        if not isinstance(scalar, LocalFrac):
            raise TypeError(f"cannot scale a form by a {type(scalar).__name__}")
        return DifferentialForm(
            self.ring, {i: c * scalar for i, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        _check_form(other)
        _check_same_ring(self.ring, other.ring)
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[i] == other.terms[i] for i in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for idxs in sorted(self.terms, key=lambda t: (len(t), t)):
            c = str(self.terms[idxs])
            if not idxs:
                pieces.append(c)
                continue
            dxs = "^".join(f"d{self.ring.vars[i]}" for i in idxs)
            if c == "1":
                pieces.append(dxs)
            elif c == "-1":
                pieces.append(f"-{dxs}")
            else:
                if "+" in c or (" - " in c):
                    c = f"({c})"
                pieces.append(f"{c} {dxs}")
        return " + ".join(pieces).replace("+ -", "- ")

    __repr__ = __str__


def d_of_function(value):
    """Exterior derivative of a LocalFrac as a one-form on its ring."""
    ring = value.ring
    terms = {}
    for i in range(len(ring.vars)):
        p = value.partial(i)
        if not p.is_zero():
            terms[(i,)] = p
    return DifferentialForm(ring, terms)


def _accumulate(terms, idxs, value):
    terms[idxs] = terms[idxs] + value if idxs in terms else value


def de_rham_d(form):
    _check_form(form)
    terms = {}
    for idxs, coeff in form.terms.items():
        dcoeff = d_of_function(coeff)
        for (i,), p in dcoeff.terms.items():
            sign, merged = merge_indices((i,), idxs)
            if sign == 0:
                continue
            _accumulate(terms, merged, p * sign)
    return DifferentialForm(form.ring, terms)


def wedge(a, b):
    _check_form(a)
    _check_form(b)
    _check_same_ring(a.ring, b.ring)
    terms = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            sign, merged = merge_indices(ia, ib)
            if sign == 0:
                continue
            _accumulate(terms, merged, ca * cb * sign)
    return DifferentialForm(a.ring, terms)


def _dx_pullback(ring_map, idxs):
    """d(image of x_i1) ^ ... ^ d(image of x_ik) in the target coordinates,
    cached on the map per index tuple."""
    cached = ring_map._dx_pullbacks.get(idxs)
    if cached is None:
        cached = DifferentialForm.function(ring_map.target.one())
        for i in idxs:
            cached = wedge(cached, d_of_function(ring_map.images[i]))
        ring_map._dx_pullbacks[idxs] = cached
    return cached


def pullback(ring_map, form):
    """Pull a form on Spec(source) back along the scheme map given by ring_map.

    Coefficients move by the map itself and each dx_i becomes d(image of x_i),
    expanded in the target coordinates.
    """
    if not isinstance(ring_map, RingMap):
        raise TypeError(f"a {type(ring_map).__name__} is not a RingMap")
    _check_form(form)
    _check_same_ring(form.ring, ring_map.source)
    terms = {}
    for idxs, coeff in form.terms.items():
        moved = ring_map.apply(coeff)
        if not idxs:
            _accumulate(terms, (), moved)
            continue
        for merged, c in _dx_pullback(ring_map, idxs).terms.items():
            _accumulate(terms, merged, moved * c)
    return DifferentialForm(ring_map.target, terms)
