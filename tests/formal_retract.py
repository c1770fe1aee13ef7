"""A five-arrow formal retract category, the second implementation of the
chain backend protocol of ``mfchern.hochschild`` (a test fake), with the
reference expansion of chains and the xi comparison chains built on it.

pytest does not collect this module; the tests import it."""

import itertools
from fractions import Fraction
from math import factorial

from mfchern.hochschild import HochschildChain, connes_B, hochschild_b

_BASIS = ("1P", "g", "f", "1N", "pi")
_SOURCE = {"1P": "P", "g": "P", "f": "N", "1N": "N", "pi": "N"}
_TARGET = {"1P": "P", "g": "N", "f": "P", "1N": "N", "pi": "N"}
# left factor composed after right factor; structure constants are all 1
_TABLE = {
    ("1P", "1P"): "1P",
    ("1P", "f"): "f",
    ("g", "1P"): "g",
    ("g", "f"): "pi",
    ("f", "g"): "1P",
    ("f", "1N"): "f",
    ("f", "pi"): "f",
    ("1N", "g"): "g",
    ("pi", "g"): "g",
    ("1N", "1N"): "1N",
    ("1N", "pi"): "pi",
    ("pi", "1N"): "pi",
    ("pi", "pi"): "pi",
}


class FormalMorphism:
    """Exact linear combination of the five basis arrows between P and N."""

    __slots__ = ("source", "target", "coeffs")

    def __init__(self, source, target, coeffs):
        if source not in ("P", "N") or target not in ("P", "N"):
            raise ValueError(f"unknown objects {source!r} -> {target!r}")
        clean = {}
        for name, c in coeffs.items():
            if name not in _BASIS:
                raise ValueError(f"unknown arrow {name!r}")
            if _SOURCE[name] != source or _TARGET[name] != target:
                raise ValueError(f"{name} is not an arrow {source} -> {target}")
            c = Fraction(c)
            if c != 0:
                clean[name] = c
        self.source = source
        self.target = target
        self.coeffs = clean

    @classmethod
    def basis(cls, name):
        return cls(_SOURCE[name], _TARGET[name], {name: Fraction(1)})

    def is_zero(self):
        return not self.coeffs

    def parity(self):
        return 0

    def differential(self):
        return FormalMorphism(self.source, self.target, {})

    def __add__(self, other):
        if not isinstance(other, FormalMorphism):
            raise TypeError(f"cannot add a {type(other).__name__} to a FormalMorphism")
        if other.source != self.source or other.target != self.target:
            raise ValueError(
                f"cannot add an arrow {other.source} -> {other.target} to an "
                f"arrow {self.source} -> {self.target}"
            )
        out = dict(self.coeffs)
        for name, c in other.coeffs.items():
            out[name] = out.get(name, Fraction(0)) + c
        return FormalMorphism(self.source, self.target, out)

    def __neg__(self):
        return FormalMorphism(
            self.source, self.target, {n: -c for n, c in self.coeffs.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        q = Fraction(q)
        return FormalMorphism(
            self.source, self.target, {n: c * q for n, c in self.coeffs.items()}
        )

    def compose(self, other):
        """self after other."""
        if not isinstance(other, FormalMorphism):
            raise TypeError(f"cannot compose a FormalMorphism with a {type(other).__name__}")
        if other.target != self.source:
            raise ValueError(
                f"composition shape mismatch: {self.source} -> {self.target} "
                f"after {other.source} -> {other.target}"
            )
        out = {}
        for na, ca in self.coeffs.items():
            for nb, cb in other.coeffs.items():
                name = _TABLE[(na, nb)]
                out[name] = out.get(name, Fraction(0)) + ca * cb
        return FormalMorphism(other.source, self.target, out)

    def __repr__(self):
        if not self.coeffs:
            return f"0:{self.source}->{self.target}"
        return " + ".join(f"{c}*{n}" for n, c in sorted(self.coeffs.items()))


class RetractCategory:
    """The two-object category with fg = 1_P and gf = pi; every arrow is
    even and closed."""

    def object_key(self, obj):
        return obj

    def validate_entry(self, a, where):
        if not isinstance(a, FormalMorphism):
            raise TypeError(f"{where} is a {type(a).__name__}, not a FormalMorphism")

    def key(self, a):
        items = tuple(sorted((n, str(c)) for n, c in a.coeffs.items()))
        return (a.source, a.target, items)

    def decompose(self, a):
        for name in sorted(a.coeffs):
            yield (a.source, a.target, name), a.coeffs[name]

    def slot_decompose(self, a):
        return [
            (lab, q)
            for lab, q in self.decompose(a)
            if lab[2] not in ("1P", "1N")
        ]

    def identity(self, obj):
        return FormalMorphism.basis("1P" if obj == "P" else "1N")

    def is_scalar_identity(self, a):
        return set(a.coeffs) <= {"1P"} or set(a.coeffs) <= {"1N"}


# Chains combine only over one category object, so every formal chain of the
# tests lives over this one.
RETRACT = RetractCategory()


def expanded(x):
    """Reference oracle: expand every string multilinearly over the labels of
    ``decompose`` (entry a0) and ``slot_decompose`` (slots), and sum the
    coefficients of equal label tuples.  The chain is zero iff nothing is
    left."""
    cat = x.category
    out = {}
    for (m, a0, slots) in x.strings.values():
        parts = [list(cat.decompose(a0))]
        for s in slots:
            parts.append(list(cat.slot_decompose(s)))
        for combo in itertools.product(*parts):
            coeff = Fraction(1)
            labels = [m]
            for lab, q in combo:
                coeff *= q
                labels.append(lab)
            key = tuple(labels)
            total = out.get(key, Fraction(0)) + coeff
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


def monomials(x):
    """The expansion of a formal chain with each label written as its arrow's
    name: {(power of u, (name of a0, names of the slots)): coefficient}."""
    return {
        (key[0], tuple(lab[2] for lab in key[1:])): c
        for key, c in expanded(x).items()
    }


def xi_sequence(i, u_truncation=0, tensor_cap=None):
    """The degree 2i-1 comparison chains of the retract category."""
    if i < 1:
        raise ValueError(f"xi_i needs i >= 1, got {i}")
    if tensor_cap is None:
        tensor_cap = 2 * i + 1
    g = FormalMorphism.basis("g")
    f = FormalMorphism.basis("f")
    pi = FormalMorphism.basis("pi")
    one_n = FormalMorphism.basis("1N")
    lead = Fraction(factorial(i - 1) * (-1) ** (i - 1))
    items = [(lead, 0, g, (f,) + (g, f) * (i - 1))]
    for j in range(1, i):
        items.append((-lead, 0, one_n, (pi,) * (2 * j - 1) + (g, f) * (i - j)))
    return HochschildChain(RETRACT, u_truncation, tensor_cap, items)


def _in_pi_span(names):
    return names[0] in ("pi", "1N") and all(nm == "pi" for nm in names[1:])


def _has_cyclic_f_pi(names):
    n = len(names)
    return any(
        names[i] == "f" and names[(i + 1) % n] == "pi" for i in range(n)
    )


def xi_recursion_check(i_max):
    """Verify b(xi_{i+1}) = -B(xi_i) modulo the span of the pi-strings and
    the span of the strings with a cyclic f, pi pair, for i = 1..i_max.
    Returns the failures as strings.

    This is the recursion b(xi_{i+1}) = eta_i - B(xi_i) in that quotient:
    every monomial of eta_i is (pi|1_N)[pi|...|pi], so eta_i lies in the
    pi-span, and its coefficients are not checked here."""
    if i_max < 1:
        raise ValueError(f"the check needs i_max >= 1, got {i_max}")
    failures = []
    for i in range(1, i_max + 1):
        cap = 2 * (i + 1) + 1
        xi_i = xi_sequence(i, tensor_cap=cap)
        xi_next = xi_sequence(i + 1, tensor_cap=cap)
        quotient = hochschild_b(xi_next) + connes_B(xi_i)
        for (_m, names), c in sorted(monomials(quotient).items()):
            if _in_pi_span(names) or _has_cyclic_f_pi(names):
                continue
            failures.append(f"i={i}: double quotient keeps {names} -> {c}")
    return failures
