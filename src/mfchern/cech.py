"""Ordered Cech cochains valued in forms tensor endomorphisms tensor u-powers.

Every sign in this module and its clients comes from exactly three rules,
implemented once below: the Koszul transposition sign, the front-face sign
(-1)^{p|y|} of the cup product, and the value-level sign (-1)^{|k1||g2|} for
composing form-valued endomorphisms.  u is even and never contributes.

A cochain's bundles have ``parities()`` and dicts ``transitions`` and
``inverses``: at an increasing pair (i, j), the MatrixForm over the pair ring
carrying frame j into frame i, and its inverse.  A missing pair means no
frame change (the trivial line's dicts are empty).  A bundle with a
``scheme`` must live on the cochain's scheme.

Public constructors check all they are given.  Values built here from checked
values (sums, products, derivatives, pullbacks, u shifts and cuts) are not
re-checked: the private ``_of`` constructors only drop zero terms or entries.
Arguments from the caller, such as a u shift or a scalar, are still checked.

A product of values multiplies numerator term dicts: each entry of the result
is canonicalised once per output key and summed denominator tuple, not once
per pair of terms.  The numerator products are summed in ints, each factor
scaled by the lcm of its coefficient denominators, and each summed
coefficient is divided once by the two scales, so a Fraction is built only
for an output coefficient that is not integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

# pullback is not used here, but stays importable from this module:
# benchmarks/spans.py wraps the layer functions other modules import by name,
# and benchmarks/test_benchmark_harness.py::
# test_install_wraps_names_imported_elsewhere asserts cech.pullback.
from .forms import _d_term, _merge_indices, _pullback_term, pullback  # noqa: F401
from .rings import LocalFrac, ScalarPoly, _check_same_ring, _exact

__all__ = [
    "MatrixForm",
    "CechCochain",
    "TrivialLine",
    "cech_differential",
    "form_derivative",
    "acw_product",
    "exp_neg",
    "supertrace",
    "supertrace_product",
    "identity_cochain",
    "koszul_sign",
    "product_sign",
    "differential_sign",
]


# -- the sign ledger --------------------------------------------------------


def koszul_sign(deg_a, deg_b):
    """Rule 1: transposing objects of the given total degrees."""
    return -1 if (deg_a * deg_b) % 2 else 1


def product_sign(cech_left, endo_left, form_right, endo_right):
    """Rules 2 and 3 composed: the sign of (x tensor a).(y tensor b).

    Rule 2 moves the degree-p Cech position of the left factor past the
    internal value y of the right factor; rule 3 moves the endomorphism part
    of the left value past the form part of the right value.
    """
    exponent = cech_left * (form_right + endo_right) + endo_left * form_right
    return -1 if exponent % 2 else 1


def differential_sign(form_deg, endo_parity):
    """Rule 1 applied to the degree-1 Cech differential passing the value."""
    return koszul_sign(form_deg + endo_parity, 1)


# -- matrix-of-forms values --------------------------------------------------


def _lcm_denominators(scale, terms):
    """The lcm of scale and the denominators of the coefficients in terms."""
    for c in terms.values():
        if type(c) is not int and scale % c.denominator:
            scale = lcm(scale, c.denominator)
    return scale


def _scaled_terms(terms, scale):
    """The numerator terms times scale, a multiple of every coefficient
    denominator: a dict of ints."""
    if scale == 1:
        return terms
    return {
        e: c * scale if type(c) is int else c.numerator * (scale // c.denominator)
        for e, c in terms.items()
    }


def _divided(c, scale):
    """The int c divided by the int scale > 0: an int when it divides and a
    Fraction otherwise."""
    q, r = divmod(c, scale)
    return Fraction(c, scale) if r else q


class MatrixForm:
    """A matrix over (differential forms) x (powers of u) in one ring.

    Rows and columns carry parities from the target and source bundle
    generators; terms map (row, col, dx index tuple, u power) to LocalFrac.
    """

    __slots__ = ("ring", "row_parities", "col_parities", "terms")

    def __init__(self, ring, row_parities, col_parities, terms):
        self.ring = ring
        self.row_parities = tuple(row_parities)
        self.col_parities = tuple(col_parities)
        if not all(p in (0, 1) for p in self.row_parities + self.col_parities):
            raise ValueError("parities must be 0 or 1")
        nrows, ncols, nvars = len(self.row_parities), len(self.col_parities), len(ring.vars)
        clean = {}
        for (r, c, idxs, m), f in terms.items():
            idxs = tuple(idxs)
            if not (
                type(r) is int  # a bool or a float is not an index or a count
                and type(c) is int
                and type(m) is int
                and 0 <= r < nrows
                and 0 <= c < ncols
                and m >= 0
                and all(type(i) is int and 0 <= i < nvars for i in idxs)
                and all(a < b for a, b in zip(idxs, idxs[1:]))
            ):
                raise ValueError(
                    f"bad term key {(r, c, idxs, m)}: need int row < {nrows}, int col < "
                    f"{ncols}, increasing int dx indices below {nvars} and an int u power >= 0"
                )
            if not isinstance(f, LocalFrac):
                raise TypeError(f"term {(r, c, idxs, m)} is a {type(f).__name__}, not a LocalFrac")
            _check_same_ring(f.ring, ring)
            if f.is_zero():
                continue
            key = (r, c, idxs, m)
            if key in clean:
                clean[key] = clean[key] + f
                if clean[key].is_zero():
                    del clean[key]
            else:
                clean[key] = f
        self.terms = clean

    @classmethod
    def _of(cls, ring, row_parities, col_parities, terms):
        """The value with the nonzero ones of terms, which were built here from
        checked values: nothing else is checked."""
        out = cls.__new__(cls)
        out.ring = ring
        out.row_parities = row_parities
        out.col_parities = col_parities
        out.terms = {k: f for k, f in terms.items() if not f.is_zero()}
        return out

    def _like(self, terms):
        """``_of`` with this value's ring and parities."""
        return MatrixForm._of(self.ring, self.row_parities, self.col_parities, terms)

    @classmethod
    def identity(cls, ring, parities):
        one = ring.one()
        return cls(
            ring,
            parities,
            parities,
            {(k, k, (), 0): one for k in range(len(parities))},
        )

    @classmethod
    def from_entries(cls, ring, row_parities, col_parities, matrix):
        """Build a form-degree-zero value from a dense list of LocalFrac rows."""
        terms = {}
        for r, row in enumerate(matrix):
            for c, f in enumerate(row):
                if isinstance(f, (int, Fraction)):
                    f = ring.const(f)
                if not f.is_zero():
                    terms[(r, c, (), 0)] = f
        return cls(ring, row_parities, col_parities, terms)

    def is_zero(self):
        return not self.terms

    def shape(self):
        return len(self.row_parities), len(self.col_parities)

    def term_endo_parity(self, key):
        r, c, _, _ = key
        return (self.row_parities[r] + self.col_parities[c]) % 2

    def term_total_parity(self, key):
        return (len(key[2]) + self.term_endo_parity(key)) % 2

    def _check_operand(self, other):
        if not isinstance(other, MatrixForm):
            raise TypeError(f"a {type(other).__name__} is not a MatrixForm")
        _check_same_ring(self.ring, other.ring)

    def __add__(self, other):
        self._check_operand(other)
        if other.row_parities != self.row_parities or other.col_parities != self.col_parities:
            raise ValueError("summands have different shapes or parities")
        terms = dict(self.terms)
        for k, f in other.terms.items():
            terms[k] = terms[k] + f if k in terms else f
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -f for k, f in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        """Multiply every term by a function (degree-zero scalar), no signs; a
        scalar that is not a LocalFrac must be an int or a Fraction."""
        if not isinstance(scalar, LocalFrac):
            scalar = _exact(scalar)
        return self._like({k: f * scalar for k, f in self.terms.items()})

    def shift_u(self, k):
        """Multiply by u^k for an int k >= 0."""
        _check_count("u shift", k)
        return self._like({(r, c, i, m + k): f for (r, c, i, m), f in self.terms.items()})

    def truncate_u(self, bound):
        _check_count("u truncation", bound)
        return self._like({k: f for k, f in self.terms.items() if k[3] <= bound})

    def _check_factor(self, other):
        self._check_operand(other)
        if self.col_parities != other.row_parities:
            raise ValueError("shape mismatch")

    def _product_terms(self, other, cech_left, trace):
        """The terms of self.mul(other, cech_left) for a checked factor
        other, or with trace those of its supertrace at (0, 0).

        Each factor is scaled to integer coefficients by the lcm of the
        coefficient denominators of its values in composing pairs, so each
        composing pair multiplies its numerators' term dicts in ints, with
        the ledger sign (and the supertrace's row sign), into one sum dict
        per output key and summed denominator tuple.  Signs and merged dx
        tuples are taken once per distinct (dx tuples, parities), and each
        value is scaled once, both within the call.  One pass over each
        sum dict drops the zero sums and divides the others once by the two
        scales, an int when it divides and a Fraction otherwise, so the
        numerator is stored as built; each value is canonicalised once, and
        then the denominator groups of one key are added."""
        if not self.terms or not other.terms:
            return {}
        partners = {}  # row of other, or (row, col) with trace -> its terms
        for (r2, c2, i2, m2), f2 in other.terms.items():
            e2 = (other.row_parities[r2] + other.col_parities[c2]) % 2
            partners.setdefault((r2, c2) if trace else r2, []).append((c2, i2, m2, e2, f2))
        signs = {}  # (dx tuples, parities) -> (ledger sign or 0, merged dx tuple)
        pairs = []  # (value of self, output key, value of other, sign) per composing pair
        scale1 = 1
        for (r1, c1, i1, m1), f1 in self.terms.items():
            bucket = partners.get((c1, r1) if trace else c1)
            if not bucket:
                continue
            e1 = (self.row_parities[r1] + self.col_parities[c1]) % 2
            row_sign = -1 if trace and self.row_parities[r1] else 1
            before = len(pairs)
            for c2, i2, m2, e2, f2 in bucket:
                pair = (i1, e1, i2, e2)
                found = signs.get(pair)
                if found is None:
                    wsign, merged = _merge_indices(i1, i2)
                    if wsign:
                        wsign *= product_sign(cech_left, e1, len(i2), e2)
                    found = signs[pair] = (wsign, merged)
                sign, merged = found
                if sign:
                    key = (0, 0, merged, m1 + m2) if trace else (r1, c2, merged, m1 + m2)
                    pairs.append((f1, key, f2, sign * row_sign))
            if len(pairs) > before:
                scale1 = _lcm_denominators(scale1, f1.num.terms)
        scale2 = 1
        for _, _, f2, _ in pairs:
            scale2 = _lcm_denominators(scale2, f2.num.terms)
        groups = {}  # (output key, denominator tuple) -> coefficient sums
        scaled2 = {}  # id of a value of other -> its scaled numerator terms
        last1 = None
        for f1, key, f2, sign in pairs:
            if f1 is not last1:  # the pairs of one term of self are consecutive
                last1, terms1 = f1, _scaled_terms(f1.num.terms, scale1)
            if scale2 == 1:
                terms2 = f2.num.terms
            else:
                terms2 = scaled2.get(id(f2))
                if terms2 is None:
                    terms2 = scaled2[id(f2)] = _scaled_terms(f2.num.terms, scale2)
            sums = groups.setdefault((key, tuple(map(add, f1.den, f2.den))), {})
            for ea, ca in terms1.items():
                ca *= sign
                for eb, cb in terms2.items():
                    e = tuple(map(add, ea, eb))
                    sums[e] = sums.get(e, 0) + ca * cb
        scale = scale1 * scale2
        terms = {}
        for (key, den), sums in groups.items():
            if scale == 1:
                sums = {e: c for e, c in sums.items() if c}
            else:
                sums = {e: _divided(c, scale) for e, c in sums.items() if c}
            val = LocalFrac._of(self.ring, ScalarPoly._of(self.ring.vars, sums), den)
            terms[key] = terms[key] + val if key in terms else val
        return terms

    def mul(self, other, cech_left=0):
        """Compose: self acting after other, with the ledger signs.

        cech_left is the Cech degree of the cochain the left factor came
        from; it feeds rule 2.  Each entry of the product is summed in ints
        and canonicalised once per summed denominator tuple (see
        ``_product_terms``).
        """
        self._check_factor(other)
        terms = self._product_terms(other, cech_left, False)
        return MatrixForm._of(self.ring, self.row_parities, other.col_parities, terms)

    def _supertrace_mul(self, other, cech_left=0):
        """self.mul(other, cech_left).supertrace(), pairing only the terms
        whose product lands on the diagonal."""
        self._check_factor(other)
        if self.row_parities != other.col_parities:
            raise ValueError("supertrace needs square shape")
        return MatrixForm._of(self.ring, (0,), (0,), self._product_terms(other, cech_left, True))

    def d_form(self):
        """Exterior derivative on the form factor; it sits leftmost, no sign."""
        terms = {}
        for (r, c, idxs, m), f in self.terms.items():
            for nidxs, nf in _d_term(idxs, f):
                key = (r, c, nidxs, m)
                terms[key] = terms[key] + nf if key in terms else nf
        return self._like(terms)

    def supertrace(self):
        """Scalar value (-1)^{|row|} times the diagonal sum."""
        if self.row_parities != self.col_parities:
            raise ValueError("supertrace needs square shape")
        terms = {}
        for (r, c, idxs, m), f in self.terms.items():
            if r != c:
                continue
            val = f if self.row_parities[r] == 0 else -f
            key = (0, 0, idxs, m)
            terms[key] = terms[key] + val if key in terms else val
        return MatrixForm._of(self.ring, (0,), (0,), terms)

    def __eq__(self, other):
        self._check_operand(other)
        if (
            self.row_parities != other.row_parities
            or self.col_parities != other.col_parities
        ):
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        lines = []
        for key in sorted(self.terms, key=lambda k: (k[3], k[0], k[1], k[2])):
            r, c, idxs, m = key
            dx = "".join(f"^d{self.ring.vars[i]}" for i in idxs)
            upart = "" if m == 0 else f"u^{m} " if m > 1 else "u "
            lines.append(f"[{r},{c}] {upart}{dx[1:] if dx else '1'} :: {self.terms[key]}")
        return "; ".join(lines)

    __repr__ = __str__


def _check_count(what, n):
    """Raise unless n is an int >= 0; a bool is not a count."""
    if type(n) is not int:
        raise TypeError(f"{what} {n!r} is not an int")
    if n < 0:
        raise ValueError(f"negative {what} {n}")


def pullback_matrix(ring_map, value):
    """Move a MatrixForm along a RingMap, pulling back both the coefficients
    and the dx factors.

    The value's terms were checked when it was built, so each one goes
    through the pullback kernel of ``forms.pullback`` without that
    function's form check: its coefficient moves once and multiplies the
    map's cached pulled-back dx-monomial, or, along a coordinate inclusion,
    keeps its key and only re-indexes its denominator."""
    if not isinstance(value, MatrixForm):
        raise TypeError(f"a {type(value).__name__} is not a MatrixForm")
    _check_same_ring(value.ring, ring_map.source)
    terms = {}
    for (r, c, idxs, m), f in value.terms.items():
        for nidxs, nf in _pullback_term(ring_map, idxs, f):
            key = (r, c, nidxs, m)
            terms[key] = terms[key] + nf if key in terms else nf
    return MatrixForm._of(ring_map.target, value.row_parities, value.col_parities, terms)


# -- bundle stand-in for scalar-valued cochains ------------------------------


class TrivialLine:
    """The trivial even line bundle; scalar cochains are valued in its
    endomorphisms."""

    transitions = inverses = {}

    def parities(self):
        return (0,)

    def __repr__(self):
        return "TrivialLine"


TRIVIAL_LINE = TrivialLine()


# -- cochains ----------------------------------------------------------------


class CechCochain:
    """Entries at nonempty strictly increasing patch tuples, in the tuple's
    smallest-index coordinates and frames.  A value is immutable, so
    ``canonical_string`` computes its text once and keeps it while it lives."""

    __slots__ = ("scheme", "source", "target", "entries", "u_truncation", "_text")

    def __init__(self, scheme, source, target, entries, u_truncation):
        _check_count("u truncation", u_truncation)
        self.scheme = scheme
        self.source = source
        self.target = target
        self.u_truncation = u_truncation
        self._text = None
        for bundle in (source, target):
            if getattr(bundle, "scheme", scheme) is not scheme:
                raise ValueError("a bundle of the cochain lives on another scheme")
        clean = {}
        rows = target.parities()
        cols = source.parities()
        for tup, mf in entries.items():
            tup = tuple(tup)
            if not scheme.is_nonempty(tup):
                raise ValueError(f"entry at empty intersection {tup}")
            if not isinstance(mf, MatrixForm):
                raise TypeError(f"entry at {tup} is a {type(mf).__name__}, not a MatrixForm")
            _check_same_ring(mf.ring, scheme.intersection(tup).ring)
            if mf.row_parities != rows or mf.col_parities != cols:
                raise ValueError(f"entry at {tup} has wrong shape for the declared bundles")
            if any(k[3] > u_truncation for k in mf.terms):
                raise ValueError(f"u-power above truncation at {tup}")
            if not mf.is_zero():
                clean[tup] = mf
        self.entries = clean

    @classmethod
    def _of(cls, scheme, source, target, entries, u_truncation):
        """The cochain with the nonzero ones of entries, which were built here
        from checked cochains: nothing else is checked."""
        out = cls.__new__(cls)
        out.scheme = scheme
        out.source = source
        out.target = target
        out.u_truncation = u_truncation
        out._text = None
        out.entries = {t: mf for t, mf in entries.items() if not mf.is_zero()}
        return out

    @classmethod
    def scalar(cls, scheme, entries, u_truncation):
        return cls(scheme, TRIVIAL_LINE, TRIVIAL_LINE, entries, u_truncation)

    def entry(self, tup):
        return self.entries.get(tuple(tup))

    def is_zero(self):
        return not self.entries

    def homogeneous_total_parity(self):
        """Total parity (Cech + form + endomorphism) when well-defined."""
        parities = set()
        for tup, mf in self.entries.items():
            for k in mf.terms:
                parities.add((len(tup) - 1 + mf.term_total_parity(k)) % 2)
        if len(parities) == 1:
            return parities.pop()
        return None

    def parity_sign(self):
        """The grading involution: each term times (-1)^(Cech degree + total
        parity).  For an odd x, the graded commutator [x, c] is x c minus
        (parity_sign c) x."""
        entries = {}
        for tup, mf in self.entries.items():
            p = len(tup) - 1
            entries[tup] = mf._like({
                k: -f if (p + mf.term_total_parity(k)) % 2 else f for k, f in mf.terms.items()
            })
        return CechCochain._of(self.scheme, self.source, self.target, entries, self.u_truncation)

    def _compatible(self, other):
        _check_cochain(other)
        if other.scheme is not self.scheme:
            raise ValueError("cochains live on different schemes")
        if (
            other.source.parities() != self.source.parities()
            or other.target.parities() != self.target.parities()
        ):
            raise ValueError("cochains have different shapes")

    def __add__(self, other):
        self._compatible(other)
        trunc = min(self.u_truncation, other.u_truncation)
        entries = {t: mf.truncate_u(trunc) for t, mf in self.entries.items()}
        for t, mf in other.entries.items():
            mf = mf.truncate_u(trunc)
            entries[t] = entries[t] + mf if t in entries else mf
        return CechCochain._of(self.scheme, self.source, self.target, entries, trunc)

    def __neg__(self):
        entries = {t: -mf for t, mf in self.entries.items()}
        return CechCochain._of(self.scheme, self.source, self.target, entries, self.u_truncation)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        entries = {t: mf.scale(scalar) for t, mf in self.entries.items()}
        return CechCochain._of(self.scheme, self.source, self.target, entries, self.u_truncation)

    def shift_u(self, k):
        """Multiply by u^k for an int k >= 0, cut at the u truncation."""
        _check_count("u shift", k)
        trunc = self.u_truncation
        entries = {t: mf.shift_u(k).truncate_u(trunc) for t, mf in self.entries.items()}
        return CechCochain._of(self.scheme, self.source, self.target, entries, trunc)

    def truncate_u(self, bound):
        """Drop the terms above u^bound; the truncation only goes down."""
        _check_count("u truncation", bound)
        entries = {t: mf.truncate_u(bound) for t, mf in self.entries.items()}
        trunc = min(bound, self.u_truncation)
        return CechCochain._of(self.scheme, self.source, self.target, entries, trunc)

    def __eq__(self, other):
        self._compatible(other)
        if set(self.entries) != set(other.entries):
            return False
        return all(self.entries[t] == other.entries[t] for t in self.entries)

    def transport(self, small, big, value=None):
        """Move the entry at the small tuple into the big tuple's ring and
        frame: pull back coefficients and forms, then change frames by the
        bundle transitions when the leading index changes.  The transition
        and inverse at the pair (big[0], small[0]) are pulled back into the
        big tuple's ring, except when that pair is the big tuple itself: they
        already live in its ring and are used as they are.

        An endomorphism of a line bundle keeps its frame: its transition g is
        an even, form-free, u-free 1 x 1 matrix, so both ledger signs are +1,
        functions commute, and g X g^{-1} = X (X keeps its own form where a
        ring with multi-term generators gives a value several).  Hom(L1, L2)
        with L1 and L2 different bundles, and End(E) of rank 2 or more, still
        conjugate."""
        small, big = tuple(small), tuple(big)
        if value is None:
            value = self.entries[small]
        if small == big:
            return value
        moved = pullback_matrix(self.scheme.restriction(small, big), value)
        if small[0] != big[0] and not (
            self.source is self.target and len(self.source.parities()) == 1
        ):
            pair = (big[0], small[0])
            frames = [self.target.transitions.get(pair), self.source.inverses.get(pair)]
            if pair != big:
                rm = self.scheme.restriction(pair, big)
                frames = [f if f is None else pullback_matrix(rm, f) for f in frames]
            transition, inverse = frames
            if transition is not None:
                moved = transition.mul(moved)
            if inverse is not None:
                moved = moved.mul(inverse)
        return moved

    def canonical_string(self):
        if self._text is None:
            lines = []
            for tup in sorted(self.entries):
                mf = self.entries[tup]
                for key in sorted(mf.terms, key=lambda k: (k[3], k[2], k[0], k[1])):
                    r, c, idxs, m = key
                    dx = "^".join(f"d{mf.ring.vars[i]}" for i in idxs) or "1"
                    lines.append(f"{tup} u^{m} {dx} [{r},{c}] = {mf.terms[key]}")
            self._text = "\n".join(lines) if lines else "0"
        return self._text

    def __str__(self):
        return self.canonical_string()

    __repr__ = __str__


def _check_cochain(c):
    if not isinstance(c, CechCochain):
        raise TypeError(f"a {type(c).__name__} is not a CechCochain")


def identity_cochain(scheme, bundle, u_truncation):
    entries = {}
    for (i,) in scheme.tuples(1):
        ring = scheme.intersection((i,)).ring
        entries[(i,)] = MatrixForm.identity(ring, bundle.parities())
    return CechCochain(scheme, bundle, bundle, entries, u_truncation)


def cech_differential(c):
    """Alternating sum of transports, with the rule-1 sign for passing the
    degree-1 Cech operation through each term's internal value."""
    _check_cochain(c)
    scheme = c.scheme
    out = {}
    sizes = {len(t) + 1 for t in c.entries}
    for size in sizes:
        for big in scheme.tuples(size):
            ring = scheme.intersection(big).ring
            acc = None
            for k in range(size):
                small = big[:k] + big[k + 1 :]
                value = c.entries.get(small)
                if value is None:
                    continue
                signed = value._like({
                    key: f if (-1) ** k * differential_sign(
                        len(key[2]), value.term_endo_parity(key)) > 0 else -f
                    for key, f in value.terms.items()
                })
                moved = c.transport(small, big, signed)
                acc = moved if acc is None else acc + moved
            if acc is not None:
                out[big] = acc
    return CechCochain._of(scheme, c.source, c.target, out, c.u_truncation)


def form_derivative(c):
    """Entrywise exterior derivative in each tuple's leading frame."""
    _check_cochain(c)
    entries = {tup: mf.d_form() for tup, mf in c.entries.items()}
    return CechCochain._of(c.scheme, c.source, c.target, entries, c.u_truncation)


def _check_factors(a, b):
    _check_cochain(a)
    _check_cochain(b)
    if a.scheme is not b.scheme:
        raise ValueError("factors live on different schemes")
    if b.target.parities() != a.source.parities():
        raise ValueError("product needs target bundle of the right factor = source of the left")


def _cup(a, b, product):
    """Entries and u truncation of a front-face/back-face cup product whose
    values are composed by product(front value, back value, Cech degree of
    the front), both values moved into the ring and frame of their tuple.
    Only the entries present are paired: a front and a back that share their
    joint index give the tuple front + back[1:] when it is nonempty."""
    trunc = min(a.u_truncation, b.u_truncation)
    scheme = a.scheme
    backs_from = {}  # first index -> the tuples of b's entries starting there
    for back in b.entries:
        backs_from.setdefault(back[0], []).append(back)
    out = {}
    for front in a.entries:
        for back in backs_from.get(front[-1], ()):
            big = front + back[1:]
            if not scheme.is_nonempty(big):
                continue
            left = a.transport(front, big)
            right = b.transport(back, big)
            value = product(left, right, len(front) - 1).truncate_u(trunc)
            if value.is_zero():
                continue
            out[big] = out[big] + value if big in out else value
    return out, trunc


def acw_product(a, b):
    """Front-face/back-face cup product; a composes after b on values."""
    _check_factors(a, b)
    entries, trunc = _cup(a, b, MatrixForm.mul)
    return CechCochain._of(a.scheme, b.source, a.target, entries, trunc)


def supertrace_product(a, b):
    """supertrace(acw_product(a, b)), with only the diagonal of each value
    product computed."""
    _check_factors(a, b)
    if b.source.parities() != a.target.parities():
        raise ValueError("supertrace needs square values")
    entries, trunc = _cup(a, b, MatrixForm._supertrace_mul)
    return CechCochain._of(a.scheme, TRIVIAL_LINE, TRIVIAL_LINE, entries, trunc)


def exp_neg(c):
    """Sum of (-1)^m c^m / m! under the cup product, for nilpotent c."""
    _check_cochain(c)
    if c.source.parities() != c.target.parities():
        raise ValueError("exp needs square values")
    scheme = c.scheme
    out = identity_cochain(scheme, c.source, c.u_truncation)
    power = c
    bound = scheme.dimension + scheme.npatches() + 1
    m = 1
    coeff = Fraction(-1)
    while not power.is_zero():
        if m > bound:
            raise ValueError(
                f"input not nilpotent: nonzero {m}-th power on a scheme of "
                f"dimension {scheme.dimension}"
            )
        out = out + power.scale(coeff)
        m += 1
        coeff = coeff * Fraction(-1, m)
        power = acw_product(power, c)
    return out


def supertrace(c):
    """Entrywise supertrace, producing a scalar-valued cochain."""
    _check_cochain(c)
    if c.source.parities() != c.target.parities():
        raise ValueError("supertrace needs square values")
    entries = {tup: mf.supertrace() for tup, mf in c.entries.items()}
    return CechCochain._of(c.scheme, TRIVIAL_LINE, TRIVIAL_LINE, entries, c.u_truncation)
