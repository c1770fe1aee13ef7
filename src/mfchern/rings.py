"""Exact scalar arithmetic over Q.

Multivariate polynomials, localizations at declared denominator generators,
ring maps, and exact linear solving in graded pieces.  All values are
immutable after construction and all comparisons are exact.

Every linear system over Q, sparse or dense, is reduced by one eliminator,
``echelon_reduce``, and solved by one back-substitution; ``QLinearSystem``,
``solve_affine_q`` (fixed loci and their left inverses) and the Hochschild
zero test all go through it.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "Fraction",
    "ScalarPoly",
    "Ring",
    "LocalFrac",
    "RingMap",
    "QLinearSystem",
    "echelon_reduce",
    "solve_linear_graded",
    "solve_affine_q",
    "monomials_up_to",
    "parse_scalar",
]


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    assert isinstance(c, int), f"not an exact scalar: {c!r}"
    return Fraction(c)


def _grlex_key(exps):
    return (sum(exps), exps)


def monomials_up_to(nvars, bound):
    """All exponent tuples of length nvars with total degree <= bound, grlex order."""
    out = []
    for total in range(bound + 1):
        out.extend(_compositions(total, nvars))
    return out


def _compositions(total, nparts):
    if nparts == 0:
        return [()] if total == 0 else []
    out = []
    for head in range(total + 1):
        for tail in _compositions(total - head, nparts - 1):
            out.append((head,) + tail)
    return out


def _subsets(n):
    """All subsets of range(n) as increasing tuples, by size and then lexically."""
    out = [()]
    for j in range(n):
        out = out + [s + (j,) for s in out]
    return sorted(out, key=lambda s: (len(s), s))


class ScalarPoly:
    """Polynomial over Q in an ordered variable list, stored sparsely.

    terms maps exponent tuples to nonzero Fractions; the zero polynomial has
    an empty term dict.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        clean = {}
        for exps, c in terms.items():
            c = _as_fraction(c)
            if c == 0:
                continue
            exps = tuple(exps)
            assert len(exps) == len(self.vars), "exponent arity mismatch"
            clean[exps] = clean.get(exps, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c):
        c = _as_fraction(c)
        if c == 0:
            return cls.zero(variables)
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

    def is_zero(self):
        return not self.terms

    def as_constant(self):
        """The constant value if this polynomial is constant, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (exps, c), = self.terms.items()
            if all(e == 0 for e in exps):
                return c
        return None

    def __add__(self, other):
        assert isinstance(other, ScalarPoly) and other.vars == self.vars
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return ScalarPoly(self.vars, terms)

    def __neg__(self):
        return ScalarPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return ScalarPoly(self.vars, {e: c * v for e, v in self.terms.items()})
        assert isinstance(other, ScalarPoly) and other.vars == self.vars
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return ScalarPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        assert isinstance(n, int) and n >= 0
        out = ScalarPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, ScalarPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def leading(self):
        """(exponent tuple, coefficient) of the grlex-leading term."""
        assert self.terms, "zero polynomial has no leading term"
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def divide_exact(self, divisor):
        """Exact quotient self / divisor, or None when division is not exact.

        A one-term divisor c*x^e divides exactly when every exponent of self
        is at least e componentwise; the quotient shifts the exponents and
        divides the coefficients by c.  Any other divisor goes through grlex
        long division.
        """
        if not isinstance(divisor, ScalarPoly):
            raise TypeError(f"cannot divide by a {type(divisor).__name__}")
        if divisor.vars != self.vars:
            raise ValueError(f"divisor variables {divisor.vars} differ from {self.vars}")
        if divisor.is_zero():
            raise ValueError("division by zero polynomial")
        if self.is_zero():
            return ScalarPoly.zero(self.vars)
        if len(divisor.terms) == 1:
            (de, dc), = divisor.terms.items()
            qterms = {}
            for e, c in self.terms.items():
                qe = tuple(a - b for a, b in zip(e, de))
                if any(x < 0 for x in qe):
                    return None
                qterms[qe] = c / dc
            return ScalarPoly(self.vars, qterms)
        lead_e, lead_c = divisor.leading()
        remainder = self
        qterms = {}
        while not remainder.is_zero():
            re, rc = remainder.leading()
            qe = tuple(a - b for a, b in zip(re, lead_e))
            if any(x < 0 for x in qe):
                return None
            qc = rc / lead_c
            qterms[qe] = qterms.get(qe, Fraction(0)) + qc
            remainder = remainder - divisor * ScalarPoly(self.vars, {qe: qc})
        return ScalarPoly(self.vars, qterms)

    def partial(self, var_index):
        terms = {}
        for e, c in self.terms.items():
            if e[var_index] == 0:
                continue
            ne = tuple(x - 1 if j == var_index else x for j, x in enumerate(e))
            terms[ne] = terms.get(ne, Fraction(0)) + c * e[var_index]
        return ScalarPoly(self.vars, terms)

    def substitute(self, images, target_ring):
        """Evaluate with each variable replaced by a LocalFrac of target_ring."""
        assert len(images) == len(self.vars)
        out = target_ring.zero()
        for e, c in sorted(self.terms.items(), key=lambda item: _grlex_key(item[0])):
            term = target_ring.const(c)
            for img, exp in zip(images, e):
                if exp:
                    term = term * (img ** exp)
            out = out + term
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            factors = [
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.vars, e)
                if k > 0
            ]
            if not factors:
                pieces.append(str(c))
            elif c == 1:
                pieces.append("*".join(factors))
            elif c == -1:
                pieces.append("-" + "*".join(factors))
            else:
                pieces.append(str(c) + "*" + "*".join(factors))
        out = " + ".join(pieces)
        return out.replace("+ -", "- ")

    __repr__ = __str__


class Ring:
    """A patch or intersection ring: Q[vars] localized at denominator generators."""

    __slots__ = ("name", "vars", "denominators")

    def __init__(self, name, variables, denominators=()):
        self.name = name
        self.vars = tuple(variables)
        dens = tuple(denominators)
        for g in dens:
            if not isinstance(g, ScalarPoly):
                raise TypeError(f"denominator generator of ring {name} is a {type(g).__name__}")
            if g.vars != self.vars:
                raise ValueError(
                    f"denominator generator {g} of ring {name} is in variables {g.vars}, "
                    f"not {self.vars}"
                )
            if g.is_zero():
                raise ValueError(f"zero denominator generator in ring {name}")
        self.denominators = dens

    def zero(self):
        return LocalFrac(self, ScalarPoly.zero(self.vars))

    def one(self):
        return self.const(1)

    def const(self, c):
        return LocalFrac(self, ScalarPoly.const(self.vars, c))

    def var(self, name):
        return LocalFrac(self, ScalarPoly.variable(self.vars, name))

    def den_power(self, mults):
        out = ScalarPoly.const(self.vars, 1)
        for g, m in zip(self.denominators, mults):
            if m:
                out = out * (g ** m)
        return out

    def __repr__(self):
        return f"Ring({self.name})"


def _check_same_ring(a, b):
    """Rings are the same when they are one object or agree in name, variables
    and denominator generators; anything else raises."""
    if a is b:
        return
    if a.name != b.name:
        raise ValueError(f"ambient ring mismatch: {a.name} vs {b.name}")
    if a.vars != b.vars or a.denominators != b.denominators:
        raise ValueError(f"ambient ring mismatch: two different rings are named {a.name}")


class LocalFrac:
    """numerator / product of declared denominator generators, canonicalized.

    The denominator is a multiplicity tuple over the ring's generator list;
    canonical form cancels generators only by exact polynomial division.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, num, den=None):
        assert isinstance(ring, Ring)
        assert isinstance(num, ScalarPoly) and num.vars == ring.vars
        if den is None:
            den = (0,) * len(ring.denominators)
        den = tuple(den)
        assert len(den) == len(ring.denominators)
        assert all(m >= 0 for m in den)
        self.ring = ring
        if num.is_zero():
            self.num = num
            self.den = (0,) * len(den)
            return
        # cancellation by exact division only
        mults = list(den)
        changed = True
        while changed:
            changed = False
            for j, g in enumerate(ring.denominators):
                while mults[j] > 0:
                    q = num.divide_exact(g)
                    if q is None:
                        break
                    num = q
                    mults[j] -= 1
                    changed = True
        self.num = num
        self.den = tuple(mults)

    def is_zero(self):
        return self.num.is_zero()

    def as_constant(self):
        if any(self.den):
            return None
        return self.num.as_constant()

    def _same_ring(self, other):
        if not isinstance(other, LocalFrac):
            raise TypeError(f"not a LocalFrac: {other!r}")
        if other.ring is not self.ring:
            _check_same_ring(self.ring, other.ring)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._same_ring(other)
        common = tuple(max(a, b) for a, b in zip(self.den, other.den))
        n1 = self.num * self.ring.den_power(
            tuple(c - a for c, a in zip(common, self.den))
        )
        n2 = other.num * self.ring.den_power(
            tuple(c - b for c, b in zip(common, other.den))
        )
        return LocalFrac(self.ring, n1 + n2, common)

    __radd__ = __add__

    def __neg__(self):
        return LocalFrac(self.ring, -self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LocalFrac(self.ring, self.num * other, self.den)
        self._same_ring(other)
        return LocalFrac(
            self.ring,
            self.num * other.num,
            tuple(a + b for a, b in zip(self.den, other.den)),
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        assert isinstance(n, int)
        if n < 0:
            inv = self.inverse()
            assert inv is not None, f"not a unit: {self}"
            return inv ** (-n)
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, LocalFrac):
            return NotImplemented
        self._same_ring(other)
        lhs = self.num * self.ring.den_power(other.den)
        rhs = other.num * self.ring.den_power(self.den)
        return lhs == rhs

    def __hash__(self):
        return hash((self.ring.name, self.num, self.den))

    def inverse(self):
        """Exact inverse when the value is a unit (constant times declared
        denominator generators); None otherwise."""
        if self.is_zero():
            return None
        num = self.num
        powers = [0] * len(self.ring.denominators)
        changed = True
        while changed:
            changed = False
            for j, g in enumerate(self.ring.denominators):
                q = num.divide_exact(g)
                while q is not None:
                    num = q
                    powers[j] += 1
                    changed = True
                    q = num.divide_exact(g)
        c = num.as_constant()
        if c is None or c == 0:
            return None
        inv_num = self.ring.den_power(self.den) * (1 / c)
        return LocalFrac(self.ring, inv_num, tuple(powers))

    def unit_inverse(self):
        inv = self.inverse()
        if inv is None:
            raise ValueError(f"not a unit in {self.ring.name}: {self}")
        return inv

    def partial(self, var_index):
        """Partial derivative, with d(1/g) = -dg/g^2 on denominator generators."""
        out = LocalFrac(self.ring, self.num.partial(var_index), self.den)
        for j, g in enumerate(self.ring.denominators):
            m = self.den[j]
            if m == 0:
                continue
            bump = tuple(
                x + 1 if k == j else x for k, x in enumerate(self.den)
            )
            out = out + LocalFrac(self.ring, self.num * g.partial(var_index) * (-m), bump)
        return out

    def __str__(self):
        num = str(self.num)
        if not any(self.den):
            return num
        parts = []
        for g, m in zip(self.ring.denominators, self.den):
            if m == 0:
                continue
            gs = str(g)
            if len(self.num.terms) > 0 and (" " in gs or "*" in gs):
                gs = f"({gs})"
            parts.append(gs if m == 1 else f"{gs}^{m}")
        den = "*".join(parts)
        if " " in num or "*" in num or "/" in num:
            num = f"({num})"
        return f"{num}/{den}"

    __repr__ = __str__


class RingMap:
    """Variable-wise substitution from one ring into another.

    Well-definedness on the multiplicative set is enforced lazily: the image
    of each source denominator generator must be a unit of the target.

    A map caches, for as long as the map itself lives: whether it is a
    coordinate inclusion (same variables, image k is variable k with no
    denominator), decided at construction; the inverse of each source
    denominator's image, on first use; and, filled by ``forms.pullback``, the
    pulled-back dx-monomial of each index tuple.  A coordinate inclusion
    moves a numerator by copying its terms instead of substituting.
    """

    __slots__ = ("source", "target", "images", "_den_inverses", "_inclusion", "_dx_pullbacks")

    def __init__(self, source, target, images):
        if not isinstance(source, Ring) or not isinstance(target, Ring):
            raise TypeError(
                f"ring map needs two Rings, got a {type(source).__name__} "
                f"and a {type(target).__name__}"
            )
        images = tuple(images)
        if len(images) != len(source.vars):
            raise ValueError(
                f"ring map from {source.name} needs {len(source.vars)} images, got {len(images)}"
            )
        for img in images:
            if not isinstance(img, LocalFrac):
                raise TypeError(f"ring map image is not a LocalFrac: {img!r}")
            _check_same_ring(img.ring, target)
        self.source = source
        self.target = target
        self.images = images
        self._den_inverses = None
        self._inclusion = source.vars == target.vars and all(
            not any(img.den) and img.num == ScalarPoly.variable(target.vars, v)
            for img, v in zip(images, target.vars)
        )
        self._dx_pullbacks = {}

    @classmethod
    def identity(cls, ring):
        return cls(ring, ring, tuple(ring.var(v) for v in ring.vars))

    def _denominator_inverse(self, j):
        """Inverse of the image of source denominator j, computed on first use."""
        if self._den_inverses is None:
            self._den_inverses = [None] * len(self.source.denominators)
        if self._den_inverses[j] is None:
            g = self.source.denominators[j]
            inv = g.substitute(self.images, self.target).inverse()
            if inv is None:
                raise ValueError(
                    f"denominator {g} of {self.source.name} does not map to "
                    f"a unit of {self.target.name}"
                )
            self._den_inverses[j] = inv
        return self._den_inverses[j]

    def apply(self, a):
        if not isinstance(a, LocalFrac):
            raise TypeError(f"not a LocalFrac: {a!r}")
        if a.ring is not self.source:
            _check_same_ring(self.source, a.ring)
        if self._inclusion:
            out = LocalFrac(self.target, ScalarPoly(self.target.vars, a.num.terms))
        else:
            out = a.num.substitute(self.images, self.target)
        for j, m in enumerate(a.den):
            if m:
                out = out * self._denominator_inverse(j) ** m
        return out

    def __call__(self, a):
        return self.apply(a)

    def compose(self, inner):
        """self after inner."""
        _check_same_ring(self.source, inner.target)
        return RingMap(inner.source, self.target, tuple(self.apply(im) for im in inner.images))


def echelon_reduce(pivots, coeffs, rhs=Fraction(0)):
    """Reduce one sparse row over Q against echelon rows; keep what is left.

    ``pivots`` maps a column to ``(row, rhs)``, where ``row`` is a dict
    column -> Fraction with 1 at that column.  The smallest reducible column
    is eliminated first.  A nonzero remainder joins ``pivots``, scaled to 1
    at its smallest column.  Returns ``(coords, rest)``: ``coords`` maps
    pivot columns to nonzero Fractions such that ``coeffs`` is the sum of
    ``coords[c]`` times the row of ``c`` (the new row included), and
    ``rest`` is the right-hand side left over when the row reduced to zero,
    which is nonzero exactly when the row is inconsistent with the pivots.
    """
    coeffs = dict(coeffs)
    coords = {}
    while True:
        reducible = [c for c in coeffs if c in pivots]
        if not reducible:
            break
        col = min(reducible)
        prow, prhs = pivots[col]
        factor = coeffs.pop(col)
        coords[col] = coords.get(col, Fraction(0)) + factor
        for c, v in prow.items():
            if c == col:
                continue
            coeffs[c] = coeffs.get(c, Fraction(0)) - factor * v
            if coeffs[c] == 0:
                del coeffs[c]
        rhs = rhs - factor * prhs
    rest = Fraction(0)
    if coeffs:
        pivot_col = min(coeffs)
        lead = coeffs[pivot_col]
        pivots[pivot_col] = ({c: v / lead for c, v in coeffs.items()}, rhs / lead)
        coords[pivot_col] = lead
    else:
        rest = rhs
    return {c: q for c, q in coords.items() if q}, rest


class QLinearSystem:
    """Sparse exact linear system over Q with deterministic elimination."""

    def __init__(self):
        self.rows = []

    def add_row(self, coeffs, rhs):
        """coeffs: dict column-index -> Fraction."""
        coeffs = {c: _as_fraction(v) for c, v in coeffs.items() if v != 0}
        self.rows.append((coeffs, _as_fraction(rhs)))

    def solve(self, ncols):
        """One exact solution as a list of Fractions (free columns set to 0),
        or None when the system is inconsistent."""
        pivots = _reduce_rows(self.rows)
        if pivots is None:
            return None
        return _back_substitute(pivots, [Fraction(0)] * ncols)


def _reduce_rows(rows):
    """Echelon pivots (see echelon_reduce) of (coeffs, rhs) rows, or None when
    the rows are inconsistent."""
    pivots = {}
    for coeffs, rhs in rows:
        _coords, rest = echelon_reduce(pivots, coeffs, rhs)
        if rest != 0:
            return None
    return pivots


def _back_substitute(pivots, solution, homogeneous=False):
    """Fill the pivot columns of solution, whose free columns are set, so that
    every pivot row holds (with right-hand sides 0 when homogeneous).  A pivot
    row has entries only at columns from its pivot on, so pivots are solved
    from the last column back."""
    for col in sorted(pivots, reverse=True):
        row, rhs = pivots[col]
        val = Fraction(0) if homogeneous else rhs
        for c, v in row.items():
            if c != col:
                val -= v * solution[c]
        solution[col] = val
    return solution


def solve_affine_q(matrix, rhs):
    """Solve A x = rhs exactly over Q.

    Returns (particular solution, kernel basis) with entries as Fractions,
    or None when inconsistent.  The particular solution has every free
    column at 0, and the kernel vector of a free column is 1 there and 0 at
    the other free columns, so both are unique.  Used for fixed-locus
    computations.
    """
    ncols = len(matrix[0]) if matrix else 0
    pivots = _reduce_rows(
        ({c: _as_fraction(v) for c, v in enumerate(row) if v}, _as_fraction(r))
        for row, r in zip(matrix, rhs)
    )
    if pivots is None:
        return None
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            basis.append(_back_substitute(pivots, vec, homogeneous=True))
    return _back_substitute(pivots, [Fraction(0)] * ncols), basis


def parse_scalar(ring, text):
    """Parse an arithmetic expression string into a LocalFrac of ring.

    Supports + - * / ** (also ^), integer constants, and the ring variables.
    Division requires the divisor to be a unit of the localization.
    """
    import ast

    if isinstance(text, LocalFrac):
        _check_same_ring(ring, text.ring)
        return text
    if isinstance(text, (int, Fraction)):
        return ring.const(text)
    node = ast.parse(text.replace("^", "**"), mode="eval").body

    def ev(n):
        if isinstance(n, ast.Constant):
            assert isinstance(n.value, int), f"non-integer constant: {n.value!r}"
            return ring.const(n.value)
        if isinstance(n, ast.Name):
            if n.id not in ring.vars:
                raise ValueError(f"unknown variable {n.id!r} in ring {ring.name}")
            return ring.var(n.id)
        if isinstance(n, ast.UnaryOp):
            if isinstance(n.op, ast.USub):
                return -ev(n.operand)
            if isinstance(n.op, ast.UAdd):
                return ev(n.operand)
        if isinstance(n, ast.BinOp):
            if isinstance(n.op, ast.Pow):
                assert isinstance(n.right, ast.Constant) or (
                    isinstance(n.right, ast.UnaryOp)
                    and isinstance(n.right.op, ast.USub)
                ), "exponent must be an integer literal"
                exp = (
                    n.right.value
                    if isinstance(n.right, ast.Constant)
                    else -n.right.operand.value
                )
                return ev(n.left) ** exp
            a, b = ev(n.left), ev(n.right)
            if isinstance(n.op, ast.Add):
                return a + b
            if isinstance(n.op, ast.Sub):
                return a - b
            if isinstance(n.op, ast.Mult):
                return a * b
            if isinstance(n.op, ast.Div):
                return a * b.unit_inverse()
        raise ValueError(f"unsupported expression node: {ast.dump(n)}")

    return ev(node)


def _add_monomial_rows(system, parts, rhs):
    """Add sum(x_col * value for col, value in parts) = rhs, an equation over
    the ring of rhs, to system: clear the common denominator and add one row
    per monomial."""
    ring = rhs.ring
    common = tuple(map(max, zip(rhs.den, *(value.den for _col, value in parts))))
    rows = {}
    for col, value in parts + [(None, rhs)]:
        if value.ring is not ring:
            _check_same_ring(ring, value.ring)
        lift = value.num * ring.den_power(tuple(c - d for c, d in zip(common, value.den)))
        for exps, q in lift.terms.items():
            row = rows.setdefault(exps, {})
            row[col] = row.get(col, Fraction(0)) + q
    for exps in sorted(rows):
        row = rows[exps]
        rhs_q = row.pop(None, Fraction(0))
        system.add_row(row, rhs_q)


def solve_linear_graded(equations, degree_bound, den_bound=0):
    """Solve linear equations over LocalFrac unknowns by monomial expansion.

    equations: list of (terms, rhs) where terms is a list of
    (LocalFrac coefficient, unknown name) and rhs a LocalFrac, all in one
    ring per equation; every unknown is sought in the ring of its first
    occurrence, as a fraction with numerator degree <= degree_bound and total
    denominator multiplicity <= den_bound.

    Returns {unknown: LocalFrac} or None ("none within bound": not a proof
    of non-existence beyond the bound).
    """
    unknown_ring = {}
    for terms, _rhs in equations:
        for coeff, name in terms:
            unknown_ring.setdefault(name, coeff.ring)
    names = sorted(unknown_ring)
    basis = {}
    columns = []
    for name in names:
        ring = unknown_ring[name]
        elems = []
        for den in monomials_up_to(len(ring.denominators), den_bound):
            for mono in monomials_up_to(len(ring.vars), degree_bound):
                elems.append(
                    LocalFrac(ring, ScalarPoly(ring.vars, {mono: Fraction(1)}), den)
                )
        basis[name] = elems
        for k in range(len(elems)):
            columns.append((name, k))
    col_index = {key: i for i, key in enumerate(columns)}

    system = QLinearSystem()
    for terms, rhs in equations:
        parts = [
            (col_index[(name, k)], coeff * e)
            for coeff, name in terms
            for k, e in enumerate(basis[name])
        ]
        _add_monomial_rows(system, parts, rhs)

    solution = system.solve(len(columns))
    if solution is None:
        return None
    out = {}
    for name in names:
        ring = unknown_ring[name]
        val = ring.zero()
        for k, e in enumerate(basis[name]):
            c = solution[col_index[(name, k)]]
            if c != 0:
                val = val + e * c
        out[name] = val
    return out
