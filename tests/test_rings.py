import random
from fractions import Fraction

import pytest

from mfchern.rings import (
    LocalFrac,
    QLinearSystem,
    Ring,
    RingMap,
    ScalarPoly,
    echelon_reduce,
    monomials_up_to,
    parse_scalar,
    solve_affine_q,
    solve_linear_graded,
)


def plain_ring(name="A", variables=("x", "y")):
    return Ring(name, variables)


def punctured_line(name="U"):
    z = ScalarPoly.variable(("z",), "z")
    return Ring(name, ("z",), (z,))


def random_poly(rng, ring, degree=2, terms=3):
    monos = monomials_up_to(len(ring.vars), degree)
    out = ScalarPoly.zero(ring.vars)
    for _ in range(terms):
        e = rng.choice(monos)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out = out + ScalarPoly(ring.vars, {e: c})
    return out


def random_frac(rng, ring, degree=2, den_bound=1):
    num = random_poly(rng, ring, degree)
    den = tuple(rng.randint(0, den_bound) for _ in ring.denominators)
    return LocalFrac(ring, num, den)


def test_product_expands():
    A = plain_ring()
    x = A.var("x")
    assert (x + 1) * (x - 1) == x * x - 1


def test_fraction_addition_single_denominator():
    U = punctured_line()
    z = U.var("z")
    one_over_z = U.one() * z ** -1
    assert one_over_z + one_over_z == 2 * z ** -1


def test_canonical_cancellation():
    U = punctured_line()
    z = ScalarPoly.variable(("z",), "z")
    val = LocalFrac(U, z * z, (1,))
    assert val.den == (0,)
    assert val == U.var("z")


def test_cancellation_is_exact_division_only():
    U = punctured_line()
    z = ScalarPoly.variable(("z",), "z")
    one = ScalarPoly.const(("z",), 1)
    val = LocalFrac(U, z + one, (1,))
    assert val.den == (1,)


def test_constant_recognition():
    A = plain_ring()
    assert A.const(Fraction(3, 2)).as_constant() == Fraction(3, 2)
    assert A.var("x").as_constant() is None
    assert A.zero().as_constant() == 0


def test_ring_axioms_random():
    rng = random.Random(11)
    U = punctured_line()
    for _ in range(25):
        a = random_frac(rng, U)
        b = random_frac(rng, U)
        c = random_frac(rng, U)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (-a) == U.zero()


def test_inverse_units_only():
    U = punctured_line()
    z = U.var("z")
    inv = (3 * z ** 2).inverse()
    assert inv is not None
    assert inv * (3 * z ** 2) == U.one()
    assert (z + 1).inverse() is None
    with pytest.raises(ValueError):
        (z + 1).unit_inverse()
    with pytest.raises(ValueError, match=r"not a unit in U: z \+ 1"):
        (z + 1) ** -2


def test_inverse_of_a_denominator_free_unit_skips_den_power(monkeypatch):
    """A unit with no denominator (a constant, or 3z^2 in a ring that inverts
    z) is inverted as the constant 1/c over the cancelled generators;
    Ring.den_power is asked only when the value has a denominator."""
    asked = []
    den_power = Ring.den_power
    monkeypatch.setattr(
        Ring, "den_power", lambda self, mults: asked.append(mults) or den_power(self, mults)
    )
    U = punctured_line()
    z = U.var("z")
    A = plain_ring()
    cases = [
        (3 * z ** 2, {(0,): Fraction(1, 3)}, (2,)),
        (z * Fraction(-2, 5), {(0,): Fraction(-5, 2)}, (1,)),
        (U.const(4), {(0,): Fraction(1, 4)}, (0,)),
        (A.const(Fraction(-2, 7)), {(0, 0): Fraction(-7, 2)}, ()),
        (A.const(Fraction(1, 2)), {(0, 0): 2}, ()),
    ]
    for value, num_terms, den in cases:
        inv = value.inverse()
        assert (inv.num.terms, inv.den) == (num_terms, den), value
        assert [type(c) for c in inv.num.terms.values()] == [type(c) for c in num_terms.values()]
        assert inv * value == value.ring.one()
    assert asked == []
    over_z = LocalFrac(U, ScalarPoly.const(("z",), 3), (1,))
    inv = over_z.inverse()
    assert (inv.num.terms, inv.den) == ({(1,): Fraction(1, 3)}, (0,))
    assert asked == [(1,)]


def test_partial_derivative_on_fractions():
    U = punctured_line()
    z = U.var("z")
    assert (z ** -1).partial(0) == -(z ** -2)
    assert (z ** 3).partial(0) == 3 * z ** 2
    # quotient rule through the localized part
    val = (z + 1) * z ** -2
    assert val.partial(0) == z ** -2 - 2 * (z + 1) * z ** -3


def test_ring_map_inverts_coordinate():
    U0 = punctured_line("U0")
    U1 = punctured_line("U1")
    phi = RingMap(U0, U1, (U1.var("z") ** -1,))
    img = phi.apply(U0.var("z") ** 2)
    assert img == U1.var("z") ** -2


def test_ring_map_rejects_non_unit_denominator_image():
    U = punctured_line("U")
    A = Ring("A", ("z",))
    phi = RingMap(U, A, (A.var("z"),))
    with pytest.raises(ValueError):
        phi.apply(U.var("z") ** -1)


def test_ring_map_composition_random():
    rng = random.Random(23)
    U0 = punctured_line("U0")
    U1 = punctured_line("U1")
    phi = RingMap(U0, U1, (U1.var("z") ** -1,))
    psi = RingMap(U1, U0, (U0.var("z") ** -1,))
    comp = psi.compose(phi)
    for _ in range(20):
        a = random_frac(rng, U0, degree=3, den_bound=2)
        assert comp.apply(a) == psi.apply(phi.apply(a))
        assert comp.apply(a) == a  # the two inversions cancel


def test_rings_compared_by_structure_not_name():
    z = ScalarPoly.variable(("z",), "z")
    plain = Ring("U", ("z",))
    punctured = Ring("U", ("z",), (z,))
    # this used to evaluate to z + 1: the denominator was dropped silently
    with pytest.raises(ValueError, match="two different rings are named U"):
        plain.var("z") + punctured.var("z").unit_inverse()
    with pytest.raises(ValueError, match="two different rings are named U"):
        RingMap.identity(plain).apply(punctured.var("z").unit_inverse())
    with pytest.raises(ValueError, match="ambient ring mismatch: U vs V"):
        plain.var("z") * Ring("V", ("z",)).var("z")
    with pytest.raises(TypeError):
        plain.var("z") + "z"
    # a second ring of the same structure is the same ring
    twin = Ring("U", ("z",), (z,))
    assert str(punctured.var("z") + twin.var("z").unit_inverse()) == "(z^2 + 1)/z"
    assert punctured.var("z") == twin.var("z")


def test_equal_values_hash_equal_when_generators_share_a_factor():
    """On generators x - 1 and x^2 - 1, 1/(x - 1) and (x + 1)/(x^2 - 1) are
    two canonical forms of one value: they compare equal, so they hash
    equal and a set holds one of them."""
    x = ScalarPoly.variable(("x",), "x")
    one = ScalarPoly.const(("x",), 1)
    B = Ring("B", ("x",), (x - one, x * x - one))
    a = LocalFrac(B, one, (1, 0))
    b = LocalFrac(B, x + one, (0, 1))
    assert a.den != b.den
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # one-term generators keep one form per value and the full hash
    U = punctured_line()
    z = U.var("z")
    assert len({z, z * z * z ** -1, z + 1}) == 2


def test_den_power_built_once_per_multiplicities():
    x, y = (ScalarPoly.variable(("x", "y"), v) for v in ("x", "y"))
    U = Ring("U", ("x", "y"), (x, y + ScalarPoly.const(("x", "y"), 1)))
    p = U.den_power((2, 1))
    assert U.den_power((2, 1)) is p
    assert p == U.denominators[0] ** 2 * U.denominators[1]
    assert U.den_power((0, 0)) == ScalarPoly.const(("x", "y"), 1)


def test_divide_exact():
    A = plain_ring()
    x = ScalarPoly.variable(A.vars, "x")
    y = ScalarPoly.variable(A.vars, "y")
    p = x * x - y * y
    q = p.divide_exact(x + y)
    assert q == x - y
    assert p.divide_exact(x + ScalarPoly.const(A.vars, 1)) is None


def test_serialization_is_canonical():
    A = plain_ring()
    x = A.var("x")
    y = A.var("y")
    a = x * y + 2 * x - y + 1
    b = 1 + 2 * x + x * y - y
    assert str(a) == str(b)
    assert str(a) == "x*y + 2*x - y + 1"


def test_solve_recovers_polynomial_quotient():
    A = Ring("A", ("x",))
    x = A.var("x")
    sol = solve_linear_graded([([(x, "a")], x ** 2)], degree_bound=3)
    assert sol is not None
    assert sol["a"] == x
    # back substitution leaves no residual
    assert x * sol["a"] - x ** 2 == A.zero()


def test_solve_reports_none_within_bound():
    A = Ring("A", ("x",))
    x = A.var("x")
    sol = solve_linear_graded([([(x, "a")], A.one())], degree_bound=10)
    assert sol is None


def test_solve_multiple_unknowns():
    A = Ring("A", ("x",))
    x = A.var("x")
    eqs = [
        ([(A.one(), "a"), (A.one(), "b")], x),
        ([(A.one(), "a"), (-A.one(), "b")], x + 2),
    ]
    sol = solve_linear_graded(eqs, degree_bound=2)
    assert sol["a"] == x + 1
    assert sol["b"] == -A.one()


def test_solve_with_denominators():
    U = punctured_line()
    z = U.var("z")
    sol = solve_linear_graded([([(z ** 2, "a")], z)], degree_bound=2, den_bound=2)
    assert sol is not None
    assert sol["a"] == z ** -1


def test_qlinear_inconsistent():
    sys = QLinearSystem()
    sys.add_row({0: Fraction(1)}, Fraction(1))
    sys.add_row({0: Fraction(1)}, Fraction(2))
    assert sys.solve(1) is None


def test_qlinear_random_consistent():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        target = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        sys = QLinearSystem()
        rows = []
        for _ in range(n + 1):
            row = {j: Fraction(rng.randint(-3, 3)) for j in range(n)}
            rhs = sum((row.get(j, Fraction(0)) * target[j] for j in range(n)), Fraction(0))
            rows.append(row)
            sys.add_row(row, rhs)
        sol = sys.solve(n)
        assert sol is not None
        for row in rows:
            lhs = sum((row.get(j, Fraction(0)) * sol[j] for j in range(n)), Fraction(0))
            rhs = sum((row.get(j, Fraction(0)) * target[j] for j in range(n)), Fraction(0))
            assert lhs == rhs


def test_echelon_coordinates_rebuild_each_row():
    rng = random.Random(13)
    for _ in range(30):
        pivots = {}
        for _row in range(rng.randint(1, 6)):
            row = {rng.randrange(5): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in range(rng.randint(0, 4))}
            row = {c: q for c, q in row.items() if q}
            coords, rest = echelon_reduce(pivots, row)
            assert rest == 0
            rebuilt = {}
            for p, q in coords.items():
                for c, v in pivots[p][0].items():
                    rebuilt[c] = rebuilt.get(c, Fraction(0)) + q * v
            assert {c: v for c, v in rebuilt.items() if v} == row
        assert all(row[p] == 1 for p, (row, _rhs) in pivots.items())


def test_echelon_divisions_are_exact():
    pivots = {}
    coords, rest = echelon_reduce(pivots, {0: 2, 1: 3}, 5)
    assert coords == {0: 2} and rest == 0
    row, rhs = pivots[0]
    assert row == {0: 1, 1: Fraction(3, 2)} and rhs == Fraction(5, 2)
    assert all(type(v) is Fraction for v in (*row.values(), rhs))
    for bad_row, bad_rhs in (({0: 1, 1: 1.5}, 0), ({2: 1}, 0.5), ({0: 2, 1: 3}, 0.5)):
        with pytest.raises(TypeError):
            echelon_reduce(pivots, bad_row, bad_rhs)


def test_affine_solver_shape():
    # x + y = 1 has a line of solutions
    out = solve_affine_q([[1, 1]], [1])
    assert out is not None
    particular, basis = out
    assert particular[0] + particular[1] == 1
    assert len(basis) == 1
    out = solve_affine_q([[1, 0], [1, 0]], [1, 2])
    assert out is None


def test_parse_scalar_rejects_bad_input_types_and_text():
    A = plain_ring()
    assert parse_scalar(A, "x^2 - 1/1") == A.var("x") ** 2 - 1
    with pytest.raises(TypeError, match="float"):
        parse_scalar(A, 1.5)
    with pytest.raises(ValueError, match=r"cannot parse 'x \+'"):
        parse_scalar(A, "x +")
