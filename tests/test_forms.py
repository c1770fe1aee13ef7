import random

from mfchern.forms import de_rham_d, pullback, wedge
from mfchern.rings import Ring, RingMap

from .test_rings import punctured_line, random_frac


def plane():
    return Ring("A2", ("x", "y"))


def combine(*signed_forms):
    """Sum of sign * form over (sign, form) pairs, zero coefficients dropped."""
    out = {}
    for sign, form in signed_forms:
        for idxs, c in form.items():
            out[idxs] = out[idxs] + c * sign if idxs in out else c * sign
    return {idxs: c for idxs, c in out.items() if not c.is_zero()}


def random_form(rng, ring, max_deg=None):
    if max_deg is None:
        max_deg = len(ring.vars)
    nvars = len(ring.vars)
    pieces = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, max_deg)
        idxs = tuple(sorted(rng.sample(range(nvars), k)))
        pieces.append((1, {idxs: random_frac(rng, ring)}))
    return combine(*pieces)


def test_d_of_inverse_coordinate():
    U = punctured_line()
    z = U.var("z")
    assert de_rham_d({(): z ** -1}) == {(0,): -(z ** -2)}


def test_d_squared_zero_random():
    rng = random.Random(41)
    A = plane()
    for _ in range(25):
        w = random_form(rng, A)
        assert de_rham_d(de_rham_d(w)) == {}


def test_leibniz_random():
    rng = random.Random(42)
    A = plane()
    for _ in range(25):
        k = rng.randint(0, 2)
        a = random_form(rng, A, max_deg=0) if k == 0 else combine(
            (1, {tuple(sorted(rng.sample(range(2), k))): random_frac(rng, A)})
        )
        b = random_form(rng, A)
        lhs = de_rham_d(wedge(a, b))
        rhs = combine((1, wedge(de_rham_d(a), b)), ((-1) ** k, wedge(a, de_rham_d(b))))
        assert lhs == rhs


def test_wedge_antisymmetry_and_truncation():
    A = plane()
    dx = {(0,): A.one()}
    dy = {(1,): A.one()}
    assert wedge(dx, dy) == combine((-1, wedge(dy, dx)))
    assert wedge(dx, dx) == {}
    top = wedge(dx, dy)
    assert wedge(top, dx) == {}
    assert set(top) == {(0, 1)}


def test_kernels_drop_zero_coefficients():
    A = plane()
    x = A.var("x")
    assert de_rham_d({(): A.const(3), (0,): A.zero()}) == {}
    # x dy ^ dx + x dx ^ dy cancels in the sum
    assert wedge({(): x}, {(0, 1): A.one()}) == {(0, 1): x}
    assert wedge({(0,): x, (1,): x}, {(0,): A.one(), (1,): A.one()}) == {}


def test_pullback_commutes_with_d():
    rng = random.Random(43)
    U0 = punctured_line("U0")
    U1 = punctured_line("U1")
    phi = RingMap(U0, U1, (U1.var("z") ** -1,))
    for _ in range(20):
        w = random_form(rng, U0)
        assert pullback(phi, de_rham_d(w)) == de_rham_d(pullback(phi, w))


def test_pullback_multiplicative():
    rng = random.Random(44)
    U0 = punctured_line("U0")
    U1 = punctured_line("U1")
    phi = RingMap(U0, U1, (U1.var("z") ** -1,))
    for _ in range(20):
        a = random_form(rng, U0, max_deg=0)
        b = random_form(rng, U0)
        assert pullback(phi, wedge(a, b)) == wedge(pullback(phi, a), pullback(phi, b))


def test_pullback_of_dlog_is_minus_dlog():
    # z -> 1/z sends dz/z to -dz/z
    U0 = punctured_line("U0")
    U1 = punctured_line("U1")
    phi = RingMap(U0, U1, (U1.var("z") ** -1,))
    dlog = {(0,): U0.var("z") ** -1}
    assert pullback(phi, dlog) == {(0,): -(U1.var("z") ** -1)}
