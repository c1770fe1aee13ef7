"""Differential tests of the exact Q solvers built on echelon_reduce against
the dense Gauss-Jordan elimination they replaced, kept here as an oracle,
and of the free-column property that fixed loci read coordinates by."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mfchern.rings import solve_affine_q


def dense_solve_affine_q(matrix, rhs):
    """Reference oracle: reduce [A | rhs] to reduced row echelon form."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if aug[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        lead = aug[r][c]
        aug[r] = [v / lead for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    particular = [Fraction(0)] * ncols
    for i, c in enumerate(pivot_cols):
        particular[c] = aug[i][ncols]
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = -aug[i][fc]
        basis.append(vec)
    return particular, basis


# -- system generators --------------------------------------------------------


def random_system(rng, kind):
    """(matrix, rhs) of a random shape.  kind is "consistent" (rhs = A x, with
    A of random rank, so often rank-deficient), "full" (full rank, square or
    not), "random" (rhs drawn freely, usually inconsistent when rank < rows)
    or "empty" (no rows, or no columns)."""
    if kind == "empty":
        if rng.random() < 0.5:
            return [], []
        nrows = rng.randint(1, 3)
        return [[] for _ in range(nrows)], [rng.randint(-2, 2) for _ in range(nrows)]
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    if kind == "full":
        rank = min(nrows, ncols)
    else:
        rank = rng.randint(0, min(nrows, ncols))
    while True:
        left = [[Fraction(rng.randint(-3, 3)) for _ in range(rank)] for _ in range(nrows)]
        right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ncols)]
                 for _ in range(rank)]
        matrix = [
            [sum((left[r][k] * right[k][c] for k in range(rank)), Fraction(0)) for c in range(ncols)]
            for r in range(nrows)
        ]
        if kind != "full" or rank_of(matrix) == rank:
            break
    if kind == "random":
        rhs = [Fraction(rng.randint(-3, 3)) for _ in range(nrows)]
    else:
        x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in matrix]
    return matrix, rhs


def rank_of(matrix):
    ncols = len(matrix[0]) if matrix else 0
    return ncols - len(dense_solve_affine_q(matrix, [0] * len(matrix))[1])


def apply(rows, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in rows]


def check_system(matrix, rhs):
    """The new and old (particular, kernel basis) agree, and the solution
    has the free-column property."""
    new = solve_affine_q(matrix, rhs)
    assert new == dense_solve_affine_q(matrix, rhs)
    if new is None:
        return "inconsistent"
    particular, basis = new
    assert apply(matrix, particular) == [Fraction(r) for r in rhs]
    for vec in basis:
        assert not any(apply(matrix, vec))
    check_free_columns(particular, basis)
    return "kernel" if basis else "unique"


def check_free_columns(particular, basis):
    """Kernel vector k has a free column f_k where it is 1, every other kernel
    vector is 0 and the particular solution is 0.  So on the solution set
    x = particular + sum t_k basis[k], the coordinate x[f_k] is exactly t_k:
    fixed_locus sends that ambient coordinate to t_k, and _locus_coordinates
    reads t_k off there."""
    free = []
    for k, vec in enumerate(basis):
        free.append(next(
            f for f in range(len(vec))
            if vec[f] == 1 and particular[f] == 0
            and all(other[f] == 0 for j, other in enumerate(basis) if j != k)
        ))
    t = [Fraction(k + 1, 2) for k in range(len(basis))]
    point = [p + sum((q * vec[r] for q, vec in zip(t, basis)), Fraction(0))
             for r, p in enumerate(particular)]
    assert [point[f] for f in free] == t


def test_solvers_agree_with_dense_elimination():
    rng = random.Random(11)
    seen = set()
    for trial in range(800):
        kind = ("consistent", "full", "random", "empty")[trial % 4]
        seen.add((kind, check_system(*random_system(rng, kind))))
    assert {("random", "inconsistent"), ("consistent", "kernel"), ("full", "unique"),
            ("full", "kernel"), ("empty", "unique")} <= seen


@settings(max_examples=200, deadline=None, database=None)
@given(
    rng=st.randoms(use_true_random=False),
    kind=st.sampled_from(["consistent", "full", "random", "empty"]),
)
def test_solvers_agree_property(rng, kind):
    check_system(*random_system(rng, kind))
