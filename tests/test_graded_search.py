"""cohomologous builds and solves only the degree blocks that c1 - c2 touches.

The degree of dx_I u^k is q = |I| - k.  With w = 0 on every chart the total
differential preserves q, so the search's linear system is block diagonal
in q and the blocks that c1 - c2 misses can be left out without changing
the primitive or the verdict.  The reference here is the search as it was
before, which builds every column; both must return the same primitive,
canonical string for canonical string, or both None.  With w != 0, -dw
raises |I| alone and nothing is left out."""

import random
import sys
from fractions import Fraction

import pytest

from mfchern import rings
from mfchern.cech import CechCochain, MatrixForm, _check_count
from mfchern.cohomology import (
    TotalCochain,
    _check_scalar,
    _cofaces,
    _column_image,
    _minus_dw_cochain,
    _total_differential,
    cohomologous,
    total_differential,
)
from mfchern.geometry import build_scheme
from mfchern.rings import (
    LocalFrac,
    QLinearSystem,
    ScalarPoly,
    _add_monomial_rows,
    _subsets,
    monomials_up_to,
)

from .test_cohomology import affine_line_flat
from .test_connection import BENCHMARKS
from .test_geometry import proj_line, three_patch_line
from .test_rings import random_frac
from .test_trace_oracle import P2

PLANE_XY = {
    "grading": "Z2",
    "dimension": 2,
    "patches": [{"name": "A2", "variables": ["x", "y"], "denominators": []}],
    "gluings": [],
    "potentials": ["x*y"],
}
FLAT_CONFIGS = {
    "A1": affine_line_flat(),
    "P1": proj_line(),
    "P2": P2,
    "three_patch_line": three_patch_line(),
}
CONFIGS = {**FLAT_CONFIGS, "A2_xy": PLANE_XY}


# -- the unpruned search, verbatim ---------------------------------------------


def unpruned_cohomologous(c1, c2, degree_bound, den_bound=1):
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


# -- helpers -------------------------------------------------------------------


def text(primitive):
    return None if primitive is None else primitive.canonical_string()


def degrees(c):
    """The set of q = |I| - k over the terms of c."""
    return {len(idxs) - k for mf in c.entries.values() for (_r, _c, idxs, k) in mf.terms}


def random_graded(rng, scheme, trunc, parity, q=None, nterms=3):
    """A random scalar cochain of total parity parity, and of degree q when
    q is given: numerators of degree <= 2, multiplicities <= 1."""
    entries = {}
    for size in range(1, scheme.npatches() + 1):
        for tup in scheme.tuples(size):
            if rng.random() < 0.3:
                continue
            ring = scheme.intersection(tup).ring
            shapes = [
                (idxs, k)
                for idxs in _subsets(len(ring.vars))
                for k in range(trunc + 1)
                if (size - 1 + len(idxs)) % 2 == parity and q in (None, len(idxs) - k)
            ]
            terms = {}
            for _ in range(rng.randint(1, nterms) if shapes else 0):
                idxs, k = rng.choice(shapes)
                key = (0, 0, idxs, k)
                value = random_frac(rng, ring, degree=2, den_bound=1)
                terms[key] = terms[key] + value if key in terms else value
            terms = {k: v for k, v in terms.items() if not v.is_zero()}
            if terms:
                entries[tup] = MatrixForm(ring, (0,), (0,), terms)
    return TotalCochain.scalar(scheme, entries, trunc)


def projective_calls(seed):
    """The (c1, c2, degree bound, denominator bound, result) of every
    cohomologous call in the projective_chern pool at seed."""
    if BENCHMARKS not in sys.path:
        sys.path.insert(0, BENCHMARKS)
    import run

    api = run.import_api()
    workload = run.WORKLOADS["projective_chern"]
    calls = []
    real = api.cohomology.cohomologous

    def spy(c1, c2, degree_bound, den_bound=1):
        out = real(c1, c2, degree_bound, den_bound)
        calls.append((c1, c2, degree_bound, den_bound, out))
        return out

    api.cohomology.cohomologous = spy
    try:
        for spec in workload.make_inputs(seed):
            workload.run(api, spec)
    finally:
        api.cohomology.cohomologous = real
    return calls


def solved_ncols(monkeypatch, search, *args):
    """The ncols of every QLinearSystem.solve that search(*args) makes."""
    seen = []
    real = QLinearSystem.solve

    def spy(self, ncols):
        seen.append(ncols)
        return real(self, ncols)

    with monkeypatch.context() as patch:
        patch.setattr(rings.QLinearSystem, "solve", spy)
        search(*args)
    return seen


# -- tests -------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_projective_pool_calls_match_the_unpruned_search(seed):
    """Every P^1 call of the projective_chern pool: two found primitives and
    one undecided dz/z per job, the same on both searches."""
    calls = projective_calls(seed)
    assert len(calls) == 18
    for k, (c1, c2, degree_bound, den_bound, got) in enumerate(calls):
        expected = unpruned_cohomologous(c1, c2, degree_bound, den_bound)
        assert text(got) == text(expected), (seed, k)
        assert (got is None) == (k % 3 == 2), (seed, k)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_random_pairs_match_the_unpruned_search(name):
    """c against c + D(p) for random p (found), D(p1) against D(p2) (found)
    and random unrelated pairs (mostly undecided), both parities; in two
    trials of three p and c have one degree q, so that most blocks are left
    out where w = 0."""
    rng = random.Random(f"graded-{name}")
    sch = build_scheme(CONFIGS[name])
    trunc = 2
    verdicts = set()
    for trial in range(6):
        parity = trial % 2
        q = rng.randint(-trunc, sch.dimension) if trial % 3 else None
        p = random_graded(rng, sch, trunc, 1 - parity, q)
        c = random_graded(rng, sch, trunc, parity, q)
        pairs = [
            (c, TotalCochain(c + total_differential(p))),
            (
                TotalCochain(total_differential(p)),
                TotalCochain(total_differential(random_graded(rng, sch, trunc, 1 - parity, q))),
            ),
            (c, random_graded(rng, sch, trunc, parity, q)),
        ]
        for c1, c2 in pairs:
            if (c1 - c2).homogeneous_total_parity() is None:
                continue
            got = cohomologous(c1, c2, degree_bound=2)
            assert text(got) == text(unpruned_cohomologous(c1, c2, degree_bound=2)), trial
            verdicts.add(got is not None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(FLAT_CONFIGS))
def test_total_differential_preserves_q_when_w_is_zero(name):
    rng = random.Random(f"q-{name}")
    sch = build_scheme(FLAT_CONFIGS[name])
    trunc = 3
    checked = 0
    for trial in range(20):
        q = rng.randint(-trunc, sch.dimension)
        c = random_graded(rng, sch, trunc, trial % 2, q=q)
        out = total_differential(c)
        if c.is_zero() or out.is_zero():
            continue
        assert degrees(c) == degrees(out) == {q}, trial
        checked += 1
    assert checked >= 4


def test_minus_dw_raises_q_on_the_plane_with_w_xy(monkeypatch):
    """On A^2 with w = xy the constant 1 has q = 0 and D(1) = -dw = -y dx -
    x dy has q = 1, so the system is not block diagonal in q and
    cohomologous keeps every column there."""
    sch = build_scheme(PLANE_XY)
    ring = sch.patch_ring(0)
    one = TotalCochain.scalar(
        sch, {(0,): MatrixForm(ring, (0,), (0,), {(0, 0, (), 0): ring.one()})}, 2
    )
    out = TotalCochain(total_differential(one))
    assert degrees(one) == {0} and degrees(out) == {1}
    assert out == _minus_dw_cochain(sch, 2)
    zero = TotalCochain.zero(sch, 2)
    pruned = solved_ncols(monkeypatch, cohomologous, out, zero, 2)
    full = solved_ncols(monkeypatch, unpruned_cohomologous, out, zero, 2)
    assert pruned == full and pruned[0] > 0


def test_seed_one_projective_solves_only_the_touched_columns(monkeypatch):
    """Each P^1 object call solves 6 columns instead of 50, and the dz/z
    call 8 instead of 42; the unpruned search reads the old counts."""
    calls = projective_calls(1)
    assert len(calls) == 18
    for k, (c1, c2, degree_bound, den_bound, _out) in enumerate(calls):
        args = (c1, c2, degree_bound, den_bound)
        pruned = solved_ncols(monkeypatch, cohomologous, *args)
        full = solved_ncols(monkeypatch, unpruned_cohomologous, *args)
        assert (pruned, full) == (([8], [42]) if k % 3 == 2 else ([6], [50])), k
