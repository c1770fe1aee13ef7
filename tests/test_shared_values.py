"""Koszul factorizations are built from their distinct entries, and the
matrix-of-forms kernel works once per distinct coefficient object.

``koszul_mf`` makes a_j, -a_j, b_j and -b_j once per patch and shares them
among the entries of delta; each delta must equal, in its canonical form,
the one built entry by entry as value * sign.  ``MatrixFactorization``
keeps a delta that is already a MatrixForm over the patch ring object with
the bundle's parities, and re-tags any other.  ``MatrixForm.d_form``
differentiates each distinct (coefficient object, dx tuple) once, and
``truncate_u`` returns its own value when it drops nothing."""

import random

import pytest

from mfchern.cech import MatrixForm
from mfchern.forms import _d_term
from mfchern.geometry import build_scheme
from mfchern.mf import MatrixFactorization, _square_form, koszul_mf, shift
from mfchern.rings import LocalFrac, Ring, _subsets, parse_scalar

from .test_cech import random_matrix_form
from .test_geometry import three_patch_line
from .test_mf import assert_same_terms
from .test_rings import punctured_line, random_frac, random_poly


def signed_koszul_deltas(scheme, a, b):
    """koszul_mf's deltas as they were built before entries were shared:
    every entry parsed again and multiplied by its sign."""
    m = len(a)
    basis = _subsets(m)
    index = {s: k for k, s in enumerate(basis)}
    parities = tuple(len(s) % 2 for s in basis)
    out = []
    for i in range(scheme.npatches()):
        ring = scheme.patch_ring(i)
        terms = {}
        for s in basis:
            for j in range(m):
                sign = (-1) ** sum(1 for x in s if x < j)
                if j not in s:
                    row, value = index[tuple(sorted(s + (j,)))], a[j][i]
                else:
                    row, value = index[tuple(x for x in s if x != j)], b[j][i]
                terms[(row, index[s], (), 0)] = parse_scalar(ring, value) * sign
        out.append(MatrixForm(ring, parities, parities, terms))
    return out


def plane(potential):
    return build_scheme({
        "grading": "Z2",
        "dimension": 2,
        "patches": [{"name": "A2", "variables": ["x", "y"], "denominators": []}],
        "gluings": [],
        "potentials": [potential],
    })


def koszul_cases():
    """(scheme, a, b): m = 1..4 random generators on A^2, the same on the
    three-patch cover of A^1, and the pair x, y against x^2, y^2."""
    rng = random.Random(3200)
    cases = []
    ring = Ring("T", ("x", "y"))
    line = Ring("T", ("x",))
    for m in (1, 2, 3, 4):
        for target, config in ((ring, None), (line, three_patch_line())):
            a = [LocalFrac(target, random_poly(rng, target)) for _ in range(m)]
            b = [LocalFrac(target, random_poly(rng, target)) for _ in range(m)]
            w = str(sum((aj * bj for aj, bj in zip(a, b)), target.zero()))
            if config is None:
                sch = plane(w)
            else:
                sch = build_scheme(dict(config, grading="Z2", potentials=[w] * 3))
            n = sch.npatches()
            cases.append((sch, [[str(v)] * n for v in a], [[str(v)] * n for v in b]))
    cases.append((plane("x^3 + y^3"), [["x"], ["y"]], [["x^2"], ["y^2"]]))
    return cases


def test_koszul_deltas_match_the_signed_construction():
    for sch, a, b in koszul_cases():
        P = koszul_mf(sch, a, b)
        m = len(a)
        for d, expected in zip(P.deltas, signed_koszul_deltas(sch, a, b)):
            assert d == expected and str(d) == str(expected)
            assert_same_terms(d, expected)
            assert len({id(f) for f in d.terms.values()}) <= 4 * m - 2


def test_koszul_rows_must_cover_every_patch():
    sch = build_scheme(three_patch_line())
    for rows in ([["0"]], [["0"] * 4]):
        with pytest.raises(ValueError, match=rf"{len(rows[0])} values of a_0 for 3 patches"):
            koszul_mf(sch, rows, [["0"] * 3])
    with pytest.raises(ValueError, match=r"2 values of b_1 for 3 patches"):
        koszul_mf(sch, [["0"] * 3] * 2, [["0"] * 3, ["0"] * 2])


def test_square_form_keeps_only_a_value_with_the_ring_object_and_parities():
    ring = Ring("A", ("x", "y"))
    twin = Ring("A", ("x", "y"))
    parities = (0, 1)
    value = MatrixForm(ring, parities, parities, {(0, 1, (), 0): ring.var("x")})
    assert _square_form(ring, value, parities, "m") is value
    assert _square_form(ring, value, list(parities), "m") is value
    for other_ring, other_parities in ((twin, parities), (ring, (1, 0)), (ring, (0, 0))):
        got = _square_form(other_ring, value, other_parities, "m")
        assert got is not value
        assert got.ring is other_ring
        assert got.row_parities == got.col_parities == other_parities
        assert got.terms == value.terms
    for key in ((0, 1, (0,), 0), (0, 1, (), 1)):
        bad = MatrixForm(ring, parities, parities, {key: ring.var("x")})
        with pytest.raises(ValueError, match="dx or u terms"):
            _square_form(ring, bad, parities, "m")
    with pytest.raises(ValueError, match="ambient ring mismatch"):
        _square_form(Ring("B", ("x", "y")), value, parities, "m")
    with pytest.raises(ValueError, match="not a 3 x 3 matrix"):
        _square_form(ring, value, (0, 1, 0), "m")


def test_factorizations_keep_their_checked_deltas():
    sch = plane("x^2 + y^2")
    P = koszul_mf(sch, [["x"], ["y"]], [["x"], ["y"]])
    Q = MatrixFactorization(P.bundle, P.deltas)
    assert all(d is e for d, e in zip(Q.deltas, P.deltas))
    flipped = shift(P)
    for d, e in zip(flipped.deltas, P.deltas):
        assert d.row_parities == d.col_parities == tuple(1 - p for p in e.row_parities)
        assert d.terms == (-e).terms
    with pytest.raises(ValueError, match="is not odd"):
        MatrixFactorization(P.bundle, [MatrixForm.identity(sch.patch_ring(0), P.bundle.parities())])


def memo_free_d_form(value):
    """MatrixForm.d_form as it was: one ``_d_term`` per term."""
    terms = {}
    for (r, c, idxs, m), f in value.terms.items():
        for nidxs, nf in _d_term(idxs, f):
            key = (r, c, nidxs, m)
            terms[key] = terms[key] + nf if key in terms else nf
    return MatrixForm(value.ring, value.row_parities, value.col_parities, terms)


def shared_matrix_form(rng, ring):
    """A random 3 x 3 MatrixForm whose terms reuse a few coefficient objects
    and equal but distinct copies of them."""
    pool = [random_frac(rng, ring, degree=3) for _ in range(3)]
    pool = [f for f in pool if not f.is_zero()] or [ring.one()]
    nvars = len(ring.vars)
    terms = {}
    for _ in range(12):
        idxs = tuple(sorted(rng.sample(range(nvars), rng.randint(0, nvars))))
        key = (rng.randrange(3), rng.randrange(3), idxs, rng.randint(0, 1))
        f = rng.choice(pool)
        terms[key] = f if rng.random() < 0.6 else LocalFrac(ring, f.num, f.den)
    return MatrixForm(ring, (0, 1, 1), (1, 0, 1), terms)


def test_d_form_matches_the_memo_free_oracle_and_differentiates_each_object_once(monkeypatch):
    rng = random.Random(3201)
    calls = []

    def spy(idxs, f):
        calls.append((id(f), idxs))
        return _d_term(idxs, f)

    monkeypatch.setattr("mfchern.cech._d_term", spy)
    for ring in (Ring("A", ("x", "y")), punctured_line()):
        for _ in range(20):
            value = shared_matrix_form(rng, ring)
            calls.clear()
            got = value.d_form()
            expected = memo_free_d_form(value)
            assert got == expected and str(got) == str(expected)
            assert_same_terms(got, expected)
            distinct = {(id(f), k[2]) for k, f in value.terms.items()}
            assert len(calls) == len(set(calls)) == len(distinct)


def test_truncate_u_returns_itself_exactly_when_nothing_is_dropped():
    rng = random.Random(3202)
    ring = Ring("A", ("x", "y"))
    for _ in range(20):
        value = random_matrix_form(rng, ring, (0, 1), (1, 0), max_u=3, nterms=5)
        top = max((k[3] for k in value.terms), default=0)
        for bound in range(5):
            got = value.truncate_u(bound)
            assert (got is value) == (bound >= top)
            assert got.terms == {k: f for k, f in value.terms.items() if k[3] <= bound}
