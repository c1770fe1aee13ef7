import os
import random
import sys

import pytest

from mfchern.cech import MatrixForm, cech_differential
from mfchern.connection import (
    Connection,
    averaged_connection,
    default_connection,
    group_transformed_connection,
    total_curvature,
)
from mfchern.geometry import build_scheme
from mfchern.mf import (
    EquivariantStructure,
    MatrixFactorization,
    VectorBundle,
    direct_sum,
    koszul_mf,
)
from mfchern.rings import Fraction

from .test_cech import proj_line_three_patch
from .test_geometry import affine_line_squared, proj_line, z2_reflection_on_line
from .test_mf import affine_plane
from .test_rings import random_frac

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")


def twist_bundle(scheme, n):
    r = scheme.intersection((0, 1)).ring
    return VectorBundle(scheme, [0], {(0, 1): [[r.var("z") ** n]]})


def zero_mf(bundle):
    rank = len(bundle.parities())
    zero = [[0] * rank for _ in range(rank)]
    return MatrixFactorization(bundle, [zero for _ in range(bundle.scheme.npatches())])


def apply_connection(conn, i, section):
    """(d + C_i) applied to a column of forms over patch i: the operator that
    the curvature families are checked against."""
    return section.d_form() + conn.matrix(i).mul(section)


def frame_difference(P, conn=None):
    """The Cech 1-cochain of frame differences nabla_i - nabla_j of P."""
    if conn is None:
        conn = default_connection(P)
    return total_curvature(P, conn).frame_difference


def rank_two_three_patch():
    # diag(z^2, 1) twist over the redundant three-chart cover
    sch = build_scheme(proj_line_three_patch())

    def diag(pair, f):
        r = sch.intersection(pair).ring
        return [[f(r), r.zero()], [r.zero(), r.one()]]

    bundle = VectorBundle(
        sch,
        [0, 0],
        {
            (0, 1): diag((0, 1), lambda r: r.var("z") ** 2),
            (0, 2): diag((0, 2), lambda r: r.one()),
            (1, 2): diag((1, 2), lambda r: r.var("w") ** 2),
        },
    )
    return zero_mf(bundle)


def random_one_form_matrix(rng, ring, parities):
    nvars = len(ring.vars)
    terms = {}
    for r, pr in enumerate(parities):
        for c, pc in enumerate(parities):
            if pr != pc:
                continue
            if rng.random() < 0.4:
                continue
            f = random_frac(rng, ring, degree=2, den_bound=0)
            if f.is_zero():
                continue
            terms[(r, c, (rng.randrange(nvars),), 0)] = f
    return MatrixForm(ring, parities, parities, terms)


def random_column(rng, ring, parities, parity=None, forms=False):
    nvars = len(ring.vars)
    terms = {}
    for r, pr in enumerate(parities):
        idxs = ()
        if forms and rng.random() < 0.5:
            idxs = (rng.randrange(nvars),)
        if parity is not None and (pr + len(idxs)) % 2 != parity:
            continue
        f = random_frac(rng, ring, degree=2, den_bound=0)
        if f.is_zero():
            continue
        terms[(r, 0, idxs, 0)] = f
    return MatrixForm(ring, parities, (0,), terms)


def test_default_connection_is_zero():
    sch = build_scheme(affine_line_squared())
    P = koszul_mf(sch, [["x"]], [["x"]])
    conn = default_connection(P)
    assert conn.matrix(0).is_zero()


def test_trivial_bundle_flat():
    cfg = proj_line()
    sch = build_scheme(cfg)
    E = zero_mf(twist_bundle(sch, 0))
    R = total_curvature(E, default_connection(E))
    assert R.second_order.is_zero()
    assert R.commutator.is_zero()
    assert R.frame_difference.is_zero()
    assert R.cochain().is_zero()


def test_connection_entry_validation():
    sch = build_scheme(affine_line_squared())
    P = koszul_mf(sch, [["x"]], [["x"]])
    ring = sch.patch_ring(0)
    not_one_form = MatrixForm(ring, (0, 1), (0, 1), {(0, 0, (), 0): ring.one()})
    with pytest.raises(ValueError, match="1-form"):
        Connection(P, [not_one_form])
    with_u = MatrixForm(ring, (0, 1), (0, 1), {(0, 0, (0,), 1): ring.one()})
    with pytest.raises(ValueError, match="no u"):
        Connection(P, [with_u])
    odd = MatrixForm(ring, (0, 1), (0, 1), {(0, 1, (0,), 0): ring.one()})
    with pytest.raises(ValueError, match="internal grading"):
        Connection(P, [odd])


def test_leibniz_random():
    sch = build_scheme(affine_plane("x^2 + y^2"))
    P = koszul_mf(sch, [["x"], ["y"]], [["x"], ["y"]])
    ring = sch.patch_ring(0)
    parities = P.bundle.parities()
    rng = random.Random(11)
    for trial in range(20):
        C = random_one_form_matrix(rng, ring, parities)
        conn = Connection(P, [C])
        parity = trial % 2
        s = random_column(rng, ring, parities, parity=parity, forms=True)
        if s.is_zero():
            continue
        a = MatrixForm(ring, (0,), (0,), {(0, 0, (), 0): random_frac(rng, ring, 2, 0)})
        da = a.d_form()
        lhs = apply_connection(conn, 0, s.mul(a))
        rhs = apply_connection(conn, 0, s).mul(a) + s.mul(da).scale((-1) ** parity)
        assert lhs == rhs, trial


def test_koszul_commutator_frozen():
    sch = build_scheme(affine_line_squared())
    P = koszul_mf(sch, [["x"]], [["x"]])
    R = total_curvature(P, default_connection(P))
    assert R.second_order.is_zero()
    assert R.frame_difference.is_zero()
    ring = sch.patch_ring(0)
    expected = MatrixForm(
        ring, (0, 1), (0, 1),
        {(0, 1, (0,), 0): ring.one(), (1, 0, (0,), 0): ring.one()},
    )
    assert R.commutator.entry((0,)) == expected
    assert R.cochain().homogeneous_total_parity() == 0


def test_second_order_family_on_plane():
    sch = build_scheme(affine_plane("x*y"))
    P = koszul_mf(sch, [["x"]], [["y"]])
    ring = sch.patch_ring(0)
    x = ring.var("x")
    C = MatrixForm(ring, (0, 1), (0, 1), {(0, 0, (1,), 0): x})
    conn = Connection(P, [C])
    R = total_curvature(P, conn, with_u=True)
    expected = MatrixForm(ring, (0, 1), (0, 1), {(0, 0, (0, 1), 1): ring.one()})
    assert R.second_order.entry((0,)) == expected
    R0 = total_curvature(P, conn, with_u=False)
    assert R0.second_order.is_zero()
    assert not R0.commutator.is_zero()


def test_operator_oracle_for_families():
    # both Cech-0 families agree with direct operator application
    sch = build_scheme(affine_plane("x^2 + y^2"))
    P = koszul_mf(sch, [["x"], ["y"]], [["x"], ["y"]])
    ring = sch.patch_ring(0)
    parities = P.bundle.parities()
    delta = P.deltas[0]
    rng = random.Random(13)
    for trial in range(10):
        C = random_one_form_matrix(rng, ring, parities)
        conn = Connection(P, [C])
        R = total_curvature(P, conn, with_u=True)
        s = random_column(rng, ring, parities)
        if s.is_zero():
            continue
        dds = apply_connection(conn, 0, apply_connection(conn, 0, s))
        sq = R.second_order.entry((0,))
        if sq is None:
            assert dds.is_zero()
        else:
            assert dds.shift_u(1) == sq.mul(s)
        comm = R.commutator.entry((0,))
        lhs = apply_connection(conn, 0, delta.mul(s)) + delta.mul(
            apply_connection(conn, 0, s)
        )
        assert lhs == comm.mul(s)


def test_commutator_is_function_linear():
    sch = build_scheme(affine_plane("x^2 + y^2"))
    P = koszul_mf(sch, [["x"], ["y"]], [["x"], ["y"]])
    ring = sch.patch_ring(0)
    parities = P.bundle.parities()
    delta = P.deltas[0]
    rng = random.Random(17)
    for trial in range(10):
        C = random_one_form_matrix(rng, ring, parities)
        conn = Connection(P, [C])
        s = random_column(rng, ring, parities)
        a = MatrixForm(ring, (0,), (0,), {(0, 0, (), 0): random_frac(rng, ring, 2, 0)})
        sa = s.mul(a)

        def bracket(col):
            return apply_connection(conn, 0, delta.mul(col)) + delta.mul(
                apply_connection(conn, 0, col)
            )

        assert bracket(sa) == bracket(s).mul(a), trial


def test_twist_atiyah_entry():
    sch = build_scheme(proj_line())
    for n in (1, 2, -3):
        at = frame_difference(zero_mf(twist_bundle(sch, n)))
        ring = sch.intersection((0, 1)).ring
        z = ring.var("z")
        expected = MatrixForm(ring, (0,), (0,), {(0, 0, (0,), 0): z ** -1 * n})
        assert at.entry((0, 1)) == expected, n


def test_atiyah_trivial_is_zero():
    sch = build_scheme(proj_line())
    at = frame_difference(zero_mf(twist_bundle(sch, 0)))
    assert at.is_zero()


def test_atiyah_additive_under_direct_sum():
    sch = build_scheme(proj_line())
    E = direct_sum(zero_mf(twist_bundle(sch, 1)), zero_mf(twist_bundle(sch, 2)))
    at = frame_difference(E)
    ring = sch.intersection((0, 1)).ring
    z = ring.var("z")
    expected = MatrixForm(
        ring, (0, 0), (0, 0),
        {(0, 0, (0,), 0): z ** -1, (1, 1, (0,), 0): z ** -1 * 2},
    )
    assert at.entry((0, 1)) == expected


def test_atiyah_cech_closed_random_connections():
    P = rank_two_three_patch()
    sch = P.scheme
    rng = random.Random(5)
    for trial in range(5):
        mats = []
        for i in range(sch.npatches()):
            ring = sch.patch_ring(i)
            mats.append(random_one_form_matrix(rng, ring, (0, 0)))
        conn = Connection(P, mats)
        at = frame_difference(P, conn)
        assert cech_differential(at).is_zero(), trial


def test_frame_difference_uses_connection_transport():
    # nonzero C on one patch only; the overlap entry picks up C_0 - g C_1 g^{-1}
    sch = build_scheme(proj_line())
    E = zero_mf(twist_bundle(sch, 1))
    ring0 = sch.patch_ring(0)
    C0 = MatrixForm(ring0, (0,), (0,), {(0, 0, (0,), 0): ring0.one()})
    conn = Connection(E, [C0, None])
    at = frame_difference(E, conn)
    ring = sch.intersection((0, 1)).ring
    z = ring.var("z")
    expected = MatrixForm(
        ring, (0,), (0,), {(0, 0, (0,), 0): ring.one() + z ** -1}
    )
    assert at.entry((0, 1)) == expected


def test_group_transform_and_average_frozen():
    sch = build_scheme(z2_reflection_on_line())
    P = koszul_mf(sch, [["x"]], [["x"]])
    es = EquivariantStructure(P, {"e": [[[1, 0], [0, 1]]], "s": [[[1, 0], [0, -1]]]})
    ring = sch.patch_ring(0)
    x = ring.var("x")
    C = MatrixForm(
        ring, (0, 1), (0, 1), {(0, 0, (0,), 0): x, (1, 1, (0,), 0): ring.one()}
    )
    conn = Connection(P, [C])
    sC = group_transformed_connection(conn, es, "s")
    # x dx is invariant (both factors flip), dx flips sign
    assert sC.matrices[0].terms[(0, 0, (0,), 0)] == x
    assert sC.matrices[0].terms[(1, 1, (0,), 0)] == ring.const(-1)
    avg = averaged_connection(conn, es)
    expected = MatrixForm(ring, (0, 1), (0, 1), {(0, 0, (0,), 0): x})
    assert avg.matrices[0] == expected
    again = averaged_connection(avg, es)
    assert again.matrices[0] == expected


def test_average_invariant_under_every_element():
    sch = build_scheme(z2_reflection_on_line())
    P = koszul_mf(sch, [["x"]], [["x"]])
    es = EquivariantStructure(P, {"e": [[[1, 0], [0, 1]]], "s": [[[1, 0], [0, -1]]]})
    ring = sch.patch_ring(0)
    rng = random.Random(23)
    for trial in range(5):
        C = random_one_form_matrix(rng, ring, (0, 1))
        avg = averaged_connection(Connection(P, [C]), es)
        for g in sch.action.elements:
            moved = group_transformed_connection(avg, es, g)
            assert moved.matrices[0] == avg.matrices[0], (trial, g)


def test_curvature_total_parity_even():
    P = rank_two_three_patch()
    sch = P.scheme
    rng = random.Random(29)
    mats = [random_one_form_matrix(rng, sch.patch_ring(i), (0, 0)) for i in range(3)]
    R = total_curvature(P, Connection(P, mats))
    total = R.cochain()
    if not total.is_zero():
        assert total.homogeneous_total_parity() == 0


def test_total_curvature_multiplies_no_zero_factor(monkeypatch):
    """Over the seed-1 projective_chern pool, whose potentials are zero (so
    is every delta) and whose connections are zero on some patches,
    total_curvature asks the product kernel for no product with an empty
    factor, and still for the others."""
    if BENCHMARKS not in sys.path:
        sys.path.insert(0, BENCHMARKS)
    import run

    kernel = MatrixForm._product_terms
    inside = total_curvature.__code__
    products = []  # per product asked within total_curvature: has it an empty factor

    def spy(self, other, cech_left, trace):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not inside:
            frame = frame.f_back
        if frame is not None:
            products.append(not (self.terms and other.terms))
        return kernel(self, other, cech_left, trace)

    monkeypatch.setattr(MatrixForm, "_product_terms", spy)
    workload = run.WORKLOADS["projective_chern"]
    checker = run.Checker(workload, run.load_frozen(workload, 1))
    api = run.import_api()
    for index, spec in enumerate(workload.make_inputs(1)):
        run.run_job(api, index, spec, checker)
    assert checker.failed == 0, "\n".join(checker.messages)
    assert products and not any(products), f"{sum(products)} of {len(products)} empty"
