"""Patchwise connections and their total curvature.

A connection on a trivialized patch is d plus a matrix of 1-forms.  The
total curvature collects three families: the u-weighted square dC + C^2,
the commutator with delta, and the frame differences across overlaps.
"""

from __future__ import annotations

from .cech import CechCochain, MatrixForm, cech_differential, pullback_matrix
from .mf import MatrixFactorization
from .rings import Fraction, _check_same_ring

__all__ = [
    "Connection",
    "Curvature",
    "default_connection",
    "group_transformed_connection",
    "averaged_connection",
    "total_curvature",
    "frame_form",
]


class Connection:
    """Per-patch matrices C_i of 1-forms; the covariant derivative on patch
    i is d + C_i in the local frame."""

    __slots__ = ("mf", "matrices")

    def __init__(self, mf, matrices=None):
        if not isinstance(mf, MatrixFactorization):
            raise TypeError(f"not a MatrixFactorization: {mf!r}")
        self.mf = mf
        scheme = mf.scheme
        parities = mf.bundle.parities()
        n = scheme.npatches()
        if matrices is None:
            matrices = [None] * n
        if len(matrices) != n:
            raise ValueError(f"{len(matrices)} connection matrices for {n} patches")
        self.matrices = []
        for i, C in enumerate(matrices):
            ring = scheme.patch_ring(i)
            if C is None:
                C = MatrixForm(ring, parities, parities, {})
            if not isinstance(C, MatrixForm):
                raise TypeError(f"connection matrix on patch {i} is not a MatrixForm")
            _check_same_ring(C.ring, ring)
            if C.row_parities != parities or C.col_parities != parities:
                raise ValueError(f"connection matrix on patch {i} has the wrong shape")
            for key in C.terms:
                r, c, idxs, u = key
                if len(idxs) != 1:
                    raise ValueError("connection entries must be 1-forms")
                if u != 0:
                    raise ValueError("connection entries carry no u")
                if C.term_endo_parity(key) != 0:
                    raise ValueError("connection entries must preserve the internal grading")
            self.matrices.append(C)

    def matrix(self, i):
        return self.matrices[i]

    def cochain(self, u_truncation):
        entries = {}
        for (i,) in self.mf.scheme.tuples(1):
            if not self.matrices[i].is_zero():
                entries[(i,)] = self.matrices[i]
        return CechCochain(
            self.mf.scheme, self.mf.bundle, self.mf.bundle, entries, u_truncation
        )


def default_connection(P):
    """d in every local frame."""
    return Connection(P, None)


def group_transformed_connection(conn, structure, g):
    """The connection g.C with matrix phi_g rho_g(C) phi_g^{-1} + phi_g
    d(phi_g^{-1}) on each patch, where phi_g^{-1} = rho_g(phi_{g^-1}) by the
    cocycle rule phi_e = phi_g g(phi_{g^-1})."""
    P = structure.P
    if conn.mf is not P:
        raise ValueError("connection and structure are on different factorizations")
    scheme = P.scheme
    f = scheme.action_map(g)
    back = structure.phi[scheme.action.inverse(g)]
    out = []
    for i, rho in enumerate(f.charts):
        phi = structure.phi[g][i]
        phi_inv = pullback_matrix(rho, back[i])
        moved = pullback_matrix(rho, conn.matrix(i))
        C = phi.mul(moved).mul(phi_inv) + phi.mul(phi_inv.d_form())
        out.append(C)
    return Connection(P, out)


def averaged_connection(conn, structure):
    """Group average (1/|G|) sum_g g.C; the result is exactly invariant."""
    P = structure.P
    act = P.scheme.action
    order = len(act.elements)
    total = None
    for g in act.elements:
        C = group_transformed_connection(conn, structure, g)
        if total is None:
            total = C.matrices
        else:
            total = [a + b for a, b in zip(total, C.matrices)]
    avg = Connection(P, [m.scale(Fraction(1, order)) for m in total])
    for g in act.elements:
        back = group_transformed_connection(avg, structure, g)
        for i in range(P.scheme.npatches()):
            assert back.matrices[i] == avg.matrices[i], (
                f"average not invariant under {g} on patch {i}"
            )
    return avg


class Curvature:
    """Total curvature split into its three supports: (form 2, u^1) squares,
    (form 1, internal odd) commutators, and (Cech 1, form 1) frame jumps."""

    __slots__ = ("mf", "second_order", "commutator", "frame_difference")

    def __init__(self, mf, second_order, commutator, frame_difference):
        self.mf = mf
        self.second_order = second_order
        self.commutator = commutator
        self.frame_difference = frame_difference

    def cochain(self):
        total = self.second_order + self.commutator + self.frame_difference
        if not total.is_zero():
            assert total.homogeneous_total_parity() == 0
        return total


def total_curvature(P, conn, with_u=True, u_truncation=None):
    scheme = P.scheme
    if u_truncation is None:
        u_truncation = scheme.dimension + scheme.npatches() + 1
    bundle = P.bundle
    second = {}
    comm = {}
    for (i,) in scheme.tuples(1):
        C = conn.matrix(i)
        d_only = C.is_zero()  # the connection is d in this frame
        if with_u and not d_only:
            sq = (C.d_form() + C.mul(C)).shift_u(1)
            if not sq.is_zero():
                second[(i,)] = sq
        delta = P.deltas[i]
        if delta.is_zero():
            continue
        value = delta.d_form() if d_only else delta.d_form() + C.mul(delta) + delta.mul(C)
        if not value.is_zero():
            comm[(i,)] = value
    frame = _frame_differences(P, conn, u_truncation)
    return Curvature(
        P,
        CechCochain(scheme, bundle, bundle, second, u_truncation),
        CechCochain(scheme, bundle, bundle, comm, u_truncation),
        frame,
    )


def frame_form(bundle, pair):
    """-g d(g^{-1}) over the ring of the increasing pair, for the bundle's
    transition g there: d in frame i minus d of frame j seen in frame i.
    Built once per bundle and pair, and kept in the bundle."""
    theta = bundle._frame_forms.get(pair)
    if theta is None:
        g, g_inv = bundle.transitions[pair], bundle.inverses[pair]
        theta = bundle._frame_forms[pair] = -g.mul(g_inv.d_form())
    return theta


def _frame_differences(P, conn, u_truncation):
    """The Cech part of the total curvature: on each pair (i, j), nabla_i
    minus nabla_j seen in the i frame, d + g d(g^{-1}) + g C_j g^{-1}.  That
    is Theta + cech_differential(C), for Theta the degree-1 cochain of frame
    forms: on 1-forms with even endomorphism part the Cech differential gives
    C_i - T(C_j), T the transport into the i frame."""
    scheme = P.scheme
    bundle = P.bundle
    theta = {pair: frame_form(bundle, pair) for pair in scheme.tuples(2)}
    return CechCochain(scheme, bundle, bundle, theta, u_truncation) + cech_differential(
        conn.cochain(u_truncation)
    )
