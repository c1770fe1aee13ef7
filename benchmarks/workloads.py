"""The three benchmark workloads: seeded inputs, the timed job, and the checks.

Every workload turns a seed into a small pool of job inputs made of plain data
(integers, Fractions, tuples).  A job builds its schemes, factorizations and
connections from that data through mfchern's public API, so nothing is cached
between jobs.  The checks run outside the job's timer and compare against
references that do not come from the code path being timed.

The functions take ``api``, a namespace holding the eight mfchern modules, and
reach every callable through it, so that the traced run can wrap the module
attributes from outside.
"""

import random
from collections import namedtuple
from fractions import Fraction

Workload = namedtuple("Workload", "name why make_inputs run check outputs")

POOL_SIZE = 6


def _q(c):
    """A Fraction as an expression that mfchern's parser reads."""
    return f"({c.numerator}/{c.denominator})"


def _nonzero(rng, bound):
    return rng.choice((-1, 1)) * rng.randint(1, bound)


def trace_of_identity(api, P, conn, trunc):
    """ch(P) = tr_nabla of the identity chain of P."""
    cat = api.hochschild.GeometricCategory(P.scheme, trunc)
    one = api.mf.MorphismCochain.identity(P, trunc)
    chain = api.hochschild.HochschildChain.single(cat, trunc, 2, one, ())
    return api.hochschild.tr_nabla(chain, {P: conn})


def _poly(api, ring, coeffs, monomials):
    terms = {mono: c for mono, c in zip(monomials, coeffs) if c}
    return api.rings.LocalFrac(ring, api.rings.ScalarPoly(ring.vars, terms))


def _connection(api, P, per_patch, monomials):
    """Connection from per-patch tuples of ((row, col, var), coefficients):
    the entry (row, col) gets sum(coefficient * monomial) d(var)."""
    parities = P.bundle.parities()
    mats = []
    for i, entries in enumerate(per_patch):
        ring = P.scheme.patch_ring(i)
        terms = {
            (r, c, (v,), 0): _poly(api, ring, coeffs, monomials)
            for (r, c, v), coeffs in entries
        }
        mats.append(api.cech.MatrixForm(ring, parities, parities, terms))
    return api.connection.Connection(P, mats)


def _random_connection_data(rng, parities, npatches, nvars, ncoeffs):
    """Every grading-preserving entry present, with nonzero constant term, so
    that the amount of work does not depend on the seed."""
    out = []
    for _ in range(npatches):
        entries = []
        for r, pr in enumerate(parities):
            for c, pc in enumerate(parities):
                if pr != pc:
                    continue
                for v in range(nvars):
                    coeffs = (_nonzero(rng, 3),) + tuple(
                        rng.randint(-3, 3) for _ in range(ncoeffs - 1)
                    )
                    entries.append(((r, c, v), coeffs))
        out.append(tuple(entries))
    return tuple(out)


# -- koszul_affine ----------------------------------------------------------

KOSZUL_VARS = ("x1", "x2", "x3", "x4")
KOSZUL_TRUNC = 6
KOSZUL_MONOMIALS = ((0, 0, 0, 0), (0, 1, 0, 0))


def koszul_config(coeffs, variables=KOSZUL_VARS):
    """build_scheme description of affine space with W = sum c_i x_i^2."""
    potential = " + ".join(f"{_q(c)}*{v}^2" for c, v in zip(coeffs, variables))
    return {
        "grading": "Z2",
        "dimension": len(variables),
        "patches": [{"name": "A", "variables": list(variables), "denominators": []}],
        "gluings": [],
        "potentials": [potential],
        "all_critical_values_zero": True,
    }


def koszul_inputs(rng):
    """Coefficients c_i of the potential, and the connection entry
    (a + b x2) dx1 on the first generator.  With the default connection the
    character is 0 at chain level, so the check would compare 0 with 0; this
    one-entry connection keeps both sides nonzero at little extra cost."""
    return {
        "c": tuple(
            Fraction(_nonzero(rng, 9), rng.randint(1, 4)) for _ in KOSZUL_VARS
        ),
        "connection": (((0, 0, 0), (_nonzero(rng, 3), _nonzero(rng, 3))),),
    }


def koszul_run(api, spec):
    sch = api.geometry.build_scheme(koszul_config(spec["c"]))
    a = [[v] for v in KOSZUL_VARS]
    b = [[f"{_q(c)}*{v}"] for c, v in zip(spec["c"], KOSZUL_VARS)]
    P = api.mf.koszul_mf(sch, a, b)
    conn = _connection(api, P, (spec["connection"],), KOSZUL_MONOMIALS)
    return {"P": P, "conn": conn, "ch": trace_of_identity(api, P, conn, KOSZUL_TRUNC)}


def koszul_check(api, spec, out):
    if out["ch"].is_zero():
        return ["tr_nabla(1_P) is zero; the connection's curvature term is missing"]
    R = api.connection.total_curvature(
        out["P"], out["conn"], with_u=True, u_truncation=KOSZUL_TRUNC
    ).cochain()
    if out["ch"] != api.cech.supertrace(api.cech.exp_neg(R)):
        return ["tr_nabla(1_P) differs from supertrace(exp_neg(R))"]
    return []


def koszul_outputs(out):
    return [out["ch"].canonical_string()]


# -- eta_cycle --------------------------------------------------------------

ETA_TRUNC = 4


def eta_retract(api, c, trunc):
    """N = P + Q on A^1 with W = c x^2, and the retract of N onto P."""
    cfg = {
        "grading": "Z2",
        "dimension": 1,
        "patches": [{"name": "A1", "variables": ["x"], "denominators": []}],
        "gluings": [],
        "potentials": [f"{_q(c)}*x^2"],
        "all_critical_values_zero": True,
    }
    sch = api.geometry.build_scheme(cfg)
    P = api.mf.koszul_mf(sch, [["x"]], [[f"{_q(c)}*x"]])
    Q = api.mf.koszul_mf(sch, [["x^2"]], [[_q(c)]])
    N = api.mf.direct_sum(P, Q)
    ring = sch.patch_ring(0)
    zero, one = ring.zero(), ring.one()
    g_mat = [[one, zero], [zero, one], [zero, zero], [zero, zero]]
    f_mat = [[one, zero, zero, zero], [zero, one, zero, zero]]
    MF, MC = api.cech.MatrixForm, api.mf.MorphismCochain
    pN, pP = N.bundle.parities(), P.bundle.parities()
    g = MC.from_entries(P, N, {(0,): MF.from_entries(ring, pN, pP, g_mat)}, trunc)
    f = MC.from_entries(N, P, {(0,): MF.from_entries(ring, pP, pN, f_mat)}, trunc)
    return api.mf.RetractData(P, N, g, f)


def cycle_image(api, x):
    """(b + uB) x."""
    return api.hochschild.hochschild_b(x) + api.hochschild.connes_B(x).shift_u(1)


def eta_inputs(rng):
    return {"c": Fraction(_nonzero(rng, 9), rng.randint(1, 4))}


def eta_run(api, spec):
    eta = api.hochschild.eta_pi(eta_retract(api, spec["c"], ETA_TRUNC), ETA_TRUNC)
    image = cycle_image(api, eta)
    top = max(m for (m, _a, _s) in eta.items())
    cut = api.hochschild.HochschildChain(
        eta.category,
        eta.u_truncation,
        eta.tensor_cap,
        [(1, m, a, s) for (m, a, s) in eta.items() if m < top],
    )
    cut_image = cycle_image(api, cut)
    return {
        "eta": eta,
        "cut_image": cut_image,
        "cycle_is_zero": image.is_zero(),
        "cut_is_zero": cut_image.is_zero(),
    }


def eta_check(api, spec, out):
    problems = []
    if out["cycle_is_zero"] is not True:
        problems.append("(b + uB) eta_pi did not test zero")
    if out["cut_is_zero"] is not False:
        problems.append("(b + uB) of eta_pi without its top term tested zero")
    return problems


def eta_outputs(out):
    return [out["eta"].canonical_string(), out["cut_image"].canonical_string()]


# -- projective_chern -------------------------------------------------------

P1_CONFIG = {
    "grading": "Z2",
    "dimension": 1,
    "patches": [
        {"name": "U0", "variables": ["z"], "denominators": []},
        {"name": "U1", "variables": ["w"], "denominators": []},
    ],
    "gluings": [{"pair": [0, 1], "denominators": ["z"], "images": ["1/z"]}],
    "potentials": ["0", "0"],
}
P1_TRUNC = 4

# Charts [1:y:z], [x:1:z] and [x:y:1] of the projective plane.
P2_CONFIG = {
    "grading": "Z",
    "dimension": 2,
    "patches": [
        {"name": "V0", "variables": ["y", "z"], "denominators": []},
        {"name": "V1", "variables": ["x", "z"], "denominators": []},
        {"name": "V2", "variables": ["x", "y"], "denominators": []},
    ],
    "gluings": [
        {"pair": [0, 1], "denominators": ["y"], "images": ["1/y", "z/y"]},
        {"pair": [0, 2], "denominators": ["z"], "images": ["1/z", "y/z"]},
        {"pair": [1, 2], "denominators": ["z"], "images": ["x/z", "1/z"]},
    ],
    "potentials": ["0", "0", "0"],
}
P2_TRUNC = 6

P1_MONOMIALS = ((0,), (1,), (2,))
P2_MONOMIALS = ((0, 0), (1, 0), (0, 1))
SECTION_PARITIES = (0, 1)
RANK4_PARITIES = (0, 0, 1, 1)


def section_mf(api, sch):
    """O + O(-1)[odd] on P^1 with delta the section z of O(1)."""
    r = sch.intersection((0, 1)).ring
    bundle = api.mf.VectorBundle(
        sch, [0, 1], {(0, 1): [[r.one(), r.zero()], [r.zero(), r.var("z") ** -1]]}
    )
    return api.mf.MatrixFactorization(bundle, [[[0, "z"], [0, 0]], [[0, 1], [0, 0]]])


def rank4_object(api, sch):
    """O + O(-1) + O[odd] + O(-1)[odd] on P^1 with zero differential."""
    r = sch.intersection((0, 1)).ring
    rows = []
    for k, p in enumerate((0, -1, 0, -1)):
        row = [r.zero()] * 4
        row[k] = r.var("z") ** p if p else r.one()
        rows.append(row)
    bundle = api.mf.VectorBundle(sch, [0, 0, 1, 1], {(0, 1): rows})
    zero4 = [[0] * 4 for _ in range(4)]
    return api.mf.MatrixFactorization(bundle, [zero4, zero4])


def twist_p2(api, sch, n):
    """O(n) on P^2 as a zero factorization with transitions y^n, z^n, z^n."""
    def unit(pair, var):
        return [[sch.intersection(pair).ring.var(var) ** n]]

    bundle = api.mf.VectorBundle(
        sch, [0], {(0, 1): unit((0, 1), "y"), (0, 2): unit((0, 2), "z"),
                   (1, 2): unit((1, 2), "z")}
    )
    return api.mf.MatrixFactorization(bundle, [[[0]], [[0]], [[0]]])


def residue_class(api, sch):
    """dz/z on the overlap of P^1: a nonzero class."""
    ring = sch.intersection((0, 1)).ring
    value = ring.var("z").unit_inverse()
    entry = api.cech.MatrixForm(ring, (0,), (0,), {(0, 0, (0,), 0): value})
    return api.cohomology.TotalCochain(
        api.cech.CechCochain.scalar(sch, {(0, 1): entry}, 2)
    )


def twist_p2_closed_form(api, sch, n):
    """ch(O(n)) on P^2 for the default connection, derived by hand:
    1 on every chart, -n dlog of the transition on each overlap, and
    -(n^2/2) dy^dz/(yz) on the triple overlap."""
    def scalar(tup, idxs, value):
        ring = sch.intersection(tup).ring
        return api.cech.MatrixForm(ring, (0,), (0,), {(0, 0, idxs, 0): value})

    def inv(tup, var):
        return sch.intersection(tup).ring.var(var).unit_inverse()

    entries = {(i,): scalar((i,), (), sch.patch_ring(i).one()) for i in range(3)}
    entries[(0, 1)] = scalar((0, 1), (0,), inv((0, 1), "y") * -n)
    entries[(0, 2)] = scalar((0, 2), (1,), inv((0, 2), "z") * -n)
    entries[(1, 2)] = scalar((1, 2), (1,), inv((1, 2), "z") * -n)
    entries[(0, 1, 2)] = scalar(
        (0, 1, 2), (0, 1), inv((0, 1, 2), "y") * inv((0, 1, 2), "z") * Fraction(-n * n, 2)
    )
    return api.cech.CechCochain.scalar(sch, entries, P2_TRUNC)


def projective_inputs(rng, n):
    return {
        "p1": (
            _random_connection_data(rng, SECTION_PARITIES, 2, 1, len(P1_MONOMIALS)),
            _random_connection_data(rng, RANK4_PARITIES, 2, 1, len(P1_MONOMIALS)),
        ),
        "n": n,
        "p2": _random_connection_data(rng, (0,), 3, 2, len(P2_MONOMIALS)),
    }


def projective_run(api, spec):
    sch1 = api.geometry.build_scheme(P1_CONFIG)
    p1 = []
    for P, table in zip((section_mf(api, sch1), rank4_object(api, sch1)), spec["p1"]):
        c_default = trace_of_identity(
            api, P, api.connection.default_connection(P), P1_TRUNC
        )
        c_random = trace_of_identity(
            api, P, _connection(api, P, table, P1_MONOMIALS), P1_TRUNC
        )
        primitive = api.cohomology.cohomologous(c_random, c_default, degree_bound=2)
        p1.append((c_default, c_random, primitive))
    residue = residue_class(api, sch1)
    residue_primitive = api.cohomology.cohomologous(
        residue, api.cohomology.TotalCochain.zero(sch1, 2), 3, den_bound=2
    )
    sch2 = api.geometry.build_scheme(P2_CONFIG)
    On = twist_p2(api, sch2, spec["n"])
    ch_default = trace_of_identity(
        api, On, api.connection.default_connection(On), P2_TRUNC
    )
    ch_random = trace_of_identity(
        api, On, _connection(api, On, spec["p2"], P2_MONOMIALS), P2_TRUNC
    )
    return {
        "p1": p1,
        "residue_primitive": residue_primitive,
        "p2_scheme": sch2,
        "ch_default": ch_default,
        "d_default": api.cohomology.total_differential(ch_default),
        "ch_random": ch_random,
        "d_random": api.cohomology.total_differential(ch_random),
    }


def projective_check(api, spec, out):
    TC = api.cohomology.TotalCochain
    problems = []
    for k, (c_default, c_random, primitive) in enumerate(out["p1"]):
        if primitive is None:
            problems.append(f"P1 object {k}: no primitive for ch(random) - ch(default)")
        elif api.cohomology.total_differential(primitive) != TC(c_random) - TC(c_default):
            problems.append(f"P1 object {k}: returned primitive has the wrong boundary")
    if out["residue_primitive"] is not None:
        problems.append("P1 residue class dz/z was given a primitive")
    if not out["d_default"].is_zero():
        problems.append("ch(O(n)) on P2 with the default connection is not closed")
    if not out["d_random"].is_zero():
        problems.append("ch(O(n)) on P2 with a random connection is not closed")
    expected = twist_p2_closed_form(api, out["p2_scheme"], spec["n"])
    if out["ch_default"] != expected:
        problems.append(f"ch(O({spec['n']})) on P2 differs from the closed form")
    return problems


def projective_outputs(out):
    texts = []
    for c_default, c_random, primitive in out["p1"]:
        texts += [c_default.canonical_string(), c_random.canonical_string()]
        texts.append(primitive.canonical_string() if primitive is not None else "None")
    rp = out["residue_primitive"]
    texts.append(rp.canonical_string() if rp is not None else "None")
    texts += [out["ch_default"].canonical_string(), out["ch_random"].canonical_string()]
    return texts


# -- registry ---------------------------------------------------------------


def _pool(make_one):
    def make(seed):
        rng = random.Random(seed)
        return [make_one(rng) for _ in range(POOL_SIZE)]

    return make


def _projective_pool(seed):
    """Each twist n in {1, 2, 3} twice, in a seeded order."""
    rng = random.Random(seed)
    twists = [1, 2, 3] * (POOL_SIZE // 3)
    rng.shuffle(twists)
    return [projective_inputs(rng, n) for n in twists]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "koszul_affine",
            "exact arithmetic and cup products on one chart dominate; no overlap "
            "transport, Hochschild chain algebra or cohomology solve",
            _pool(koszul_inputs),
            koszul_run,
            koszul_check,
            koszul_outputs,
        ),
        Workload(
            "eta_cycle",
            "the multilinear Hochschild zero test dominates, once on a cycle and "
            "once on a nonzero chain; one chart and small polynomials keep rings light",
            _pool(eta_inputs),
            eta_run,
            eta_check,
            eta_outputs,
        ),
        Workload(
            "projective_chern",
            "restrictions, overlap transport, frame differences and the primitive "
            "solve of cohomologous do the work; Hochschild chains stay trivial",
            _projective_pool,
            projective_run,
            projective_check,
            projective_outputs,
        ),
    )
}
