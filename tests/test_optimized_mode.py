"""Input validation must not depend on ``assert``: one ``python -O`` process
feeds a table of malformed inputs to the package and reports every input that
was accepted instead of raising ValueError or TypeError, and a scan of the
sources finds ``assert`` only at the listed internal-invariant sites.  Every
name a layer module exports in ``__all__`` must exist, and must have a caller
in the package or the benchmark harness."""

import ast
import glob
import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

CHILD = r'''
import json

from mfchern.cech import TRIVIAL_LINE, CechCochain, MatrixForm, supertrace_product
from mfchern.cohomology import TotalCochain, coinvariant_project, cohomologous
from mfchern.forms import de_rham_d, pullback, wedge
from mfchern.geometry import CoveredScheme, GroupAction, SchemeMap, build_scheme, fixed_locus
from mfchern.hochschild import GeometricCategory, HochschildChain, eta_pi
from mfchern.mf import MorphismCochain, RetractData, VectorBundle, koszul_mf
from mfchern.rings import LocalFrac, Ring, RingMap, ScalarPoly, echelon_reduce, parse_scalar

line = Ring("A", ("x",))
one = line.one()
z = ScalarPoly.variable(("z",), "z")
plain, punctured = Ring("U", ("z",)), Ring("U", ("z",), (z,))
line_config = {
    "grading": "Z",
    "dimension": 1,
    "patches": [
        {"name": "U0", "variables": ["z"], "denominators": []},
        {"name": "U1", "variables": ["w"], "denominators": []},
    ],
    "gluings": [{"pair": [0, 1], "denominators": ["z"], "images": ["1/z"]}],
    "potentials": ["0", "0"],
}
sch, other_sch = build_scheme(line_config), build_scheme(line_config)
pair = sch.intersection((0, 1)).ring
bundle = VectorBundle(sch, [0], {(0, 1): [[pair.var("z")]]})
x = ScalarPoly.variable(("x",), "x")
swap_config = {
    "grading": "Z2",
    "dimension": 2,
    "patches": [{"name": "A2", "variables": ["x", "y"], "denominators": []}],
    "gluings": [],
    "potentials": ["0"],
    "group": {
        "elements": ["e", "s"],
        "table": [[0, 1], [1, 0]],
        "action": [[["x", "y"]], [["y", "x"]]],
    },
}
plane, other_plane = build_scheme(swap_config), build_scheme(swap_config)
plane_loci = {g: fixed_locus(plane, g) for g in ("e", "s")}
curved_plane = build_scheme(dict(swap_config, potentials=["x*y"]))


def chart_scheme(dens):
    return build_scheme({"grading": "Z", "dimension": 1, "gluings": [], "potentials": ["0"],
                         "patches": [{"name": "U", "variables": ["z"], "denominators": dens}]})


affine, punctured_affine = chart_scheme([]), chart_scheme(["z"])
affine0 = affine.patch_ring(0)
curved0 = curved_plane.patch_ring(0)
patch0, patch1 = sch.patch_ring(0), sch.patch_ring(1)
line_ids = [RingMap.identity(patch0), RingMap.identity(patch1)]


def line_variant(**changes):
    return build_scheme(dict(line_config, **changes))

rank2 = VectorBundle(plane, [0, 0], {})
on_plane = CechCochain.scalar(plane, {}, 1)
rank2_endo = CechCochain(plane, rank2, rank2, {}, 1)

kos, other_kos = koszul_mf(plane, [["x"]], [["0"]]), koszul_mf(plane, [["y"]], [["0"]])
plane_cat = GeometricCategory(plane, 2)
plane0 = plane.patch_ring(0)


def morphism(source, target, terms):
    mf = MatrixForm(plane0, target.bundle.parities(), source.bundle.parities(), terms)
    return MorphismCochain.from_entries(source, target, {(0,): mf}, 2)


def chain(*items):
    return HochschildChain(plane_cat, 2, 4, items)


def naming(text, build):
    """Raise what build raises only when its message names text."""
    try:
        build()
    except (ValueError, TypeError) as exc:
        if text in str(exc):
            raise


even = morphism(kos, kos, {(0, 0, (), 0): plane0.var("x")})
u_term = morphism(kos, kos, {(0, 0, (), 1): plane0.one()})
mixed = morphism(kos, kos, {(0, 0, (), 0): plane0.one(), (0, 1, (), 0): plane0.one()})
to_other = morphism(kos, other_kos, {(0, 0, (), 0): plane0.one()})
kos_one = MorphismCochain.identity(kos, 2)
kos_retract = RetractData(kos, kos, kos_one, kos_one)

CASES = {
    "MatrixForm: row 5, dx index 7 and u^-1 on a 1 x 1 matrix over A[x]":
        lambda: MatrixForm(line, (0,), (0,), {(5, 0, (7,), -1): one}),
    "MatrixForm: row 5 of a 1-row matrix":
        lambda: MatrixForm(line, (0,), (0,), {(5, 0, (), 0): one}),
    "MatrixForm: dx index 7 on a one-variable ring":
        lambda: MatrixForm(line, (0,), (0,), {(0, 0, (7,), 0): one}),
    "MatrixForm: u power -1":
        lambda: MatrixForm(line, (0,), (0,), {(0, 0, (), -1): one}),
    "MatrixForm: u power 0.5":
        lambda: MatrixForm(line, (0,), (0,), {(0, 0, (), 0.5): one}),
    "MatrixForm: u power True":
        lambda: MatrixForm(line, (0,), (0,), {(0, 0, (), True): one}),
    "MatrixForm: row 0.0":
        lambda: MatrixForm(line, (0,), (0,), {(0.0, 0, (), 0): one}),
    "MatrixForm: column False":
        lambda: MatrixForm(line, (0,), (0,), {(0, False, (), 0): one}),
    "MatrixForm: dx index 0.0":
        lambda: MatrixForm(line, (0,), (0,), {(0, 0, (0.0,), 0): one}),
    "MatrixForm: entry from a same-named ring with other denominators":
        lambda: MatrixForm(plain, (0,), (0,), {(0, 0, (), 0): punctured.var("z").unit_inverse()}),
    "CechCochain: entry in the ring of another patch":
        lambda: CechCochain.scalar(sch, {(0,): MatrixForm.identity(sch.patch_ring(1), (0,))}, 1),
    "CechCochain: sum with a cochain of u truncation -1, message names it":
        lambda: naming("-1", lambda: CechCochain.scalar(sch, {}, 1)
                       + CechCochain.scalar(sch, {}, -1)),
    "CechCochain: u truncation 1.5, message names it":
        lambda: naming("1.5", lambda: CechCochain.scalar(sch, {}, 1.5)),
    "CechCochain: u truncation True, message names it":
        lambda: naming("True", lambda: CechCochain(sch, bundle, bundle, {}, True)),
    "TotalCochain.zero: u truncation -1, message names it":
        lambda: naming("-1", lambda: TotalCochain.zero(sch, -1)),
    "VectorBundle: non-square transition":
        lambda: VectorBundle(sch, [0], {(0, 1): [[pair.one(), pair.one()]]}),
    "VectorBundle: wrong declared inverse":
        lambda: VectorBundle(sch, [0], {(0, 1): [[pair.var("z")]]},
                             inverses={(0, 1): [[pair.var("z")]]}),
    "VectorBundle: inverse given for (1, 0), which has no transition, message names it":
        lambda: naming("(1, 0)", lambda: VectorBundle(sch, [0], {(0, 1): [[pair.var("z")]]},
                                                      inverses={(1, 0): [[pair.var("z")]]})),
    "VectorBundle: transition on (0,2) of a two-chart cover, message names it":
        lambda: naming("(0,2)", lambda: VectorBundle(
            sch, [0], {(0, 1): [[pair.var("z")]], (0, 2): [[pair.one()]]}
        )),
    "CechCochain: bundle on another scheme":
        lambda: CechCochain(other_sch, bundle, bundle, {}, 1),
    "Ring: denominator generator given as a string":
        lambda: Ring("B", ("x",), ("x",)),
    "Ring: denominator generator in other variables":
        lambda: Ring("B", ("x",), (z,)),
    "Ring: zero denominator generator":
        lambda: Ring("B", ("x",), (ScalarPoly.zero(("x",)),)),
    "Ring: one-term denominator generators x and x^2 share a variable":
        lambda: Ring("B", ("x",), (x, x * x)),
    "Ring: constant denominator generator 2 next to x - 1":
        lambda: Ring("B", ("x",), (x - ScalarPoly.const(("x",), 1), ScalarPoly.const(("x",), 2))),
    "RingMap: source is not a Ring":
        lambda: RingMap(("x",), line, (one,)),
    "RingMap: two images for one source variable":
        lambda: RingMap(line, line, (one, one)),
    "ScalarPoly.divide_exact: zero divisor":
        lambda: x.divide_exact(ScalarPoly.zero(("x",))),
    "ScalarPoly.divide_exact: divisor in other variables":
        lambda: x.divide_exact(z),
    "ScalarPoly.divide_exact: divisor is not a polynomial":
        lambda: x.divide_exact(2),
    "ScalarPoly: float coefficient":
        lambda: ScalarPoly(("x",), {(1,): 2.5}),
    "ScalarPoly: exponent tuple of length 2 in one variable":
        lambda: ScalarPoly(("x",), {(1, 0): 1}),
    "ScalarPoly * float":
        lambda: x * 2.5,
    "float * ScalarPoly":
        lambda: 2.5 * x,
    "ScalarPoly + int":
        lambda: x + 1,
    "ScalarPoly + polynomial in other variables":
        lambda: x + z,
    "ScalarPoly * polynomial in other variables":
        lambda: x * z,
    "ScalarPoly ** -1":
        lambda: x ** -1,
    "ScalarPoly ** 1.5":
        lambda: x ** 1.5,
    "ScalarPoly.leading: zero polynomial":
        lambda: ScalarPoly.zero(("x",)).leading(),
    "ScalarPoly.substitute: no image for the one variable":
        lambda: x.substitute((), line),
    "LocalFrac: ring given as a string":
        lambda: LocalFrac("A", x),
    "LocalFrac: numerator in other variables":
        lambda: LocalFrac(line, z),
    "LocalFrac: multiplicity on a ring with no denominators":
        lambda: LocalFrac(line, x, (1,)),
    "LocalFrac: negative multiplicity":
        lambda: LocalFrac(punctured, z, (-1,)),
    "LocalFrac ** -1 of a non-unit":
        lambda: (one + line.var("x")) ** -1,
    "LocalFrac * float":
        lambda: one * 2.5,
    "echelon_reduce: float coefficient":
        lambda: echelon_reduce({}, {0: 2, 1: 1.5}),
    "parse_scalar: non-integer constant":
        lambda: parse_scalar(line, "1.5*x"),
    "parse_scalar: exponent is not a literal":
        lambda: parse_scalar(line, "x**x"),
    "TotalCochain: 2 x 2-valued cochain":
        lambda: TotalCochain(CechCochain(
            plane, rank2, rank2, {(0,): MatrixForm.identity(plane.patch_ring(0), (0, 0))}, 1
        )),
    "TotalCochain: a string":
        lambda: TotalCochain("c"),
    "coinvariant_project: component on the ambient scheme, not its locus":
        lambda: coinvariant_project({"s": CechCochain.scalar(plane, {}, 1)}, plane_loci),
    "coinvariant_project: component on the locus of another element":
        lambda: coinvariant_project(
            {"s": CechCochain.scalar(plane_loci["e"].source, {}, 1)}, plane_loci
        ),
    "coinvariant_project: component at an element outside the group":
        lambda: coinvariant_project(
            {"t": CechCochain.scalar(plane_loci["e"].source, {}, 1)}, plane_loci
        ),
    "coinvariant_project: loci missing a group element":
        lambda: coinvariant_project({}, {"e": plane_loci["e"]}),
    "coinvariant_project: loci in different schemes":
        lambda: coinvariant_project({}, {"e": plane_loci["e"], "s": fixed_locus(other_plane, "s")}),
    "coinvariant_project: loci in a scheme without a group action":
        lambda: coinvariant_project({}, {"e": SchemeMap(sch, sch, (0, 1), line_ids)}),
    "coinvariant_project: a locus that is not a SchemeMap":
        lambda: coinvariant_project({}, {"e": "X^e", "s": plane_loci["s"]}),
    "supertrace_product: a string as the left factor":
        lambda: supertrace_product("c", on_plane),
    "supertrace_product: factors on different schemes":
        lambda: supertrace_product(on_plane, CechCochain.scalar(other_plane, {}, 1)),
    "supertrace_product: rank-2 source after a line target":
        lambda: supertrace_product(rank2_endo, on_plane),
    "supertrace_product: composite from rank 2 to a line":
        lambda: supertrace_product(CechCochain(plane, rank2, TRIVIAL_LINE, {}, 1), rank2_endo),
    "koszul_mf: delta z on U0 and w on U1 do not glue":
        lambda: koszul_mf(sch, [["z", "w"]], [["0", "0"]]),
    "build_scheme: two patches, one potential":
        lambda: line_variant(potentials=["0"]),
    "build_scheme: gluing pair (0, 2) on two patches":
        lambda: line_variant(gluings=[dict(line_config["gluings"][0], pair=[0, 2])]),
    "build_scheme: nonempty pair (0, 1) without a gluing":
        lambda: line_variant(gluings=[]),
    "build_scheme: dimension 1 declared for the chart A^2 with W = xy":
        lambda: build_scheme(dict(swap_config, dimension=1, potentials=["x*y"])),
    "parse_scalar: a float":
        lambda: parse_scalar(line, 1.5),
    "parse_scalar: unparsable text":
        lambda: parse_scalar(line, "x +"),
    "de_rham_d: dx index 1 on a one-variable ring":
        lambda: de_rham_d({(1,): one}),
    "wedge: dx indices (0, 0)":
        lambda: wedge({(0, 0): one}, {(): one}),
    "de_rham_d: an int coefficient":
        lambda: de_rham_d({(): 3}),
    "wedge: dx ^ dx with coefficients from two rings":
        lambda: wedge({(0,): patch0.one()}, {(0,): line.one()}),
    "pullback: form on the target ring of the map":
        lambda: pullback(sch.restriction((0,), (0, 1)), {(0,): pair.one()}),
    "MatrixForm.shift_u(-1) of a u^1 term":
        lambda: MatrixForm(line, (0,), (0,), {(0, 0, (), 1): one}).shift_u(-1),
    "CechCochain.shift_u(-1) of the zero cochain":
        lambda: on_plane.shift_u(-1),
    "MatrixForm.scale by a float":
        lambda: MatrixForm.identity(line, (0,)).scale(2.5),
    "MatrixForm + MatrixForm over another ring":
        lambda: MatrixForm.identity(line, (0,)) + MatrixForm.identity(patch0, (0,)),
    "MatrixForm.mul: factor from a same-named ring with other denominators":
        lambda: MatrixForm.identity(plain, (0,)).mul(MatrixForm.identity(punctured, (0,))),
    "MatrixForm.mul: 1 x 1 after 2 x 2":
        lambda: MatrixForm.identity(line, (0,)).mul(MatrixForm.identity(line, (0, 1))),
    "MatrixForm._supertrace_mul: 1 x 1 after 1 x 2 is not square":
        lambda: MatrixForm.identity(line, (0,))._supertrace_mul(
            MatrixForm(line, (0,), (0, 1), {(0, 1, (), 0): one})
        ),
    "HochschildChain: one u term in slots 1 and 2, message names slot 1":
        lambda: naming("slot 1", lambda: chain((1, 0, even, (u_term, u_term)))),
    "HochschildChain: slot 1 mixes even and odd terms":
        lambda: chain((1, 0, even, (mixed,))),
    "HochschildChain: a str in slot 0 of a string above the u truncation":
        lambda: chain((1, 3, "not a morphism", ())),
    "HochschildChain: slot 1 maps into another object than slot 0 leaves":
        lambda: chain((1, 0, even, (to_other,))),
    "HochschildChain: coefficient 0.5 on a string above the u truncation":
        lambda: naming("0.5", lambda: chain((0.5, 3, even, ()))),
    "HochschildChain: coefficient 0.5 on a string with an identity in slot 1":
        lambda: naming("0.5", lambda: chain((0.5, 0, even, (kos_one,)))),
    "HochschildChain: coefficients 0.5 and -0.5 on one string":
        lambda: naming("0.5", lambda: chain((0.5, 0, even, ()), (-0.5, 0, even, ()))),
    "HochschildChain: power of u 0.5, message names it":
        lambda: naming("0.5", lambda: chain((1, 0.5, even, ()))),
    "HochschildChain: power of u 1.0, message names it":
        lambda: naming("1.0", lambda: chain((1, 1.0, even, ()))),
    "HochschildChain: power of u True, message names it":
        lambda: naming("True", lambda: chain((1, True, even, ()))),
    "HochschildChain: u truncation -1, message names it":
        lambda: naming("-1", lambda: HochschildChain(plane_cat, -1, 3, [(1, 0, even, ())])),
    "HochschildChain: u truncation 1.5, message names it":
        lambda: naming("1.5", lambda: HochschildChain(plane_cat, 1.5, 3, [(1, 0, even, ())])),
    "HochschildChain: u truncation True, message names it":
        lambda: naming("True", lambda: HochschildChain(plane_cat, True, 3, [(1, 0, even, ())])),
    "HochschildChain: tensor cap -1, message names it":
        lambda: naming("-1", lambda: HochschildChain(plane_cat, 2, -1, [(1, 0, even, ())])),
    "HochschildChain: tensor cap 1.5, message names it":
        lambda: naming("1.5", lambda: HochschildChain(plane_cat, 2, 1.5, [(1, 0, even, ())])),
    "HochschildChain: tensor cap True, message names it":
        lambda: naming("True", lambda: HochschildChain(plane_cat, 2, True, [(1, 0, even, ())])),
    "HochschildChain: tensor cap '3', message names it":
        lambda: naming("'3'", lambda: HochschildChain(plane_cat, 2, "3", [(1, 0, even, ())])),
    "MatrixForm.truncate_u(-1), message names it":
        lambda: naming("-1", lambda: MatrixForm.identity(line, (0,)).truncate_u(-1)),
    "MatrixForm.truncate_u(1.5), message names it":
        lambda: naming("1.5", lambda: MatrixForm.identity(line, (0,)).truncate_u(1.5)),
    "MatrixForm.truncate_u(True), message names it":
        lambda: naming("True", lambda: MatrixForm.identity(line, (0,)).truncate_u(True)),
    "CechCochain.truncate_u(-1), message names it":
        lambda: naming("-1", lambda: on_plane.truncate_u(-1)),
    "CechCochain.truncate_u(1.5), message names it":
        lambda: naming("1.5", lambda: on_plane.truncate_u(1.5)),
    "CechCochain.truncate_u(True), message names it":
        lambda: naming("True", lambda: on_plane.truncate_u(True)),
    "HochschildChain.shift_u(0.5), message names it":
        lambda: naming("0.5", lambda: chain((1, 0, even, ())).shift_u(0.5)),
    "HochschildChain.shift_u(-1) of a u^0 string, message names it":
        lambda: naming("-1", lambda: chain((1, 0, even, ())).shift_u(-1)),
    "HochschildChain.scale by the float 0.5, message names it":
        lambda: naming("0.5", lambda: chain((1, 0, even, ())).scale(0.5)),
    "HochschildChain + int":
        lambda: chain((1, 0, even, ())) + 1,
    "HochschildChain + a chain over another category":
        lambda: chain((1, 0, even, ())) + HochschildChain(
            GeometricCategory(plane, 2), 2, 4, [(1, 0, even, ())]
        ),
    "cohomologous: degree bound -1, message names it":
        lambda: naming("-1", lambda: cohomologous(on_plane, on_plane, -1)),
    "cohomologous: denominator bound -1, message names it":
        lambda: naming("-1", lambda: cohomologous(on_plane, on_plane, 2, den_bound=-1)),
    "cohomologous: degree bound 1.5, message names it":
        lambda: naming("1.5", lambda: cohomologous(on_plane, on_plane, 1.5)),
    "cohomologous: denominator bound 1.5, message names it":
        lambda: naming("1.5", lambda: cohomologous(on_plane, on_plane, 2, den_bound=1.5)),
    "cohomologous: degree bound True, message names it":
        lambda: naming("True", lambda: cohomologous(on_plane, on_plane, True)),
    "cohomologous: denominator bound False, message names it":
        lambda: naming("False", lambda: cohomologous(on_plane, on_plane, 2, den_bound=False)),
    "SchemeMap: one chart map for the two charts of P^1, message names the count":
        lambda: naming("for 2 charts", lambda: SchemeMap(sch, sch, [0], line_ids[:1])),
    "SchemeMap: chart index (1, 0), message says it does not increase":
        lambda: naming("not increasing", lambda: SchemeMap(sch, sch, [1, 0], line_ids)),
    "SchemeMap: a string as the map of chart 1":
        lambda: SchemeMap(sch, sch, [0, 1], [line_ids[0], "w"]),
    "SchemeMap: chart 0 mapped by the identity of chart 1's ring":
        lambda: SchemeMap(sch, sch, [0, 1], line_ids[::-1]),
    "SchemeMap: z -> -z and w -> w on P^1, message names the gluing":
        lambda: naming("respect gluing", lambda: SchemeMap(
            sch, sch, [0, 1], [RingMap(patch0, patch0, (-patch0.var("z"),)), line_ids[1]]
        )),
    "SchemeMap: z -> z from A^1 onto D(z), message names the denominator":
        lambda: naming("denominator z", lambda: SchemeMap(affine, punctured_affine, [0], [
            RingMap(punctured_affine.patch_ring(0), affine0, (affine0.var("z"),))
        ])),
    "SchemeMap: x -> 2x on A^2 with W = xy, message names the potential":
        lambda: naming("potential", lambda: SchemeMap(curved_plane, curved_plane, [0], [
            RingMap(curved0, curved0, (curved0.var("x") * 2, curved0.var("y")))
        ])),
    "CoveredScheme: a string as the action of s on A^1":
        lambda: CoveredScheme("Z", [sch.patches[0]], {}, action=GroupAction(
            ["e", "s"], [[0, 1], [1, 0]], {"e": [line_ids[0]], "s": ["z -> -z"]}
        )),
    "eta_pi: u truncation '2', message names it":
        lambda: naming("'2'", lambda: eta_pi(kos_retract, "2")),
    "eta_pi: u truncation -1, message names it":
        lambda: naming("-1", lambda: eta_pi(kos_retract, -1)),
}

accepted = []
for name, build in CASES.items():
    try:
        build()
    except (ValueError, TypeError):
        continue
    accepted.append(name)
print(json.dumps({"cases": len(CASES), "accepted": accepted}))
'''


def test_malformed_inputs_raise_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CHILD], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["cases"] == 126
    assert not report["accepted"], "accepted under python -O: " + "; ".join(report["accepted"])


# Functions whose asserts state internal invariants (results the code itself
# computed), not checks of caller input.
ASSERT_SITES = {
    "connection.averaged_connection",
    "connection.Curvature.cochain",
    "mf.RetractData.__init__",
    "geometry.fixed_locus",
}


def assert_sites():
    """{module.qualified function name: line numbers} of every assert in
    src/mfchern."""
    sites = {}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Assert):
                name = ".".join([module] + scope)
                sites.setdefault(name, []).append(child.lineno)
            visit(child, module, scope)

    for path in sorted(glob.glob(os.path.join(SRC, "mfchern", "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            visit(ast.parse(fh.read(), path), module, [])
    return sites


def test_asserts_only_at_internal_invariant_sites():
    sites = assert_sites()
    stray = {name: lines for name, lines in sites.items() if name not in ASSERT_SITES}
    assert not stray, f"assert outside the internal-invariant sites: {stray}"
    assert set(sites) == ASSERT_SITES, f"sites without an assert: {ASSERT_SITES - set(sites)}"


def test_every_exported_name_resolves():
    paths = glob.glob(os.path.join(SRC, "mfchern", "*.py"))
    layers = sorted(
        os.path.splitext(os.path.basename(p))[0] for p in paths if not p.endswith("__init__.py")
    )
    assert len(layers) == 8, layers
    missing = []
    for layer in layers:
        module = importlib.import_module(f"mfchern.{layer}")
        missing += [f"{layer}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"exported but not defined: {missing}"


# Exported names that nothing in src/ or benchmarks/ calls, and why they stay.
UNCALLED_EXPORTS = {
    "averaged_connection": "equivariant Chern character, ROADMAP item 3",
    "coinvariant_project": "equivariant Chern character, ROADMAP item 3",
    "fixed_locus": "equivariant Chern character, ROADMAP item 3",
    "twist_by_character": "equivariant Chern character, ROADMAP item 3",
    "check_mf": "checked entry point for a caller's factorization",
    "de_rham_d": "checked entry point for a caller's forms; a benchmark span source",
}


def _defined_names(stmt):
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return {(a.asname or a.name).split(".")[0] for a in stmt.names}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _referenced_names(stmt):
    """The names a statement reads: loaded names and attribute names.  An
    import binds a name without reading it, so a name only imported does not
    count; nor do strings, so neither a docstring nor an __all__ entry counts.
    An attribute is matched by its name alone, on any object, so the check is
    a lower bound: it catches an export that nothing names, not one whose name
    is only an unrelated attribute."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_exported_name_has_a_pipeline_caller():
    paths = sorted(
        glob.glob(os.path.join(SRC, "mfchern", "*.py"))
        + glob.glob(os.path.join(ROOT, "benchmarks", "*.py"))
    )
    exported = {}  # name -> the module file that exports it
    statements = []  # (file, names the statement binds, names it reads)
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for stmt in tree.body:
            defined = _defined_names(stmt)
            if "__all__" in defined and path.startswith(SRC):
                exported.update((name, path) for name in ast.literal_eval(stmt.value))
            statements.append((path, defined, _referenced_names(stmt)))
    assert len(exported) > 50, sorted(exported)
    uncalled = sorted(
        name
        for name, home in exported.items()
        if not any(
            name in reads and not (path == home and name in defined)
            for path, defined, reads in statements
        )
    )
    assert uncalled == sorted(UNCALLED_EXPORTS), (
        f"exported without a caller in src/ or benchmarks/: "
        f"{sorted(set(uncalled) - set(UNCALLED_EXPORTS))}; "
        f"listed as uncalled but called or not exported: "
        f"{sorted(set(UNCALLED_EXPORTS) - set(uncalled))}"
    )
