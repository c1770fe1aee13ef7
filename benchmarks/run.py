"""Benchmark of mfchern: time to a verified exact Chern character.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, closed loop: each job starts when the previous one
and its checks have ended.  The seed fixes a pool of job inputs, which jobs
cycle through.  Every job is checked (see Checker): against a reference
outside the timed code path, against the verified output of its input, and,
at the frozen seed, against the committed digest of its canonical output
strings.  A wrong answer, a digest mismatch or an exception counts as a
failed job.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
it measures untraced and traced throughput, reports per-layer spans and call
counts per job (see spans.py), and times a size sweep.  The last line of
standard output is one JSON object; the lines before it are a readable table.

mfchern is imported from ``src/`` next to this directory and nowhere else;
without it the run exits with status 2 and prints no result.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
SWEEP_REPEATS = 3
REFERENCE_ITERATIONS = 1500
FROZEN_PATH = os.path.join(HERE, "frozen_outputs.json")

# Per-layer metrics, per job of the traced phase.  A name ending in ".calls"
# counts calls of the span, ".s" is the span's inclusive time, and
# "<layer>.self_s" the layer's self time; any other name is a count observed
# at a span boundary (see spans.OBSERVERS).
SPAN_METRICS = {
    "rings.self_s": "rings",
    "rings.LocalFrac.new.calls": "rings.LocalFrac.__init__",
    "rings.ScalarPoly.mul.calls": "rings.ScalarPoly.__mul__",
    "rings.divide_exact.calls": "rings.ScalarPoly.divide_exact",
    "rings.QLinearSystem.solve.s": "rings.QLinearSystem.solve",
    "rings.QLinearSystem.add_row.calls": "rings.QLinearSystem.add_row",
    "rings.QLinearSystem.solve.ncols": None,
    "forms.self_s": "forms",
    "forms.wedge.calls": "forms.wedge",
    "forms.de_rham_d.calls": "forms.de_rham_d",
    "forms.pullback.calls": "forms.pullback",
    "geometry.self_s": "geometry",
    "geometry.build_scheme.s": "geometry.build_scheme",
    "geometry.restriction.calls": "geometry.CoveredScheme.restriction",
    "geometry.reroot.calls": "geometry.reroot",
    "mf.self_s": "mf",
    "mf.koszul_mf.s": "mf.koszul_mf",
    "mf.invert_matrix.calls": "mf.invert_matrix",
    "connection.self_s": "connection",
    "connection.total_curvature.s": "connection.total_curvature",
    "connection.total_curvature.calls": "connection.total_curvature",
    "cech.self_s": "cech",
    "cech.acw_product.s": "cech.acw_product",
    "cech.acw_product.calls": "cech.acw_product",
    "cech.transport.calls": "cech.CechCochain.transport",
    "cech.cech_differential.calls": "cech.cech_differential",
    "hochschild.self_s": "hochschild",
    "hochschild.is_zero.s": "hochschild.HochschildChain.is_zero",
    "hochschild.is_zero.strings": None,
    "hochschild.hochschild_b.s": "hochschild.hochschild_b",
    "hochschild.connes_B.s": "hochschild.connes_B",
    "hochschild.eta_pi.s": "hochschild.eta_pi",
    "hochschild.tr_nabla.s": "hochschild.tr_nabla",
    "hochschild.tr_nabla.calls": "hochschild.tr_nabla",
    "cohomology.self_s": "cohomology",
    "cohomology.cohomologous.s": "cohomology.cohomologous",
    "cohomology.cohomologous.found": None,
    "cohomology.cohomologous.undecided": None,
    "cohomology.total_differential.s": "cohomology.total_differential",
}
SWEEP_U = (2, 3, 4, 5)
SWEEP_N = (1, 2, 3, 4)


def import_api():
    """The eight mfchern layer modules, imported from src/."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    api = types.SimpleNamespace(
        **{layer: importlib.import_module(f"mfchern.{layer}") for layer in spans.LAYERS}
    )
    if os.path.dirname(os.path.dirname(os.path.abspath(api.rings.__file__))) != SRC:
        raise ImportError(f"mfchern was not imported from {SRC}")
    return api


def load_api():
    """import_api() after dropping mfchern from the module cache, so that each
    set-up repetition pays for the import again."""
    for name in [m for m in sys.modules if m == "mfchern" or m.startswith("mfchern.")]:
        del sys.modules[name]
    return import_api()


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q percent
    of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100 * n))


def output_digest(texts):
    return hashlib.sha256("\n\0".join(texts).encode()).hexdigest()


def input_digest(pool):
    return hashlib.sha256(repr(pool).encode()).hexdigest()


def load_frozen(workload, seed):
    """The committed output digests of the workload's pool, or None when the
    seed is not the frozen one."""
    with open(FROZEN_PATH) as fh:
        frozen = json.load(fh)
    return frozen["workloads"][workload.name] if seed == frozen["seed"] else None


class Checker:
    """Checks jobs and counts failures.  The first job of each pool input in a
    run is checked against the workload's reference; later jobs of that input
    must reproduce its verified output exactly, compared by digest.  At the
    frozen seed every job must also match the committed digest."""

    def __init__(self, workload, frozen):
        self.workload = workload
        self.frozen = frozen
        self.verified = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def problems(self, api, index, spec, out):
        digest = output_digest(self.workload.outputs(out))
        if index not in self.verified:
            problems = self.workload.check(api, spec, out)
        elif digest != self.verified[index]:
            problems = ["output differs from the verified output of the same input"]
        else:
            problems = []
        if self.frozen is not None and digest != self.frozen[index]:
            problems.append("canonical output differs from the frozen digest")
        if not problems:
            self.verified.setdefault(index, digest)
        return problems

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"job {self.attempted}: " + "; ".join(problems))
        return not problems


def reference_loop():
    """Fixed pure-Python work of the kind mfchern spends its time on, Fraction
    arithmetic and tuple-keyed dict updates, with no mfchern code in it."""
    acc = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 5 + 1, i % 3 + 1) * Fraction(2, 3)
    return acc


def wall_time(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_job(api, index, spec, checker, rec=None):
    """One job: collect garbage, time the computation between two timings of
    the reference loop, then check it.  Returns the job's wall time, whether
    it passed its checks, and the mean reference loop time around it."""
    gc.collect()
    reference = wall_time(reference_loop)
    try:
        if rec is not None:
            rec.active = True
        start = time.perf_counter()
        try:
            out = checker.workload.run(api, spec)
        finally:
            elapsed = time.perf_counter() - start
            if rec is not None:
                rec.active = False
            reference = (reference + wall_time(reference_loop)) / 2
        problems = checker.problems(api, index, spec, out)
    except Exception as exc:  # a crash is a failed job, never a lost run
        problems = [f"{type(exc).__name__}: {exc}"]
    return elapsed, checker.record(problems), reference


def timed_phase(api, pool, checker, seconds, rec=None, whole_pools=False):
    """Closed loop over the pool for the given time, at least one job.  With
    whole_pools the loop stops only after a complete pass, so that per-job
    counts repeat.  Returns (pool index, wall time, passed, reference loop
    time) for every job, and the phase's wall time."""
    jobs = []
    start = time.perf_counter()
    while (not jobs or time.perf_counter() - start < seconds
           or (whole_pools and len(jobs) % POOL_SIZE)):
        index = len(jobs) % POOL_SIZE
        jobs.append((index, *run_job(api, index, pool[index], checker, rec)))
    return jobs, time.perf_counter() - start


def setup(checker, seed, process_start):
    """Import mfchern, build the inputs and run one warm-up job, several
    times; setup_s is the median.  The first repetition counts from process
    start; the warm-up job is checked, but its check is not counted.  The
    last repetition's modules are kept."""
    durations = []
    for rep in range(SETUP_REPEATS):
        start = process_start if rep == 0 else time.perf_counter()
        api = load_api()
        pool = checker.workload.make_inputs(seed)
        ready = time.perf_counter()
        elapsed, _ok, _reference = run_job(api, 0, pool[0], checker)
        durations.append(ready - start + elapsed)
    return api, pool, statistics.median(durations)


def _median_time(fn):
    times = []
    for _ in range(SWEEP_REPEATS):
        gc.collect()
        times.append(wall_time(fn))
    return statistics.median(times)


def sweep(api):
    """Untraced stage timings by size: the Hochschild zero test on the
    eta_pi cycle for u = 2..5, and the Koszul factorization of sum x_i^2 on
    A^n with its exp_neg and trace for n = 1..4."""
    out = {}
    for u in SWEEP_U:
        retract = workloads.eta_retract(api, Fraction(1), u)
        image = workloads.cycle_image(api, api.hochschild.eta_pi(retract, u))
        out[f"sweep.is_zero.u{u}.s"] = _median_time(image.is_zero)
    ones = (Fraction(1),) * len(SWEEP_N)
    for n in SWEEP_N:
        variables = workloads.KOSZUL_VARS[:n]
        sch = api.geometry.build_scheme(workloads.koszul_config(ones[:n], variables))
        a = [[v] for v in variables]
        out[f"sweep.koszul_mf.n{n}.s"] = _median_time(lambda: api.mf.koszul_mf(sch, a, a))
        P = api.mf.koszul_mf(sch, a, a)
        conn = api.connection.default_connection(P)
        trunc = n + 2
        R = api.connection.total_curvature(P, conn, with_u=True, u_truncation=trunc).cochain()
        out[f"sweep.exp_neg.n{n}.s"] = _median_time(lambda: api.cech.exp_neg(R))
        out[f"sweep.tr_nabla.n{n}.s"] = _median_time(
            lambda: workloads.trace_of_identity(api, P, conn, trunc)
        )
    return out


def end_to_end(jobs, setup_s):
    """The metrics BENCHMARK.json gates.  A job's time is given in units of
    the reference loop timed around it: the host's speed drifts by up to 1.9x
    over seconds and minutes, which moves single job times by as much, while
    job time over reference time stays within a few percent."""
    cal = [elapsed / reference for _i, elapsed, _ok, reference in jobs]
    return {
        "setup_s": (setup_s, "s"),
        "job_cal.p50": (statistics.median(cal), "cal"),
        "job_cal.p90": (percentile(cal, 90), "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def wall_statistics(jobs, wall):
    """Job times in seconds, printed for reading but not gated."""
    times = [elapsed for _i, elapsed, _ok, _ref in jobs]
    return {
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.p90": (percentile(times, 90), "s"),
        "jobs_per_s": (sum(ok for _i, _e, ok, _ref in jobs) / wall, "1/s"),
        "reference_s.p50": (statistics.median(ref for *_rest, ref in jobs), "s"),
    }


def per_layer(rec, jobs, overhead, sweep_times):
    out = {}
    for name, source in SPAN_METRICS.items():
        if source is None:
            value = rec.counters[name]
        elif name.endswith(".self_s"):
            value = rec.self_time[source]
        elif name.endswith(".calls"):
            value = rec.calls[source]
        else:
            value = rec.inclusive[source]
        out[name] = (value / jobs, "s" if name.endswith((".s", ".self_s")) else "count")
    out["trace.overhead"] = (overhead, "ratio")
    out.update({name: (t, "s") for name, t in sweep_times.items()})
    return out


def main(argv=None):
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mfchern", "__init__.py")):
        print(f"mfchern sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    checker = Checker(workload, load_frozen(workload, args.seed))
    api, pool, setup_s = setup(checker, args.seed, process_start)

    if args.trace == 0:
        jobs, wall = timed_phase(api, pool, checker, args.seconds)
        metrics = end_to_end(jobs, setup_s)
        readable = {**metrics, **wall_statistics(jobs, wall)}
    else:
        # Tracing overhead compares job rates of an untraced and a traced
        # phase of equal length; the sweep runs untraced after both.
        jobs, wall = timed_phase(api, pool, checker, 0.3 * args.seconds)
        untraced_rate = len(jobs) / wall
        rec = spans.Recorder()
        saved = spans.install(rec, api)
        try:
            jobs, wall = timed_phase(api, pool, checker, 0.3 * args.seconds, rec, whole_pools=True)
        finally:
            spans.uninstall(saved)
        metrics = per_layer(rec, len(jobs), untraced_rate / (len(jobs) / wall), sweep(api))
        readable = metrics

    print(f"workload {workload.name}  seed {args.seed}  inputs sha256 {input_digest(pool)}")
    checked = "checked" if checker.frozen is not None else "not checked (seed differs)"
    print(f"frozen digests {checked}")
    for name, (value, unit) in readable.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={len(jobs)}")
    if args.trace == 0:
        print(f"  {'samples beyond the p90':<40} {beyond(len(jobs), 90):>14d}")
    print(f"  {'fail_ratio':<40} {checker.failed / checker.attempted:>14.6g} "
          f"{'1':<6} n={checker.attempted}")
    for message in checker.messages:
        print(f"  FAILED {message}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
