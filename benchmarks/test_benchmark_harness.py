"""Tests of the benchmark harness itself: statistics, span accounting,
failure counting and repeatability.  They reuse the already imported mfchern
modules and never reload them."""

import json
import os

import pytest

import run
import spans
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def api():
    return run.import_api()


def test_nearest_rank_percentiles():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.beyond(100, 90) == 10
    assert run.beyond(99, 90) == 9
    assert run.beyond(110, 90) == 11
    assert run.percentile([7.0], 90) == 7.0
    assert run.beyond(1, 90) == 0
    assert run.percentile([3.0, 1.0, 2.0], 90) == 3.0


def test_job_times_in_reference_units():
    jobs = [(0, 0.5, True, 0.1), (1, 0.4, True, 0.2), (2, 0.3, False, 0.1), (3, 0.2, True, 0.1)]
    metrics = run.end_to_end(jobs, 1.0)
    assert metrics["job_cal.p50"] == (2.5, "cal")
    assert metrics["job_cal.p90"] == (5.0, "cal")
    readable = run.wall_statistics(jobs, 2.0)
    assert readable["jobs_per_s"] == (1.5, "1/s")
    assert readable["job_s.p50"] == (0.35, "s")
    assert readable["reference_s.p50"] == (0.1, "s")


def test_self_time_of_nested_spans():
    ticks = iter([0, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    rec = spans.Recorder(clock=lambda: next(ticks))
    outer = rec.enter("cech.acw_product")  # 0 .. 10
    a = rec.enter("rings.LocalFrac.__init__")  # 2 .. 5
    b = rec.enter("rings.ScalarPoly.__mul__")  # 3 .. 4
    rec.exit("rings.ScalarPoly.__mul__", b)
    rec.exit("rings.LocalFrac.__init__", a)
    c = rec.enter("cech.CechCochain.transport")  # 6 .. 9
    d = rec.enter("cech.CechCochain.transport")  # 7 .. 8, recursive
    rec.exit("cech.CechCochain.transport", d)
    rec.exit("cech.CechCochain.transport", c)
    rec.exit("cech.acw_product", outer)
    assert rec.self_time == {"cech": 4 + 2 + 1, "rings": 2 + 1}
    assert rec.inclusive["cech.acw_product"] == 10
    assert rec.inclusive["cech.CechCochain.transport"] == 3
    assert rec.calls["cech.CechCochain.transport"] == 2
    assert rec.inclusive["rings.LocalFrac.__init__"] == 3


def test_install_wraps_names_imported_elsewhere(api):
    original = api.forms.pullback
    saved = spans.install(spans.Recorder(), api)
    try:
        assert api.forms.pullback is not original
        assert api.cech.pullback is api.forms.pullback
        assert api.mf.acw_product is api.cech.acw_product
    finally:
        spans.uninstall(saved)
    assert api.forms.pullback is original and api.cech.pullback is original


def test_wrong_answer_digest_and_crash_count_as_failures(api, monkeypatch):
    workload = WORKLOADS["koszul_affine"]
    spec = workload.make_inputs(5)[0]
    real = api.hochschild.tr_nabla
    checker = run.Checker(workload, None)
    monkeypatch.setattr(api.hochschild, "tr_nabla", lambda x, c: real(x, c).scale(2))
    assert not run.run_job(api, 0, spec, checker)[1]  # caught by the reference
    monkeypatch.setattr(api.hochschild, "tr_nabla", real)
    assert run.run_job(api, 0, spec, checker)[1]
    monkeypatch.setattr(api.hochschild, "tr_nabla", lambda x, c: real(x, c).scale(2))
    assert not run.run_job(api, 0, spec, checker)[1]  # differs from the verified output
    monkeypatch.setattr(api.hochschild, "tr_nabla", lambda x, c: 1 / 0)
    assert not run.run_job(api, 0, spec, checker)[1]
    assert (checker.attempted, checker.failed) == (4, 3)
    assert "supertrace" in checker.messages[0]
    assert "verified output" in checker.messages[1]
    assert "ZeroDivisionError" in checker.messages[2]
    monkeypatch.setattr(api.hochschild, "tr_nabla", real)
    frozen = run.Checker(workload, ["not the digest"] * 6)
    assert not run.run_job(api, 0, spec, frozen)[1]
    assert "frozen digest" in frozen.messages[0]


def test_same_seed_same_inputs_and_call_counts(api):
    for workload in WORKLOADS.values():
        assert run.input_digest(workload.make_inputs(3)) == run.input_digest(
            workload.make_inputs(3)
        )
        assert run.input_digest(workload.make_inputs(3)) != run.input_digest(
            workload.make_inputs(4)
        )
    workload = WORKLOADS["projective_chern"]
    spec = workload.make_inputs(3)[0]
    counts = []
    for _ in range(2):
        rec = spans.Recorder()
        saved = spans.install(rec, api)
        try:
            assert run.run_job(api, 0, spec, run.Checker(workload, None), rec)[1]
        finally:
            spans.uninstall(saved)
        counts.append((dict(rec.calls), dict(rec.counters)))
    assert counts[0] == counts[1]
    assert counts[0][1]["cohomology.cohomologous.found"] == 2


def test_reported_metrics_match_the_benchmark_definition():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = run.end_to_end([(0, 0.2, True, 0.1), (1, 0.3, True, 0.1)], 0.5)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _v, unit in e2e.values()]
    layer = run.per_layer(spans.Recorder(), 1, 1.0, {})
    sweep_names = [f"sweep.is_zero.u{u}.s" for u in run.SWEEP_U] + [
        f"sweep.{stage}.n{n}.s" for n in run.SWEEP_N
        for stage in ("koszul_mf", "exp_neg", "tr_nabla")
    ]
    assert [m["name"] for m in spec["per_layer"]] == list(layer) + sweep_names
    assert [(m["name"], m["why"]) for m in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_missing_sources_exit_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "eta_cycle", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_pool_shape_does_not_depend_on_the_seed():
    for seed in (1, 9):
        pool = WORKLOADS["projective_chern"].make_inputs(seed)
        assert sorted(spec["n"] for spec in pool) == [1, 1, 2, 2, 3, 3]
        for spec in WORKLOADS["koszul_affine"].make_inputs(seed):
            assert all(spec["c"]) and all(spec["connection"][0][1])
