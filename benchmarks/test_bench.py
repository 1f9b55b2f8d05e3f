"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _run_cli(job, work, out):
    import bdhit.cli

    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return bdhit.cli.main([*job.argv, "--out-dir", out])
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_declared_metric(trace, kind):
    report, info = run.run_workload("smoke", seed=3, seconds=0.1, trace=trace)
    assert report["correct"], info["failures"]
    assert report["failed"] == 0 and report["attempted"] >= 11
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    assert got == _declared(kind)
    if trace:
        # every job second is some layer's self time or the CLI's own
        assert abs(report["metrics"]["trace.unaccounted_s"]["value"]) < 0.05
        # 500 simulated paths plus verify's own 2000
        assert report["metrics"]["simulate.cdf_calls"]["value"] == 2500


def test_nan_row_and_wrong_value_count_as_failures(tmp_path):
    jobs = workloads.build("smoke", 5, str(tmp_path))
    job = next(j for j in jobs if j.check == "density")
    exp = checks.expected(job)
    assert _run_cli(job, str(tmp_path), "out") == 0
    path = tmp_path / "out" / "density.csv"
    assert checks.check(job, 0, str(path.parent), exp) is None
    good = path.read_text().splitlines()

    path.write_text("\n".join(good[:5] + [good[5].split(",")[0] + ",nan"] + good[6:]) + "\n")
    assert "NaN" in checks.check(job, 0, str(path.parent), exp)

    t, f = good[5].split(",")
    path.write_text("\n".join(good[:5] + [f"{t},{float(f) * (1 + 1e-6)!r}"] + good[6:]) + "\n")
    assert "off by" in checks.check(job, 0, str(path.parent), exp)

    path.unlink()
    assert "missing" in checks.check(job, 0, str(path.parent), exp)
    assert checks.check(job, 1, str(path.parent), exp) == "exit code 1"


def test_pass_that_writes_other_bytes_fails(tmp_path):
    jobs = [j for j in workloads.build("smoke", 5, str(tmp_path)) if j.check == "spectrum"]
    exp = [checks.expected(j) for j in jobs]
    for p in ("p0", "p1"):
        assert _run_cli(jobs[0], str(tmp_path), os.path.join(p, jobs[0].name)) == 0
    passes = [{"index": i, "jobs": [{"rc": 0, "error": None, "seconds": 0.1}]} for i in (0, 1)]
    assert run.judge(str(tmp_path), jobs, exp, passes) == [[None], [None]]
    with open(tmp_path / "p1" / jobs[0].name / "spectrum.csv", "a", encoding="utf-8") as fh:
        fh.write("1,1\n")
    assert run.judge(str(tmp_path), jobs, exp, passes)[1] == ["outputs differ from the first pass"]


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 11, str(tmp_path / "a" / name), known_failures=True)
        b = workloads.build(name, 11, str(tmp_path / "b" / name), known_failures=True)
        assert [j.argv for j in a] == [j.argv for j in b]
        files = sorted(os.listdir(tmp_path / "a" / name / workloads.INPUTS))
        assert files == sorted(os.listdir(tmp_path / "b" / name / workloads.INPUTS))
        for f in files:
            assert ((tmp_path / "a" / name / workloads.INPUTS / f).read_bytes()
                    == (tmp_path / "b" / name / workloads.INPUTS / f).read_bytes())
    assert len(workloads.build("recover", 11, str(tmp_path / "c"))) >= 100


def test_tracer_wraps_every_binding_and_restores_it():
    import bdhit.cli
    import bdhit.densities
    import bdhit.oracles
    import bdhit.spectral

    original = bdhit.densities.finite_evaluator
    rate_matrix = bdhit.oracles.interior_rate_matrix
    spec = bdhit.symmetric_rw_spec(1, 5)
    t = tracer.Tracer()
    with t.installed():
        assert bdhit.cli.finite_evaluator is not original
        assert bdhit.cli.finite_evaluator is bdhit.densities.finite_evaluator
        assert bdhit.spectral.interior_rate_matrix is not rate_matrix
        t.job(0, bdhit.densities.finite_evaluator, spec)
    assert bdhit.cli.finite_evaluator is original
    assert bdhit.densities.finite_evaluator is original
    assert bdhit.spectral.interior_rate_matrix is rate_matrix
    labels = [s[0] for s in t.spans]
    assert labels[0] == "cli" and "spectral.finite_spectrum" in labels
    assert "oracles.interior_rate_matrix" in labels
    parents = {s[0]: s[3] for s in t.spans}
    assert parents["densities.finite_evaluator"] == 0


def test_missing_sources_is_a_harness_error(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    with pytest.raises(run.HarnessError):
        run.run_workload("smoke", seed=1, seconds=0.1, trace=0)


def test_simulate_is_judged_by_its_own_ks_statistic(tmp_path):
    jobs = workloads.build("smoke", 5, str(tmp_path))
    job = next(j for j in jobs if j.check == "simulate")
    exp = checks.expected(job)
    assert _run_cli(job, str(tmp_path), "out") in (0, 2)
    out = tmp_path / "out"
    assert checks.check(job, 0, str(out), exp) is None

    summary = json.loads((out / "simulate_summary.json").read_text())
    summary["ks_statistic"] /= 2.0
    (out / "simulate_summary.json").write_text(json.dumps(summary))
    assert "recomputed" in checks.check(job, 0, str(out), exp)

    samples = out / "simulate_samples.csv"
    lines = samples.read_text().splitlines()
    samples.write_text("\n".join(lines[:1] + [repr(2.0 * float(x)) for x in lines[1:]]) + "\n")
    assert "KS statistic" in checks.check(job, 0, str(out), exp)
