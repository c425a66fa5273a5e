from fraglang import cli, sweeps
from fraglang.generate import enumerate_terms
from fraglang.surface import render
from fraglang.sweeps import (
    driver_sweep,
    oracle_sweep,
    preservation_sweep,
    sweep,
    trace_sweep,
)

ALL_CHECKS = {
    "driver": driver_sweep,
    "preservation": preservation_sweep,
    "oracle-equivalence": oracle_sweep,
    "trace-equivalence": trace_sweep,
}


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_selftest_enumerates_its_population_once(monkeypatch, capsys):
    calls = _counting(monkeypatch, cli, "enumerate_terms")
    assert cli.main(["selftest", "--depth", "1"]) == 0
    assert len(calls) == 1
    assert len(capsys.readouterr().out.splitlines()) == 5


def test_engine_infers_once_per_term(monkeypatch):
    terms = list(enumerate_terms(1))
    calls = _counting(monkeypatch, sweeps, "infer")
    reports = sweep(terms, ALL_CHECKS)
    assert [call[0] for call in calls] == terms
    assert [r.name for r in reports] == list(ALL_CHECKS)
    assert all(r.ok and r.checked == len(terms) for r in reports), [r.line() for r in reports]


def test_failing_check_reports_ten_offenders():
    terms = list(enumerate_terms(1))
    (report,) = sweep(terms, {"always": lambda t, typed, stepped: ["refuted"]})
    assert not report.ok
    assert report.exercised == report.checked == len(terms)
    assert report.offenders == [f"{render(t)}: refuted" for t in terms[:10]]
    assert report.line() == (
        f"FAIL always: {len(terms)}/{len(terms)} terms exercised; first offenders: "
        + "; ".join(report.offenders)
    )


def test_exercised_counts_only_terms_a_check_takes_up():
    terms = list(enumerate_terms(1))
    typed_only = lambda t, typed, stepped: None if typed is None else []
    (report,) = sweep(terms, {"typed": typed_only})
    assert report.ok
    assert report.checked == len(terms)
    assert report.exercised == sum(1 for t in terms if sweeps.infer(t) is not None)
    assert 0 < report.exercised < report.checked


def test_every_check_sees_the_engines_results():
    seen = []
    (report,) = sweep(enumerate_terms(0), {"spy": lambda *args: seen.append(args) or []})
    assert report.ok
    assert seen == [(t, sweeps.infer(t), sweeps.drive_step(t)) for t in enumerate_terms(0)]
