"""Tests of the benchmark itself: its oracle, its certificate check, short
runs of every workload and the traced mode."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "tests"))

import layertrace  # noqa: E402
import oracles  # noqa: E402
import regoracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

lib = run.load_library()
import regsets as rs  # noqa: E402


def test_oracle_agrees_with_naive_enumeration():
    # every pair H <= A of every group of order <= 12, against enumerating
    # every connection set
    for G in rs.groups_up_to_16():
        if G.order > 12:
            continue
        T = regoracle.Table(G.mult)
        subs = [set(S.members) for S in rs.all_subgroups(G)]
        for H in subs:
            asets = [A for A in subs if H <= A]
            for A, naive in zip(asets, oracles.achievable_profiles(G, H, asets)):
                index = len(A) // len(H)
                if len(A) == G.order:  # s is vacuous: every s goes with r
                    naive = {(r, s) for r, _ in naive for s in range(index + 1)}
                got = regoracle.PairOracle(T, H, A).achievable()
                assert {tuple(p) for p in got} == set(naive), (G.label, H, A)


def _emitted(G, limit=6):
    """Certificates the program emits for pairs of G, as JSON records."""
    out = []
    for A in rs.all_subgroups(G):
        for H in rs.all_subgroups(G):
            if not H.is_subset_of(A) or H == A or A.order == G.order:
                continue
            pair = rs.PairSpec(G, H, A)
            for r, s in ((0, 1), (1, 2), (0, 2)):
                if r < pair.code_index and s <= pair.code_index:
                    cert = rs.decide_regular_set(pair, r, s)
                    if cert is not None:
                        out.append(cert.to_json_dict())
            if len(out) >= limit:
                return out
    return out


def _tampers(T, cert):
    H = frozenset(cert["H"])
    x = cert["double_coset_reps"][0]
    unit = T.double_coset(H, x) | T.double_coset(H, T.inv[x])
    index = len(cert["A"]) // len(cert["H"])
    yield "r", dict(cert, r=cert["r"] + 1 if cert["r"] + 1 < index else cert["r"] - 1)
    yield "s", dict(cert, s=cert["s"] + 1 if cert["s"] < index else cert["s"] - 1)
    yield "U", dict(cert, U=[u for u in cert["U"] if u not in unit])
    yield "X", dict(cert, X=[u for u in cert["X"] if u not in unit])
    yield "reps", dict(cert, double_coset_reps=cert["double_coset_reps"][1:])
    yield "order", dict(cert, group=dict(cert["group"], order=T.order + 1))


@pytest.mark.parametrize("spec", ["preset:symmetric:4", "preset:sl23", "preset:dihedral:12"])
def test_definition_check_accepts_emitted_and_rejects_tampers(spec):
    G = rs.group_from_arg(spec)
    T = regoracle.Table(G.mult)
    certs = _emitted(G)
    assert certs
    for cert in certs:
        assert workloads.record_holds(T, cert)
        for field, bad in _tampers(T, cert):
            assert not workloads.record_holds(T, bad), field


def test_dihedral_table_is_the_preset():
    assert workloads.dihedral_table(12) == [list(r) for r in rs.dihedral(12).mult]


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUPS", 1)


def test_short_survey_run():
    wl = workloads.Survey(lib, 3, None)
    wl.names = ("S4", "SL23")
    metrics, ops, info = run.end_to_end(wl, 0)
    assert info["rounds"] == 1 and len(ops) == 2
    assert sum(n for _, n, _ in ops) == 150 + 57
    assert sum(bad for _, _, bad in ops) == 0
    assert wl.check() == []
    assert set(metrics) == set(run.UNITS)


def test_times_are_reported_at_the_reference_speed(monkeypatch, tmp_path):
    # with every calibration block twice the reference, every reported time
    # is half the measured one
    monkeypatch.setattr(run, "calibration_block", lambda: 2 * run.CAL_REF_S)
    wl = workloads.Decide(lib, 5, tmp_path)
    metrics, ops, info = run.end_to_end(wl, 0)
    for name, measured in info["unscaled"].items():
        want = measured * 2 if name == "throughput_per_s" else measured / 2
        assert metrics[name]["value"] == pytest.approx(want)


def test_short_decide_run(tmp_path):
    wl = workloads.Decide(lib, 5, tmp_path)
    metrics, ops, info = run.end_to_end(wl, 0)
    assert info["rounds"] == 1
    assert len(ops) == len(workloads.DECIDE_ROUND) + 4 * 3  # 4 conjugates, 3 profiles
    assert sum(bad for _, _, bad in ops) == 0
    assert wl.check() == []
    answers = {code for code, _ in wl.outputs}
    assert answers == {0, 1}  # present and absent answers both occur


def test_short_verify_run(tmp_path):
    wl = workloads.Verify(lib, 7, tmp_path / "work")
    try:
        metrics, ops, info = run.end_to_end(wl, 0)
        assert info["rounds"] == 1
        certs = len(workloads.VERIFY_CERTS)
        assert len(ops) == 4 * certs + len(workloads.MALFORMED)
        # the malformed certificates crash the verifier today
        assert sum(bad for _, _, bad in ops) == len(workloads.MALFORMED)
        assert wl.check() == []
        assert sorted(wl.outputs[:4]) == [0, 1, 1, 1]
    finally:
        wl.close()
    assert not (tmp_path / "work").exists()


def test_traced_run_reports_every_layer(tmp_path):
    wl = workloads.Decide(lib, 2, tmp_path)
    wl.trace_rounds = 1
    metrics, ops, info = run.traced(wl)
    assert wl.check() == []
    assert info["missing"] == []
    assert list(metrics) == layertrace.metric_names()
    assert metrics["cli.main.calls"]["value"] == len(ops)
    assert metrics["group_core.all_subgroups.calls"]["value"] == len(wl.names)
    # wrappers are gone afterwards
    assert lib.cli.main.__module__ == "regsets.cli"
    assert not hasattr(rs.GroupTable.__init__, "__wrapped__")


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert all(m["unit"] == run.UNITS[m["name"]] for m in spec["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == layertrace.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_length_defaults_to_benchmark_json(monkeypatch):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seen = {}
    monkeypatch.setattr(run, "run_one", lambda args: seen.setdefault("seconds", args.seconds))
    run.main(["--workload", "decide"])
    assert seen["seconds"] == spec["run_seconds"]
