"""Tests of the benchmark itself; no timing gates.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import gen
import oracle
import run
import spans
import workloads

MAIN = run.load_plstab()


def _files(root):
    out = {}
    for d, _, names in os.walk(root):
        for n in names:
            with open(os.path.join(d, n), "rb") as fh:
                out[os.path.relpath(os.path.join(d, n), root)] = fh.read()
    return out


def _output(inst):
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = MAIN(list(inst.argv), out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", sorted(workloads.KINDS))
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    kinds = sorted(workloads.KINDS[workload])
    for name in ("a", "b"):
        cat = workloads.Catalogue(workload, str(tmp_path / name))
        for kind in kinds:
            for i in range(3):
                cat.get(kind, i)
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a and a == b
    bench = run.Bench(MAIN, workload, {})
    rounds = workloads.ROUNDS[workload]
    s1, s2 = bench.requests(7, rounds), bench.requests(7, rounds)
    assert [next(s1) for _ in range(3)] == [next(s2) for _ in range(3)]
    assert next(bench.requests(8, rounds)) != next(bench.requests(7, rounds))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_grid_maps_keep_orientation(n):
    tris = gen.grid_triangles(n)
    for seed in range(50):
        rng = random.Random(seed)
        everything = gen.move_vertices(rng, n, set(gen.interior_vertices(n)))
        half, _ = gen.grid_map(rng, n)
        for images in (everything, half):
            assert all(oracle.area2(*(images[v] for v in t)) > 0 for t in tris)


def test_generated_action_maps_keep_orientation(tmp_path):
    """Every .pm file any 2D kind writes has positively oriented images."""
    for workload in ("maps2d", "certify_actions"):
        cat = workloads.Catalogue(workload, str(tmp_path / workload))
        for kind in workloads.KINDS[workload]:
            if not kind.startswith("malformed"):
                cat.get(kind, 0)
        for d, _, names in os.walk(tmp_path / workload):
            for name in names:
                if name.endswith(".pm"):
                    with open(os.path.join(d, name)) as fh:
                        pts, tris, imgs = oracle.parse_pm(fh.read())
                    assert all(oracle.area2(*(imgs[v] for v in t)) > 0 for t in tris)


def _corrupt(text, prefix=""):
    """Lower the last nonzero digit of the last line starting with prefix."""
    lines = text.split("\n")
    k = max(i for i, ln in enumerate(lines) if ln.startswith(prefix) and any(c in "123456789" for c in ln))
    ln = lines[k]
    j = max(i for i, c in enumerate(ln) if c in "123456789")
    lines[k] = ln[:j] + str(int(ln[j]) - 1) + ln[j + 1:]
    return "\n".join(lines)


# (workload, kind, the line whose last digit is changed); an empty prefix
# picks the last line with a nonzero digit
CORRUPTIBLE = [("maps2d", "compose3", ""), ("maps2d", "invert3", ""), ("maps2d", "fixset3", "v "),
               ("maps2d", "eval3", ""), ("maps2d", "overlay", ""),
               ("certify_actions", "fixed4", "witness:"), ("certify_actions", "tangent4", ""),
               ("certify_actions", "fixed3", "witness:"), ("certify_actions", "tangent3", ""),
               ("certify_actions", "tangent_gate4", ""), ("circle1d", "rotno_small", ""),
               ("circle1d", "compose1d", ""), ("circle1d", "invert1d", ""),
               ("circle1d", "eval1d", ""), ("circle1d", "abelianize", ""),
               ("circle1d", "analyze_circle", "")]


@pytest.mark.parametrize("workload,kind,prefix", CORRUPTIBLE)
def test_oracle_rejects_corrupted_output(tmp_path, workload, kind, prefix):
    inst = workloads.Catalogue(workload, str(tmp_path)).get(kind, 1)
    code, out = _output(inst)
    inst.check(code, out)
    with pytest.raises(oracle.Bad):
        inst.check(code, _corrupt(out, prefix))


def test_corrupted_request_counts_as_failed(tmp_path):
    bench = run.Bench(lambda argv, out: out.write("0 0\n") and 0, "maps2d", {})
    bench.catalogue = workloads.Catalogue("maps2d", str(tmp_path))
    r = bench.call("eval3", 0)
    assert r.error and not r.known_defect


def test_digest_mismatch_counts_as_failed(tmp_path):
    cat = workloads.Catalogue("circle1d", str(tmp_path))
    inst = cat.get("eval1d", 0)
    rows = [None] * workloads.POOL
    rows[0] = {"in": run.input_digest(inst), "out": "0" * 64}
    bench = run.Bench(MAIN, "circle1d", {"circle1d": {"eval1d": rows}})
    bench.catalogue = cat
    assert bench.call("eval1d", 0).error == "stdout differs from the recorded digest"
    rows[0] = None
    assert bench.call("eval1d", 0).error is None


def test_exceptions_are_caught_and_the_defect_is_tagged(tmp_path):
    def crash(argv, out):
        raise IndexError("list index out of range")
    bench = run.Bench(crash, "certify_actions", {})
    bench.catalogue = workloads.Catalogue("certify_actions", str(tmp_path))
    r = bench.call("malformed_bare-img", 0)
    assert r.error.startswith("raised IndexError") and r.known_defect
    r = bench.call("malformed_truncated", 0)
    assert r.error.startswith("raised IndexError") and not r.known_defect


def test_passes_keep_the_fastest_and_drop_failures(monkeypatch):
    monkeypatch.setattr(run, "PASSES", 3)
    monkeypatch.setattr(run, "SETUP_REPS", 3)
    monkeypatch.setattr(run, "reference_seconds", lambda: run.REF_SECONDS)
    latency = {("a", 0): [0.3, 0.1, 0.2], ("b", 0): [0.5, 0.4, 0.6], ("c", 0): [0.1, 0.1, 0.1]}
    sent = []

    class Fake:
        def call(self, kind, index):
            sent.append(kind)
            lat = latency[(kind, index)][sum(k == kind for k in sent) - 1]
            error = "wrong" if kind == "c" and len(sent) > 3 else None
            return run.Result(kind, index, lat, run.REF_SECONDS, error, None, "", False)

    setup = []

    def set_up():
        setup.append(len(sent))
        return 1.0

    results, best, setups = run.timed_run(Fake(), [("a", 0), ("b", 0), ("c", 0)], set_up)
    assert sent == ["a", "b", "c", "c", "b", "a", "a", "b", "c"]
    assert len(results) == 9 and sum(r.error is not None for r in results) == 2
    assert best == [0.1, 0.4]
    assert setup == [0, 0, 0, 3, 3, 3, 6, 6, 6, 9, 9, 9]
    assert setups == [(1.0, 1.0)] * 12


def test_each_output_is_checked_once(tmp_path):
    bench = run.Bench(MAIN, "circle1d", {})
    bench.catalogue = workloads.Catalogue("circle1d", str(tmp_path))
    inst = bench.catalogue.get("eval1d", 0)
    checks = []
    check = inst.check
    inst.check = lambda code, out: checks.append(out) or check(code, out)
    assert bench.call("eval1d", 0).error is None and bench.call("eval1d", 0).error is None
    assert len(checks) == 1


def test_invariant_factors_of_diagonal():
    assert oracle.invariant_factors([2, 3, 0, 1]) == [6, 0]
    assert oracle.invariant_factors([4, 6, 9]) == [6, 36]
    assert oracle.invariant_factors([1, 1]) == []


class _S:
    def __init__(self, start, end, parent):
        self.start, self.end, self.parent = start, end, parent


def test_self_time_on_synthetic_tree():
    tree = [_S(0.0, 10.0, None),   # root: children cover 2-5 and 6-9
            _S(2.0, 5.0, 0),       # child: grandchild covers 3-4
            _S(3.0, 4.0, 1),
            _S(6.0, 9.0, 0),
            _S(12.0, 13.0, None)]  # a second root without children
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 3.0, 1.0])


def test_slope_fit():
    assert spans.slope([(18, 1.0), (72, 16.0)]) == pytest.approx(2.0)
    assert spans.slope([(18, 1.0), (18, 2.0)]) == 0.0


def test_tracer_counts_and_restores(tmp_path):
    import plstab.geometry
    import plstab.plmap
    before = (plstab.plmap.orient2, plstab.plmap.PLMap.__dict__["eval"], plstab.geometry.orient2)
    inst = workloads.Catalogue("maps2d", str(tmp_path)).get("eval3", 0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        bench = run.Bench(MAIN, "maps2d", {})
        bench.catalogue = workloads.Catalogue("maps2d", str(tmp_path))
        assert bench.call("eval3", 0, tracer).error is None
    finally:
        tracer.uninstall()
    after = (plstab.plmap.orient2, plstab.plmap.PLMap.__dict__["eval"], plstab.geometry.orient2)
    assert after == before
    m = spans.layer_metrics(tracer)
    assert m["plmap.PLMap.eval.calls"] == 1 and m["plmap.PLMap.calls"] == 1
    assert m["geometry.orient2.calls"] > 0 and m["cli.load.self_s"] > 0
    assert [s.name for s in tracer.spans if s.parent is None] == ["request"]
    assert inst.argv == bench.catalogue.get("eval3", 0).argv


@pytest.mark.parametrize("trace_flag", ["0", "1"])
def test_smoke_run(monkeypatch, capsys, trace_flag):
    monkeypatch.setitem(workloads.ROUNDS, "circle1d", ["eval1d", "abelianize"])
    monkeypatch.setitem(workloads.TRACE_SET, "circle1d", ["eval1d", "compose1d", "rotno_small"])
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    code = run.main(["--workload", "circle1d", "--seed", "3", "--seconds", "0", "--trace", trace_flag])
    assert code == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = spec["per_layer" if trace_flag == "1" else "end_to_end"]
    assert sorted(doc["metrics"]) == sorted(m["name"] for m in want)
    for m in want:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "circle1d", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
