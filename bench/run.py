"""Closed-loop benchmark of the plstab command line, one workload per run.

    python3 bench/run.py --workload maps2d --seed 1 --seconds 30 --trace 0

One client in one thread calls ``plstab.cli.main(argv, out=StringIO)`` in
process, sending its next request when the previous one returns.  Requests
come in rounds of a fixed mix (``workloads.ROUNDS``); a run does a fixed
number of rounds for a given ``--seconds``, so every commit does the same
work.  It sends every request twice, in two passes, keeps the faster send,
and scales every timing by a reference loop timed next to it, because the
host's speed drifts (README.md).  Every output is checked by the
benchmark's own oracle and against the SHA-256 recorded in
``digests.json``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python3 bench/run.py --record-digests`` runs every catalogue instance once
and rewrites ``digests.json``; run it only on a commit whose outputs are
the reference.  See README.md for the workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(HERE, "digests.json")
# Set-ups per slot; there is a slot before the first pass and after each.
SETUP_REPS = 4
# Each request is sent once per pass and its latency is the fastest of its
# passes: the shared host slows whole stretches of seconds at a time.
PASSES = 2
# The host's speed also drifts by a third and more over minutes, as other
# work on it comes and goes.  So just before and just after every timed
# request and set-up the benchmark times reference_seconds(), a fixed loop
# that does not use plstab, and reports each timing scaled by REF_SECONDS
# over the median loop time around it (REF_WINDOW timings): the time it would
# have taken on the host at its quiet speed.  REF_SECONDS is about the
# loop's median time on the 2-core VM (Python 3.11) the benchmark was tuned
# on, when that host was quiet.  The unscaled timings are printed too.
REF_SECONDS = 0.0025
REF_WINDOW = 9

import spans  # noqa: E402  (the benchmark's own modules sit next to this file)
import workloads  # noqa: E402


class Result:
    __slots__ = ("kind", "index", "latency", "ref", "error", "known_defect", "digest",
                 "bytes_checked")

    def __init__(self, kind, index, latency, ref, error, known_defect, digest, bytes_checked):
        self.kind, self.index, self.latency, self.ref = kind, index, latency, ref
        self.error, self.known_defect = error, known_defect
        self.digest, self.bytes_checked = digest, bytes_checked


def reference_seconds():
    """Time of a fixed loop of exact arithmetic that does not use plstab."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for k in range(1, 500):
        s += Fraction(1, k) * Fraction(k + 1, k + 2)
    return time.perf_counter() - t0


def bracketed(run):
    """Call run(), which returns seconds; return those seconds and the mean
    time of the reference loop just before and just after, as Bench.call
    does for a request."""
    ref = reference_seconds()
    seconds = run()
    return seconds, (ref + reference_seconds()) / 2


def scaled(timings):
    """Scale each (seconds, ref) of a series in time order by REF_SECONDS
    over the median ref of the REF_WINDOW timings centred on it."""
    refs = [ref for _, ref in timings]
    half = REF_WINDOW // 2
    out = []
    for i, (seconds, _) in enumerate(timings):
        lo = min(max(i - half, 0), max(len(refs) - REF_WINDOW, 0))
        out.append(seconds * REF_SECONDS / statistics.median(refs[lo:lo + REF_WINDOW]))
    return out


def load_plstab():
    """Import plstab from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "plstab", "__init__.py")):
        raise SystemExit("bench: %s holds no plstab package" % SRC)
    sys.path.insert(0, SRC)
    import plstab.cli
    if os.path.dirname(os.path.abspath(plstab.cli.__file__)) != os.path.join(SRC, "plstab"):
        raise SystemExit("bench: imported plstab from %s, not from src/" % plstab.cli.__file__)
    return plstab.cli.main


def import_seconds():
    """Import time of plstab in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import plstab.cli; print(time.perf_counter() - t)" % SRC)
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def input_digest(inst):
    """SHA-256 over argv and the files it names, with paths relative to the
    instance directory so the digest does not depend on the checkout."""
    h = hashlib.sha256()
    for arg in inst.argv:
        paths = [arg] if os.path.isfile(arg) else []
        if os.path.isdir(arg):
            paths = [os.path.join(arg, n) for n in sorted(os.listdir(arg))]
        h.update(os.path.basename(arg).encode() + b"\0")
        for p in paths:
            with open(p, "rb") as fh:
                h.update(os.path.basename(p).encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


class Bench:
    def __init__(self, main, workload, digests):
        self.main = main
        self.workload = workload
        self.digests = digests.get(workload, {})
        self.catalogue = None
        self.verdicts = {}

    def setup(self, pairs, workdir):
        """Generate the input files of the (kind, instance) pairs a run will
        send and warm up; returns the seconds that took plus the import time
        of plstab."""
        shutil.rmtree(workdir, ignore_errors=True)
        imp = import_seconds()
        t0 = time.perf_counter()
        self.catalogue = workloads.Catalogue(self.workload, workdir)
        self.verdicts = {}
        for kind, index in sorted(set(pairs)):
            self.catalogue.get(kind, index)
        for kind in workloads.WARMUP[self.workload]:
            self.call(kind, 0)
        return imp + time.perf_counter() - t0

    def call(self, kind, index, tracer=None):
        """One request, timed from argv to return and bracketed by the
        reference loop; then its checks."""
        inst = self.catalogue.get(kind, index)
        out, err = io.StringIO(), io.StringIO()
        ref = reference_seconds()
        span = tracer.begin("request", request="%s/%d" % (kind, index)) if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = self.main(list(inst.argv), out=out)
            error = None
        except Exception as exc:  # a crash is a failed request; keep going
            code, error = None, "raised %s: %s" % (type(exc).__name__, exc)
        latency = time.perf_counter() - t0
        if span:
            tracer.end(span)
        ref = (ref + reference_seconds()) / 2
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if error is None:
            error = self.check(inst, (kind, index, code, digest), code, text)
        want = self.digests.get(kind, [None] * workloads.POOL)[index]
        bytes_checked = error is None and bool(want) and want["in"] == input_digest(inst)
        if bytes_checked and want["out"] != digest:
            error = "stdout differs from the recorded digest"
        return Result(kind, index, latency, ref, error, inst.known_defect, digest, bytes_checked)

    def check(self, inst, key, code, text):
        """The oracle's verdict on one output, None when it is right.  The
        same output of the same request gets the same verdict, so repeated
        passes are checked once."""
        if key not in self.verdicts:
            try:
                inst.check(code, text)
                self.verdicts[key] = None
            except Exception as exc:  # oracle.Bad, or output too broken to parse
                self.verdicts[key] = "%s: %s" % (type(exc).__name__, exc)
        return self.verdicts[key]

    def requests(self, seed, kinds_of_round):
        """Endless seeded stream of rounds of (kind, instance).  Each kind
        walks its own seeded permutation of the catalogue, so a run repeats
        no instance of a kind before it has used them all."""
        rng = random.Random(seed)
        offset = rng.randrange(3)
        order, uses = {}, {}
        malformed_slots = 0
        while True:
            batch = []
            for kind in kinds_of_round:
                if kind == "malformed":
                    kind = workloads.round_kind(kind, malformed_slots, offset)
                    malformed_slots += 1
                if kind not in order:
                    order[kind] = rng.sample(range(workloads.POOL), workloads.POOL)
                    uses[kind] = 0
                batch.append((kind, order[kind][uses[kind] % workloads.POOL]))
                uses[kind] += 1
            yield batch


def percentile_tail(lat):
    """Highest order statistic with at least ten samples beyond it; returns
    (value, percentile rank, samples)."""
    lat = sorted(lat)
    n = len(lat)
    k = max(n - 11, 0)
    return lat[k], 100.0 * (k + 1) / n, n


def timed_run(bench, plan, setup):
    """Set up SETUP_REPS times, then send every request of the plan once per
    pass and set up SETUP_REPS times again after each pass.  Passes
    alternate in direction, so the sends of one request lie far apart in
    time, and the set-ups are spread over the run, so one slow stretch of
    the host cannot skew them all.  Returns the results of all sends; per
    request that passed in every pass, its fastest scaled latency; and each
    set-up's (unscaled, scaled) seconds."""
    series = []  # (request position or None for a set-up, result, seconds, ref)

    def set_up():
        for _ in range(SETUP_REPS):
            series.append((None, None) + bracketed(setup))

    set_up()
    for p in range(PASSES):
        for j in (range(len(plan)) if p % 2 == 0 else reversed(range(len(plan)))):
            r = bench.call(*plan[j])
            series.append((j, r, r.latency, r.ref))
        set_up()
    best, ok, setups = [float("inf")] * len(plan), [True] * len(plan), []
    for (j, r, seconds, _), t in zip(series, scaled([(t, ref) for _, _, t, ref in series])):
        if j is None:
            setups.append((seconds, t))
        else:
            best[j] = min(best[j], t)
            ok[j] = ok[j] and r.error is None
    results = [r for j, r, _, _ in series if j is not None]
    return results, [t for t, good in zip(best, ok) if good], setups


def run_e2e(bench, seed, seconds, workdir):
    kinds = workloads.ROUNDS[bench.workload]
    rounds = max(1, round(seconds / workloads.ROUND_SECONDS))
    stream = bench.requests(seed, kinds)
    plan = [pair for _ in range(rounds) for pair in next(stream)]
    results, passed, setups = timed_run(
        bench, plan, lambda: bench.setup(plan, workdir))
    failed = sum(r.error is not None for r in results)
    tail, rank, n = percentile_tail(passed) if passed else (0.0, 0.0, 0)
    metrics = {
        "throughput_rps": (len(passed) / sum(passed) if passed else 0.0, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(passed) if passed else 0.0, "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = [r.latency for r in results if r.error is None]
    notes = ["rounds: %d of %d requests, %d passes each" % (rounds, len(kinds), PASSES),
             "latency_tail_ms is p%.1f over %d passed requests (10 beyond it)" % (rank, n),
             "failed_ratio: %d/%d = %.4f" % (failed, len(results), failed / len(results)),
             "setup_s runs: %s s scaled, %s s unscaled"
             % (" ".join("%.3f" % s for _, s in setups), " ".join("%.3f" % s for s, _ in setups)),
             "unscaled: median latency of passed sends %.1f ms; reference loop median %.2f ms"
             % (1000 * statistics.median(raw) if raw else 0.0,
                1000 * statistics.median(r.ref for r in results))]
    return results, metrics, notes + kind_table(results), None


def kind_table(results):
    """Sends and median unscaled latency per kind, slowest first."""
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(r.latency)
    rows = sorted(by_kind.items(), key=lambda kv: -statistics.median(kv[1]))
    return ["  %-22s %4d sends, median %9.1f ms unscaled" % (k, len(v), 1000 * statistics.median(v))
            for k, v in rows]


def run_traced(bench, seed, seconds, workdir):
    kinds = [workloads.round_kind(k, 0) for k in workloads.TRACE_SET[bench.workload]]
    rng = random.Random(seed)
    picks = [(k, rng.randrange(workloads.POOL)) for k in kinds]
    bench.setup(picks, workdir)
    results, plain, traced, layers = [], [], [], []
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair == 0 or time.perf_counter() < deadline:
        for use_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            tracer = spans.Tracer() if use_trace else None
            if tracer:
                tracer.install()
            try:
                rs = [bench.call(k, i, tracer) for k, i in picks]
            finally:
                if tracer:
                    tracer.uninstall()
            results += rs
            (traced if use_trace else plain).append(sum(r.latency for r in rs))
            if tracer:
                layers.append(spans.layer_metrics(tracer))
                last = tracer
        pair += 1
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        value = statistics.median(values) if name.endswith(("_s", "slope")) else values[0]
        metrics[name] = (value, metric_unit(name))
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    unsteady = [name for name in layers[0]
                if not name.endswith(("_s", "slope")) and len({m[name] for m in layers}) > 1]
    notes = ["traced pairs: %d; passes untraced %s s, traced %s s"
             % (pair, " ".join("%.3f" % t for t in plain), " ".join("%.3f" % t for t in traced))]
    if unsteady:
        notes.append("counts that changed between traced passes: %s" % ", ".join(unsteady))
    spans_path = os.path.join(WORK, "trace-%s-seed%d.json" % (bench.workload, seed))
    return results, metrics, notes, (spans_path, last.dump())


def metric_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("slope"):
        return "exponent"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def record_digests(main):
    """Run every catalogue instance once; keep the digests of those that pass."""
    out = {}
    for workload, kinds in workloads.KINDS.items():
        bench = Bench(main, workload, {})
        bench.catalogue = workloads.Catalogue(workload, os.path.join(WORK, "record", workload))
        out[workload] = {}
        for kind in sorted(kinds):
            rows = []
            for i in range(workloads.POOL):
                r = bench.call(kind, i)
                if r.error:
                    print("%s/%s/%d not recorded: %s" % (workload, kind, i, r.error), file=sys.stderr)
                rows.append(None if r.error else
                            {"in": input_digest(bench.catalogue.get(kind, i)), "out": r.digest})
            out[workload][kind] = rows
    shutil.rmtree(os.path.join(WORK, "record"), ignore_errors=True)
    with open(DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.KINDS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    plstab_main = load_plstab()
    if args.record_digests:
        record_digests(plstab_main)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    bench = Bench(plstab_main, args.workload, digests)
    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    runner = run_traced if args.trace else run_e2e
    try:
        results, metrics, notes, dump = runner(bench, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if dump:
        with open(dump[0], "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "request"], "spans": dump[1]}, fh)
        notes.append("spans written to %s" % os.path.relpath(dump[0], ROOT))
    failed = [r for r in results if r.error is not None]
    for name, (value, unit) in metrics.items():
        print("%-42s %14.6g %s" % (name, value, unit))
    notes.append("byte identity checked on %d of %d requests"
                 % (sum(r.bytes_checked for r in results), len(results)))
    for note in notes:
        print(note)
    for r in failed[:20]:
        tag = " [known defect: %s]" % r.known_defect if r.known_defect else ""
        print("FAILED %s/%d: %s%s" % (r.kind, r.index, r.error, tag))
    print(json.dumps({
        "correct": all(r.known_defect for r in failed),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
