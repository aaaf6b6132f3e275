"""Benchmark for qskein: cold-process workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is verify-default, cli-session, chord-lifts or all (the default).
Each pass runs the whole workload in a fresh process (perfbench/worker.py)
that imports qskein from src/ of the checkout, so memo tables are shared
only between the items of one pass.  Passes repeat until S seconds of passes
have run; every timing reported is a median or a percentile over them.
The cores of the host change speed by up to 1.8 times, for stretches from
a fraction of a second to minutes, so every untraced time is scaled stretch
by stretch to one speed: the worker times a fixed reference loop every
TICK_S seconds, and each stretch between two probes counts at the rate
PROBE_FULL_SPEED_S / r, where r is the probe's reading there.  Times are
thus seconds at the speed where the reference loop takes PROBE_FULL_SPEED_S,
this host's full speed; where the host runs at that speed they are plain
wall time.
Outputs are checked in this process, outside the timed windows
(workloads.py).  With --trace 1 each pass is run twice, untraced and then
traced, and the per-layer metrics are printed instead of the end-to-end
ones.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment.
The exit code is 0 only when every output was checked and correct.
See perfbench/README.md for the metrics and why each workload exists.
"""

import argparse
import bisect
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Checker, item_label, make_items  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "frac"),
)

VERIFY_TAGS = ("ring", "hecke", "idempotents", "hook", "series", "xbiff", "rosso-jones", "cd", "pattern")

PER_LAYER = (
    ("scalars.ops", "count"),
    ("scalars.normalize", "count"),
    ("scalars.self_s", "s"),
    ("scalars.specialize_s", "s"),
    ("partitions.lr_product.calls", "count"),
    ("partitions.lr_product.self_s", "s"),
    ("diagram_ring.phi_inverse.self_s", "s"),
    ("hecke.right_letter.calls", "count"),
    ("hecke.mul.calls", "count"),
    ("hecke.mul.self_s", "s"),
    ("hecke.e_lambda.self_s", "s"),
    ("annulus.resolve_word.calls", "count"),
    ("annulus.resolve_word.self_s", "s"),
    ("annulus.closure.self_s", "s"),
    ("annulus.Q.self_s", "s"),
    ("annulus.theta.self_s", "s"),
    ("adams_skein.P.self_s", "s"),
    ("adams_skein.torus_invariant.self_s", "s"),
    ("adams_skein.solve_pattern.self_s", "s"),
    ("chords.psi_chords.self_s", "s"),
    ("chords.lifts", "count"),
    ("chords.diagrams_per_lift", "ratio"),
    ("cli.self_s", "s"),
) + tuple(("verify.suite.%s_s" % tag, "s") for tag in VERIFY_TAGS) + (
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)

SETUP_SAMPLES = 9        # set-up-only processes per run, besides every pass's own import
TICK_S = 0.03            # period of the worker's speed probe, untraced
PROBE_FULL_SPEED_S = 0.0004   # worker.reference_loop at full speed (Xeon vCPU, Python 3.11)
AS_LIMIT_MB = 1024       # address-space guard of each worker
CPU_LIMIT_S = 60         # CPU-time guard of each worker
PASS_TIMEOUT_S = 75      # wall-time guard of each worker
RUN_LIMIT_S = 160        # no pass starts that could end after this


class Pass:
    """What one worker process reported."""

    def __init__(self, n_items: int, stdout: bytes, stderr: bytes, returncode: int, guard: str | None,
                 duration: float):
        self.outs: list = [None] * n_items
        self.spans: list = [None] * n_items     # perf_counter readings (t0, t1) of each item
        self.summary = None
        for line in stdout.decode("utf-8", "replace").splitlines():
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:      # a line cut short by a guard
                continue
            if "i" in rec:
                self.outs[rec["i"]] = rec["out"]
                self.spans[rec["i"]] = (rec["t0"], rec["t1"])
            elif "ticks" in rec:
                self.summary = rec
        if guard is None and returncode != 0:
            guard = "worker exited with code %d: %s" % (returncode, stderr.decode("utf-8", "replace")[-500:])
        self.guard = guard
        self.duration = duration

    @property
    def complete(self) -> bool:
        return self.guard is None and self.summary is not None

    def probe_s(self) -> list:
        """The reference loop's times, each the median of it and its neighbours."""
        r = [d for _, d in self.summary["ticks"]] if self.summary else []
        return [statistics.median(r[max(j - 1, 0):j + 2]) for j in range(len(r))]

    def clock(self, full_speed):
        """A function of a perf_counter reading that gives the work done by
        then, in seconds at the speed where the probe reads `full_speed`.  The
        probe's own runs count as nothing.  Plain time when full_speed is None
        or the pass has no probe readings."""
        r = self.probe_s()
        if full_speed is None or not r:
            return lambda t: t
        xs, cs, rates = [], [], []
        c = 0.0
        for j, (t, d) in enumerate(self.summary["ticks"]):
            if xs:
                c += (t - xs[-1]) * rates[-1]
            xs += [t, t + d]
            cs += [c, c]
            rates += [0.0, full_speed / ((r[j] + r[j + 1]) / 2 if j + 1 < len(r) else r[j])]
        before = full_speed / r[0]

        def at(t: float) -> float:
            k = bisect.bisect_right(xs, t) - 1
            if k < 0:
                return (t - xs[0]) * before
            return cs[k] + (t - xs[k]) * rates[k]

        return at

    def times(self, full_speed=None) -> tuple:
        """(setup_s, wall_s, item ms or None each), scaled to `full_speed`;
        set-up and wall time are None for a pass cut short."""
        at = self.clock(full_speed)
        ms = [None if span is None else (at(span[1]) - at(span[0])) * 1e3 for span in self.spans]
        s = self.summary
        if s is None:
            return None, None, ms
        return at(s["setup"][1]) - at(s["setup"][0]), at(s["end"]) - at(s["start"]), ms


def run_pass(items: list, trace: bool, timeout: float, tick_s: float) -> Pass:
    job = {"src": str(SRC), "items": items, "trace": trace, "as_mb": AS_LIMIT_MB, "cpu_s": CPU_LIMIT_S,
           "tick_s": tick_s}
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, cwd=str(ROOT), env=env,
    )
    guard = None
    try:
        out, err = proc.communicate(json.dumps(job).encode("utf-8"), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        guard = "wall-time guard (%.0f s)" % timeout
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if guard is None and proc.returncode == -24:       # SIGXCPU
        guard = "CPU-time guard (%d s)" % CPU_LIMIT_S
    return Pass(len(items), out, err, proc.returncode, guard, time.monotonic() - t0)


class Tally:
    """Checked outcomes of one run: attempted, failed and the first messages."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, items: list, p: Pass, reference: Pass | None = None) -> None:
        if p.guard is not None:
            self._note("pass stopped by %s" % p.guard)
        for i, (item, out) in enumerate(zip(items, p.outs)):
            self.attempted += self.checker.attempts(item)
            failed, msgs = self.checker.check(item, out)
            if not failed and reference is not None:
                want = reference.outs[i]
                if want is not None and out != want:
                    failed, msgs = self.checker.attempts(item), ["%s: traced output differs" % item_label(item)]
            self.failed += failed
            for m in msgs:
                self._note(m)

    def _note(self, message: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)


def measure(items_of, trace: bool, seconds: float, run_start: float) -> list:
    """Run passes until `seconds` of them have run, as (items, [pass]) pairs.

    Untraced, pass k runs items_of(k).  Traced, every pass runs items_of(0)
    twice, untraced and then traced, so that counts repeat between runs.
    """
    runs = []
    measured = longest = 0.0
    while True:
        items = items_of(0 if trace else len(runs))
        group = []
        for traced in (False, True) if trace else (False,):
            left = RUN_LIMIT_S - (time.monotonic() - run_start)
            group.append(run_pass(items, traced, min(PASS_TIMEOUT_S, max(left, 1.0)),
                                  0.0 if trace else TICK_S))
        runs.append((items, group))
        took = sum(p.duration for p in group)
        measured += took
        longest = max(longest, took)
        if not all(p.complete for p in group):
            break
        if measured + longest > seconds:
            break
        if time.monotonic() - run_start + longest > RUN_LIMIT_S:
            break
    return runs


def percentile(values: list, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median(values, missing=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else missing


def item_latencies(runs: list, item_ms: list) -> list:
    """One latency per item, in ms.  An item that several passes ran at the
    same position (every item of the fixed-input workloads) counts once,
    with its median; cli-session runs a new session in each pass."""
    samples: dict = {}
    for (items, _), ms_list in zip(runs, item_ms):
        for i, (item, ms) in enumerate(zip(items, ms_list)):
            if ms is not None:
                samples.setdefault((i, json.dumps(item)), []).append(ms)
    return [statistics.median(v) for v in samples.values()]


def end_to_end(runs: list, setups: list, tally: Tally) -> tuple[dict, dict]:
    passes = [g[0] for _, g in runs]
    done = [p for p in passes if p.complete]
    times = [p.times(PROBE_FULL_SPEED_S) for p in passes]
    latencies = item_latencies(runs, [t[2] for t in times])
    setup = [p.times(PROBE_FULL_SPEED_S)[0] for p in setups + done]
    walls = [t[1] for p, t in zip(passes, times) if p.complete]
    values = {
        "wall_s": _median(walls),
        "item_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "item_p90_ms": percentile(latencies, 90) if latencies else 0.0,
        "peak_rss_mb": statistics.fmean(p.summary["rss_mb"] for p in done) if done else 0.0,
        "setup_s": _median(setup),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    raw = [p.times()[1] for p in done]
    notes = {
        "probe_median_ms": round(_median(x for p in setups + done for x in p.probe_s()) * 1e3, 4),
        "pass_wall_s": [round(w, 4) for w in walls],
        "pass_unscaled_s": [round(w, 4) for w in raw],
    }
    return values, notes


def per_layer(runs: list) -> tuple[dict, list]:
    plain = [g[0] for _, g in runs if g[0].summary is not None]
    traced = [g[1] for _, g in runs if g[1].summary is not None]
    if not plain or not traced:
        return {name: 0.0 for name, _ in PER_LAYER}, []
    out = {}
    for name in traced[0].summary["layers"]:
        out[name] = statistics.median(p.summary["layers"][name] for p in traced)
    items = runs[0][0]
    plain_ms = [p.times()[2] for p in plain]
    for tag in VERIFY_TAGS:
        times = [ms[i] / 1e3 for ms in plain_ms for i, item in enumerate(items)
                 if item[0] == "verify" and item[1] == tag and ms[i] is not None]
        out["verify.suite.%s_s" % tag] = _median(times)
    traced_wall = statistics.median(p.times()[1] for p in traced)
    out["trace.overhead_s"] = traced_wall - statistics.median(p.times()[1] for p in plain)
    out["trace.unattributed_s"] = statistics.median(
        p.times()[1] - p.summary["covered_s"] for p in traced)
    return out, traced[0].summary["top"]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_hash():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    run_start = time.monotonic()
    checker = Checker(name, seed, small)
    tally = Tally(checker)

    run_pass([], False, PASS_TIMEOUT_S, 0.0)      # compiles bytecode; not measured
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            p = run_pass([], False, PASS_TIMEOUT_S, TICK_S)
            if p.complete:
                setups.append(p)

    runs = measure(lambda k: make_items(name, seed, small, k), trace, seconds, run_start)
    for items, group in runs:
        tally.add(items, group[0])
        if trace:
            tally.add(items, group[1], reference=group[0])
    complete = all(p.complete for _, g in runs for p in g)

    if trace:
        values, top = per_layer(runs)
        notes = {"pass_unscaled_s": [round(p.times()[1], 4) for _, g in runs for p in g if p.complete]}
        table = PER_LAYER
    else:
        (values, notes), top = end_to_end(runs, setups, tally), []
        table = END_TO_END
    env = {
        "workload": name, "seed": seed, "trace": int(trace), "small": small,
        "python": sys.version.split()[0], "commit": commit_hash(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "passes": len(runs), "items_per_pass": len(runs[0][0]),
        "item_samples": sum(1 for _, g in runs for span in g[0].spans if span is not None),
        "checked_outcomes": tally.attempted, **notes,
    }
    for message in tally.messages:
        print("FAIL " + message, file=sys.stderr)
    for key, calls, self_s in top:
        print("  %-44s %10d calls %9.3f s self" % (key, calls, self_s), file=sys.stderr)
    for metric, unit in table:
        print("%-8s %-36s %14.6f %s" % (name, metric, values[metric], unit), file=sys.stderr)
    return {
        "env": env,
        "correct": complete and tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in table},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="time spent in passes, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "qskein" / "__init__.py").is_file():
        print("perfbench: no qskein package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))         # the checks call qskein directly

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.small)
        print(json.dumps({"env": res.pop("env")}))
        results.append(res)
        if len(names) > 1:
            print(json.dumps(res))
    if len(names) > 1:
        res = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {"%s.%s" % (name, k): v for name, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
