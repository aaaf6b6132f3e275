"""One cold pass of a benchmark workload, in a fresh process.

Reads a job as JSON on stdin:
  {"src": dir holding the qskein package, "items": [...], "trace": bool,
   "as_mb": address-space limit, "cpu_s": CPU-time limit,
   "tick_s": period of the speed probe, 0 for none}
It limits its own address space and CPU time, imports qskein and qskein.cli
(the set-up), runs the items in order with memo tables shared only between
them, and writes one JSON line per item, then a summary line.  Times are
raw perf_counter readings; the parent turns them into durations.  An item
that raises is reported and the pass goes on.  A MemoryError ends the pass,
and the parent counts the items left as failed; hitting the CPU limit ends
the process the same way.

The speed probe times a fixed reference loop every tick_s seconds, from a
SIGALRM handler in the main thread, and the summary lists each (start,
duration).  The host's cores slow down by up to 1.8 times for stretches of
a fraction of a second to minutes; the parent uses these readings to scale
each stretch of a pass to one speed (see run.py).

With an empty item list the pass only measures set-up.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time

# run.PROBE_FULL_SPEED_S is the loop's time at full speed; change the two together.
REFERENCE_LOOPS = 1000


def reference_loop(n: int = REFERENCE_LOOPS) -> int:
    """Fixed interpreter work of the kind qskein does: small-int arithmetic,
    tuple keys and dict updates.  It never changes with the program."""
    table: dict = {}
    acc = 0
    for i in range(n):
        key = (i & 63, i % 7)
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[key] = table.get(key, 0) + acc
    return acc


class SpeedProbe:
    """Runs reference_loop every `period` seconds of wall time and keeps
    [start, duration] of each run."""

    def __init__(self, period: float):
        self.ticks: list = []
        self.period = period
        if period > 0:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, period, period)

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        reference_loop()
        self.ticks.append([t, time.perf_counter() - t])

    def stop(self) -> list:
        if self.period > 0:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return self.ticks


def _emit(stream, obj) -> None:
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def _run_item(qskein, item):
    kind = item[0]
    if kind == "verify":
        rows = qskein.verify.run_suite(item[1], item[2])
        return {"rows": [[bool(ok), text] for ok, text in rows]}
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = qskein.cli.main(list(item[1]))
            except SystemExit as exc:          # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
        return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}
    if kind == "chords":
        chords = qskein.chords
        tally = chords.psi_chords(chords.ChordDiagram([tuple(p) for p in item[1]]), item[2])
        return {"tally": [[str(d), n] for d, n in sorted(tally.items())]}
    raise ValueError("unknown item kind %r" % kind)


def _limit(kind: int, soft: int, hard: int) -> None:
    """Lower a resource limit of this process; never raise one."""
    _, cap = resource.getrlimit(kind)
    if cap != resource.RLIM_INFINITY:
        soft, hard = min(soft, cap), min(hard, cap)
    resource.setrlimit(kind, (soft, hard))


def main() -> None:
    job = json.load(sys.stdin)
    _limit(resource.RLIMIT_AS, job["as_mb"] << 20, job["as_mb"] << 20)
    _limit(resource.RLIMIT_CPU, job["cpu_s"], job["cpu_s"] + 5)
    stream = sys.stdout
    sys.path.insert(0, job["src"])
    clock = time.perf_counter
    probe = SpeedProbe(job["tick_s"])

    setup = [clock()]
    import qskein
    import qskein.cli
    setup.append(clock())

    tracer = None
    if job["trace"] and job["items"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, [m for name, m in sorted(sys.modules.items())
                                 if name == "qskein" or name.startswith("qskein.")])

    start = clock()
    for i, item in enumerate(job["items"]):
        t = clock()
        try:
            result = _run_item(qskein, item)
        except MemoryError:
            _emit(stream, {"i": i, "t0": t, "t1": clock(), "out": {"error": "MemoryError (guard)"}})
            break
        except Exception as err:  # the item fails; the pass goes on
            result = {"error": "%s: %s" % (type(err).__name__, err)}
        _emit(stream, {"i": i, "t0": t, "t1": clock(), "out": result})
    end = clock()
    ticks = probe.stop()

    summary = {"setup": setup, "start": start, "end": end, "ticks": ticks,
               "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        summary["covered_s"] = tracer.covered_s()
        summary["layers"] = tracer.metrics()
        summary["top"] = tracer.top(25)
    _emit(stream, summary)

if __name__ == "__main__":
    main()
