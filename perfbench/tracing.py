"""Layer tracing for the qskein benchmark, installed from outside the package.

`install` wraps, in every imported qskein module:

- each public function defined there, lru_cache wrappers included, on every
  module binding of it, because the modules import one another's functions
  by name (`from .hecke import mul`);
- each public method of each public class defined there, on the class;
- the arithmetic and equality operators of the algebra element classes,
  so that Scalar `+ - * /` can be counted;
- `Scalar.__init__` and `ChordDiagram.__init__`, which feed the
  `scalars.normalize` and `chords.diagrams_per_lift` counters.

A module is a layer.  Each wrapped call adds to its key's call count, its
self time (its duration minus that of the wrapped calls inside it) and its
total time.  Nothing is kept per call, since verify-default makes several
hundred thousand Scalar operations.  Time in code that is not wrapped, such as
LaurentPoly arithmetic or a module's private helpers, counts as self time
of the nearest wrapped caller.
"""

import inspect
import time

OPERATORS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__",
))

# The `+ - * /` calls that scalars.ops counts.
SCALAR_OPS = tuple(
    "scalars.Scalar." + op
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__")
)

# LaurentPoly is left unwrapped: its methods run several times inside every
# Scalar operation and would multiply the tracing cost, and its time lands
# in the Scalar operation that called it, in the same layer.
UNWRAPPED_CLASSES = frozenset(("LaurentPoly",))

# Dictionary keys, whose __eq__ runs inside dict lookups: operators unwrapped.
PLAIN_CLASSES = frozenset(("Partition", "ChordDiagram", "BraidWord"))

COUNTED_INIT = frozenset(("Scalar", "ChordDiagram"))


class Tracer:
    """Per-key call counts and times, plus the counters the hooks feed."""

    def __init__(self):
        self.stats: dict[str, list] = {}          # key -> [calls, self_s, total_s]
        self.counters = {"scalars.normalize": 0, "chords.lifts": 0}
        self._stack = [[0.0]]                      # child time of each open call

    def covered_s(self) -> float:
        """Time spent inside outermost wrapped calls."""
        return self._stack[0][0]

    def wrap(self, key: str, fn, before=None):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                stat[0] += 1
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        stack[-1][0] += dt
                        stat[1] += dt - frame[0]
                        stat[2] += dt
                    yield value
        else:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(self, args, kwargs)
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stack[-1][0] += dt
                    stat[0] += 1
                    stat[1] += dt - frame[0]
                    stat[2] += dt

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0,))[0]

    def self_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0))[1]

    def total_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0, 0.0))[2]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s[1] for k, s in self.stats.items() if k.startswith(prefix))

    def metrics(self) -> dict:
        """The per-layer metrics the benchmark reports, by name."""
        lifts = self.counters["chords.lifts"]
        diagrams = self.calls("chords.ChordDiagram.__init__")
        return {
            "scalars.ops": sum(self.calls(k) for k in SCALAR_OPS),
            "scalars.normalize": self.counters["scalars.normalize"],
            "scalars.self_s": self.layer_self_s("scalars"),
            "scalars.specialize_s": self.total_s("scalars.specialize_sln") + self.total_s("scalars.h_expand"),
            "partitions.lr_product.calls": self.calls("partitions.lr_product"),
            "partitions.lr_product.self_s": self.self_s("partitions.lr_product"),
            "diagram_ring.phi_inverse.self_s": self.self_s("diagram_ring.phi_inverse"),
            "hecke.right_letter.calls": self.calls("hecke.HeckeElement.right_letter"),
            "hecke.mul.calls": self.calls("hecke.mul"),
            "hecke.mul.self_s": self.self_s("hecke.mul"),
            "hecke.e_lambda.self_s": self.self_s("hecke.e_lambda"),
            "annulus.resolve_word.calls": self.calls("annulus.resolve_word"),
            "annulus.resolve_word.self_s": self.self_s("annulus.resolve_word"),
            "annulus.closure.self_s": self.self_s("annulus.closure"),
            "annulus.Q.self_s": self.self_s("annulus.Q"),
            "annulus.theta.self_s": self.self_s("annulus.theta"),
            "adams_skein.P.self_s": self.self_s("adams_skein.P"),
            "adams_skein.torus_invariant.self_s": self.self_s("adams_skein.torus_invariant"),
            "adams_skein.solve_pattern.self_s": self.self_s("adams_skein.solve_pattern"),
            "chords.psi_chords.self_s": self.self_s("chords.psi_chords"),
            "chords.lifts": lifts,
            "chords.diagrams_per_lift": diagrams / lifts if lifts else 0.0,
            "cli.self_s": self.self_s("cli.main"),
        }

    def top(self, n: int) -> list:
        """The n keys with the most self time, as [key, calls, self_s]."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][1])
        return [[k, s[0], s[1]] for k, s in rows[:n] if s[0]]


def _count_normalize(tracer, args, kwargs):
    # Scalar(num, den): only a denominator of several terms is normalised
    den = args[2] if len(args) > 2 else kwargs.get("den")
    if len(getattr(den, "terms", ())) > 1:
        tracer.counters["scalars.normalize"] += 1


def _count_lifts(tracer, args, kwargs):
    diagram = args[0] if args else kwargs["diagram"]
    m = args[1] if len(args) > 1 else kwargs["m"]
    tracer.counters["chords.lifts"] += m ** (2 * diagram.chords)


HOOKS = {
    "scalars.Scalar.__init__": _count_normalize,
    "chords.psi_chords": _count_lifts,
}


def _wrap_class(tracer, layer: str, cls) -> None:
    plain = cls.__name__ in PLAIN_CLASSES
    for attr, val in list(vars(cls).items()):
        if attr.startswith("_"):
            if attr == "__init__":
                if cls.__name__ not in COUNTED_INIT:
                    continue
            elif plain or attr not in OPERATORS:
                continue
        key = "%s.%s.%s" % (layer, cls.__name__, attr)
        if isinstance(val, (classmethod, staticmethod)):
            setattr(cls, attr, type(val)(tracer.wrap(key, val.__func__)))
        elif inspect.isfunction(val):
            setattr(cls, attr, tracer.wrap(key, val, HOOKS.get(key)))


def install(tracer: Tracer, modules) -> None:
    """Wrap the qskein modules given (the package and its submodules)."""
    wrapped = {}
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                if name not in UNWRAPPED_CLASSES:
                    _wrap_class(tracer, layer, obj)
            elif callable(obj):
                key = "%s.%s" % (layer, name)
                wrapped[id(obj)] = (obj, tracer.wrap(key, obj, HOOKS.get(key)))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
