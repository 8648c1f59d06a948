"""Per-layer tracing installed from outside the `higgsstrata` package.

`Tracer.install()` replaces each traced public function with a wrapper in
every `higgsstrata` module namespace that binds it (names imported with
``from .x import f`` are separate bindings), and in
`verification.ALL_CRITERIA`.  Each wrapper records calls and self time:
its span's duration minus the spans of traced functions it called.
Layer-specific counters (distinct inputs, error kinds, output sizes)
are taken at the same boundaries.  `metrics()` turns the counts into
the per-layer metric names listed in BENCHMARK.json.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# (module, function) pairs whose calls are spans.  classify and
# classify_rank3 are one layer: the classifier's two public entry points.
TRACED = (
    ("admissibility", "enumerate_strata"),
    ("admissibility", "invariant_range"),
    ("limit_classifier", "classify"),
    ("limit_classifier", "classify_rank3"),
    ("limit_classifier", "feasible_inputs"),
    ("limit_classifier", "stability_audit"),
    ("matrix_oracle", "oracle_check"),
    ("fixed_points", "validate_component_label"),
    ("fixed_points", "enumerate_fixed_components"),
    ("incidence", "build_table"),
    ("incidence", "table_to_records"),
    ("incidence", "table_to_csv"),
    ("incidence", "table_to_dot"),
    ("core", "polygon_of"),
    ("core", "dominates"),
    ("core", "format_label"),
    ("cli", "main"),
    ("cli", "run"),
)
CLASSIFIER = "limit_classifier.classify"
FIXED = "fixed_points.enumerate_fixed_components"
# Criterion functions by the name their results report.
CRITERIA = {
    "criterion_rank2_coincidence": "rank2-coincidence",
    "criterion_exhaustive_classification": "exhaustive-classification",
    "criterion_specialization_monotonicity": "specialization-monotonicity",
    "criterion_coprime_degrees": "coprime-degrees",
    "criterion_hn_bb_theorem": "hn-bb-coincidence",
    "criterion_fixed_point_enumeration": "fixed-point-enumeration",
    "criterion_oracle_equivalence": "oracle-equivalence",
    "criterion_stability_audit": "stability-audit",
    "criterion_determinism": "determinism",
}
# Counters reported even when the layer never ran.
COUNTERS = {
    "admissibility.enumerate_strata": ("strata_out",),
    "fixed_points.enumerate_fixed_components": ("child_classify_calls",),
    "incidence.build_table": ("entries_out",),
    "incidence.table_to_csv": ("bytes_out",),
    "incidence.table_to_dot": ("bytes_out",),
}
ERROR_KINDS = (
    "InfeasibleBySpecialization",
    "SlopeOutOfBounds",
    "AlignmentImpossible",
    "CaseFamilyMismatch",
)


class Layer:
    __slots__ = ("calls", "self_ns", "distinct", "counters")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.distinct: set = set()
        self.counters: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self._stack: list[int] = []  # child time of each open span, ns
        self._in_classifier = False
        self._fixed_depth = 0

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer()
        return self.layers[name]

    def _span(self, layer: Layer, fn, enter=None, leave=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            t_in = perf_counter_ns()
            if enter:
                enter(args)
            stack.append(0)
            result = error = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter_ns()
                layer.calls += 1
                layer.self_ns += t1 - t0 - stack.pop()
                if leave:
                    leave(args, result, error)
                if stack:
                    # The parent's self time excludes this whole wrapper,
                    # bookkeeping included.
                    stack[-1] += perf_counter_ns() - t_in

        wrapper.__wrapped__ = fn
        return wrapper

    def _classifier(self, fn):
        layer = self.layer(CLASSIFIER)

        def leave(args, result, error):
            layer.distinct.add(args[0])
            if error is not None:
                layer.count("errors." + type(error).__name__)
            if self._fixed_depth:
                self.layer(FIXED).count("child_classify_calls")

        span = self._span(layer, fn, leave=leave)

        def wrapper(*args, **kwargs):
            # classify delegates to classify_rank3: count the outer call only.
            if self._in_classifier:
                return fn(*args, **kwargs)
            self._in_classifier = True
            try:
                return span(*args, **kwargs)
            finally:
                self._in_classifier = False

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrapper_for(self, module: str, name: str, fn):
        key = f"{module}.{name}"
        if key in ("limit_classifier.classify", "limit_classifier.classify_rank3"):
            return self._classifier(fn)
        layer = self.layer(key)
        leave = None
        enter = None
        if key == "admissibility.enumerate_strata":
            def leave(args, result, error):
                if result is not None:
                    layer.count("strata_out", len(result))
        elif key == "matrix_oracle.oracle_check":
            def leave(args, result, error):
                layer.distinct.add(args[0].case_tag)
        elif key == "incidence.build_table":
            def leave(args, result, error):
                if result is not None:
                    layer.count("entries_out", sum(len(r.entries) for r in result.rows))
        elif key in ("incidence.table_to_csv", "incidence.table_to_dot"):
            def leave(args, result, error):
                if result is not None:
                    layer.count("bytes_out", len(result.encode("utf-8")))
        elif key == FIXED:
            def enter(args):
                self._fixed_depth += 1

            def leave(args, result, error):
                self._fixed_depth -= 1
        return self._span(layer, fn, enter, leave)

    def _criterion_wrapper(self, fn):
        name = CRITERIA.get(fn.__name__, fn.__name__)
        return self._span(self.layer("verification." + name), fn)

    @classmethod
    def install(cls) -> "Tracer":
        """Wrap every traced function in every namespace that binds it."""
        import higgsstrata.cli  # noqa: F401  (imports every module)
        from higgsstrata import core, verification

        tracer = cls()
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "higgsstrata"]
        replace: dict[int, object] = {}  # id of each traced function -> its wrapper
        for module, name in TRACED:
            fn = getattr(sys.modules[f"higgsstrata.{module}"], name)
            replace[id(fn)] = tracer._wrapper_for(module, name, fn)
        for fn in verification.ALL_CRITERIA:
            replace[id(fn)] = tracer._criterion_wrapper(fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace and callable(value):
                    setattr(module, attr, replace[id(value)])
        verification.ALL_CRITERIA = tuple(replace[id(fn)] for fn in verification.ALL_CRITERIA)

        mu_layer = tracer.layer("core.HNType.mu_vector")
        mu_property = core.HNType.__dict__["mu_vector"]

        def mu_vector(hn):
            mu_layer.calls += 1
            return mu_property.__get__(hn, type(hn))

        core.HNType.mu_vector = property(mu_vector, doc=mu_property.__doc__)
        return tracer

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (one pass)."""
        out: dict[str, float] = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.self_ms"] = layer.self_ns / 1e6
            for counter in COUNTERS.get(name, ()):
                out[f"{name}.{counter}"] = 0
            for counter, value in layer.counters.items():
                out[f"{name}.{counter}"] = value
        for name in (CLASSIFIER, "matrix_oracle.oracle_check"):
            layer = self.layers[name]
            calls = layer.calls
            out[f"{name}.us_per_call"] = layer.self_ns / calls / 1e3 if calls else 0.0
            out[f"{name}.distinct_ratio"] = len(layer.distinct) / calls if calls else 0.0
        for kind in ERROR_KINDS:
            out.setdefault(f"{CLASSIFIER}.errors.{kind}", 0)
        return out
