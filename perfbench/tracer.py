"""Span tracing of seqc from outside the package.

`Tracer.install` replaces each public seqc function with a wrapper in
every module namespace that binds it (so `seqc.cli.validate`,
`seqc.simulator.validate` and `seqc.codegen.validate` all record the
span `validator.validate`).  A span is named after the module that
defines the function.  The hottest tiny calls are counted without a
span.  Spans stay in memory until `write` saves them after the run.
"""

import functools
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "dsl", "xmlio", "model", "program_io", "validator",
          "simulator", "templating", "codegen")

# Called thousands of times per command for microseconds each: a span
# would cost more than the call, so these are only counted.
COUNT_ONLY = {"dsl.lookup_action", "xmlio.require_attr", "xmlio.attr_escape",
              "templating.normalize_accessor"}
COUNTED_METHODS = (("model", "Program", "action", "model.program_action"),
                   ("dsl", "RobotClassDsl", "is_mutex", "dsl.is_mutex"))
SPAN_METHODS = (("templating", "TemplateEngine", "render_template", "templating.render"),)


class Tracer:
    """Collects spans as (name, start, end, parent index, command id)."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.command = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _span(self, name: str, fn, observe=None):
        layer = name.split(".")[0]
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[layer + ".raised"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command)
            if observe is not None:
                observe(result)
            return result
        return traced

    def _counted(self, name: str, fn):
        key = name + "_calls"
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _observers(self):
        counts = self.counts

        def parallel(result):
            counts["model.potentially_parallel_true"] += bool(result)

        def findings(report):
            counts["validator.findings"] += len(report.findings)
        return {"model.potentially_parallel": parallel, "validator.validate": findings}

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the seqc modules currently imported."""
        modules = {layer: sys.modules[f"seqc.{layer}"] for layer in LAYERS}
        observers = self._observers()
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("seqc.")):
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                    wrappers[id(value)] = (self._counted(name, value) if name in COUNT_ONLY
                                           else self._span(name, value, observers.get(name)))
                self._patch(module, attr, wrappers[id(value)])
        for layer, cls, method, name in COUNTED_METHODS:
            owner = getattr(modules[layer], cls)
            self._patch(owner, method, self._counted(name, getattr(owner, method)))
        for layer, cls, method, name in SPAN_METHODS:
            owner = getattr(modules[layer], cls)
            self._patch(owner, method, self._span(name, getattr(owner, method)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("command\tname\tstart\tend\tparent\n")
            for name, start, end, parent, command in self.spans:
                out.write(f"{command}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def layer_metrics(tracer: Tracer, commands: int, actions_loaded: int) -> dict[str, float]:
    """Per-command layer figures from the spans and counts of a traced run.

    `_ms` is inclusive span time and `_self_ms` self time, both in
    milliseconds per command; `_calls` and counts are per command.
    """
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        name = span[0]
        total[name] += span[2] - span[1]
        own[name] += self_s
        own[name.split(".")[0]] += self_s
        calls[name] += 1
    c = tracer.counts
    per = 1.0 / commands

    def ms(name):
        return total[name] * 1e3 * per

    def self_ms(name):
        return own[name] * 1e3 * per

    load_s = total["program_io.load_program"] + total["program_io.parse_program"]
    metrics = {
        "model.ancestors_calls": calls["model.ancestors"] * per,
        "model.ancestors_ms": ms("model.ancestors"),
        "model.potentially_parallel_calls": calls["model.potentially_parallel"] * per,
        "model.potentially_parallel_ms": ms("model.potentially_parallel"),
        "model.potentially_parallel_true_ratio":
            c["model.potentially_parallel_true"] / max(1, calls["model.potentially_parallel"]),
        "model.topological_order_calls": calls["model.topological_order"] * per,
        "model.topological_order_ms": ms("model.topological_order"),
        "model.program_action_calls": c["model.program_action_calls"] * per,
        "validator.validate_ms": ms("validator.validate"),
        "validator.validate_self_ms": self_ms("validator.validate"),
        "validator.check_bindings_ms": ms("validator.check_bindings"),
        "validator.check_mutex_ms": ms("validator.check_mutex_schedulability"),
        "validator.lint_races_ms": ms("validator.lint_variable_races"),
        "validator.findings": c["validator.findings"] * per,
        "dsl.is_mutex_calls": c["dsl.is_mutex_calls"] * per,
        "simulator.simulate_ms": ms("simulator.simulate"),
        "simulator.schedule_self_ms": self_ms("simulator.simulate"),
        "simulator.trace_to_json_ms": ms("simulator.trace_to_json"),
        "xmlio.parse_root_ms": ms("xmlio.parse_root"),
        "xmlio.parse_root_calls": calls["xmlio.parse_root"] * per,
        "program_io.load_program_ms": ms("program_io.load_program"),
        "program_io.parse_program_ms": ms("program_io.parse_program"),
        "program_io.export_dot_ms": ms("program_io.export_dot"),
        "program_io.actions_per_s": actions_loaded / load_s if load_s else 0.0,
        "dsl.lookup_action_calls": c["dsl.lookup_action_calls"] * per,
        "dsl.load_dsl_ms": ms("dsl.load_dsl"),
        "codegen.load_generator_ms": ms("codegen.load_generator_file"),
        "codegen.program_view_ms": ms("codegen.program_view"),
        "codegen.generate_self_ms": self_ms("codegen.generate"),
        "codegen.write_outputs_ms": ms("codegen.write_outputs"),
        "templating.parse_template_ms": ms("templating.parse_template"),
        "templating.parse_template_calls": calls["templating.parse_template"] * per,
        "templating.render_ms": ms("templating.render"),
        "trace.command_ms": ms("cli.main"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_ms(layer)
        metrics[f"{layer}.raised"] = c[f"{layer}.raised"] * per
    return metrics
