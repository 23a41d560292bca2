"""Span tracer for the benchmark's traced passes.

It lives entirely in the benchmark: after a fresh import of ``mmda_lab`` it
replaces the public functions and methods listed in ``TARGETS`` with timing
wrappers.  A function is replaced in every ``mmda_lab`` module that holds it,
so names bound by ``from .x import y`` are traced as well; methods are
replaced on their class.  Nothing under ``src/`` changes.

Spans (name, start, end, parent, job) are kept in memory in flat arrays and
written as JSON lines at exit.  A span's self time is its duration minus
the time of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import defaultdict

#: spans shorter than this are aggregated but not written out
WRITE_MIN_S = 1e-4

LAYERS = ("scalars", "instances", "relaxations", "reports", "shadow",
          "integral", "rounding", "scans", "cli")

#: (module, function or Class.method, span name); the span name's first
#: component is the layer its self time is charged to.
TARGETS = (
    ("scalars", "compare_certified", "scalars.compare"),
    ("scalars", "Monomial.to_interval", "scalars.to_interval"),
    ("scalars", "exp2_interval", "scalars.exp2_interval"),
    ("scalars", "log2_interval", "scalars.log2_interval"),
    ("scalars", "entropy_interval", "scalars.entropy_interval"),
    ("scalars", "Monomial.__init__", "scalars.monomial"),
    ("scalars", "Monomial.mul", "scalars.monomial_ops"),
    ("scalars", "Monomial.div", "scalars.monomial_ops"),
    ("scalars", "Monomial.pow", "scalars.monomial_ops"),
    ("scalars", "Monomial.as_fraction", "scalars.monomial_ops"),
    ("scalars", "iv_add", "scalars.interval_ops"),
    ("scalars", "iv_scale", "scalars.interval_ops"),
    ("scalars", "iv_mul", "scalars.interval_ops"),
    ("scalars", "iv_div", "scalars.interval_ops"),
    ("reports", "check_ge", "reports.check"),
    ("reports", "check_le", "reports.check"),
    ("reports", "check_eq", "reports.check"),
    ("reports", "vacuous", "reports.check"),
    ("instances", "LabeledInstance.out_neighbors", "instances.neighbors"),
    ("instances", "LabeledInstance.in_neighbors", "instances.neighbors"),
    ("instances", "LayeredInstance.reachable", "instances.reachable"),
    ("instances", "LabeledInstance.reachable", "instances.reachable"),
    ("instances", "LabeledInstance.label", "instances.label"),
    ("instances", "build_mmda", "instances.build"),
    ("relaxations", "verify_assignment", "relaxations.verify"),
    ("relaxations", "verify_path_hierarchy", "relaxations.verify"),
    ("relaxations", "PathSolution.enumerate_paths", "relaxations.enumerate"),
    ("relaxations", "count_paths", "relaxations.count_paths"),
    ("relaxations", "count_paths_from", "relaxations.count_paths"),
    ("relaxations", "closed_form_paths", "relaxations.closed_form"),
    ("relaxations", "check_helper_lemma", "relaxations.helper_lemma"),
    ("relaxations", "assignment_solution", "relaxations.solution"),
    ("relaxations", "path_solution", "relaxations.solution"),
    ("shadow", "sa1_certificate", "shadow.sa1"),
    ("shadow", "conditional_report", "shadow.conditional_report"),
    ("shadow", "ShadowModel.expected_multiplicity", "shadow.multiplicity"),
    ("shadow", "ShadowModel.pair_absent", "shadow.pair_absent"),
    ("shadow", "sample", "shadow.sample"),
    ("shadow", "shadow_model", "shadow.model"),
    ("integral", "bruteforce_best", "integral.bruteforce"),
    ("integral", "counting_certificate", "integral.certificate"),
    ("rounding", "sample_forest", "rounding.sample_forest"),
    ("rounding", "audit_locality", "rounding.audit"),
    ("scans", "scan_proof_function", "scans.scan"),
    ("cli", "main", "cli.main"),
)

#: every per-layer metric a traced run reports, with its unit
PER_LAYER = (
    ("scalars.compare.calls", "count"),
    ("scalars.compare.distinct_ratio", "ratio"),
    ("scalars.compare.self_s", "s"),
    ("scalars.compare.max_prec_bits", "bits"),
    ("scalars.to_interval.calls", "count"),
    ("scalars.to_interval.self_s", "s"),
    ("scalars.exp2_interval.calls", "count"),
    ("scalars.exp2_interval.self_s", "s"),
    ("scalars.log2_interval.calls", "count"),
    ("scalars.log2_interval.self_s", "s"),
    ("scalars.entropy_interval.calls", "count"),
    ("scalars.entropy_interval.self_s", "s"),
    ("scalars.monomial.constructed", "count"),
    ("scalars.monomial.self_s", "s"),
    ("scalars.monomial_ops.self_s", "s"),
    ("scalars.interval_ops.self_s", "s"),
    ("reports.checks", "count"),
    ("reports.check.self_s", "s"),
    ("instances.neighbors.calls", "count"),
    ("instances.neighbors.distinct_ratio", "ratio"),
    ("instances.neighbors.self_s", "s"),
    ("instances.reachable.calls", "count"),
    ("instances.reachable.self_s", "s"),
    ("instances.label.calls", "count"),
    ("instances.label.self_s", "s"),
    ("relaxations.paths_enumerated", "count"),
    ("relaxations.enumerate.self_s", "s"),
    ("relaxations.verify.self_s", "s"),
    ("relaxations.count_paths.calls", "count"),
    ("relaxations.count_paths.self_s", "s"),
    ("shadow.events", "count"),
    ("shadow.conditional_report.self_s", "s"),
    ("shadow.multiplicity.self_s", "s"),
    ("shadow.pair_absent.calls", "count"),
    ("shadow.samples", "count"),
    ("shadow.sample.self_s", "s"),
    ("shadow.samples_per_s", "1/s"),
    ("integral.nodes", "count"),
    ("integral.bruteforce.self_s", "s"),
    ("integral.nodes_per_s", "1/s"),
    ("integral.complete_ratio", "ratio"),
    ("rounding.forests", "count"),
    ("rounding.paths_sampled", "count"),
    ("rounding.sample_forest.self_s", "s"),
    ("rounding.audit.self_s", "s"),
    ("scans.points", "count"),
    ("scans.scan.self_s", "s"),
    ("scans.max_prec_bits", "bits"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    *((f"{layer}.self_share", "ratio") for layer in LAYERS),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Spans and counters for the traced passes of one run."""

    def __init__(self):
        self.span_names: list[str] = []
        self._sid: dict[str, int] = {}
        self.job_names: list[str] = []
        self.job = -1
        # one entry per span, indexed by span id
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_job = array("i")
        self.child = array("d")
        self.stack: list[int] = []
        self.reset_pass()

    # --- per-pass aggregates ------------------------------------------------
    def reset_pass(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.compare_depth = 0

    def set_job(self, name: str):
        self.job_names.append(name)
        self.job = len(self.job_names) - 1

    # --- spans ----------------------------------------------------------------
    def _open(self, sid: int) -> int:
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.span_job.append(self.job)
        self.child.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str, active: float | None = None):
        t = time.perf_counter()
        self.end[idx] = t
        self.stack.pop()
        dur = t - self.start[idx] if active is None else active
        self.calls[name] += 1
        self.self_s[name] += dur - self.child[idx]
        self.busy_s[name] += dur
        if self.stack:
            self.child[self.stack[-1]] += dur

    def _sid_of(self, name: str) -> int:
        if name not in self._sid:
            self._sid[name] = len(self.span_names)
            self.span_names.append(name)
        return self._sid[name]

    def wrap(self, fn, name: str):
        sid = self._sid_of(name)
        before, after, leave = _BEFORE.get(name), _AFTER.get(name), _LEAVE.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            idx = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name)
                if leave is not None:
                    leave(tracer)
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """One span from the first resume to exhaustion.  Only the time spent
        inside the generator counts as its duration, so the consumer's work
        between two items stays with the consumer.  The one generator traced,
        ``PathSolution.enumerate_paths``, is always consumed to the end."""
        sid = self._sid_of(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = None
            active = 0.0
            while True:
                t0 = time.perf_counter()
                if idx is None:
                    idx = tracer._open(sid)
                else:
                    tracer.stack.append(idx)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(idx, name, active + time.perf_counter() - t0)
                    return
                except BaseException:
                    tracer._close(idx, name, active + time.perf_counter() - t0)
                    raise
                active += time.perf_counter() - t0
                tracer.stack.pop()
                tracer.count[name + ".items"] += 1
                yield item

        return traced

    # --- installation ---------------------------------------------------------
    def install(self, modules: dict):
        """Wrap every target in the freshly imported ``modules``, a mapping
        from each ``mmda_lab`` module's short name to the module."""
        for mod_name, attr, name in TARGETS:
            mod = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrapper(fn, name))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrapper(fn, name)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapper)

    def _wrapper(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(fn, name)
        return self.wrap(fn, name)

    # --- results --------------------------------------------------------------
    def pass_metrics(self, wall_s: float, report_bytes: int) -> dict:
        """Per-layer metrics of the traced pass that just ended."""
        calls, self_s, count = self.calls, self.self_s, self.count

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "scalars.compare.calls": calls["scalars.compare"],
            "scalars.compare.distinct_ratio": ratio(
                len(self.distinct["scalars.compare"]), calls["scalars.compare"]),
            "scalars.compare.self_s": self_s["scalars.compare"],
            "scalars.compare.max_prec_bits": count["scalars.compare.max_prec"],
            "scalars.monomial.constructed": calls["scalars.monomial"],
            "scalars.monomial.self_s": self_s["scalars.monomial"],
            "scalars.monomial_ops.self_s": self_s["scalars.monomial_ops"],
            "scalars.interval_ops.self_s": self_s["scalars.interval_ops"],
            "reports.checks": calls["reports.check"],
            "reports.check.self_s": self_s["reports.check"],
            "instances.neighbors.calls": calls["instances.neighbors"],
            "instances.neighbors.distinct_ratio": ratio(
                len(self.distinct["instances.neighbors"]), calls["instances.neighbors"]),
            "relaxations.paths_enumerated": count["relaxations.enumerate.items"],
            "relaxations.verify.self_s": self_s["relaxations.verify"],
            "shadow.events": count["shadow.events"],
            "shadow.pair_absent.calls": calls["shadow.pair_absent"],
            "shadow.samples": count["shadow.samples"],
            "shadow.samples_per_s": ratio(count["shadow.samples"], self.busy_s["shadow.sample"]),
            "integral.nodes": count["integral.nodes"],
            "integral.nodes_per_s": ratio(count["integral.nodes"],
                                          self.busy_s["integral.bruteforce"]),
            "integral.complete_ratio": ratio(count["integral.complete"],
                                             calls["integral.bruteforce"]),
            "rounding.forests": calls["rounding.sample_forest"],
            "rounding.paths_sampled": count["rounding.paths"],
            "scans.points": count["scans.points"],
            "scans.max_prec_bits": count["scans.max_prec"],
            "cli.self_s": self_s["cli.main"],
            "cli.report_bytes": report_bytes,
        }
        for name in ("scalars.to_interval", "scalars.exp2_interval",
                     "scalars.log2_interval", "scalars.entropy_interval",
                     "instances.reachable", "instances.label",
                     "relaxations.count_paths"):
            out[f"{name}.calls"] = calls[name]
        for name in ("scalars.to_interval", "scalars.exp2_interval",
                     "scalars.log2_interval", "scalars.entropy_interval",
                     "instances.neighbors", "instances.reachable", "instances.label",
                     "relaxations.enumerate", "relaxations.count_paths",
                     "shadow.conditional_report", "shadow.multiplicity",
                     "shadow.sample", "integral.bruteforce",
                     "rounding.sample_forest", "rounding.audit", "scans.scan"):
            out[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            total = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_share"] = ratio(total, wall_s)
        return out

    def write_spans(self, path, min_s: float = WRITE_MIN_S) -> int:
        """Write the spans that lasted at least ``min_s`` as JSON lines and
        return how many.  A parent lasts at least as long as each of its
        children, so every written span's parent is written too; the
        shorter spans are only counted, in the per-layer metrics."""
        written = 0
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                if self.end[i] - self.start[i] < min_s:
                    continue
                written += 1
                fh.write(json.dumps({
                    "id": i,
                    "name": self.span_names[self.name[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": None if self.parent[i] < 0 else self.parent[i],
                    "job": self.job_names[self.span_job[i]] if self.span_job[i] >= 0 else None,
                }) + "\n")
        return written

    def n_spans(self) -> int:
        return len(self.start)


# --- counters fed by arguments and return values ----------------------------


def _compare_before(tr: Tracer, args, kwargs):
    tr.compare_depth += 1
    try:
        tr.distinct["scalars.compare"].add((args[0], args[1]))
    except TypeError:  # unhashable operand
        pass


def _compare_leave(tr: Tracer):
    tr.compare_depth -= 1


def _log2_before(tr: Tracer, args, kwargs):
    if tr.compare_depth:
        prec = args[1] if len(args) > 1 else kwargs.get("prec", 0)
        if prec > tr.count["scalars.compare.max_prec"]:
            tr.count["scalars.compare.max_prec"] = prec


def _neighbors_before(tr: Tracer, args, kwargs):
    inst, v = args[0], args[1]
    tr.distinct["instances.neighbors"].add((getattr(inst, "params", id(inst)), v))


def _sa1_after(tr: Tracer, res):
    tr.count["shadow.events"] += res.events_checked


def _sample_after(tr: Tracer, res):
    tr.count["shadow.samples"] += res.n_samples


def _bruteforce_after(tr: Tracer, res):
    tr.count["integral.nodes"] += res.nodes_used
    tr.count["integral.complete"] += bool(res.complete)


def _forest_after(tr: Tracer, res):
    tr.count["rounding.paths"] += len(res.paths)


def _scan_after(tr: Tracer, res):
    tr.count["scans.points"] += len(res.points)
    top = max((p.precision for p in res.points), default=0)
    if top > tr.count["scans.max_prec"]:
        tr.count["scans.max_prec"] = top


_BEFORE = {
    "scalars.compare": _compare_before,
    "scalars.log2_interval": _log2_before,
    "instances.neighbors": _neighbors_before,
}
_LEAVE = {"scalars.compare": _compare_leave}
_AFTER = {
    "shadow.sa1": _sa1_after,
    "shadow.sample": _sample_after,
    "integral.bruteforce": _bruteforce_after,
    "rounding.sample_forest": _forest_after,
    "scans.scan": _scan_after,
}


def layer_table(metrics: dict) -> str:
    """Human-readable per-layer table."""
    width = max(len(k) for k, _ in PER_LAYER)
    units = dict(PER_LAYER)
    lines = [f"{'metric':<{width}}  {'value':>14}  unit"]
    for key, _ in PER_LAYER:
        value = metrics[key]
        text = f"{value:14.6g}" if isinstance(value, float) else f"{value:14d}"
        lines.append(f"{key:<{width}}  {text}  {units[key]}")
    return "\n".join(lines)
