"""Timing wrappers on module attributes, spans, and per-layer metrics.

A `Tracer` replaces public functions of the program's modules with
wrappers that record a span (name, start, end, parent, op id, attrs)
while the tracer is active.  Internal calls that resolve through a module
attribute (every `attainability.fit` call from the CLI and the atlas
prober, every `group.multiply` call from `flow_const`) pass through the
wrappers too.  Spans stay in memory and are written out at the end.
"""
from __future__ import annotations

import contextlib
import csv
import statistics
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: str
    attrs: tuple = ()

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _fit_attrs(args, kwargs, result):
    return (("status", result.status), ("starts", result.starts_used))


def _cli_attrs(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return (("command", argv[0] if argv else None),)


def _ag_attrs(args, kwargs, result):
    return (("verdict", result.verdict),)


# (module attribute on workloads, function name, span name, attrs)
BOUNDARIES = (
    ("cli", "main", "cli.main", _cli_attrs),
    ("attainability", "fit", "fit", _fit_attrs),
    ("attainability", "max_min_coordinate", "max_min_coordinate", None),
    ("boundary_atlas", "trim_and_mesh", "trim_and_mesh", None),
    ("boundary_atlas", "write_obj", "write_obj", None),
    ("boundary_atlas", "strata_csv", "strata_csv", None),
    ("words", "pqr", "pqr", None),
    ("words", "endpoint", "endpoint", None),
    ("words", "canonicalize", "canonicalize", None),
    ("group", "multiply", "multiply", None),
    ("adjoint", "synthesize", "synthesize", None),
    ("second_order", "ag_test", "ag_test", _ag_attrs),
    ("probability", "dice_pqr", "dice_pqr", None),
)


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[Span | None] = []
        self.active = False
        self.op = ""
        self._stack: list[int] = []
        self._saved = []

    def __enter__(self):
        for mod_name, attr, span_name, attrs in BOUNDARIES:
            module = getattr(self.modules, mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, attrs))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.active = False

    def _wrap(self, fn, name, attrs_of):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = Span(name, start, clock(), parent, tracer.op)
                stack.pop()
                tracer.spans[index] = span
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def recording(self, op: str):
        """Record spans, tagged with `op`, for calls made inside the block."""
        self.op, self.active = op, True
        try:
            yield
        finally:
            self.active = False

    def take(self) -> list[Span]:
        """The spans recorded since the last take; parents index into them."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans, self.spans = self.spans, []
        return spans


def concat(chunks: list[list[Span]]) -> list[Span]:
    """Join span chunks into one list; parent indices become global."""
    out, offset = [], 0
    for spans in chunks:
        for s in spans:
            parent = s.parent + offset if s.parent >= 0 else -1
            out.append(Span(s.name, s.start, s.end, parent, s.op, s.attrs))
        offset += len(spans)
    return out


def write_csv(spans: list[Span], path) -> None:
    """Write spans as one table, times relative to the first start."""
    t0 = min((s.start for s in spans), default=0.0)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["index", "name", "start_s", "end_s", "parent", "op", "attrs"])
        for i, s in enumerate(spans):
            attrs = ";".join(f"{k}={v}" for k, v in s.attrs)
            out.writerow([i, s.name, f"{s.start - t0:.9f}", f"{s.end - t0:.9f}", s.parent, s.op, attrs])


# per-layer metrics by the layer boundary that yields them
GROUPS = {
    "fit": ("fit.calls", "fit.busy_s", "fit.starts"),
    "fit.attained": ("fit.attained.calls", "fit.attained.p50_ms", "fit.attained.busy_s"),
    "fit.not_found": ("fit.not_found.calls", "fit.not_found.p50_ms", "fit.not_found.busy_s"),
    "prober.attained": ("prober.attained.calls", "prober.attained.busy_s"),
    "prober.not_found": ("prober.not_found.calls", "prober.not_found.busy_s"),
    "atlas": ("trim_and_mesh.self_s", "strata_csv.s", "write_obj.s", "atlas.self_s"),
    "member": ("member.overhead_ms",),
    "pqr": ("pqr.us",),
    "endpoint": ("endpoint.us",),
    "canonicalize": ("canonicalize.us",),
    "multiply": ("multiply.us",),
    "synthesize": ("synthesize.us",),
    "ag_test": ("ag_test.us", "ag_test.not_optimal_frac"),
    "dice_pqr": ("dice_pqr.us",),
}


def group_of(metric: str) -> str | None:
    return next((g for g, names in GROUPS.items() if metric in names), None)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def _attr(span: Span, key: str):
    return dict(span.attrs).get(key)


def _under(spans: list[Span], index: int, name: str) -> bool:
    """Whether span `index` has an ancestor called `name`."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_groups(spans: list[Span], n_passes: int) -> dict[str, dict[str, float]]:
    """Per-layer metrics from one set of spans, grouped by the layer
    boundary they need; a group is absent when its boundary saw no call.

    Counts and busy times are per pass (totals divided by n_passes).
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    groups: dict[str, dict[str, float]] = {}

    def per_pass(x):
        return x / n_passes

    fits = by_name.get("fit", [])
    if fits:
        groups["fit"] = {
            "fit.calls": per_pass(len(fits)),
            "fit.busy_s": per_pass(sum(spans[i].seconds for i in fits)),
            "fit.starts": per_pass(sum(_attr(spans[i], "starts") for i in fits)),
        }
    for status, key in (("attained", "attained"), ("not-found", "not_found")):
        sel = [i for i in fits if _attr(spans[i], "status") == status]
        if sel:
            secs = [spans[i].seconds for i in sel]
            groups[f"fit.{key}"] = {
                f"fit.{key}.calls": per_pass(len(sel)),
                f"fit.{key}.p50_ms": 1e3 * statistics.median(secs),
                f"fit.{key}.busy_s": per_pass(sum(secs)),
            }
        probes = [i for i in sel if _under(spans, i, "trim_and_mesh")]
        if probes:
            groups[f"prober.{key}"] = {
                f"prober.{key}.calls": per_pass(len(probes)),
                f"prober.{key}.busy_s": per_pass(sum(spans[i].seconds for i in probes)),
            }

    cli_calls = by_name.get("cli.main", [])
    atlas_ops = [i for i in cli_calls if _attr(spans[i], "command") == "atlas"]
    trims = by_name.get("trim_and_mesh", [])
    if atlas_ops and trims:
        groups["atlas"] = {
            "trim_and_mesh.self_s": per_pass(sum(selfs[i] for i in trims)),
            "strata_csv.s": per_pass(sum(spans[i].seconds for i in by_name.get("strata_csv", []))),
            "write_obj.s": per_pass(sum(spans[i].seconds for i in by_name.get("write_obj", []))),
            "atlas.self_s": per_pass(sum(selfs[i] for i in atlas_ops)),
        }
    members = [i for i in cli_calls if _attr(spans[i], "command") == "member"]
    if members:
        groups["member"] = {"member.overhead_ms": 1e3 * statistics.median(selfs[i] for i in members)}

    for name in ("pqr", "endpoint", "canonicalize", "multiply", "synthesize", "ag_test", "dice_pqr"):
        sel = by_name.get(name, [])
        if sel:
            groups[name] = {f"{name}.us": 1e6 * statistics.fmean(spans[i].seconds for i in sel)}
    ag = by_name.get("ag_test", [])
    if ag:
        groups["ag_test"]["ag_test.not_optimal_frac"] = sum(
            1 for i in ag if _attr(spans[i], "verdict") == "not-optimal"
        ) / len(ag)
    return groups
