"""Span recorder for the traced run.

The recorder wraps public functions of the juliaspec layers from outside:
every module namespace that bound a target function (for example
`cli.dyn_preimages` for `dynamics.preimages`) gets the same wrapper, and
methods are wrapped on their class.  Nothing is added to the package.

A span is (op id, span id, parent span id, name, start, end).  Spans stay in
memory until `write`.  Self time is a span's duration minus the time its
direct child spans cover; calls are single-threaded, so children never
overlap and that is the sum of their durations.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path) of every wrapped function.  numeration and
# sequences stay unwrapped: they are hot scalar helpers whose time belongs to
# their callers' self time.
TARGETS = [
    ("cli", "main"),
    ("config", "parse_config"),
    ("chain", "ChainConfig.transition_row"),
    ("chain", "ChainConfig.simulate"),
    ("chain", "ChainConfig.return_statistics"),
    ("chain", "write_trajectory_csv"),
    ("dynamics", "preimages"),
    ("dynamics", "dedup_points"),
    ("dynamics", "residual_set"),
    ("dynamics", "escape_classify"),
    ("dynamics", "factor_trace"),
    ("dynamics", "factor_values"),
    ("spectra", "classify"),
    ("spectra", "spectrum_summary"),
    ("spectra", "residual_l1"),
    ("operator", "build_truncation"),
    ("operator", "weyl_vector"),
    ("operator", "weyl_defect"),
    ("operator", "truncated_eigenvalues"),
    ("operator", "eigenvalue_report"),
    ("operator", "write_matrix_csv"),
    ("render", "render_field"),
    ("render", "write_field_csv"),
    ("render", "write_image"),
    ("render", "count_components"),
    ("render", "component_of_zero"),
]

MARK = "__perfbench_span__"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _distinct(tracer, name, key) -> int:
    """1 the first time `key` is seen in the current op, else 0."""
    seen = tracer.seen[name]
    if key in seen:
        return 0
    seen.add(key)
    return 1


# Per wrapped function: (counter name, function of (tracer, args, kwargs, result) -> increment).
COUNTERS = {
    "dynamics.preimages": [("leaves", lambda t, a, k, r: len(r))],
    "dynamics.dedup_points": [
        ("in", lambda t, a, k, r: len(_arg(a, k, 0, "points"))),
        ("kept", lambda t, a, k, r: len(r)),
    ],
    "dynamics.escape_classify": [("escaped", lambda t, a, k, r: int(r.escaped))],
    "spectra.residual_l1": [
        (
            "distinct",
            lambda t, a, k, r: _distinct(
                t,
                "spectra.residual_l1",
                (
                    _arg(a, k, 0, "sys").p,
                    _arg(a, k, 0, "sys").base.spec,
                    _arg(a, k, 1, "depth"),
                    a[2] if len(a) > 2 else k.get("tol", 1e-8),
                ),
            ),
        )
    ],
    "chain.ChainConfig.transition_row": [
        (
            "distinct",
            lambda t, a, k, r: _distinct(
                t, "chain.ChainConfig.transition_row", (a[0].p, a[0].base.spec, _arg(a, k, 1, "n"))
            ),
        )
    ],
    "operator.build_truncation": [("rows", lambda t, a, k, r: r.size)],
    "render.render_field": [
        ("pixels", lambda t, a, k, r: int(r.steps.size)),
        ("inside", lambda t, a, k, r: int(r.inside.sum())),
    ],
    "render.write_field_csv": [("rows", lambda t, a, k, r: int(_arg(a, k, 0, "field").steps.size))],
    "chain.ChainConfig.return_statistics": [
        (
            "traj_steps",
            lambda t, a, k, r: _arg(a, k, 2, "trajectories") * _arg(a, k, 3, "horizon"),
        )
    ],
}

# Span names that may root an op: the CLI entry and the library entry point.
ROOTS = {"cli.main", "operator.weyl_defect"}


class Tracer:
    """Installs wrappers, records spans and aggregates calls, times and counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.seen = defaultdict(set)
        self.op_id = -1
        self._patches: list = []

    # -- ops ------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Start attributing spans to `op_id`; distinct-key sets are per op."""
        self.op_id = op_id
        self.seen.clear()

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name, ())
        spans, stack = self.spans, self.stack
        calls, total, self_time, counts = self.calls, self.total, self.self_time, self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (tracer.op_id, sid, parent, name, t0, t1)
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[1]
            for cname, fn_count in counters:
                counts[f"{name}.{cname}"] += fn_count(tracer, args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        for mod_name, path in TARGETS:
            module = sys.modules[f"juliaspec.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(module, path)
            wrapper = self._wrap(name, orig)
            for mod in juliaspec_modules():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def stats(self) -> dict:
        """{metric name: value} for every target and counter, zeros included."""
        out = {}
        for mod_name, path in TARGETS:
            name = f"{mod_name}.{path}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        for name, counters in COUNTERS.items():
            for cname, _ in counters:
                out[f"{name}.{cname}"] = self.counts[f"{name}.{cname}"]
        return out

    def coverage_errors(self, op_intervals: dict) -> list[str]:
        """Check every op has one root span inside its timed interval that
        covers all the op's other spans."""
        by_op = defaultdict(list)
        for span in self.spans:
            by_op[span[0]].append(span)
        errors = []
        for op_id, (t0, t1) in op_intervals.items():
            spans = by_op.pop(op_id, [])
            roots = [s for s in spans if s[2] == -1]
            if len(roots) != 1 or roots[0][3] not in ROOTS:
                errors.append(f"op {op_id}: roots {[s[3] for s in roots]}")
                continue
            root = roots[0]
            if not (t0 <= root[4] and root[5] <= t1):
                errors.append(f"op {op_id}: root span outside the op's timed interval")
            if any(s[4] < root[4] or s[5] > root[5] for s in spans):
                errors.append(f"op {op_id}: a span leaves the root's interval")
        if by_op:
            errors.append(f"spans outside any op: {sorted(by_op)[:5]}")
        return errors

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start,end\n")
            for op_id, sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{op_id},{sid},{parent},{name},{t0!r},{t1!r}\n")


def juliaspec_modules():
    return [m for n, m in list(sys.modules.items()) if n == "juliaspec" or n.startswith("juliaspec.")]


def namespace_snapshot() -> dict:
    """Identity of every attribute of every juliaspec module and class."""
    snap = {}
    for mod in juliaspec_modules():
        for attr, val in vars(mod).items():
            snap[(mod.__name__, attr)] = id(val)
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for cattr, cval in vars(val).items():
                    snap[(mod.__name__, f"{attr}.{cattr}")] = id(cval)
    return snap


def patched_attributes(before: dict) -> list[str]:
    """Attributes that differ from `before` or carry a span wrapper."""
    after = namespace_snapshot()
    changed = [f"{m}.{a}" for (m, a), v in after.items() if before.get((m, a)) != v]
    for mod in juliaspec_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, MARK):
                changed.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type):
                changed += [f"{mod.__name__}.{attr}.{c}" for c, cv in vars(val).items() if hasattr(cv, MARK)]
    return sorted(set(changed))
