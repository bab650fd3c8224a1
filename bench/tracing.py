"""Outside-in tracing of pilotspace's public functions, and import-time parsing.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``pilotspace.*`` namespace that holds a binding to it.  Patching only
the defining module would miss calls made through names copied by
``from .x import y`` (for example ``experiments.design_observation_matrix``).
Spans are kept in memory as tuples and written out once, after the run.
Self time is a span's duration minus the durations of its direct children,
tracked with a stack of open spans.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

TRACED = {
    "rlinalg": ("r_orthonormalize", "real_rank", "skew_canonical_form",
                "compression_matrix"),
    "variation": ("variation_space", "canonical_decompose"),
    "models": ("estimated_variation_space", "physical_variation_space",
               "steering_matrix"),
    "pilot": ("design_observation_matrix", "verify_optimality_certificates"),
    "crb": ("crb_via_variation_space", "crb_direct", "check_identifiability"),
    "experiments": ("run_multipath", "generate_clustered_channel",
                    "ac_strategy_bound", "proposed_strategy_bound",
                    "relative_bias"),
    "fileio": ("read_matrix", "write_matrix", "write_json", "write_curve_table"),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Span tuple fields.
NAME, OP, PARENT, START, END, CHILD_TIME, RAISED = range(7)


class Tracer:
    """Collects one span per call of a traced function while installed."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []          # open spans: [name, child_time]
        self._patches = []        # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((name, self.op, parent, start, end, frame[1], raised))

        return traced

    def install(self):
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == "pilotspace"
                                            or key.startswith("pilotspace."))]
        for mod_name, fn_names in TRACED.items():
            home = sys.modules[f"pilotspace.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def summary(self, n_ops):
        """Per-function calls, self time and raise counts, per op."""
        calls = collections.Counter()
        self_time = collections.Counter()
        raised = collections.Counter()
        for span in self.spans:
            name = span[NAME]
            calls[name] += 1
            self_time[name] += span[END] - span[START] - span[CHILD_TIME]
            raised[name] += span[RAISED]
        out = {}
        for name in TRACED_NAMES:
            out[name] = {
                "calls_per_op": calls[name] / n_ops,
                "self_ms_per_op": 1e3 * self_time[name] / n_ops,
                "raised_per_op": raised[name] / n_ops,
            }
        return out

    def child_share(self, name):
        """Time in direct child spans of ``name`` over its total time."""
        total = child = 0.0
        for span in self.spans:
            if span[NAME] == name:
                total += span[END] - span[START]
                child += span[CHILD_TIME]
        return child / total if total > 0 else 0.0

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,op,parent,start_s,end_s,child_s,raised\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[OP]},{s[PARENT] or ''},{s[START]!r},"
                         f"{s[END]!r},{s[CHILD_TIME]!r},{int(s[RAISED])}\n")


def import_self_ms(importtime_stderr, package):
    """Summed self time (ms) of the modules of ``package`` in -X importtime output."""
    total_us = 0
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[2].strip()
        if name == package or name.startswith(package + "."):
            try:
                total_us += int(fields[0])
            except ValueError:      # the header line
                continue
    return total_us / 1e3
