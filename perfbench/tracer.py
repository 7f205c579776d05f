"""Layer timing from outside the program.

The tracer replaces named module and class attributes of ``sparsim`` with
timing wrappers and puts the originals back on ``uninstall``. The library
looks these names up at call time (``engine.run_spgemm_simulation`` calls
``oracle.symbolic_pass``, ``isa.lower_spgemm`` and ``matio.to_csc``
through their modules; the engine calls ``comp.step`` and
``mapper.map_for_accumulation`` through the instance), so no source file
changes.

Two kinds of wrapper:

* span -- one record per call (name, start, end, parent span, op label),
  kept in memory and written out when the benchmark ends. Used for calls
  into a layer that happen a few times per op.
* counter -- per-name totals of time and calls only, for the hot calls
  made thousands to millions of times per op (component steps, tag
  mapping, tile expansion), where a record per call would cost more
  memory than the run itself.

Self time: every wrapper adds its own duration to a shared "covered"
clock after removing what its callees added, so a span's self time is its
duration minus the time covered by the wrapped calls made inside it.
Span wrappers pass calls from other threads (the SMASH workers) through
untraced, so they never interleave with the span stack; the counted hot
calls are made by the engine and by replay, on the main thread only.
"""

from __future__ import annotations

import itertools
import threading
import time

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.totals = {}  # counter name -> [seconds, calls, calls with activity > 0]
        self.op = None  # label of the op the benchmark is running
        self.audits = []
        self._covered = [0.0]
        self._stack = [0]  # ids of the open spans; 0 is the root
        self._ids = itertools.count(1)
        self._patches = []
        self._thread = threading.get_ident()

    # -- installing ------------------------------------------------------------

    def call(self, name, fn, /, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one span called ``name``."""
        stack, covered = self._stack, self._covered
        sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        c0 = covered[0]
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            dur = t1 - t0
            inner = covered[0] - c0
            covered[0] = c0 + dur
            stack.pop()
            self.spans.append({
                "id": sid, "parent": parent, "op": self.op, "name": name,
                "start": t0, "end": t1, "self_s": dur - inner,
            })

    def span(self, owner, attr, name, name_of=None):
        """Record a span per call of ``owner.attr``; ``name_of(args)``, when
        given, names the span from the call's arguments."""
        orig = getattr(owner, attr)
        tid = self._thread

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tid:
                return orig(*args, **kwargs)
            return self.call(name_of(args) if name_of else name, orig, *args, **kwargs)

        self._patch(owner, attr, wrapper)

    def counter(self, owner, attr, name, activity=False):
        """Total time and calls of ``owner.attr``; with ``activity`` also
        count calls after which the component's ``activity`` is above 0."""
        orig = getattr(owner, attr)
        covered = self._covered
        tot = self.totals.setdefault(name, [0.0, 0, 0])

        def wrapper(*args, **kwargs):
            c0 = covered[0]
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                covered[0] = c0 + dur
                tot[0] += dur
                tot[1] += 1
            if activity and args[0].activity > 0:
                tot[2] += 1
            return result

        self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, saved = self._patches.pop()
            setattr(owner, attr, saved)

    # -- reading -----------------------------------------------------------------

    def seconds(self, name):
        """Summed duration of the spans or counter called ``name``."""
        if name in self.totals:
            return self.totals[name][0]
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_seconds(self, name):
        return sum(s["self_s"] for s in self.spans if s["name"] == name)

    def calls(self, name):
        if name in self.totals:
            return self.totals[name][1]
        return sum(1 for s in self.spans if s["name"] == name)

    def active_ratio(self, name):
        _, calls, active = self.totals.get(name, (0.0, 0, 0))
        return active / calls if calls else 0.0

    def to_json_dict(self):
        return {
            "spans": self.spans,
            "counters": {
                name: {"seconds": s, "calls": n, "active_calls": a}
                for name, (s, n, a) in sorted(self.totals.items())
            },
        }


def install():
    """A tracer wrapping every layer boundary the benchmark reports.

    ``smash.SmashAudit`` is wrapped too, so the audits SMASH makes for
    itself are kept in ``tracer.audits`` without asking SMASH to keep its
    window tables, which passing an audit in would do.
    """
    from sparsim import engine, isa, mapping, matio, oracle, smash, uarch

    tr = Tracer()
    audit_cls = smash.SmashAudit

    def audit(*args, **kwargs):
        obj = audit_cls(*args, **kwargs)
        tr.audits.append(obj)
        return obj

    tr._patch(smash, "SmashAudit", audit)
    tr.span(matio, "to_csc", "matio.to_csc")
    for attr in ("symbolic_pass", "plan_windows", "spgemm_gustavson", "bloat_report"):
        tr.span(oracle, attr, f"oracle.{attr}")
    tr.span(isa, "lower_spgemm", "isa.lower_spgemm")
    tr.span(isa, "replay", "isa.replay")
    tr.span(smash, "smash_spgemm", "smash", name_of=lambda args: f"smash.{args[2].version}")
    tr.span(engine.SimRun, "__init__", "engine.init")
    tr.span(engine.SimRun, "run_to_completion", "engine.run")
    tr.counter(isa, "expand_mmh4", "isa.expand")
    tr.counter(mapping.Mapper, "map_for_accumulation", "mapping.map")
    tr.counter(uarch.CoreModel, "step", "uarch.core.step", activity=True)
    tr.counter(uarch.MemModel, "step", "uarch.mem.step", activity=True)
    tr.counter(uarch.MemCtrlModel, "step", "uarch.memctrl.step", activity=True)
    return tr
