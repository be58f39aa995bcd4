"""In-memory span recorder that wraps creditfolio's public functions from outside.

A span is (id, name, tag, start, end, parent).  Wrappers are installed on
the module attribute each caller actually resolves at call time, so the
package source is untouched: ``pde`` reaches ``validate_spec`` through its own
import, ``cli`` reaches ``solve_recursive_system`` through its own import, and
``pde`` reaches the control solver as ``strategy.solve_hhat_slice``.  The run
is single-threaded (``CREDITFOLIO_THREADS=1``), so one stack gives every
span its parent.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name, tag):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [sid, name, tag, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(sid)
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, tag=None):
        span = self._open(name, tag)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, owners, tag=None):
        """Record a span named ``name`` around the function at ``owners[0]``.

        ``owners`` lists every (module, attribute) pair through which the
        workloads reach that one function; each is rebound to the wrapper.
        ``tag(args, kwargs)`` labels a span from the call's arguments.
        """
        fn = getattr(*owners[0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, tag(args, kwargs) if tag else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        for module, attr in owners:
            self._undo.append((module, attr, getattr(module, attr)))
            setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, tag, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "tag": tag, "start": start,
                                     "end": end, "parent": parent, "run": self.run_id}) + "\n")


def install(tracer: Tracer, creditfolio) -> None:
    """Wrap the public functions of model, pde, strategy, sim and cli."""
    cli, pde, sim, strategy = creditfolio.cli, creditfolio.pde, creditfolio.sim, creditfolio.strategy

    def pass_kind(args, kwargs):
        bounds = kwargs["bounds"] if "bounds" in kwargs else (args[8] if len(args) > 8 else None)
        return "bootstrap" if bounds is None else "clamped"

    def out_dir(args, kwargs):
        return str(args[1] if len(args) > 1 else kwargs["out_dir"])

    def in_dir(args, kwargs):
        return str(args[0] if args else kwargs["out_dir"])

    tracer.wrap("cli.dump_solution", [(cli, "dump_solution")], tag=out_dir)
    tracer.wrap("cli.load_solution", [(cli, "load_solution")], tag=in_dir)
    tracer.wrap("model.validate_spec", [(cli, "validate_spec"), (pde, "validate_spec")])
    tracer.wrap("pde.solve_recursive_system",
                [(pde, "solve_recursive_system"), (cli, "solve_recursive_system"),
                 (creditfolio, "solve_recursive_system")])
    tracer.wrap("pde.step_slice", [(pde, "step_slice")], tag=pass_kind)
    tracer.wrap("pde.truncation_bounds", [(pde, "truncation_bounds")])
    tracer.wrap("strategy.solve_hhat_slice", [(strategy, "solve_hhat_slice")])
    tracer.wrap("strategy.build_policy", [(strategy, "build_policy")])
    for fn in ("simulate_market", "check_G_martingale", "mc_feynman_kac", "duality_gap"):
        tracer.wrap(f"sim.{fn}", [(sim, fn)])


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, _, _, start, end, _ in spans]
    for _, _, _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def has_ancestor(spans, sid, name) -> bool:
    parent = spans[sid][5]
    while parent is not None:
        if spans[parent][1] == name:
            return True
        parent = spans[parent][5]
    return False
