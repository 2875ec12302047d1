"""A span recorder that times colog's layers from outside the package.

``Tracer.install()`` replaces selected functions and methods with wrappers
that record one span per call: name, start, end and the span that was open
when the call began.  A function imported by name into another module
(``machines`` imports ``legal_extension``, ``strategies`` imports
``fusions``) is replaced in every ``colog`` module that holds it.  A call
made while a span of the same name is open is not recorded, so recursive
functions count only their outermost calls and their whole time lands in
that one span.  ``Tracer.uninstall()`` puts the originals back.

Spans live in flat arrays until ``summary()`` derives, per name, the call
count, the total time and the self time (the span's duration minus the time
its direct child spans cover).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

# (module, attribute, span name): plain functions
FUNCTIONS = [
    ("colog.bits", "fusions", "bits.fusions"),
    ("colog.bits", "defusion", "bits.defusion"),
    ("colog.calculus", "parse_proof", "calculus.parse_proof"),
    ("colog.calculus", "check_proof", "calculus.check_proof"),
    ("colog.strategies", "synthesize", "strategies.synthesize"),
    ("colog.machines", "simulate", "machines.simulate"),
    ("colog.kernel", "legal_extension", "kernel.legal_extension"),
    ("colog.kernel", "position_free", "kernel.position_free"),
    ("colog.kernel", "adjudicate", "kernel.adjudicate"),
    ("colog.kernel", "legal_run", "kernel.legal_run"),
    ("colog.kernel", "first_illegal", "kernel.first_illegal"),
    ("colog.kernel", "thread_projections", "kernel.thread_projections"),
    ("colog.kernel", "cells_projections", "kernel.cells_projections"),
    ("colog.kernel", "bt_structure", "kernel.bt_structure"),
    ("colog.cli", "main", "cli.main"),
]

# (module, class, method, span name): methods patched on the class itself;
# subclasses that inherit the method are covered too
METHODS = [
    ("colog.machines", "DueMachine", "next_moves", "machines.DueMachine.next_moves"),
    ("colog.machines", "Translator", "next_moves", "machines.Translator.next_moves"),
    ("colog.machines", "Router", "next_moves", "machines.Router.next_moves"),
    ("colog.strategies", "ThreadPromotion", "next_moves",
     "strategies.ThreadPromotion.next_moves"),
    ("colog.machines", "MachineStrategy", "fresh", "machines.fresh"),
    ("colog.machines", "Environment", "fresh", "machines.fresh"),
]

# spans whose result length is kept (moves returned, or accepted: 1/0)
COUNTED = {
    "machines.env_on_grant",
    "machines.DueMachine.next_moves",
    "machines.Translator.next_moves",
    "machines.Router.next_moves",
    "strategies.ThreadPromotion.next_moves",
    "kernel.legal_extension",
}

NEXT_MOVES = {name for *_, name in METHODS if name.endswith(".next_moves")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open: dict[int, list[int]] = {}  # name id -> [depth]
        self._undo: list = []
        self._active = [True]
        self._stack: list[int] = []
        self.clear()

    def clear(self):
        """Forget the spans recorded so far (call with no span open)."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("i")  # len(result) for COUNTED spans, else -1

    # -- wrapping ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open[self._ids[name]] = [0]
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        depth = self._open[nid]
        counted = name in COUNTED
        clock = time.perf_counter
        stack = self._stack
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            if depth[0]:
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            depth[0] = 1
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.size.append(-1)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
                depth[0] = 0
            if counted:
                self.size[i] = int(out) if isinstance(out, bool) else len(out)
            return out

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block run unrecorded."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    def install(self):
        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(name, orig)
            for mod in [m for k, m in sys.modules.items()
                        if k == "colog" or k.startswith("colog.")]:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, orig))
            self._undo.append((cls, attr, orig))
        # the random environment's class is made per call: wrap each one
        machines = sys.modules["colog.machines"]
        make_env = machines.random_legal_environment

        @functools.wraps(make_env)
        def traced_env(*args, **kwargs):
            env = make_env(*args, **kwargs)
            cls = type(env)
            cls.on_grant = self.wrap("machines.env_on_grant", cls.on_grant)
            return env

        for mod in [m for k, m in sys.modules.items() if k.startswith("colog")]:
            for key, value in list(vars(mod).items()):
                if value is make_env:
                    setattr(mod, key, traced_env)
                    self._undo.append((mod, key, make_env))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and the summed
        result sizes of COUNTED spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0, "size": 0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total"] += dur
            row["self"] += dur - child[i]
            if self.size[i] > 0:
                row["size"] += self.size[i]
        return out

    def count_children(self, parent_name: str, child_name: str) -> tuple[int, int]:
        """(calls, summed result sizes) of ``child_name`` spans whose parent
        span is named ``parent_name``."""
        pid, cid = self._ids.get(parent_name), self._ids.get(child_name)
        calls = size = 0
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name[i] == cid and p >= 0 and self.name[p] == pid:
                calls += 1
                size += max(self.size[i], 0)
        return calls, size

    def outermost_moves(self) -> int:
        """Moves returned by next_moves calls made by the scheduler itself."""
        return sum(self.count_children("machines.simulate", name)[1]
                   for name in NEXT_MOVES)
