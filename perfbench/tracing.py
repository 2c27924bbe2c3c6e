"""Outside-in span tracing for the benchmark's traced runs.

The program is not instrumented.  :class:`Tracer` wraps a fixed list of
public functions of each layer (class attributes or module functions)
for the duration of the timed phase, records one span per call, and puts
the originals back afterwards.  A span is ``[name, start, end, parent,
info, child_seconds]``; ``parent`` is the innermost open span of the
same thread, so the pool's verifier thread gets its own span trees.  A
layer's self time is its duration minus the time its child spans cover.

Spans stay in memory until :meth:`Tracer.dump` writes them out as JSON
lines when the run ends.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from time import perf_counter


def _retired(args, result) -> int:
    return result.counters.retired


def _retired_lanes(args, result) -> int:
    return sum(lane.counters.retired for lane in result)


def _replayed(args, result) -> int:
    return args[0].chain.replayed


def _batch_inputs(args, result) -> list:
    return list(args[1])


def traced_functions():
    """``(owner, attribute, span name, info)`` for every wrapped call.

    ``info(args, result)`` attaches a value to the span: retired
    instructions for ``Machine.run``, blocks replayed for
    ``Node.restart``, the inputs of each ``hash_batch``.
    """
    from repro.blockchain.chain import Blockchain
    from repro.blockchain.node import Node
    from repro.blockchain.store import BlockStore
    from repro.core.hash_gate import HashGate
    from repro.core.hashcore import HashCore
    from repro.machine import fastpath, jit
    from repro.machine.cpu import Machine
    from repro.widgetgen import codegen
    from repro.widgetgen.generator import WidgetGenerator
    from repro.workloads.base import MemoryDirective

    return [
        (HashCore, "hash", "hashcore.hash", None),
        (HashCore, "hash_batch", "hashcore.hash_batch", _batch_inputs),
        (HashGate, "__call__", "gate", None),
        (WidgetGenerator, "spec", "widgetgen.spec", None),
        # WidgetGenerator.widget imports compile_spec at call time, so the
        # module attribute is the one it calls.
        (codegen, "compile_spec", "widgetgen.codegen", None),
        (Machine, "new_memory", "machine.memory", None),
        (MemoryDirective, "apply", "machine.memory", None),
        # Program.jit_code / fast_handlers call these only when they build.
        (jit, "compile_jit", "machine.translate", None),
        (fastpath, "compile_threaded", "machine.translate", None),
        (Machine, "run", "machine.run", _retired),
        (Machine, "run_lockstep", "machine.run", _retired_lanes),
        (Blockchain, "validate_block", "chain.validate", None),
        (Node, "receive", "node.receive", None),
        (Node, "restart", "node.restart", _replayed),
        (BlockStore, "append", "store.append", None),
    ]


class Tracer:
    """Records spans around the calls listed by :func:`traced_functions`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, info):
        spans = self.spans
        local = self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, perf_counter(), 0.0, stack[-1] if stack else None,
                    None, 0.0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if span[3] is not None:
                    span[3][5] += span[2] - span[1]
                spans.append(span)
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, info in traced_functions():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))
        return self

    def __exit__(self, *_exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[list]:
        return [span for span in self.spans if span[0] == name]

    @staticmethod
    def duration(span: list) -> float:
        return span[2] - span[1]

    @staticmethod
    def self_time(span: list) -> float:
        return span[2] - span[1] - span[5]

    @staticmethod
    def under(span: list, name: str) -> bool:
        """True when an ancestor of ``span`` is named ``name``."""
        parent = span[3]
        while parent is not None:
            if parent[0] == name:
                return True
            parent = parent[3]
        return False

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (ids in completion order)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for index, (name, start, end, parent, info, _) in enumerate(
                self.spans
            ):
                record = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": None if parent is None else ids[id(parent)],
                }
                if isinstance(info, int):
                    record["info"] = info
                out.write(json.dumps(record) + "\n")
