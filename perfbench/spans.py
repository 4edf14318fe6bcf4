"""Spans and counts taken around the calls into each swarmtopo layer.

The program itself is not changed.  A Recorder swaps module attributes
(public functions, and each protocol class's ``on_round``) for wrappers
while one pipeline runs, and puts the originals back afterwards.

An untimed Recorder only wraps the seven protocol functions, to read the
RunResult counts that cli.run_pipeline otherwise drops (deliveries); that
costs a handful of calls per pipeline.  A timed Recorder also keeps one
span per call into a layer and times every protocol handler call.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import time
from dataclasses import dataclass, field

clock = time.perf_counter


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# layer calls timed as spans: (module, public function)
LAYER_CALLS = (
    ("cli", "run_pipeline"),
    ("cli", "write_reports"),
    ("geometry", "validate_region"),
    ("geometry", "sample_uniform"),
    ("netgraph", "build_udg"),
    ("netgraph", "is_connected"),
    ("convergetree", "check_tree"),
    ("boundary", "alpha_sweep"),
    ("topo", "thickness"),
)

# protocol phases: public function -> (its RunResults, what the checks keep)
PROTOCOL_CALLS = {
    ("convergetree", "build_tree"): (lambda out: [out.result], lambda out: out.states),
    ("convergetree", "aggregate"): (lambda out: [out[1]], lambda out: out[0]),
    ("convergetree", "broadcast_down"): (lambda out: [out[1]], None),
    ("boundary", "classify"): (lambda out: [out[1]], None),
    ("boundary", "form_components"): (lambda out: out.results, None),
    ("boundary", "distance_flood"): (lambda out: [out[1]], None),
    ("boundary", "run_token_loops"): (lambda out: [out[1]], None),
}

# the executor, as the protocol modules import it
EXECUTOR_CALLS = (("convergetree", "run_protocol"), ("boundary", "run_protocol"))
EXECUTOR_SPAN = "simkernel.run_protocol"


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    rss_mb: float = 0.0  # process high-water mark when the span closed

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class ProtocolRun:
    """One executor run, in call order (one row of cost.csv)."""
    function: str
    rounds: int
    broadcasts: int
    id_units: int
    deliveries: int
    span: int  # index of the public function's span; -1 when untimed
    kept: object = None


@dataclass
class Recorder:
    modules: dict
    timed: bool
    spans: list[Span] = field(default_factory=list)
    runs: list[ProtocolRun] = field(default_factory=list)
    handler_s: float = 0.0
    handler_calls: int = 0
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple] = field(default_factory=list)

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append(Span(name, clock(), self._stack[-1] if self._stack else -1))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = clock()
        span.rss_mb = peak_rss_mb()
        self._stack.pop()

    def children(self, idx: int) -> list[Span]:
        return [s for s in self.spans if s.parent == idx]

    def self_seconds(self, idx: int) -> float:
        """Span duration minus the time its direct children cover."""
        return self.spans[idx].seconds - sum(c.seconds for c in self.children(idx))

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def dump(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "self_s": self.self_seconds(i),
                 "rss_mb": s.rss_mb}
                for i, s in enumerate(self.spans)]

    # -- wrappers ------------------------------------------------------

    def _wrap(self, mod_name: str, attr: str, after=None) -> None:
        mod = self.modules[mod_name]
        orig = getattr(mod, attr)
        name = EXECUTOR_SPAN if attr == "run_protocol" else f"{mod_name}.{attr}"
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = rec._open(name) if rec.timed else -1
            try:
                out = orig(*args, **kwargs)
            finally:
                if idx >= 0:
                    rec._close(idx)
            if after is not None:
                after(out, idx)
            return out

        setattr(mod, attr, wrapper)
        self._undo.append((mod, attr, orig))

    def _wrap_handler(self, cls) -> None:
        orig = cls.__dict__["on_round"]
        rec = self

        def on_round(node, rnd, inbox):
            t = clock()
            out = orig(node, rnd, inbox)
            rec.handler_s += clock() - t
            rec.handler_calls += 1
            return out

        cls.on_round = on_round
        self._undo.append((cls, "on_round", orig))

    def _protocol_after(self, fn: str, results_of, keep):
        def after(out, idx):
            for res in results_of(out):
                self.runs.append(ProtocolRun(
                    function=fn, rounds=res.rounds_used,
                    broadcasts=res.ledger.total_broadcasts,
                    id_units=res.ledger.total_id_units,
                    deliveries=res.deliveries, span=idx,
                    kept=keep(out) if keep else None))
        return after

    @contextlib.contextmanager
    def installed(self):
        try:
            for (mod, attr), (results_of, keep) in PROTOCOL_CALLS.items():
                self._wrap(mod, attr, self._protocol_after(f"{mod}.{attr}", results_of, keep))
            if self.timed:
                for mod, attr in LAYER_CALLS + EXECUTOR_CALLS:
                    self._wrap(mod, attr)
                for cls in protocol_classes(self.modules["simkernel"].NodeProto):
                    self._wrap_handler(cls)
            yield self
        finally:
            while self._undo:
                obj, attr, orig = self._undo.pop()
                setattr(obj, attr, orig)


def protocol_classes(base) -> list[type]:
    """Every subclass of `base` that defines its own on_round."""
    out, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "on_round" in cls.__dict__:
            out.append(cls)
    return sorted(out, key=lambda c: (c.__module__, c.__qualname__))


class _FirstProtocol(Exception):
    """Raised by the set-up probe when the pipeline starts its first protocol."""


def setup_seconds(modules: dict, config) -> float:
    """Time cli.run_pipeline takes to reach its first protocol phase: region
    resolved and validated, nodes sampled, graph built, connectivity checked."""
    saved = []

    def stop(*_args, **_kwargs):
        raise _FirstProtocol

    for mod, attr in PROTOCOL_CALLS:
        saved.append((modules[mod], attr, getattr(modules[mod], attr)))
        setattr(modules[mod], attr, stop)
    t0 = clock()
    try:
        modules["cli"].run_pipeline(config)
    except _FirstProtocol:
        return clock() - t0
    finally:
        for obj, attr, orig in saved:
            setattr(obj, attr, orig)
    raise RuntimeError("pipeline finished without starting a protocol phase")
