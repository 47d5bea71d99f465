"""Per-layer accounting for the traced run, installed from outside.

:func:`install` wraps the layers' public entry points before any
``Session`` is built.  Every wrapped call is a span; spans nest on one
stack, and a layer's self time is its spans' durations minus the part
their child spans cover.  Spans are aggregated as they close (per-layer
self time, per-key calls and inclusive time) so a run with millions of
calls keeps constant memory; the first :data:`SPAN_SAMPLE` raw spans
are kept as well and written out at the end.

Attribution rules (see NOTES.md):

* a process generator is timed on every resume under the module that
  defined its generator function; work it reaches through
  ``yield from`` counts toward that outer process;
* a ``call_at``/``call_in`` callback is timed under the module of the
  function it calls, a message handler under its own module and keyed
  by payload type;
* ``repro.simnet.transport`` is split into ``flow`` (the fair-share
  flow scheduler and bulk transfers) and ``transport`` (datagrams).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw spans kept in memory and written out with the results.
SPAN_SAMPLE = 20000

#: Module prefix -> layer; the longest matching prefix wins.
MODULE_LAYERS: Dict[str, str] = {
    "repro.simnet.kernel": "kernel",
    "repro.simnet.transport": "transport",
    "repro.simnet.bandwidth": "flow",
    "repro.simnet.topology": "topology",
    "repro.simnet.routing": "topology",
    "repro.simnet.latency": "latency",
    "repro.simnet.loss": "loss",
    "repro.overlay": "overlay",
    "repro.overlay.peer": "peer",
    "repro.overlay.broker": "broker",
    "repro.overlay.statistics": "statistics",
    "repro.overlay.filetransfer": "filetransfer",
    "repro.overlay.discovery": "discovery",
    "repro.selection": "selection",
    "repro.swarm": "swarm",
    "repro.gossip": "gossip",
    "repro.recovery": "recovery",
    "repro.faults": "faults",
    "repro.experiments": "experiments",
    "repro.obs": "obs",
}

#: Qualified-name prefixes in ``repro.simnet.transport`` that are flows.
FLOW_QUALNAMES = ("FlowScheduler.", "Flow.", "Host.reliable_transfer", "Host.start_flow")

#: Payload class name -> message kind reported per type.
MESSAGE_KINDS = {
    "KeepAlive": "keepalive",
    "StatReport": "stat_report",
    "FilePetition": "petition",
    "PartNotice": "part",
    "PartConfirm": "part",
}
MESSAGE_KIND_ORDER = ("keepalive", "stat_report", "gossip", "petition", "part")


def layer_of(module: str, qualname: str = "") -> str:
    if module == "repro.simnet.transport" and qualname.startswith(FLOW_QUALNAMES):
        return "flow"
    best, layer = -1, "other"
    for prefix, name in MODULE_LAYERS.items():
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > best:
            best, layer = len(prefix), name
    return layer


def _function_of(fn: Any) -> Any:
    fn = getattr(fn, "__func__", fn)
    while isinstance(fn, functools.partial):
        fn = getattr(fn.func, "__func__", fn.func)
    return fn


def message_kind(payload_type: type) -> str:
    if payload_type.__module__.startswith("repro.gossip"):
        return "gossip"
    return MESSAGE_KINDS.get(payload_type.__name__, "other")


class Tracer:
    """Span stack plus aggregated per-layer and per-key accounts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.origin = clock()
        #: Open spans, innermost last: ``[layer, time covered by children]``.
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.spans = 0
        self.sample: List[Tuple[str, str, float, float, int]] = []
        self._layers: Dict[Tuple[str, str], str] = {}

    def layer_for(self, fn: Any) -> str:
        target = _function_of(fn)
        key = (getattr(target, "__module__", "") or "", getattr(target, "__qualname__", "") or "")
        layer = self._layers.get(key)
        if layer is None:
            layer = self._layers[key] = layer_of(*key)
        return layer

    def timed(self, fn: Callable, layer: str, key: Optional[str] = None) -> Callable:
        """``fn`` wrapped as a span of ``layer``, counted under ``key``."""
        stack, clock = self.stack, self.clock
        self_s, calls, inclusive_s = self.self_s, self.calls, self.inclusive_s
        sample, tracer = self.sample, self

        def span(*args, **kwargs):
            entry = [layer, 0.0]
            stack.append(entry)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - started
                stack.pop()
                self_s[layer] += duration - entry[1]
                if stack:
                    stack[-1][1] += duration
                if key is not None:
                    calls[key] += 1
                    inclusive_s[key] += duration
                tracer.spans += 1
                if len(sample) < SPAN_SAMPLE:
                    sample.append((layer, key or "", started - tracer.origin, duration, len(stack)))

        span.__name__ = getattr(fn, "__name__", "span")
        span.__qualname__ = getattr(fn, "__qualname__", "span")
        return span

    def wrap_method(self, owner: type, attr: str, layer: str, key: Optional[str] = None) -> None:
        setattr(owner, attr, self.timed(owner.__dict__[attr], layer, key))

    def layer_table(self) -> Dict[str, float]:
        return dict(sorted(self.self_s.items(), key=lambda item: -item[1]))


class _TimedGenerator:
    """Generator proxy that times each resume as a span."""

    __slots__ = ("_gen", "send", "throw")

    def __init__(self, gen: Any, tracer: Tracer, layer: str) -> None:
        self._gen = gen
        self.send = tracer.timed(gen.send, layer)
        self.throw = tracer.timed(gen.throw, layer)

    @property
    def __name__(self) -> str:
        return self._gen.__name__


def install(origin: Optional[Dict[Any, str]] = None) -> Tracer:
    """Wrap every traced entry point; call before any ``Session`` exists.

    ``origin`` maps wrapper generators (from the operation counters) to
    the module of the generator they delegate to.
    """
    from repro.experiments.scenario import Session
    from repro.overlay.broker import Broker
    from repro.overlay.peer import PeerNode
    from repro.overlay.statistics import PeerStats, StalenessClock
    from repro.selection import base as selection_base
    from repro.simnet import kernel, latency, loss
    from repro.simnet.topology import Topology
    from repro.simnet.transport import FlowScheduler, Host

    import repro.recovery.degraded  # noqa: F401 - registers selector subclasses
    import repro.selection.hybrid  # noqa: F401

    tracer = Tracer()
    origin = origin if origin is not None else {}
    Simulator = kernel.Simulator

    # Kernel: the loop itself, plus counts of what it schedules.
    tracer.wrap_method(Simulator, "run", "kernel")

    process = Simulator.process

    def traced_process(self, generator, name=""):
        tracer.calls["kernel.processes"] += 1
        module = origin.get(generator)
        if module is None:
            frame = getattr(generator, "gi_frame", None)
            module = frame.f_globals.get("__name__", "") if frame is not None else ""
        layer = layer_of(module, getattr(generator, "__qualname__", ""))
        return process(self, _TimedGenerator(generator, tracer, layer), name=name or generator.__name__)

    Simulator.process = traced_process

    call_at = Simulator.call_at

    def traced_call_at(self, when, fn, *args):
        tracer.calls["kernel.callbacks"] += 1
        return call_at(self, when, tracer.timed(fn, tracer.layer_for(fn)), *args)

    Simulator.call_at = traced_call_at

    timeout_init = kernel.Timeout.__init__

    def counted_timeout(self, *args, **kwargs):
        tracer.calls["kernel.timeouts"] += 1
        timeout_init(self, *args, **kwargs)

    kernel.Timeout.__init__ = counted_timeout

    # Datagrams: sends, and handlers keyed by payload type.
    tracer.wrap_method(Host, "send", "transport", "transport.send")
    on_message = Host.on_message

    def traced_on_message(self, payload_type, handler):
        kind = message_kind(payload_type)
        if payload_type.__name__ == "GossipPing":
            tracer.calls["gossip.peers"] += 1  # one ping handler per member host
        wrapped = tracer.timed(handler, tracer.layer_for(handler), f"transport.msgs.{kind}")
        return on_message(self, payload_type, wrapped)

    Host.on_message = traced_on_message

    # Per-datagram path, delay and loss samplers.
    tracer.wrap_method(Topology, "path", "topology", "topology.path")
    for cls in vars(latency).values():
        if isinstance(cls, type) and cls.__module__ == latency.__name__ and "sample" in cls.__dict__:
            if cls.__name__ != "LatencyModel":
                tracer.wrap_method(cls, "sample", "latency", "latency.sample")
    for cls in vars(loss).values():
        if isinstance(cls, type) and cls.__module__ == loss.__name__ and "unit_lost" in cls.__dict__:
            tracer.wrap_method(cls, "unit_lost", "loss", "loss.unit_lost")

    # Flows.
    tracer.wrap_method(FlowScheduler, "start_flow", "flow", "flow.start_flow")
    tracer.wrap_method(FlowScheduler, "resample", "flow", "flow.resample")

    # Overlay control plane.
    tracer.wrap_method(Broker, "candidates", "broker", "broker.candidates")
    tracer.wrap_method(StalenessClock, "note", "statistics", "statistics.note")
    tracer.wrap_method(StalenessClock, "note_many", "statistics", "statistics.note_many")
    tracer.wrap_method(PeerStats, "snapshot", "statistics", "statistics.snapshot")
    request = PeerNode.request

    @functools.wraps(request)
    def counted_request(self, *args, **kwargs):
        tracer.calls["peer.request"] += 1
        return request(self, *args, **kwargs)

    PeerNode.request = counted_request

    # Selection: every class that defines its own ``select``.
    pending = [selection_base.PeerSelector]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "select" in cls.__dict__:
            _wrap_select(tracer, cls)

    # Session builds.
    tracer.wrap_method(Session, "__init__", "experiments", "experiments.session_build")
    return tracer


def _wrap_select(tracer: Tracer, cls: type) -> None:
    """Time ``select``; count outermost calls and candidates scored."""
    select = tracer.timed(cls.__dict__["select"], "selection", "selection.select_span")
    depth = [0]

    @functools.wraps(cls.__dict__["select"])
    def counted(self, context):
        if depth[0] == 0:
            tracer.calls["selection.calls"] += 1
            tracer.calls["selection.candidates_scored"] += len(context.candidates)
        depth[0] += 1
        try:
            return select(self, context)
        finally:
            depth[0] -= 1

    cls.select = counted


def timed_study(tracer: Tracer, fn: Callable) -> Callable:
    """A study call as the root span (layer ``experiments``)."""
    return tracer.timed(fn, "experiments", "experiments.study")


def span_cost_s(n: int = 200000) -> float:
    """Seconds one span adds over a bare call (the benchmark's overhead)."""
    def noop():
        return None

    wrapped = Tracer().timed(noop, "bench", "bench.noop")
    clock = time.perf_counter
    started = clock()
    for _ in range(n):
        noop()
    bare = clock() - started
    started = clock()
    for _ in range(n):
        wrapped()
    return max(0.0, (clock() - started - bare) / n)


# -- per-layer metrics ----------------------------------------------------------

_COUNT, _SEC = "count", "s"

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("experiments.sessions", _COUNT, "lower"),
    ("experiments.session_build_s", _SEC, "lower"),
    ("experiments.self_s", _SEC, "lower"),
    ("kernel.events", _COUNT, "lower"),
    ("kernel.processes", _COUNT, "lower"),
    ("kernel.timeouts", _COUNT, "lower"),
    ("kernel.callbacks", _COUNT, "lower"),
    ("kernel.cancelled", _COUNT, "lower"),
    ("kernel.interrupts", _COUNT, "lower"),
    ("kernel.self_s", _SEC, "lower"),
    ("kernel.us_per_event", "us", "lower"),
    ("transport.sends", _COUNT, "lower"),
    ("transport.send_s", _SEC, "lower"),
    ("transport.send_us", "us", "lower"),
    ("transport.lost", _COUNT, "lower"),
    ("transport.self_s", _SEC, "lower"),
    *((f"transport.msgs.{kind}", _COUNT, "lower") for kind in MESSAGE_KIND_ORDER),
    *((f"transport.handler_s.{kind}", _SEC, "lower") for kind in MESSAGE_KIND_ORDER),
    ("topology.path_calls", _COUNT, "lower"),
    ("topology.self_s", _SEC, "lower"),
    ("latency.self_s", _SEC, "lower"),
    ("loss.unit_lost_calls", _COUNT, "lower"),
    ("loss.self_s", _SEC, "lower"),
    ("flow.started", _COUNT, "lower"),
    ("flow.reconciles", _COUNT, "lower"),
    ("flow.touched_per_reconcile", _COUNT, "lower"),
    ("flow.resamples", _COUNT, "lower"),
    ("flow.retransmissions", _COUNT, "lower"),
    ("flow.self_s", _SEC, "lower"),
    ("peer.requests", _COUNT, "lower"),
    ("peer.request_timeouts", _COUNT, "lower"),
    ("peer.self_s", _SEC, "lower"),
    ("broker.keepalives", _COUNT, "lower"),
    ("broker.stat_reports", _COUNT, "lower"),
    ("broker.candidates_calls", _COUNT, "lower"),
    ("broker.candidates_s", _SEC, "lower"),
    ("broker.self_s", _SEC, "lower"),
    ("statistics.notes", _COUNT, "lower"),
    ("statistics.snapshots", _COUNT, "lower"),
    ("statistics.self_s", _SEC, "lower"),
    ("overlay.self_s", _SEC, "lower"),
    ("filetransfer.petitions", _COUNT, "lower"),
    ("filetransfer.parts", _COUNT, "lower"),
    ("filetransfer.part_attempts", _COUNT, "lower"),
    ("filetransfer.self_s", _SEC, "lower"),
    ("discovery.queries", _COUNT, "lower"),
    ("discovery.failures", _COUNT, "lower"),
    ("discovery.self_s", _SEC, "lower"),
    ("selection.calls", _COUNT, "lower"),
    ("selection.candidates_scored", _COUNT, "lower"),
    ("selection.degraded", _COUNT, "lower"),
    ("selection.self_s", _SEC, "lower"),
    ("swarm.downloads", _COUNT, "lower"),
    ("swarm.parts_proven", _COUNT, "higher"),
    ("swarm.duplicate_parts", _COUNT, "lower"),
    ("swarm.useful_ratio", "ratio", "higher"),
    ("swarm.reassignments", _COUNT, "lower"),
    ("swarm.self_s", _SEC, "lower"),
    ("gossip.probes", _COUNT, "lower"),
    ("gossip.ping_reqs", _COUNT, "lower"),
    ("gossip.rumors_sent", _COUNT, "lower"),
    ("gossip.suspects", _COUNT, "lower"),
    ("gossip.false_suspect_ratio", "ratio", "lower"),
    ("gossip.msgs_per_peer", _COUNT, "lower"),
    ("gossip.self_s", _SEC, "lower"),
    ("recovery.resumes", _COUNT, "lower"),
    ("recovery.parts_skipped", _COUNT, "higher"),
    ("recovery.failovers", _COUNT, "lower"),
    ("recovery.self_s", _SEC, "lower"),
    ("faults.episodes", _COUNT, "lower"),
    ("faults.self_s", _SEC, "lower"),
    ("other.self_s", _SEC, "lower"),
    ("obs.spans", _COUNT, "lower"),
    ("obs.bench_overhead_s", _SEC, "lower"),
    ("obs.accounted_ratio", "ratio", "higher"),
    ("obs.trace_overhead", "ratio", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 where the layer was not reached."""
    return numerator / denominator if denominator else 0.0


def registry_value(registry: Any, name: str, total: bool = False) -> float:
    """A counter's or gauge's value, or a histogram's mean — its sum
    with ``total`` (0 if absent)."""
    for table in (registry.counters(), registry.gauges()):
        if name in table:
            return float(table[name].value)
    histogram = registry.histograms().get(name)
    if histogram is not None and histogram.count:
        return float(histogram.sum if total else histogram.mean)
    return 0.0


def per_layer_metrics(tracer: Tracer, registry: Any, total_s: float, span_cost: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``obs.trace_overhead``
    (which needs the untraced run and is added by the caller)."""
    reg = functools.partial(registry_value, registry)
    calls, inclusive, self_s = tracer.calls, tracer.inclusive_s, tracer.self_s
    events = reg("kernel.events_processed")
    sends = calls["transport.send"]
    sessions = calls["experiments.session_build"]
    proven, duplicates = reg("swarm.parts_proven"), reg("swarm.duplicate_parts")
    metrics: Dict[str, float] = {
        "experiments.sessions": sessions,
        "experiments.session_build_s": _ratio(inclusive["experiments.session_build"], sessions),
        "kernel.events": events,
        "kernel.processes": calls["kernel.processes"],
        "kernel.timeouts": calls["kernel.timeouts"],
        "kernel.callbacks": calls["kernel.callbacks"],
        "kernel.cancelled": reg("kernel.events_cancelled"),
        "kernel.interrupts": reg("kernel.interrupts"),
        "kernel.us_per_event": _ratio(self_s["kernel"], events) * 1e6,
        "transport.sends": sends,
        "transport.send_s": inclusive["transport.send"],
        "transport.send_us": _ratio(inclusive["transport.send"], sends) * 1e6,
        "transport.lost": reg("net.messages_lost"),
        "topology.path_calls": calls["topology.path"],
        "loss.unit_lost_calls": calls["loss.unit_lost"],
        "flow.started": reg("flow.started"),
        "flow.reconciles": reg("flow.reconciles"),
        "flow.touched_per_reconcile": reg("flow.touched_per_reconcile"),
        "flow.resamples": calls["flow.resample"],
        "flow.retransmissions": reg("net.retransmissions"),
        "peer.requests": calls["peer.request"],
        "peer.request_timeouts": reg("peer.request_timeouts"),
        "broker.keepalives": reg("broker.keepalives"),
        "broker.stat_reports": reg("broker.stat_reports"),
        "broker.candidates_calls": calls["broker.candidates"],
        "broker.candidates_s": inclusive["broker.candidates"],
        "statistics.notes": calls["statistics.note"],
        "statistics.snapshots": calls["statistics.snapshot"],
        "filetransfer.petitions": reg("overlay.petition_attempts"),
        "filetransfer.parts": reg("overlay.parts_sent"),
        "filetransfer.part_attempts": reg("overlay.part_attempts", total=True),
        "discovery.queries": reg("overlay.discovery_attempts"),
        "discovery.failures": reg("overlay.discovery_failures"),
        "selection.calls": calls["selection.calls"],
        "selection.candidates_scored": calls["selection.candidates_scored"],
        "selection.degraded": reg("selection.degraded"),
        "swarm.downloads": reg("swarm.downloads_ok") + reg("swarm.downloads_failed"),
        "swarm.parts_proven": proven,
        "swarm.duplicate_parts": duplicates,
        "swarm.useful_ratio": _ratio(proven, proven + duplicates),
        "swarm.reassignments": reg("swarm.reassignments"),
        "gossip.probes": reg("gossip.probes"),
        "gossip.ping_reqs": reg("gossip.ping_reqs"),
        "gossip.rumors_sent": reg("gossip.rumors_sent"),
        "gossip.suspects": reg("gossip.suspects"),
        "gossip.false_suspect_ratio": _ratio(reg("gossip.false_suspects"), reg("gossip.suspects")),
        "gossip.msgs_per_peer": _ratio(calls["transport.msgs.gossip"], calls["gossip.peers"]),
        "recovery.resumes": reg("recovery.resumes"),
        "recovery.parts_skipped": reg("recovery.parts_skipped"),
        "recovery.failovers": reg("recovery.failovers"),
        "faults.episodes": reg("fault.episodes"),
        "obs.spans": tracer.spans,
        "obs.bench_overhead_s": tracer.spans * span_cost,
        "obs.accounted_ratio": _ratio(sum(self_s.values()), total_s),
    }
    for kind in MESSAGE_KIND_ORDER:
        metrics[f"transport.msgs.{kind}"] = calls[f"transport.msgs.{kind}"]
        metrics[f"transport.handler_s.{kind}"] = inclusive[f"transport.msgs.{kind}"]
    for name, unit, _better in PER_LAYER:
        if name.endswith(".self_s") and name not in metrics:
            metrics[name] = self_s[name.split(".")[0]]
    return {name: float(value) for name, value in metrics.items()}
