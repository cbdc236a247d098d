"""Spans around the public calls of each silmarils layer, recorded from outside.

``Tracer.install`` replaces every binding of a traced function -- in every
loaded ``silmarils`` module, since ``from .x import y`` binds ``y`` once per
importer -- and every traced method on its class, with a wrapper that records
one span: name, parent span, trial id, start and end in nanoseconds.  Spans
stay in one in-memory ``array`` until the run ends; ``write`` then saves
them.  Field operations are not spanned (a run makes over 10^5); they are
counted with ``count_field_ops`` instead.

A trial id is the number of trials closed before the span began.  A trial
closes when a closing call (``verify``, ``run_signing_session`` or
``_core_verify``) returns directly to a harness estimator, so the forks and
draws an estimator makes for a trial share that trial's id.
"""

from __future__ import annotations

import importlib
import json
import operator
import sys
import time
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass

FIELDS = ("name", "parent", "trial", "start_ns", "end_ns")
_W = len(FIELDS)

# layer -> (module, function or Class.method) traced in it.
LAYERS = {
    "rng": ("silmarils.rng", ("Rng.take", "Rng.fork")),
    "hashing": (
        "silmarils.hashing",
        (
            "derive_nonce",
            "receipt_from_nonce",
            "derive_receipt",
            "derive_message_key",
            "authenticated_value",
        ),
    ),
    "sss": ("silmarils.sss", ("share_with_slope", "reconstruct")),
    "two_party": ("silmarils.two_party", ("sign", "verify", "_core_verify")),
    "three_party": (
        "silmarils.three_party",
        (
            "run_signing_session",
            "P1Signer.emit",
            "P1Signer.deliver",
            "P2Holder.emit",
            "P2Holder.deliver",
            "P3Verifier.emit",
            "P3Verifier.deliver",
        ),
    ),
    "net_sim": ("silmarils.net_sim", ("run_session",)),
    "stats": (
        "silmarils.stats",
        (
            "run_suite",
            "estimate_correctness",
            "estimate_unforgeability",
            "estimate_transferability",
            "estimate_core_forgery",
            "exhaustive_core_forgery",
            "exhaustive_unforgeability",
            "exhaustive_transferability",
            "estimate_secrecy_tv",
        ),
    ),
}
CLOSERS = frozenset({"verify", "run_signing_session", "_core_verify"})


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.names: list = []
        self.layer_of: list = []
        self.spans = array("q")
        self.trial = 0
        self.rng_bytes = 0
        self.arms: Counter = Counter()
        self._stack: list = []
        self._undo: list = []
        self._is_stats: list = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def __len__(self) -> int:
        return len(self.spans) // _W

    def install(self) -> None:
        for layer, (_, calls) in LAYERS.items():
            self.names.extend(calls)
            self.layer_of.extend([layer] * len(calls))
        self._is_stats = [layer == "stats" for layer in self.layer_of]
        for module_name, calls in LAYERS.values():
            module = importlib.import_module(module_name)
            for call in calls:
                name_id = self.names.index(call)
                if "." in call:
                    cls_name, attr = call.split(".")
                    owner = getattr(module, cls_name)
                    self._rebind(owner, attr, owner.__dict__[attr], name_id)
                else:
                    original = getattr(module, call)
                    for mod in _silmarils_modules():
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._rebind(mod, attr, original, name_id)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, original, name_id) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name_id))

    def _wrap(self, fn, name_id: int):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        is_stats = self._is_stats
        call = self.names[name_id]
        closer = call in CLOSERS
        counts_bytes = call == "Rng.take"
        counts_arms = call == "run_signing_session"

        def traced(*args, **kwargs):
            idx = len(spans) // _W
            parent = stack[-1] if stack else -1
            stack.append(idx)
            spans.extend((name_id, parent, tracer.trial, clock(), 0))
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * _W + 4] = clock()
                stack.pop()
            if closer and parent >= 0 and is_stats[spans[parent * _W]]:
                tracer.trial += 1
            if counts_bytes:
                tracer.rng_bytes += args[1]
            if counts_arms:
                tracer.arms[result.arm] += 1
            return result

        return traced

    # -- reductions ---------------------------------------------------------

    def reduce(self, keep_durations=()) -> "SpanSummary":
        """Per-call counts and self times over all spans, and the span
        durations of the calls named in ``keep_durations``."""
        view = memoryview(self.spans)  # strided slices of a view copy nothing
        names = view[0::_W]
        parents = view[1::_W]
        durations = array("q", map(operator.sub, view[4::_W], view[3::_W]))
        child_ns = array("q", bytes(8 * len(durations)))
        for idx, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += durations[idx]
        count = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        kept = {self.names.index(call): [] for call in keep_durations}
        for name_id, dur, child in zip(names, durations, child_ns):
            count[name_id] += 1
            self_ns[name_id] += dur - child
            if name_id in kept:
                kept[name_id].append(dur)
        return SpanSummary(
            count=dict(zip(self.names, count)),
            self_ns=dict(zip(self.names, self_ns)),
            durations_ns={self.names[i]: d for i, d in kept.items()},
            layer_of=dict(zip(self.names, self.layer_of)),
        )

    def write(self, path) -> None:
        """Save the spans: a JSON header line, then the zlib-compressed
        native-endian int64 span array (see ``load_spans``)."""
        header = {
            "fields": FIELDS,
            "names": self.names,
            "layers": self.layer_of,
            "byteorder": sys.byteorder,
            "spans": len(self),
        }
        packed = memoryview(self.spans).cast("B")
        compressor = zlib.compressobj(1)
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for start in range(0, len(packed), 1 << 20):
                out.write(compressor.compress(packed[start : start + (1 << 20)]))
            out.write(compressor.flush())


def load_spans(path) -> tuple:
    """(header, spans) from a file written by ``Tracer.write``; span i is
    ``spans[5 * i : 5 * i + 5]`` in header["fields"] order."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        spans = array("q", zlib.decompress(src.read()))
    if header["byteorder"] != sys.byteorder:
        spans.byteswap()
    return header, spans


@dataclass
class SpanSummary:
    count: dict  # call -> spans
    self_ns: dict  # call -> total self time
    durations_ns: dict  # call -> span durations, for the calls kept
    layer_of: dict  # call -> layer

    def layer_self_ns(self, layer: str) -> int:
        return sum(ns for call, ns in self.self_ns.items() if self.layer_of[call] == layer)


def _silmarils_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "silmarils" or name.startswith("silmarils."))
    ]
