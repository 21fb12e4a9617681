"""In-memory span tracing around the public entry points of each layer.

The benchmark records spans from its own files: :data:`TARGETS` is the one
table of dotted names, and :meth:`SpanRecorder.install` replaces each named
callable with a wrapper that appends one span (name, start, end, parent,
client operation) to flat arrays.  Nothing inside ``src/`` knows about it.

A layer's self time is its spans' durations minus what their child spans
cover, so the self times of a span tree add up to the duration of its root,
and a phase's wall time is the sum of every span's self time plus the
*residual*: wall time no span covers (the benchmark's own generator code,
and any target that no longer resolves).

Tracing roughly doubles the cost of the hottest paths, so end-to-end
numbers are never taken from a traced run; ``trace.overhead_ratio`` says
how far the traced wall time is from the untraced one.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter
from typing import Any, Callable

import numpy as np

#: layer names are the module names a later performance claim refers to
LAYERS = (
    "core",
    "api",
    "sim.kernel",
    "sim.network",
    "consistency.pbft",
    "consistency.secondary",
    "routing",
    "crypto.rsa",
    "crypto.blockcipher",
    "archival",
    "data",
    "recovery",
    "telemetry",
    "util.serialization",
)

#: (dotted target, layer).  A target is ``module.attr`` or
#: ``module.Class.attr``, naming a callable or a dispatch table (a dict
#: whose values are callables, each wrapped under its key's name).  One
#: that does not resolve is counted in ``trace.missing_targets`` and its
#: time falls into its caller's self time (or the residual) -- it never
#: breaks a run.
#:
#: Message handlers are traced at the protocols' dispatch tables, so a span
#: is a message the protocol acted on.  The mailbox-level ``handle`` methods
#: are not targets: every subscriber of a node sees every message delivered
#: there (32 dissemination roots each inspect every heartbeat ack), and a
#: span around each rejection costs ten times the rejection.  That fan-out,
#: the failure detector's per-message replies, and any other handler not
#: named here are part of ``sim.kernel`` self time: the cost of delivery.
TARGETS: tuple[tuple[str, str], ...] = (
    ("repro.core.system.OceanStoreSystem.__init__", "core"),
    ("repro.core.system.OceanStoreSystem.create_object", "core"),
    ("repro.core.system.OceanStoreSystem.read_state", "core"),
    ("repro.core.system.OceanStoreSystem.submit_update", "core"),
    ("repro.core.system.OceanStoreSystem.settle", "core"),
    ("repro.core.system.OceanStoreSystem.archive_object", "core"),
    ("repro.core.system.OceanStoreSystem.restore_from_archive", "core"),
    ("repro.core.client.make_client", "core"),
    ("repro.api.oceanstore.OceanStoreHandle.create_object", "api"),
    ("repro.api.oceanstore.OceanStoreHandle.grant_read", "api"),
    ("repro.api.oceanstore.OceanStoreHandle.read", "api"),
    ("repro.api.oceanstore.OceanStoreHandle.write", "api"),
    ("repro.api.oceanstore.OceanStoreHandle.update_builder", "api"),
    ("repro.api.oceanstore.OceanStoreHandle.submit", "api"),
    ("repro.sim.kernel.Kernel.run", "sim.kernel"),
    ("repro.sim.network.Network.send", "sim.network"),
    ("repro.consistency.pbft.InnerRing.submit", "consistency.pbft"),
    ("repro.consistency.pbft._PBFT_DISPATCH", "consistency.pbft"),
    ("repro.consistency.secondary.SecondaryTier.submit_tentative", "consistency.secondary"),
    ("repro.consistency.secondary.SecondaryTier.push_committed", "consistency.secondary"),
    ("repro.consistency.secondary._SECONDARY_DISPATCH", "consistency.secondary"),
    ("repro.routing.service.LocationService.locate", "routing"),
    ("repro.routing.service.LocationService.add_replica", "routing"),
    ("repro.routing.probabilistic.ProbabilisticLocator.converge", "routing"),
    ("repro.crypto.rsa.generate_keypair", "crypto.rsa"),
    ("repro.crypto.rsa.PrivateKey.sign", "crypto.rsa"),
    ("repro.crypto.rsa.PublicKey.verify", "crypto.rsa"),
    ("repro.crypto.blockcipher.PositionDependentCipher.encrypt_block", "crypto.blockcipher"),
    ("repro.crypto.blockcipher.PositionDependentCipher.decrypt_block", "crypto.blockcipher"),
    ("repro.archival.fragments.encode_archival", "archival"),
    ("repro.archival.reed_solomon.ReedSolomonCode.encode", "archival"),
    ("repro.archival.reed_solomon.ReedSolomonCode.decode", "archival"),
    ("repro.archival.reconstruction.FragmentFetcher.fetch", "archival"),
    ("repro.data.ciphertext_ops.UpdateBuilder.build", "data"),
    ("repro.data.objects.PersistentObject.apply_update", "data"),
    ("repro.recovery.detector.FailureDetector._round", "recovery"),
    ("repro.recovery.detector.FailureDetector._evaluate", "recovery"),
    ("repro.telemetry.Telemetry.count", "telemetry"),
    ("repro.telemetry.Telemetry.observe", "telemetry"),
    ("repro.telemetry.Telemetry.record", "telemetry"),
    ("repro.telemetry.Telemetry.span", "telemetry"),
    ("repro.util.serialization.encode", "util.serialization"),
)

#: targets that call themselves: only the outermost call gets a span
RECURSIVE = frozenset({"repro.util.serialization.encode"})


def _resolve(dotted: str) -> tuple[Any, str, Any] | None:
    """(owner, attribute, callable or dispatch dict) for a target, or None."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            original = owner.__dict__[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
        except (AttributeError, KeyError):
            return None
        if callable(original) or isinstance(original, dict):
            return owner, parts[-1], original
        return None
    return None


class SpanRecorder:
    """Flat span arrays plus the probes that count work at layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        #: innermost open span (index into the arrays), -1 outside any span
        self.current = -1
        #: (first span index, client operation id): spans from that index
        #: on belong to that operation; id 0 is the event loop between them
        self.op_marks: list[tuple[int, int]] = []
        self.missing: list[str] = []
        #: per phase, in the order phases began: first span index, cipher
        #: bytes so far, locate probes so far
        self.phases: dict[str, tuple[int, int, int]] = {}
        self.cipher_bytes = 0
        self.locate_hops: list[int] = []
        self.locate_model_ms: list[float] = []

    # -- installation -----------------------------------------------------

    def install(self, targets: tuple[tuple[str, str], ...] = TARGETS) -> None:
        for dotted, layer in targets:
            resolved = _resolve(dotted)
            if resolved is None:
                self.missing.append(dotted)
                continue
            owner, attr, original = resolved
            if isinstance(original, dict):
                for key, handler in original.items():
                    original[key] = self._wrap(f"{dotted}[{key.__name__}]", layer, handler)
                continue
            wrapper = self._wrap(dotted, layer, original)
            setattr(owner, attr, wrapper)
            if not isinstance(owner, type):
                # ``from module import function`` bound the original in
                # other namespaces; point those at the wrapper too.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro"):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapper)

    def _wrap(self, dotted: str, layer: str, original: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(dotted.removeprefix("repro."))
        self.layers.append(layer)
        push_name, push_parent = self.name_of.append, self.parent_of.append
        push_start, push_end, end = self.start.append, self.end.append, self.end
        probe = self._probe_for(dotted)
        depth = 0

        def traced(*args, **kwargs):
            index = len(end)
            parent = self.current
            push_name(name_id)
            push_parent(parent)
            push_end(0.0)
            self.current = index
            push_start(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                self.current = parent
            if probe is not None:
                probe(args, result)
            return result

        def traced_outermost(*args, **kwargs):
            nonlocal depth
            if depth:
                return original(*args, **kwargs)
            depth = 1
            try:
                return traced(*args, **kwargs)
            finally:
                depth = 0

        wrapper = traced_outermost if dotted in RECURSIVE else traced
        return functools.update_wrapper(wrapper, original)

    def _probe_for(self, dotted: str) -> Callable[[tuple, Any], None] | None:
        if dotted.endswith("PositionDependentCipher.encrypt_block"):
            # decrypt_block delegates to encrypt_block, so this sees both

            def cipher_probe(args: tuple, result: Any) -> None:
                self.cipher_bytes += len(result)

            return cipher_probe
        if dotted.endswith("LocationService.locate"):
            hops, model_ms = self.locate_hops, self.locate_model_ms

            def locate_probe(args: tuple, result: Any) -> None:
                hops.append(result.hops)
                model_ms.append(result.latency_ms)

            return locate_probe
        return None

    # -- phases -----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_marks.append((len(self.end), op_id))

    def begin_phase(self, phase: str) -> None:
        self.phases[phase] = self._marks()

    def _marks(self) -> tuple[int, int, int]:
        return (len(self.end), self.cipher_bytes, len(self.locate_hops))

    def _bounds(self, phase: str) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        order = list(self.phases)
        later = order[order.index(phase) + 1 :]
        return self.phases[phase], self.phases[later[0]] if later else self._marks()

    # -- analysis ---------------------------------------------------------

    def ledger(self, phase: str, wall_s: float) -> "Ledger":
        lo, hi = self._bounds(phase)
        return Ledger(self, lo[0], hi[0], wall_s)

    def probes_in(self, phase: str) -> dict:
        """What the probes counted while ``phase`` ran."""
        lo, hi = self._bounds(phase)
        return {
            "cipher_bytes": hi[1] - lo[1],
            "locate_hops": self.locate_hops[lo[2] : hi[2]],
            "locate_model_ms": self.locate_model_ms[lo[2] : hi[2]],
        }


class Ledger:
    """Self time per span name and per layer over one phase of the run."""

    def __init__(self, rec: SpanRecorder, lo: int, hi: int, wall_s: float) -> None:
        names = np.frombuffer(rec.name_of, dtype=np.intc)[lo:hi]
        parents = np.frombuffer(rec.parent_of, dtype=np.intc)[lo:hi]
        duration = (
            np.frombuffer(rec.end, dtype=np.float64)[lo:hi]
            - np.frombuffer(rec.start, dtype=np.float64)[lo:hi]
        )
        nested = parents >= lo
        covered = np.zeros(hi - lo)
        np.add.at(covered, parents[nested] - lo, duration[nested])
        self_time = duration - covered
        count = len(rec.names)
        self.wall_s = wall_s
        self.spans = hi - lo
        self.self_by_name = dict(
            zip(rec.names, np.bincount(names, weights=self_time, minlength=count).tolist())
        )
        self.calls_by_name = dict(
            zip(rec.names, np.bincount(names, minlength=count).tolist())
        )
        self.self_by_layer = {layer: 0.0 for layer in LAYERS}
        self.calls_by_layer = {layer: 0 for layer in LAYERS}
        for name, layer in zip(rec.names, rec.layers):
            self.self_by_layer[layer] += self.self_by_name[name]
            self.calls_by_layer[layer] += self.calls_by_name[name]
        #: wall time that no span covers
        self.residual_s = wall_s - float(duration[~nested].sum())

    def self_s(self, *suffixes: str) -> float:
        """Summed self time of the spans whose name ends with a suffix."""
        return sum(
            value
            for name, value in self.self_by_name.items()
            if name.endswith(suffixes)
        )

    def calls(self, *suffixes: str) -> int:
        return sum(
            value
            for name, value in self.calls_by_name.items()
            if name.endswith(suffixes)
        )

    def lines(self, setup_s: float) -> list[str]:
        """The printed ledger: parts, then their sum beside the measured total."""
        total = setup_s + self.wall_s
        rows = [("setup", setup_s)]
        rows += [(layer, self.self_by_layer[layer]) for layer in LAYERS]
        rows.append(("core.residual_s", self.residual_s))
        out = [f"    {name:<24}{value:>10.4f} s {100 * value / total:>6.1f} %" for name, value in rows]
        parts = sum(value for _, value in rows)
        out.append(f"    {'= sum of parts':<24}{parts:>10.4f} s")
        out.append(f"    {'traced setup + wall':<24}{total:>10.4f} s   ({self.spans} spans)")
        return out
