"""Outside-in layer wrappers: time calls into the program's public entry
points without changing a file of the program.

``LAYER_TARGETS`` names each wrapped callable as ``"module:qualname"``
with the layer it belongs to.  :func:`traced` replaces each one, for the
duration of a ``with`` block, by a wrapper that opens a span in a
:class:`~spans.SpanRecorder`:

* a method is replaced on the class that defines it, where every
  instance looks it up;
* a module-level function is replaced in *every* loaded module that
  holds it under some name, because ``from x import f`` copies the
  reference into the importing module.

Every replaced attribute is put back when the block exits, even on an
exception.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from spans import SpanRecorder

# Optional per-call counters: (args, kwargs) -> {counter: increment}.
# ``args`` includes ``self`` for methods.
Counter = Callable[[tuple, dict], Dict[str, float]]


def _macs_matmul(args, kwargs):
    w, x = args[1], args[2]
    return {"core.macs": float(w.shape[0] * w.shape[1] * x.shape[1])}


def _macs_programmed(args, kwargs):
    pw, x = args[1], args[2]
    return {"core.macs": float(pw.shape[0] * pw.shape[1] * x.shape[1])}


def _macs_many(args, kwargs):
    w, xs = args[1], args[2]
    return {"core.macs": float(sum(w.shape[0] * w.shape[1] * x.shape[1] for x in xs))}


def _public_methods(module: str, cls: str, prefix: str = "") -> List[str]:
    """``module:cls.name`` for each plain function defined on the class."""
    klass = getattr(importlib.import_module(module), cls)
    return [
        f"{module}:{cls}.{name}"
        for name, value in vars(klass).items()
        if not name.startswith("_") and name.startswith(prefix)
        and callable(value) and not isinstance(value, (staticmethod, classmethod))
    ]


def layer_targets() -> List[Tuple[str, str, Optional[Counter]]]:
    """(layer, target, counter) for every wrapped entry point.

    Imports the program, so call it only after ``src`` is on the path.
    """
    fixed = [
        ("quant", "repro.quant.formats:GemmQuantizer.quantize_forward", None),
        ("quant", "repro.quant.formats:GemmQuantizer.quantize_backward", None),
        ("nn", "repro.nn.layers:Module.__call__", None),
        ("nn", "repro.nn.tensor:Tensor.backward", None),
        ("nn", "repro.nn.optim:SGD.step", None),
        ("core", "repro.core.tensor_core:PhotonicRnsTensorCore.program", None),
        ("core", "repro.core.tensor_core:PhotonicRnsTensorCore.matmul", _macs_matmul),
        ("core", "repro.core.tensor_core:PhotonicRnsTensorCore.matmul_programmed",
         _macs_programmed),
        ("core", "repro.core.tensor_core:PhotonicRnsTensorCore.matmul_many", _macs_many),
        ("core", "repro.core.pipeline:PhotonicExecutor.linear", None),
        ("core", "repro.core.pipeline:PhotonicExecutor.conv2d", None),
        ("bfp", "repro.bfp.gemm:bfp_encode_matrix", None),
        ("rns", "repro.rns.conversion:forward_convert_signed", None),
        ("rns", "repro.rns.conversion:crt_reverse", None),
        ("rns", "repro.rns.conversion:to_signed", None),
        ("photonic", "repro.photonic.mdpu:RnsMMVMU.mvm_grouped", None),
        ("arch", "repro.serve.engine.scheduler:DecodeServiceModel.step_latency", None),
        ("arch", "repro.serve.engine.scheduler:DecodeServiceModel.chunked_prefill", None),
        ("arch", "repro.serve.runtime:ServiceModel.batch_latency", None),
        ("arch", "repro.arch.inference:decode_step_latency", None),
        ("arch", "repro.arch.inference:chunked_prefill_latency", None),
        ("arch.fig8", "repro.arch.accelerator:compare_workload", None),
        ("engine", "repro.serve.engine.scheduler:TokenServingEngine.run", None),
        ("report", "repro.serve.engine.scheduler:TokenServingEngine.report", None),
        ("kv", "repro.serve.engine.kvcache:KVBlockManager.reserve", None),
        ("kv", "repro.serve.engine.kvcache:KVBlockManager.grow_to", None),
        ("kv", "repro.serve.engine.kvcache:KVBlockManager.release", None),
        ("kv", "repro.serve.engine.kvcache:KVBlockManager.discard", None),
        ("kv", "repro.serve.engine.kvcache:KVBlockManager.publish", None),
        ("prefix", "repro.serve.engine.prefix:RadixPrefixIndex.match", None),
        ("prefix", "repro.serve.engine.prefix:RadixPrefixIndex.insert", None),
        ("prefix", "repro.serve.engine.prefix:RadixPrefixIndex.evict_lru", None),
        ("pool", "repro.serve.pool:ExecutorPool.route", None),
        ("pool", "repro.serve.pool:ExecutorPool.next_free_time", None),
        ("pool", "repro.serve.pool:PoolWorker.run_batch", None),
        ("pool", "repro.serve.pool:PoolWorker.run_booking", None),
        ("obs", "repro.serve.observability.trace:Tracer.span", None),
        ("obs", "repro.serve.observability.trace:Tracer.instant", None),
        ("runtime", "repro.serve.runtime:ServingRuntime.run", None),
        ("report", "repro.serve.runtime:ServingRuntime.report", None),
        ("autoscaler", "repro.serve.runtime:Autoscaler.evaluate", None),
        ("traffic", "repro.serve.traffic:decode_scenario", None),
        ("traffic", "repro.serve.traffic:shared_prefix_scenario", None),
        ("traffic", "repro.serve.traffic:diurnal_scenario", None),
        ("traffic", "repro.nn.data:make_shape_images", None),
    ]
    generated = [
        ("faults", t) for t in
        _public_methods("repro.serve.faults", "FaultInjector")
        + _public_methods("repro.serve.faults", "FleetMonitor")
    ] + [
        ("telemetry", t) for cls in ("Telemetry", "EngineTelemetry")
        for t in _public_methods("repro.serve.telemetry", cls, "record_")
        + [f"repro.serve.telemetry:{cls}.summary"]
    ] + [
        ("batcher", t) for t in _public_methods("repro.serve.batcher", "MicroBatcher")
    ]
    return fixed + [(layer, t, None) for layer, t in generated]


def _resolve(target: str):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    parts = qualname.split(".")
    if len(parts) == 1:
        return module, None, parts[0]
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _wrap(fn: Callable, name: str, layer: str, rec: SpanRecorder,
          counter: Optional[Counter]) -> Callable:
    open_, close = rec.open, rec.close
    if counter is None:
        def wrapper(*args, **kwargs):
            idx = open_(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
    else:
        def wrapper(*args, **kwargs):
            for key, amount in counter(args, kwargs).items():
                rec.count(key, amount)
            idx = open_(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    return wrapper


class Patcher:
    """Installs wrappers and remembers every original to put back."""

    def __init__(self, rec: SpanRecorder, callers: Sequence[str] = ("repro",)):
        self.rec = rec
        self.callers = tuple(callers)
        self._saved: List[Tuple[object, str, object]] = []

    def _caller_modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (
                name in self.callers
                or any(name.startswith(c + ".") for c in self.callers)
            )
        ]

    def install(self, targets: Sequence[Tuple[str, str, Optional[Counter]]]) -> None:
        modules = self._caller_modules()
        for layer, target, counter in targets:
            module, owner, attr = _resolve(target)
            name = target.split(":")[1]
            if owner is None:
                original = getattr(module, attr)
                wrapper = _wrap(original, name, layer, self.rec, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
            else:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(original, name, layer, self.rec, counter))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._saved)


@contextmanager
def traced(rec: SpanRecorder, targets, callers: Sequence[str] = ("repro",)) -> Iterator[Patcher]:
    """Wrap ``targets`` into ``rec`` for the ``with`` block, then restore."""
    patcher = Patcher(rec, callers)
    try:
        patcher.install(targets)
        yield patcher
    finally:
        patcher.restore()
