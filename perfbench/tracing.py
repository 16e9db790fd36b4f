"""Spans recorded around public calls, from the benchmark's own files.

The program under test carries no instrumentation.  A traced run installs
wrappers around the public entry points of each layer (``Trainer.fit``'s
batch-loss callable, ``ipm_distance``, ``Tensor.backward``, ``Adam.step``,
``MemoryBuffer.reduce``, the wire codec, ...) for the duration of one pass and
restores the originals afterwards, so untraced passes run the program exactly
as shipped.

Every span records its inclusive duration and its *self* time (duration minus
the spans nested inside it on the same thread), so ``engine.forward`` can be
reported without the Sinkhorn solve it calls.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["Tracer", "patched", "training_patches"]

clock = time.perf_counter


class Tracer:
    """Thread-safe span totals: count, inclusive seconds and self seconds."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.count: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def last(self, name: str) -> Tuple[float, float]:
        """``(start, end)`` of the latest ``name`` span closed on this thread."""
        return getattr(self._local, "last", {}).get(name, (float("nan"), float("nan")))

    def record(self, name: str, seconds: float) -> None:
        """Add one span measured by the caller (no nesting)."""
        with self._lock:
            self.count[name] += 1
            self.total_s[name] += seconds
            self.self_s[name] += seconds

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a ``name`` span."""

        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [clock(), 0.0]  # start, time covered by child spans
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                last = getattr(self._local, "last", None)
                if last is None:
                    last = self._local.last = {}
                last[name] = (frame[0], end)
                with self._lock:
                    self.count[name] += 1
                    self.total_s[name] += duration
                    self.self_s[name] += duration - frame[1]

        return traced


@contextmanager
def patched(replacements: List[Tuple[object, str, Callable]]) -> Iterator[None]:
    """Set ``owner.attr = value`` for each triple; restore on exit."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def training_patches(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """Wrappers for the training layers of one continual stage.

    ``Trainer.fit`` is wrapped so that the batch-loss and validate callables
    it receives are timed (``engine.forward`` / ``engine.validation``); the
    other spans wrap the public functions the engine and CERL call.
    """
    from repro.core import baseline, cerl
    from repro.engine import TraceableLoss, Trainer
    from repro.engine import trainer as trainer_module
    from repro.memory import MemoryBuffer
    from repro.nn import Adam, Tensor

    original_fit = Trainer.fit

    def fit(self, n_units, batch_loss, epochs, validate=None):
        if isinstance(batch_loss, TraceableLoss):
            batch_loss = batch_loss.bind(self.backend)
        batch_loss = tracer.wrap("engine.forward", batch_loss)
        if validate is not None:
            validate = tracer.wrap("engine.validation", validate)
        return original_fit(self, n_units, batch_loss, epochs, validate=validate)

    ipm = tracer.wrap("balance.ipm", cerl.ipm_distance)
    return [
        (Trainer, "fit", fit),
        (cerl, "ipm_distance", ipm),
        (baseline, "ipm_distance", ipm),
        (Tensor, "backward", tracer.wrap("nn.backward", Tensor.backward)),
        (Adam, "step", tracer.wrap("nn.optimizer", Adam.step)),
        (
            trainer_module,
            "clip_grad_norm",
            tracer.wrap("nn.optimizer", trainer_module.clip_grad_norm),
        ),
        (MemoryBuffer, "reduce", tracer.wrap("memory.herding", MemoryBuffer.reduce)),
    ]
