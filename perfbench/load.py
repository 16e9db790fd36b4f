"""Load generation and answer checking for the serving workloads.

* :func:`open_loop` sends queries on a fixed schedule from one thread and
  times each from when it was *due*, so a stall also charges the queries
  queued behind it; it records how late the generator itself ran.
* :func:`closed_loop` keeps a bounded window of queries in flight per load
  thread and reports the median answered-per-second over equal sub-windows
  after a warm-up.
  Each query of a plan is sent at most once: the phase ends early when a
  thread runs out of queries, rather than repeating rows the cache may hold.
* :class:`Checker` compares served answers bit for bit with the
  canonical-batch reference of the version each answer reports.

A failed submit (typed shed), a timeout and a wrong answer each count as one
failed operation; none of them stops the run.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Checker", "ClosedLoopResult", "OpenLoopResult", "closed_loop", "open_loop"]

RESULT_TIMEOUT_S = 30.0
clock = time.perf_counter
#: Equal slices of a closed-loop phase; throughput is their median rate, so
#: a burst of interference on a shared machine moves it by at most a slice.
SUB_WINDOWS = 8
#: Leading share of a closed-loop phase left out of the sub-windows: the
#: cache and the batch sizes settle first.
WARMUP_SHARE = 0.2


@dataclass
class OpenLoopResult:
    """Per-query timestamps of one open-loop phase (NaN where not reached)."""

    due: np.ndarray
    start: np.ndarray  # submit called
    end: np.ndarray  # submit returned
    done: np.ndarray  # done-callback ran
    pendings: List[object]  # None where the submit was shed

    @property
    def answered(self) -> np.ndarray:
        return ~np.isnan(self.done)

    @property
    def latency_s(self) -> np.ndarray:
        return (self.done - self.due)[self.answered]

    @property
    def sent(self) -> int:
        """Queries whose submit was attempted."""
        return int(np.sum(~np.isnan(self.start)))

    @property
    def lateness_s(self) -> np.ndarray:
        started = ~np.isnan(self.start)
        return self.start[started] - self.due[started]


def open_loop(
    submit: Callable[[str, np.ndarray], object],
    queries: Sequence[Tuple[str, np.ndarray]],
    rate: float,
    on_done: Optional[Callable[[int, object], None]] = None,
    shed_errors: Tuple[type, ...] = (),
    stop: Optional[threading.Event] = None,
) -> OpenLoopResult:
    """Send ``queries`` at ``rate`` per second; wait for every answer.

    Sending ends after the last query or, when given, once ``stop`` is set.
    ``on_done(i, pending)`` runs inside each query's done-callback (on the
    thread that delivers the answer) after its completion time is taken.
    """
    n = len(queries)
    result = OpenLoopResult(
        due=np.full(n, np.nan),
        start=np.full(n, np.nan),
        end=np.full(n, np.nan),
        done=np.full(n, np.nan),
        pendings=[None] * n,
    )
    done = result.done
    outstanding = [0]
    settled = threading.Condition()

    def make_callback(index: int):
        def callback(pending) -> None:
            done[index] = clock()
            if on_done is not None:
                on_done(index, pending)
            with settled:
                outstanding[0] -= 1
                settled.notify_all()

        return callback

    t0 = clock() + 0.01
    for index, (stream, row) in enumerate(queries):
        if stop is not None and stop.is_set():
            break
        due = t0 + index / rate
        result.due[index] = due
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        result.start[index] = clock()
        try:
            pending = submit(stream, row)
        except shed_errors:
            continue
        result.end[index] = clock()
        result.pendings[index] = pending
        with settled:
            outstanding[0] += 1
        pending.add_done_callback(make_callback(index))
    with settled:  # unanswered queries stay NaN in ``done``
        settled.wait_for(lambda: outstanding[0] == 0, RESULT_TIMEOUT_S)
    return result


@dataclass
class ClosedLoopResult:
    """Throughput and sampled answers of one closed-loop phase."""

    qps: float  # median over sub-windows of answered queries per second
    rates: List[float]  # answered queries per second in each sub-window
    answered: int
    failed: int  # shed submits, timeouts and errors delivered to handles
    sampled: List[Tuple[int, int, object]]  # (thread, query index, answer)
    sent: List[int]  # queries submitted by each thread
    seconds: float  # length of the phase: shorter than asked if a plan ran out


def closed_loop(
    submit: Callable[[str, np.ndarray], object],
    plans: Sequence[Tuple[Sequence[str], np.ndarray]],
    window: int,
    seconds: float,
    sample_every: int = 16,
    shed_errors: Tuple[type, ...] = (),
) -> ClosedLoopResult:
    """One load thread per ``(streams, rows)`` plan, each keeping ``window``
    queries in flight.

    A thread sends its plan in order until ``seconds`` have passed or the
    plan runs out, then drains; the phase ends at the deadline or when the
    first thread runs out.  Every ``sample_every``-th query's answer is kept
    for checking.
    """
    start = clock() + 0.01
    deadline = start + seconds
    completions: List[List[float]] = [[] for _ in plans]
    sampled: List[List[Tuple[int, int, object]]] = [[] for _ in plans]
    failures = [0 for _ in plans]
    sent = [0 for _ in plans]
    ran_out: List[float] = []
    errors: List[BaseException] = []

    def run(thread: int, streams: Sequence[str], rows: np.ndarray) -> None:
        try:
            in_flight: deque = deque()
            stamps = completions[thread]
            count, size = 0, len(streams)
            time.sleep(max(0.0, start - clock()))
            while clock() < deadline:
                if len(in_flight) < window:
                    if count == size:
                        ran_out.append(clock())
                        break
                    try:
                        in_flight.append((count, submit(streams[count], rows[count])))
                    except shed_errors:
                        failures[thread] += 1
                    count += 1
                    continue
                settle(thread, in_flight.popleft(), stamps)
            sent[thread] = count
            while in_flight:
                settle(thread, in_flight.popleft(), stamps)
        except BaseException as error:  # reported by the caller
            errors.append(error)

    def settle(thread: int, item, stamps: List[float]) -> None:
        index, pending = item
        try:
            answer = pending.result(RESULT_TIMEOUT_S)
        except Exception:  # timeout, or a typed failure delivered to the handle
            failures[thread] += 1
            return
        stamps.append(clock())
        if index % sample_every == 0:
            sampled[thread].append((thread, index, answer))

    threads = [
        threading.Thread(target=run, args=(i, *plan), name=f"perfbench-load-{i}")
        for i, plan in enumerate(plans)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    end = min([deadline] + ran_out)
    stamps = np.concatenate([np.asarray(c) for c in completions])
    edges = np.linspace(start + WARMUP_SHARE * (end - start), end, SUB_WINDOWS + 1)
    rates = np.histogram(stamps, bins=edges)[0] / (edges[1] - edges[0])
    return ClosedLoopResult(
        qps=float(np.median(rates)),
        rates=rates.tolist(),
        answered=int(stamps.size),
        failed=sum(failures),
        sampled=[item for keep in sampled for item in keep],
        sent=sent,
        seconds=end - start,
    )


class Checker:
    """Bitwise answer checks against canonical-batch references.

    ``models[(stream, version)]`` is the learner of that registry version.
    A row's reference is the row tiled to ``max_batch`` and run through the
    model — the execution shape the serving stack pads every batch to.
    """

    def __init__(self, models: Dict[Tuple[str, int], object], max_batch: int,
                 inject_wrong: bool = False) -> None:
        self.models = models
        self.max_batch = max_batch
        self.inject_wrong = inject_wrong
        self.checked = 0
        self.mismatches = 0
        self._cache: Dict[Tuple[str, int, bytes], Tuple[float, float, float]] = {}

    def reference(self, stream: str, version: int, row: np.ndarray) -> Tuple[float, float, float]:
        key = (stream, version, row.tobytes())
        cached = self._cache.get(key)
        if cached is None:
            estimate = self.models[(stream, version)].predict(np.tile(row, (self.max_batch, 1)))
            cached = (
                float(estimate.y0_hat[0]),
                float(estimate.y1_hat[0]),
                float(estimate.ite_hat[0]),
            )
            self._cache[key] = cached
        return cached

    def check(self, stream: str, row: np.ndarray, answer) -> bool:
        """Whether ``answer`` is a correct :class:`Prediction` for ``row``."""
        self.checked += 1
        if self.inject_wrong and self.checked == 1:
            # Test hook: corrupt the first answer checked in this run.
            answer = dataclasses.replace(answer, ite=answer.ite + 1.0)
        ok = (stream, answer.model_version) in self.models and (
            answer.mu0,
            answer.mu1,
            answer.ite,
        ) == self.reference(stream, answer.model_version, row)
        if not ok:
            self.mismatches += 1
        return ok
