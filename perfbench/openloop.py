"""Open-loop load generator.

Requests arrive on a fixed schedule whether or not earlier ones have
been answered: request ``i`` is *due* at ``t0 + i / rate``. Requests are
dealt round-robin onto a few connections, one thread each; a connection
carries one request at a time, so a request due while its connection
is still busy is sent as soon as the connection frees up.

Latency is timed from the due time, not the send time. A stall
therefore charges its wait to every request queued behind it, instead
of silently lowering the offered load (coordinated omission).

*Lateness* is how late the generator itself sent a request: send time
minus the later of its due time and the moment its connection became
free. It measures the generator (sleep overshoot, interpreter lock), not
the system under test. The generator's process does not collect garbage
while a phase runs, so a collection cannot stall every load thread at
once.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = ["Outcome", "LoadResult", "nearest_rank", "run_open_loop"]

#: Seconds between starting the load threads and the first due time.
START_DELAY_S = 0.02


@dataclass
class Outcome:
    """One request: its schedule, timing and result."""

    index: int
    due: float
    sent: float
    done: float
    late: float
    ok: bool
    result: Any

    @property
    def latency(self) -> float:
        """Seconds from due time to answer; ``inf`` for a failure, which
        misses every latency limit."""
        return self.done - self.due if self.ok else math.inf


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class LoadResult:
    """Outcomes of one open-loop phase, in schedule order."""

    rate: float
    outcomes: list[Outcome]

    @property
    def n_failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    def latency_ms(self, q: float, indices=None) -> float:
        chosen = self.outcomes if indices is None else \
            [self.outcomes[i] for i in indices]
        return 1e3 * nearest_rank([o.latency for o in chosen], q)

    @property
    def late_max_ms(self) -> float:
        return 1e3 * max(o.late for o in self.outcomes)

    @property
    def completion_rate(self) -> float:
        """Answers per second, from the first due time to the last
        answer."""
        first = min(o.due for o in self.outcomes)
        last = max(o.done for o in self.outcomes)
        n_ok = len(self.outcomes) - self.n_failed
        return n_ok / max(last - first, 1e-9)

    def window_rates(self, width: int) -> list[float]:
        """Answers per second over consecutive windows of ``width``
        answers, in completion order. Their median is the rate between
        pauses of the host: a pause slows one window."""
        done = sorted(o.done for o in self.outcomes if o.ok)
        return [width / max(done[k + width] - done[k], 1e-9)
                for k in range(0, len(done) - width, width)]


def _no_span(name: str):
    """Records nothing (the untraced runs)."""
    return contextlib.nullcontext()


def run_open_loop(clients: Sequence[Any],
                  call: Callable[[Any, Any], Any],
                  payloads: Sequence[Any], rate: float, *,
                  span: Callable[[str], Any] = _no_span) -> LoadResult:
    """Send ``payloads`` at ``rate`` per second over ``clients``.

    ``call(client, payload)`` performs one request and returns its
    result; an exception counts the request as failed. Payload ``i`` is
    sent on ``clients[i % len(clients)]`` by that client's own thread.
    ``span(name)`` returns the context manager that wraps each call (the
    traced run's recorder); by default nothing is recorded.
    """
    n_conn = len(clients)
    if n_conn < 1:
        raise ValueError("need at least one client")
    if n_conn > (os.cpu_count() or 1):
        raise ValueError(f"{n_conn} load threads exceed the "
                         f"{os.cpu_count()} available cores")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    outcomes: list[Outcome | None] = [None] * len(payloads)
    t0 = time.perf_counter() + START_DELAY_S
    errors: list[BaseException] = []

    def drive(conn: int) -> None:
        try:
            client = clients[conn]
            free_at = t0
            for i in range(conn, len(payloads), n_conn):
                due = t0 + i / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                try:
                    with span("loadgen.request"):
                        result = call(client, payloads[i])
                    ok = True
                except Exception as error:  # the request failed
                    result, ok = error, False
                done = time.perf_counter()
                outcomes[i] = Outcome(i, due, sent, done,
                                      sent - max(due, free_at), ok, result)
                free_at = done
        except BaseException as error:  # surfaced after join
            errors.append(error)
            raise

    threads = [threading.Thread(target=drive, args=(c,), daemon=True,
                                name=f"openloop-{c}")
               for c in range(n_conn)]
    collecting = gc.isenabled()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        if collecting:
            gc.enable()
    if errors:
        raise RuntimeError("load thread crashed") from errors[0]
    return LoadResult(rate=rate, outcomes=list(outcomes))
