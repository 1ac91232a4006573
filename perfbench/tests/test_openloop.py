"""The open-loop generator charges a stall to every request queued
behind it, measured against a deliberately stalled fake server."""

import math
import socket
import socketserver
import threading
import time

import pytest

from openloop import LoadResult, Outcome, nearest_rank, run_open_loop

RATE = 100.0
STALL_AT = 10
STALL_S = 0.3


class _StallingHandler(socketserver.StreamRequestHandler):
    """Echoes each request line; request ``STALL_AT`` is answered only
    after ``STALL_S`` seconds."""

    def handle(self):
        for line in self.rfile:
            if int(line) == STALL_AT:
                time.sleep(STALL_S)
            self.wfile.write(line)
            self.wfile.flush()


@pytest.fixture
def stalled_server():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0),
                                             _StallingHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class _LineClient:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=5)
        self.reader = self.sock.makefile("rb")

    def call(self, payload):
        self.sock.sendall(b"%d\n" % payload)
        reply = self.reader.readline()
        if int(reply) != payload:
            raise RuntimeError(f"wrong reply {reply!r}")
        return payload

    def close(self):
        self.reader.close()
        self.sock.close()


def test_stall_is_charged_to_every_request_queued_behind_it(stalled_server):
    client = _LineClient(stalled_server)
    try:
        result = run_open_loop([client], lambda c, p: c.call(p),
                               list(range(60)), RATE)
    finally:
        client.close()
    outcomes = result.outcomes
    assert result.n_failed == 0
    assert [o.result for o in outcomes] == list(range(60))
    stall_end = outcomes[STALL_AT].done
    queued = [o for o in outcomes[STALL_AT + 1:] if o.due < stall_end]
    # Everything due during the 0.3 s stall is queued behind it.
    assert len(queued) >= int(0.8 * STALL_S * RATE)
    for o in queued:
        # Timed from its due time, each waits out the rest of the stall...
        assert o.latency >= stall_end - o.due
        # ...which timing from the send would have hidden.
        assert o.done - o.sent < 0.1
    assert result.latency_ms(99) >= 0.9 * STALL_S * 1e3
    # The stall is the server's: the generator itself was not late.
    assert result.late_max_ms < 50.0
    # Requests due after the backlog cleared are fast again.
    assert outcomes[-1].latency < 0.05


def test_failed_requests_miss_every_latency_limit():
    def call(_, payload):
        if payload == 3:
            raise ValueError("refused")
        return payload

    result = run_open_loop([None], call, list(range(10)), 1000.0)
    assert result.n_failed == 1
    assert math.isinf(result.outcomes[3].latency)
    assert math.isinf(result.latency_ms(100))
    assert isinstance(result.outcomes[3].result, ValueError)


def test_requests_alternate_over_connections_on_schedule():
    seen = []
    lock = threading.Lock()

    def call(client, payload):
        with lock:
            seen.append((client, payload))
        return payload

    result = run_open_loop(["a", "b"], call, list(range(20)), 400.0)
    assert sorted(seen) == sorted(
        (("a", "b")[i % 2], i) for i in range(20))
    dues = [o.due for o in result.outcomes]
    assert dues == pytest.approx(
        [dues[0] + i / 400.0 for i in range(20)])
    assert all(o.sent >= o.due for o in result.outcomes)


def test_load_threads_are_bounded_by_cores():
    import os
    with pytest.raises(ValueError):
        run_open_loop([None] * ((os.cpu_count() or 1) + 1),
                      lambda c, p: p, [1], 10.0)


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 99) == 99
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_window_rates_confine_a_pause_to_one_window():
    # 31 answers 1 ms apart, with one 100 ms pause of the host.
    done, t = [], 0.0
    for k in range(31):
        t += 0.1 if k == 15 else 0.001
        done.append(t)
    result = LoadResult(rate=math.inf, outcomes=[
        Outcome(k, 0.0, 0.0, d, 0.0, True, None)
        for k, d in enumerate(done)])
    rates = result.window_rates(10)
    assert len(rates) == 3
    assert sorted(rates)[1] == pytest.approx(1000.0)
    assert min(rates) < 100.0
    assert result.completion_rate < 300.0
    assert result.window_rates(31) == []


def test_infinite_rate_sends_back_to_back():
    result = run_open_loop(["a", "b"], lambda c, p: p, list(range(50)),
                           math.inf)
    assert result.n_failed == 0
    assert len({o.due for o in result.outcomes}) == 1
