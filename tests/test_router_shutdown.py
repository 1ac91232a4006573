"""Prompt teardown of the router's client-facing sockets.

* ``RouterClient.close()`` really ends the TCP connection: the router
  sees EOF and drops its handler at once, even though the client's
  buffered reader holds a reference to the socket;
* ``ForecastRouter.close()`` with an idle client connected returns
  promptly: it wakes the thread blocked in ``accept()`` and the handler
  blocked reading the idle client's next frame, instead of waiting out
  their join timeouts.
"""

from __future__ import annotations

import socket
import time

import numpy as np
import pytest

from repro.serve import ModelRegistry
from repro.serve.router import ForecastRouter, RouterClient


@pytest.fixture(scope="module")
def window(tiny_emulator, generator):
    snaps = generator.snapshots(np.arange(60))
    return tiny_emulator.pipeline.windows_from_snapshots(snaps).inputs[0]


@pytest.fixture(scope="module")
def registry_root(tiny_emulator, tmp_path_factory):
    root = tmp_path_factory.mktemp("shutdown-registry")
    ModelRegistry(root).publish("v1", tiny_emulator, activate=True)
    return root


def _wait_until(predicate, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_client_close_ends_the_connection(registry_root, window):
    with ForecastRouter(registry_root, n_workers=1) as router:
        client = RouterClient(router.address, timeout_s=30.0)
        client.forecast(window)
        assert len(router._client_conns) == 1
        client.close()
        assert _wait_until(lambda: not router._client_conns, 2.0), \
            "router never saw the closed client hang up"


def test_close_with_idle_clients_is_prompt(registry_root, window):
    router = ForecastRouter(registry_root, n_workers=1).start()
    with RouterClient(router.address, timeout_s=30.0) as client, \
            socket.create_connection(router.address, timeout=5.0) as silent:
        client.forecast(window)  # handler now idle between requests
        assert _wait_until(lambda: len(router._client_conns) == 2, 2.0)
        started = time.monotonic()
        router.close()
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"close() took {elapsed:.2f}s"
        assert silent.recv(1) == b""  # the router hung up on it
    assert not router._client_threads
