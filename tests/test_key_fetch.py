"""Feature keys in flight together.

In the first epoch the secure input layer recovers every uncached
sample's features with FEBO multiplication-by-1 keys.  It asks the
authority for all of a batch's key lists at once
(``derive_febo_key_sets``): in-process the lists are derived lazily, one
call per list as before; a :class:`RemoteAuthority` sends them all and
keeps up to ``KEY_FETCHES_IN_FLIGHT`` in flight, each on its own
connection, while the authority service derives concurrent requests in
parallel.  These tests pin the keys, the order, the accounting, the
thread safety of the authority and the failure and shutdown paths.
"""

from __future__ import annotations

import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core import protocol
from repro.core.config import CryptoNNConfig
from repro.core.entities import TrustedAuthority
from repro.core.policy import KeyReleasePolicy, PolicyViolation
from repro.data.preprocess import normalize_features, shared_feature_scale
from repro.data.tabular import load_clinics
from repro.fe.febo import Febo
from repro.rpc import (
    AuthorityService,
    RemoteAuthority,
    RpcEndpoint,
    TrainingService,
    free_port,
    upload_shard,
    wait_for_port,
)
from repro.rpc import messages as msgs
from repro.rpc.client import KEY_FETCHES_IN_FLIGHT
from repro.rpc.supervisor import repro_argv


def _shard(samples: int = 10, features: int = 4):
    shard, = load_clinics(n_clinics=1, samples_per_clinic=samples,
                          n_features=features, seed=3)
    return normalize_features(shard.x, shared_feature_scale([shard.x])), \
        shard.y


def _request_lists(params, lists: int, keys: int) -> list[list]:
    """``lists`` feature-recovery requests of ``keys`` keys each."""
    febo = Febo(params, rng=random.Random(1))
    mpk, _ = febo.setup()
    return [[(febo.encrypt(mpk, i * keys + j).cmt, "*", 1)
             for j in range(keys)] for i in range(lists)]


def _fetch_threads(before: set[threading.Thread]) -> list[str]:
    """Key-fetch threads started since ``before`` that are still alive
    (an endpoint runs in its caller's thread and starts none)."""
    return [t.name for t in set(threading.enumerate()) - before
            if t.name.startswith("febo-fetch")]


class _Concurrency:
    """Counts the ``*`` requests an authority is deriving at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self.inside = 0
        self.peak = 0
        self.overlapped = threading.Event()

    def __enter__(self):
        with self._lock:
            self.inside += 1
            self.peak = max(self.peak, self.inside)
            if self.inside > 1:
                self.overlapped.set()

    def __exit__(self, *exc):
        with self._lock:
            self.inside -= 1


class _WatchedAuthority(TrustedAuthority):
    """An authority that holds each ``*`` request for ``delay`` seconds
    (or until ``release`` is set) and records how many it derives at
    once."""

    def __init__(self, *args, delay: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay = delay
        self.release = threading.Event()
        self.concurrency = _Concurrency()

    def derive_febo_keys_batch(self, requests, requester=protocol.SERVER):
        if not any(op == "*" for _, op, _ in requests):
            return super().derive_febo_keys_batch(requests, requester)
        with self.concurrency:
            self.release.wait(self.delay)
            return super().derive_febo_keys_batch(requests, requester)


class _RefuseStarAfter:
    """A key-release policy that grants ``grants`` ``*`` keys, then
    refuses every further one."""

    def __init__(self, grants: int):
        self.grants = grants

    def check_feip_request(self, rows, requester="server") -> None:
        pass

    def check_febo_request(self, op, requester="server") -> None:
        if op == "*":
            if self.grants == 0:
                raise PolicyViolation("feature-recovery budget exhausted")
            self.grants -= 1


class TestInProcessKeySets:
    def test_lazy_one_call_per_list_in_order(self):
        authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        reference = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        lists = _request_lists(authority.params, 3, 4)
        for batched in (True, False):
            before = authority.febo_keys_issued
            key_sets = authority.derive_febo_key_sets(lists, batched)
            assert authority.febo_keys_issued == before  # nothing yet
            for n, requests in enumerate(lists, 1):
                assert next(key_sets) == \
                    reference.derive_febo_keys(requests)
                assert authority.febo_keys_issued == before + 4 * n
            assert next(key_sets, None) is None
        kind = protocol.KIND_FEBO_KEY_BATCH_REQUEST
        assert authority.traffic.message_count(kind) == 3
        assert authority.traffic.message_count(
            protocol.KIND_FEBO_KEY_REQUEST) == 3


class TestConcurrentAuthority:
    """One :class:`TrustedAuthority` answering many threads at once, as
    the authority service now lets it."""

    @pytest.fixture(autouse=True)
    def _switch_often(self):
        # thread switches every few bytecodes, so unlocked bookkeeping
        # would interleave here
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(previous)

    @staticmethod
    def _authority():
        # no FEIP key pair yet: the threads race to set up the length-4
        # pair, and only one setup may draw from the rng
        return TrustedAuthority(
            CryptoNNConfig(), rng=random.Random(0),
            policy=KeyReleasePolicy(allowed_febo_ops=frozenset("+-*")))

    def test_threads_get_the_serial_keys_and_exact_counters(self):
        shared, serial = self._authority(), self._authority()
        setup = shared.feip.setup

        def slow_setup(eta):
            time.sleep(0.01)  # widen the window a racing setup would hit
            return setup(eta)

        shared.feip.setup = slow_setup
        threads, rounds = 8, 12
        lists = _request_lists(shared.params, threads, 6)
        refused_thread = 5
        outcomes: dict[int, object] = {}
        start = threading.Barrier(threads)

        def job(t: int, r: int) -> tuple[list, list]:
            # a new vector length in each of the first rounds: one more
            # key-pair setup for the threads to race
            rows = [[t, -1, j, 2, 3, -t][:2 + r % 5] for j in range(3)]
            requests = [(cmt, "+-*"[i % 3], t - i)
                        for i, (cmt, _, _) in enumerate(lists[t])]
            return rows, requests

        def work(t: int) -> None:
            start.wait()
            try:
                keys = []
                for r in range(rounds):
                    rows, requests = job(t, r)
                    keys.append(shared.derive_feip_keys_batch(rows))
                    keys.append(shared.derive_febo_keys(requests))
                    if t == refused_thread and r == rounds // 2:
                        shared.derive_febo_keys([(lists[t][0][0], "/", 2)])
                outcomes[t] = keys
            except PolicyViolation as exc:
                outcomes[t] = exc

        workers = [threading.Thread(target=work, args=(t,))
                   for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)

        assert isinstance(outcomes.pop(refused_thread), PolicyViolation)
        for t, keys in outcomes.items():
            expected = []
            for r in range(rounds):
                rows, requests = job(t, r)
                expected += [serial.derive_feip_keys_batch(rows),
                             serial.derive_febo_keys(requests)]
            assert keys == expected
        # the refused thread got half its rounds and nothing for "/"
        granted_rounds = (threads - 1) * rounds + rounds // 2 + 1
        assert shared.feip_keys_issued == 3 * granted_rounds
        assert shared.febo_keys_issued == 6 * granted_rounds
        refusals = shared.policy.refusals()
        assert len(refusals) == 1 and "'/'" in refusals[0].detail


@pytest.mark.timeout_guard(60)
class TestRemoteKeySets:
    def test_keys_in_order_on_at_most_k_connections(self):
        authority = _WatchedAuthority(CryptoNNConfig(),
                                      rng=random.Random(0), delay=0.05)
        reference = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        before = set(threading.enumerate())
        service = AuthorityService(authority)
        addr = service.start()
        try:
            with RemoteAuthority(*addr, name="server") as remote:
                lists = _request_lists(remote.params, 12, 5)
                got = list(remote.derive_febo_key_sets(lists, True))
                assert got == [reference.derive_febo_keys(requests)
                               for requests in lists]
                # every list was one batched request, byte for byte
                assert remote.traffic.message_count(
                    protocol.KIND_FEBO_KEY_BATCH_REQUEST) == 12
                assert remote.traffic.total_bytes(
                    kind=protocol.KIND_FEBO_KEY_BATCH_RESPONSE) == \
                    authority.traffic.total_bytes(
                        kind=protocol.KIND_FEBO_KEY_BATCH_RESPONSE)
                assert 1 < authority.concurrency.peak <= KEY_FETCHES_IN_FLIGHT
                assert 1 < len(_fetch_threads(before)) <= \
                    KEY_FETCHES_IN_FLIGHT
            connections = [label for label in service.connection_traffic
                           if label.startswith("server#")]
            assert 1 < len(connections) <= KEY_FETCHES_IN_FLIGHT
            assert _fetch_threads(before) == []
        finally:
            service.stop()

    def test_refused_star_mid_batch_fails_training(self):
        """The authority refuses ``*`` after five samples' keys, while
        the first batch's ten fetches are in flight: training ends in
        ``failed`` with the remote error type, and stopping the service
        leaves no fetch thread behind."""
        x, y = _shard()
        before = set(threading.enumerate())
        authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0),
                                     policy=_RefuseStarAfter(grants=5 * 4))
        auth_service = AuthorityService(authority)
        auth_addr = auth_service.start()
        service = TrainingService(*auth_addr, hidden=4, epochs=1,
                                  batch_size=10, seed=0)
        try:
            train_addr = service.start()
            upload_shard(auth_addr, train_addr, x, y, 2, name="clinic-0",
                         rng=random.Random(1))
            service.wait_done(timeout=40)
            assert service.state == "failed"
            assert "PolicyViolation" in service.error
            assert "feature-recovery budget exhausted" in service.error
            # the extra connections' counters reach train-status too
            faults = service._status().detail["faults"]
            assert faults["key_fetch_endpoints"]["attempts"] > 0
            assert faults["key_fetch_endpoints"]["giveups"] == 0
        finally:
            service.stop()
            auth_service.stop()
        assert _fetch_threads(before) == []


@pytest.mark.timeout_guard(90)
def test_serve_train_stops_cleanly_with_fetches_in_flight(
        repro_env, live_processes):
    """SIGINT while ``serve-train``'s feature-key fetches wait on the
    authority, which holds each for 8 s: the process exits 0 within
    5 s (a fetch thread still waiting on its connection would hold the
    exit) and its pool worker is gone."""
    x, y = _shard()
    authority = _WatchedAuthority(CryptoNNConfig(), rng=random.Random(0),
                                  delay=8.0)
    auth_service = AuthorityService(authority)
    auth_host, auth_port = auth_service.start()
    train_port = free_port()
    trainer = subprocess.Popen(
        repro_argv("serve-train", "--port", str(train_port),
                   "--authority-port", str(auth_port), "--hidden", "4",
                   "--epochs", "1", "--batch-size", "10", "--workers", "1",
                   "--stay"),
        env=repro_env, stdout=subprocess.DEVNULL)
    try:
        wait_for_port("127.0.0.1", train_port)
        upload_shard((auth_host, auth_port), ("127.0.0.1", train_port),
                     x, y, 2, name="clinic-0", rng=random.Random(1))
        assert authority.concurrency.overlapped.wait(timeout=30), \
            "the feature-key fetches never overlapped"
        workers = {pid for pid, ppid in live_processes().items()
                   if ppid == trainer.pid}
        assert len(workers) == 1
        with RpcEndpoint("127.0.0.1", train_port, name="poller",
                         peer=protocol.SERVER) as endpoint:
            assert endpoint.request(
                msgs.TrainStatusRequest()).state == "training"
        trainer.send_signal(signal.SIGINT)
        assert trainer.wait(timeout=5) == 0
    finally:
        if trainer.poll() is None:
            trainer.kill()
            trainer.wait()
        authority.release.set()
        auth_service.stop()
    assert not workers & live_processes().keys()
