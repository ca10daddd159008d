"""Self-healing process supervision for the distributed runtime.

The supervisor owns the authority and training-server processes of one
deployment: it spawns them, watches them (process liveness AND the
``service-health`` probe every :class:`~repro.rpc.service.FramedService`
answers), and restarts whatever dies or goes persistently unhealthy --
under the same :class:`~repro.rpc.retry.RetryPolicy` backoff vocabulary
the rest of the runtime retries with, so a crash-looping child backs
off exponentially and eventually latches ``giveup`` instead of
restart-storming the host.

Healing is *stateful* by composition, not by magic:

* the authority child is started from a ``save_authority`` file, so a
  restarted authority derives byte-identical keys and every ciphertext
  uploaded before the crash stays decryptable;
* the trainer child is started with ``serve-train --resume``, so a
  restart picks the job up from the durable dataset sidecar plus the
  latest :class:`~repro.core.checkpoint.TrainerCheckpoint` and finishes
  with exactly the weights the uninterrupted run would have produced.

The supervisor itself keeps no model or key state; ``kill -9`` applies
to it too, and a fresh supervisor over the same files heals the same
way.  Counters land in the shared registry under
``repro_supervisor_*`` so a metrics scrape of any surviving service
shows the restart history.
"""

from __future__ import annotations

import dataclasses
import os
import random
import signal
import subprocess
import sys
import time
from typing import Callable

import repro
from repro.rpc.client import RpcEndpoint, RpcError
from repro.rpc.messages import HealthRequest, HealthResponse
from repro.rpc.retry import RetryPolicy
from repro.obs.metrics import GLOBAL_REGISTRY

#: Consecutive failed health probes before a child is declared wedged
#: and restarted (liveness alone cannot catch a hung process that still
#: holds its socket).
UNHEALTHY_AFTER = 3

#: Seconds one health probe may take to connect and to be answered.
PROBE_TIMEOUT_S = 2.0

#: Default crash-loop policy: five spawns per failure streak, capped
#: exponential backoff between them.  ``jitter=False`` keeps restart
#: spacing deterministic; pass a jittered policy for fleet use.
DEFAULT_RESTART_POLICY = RetryPolicy(max_attempts=5, base_delay=0.2,
                                     max_delay=5.0, jitter=False)


def repro_argv(*cli_args: str) -> list[str]:
    """argv running ``repro <cli_args...>`` under this interpreter."""
    return [sys.executable, "-m", "repro", *cli_args]


def _child_env(extra: dict[str, str] | None) -> dict[str, str]:
    """Child environment: inherit, prepend our package root to
    PYTHONPATH so ``python -m repro`` resolves however the supervisor
    itself was launched."""
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    parts = [pkg_root]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    if extra:
        env.update(extra)
    return env


@dataclasses.dataclass
class ChildSpec:
    """One supervised process.

    ``port`` (with ``host``) enables health probing: the supervisor
    sends ``service-health`` requests there once the child has been up
    for ``grace`` seconds.  ``None`` supervises liveness only.
    """

    name: str
    argv: list[str]
    port: int | None = None
    host: str = "127.0.0.1"
    #: seconds after spawn before the first health probe -- covers
    #: interpreter start + socket bind, so a booting child is not
    #: mistaken for an unhealthy one
    grace: float = 2.0
    env: dict[str, str] | None = None


@dataclasses.dataclass
class _ChildState:
    """Mutable supervision state for one child."""

    spec: ChildSpec
    proc: subprocess.Popen | None = None
    endpoint: RpcEndpoint | None = None
    spawned_at: float = 0.0
    #: consecutive failures in the current crash streak; resets to 0
    #: after ``stable_seconds`` of verified-up runtime
    failures: int = 0
    spawns: int = 0
    restarts: int = 0
    crashes: int = 0
    unhealthy_streak: int = 0
    probe_failures: int = 0
    #: scheduled respawn time (clock units), or None if running
    restart_at: float | None = None
    gave_up: bool = False
    stable: bool = False
    last_health: dict | None = None
    last_exit: int | None = None


class Supervisor:
    """Spawn, watch, and heal a set of service processes.

    The control loop is poll-based and never sleeps inside a handler:
    crashes *schedule* a respawn at ``now + backoff(failures)`` and the
    next :meth:`poll_once` past that instant performs it, so one
    crash-looping child cannot stall supervision of the others.

    ``sleep``/``clock``/``rng`` are injectable for deterministic tests.
    """

    def __init__(self, specs: list[ChildSpec], *,
                 restart_policy: RetryPolicy = DEFAULT_RESTART_POLICY,
                 stable_seconds: float = 5.0,
                 poll_interval: float = 0.25,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic,
                 rng: random.Random | None = None,
                 announce: Callable[[str], None] | None = None):
        self.restart_policy = restart_policy
        self.stable_seconds = stable_seconds
        self.poll_interval = poll_interval
        self._sleep = sleep
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        self._announce = announce
        self._children = {spec.name: _ChildState(spec=spec)
                          for spec in specs}
        if len(self._children) != len(specs):
            raise ValueError("child names must be unique")
        self._stopping = False
        GLOBAL_REGISTRY.register_collector(
            f"supervisor.{id(self)}", self._obs_collect)

    # -- observability -------------------------------------------------------
    def _obs_collect(self) -> dict[str, int]:
        return {
            "repro_supervisor_children": len(self._children),
            "repro_supervisor_spawns_total":
                sum(c.spawns for c in self._children.values()),
            "repro_supervisor_restarts_total":
                sum(c.restarts for c in self._children.values()),
            "repro_supervisor_crashes_total":
                sum(c.crashes for c in self._children.values()),
            "repro_supervisor_giveups_total":
                sum(1 for c in self._children.values() if c.gave_up),
            "repro_supervisor_probe_failures_total":
                sum(c.probe_failures for c in self._children.values()),
        }

    def status(self) -> dict[str, dict]:
        """Per-child supervision snapshot (JSON-serializable)."""
        report = {}
        for name, child in self._children.items():
            alive = child.proc is not None and child.proc.poll() is None
            report[name] = {
                "alive": alive,
                "pid": child.proc.pid if child.proc is not None else None,
                "restarts": child.restarts,
                "crashes": child.crashes,
                "failures": child.failures,
                "probe_failures": child.probe_failures,
                "unhealthy_streak": child.unhealthy_streak,
                "gave_up": child.gave_up,
                "last_exit": child.last_exit,
                "last_health": child.last_health,
            }
        return report

    def stats_snapshot(self) -> dict:
        """Aggregate counters + per-child status for artifact files."""
        return {"counters": self._obs_collect(), "children": self.status()}

    def _note(self, message: str) -> None:
        if self._announce is not None:
            self._announce(f"[supervisor] {message}")

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Spawn every child."""
        for child in self._children.values():
            self._spawn(child)

    def _spawn(self, child: _ChildState) -> None:
        child.proc = subprocess.Popen(
            child.spec.argv, env=_child_env(child.spec.env))
        child.spawns += 1
        child.spawned_at = self._clock()
        child.restart_at = None
        child.stable = False
        child.unhealthy_streak = 0
        self._note(f"spawned {child.spec.name} (pid {child.proc.pid})")

    def _probe(self, child: _ChildState) -> None:
        """One health probe; transport failures feed the wedge detector."""
        spec = child.spec
        if spec.port is None or child.proc is None:
            return
        if self._clock() - child.spawned_at < spec.grace:
            return
        if child.endpoint is None:
            child.endpoint = RpcEndpoint(
                spec.host, spec.port, name="supervisor", peer=spec.name,
                timeout=PROBE_TIMEOUT_S,
                connect_timeout=PROBE_TIMEOUT_S,
                policy=RetryPolicy(max_attempts=1))
        try:
            resp = child.endpoint.request(HealthRequest(
                requester="supervisor"))
        except RpcError:
            # no answer at all: the process may be wedged (alive but
            # deadlocked, or holding a dead socket).  ready=False is
            # NOT a failure -- a trainer waiting for uploads answers
            # honestly and must not be bounced for it.
            child.probe_failures += 1
            child.unhealthy_streak += 1
            if child.unhealthy_streak >= UNHEALTHY_AFTER:
                self._note(
                    f"{spec.name} failed {child.unhealthy_streak} health "
                    f"probes; restarting it")
                self._terminate(child)
                self._on_down(child)
            return
        if isinstance(resp, HealthResponse):
            child.unhealthy_streak = 0
            child.last_health = {"ready": resp.ready, "state": resp.state}

    def _on_down(self, child: _ChildState) -> None:
        """A child died (or was put down): count it, schedule healing."""
        child.proc = None
        child.crashes += 1
        child.failures += 1
        if child.failures >= self.restart_policy.max_attempts:
            child.gave_up = True
            child.restart_at = None
            self._note(
                f"{child.spec.name} failed {child.failures} times in a "
                f"row; giving up on it")
            return
        delay = self.restart_policy.backoff(child.failures, self._rng)
        child.restart_at = self._clock() + delay
        self._note(f"{child.spec.name} down (exit {child.last_exit}); "
                   f"restarting in {delay:.2f}s")

    def poll_once(self) -> None:
        """One supervision pass over every child."""
        now = self._clock()
        for child in self._children.values():
            if child.gave_up:
                continue
            if child.proc is None:
                if child.restart_at is not None and now >= child.restart_at:
                    child.restarts += 1
                    self._spawn(child)
                continue
            exit_code = child.proc.poll()
            if exit_code is not None:
                child.last_exit = exit_code
                self._on_down(child)
                continue
            if not child.stable and \
                    now - child.spawned_at >= self.stable_seconds:
                # survived the probation window: the crash streak is
                # over, future failures earn a fresh backoff schedule
                child.stable = True
                child.failures = 0
            self._probe(child)

    def all_gave_up(self) -> bool:
        return all(c.gave_up for c in self._children.values())

    def run(self, until: Callable[[], bool] | None = None) -> None:
        """Supervision loop; returns when ``until()`` goes true, every
        child has been given up on, or :meth:`stop` was called."""
        while not self._stopping and not self.all_gave_up():
            if until is not None and until():
                return
            self.poll_once()
            self._sleep(self.poll_interval)

    def _terminate(self, child: _ChildState) -> None:
        proc = child.proc
        if proc is None or proc.poll() is not None:
            if proc is not None:
                child.last_exit = proc.poll()
            return
        proc.terminate()
        try:
            child.last_exit = proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            child.last_exit = proc.wait()

    def stop(self) -> None:
        """Terminate every child and close probe endpoints."""
        self._stopping = True
        for child in self._children.values():
            self._terminate(child)
            child.proc = None
            if child.endpoint is not None:
                child.endpoint.close()
                child.endpoint = None

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def install_signal_handlers(supervisor: Supervisor) -> None:
    """SIGTERM/SIGINT stop the supervisor (and its children) cleanly."""
    def _handler(signum, frame):
        supervisor.stop()
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, _handler)
    signal.signal(signal.SIGINT, _handler)
