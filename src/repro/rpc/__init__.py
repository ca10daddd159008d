"""Networked runtime: asyncio RPC services for the CryptoNN entities.

The paper's pitch against SMC-based training is its communication
profile -- per-iteration key request/response round trips instead of
multi-round interactive protocols (Section IV-B2).  This package gives
the three entities a *real* transport so that profile carries actual
bytes between actual processes:

* :mod:`repro.rpc.framing` -- length-prefixed binary frames over
  asyncio TCP streams;
* :mod:`repro.rpc.messages` -- typed request/response messages mapped
  1:1 onto the :mod:`repro.core.protocol` kinds, bodies packed by
  :mod:`repro.core.serialization` so traffic accounting is byte-exact;
* :mod:`repro.rpc.authority_service` -- the authority key service;
* :mod:`repro.rpc.training_service` -- the training server, driving
  :class:`~repro.core.cryptonn.CryptoNNTrainer` over the wire;
* :mod:`repro.rpc.client` -- sync endpoint facade and the
  :class:`RemoteAuthority` drop-in for trainers and clients;
* :mod:`repro.rpc.client_agent` -- encrypt-and-upload for data owners
  (every upload is resumable, fingerprinted ``encrypted-data`` chunks);
* :mod:`repro.rpc.runtime` -- service-hosting helpers for tests,
  examples and the CLI.

Per-iteration key requests are batched into one framed envelope by
default (``CryptoNNConfig.batch_key_requests``), collapsing the
k x n x |w| request fan-out into a single round trip.

Fault tolerance lives in three sibling modules: :mod:`repro.rpc.retry`
(the runtime-wide :class:`RetryPolicy` / :class:`RetryStats`
vocabulary), :mod:`repro.rpc.chaos` (the deterministic fault-injecting
:class:`ChaosProxy` the test suite and the loopback example run
training through), and :mod:`repro.rpc.supervisor` (the self-healing
process supervisor restarting crashed or wedged services into their
durable state).
"""

from repro.rpc.authority_service import AuthorityService, run_authority_service
from repro.rpc.chaos import ChaosConfig, ChaosProxy, ChaosSchedule
from repro.rpc.client import (
    RemoteAuthority,
    RpcEndpoint,
    RpcError,
    RpcRemoteError,
    RpcTimeoutError,
)
from repro.rpc.client_agent import (
    fetch_status,
    plan_shard_chunks,
    request_checkpoint,
    upload_planned_chunks,
    upload_shard,
)
from repro.rpc.framing import MAX_FRAME_BYTES, MAX_HEADER_BYTES, FrameError
from repro.rpc.messages import (
    HealthRequest,
    HealthResponse,
    MetricsRequest,
    MetricsResponse,
    ShardChunk,
    ShardResumeQuery,
    WireContext,
    shard_fingerprint,
)
from repro.rpc.retry import (
    DEFAULT_POLICY,
    SERVICE_POLICY,
    STAT_KEYS,
    RetryPolicy,
    RetryStats,
    call_with_retry,
    merge_stats,
)
from repro.rpc.runtime import ServiceThread, free_port, wait_for_port
from repro.rpc.supervisor import ChildSpec, Supervisor, repro_argv
from repro.rpc.training_service import (
    TrainingService,
    build_mlp,
    run_training,
)

__all__ = [
    "AuthorityService",
    "ChaosConfig",
    "ChaosProxy",
    "ChaosSchedule",
    "ChildSpec",
    "DEFAULT_POLICY",
    "SERVICE_POLICY",
    "STAT_KEYS",
    "RetryPolicy",
    "RetryStats",
    "call_with_retry",
    "merge_stats",
    "FrameError",
    "HealthRequest",
    "HealthResponse",
    "MAX_FRAME_BYTES",
    "MAX_HEADER_BYTES",
    "MetricsRequest",
    "MetricsResponse",
    "RemoteAuthority",
    "RpcEndpoint",
    "RpcError",
    "RpcRemoteError",
    "RpcTimeoutError",
    "ServiceThread",
    "ShardChunk",
    "ShardResumeQuery",
    "Supervisor",
    "TrainingService",
    "WireContext",
    "build_mlp",
    "fetch_status",
    "free_port",
    "plan_shard_chunks",
    "repro_argv",
    "request_checkpoint",
    "run_authority_service",
    "run_training",
    "shard_fingerprint",
    "upload_planned_chunks",
    "upload_shard",
    "wait_for_port",
]
