"""Tests for the AST invariant analyzer (repro.analysis).

Each rule gets true-positive and false-positive pinning over fixture
snippets, plus suppression handling, the JSON report schema, and a
meta-test asserting ``repro lint`` over the current tree exits 0 --
the same invocation the CI gate runs.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_lint, select_rules
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_project(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialize fixture files (repo-relative paths) under tmp_path."""
    for rel, body in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body), encoding="utf-8")
    return tmp_path


def lint(tmp_path: Path, files: dict[str, str], rules: list[str]):
    return run_lint(make_project(tmp_path, files), rule_ids=rules)


def rule_ids(report) -> set[str]:
    return {f.rule for f in report.active()}


# -- crypto-random -----------------------------------------------------------

def test_crypto_random_flags_module_prng(tmp_path):
    report = lint(tmp_path, {
        "src/repro/fe/bad.py": """\
            import random
            def pick():
                return random.randint(0, 10)
            """,
    }, ["crypto-random"])
    assert len(report.active()) == 1
    assert report.active()[0].line == 3


def test_crypto_random_flags_literal_seed_and_from_import(tmp_path):
    report = lint(tmp_path, {
        "src/repro/rpc/bad.py": """\
            import random
            from random import randint
            r = random.Random(42)
            n = randint(0, 3)
            """,
    }, ["crypto-random"])
    assert len(report.active()) == 2


def test_crypto_random_allows_os_seeded_and_param_seeded(tmp_path):
    report = lint(tmp_path, {
        "src/repro/mathutils/ok.py": """\
            import random
            def make(seed=None):
                a = random.Random()        # OS-seeded: fine
                b = random.SystemRandom()  # os.urandom-backed: fine
                c = random.Random(seed)    # caller's seed: fine
                return a, b, c
            """,
        # outside the crypto dirs the rule does not apply at all
        "src/repro/nn/free.py": """\
            import random
            x = random.random()
            """,
    }, ["crypto-random"])
    assert report.active() == []


# -- key-serialization -------------------------------------------------------

def test_key_serialization_flags_msk_in_serializer(tmp_path):
    report = lint(tmp_path, {
        "src/repro/core/checkpoint.py": """\
            def save_state(obj, path):
                payload = {"msk": obj.msk, "n": obj.n}
                path.write_text(str(payload))
            """,
    }, ["key-serialization"])
    assert len(report.active()) == 2  # the attribute read + the field


def test_key_serialization_ignores_non_serializers(tmp_path):
    report = lint(tmp_path, {
        "src/repro/core/serialization.py": """\
            def derive_key(authority):
                return authority.msk + 1  # not a serializer

            def save_weights(model, path):
                path.write_bytes(model.weights)
            """,
    }, ["key-serialization"])
    assert report.active() == []


# -- nonce-reuse -------------------------------------------------------------

def test_nonce_reuse_flags_stored_nonce(tmp_path):
    report = lint(tmp_path, {
        "src/repro/fe/bad.py": """\
            class Enc:
                def encrypt_all(self, scheme, mpk, xs):
                    return [scheme.encrypt(mpk, x, nonce=self._nonce)
                            for x in xs]
            """,
    }, ["nonce-reuse"])
    assert len(report.active()) == 1
    assert "stored state" in report.active()[0].message


def test_nonce_reuse_flags_loop_hoisted_nonce(tmp_path):
    report = lint(tmp_path, {
        "src/repro/fe/bad.py": """\
            def encrypt_columns(scheme, mpk, cols, make_nonce):
                nonce = make_nonce()
                out = []
                for col in cols:
                    out.append(scheme.encrypt(mpk, col, nonce=nonce))
                return out
            """,
    }, ["nonce-reuse"])
    assert len(report.active()) == 1
    assert "outside the loop" in report.active()[0].message


def test_nonce_reuse_flags_double_use(tmp_path):
    report = lint(tmp_path, {
        "src/repro/fe/bad.py": """\
            def two(scheme, mpk, a, b, make_nonce):
                nonce = make_nonce()
                ca = scheme.encrypt(mpk, a, nonce=nonce)
                cb = scheme.encrypt(mpk, b, nonce=nonce)
                return ca, cb
            """,
    }, ["nonce-reuse"])
    assert len(report.active()) == 1


def test_nonce_reuse_allows_fresh_and_passthrough(tmp_path):
    report = lint(tmp_path, {
        "src/repro/fe/ok.py": """\
            def encrypt_columns(scheme, mpk, cols, store):
                out = []
                for col in cols:
                    nonce = store.pop()
                    out.append(scheme.encrypt(mpk, col, nonce=nonce))
                out.append(scheme.encrypt(mpk, cols[0],
                                          nonce=store.pop()))
                return out

            def encrypt_one(scheme, mpk, x, nonce=None):
                return scheme.encrypt(mpk, x, nonce=nonce)
            """,
    }, ["nonce-reuse"])
    assert report.active() == []


# -- lock-discipline ---------------------------------------------------------

def test_lock_discipline_flags_mixed_lock_writes(tmp_path):
    report = lint(tmp_path, {
        "src/repro/matrix/bad.py": """\
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.dispatches = 0

                def dispatch(self):
                    with self._lock:
                        self.dispatches += 1

                def dispatch_fast(self):
                    self.dispatches += 1  # bare write: the race
            """,
    }, ["lock-discipline"])
    assert len(report.active()) == 1
    assert report.active()[0].line == 13
    assert "without the lock" in report.active()[0].message


def test_lock_discipline_flags_a_subclass_bare_write(tmp_path):
    """A base class guards ``_stopping`` with its lock; a subclass in
    another file writes it bare."""
    report = lint(tmp_path, {
        "src/repro/rpc/base.py": """\
            import threading

            class Listener:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._stopping = False

                def stop(self):
                    with self._lock:
                        self._stopping = True
            """,
        "src/repro/rpc/derived.py": """\
            from repro.rpc.base import Listener

            class Service(Listener):
                def stop(self):
                    self._stopping = True  # bare write: the race
                    super().stop()
            """,
    }, ["lock-discipline"])
    assert [(f.path, f.line) for f in report.active()] == [
        ("src/repro/rpc/derived.py", 5)]
    assert "Service._stopping" in report.active()[0].message


def test_lock_discipline_flags_lockless_global_singleton(tmp_path):
    report = lint(tmp_path, {
        "src/repro/mathutils/bad.py": """\
            class Cache:
                def __init__(self):
                    self.hits = 0

                def get(self, k):
                    self.hits += 1
                    return k

            GLOBAL_CACHE = Cache()
            """,
    }, ["lock-discipline"])
    assert len(report.active()) == 1
    assert "GLOBAL_CACHE" in report.active()[0].message


def test_lock_discipline_allows_consistent_locking(tmp_path):
    report = lint(tmp_path, {
        "src/repro/matrix/ok.py": """\
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.dispatches = 0  # init is pre-sharing: exempt
                    self.local_only = 0

                def dispatch(self):
                    with self._lock:
                        self.dispatches += 1

                def reset_local(self):
                    # never lock-guarded anywhere: not mixed, no flag
                    self.local_only = 0

            class FrozenCfg:
                def __init__(self, n):
                    self.n = n

            GLOBAL_CFG = FrozenCfg(3)  # immutable after init: fine
            """,
    }, ["lock-discipline"])
    assert report.active() == []


# -- determinism -------------------------------------------------------------

def test_determinism_flags_entropy_and_wall_clock(tmp_path):
    report = lint(tmp_path, {
        "src/repro/core/cryptonn.py": """\
            import time
            import numpy as np

            def fit():
                t0 = time.time()
                rng = np.random.default_rng()
                return t0, rng
            """,
    }, ["determinism"])
    assert len(report.active()) == 2


def test_determinism_allows_seeded_rng_and_monotonic(tmp_path):
    report = lint(tmp_path, {
        "src/repro/core/cryptonn.py": """\
            import time
            import numpy as np

            def fit(seed):
                t0 = time.perf_counter()   # timing, not wall clock
                rng = np.random.default_rng(seed)
                return t0, rng
            """,
        # same calls outside the resume-critical modules: no findings
        "src/repro/obs/tracing.py": """\
            import time
            def stamp():
                return time.time()
            """,
    }, ["determinism"])
    assert report.active() == []


# -- hotpath-pow -------------------------------------------------------------

def test_hotpath_flags_bare_pow_and_q_reduction(tmp_path):
    report = lint(tmp_path, {
        "src/repro/fe/bad.py": """\
            def commit(group, g, r, p, q):
                a = pow(g, r, p)
                b = group.exp(g, r % q)
                return a, b
            """,
    }, ["hotpath-pow"])
    assert len(report.active()) == 2


def test_hotpath_flags_q_reduction_passed_to_row_plan(tmp_path):
    """``RowPlan`` is the batched entry point that takes exponents: a
    full-width ``% q`` handed to it is flagged, its order is not."""
    report = lint(tmp_path, {
        "src/repro/fe/bad.py": """\
            from repro.mathutils.fastexp import RowPlan

            def plan(group, weights, neg_sk, q):
                return RowPlan(weights, group.q, fixed_exponents=neg_sk % q)
            """,
    }, ["hotpath-pow"])
    finding, = report.active()
    assert "RowPlan()" in finding.message


def test_hotpath_allows_mathutils_and_2arg_pow(tmp_path):
    report = lint(tmp_path, {
        "src/repro/mathutils/fastexp.py": """\
            def exp(g, e, p):
                return pow(g, e, p)  # mathutils IS the exemption
            """,
        "src/repro/fe/ok.py": """\
            def square(x):
                return pow(x, 2)  # 2-arg pow is plain arithmetic

            def commit(group, g, r):
                return group.exp(g, r)
            """,
    }, ["hotpath-pow"])
    assert report.active() == []


# -- global-fallback ---------------------------------------------------------

def test_global_fallback_flags_param_or_global(tmp_path):
    report = lint(tmp_path, {
        "src/repro/fe/bad.py": """\
            from repro.mathutils import dlog
            from repro.mathutils.dlog import GLOBAL_SOLVER_CACHE

            class Scheme:
                def __init__(self, solver_cache=None):
                    self._cache = solver_cache or GLOBAL_SOLVER_CACHE

            def pick(*, cache=None):
                return cache or dlog.GLOBAL_SOLVER_CACHE
            """,
    }, ["global-fallback"])
    assert [f.line for f in report.active()] == [6, 9]


def test_global_fallback_allows_is_none_and_non_params(tmp_path):
    report = lint(tmp_path, {
        "src/repro/fe/ok.py": """\
            from repro.mathutils.dlog import GLOBAL_SOLVER_CACHE

            def pick(cache=None, workers=None):
                chosen = GLOBAL_SOLVER_CACHE if cache is None else cache
                local = make()
                fallback = local or GLOBAL_SOLVER_CACHE
                first = GLOBAL_SOLVER_CACHE or cache
                count = workers or default_workers()
                return chosen, fallback, first, count
            """,
    }, ["global-fallback"])
    assert report.active() == []


# -- protocol-complete -------------------------------------------------------

_PROTOCOL_FIXTURE = {
    "src/repro/core/protocol.py": """\
        KIND_PING = "ping"
        KIND_PONG = "pong-response"
        """,
    "src/repro/rpc/messages.py": """\
        from repro.core import protocol

        def _register(*kinds):
            def deco(cls):
                return cls
            return deco

        @_register(protocol.KIND_PING)
        class PingRequest:
            pass

        @_register(protocol.KIND_PONG)
        class PongResponse:
            pass
        """,
    "src/repro/rpc/service.py": """\
        class Service:
            def _dispatch(self, msg, sender):
                if isinstance(msg, PingRequest):
                    return PongResponse()
                raise TypeError(msg)
        """,
    "src/repro/core/entities.py": """\
        from repro.core import protocol

        def record(log):
            log.record("a", "b", protocol.KIND_PING, 1)
            log.record("b", "a", protocol.KIND_PONG, 1)
        """,
}


def test_protocol_complete_clean_fixture(tmp_path):
    report = lint(tmp_path, dict(_PROTOCOL_FIXTURE),
                  ["protocol-complete"])
    assert report.active() == []


def test_protocol_complete_flags_missing_pieces(tmp_path):
    files = dict(_PROTOCOL_FIXTURE)
    # drop the handler branch and the accounting reference for PING
    files["src/repro/rpc/service.py"] = """\
        class Service:
            def _dispatch(self, msg, sender):
                raise TypeError(msg)
        """
    files["src/repro/core/entities.py"] = """\
        from repro.core import protocol

        def record(log):
            log.record("b", "a", protocol.KIND_PONG, 1)
        """
    # add a kind with no codec at all
    files["src/repro/core/protocol.py"] = """\
        KIND_PING = "ping"
        KIND_PONG = "pong-response"
        KIND_LOST = "lost"
        """
    report = lint(tmp_path, files, ["protocol-complete"])
    messages = [f.message for f in report.active()]
    assert any("no registered message codec" in m for m in messages)
    assert any("decoded by no service dispatch" in m for m in messages)
    assert any("TrafficLog accounting" in m for m in messages)


def test_protocol_complete_flags_duplicate_registration(tmp_path):
    files = dict(_PROTOCOL_FIXTURE)
    files["src/repro/rpc/messages.py"] += """\

        @_register(protocol.KIND_PING)
        class PingRequestV2:
            pass
        """
    report = lint(tmp_path, files, ["protocol-complete"])
    assert any("registered by both" in f.message for f in report.active())


# -- metrics-naming ----------------------------------------------------------

def test_metrics_naming_flags_scheme_violations(tmp_path):
    report = lint(tmp_path, {
        "src/repro/obs/bad.py": """\
            def instrument(registry):
                registry.counter("repro_requests")        # no _total
                registry.histogram("repro_depth_total")   # histogram w/ _total
                registry.counter("requests_total")        # no prefix
                registry.histogram("repro_Bad-Name")      # charset

            def _collect():
                return {"repro_Widget_Count": 1}          # charset
            """,
    }, ["metrics-naming"])
    assert len(report.active()) == 5


def test_metrics_naming_allows_scheme_and_labels(tmp_path):
    report = lint(tmp_path, {
        "src/repro/obs/ok.py": """\
            def instrument(registry, phase):
                registry.counter("repro_rpc_retries_total").inc()
                registry.histogram(
                    f'repro_phase_seconds{{phase="{phase}"}}')

            def _collect():
                return {"repro_engine_prefills_total": 2,
                        "repro_engine_available": 7}
            """,
    }, ["metrics-naming"])
    assert report.active() == []


# -- suppressions ------------------------------------------------------------

def test_suppression_trailing_comment(tmp_path):
    report = lint(tmp_path, {
        "src/repro/core/cryptonn.py": """\
            import time

            def fit():
                return time.time()  # repro: allow[determinism] -- why not
            """,
    }, ["determinism"])
    assert report.active() == []
    assert len(report.suppressed()) == 1
    assert report.suppressed()[0].justification == "why not"


def test_suppression_standalone_comment_with_continuation(tmp_path):
    report = lint(tmp_path, {
        "src/repro/core/cryptonn.py": """\
            import time

            def fit():
                # repro: allow[determinism] -- first half
                # second half of the justification
                return time.time()
            """,
    }, ["determinism"])
    assert report.active() == []
    justification = report.suppressed()[0].justification
    assert justification == "first half second half of the justification"


def test_suppression_is_rule_specific(tmp_path):
    report = lint(tmp_path, {
        "src/repro/core/cryptonn.py": """\
            import time

            def fit():
                return time.time()  # repro: allow[hotpath-pow] -- wrong id
            """,
    }, ["determinism"])
    assert len(report.active()) == 1  # wrong rule id: not suppressed


def test_suppression_inside_string_does_not_count(tmp_path):
    report = lint(tmp_path, {
        "src/repro/core/cryptonn.py": '''\
            import time

            MARKER = "# repro: allow[determinism] -- in a string"

            def fit():
                return time.time()
            ''',
    }, ["determinism"])
    assert len(report.active()) == 1


# -- report plumbing ---------------------------------------------------------

def test_json_report_schema(tmp_path):
    report = lint(tmp_path, {
        "src/repro/core/cryptonn.py": """\
            import time

            def fit():
                return time.time()
            """,
    }, None)
    payload = report.to_dict()
    assert payload["version"] == 1
    assert {r["id"] for r in payload["rules"]} >= {
        "crypto-random", "determinism", "global-fallback", "hotpath-pow",
        "key-serialization", "lock-discipline", "metrics-naming",
        "nonce-reuse", "protocol-complete"}
    assert set(payload["summary"]) == {
        "files_scanned", "errors", "warnings", "suppressed"}
    assert payload["summary"]["errors"] == 1
    finding = payload["findings"][0]
    assert set(finding) == {"rule", "severity", "path", "line",
                            "message", "hint", "suppressed",
                            "justification"}
    json.dumps(payload)  # round-trips


def test_parse_error_becomes_finding(tmp_path):
    report = lint(tmp_path, {
        "src/repro/core/broken.py": "def half(:\n",
    }, ["determinism"])
    assert [f.rule for f in report.active()] == ["parse"]


def test_unknown_rule_raises(tmp_path):
    with pytest.raises(KeyError):
        lint(tmp_path, {}, ["no-such-rule"])


def test_select_rules_orders_registry():
    rules = select_rules(None)
    assert len(rules) >= 6
    assert [r.id for r in rules] == sorted(r.id for r in rules)
    assert all(r.description for r in rules)


# -- the CI gate: the current tree lints clean -------------------------------

def test_repro_lint_current_tree_exits_zero(tmp_path, capsys):
    report_path = tmp_path / "LINT_report.json"
    code = cli_main(["lint", "--root", str(REPO_ROOT),
                     "--fail-on", "error",
                     "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0, f"repro lint found new violations:\n{out}"
    payload = json.loads(report_path.read_text())
    assert payload["summary"]["errors"] == 0
    # every suppressed finding carries a written justification
    for finding in payload["findings"]:
        if finding["suppressed"]:
            assert finding["justification"], finding


def test_list_rules_prints_registry(capsys):
    code = cli_main(["lint", "--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    for rid in ("crypto-random", "determinism", "global-fallback",
                "hotpath-pow", "key-serialization", "lock-discipline",
                "metrics-naming", "nonce-reuse", "protocol-complete"):
        assert rid in out
