"""Tests for the CLI (direct main() calls, no subprocess)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_client_upload_accepts_workers(self):
        args = build_parser().parse_args(
            ["client-upload", "--authority-port", "1", "--server-port", "2",
             "--workers", "3"])
        assert args.workers == 3

    def test_client_upload_workers_default_serial(self):
        args = build_parser().parse_args(
            ["client-upload", "--authority-port", "1", "--server-port", "2"])
        assert args.workers is None

    def test_client_upload_rejects_nonpositive_workers(self):
        with pytest.raises(SystemExit, match="--workers"):
            main(["client-upload", "--authority-port", "1",
                  "--server-port", "2", "--workers", "0"])

    @pytest.mark.timeout_guard(30)
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_serve_train_rejects_nonpositive_workers(self, workers):
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve-train", "--authority-port", "1",
                  "--workers", workers])

    @pytest.mark.timeout_guard(30)
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_supervise_rejects_nonpositive_workers(self, tmp_path, workers):
        """Refused before the supervisor writes a key file or starts a
        child, not when training starts."""
        authority_file = tmp_path / "auth.json"
        with pytest.raises(SystemExit, match="--workers"):
            main(["supervise", "--authority-port", "1", "--port", "2",
                  "--authority-file", str(authority_file),
                  "--checkpoint", str(tmp_path / "ckpt.npz"),
                  "--workers", workers])
        assert not authority_file.exists()

    def test_client_upload_draws_no_nonces_from_seed(self, monkeypatch):
        """``--seed`` picks the synthetic shard only: the CLI hands
        ``upload_shard`` no seeded generator, so a known seed does not
        reveal the masks of the uploaded ciphertexts."""
        import repro.rpc

        calls = []

        def fake_upload(*args, **kwargs):
            calls.append(kwargs)
            return {"n_samples": 20, "upload_bytes": 1, "ack": {},
                    "chunks": {"sent": 1, "count": 1, "resumed_from": 0},
                    "retry": {}}

        monkeypatch.setattr(repro.rpc, "upload_shard", fake_upload)
        assert main(["client-upload", "--authority-port", "1",
                     "--server-port", "2", "--seed", "5"]) == 0
        kwargs, = calls
        assert kwargs.get("rng") is None


class TestInfoAndDemo:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "CryptoNN" in out
        assert "256" in out

    def test_demo_trains(self, capsys):
        assert main(["demo", "--samples", "40"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out


class TestFileWorkflow:
    def test_full_roundtrip(self, tmp_path, capsys):
        authority_path = str(tmp_path / "authority.json")
        data_path = str(tmp_path / "data.json")
        model_path = str(tmp_path / "model.npz")

        assert main(["keygen", "--out", authority_path, "--bits", "32",
                     "--features", "4", "--classes", "2"]) == 0
        assert main(["encrypt", "--authority", authority_path,
                     "--out", data_path, "--clinics", "1",
                     "--samples", "30", "--features", "4"]) == 0
        assert main(["train", "--authority", authority_path,
                     "--data", data_path, "--model-out", model_path,
                     "--hidden", "6", "--epochs", "2",
                     "--batch-size", "15"]) == 0
        assert main(["evaluate", "--authority", authority_path,
                     "--data", data_path, "--model", model_path,
                     "--hidden", "6"]) == 0
        out = capsys.readouterr().out
        assert "accuracy over encrypted data" in out

    def test_keygen_warns_about_secrets(self, tmp_path, capsys):
        main(["keygen", "--out", str(tmp_path / "a.json"), "--bits", "32"])
        assert "master secret" in capsys.readouterr().out

    def test_train_on_missing_file_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["train", "--authority", str(tmp_path / "nope.json"),
                  "--data", str(tmp_path / "nope2.json")])


class TestAuthorityRoundtrip:
    def test_keys_survive_reload(self, tmp_path):
        """Ciphertexts made before save must decrypt after load."""
        import random
        from repro.core.checkpoint import load_authority, save_authority
        from repro.core.config import CryptoNNConfig
        from repro.core.entities import TrustedAuthority

        authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        mpk = authority.feip_public_key(3)
        ct = authority.feip.encrypt(mpk, [1, 2, 3])
        path = tmp_path / "authority.json"
        save_authority(authority, path)

        restored = load_authority(path, rng=random.Random(1))
        key = restored.derive_feip_keys([[4, 5, 6]])[0]
        assert restored.feip.decrypt(restored.feip_public_key(3), ct, key,
                                     bound=1000) == 32

    def test_bad_format_rejected(self, tmp_path):
        from repro.core.checkpoint import load_authority
        path = tmp_path / "bad.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(ValueError):
            load_authority(path)


class TestMetricsWatch:
    """`repro metrics --watch` must survive a scrape target that is
    down or restarting instead of dying on the first refused
    connection (the supervised deployment restarts services under
    the watcher's feet)."""

    @pytest.mark.timeout_guard(60)
    def test_watch_retries_through_connection_refused(self, capsys):
        from repro.rpc import free_port

        port = free_port()  # nothing listens here
        rc = main(["metrics", "--port", str(port), "--watch", "0.05",
                   "--watch-count", "2", "--timeout", "0.5"])
        err = capsys.readouterr().err
        assert rc == 1  # bounded watch ends still-failing -> nonzero
        assert err.count("metrics scrape failed") == 2
        assert "retrying in" in err

    @pytest.mark.timeout_guard(60)
    def test_one_shot_scrape_failure_is_terminal(self, capsys):
        from repro.rpc import free_port

        port = free_port()
        rc = main(["metrics", "--port", str(port), "--timeout", "0.5"])
        assert rc == 1
        assert "metrics scrape failed" in capsys.readouterr().err

    @pytest.mark.timeout_guard(60)
    def test_watch_recovers_when_the_target_comes_back(self, capsys):
        import random
        import threading
        import time as _time

        from repro.core.config import CryptoNNConfig
        from repro.core.entities import TrustedAuthority
        from repro.rpc import AuthorityService, free_port

        port = free_port()
        started = {}

        def bring_up_late():
            _time.sleep(1.0)
            authority = TrustedAuthority(CryptoNNConfig(),
                                         rng=random.Random(0))
            service = AuthorityService(authority, port=port)
            started["service"] = service
            started["addr"] = service.start()

        helper = threading.Thread(target=bring_up_late, daemon=True)
        helper.start()
        try:
            # a couple of refused scrapes, then the service appears and
            # the same watch loop scrapes it successfully -> exit 0
            rc = main(["metrics", "--port", str(port), "--watch", "0.05",
                       "--watch-count", "8", "--timeout", "0.2"])
            captured = capsys.readouterr()
            assert rc == 0
            assert "metrics scrape failed" in captured.err
            assert "state=" in captured.out
        finally:
            helper.join(timeout=15)
            if "service" in started:
                started["service"].stop()
