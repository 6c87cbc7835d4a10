"""Unit tests for the repro-dataset CLI."""

import pytest

from repro.dataset.cli import main


class TestBuildAndInfo:
    def test_volume_build_then_info(self, tmp_path, capsys):
        out = tmp_path / "small.npz"
        assert main(["build", "--communes", "100", "--seed", "3",
                     "--out", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()

        assert main(["info", str(out)]) == 0
        text = capsys.readouterr().out
        assert "communes" in text
        assert "top service" in text
        assert "YouTube" in text

    def test_session_build(self, tmp_path, capsys):
        out = tmp_path / "panel.npz"
        assert main([
            "build", "--session", "--subscribers", "150",
            "--communes", "64", "--seed", "3", "--out", str(out),
        ]) == 0
        assert out.exists()

    def test_maps_export(self, tmp_path, capsys):
        out = tmp_path / "small.npz"
        assert main(["build", "--communes", "100", "--seed", "3",
                     "--out", str(out)]) == 0
        out_dir = tmp_path / "maps"
        assert main([
            "maps", str(out), "--services", "Twitter", "Facebook",
            "--grid", "16", "--out-dir", str(out_dir),
        ]) == 0
        assert (out_dir / "twitter.pgm").exists()
        assert (out_dir / "facebook.pgm").exists()
        from repro.report.image import read_pgm

        assert read_pgm(out_dir / "twitter.pgm").shape == (16, 16)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope.npz")]) == 2
        assert "repro-dataset" in capsys.readouterr().err

    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])


def _session_args(tmp_path, *extra):
    return [
        "build", "--session", "--subscribers", "60", "--communes", "36",
        "--shards", "2", "--seed", "7",
        "--out", str(tmp_path / "panel.npz"), *extra,
    ]


class TestExitCodeMatrix:
    """build's exit codes: 0 ok, 1 degraded, 2 usage, 3 build failure."""

    def test_0_recovered_fault_is_full_coverage(self, tmp_path, capsys):
        rc = main(_session_args(tmp_path, "--fault", "worker_exception:1:0"))
        assert rc == 0
        assert (tmp_path / "panel.npz").exists()
        assert "degraded" not in capsys.readouterr().err

    def test_1_quarantine_writes_degraded_dataset(self, tmp_path, capsys):
        rc = main(_session_args(
            tmp_path,
            "--on-exhausted", "quarantine",
            "--fault", "worker_exception:1:0",
            "--fault", "worker_exception:1:1",
            "--fault", "worker_exception:1:2",
        ))
        assert rc == 1
        assert (tmp_path / "panel.npz").exists()
        err = capsys.readouterr().err
        assert "coverage degraded" in err
        assert "quarantined_shards=1" in err
        from repro.dataset.store import MobileTrafficDataset

        meta = MobileTrafficDataset.load(tmp_path / "panel.npz").meta
        assert meta["coverage.fraction"] < 1.0

    def test_2_resilience_flags_require_session(self, tmp_path, capsys):
        rc = main([
            "build", "--communes", "36", "--retries", "2",
            "--out", str(tmp_path / "week.npz"),
        ])
        assert rc == 2
        assert "--session" in capsys.readouterr().err
        assert not (tmp_path / "week.npz").exists()

    def test_2_resume_requires_checkpoint_dir(self, tmp_path, capsys):
        rc = main(_session_args(tmp_path, "--resume"))
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err.lower()

    def test_2_zero_chunk_size(self, tmp_path, capsys):
        rc = main(_session_args(tmp_path, "--chunk-size", "0"))
        assert rc == 2
        assert "chunk_size" in capsys.readouterr().err
        assert not (tmp_path / "panel.npz").exists()

    def test_2_malformed_fault_spec(self, tmp_path, capsys):
        rc = main(_session_args(tmp_path, "--fault", "worker_exception"))
        assert rc == 2
        capsys.readouterr()

    def test_3_retry_exhaustion_under_fail_policy(self, tmp_path, capsys):
        rc = main(_session_args(
            tmp_path, "--retries", "1", "--fault", "worker_exception:1:0",
        ))
        assert rc == 3
        assert not (tmp_path / "panel.npz").exists()
        assert "shard 1" in capsys.readouterr().err


class TestCheckpointResume:
    def test_resumed_build_matches_uninterrupted(self, tmp_path, capsys):
        import numpy as np

        from repro.dataset.store import MobileTrafficDataset

        ckpt = str(tmp_path / "ckpt")
        assert main(_session_args(tmp_path, "--checkpoint-dir", ckpt)) == 0
        first = MobileTrafficDataset.load(tmp_path / "panel.npz")

        assert main(_session_args(
            tmp_path, "--checkpoint-dir", ckpt, "--resume",
        )) == 0
        resumed = MobileTrafficDataset.load(tmp_path / "panel.npz")
        assert np.array_equal(first.dl, resumed.dl)
        assert np.array_equal(first.ul, resumed.ul)
        assert first.meta == resumed.meta
        capsys.readouterr()
