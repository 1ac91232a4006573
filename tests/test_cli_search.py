"""The `repro search` subcommand, including its --workers flag."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def _search(capsys, *extra):
    code = main(["search", "--nodes", "4", "--wall", "600",
                 "--seed", "0", *extra])
    return code, capsys.readouterr().out


class TestSearchCLI:
    def test_random_search_runs(self, capsys):
        code, out = _search(capsys, "--algorithm", "rs")
        assert code == 0
        assert "evaluations completed:" in out
        assert "best reward:" in out
        assert "in-loop" in out

    def test_workers_zero_and_pool_agree(self, capsys):
        """The user-facing determinism promise: --workers 0 and
        --workers 2 print identical search outcomes."""
        _, serial = _search(capsys, "--algorithm", "rs", "--workers", "0")
        _, pooled = _search(capsys, "--algorithm", "rs", "--workers", "2")
        keep = ("evaluations completed:", "best reward:",
                "best architecture:", "node utilization:")
        pick = lambda text: [ln for ln in text.splitlines()
                             if ln.startswith(keep)]
        assert pick(serial) == pick(pooled)
        assert "serial backend" in serial
        assert "2-worker pool" in pooled

    def test_rl_algorithm_runs(self, capsys):
        code, out = main(["search", "--algorithm", "rl", "--nodes", "8",
                          "--wall", "500", "--agents", "2"]), \
            capsys.readouterr().out
        assert code == 0
        assert "evaluations completed:" in out

    def test_obs_flag_prints_pool_metrics(self, capsys):
        code, out = _search(capsys, "--algorithm", "rs", "--workers", "2",
                            "--obs")
        assert code == 0
        assert "parallel/tasks_dispatched" in out

    def test_invalid_arguments_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["search", "--nodes", "0"])
        with pytest.raises(SystemExit):
            main(["search", "--wall", "-5"])
        with pytest.raises(SystemExit):
            main(["search", "--algorithm", "nope"])

    def test_top_level_help_names_search(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "search" in capsys.readouterr().out


class TestCampaignCLI:
    def test_walltime_resume_matches_single_run(self, capsys, tmp_path):
        """The user-facing campaign promise: a run split by --walltime
        and finished with --resume prints the outcome of one full run."""
        keep = ("evaluations completed:", "best reward:",
                "best architecture:", "node utilization:")
        pick = lambda text: [ln for ln in text.splitlines()
                             if ln.startswith(keep)]
        _, full = _search(capsys, "--algorithm", "ae")
        ckpt = str(tmp_path / "campaign.json")
        code, out = _search(capsys, "--algorithm", "ae",
                            "--walltime", "250", "--checkpoint", ckpt,
                            "--checkpoint-every", "100")
        assert code == 0
        assert "checkpoint written" in out
        code = main(["search", "--resume", ckpt, "--seed", "0"])
        resumed = capsys.readouterr().out
        assert code == 0
        assert "resuming campaign" in resumed
        assert pick(resumed) == pick(full)

    def test_campaign_flags_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["search", "--walltime", "-1"])
        with pytest.raises(SystemExit):
            main(["search", "--checkpoint-every", "60"])  # no --checkpoint

    @pytest.mark.parametrize("payload,reason", [
        ([1, 2, 3], "not a checkpoint"),
        ({"format": "repro-slo-report", "version": 1, "clients": 2},
         "not a checkpoint"),
        ({"format": "repro-search-checkpoint", "version": 2,
          "algorithm": "RandomSearch"}, "not a campaign checkpoint"),
    ], ids=["json-list", "slo-report", "search-only"])
    def test_resume_rejects_non_campaign_file(self, capsys, tmp_path,
                                              payload, reason):
        """A file that is not a resumable campaign checkpoint is a usage
        error naming the path, never a traceback."""
        path = tmp_path / "not-a-campaign.json"
        path.write_text(json.dumps(payload))
        code = main(["search", "--resume", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert str(path) in err
        assert reason in err
