"""Command-line surface: exit codes, determinism, file outputs."""

import pytest

from kphead import gradcheck
from kphead.cli import main, sibling_test_path

BASE_FLAGS = ["--data.channels", "16", "--data.num_classes", "2",
              "--data.parts_per_class", "2", "--data.n_train", "16",
              "--data.n_test", "8", "--okpd.groups", "2", "--head.num_parts", "2",
              "--head.pool_len", "2", "--head.hidden", "8",
              "--train.epochs", "1", "--train.batch_size", "8"]


def gen(tmp_path, name="d.bin", seed="1"):
    out = tmp_path / name
    assert main(["toy", "gen", "--out", str(out), "--seed", seed] + BASE_FLAGS) == 0
    return out


class TestParamsCommand:
    def test_baseline_preset_exact_total(self, capsys):
        assert main(["params", "--preset", "baseline-fpn-voc"]) == 0
        out = capsys.readouterr().out
        assert "14,003,305" in out

    def test_condensed_preset_reports_ratio(self, capsys):
        assert main(["params", "--preset", "condensed-fpn-voc"]) == 0
        out = capsys.readouterr().out
        assert "reduction ratio" in out

    def test_sweep_includes_minimal_row(self, capsys):
        assert main(["params", "--preset", "condensed-fpn-voc", "--sweep"]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.strip().startswith("1   1")]
        assert line and float(line[0].split()[-1]) <= 0.05

    def test_unknown_preset_exits_2_with_listing(self, capsys):
        assert main(["params", "--preset", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "baseline-fpn-voc" in err

    def test_csv_output(self, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        assert main(["params", "--preset", "baseline-fpn-voc", "--csv", str(csv)]) == 0
        assert csv.read_text().splitlines()[0] == "layer,params,macs"

    def test_config_based_report(self, capsys):
        assert main(["params"] + BASE_FLAGS) == 0
        assert "total" in capsys.readouterr().out


class TestGradcheckCommand:
    def test_default_run_exits_zero(self, capsys):
        assert main(["gradcheck", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck OK" in out
        assert out.count("max rel err") == len(gradcheck.CHECKS)

    def test_reproducible_output(self, capsys):
        assert main(["gradcheck", "--trials", "1", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["gradcheck", "--trials", "1", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_corrupted_gradient_exits_one(self, capsys, monkeypatch):
        def broken_check(rng):
            return 1.0  # simulated mismatch above tolerance
        monkeypatch.setitem(gradcheck.CHECKS, "linear", broken_check)
        assert main(["gradcheck", "--trials", "1"]) == 1
        assert "FAILED" in capsys.readouterr().err


class TestToyGen:
    def test_twice_byte_identical(self, tmp_path):
        a = gen(tmp_path, "a.bin")
        b = gen(tmp_path, "b.bin")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.test.bin").read_bytes() == \
            (tmp_path / "b.test.bin").read_bytes()

    def test_writes_train_and_test_files(self, tmp_path):
        out = gen(tmp_path)
        assert out.exists()
        assert (tmp_path / sibling_test_path(str(out)).split("/")[-1]).exists()


class TestToyTrainEvalHeatmaps:
    def test_full_pipeline(self, tmp_path, capsys):
        data = gen(tmp_path)
        params = tmp_path / "params.bin"
        log = tmp_path / "log.csv"
        rc = main(["toy", "train", "--data", str(data), "--out", str(params),
                   "--log", str(log)] + BASE_FLAGS)
        assert rc == 0
        assert params.exists() and (tmp_path / "params.bin.manifest").exists()
        assert log.read_text().splitlines()[0] == "epoch,det_loss,l_d,l_u,acc"

        test_file = tmp_path / "d.test.bin"
        rc = main(["toy", "eval", "--data", str(test_file), "--params", str(params)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

        heat_dir = tmp_path / "maps"
        rc = main(["toy", "heatmaps", "--data", str(test_file), "--params",
                   str(params), "--out", str(heat_dir)])
        assert rc == 0
        pgms = list(heat_dir.glob("*.pgm"))
        assert len(pgms) == 2 + 1  # K maps + global

    def test_train_determinism_byte_identical_params(self, tmp_path):
        data = gen(tmp_path)
        p1, p2 = tmp_path / "p1.bin", tmp_path / "p2.bin"
        for p in (p1, p2):
            rc = main(["toy", "train", "--data", str(data), "--out", str(p),
                       "--train.seed", "5"] + BASE_FLAGS)
            assert rc == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_data_file_exits_2(self, tmp_path):
        rc = main(["toy", "train", "--data", str(tmp_path / "nope.bin"),
                   "--out", str(tmp_path / "p.bin")] + BASE_FLAGS)
        assert rc == 2

    def test_missing_params_exits_2(self, tmp_path):
        data = gen(tmp_path)
        rc = main(["toy", "eval", "--data", str(data),
                   "--params", str(tmp_path / "nope.bin")])
        assert rc == 2

    def test_truncated_params_payload_exits_2(self, tmp_path, capsys):
        data = gen(tmp_path)
        params = tmp_path / "p.bin"
        assert main(["toy", "train", "--data", str(data), "--out", str(params)]
                    + BASE_FLAGS) == 0
        params.write_bytes(params.read_bytes()[:1000])
        capsys.readouterr()
        rc = main(["toy", "eval", "--data", str(data), "--params", str(params)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_truncated_dataset_exits_2(self, tmp_path, capsys):
        data = gen(tmp_path)
        params = tmp_path / "p.bin"
        assert main(["toy", "train", "--data", str(data), "--out", str(params)]
                    + BASE_FLAGS) == 0
        data.write_bytes(data.read_bytes()[:500])
        capsys.readouterr()
        rc = main(["toy", "eval", "--data", str(data), "--params", str(params)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_divergent_training_exits_3(self, tmp_path):
        data = gen(tmp_path)
        rc = main(["toy", "train", "--data", str(data), "--out",
                   str(tmp_path / "p.bin")] + BASE_FLAGS
                  + ["--train.learning_rate", "1e9", "--train.epochs", "4"])
        assert rc == 3

    def test_baseline_model_trains_too(self, tmp_path):
        data = gen(tmp_path)
        rc = main(["toy", "train", "--data", str(data), "--out",
                   str(tmp_path / "b.bin"), "--model", "baseline"] + BASE_FLAGS)
        assert rc == 0


class TestConfigCommand:
    def test_dump_prints_all_defaults(self, capsys):
        assert main(["config", "dump"]) == 0
        out = capsys.readouterr().out
        for key in ("data.seed", "train.learning_rate", "head.num_parts",
                    "okpd.dilation"):
            assert key in out

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("data.bogus = 3\n")
        rc = main(["toy", "gen", "--out", str(tmp_path / "d.bin"),
                   "--config", str(bad)])
        assert rc == 2

    def test_config_file_round_trips_through_dump(self, tmp_path, capsys):
        assert main(["config", "dump"]) == 0
        dumped = capsys.readouterr().out
        path = tmp_path / "defaults.cfg"
        path.write_text(dumped)
        out = tmp_path / "d.bin"
        rc = main(["toy", "gen", "--out", str(out), "--config", str(path),
                   "--data.n_train", "8", "--data.n_test", "4"])
        assert rc == 0


class TestHelpSurface:
    @pytest.mark.parametrize("argv", [["--help"], ["params", "--help"],
                                      ["gradcheck", "--help"], ["toy", "--help"],
                                      ["toy", "gen", "--help"],
                                      ["toy", "train", "--help"],
                                      ["toy", "eval", "--help"],
                                      ["toy", "heatmaps", "--help"],
                                      ["config", "--help"]])
    def test_every_subcommand_has_help(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0


class TestConfigSweep:
    def test_toy_scale_sweep_respects_group_options(self, capsys):
        rc = main(["params", "--data.channels", "64", "--okpd.groups", "4",
                   "--sweep"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(K, L) sweep" in out
