"""Command-line surface: exit codes, determinism, file outputs."""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kphead import gradcheck
from kphead.accounting import PRESETS
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


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """File name -> bytes of a test split and condensed parameters trained
    on its train split, made once per module."""
    root = tmp_path_factory.mktemp("trained")
    data = gen(root)
    assert main(["toy", "train", "--data", str(data), "--out", str(root / "p.bin")]
                + BASE_FLAGS) == 0
    return {name: (root / name).read_bytes()
            for name in ("d.test.bin", "p.bin", "p.bin.manifest")}


def run_on(workdir, files, command, *flags, **replaced):
    """Write ``files`` with ``replaced`` contents into ``workdir`` and run
    ``kphead toy <command> ... <flags>`` on them; return (exit code, stderr)."""
    for name, blob in {**files, **replaced}.items():
        (workdir / name).write_bytes(blob)
    argv = ["toy", command, "--data", str(workdir / "d.test.bin"),
            "--params", str(workdir / "p.bin"), *flags]
    if command == "heatmaps":
        argv += ["--out", str(workdir / "maps")]
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def is_one_error_line(err):
    return err.startswith("error:") and err.count("\n") == 1


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
        assert is_one_error_line(err) and "baseline-fpn-voc" in err

    def test_every_report_matches_the_golden_file(self, capsys):
        """``kphead params --sweep`` for every preset and at the defaults
        prints the bytes of ``params_reports.golden``, each output after
        its ``$ kphead params ...`` line."""
        out = []
        for argv in [["--preset", p, "--sweep"] for p in sorted(PRESETS)] + [["--sweep"]]:
            assert main(["params"] + argv) == 0
            out.append("$ kphead params " + " ".join(argv) + "\n" + capsys.readouterr().out)
        golden = Path(__file__).with_name("params_reports.golden").read_bytes()
        assert "".join(out).encode() == golden

    @pytest.mark.parametrize("keep", ["4", "1.5"])
    def test_channel_keep_outside_zero_to_one_exits_2(self, capsys, keep):
        assert main(["params", "--head.channel_keep", keep]) == 2
        captured = capsys.readouterr()
        assert is_one_error_line(captured.err) and "channel_keep" in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trials_exits_2(self, capsys, trials):
        assert main(["gradcheck", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert is_one_error_line(captured.err) and f"trials={trials}" in captured.err
        assert "gradcheck OK" not in captured.out

    def test_negative_seed_exits_2(self, capsys):
        assert main(["gradcheck", "--trials", "1", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert is_one_error_line(captured.err) and "seed=-1" in captured.err
        assert "gradcheck OK" not in captured.out

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

    @pytest.mark.parametrize("flag", ["--seed", "--data.seed"])
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_u64_exits_2(self, tmp_path, capsys, flag, seed):
        """The dataset header stores the seed as a u64."""
        out = tmp_path / "d.bin"
        assert main(["toy", "gen", "--out", str(out), flag, seed] + BASE_FLAGS) == 2
        err = capsys.readouterr().err
        assert is_one_error_line(err) and f"seed={seed}" in err
        assert not out.exists()


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

    def test_heatmaps_of_a_baseline_model_exit_2(self, tmp_path, capsys):
        data = gen(tmp_path)
        params = tmp_path / "p.bin"
        assert main(["toy", "train", "--data", str(data), "--out", str(params),
                     "--model", "baseline"] + BASE_FLAGS) == 0
        capsys.readouterr()
        rc = main(["toy", "heatmaps", "--data", str(tmp_path / "d.test.bin"),
                   "--params", str(params), "--out", str(tmp_path / "maps")])
        err = capsys.readouterr().err
        assert rc == 2 and is_one_error_line(err) and "condensed model" in err
        assert not (tmp_path / "maps").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_heatmap_threshold_exits_2(self, tmp_path, trained, threshold):
        rc, err = run_on(tmp_path, trained, "heatmaps", f"--threshold={threshold}")
        assert rc == 2 and is_one_error_line(err) and "threshold must be finite" in err
        assert not (tmp_path / "maps").exists()

    def test_train_determinism_byte_identical_params(self, tmp_path):
        data = gen(tmp_path)
        p1, p2 = tmp_path / "p1.bin", tmp_path / "p2.bin"
        for p in (p1, p2):
            rc = main(["toy", "train", "--data", str(data), "--out", str(p),
                       "--train.seed", "5"] + BASE_FLAGS)
            assert rc == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        rc = main(["toy", "train", "--data", str(tmp_path / "nope.bin"),
                   "--out", str(tmp_path / "p.bin")] + BASE_FLAGS)
        err = capsys.readouterr().err
        assert rc == 2 and is_one_error_line(err) and "nope.bin" in err

    def test_missing_params_exits_2(self, tmp_path, capsys):
        data = gen(tmp_path)
        capsys.readouterr()
        rc = main(["toy", "eval", "--data", str(data),
                   "--params", str(tmp_path / "nope.bin")])
        err = capsys.readouterr().err
        assert rc == 2 and is_one_error_line(err) and "nope.bin" in err

    def test_params_without_manifest_exits_2_naming_it(self, tmp_path, trained):
        rc, err = run_on(tmp_path, {name: blob for name, blob in trained.items()
                                    if name != "p.bin.manifest"}, "eval")
        assert rc == 2 and is_one_error_line(err)
        assert str(tmp_path / "p.bin.manifest") in err

    def test_config_merge_order(self, tmp_path, capsys):
        """file < flags < --seed < the dataset's dimensions."""
        data = gen(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.seed = 3\ndata.channels = 32\n")
        flags = BASE_FLAGS[2:]  # all but --data.channels 16
        params = tmp_path / "p.bin"
        assert main(["toy", "train", "--data", str(data), "--out", str(params),
                     "--config", str(cfg), "--train.seed", "5", "--seed", "7"] + flags) == 0
        manifest = (tmp_path / "p.bin.manifest").read_text().splitlines()
        assert "train.seed = 7" in manifest and "data.channels = 16" in manifest

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

    def test_params_payload_with_extra_bytes_exits_2(self, tmp_path, capsys):
        data = gen(tmp_path)
        params = tmp_path / "p.bin"
        assert main(["toy", "train", "--data", str(data), "--out", str(params)]
                    + BASE_FLAGS) == 0
        params.write_bytes(params.read_bytes() + b"\x00" * 64)
        capsys.readouterr()
        rc = main(["toy", "eval", "--data", str(data), "--params", str(params)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_nan_grid_value_exits_2(self, tmp_path, capsys):
        data = gen(tmp_path)
        params = tmp_path / "p.bin"
        assert main(["toy", "train", "--data", str(data), "--out", str(params)]
                    + BASE_FLAGS) == 0
        blob = bytearray(data.read_bytes())
        blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # last grid value
        data.write_bytes(bytes(blob))
        capsys.readouterr()
        rc = main(["toy", "eval", "--data", str(data), "--params", str(params)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "non-finite grid value" in err

    def test_y_hat_disagreeing_with_class_id_exits_2(self, tmp_path, capsys):
        """A record marked background (y_hat 0) with a foreground class is refused."""
        data = gen(tmp_path)
        blob = bytearray(data.read_bytes())
        blob[32:34] = b"\x00\x02"  # the first example's y_hat and class_id
        data.write_bytes(bytes(blob))
        capsys.readouterr()
        rc = main(["toy", "train", "--data", str(data), "--out", str(tmp_path / "p.bin")]
                  + BASE_FLAGS)
        err = capsys.readouterr().err
        assert rc == 2
        assert is_one_error_line(err)
        assert "example 0: y_hat is not 1 exactly when class_id is not 0" in err
        assert not (tmp_path / "p.bin").exists()

    def test_divergent_training_exits_3(self, tmp_path, capsys):
        data = gen(tmp_path)
        capsys.readouterr()
        rc = main(["toy", "train", "--data", str(data), "--out",
                   str(tmp_path / "p.bin")] + BASE_FLAGS
                  + ["--train.learning_rate", "1e9", "--train.epochs", "4"])
        assert rc == 3
        err = capsys.readouterr().err
        assert is_one_error_line(err)
        assert ("epoch 3, batch 0: operation 'conv2d' produced non-finite values"
                in err)

    @pytest.mark.parametrize("flag", ["--seed", "--train.seed"])
    def test_negative_train_seed_exits_2(self, tmp_path, capsys, flag):
        data = gen(tmp_path)
        out = tmp_path / "p.bin"
        rc = main(["toy", "train", "--data", str(data), "--out", str(out)]
                  + BASE_FLAGS + [flag, "-3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert is_one_error_line(err) and "seed must be >= 0, got -3" in err
        assert not out.exists()

    def test_momentum_outside_zero_to_one_exits_2(self, tmp_path, capsys):
        data = gen(tmp_path)
        out = tmp_path / "p.bin"
        rc = main(["toy", "train", "--data", str(data), "--out", str(out)]
                  + BASE_FLAGS + ["--train.momentum", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert is_one_error_line(err) and "momentum must be in [0, 1), got -1.0" in err
        assert not out.exists()

    def test_baseline_model_trains_too(self, tmp_path):
        data = gen(tmp_path)
        rc = main(["toy", "train", "--data", str(data), "--out",
                   str(tmp_path / "b.bin"), "--model", "baseline"] + BASE_FLAGS)
        assert rc == 0


class TestCorruptedFiles:
    @pytest.mark.parametrize("command", ["eval", "heatmaps"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_exits_2(self, tmp_path, trained, command, value):
        blob = bytearray(trained["p.bin"])
        blob[:4] = np.array([value], dtype="<f4").tobytes()
        rc, err = run_on(tmp_path, trained, command, **{"p.bin": bytes(blob)})
        assert rc == 2 and is_one_error_line(err)
        assert "discovery.block0.reduce.weight" in err and "non-finite" in err

    def test_non_utf8_manifest_exits_2(self, tmp_path, trained):
        manifest = b"\xff" + trained["p.bin.manifest"]
        rc, err = run_on(tmp_path, trained, "eval", **{"p.bin.manifest": manifest})
        assert rc == 2 and is_one_error_line(err)
        assert "p.bin.manifest" in err

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"data.channels = 16\n# caf\xe9\n")
        assert main(["params", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert is_one_error_line(err) and "run.cfg" in err

    def test_manifest_without_final_newline_exits_2(self, tmp_path, trained):
        manifest = trained["p.bin.manifest"][:-1]
        rc, err = run_on(tmp_path, trained, "eval", **{"p.bin.manifest": manifest})
        assert rc == 2 and is_one_error_line(err)

    def test_manifest_shape_overflowing_int64_exits_2(self, tmp_path, trained):
        lines = trained["p.bin.manifest"].decode().split("\n")
        row = lines.index("tensors:") + 1
        name, _, offset = lines[row].split()
        lines[row] = f"{name} 65536x65536x65536x65536 {offset}"  # 2**64 values
        manifest = "\n".join(lines).encode()
        rc, err = run_on(tmp_path, trained, "eval", **{"p.bin.manifest": manifest})
        assert rc == 2 and is_one_error_line(err)

    def test_dataset_with_more_classes_than_the_model_exits_2(self, tmp_path, trained):
        blob = bytearray(trained["d.test.bin"])
        blob[12:14] = (200).to_bytes(2, "little")  # header class count
        blob[32:34] = bytes([1, 150])  # example 0: foreground of class 150
        rc, err = run_on(tmp_path, trained, "eval", **{"d.test.bin": bytes(blob)})
        assert rc == 2 and is_one_error_line(err)

    def test_unknown_model_kind_exits_2(self, tmp_path, trained):
        manifest = trained["p.bin.manifest"].replace(b"model = condensed\n",
                                                     b"model = condensd\n")
        rc, err = run_on(tmp_path, trained, "eval", **{"p.bin.manifest": manifest})
        assert rc == 2 and is_one_error_line(err) and "'condensd'" in err

    def test_tensor_the_model_lacks_exits_2(self, tmp_path, trained):
        payload = trained["p.bin"]
        manifest = trained["p.bin.manifest"] + f"extra.weight 1 {len(payload)}\n".encode()
        rc, err = run_on(tmp_path, trained, "eval",
                         **{"p.bin": payload + bytes(4), "p.bin.manifest": manifest})
        assert rc == 2 and is_one_error_line(err) and "'extra.weight'" in err

    def test_tensor_listed_twice_exits_2(self, tmp_path, trained):
        """A repeated manifest row is rejected, not read as the later value."""
        payload = trained["p.bin"]
        manifest = trained["p.bin.manifest"] + f"head.fc.bias 8 {len(payload)}\n".encode()
        rc, err = run_on(tmp_path, trained, "eval",
                         **{"p.bin": payload + bytes(32), "p.bin.manifest": manifest})
        assert rc == 2 and is_one_error_line(err) and "'head.fc.bias'" in err

    def test_empty_dataset_exits_2(self, tmp_path, trained):
        header = bytearray(trained["d.test.bin"][:32])
        header[16:20] = bytes(4)  # example count 0
        rc, err = run_on(tmp_path, trained, "eval", **{"d.test.bin": bytes(header)})
        assert rc == 2 and is_one_error_line(err)

    @pytest.mark.parametrize("name", ["d.test.bin", "p.bin", "p.bin.manifest"])
    @settings(max_examples=50, deadline=None)
    @given(draw=st.data())
    def test_truncated_or_overwritten_file(self, tmp_path_factory, trained, name, draw):
        """Eval exits 0 or 2, never with a traceback; a truncated file always
        exits 2 with one ``error:`` line."""
        blob = bytearray(trained[name])
        truncate = draw.draw(st.booleans(), label="truncate")
        if truncate:
            blob = blob[:draw.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            edits = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255))
            for pos, value in draw.draw(st.lists(edits, min_size=1, max_size=4),
                                        label="edits"):
                blob[pos] = value
        workdir = tmp_path_factory.mktemp("corrupt")
        rc, err = run_on(workdir, trained, "eval", **{name: bytes(blob)})
        assert rc in (0, 2)
        if rc == 2:
            assert is_one_error_line(err), err
        if truncate:
            assert rc == 2


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


    @pytest.mark.parametrize("argv", [["params", "--head.channel_keep", "nan"],
                                      ["toy", "gen", "--data.noise_sigma", "nan"],
                                      ["toy", "gen", "--train.learning_rate", "inf"]])
    def test_non_finite_float_option_exits_2(self, tmp_path, capsys, argv):
        if argv[0] == "toy":
            argv = argv[:2] + ["--out", str(tmp_path / "d.bin")] + argv[2:]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert is_one_error_line(err) and argv[-2].lstrip("-") in err
        assert not (tmp_path / "d.bin").exists()


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

    @pytest.mark.parametrize("flags", [["--head.channel_keep", "0.5"],
                                       ["--head.reg_per_class", "false"],
                                       ["--data.height", "5", "--data.width", "5"]])
    def test_sweep_row_of_the_configured_head_matches_the_report(self, capsys, flags):
        """The sweep counts every head option, not only K, L and the widths."""
        assert main(["params", "--sweep"] + flags) == 0
        lines = capsys.readouterr().out.splitlines()
        total = next(l.split()[1] for l in lines if l.strip().startswith("total"))
        ratio = next(l.split()[-1] for l in lines if "params vs baseline" in l)
        row = next(l.split() for l in lines if l.split()[:2] == ["4", "3"])
        assert "sweep of the configured head" in "\n".join(lines)
        assert row[2:] == [total, ratio]

    def test_preset_sweep_names_the_head_it_counts(self, capsys):
        assert main(["params", "--preset", "condensed-faster-rcnn", "--sweep"]) == 0
        assert "(K, L) sweep of the FPN head (20 classes)" in capsys.readouterr().out
