"""Command-line workflow: corpus -> models -> enhancement -> evaluation."""

import csv
import shutil
from dataclasses import fields, replace

import numpy as np
import pytest

from nnmm.cli import UsageError, main, parse_config_file
from nnmm.corpus import load_corpus, mix_at_snr, step_white_noise, white_noise
from nnmm.dsp import Waveform, read_wav, stft, write_wav
from nnmm.enhancer import (
    BATCH_ROWS,
    REFERENCE_MODE,
    EnhancerConfig,
    enhance_mixmax_original,
    enhance_utterance,
)
from nnmm.features import feature_matrix
from nnmm.metrics import log_spectral_distance, segmental_snr
from nnmm.nn import classify_accuracy
from nnmm.serialize import load_bundle

# The fixed-noise reference mode, REFERENCE_MODE, as enhance and evaluate flags.
REFERENCE_FLAGS = ["--alpha", "0", "--estimator", "mixmax-mmse", "--posterior", "generative"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, capsys=None):
    """A small corpus plus trained bundles, built once through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main(["synth-corpus", "--out", str(corpus), "--classes", "3",
                 "--utterances", "6", "--seed", "11"]) == 0
    bundle = root / "model.nnmm"
    assert main(["train-mog", "--corpus", str(corpus), "--out", str(bundle)]) == 0
    full = root / "full.nnmm"
    assert main(["train-nn", "--corpus", str(corpus), "--bundle", str(bundle),
                 "--out", str(full), "--hidden", "16", "--epochs", "6",
                 "--seed", "0"]) == 0
    return root, corpus, bundle, full


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------


class TestWorkflow:
    def test_corpus_files_exist(self, workspace):
        _, corpus, _, _ = workspace
        wavs = sorted(corpus.glob("*.wav"))
        assert len(wavs) == 6
        assert (corpus / "corpus.meta").exists()

    def test_mog_bundle_loads(self, workspace):
        _, _, bundle, _ = workspace
        b = load_bundle(bundle)
        assert b.net is None
        assert b.mog.n_components == 3

    def test_nn_bundle_has_classifier(self, workspace):
        _, _, _, full = workspace
        b = load_bundle(full)
        assert b.net is not None
        assert b.net.n_hidden == 16

    def test_enhance_writes_wav(self, workspace, capsys):
        root, corpus, _, full = workspace
        noisy = sorted(corpus.glob("*.wav"))[0]
        out = root / "enhanced.wav"
        assert main(["enhance", "--bundle", str(full), "--in", str(noisy),
                     "--out", str(out)]) == 0
        w = read_wav(out)
        assert len(w) == len(read_wav(noisy))
        assert "mean SPP" in capsys.readouterr().out

    def test_enhance_fixed_noise_mode(self, workspace):
        root, corpus, _, full = workspace
        noisy = sorted(corpus.glob("*.wav"))[0]
        out = root / "enhanced_fixed.wav"
        assert main(["enhance", "--bundle", str(full), "--in", str(noisy),
                     "--out", str(out), *REFERENCE_FLAGS]) == 0
        assert out.exists()

    def test_reference_mode_prints_fallbacks(self, workspace, tmp_path, capsys):
        """The reference mode runs through enhance_utterance like every other
        mode: on an input with digital silence it prints the fallbacks the
        report counts, and writes the samples enhance_mixmax_original gives."""
        _, corpus, bundle, _ = workspace
        wav = read_wav(sorted(corpus.glob("*.wav"))[0])
        samples = wav.samples.copy()
        samples[12000:14000] = 0.0
        gap = tmp_path / "gap.wav"
        write_wav(gap, Waveform(samples=samples, sample_rate=wav.sample_rate))
        out = tmp_path / "out.wav"
        assert main(["enhance", "--bundle", str(bundle), "--in", str(gap),
                     "--out", str(out), *REFERENCE_FLAGS]) == 0

        mog, cfg = load_bundle(bundle).mog, EnhancerConfig()
        _, report = enhance_utterance(read_wav(gap), mog, None, replace(cfg, **REFERENCE_MODE))
        total = report.diagnostics.total
        assert total > 0
        assert f"numerical fallbacks {total}\n" in capsys.readouterr().out
        expected = tmp_path / "expected.wav"
        write_wav(expected, enhance_mixmax_original(read_wav(gap), mog, cfg))
        assert out.read_bytes() == expected.read_bytes()

    def test_classify_reports_accuracy(self, workspace, capsys):
        _, corpus, _, full = workspace
        wav = sorted(corpus.glob("*.wav"))[0]
        labels = wav.with_suffix(".labels")
        assert main(["classify", "--bundle", str(full), "--in", str(wav),
                     "--labels", str(labels)]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_evaluate_csv_columns(self, workspace):
        root, corpus, _, full = workspace
        csv_path = root / "results.csv"
        assert main(["evaluate", "--bundle", str(full), "--corpus", str(corpus),
                     "--out", str(csv_path), "--snr", "5", "--noise", "white",
                     "--seed", "1"]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert set(rows[0]) == {"utterance", "noise", "snr_db", "segsnr_in",
                                "segsnr_out", "lsd", "mean_spp", "accuracy"}
        gains = [float(r["segsnr_out"]) - float(r["segsnr_in"]) for r in rows]
        assert np.mean(gains) > 0.0

    def test_evaluate_accuracy_is_classifier_accuracy_on_noisy(self, workspace):
        """In nn mode each row's accuracy is the classifier's on that row's
        noisy mixture, rebuilt here with the same noise seeds."""
        root, corpus, _, full = workspace
        csv_path = root / "accuracy.csv"
        assert main(["evaluate", "--bundle", str(full), "--corpus", str(corpus),
                     "--out", str(csv_path), "--snr", "0,10", "--noise", "white,step",
                     "--seed", "2"]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        net = load_bundle(full).net
        utterances, _ = load_corpus(corpus)
        run = 0
        expected = []
        for utt in utterances:
            clean = utt.waveform
            for maker in (white_noise, step_white_noise):
                for snr in (0.0, 10.0):
                    noise = maker(len(clean), clean.sample_rate, seed=2 + run)
                    run += 1
                    feats = feature_matrix(stft(mix_at_snr(clean, noise, snr), 512),
                                           clean.sample_rate)
                    expected.append(round(classify_accuracy(net, feats, utt.frame_labels), 4))
        assert [float(r["accuracy"]) for r in rows] == expected

    def test_evaluate_batches_equal_one_row_runs(self, workspace, tmp_path):
        """A grid of more rows than one recursion takes writes the rows that
        enhance_utterance gives one row at a time."""
        _, corpus, _, full = workspace
        one = tmp_path / "corpus"
        shutil.copytree(corpus, one)
        meta = (one / "corpus.meta").read_text()
        (one / "corpus.meta").write_text(meta.replace("n_utterances=6", "n_utterances=1"))
        csv_path = tmp_path / "grid.csv"
        assert main(["evaluate", "--bundle", str(full), "--corpus", str(one),
                     "--out", str(csv_path), "--snr=-5,0,5,10,15", "--noise", "white,step",
                     "--seed", "3"]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))

        bundle = load_bundle(full)
        utt = load_corpus(one)[0][0]
        clean = utt.waveform
        expected = []
        for kind, maker in (("white", white_noise), ("step", step_white_noise)):
            for snr in (-5.0, 0.0, 5.0, 10.0, 15.0):
                noise = maker(len(clean), clean.sample_rate, seed=3 + len(expected))
                noisy = mix_at_snr(clean, noise, snr)
                out, report = enhance_utterance(noisy, bundle.mog, bundle.net, EnhancerConfig())
                accuracy = np.mean(report.posteriors.argmax(axis=1) == utt.frame_labels)
                expected.append({key: str(value) for key, value in {
                    "utterance": "utt_0000", "noise": kind, "snr_db": snr,
                    "segsnr_in": round(segmental_snr(clean, noisy), 4),
                    "segsnr_out": round(segmental_snr(clean, out), 4),
                    "lsd": round(log_spectral_distance(clean, out, 512), 4),
                    "mean_spp": round(report.mean_spp, 4),
                    "accuracy": round(float(accuracy), 4),
                }.items()})
        assert len(rows) == 10 > BATCH_ROWS
        assert rows == expected

    def test_evaluate_negative_snr_as_separate_value(self, workspace, tmp_path):
        """``--snr -5,0``, as the README writes it, parses as ``--snr=-5,0``."""
        _, corpus, _, full = workspace
        one = tmp_path / "corpus"
        shutil.copytree(corpus, one)
        meta = (one / "corpus.meta").read_text()
        (one / "corpus.meta").write_text(meta.replace("n_utterances=6", "n_utterances=1"))
        argv = ["evaluate", "--bundle", str(full), "--corpus", str(one), "--noise", "white"]
        apart, joined = tmp_path / "apart.csv", tmp_path / "joined.csv"
        assert main([*argv, "--out", str(apart), "--snr", "-5,0"]) == 0
        assert main([*argv, "--out", str(joined), "--snr=-5,0"]) == 0
        with open(apart, newline="") as fh:
            assert [r["snr_db"] for r in csv.DictReader(fh)] == ["-5.0", "0.0"]
        assert apart.read_bytes() == joined.read_bytes()

    def test_train_mog_em_runs(self, workspace):
        root, corpus, _, _ = workspace
        out = root / "em.nnmm"
        assert main(["train-mog-em", "--corpus", str(corpus), "--out", str(out),
                     "--components", "3", "--iterations", "5"]) == 0
        assert load_bundle(out).mog.n_components == 3


# ---------------------------------------------------------------------------
# Config files and flag precedence
# ---------------------------------------------------------------------------


class TestConfig:
    def test_parse_config_file(self, tmp_path):
        """Values stay as strings; typing happens when the config is built."""
        p = tmp_path / "enh.cfg"
        p.write_text("# comment\nbeta = 3.0\nalpha=0.2\n\nestimator = mixmax-mmse\n")
        cfg = parse_config_file(p)
        assert cfg == {"beta": "3.0", "alpha": "0.2", "estimator": "mixmax-mmse"}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "enh.cfg"
        p.write_text("gamma = 1\n")
        with pytest.raises(UsageError, match="gamma"):
            parse_config_file(p)

    def test_keys_are_enhancer_fields_but_frame_length(self, tmp_path):
        """Every EnhancerConfig field is a key, except the frame length,
        which the model bundle fixes."""
        names = [f.name for f in fields(EnhancerConfig) if f.name != "frame_length"]
        p = tmp_path / "enh.cfg"
        p.write_text("".join(f"{name} = 1\n" for name in names))
        assert list(parse_config_file(p)) == names
        p.write_text("frame_length = 512\n")
        with pytest.raises(UsageError, match="frame_length"):
            parse_config_file(p)

    def test_flag_overrides_config_file(self, workspace, tmp_path, capsys):
        """--beta on the command line beats the config file's value."""
        root, corpus, _, full = workspace
        noisy = sorted(corpus.glob("*.wav"))[0]
        cfg = tmp_path / "enh.cfg"
        cfg.write_text("beta = 0.0\n")

        out_a = tmp_path / "a.wav"
        assert main(["enhance", "--bundle", str(full), "--in", str(noisy),
                     "--out", str(out_a), "--config", str(cfg)]) == 0
        out_b = tmp_path / "b.wav"
        assert main(["enhance", "--bundle", str(full), "--in", str(noisy),
                     "--out", str(out_b), "--config", str(cfg), "--beta", "2.5"]) == 0

        a = read_wav(out_a)
        b = read_wav(out_b)
        # beta=0 passes the signal through; beta=2.5 attenuates noise
        np.testing.assert_allclose(a.samples, read_wav(noisy).samples, atol=2e-4)
        assert np.mean(b.samples**2) < np.mean(a.samples**2)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["train-mog", "--corpus", "somewhere"]) == 1
        capsys.readouterr()

    def test_missing_input_file_is_data_error(self, workspace, capsys):
        root, _, _, full = workspace
        code = main(["enhance", "--bundle", str(full),
                     "--in", str(root / "nope.wav"), "--out", str(root / "x.wav")])
        assert code == 2
        capsys.readouterr()

    def test_corrupt_bundle_is_data_error(self, workspace, tmp_path, capsys):
        root, corpus, _, _ = workspace
        bad = tmp_path / "bad.nnmm"
        bad.write_bytes(b"JUNKJUNKJUNK")
        noisy = sorted(corpus.glob("*.wav"))[0]
        code = main(["enhance", "--bundle", str(bad), "--in", str(noisy),
                     "--out", str(tmp_path / "x.wav")])
        assert code == 2
        capsys.readouterr()

    @staticmethod
    def _mixture_only_run(command, workspace, out):
        _, corpus, bundle, _ = workspace
        if command == "enhance":
            return ["enhance", "--bundle", str(bundle), "--in",
                    str(sorted(corpus.glob("*.wav"))[0]), "--out", str(out)]
        return ["evaluate", "--bundle", str(bundle), "--corpus", str(corpus),
                "--out", str(out), "--snr", "5"]

    def test_nn_posterior_without_net_is_data_error(self, workspace, tmp_path, capsys):
        """A mixture-only bundle cannot drive the classifier posterior:
        enhance and evaluate both refuse it with one message and write
        nothing."""
        for command in ("enhance", "evaluate"):
            out = tmp_path / command
            assert main(self._mixture_only_run(command, workspace, out)) == 2
            assert capsys.readouterr().err == ("error: bundle has no classifier; run train-nn "
                                               "or use --posterior generative\n")
            assert not out.exists()

    @pytest.mark.parametrize("command,flags", [
        ("enhance", ["--posterior", "generative"]),
        ("evaluate", ["--posterior", "generative"]),
        # The reference mode's posterior is the generative one, so it needs
        # no classifier.
        ("enhance", REFERENCE_FLAGS),
    ], ids=["enhance", "evaluate", "enhance-fixed-noise"])
    def test_mixture_only_bundle_runs_generative(self, workspace, tmp_path, capsys,
                                                 command, flags):
        out = tmp_path / "out"
        argv = self._mixture_only_run(command, workspace, out) + flags
        assert main(argv) == 0
        assert out.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("flags,name", [
        (["--batch-size", "0"], "batch_size"),
        (["--batch-size", "-4"], "batch_size"),
        (["--epochs", "-1"], "epochs"),
        (["--hidden", "0"], "n_hidden"),
        (["--rate", "-0.5"], "learning_rate"),
    ], ids=["zero-batch", "negative-batch", "negative-epochs", "no-hidden", "negative-rate"])
    def test_train_nn_bad_setting_is_data_error(self, workspace, tmp_path, capsys,
                                                flags, name):
        """A setting that would train nothing, or descend, is named; no
        bundle is written."""
        _, corpus, bundle, _ = workspace
        out = tmp_path / "net.nnmm"
        assert main(["train-nn", "--corpus", str(corpus), "--bundle", str(bundle),
                     "--out", str(out), "--hidden", "4", "--epochs", "1", *flags]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--components", "0"], "n_components must be at least 1, got 0"),
        (["--components", "-2"], "n_components must be at least 1, got -2"),
        (["--components", "3", "--iterations", "-1"], "iterations must be nonnegative, got -1"),
    ], ids=["no-components", "negative-components", "negative-iterations"])
    def test_train_mog_em_bad_setting_is_data_error(self, workspace, tmp_path, capsys,
                                                    flags, message):
        """A setting that would fit nothing is named; no bundle is written."""
        _, corpus, _, _ = workspace
        out = tmp_path / "em.nnmm"
        assert main(["train-mog-em", "--corpus", str(corpus), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_frame_length_conflict_is_usage_error(self, workspace, tmp_path, capsys):
        _, corpus, _, full = workspace
        noisy = sorted(corpus.glob("*.wav"))[0]
        code = main(["enhance", "--bundle", str(full), "--in", str(noisy),
                     "--out", str(tmp_path / "x.wav"), "--frame-length", "256"])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [["--frame-length", "511"], ["--frame-length", "6"],
                                       ["--frame-length", "0"], ["--classes", "1"],
                                       ["--utterances", "0"]],
                             ids=["odd", "short", "zero", "one-class", "no-utterances"])
    def test_synth_corpus_bad_setting_is_usage_error(self, tmp_path, capsys, flags):
        """Settings no later command could use are refused before any file
        is written."""
        out = tmp_path / "corpus"
        assert main(["synth-corpus", "--out", str(out), "--utterances", "1", *flags]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("meta", ["n_utterances=6\nn_classes=3\nframe_length=512\n",
                                      "n_utterances=0\nn_classes=3\nframe_length=512\n"
                                      "sample_rate=16000\n",
                                      "n_utterances=6\nn_classes=3\nframe_length=512\n"
                                      "sample_rate=16k\n"],
                             ids=["no-sample-rate", "no-utterances", "not-an-integer"])
    @pytest.mark.parametrize("command", ["evaluate", "train-mog"])
    def test_malformed_corpus_meta_is_data_error(self, workspace, tmp_path, capsys,
                                                 meta, command):
        """A meta file without sample_rate, with no utterances or with a
        value that is not an integer is named in a data error."""
        _, _, _, full = workspace
        bad = tmp_path / "corpus"
        bad.mkdir()
        (bad / "corpus.meta").write_text(meta)
        argv = {"evaluate": ["evaluate", "--bundle", str(full), "--snr", "5"],
                "train-mog": ["train-mog"]}[command]
        assert main([*argv, "--corpus", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "corpus.meta" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [7, -1], ids=["too-large", "negative"])
    def test_label_outside_classes_is_data_error(self, workspace, tmp_path, capsys, label):
        """A frame label outside [0, n_classes) is named with its file, not
        left to fail later in training."""
        _, corpus, _, _ = workspace
        bad = tmp_path / "corpus"
        shutil.copytree(corpus, bad)
        labels = (bad / "utt_0002.labels").read_text().split("\n")
        labels[3] = str(label)
        (bad / "utt_0002.labels").write_text("\n".join(labels))
        assert main(["train-mog", "--corpus", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "utt_0002.labels" in err and f"label {label} outside [0, 3)" in err

    def test_fixed_noise_flag_is_gone(self, workspace, tmp_path, capsys):
        """The reference mode is spelled with its three settings; the old
        flag is an unrecognized argument."""
        _, corpus, _, full = workspace
        out = tmp_path / "x.wav"
        assert main(["enhance", "--bundle", str(full), "--in",
                     str(sorted(corpus.glob("*.wav"))[0]), "--out", str(out),
                     "--fixed-noise"]) == 1
        assert "unrecognized arguments: --fixed-noise" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["5,abc", "nan", "inf"])
    def test_evaluate_bad_snr_is_usage_error(self, workspace, tmp_path, capsys, snr):
        """Each SNR must parse as a finite number of dB; no CSV is written."""
        _, corpus, _, full = workspace
        out = tmp_path / "r.csv"
        code = main(["evaluate", "--bundle", str(full), "--corpus", str(corpus),
                     "--out", str(out), "--noise", "white", "--snr", snr])
        assert code == 1
        assert "--snr" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bundle_state", ["valid", "missing"])
    @pytest.mark.parametrize("flag,value", [("--alpha", "2"), ("--beta", "-1"),
                                            ("--noise-prefix", "0"), ("--beta", "nan"),
                                            ("--noise-prefix", "inf"),
                                            ("--noise-prefix", "nan")])
    @pytest.mark.parametrize("command", ["enhance", "evaluate"])
    def test_bad_enhancer_setting_is_checked_first(self, workspace, tmp_path, capsys,
                                                   command, flag, value, bundle_state):
        """A bad enhancer setting is a usage error whether or not the bundle
        can be read: the settings are checked before any file is."""
        _, corpus, _, full = workspace
        if bundle_state == "missing":
            full = tmp_path / "nowhere.nnmm"
        out = tmp_path / "out"
        source = {"enhance": ["--in", str(sorted(corpus.glob("*.wav"))[0])],
                  "evaluate": ["--corpus", str(corpus), "--snr", "0"]}[command]
        assert main([command, "--bundle", str(full), *source, "--out", str(out),
                     flag, value]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("corpus_state", ["valid", "missing"])
    @pytest.mark.parametrize("flag,value", [("--snr", "nan"), ("--noise", "pink")])
    def test_evaluate_bad_grid_is_checked_first(self, workspace, tmp_path, capsys,
                                                flag, value, corpus_state):
        """A bad SNR or noise type is a usage error whether or not the corpus
        can be read: the grid is checked before any file is."""
        _, corpus, _, full = workspace
        if corpus_state == "missing":
            corpus = tmp_path / "nowhere"
        out = tmp_path / "r.csv"
        code = main(["evaluate", "--bundle", str(full), "--corpus", str(corpus),
                     "--out", str(out), "--noise", "white", "--snr", "0", flag, value])
        assert code == 1
        assert value in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_frame_length_flag_is_usage_error(self, workspace, tmp_path, capsys):
        """The bundle fixes the frame length; evaluate has no flag for it."""
        _, corpus, _, full = workspace
        code = main(["evaluate", "--bundle", str(full), "--corpus", str(corpus),
                     "--out", str(tmp_path / "r.csv"), "--frame-length", "256"])
        assert code == 1
        assert "--frame-length" in capsys.readouterr().err
