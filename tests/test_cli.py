import numpy as np
import pytest

from depnn import synth
from depnn.classifier import Model, TrainConfig
from depnn.cli import main
from depnn.corpus import (INSTANCE_FORMAT_HEADER, Vocabulary,
                          read_parsed_instances, write_parsed_instances)

from conftest import (MALFORMED_RECORDS, VALID_RECORD, rewrite_model_file,
                      tiny_model, truncate_model_file, write_instance_file)

RAW_SAMPLE = '''1\t"The <e1>thief</e1> broke the lock with a <e2>screwdriver</e2>."
Instrument-Agency(e2,e1)
Comment: tool use

2\t"A <e1>letter</e1> arrived from the <e2>island</e2>."
Entity-Origin(e1,e2)
Comment:
'''

PARSES = """#id 1
1\tThe\tthe\t2\tdet
2\tthief\tthief\t3\tnsubj
3\tbroke\tbreak\t0\troot
4\tthe\tthe\t5\tdet
5\tlock\tlock\t3\tdobj
6\twith\twith\t-1\t_
7\ta\ta\t8\tdet
8\tscrewdriver\tscrewdriver\t3\tprep_with
9\t.\t.\t3\tpunct

#id 2
1\tMISMATCH\tx\t0\troot
"""


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "train.inst"
    write_parsed_instances(path, synth.make_separable_corpus(50))
    return path


def write_embeddings(path, dim, words=("alpha", "beta", "gamma")):
    rng = np.random.default_rng(dim)
    with open(path, "w", encoding="utf-8") as fh:
        for word in words:
            values = " ".join(f"{v:.4f}" for v in rng.uniform(-0.1, 0.1, dim))
            fh.write(f"{word} {values}\n")


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["eval", "--model", "x"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_file_is_data_error(self, capsys):
        assert main(["stats", "--instances", "/nonexistent/path"]) == 2

    def test_failed_tolerance_is_numeric_failure(self, capsys):
        assert main(["gradcheck", "--n", "1", "--tolerance", "1e-14"]) == 3

    @pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
    def test_malformed_instance_record_is_data_error(self, tmp_path, capsys, case):
        path = write_instance_file(tmp_path / "a.inst", VALID_RECORD,
                                   MALFORMED_RECORDS[case][0])
        assert main(["stats", "--instances", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ")
        assert "Traceback" not in err

    def test_truncated_model_file_is_data_error(self, tmp_path, corpus_file, capsys):
        model_path = tmp_path / "m.model"
        tiny_model(read_parsed_instances(corpus_file)).save(model_path)
        truncate_model_file(model_path, 1)
        assert main(["predict", "--model", str(model_path),
                     "--instances", str(corpus_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}: tensor 'word_emb' needs payload bytes")
        assert "Traceback" not in err

    @pytest.mark.parametrize("drop, narrow", [("conv_b", None), (None, "out_w")])
    def test_model_file_not_fitting_config_is_data_error(self, tmp_path, corpus_file,
                                                         capsys, drop, narrow):
        model_path = tmp_path / "m.model"
        tiny_model(read_parsed_instances(corpus_file)).save(model_path)
        rewrite_model_file(model_path, drop=drop, narrow=narrow)
        assert main(["predict", "--model", str(model_path),
                     "--instances", str(corpus_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}: tensor '{drop or narrow}'")
        assert "Traceback" not in err


class TestConvert:
    def test_empty_inputs(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        parses = tmp_path / "parses.txt"
        out = tmp_path / "out.inst"
        raw.write_text("", encoding="utf-8")
        parses.write_text("", encoding="utf-8")
        assert main(["convert", "--raw", str(raw), "--parses", str(parses),
                     "--out", str(out)]) == 0
        assert "wrote 0 instances" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == INSTANCE_FORMAT_HEADER + "\n"

    def test_misaligned_instance_reported(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        parses = tmp_path / "parses.txt"
        out = tmp_path / "out.inst"
        raw.write_text(RAW_SAMPLE, encoding="utf-8")
        parses.write_text(PARSES, encoding="utf-8")
        assert main(["convert", "--raw", str(raw), "--parses", str(parses),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "wrote 1 instances" in captured.out
        assert "alignment failures: 1" in captured.out
        assert len(read_parsed_instances(out)) == 1

    def test_bad_raw_format_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        parses = tmp_path / "parses.txt"
        raw.write_text("garbage line\n", encoding="utf-8")
        parses.write_text("", encoding="utf-8")
        assert main(["convert", "--raw", str(raw), "--parses", str(parses),
                     "--out", str(tmp_path / 'o')]) == 2


class TestTrain:
    def test_default_config_echo_50d(self, tmp_path, corpus_file, capsys):
        emb = tmp_path / "vec50.txt"
        write_embeddings(emb, 50)
        assert main(["train", "--instances", str(corpus_file),
                     "--out", str(tmp_path / "m.model"),
                     "--embeddings", str(emb), "--epochs", "0"]) == 0
        out = capsys.readouterr().out
        assert "k=5 lambda=0.05 dim=50 dim_c=25 l=200" in out

    def test_default_config_echo_200d(self, tmp_path, corpus_file, capsys):
        emb = tmp_path / "vec200.txt"
        write_embeddings(emb, 200)
        assert main(["train", "--instances", str(corpus_file),
                     "--out", str(tmp_path / "m.model"),
                     "--embeddings", str(emb), "--epochs", "0"]) == 0
        out = capsys.readouterr().out
        assert "dim=200 dim_c=100 l=400" in out

    def test_flags_beat_config_file(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=3\nwindow=3\nlearning_rate=0.01\n", encoding="utf-8")
        assert main(["train", "--instances", str(corpus_file),
                     "--out", str(tmp_path / "m.model"),
                     "--config", str(cfg), "--epochs", "1",
                     "--dim", "8", "--dim-c", "4", "--hidden", "6"]) == 0
        out = capsys.readouterr().out
        assert "k=3 lambda=0.01" in out
        assert "epochs=1" in out

    def test_zero_epochs_model_equals_initialization(self, tmp_path, corpus_file, capsys):
        model_path = tmp_path / "m.model"
        assert main(["train", "--instances", str(corpus_file),
                     "--out", str(model_path), "--epochs", "0",
                     "--dim", "8", "--dim-c", "4", "--hidden", "6",
                     "--window", "3", "--seed", "5"]) == 0
        loaded = Model.load(model_path)
        instances = read_parsed_instances(corpus_file)
        expected = Model.build(
            TrainConfig(dim=8, dim_c=4, hidden=6, window=3, epochs=0, seed=5),
            Vocabulary.build(instances))
        assert loaded.store.names() == expected.store.names()
        for name in expected.store.names():
            assert np.array_equal(loaded.store.value(name),
                                  expected.store.value(name))

    def test_two_runs_identical_model_bytes(self, tmp_path, corpus_file, capsys):
        args = ["--instances", str(corpus_file), "--epochs", "2",
                "--dim", "8", "--dim-c", "4", "--hidden", "6",
                "--window", "3", "--seed", "5"]
        assert main(["train", "--out", str(tmp_path / "a.model")] + args) == 0
        first = capsys.readouterr().out
        assert main(["train", "--out", str(tmp_path / "b.model")] + args) == 0
        second = capsys.readouterr().out
        assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()
        assert first.replace("a.model", "b.model") == second


class TestEvalPredict:
    @pytest.fixture
    def trained(self, tmp_path, corpus_file, capsys):
        model_path = tmp_path / "m.model"
        code = main(["train", "--instances", str(corpus_file),
                     "--out", str(model_path), "--epochs", "25",
                     "--dim", "10", "--dim-c", "6", "--hidden", "16",
                     "--window", "3", "--seed", "7"])
        capsys.readouterr()
        assert code == 0
        return model_path

    def test_eval_perfect_fit_gives_macro_one(self, trained, corpus_file, capsys):
        assert main(["eval", "--model", str(trained),
                     "--instances", str(corpus_file)]) == 0
        out = capsys.readouterr().out
        assert "macro_f1\t1.000000000" in out
        assert "accuracy\t1.000000000" in out

    def test_predict_line_format(self, trained, corpus_file, capsys):
        assert main(["predict", "--model", str(trained),
                     "--instances", str(corpus_file)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 50
        ident, label, probs = lines[0].split("\t")
        assert ident == "1"
        values = [float(p) for p in probs.split(" ")]
        assert len(values) == 19
        assert abs(sum(values) - 1.0) < 1e-5

    def test_neighbors_output(self, trained, corpus_file, capsys):
        assert main(["neighbors", "--model", str(trained),
                     "--instances", str(corpus_file),
                     "--query-id", "1", "--top-n", "2"]) == 0
        first = capsys.readouterr().out
        assert first.startswith("query 1 ")
        assert len(first.strip().split("\n")) == 3
        assert main(["neighbors", "--model", str(trained),
                     "--instances", str(corpus_file),
                     "--query-id", "1", "--top-n", "2"]) == 0
        assert capsys.readouterr().out == first


class TestStats:
    def test_stats_on_parsed_file(self, corpus_file, capsys):
        assert main(["stats", "--instances", str(corpus_file)]) == 0
        out = capsys.readouterr().out
        assert "Cause-Effect" in out
        assert "Total                    50 (100.00%)" in out

    def test_stats_on_raw_file(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text(RAW_SAMPLE, encoding="utf-8")
        assert main(["stats", "--instances", str(raw)]) == 0
        out = capsys.readouterr().out
        assert "Instrument-Agency" in out
        assert "(50.00%)" in out

    def test_stats_byte_stable(self, corpus_file, capsys):
        main(["stats", "--instances", str(corpus_file)])
        first = capsys.readouterr().out
        main(["stats", "--instances", str(corpus_file)])
        assert capsys.readouterr().out == first


class TestGradcheckCommand:
    def test_passes_on_synthetic_instances(self, capsys):
        assert main(["gradcheck", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("tensor\tmax_rel_err")
        worst = float(out.strip().split("\n")[-1].split("\t")[1])
        assert worst < 1e-5

    def test_passes_on_bundled_corpus_instances(self, capsys):
        import pathlib
        bundled = pathlib.Path(__file__).resolve().parent.parent / "data" / "synthetic.inst"
        assert main(["gradcheck", "--instances", str(bundled), "--limit", "2"]) == 0
        worst = float(capsys.readouterr().out.strip().split("\n")[-1].split("\t")[1])
        assert worst < 1e-5


class TestSynthCommand:
    def test_bundled_corpus_matches_generator(self, tmp_path, capsys):
        out = tmp_path / "syn.inst"
        assert main(["synth", "--out", str(out)]) == 0
        import pathlib
        bundled = pathlib.Path(__file__).resolve().parent.parent / "data" / "synthetic.inst"
        assert out.read_bytes() == bundled.read_bytes()
