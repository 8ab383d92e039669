import argparse
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import depnn
from depnn import cli, corpus, synth
from depnn.classifier import Model, TrainConfig
from depnn.cli import main
from depnn.corpus import (INSTANCE_FORMAT_HEADER, Vocabulary, read_parsed_instances,
                          write_parsed_instances)

from conftest import (BAD_MODEL_META, MALFORMED_RECORDS, VALID_RECORD, rewrite_model_file,
                      rewrite_model_meta, tiny_model, truncate_model_file,
                      write_instance_file)

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

    @pytest.mark.parametrize("command, directory_flag", [
        ("stats", "--instances"), ("eval", "--model"), ("eval", "--instances"),
        ("predict", "--model"), ("predict", "--instances"),
    ])
    def test_directory_path_is_data_error(self, tmp_path, corpus_file, capsys,
                                          command, directory_flag):
        model_path = tmp_path / "m.model"
        tiny_model(read_parsed_instances(corpus_file)).save(model_path)
        paths = {"--model": str(model_path), "--instances": str(corpus_file)}
        if command == "stats":
            del paths["--model"]
        paths[directory_flag] = str(tmp_path)
        argv = [command] + [part for item in paths.items() for part in item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert "Traceback" not in err

    def test_failed_tolerance_is_numeric_failure(self, capsys):
        assert main(["gradcheck", "--n", "1", "--tolerance", "1e-14"]) == 3

    def test_non_finite_loss_is_one_numeric_failure_line(self, tmp_path, corpus_file, capsys):
        # at this rate the weights overflow to inf and then NaN; the loss
        # check reports it, and numpy warns of neither
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--instances", str(corpus_file), "--out",
                         str(tmp_path / "m.model"), "--dim", "10", "--dim-c", "6",
                         "--hidden", "16", "--window", "3", "--epochs", "2",
                         "--lr", "1e300"]) == 3
        assert capsys.readouterr().err == "numeric failure: instance 38: loss is nan\n"
        assert not (tmp_path / "m.model").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
    def test_malformed_instance_record_is_data_error(self, tmp_path, capsys, case):
        path = write_instance_file(tmp_path / "a.inst", VALID_RECORD,
                                   MALFORMED_RECORDS[case][0])
        assert main(["stats", "--instances", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 3: ")
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

    @pytest.mark.parametrize("flags, message", [
        (["--window", "4"], "window size must be odd and >= 3, got 4"),
        (["--dim-c", "0"], "all dimensions must be positive"),
        (["--epochs", "-1"], "epochs must be non-negative"),
        (["--seed", "-1"], "seed must be non-negative, got -1"),
        (["--lr", "-0.5"], "learning rate must be finite and non-negative, got -0.5"),
    ])
    def test_bad_config_value_is_data_error(self, tmp_path, corpus_file, capsys, flags,
                                            message):
        out = tmp_path / "m.model"
        assert main(["train", "--instances", str(corpus_file), "--out", str(out)]
                    + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_relation_with_tab_fails_training_as_data_error(self, tmp_path, capsys):
        # the relation would name the tensor comp/x<TAB>y, which a model file cannot hold
        path = write_instance_file(tmp_path / "a.inst", VALID_RECORD,
                                   VALID_RECORD.replace('"x"', '"x\\ty"'))
        out = tmp_path / "m.model"
        assert main(["train", "--instances", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {path}: line 3: token 2: relation 'x\\ty' "
                                           "must be ASCII without TAB or newline\n")
        assert not out.exists()

    def test_reserved_relation_fails_training_as_data_error(self, tmp_path, capsys):
        # the path sentinel would share its embedding row with a data relation
        path = write_instance_file(tmp_path / "a.inst", VALID_RECORD,
                                   VALID_RECORD.replace('"x"', '"<path-start>"'))
        out = tmp_path / "m.model"
        assert main(["train", "--instances", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 3: token 2: relation '<path-start>' "
                              "is reserved")
        assert not out.exists()

    def test_word_form_unk_trains_on_the_unk_row(self, tmp_path):
        # PTB-style corpora write <unk> for rare words: it reads the UNK row
        path = write_instance_file(tmp_path / "a.inst", VALID_RECORD,
                                   VALID_RECORD.replace('["b", null', '["<unk>", null'))
        out = tmp_path / "m.model"
        assert main(["train", "--instances", str(path), "--out", str(out), "--epochs", "1",
                     "--dim", "8", "--dim-c", "4", "--hidden", "6"]) == 0
        vocab = Model.load(out).vocab
        assert vocab.words.count("<unk>") == 1
        assert vocab.word_row("<unk>") == 0

    def test_directed_label_relation_fails_training_as_data_error(self, tmp_path, capsys):
        # a descent over x_inv would share its embedding row with a climb over x
        path = write_instance_file(tmp_path / "a.inst", VALID_RECORD,
                                   VALID_RECORD.replace('"x"', '"x_inv"'))
        out = tmp_path / "m.model"
        assert main(["train", "--instances", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {path}: line 3: token 2: relation 'x_inv' is reserved: no "
                       "relation ends in '_inv' or is <unk>, <path-start>, <path-end>, "
                       "<default>\n")
        assert "Traceback" not in err
        assert not out.exists()

    def test_program_error_is_not_a_data_error(self, corpus_file, monkeypatch):
        # a plain ValueError is a bug in the program: it must surface, not exit 2
        def broken(path):
            raise ValueError("a bug")

        monkeypatch.setattr(corpus, "read_parsed_instances", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["stats", "--instances", str(corpus_file)])

    @pytest.mark.parametrize("case", sorted(BAD_MODEL_META))
    def test_bad_model_metadata_is_data_error(self, tmp_path, corpus_file, capsys, case):
        model_path = tmp_path / "m.model"
        tiny_model(read_parsed_instances(corpus_file)).save(model_path)
        rewrite_model_meta(model_path, BAD_MODEL_META[case][0])
        assert main(["predict", "--model", str(model_path),
                     "--instances", str(corpus_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}: metadata field {BAD_MODEL_META[case][1]}")
        assert "Traceback" not in err


def put_bad_byte(path, line, column):
    """Replace the byte at a 1-based line and column of a file with 0xff,
    which is never UTF-8."""
    lines = path.read_bytes().split(b"\n")
    text = bytearray(lines[line - 1])
    text[column - 1] = 0xFF
    lines[line - 1] = bytes(text)
    path.write_bytes(b"\n".join(lines))


class TestBadUtf8:
    """Every text reader reports bytes that are not UTF-8 as a data error
    naming the file, the line and the column."""

    def run(self, capsys, argv, path, line, column):
        put_bad_byte(path, line, column)
        assert main([str(part) for part in argv]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {path}: line {line}: byte 0xff at column {column} "
                       "is not UTF-8\n")

    @pytest.mark.parametrize("command", ["stats", "eval"])
    def test_instance_file(self, tmp_path, corpus_file, capsys, command):
        argv = [command, "--instances", corpus_file]
        if command == "eval":
            model_path = tmp_path / "m.model"
            tiny_model(read_parsed_instances(corpus_file)).save(model_path)
            argv += ["--model", model_path]
        self.run(capsys, argv, corpus_file, 3, 23)

    @pytest.mark.parametrize("bad_file, line, column", [("raw", 5, 7), ("parses", 4, 3)])
    def test_convert_inputs(self, tmp_path, capsys, bad_file, line, column):
        files = {"raw": tmp_path / "raw.txt", "parses": tmp_path / "parses.txt"}
        files["raw"].write_text(RAW_SAMPLE, encoding="utf-8")
        files["parses"].write_text(PARSES, encoding="utf-8")
        self.run(capsys, ["convert", "--raw", files["raw"], "--parses", files["parses"],
                          "--out", tmp_path / "out.inst"], files[bad_file], line, column)

    def test_embeddings(self, tmp_path, corpus_file, capsys):
        embeddings = tmp_path / "vectors.txt"
        write_embeddings(embeddings, 50)
        self.run(capsys, ["train", "--instances", corpus_file, "--embeddings", embeddings,
                          "--out", tmp_path / "m.model"], embeddings, 2, 1)

    def test_config_file(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\n# a comment\n", encoding="utf-8")
        self.run(capsys, ["train", "--instances", corpus_file, "--config", cfg,
                          "--out", tmp_path / "m.model"], cfg, 2, 5)


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

    def test_arc_without_a_relation_names_the_parses_file_and_line(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        parses = tmp_path / "parses.txt"
        out = tmp_path / "out.inst"
        raw.write_text(RAW_SAMPLE, encoding="utf-8")
        parses.write_text(PARSES.replace("2\tthief\tthief\t3\tnsubj", "2\tthief\tthief\t3\t_"),
                          encoding="utf-8")
        assert main(["convert", "--raw", str(raw), "--parses", str(parses),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {parses}: line 3: token 2: an arc from head 3 "
                       "needs a relation\n")
        assert not out.exists()

    def test_form_underscore_is_the_form(self, tmp_path, capsys):
        # '_' marks an absent value in every column but the form
        raw = tmp_path / "raw.txt"
        parses = tmp_path / "parses.txt"
        out = tmp_path / "out.inst"
        raw.write_text('1\t"<e1>snake_case</e1> names <e2>_</e2>"\nOther\n\n'
                       '2\t"<e1>it</e1> names <e2>them</e2>"\nOther\n', encoding="utf-8")
        block = "1\tsnake_case\t_\t2\tnsubj\n2\tnames\tname\t0\troot\n3\t_\t_\t2\tdobj\n"
        parses.write_text(f"#id 1\n{block}\n#id 2\n{block.replace('snake_case', 'it')}",
                          encoding="utf-8")
        assert main(["convert", "--raw", str(raw), "--parses", str(parses),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "alignment failures: 1" in captured.out
        assert captured.err == "  2: token '_' not found in sentence\n"
        inst, = read_parsed_instances(out)
        assert [tok.form for tok in inst.graph.tokens] == ["snake_case", "names", "_"]
        assert inst.graph.lemmas[1] is None

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

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_every_config_flag_sets_the_field_it_is_named_for(self, command):
        # a flag's dest is its TrainConfig field: the one name _resolve_config reads
        subparsers, = (action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
        parser = subparsers.choices[command]
        options = [action for action in parser._actions if action.dest != "help"]
        assert len(options) == {"train": 18, "gradcheck": 16}[command]
        own = {"instances", "out", "val", "precision", "embeddings", "config",
               "n", "limit", "epsilon", "tolerance"}
        flags = [action for action in options if action.dest not in own]
        assert len(flags) == {"train": 12, "gradcheck": 10}[command]
        required = ["--instances", "a", "--out", "b"] if command == "train" else []
        keys = {f.name for f in fields(TrainConfig)}
        for action in flags:
            assert action.dest in keys, action.option_strings
            if action.nargs == 0:
                argv, value = [action.option_strings[0]], action.const
            else:
                value = action.type(3)       # a valid value of every numeric field
                argv = [action.option_strings[0], str(value)]
            args = parser.parse_args(required + argv)
            config = cli._resolve_config(args, None)
            assert getattr(config, action.dest) == value, action.option_strings
            assert config != cli._resolve_config(parser.parse_args(required), None)

    def test_every_config_field_is_accepted_in_the_config_file(self, tmp_path, corpus_file,
                                                              capsys):
        config = TrainConfig(dim=8, dim_c=4, hidden=6, window=3, learning_rate=0.01,
                             epochs=0, seed=3, use_subtrees=False, use_ner=True,
                             use_wordnet=True, lex_dim=5, conv_tanh=False, shuffle=False)
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in asdict(config).items()),
                       encoding="utf-8")
        out = tmp_path / "m.model"
        assert main(["train", "--instances", str(corpus_file), "--out", str(out),
                     "--config", str(cfg)]) == 0
        assert Model.load(out).config == config

    @pytest.mark.parametrize("key, raw, kind", [("hidden", "abc", "int"),
                                                ("learning_rate", "fast", "float")])
    def test_non_numeric_config_value_names_its_line(self, tmp_path, corpus_file,
                                                     capsys, key, raw, kind):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epochs=1\n{key} = {raw}\n", encoding="utf-8")
        assert main(["train", "--instances", str(corpus_file),
                     "--out", str(tmp_path / "m.model"), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 2: bad {kind} {raw!r} for {key}\n"

    @pytest.mark.parametrize("config_line, flags", [("learning_rate = nan", []),
                                                    ("", ["--lr", "inf"])])
    def test_non_finite_learning_rate_fails_before_training(self, tmp_path, corpus_file,
                                                            capsys, config_line, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epochs=1\n{config_line}\n", encoding="utf-8")
        out = tmp_path / "m.model"
        assert main(["train", "--instances", str(corpus_file), "--out", str(out),
                     "--config", str(cfg)] + flags) == 2
        captured = capsys.readouterr()
        where = f"{cfg}: line 2: " if config_line else ""
        assert captured.err.startswith(f"error: {where}learning rate must be finite")
        assert "epoch=" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("window = 4", "window size must be odd and >= 3, got 4"),
        ("learning_rate = -1", "learning rate must be finite and non-negative, got -1.0"),
    ], ids=["window", "learning_rate"])
    def test_bad_config_file_value_names_its_file_and_line(self, tmp_path, corpus_file,
                                                           capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment\n{line}\n", encoding="utf-8")
        out = tmp_path / "m.model"
        assert main(["train", "--instances", str(corpus_file), "--out", str(out),
                     "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 2: {message}\n"
        assert not out.exists()

    def test_empty_training_file_is_data_error(self, tmp_path, capsys):
        path = write_instance_file(tmp_path / "empty.inst")
        out = tmp_path / "m.model"
        assert main(["train", "--instances", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: training file holds no instances\n"
        assert not out.exists()

    def test_instance_without_a_path_fails_before_training(self, tmp_path, corpus_file,
                                                           capsys):
        # entity 1 of the last record is headed by a token kept out of the
        # tree (head -1), so no path joins the two heads
        record = ('{"id": 77, "tokens": [["a", null, 0, "root", null, null], '
                  '["b", null, -1, null, null, null], ["c", null, 1, "dobj", null, null]], '
                  '"e1": [2, 2], "e2": [3, 3], "label": "Other"}')
        with open(corpus_file, "a", encoding="utf-8") as fh:
            fh.write(record + "\n")
        line = len(corpus_file.read_text(encoding="utf-8").splitlines())
        out = tmp_path / "m.model"
        assert main(["train", "--instances", str(corpus_file), "--out", str(out),
                     "--epochs", "1", "--dim", "8", "--dim-c", "4", "--hidden", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {corpus_file}: line {line}: instance 77: "
                                "span [2, 2] covers no active token\n")
        assert "epoch=" not in captured.out
        assert not out.exists()

    def test_unlabeled_validation_file_fails_before_training(self, tmp_path, corpus_file,
                                                             capsys):
        val = write_instance_file(tmp_path / "val.inst", VALID_RECORD,
                                  VALID_RECORD.replace('"Other"', "null"))
        out = tmp_path / "m.model"
        assert main(["train", "--instances", str(corpus_file), "--val", str(val),
                     "--out", str(out), "--epochs", "1", "--dim", "8", "--dim-c", "4",
                     "--hidden", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {val}: validation file contains unlabeled instances\n"
        assert "epoch=" not in captured.out
        assert not out.exists()

    def test_validation_file_is_scored_every_epoch(self, tmp_path, corpus_file, capsys):
        assert main(["train", "--instances", str(corpus_file), "--val", str(corpus_file),
                     "--out", str(tmp_path / "m.model"), "--epochs", "2", "--dim", "8",
                     "--dim-c", "4", "--hidden", "6"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("epoch=")]
        assert len(lines) == 2
        for epoch, line in enumerate(lines, start=1):
            assert re.fullmatch(rf"epoch={epoch} mean_loss=\d+\.\d{{6}} "
                                r"val_macro_f1=\d\.\d{4}", line), line

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

    def test_closed_standard_output_stops_quietly(self, tmp_path, corpus_file):
        # what `depnn predict ... | head` does: read a line, close the pipe
        model_path = tmp_path / "m.model"
        instances = read_parsed_instances(corpus_file)
        tiny_model(instances).save(model_path)
        many = tmp_path / "many.inst"
        write_parsed_instances(many, instances * 40)   # far more than a pipe holds
        env = dict(os.environ, PYTHONPATH=str(Path(depnn.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "depnn.cli", "predict",
                                 "--model", str(model_path), "--instances", str(many)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert first.startswith(b"1\t")
        assert err == b""

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

    def test_eval_on_an_empty_file_is_data_error(self, trained, tmp_path, capsys):
        path = write_instance_file(tmp_path / "empty.inst")
        assert main(["eval", "--model", str(trained), "--instances", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: evaluation file holds no instances\n"
        assert captured.out == ""

    def test_predict_on_an_empty_file_is_data_error(self, trained, tmp_path, capsys):
        path = write_instance_file(tmp_path / "empty.inst")
        assert main(["predict", "--model", str(trained), "--instances", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: prediction file holds no instances\n"
        assert captured.out == ""

    @pytest.mark.parametrize("top_n", ["0", "-2"])
    def test_neighbors_top_n_below_one_is_usage_error(self, corpus_file, capsys, top_n):
        assert main(["neighbors", "--model", "m.model", "--instances", str(corpus_file),
                     "--query-id", "1", "--top-n", top_n]) == 1
        assert f"argument --top-n: must be at least 1, got {top_n}" in capsys.readouterr().err

    def test_neighbors_unknown_query_is_data_error(self, trained, corpus_file, capsys):
        assert main(["neighbors", "--model", str(trained), "--instances", str(corpus_file),
                     "--query-id", "9999"]) == 2
        assert capsys.readouterr().err == "error: no instance with id 9999\n"


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

    # and a file of unlabeled instances, which holds no label to count either
    @pytest.mark.parametrize("text, message", [
        (INSTANCE_FORMAT_HEADER + "\n", "statistics file holds no instances"),
        ("", "statistics file holds no instances"),
        (INSTANCE_FORMAT_HEADER + "\n" + VALID_RECORD.replace('"Other"', "null") + "\n",
         "stats need labeled data")], ids=["instance-file", "raw-file", "unlabeled-instances"])
    def test_stats_on_an_empty_file_is_data_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "empty.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["stats", "--instances", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""

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

    def test_passes_at_the_published_window(self, capsys):
        # two entries sit within epsilon of a max-pool tie: their central
        # differences straddle the kink and are skipped
        assert main(["gradcheck", "--n", "2", "--window", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[-2] == ("skipped\t2 entries whose perturbed forwards pooled "
                             "different windows")
        assert float(lines[-1].split("\t")[1]) < 1e-5

    def test_a_wrong_gradient_fails_at_the_published_window(self, capsys, monkeypatch):
        accumulate = Model.accumulate_gradients

        def corrupted(model, compiled, gradient):
            accumulate(model, compiled, gradient)
            gradient["conv_b"] *= 1.01

        monkeypatch.setattr(Model, "accumulate_gradients", corrupted)
        assert main(["gradcheck", "--n", "2", "--window", "5"]) == 3
        worst = capsys.readouterr().out.strip().split("\n")[-1]
        assert float(worst.split("\t")[1]) > 1e-3

    @pytest.mark.parametrize("flag", ["--embeddings x.vec", "--lr 0.1", "--epochs 2"])
    def test_training_flags_are_usage_errors(self, capsys, flag):
        # gradcheck trains nothing: it reads no vectors, rate or epoch count
        assert main(["gradcheck"] + flag.split()) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["learning_rate = 0.02", "epochs = 2", "shuffle = off"])
    def test_training_config_keys_are_refused_at_their_line(self, tmp_path, capsys, line):
        # a config file's keys for them are refused too, as data errors
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dim = 8\n{line}\n", encoding="utf-8")
        assert main(["gradcheck", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        key = line.split()[0]
        assert captured.err == (f"error: {cfg}: line 2: config key {key!r} "
                                "is not read by gradcheck\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["gradcheck", "synth --out x.inst"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_n_below_one_is_usage_error(self, capsys, command, n):
        assert main(command.split() + ["--n", n]) == 1
        captured = capsys.readouterr()
        assert f"argument --n: must be at least 1, got {n}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_usage_error(self, capsys, limit):
        bundled = Path(__file__).resolve().parent.parent / "data" / "synthetic.inst"
        assert main(["gradcheck", "--instances", str(bundled), "--limit", limit]) == 1
        assert f"argument --limit: must be at least 1, got {limit}" in capsys.readouterr().err

    def test_seed_zero_draws_from_seed_zero(self, capsys, monkeypatch):
        seeds, draw = [], synth.make_gradcheck_instances
        monkeypatch.setattr(synth, "make_gradcheck_instances",
                            lambda n, seed: seeds.append(seed) or draw(n, seed=seed))
        assert main(["gradcheck", "--n", "2"]) == 0
        default = capsys.readouterr().out
        assert main(["gradcheck", "--n", "2", "--seed", "0"]) == 0
        assert capsys.readouterr().out != default
        assert seeds == [synth.GRADCHECK_SEED, 0]


class TestSynthCommand:
    def test_bundled_corpus_matches_generator(self, tmp_path, capsys):
        out = tmp_path / "syn.inst"
        assert main(["synth", "--out", str(out)]) == 0
        import pathlib
        bundled = pathlib.Path(__file__).resolve().parent.parent / "data" / "synthetic.inst"
        assert out.read_bytes() == bundled.read_bytes()
