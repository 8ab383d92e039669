"""Seeded byte-mutation fuzzing of the five text readers.

A damaged instance file, parse-block file, raw task file, embedding file or
--config file either reads or fails with one of the types its reader
documents, each a data error of the command line (exit 2); and the command
that reads the file reports a sample of the failures as `error: ...`
without a traceback. Parse blocks that read convert with the sound raw
records, reporting what does not align or is not one tree as a failure of
that instance. The mutations replace, insert and delete bytes, copy
a run of bytes elsewhere, rename a word, write '_' (an absent value) over a
TAB-separated field, or over an embedding file's space-separated field '_',
'nan', 'inf' or '-inf', and cut the file, 1 to 3 of them per mutant.
Every instance of a file that reads has the graph that its token rows
define (conftest.row_columns).
"""

import json
import random
import re

import numpy as np
import pytest

from depnn import cli, synth
from depnn.cli import main
from depnn.corpus import (FormatError, convert, load_embeddings, read_parse_blocks,
                          read_parsed_instances, read_semeval_raw, write_parsed_instances)

from conftest import assert_graph_of_rows

SEED = 31337
MUTANTS = 300
CLI_SAMPLE = 15     # failing mutants run through the command line, per reader
# bytes a mutation favours: the separators and digits the formats are made of
SPECIAL = b'\t\n\r "#-=0179[]{},:_<>/e\\\xff\xc3'
# names a relation may not take, which a renamed word takes: the suffix of
# a directed label, appended to the word, and the vocabulary's own entries
NAMES = (b"_inv", b"<unk>", b"<path-start>", b"<path-end>", b"<default>")
# per reader, the fields a mutation writes over and what it writes: an
# absent value, and in an embedding file also a number that is not finite
FIELDS = (rb"[^\t\n]+", (b"_",))
EMBEDDING_FIELDS = (rb"[^ \n]+", (b"_", b"nan", b"inf", b"-inf"))

RAW = ('1\t"The <e1>thief</e1> broke the lock with a <e2>screwdriver</e2>."\n'
       "Instrument-Agency(e2,e1)\n"
       "Comment: tool use\n"
       "\n"
       '2\t"A <e1>letter</e1> arrived from the <e2>island</e2>."\n'
       "Entity-Origin(e1,e2)\n"
       "Comment:\n")

PARSES = ("#id 1\n"
          "1\tThe\tthe\t2\tdet\n"
          "2\tthief\tthief\t3\tnsubj\tPER\tperson.n.01\n"
          "3\tbroke\tbreak\t0\troot\n"
          "4\tthe\tthe\t5\tdet\n"
          "5\tlock\tlock\t3\tdobj\n"
          "6\twith\twith\t-1\t_\n"
          "7\ta\ta\t8\tdet\n"
          "8\tscrewdriver\tscrewdriver\t3\tprep_with\t_\tdevice.n.01\n"
          "\n"
          "#id 2\n"
          "1\tletter\tletter\t2\tnsubj\n"
          "2\tarrived\tarrive\t0\troot\n"
          "3\tisland\tisland\t2\tprep_from\n")

EMBEDDINGS = ("4 3\n"
              "the 0.1 -0.2 0.3\n"
              "thief 1e-2 0.5 -0.25\n"
              "lock -0.1 0.0 7\n"
              "Island 0.3 0.3 -0.3\n")

CONFIG = ("# a run\n"
          "epochs = 0\n"
          "window=3\n"
          "learning_rate = 0.01  # lower than the default\n"
          "use_ner = on\n"
          "dim_c = 4\n")


def mutate(data: bytes, rng: random.Random, fields=FIELDS) -> bytes:
    field_pattern, blanks = fields
    damaged = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        byte = rng.choice(SPECIAL) if rng.random() < 0.5 else rng.randrange(256)
        at = rng.randrange(len(damaged) + 1)
        op = rng.randrange(7)
        if op == 0 and at < len(damaged):
            damaged[at] = byte
        elif op == 1:
            damaged.insert(at, byte)
        elif op == 2:
            del damaged[at:at + rng.randint(1, 4)]
        elif op == 3:
            start = rng.randrange(len(damaged) + 1)
            damaged[at:at] = damaged[start:start + rng.randint(1, 12)]
        elif op == 4:
            words = list(re.finditer(rb"[a-z_]+", damaged))
            if words:
                word, name = rng.choice(words), rng.choice(NAMES)
                damaged[word.start():word.end()] = word[0] + name if name == NAMES[0] else name
        elif op == 5:
            found = list(re.finditer(field_pattern, damaged))
            if found:
                field = rng.choice(found)
                # one blank draws nothing, so the other readers' mutants stay as they were
                blank = rng.choice(blanks) if len(blanks) > 1 else blanks[0]
                damaged[field.start():field.end()] = blank
        else:
            del damaged[at:]
    return bytes(damaged)


def instance_file_bytes(tmp_path):
    path = tmp_path / "seed.inst"
    write_parsed_instances(path, synth.make_separable_corpus(4))
    return path.read_bytes()


# reader name -> (reader, the types it documents, the seed file's bytes,
# the command line that reads the damaged file, given it and a sound
# instance file, raw file and parse-block file)
READERS = {
    "instances": (read_parsed_instances, (FormatError,), instance_file_bytes,
                  lambda bad, inst, raw, parses: ["train", "--instances", bad,
                                                  "--epochs", "0", "--out", f"{bad}.model"]),
    "parse-blocks": (read_parse_blocks, (FormatError,), lambda _: PARSES.encode(),
                     lambda bad, inst, raw, parses: ["convert", "--raw", raw,
                                                     "--parses", bad,
                                                     "--out", f"{bad}.out"]),
    "raw": (read_semeval_raw, (FormatError,), lambda _: RAW.encode(),
            lambda bad, inst, raw, parses: ["convert", "--raw", bad, "--parses", parses,
                                            "--out", f"{bad}.out"]),
    "embeddings": (load_embeddings, (FormatError,),
                   lambda _: EMBEDDINGS.encode(),
                   lambda bad, inst, raw, parses: ["train", "--instances", inst,
                                                   "--embeddings", bad, "--epochs", "0",
                                                   "--out", f"{bad}.model"]),
    "config": (cli._read_config_file, (FormatError,), lambda _: CONFIG.encode(),
               lambda bad, inst, raw, parses: ["train", "--instances", inst,
                                               "--config", bad, "--epochs", "0",
                                               "--out", f"{bad}.model"]),
}


def _write(path, data: bytes):
    path.write_bytes(data)
    return path


@pytest.fixture(scope="module", params=sorted(READERS))
def outcomes(request, tmp_path_factory):
    """(reader name, the damaged file's path, [(damaged bytes, None or the
    exception the reader raised)] per mutant)."""
    name = request.param
    reader, _, seed_bytes, _ = READERS[name]
    tmp_path = tmp_path_factory.mktemp(name)
    data = seed_bytes(tmp_path)
    assert reader(_write(tmp_path / "sound", data)) is not None
    rng = random.Random(f"{SEED}/{name}")
    path = tmp_path / "damaged"
    results = []
    fields = EMBEDDING_FIELDS if name == "embeddings" else FIELDS
    for _ in range(MUTANTS):
        damaged = mutate(data, rng, fields)
        _write(path, damaged)
        try:
            reader(path)
        except Exception as exc:        # the type is what the tests check
            results.append((damaged, exc))
        else:
            results.append((damaged, None))
    return name, path, results


def test_documented_types_are_data_errors():
    for _, documented, _, _ in READERS.values():
        assert all(issubclass(kind, cli._DATA_ERRORS) for kind in documented)


def test_damaged_files_fail_only_with_documented_types(outcomes):
    name, path, results = outcomes
    documented = READERS[name][1]
    wrong = [f"{damaged[:200]!r}: {type(exc).__name__}: {exc}"
             for damaged, exc in results
             if exc is not None and not isinstance(exc, documented)]
    assert not wrong, "\n".join(wrong[:10])
    # a format error names the file, once
    unnamed = [f"{damaged[:200]!r}: {exc}" for damaged, exc in results
               if isinstance(exc, FormatError)
               and not (str(exc).startswith(f"{path}: ") and str(exc).count(str(path)) == 1)]
    assert not unnamed, "\n".join(unnamed[:10])
    # the mutations must reach the reader's checks, not only its happy path
    assert sum(exc is not None for _, exc in results) >= MUTANTS // 5


def test_command_reports_damaged_file_as_data_error(outcomes, tmp_path, capsys):
    name, _, results = outcomes
    command = READERS[name][3]
    sound = {"inst": tmp_path / "sound.inst", "raw": tmp_path / "raw.txt",
             "parses": tmp_path / "parses.txt"}
    write_parsed_instances(sound["inst"], synth.make_separable_corpus(4))
    sound["raw"].write_text(RAW, encoding="utf-8")
    sound["parses"].write_text(PARSES, encoding="utf-8")
    failing = [damaged for damaged, exc in results if exc is not None]
    bad = tmp_path / "damaged"
    for damaged in failing[::max(1, len(failing) // CLI_SAMPLE)]:
        _write(bad, damaged)
        argv = [str(part) for part in command(bad, **sound)]
        assert main(argv) == 2, damaged
        err = capsys.readouterr().err
        assert err.startswith("error: "), (damaged, err)
        assert "Traceback" not in err, damaged


@pytest.mark.parametrize("outcomes", ["parse-blocks"], indirect=True)
def test_parse_blocks_that_read_convert_without_raising(outcomes, tmp_path):
    _, _, results = outcomes
    records = read_semeval_raw(_write(tmp_path / "raw.txt", RAW.encode()))
    read = 0
    for damaged, exc in results:
        if exc is None:
            blocks = read_parse_blocks(_write(tmp_path / "parses.txt", damaged))
            instances, failures = convert(records, blocks)
            assert len(instances) + len(failures) == len(records), damaged
            read += 1
    assert read >= MUTANTS // 5


@pytest.mark.parametrize("outcomes", ["instances"], indirect=True)
def test_instance_files_that_read_have_the_oracle_graphs(outcomes, tmp_path):
    _, _, results = outcomes
    read = 0
    for damaged, exc in results:
        if exc is None:
            path = _write(tmp_path / "read.inst", damaged)
            # the lines as the reader sees them: universal newlines, blank lines skipped
            lines = path.read_text(encoding="utf-8").split("\n")[1:]
            records = [json.loads(line) for line in lines if line.strip()]
            instances = read_parsed_instances(path)
            assert len(instances) == len(records), damaged
            for instance, record in zip(instances, records):
                assert_graph_of_rows(instance.graph, record["tokens"])
            read += 1
    assert read >= MUTANTS // 20     # most mutants break the JSON


@pytest.mark.parametrize("outcomes", ["embeddings"], indirect=True)
def test_embedding_files_that_read_are_finite(outcomes, tmp_path):
    _, path, results = outcomes
    refused = [exc for _, exc in results if "non-finite embedding value" in str(exc)]
    assert refused and all(str(exc).startswith(f"{path}: line ") for exc in refused)
    for damaged, exc in results:
        if exc is None:
            table = load_embeddings(_write(tmp_path / "read.vec", damaged))
            assert all(np.isfinite(vector).all() for vector in table.vectors.values()), damaged
