from dataclasses import replace

import numpy as np
import pytest

from depnn import synth
from depnn.adp import Arc, DependencyGraph, EntityMention, InvalidSpan, Token, shortest_path
from depnn.classifier import Model
from depnn.corpus import (DEFAULT_RELATION, INSTANCE_FORMAT_HEADER, LABELS, OTHER_LABEL,
                          PATH_END, PATH_START, REQUIRED_ENTRIES, RESERVED_RELATIONS, UNK,
                          DimensionMismatch, FormatError, Instance, UnknownLabel, Vocabulary,
                          VocabularyError, _instance_to_record, convert, dataset_stats,
                          entity_mention, label_index, label_type, load_embeddings,
                          read_parse_blocks, read_parsed_instances, read_semeval_raw,
                          write_parsed_instances)
from depnn.cli import _read_config_file, _resolve_config, build_parser
from depnn.evaluation import describe_path

from conftest import (MALFORMED_RECORDS, VALID_RECORD, graph_of, scheduled_subtrees,
                      tiny_model, write_instance_file)

RAW_SAMPLE = '''1\t"The <e1>thief</e1> broke the lock with a <e2>screwdriver</e2>."
Instrument-Agency(e2,e1)
Comment: tool use

2\t"A <e1>letter</e1> arrived from the <e2>island</e2>."
Entity-Origin(e1,e2)
Comment:

3\t"Strange <e1>noise</e1> near the <e2>harbor</e2>."
'''


class TestLabels:
    def test_nineteen_labels_bijective(self):
        assert len(LABELS) == 19
        assert len(set(LABELS)) == 19
        for i, label in enumerate(LABELS):
            assert label_index(label) == i

    def test_other_has_no_direction(self):
        assert sum(1 for l in LABELS if l == OTHER_LABEL) == 1
        assert label_type("Other") == "Other"

    def test_label_type_folding(self):
        assert label_type("Cause-Effect(e2,e1)") == "Cause-Effect"
        with pytest.raises(UnknownLabel):
            label_type("Cause-Effect(e3,e1)")
        with pytest.raises(UnknownLabel):
            label_index("Made-Up(e1,e2)")


class TestSemevalRaw:
    def test_parse_sample(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text(RAW_SAMPLE, encoding="utf-8")
        records = read_semeval_raw(path)
        assert [r.id for r in records] == [1, 2, 3]
        first = records[0]
        assert first.text == "The thief broke the lock with a screwdriver."
        s, e = first.e1_span
        assert first.text[s:e] == "thief"
        s, e = first.e2_span
        assert first.text[s:e] == "screwdriver"
        assert first.label == "Instrument-Agency(e2,e1)"
        assert first.comment == "tool use"
        assert records[1].comment == ""
        assert records[2].label is None and records[2].comment is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("", encoding="utf-8")
        assert read_semeval_raw(path) == []

    def test_bad_sentence_line_reports_line_number(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text('1\t"ok <e1>a</e1> <e2>b</e2>"\nOther\nComment:\n\nnot a sentence\n',
                        encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_semeval_raw(path)
        assert err.value.line == 5

    def test_missing_marker_rejected(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text('7\t"only <e1>one</e1> marker"\n', encoding="utf-8")
        with pytest.raises(FormatError):
            read_semeval_raw(path)

    def test_id_too_long_to_convert_rejected(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("9" * 5000 + '\t"<e1>a</e1> <e2>b</e2>"\n', encoding="utf-8")
        with pytest.raises(FormatError, match="instance id is too long") as err:
            read_semeval_raw(path)
        assert err.value.line == 1

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text('7\t"<e1>a</e1> <e2>b</e2>"\nNot-A-Relation(e1,e2)\n',
                        encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_semeval_raw(path)
        assert err.value.line == 2


class TestParsedInstances:
    def test_round_trip_identity(self, tmp_path):
        instances = synth.make_separable_corpus(8)
        path = tmp_path / "a.inst"
        write_parsed_instances(path, instances)
        assert ([_instance_to_record(inst) for inst in read_parsed_instances(path)]
                == [_instance_to_record(inst) for inst in instances])

    def test_header_required(self, tmp_path):
        path = tmp_path / "a.inst"
        path.write_text("{}\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_parsed_instances(path)
        assert err.value.line == 1

    def test_cycle_rejected_with_instance_id(self, tmp_path):
        path = tmp_path / "a.inst"
        record = ('{"id": 42, "tokens": [["a", null, 0, "root", null, null], '
                  '["b", null, 3, "x", null, null], ["c", null, 2, "y", null, null]], '
                  '"e1": [1, 1], "e2": [2, 2], "label": "Other"}')
        path.write_text(INSTANCE_FORMAT_HEADER + "\n" + record + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2: instance 42: cycle through token") as err:
            read_parsed_instances(path)
        assert err.value.path == path

    def test_bad_span_rejected_with_instance_id(self, tmp_path):
        path = tmp_path / "a.inst"
        record = ('{"id": 9, "tokens": [["a", null, 0, "root", null, null], '
                  '["b", null, 1, "x", null, null]], '
                  '"e1": [1, 1], "e2": [2, 5], "label": "Other"}')
        path.write_text(INSTANCE_FORMAT_HEADER + "\n" + record + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2: instance 9: span") as err:
            read_parsed_instances(path)
        assert err.value.path == path

    @pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
    def test_malformed_record_is_format_error_with_line(self, tmp_path, case):
        record, phrase = MALFORMED_RECORDS[case]
        path = write_instance_file(tmp_path / "a.inst", VALID_RECORD, "", record)
        with pytest.raises(FormatError, match=phrase) as err:
            read_parsed_instances(path)
        assert err.value.line == 4

    def test_figure_sentence_record_through_pipeline(self, tmp_path):
        # hand-written 7-token record with a collapsed (inactive) preposition
        record = ('{"id": 1, "tokens": ['
                  '["The", null, 2, "det", null, null], '
                  '["thief", null, 3, "nsubj", "PER", null], '
                  '["broke", null, 0, "root", null, null], '
                  '["the", null, 5, "det", null, null], '
                  '["lock", null, 3, "dobj", null, null], '
                  '["with", null, -1, null, null, null], '
                  '["screwdriver", null, 3, "prep_with", "OBJ", null]], '
                  '"e1": [2, 2], "e2": [7, 7], '
                  '"label": "Instrument-Agency(e2,e1)"}')
        path = tmp_path / "fig.inst"
        path.write_text(INSTANCE_FORMAT_HEADER + "\n" + record + "\n", encoding="utf-8")
        inst, = read_parsed_instances(path)
        assert describe_path(inst) == "thief nsubj_inv broke prep_with screwdriver"
        tokens, _ = shortest_path(inst.graph, inst.e1.head_index, inst.e2.head_index)
        subtrees = scheduled_subtrees(inst.graph, tokens)
        assert subtrees[3] == {4, 5}   # "the lock" hangs off broke
        assert subtrees[2] == {1}


class TestInstance:
    def test_head_outside_the_tree_is_refused(self):
        graph = graph_of(3, [(0, 1, "root"), (1, 3, "dobj")], inactive={2})
        # entity 1 is headed by a token kept out of the tree, so no path
        # would join the two heads
        with pytest.raises(InvalidSpan, match="head 2 is not in the tree"):
            Instance(9, graph, EntityMention(2, 2, 2), entity_mention(graph, 3, 3), "Other")

    @pytest.mark.parametrize("e1, e2, overlap", [
        ((1, 2), (3, 4), False), ((3, 4), (1, 2), False), ((1, 3), (3, 4), True),
        ((3, 4), (1, 3), True), ((1, 4), (2, 2), True), ((2, 2), (2, 2), True)])
    def test_spans_that_share_a_token_are_refused(self, e1, e2, overlap):
        graph = graph_of(4, [(0, 1, "root"), (1, 2, "x"), (2, 3, "y"), (3, 4, "z")])
        mentions = [entity_mention(graph, *span) for span in (e1, e2)]
        if overlap:
            with pytest.raises(InvalidSpan, match="entity spans overlap"):
                Instance(1, graph, *mentions)
        else:
            Instance(1, graph, *mentions)


class TestConverter:
    def raw_records(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text(RAW_SAMPLE, encoding="utf-8")
        return read_semeval_raw(path)

    def parse_text(self):
        return """#id 1
1\tThe\tthe\t2\tdet
2\tthief\tthief\t3\tnsubj\tPER
3\tbroke\tbreak\t0\troot
4\tthe\tthe\t5\tdet
5\tlock\tlock\t3\tdobj
6\twith\twith\t-1\t_
7\ta\ta\t8\tdet
8\tscrewdriver\tscrewdriver\t3\tprep_with\tOBJ
9\t.\t.\t3\tpunct

#id 2
1\tA\ta\t2\tdet
2\tletter\tletter\t3\tnsubj
3\tarrived\tarrive\t0\troot
4\tfrom\tfrom\t-1\t_
5\tthe\tthe\t6\tdet
6\tisland\tisland\t3\tprep_from
7\t.\t.\t3\tpunct

#id 3
1\tWrong\twrong\t2\tamod
2\ttokens\ttoken\t0\troot
"""

    def test_alignment_produces_instances(self, tmp_path):
        raws = self.raw_records(tmp_path)
        parse_path = tmp_path / "parses.txt"
        parse_path.write_text(self.parse_text(), encoding="utf-8")
        blocks = read_parse_blocks(parse_path)
        instances, failures = convert(raws, blocks)
        assert [i.id for i in instances] == [1, 2]
        assert [f[0] for f in failures] == [3]
        inst = instances[0]
        assert (inst.e1.start, inst.e1.end) == (2, 2)
        assert (inst.e2.start, inst.e2.end) == (8, 8)
        assert inst.gold == "Instrument-Agency(e2,e1)"
        assert inst.graph.ner_tags[2] == "PER"

    def test_missing_parse_block_reported(self, tmp_path):
        raws = self.raw_records(tmp_path)
        instances, failures = convert(raws, {})
        assert instances == []
        assert len(failures) == 3

    def test_parse_block_format_errors(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1\tOrphan\to\t0\troot\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_parse_blocks(path)
        path.write_text("#id 1\n2\tOut\to\t0\troot\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_parse_blocks(path)

    def test_non_ascii_relation_names_its_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("#id 1\n1\tWort\tw\t0\troot\n2\tdas\td\t1\tdét\n",
                        encoding="utf-8")
        with pytest.raises(FormatError, match="relation 'dét' must be ASCII") as err:
            read_parse_blocks(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("relation", ("det_inv", "_inv") + RESERVED_RELATIONS)
    def test_reserved_relation_names_its_line(self, tmp_path, relation):
        path = tmp_path / "p.txt"
        path.write_text(f"#id 1\n1\tWort\tw\t0\troot\n2\tdas\td\t1\t{relation}\n",
                        encoding="utf-8")
        phrase = f"token 2: relation '{relation}' is reserved"
        with pytest.raises(FormatError, match=phrase) as err:
            read_parse_blocks(path)
        assert err.value.line == 3


class TestEmbeddings:
    def write(self, tmp_path, text):
        path = tmp_path / "vec.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_table(self, tmp_path):
        path = self.write(tmp_path, "dog 1 2 3 4\ncat 0 0 0 1\nfish -1 0 1 0\n")
        table = load_embeddings(path)
        assert table.dim == 4
        assert len(table.vectors) == 3
        assert np.array_equal(table.vectors["dog"], [1, 2, 3, 4])

    def test_header_line_tolerated(self, tmp_path):
        path = self.write(tmp_path, "3 4\ndog 1 2 3 4\ncat 0 0 0 1\nfish -1 0 1 0\n")
        table = load_embeddings(path)
        assert len(table.vectors) == 3 and table.dim == 4

    def test_unk_is_mean_of_loaded_vectors(self, tmp_path):
        path = self.write(tmp_path, "a 1 2\nb 3 4\nc 5 0\n")
        table = load_embeddings(path)
        expected = (np.array([1, 2.0]) + np.array([3, 4.0]) + np.array([5, 0.0])) / 3
        assert np.allclose(table.unk, expected, atol=0)
        assert np.array_equal(table.lookup("unseen-word"), table.unk)

    def test_lowercase_fallback(self, tmp_path):
        path = self.write(tmp_path, "dog 1 2\nCat 3 4\n")
        table = load_embeddings(path)
        assert np.array_equal(table.lookup("Dog"), [1, 2])
        assert np.array_equal(table.lookup("Cat"), [3, 4])

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = self.write(tmp_path, "dog 1 2 3\ncat 1 2\n")
        with pytest.raises(FormatError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}: line 2: expected 3 values for 'cat', got 2"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity", "1e999"])
    def test_non_finite_value_names_file_line_and_token(self, tmp_path, bad):
        path = self.write(tmp_path, f"dog 1 2 3\ncat 1 {bad} 3\n")
        with pytest.raises(FormatError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}: line 2: non-finite embedding value for 'cat'"

    def test_expected_dim_enforced(self, tmp_path):
        # the dimension a command line expects is held against the table's
        path = self.write(tmp_path, "dog 1 2 3\n")
        args = build_parser().parse_args(["train", "--instances", "a", "--out", "b",
                                          "--dim", "5"])
        with pytest.raises(DimensionMismatch, match="--dim 5 conflicts with 3-d embeddings"):
            _resolve_config(args, load_embeddings(path).dim)

    def test_empty_without_dim_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(FormatError):
            load_embeddings(path)

    @pytest.mark.parametrize("tail, line, byte, column", [
        (b"caf\xc3\xa9\xff 1 2\n", 2, 0xFF, 6),    # columns count bytes
        (b"x 1 2\n\xc3", 3, 0xC3, 1),               # cut off at the end of the file
    ])
    def test_bad_utf8_names_file_line_and_column(self, tmp_path, tail, line, byte, column):
        path = tmp_path / "vec.txt"
        path.write_bytes(b"dog 1 2\r\n" + tail)
        with pytest.raises(FormatError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}: line {line}: byte 0x{byte:02x} at column {column} is not UTF-8"
        assert err.value.line == line


class TestVocabulary:
    def test_build_and_fallbacks(self):
        instances = synth.make_separable_corpus(10)
        vocab = Vocabulary.build(instances)
        assert UNK in vocab.words
        assert PATH_START in vocab.relations and PATH_END in vocab.relations
        assert any(r.endswith("_inv") for r in vocab.relations)
        assert vocab.word_row("never-seen-anywhere") == vocab.word_row(UNK)
        assert vocab.relation_row("fake_rel") == vocab.relation_row(UNK)
        default = vocab.comp_id(DEFAULT_RELATION)
        assert vocab.comp_relations[default] == DEFAULT_RELATION
        assert vocab.comp_id("fake_rel") == default
        assert vocab.comp_relations[vocab.comp_id("advmod")] == "advmod"
        assert vocab.ner_row(None) == vocab.ner_row("unknown-tag")

    def test_round_trip_dict(self, tmp_path):
        # a model file holds each field as a JSON list, read back as a tuple
        model = tiny_model(synth.make_separable_corpus(5))
        model.save(tmp_path / "m.depnn")
        assert Model.load(tmp_path / "m.depnn").vocab == model.vocab

    @pytest.mark.parametrize("field", sorted(REQUIRED_ENTRIES))
    def test_entry_listed_twice_is_refused(self, field):
        # a fallback entry listed again after the data entries: the index
        # would map it, and every unseen key, to the later row
        vocab = Vocabulary.build(synth.make_separable_corpus(5))
        entry = REQUIRED_ENTRIES[field][0]
        with pytest.raises(VocabularyError) as caught:
            replace(vocab, **{field: getattr(vocab, field) + (entry,)})
        assert caught.value.field == field
        assert str(caught.value) == f"vocabulary {field} lists {entry!r} twice"

    def test_reserved_relation_in_the_data_is_refused(self):
        # the path sentinel would share its embedding row with a data relation
        graph = graph_of(2, [(0, 1, "root"), (1, 2, PATH_START)])
        instance = Instance(1, graph, entity_mention(graph, 1, 1),
                            entity_mention(graph, 2, 2), OTHER_LABEL)
        with pytest.raises(VocabularyError, match="relations lists '<path-start>'"):
            Vocabulary.build([instance])


    def test_data_entries_named_unk_read_the_unk_rows(self):
        tokens = [Token(1, "saw"), Token(2, UNK, ner_tag=UNK, wn_hypernym=UNK), Token(3, "it")]
        graph = DependencyGraph(tokens, [Arc(0, 1, "root"), Arc(1, 2, "nsubj"),
                                         Arc(1, 3, "dobj")])
        instance = Instance(1, graph, entity_mention(graph, 2, 2),
                            entity_mention(graph, 3, 3), OTHER_LABEL)
        vocab = Vocabulary.build([instance])
        assert vocab.words == (UNK, "it", "saw")
        assert vocab.ner_tags == vocab.wn_tags == (UNK,)
        assert vocab.word_row(UNK) == vocab.word_row("never-seen") == 0


# per text reader: a file whose last line is malformed, and its message
MALFORMED_LAST_LINES = {
    "raw": (read_semeval_raw, "not a sentence\n", "expected '<id>\\t\"<sentence>\"'"),
    "raw-marker-twice": (read_semeval_raw, '1\t"<e1>a</e1> <e1>b</e1> <e2>c</e2>"\n',
                         "duplicate <e1> marker"),
    "instances": (read_parsed_instances, "{}\n",
                  f"expected header {INSTANCE_FORMAT_HEADER!r}, got '{{}}'"),
    "parse-blocks": (read_parse_blocks, "1\tOrphan\to\t0\troot\n",
                     "token row outside any '#id' block"),
    "parse-blocks-id-twice": (read_parse_blocks, "#id 4\n1\tWort\tw\t0\troot\n\n#id 4\n",
                              "duplicate #id 4"),
    "embeddings": (load_embeddings, "dog 1 x\n", "non-numeric embedding value for 'dog'"),
    "config": (_read_config_file, "nonsense\n", "expected key=value"),
}


class TestReaderErrorsNameTheFile:
    @pytest.mark.parametrize("reader", sorted(MALFORMED_LAST_LINES))
    def test_format_error_names_file_and_line(self, tmp_path, reader):
        read, text, message = MALFORMED_LAST_LINES[reader]
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        line = text.count("\n")
        with pytest.raises(FormatError) as err:
            read(path)
        assert str(err.value) == f"{path}: line {line}: {message}"
        assert (err.value.path, err.value.line) == (path, line)

    def test_empty_embedding_file_names_the_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}: embedding file holds no vectors"


class TestDatasetStats:
    def table_counts(self):
        return {
            "Other": 1410, "Cause-Effect": 1003, "Component-Whole": 941,
            "Entity-Destination": 845, "Product-Producer": 717,
            "Entity-Origin": 716, "Member-Collection": 690,
            "Message-Topic": 634, "Content-Container": 540,
            "Instrument-Agency": 504,
        }

    def synthesize_labels(self, counts):
        labels = []
        for rel_type, count in counts.items():
            if rel_type == "Other":
                labels.extend(["Other"] * count)
            else:
                labels.extend([f"{rel_type}(e1,e2)"] * (count // 2))
                labels.extend([f"{rel_type}(e2,e1)"] * (count - count // 2))
        return labels

    def test_training_table_reproduced(self):
        stats = dataset_stats(self.synthesize_labels(self.table_counts()))
        assert stats.total == 8000
        assert stats.by_type["Other"] == 1410
        assert str(stats.percent("Other")) == "17.63"
        assert str(stats.percent("Cause-Effect")) == "12.54"
        assert str(stats.percent("Member-Collection")) == "8.63"
        assert str(stats.percent("Entity-Origin")) == "8.95"
        assert str(stats.percent("Product-Producer")) == "8.96"

    def test_test_table_reproduced(self):
        counts = {
            "Other": 454, "Cause-Effect": 328, "Component-Whole": 312,
            "Entity-Destination": 292, "Entity-Origin": 258,
            "Member-Collection": 233, "Product-Producer": 231,
            "Message-Topic": 261, "Content-Container": 192,
            "Instrument-Agency": 156,
        }
        stats = dataset_stats(self.synthesize_labels(counts))
        assert stats.total == 2717
        assert str(stats.percent("Other")) == "16.71"
        assert str(stats.percent("Instrument-Agency")) == "5.74"

    def test_empty_input_rejected(self):
        # every command refuses an empty file first (cli._nonempty)
        with pytest.raises(ValueError, match="needs labeled data"):
            dataset_stats([])

    def test_direction_folding_sums(self):
        labels = ["Cause-Effect(e1,e2)"] * 3 + ["Cause-Effect(e2,e1)"] * 4
        assert dataset_stats(labels).by_type["Cause-Effect"] == 7

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError):
            dataset_stats([None])
