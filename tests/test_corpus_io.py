import numpy as np
import pytest

from depnn import synth
from depnn.adp import TreeViolation, attach_subtrees, render_path, shortest_path
from depnn.corpus import (DEFAULT_RELATION, INSTANCE_FORMAT_HEADER, LABELS,
                          OTHER_LABEL, PATH_END, PATH_START, RELATION_TYPES,
                          UNK, AlignmentError, DimensionMismatch, FormatError,
                          SpanError, UnknownLabel, Vocabulary, convert,
                          dataset_stats, label_index, label_type,
                          load_embeddings, read_parse_blocks,
                          read_parsed_instances, read_semeval_raw,
                          write_parsed_instances)

from conftest import MALFORMED_RECORDS, VALID_RECORD, write_instance_file

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
        assert read_parsed_instances(path) == instances

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
        with pytest.raises(TreeViolation, match="instance 42"):
            read_parsed_instances(path)

    def test_bad_span_rejected_with_instance_id(self, tmp_path):
        path = tmp_path / "a.inst"
        record = ('{"id": 9, "tokens": [["a", null, 0, "root", null, null], '
                  '["b", null, 1, "x", null, null]], '
                  '"e1": [1, 1], "e2": [2, 5], "label": "Other"}')
        path.write_text(INSTANCE_FORMAT_HEADER + "\n" + record + "\n", encoding="utf-8")
        with pytest.raises(SpanError, match="instance 9"):
            read_parsed_instances(path)

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
        steps = shortest_path(inst.graph, inst.e1.head_index, inst.e2.head_index)
        assert render_path(inst.graph, steps) == \
            "thief nsubj_inv broke prep_with screwdriver"
        adp = attach_subtrees(inst.graph, steps)
        assert adp.subtree_tokens(3) == {4, 5}   # "the lock" hangs off broke
        assert adp.subtree_tokens(2) == {1}


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
        assert inst.graph.token(2).ner_tag == "PER"

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


class TestEmbeddings:
    def write(self, tmp_path, text):
        path = tmp_path / "vec.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_table(self, tmp_path):
        path = self.write(tmp_path, "dog 1 2 3 4\ncat 0 0 0 1\nfish -1 0 1 0\n")
        table = load_embeddings(path)
        assert table.dim == 4
        assert len(table) == 3
        assert np.array_equal(table.vectors["dog"], [1, 2, 3, 4])

    def test_header_line_tolerated(self, tmp_path):
        path = self.write(tmp_path, "3 4\ndog 1 2 3 4\ncat 0 0 0 1\nfish -1 0 1 0\n")
        table = load_embeddings(path)
        assert len(table) == 3 and table.dim == 4

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
        with pytest.raises(DimensionMismatch, match="line 2"):
            load_embeddings(path)

    def test_expected_dim_enforced(self, tmp_path):
        path = self.write(tmp_path, "dog 1 2 3\n")
        with pytest.raises(DimensionMismatch):
            load_embeddings(path, expected_dim=5)

    def test_empty_without_dim_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(FormatError):
            load_embeddings(path)


class TestVocabulary:
    def test_build_and_fallbacks(self):
        instances = synth.make_separable_corpus(10)
        vocab = Vocabulary.build(instances)
        assert UNK in vocab.words
        assert PATH_START in vocab.relations and PATH_END in vocab.relations
        assert any(r.endswith("_inv") for r in vocab.relations)
        assert vocab.word_row("never-seen-anywhere") == vocab.word_row(UNK)
        assert vocab.relation_row("fake_rel") == vocab.relation_row(UNK)
        assert vocab.comp_name("fake_rel") == f"comp/{DEFAULT_RELATION}"
        assert vocab.comp_name("advmod") == "comp/advmod"
        assert vocab.ner_row(None) == vocab.ner_row("unknown-tag")

    def test_round_trip_dict(self):
        vocab = Vocabulary.build(synth.make_separable_corpus(5))
        assert Vocabulary.from_dict(vocab.to_dict()) == vocab


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

    def test_empty_input_all_zero(self):
        stats = dataset_stats([])
        assert stats.total == 0
        assert all(v == 0 for v in stats.by_type.values())
        assert str(stats.percent("Cause-Effect")) == "0.00"

    def test_direction_folding_sums(self):
        labels = ["Cause-Effect(e1,e2)"] * 3 + ["Cause-Effect(e2,e1)"] * 4
        assert dataset_stats(labels).by_type["Cause-Effect"] == 7

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError):
            dataset_stats([None])
