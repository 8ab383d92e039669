"""Seeded byte-mutation fuzzing of the DEPNN1 model-file reader.

A damaged model file either loads or fails with ModelFormatError or
ModelFileMismatch, and `depnn predict` reports such a failure as a data
error (exit 2) without a traceback. The mutations are truncations at every
manifest-line boundary and at random payload offsets, random byte
replacements inside the manifest and inside the __meta__ JSON, and a NaN
or an infinity written over one element of a tensor's payload.
"""

import random
import struct

import pytest

from depnn import synth
from depnn.classifier import Model, ModelFileMismatch
from depnn.cli import main
from depnn.corpus import write_parsed_instances
from depnn.numerics import META_NAME, ModelFormatError

from conftest import tiny_model

SEED = 20260
PAYLOAD_CUTS = 40
FLIPS_PER_REGION = 150
NON_FINITE = 40


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(model file bytes, end of the manifest, payload byte range of __meta__)."""
    path = tmp_path_factory.mktemp("fuzz") / "m.model"
    tiny_model(synth.make_separable_corpus(20), use_ner=True).save(path)
    data = path.read_bytes()
    header_end = data.index(b"\n\n")
    meta_line = next(line for line in data[:header_end].split(b"\n")
                     if line.startswith(META_NAME.encode() + b"\t"))
    _, size, _, offset = meta_line.split(b"\t")
    meta_start = header_end + 2 + int(offset)
    return data, header_end, (meta_start, meta_start + int(size))


def mutants(data, header_end, meta_range):
    """(description, damaged bytes) for every mutation, in a fixed order."""
    rng = random.Random(SEED)
    line_ends = [i for i in range(header_end + 2) if data[i:i + 1] == b"\n"]
    for end in line_ends:
        for cut in (end, end + 1):
            yield f"cut at manifest byte {cut}", data[:cut]
    for cut in sorted(rng.sample(range(header_end + 2, len(data)), PAYLOAD_CUTS)):
        yield f"cut at payload byte {cut}", data[:cut]
    for region, (lo, hi) in (("manifest", (0, header_end)), (META_NAME, meta_range)):
        for _ in range(FLIPS_PER_REGION):
            damaged = bytearray(data)
            changes = []
            for _ in range(rng.randint(1, 3)):
                at, byte = rng.randrange(lo, hi), rng.randrange(256)
                damaged[at] = byte
                changes.append(f"{at}={byte}")
            yield f"{region} bytes {','.join(changes)}", bytes(damaged)
    yield from non_finite_mutants(data, header_end, rng)


def non_finite_mutants(data, header_end, rng):
    """(description, damaged bytes) with a NaN or an infinity written over a
    random element of a random f8 tensor, the description naming the tensor."""
    tensors = []
    for line in data[:header_end].decode("ascii").split("\n")[1:]:
        name, shape, dtype, offset = line.split("\t")
        size = 1
        for dim in shape.split(","):
            size *= int(dim)
        if dtype == "f8" and size:
            tensors.append((name, header_end + 2 + int(offset), size))
    for _ in range(NON_FINITE):
        name, start, size = rng.choice(tensors)
        at = start + 8 * rng.randrange(size)
        value = rng.choice((float("nan"), float("inf"), float("-inf")))
        yield (f"tensor {name!r} holds {value}",
               data[:at] + struct.pack("<d", value) + data[at + 8:])


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory, saved):
    """(description, damaged bytes, None or the exception Model.load raised)
    per mutant."""
    path = tmp_path_factory.mktemp("damaged") / "m.model"
    results = []
    for description, damaged in mutants(*saved):
        path.write_bytes(damaged)
        try:
            Model.load(path)
        except Exception as exc:        # the type is what the tests check
            results.append((description, damaged, exc))
        else:
            results.append((description, damaged, None))
    return results


def test_damaged_model_files_fail_only_as_format_errors(outcomes):
    wrong = [f"{description}: {type(exc).__name__}: {exc}"
             for description, _, exc in outcomes
             if exc is not None and not isinstance(exc, (ModelFormatError, ModelFileMismatch))]
    assert not wrong, "\n".join(wrong[:10])
    # every truncation must fail; byte flips mostly do
    assert sum(exc is not None for _, _, exc in outcomes) > 2 * PAYLOAD_CUTS


def test_non_finite_payload_is_refused_naming_the_tensor(outcomes):
    non_finite = [(description, exc) for description, _, exc in outcomes
                  if " holds " in description]
    assert len(non_finite) == NON_FINITE
    for description, exc in non_finite:
        name = description.split(" holds ")[0].removeprefix("tensor ")
        assert isinstance(exc, ModelFormatError), description
        assert f"tensor {name} holds a non-finite value" in str(exc), (description, exc)


def test_predict_reports_damaged_model_as_data_error(tmp_path, outcomes, capsys):
    instances = tmp_path / "a.inst"
    write_parsed_instances(instances, synth.make_separable_corpus(3))
    path = tmp_path / "damaged.model"
    failing = [(description, damaged) for description, damaged, exc in outcomes if exc]
    for description, damaged in failing[::25]:
        path.write_bytes(damaged)
        assert main(["predict", "--model", str(path),
                     "--instances", str(instances)]) == 2, description
        err = capsys.readouterr().err
        assert err.startswith("error: "), description
        assert "Traceback" not in err, description
