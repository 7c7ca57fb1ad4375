"""Properties of the text formats: the dataset manifest and gates, trials,
enrollment maps and scores. Each round-trips through its public writer and
reader, with LF or CRLF line ends, for ids holding any character but a tab
or a line break; a repeated key fails naming its line and the first; no
writer writes a field that would not read back."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xvec.data import Dataset, Utterance, _read_rows, _write_rows, load_dataset, write_dataset
from xvec.errors import DataError, FormatError
from xvec.evaluation import (Trial, read_enroll_map, read_scores, read_trials, write_enroll_map, write_scores,
                             write_trials)

# characters str.splitlines() breaks at besides \n and \r, drawn often so every run meets them
OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r") | st.sampled_from(OTHER_BREAKS),
              max_size=5)
FILE_IDS = IDS.filter(lambda s: "/" not in s and "\x00" not in s)  # an utterance id names its .xvf
FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
ENDINGS = pytest.mark.parametrize("ending", [b"\n", b"\r\n"])
PROPERTY = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def with_ending(path, ending: bytes):
    path.write_bytes(path.read_bytes().replace(b"\n", ending))
    return path


@ENDINGS
@PROPERTY
@given(pairs=st.lists(st.tuples(IDS, IDS, st.booleans()), min_size=1, max_size=5, unique_by=lambda t: t[:2]))
def test_trials_round_trip(tmp_path, ending, pairs):
    trials = [Trial(*pair) for pair in pairs]
    write_trials(tmp_path / "trials.tsv", trials)
    assert read_trials(with_ending(tmp_path / "trials.tsv", ending)) == trials


@ENDINGS
@PROPERTY
@given(mapping=st.dictionaries(IDS, st.lists(IDS, min_size=1, max_size=3, unique=True), min_size=1, max_size=3))
def test_enroll_map_round_trip(tmp_path, ending, mapping):
    write_enroll_map(tmp_path / "enroll.tsv", mapping)
    assert read_enroll_map(with_ending(tmp_path / "enroll.tsv", ending)) == mapping


@ENDINGS
@PROPERTY
@given(scores=st.dictionaries(st.tuples(IDS, IDS), st.floats(allow_nan=False, allow_infinity=False),
                              min_size=1, max_size=5))
def test_scores_round_trip(tmp_path, ending, scores):
    write_scores(tmp_path / "scores.tsv", [(Trial(enroll, test), s) for (enroll, test), s in scores.items()])
    assert read_scores(with_ending(tmp_path / "scores.tsv", ending)) == scores


@st.composite
def datasets(draw):
    speakers = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    dim = draw(st.integers(1, 3))
    gated = draw(st.booleans())
    utterances = []
    for utt_id in draw(st.lists(FILE_IDS, min_size=1, max_size=4, unique=True)):
        t = draw(st.integers(1, 4))
        gate = draw(hnp.arrays(np.int8, t, elements=st.integers(0, 1))) if gated else None
        utterances.append(Utterance(utt_id, draw(st.sampled_from(speakers)),
                                    draw(hnp.arrays(np.float64, (t, dim), elements=FLOAT32)), gate))
    return Dataset(utterances, speakers)


@ENDINGS
@PROPERTY
@given(dataset=datasets())
def test_manifest_and_gates_round_trip(ending, dataset):
    with tempfile.TemporaryDirectory() as root:
        write_dataset(dataset, root)
        for name in ("manifest.tsv", "gates.tsv"):
            if (Path(root) / name).exists():
                with_ending(Path(root) / name, ending)
        back = load_dataset(root)
    assert back.speakers == sorted({u.speaker for u in dataset.utterances})
    assert len(back.utterances) == len(dataset.utterances)
    for got, utt in zip(back.utterances, dataset.utterances):
        assert (got.utt_id, got.speaker) == (utt.utt_id, utt.speaker)
        np.testing.assert_array_equal(got.features, utt.features)
        if utt.gate is None:
            assert got.gate is None
        else:
            np.testing.assert_array_equal(got.gate, utt.gate)


def read_dataset_file(path):
    (path.parent / "manifest.tsv").touch()  # gates.tsv is read before the manifest's rows
    return load_dataset(path.parent)


# format -> (file name, reader, key width, what a key names, one row)
TEXT = {
    "trials": ("trials.tsv", read_trials, 2, "trial", st.tuples(IDS, IDS, st.sampled_from(["target", "nontarget"]))),
    "enroll": ("enroll.tsv", read_enroll_map, 2, "enrollment entry", st.tuples(IDS, IDS)),
    "scores": ("scores.tsv", read_scores, 2, "score", st.tuples(IDS, IDS, FLOAT32.map(repr))),
    "manifest": ("manifest.tsv", read_dataset_file, 1, "utterance id", st.tuples(IDS, IDS, IDS)),
    "gates": ("gates.tsv", read_dataset_file, 1, "utterance id", st.tuples(IDS, st.text("01", max_size=4))),
}


@pytest.mark.parametrize("fmt", TEXT)
@PROPERTY
@given(data=st.data())
def test_repeated_key_names_its_line_and_the_first(fmt, tmp_path, data):
    name, read, key, what, row = TEXT[fmt]
    rows = data.draw(st.lists(row, min_size=1, max_size=5, unique_by=lambda r: r[:key]))
    first = data.draw(st.integers(0, len(rows) - 1))
    at = data.draw(st.integers(first + 1, len(rows)))
    rows.insert(at, rows[first][:key] + data.draw(row)[key:])
    path = tmp_path / name
    path.write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(FormatError) as e:
        read(path)
    key_text = ", ".join(rows[first][:key])
    assert str(e.value) == f"{path}:{at + 1}: duplicate {what} ({key_text}), first on line {first + 1}"


ROWS = st.lists(st.lists(IDS, min_size=2, max_size=2), min_size=1, max_size=5)


@PROPERTY
@given(rows=ROWS)
def test_crlf_reads_the_same_rows(tmp_path, rows):
    _write_rows(tmp_path / "lf.tsv", rows)
    (tmp_path / "crlf.tsv").write_bytes((tmp_path / "lf.tsv").read_bytes().replace(b"\n", b"\r\n"))
    assert _read_rows(tmp_path / "lf.tsv", "a<TAB>b") == _read_rows(tmp_path / "crlf.tsv", "a<TAB>b") == rows


@PROPERTY
@given(data=st.data(), rows=ROWS, bad=st.sampled_from("\t\n\r"))
def test_writer_refuses_a_tab_or_line_break(tmp_path, data, rows, bad):
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, 1))
    cut = data.draw(st.integers(0, len(rows[i][j])))
    rows[i][j] = rows[i][j][:cut] + bad + rows[i][j][cut:]
    path = tmp_path / "refused.tsv"
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: refusing to write a field holding a tab"):
        _write_rows(path, rows)
    assert not path.exists()
