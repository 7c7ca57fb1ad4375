"""Properties of the text formats: the dataset manifest and gates, trials,
enrollment maps and scores. Each round-trips through its public writer and
reader, with LF or CRLF line ends, for ids holding any character but a tab,
a line break or a lone surrogate; a repeated key fails naming its line and
the first; no writer writes a field that would not read back, a repeated
key, a trial without a label, a non-finite score, a gate that is not one 0
or 1 per frame, nor a file with no rows."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xvec.data import (Dataset, Utterance, _read_rows, _write_rows, load_dataset, write_dataset, write_embeddings,
                       write_features)
from xvec.errors import DataError, FormatError
from xvec.evaluation import (Trial, read_enroll_map, read_scores, read_trials, write_enroll_map, write_scores,
                             write_trials)

# characters str.splitlines() breaks at besides \n and \r, drawn often so every run meets them
OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r") | st.sampled_from(OTHER_BREAKS),
              max_size=5)
FILE_IDS = IDS.filter(lambda s: "/" not in s and "\x00" not in s)  # an utterance id names its .xvf
PATHS = IDS.filter(lambda s: "\x00" not in s)  # load_dataset refuses a NUL in a manifest path
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
        write_dataset(dataset.utterances, root)
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
    "manifest": ("manifest.tsv", read_dataset_file, 1, "utterance id", st.tuples(IDS, IDS, PATHS)),
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


# A lone surrogate cannot be encoded as UTF-8. Each writer, given ids drawn as
# above with one surrogate put into one of them, refuses that id by name.
SURROGATES = st.sampled_from("\ud800\udbff\udc00\udfff")
WRITERS = {
    "trials": lambda path, ids: write_trials(path, [Trial(ids[0], i, True) for i in ids]),
    "enroll": lambda path, ids: write_enroll_map(path, {ids[0]: list(dict.fromkeys(ids))}),
    "scores": lambda path, ids: write_scores(path, [(Trial(ids[0], i), 0.5) for i in ids]),
    "manifest": lambda path, ids: write_dataset((Utterance(f"u{k}", i, np.zeros((1, 1))) for k, i in enumerate(ids)),
                                                path.parent),
    "embeddings": lambda path, ids: write_embeddings(path, {i: [0.5] for i in ids}),
}


@pytest.mark.parametrize("fmt", WRITERS)
@PROPERTY
@given(data=st.data(), ids=st.lists(IDS, min_size=1, max_size=4, unique=True), bad=SURROGATES)
def test_writer_refuses_a_lone_surrogate(fmt, tmp_path, data, ids, bad):
    i = data.draw(st.integers(0, len(ids) - 1))
    cut = data.draw(st.integers(0, len(ids[i])))
    ids[i] = ids[i][:cut] + bad + ids[i][cut:]
    first = next(utt_id for utt_id in ids if any(c in utt_id for c in "\ud800\udbff\udc00\udfff"))
    path = tmp_path / ("manifest.tsv" if fmt == "manifest" else f"out.{fmt}")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: refusing to write a string that is not valid "
                                        f"Unicode: {re.escape(repr(first))}$"):
        WRITERS[fmt](path, ids)
    assert not path.exists()


@pytest.mark.parametrize("write, name", [
    (lambda path: write_trials(path, []), "trials.tsv"),
    (lambda path: write_enroll_map(path, {}), "enroll.tsv"),
    (lambda path: write_scores(path, []), "scores.tsv"),
    (lambda path: write_dataset([], path.parent), "manifest.tsv"),
], ids=["trials", "enroll", "scores", "manifest"])
def test_writer_refuses_no_rows(tmp_path, write, name):
    path = tmp_path / "out" / name
    path.parent.mkdir()
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: refusing to write a file with no rows$"):
        write(path)
    assert list(path.parent.iterdir()) == []


# format -> a writer of rows drawn as TEXT draws them
ROW_WRITERS = {
    "trials": lambda path, rows: write_trials(path, [Trial(e, t, label == "target") for e, t, label in rows]),
    "enroll": lambda path, rows: write_enroll_map(path, {spk: [u for s, u in rows if s == spk] for spk, _ in rows}),
    "scores": lambda path, rows: write_scores(path, [(Trial(e, t), float(score)) for e, t, score in rows]),
}


@pytest.mark.parametrize("fmt", ROW_WRITERS)
@PROPERTY
@given(data=st.data())
def test_writer_refuses_a_repeated_key(fmt, tmp_path, data):
    name, _, key, what, row = TEXT[fmt]
    rows = data.draw(st.lists(row, min_size=1, max_size=5, unique_by=lambda r: r[:key]))
    first = rows[data.draw(st.integers(0, len(rows) - 1))]
    rows.insert(data.draw(st.integers(0, len(rows))), first[:key] + data.draw(row)[key:])
    path = tmp_path / name
    message = f"{path}: refusing to write a repeated {what} ({', '.join(first[:key])})"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        ROW_WRITERS[fmt](path, rows)
    assert not path.exists()


def test_write_trials_refuses_a_trial_without_a_label(tmp_path):
    path = tmp_path / "trials.tsv"
    message = f"{path}: refusing to write trial (s0, u1) without a label"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        write_trials(path, [Trial("s0", "u0", True), Trial("s0", "u1")])
    assert not path.exists()


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
def test_write_scores_refuses_a_non_finite_score(tmp_path, score):
    path = tmp_path / "scores.tsv"
    message = f"{path}: refusing to write the score {score!r} of trial (s0, u1)"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        write_scores(path, [(Trial("s0", "u0"), 0.5), (Trial("s0", "u1"), score)])
    assert not path.exists()


@pytest.mark.parametrize("gate, refused", [
    ([0, 1], "a gate of shape (2,) for y, which has 3 frames"),
    ([[0], [1], [1]], "a gate of shape (3, 1) for y, which has 3 frames"),
    ([0, 2, 1], "a gate value other than 0 or 1 for y"),
    ([0.0, 0.5, 1.0], "a gate value other than 0 or 1 for y"),
])
def test_write_dataset_refuses_a_gate_its_reader_rejects_before_its_features(tmp_path, gate, refused):
    """A gate of the wrong length, or with a value load_dataset would reject
    (or, for 0.5, read back as 0)."""
    utterances = [Utterance("x", "s", np.zeros((2, 3)), np.array([0, 1])),
                  Utterance("y", "s", np.zeros((3, 3)), np.array(gate))]
    message = f"{tmp_path / 'gates.tsv'}: refusing to write {refused}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        write_dataset(utterances, tmp_path)
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["feats", "feats/x.xvf"]


def test_write_dataset_refuses_a_repeated_id_before_its_features(tmp_path):
    first, again = (Utterance("x", "s", np.full((2, 3), v)) for v in (1.0, 2.0))
    write_features(tmp_path / "first.xvf", first.features)
    message = f"{tmp_path / 'manifest.tsv'}: refusing to write a repeated utterance id (x)"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        write_dataset([first, again], tmp_path)
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["feats", "feats/x.xvf",
                                                                                       "first.xvf"]
    assert (tmp_path / "feats" / "x.xvf").read_bytes() == (tmp_path / "first.xvf").read_bytes()
