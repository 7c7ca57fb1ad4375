"""Properties of the three binary formats: .xvf features, .xve embeddings
and .xvm checkpoints. Each round-trips; a cut, extended or non-finite
file fails as a FormatError that names the byte where the format breaks,
and no writer writes a value its reader rejects."""

import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xvec.data import read_embeddings, read_features, write_embeddings, write_features
from xvec.errors import DataError, FormatError
from xvec.model import FrameLayerSpec, ModelConfig, build_model, load_model, save_model

FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def embeddings(draw):
    dim = draw(st.integers(0, 4))
    ids = draw(st.lists(st.text(max_size=5), max_size=4, unique=True))
    return {utt_id: draw(hnp.arrays(np.float64, dim, elements=FLOAT32)) for utt_id in ids}


def tiny_config(pooling: str) -> ModelConfig:
    return ModelConfig(input_dim=1, frame_layers=(FrameLayerSpec((-1, 0), 2),), pooling=pooling,
                       key_layer=1, compat=[2], heads=2 if pooling == "multihead" else 1,
                       utterance_layers=[2], num_speakers=2)


@st.composite
def models(draw):
    pooling = draw(st.sampled_from(["stats", "attention", "multihead"]))
    model = build_model(tiny_config(pooling), seed=draw(st.integers(0, 2**16)))
    for _, array in model.state_arrays():  # running statistics off their initial values too
        array += draw(FLOAT32)
    return model


def save(path, model):
    save_model(model, path)


# format -> (strategy for a valid value, writer, reader)
FORMATS = {
    "xvf": (hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 4)), elements=FLOAT32),
            write_features, read_features),
    "xve": (embeddings(), write_embeddings, read_embeddings),
    "xvm": (models(), save, load_model),
}
PROPERTY = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def valid_file(fmt, data, tmp_path):
    """Draw a value, write it; returns (value, path, the file's bytes)."""
    strategy, write, _ = FORMATS[fmt]
    value = data.draw(strategy)
    path = tmp_path / f"valid.{fmt}"
    write(path, value)
    return value, path, path.read_bytes()


def value_bytes(fmt, value, blob) -> list:
    """(byte, dtype) of every payload value, walked from the format spec."""
    if fmt == "xvf":
        return [(12 + 4 * i, "<f4") for i in range(value.size)]
    if fmt == "xve":
        where, pos = [], 8
        for utt_id, vec in value.items():
            pos += 2 + len(utt_id.encode()) + 4
            where += [(pos + 4 * i, "<f4") for i in range(vec.size)]
            pos += 4 * vec.size
        return where
    where, pos = [], 12 + struct.unpack_from("<Q", blob, 4)[0]
    for _, array in value.state_arrays():
        pos += 8
        where += [(pos + 8 * i, "<f8") for i in range(array.size)]
        pos += 8 * array.size
    return where


def read_error(fmt, path) -> str:
    with pytest.raises(FormatError) as e:
        FORMATS[fmt][2](path)
    return str(e.value)


@PROPERTY
@given(x=FORMATS["xvf"][0])
def test_features_round_trip(tmp_path, x):
    write_features(tmp_path / "a.xvf", x)
    np.testing.assert_array_equal(read_features(tmp_path / "a.xvf"), x)


@PROPERTY
@given(embs=embeddings())
def test_embeddings_round_trip(tmp_path, embs):
    write_embeddings(tmp_path / "e.xve", embs)
    got = read_embeddings(tmp_path / "e.xve")
    assert list(got) == list(embs)
    for utt_id, vec in embs.items():
        np.testing.assert_array_equal(got[utt_id], vec)


@PROPERTY
@given(model=models())
def test_checkpoint_round_trip(tmp_path, model):
    save_model(model, tmp_path / "m.xvm")
    loaded = load_model(tmp_path / "m.xvm")
    assert loaded.config == model.config
    for (name, a), (_, b) in zip(model.state_arrays(), loaded.state_arrays()):
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("fmt", FORMATS)
@settings(PROPERTY, max_examples=6)
@given(data=st.data())
def test_every_truncation_names_a_byte_in_the_file(fmt, tmp_path, data):
    _, _, blob = valid_file(fmt, data, tmp_path)
    cut = tmp_path / f"cut.{fmt}"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        message = read_error(fmt, cut)
        named = [int(b) for b in re.findall(r"\bbyte (\d+)", message)]
        assert "truncated" in message and named and max(named) <= size, (size, message)


@pytest.mark.parametrize("fmt", FORMATS)
@PROPERTY
@given(data=st.data(), extra=st.binary(min_size=1, max_size=9))
def test_appended_bytes_are_trailing(fmt, tmp_path, data, extra):
    _, path, blob = valid_file(fmt, data, tmp_path)
    path.write_bytes(blob + extra)
    assert read_error(fmt, path) == f"{path}: {len(extra)} trailing bytes at byte {len(blob)}"


@pytest.mark.parametrize("fmt", FORMATS)
@PROPERTY
@given(data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_value_is_rejected_at_its_byte(fmt, tmp_path, data, bad):
    value, path, blob = valid_file(fmt, data, tmp_path)
    where = value_bytes(fmt, value, blob)
    assume(where)
    pos, dtype = data.draw(st.sampled_from(where))
    patched = bytearray(blob)
    patched[pos : pos + np.dtype(dtype).itemsize] = np.array(bad, dtype=dtype).tobytes()
    path.write_bytes(bytes(patched))
    assert re.fullmatch(rf"{re.escape(str(path))}: non-finite value in .+ at byte {pos}", read_error(fmt, path))


def holding(fmt, x):
    """A value of the format with x as its first payload value."""
    if fmt == "xvf":
        return np.array([[x, 0.0]])
    if fmt == "xve":
        return {"a": np.array([x, 1.0])}
    model = build_model(tiny_config("attention"), seed=0)
    model.state_arrays()[0][1].flat[0] = x
    return model


# 1e39 is finite in float64 but beyond float32's range; .xvm stores float64
@pytest.mark.parametrize("fmt, bad", [(fmt, bad) for fmt in FORMATS for bad in (np.nan, np.inf, -np.inf, 1e39)
                                      if (fmt, bad) != ("xvm", 1e39)])
def test_writer_refuses_a_value_its_reader_rejects(fmt, bad, tmp_path):
    path = tmp_path / f"bad.{fmt}"
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: refusing to write a non-finite value$"):
        FORMATS[fmt][1](path, holding(fmt, bad))
    assert not path.exists()
