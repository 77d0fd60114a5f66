import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipstruct import ValidationError, zoo
from ipstruct.serialization import (
    channel_from_json,
    channel_to_json,
    code_states_from_json,
    code_states_to_json,
    complex_matrix_from_json,
    complex_matrix_to_json,
    dumps,
    graph_to_json,
    projector_from_json,
    sniff_and_load_channel,
    stochastic_from_json,
    stochastic_to_json,
)


def test_complex_matrix_roundtrip_bit_exact():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    # signed zeros, a subnormal and the largest float too
    a[0, :3] = [complex(-0.0, -0.0), complex(5e-324, 1.7976931348623157e308), complex(0.1, -0.0)]
    doc = complex_matrix_to_json(a)
    assert all(type(x) is float for row in doc for entry in row for x in entry)
    b = complex_matrix_from_json(json.loads(dumps(doc)))
    # float -> json -> float must be lossless, sign bits included
    assert np.array_equal(a.view(float), b.view(float))
    assert np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float)))


def test_channel_roundtrip():
    ch = zoo.random_cptp(3, 2, 42)
    doc = json.loads(dumps(channel_to_json(ch)))
    back = channel_from_json(doc)
    assert back.dim_in == 3 and back.dim_out == 3
    for k1, k2 in zip(ch.kraus, back.kraus):
        assert (k1 == k2).all()


def test_stochastic_roundtrip():
    sc = zoo.fixture("cyclic_four")
    back = stochastic_from_json(json.loads(dumps(stochastic_to_json(sc))))
    assert (back.matrix == sc.matrix).all()


def test_code_roundtrip():
    code = zoo.code_fixture("squash_segment")
    states = code_states_from_json(json.loads(dumps(code_states_to_json(code.states))))
    assert len(states) == 2
    for s1, s2 in zip(code.states, states):
        assert (s1 == s2).all()


def test_graph_document_is_normalized():
    # each edge as (i, j) with i < j, the edges sorted, every number a plain int
    doc = graph_to_json(np.int64(4), [(2, 0), (3, 1), (np.int64(1), 0)])
    assert doc == {"n": 4, "edges": [[0, 1], [0, 2], [1, 3]]}
    assert all(type(x) is int for x in [doc["n"], *(i for e in doc["edges"] for i in e)])
    assert json.loads(dumps(doc)) == doc


def test_projector_doc():
    p = np.diag([1.0, 0.0]).astype(complex)
    doc = {"matrix": complex_matrix_to_json(p)}
    assert_allclose(projector_from_json(doc), p)


def test_dumps_is_deterministic():
    ch = zoo.fixture("dephasing_qubit")
    assert dumps(channel_to_json(ch)) == dumps(channel_to_json(ch))
    # keys are sorted so dict insertion order is irrelevant
    assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})


def test_sniffer():
    ch_doc = channel_to_json(zoo.fixture("dephasing_qubit"))
    sc_doc = stochastic_to_json(zoo.fixture("cyclic_four"))
    from ipstruct import QuantumChannel, StochasticChannel

    assert isinstance(sniff_and_load_channel(ch_doc), QuantumChannel)
    assert isinstance(sniff_and_load_channel(sc_doc), StochasticChannel)
    with pytest.raises(ValidationError):
        sniff_and_load_channel({"something": "else"})


@pytest.mark.parametrize(
    "doc",
    [
        {"dim_in": 2, "dim_out": 2},  # missing kraus
        {"dim_in": 2, "dim_out": 2, "kraus": [[[1.0]]]},  # scalar entries
        {"dim_in": 3, "dim_out": 3, "kraus": [complex_matrix_to_json(np.eye(2))]},
        {"dim_in": 2, "dim_out": 2, "kraus": []},
    ],
)
def test_malformed_channel_docs(doc):
    with pytest.raises(ValidationError):
        channel_from_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"n_in": 2, "matrix": [[1.0, 0.0], [0.0, 1.0]]},  # missing n_out
        {"n_in": 2, "n_out": 2, "matrix": [[0.5, 0.0], [0.4, 1.0]]},  # bad columns
        {"n_in": 3, "n_out": 2, "matrix": [[1.0, 0.0], [0.0, 1.0]]},  # wrong dims
    ],
)
def test_malformed_stochastic_docs(doc):
    with pytest.raises(ValidationError):
        stochastic_from_json(doc)


def test_ragged_matrix_rejected():
    with pytest.raises(ValidationError):
        complex_matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(ValidationError):
        complex_matrix_from_json([])


@pytest.mark.parametrize("load,doc", [
    (complex_matrix_from_json, [[["x", 0.0]]]),
    (complex_matrix_from_json, [[[1.0, "0j"]]]),
    (channel_from_json, {"dim_in": "one", "dim_out": 1, "kraus": [[[[1.0, 0.0]]]]}),
    (channel_from_json, {"dim_in": float("inf"), "dim_out": 1, "kraus": [[[[1.0, 0.0]]]]}),
    (stochastic_from_json, {"n_in": float("inf"), "n_out": 1, "matrix": [[1.0]]}),
    # an entry is exactly two numbers: extra items are refused, not dropped unread
    (complex_matrix_from_json, [[[1, 0, 99], [0, 0, "junk"]], [[0, 0], [1, 0]]]),
    (complex_matrix_from_json, [[[1, 0], [0, 0, 0]], [[0, 0], [1, 0]]]),
    (complex_matrix_from_json, [[[1.0]]]),
    (complex_matrix_from_json, [[None]]),
    (complex_matrix_from_json, [[[None, 0.0]]]),
    (complex_matrix_from_json, [[[0.0, None]]]),
    (complex_matrix_from_json, [[["1", "0"]]]),
    (complex_matrix_from_json, [[1.0]]),
    (complex_matrix_from_json, [[[10**400, 0]]]),
], ids=["entry-word", "entry-complex-string", "dim-word", "dim-infinite",
        "stochastic-infinite", "entry-extra-items", "entry-third-zero", "entry-one-item",
        "entry-null", "entry-null-real", "entry-null-imag", "entry-strings", "entry-scalar",
        "entry-overflow"])
def test_malformed_numbers_are_validation_errors(load, doc):
    with pytest.raises(ValidationError, match="malformed"):
        load(doc)
