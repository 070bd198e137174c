"""Parsing, normalization and the structured error envelope.

The fuzz suites drive :func:`repro.service.protocol.parse_query` with
malformed JSON shapes — wrong types, NaN rates, out-of-range machine
parameters, oversized sweeps — and require every rejection to be a
*typed* library error that maps to a 4xx envelope, never an uncaught
``TypeError``/``KeyError`` that would reach a client as a traceback.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro.core.hierarchy import HierarchicalRequestModel
from repro.core.request_models import UniformRequestModel
from repro.exceptions import (
    AdmissionError,
    ConfigurationError,
    ModelError,
    QueryTooLargeError,
    ReproError,
)
from repro.service.protocol import (
    SCHEMES,
    Query,
    ServiceLimits,
    build_model,
    error_envelope,
    parse_query,
    status_for,
)

VALID = {"scheme": "full", "N": 16, "M": 16, "B": 8, "r": 0.5}


# ----------------------------------------------------------------------
# Happy path and normalization
# ----------------------------------------------------------------------


def test_parse_minimal_defaults():
    query = parse_query({"scheme": "full", "N": 8, "B": 4})
    assert query == Query(
        scheme="full",
        n_processors=8,
        n_memories=8,
        bus_counts=(4,),
        rate=1.0,
        model="unif",
    )
    assert not query.is_sweep


def test_spelling_variants_normalize_to_equal_queries():
    base = parse_query({"scheme": "full", "N": 8, "M": 8, "B": 4, "r": 1.0,
                        "model": "unif"})
    for variant in (
        {"scheme": "full", "N": 8, "B": 4},
        {"scheme": "full", "N": 8, "B": 4, "model": "uniform", "r": 1},
    ):
        other = parse_query(variant)
        assert other == base
        assert hash(other) == hash(base)


def test_hierarchy_defaults_and_explicit_spellings_coalesce():
    implicit = parse_query({"scheme": "full", "N": 16, "B": 8,
                            "model": "hier"})
    explicit = parse_query({
        "scheme": "full", "N": 16, "B": 8, "model": "hierarchical",
        "hierarchy": {"clusters": 4, "fractions": [0.6, 0.3, 0.1]},
    })
    assert implicit == explicit
    assert implicit.clusters == 4
    assert implicit.fractions == (0.6, 0.3, 0.1)


def test_sweep_accepts_bus_count_vector():
    query = parse_query({"scheme": "single", "N": 8, "B": [1, 2, 4]},
                        sweep=True)
    assert query.bus_counts == (1, 2, 4)
    assert query.is_sweep


def test_network_kwargs_are_canonical_tuples():
    query = parse_query({"scheme": "kclass", "N": 8, "M": 8, "B": 4,
                         "class_sizes": [4, 4]})
    assert query.network_kwargs == (("class_sizes", (4, 4)),)
    assert hash(query) == hash(parse_query(
        {"scheme": "kclass", "N": 8, "M": 8, "B": 4, "class_sizes": (4, 4)}
    ))


def test_build_model_uniform_and_hierarchical():
    unif = build_model(parse_query({"scheme": "full", "N": 8, "B": 4,
                                    "r": 0.5}))
    assert isinstance(unif, UniformRequestModel)
    hier = build_model(parse_query({"scheme": "full", "N": 16, "B": 4,
                                    "model": "hier"}))
    assert isinstance(hier, HierarchicalRequestModel)


def test_build_model_bad_hierarchy_is_model_error():
    # 3 clusters do not divide N=16: rejected by the model constructor,
    # on the same typed path as direct library use.
    query = parse_query({"scheme": "full", "N": 16, "B": 4, "model": "hier",
                         "hierarchy": {"clusters": 3}})
    with pytest.raises((ModelError, ConfigurationError)):
        build_model(query)


# ----------------------------------------------------------------------
# Negative cases: every rejection is a typed 4xx
# ----------------------------------------------------------------------


@pytest.mark.parametrize("payload", [
    None,
    [],
    "scheme=full",
    42,
])
def test_non_object_payload_rejected(payload):
    with pytest.raises(ConfigurationError):
        parse_query(payload)


@pytest.mark.parametrize("mutation", [
    {"scheme": "mesh"},
    {"scheme": None},
    {"scheme": 3},
    {"N": "16"},
    {"N": 0},
    {"N": -4},
    {"N": True},
    {"N": 2.5},
    {"M": 0},
    {"M": False},
    {"B": None},
    {"B": "8"},
    {"B": 0},
    {"B": -1},
    {"B": True},
    {"B": [4, 8]},          # list is only legal for sweeps
    {"r": "half"},
    {"r": -0.1},
    {"r": 1.5},
    {"r": float("nan")},
    {"r": float("inf")},
    {"r": True},
    {"model": "zipf"},
    {"model": 7},
    {"hierarchy": {"clusters": 4}},     # only legal with model=hier
    {"n_groups": 2},                    # partial-only field on "full"
    {"class_sizes": [8, 8]},            # kclass-only field on "full"
    {"bogus_field": 1},
])
def test_malformed_single_cell_payloads(mutation):
    payload = {**VALID, **mutation}
    with pytest.raises((ConfigurationError, ModelError)):
        parse_query(payload)


@pytest.mark.parametrize("mutation", [
    {"model": "hier", "M": 8},                            # hier needs M == N
    {"model": "hier", "hierarchy": {"clusters": "4"}},
    {"model": "hier", "hierarchy": {"clusters": 0}},
    {"model": "hier", "hierarchy": {"clusters": True}},
    {"model": "hier", "hierarchy": {"fractions": "abc"}},
    {"model": "hier", "hierarchy": {"fractions": [0.5, -0.1]}},
    {"model": "hier", "hierarchy": {"fractions": [float("nan")]}},
    {"model": "hier", "hierarchy": {"levels": 2}},
    {"model": "hier", "hierarchy": [0.6, 0.3]},
])
def test_malformed_hierarchy_payloads(mutation):
    with pytest.raises(ConfigurationError):
        parse_query({**VALID, **mutation})


@pytest.mark.parametrize("mutation", [
    {"scheme": "partial", "n_groups": 0},
    {"scheme": "partial", "n_groups": "2"},
    {"scheme": "kclass", "class_sizes": []},
    {"scheme": "kclass", "class_sizes": "88"},
    {"scheme": "kclass", "class_sizes": [8, "8"]},
    {"scheme": "kclass", "class_sizes": [8, -8]},
    {"scheme": "kclass", "class_sizes": [4, 4]},  # sums to 8, M is 16
])
def test_malformed_network_kwargs(mutation):
    with pytest.raises(ConfigurationError):
        parse_query({**VALID, **mutation})


def test_oversized_machine_is_413():
    limits = ServiceLimits(max_machine=64)
    for field in ("N", "M", "B"):
        payload = {**VALID, field: 65}
        with pytest.raises((QueryTooLargeError, ConfigurationError)) as err:
            parse_query(payload, limits=limits)
        if field in ("N", "M"):
            assert isinstance(err.value, QueryTooLargeError)


def test_oversized_sweep_is_413():
    limits = ServiceLimits(max_sweep_cells=16)
    with pytest.raises(QueryTooLargeError):
        parse_query({**VALID, "B": list(range(1, 18))}, sweep=True,
                    limits=limits)


def test_empty_sweep_rejected():
    with pytest.raises(ConfigurationError):
        parse_query({**VALID, "B": []}, sweep=True)


def test_oversized_class_list_is_413():
    limits = ServiceLimits(max_machine=8)
    with pytest.raises(QueryTooLargeError):
        parse_query({"scheme": "kclass", "N": 8, "M": 8, "B": 4,
                     "class_sizes": [1] * 9}, limits=limits)


# ----------------------------------------------------------------------
# Status mapping and the error envelope
# ----------------------------------------------------------------------


def test_status_mapping():
    assert status_for(AdmissionError("shed")) == 429
    assert status_for(QueryTooLargeError("big")) == 413
    assert status_for(ConfigurationError("bad")) == 400
    assert status_for(ModelError("bad")) == 400
    assert status_for(ReproError("other")) == 400
    assert status_for(RuntimeError("boom")) == 500


def test_error_envelope_shape():
    status, body = error_envelope(ConfigurationError("field 'N' is bad"))
    assert status == 400
    assert body == {
        "ok": False,
        "error": {"status": 400, "type": "ConfigurationError",
                  "message": "field 'N' is bad"},
    }


def test_error_envelope_hides_internal_errors():
    status, body = error_envelope(RuntimeError("secret state dump"))
    assert status == 500
    assert body["error"]["message"] == "internal error"
    assert "secret" not in str(body)


def test_error_envelope_carries_retry_hint():
    exc = AdmissionError("shed", retry_after_seconds=0.25, reason="rate")
    status, body = error_envelope(exc)
    assert status == 429
    assert body["error"]["retry_after_s"] == 0.25
    assert body["error"]["reason"] == "rate"


# ----------------------------------------------------------------------
# Hypothesis fuzz: arbitrary JSON can only fail with typed errors
# ----------------------------------------------------------------------

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**9), max_value=10**9)
    | st.floats(allow_nan=True, allow_infinity=True, width=32)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=12,
)

_FIELDS = st.sampled_from(
    ["scheme", "N", "M", "B", "r", "model", "hierarchy", "n_groups",
     "class_sizes", "classes", "tenure"]
)


@given(payload=_JSON, sweep=st.booleans())
def test_fuzz_arbitrary_json_never_leaks_raw_exceptions(payload, sweep):
    try:
        query = parse_query(payload, sweep=sweep)
    except ReproError:
        return  # typed rejection: maps to a structured 4xx envelope
    assert isinstance(query, Query)
    assert query.scheme in SCHEMES
    assert math.isfinite(query.rate) and 0.0 <= query.rate <= 1.0
    assert all(b >= 1 for b in query.bus_counts)
    hash(query)  # normalized queries must stay hashable cache keys


@given(
    mutations=st.dictionaries(_FIELDS, _JSON, min_size=1, max_size=3),
    sweep=st.booleans(),
)
def test_fuzz_mutated_valid_payloads(mutations, sweep):
    payload = {**VALID, **mutations}
    try:
        query = parse_query(payload, sweep=sweep)
    except ReproError:
        return
    assert isinstance(query, Query)
    hash(query)


# ----------------------------------------------------------------------
# The cached hash: computed once, never carried out of its process
# ----------------------------------------------------------------------

_HASH_SAFETY_CELL = {"scheme": "kclass", "N": 16, "M": 16, "B": 4,
                     "r": 0.5, "model": "hier", "class_sizes": [8, 8],
                     "classes": [0.25, 0.75], "tenure": 3}


def _run_python(code: str, seed: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env,
        capture_output=True, check=True, timeout=120,
    )
    return done.stdout


def test_pickled_query_rehashes_under_another_hash_seed():
    pickled = _run_python(
        "import pickle, sys\n"
        "from repro.service.protocol import parse_query\n"
        f"query = parse_query({_HASH_SAFETY_CELL!r})\n"
        "sys.stdout.buffer.write(pickle.dumps(query))\n",
        seed="0",
    )
    verdict = _run_python(
        "import pickle, sys\n"
        "from repro.service.protocol import parse_query\n"
        "query = pickle.loads(sys.stdin.buffer.read())\n"
        f"twin = parse_query({_HASH_SAFETY_CELL!r})\n"
        "print(query == twin, hash(query) == hash(twin),\n"
        "      {twin: 'hit'}.get(query), query.criticality)\n",
        seed="1",
        stdin=pickled,
    )
    assert verdict.split() == [b"True", b"True", b"hit", b"0"]


def test_copies_and_replacements_hash_like_a_fresh_parse():
    query = parse_query(_HASH_SAFETY_CELL)
    twin = parse_query(dict(_HASH_SAFETY_CELL))
    for other in (copy.copy(query), copy.deepcopy(query),
                  pickle.loads(pickle.dumps(query)),
                  dataclasses.replace(query)):
        assert other == twin and hash(other) == hash(twin)
        assert {twin: "hit"}[other] == "hit"
    moved = dataclasses.replace(query, bus_counts=(2,))
    assert moved == parse_query({**_HASH_SAFETY_CELL, "B": 2})
    assert hash(moved) == hash(parse_query({**_HASH_SAFETY_CELL, "B": 2}))
    assert moved != query


def test_criticality_changes_neither_equality_nor_hash():
    plain = parse_query(_HASH_SAFETY_CELL)
    labeled = parse_query({**_HASH_SAFETY_CELL, "criticality": 3})
    relabeled = dataclasses.replace(plain, criticality=2)
    assert labeled.criticality == 3 and relabeled.criticality == 2
    assert plain == labeled == relabeled
    assert hash(plain) == hash(labeled) == hash(relabeled)
    assert pickle.loads(pickle.dumps(labeled)).criticality == 3


@pytest.mark.parametrize("omitted, spelled", [
    ({"scheme": "full", "N": 16, "B": 8, "model": "hier"},
     {"scheme": "full", "N": 16, "B": 8, "model": "hier",
      "hierarchy": {"clusters": 4, "fractions": [0.6, 0.3, 0.1]}}),
    ({"scheme": "full", "N": 16, "B": 8, "model": "hier",
      "hierarchy": {"clusters": 2}},
     {"scheme": "full", "N": 16, "B": 8, "model": "hier",
      "hierarchy": {"clusters": 2, "fractions": [0.6, 0.3, 0.1]}}),
    ({"scheme": "full", "N": 16, "B": 8},
     {"scheme": "full", "N": 16, "B": 8, "tenure": 1}),
    ({"scheme": "full", "N": 16, "B": 8},
     {"scheme": "full", "N": 16, "B": 8, "classes": [1.0]}),
    ({"scheme": "full", "N": 16, "B": 8},
     {"scheme": "full", "N": 16, "M": 16, "B": 8, "r": 1, "model": "unif",
      "tenure": 1.0, "classes": [1], "criticality": 0}),
])
def test_spelled_out_defaults_hash_like_omitted_ones(omitted, spelled):
    a, b = parse_query(omitted), parse_query(spelled)
    assert a == b
    assert hash(a) == hash(b)
    assert {a: "hit"}[b] == "hit"
