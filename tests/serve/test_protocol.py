"""Wire-protocol robustness: strict parsing, one-line errors, no crashes.

The hypothesis suites assert the protocol's two safety properties:

* every well-formed request round-trips through ``parse_request`` with
  its fields intact, and
* *any* input line -- valid, malformed, adversarial -- produces either a
  validated :class:`Request` or a :class:`ProtocolError` whose message
  renders as a single-line error response; nothing else ever escapes.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import protocol
from repro.serve.protocol import (
    MAX_PASSWORDS_PER_REQUEST,
    ProtocolError,
    Request,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)

passwords_strategy = st.lists(
    st.text(min_size=1, max_size=12), min_size=1, max_size=8
)
ids_strategy = st.one_of(st.none(), st.integers(), st.text(max_size=20))


class TestRoundTrip:
    @given(
        op=st.sampled_from(["score", "band"]),
        passwords=passwords_strategy,
        request_id=ids_strategy,
        deadline=st.one_of(st.none(), st.floats(min_value=0, max_value=1e6)),
        single=st.booleans(),
    )
    @settings(max_examples=60)
    def test_scoring_requests_round_trip(
        self, op, passwords, request_id, deadline, single
    ):
        payload = {"op": op}
        if single:
            payload["password"] = passwords[0]
        else:
            payload["passwords"] = passwords
        if request_id is not None:
            payload["id"] = request_id
        if deadline is not None:
            payload["deadline_ms"] = deadline
        request = parse_request(json.dumps(payload))
        assert request.op == op
        assert request.single is single
        assert request.passwords == ([passwords[0]] if single else passwords)
        assert request.id == request_id
        assert request.deadline_ms == deadline

    @given(
        password=st.text(min_size=1, max_size=12),
        sample_size=st.integers(min_value=1, max_value=protocol.MAX_SAMPLE_SIZE),
        seed=st.one_of(st.none(), st.integers(min_value=-(2**31), max_value=2**31)),
    )
    @settings(max_examples=30)
    def test_guess_number_round_trips(self, password, sample_size, seed):
        payload = {"op": "guess_number", "password": password, "sample_size": sample_size}
        if seed is not None:
            payload["seed"] = seed
        request = parse_request(json.dumps(payload))
        assert request.sample_size == sample_size
        assert request.seed == seed

    @given(
        passwords=passwords_strategy,
        top=st.one_of(st.none(), st.integers(min_value=1, max_value=10**9)),
    )
    @settings(max_examples=30)
    def test_lookup_round_trips(self, passwords, top):
        payload = {"op": "lookup", "passwords": passwords}
        if top is not None:
            payload["top"] = top
        request = parse_request(json.dumps(payload))
        assert request.passwords == passwords
        assert request.top == top


class TestArbitraryInputNeverCrashes:
    @given(line=st.text(max_size=300))
    @settings(max_examples=150)
    def test_any_text_parses_or_raises_protocol_error_only(self, line):
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            rendered = encode_response(error_response(str(exc)))
            assert "\n" not in rendered  # one-line error contract
            assert json.loads(rendered)["ok"] is False
        else:
            assert request.op in protocol.OPS

    @given(
        op=st.sampled_from(["score", "band", "guess_number", "lookup"]),
        field=st.sampled_from(["deadline_ms", "sample_size", "top"]),
        value=st.floats(allow_nan=True, allow_infinity=True),
    )
    @settings(max_examples=150)
    def test_any_float_field_parses_or_raises_protocol_error_only(self, op, field, value):
        # json.dumps writes NaN and +-Infinity, which json.loads accepts
        line = json.dumps({"op": op, "password": "x", field: value})
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            assert "\n" not in str(exc)
        else:
            assert isinstance(request, Request)

    @given(payload=st.dictionaries(st.text(max_size=10), st.integers(), max_size=5))
    @settings(max_examples=80)
    def test_any_json_object_parses_or_raises_protocol_error_only(self, payload):
        try:
            parse_request(json.dumps(payload))
        except ProtocolError:
            pass


class TestStrictValidation:
    @pytest.mark.parametrize(
        "line, match",
        [
            ("", "empty request"),
            ("   ", "empty request"),
            ("{not json", "not valid JSON"),
            ("[1,2,3]", "JSON object"),
            ('"scalar"', "JSON object"),
            ('{"op": "transmogrify"}', "unknown op"),
            ('{"op": 7}', "unknown op"),
            ('{"password": "x"}', "unknown op"),
            ('{"op": "score"}', "exactly one of"),
            ('{"op": "score", "password": "a", "passwords": ["b"]}', "exactly one of"),
            ('{"op": "score", "passwords": []}', "must not be empty"),
            ('{"op": "score", "passwords": ["a", 3]}', "list of strings"),
            ('{"op": "score", "password": 42}', "must be a string"),
            ('{"op": "score", "password": "x", "id": [1]}', "'id' must be"),
            ('{"op": "score", "password": "x", "deadline_ms": "soon"}', "must be a number"),
            ('{"op": "score", "password": "x", "deadline_ms": -1}', "must be >="),
            ('{"op": "score", "password": "x", "model": 9}', "must be a string"),
            ('{"op": "score", "password": "x", "turbo": true}', "unknown field"),
            ('{"op": "ping", "password": "x"}', "unknown field"),
            ('{"op": "guess_number", "password": "x", "seed": "a"}', "'seed' must be"),
            ('{"op": "guess_number", "password": "x", "sample_size": 0}', "must be >="),
            ('{"op": "guess_number", "password": "x", "sample_size": %d}'
             % (protocol.MAX_SAMPLE_SIZE + 1), "'sample_size' must be <= 16384"),
            ('{"op": "lookup", "password": "x", "top": 0}', "must be >="),
            ('{"op": "score", "password": "x", "deadline_ms": NaN}', "'deadline_ms' must be a finite number"),
            ('{"op": "score", "password": "x", "deadline_ms": Infinity}', "'deadline_ms' must be a finite number"),
            ('{"op": "guess_number", "password": "x", "sample_size": NaN}', "'sample_size' must be a finite number"),
            ('{"op": "guess_number", "password": "x", "sample_size": Infinity}', "'sample_size' must be a finite number"),
            ('{"op": "guess_number", "password": "x", "sample_size": 1e999}', "'sample_size' must be a finite number"),
            ('{"op": "lookup", "password": "x", "top": NaN}', "'top' must be a finite number"),
            ('{"op": "lookup", "password": "x", "top": -Infinity}', "'top' must be a finite number"),
            ('{"op": "lookup", "password": "x", "top": 1e999}', "'top' must be a finite number"),
            ('{"op": "lookup", "password": "x", "top": 1' + "0" * 400 + "}", "'top' must be a finite number"),
        ],
    )
    def test_misuse_is_one_actionable_line(self, line, match):
        with pytest.raises(ProtocolError, match=match):
            parse_request(line)

    def test_password_count_cap(self):
        line = json.dumps(
            {"op": "score", "passwords": ["x"] * (MAX_PASSWORDS_PER_REQUEST + 1)}
        )
        with pytest.raises(ProtocolError, match="at most"):
            parse_request(line)

    def test_line_length_cap(self):
        line = '{"op": "score", "password": "' + "a" * protocol.MAX_LINE_BYTES + '"}'
        with pytest.raises(ProtocolError, match="longer than"):
            parse_request(line)


class TestResponses:
    def test_ok_response_carries_payload_and_id(self):
        response = ok_response("score", "req-1", score=3, band="strong")
        assert response == {
            "ok": True, "op": "score", "id": "req-1", "score": 3, "band": "strong",
        }

    def test_error_response_flattens_newlines(self):
        response = error_response("boom\nwith\ttraceback\nlines", 7)
        assert response["error"] == "boom with traceback lines"
        assert response["id"] == 7
        assert "\n" not in encode_response(response)

    def test_encode_is_deterministic_single_line(self):
        a = encode_response(ok_response("stats", None, b=1, a=2))
        b = encode_response(ok_response("stats", None, a=2, b=1))
        assert a == b  # sorted keys: byte-stable responses
        assert "\n" not in a
