"""Fixture loading, cache integrity, remote parsing, and validation."""

import hashlib
import http.client
import io
import json
import socket
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

import pytest

import watkins
from watkins import data
from watkins.data import (
    CurveCache,
    CurveDataRow,
    fetch_curve,
    fetch_remote,
    load_fixtures,
    record_from_row,
    row_from_line,
    row_from_obj,
    row_to_line,
    validate_row,
)
from watkins.errors import (
    CorruptCache,
    NetworkError,
    NotFound,
    SchemaMismatch,
    ValidationError,
)

from conftest import checksummed_line

ROW_389 = CurveDataRow(
    label="389a1",
    ainvs=(0, 1, 1, -2, 0),
    conductor=389,
    moddeg=40,
    manin=1,
    rank=2,
    torsion_structure=(),
    source="test",
)


class FakeOpener:
    """Stands in for urllib.request.urlopen: a queue of replies, and every request it saw.

    A reply is an exception to raise, a response to return, or a body: bytes, or an object sent as JSON.
    """

    def __init__(self, *replies):
        self.replies = list(replies)
        self.calls = []

    def __call__(self, request, timeout=None):
        self.calls.append((request, timeout))
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        if isinstance(reply, io.IOBase):
            return reply
        return io.BytesIO(reply if isinstance(reply, bytes) else json.dumps(reply).encode())


class CutOffBody(io.BytesIO):
    """A response whose connection drops while the body is read."""

    def read(self, *args):
        raise http.client.IncompleteRead(b"{", 10)


@pytest.fixture
def opener(monkeypatch):
    """Install a FakeOpener; the test fills its replies."""
    fake = FakeOpener()
    monkeypatch.setattr(urllib.request, "urlopen", fake)
    return fake


def _remote_payload(**overrides):
    obj = {
        "Clabel": "389a1",
        "ainvs": "[0,1,1,-2,0]",
        "conductor": 389,
        "degree": 40,
        "manin_constant": 1,
        "rank": 2,
        "torsion_structure": [],
    }
    obj.update(overrides)
    return {"data": [obj]}


# --- line format ---------------------------------------------------------------


def test_row_line_roundtrip():
    line = row_to_line(ROW_389)
    assert row_from_line(line) == ROW_389
    wrapper = json.loads(line)
    assert set(wrapper) == {"row", "sha256"}


def _hashlib_digest(row: dict) -> str:
    return hashlib.sha256(json.dumps(row, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_checksums_are_hashlib_sha256(tmp_path, monkeypatch):
    # rows are checksummed by the interpreter's built-in SHA-256, which must give hashlib's digests
    assert data._builtin_sha256 is not None
    lines = (Path(watkins.__file__).parent / "fixtures" / "curves.jsonl").read_text().splitlines()
    wrappers = [json.loads(line) for line in lines if line.strip()]
    assert len(wrappers) == 21
    for wrapper in wrappers:
        assert wrapper["sha256"] == _hashlib_digest(wrapper["row"]) == data._row_digest(wrapper["row"])

    cache = CurveCache(tmp_path)
    cache.put(ROW_389)
    (line,) = cache.path.read_text().splitlines()
    wrapper = json.loads(line)
    assert wrapper["sha256"] == _hashlib_digest(wrapper["row"])
    assert cache.get("389a1") == ROW_389

    # a build without the built-in module falls back to hashlib, with the same bytes
    monkeypatch.setattr(data, "_builtin_sha256", None)
    assert row_to_line(ROW_389) == line
    assert row_from_line(line) == ROW_389


def test_checksum_catches_single_field_edit():
    line = row_to_line(ROW_389)
    tampered = line.replace('"conductor":389', '"conductor":388')
    assert tampered != line
    with pytest.raises(CorruptCache):
        row_from_line(tampered)


def test_unparseable_line():
    with pytest.raises(CorruptCache):
        row_from_line("{not json")
    with pytest.raises(CorruptCache):
        row_from_line('{"sha256": "00"}')


def test_missing_field_is_corrupt():
    obj = json.loads(row_to_line(ROW_389))["row"]
    del obj["rank"]
    with pytest.raises(CorruptCache, match="missing field"):
        row_from_line(checksummed_line(obj))


# one wrongly typed field each; every one passes its checksum
BAD_FIELDS = [
    {"label": ""},
    {"label": 389},
    {"ainvs": 5},
    {"ainvs": [0, 1, 1, -2]},
    {"ainvs": [0, 1, None, -2, 0]},
    {"ainvs": [0, True, 1, -2, 0]},
    {"ainvs": "[0,1,1,-2,0]"},
    {"conductor": "389"},
    {"conductor": None},
    {"moddeg": "40"},
    {"moddeg": 0},
    {"manin": 1.0},
    {"manin": -1},
    {"rank": -1},
    {"rank": "2"},
    {"torsion_structure": ["2"]},
    {"torsion_structure": 2},
    {"source": None},
    {"fetched_at": 0},
]


@pytest.mark.parametrize("bad", BAD_FIELDS, ids=json.dumps)
def test_row_check_refuses_wrongly_typed_fields(bad):
    obj = {**json.loads(row_to_line(ROW_389))["row"], **bad}
    (field,) = bad
    with pytest.raises(SchemaMismatch, match=f"row field {field} "):
        row_from_obj(obj)
    with pytest.raises(CorruptCache, match=f"row field {field} ") as exc:
        row_from_line(checksummed_line(obj), offset=7)
    assert exc.value.offset == 7


def test_row_check_takes_rows_in_the_on_disk_schema():
    obj = json.loads(row_to_line(ROW_389))["row"]
    assert row_from_obj(obj) == ROW_389
    assert row_from_obj({**obj, "rank": None, "torsion_structure": None, "extra": 1}) == ROW_389._replace(
        rank=None, torsion_structure=None
    )
    for not_a_dict in ([obj], None, "row"):
        with pytest.raises(SchemaMismatch):
            row_from_obj(not_a_dict)


def test_offset_is_reported(tmp_path):
    cache = CurveCache(tmp_path)
    cache.put(ROW_389)
    good_len = cache.path.stat().st_size
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write('{"broken": true}\n')
    with pytest.raises(CorruptCache) as exc:
        list(cache.iter_rows())
    assert exc.value.offset == good_len


def test_cache_and_fixture_lines_share_one_reader(tmp_path, packaged_fixtures):
    # a blank line, a good line, then bytes that are not UTF-8, in both files
    good = row_to_line(ROW_389).encode()
    cache = CurveCache(tmp_path / "cache")
    cache.directory.mkdir()
    for path in (cache.path, packaged_fixtures):
        path.write_bytes(b"\n" + good + b"\n\xc3(\n")
    for read in (lambda: list(cache.iter_rows()), load_fixtures):
        with pytest.raises(CorruptCache) as exc:
            read()
        assert exc.value.offset == len(good) + 2
    packaged_fixtures.write_bytes(good + b"\n")
    load_fixtures.cache_clear()
    assert load_fixtures() == {"389a1": ROW_389}


# --- cache ----------------------------------------------------------------------


def test_cache_put_get_last_wins(tmp_path):
    cache = CurveCache(tmp_path)
    assert cache.get("389a1") is None
    cache.put(ROW_389)
    cache.put(ROW_389._replace(rank=None))
    got = cache.get("389a1")
    assert got.rank is None  # newest line wins
    assert cache.get("nope") is None


def test_cache_get_skips_bad_rows_of_other_labels_only(tmp_path):
    cache = CurveCache(tmp_path)
    cache.put(ROW_389)
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write(checksummed_line({**ROW_389._asdict(), "label": "11a9", "ainvs": 5}) + "\n")
        fh.write(checksummed_line({**ROW_389._asdict(), "label": 7}) + "\n")  # no label to trust
    assert cache.get("389a1") == ROW_389
    assert cache.get("nope") is None
    for read in (lambda: cache.get("11a9"), lambda: list(cache.iter_rows())):
        with pytest.raises(CorruptCache, match="line 2 .* field ainvs"):
            read()
    # a line that fails its checksum carries no label to trust, so it blocks every lookup
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write(checksummed_line({**ROW_389._asdict(), "label": "11a8"}).replace("389", "388") + "\n")
    with pytest.raises(CorruptCache, match="line 4 .* checksum"):
        cache.get("389a1")


def test_cache_honours_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("WATKINS_CACHE_DIR", str(tmp_path / "elsewhere"))
    cache = CurveCache()
    cache.put(ROW_389)
    assert (tmp_path / "elsewhere" / "curves.jsonl").exists()


# --- packaged fixtures ------------------------------------------------------------


def test_fixtures_load_and_verify():
    rows = load_fixtures()
    assert len(rows) == 21
    assert rows["17a1"].moddeg == 1 and rows["17a1"].manin == 1
    assert rows["17a1"].ainvs == (1, -1, 1, -1, -14)


def test_fixtures_all_build_records(records, fixture_rows):
    for label, row in fixture_rows.items():
        assert validate_row(row, records[label]) == []


# --- remote parsing ----------------------------------------------------------------


def _query(request):
    parts = urlsplit(request.full_url)
    return f"{parts.scheme}://{parts.netloc}{parts.path}", dict(parse_qsl(parts.query))


def test_by_label_parses_and_maps_fields(opener):
    opener.replies.append(_remote_payload())
    row = fetch_remote("389a1")
    assert row.ainvs == (0, 1, 1, -2, 0)
    assert row.moddeg == 40 and row.manin == 1 and row.rank == 2
    assert row.source == "lmfdb" and row.fetched_at

    ((request, timeout),) = opener.calls
    assert _query(request) == ("https://www.lmfdb.org/api/ec_curvedata/", {"Clabel": "389a1", "_format": "json"})
    assert timeout == 30
    assert request.get_header("User-agent") == "watkins"


def test_by_label_key_depends_on_label_shape(opener):
    opener.replies.append(_remote_payload(Clabel="389.a1"))
    fetch_remote("389.a1")
    assert _query(opener.calls[0][0])[1] == {"lmfdb_label": "389.a1", "_format": "json"}


def test_remote_schema_mismatches(opener):
    cases = [
        _remote_payload(ainvs="[0,1,1"),  # unparseable string
        _remote_payload(ainvs=[0, 1, 1]),  # wrong arity
        _remote_payload(conductor="389"),  # stringly conductor
        _remote_payload(degree="40"),  # stringly degree
        _remote_payload(degree=0),
        _remote_payload(manin_constant=0),
        _remote_payload(torsion_structure=["2"]),
        _remote_payload(Clabel=None),  # no label at all
        _remote_payload(rank=-1),
        {"data": [[0, 1, 1, -2, 0]]},  # a row that is no object
    ]
    opener.replies.extend(cases)
    for _ in cases:
        with pytest.raises(SchemaMismatch):
            fetch_remote("389a1")


def test_remote_envelope_failures(opener):
    for body, match in (
        (b"<html>busy</html>", "not JSON"),
        (b"\xff\xfe{", "not JSON"),  # not even UTF-8
        ({"rows": []}, "no data list"),
        ([1, 2, 3], "no data list"),  # not even an object
        ({"data": {}}, "no data list"),
    ):
        opener.replies.append(body)
        with pytest.raises(SchemaMismatch, match=match):
            fetch_remote("389a1")


def test_transport_exception_becomes_network_error(opener):
    opener.replies.append(CutOffBody())
    with pytest.raises(NetworkError, match="remote query failed: IncompleteRead"):
        fetch_remote("389a1")
    for err, match in (
        (urllib.error.URLError(ConnectionRefusedError(111, "connection refused")), "connection refused"),
        (urllib.error.HTTPError("u", 503, "Service Unavailable", None, None), "HTTP Error 503"),
        (socket.timeout("timed out"), "timed out"),
        (http.client.IncompleteRead(b"{", 10), "IncompleteRead"),  # an HTTPException, not an OSError
        (http.client.RemoteDisconnected("closed without reply"), "closed without reply"),
    ):
        opener.replies.append(err)
        with pytest.raises(NetworkError, match=f"remote query failed: .*{match}"):
            fetch_remote("389a1")


def test_empty_result_is_not_found(opener):
    opener.replies.append({"data": []})
    with pytest.raises(NotFound, match="no remote row for label 389a1"):
        fetch_remote("389a1")


# --- fetch resolution ----------------------------------------------------------------


def test_fetch_prefers_fixtures(tmp_path, opener):
    row = fetch_curve("17a1", cache=CurveCache(tmp_path))
    assert row.moddeg == 1 and opener.calls == []


def test_fetch_falls_back_to_cache(tmp_path, opener):
    cache = CurveCache(tmp_path)
    cache.put(ROW_389)
    row = fetch_curve("389a1", cache=cache)
    assert row == ROW_389 and opener.calls == []


def test_fetch_offline_miss(tmp_path, opener):
    with pytest.raises(NotFound):
        fetch_curve("389a1", offline=True, cache=CurveCache(tmp_path))
    assert opener.calls == []


def test_fetch_remote_writes_back(tmp_path, opener):
    cache = CurveCache(tmp_path)
    opener.replies.append(_remote_payload())
    row = fetch_curve("389a1", cache=cache)
    assert row.moddeg == 40
    assert cache.get("389a1") == row  # cached for next time
    again = fetch_curve("389a1", cache=cache)
    assert again == row and len(opener.calls) == 1


# --- validation ------------------------------------------------------------------------


def test_validate_row_flags_soft_lies():
    row = ROW_389._replace(conductor=388, torsion_structure=(2,))
    record = record_from_row(ROW_389)
    fields = {d.field for d in validate_row(row, record)}
    assert fields == {"conductor", "two_torsion_rank"}


def test_validate_row_spots_non_minimal_input():
    row = CurveDataRow(label="x", ainvs=(0, 0, 0, -256, 0), conductor=32)
    record = record_from_row(row)  # conductor agrees after minimalization
    fields = {d.field for d in validate_row(row, record)}
    assert fields == {"ainvs"}
    assert record.minimal_model.ainvs() == (0, 0, 0, -1, 0)


def test_record_from_row_hard_failures():
    with pytest.raises(ValidationError):
        record_from_row(ROW_389._replace(conductor=388))
    # row_from_obj refuses a non-positive Manin constant on every read; a row built
    # by hand still meets build_curve_record's own check
    with pytest.raises(ValueError, match="Manin constant is a positive integer"):
        record_from_row(ROW_389._replace(manin=0))


def test_record_from_row_carries_invariants():
    rec = record_from_row(ROW_389)
    assert rec.label == "389a1"
    assert rec.moddeg == 40 and rec.manin == 1
    assert rec.conductor.value == 389
