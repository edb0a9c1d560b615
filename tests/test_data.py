"""Fixture loading, cache integrity, remote parsing, and validation."""

import json
import time

import pytest

from watkins.data import (
    CurveCache,
    CurveDataRow,
    LmfdbClient,
    fetch_curve,
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


class FakeResponse:
    def __init__(self, payload, status=200, bad_json=False):
        self.status_code = status
        self._payload = payload
        self._bad = bad_json

    def json(self):
        if self._bad:
            raise ValueError("not json")
        return self._payload


class FakeTransport:
    """Queue of canned responses; records every request it serves."""

    def __init__(self, *responses):
        self.responses = list(responses)
        self.calls = []

    def get(self, url, params=None, timeout=None):
        self.calls.append((url, dict(params or {}), timeout))
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


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
    {"manin": 1.0},
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


def test_by_label_parses_and_maps_fields():
    transport = FakeTransport(FakeResponse(_remote_payload()))
    client = LmfdbClient(transport, delay=0)
    row = client.by_label("389a1")
    assert row.ainvs == (0, 1, 1, -2, 0)
    assert row.moddeg == 40 and row.manin == 1 and row.rank == 2
    assert row.source == "lmfdb" and row.fetched_at

    url, params, timeout = transport.calls[0]
    assert params == {"Clabel": "389a1", "_format": "json"}
    assert timeout == 30


def test_by_label_key_depends_on_label_shape():
    transport = FakeTransport(FakeResponse(_remote_payload(Clabel="389.a1")))
    client = LmfdbClient(transport, delay=0)
    client.by_label("389.a1")
    assert transport.calls[0][1]["lmfdb_label"] == "389.a1"


def test_remote_schema_mismatches():
    cases = [
        _remote_payload(ainvs="[0,1,1"),  # unparseable string
        _remote_payload(ainvs=[0, 1, 1]),  # wrong arity
        _remote_payload(conductor="389"),  # stringly conductor
        _remote_payload(degree="40"),  # stringly degree
        _remote_payload(torsion_structure=["2"]),
        _remote_payload(Clabel=None),  # no label at all
        _remote_payload(rank=-1),
    ]
    for payload in cases:
        client = LmfdbClient(FakeTransport(FakeResponse(payload)), delay=0)
        with pytest.raises(SchemaMismatch):
            client.by_label("389a1")


def test_remote_envelope_failures():
    for response in (
        FakeResponse({}, status=503),
        FakeResponse({}, bad_json=True),
        FakeResponse({"rows": []}),  # no data list
        FakeResponse([1, 2, 3]),  # not even an object
    ):
        client = LmfdbClient(FakeTransport(response), delay=0)
        with pytest.raises((NetworkError, SchemaMismatch)):
            client.by_label("389a1")


def test_transport_exception_becomes_network_error():
    client = LmfdbClient(FakeTransport(OSError("connection refused")), delay=0)
    with pytest.raises(NetworkError):
        client.by_label("389a1")


def test_empty_result_is_not_found():
    client = LmfdbClient(FakeTransport(FakeResponse({"data": []})), delay=0)
    with pytest.raises(NotFound):
        client.by_label("389a1")


def test_rate_limit_spacing():
    transport = FakeTransport(FakeResponse(_remote_payload()), FakeResponse(_remote_payload()))
    client = LmfdbClient(transport, delay=0.05)
    start = time.monotonic()
    client.by_label("389a1")
    client.by_label("389a1")
    assert time.monotonic() - start >= 0.05


# --- fetch resolution ----------------------------------------------------------------


class ExplodingClient:
    def by_label(self, label):
        raise AssertionError("network path must not be taken")


def test_fetch_prefers_fixtures(tmp_path):
    row = fetch_curve("17a1", cache=CurveCache(tmp_path), client=ExplodingClient())
    assert row.moddeg == 1


def test_fetch_falls_back_to_cache(tmp_path):
    cache = CurveCache(tmp_path)
    cache.put(ROW_389)
    row = fetch_curve("389a1", cache=cache, client=ExplodingClient())
    assert row == ROW_389


def test_fetch_offline_miss(tmp_path):
    with pytest.raises(NotFound):
        fetch_curve("389a1", offline=True, cache=CurveCache(tmp_path), client=ExplodingClient())


def test_fetch_remote_writes_back(tmp_path):
    cache = CurveCache(tmp_path)
    client = LmfdbClient(FakeTransport(FakeResponse(_remote_payload())), delay=0)
    row = fetch_curve("389a1", cache=cache, client=client)
    assert row.moddeg == 40
    assert cache.get("389a1") == row  # cached for next time
    again = fetch_curve("389a1", cache=cache, client=ExplodingClient())
    assert again == row


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
    with pytest.raises(ValidationError):
        record_from_row(ROW_389._replace(manin=0))


def test_record_from_row_carries_invariants():
    rec = record_from_row(ROW_389)
    assert rec.label == "389a1"
    assert rec.moddeg == 40 and rec.manin == 1
    assert rec.conductor.value == 389
