"""Curve data acquisition: packaged fixtures, local cache, remote table.

Resolution order is fixtures, then the JSONL cache, then the network
(refused entirely when offline).  Cache and fixture lines share one
checksummed format so a flipped byte in either is caught, not served:

    {"row": {...}, "sha256": "<hex of the canonical row JSON>"}

Every row is untrusted input.  Cache, fixture and remote rows pass one
field check (`row_from_obj`), and everything recomputable is recomputed
and compared before a CurveRecord is built from them.

The digest is the built-in SHA-256, as `random` takes its SHA-512:
`hashlib` maps OpenSSL, megabytes and milliseconds on a cold verify.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterator, NamedTuple
from urllib.parse import urlencode  # pathlib loads it already

from .ecq import CurveRecord, build_curve_record
from .errors import CorruptCache, NetworkError, NotFound, SchemaMismatch, ValidationError

try:
    from _sha2 import sha256 as _builtin_sha256  # CPython 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _builtin_sha256  # CPython up to 3.11
    except ImportError:
        _builtin_sha256 = None


class CurveDataRow(NamedTuple):
    """One externally sourced curve, as stored on disk."""

    label: str
    ainvs: tuple[int, int, int, int, int]
    conductor: int
    moddeg: int | None = None
    manin: int | None = None
    rank: int | None = None
    torsion_structure: tuple[int, ...] | None = None
    source: str = "unknown"
    fetched_at: str | None = None


def _ints(v) -> bool:
    # JSON true and false load as bools, which are ints to isinstance
    return isinstance(v, list) and all(type(a) is int for a in v)


def row_from_obj(obj) -> CurveDataRow:
    """The row a dict in the on-disk schema holds, every field type-checked.

    Every field of CurveDataRow must be present; SchemaMismatch names
    the first one that is missing or of the wrong type, a modular degree
    or Manin constant below 1, or a negative rank.
    """
    if not isinstance(obj, dict):
        raise SchemaMismatch(f"expected a JSON object per curve, got {type(obj).__name__}")
    try:
        row = CurveDataRow(**{k: obj[k] for k in CurveDataRow._fields})
    except KeyError as err:
        raise SchemaMismatch(f"row missing field {err}") from err
    label, ainvs, conductor, moddeg, manin, rank, torsion, source, fetched_at = row
    for ok, field, want in (
        (isinstance(label, str) and label, "label", "a non-empty string"),
        (_ints(ainvs) and len(ainvs) == 5, "ainvs", "five integers"),
        (type(conductor) is int, "conductor", "an integer"),
        (moddeg is None or (type(moddeg) is int and moddeg > 0), "moddeg", "a positive integer or null"),
        (manin is None or (type(manin) is int and manin > 0), "manin", "a positive integer or null"),
        (rank is None or (type(rank) is int and rank >= 0), "rank", "a non-negative integer or null"),
        (torsion is None or _ints(torsion), "torsion_structure", "a list of integers or null"),
        (isinstance(source, str), "source", "a string"),
        (fetched_at is None or isinstance(fetched_at, str), "fetched_at", "a string or null"),
    ):
        if not ok:
            raise SchemaMismatch(f"row field {field} should be {want}, got {obj[field]!r}")
    return row._replace(ainvs=tuple(ainvs), torsion_structure=None if torsion is None else tuple(torsion))


def _row_digest(row_obj: dict) -> str:
    sha256 = _builtin_sha256
    if sha256 is None:
        from hashlib import sha256
    return sha256(json.dumps(row_obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def row_to_line(row: CurveDataRow) -> str:
    obj = row._asdict()
    obj["ainvs"] = list(row.ainvs)
    if row.torsion_structure is not None:
        obj["torsion_structure"] = list(row.torsion_structure)
    return json.dumps({"row": obj, "sha256": _row_digest(obj)}, separators=(",", ":"))


def row_from_line(line: str | bytes, *, offset: int | None = None, label: str | None = None) -> CurveDataRow | None:
    """The row of one cache or fixture line; CorruptCache, at offset, if it fails a check.

    With label given, a line that passes its checksum but not the field
    check is skipped, and None returned, unless it names that label.
    """
    try:
        wrapper = json.loads(line)
        obj = wrapper["row"]
        digest = wrapper["sha256"]
    except (ValueError, KeyError, TypeError) as err:  # ValueError covers bad JSON and bad UTF-8
        raise CorruptCache(f"unparseable cache line: {err}", offset=offset) from err
    if _row_digest(obj) != digest:
        raise CorruptCache("cache line failed its checksum", offset=offset)
    try:
        return row_from_obj(obj)
    except SchemaMismatch as err:
        if label is not None and not (isinstance(obj, dict) and obj.get("label") == label):
            return None
        raise CorruptCache(f"cache {err}", offset=offset) from err


def _read_rows(fh, label: str | None = None) -> Iterator[CurveDataRow]:
    """The checked rows of a binary JSONL file; a bad line's CorruptCache names the file, line and byte offset."""
    offset = 0
    for lineno, raw in enumerate(fh, 1):
        if raw.strip():
            try:
                row = row_from_line(raw, offset=offset, label=label)
            except CorruptCache as err:
                raise CorruptCache(f"{fh.name} line {lineno} (byte {offset}): {err}", offset=offset) from err
            if row is not None:
                yield row
        offset += len(raw)


class CurveCache:
    """Append-only JSONL cache; the newest line for a label wins."""

    def __init__(self, directory: str | os.PathLike | None = None):
        if directory is None:
            directory = os.environ.get("WATKINS_CACHE_DIR") or Path.home() / ".cache" / "watkins"
        self.directory = Path(directory)
        self.path = self.directory / "curves.jsonl"

    def iter_rows(self, label: str | None = None) -> Iterator[CurveDataRow]:
        """Every row; with label given, rows of other labels that fail the field check are skipped."""
        if self.path.exists():
            with open(self.path, "rb") as fh:
                yield from _read_rows(fh, label)

    def get(self, label: str) -> CurveDataRow | None:
        found = None
        for row in self.iter_rows(label):
            if row.label == label:
                found = row
        return found

    def put(self, row: CurveDataRow) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(row_to_line(row) + "\n")


@lru_cache(maxsize=1)
def load_fixtures() -> dict[str, CurveDataRow]:
    """Curves shipped with the package, keyed by label."""
    with resources.files("watkins").joinpath("fixtures/curves.jsonl").open("rb") as fh:
        return {row.label: row for row in _read_rows(fh)}


# ---------------------------------------------------------------------------
# remote access

_BASE_URL = "https://www.lmfdb.org/api/ec_curvedata/"

# Documented field mapping for the remote table; anything outside this
# shape raises SchemaMismatch instead of being guessed at.
_LABEL_KEYS = ("label", "Clabel", "lmfdb_label")


def _row_from_remote(obj: dict) -> CurveDataRow:
    if not isinstance(obj, dict):
        raise SchemaMismatch(f"expected a JSON object per curve, got {type(obj).__name__}")
    ainvs = obj.get("ainvs")
    if isinstance(ainvs, str):
        try:
            ainvs = json.loads(ainvs)
        except json.JSONDecodeError as err:
            raise SchemaMismatch(f"unparseable ainvs string: {ainvs!r}") from err
    return row_from_obj(
        {
            "label": next((obj[k] for k in _LABEL_KEYS if obj.get(k)), None),
            "ainvs": ainvs,
            "conductor": obj.get("conductor"),
            "moddeg": obj.get("degree"),
            "manin": obj.get("manin_constant"),
            "rank": obj.get("rank"),
            "torsion_structure": obj.get("torsion_structure"),
            "source": "lmfdb",
            "fetched_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
    )


def fetch_remote(label: str) -> CurveDataRow:
    """The remote table's row for label, from one query with a 30 s timeout."""
    # imported here, so that a verify that never leaves the cache does not load http or ssl
    from urllib.request import Request, urlopen

    key = "lmfdb_label" if "." in label else "Clabel"
    url = _BASE_URL + "?" + urlencode({key: label, "_format": "json"})
    try:
        # urllib's default agent is one that some hosts' bot filters refuse
        with urlopen(Request(url, headers={"User-Agent": "watkins"}), timeout=30) as resp:
            body = resp.read()
    except Exception as err:  # OSError (URLError, HTTPError, timeouts) and http.client.HTTPException alike
        raise NetworkError(f"remote query failed: {err}") from err
    try:
        payload = json.loads(body)
    except ValueError as err:  # bad JSON and bad UTF-8 alike
        raise SchemaMismatch("remote response is not JSON") from err
    data = payload.get("data") if isinstance(payload, dict) else None
    if not isinstance(data, list):
        raise SchemaMismatch("remote response has no data list")
    if not data:
        raise NotFound(f"no remote row for label {label}")
    return _row_from_remote(data[0])


def fetch_curve(
    label: str,
    *,
    offline: bool = False,
    cache: CurveCache | None = None,
    fixtures: dict[str, CurveDataRow] | None = None,
) -> CurveDataRow:
    """Resolve a label: fixtures, then cache, then remote.

    offline=True never touches the network; a miss is NotFound.  Remote
    hits are written back to the cache.
    """
    if fixtures is None:
        fixtures = load_fixtures()
    if label in fixtures:
        return fixtures[label]
    if cache is None:
        cache = CurveCache()
    hit = cache.get(label)
    if hit is not None:
        return hit
    if offline:
        raise NotFound(f"{label} not available offline")
    row = fetch_remote(label)
    cache.put(row)
    return row


# ---------------------------------------------------------------------------
# validation against recomputation


class Discrepancy(NamedTuple):
    field: str
    remote: object
    local: object


def _torsion_two_rank(structure: tuple[int, ...]) -> int:
    return sum(1 for inv in structure if inv % 2 == 0)


def validate_row(row: CurveDataRow, record: CurveRecord) -> list[Discrepancy]:
    """Soft comparison of remote claims against recomputed facts."""
    out = []
    if record.conductor.value != row.conductor:
        out.append(Discrepancy("conductor", row.conductor, record.conductor.value))
    if record.minimal_model.ainvs() != row.ainvs:
        out.append(Discrepancy("ainvs", list(row.ainvs), list(record.minimal_model.ainvs())))
    if row.torsion_structure is not None:
        local = record.two_torsion_rank
        remote = _torsion_two_rank(row.torsion_structure)
        if local != remote:
            out.append(Discrepancy("two_torsion_rank", remote, local))
    return out


def record_from_row(row: CurveDataRow) -> CurveRecord:
    """Build a verified CurveRecord; lies about the conductor are fatal."""
    record = build_curve_record(row.ainvs, moddeg=row.moddeg, manin=row.manin, label=row.label)
    if record.conductor.value != row.conductor:
        raise ValidationError(
            f"{row.label}: remote conductor {row.conductor} != computed {record.conductor.value}"
        )
    return record
