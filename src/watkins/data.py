"""Curve data acquisition: packaged fixtures, local cache, remote table.

Resolution order is fixtures, then the JSONL cache, then the network
(refused entirely when offline).  Cache and fixture lines share one
checksummed format so a flipped byte in either is caught, not served:

    {"row": {...}, "sha256": "<hex of the canonical row JSON>"}

Remote rows are untrusted input: everything recomputable is recomputed
and compared before a CurveRecord is built from them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .ecq import CurveRecord, build_curve_record
from .errors import CorruptCache, NetworkError, NotFound, SchemaMismatch, ValidationError

_ROW_FIELDS = (
    "label",
    "ainvs",
    "conductor",
    "moddeg",
    "manin",
    "rank",
    "torsion_structure",
    "source",
    "fetched_at",
)


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


def _canonical_row_json(row_obj: dict) -> str:
    return json.dumps(row_obj, sort_keys=True, separators=(",", ":"))


def row_to_line(row: CurveDataRow) -> str:
    obj = row._asdict()
    obj["ainvs"] = list(row.ainvs)
    if row.torsion_structure is not None:
        obj["torsion_structure"] = list(row.torsion_structure)
    digest = hashlib.sha256(_canonical_row_json(obj).encode()).hexdigest()
    return json.dumps({"row": obj, "sha256": digest}, separators=(",", ":"))


def row_from_line(line: str, *, offset: int | None = None) -> CurveDataRow:
    try:
        wrapper = json.loads(line)
        obj = wrapper["row"]
        digest = wrapper["sha256"]
    except (json.JSONDecodeError, KeyError, TypeError) as err:
        raise CorruptCache(f"unparseable cache line: {err}", offset=offset) from err
    if hashlib.sha256(_canonical_row_json(obj).encode()).hexdigest() != digest:
        raise CorruptCache("cache line failed its checksum", offset=offset)
    try:
        kwargs = {k: obj[k] for k in _ROW_FIELDS}
    except KeyError as err:
        raise CorruptCache(f"cache row missing field {err}", offset=offset) from err
    kwargs["ainvs"] = tuple(kwargs["ainvs"])
    if kwargs["torsion_structure"] is not None:
        kwargs["torsion_structure"] = tuple(kwargs["torsion_structure"])
    return CurveDataRow(**kwargs)


class CurveCache:
    """Append-only JSONL cache; the newest line for a label wins."""

    def __init__(self, directory: str | os.PathLike | None = None):
        if directory is None:
            directory = os.environ.get("WATKINS_CACHE_DIR") or Path.home() / ".cache" / "watkins"
        self.directory = Path(directory)
        self.path = self.directory / "curves.jsonl"

    def _iter_lines(self):
        if not self.path.exists():
            return
        offset = 0
        with open(self.path, "rb") as fh:
            for raw in fh:
                line = raw.decode("utf-8").strip()
                if line:
                    yield offset, line
                offset += len(raw)

    def iter_rows(self):
        for offset, line in self._iter_lines():
            yield row_from_line(line, offset=offset)

    def get(self, label: str) -> CurveDataRow | None:
        found = None
        for row in self.iter_rows():
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
    out: dict[str, CurveDataRow] = {}
    ref = resources.files("watkins").joinpath("fixtures/curves.jsonl")
    with ref.open("r", encoding="utf-8") as fh:
        offset = 0
        for raw in fh:
            line = raw.strip()
            if line:
                row = row_from_line(line, offset=offset)
                out[row.label] = row
            offset += len(raw.encode("utf-8"))
    return out


# ---------------------------------------------------------------------------
# remote access

_BASE_URL = "https://www.lmfdb.org/api/ec_curvedata/"

# Documented field mapping for the remote table; anything outside this
# shape raises SchemaMismatch instead of being guessed at.
_LABEL_KEYS = ("label", "Clabel", "lmfdb_label")


def _row_from_remote(obj: dict, source: str) -> CurveDataRow:
    if not isinstance(obj, dict):
        raise SchemaMismatch(f"expected a JSON object per curve, got {type(obj).__name__}")
    label = next((obj[k] for k in _LABEL_KEYS if obj.get(k)), None)
    if label is None:
        raise SchemaMismatch("remote row carries no recognizable label field")
    ainvs = obj.get("ainvs")
    if isinstance(ainvs, str):
        try:
            ainvs = json.loads(ainvs)
        except json.JSONDecodeError as err:
            raise SchemaMismatch(f"unparseable ainvs string: {ainvs!r}") from err
    if not isinstance(ainvs, list) or len(ainvs) != 5 or not all(isinstance(a, int) for a in ainvs):
        raise SchemaMismatch(f"ainvs should be five integers, got {ainvs!r}")
    conductor = obj.get("conductor")
    if not isinstance(conductor, int):
        raise SchemaMismatch("remote row carries no integer conductor")
    torsion = obj.get("torsion_structure")
    if torsion is not None and not (
        isinstance(torsion, list) and all(isinstance(t, int) for t in torsion)
    ):
        raise SchemaMismatch(f"unexpected torsion_structure {torsion!r}")

    def opt_int(key):
        v = obj.get(key)
        if v is None:
            return None
        if not isinstance(v, int):
            raise SchemaMismatch(f"{key} should be an integer, got {v!r}")
        return v

    return CurveDataRow(
        label=str(label),
        ainvs=tuple(ainvs),
        conductor=conductor,
        moddeg=opt_int("degree"),
        manin=opt_int("manin_constant"),
        rank=opt_int("rank"),
        torsion_structure=tuple(torsion) if torsion is not None else None,
        source=source,
        fetched_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


class LmfdbClient:
    """Thin client for the curve table; transport is injectable."""

    def __init__(self, transport=None, *, base_url: str = _BASE_URL, delay: float = 0.5):
        if transport is None:
            import requests

            transport = requests
        self.transport = transport
        self.base_url = base_url
        self.delay = delay
        self._last_call = 0.0

    def _get(self, params: dict) -> list[dict]:
        wait = self._last_call + self.delay - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        try:
            resp = self.transport.get(self.base_url, params=params, timeout=30)
        except Exception as err:  # transport-specific failures all count
            raise NetworkError(f"remote query failed: {err}") from err
        finally:
            self._last_call = time.monotonic()
        if getattr(resp, "status_code", 0) != 200:
            raise NetworkError(f"remote query returned status {resp.status_code}")
        try:
            payload = resp.json()
        except Exception as err:
            raise SchemaMismatch("remote response is not JSON") from err
        data = payload.get("data") if isinstance(payload, dict) else None
        if not isinstance(data, list):
            raise SchemaMismatch("remote response has no data list")
        return data

    def by_label(self, label: str) -> CurveDataRow:
        key = "lmfdb_label" if "." in label else "Clabel"
        data = self._get({key: label, "_format": "json"})
        if not data:
            raise NotFound(f"no remote row for label {label}")
        return _row_from_remote(data[0], source="lmfdb")


def fetch_curve(
    label: str,
    *,
    offline: bool = False,
    cache: CurveCache | None = None,
    client: LmfdbClient | None = None,
    fixtures: dict[str, CurveDataRow] | None = None,
) -> CurveDataRow:
    """Resolve a label: fixtures, then cache, then remote.

    offline=True never constructs or touches a transport; a miss is
    NotFound.  Remote hits are written back to the cache.
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
    if client is None:
        client = LmfdbClient()
    row = client.by_label(label)
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
    if row.manin is not None and row.manin < 1:
        raise ValidationError(f"{row.label}: Manin constant {row.manin} is not positive")
    record = build_curve_record(
        row.ainvs,
        moddeg=row.moddeg,
        manin=row.manin,
        rank=row.rank,
        label=row.label,
        source=row.source,
        fetched_at=row.fetched_at,
    )
    if record.conductor.value != row.conductor:
        raise ValidationError(
            f"{row.label}: remote conductor {row.conductor} != computed {record.conductor.value}"
        )
    return record
