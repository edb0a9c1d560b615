"""End-to-end command behaviour: exit codes, formats, determinism."""

import csv
import http.client
import io
import json
import os
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import watkins
from watkins import arith, cli, ecq
from watkins.certify import CERT_FIELDS
from watkins.cli import main
from watkins.errors import FactoringBudgetExceeded

from conftest import checksummed_line


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("WATKINS_CACHE_DIR", str(tmp_path / "cache"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


# --- exit codes -----------------------------------------------------------------


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--label", "17a1", "--offline", "--d", "5")
    assert code == 0
    assert json.loads(out)["verdict"] == "CERTIFIED"

    code, out, _ = run(capsys, "verify", "--label", "17a1", "--offline", "--d", "-3")
    assert code == 1
    assert json.loads(out)["verdict"] == "INCONCLUSIVE"

    code, out, _ = run(capsys, "verify", "--label", "11a1", "--offline", "--d", "5")
    assert code == 3
    assert json.loads(out)["verdict"] == "INAPPLICABLE(no_two_torsion)"


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--label", "17a1", "--offline", "--d", "1")
    assert code == 2 and err.startswith("error:")

    code, _, err = run(capsys, "verify", "--label", "17a1", "--offline", "--d", "20")
    assert code == 2 and err.startswith("error:")

    code, _, err = run(capsys, "verify", "--curve", "1,2,3", "--d", "5")
    assert code == 2 and "five" in err

    code, _, err = run(capsys, "verify", "--curve", "0,0,0,1.5,1", "--moddeg", "1", "--d", "5")
    assert code == 2 and "integers" in err

    code, _, err = run(capsys, "fetch", "--label", "999z9", "--offline")
    assert code == 2 and "not available offline" in err


def _verify_until_rho_gives_up(capsys, monkeypatch, d):
    """verify on d with a spy on _brent_rho: exit code, stderr, and each (n, error) rho gave up with."""
    raised, rho = [], arith._brent_rho

    def spy(n, steps):
        try:
            return rho(n, steps)
        except FactoringBudgetExceeded as err:
            raised.append((n, err))
            raise

    monkeypatch.setattr(arith, "_brent_rho", spy)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--label", "17a1", "--offline", "--d", str(d))
    assert time.perf_counter() - start < 5
    assert out == "" and len(raised) == 1 and err == f"error: {raised[0][1]}\n"
    return code, err, raised[0][0]


def test_a_d_rho_cannot_split_exits_two_within_seconds(capsys, monkeypatch):
    # 10^38 + 1 = 101 * a 36-digit composite with no prime factor rho reaches within RHO_STEPS
    code, err, n = _verify_until_rho_gives_up(capsys, monkeypatch, 10**38 + 1)
    assert code == 2 and n == 990099009900990099009900990099009901
    assert err.endswith(f"after {arith.RHO_STEPS} steps\n")  # below 256 bits a step costs one unit


def test_a_d_of_300_digits_exits_two_within_seconds(capsys, monkeypatch):
    # a rho step on the 860-bit composite is charged 6 units, so the budget bounds time, not steps;
    # three splits before it leave 3,149,864 of the call's RHO_STEPS units, 524,977 steps
    code, err, n = _verify_until_rho_gives_up(capsys, monkeypatch, 10**300 + 1)
    assert code == 2 and n.bit_length() == 860
    assert err.endswith("after 524977 steps\n")


def test_a_d_of_600_digits_exits_two_within_seconds(capsys, monkeypatch):
    # rho splits the cofactor twice and then gives up on a 1945-bit composite at 28 units a step,
    # with what is left of one budget for the whole factorization: 3,473,526 units, 124,054 steps
    code, err, n = _verify_until_rho_gives_up(capsys, monkeypatch, 10**600 + 1)
    assert code == 2 and n.bit_length() == 1945
    assert err.endswith("after 124054 steps\n")


@pytest.mark.parametrize("zeros", [3999, 9999])
def test_a_d_past_the_cofactor_cap_exits_two_within_seconds(capsys, zeros):
    # 10^4000 + 1 and 10^10000 + 1 leave over 13,000 bits past trial division, so factorize refuses
    # them before Miller-Rabin, one round of which takes seconds at that size
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # --d takes every digit, as with PYTHONINTMAXSTRDIGITS=0
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--label", "17a1", "--offline", "--d", "1" + "0" * zeros + "1")
        assert time.perf_counter() - start < 5
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err.startswith("error: trial division leaves") and err.endswith(f"past {arith.COFACTOR_BITS}\n")


@pytest.mark.parametrize("zeros", [3999, 9999])
def test_ap_past_the_budget_exits_two_within_seconds(capsys, zeros):
    # a_p refuses p past AP_BSGS_LIMIT before Miller-Rabin, one round of which takes seconds at this size
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # p takes every digit, as with PYTHONINTMAXSTRDIGITS=0
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, "ap", "--label", "17a1", "--offline", "1" + "0" * zeros + "1")
        assert time.perf_counter() - start < 5
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err.startswith("error: a_p at 1000") and err.endswith("0001 exceeds the point-counting budget\n")


def test_a_curve_with_a_large_two_division_constant_verifies_within_seconds(capsys):
    # rational 2-torsion is found without factoring 16 b6, whose cofactor past trial division has 41 digits
    curve = "0,1,0,-10737685738349923859307006813537,-5470259820718050594910720652148511698490129377"
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--curve", curve, "--moddeg", "1", "--manin", "1", "--d", "5")
    assert time.perf_counter() - start < 2
    # the first gate passes; the second fails, as the twist by 1388135011352 has a smaller conductor
    assert code == 3 and json.loads(out)["verdict"] == "INAPPLICABLE(not_minimal_twist)"


def test_argparse_usage_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--label", "17a1"])  # --d is required
    assert exc.value.code == 2
    capsys.readouterr()


# --- verify -----------------------------------------------------------------------


def test_verify_by_ainvs_with_invariants(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--curve",
        "0,0,0,-1,0",
        "--moddeg",
        "2",
        "--manin",
        "1",
        "--d",
        "5",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "CERTIFIED"
    assert obj["curve"] == "[0,0,0,-1,0]"


def test_every_command_names_a_curve_input_by_its_minimal_model(capsys):
    # y^2 = x^3 - 256x is y^2 = x^3 - x scaled by u = 4, so each command names it [0,0,0,-1,0]
    curve, invariants = ("--curve", "0, 0, 0, -256, 0"), ("--moddeg", "2", "--manin", "1")
    for argv in (
        ("threshold", *curve, *invariants),
        ("verify", *curve, *invariants, "--d", "5"),
        ("scan", *curve, *invariants, "--d-bound", "8"),
        ("ap", *curve, "5"),
        ("conductor", *curve),
        ("minimal-twist", *curve),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        rows = [json.loads(line) for line in out.splitlines()]
        assert {row["curve"] for row in rows if "summary" not in row} == {"[0,0,0,-1,0]"}, argv


def test_verify_missing_invariants_is_inapplicable(capsys):
    code, out, _ = run(capsys, "verify", "--curve", "0,0,0,-1,0", "--d", "5")
    assert code == 3
    assert json.loads(out)["verdict"] == "INAPPLICABLE(missing_invariant)"


def test_verify_csv_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--label", "17a1", "--offline", "--d", "5", "--format", "csv"
    )
    assert code == 0
    header, row = list(csv.reader(io.StringIO(out)))
    assert header == list(CERT_FIELDS)
    assert row[header.index("verdict")] == "CERTIFIED"
    assert json.loads(row[header.index("twist_conductor")])["value"] == "425"


def test_verify_out_file(capsys, tmp_path):
    target = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "verify", "--label", "17a1", "--offline", "--d", "5", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["verdict"] == "CERTIFIED"


@pytest.mark.parametrize("command", [["verify", "--d", "5"], ["scan", "--d-bound", "300"]])
@pytest.mark.parametrize("target", ["a directory", "a missing directory"])
def test_an_unwritable_out_exits_two(capsys, tmp_path, command, target):
    path = tmp_path if target == "a directory" else tmp_path / "missing" / "cert.json"
    code, out, err = run(capsys, *command, "--label", "17a1", "--offline", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err


def _program(argv, **kwargs) -> subprocess.Popen:
    """watkins in a fresh interpreter, its stdout block-buffered as it is under a shell pipe."""
    src = str(Path(watkins.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.Popen([sys.executable, "-m", "watkins.cli", *argv], env=env, stderr=subprocess.PIPE,
                            text=True, **kwargs)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_reader_that_leaves_a_scan_early_gets_exit_two_and_no_traceback(jobs):
    # watkins scan ... | head -1
    with _program(["scan", "--label", "17a1", "--offline", "--d-bound", "20000", "--jobs", jobs],
                  stdout=subprocess.PIPE) as proc:
        assert json.loads(proc.stdout.readline())["d"] == "-3"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_a_reader_gone_before_the_only_write_gets_exit_two_and_no_traceback():
    # a verify writes one buffered line, so the closed pipe shows only when stdout is flushed
    read, write = os.pipe()
    os.close(read)
    with _program(["verify", "--label", "17a1", "--offline", "--d", "5"], stdout=write) as proc:
        os.close(write)
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_verify_assume_manin(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--curve", "1,-1,1,-1,-14", "--moddeg", "1", "--assume-manin",
        "--d", "5",
    )
    assert code == 0
    assert json.loads(out)["assumptions"] == ["manin_assumed_1"]


# --- other subcommands ---------------------------------------------------------------


def test_threshold_command(capsys):
    code, out, _ = run(capsys, "threshold", "--label", "17a1", "--offline")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "curve": "17a1",
        "threshold": "11",
        "kappa": "9",
        "omega_n": "1",
        "v2_moddeg": "0",
        "assumptions": [],
    }


def test_threshold_missing_invariant_exits_two(capsys):
    code, _, err = run(capsys, "threshold", "--label", "11a2", "--offline")
    assert code == 2 and "modular degree" in err


def test_ap_command(capsys):
    code, out, _ = run(capsys, "ap", "--label", "17a1", "--offline", "5")
    assert code == 0
    assert json.loads(out) == {"curve": "17a1", "p": "5", "ap": "-2"}

    code, _, err = run(capsys, "ap", "--label", "17a1", "--offline", "15")
    assert code == 2 and "error:" in err


def test_conductor_command(capsys):
    code, out, _ = run(capsys, "conductor", "--label", "24a1", "--offline")
    assert code == 0
    obj = json.loads(out)
    assert obj["conductor"]["value"] == "24"
    assert obj["minimal_model"] == [0, -1, 0, -4, 4]
    at2 = next(r for r in obj["local"] if r["p"] == "2")
    assert at2 == {"p": "2", "kodaira": "I1*", "f": "3", "kind": "additive"}


def test_minimal_twist_command(capsys):
    code, out, _ = run(capsys, "minimal-twist", "--label", "17a1", "--offline")
    assert code == 0
    assert json.loads(out) == {"curve": "17a1", "is_minimal_twist": True, "witness": None}

    # the twist of 17a1 by 5, handed over as raw a-invariants
    code, out, _ = run(capsys, "minimal-twist", "--curve", "0,0,0,-22275,-81101250")
    assert code == 0
    obj = json.loads(out)
    assert obj["is_minimal_twist"] is False and obj["witness"] == "5"


def test_density_command(capsys):
    code, out, _ = run(capsys, "density", "100", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == "36"
    assert obj["fraction"] == 0.36
    assert "loglog" in obj["reference_shape"]
    assert obj["reference_value"] > 0


@pytest.mark.parametrize("x, a", [("-5", "2"), ("100", "-3")])
def test_density_rejects_negative_input(capsys, x, a):
    code, out, err = run(capsys, "density", x, a)
    assert code == 2 and out == ""
    assert err.startswith("error:") and ">= 0" in err


def test_conductor_command_reuses_the_record(capsys, monkeypatch):
    calls = []
    real = ecq.minimal_model
    monkeypatch.setattr(ecq, "minimal_model", lambda m, support=None: calls.append(m) or real(m, support))
    code, out, _ = run(capsys, "conductor", "--curve", "0,-1,0,-4,4")
    assert code == 0 and len(calls) == 1  # the record's, none for the local data
    assert json.loads(out)["local"] == [
        {"p": "2", "kodaira": "I1*", "f": "3", "kind": "additive"},
        {"p": "3", "kodaira": "I2", "f": "1", "kind": "multiplicative"},
    ]


# a cache row and a fixture row, each valid as it stands
ROW_389 = {"label": "389a1", "ainvs": [0, 1, 1, -2, 0], "conductor": 389, "moddeg": 40, "manin": 1,
           "rank": 2, "torsion_structure": [], "source": "lmfdb", "fetched_at": "2021-02-08T00:00:00Z"}
ROW_17 = {"label": "17a1", "ainvs": [1, -1, 1, -1, -14], "conductor": 17, "moddeg": 1, "manin": 1,
          "rank": 0, "torsion_structure": [4], "source": "builtin", "fetched_at": None}
BAD_FIELDS = [{"ainvs": 5}, {"ainvs": [0, 1, 1, -2]}, {"ainvs": [0, 1, None, -2, 0]},
              {"conductor": "389"}, {"moddeg": "2"}, {"moddeg": 0}, {"manin": 0}, {"rank": -1}]


@pytest.mark.parametrize("bad", [{}, *BAD_FIELDS], ids=json.dumps)
@pytest.mark.parametrize("source", ["cache", "fixture"])
def test_checksummed_row_of_the_wrong_type_exits_two(capsys, request, tmp_path, source, bad):
    if source == "cache":
        path, row, good = tmp_path / "cache" / "curves.jsonl", ROW_389, (3, "INAPPLICABLE(no_two_torsion)")
        path.parent.mkdir()
    else:
        path, row, good = request.getfixturevalue("packaged_fixtures"), ROW_17, (0, "CERTIFIED")
    path.write_text(checksummed_line({**row, **bad}) + "\n")
    code, out, err = run(capsys, "verify", "--label", row["label"], "--offline", "--d", "5")
    if bad:
        (field,) = bad
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path} line 1 (byte 0): cache row field {field} should be ")
    else:
        assert (code, json.loads(out)["verdict"]) == good


def test_corrupt_cache_line_is_named_by_file_and_line(capsys, tmp_path):
    cache = tmp_path / "cache" / "curves.jsonl"
    cache.parent.mkdir()
    first = checksummed_line(ROW_389) + "\n"
    second = checksummed_line({**ROW_389, "label": "389a9"}).replace('"conductor": 389', '"conductor": 388')
    cache.write_text(first + second + "\n")
    code, out, err = run(capsys, "fetch", "--label", "389a9", "--offline")
    assert code == 2 and out == ""
    assert err == f"error: {cache} line 2 (byte {len(first)}): cache line failed its checksum\n"


@pytest.mark.parametrize("asked", ["389a9", "11a9"])
def test_bad_cache_row_blocks_only_its_own_label(capsys, tmp_path, asked):
    # a good 389a9 line, then a checksummed 11a9 line whose ainvs are no list
    cache = tmp_path / "cache" / "curves.jsonl"
    cache.parent.mkdir()
    first = checksummed_line({**ROW_389, "label": "389a9"}) + "\n"
    cache.write_text(first + checksummed_line({**ROW_389, "label": "11a9", "ainvs": 5}) + "\n")
    code, out, err = run(capsys, "fetch", "--label", asked, "--offline")
    if asked == "389a9":
        assert (code, err) == (0, "") and json.loads(out)["label"] == "389a9"
    else:
        assert code == 2 and out == ""
        assert err == (f"error: {cache} line 2 (byte {len(first)}): "
                       "cache row field ainvs should be five integers, got 5\n")


def test_fetch_of_an_unknown_label_on_a_failing_network_exits_two(capsys, monkeypatch):
    def urlopen(request, timeout=None):
        raise http.client.IncompleteRead(b"", 10)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    code, out, err = run(capsys, "fetch", "--label", "389a1")
    assert (code, out) == (2, "")
    assert err == "error: remote query failed: IncompleteRead(0 bytes read, 10 more expected)\n"


def test_fetch_command(capsys):
    code, out, _ = run(capsys, "fetch", "--label", "17a1", "--offline")
    assert code == 0
    obj = json.loads(out)
    assert obj["label"] == "17a1"
    assert obj["ainvs"] == [1, -1, 1, -1, -14]
    assert obj["discrepancies"] == []


# --- scan -------------------------------------------------------------------------------


def test_scan_json_rows_and_summary(capsys):
    code, out, err = run(
        capsys,
        "scan", "--label", "17a1", "--offline", "--d-bound", "30",
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    rows = [json.loads(line) for line in lines[:-1]]
    assert len(rows) == int(summary["total"])
    assert summary["threshold"] == "11" and summary["kappa"] == "9"
    assert summary["min_omega"] == "0" and summary["d_bound"] == "30"

    verdicts = [r["verdict"].split("(")[0] for r in rows]
    assert verdicts.count("CERTIFIED") == int(summary["certified"])
    assert verdicts.count("INCONCLUSIVE") == int(summary["inconclusive"])
    assert verdicts.count("INAPPLICABLE") == int(summary["inapplicable"])
    ds = [int(r["d"]) for r in rows]
    assert ds == sorted(ds, key=lambda d: (abs(d), d < 0))


def test_scan_writes_each_certificate_before_drawing_the_next_d(capsys, monkeypatch):
    # the scan streams its discriminants: row k is written once k of them are drawn, and the summary last
    _, want, _ = run(capsys, "scan", "--label", "17a1", "--offline", "--d-bound", "30", "--jobs", "1")
    drawn, emitted = [], []
    enumerate_, emit, certificate_writer = cli.enumerate_fundamental_discriminants, cli._emit, cli._certificate_writer

    def recording(bound, **kwargs):
        for d in enumerate_(bound, **kwargs):
            drawn.append(d)
            yield d

    monkeypatch.setattr(cli, "enumerate_fundamental_discriminants", recording)
    def recording_writer(args, out):
        write = certificate_writer(args, out)
        return lambda cert: emitted.append(len(drawn)) or write(cert)

    monkeypatch.setattr(cli, "_certificate_writer", recording_writer)
    monkeypatch.setattr(cli, "_emit", lambda obj, out: emitted.append(len(drawn)) or emit(obj, out))  # the summary
    code, out, _ = run(capsys, "scan", "--label", "17a1", "--offline", "--d-bound", "30", "--jobs", "1")
    assert code == 0 and out == want
    assert emitted == [*range(1, len(drawn) + 1), len(drawn)]
    assert last_json(out)["summary"]["total"] == str(len(drawn))


def test_scan_csv_sends_summary_to_stderr(capsys):
    code, out, err = run(
        capsys,
        "scan", "--label", "17a1", "--offline", "--d-bound", "30", "--format", "csv",
    )
    assert code == 0
    header = next(csv.reader(io.StringIO(out)))
    assert header == list(CERT_FIELDS)
    assert "\r\n" in out  # RFC-4180 line endings
    summary = json.loads(err)["summary"]
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == int(summary["total"])


def test_scan_min_omega_filter(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--label", "17a1", "--offline", "--d-bound", "40", "--min-omega", "2",
    )
    assert code == 0
    from watkins.arith import factorize

    lines = out.strip().splitlines()
    rows = [json.loads(line) for line in lines[:-1]]
    assert rows and all(factorize(int(r["d"])).omega >= 2 for r in rows)


def test_scan_csv_and_json_agree(capsys):
    _, json_out, _ = run(
        capsys, "scan", "--label", "17a1", "--offline", "--d-bound", "30"
    )
    _, csv_out, _ = run(
        capsys,
        "scan", "--label", "17a1", "--offline", "--d-bound", "30", "--format", "csv",
    )
    json_rows = [json.loads(line) for line in json_out.strip().splitlines()[:-1]]
    parsed = list(csv.reader(io.StringIO(csv_out)))
    header, csv_rows = parsed[0], parsed[1:]
    assert len(json_rows) == len(csv_rows)
    for obj, cells in zip(json_rows, csv_rows):
        rebuilt = {}
        for key, cell in zip(header, cells):
            if cell == "":
                rebuilt[key] = None
            elif cell and cell[0] in "[{":
                rebuilt[key] = json.loads(cell)
            else:
                rebuilt[key] = cell
        assert rebuilt == obj


def test_scan_parallel_output_is_identical(capsys, tmp_path):
    one = tmp_path / "one.jsonl"
    two = tmp_path / "two.jsonl"
    code1, _, _ = run(
        capsys,
        "scan", "--label", "17a1", "--offline", "--d-bound", "40",
        "--jobs", "1", "--out", str(one),
    )
    code2, _, _ = run(
        capsys,
        "scan", "--label", "17a1", "--offline", "--d-bound", "40",
        "--jobs", "2", "--out", str(two),
    )
    assert code1 == code2 == 0
    assert one.read_bytes() == two.read_bytes()


def test_scan_rejects_bad_jobs(capsys):
    code, _, err = run(
        capsys, "scan", "--label", "17a1", "--offline", "--d-bound", "10", "--jobs", "0"
    )
    assert code == 2 and "--jobs" in err


class FakePool:
    """Stands in for multiprocessing.Pool: runs the scan in this process, starting none."""

    def __init__(self, processes, initializer, initargs):
        STARTED.append(processes)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, func, iterable, chunksize=1):
        return map(func, iterable)


STARTED: list[int] = []


@pytest.mark.parametrize("cpus, jobs, started", [(2, 64, [2]), (4, 3, [3]), (1, 8, [])])
def test_scan_starts_at_most_one_worker_per_usable_cpu(capsys, monkeypatch, cpus, jobs, started):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    STARTED.clear()
    argv = ("scan", "--label", "17a1", "--offline", "--d-bound", "40", "--jobs")
    code, out, _ = run(capsys, *argv, str(jobs))
    assert code == 0 and STARTED == started
    assert run(capsys, *argv, "1") == (0, out, "")


def test_scan_and_density_share_the_sieve_cap(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(arith, "_SIEVE_LIMIT", 1000)
    out_file = tmp_path / "scan.jsonl"
    code, out, err = run(capsys, "scan", "--label", "17a1", "--offline", "--d-bound", "1001", "--out", str(out_file))
    assert code == 2 and out == "" and err.startswith("error:") and "1000" in err
    assert not out_file.exists()
    code, out, err = run(capsys, "density", "1001", "2")
    assert code == 2 and out == "" and err.startswith("error:") and "1000" in err
    code, out, _ = run(capsys, "density", "1000", "2")
    assert code == 0 and json.loads(out)["count"] == str(arith.count_omega_at_most(1000, 2))


# --- a cold process ---------------------------------------------------------------


def _fresh_python(code: str) -> str:
    src = str(Path(watkins.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_leaves_multiprocessing_out():
    out = _fresh_python("import sys, watkins.cli; print('multiprocessing' in sys.modules)")
    assert out.strip() == "False"


def test_scan_and_density_leave_numpy_out():
    code = """
import contextlib, io, sys
from watkins import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = (cli.main(["scan", "--label", "17a1", "--offline", "--d-bound", "500"]), cli.main(["density", "1000", "2"]))
print(*codes, out.getvalue().count("\\n"), "numpy" in sys.modules)
"""
    scan, density, lines, numpy_loaded = _fresh_python(code).split()
    assert (scan, density) == ("0", "0")
    assert int(lines) == 306 + 2  # a certificate per fundamental |d| <= 500, the summary, the count
    assert numpy_loaded == "False"


def test_cold_verify_loads_no_dataclasses_fractions_or_csv():
    # a verify builds NamedTuple records, checks models in integers, checksums rows without OpenSSL and writes JSON
    code = """
import contextlib, io, sys
from watkins import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--label", "17a1", "--offline", "--d", "5"])
off_path = {"dataclasses", "inspect", "fractions", "decimal", "csv", "urllib.request", "http.client", "ssl",
            "hashlib", "_hashlib"}
print(code, *sorted(off_path & set(sys.modules)))
"""
    assert _fresh_python(code).split() == ["0"]


@pytest.mark.parametrize("label, d", [("17a1", -150071), ("32a1", -199999), ("49a1", -199967), ("14a1", 5)])
def test_cold_verify_sieves_only_small_primes(label, d, tmp_path):
    # a single verify with |d| <= 2*10^5 needs the primes below 10^4 at most
    code = (
        "from watkins import arith, cli; "
        f"code = cli.main(['verify', '--label', '{label}', '--offline', '--d', '{d}', '--out', r'{tmp_path / 'c.json'}']); "
        "print(code, arith._SIEVED)"
    )
    code, sieved = map(int, _fresh_python(code).split())
    assert code in (0, 1)
    assert sieved < 10**4
