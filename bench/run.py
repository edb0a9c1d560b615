"""Scan and verify benchmark for `watkins`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `watkins` is imported from its `src/`.
Each workload repeats rounds of twists, generated from the seed, until
S seconds of twists have run (and at least MIN_TWISTS twists).  Only the
program's calls are timed.  After the timed part the run measures set-up
in fresh interpreters and checks every certificate with `checker.py`,
which shares no code with `watkins`.  The last line of stdout is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 a
fixed number of rounds runs twice, once under the wrappers of `spans.py`
and once untraced, in alternating order; the metrics are the per-layer
ones, and the spans go to bench/out/.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checker
from spans import NAMES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CURVES = ("17a1", "32a1", "49a1")
SETUP_PROBES = 9
IMPORT_PROBES = 5
# p90 needs at least 100 samples so that 10 lie beyond it
MIN_TWISTS = 100


@dataclass
class Chunk:
    """The smallest timed unit a throughput is taken over: one scan, or one round of verify calls."""

    attempted: int
    failed: int
    wall: float
    cpu: float
    latencies: list[float] = field(repr=False)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _random_fundamental(rng: random.Random, lo: int, hi: int) -> int:
    """d uniform in ±[lo, hi], redrawn until it is a fundamental discriminant."""
    while True:
        d = rng.randint(lo, hi) * rng.choice((1, -1))
        if checker.fundamental(d):
            return d


# ---------------------------------------------------------------------------
# workloads


class ScanDense:
    """Serial `watkins scan` in-process over the three curves, all fundamental |d| <= bound."""

    name = "scan-dense"
    probe_modules = ("watkins.cli", "numpy")
    trace_rounds = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.bound = self.rng.randint(2800, 3200)
        self.expected = len(checker.fundamental_discriminants(self.bound))
        self.first: dict[str, Path] = {}
        self.digests: dict[str, set[str]] = {label: set() for label in CURVES}
        self.scans = 0

    def setup(self) -> None:
        import numpy  # noqa: F401  (the scan's sieve imports it on first use)
        import watkins.cli

        self.cli = watkins.cli
        watkins.arith.small_primes()
        watkins.data.load_fixtures()

    def rounds(self):
        while True:
            order = list(CURVES)
            self.rng.shuffle(order)
            yield order

    def _argv(self, label: str, jobs: int) -> list[str]:
        return ["scan", "--label", label, "--offline", "--d-bound", str(self.bound), "--jobs", str(jobs)]

    def run_round(self, order: list[str]) -> list[Chunk]:
        chunks = []
        for label in order:
            self.scans += 1
            path = OUT / f"{self.name}-{label}-{self.scans}.json"
            # the scan writes to stdout, here a file that notes when each certificate is written
            with open(path, "w", encoding="utf-8", newline="") as fh:
                out = _StampedFile(fh)
                c0, w0 = time.process_time(), _children_cpu()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out):
                        code = self.cli.main(self._argv(label, 1))
                except Exception as err:  # a crashed scan fails all its twists
                    print(f"{label}: scan raised {err!r}", file=sys.stderr)
                    code = None
                dt = time.perf_counter() - t0
                cpu = time.process_time() - c0 + _children_cpu() - w0
            # one write per certificate, then the summary: a twist's time is the gap before its write
            stamps = [t0, *out.stamps[: self.expected]]
            latencies = [b - a for a, b in zip(stamps, stamps[1:])]
            chunks.append(Chunk(self.expected, self._account(label, path, code), dt, cpu, latencies))
        return chunks

    def _account(self, label: str, path: Path, code: int | None) -> int:
        """Failed twists of one scan; keeps its first output and the digest of every output."""
        if code != 0 or not path.exists():
            return self.expected
        data = path.read_bytes()
        self.digests[label].add(hashlib.sha256(data).hexdigest())
        if label in self.first:
            path.unlink()
        else:
            self.first[label] = path
        summary = json.loads(data.rsplit(b"\n", 2)[-2])["summary"]
        done = int(summary["total"]) - int(summary["inapplicable"])
        return self.expected - done

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check(self) -> tuple[list[str], tuple[str, dict, int] | None]:
        bad = []
        sample = None
        for label in CURVES:
            if label not in self.first:
                bad.append(f"{label}: no scan completed")
                continue
            lines = [json.loads(line) for line in self.first[label].read_text().splitlines()]
            bad += [f"{label}: {msg}" for msg in checker.check_scan(label, self.bound, lines)]
            if len(self.digests[label]) != 1:
                bad.append(f"{label}: repeated scans gave {len(self.digests[label])} different outputs")
            parallel = OUT / f"{self.name}-{label}-jobs2.json"
            self.cli.main([*self._argv(label, 2), "--out", str(parallel)])
            if parallel.read_bytes() != self.first[label].read_bytes():
                bad.append(f"{label}: --jobs 2 output differs from the serial scan")
            parallel.unlink()
            if sample is None:
                sample = next((label, o, int(o["d"])) for o in lines[:-1] if o["prime_set"])
            self.first[label].unlink()
        return bad, sample


class _StampedFile:
    """A text file that notes the time of each write."""

    def __init__(self, fh):
        self.fh = fh
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        self.stamps.append(time.perf_counter())
        return self.fh.write(text)

    def flush(self) -> None:
        self.fh.flush()


class VerifyLargeD:
    """`verify_twist(curve, d)` in-process, no shared context, 10^6 < |d| <= 10^7."""

    name = "verify-large-d"
    probe_modules = ("watkins",)
    per_round = 60
    trace_rounds = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.certs = CertLog(self.name, seed)

    def setup(self) -> None:
        import watkins

        self.watkins = watkins
        watkins.arith.small_primes()
        rows = watkins.data.load_fixtures()
        self.records = {label: watkins.data.record_from_row(rows[label]) for label in CURVES}

    def rounds(self):
        while True:
            yield [(CURVES[i % 3], _random_fundamental(self.rng, 10**6 + 1, 10**7)) for i in range(self.per_round)]

    def run_round(self, twists) -> list[Chunk]:
        done = []
        latencies = []
        cpu = 0.0
        for label, d in twists:
            record = self.records[label]
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                cert = self.watkins.verify_twist(record, d)
            except Exception as err:
                print(f"{label}, d={d}: verify_twist raised {err!r}", file=sys.stderr)
                cert = None
            latencies.append(time.perf_counter() - t0)
            cpu += time.process_time() - c0
            done.append((label, d, None if cert is None else self.watkins.certificate_to_obj(cert), None))
        failed = self.certs.add(done)
        return [Chunk(len(twists), failed, sum(latencies), cpu, latencies)]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check(self):
        return self.certs.check()


class VerifyCli:
    """One fresh `watkins verify --offline` process per twist."""

    name = "verify-cli"
    probe_modules = ("watkins.cli",)
    per_round = 20
    trace_rounds = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.certs = CertLog(self.name, seed)
        self.env = _program_env()
        # set for a traced round: each process then runs under spans.py and dumps its spans here
        self.traced_out: Path | None = None
        self.traced: list[dict] = []

    def setup(self) -> None:
        pass

    def rounds(self):
        while True:
            twists = []
            for _ in range(self.per_round):
                size = int(10 ** self.rng.uniform(0.5, 5))
                twists.append((self.rng.choice(CURVES), _random_fundamental(self.rng, size, 2 * size)))
            yield twists

    def run_round(self, twists) -> list[Chunk]:
        done = []
        latencies = []
        w0 = _children_cpu()
        for label, d in twists:
            argv = ["verify", "--label", label, "--offline", "--d", str(d)]
            if self.traced_out is None:
                cmd = [sys.executable, "-m", "watkins.cli", *argv]
            else:
                cmd = [sys.executable, str(BENCH / "spans.py"), str(self.traced_out), *argv]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True)
            latencies.append(time.perf_counter() - t0)
            if self.traced_out is not None:
                self.traced.append(json.loads(self.traced_out.read_text()))
            done.append((label, d, proc))
        cpu = _children_cpu() - w0
        logged = []
        for label, d, proc in done:
            try:
                obj = json.loads(proc.stdout)
            except json.JSONDecodeError:
                print(f"{label}, d={d}: exit {proc.returncode}, stderr {proc.stderr[-300:]!r}", file=sys.stderr)
                obj = None
            logged.append((label, d, obj, proc.returncode))
        failed = self.certs.add(logged)
        return [Chunk(len(twists), failed, sum(latencies), cpu, latencies)]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def check(self):
        return self.certs.check()


class CertLog:
    """The verify workloads' certificates, kept on disk so that checking them waits until
    peak_rss_mb has been read."""

    def __init__(self, name: str, seed: int):
        self.path = OUT / f"certs-{name}-s{seed}.jsonl"
        self.path.unlink(missing_ok=True)

    def add(self, twists) -> int:
        """Logs (label, d, certificate or None, exit code or None) of each twist; returns how many
        failed (no certificate, or INAPPLICABLE)."""
        with open(self.path, "a", encoding="utf-8") as fh:
            for twist in twists:
                fh.write(json.dumps(twist) + "\n")
        return sum(obj is None or obj["verdict"].startswith("INAPPLICABLE") for _, _, obj, _ in twists)

    def check(self) -> tuple[list[str], tuple[str, dict, int] | None]:
        """Problems found in the logged certificates, and a sample to self-test on."""
        checkers = {label: checker.Checker(label) for label in CURVES}
        problems: list[str] = []
        sample = None
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                label, d, obj, code = json.loads(line)
                if obj is None or obj["verdict"].startswith("INAPPLICABLE"):
                    continue
                if code is not None and checker.verdict_exit_code(obj["verdict"]) != code:
                    problems.append(f"{label}, d={d}: exit code {code} for {obj['verdict']}")
                bad = checkers[label].check(obj, d)
                problems += [f"{label}, d={d}: {msg}" for msg in bad]
                # the certificate with the largest prime makes the self-test reach the group-order check
                largest = int(obj["prime_set"][-1][0]) if obj["prime_set"] else 0
                if not bad and largest and (sample is None or largest > int(sample[1]["prime_set"][-1][0])):
                    sample = (label, obj, d)
        self.path.unlink()
        return problems, sample


WORKLOADS = {wl.name: wl for wl in (ScanDense, VerifyLargeD, VerifyCli)}


# ---------------------------------------------------------------------------
# measuring


def measure(wl, seconds: float) -> list[Chunk]:
    """Whole rounds until `seconds` of timed work and MIN_TWISTS twists have run."""
    chunks: list[Chunk] = []
    rounds = wl.rounds()
    while sum(c.wall for c in chunks) < seconds or sum(c.attempted for c in chunks) < MIN_TWISTS:
        chunks += wl.run_round(next(rounds))
    return chunks


def throughput(chunks: list[Chunk]) -> float:
    """Median over chunks of twists completed per second."""
    return statistics.median((c.attempted - c.failed) / c.wall for c in chunks)


def end_to_end(wl, chunks: list[Chunk]) -> dict:
    metrics = {
        "twists_per_s": (throughput(chunks), "twists/s"),
        "cpu_ms_per_twist": (statistics.median(1e3 * c.cpu / c.attempted for c in chunks), "ms"),
    }
    lat = [x for c in chunks for x in c.latencies]
    metrics["latency_p50_ms"] = (1e3 * statistics.median(lat), "ms")
    metrics["latency_p90_ms"] = (1e3 * statistics.quantiles(lat, n=10)[8], "ms")
    metrics["peak_rss_mb"] = (wl.peak_rss_mb(), "MB")
    return metrics


def probe_setup(modules, count: int) -> tuple[list[float], list[float]]:
    """Wall seconds from starting a fresh interpreter to its first twist being ready, and its import ms."""
    walls, imports = [], []
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), ",".join(CURVES), *modules]
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=_program_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        imports.append(float(line))
    return walls, imports


def known_case(problems: list[str]) -> None:
    """17a1 twisted by 5 has conductor 425 = 5^2 * 17 and certifies."""
    import watkins

    record = watkins.record_from_row(watkins.load_fixtures()["17a1"])
    obj = watkins.certificate_to_obj(watkins.verify_twist(record, 5))
    if obj["twist_conductor"]["value"] != "425" or obj["verdict"] != "CERTIFIED":
        problems.append(f"17a1, d=5 gave N_D={obj['twist_conductor']['value']}, {obj['verdict']}")
    problems += [f"17a1, d=5: {msg}" for msg in checker.Checker("17a1").check(obj, 5)]


def self_test(sample, problems: list[str]) -> None:
    """The checker must reject corrupted copies of a passing certificate and of a small scan."""
    import watkins.cli

    path = OUT / "self-test-scan.json"
    bound = 300
    watkins.cli.main(["scan", "--label", "17a1", "--offline", "--d-bound", str(bound), "--out", str(path)])
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    path.unlink()
    obj = next(o for o in lines[:-1] if o["prime_set"])
    problems += checker.self_test("17a1", obj, int(obj["d"]), (bound, lines))
    if sample is None:
        problems.append("no certificate with a non-empty prime set to self-test on")
    else:
        label, obj, d = sample
        problems += checker.self_test(label, obj, d)


def per_layer(tracer: Tracer, attempted: int, problems: list[str]) -> dict:
    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.ms"] = (tracer.total_ns[name] / 1e6, "ms")
        metrics[f"{name}.self_ms"] = (tracer.self_ns[name] / 1e6, "ms")
    lookups = tracer.ap_lookups
    hit_ratio = tracer.ap_hits / lookups if lookups else 0.0
    metrics["certify.ap_cache.lookups"] = (lookups, "count")
    metrics["certify.ap_cache.hit_ratio"] = (hit_ratio, "ratio")
    metrics["cli.parent.cpu_ms"] = (tracer.cli_cpu_ns / 1e6, "ms")
    # counts the trace must agree with, known without tracing
    if tracer.calls["certify.verify_twist"] != attempted:
        problems.append(f"traced verify_twist calls {tracer.calls['certify.verify_twist']} != {attempted} twists")
    if tracer.calls["ecq.a_p"] != lookups - tracer.ap_hits:
        problems.append(f"traced a_p calls {tracer.calls['ecq.a_p']} != {lookups - tracer.ap_hits} cache misses")
    return metrics


@contextlib.contextmanager
def tracing(wl, tracer: Tracer):
    """The tracer's wrappers installed; on verify-cli, each process started runs under them."""
    if isinstance(wl, VerifyCli):
        wl.traced_out = OUT / f"cli-spans-{os.getpid()}.json"
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        if isinstance(wl, VerifyCli):
            wl.traced_out.unlink(missing_ok=True)
            wl.traced_out = None


def traced_run(wl, problems: list[str]) -> tuple[dict, list[Chunk], list[Chunk]]:
    """Per-layer metrics of wl.trace_rounds rounds run under the tracer.

    Each round also runs untraced on the same inputs, the traced run first
    in even rounds and second in odd ones, so that a drift of the machine's
    speed during the run weighs on both alike.  The overhead is the median
    over pairs of chunks of the traced wall time over the untraced one.
    """
    import watkins.cli  # noqa: F401  (the wrappers replace names in loaded modules)

    tracer = Tracer()
    with tracing(wl, tracer):
        wl.setup()
    rounds = wl.rounds()
    traced: list[Chunk] = []
    untraced: list[Chunk] = []
    for k in range(wl.trace_rounds):
        inputs = next(rounds)
        for on in (True, False) if k % 2 == 0 else (False, True):
            if on:
                with tracing(wl, tracer):
                    traced += wl.run_round(inputs)
            else:
                untraced += wl.run_round(inputs)
    processes = []
    if isinstance(wl, VerifyCli):
        for k, dump in enumerate(wl.traced):
            tracer.merge(dump)
            processes.append((f"cli-{k}", dump["spans"]))
    tracer.write(str(OUT / f"trace-{wl.name}-s{wl.seed}.jsonl"), processes)

    metrics = per_layer(tracer, sum(c.attempted for c in traced), problems)
    _, imports = probe_setup(("watkins.cli",), IMPORT_PROBES)
    metrics["cli.import.ms"] = (statistics.median(imports), "ms")
    metrics["trace.twists_per_s"] = (throughput(traced), "twists/s")
    metrics["trace.untraced_twists_per_s"] = (throughput(untraced), "twists/s")
    ratio = statistics.median(t.wall / u.wall for t, u in zip(traced, untraced))
    metrics["trace.overhead_pct"] = (100 * (ratio - 1), "%")
    return metrics, traced, untraced


def run(args) -> dict:
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed)
    problems: list[str] = []
    if args.trace:
        metrics, counted, untraced = traced_run(wl, problems)
        chunks = counted + untraced
    else:
        wl.setup()
        chunks = counted = measure(wl, args.seconds)
        metrics = end_to_end(wl, chunks)
        walls, _ = probe_setup(wl.probe_modules, SETUP_PROBES)
        metrics["setup_s"] = (statistics.median(walls), "s")
    bad, sample = wl.check()
    problems += bad
    known_case(problems)
    self_test(sample, problems)
    for msg in problems[:20]:
        print(f"check: {msg}", file=sys.stderr)
    if len(problems) > 20:
        print(f"check: ... {len(problems) - 20} more", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(c.attempted for c in counted),
        "failed": sum(c.failed for c in counted),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "chunks": [{"attempted": c.attempted, "failed": c.failed, "wall": c.wall, "cpu": c.cpu} for c in chunks],
        "result": result,
    }
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(raw) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "watkins" / "__init__.py").is_file():
        print(f"error: no watkins package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    for name, m in result["metrics"].items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  attempted = {result['attempted']}  failed = {result['failed']}  correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
