"""Command-line interface.

Exit codes: 0 success (a verify that says CERTIFIED), 1 a verify that
says INCONCLUSIVE, 2 usage, data or output errors (a closed pipe
included), 3 a verify that says INAPPLICABLE.  scan exits 0 once the
sweep completes, whatever the per-twist verdicts were.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import ExitStack

from .arith import count_omega_at_most, enumerate_fundamental_discriminants
from .certify import (
    CERT_FIELDS,
    CertifyContext,
    _enc_fact,
    certificate_to_obj,
    is_minimal_twist,
    obj_to_flat,
    verify_twist,
    watkins_threshold,
)
from .data import fetch_curve, record_from_row, validate_row
from .ecq import CurveRecord, a_p, build_curve_record, local_reductions
from .errors import MissingInvariant, WatkinsError

_REFERENCE_SHAPE = "x*(loglog x)**kappa/log x"


def _parse_ainvs(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.replace("[", "").replace("]", "").split(",")]
    if len(parts) != 5:
        raise ValueError("--curve wants five comma-separated integers a1,a2,a3,a4,a6")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as err:
        raise ValueError(f"--curve wants integers: {err}") from err


def _resolve_record(args) -> CurveRecord:
    if getattr(args, "label", None):
        row = fetch_curve(args.label, offline=args.offline)
        return record_from_row(row)
    ainvs = _parse_ainvs(args.curve)
    return build_curve_record(ainvs, moddeg=getattr(args, "moddeg", None), manin=getattr(args, "manin", None))


def _emit(obj: dict, out) -> None:
    out.write(json.dumps(obj, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_threshold(args) -> int:
    record = _resolve_record(args)
    rep = watkins_threshold(record, assume_manin=args.assume_manin)
    _emit(
        {
            "curve": rep.label or args.curve,
            "threshold": str(rep.threshold),
            "kappa": str(rep.kappa),
            "omega_n": str(rep.omega_n),
            "v2_moddeg": str(rep.v2_moddeg),
            "assumptions": list(rep.assumptions),
        },
        sys.stdout,
    )
    return 0


def _cmd_verify(args) -> int:
    record = _resolve_record(args)
    cert = verify_twist(record, args.d, assume_manin=args.assume_manin)
    obj = certificate_to_obj(cert)
    with ExitStack() as stack:
        out = _open_out(args, stack)
        if args.format == "csv":
            import csv  # only --format csv pays for the import

            w = csv.writer(out)
            w.writerow(CERT_FIELDS)
            w.writerow(obj_to_flat(obj))
        else:
            _emit(obj, out)
    if cert.verdict == "CERTIFIED":
        return 0
    if cert.verdict == "INCONCLUSIVE":
        return 1
    return 3


_SCAN_CTX: CertifyContext | None = None
_SCAN_ASSUME_MANIN = False


def _scan_init(record: CurveRecord, assume_manin: bool) -> None:
    global _SCAN_CTX, _SCAN_ASSUME_MANIN
    _SCAN_CTX = CertifyContext(record)
    _SCAN_ASSUME_MANIN = assume_manin


def _scan_one(d: int) -> dict:
    ctx = _SCAN_CTX
    cert = verify_twist(ctx.curve, d, assume_manin=_SCAN_ASSUME_MANIN, context=ctx)
    return certificate_to_obj(cert)


def _open_out(args, stack: ExitStack):
    if getattr(args, "out", None):
        # newline="" so the csv writer controls line endings
        return stack.enter_context(open(args.out, "w", encoding="utf-8", newline=""))
    return sys.stdout


def _usable_cpus() -> int:
    """CPUs this process may run on: more workers than that only contend."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _cmd_scan(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    jobs = min(args.jobs, _usable_cpus())
    record = _resolve_record(args)
    ds = enumerate_fundamental_discriminants(args.d_bound, min_omega=args.min_omega)
    counts = {"CERTIFIED": 0, "INCONCLUSIVE": 0, "INAPPLICABLE": 0}

    with ExitStack() as stack:
        out = _open_out(args, stack)
        writer = None
        if args.format == "csv":
            import csv  # only --format csv pays for the import

            writer = csv.writer(out)
            writer.writerow(CERT_FIELDS)
        if jobs == 1:
            _scan_init(record, args.assume_manin)
            objs = map(_scan_one, ds)
        else:
            from multiprocessing import Pool  # only a parallel scan pays for the import

            pool = stack.enter_context(
                Pool(jobs, initializer=_scan_init, initargs=(record, args.assume_manin))
            )
            objs = pool.imap(_scan_one, ds, chunksize=16)
        for obj in objs:
            counts[obj["verdict"].split("(")[0]] += 1
            if writer is not None:
                writer.writerow(obj_to_flat(obj))
            else:
                _emit(obj, out)

        summary = {
            "total": str(sum(counts.values())),
            "certified": str(counts["CERTIFIED"]),
            "inconclusive": str(counts["INCONCLUSIVE"]),
            "inapplicable": str(counts["INAPPLICABLE"]),
            "d_bound": str(args.d_bound),
            "min_omega": str(args.min_omega),
            "threshold": None,
            "kappa": None,
            "reference_shape": _REFERENCE_SHAPE,
        }
        try:
            rep = watkins_threshold(record, assume_manin=args.assume_manin)
            summary["threshold"] = str(rep.threshold)
            summary["kappa"] = str(rep.kappa)
        except MissingInvariant:
            pass
        # a trailing JSON object has no place inside an RFC-4180 stream,
        # so csv mode reports the summary on stderr instead
        _emit({"summary": summary}, sys.stderr if args.format == "csv" else out)
    return 0


def _cmd_ap(args) -> int:
    record = _resolve_record(args)
    value = a_p(record.minimal_model, args.p)
    _emit(
        {"curve": record.label or args.curve, "p": str(args.p), "ap": str(value)},
        sys.stdout,
    )
    return 0


def _cmd_conductor(args) -> int:
    record = _resolve_record(args)
    locals_ = local_reductions(record.minimal_model, record.min_disc.primes())
    _emit(
        {
            "curve": record.label or args.curve,
            "conductor": _enc_fact(record.conductor),
            "minimal_model": list(record.minimal_model.ainvs()),
            "local": [
                {"p": str(r.p), "kodaira": r.kodaira, "f": str(r.f), "kind": r.kind}
                for r in locals_
            ],
        },
        sys.stdout,
    )
    return 0


def _cmd_minimal_twist(args) -> int:
    record = _resolve_record(args)
    flag, witness = is_minimal_twist(record)
    _emit(
        {
            "curve": record.label or args.curve,
            "is_minimal_twist": flag,
            "witness": None if witness is None else str(witness),
        },
        sys.stdout,
    )
    return 0


def _cmd_density(args) -> int:
    count = count_omega_at_most(args.x, args.a)
    x = args.x
    ref = None
    if x >= 3:
        loglog = math.log(math.log(x))
        if loglog > 0:
            ref = x * loglog**args.a / math.log(x)
    _emit(
        {
            "x": str(x),
            "a": str(args.a),
            "count": str(count),
            "fraction": count / x if x else 0.0,
            "reference_shape": _REFERENCE_SHAPE,
            "reference_value": ref,
        },
        sys.stdout,
    )
    return 0


def _cmd_fetch(args) -> int:
    row = fetch_curve(args.label, offline=args.offline)
    record = record_from_row(row)
    discrepancies = validate_row(row, record)
    _emit(
        {
            "label": row.label,
            "ainvs": list(row.ainvs),
            "conductor": str(row.conductor),
            "moddeg": None if row.moddeg is None else str(row.moddeg),
            "manin": None if row.manin is None else str(row.manin),
            "rank": None if row.rank is None else str(row.rank),
            "source": row.source,
            "discrepancies": [
                {"field": d.field, "remote": repr(d.remote), "local": repr(d.local)}
                for d in discrepancies
            ],
        },
        sys.stdout,
    )
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_curve_args(p: argparse.ArgumentParser, *, invariants: bool = False) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--curve", help="a-invariants a1,a2,a3,a4,a6")
    g.add_argument("--label", help="curve label resolved via fixtures/cache/remote")
    p.add_argument("--offline", action="store_true", help="never touch the network")
    if invariants:
        p.add_argument("--moddeg", type=int, help="modular degree for --curve input")
        p.add_argument("--manin", type=int, help="Manin constant for --curve input")
        p.add_argument(
            "--assume-manin",
            action="store_true",
            help="take the Manin constant to be 1 when unknown (recorded in assumptions)",
        )


def build_parser(*commands: str) -> argparse.ArgumentParser:
    """The CLI's parser, with a subparser for each named subcommand.

    With no names, or none that is a subcommand, it has them all.  `main`
    names the one it runs, so that a cold process builds one subparser
    rather than eight.
    """
    parser = argparse.ArgumentParser(
        prog="watkins",
        description="certified rank bounds for quadratic twists via 2-adic modular-degree valuations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, func) -> argparse.ArgumentParser | None:
        if commands and name not in commands:
            return None
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    if p := add("threshold", "omega(D) threshold past which every twist certifies", _cmd_threshold):
        _add_curve_args(p, invariants=True)

    if p := add("verify", "certificate for a single twist", _cmd_verify):
        _add_curve_args(p, invariants=True)
        p.add_argument("--d", type=int, required=True, help="fundamental discriminant to twist by")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write output here instead of stdout")

    if p := add("scan", "verify every fundamental discriminant up to a bound", _cmd_scan):
        _add_curve_args(p, invariants=True)
        p.add_argument("--d-bound", type=int, required=True, help="scan |d| up to this bound")
        p.add_argument("--min-omega", type=int, default=0, help="only d with at least this many prime factors")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per usable CPU")
        p.add_argument("--out", help="write output here instead of stdout")

    if p := add("ap", "trace of Frobenius at a good prime", _cmd_ap):
        _add_curve_args(p)
        p.add_argument("p", type=int)

    if p := add("conductor", "conductor with per-prime reduction data", _cmd_conductor):
        _add_curve_args(p)

    if p := add("minimal-twist", "check the curve against its twist family", _cmd_minimal_twist):
        _add_curve_args(p)

    if p := add("density", "count integers with few prime factors", _cmd_density):
        p.add_argument("x", type=int)
        p.add_argument("a", type=int)

    if p := add("fetch", "resolve and validate a curve row", _cmd_fetch):
        p.add_argument("--label", required=True)
        p.add_argument("--offline", action="store_true", help="never touch the network")

    if not sub.choices:  # no name was a subcommand: help and usage errors list them all
        return build_parser()
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(*argv[:1]).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at interpreter exit
        return code
    except (WatkinsError, ValueError, OSError) as err:
        if isinstance(err, BrokenPipeError):
            # what stdout still buffers goes to /dev/null, not to a second error at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
