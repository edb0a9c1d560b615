"""Spans around the public functions of each `watkins` module.

`Tracer.install()` replaces each function named in LAYERS by a wrapper
that records a span (name, start, end, parent span, request span) and
rebinds the wrapper under every name that held the original in any
`watkins` module, since `certify`, `cli` and `ecq` import these
functions by name.  Spans stay in memory; `Tracer.write()` writes them
out once the run ends.  A layer's self time is its span's duration
less the time of the wrapped spans it caused.

Run as a script, this module runs `watkins.cli` under the tracer in a
fresh interpreter and writes the spans to a file:

    python3 bench/spans.py OUT.json verify --label 17a1 --offline --d 5
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = {
    "arith": ("small_primes", "enumerate_fundamental_discriminants", "factorize", "is_fundamental_discriminant"),
    "ecq": ("minimal_model", "transform_model", "conductor", "tate_local", "a_p", "build_curve_record"),
    "certify": ("verify_twist", "is_minimal_twist", "certificate_to_obj"),
    "data": ("load_fixtures", "record_from_row"),
    "cli": ("main",),
}

NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Spans and per-function totals of one process; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.calls = dict.fromkeys(NAMES, 0)
        self.total_ns = dict.fromkeys(NAMES, 0)
        self.self_ns = dict.fromkeys(NAMES, 0)
        self.ap_lookups = 0
        self.ap_hits = 0
        self.cli_cpu_ns = 0
        self._stack: list[list[int]] = []  # [span id, request id, child ns]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _frame(self) -> list[int]:
        sid = self._next_id
        self._next_id += 1
        root = self._stack[-1][1] if self._stack else sid
        return [sid, root, 0]

    def _leave(self, index: int, frame: list[int], t0: int, t1: int, active: int) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += active
        name = NAMES[index]
        self.calls[name] += 1
        self.total_ns[name] += active
        self.self_ns[name] += active - frame[2]
        self.spans.append((frame[0], parent[0] if parent else 0, frame[1], index, t0, t1))

    def _wrap(self, index: int, fn):
        clock = time.perf_counter_ns
        if inspect.isgeneratorfunction(fn):
            # a generator's span covers the time spent inside it across next() calls
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                frame = self._frame()
                first = clock()
                active = 0
                try:
                    while True:
                        self._stack.append(frame)
                        t = clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            active += clock() - t
                            return
                        finally:
                            self._stack.pop()
                        active += clock() - t
                        yield item
                finally:
                    self._stack.append(frame)
                    self._leave(index, frame, first, clock(), active)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._frame()
            self._stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._leave(index, frame, t0, t1, t1 - t0)

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "watkins" or name.startswith("watkins.")]
        for index, name in enumerate(NAMES):
            mod, fn = name.split(".")
            orig = getattr(importlib.import_module(f"watkins.{mod}"), fn)
            wrapper = self._wrap(index, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._rebind(m, attr, wrapper)

        certify = importlib.import_module("watkins.certify")
        ctx_ap = certify.CertifyContext.ap
        tracer = self

        @functools.wraps(ctx_ap)
        def ap_lookup(ctx, p):
            before = tracer.calls["ecq.a_p"]
            try:
                return ctx_ap(ctx, p)
            finally:
                tracer.ap_lookups += 1
                tracer.ap_hits += tracer.calls["ecq.a_p"] == before

        self._rebind(certify.CertifyContext, "ap", ap_lookup)

        cli = importlib.import_module("watkins.cli")
        cli_main = cli.main

        @functools.wraps(cli_main)
        def timed_main(*args, **kwargs):
            c0 = time.process_time_ns()
            try:
                return cli_main(*args, **kwargs)
            finally:
                tracer.cli_cpu_ns += time.process_time_ns() - c0

        self._rebind(cli, "main", timed_main)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reporting -------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "ap_lookups": self.ap_lookups,
            "ap_hits": self.ap_hits,
            "cli_cpu_ns": self.cli_cpu_ns,
        }

    def merge(self, other: dict) -> None:
        for key in ("calls", "total_ns", "self_ns"):
            mine = getattr(self, key)
            for name, value in other[key].items():
                mine[name] += value
        self.ap_lookups += other["ap_lookups"]
        self.ap_hits += other["ap_hits"]
        self.cli_cpu_ns += other["cli_cpu_ns"]

    def write(self, path: str, extra_spans: list[tuple[str, list]] = ()) -> None:
        """Spans as JSON lines: process, span id, parent, request, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": NAMES}) + "\n")
            for proc, spans in [("main", self.spans), *extra_spans]:
                for sid, parent, root, index, t0, t1 in spans:
                    fh.write(f'["{proc}",{sid},{parent},{root},{index},{t0},{t1}]\n')


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    import watkins.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = watkins.cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({**tracer.snapshot(), "spans": tracer.spans, "exit": code}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
