"""In-memory span tracer installed around hearthgate's public functions.

The tracer wraps the calls into each layer from outside the program: it
replaces a module function (or class method) with a wrapper that records a
span, then rebinds every other hearthgate module global that still points at
the original, so names imported with ``from .x import y`` are traced at each
importing module too. ``uninstall`` restores every binding it replaced.

A span is (name, start, end, parent span, group id, failed). Spans of one
device, campaign run or rate row share the group id set with ``mark``.
Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
import sys
from collections import Counter
from time import perf_counter

import hearthgate
import workloads
from hearthgate import crypto, ledger, roles, wire


def _count_closure(counters: Counter, closure) -> None:
    counters["channels.derive_closure.terms"] += len(closure.terms)


def _count_block(counters: Counter, block) -> None:
    if block.txs:  # genesis blocks carry no transactions
        counters["ledger.blocks_cut"] += 1
        counters["ledger.block_txs"] += len(block.txs)


def _count_alert(counters: Counter, alert) -> None:
    counters["risk.alerts"] += alert is not None


def _count_rejections(counters: Counter, result) -> None:
    for code, n in workloads.rejection_codes(result.trace).items():
        counters[f"rejected.{code}"] += n


# (span name, module, attribute path, exceptions that count as a failure,
#  return value that counts as a failure, counter fed by the return value)
TARGETS = (
    ("crypto.hybrid_decrypt", "crypto", "hybrid_decrypt", (crypto.DecryptionFailure,), None, None),
    ("crypto.hybrid_encrypt", "crypto", "hybrid_encrypt", None, None, None),
    ("crypto.kem_keygen", "crypto", "kem_keygen", None, None, None),
    ("crypto.sig_keygen", "crypto", "sig_keygen", None, None, None),
    ("crypto.sign", "crypto", "sign", None, None, None),
    ("crypto.verify", "crypto", "verify", None, False, None),
    ("mlkem.keygen", "mlkem", "keygen", None, None, None),
    ("mlkem.encaps", "mlkem", "encaps", None, None, None),
    ("mlkem.decaps", "mlkem", "decaps", None, None, None),
    ("wire.encode", "wire", "encode", None, None, None),
    ("wire.decode", "wire", "decode", (wire.WireError,), None, None),
    ("payloads.encode_payload", "payloads", "encode_payload", None, None, None),
    ("ledger.make_transaction", "ledger", "make_transaction", None, None, None),
    ("ledger.submit", "ledger", "LedgerNetwork.submit", (ledger.LedgerError,), None, None),
    ("ledger.run_until", "ledger", "LedgerNetwork.run_until", None, None, None),
    ("ledger.build_block", "ledger", "build_block", None, None, _count_block),
    ("ledger.verify_blocks", "ledger", "verify_blocks", None, None, None),
    ("risk.evaluate", "risk", "evaluate", None, None, _count_alert),
    ("channels.derive_closure", "channels", "derive_closure", None, None, _count_closure),
    ("roles.Server.handle_registration", "roles", "Server.handle_registration",
     (roles.ProtocolError,), None, None),
    ("roles.Server.handle_data_report", "roles", "Server.handle_data_report",
     (roles.ProtocolError,), None, None),
    ("roles.Server.handle_revocation", "roles", "Server.handle_revocation",
     (roles.ProtocolError,), None, None),
    ("roles.establish_session", "roles", "establish_session",
     (roles.ProtocolError, crypto.CryptoError), None, None),
    ("harness.World.init", "harness", "World.__init__", None, None, None),
    ("harness.run_scenario", "harness", "run_scenario", None, None, _count_rejections),
    ("harness.check_all", "harness", "check_all", None, None, None),
    ("bench.generate_load", "bench", "generate_load", None, None, None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)
# Spans whose failures are counted: a raised error, or verify returning False.
FAILING_SPANS = tuple(t[0] for t in TARGETS if t[3] is not None or t[4] is not None)


def _hearthgate_modules():
    for info in pkgutil.iter_modules(hearthgate.__path__):
        importlib.import_module(f"hearthgate.{info.name}")
    return [m for name, m in sys.modules.items()
            if name == "hearthgate" or name.startswith("hearthgate.")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent, group, failed)
        self.stats = {name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES}
        self.counters: Counter = Counter()
        self.group = ""
        self._stack: list[list] = []    # [span index, start, child time]
        self._undo: list[tuple] = []

    def mark(self, group: str) -> None:
        self.group = group

    # -- recording -----------------------------------------------------------------

    def _wrap(self, name, fn, fail_exc, fail_value, counter):
        stats = self.stats[name]
        spans = self.spans
        stack = self._stack
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            group = self.group
            spans.append(None)
            frame = [index, perf_counter(), 0.0]
            stack.append(frame)
            failed = False
            try:
                result = fn(*args, **kwargs)
                if fail_value is not None and result == fail_value:
                    failed = True
            except BaseException as exc:
                failed = fail_exc is not None and isinstance(exc, fail_exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                stats[3] += failed
                spans[index] = (name, frame[1], end, parent, group, failed)
            if counter is not None:
                counter(counters, result)
            return result

        return traced

    def install(self) -> None:
        modules = _hearthgate_modules()
        for name, module_name, attr, fail_exc, fail_value, counter in TARGETS:
            module = sys.modules[f"hearthgate.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, fail_exc,
                                                fail_value, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, fail_exc, fail_value, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------------------

    def missing(self, required: tuple[str, ...]) -> list[str]:
        """Required spans that recorded no call: the trace is blind there."""
        return [name for name in required if self.stats[name][0] == 0]

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\tgroup\tfailed\n")
            for i, (name, start, end, parent, group, failed) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{group}\t{int(failed)}\n")
