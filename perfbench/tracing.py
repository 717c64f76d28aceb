"""Spans recorded from outside the program.

:class:`Tracer` replaces public functions and methods of the program's
layers with thin wrappers, at every import site: the defining module,
each ``repro`` module that imported the function by name, and the
benchmark's own modules.  Each call records a span (name, start, end,
parent) in flat in-memory arrays; :meth:`Tracer.write` writes them out
once the run has ended.

Self time is exact on the thread that runs the workload.  An execution
stack holds the spans running right now: a synchronous call is on it for
its whole duration, a coroutine only while one of its steps runs, so its
time parked on the event loop is nobody's self time.  Every moment of
that thread's time is charged to the innermost span on the stack, or to
the residual when the stack is empty (event loop, sockets, idle, code no
span covers).  Self times plus the residual add up to wall time.

:class:`Probes` is the light counterpart used by untraced runs too: it
counts the payload bytes each TDS downloads and uploads (the paper's
LoadQ) at the TDS methods that receive and emit them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import gzip
import inspect
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

_perf = time.perf_counter

#: (span name, module, class or None for module functions, attributes)
LAYERS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("sql.parse", "repro.sql.parser", None, ("parse",)),
    ("sql.exec", "repro.sql.executor", None,
     ("local_matching_rows", "execute", "finalize_groups")),
    ("sql.exec", "repro.sql.partial", "PartialAggregation",
     ("add_row", "add_rows", "merge", "to_portable", "from_portable")),
    ("tds.open", "repro.tds.node", "TrustedDataServer", ("open_query",)),
    ("tds.collect", "repro.tds.node", "TrustedDataServer",
     ("collect_basic", "collect_for_sagg", "collect_with_noise",
      "collect_for_histogram", "collect_block", "collect_frames", "seal_frames")),
    ("tds.aggregate", "repro.tds.node", "TrustedDataServer",
     ("aggregate_partition", "aggregate_partition_per_group")),
    ("tds.filter", "repro.tds.node", "TrustedDataServer",
     ("filter_partition", "finalize_partition")),
    ("crypto.seal", "repro.crypto.ndet", "NonDeterministicCipher",
     ("encrypt", "encrypt_many", "encrypt_block")),
    ("crypto.open", "repro.crypto.ndet", "NonDeterministicCipher",
     ("decrypt", "decrypt_many", "decrypt_block")),
    ("crypto.seal", "repro.crypto.det", "DeterministicCipher",
     ("encrypt", "encrypt_many", "encrypt_block")),
    ("crypto.open", "repro.crypto.det", "DeterministicCipher",
     ("decrypt", "decrypt_many", "decrypt_block")),
    ("crypto.seal", "repro.crypto.hashing", "BucketHasher",
     ("hash_bucket", "hash_bytes")),
    ("codec.encode", "repro.core.codec", None,
     ("encode", "encode_many", "encode_packed")),
    ("codec.decode", "repro.core.codec", None,
     ("decode", "decode_many", "decode_packed")),
    ("protocols.discovery", "repro.protocols.discovery", None,
     ("discover_domain", "discover_distribution", "build_histogram")),
    ("protocols.discovery", "repro.protocols.discovery_cache", None,
     ("cached_domain", "cached_distribution", "cached_histogram")),
    ("protocols.driver", "repro.protocols.s_agg", "SAggProtocol", ("execute",)),
    # also the driver of Rnf_Noise, C_Noise and ED_Hist, which inherit it
    ("protocols.driver", "repro.protocols.tagged", "TaggedAggregationProtocol",
     ("execute",)),
    ("protocols.driver", "repro.protocols.select_where", "SelectWhereProtocol",
     ("execute",)),
    ("querier.envelope", "repro.protocols.base", "Querier", ("make_envelope",)),
    ("querier.decrypt", "repro.protocols.base", "Querier", ("decrypt_result",)),
    ("ssi.facade", "repro.ssi.server", "SupportingServerInfrastructure",
     ("post_query", "active_queries", "envelope", "submit_tuples",
      "submit_tuple_block", "collected_count", "evaluate_size_clause",
      "close_collection", "collection_closed", "covering_result",
      "submit_partials", "take_partials", "partial_count",
      "store_result_rows", "publish_result", "result_ready", "fetch_result")),
    ("ssi.admission", "repro.ssi.admission", "AdmissionController",
     ("admit_query", "charge", "release")),
    ("ssi.dispatch", "repro.net.server", "SSIDispatcher", ("dispatch",)),
    ("net.rpc", "repro.net.client", "AsyncSSIClient",
     ("post_query", "fetch_query", "active_queries", "submit_tuples",
      "submit_tuples_batch", "submit_partials", "collected_count",
      "evaluate_size_clause", "close_collection", "covering_result",
      "take_partials", "partial_count", "store_result_rows", "publish_result",
      "result_ready", "fetch_result", "fetch_partition",
      "submit_partition_result", "get_commitment", "ping")),
    ("store.append", "repro.store.recovery", "DurableStore", ("append_record",)),
    ("store.sync", "repro.store.recovery", "DurableStore", ("sync",)),
    ("store.fsync", "repro.store.wal", "WalWriter", ("fsync",)),
)

#: packages whose modules may hold an imported reference to a wrapped
#: function
_IMPORT_SITES = ("repro", "perfbench")

#: spans whose first argument's size is counted as crypto.bytes
_CRYPTO = frozenset({"crypto.seal", "crypto.open"})
_CODEC = frozenset({"codec.encode", "codec.decode"})


def _payload_size(value: Any) -> int:
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, (list, tuple)):
        return sum(len(v) for v in value if isinstance(v, (bytes, bytearray, memoryview)))
    return 0


class MissingTarget(RuntimeError):
    """A function the benchmark instruments is not in the program."""


def _require(owner: Any, attribute: str, layer: str, value: Any) -> Any:
    if value is None:
        where = getattr(owner, "__qualname__", getattr(owner, "__name__", owner))
        raise MissingTarget(f"{layer}: {where} has no {attribute}")
    return value


@contextlib.contextmanager
def recording(tracer: "Tracer | None") -> Iterator[None]:
    """Let *tracer* (if any) record spans for the duration of the block."""
    if tracer is None:
        yield
        return
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False


class _Stepped:
    """Drive a coroutine one step at a time, keeping its span on the
    execution stack only while a step runs."""

    __slots__ = ("tracer", "index", "coro")

    def __init__(self, tracer: "Tracer", index: int, coro: Any) -> None:
        self.tracer = tracer
        self.index = index
        self.coro = coro

    def __await__(self) -> Any:
        tracer, index, coro = self.tracer, self.index, self.coro
        value: Any = None
        error: BaseException | None = None
        while True:
            stack = tracer._stack
            outer = stack[-1] if stack else -1
            stack.append(index)
            started = _perf()
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                tracer._charge(index, outer, _perf() - started)
                return stop.value
            except BaseException:
                tracer._charge(index, outer, _perf() - started)
                raise
            tracer._charge(index, outer, _perf() - started)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


class Tracer:
    """Install wrappers, record spans, and reduce them to per-layer
    figures."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.active = array("d")
        self.child = array("d")
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        #: calls per span name, including calls from other threads
        self.calls: Counter[str] = Counter()
        #: calls that raised, per span name
        self.errors: Counter[str] = Counter()
        #: seconds spent in spans on threads other than the workload's
        self.offthread_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._depth: Counter[str] = Counter()
        self._patches: list[tuple[Any, str, Any]] = []
        #: wrappers record only while enabled, so set-up stays unrecorded
        self.enabled = False

    # -- recording ------------------------------------------------------ #
    def _open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_of.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.active.append(0.0)
        self.child.append(0.0)
        return index

    def _charge(self, index: int, outer: int, seconds: float) -> None:
        self._stack.pop()
        self.active[index] += seconds
        if outer >= 0:
            self.child[outer] += seconds

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        name_id = self._name_id(name)
        tracer = self
        family = "crypto" if name in _CRYPTO else "codec" if name in _CODEC else None
        fn_name = fn.__name__

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                coro = fn(*args, **kwargs)
                if not tracer.enabled or threading.get_ident() != tracer._thread:
                    return await coro
                tracer.calls[name] += 1
                index = tracer._open(name_id)
                tracer.start[index] = _perf()
                try:
                    result = await _Stepped(tracer, index, coro)
                except BaseException:
                    tracer.errors[name] += 1
                    raise
                finally:
                    tracer.end[index] = _perf()
                tracer._observe(name, fn_name, args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if threading.get_ident() != tracer._thread:
                started = _perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.offthread_s[name] += _perf() - started
            outermost = family is None or tracer._depth[family] == 0
            if family is not None:
                tracer._depth[family] += 1
            stack = tracer._stack
            outer = stack[-1] if stack else -1
            index = tracer._open(name_id)
            stack.append(index)
            started = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                ended = _perf()
                tracer.start[index] = started
                tracer.end[index] = ended
                tracer._charge(index, outer, ended - started)
                if family is not None:
                    tracer._depth[family] -= 1
            if outermost:
                if family == "crypto":
                    payload = args[1] if len(args) > 1 else None
                    tracer.counts["crypto.bytes"] += _payload_size(payload)
                elif family == "codec":
                    tracer.counts["codec.calls"] += 1
            tracer._observe(name, fn_name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, fn_name: str, args: tuple, result: Any) -> None:
        """Counts taken at the same boundaries as the spans."""
        if name == "store.append":
            body = args[1]
            self.counts["store.append_bytes"] += _payload_size(
                body if isinstance(body, (list, tuple)) else [body]
            )
        elif name == "net.rpc" and fn_name in ("active_queries", "fetch_partition"):
            # Only TDS clients poll; a fetch that returned a work unit
            # found work.
            self.counts["net.polls"] += 1
            if fn_name == "fetch_partition" and result[0] == self._status_work:
                self.counts["net.useful_fetches"] += 1

    # -- installation --------------------------------------------------- #
    def install(self) -> None:
        """Wrap every function in :data:`LAYERS`.  A module, class or
        function that is missing raises :class:`MissingTarget`: a layer
        the benchmark no longer reaches must fail the run, not read 0."""
        #: the fetch_partition status that carries a work unit
        self._status_work = importlib.import_module("repro.net.frames").STATUS_WORK
        replacements: dict[int, Any] = {}
        for name, module_name, class_name, attributes in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                raise MissingTarget(f"{name}: cannot import {module_name}") from exc
            owner = getattr(module, class_name, None) if class_name else module
            if owner is None:
                raise MissingTarget(f"{name}: {module_name} has no {class_name}")
            for attribute in attributes:
                if class_name is None:
                    original = _require(
                        owner, attribute, name, getattr(owner, attribute, None)
                    )
                    replacements[id(original)] = self._wrap(name, original)
                    continue
                raw = _require(owner, attribute, name, owner.__dict__.get(attribute))
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self._wrap(name, raw.__func__))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patches.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not module_name.startswith(_IMPORT_SITES):
                continue
            for attribute, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None and callable(value):
                    self._patches.append((module, attribute, value))
                    setattr(module, attribute, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reduction ------------------------------------------------------ #
    def self_seconds(self) -> dict[str, float]:
        """Self time per span name on the workload's thread."""
        totals: dict[str, float] = defaultdict(float)
        names = self.names
        for name_id, active, child in zip(self.name_of, self.active, self.child):
            totals[names[name_id]] += active - child
        return dict(totals)

    def wall_seconds(self) -> dict[str, float]:
        """Inclusive wall time per span name (coroutines include the time
        they waited)."""
        totals: dict[str, float] = defaultdict(float)
        names = self.names
        for name_id, start, end in zip(self.name_of, self.start, self.end):
            totals[names[name_id]] += end - start
        return dict(totals)

    def span_count(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """Write every span as ``index name start end parent`` lines."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for index in range(len(self.start)):
                out.write(
                    f"{index}\t{names[self.name_of[index]]}\t{self.start[index]:.9f}"
                    f"\t{self.end[index]:.9f}\t{self.parent[index]}\n"
                )


class Probes:
    """LoadQ at the TDS boundary: payload bytes each TDS downloads
    (query envelope, partition items) and uploads (sealed tuples,
    partials, result rows).  Installed in every run; the tracer wraps
    on top of it."""

    def __init__(self) -> None:
        self.loadq_bytes = 0
        self.per_tds: Counter[str] = Counter()
        self.contributions = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.loadq_bytes = 0
        self.per_tds.clear()
        self.contributions = 0

    def _charge(self, tds: Any, num_bytes: int) -> None:
        self.loadq_bytes += num_bytes
        self.per_tds[tds.tds_id] += num_bytes

    def install(self) -> None:
        from repro.tds.node import TrustedDataServer

        probes = self

        def patch(attribute: str, after: Callable[..., None]) -> None:
            original = _require(
                TrustedDataServer, attribute, "LoadQ",
                TrustedDataServer.__dict__.get(attribute),
            )

            @functools.wraps(original)
            def wrapper(tds: Any, *args: Any, **kwargs: Any) -> Any:
                result = original(tds, *args, **kwargs)
                after(tds, args, result)
                return result

            self._patches.append((TrustedDataServer, attribute, original))
            setattr(TrustedDataServer, attribute, wrapper)

        def collected(tds: Any, args: tuple, _result: Any) -> None:
            probes.contributions += 1
            probes._charge(tds, len(args[0].encrypted_query))

        def sealed(tds: Any, _args: tuple, block: Any) -> None:
            probes._charge(tds, len(block.payloads))

        def folded(tds: Any, args: tuple, result: Any) -> None:
            partials = result if isinstance(result, list) else [result]
            probes._charge(
                tds, args[1].byte_size() + sum(len(p.payload) for p in partials)
            )

        def filtered(tds: Any, args: tuple, rows: Any) -> None:
            partition = args[-1]
            probes._charge(tds, partition.byte_size() + sum(len(r) for r in rows))

        patch("collect_frames", collected)
        patch("seal_frames", sealed)
        patch("aggregate_partition", folded)
        patch("aggregate_partition_per_group", folded)
        patch("filter_partition", filtered)
        patch("finalize_partition", filtered)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
