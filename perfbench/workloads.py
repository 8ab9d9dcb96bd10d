"""The four closed-loop workloads and the answer oracle they check.

Every workload draws its keys from one BoDS stream (K = L = 5%) made
from the run's seed.  The first ``preload`` keys are already in the
snapshot every run starts from; ``ingest`` and ``embedded`` continue
the stream past them, ``oltp`` and ``scan`` address the preloaded keys
uniformly at random.  One generator, one connection, closed loop: the
next request goes out only when the previous answer is back (``ingest``
keeps a fixed window of ``INGEST_WINDOW`` frames in flight, in rounds of
``INGEST_ROUND`` frames with ``INGEST_READS`` reads after each).

The generator is the only writer, so an :class:`Oracle` it updates on
every acknowledgement is exact for every answer.  A wrong answer raises :class:`WrongAnswer`; a
refused or failed request is counted, and the keys it may or may not
have written are excluded from later checks.
"""

from __future__ import annotations

import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

STREAM_N = 1_000_000
K_FRACTION = L_FRACTION = 0.05
LEAF_CAPACITY = 64
INGEST_FRAME = 1024
INGEST_WINDOW = 4
OLTP_GETS_PER_PUT = 4
SCAN_SPAN = 2048
SCAN_GET_MANY = 256
EMBEDDED_GET_EVERY = 4
EMBEDDED_WAIT_EVERY = 1024
#: ``ingest`` sends its frames in rounds of ``INGEST_ROUND``; after each
#: round it reads ``INGEST_READS`` ``get_many`` batches of acknowledged
#: keys, so its read latency is sampled across the whole phase.
INGEST_ROUND = 32
INGEST_READS = 4
#: Written keys read back after the ``ingest`` and ``embedded`` phases.
INGEST_SAMPLE = 64 * SCAN_GET_MANY

_MISSING = object()
clock = time.perf_counter_ns


class WrongAnswer(AssertionError):
    """The system under test returned something the oracle disagrees
    with."""


def stream_keys(seed: int) -> list[int]:
    from repro.sortedness.bods import generate_keys

    return generate_keys(STREAM_N, K_FRACTION, L_FRACTION, seed=seed).tolist()


class Stream:
    """The seed's key stream: a preloaded prefix, then an endless
    near-sorted continuation (the stream repeats shifted by
    ``STREAM_N`` each lap, so keys never collide)."""

    def __init__(self, keys: list[int], preload: int) -> None:
        self.keys = keys
        self.preload = preload
        self._lap = 0
        self._pos = preload

    def take(self, count: int) -> list[int]:
        out: list[int] = []
        while len(out) < count:
            if self._pos == len(self.keys):
                self._lap += 1
                self._pos = self.preload
            stop = min(len(self.keys), self._pos + count - len(out))
            shift = self._lap * STREAM_N
            out.extend(k + shift for k in self.keys[self._pos:stop])
            self._pos = stop
        return out


@dataclass
class Oracle:
    """Expected contents of the store.

    ``data`` maps keys to values.  ``appended`` holds the acknowledged
    keys of the stream continuation, whose value is the key itself; an
    ``array`` grows by 8 bytes a key, so in the embedded workload the
    process's memory growth is the store's, not the oracle's.
    ``uncertain`` keys were written by a request that failed, so either
    answer is accepted.
    """

    data: dict[int, int]
    appended: array = field(default_factory=lambda: array("q"))
    uncertain: set[int] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.data) + len(self.appended)

    def check_get(self, key: int, got: Any) -> None:
        if key in self.uncertain:
            return
        want = self.data.get(key, _MISSING)
        if got is not want and got != want:
            raise WrongAnswer(f"get({key}) returned {got!r}, expected {want!r}")

    def check_appended(self, key: int, got: Any) -> None:
        if key not in self.uncertain and got != key:
            raise WrongAnswer(f"get({key}) returned {got!r}, expected {key}")

    def check_items(self, got: list, want_keys: list[int]) -> None:
        want = [(k, self.data[k]) for k in want_keys]
        if got != want and not self.uncertain:
            raise WrongAnswer(
                f"range of {len(want)} keys from {want_keys[0]} returned "
                f"{len(got)} items that differ from the oracle"
            )

    def check_state(self, items: dict) -> None:
        """Full-state check after recovery: every acked key present
        with its acked value, and nothing else."""
        expected = dict(self.data)
        expected.update(zip(self.appended, self.appended))
        for key in self.uncertain:
            items.pop(key, None)
            expected.pop(key, None)
        if items != expected:
            missing = len(expected.keys() - items.keys())
            extra = len(items.keys() - expected.keys())
            raise WrongAnswer(
                f"recovered state differs from the acked writes: "
                f"{missing} key(s) missing, {extra} unexpected"
            )


@dataclass
class Phase:
    """What one closed-loop phase did."""

    keys: int = 0
    attempted: int = 0
    failed: int = 0
    primary_ns: array = field(default_factory=lambda: array("q"))
    get_ns: array = field(default_factory=lambda: array("q"))
    start: int = 0
    end: int = 0

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def plain_call(name: str, fn: Callable, *args: Any) -> tuple[Any, int]:
    """Call ``fn`` and return ``(result, nanoseconds)``; the traced run
    swaps in :meth:`tracing.Recorder.call`, which also records a span."""
    t0 = clock()
    result = fn(*args)
    return result, clock() - t0


@dataclass
class Driver:
    """State one workload carries from its warm-up into its timed phase."""

    stream: Stream
    oracle: Oracle
    rng: random.Random
    failures: tuple = ()
    #: The traced run's span recorder, or None.
    rec: Optional[Any] = None
    #: Keys written since the run started (warm-up included).
    writes: int = 0
    preload_keys: list[int] = field(default_factory=list)

    @property
    def call(self) -> Callable[..., tuple[Any, int]]:
        return self.rec.call if self.rec is not None else plain_call

    # -- network workloads --------------------------------------------

    def oltp(self, client: Any, seconds: float) -> Phase:
        ph = Phase(start=clock())
        end = ph.start + int(seconds * 1e9)
        keys, rng, oracle, call = (self.preload_keys, self.rng,
                                   self.oracle, self.call)
        n = len(keys)
        while clock() < end:
            for _ in range(OLTP_GETS_PER_PUT):
                key = keys[rng.randrange(n)]
                ph.attempted += 1
                try:
                    got, ns = call("gen.get", client.get, key, _MISSING)
                except self.failures:
                    ph.failed += 1
                    continue
                oracle.check_get(key, got)
                ph.get_ns.append(ns)
                ph.keys += 1
            key = keys[rng.randrange(n)]
            value = rng.getrandbits(40)
            ph.attempted += 1
            try:
                _, ns = call("gen.put", client.insert, key, value)
            except self.failures:
                ph.failed += 1
                oracle.uncertain.add(key)
                continue
            oracle.data[key] = value
            self.writes += 1
            ph.primary_ns.append(ns)
            ph.keys += 1
        ph.end = clock()
        return ph

    def scan(self, client: Any, seconds: float) -> Phase:
        ph = Phase(start=clock())
        end = ph.start + int(seconds * 1e9)
        keys, rng, oracle, call = (self.preload_keys, self.rng,
                                   self.oracle, self.call)
        n = len(keys)
        while clock() < end:
            i = rng.randrange(n - SCAN_SPAN)
            want = keys[i:i + SCAN_SPAN]
            ph.attempted += 1
            try:
                got, ns = call("gen.range", client.range_query,
                               keys[i], keys[i + SCAN_SPAN])
            except self.failures:
                ph.failed += 1
            else:
                oracle.check_items(got, want)
                ph.primary_ns.append(ns)
                ph.keys += len(got)
            probe = rng.sample(keys, SCAN_GET_MANY)
            ph.attempted += 1
            try:
                got, ns = call("gen.get_many", client.get_many, probe)
            except self.failures:
                ph.failed += 1
                continue
            for key, value in zip(probe, got):
                oracle.check_get(key, value)
            if len(got) != len(probe):
                raise WrongAnswer(
                    f"get_many of {len(probe)} keys returned {len(got)}"
                )
            ph.get_ns.append(ns)
            ph.keys += len(got)
        ph.end = clock()
        return ph

    def ingest(self, client: Any, seconds: float) -> Phase:
        """Pipelined PUT_MANY frames through
        ``QuitClient.pipeline_insert_many``, in rounds of
        ``INGEST_ROUND`` frames, each followed by ``INGEST_READS``
        ``get_many`` batches of acknowledged keys.  A frame's latency
        runs from its encode to the decode of its acknowledgement,
        stamped by wrapping the two protocol functions the client calls
        while it pipelines."""
        from repro.net import protocol

        ph = Phase(start=clock())
        end = ph.start + int(seconds * 1e9)
        sent: dict[int, int] = {}
        acked: dict[int, int] = {}
        encode, decode = protocol.encode_request, protocol.decode_response

        def stamped_encode(op: int, rid: int, *rest: Any) -> bytes:
            sent[rid] = clock()
            return encode(op, rid, *rest)

        def stamped_decode(body: bytes) -> tuple:
            out = decode(body)
            acked[out[1]] = clock()
            return out

        def batches(frames: list[list[int]]) -> Iterator[list]:
            for _ in range(INGEST_ROUND):
                if clock() >= end:
                    return
                keys = self.stream.take(INGEST_FRAME)
                frames.append(keys)
                yield [(k, k) for k in keys]

        while clock() < end:
            frames: list[list[int]] = []
            protocol.encode_request = stamped_encode
            protocol.decode_response = stamped_decode
            try:
                client.pipeline_insert_many(
                    batches(frames), window=INGEST_WINDOW,
                    deadline=seconds + 60.0,
                )
            except self.failures:
                for keys in frames:
                    self.oracle.uncertain.update(keys)
                break
            finally:
                protocol.encode_request = encode
                protocol.decode_response = decode
            for keys in frames:
                self.oracle.appended.extend(keys)
                self.writes += len(keys)
                ph.keys += len(keys)
            if not self._read_appended(client, ph):
                break
        ph.end = clock()
        ph.attempted += len(sent)
        ph.failed += len(sent) - len(acked)
        for rid, t_sent in sent.items():
            t_ack = acked.get(rid)
            if t_ack is None:
                continue
            ph.primary_ns.append(t_ack - t_sent)
            if self.rec is not None:
                self.rec.record("gen.put_many", t_sent, t_ack, rid=rid)
        return ph

    def _read_appended(self, client: Any, ph: Phase) -> bool:
        """``INGEST_READS`` ``get_many`` batches of random acknowledged
        keys of the continuation; False once a request fails."""
        appended, call = self.oracle.appended, self.call
        for _ in range(INGEST_READS):
            probe = self.rng.sample(appended, min(SCAN_GET_MANY, len(appended)))
            ph.attempted += 1
            try:
                got, ns = call("gen.get_many", client.get_many, probe)
            except self.failures:
                ph.failed += 1
                return False
            if len(got) != len(probe):
                raise WrongAnswer(
                    f"get_many of {len(probe)} keys returned {len(got)}"
                )
            for key, value in zip(probe, got):
                self.oracle.check_appended(key, value)
            ph.get_ns.append(ns)
            ph.keys += len(got)
        return True

    def ingest_check(self, client: Any) -> None:
        """``len`` and a sample of ingested keys, after the phase, read
        in ``get_many`` batches of ``SCAN_GET_MANY``."""
        self._check_len(len(client))
        appended = self.oracle.appended
        sample = self.rng.sample(appended, min(INGEST_SAMPLE, len(appended)))
        for i in range(0, len(sample), SCAN_GET_MANY):
            probe = sample[i:i + SCAN_GET_MANY]
            got = client.get_many(probe)
            if len(got) != len(probe):
                raise WrongAnswer(
                    f"get_many of {len(probe)} keys returned {len(got)}"
                )
            for key, value in zip(probe, got):
                self.oracle.check_appended(key, value)

    def _check_len(self, got: int) -> None:
        if not self.oracle.uncertain and got != len(self.oracle):
            raise WrongAnswer(f"len() is {got}, expected {len(self.oracle)}")

    # -- embedded -----------------------------------------------------

    def embedded(self, durable: Any, seconds: float) -> Phase:
        """Per-key near-sorted ``submit_insert`` into the in-process
        ``DurableTree``, a ``get`` of the newest key every
        ``EMBEDDED_GET_EVERY`` inserts, and a wait on the newest ticket
        every ``EMBEDDED_WAIT_EVERY`` keys; keys count once acked."""
        ph = Phase(start=clock())
        end = ph.start + int(seconds * 1e9)
        oracle, call = self.oracle, self.call
        pending: list[int] = []
        ticket = None
        while clock() < end:
            for key in self.stream.take(EMBEDDED_WAIT_EVERY):
                ph.attempted += 1
                try:
                    ticket, ns = call("gen.submit", durable.submit_insert,
                                      key, key)
                except self.failures:
                    ph.failed += 1
                    oracle.uncertain.add(key)
                    continue
                ph.primary_ns.append(ns)
                pending.append(key)
                if len(pending) % EMBEDDED_GET_EVERY == 0:
                    ph.attempted += 1
                    got, ns = call("gen.get", durable.get, key, _MISSING)
                    if got != key:
                        raise WrongAnswer(
                            f"get({key}) right after its submit returned "
                            f"{got!r}"
                        )
                    ph.get_ns.append(ns)
                    ph.keys += 1
            ph.keys += self._settle(ticket, pending, ph)
            pending = []
        ph.end = clock()
        return ph

    def _settle(self, ticket: Any, pending: list[int], ph: Phase) -> int:
        if ticket is None:
            return 0
        try:
            ticket.wait(30.0)
        except self.failures:
            ph.failed += len(pending)
            self.oracle.uncertain.update(pending)
            return 0
        self.oracle.appended.extend(pending)
        self.writes += len(pending)
        return len(pending)

    def embedded_check(self, durable: Any) -> None:
        self._check_len(len(durable))
        appended = self.oracle.appended
        for key in self.rng.sample(appended, min(INGEST_SAMPLE, len(appended))):
            self.oracle.check_appended(key, durable.get(key, _MISSING))
