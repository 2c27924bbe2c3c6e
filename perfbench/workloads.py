"""The four workloads.

Each workload builds its inputs from ``--seed`` in :meth:`setup`, runs a
closed loop for ``--seconds`` in :meth:`timed`, and checks the program's
outputs against :mod:`reference` in :meth:`check`.  Every workload uses
the default ``HashCore()``: default profile, default widget LRU, ``auto``
tier.  The process-wide JIT shape-template cache is cleared before each set-up,
before the timed phase and before each sync round, where a real process
would start cold, so input built in set-up does not warm it.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import CheckFailed, Reference, meets, target_of

#: Blocks mined per ~10 attempts (target = 0.1 * 2**256).
MINE_BITS = 0x2019999A
#: The chain's default genesis bits: about two attempts per block.
SYNC_BITS = 0x207FFFFF
#: Timestamp spacing that keeps every retarget at ratio 1: a 16-block
#: window spans 15 gaps and the schedule expects 16 * 30 s.
BLOCK_SPACING = 32
#: Pool block bits: a share solves a block with probability 2**-32.
POOL_BITS = 0x1D00FFFF
#: verify-hot header set, smaller than the default widget LRU (16).
HOT_HEADERS = 15
#: chain-sync input: honest blocks, transactions per block, planted
#: time-warp siblings (received after these honest heights) and the
#: honest heights after which the node crashes and restarts.
SYNC_BLOCKS = 32
SYNC_TXS = 4
WARP_AFTER = (8, 16, 24)
CRASH_AFTER = (11, 22)
WARP_TIMESTAMP = 2**62
#: pool-hashcore: connections and in-flight submissions per connection.
POOL_CLIENTS = 2
POOL_LANES = 2
#: Operations recomputed on the reference tier per run.
REFERENCE_SAMPLE = 3


@dataclass
class Outcome:
    """What one timed phase did."""

    latencies: list[float]
    attempted: int
    failed: int
    wall: float
    layers: dict[str, float] = field(default_factory=dict)


class TemplateCounter:
    """JIT shape-template hits and misses summed across cache clears;
    starts from an empty cache."""

    def __init__(self) -> None:
        from repro.machine.jit import clear_template_cache

        clear_template_cache()
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        from repro.machine.jit import clear_template_cache, template_cache_stats

        stats = template_cache_stats()
        self.hits += stats["hits"]
        self.misses += stats["misses"]
        clear_template_cache()

    def hit_rate(self) -> float:
        from repro.machine.jit import template_cache_stats

        stats = template_cache_stats()
        hits = self.hits + stats["hits"]
        total = hits + self.misses + stats["misses"]
        return hits / total if total else 0.0


def _random_header(rng: random.Random, bits: int):
    from repro.blockchain.block import BlockHeader

    return BlockHeader(
        version=1,
        prev_hash=rng.randbytes(32),
        merkle_root=rng.randbytes(32),
        timestamp=rng.randrange(1 << 31),
        bits=bits,
        nonce=rng.randrange(1 << 63),
    )


def _check_sample(reference: Reference, pairs, seed: int, what: str) -> None:
    """Recompute a seeded sample of ``(data, digest)`` pairs."""
    rng = random.Random(f"sample-{seed}")
    for data, digest in rng.sample(pairs, min(REFERENCE_SAMPLE, len(pairs))):
        if reference.digest(data) != digest:
            raise CheckFailed(f"{what}: digest differs from the reference")


class Recorder:
    """PoW proxy that records every digest it returns (and the latency of
    each single ``hash`` call) for the checks; forwards to a HashCore."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.pairs: list[tuple[bytes, bytes]] = []
        self.latencies: list[float] = []

    def hash(self, data: bytes) -> bytes:
        start = perf_counter()
        digest = self.inner.hash(data)
        self.latencies.append(perf_counter() - start)
        self.pairs.append((data, digest))
        return digest

    def hash_batch(self, datas: list[bytes]) -> list[bytes]:
        digests = self.inner.hash_batch(datas)
        self.pairs.extend(zip(datas, digests))
        return digests


def pow_counters(pows) -> Counter:
    """Widget-LRU, tier and batch counters summed over HashCore instances."""
    total: Counter = Counter()
    for pow_fn in pows:
        stats = pow_fn.cache_stats()
        total["widget_hits"] += stats["widget_cache"]["hits"]
        total["widget_misses"] += stats["widget_cache"]["misses"]
        total["degradations"] += sum(stats["tiers"]["degradations"].values())
        total["lockstep_groups"] += stats["hash_batch"]["lockstep_groups"]
        for tier, runs in stats["tiers"]["runs"].items():
            total["runs." + tier] += runs
    return total


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def timed(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def counters(self) -> Counter:
        """:func:`pow_counters` of the HashCore instances the timed phase
        uses; the traced run reports their change over the phase."""
        return pow_counters([self.pow])

    def check(self, reference: Reference) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class MineFresh(Workload):
    """Mine blocks on a ``Blockchain``; one op is one nonce attempt."""

    name = "mine-fresh"

    def setup(self) -> None:
        from repro.blockchain.chain import Blockchain
        from repro.core.hashcore import HashCore

        # Finish lazy set-up (imports, first-call paths) on a throwaway
        # instance, then start the measured one cold.
        HashCore().hash(b"perfbench warm-up")
        self.pow = HashCore()
        self.recorder = Recorder(self.pow)
        self.chain = Blockchain(self.pow, genesis_bits=MINE_BITS)
        self.mined: list = []

    def _body(self, height: int) -> list[bytes]:
        rng = random.Random(f"mine-{self.seed}-{height}")
        return [b"coinbase-%d" % height] + [rng.randbytes(256) for _ in range(3)]

    def timed(self, seconds: float) -> Outcome:
        from repro.blockchain.block import Block
        from repro.blockchain.miner import mine_block

        chain = self.chain
        start = perf_counter()
        while perf_counter() - start < seconds:
            height = chain.height() + 1
            template = Block.build(
                prev_hash=chain.tip_id,
                transactions=self._body(height),
                timestamp=height * BLOCK_SPACING,
                bits=chain.expected_bits(chain.tip_id),
            )
            mined = mine_block(template, self.recorder)
            chain.add_block(mined.block)
            self.mined.append(mined)
        wall = perf_counter() - start
        attempts = len(self.recorder.latencies)
        return Outcome(
            latencies=list(self.recorder.latencies),
            attempted=attempts,
            failed=0,
            wall=wall,
            layers={"miner.attempts_per_block": attempts / len(self.mined)},
        )

    def check(self, reference: Reference) -> None:
        from repro.blockchain.chain import block_id

        pairs = self.recorder.pairs
        cursor = 0
        for mined in self.mined:
            attempts = pairs[cursor:cursor + mined.attempts]
            cursor += mined.attempts
            target = target_of(mined.block.header.bits)
            if any(meets(digest, target) for _, digest in attempts[:-1]):
                raise CheckFailed("mine-fresh: an earlier attempt met the target")
            data, digest = attempts[-1]
            if data != mined.block.header.serialize() or not meets(digest, target):
                raise CheckFailed("mine-fresh: mined block misses its target")
        if cursor != len(pairs):
            raise CheckFailed("mine-fresh: attempts do not add up to blocks")
        if self.chain.height() != len(self.mined) or \
                self.chain.tip_id != block_id(self.mined[-1].block):
            raise CheckFailed("mine-fresh: chain tip is not the last mined block")
        _check_sample(reference, pairs, self.seed, self.name)


# ----------------------------------------------------------------------
class VerifyHot(Workload):
    """``HashCore.verify`` over a header set the widget LRU holds; genuine
    and bit-flipped digests mixed.  One op is one verify."""

    name = "verify-hot"

    def setup(self) -> None:
        from repro.core.hashcore import HashCore

        self.pow = HashCore()
        rng = random.Random(f"verify-{self.seed}")
        headers = [
            _random_header(rng, MINE_BITS).serialize()
            for _ in range(HOT_HEADERS)
        ]
        # Computing the genuine digests is the warm-up: it fills the LRU.
        self.genuine = {data: self.pow.hash(data) for data in headers}
        schedule = []
        for data, digest in self.genuine.items():
            bit = rng.randrange(256)
            flipped = bytearray(digest)
            flipped[bit // 8] ^= 1 << (bit % 8)
            schedule.append((data, digest, True))
            schedule.append((data, bytes(flipped), False))
        rng.shuffle(schedule)
        self.schedule = schedule

    def timed(self, seconds: float) -> Outcome:
        verify = self.pow.verify
        latencies = []
        failed = 0
        start = perf_counter()
        for data, digest, expected in itertools.cycle(self.schedule):
            if perf_counter() - start >= seconds:
                break
            began = perf_counter()
            answer = verify(data, digest)
            latencies.append(perf_counter() - began)
            failed += answer is not expected
        wall = perf_counter() - start
        return Outcome(latencies, len(latencies), failed, wall)

    def check(self, reference: Reference) -> None:
        for data, digest in self.genuine.items():
            if reference.digest(data) != digest:
                raise CheckFailed("verify-hot: genuine digest differs from the reference")


# ----------------------------------------------------------------------
class ChainSync(Workload):
    """A fresh durable ``Node`` receives a pre-mined chain, crashing and
    restarting through its ``BlockStore`` at fixed heights.  One op is one
    ``Node.receive``; a round is one whole sync."""

    name = "chain-sync"

    def setup(self) -> None:
        from repro.blockchain.block import Block
        from repro.blockchain.chain import Blockchain
        from repro.blockchain.miner import mine_block
        from repro.blockchain.transaction import TRANSACTION_BYTES
        from repro.core.hashcore import HashCore

        self.close()
        builder_pow = HashCore()
        builder = Blockchain(builder_pow, genesis_bits=SYNC_BITS)
        rng = random.Random(f"sync-{self.seed}")
        self.honest = []
        for height in range(1, SYNC_BLOCKS + 1):
            transactions = [b"coinbase-%d" % height] + [
                rng.randbytes(TRANSACTION_BYTES) for _ in range(SYNC_TXS)
            ]
            template = Block.build(
                prev_hash=builder.tip_id,
                transactions=transactions,
                timestamp=height * BLOCK_SPACING,
                bits=builder.expected_bits(builder.tip_id),
            )
            mined = mine_block(template, builder_pow)
            builder.add_block(mined.block)
            self.honest.append(mined)
        # Time-warp siblings of honest block 1: valid PoW, equal work, a
        # timestamp far in the future.  Built from fixed inputs, not the
        # seed, so every run plants the same blocks.
        warp_rng = random.Random("time-warp")
        self.warps = []
        for index in range(len(WARP_AFTER)):
            template = Block.build(
                prev_hash=builder.genesis_id,
                transactions=[b"time-warp-%d" % index, warp_rng.randbytes(256)],
                timestamp=WARP_TIMESTAMP,
                bits=SYNC_BITS,
            )
            self.warps.append(mine_block(template, builder_pow))
        self.tip = builder.tip_id
        self.workdir = Path(tempfile.mkdtemp(prefix="chain-sync-", dir=_scratch()))
        self.rounds = 0
        self.restarts: list[tuple[bytes, int, bytes, int]] = []
        self.endings: list[tuple[bytes, int]] = []
        # Summed at the end of each round, so no round's HashCore (and
        # its compiled widgets) outlives the round.
        self.round_counters: Counter = Counter()

    def _stream(self):
        """``("block", block, expect_accept)`` and ``("crash",)`` items."""
        warps = iter(self.warps)
        for height, mined in enumerate(self.honest, start=1):
            yield "block", mined.block, True
            if height in WARP_AFTER:
                yield "block", next(warps).block, False
            if height in CRASH_AFTER:
                yield ("crash",)

    def _sync_round(self, latencies: list[float]) -> int:
        from repro.blockchain.node import Node
        from repro.blockchain.store import BlockStore
        from repro.core.hashcore import HashCore

        self.templates.clear()  # a syncing node starts in a new process
        pow_fn = HashCore()
        store = BlockStore(self.workdir / f"round-{self.rounds}.log")
        node = Node("sync", pow_fn, genesis_bits=SYNC_BITS, store=store)
        failed = 0
        try:
            for item in self._stream():
                if item[0] == "crash":
                    before = (node.tip_id(), node.chain.height())
                    node.crash()
                    node.restart()
                    self.restarts.append(before + (node.tip_id(), node.chain.height()))
                    continue
                _, block, expect_accept = item
                began = perf_counter()
                result = node.receive(block)
                latencies.append(perf_counter() - began)
                failed += result.accepted is not expect_accept
            self.endings.append((node.tip_id(), node.chain.height()))
        finally:
            node.store.close()
        self.round_counters += pow_counters([pow_fn])
        (self.workdir / f"round-{self.rounds}.log").unlink()
        self.rounds += 1
        return failed

    def timed(self, seconds: float) -> Outcome:
        latencies: list[float] = []
        failed = 0
        start = perf_counter()
        while perf_counter() - start < seconds:
            failed += self._sync_round(latencies)
        wall = perf_counter() - start
        return Outcome(latencies, len(latencies), failed, wall)

    def counters(self) -> Counter:
        return Counter(self.round_counters)

    def check(self, reference: Reference) -> None:
        for tip, height, after_tip, after_height in self.restarts:
            if (tip, height) != (after_tip, after_height):
                raise CheckFailed("chain-sync: restart did not replay to the pre-crash tip")
        for tip, height in self.endings:
            if tip != self.tip or height != SYNC_BLOCKS:
                raise CheckFailed("chain-sync: sync did not end on the input tip")
        blocks = self.honest + self.warps
        for mined in blocks:
            if not meets(mined.digest, target_of(mined.block.header.bits)):
                raise CheckFailed("chain-sync: input block misses its target")
        pairs = [(m.block.header.serialize(), m.digest) for m in blocks]
        _check_sample(reference, pairs, self.seed, self.name)

    def close(self) -> None:
        workdir = getattr(self, "workdir", None)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            self.workdir = None


# ----------------------------------------------------------------------
class PoolHashcore(Workload):
    """In-process ``PoolServer`` verifying HashCore shares; two clients
    submit distinct nonces over pipelined lanes.  One op is one share
    submitted and answered."""

    name = "pool-hashcore"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.clients: list = []

    def setup(self) -> None:
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        from repro.core.hashcore import HashCore
        from repro.pool.client import PoolClient
        from repro.pool.jobs import StaticTemplateSource
        from repro.pool.server import PoolConfig, PoolServer

        await self._close()
        self.pow = HashCore()
        self.recorder = Recorder(self.pow)
        rng = random.Random(f"pool-{self.seed}")
        self.header = _random_header(rng, POOL_BITS).with_nonce(0)
        self.server = PoolServer(
            self.recorder,
            StaticTemplateSource(self.header),
            PoolConfig(share_difficulty=1.0, vardiff=False),
        )
        await self.server.start()
        offset = rng.randrange(1 << 32)
        self.clients = []
        self.nonces = []
        for index in range(POOL_CLIENTS):
            client = PoolClient("127.0.0.1", self.server.port, f"miner{index}")
            await client.connect()
            self.clients.append(client)
            self.nonces.append(itertools.count(client.nonce_start + offset))
        self.job_id = (await self.clients[0].wait_for_job()).job_id
        # Warm-up: one share per connection starts the verifier's thread.
        for client, nonces in zip(self.clients, self.nonces):
            await client.call("mining.submit", {"job": self.job_id, "nonce": next(nonces)})
        self.shares: list[tuple[bytes, float, dict]] = []
        self.errors: list[str] = []

    def timed(self, seconds: float) -> Outcome:
        stats = self.server.verifier.stats
        before = (stats.shares, stats.batches)
        wall = self.loop.run_until_complete(self._timed(seconds))
        shares, batches = stats.shares - before[0], stats.batches - before[1]
        return Outcome(
            latencies=[latency for _, latency, _ in self.shares],
            attempted=len(self.shares) + len(self.errors),
            failed=len(self.errors),
            wall=wall,
            layers={"pool.mean_batch": shares / batches if batches else 0.0},
        )

    async def _timed(self, seconds: float) -> float:
        from repro.pool.protocol import PoolProtocolError

        start = perf_counter()
        deadline = start + seconds

        async def lane(client, nonces) -> None:
            while perf_counter() < deadline:
                nonce = next(nonces)
                began = perf_counter()
                try:
                    result = await client.call(
                        "mining.submit", {"job": self.job_id, "nonce": nonce}
                    )
                except PoolProtocolError as exc:
                    self.errors.append(exc.code)
                    continue
                data = self.header.with_nonce(nonce).serialize()
                self.shares.append((data, perf_counter() - began, result))

        await asyncio.gather(*(
            lane(client, nonces)
            for client, nonces in zip(self.clients, self.nonces)
            for _ in range(POOL_LANES)
        ))
        return perf_counter() - start

    def trace_layers(self, tracer) -> dict[str, float]:
        """Batch compute time and each share's wait outside its batch."""
        batch_of: dict[bytes, float] = {}
        durations = []
        for span in tracer.named("hashcore.hash_batch"):
            durations.append(tracer.duration(span))
            for data in span[4]:
                batch_of[data] = durations[-1]
        waits = [latency - batch_of[data] for data, latency, _ in self.shares]
        return {
            "pool.batch_ms": 1e3 * sum(durations) / len(durations),
            "pool.queue_wait_ms": 1e3 * sum(waits) / len(waits),
        }

    def check(self, reference: Reference) -> None:
        digests = dict(self.recorder.pairs)
        target = target_of(POOL_BITS)
        for data, _, result in self.shares:
            if result.get("status") != "accepted" or data not in digests:
                raise CheckFailed("pool-hashcore: share answered without a digest")
            if ("block" in result) != meets(digests[data], target):
                raise CheckFailed("pool-hashcore: block report disagrees with the digest")
        pairs = [(data, digests[data]) for data, _, _ in self.shares]
        _check_sample(reference, pairs, self.seed, self.name)

    async def _close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.server is not None:
            await self.server.stop()
            self.server = None

    def close(self) -> None:
        self.loop.run_until_complete(self._close())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()


WORKLOADS = {w.name: w for w in (MineFresh, VerifyHot, ChainSync, PoolHashcore)}


def _scratch() -> Path:
    """Temporary files live inside the checkout (``.perfbench_tmp``)."""
    path = Path(__file__).resolve().parent.parent / ".perfbench_tmp"
    path.mkdir(exist_ok=True)
    return path
