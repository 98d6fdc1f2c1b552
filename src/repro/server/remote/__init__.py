"""Out-of-process serving: shard workers behind an async front-end.

The subsystem has three parts, layered bottom-up:

* :mod:`repro.server.remote.protocol` — the length-prefixed, CRC-framed,
  versioned message protocol both sides speak over a pipe.
* :mod:`repro.server.remote.worker` — the ``python -m`` entrypoint that
  owns one :class:`~repro.server.shard.IndexShard` inside its own
  process.
* :mod:`repro.server.remote.broker` — the pipe
  :class:`~repro.server.shard.ShardBackend` (one worker handle per
  shard) and :class:`~repro.server.remote.broker.RemoteMultiplexBroker`,
  which is :class:`~repro.server.shard.MultiplexBroker` constructed
  over it: it spawns K workers and owns the asyncio loop that runs the
  front-end's backend calls concurrently, the journals and
  respawn-and-replay.

This package (plus the CLI) is the only place in the library allowed to
touch process-spawning machinery — lint rule DQL06 enforces that.
"""

from repro.server.remote import protocol
from repro.server.remote.broker import RemoteMultiplexBroker, RemoteSubSession

__all__ = ["protocol", "RemoteMultiplexBroker", "RemoteSubSession"]
