"""The benchmark's workloads, by name (see each module's ``why``)."""

from perf.workloads.algebra_dash import AlgebraDash
from perf.workloads.durable_ingest import DurableIngest
from perf.workloads.join_mix import JoinMix
from perf.workloads.select_mix import SelectMix
from perf.workloads.shard_rw import ShardRW
from perf.workloads.stream_ticks import StreamTicks

WORKLOADS = {
    cls.name: cls
    for cls in (SelectMix, JoinMix, AlgebraDash, ShardRW, StreamTicks, DurableIngest)
}
