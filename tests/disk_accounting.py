"""Disk-accounting invariant shared by tests: running byte counts equal a from-scratch recount.

Datanodes keep ``used_bytes`` as a running total updated on every store and delete, and HAIL
blocks memoize their minipage sizes.  :func:`check_disk_accounting` recounts every stored
replica's bytes directly from its values (``Field.binary_size`` per value, never through the
memo) and asserts that every datanode's running total, every node's disk usage and
``Hdfs.total_stored_bytes()`` agree with that recount.
"""

from __future__ import annotations

from repro.hail.hail_block import _BLOCK_METADATA_BYTES, _INDEX_METADATA_BYTES, HailBlock
from repro.hdfs.block import BlockPayload, TextBlockPayload
from repro.hdfs.checksum import checksum_file_size


def _line_bytes(lines) -> int:
    return sum(len(line.encode("utf-8")) + 1 for line in lines)


def _recount_payload_bytes(payload: BlockPayload) -> int:
    """A replica's data-file size, summed from its values without any cached size."""
    if isinstance(payload, TextBlockPayload):
        return _line_bytes(payload.lines)
    if isinstance(payload, HailBlock):
        pax = payload.pax
        data = sum(
            field.binary_size(value)
            for field, column in zip(pax.schema.fields, pax.columns)
            for value in column
        )
        index = payload.index.size_bytes() if payload.index is not None else 0
        offsets = 4 * sum(len(offsets) for offsets in payload.variable_offsets.values())
        return (
            _BLOCK_METADATA_BYTES
            + _INDEX_METADATA_BYTES
            + data
            + index
            + _line_bytes(payload.bad_lines)
            + offsets
        )
    raise TypeError(f"no recount for payload type {type(payload).__name__}")


def check_disk_accounting(hdfs) -> int:
    """Assert the running byte counts of ``hdfs`` match a recount; return the stored total.

    For every datanode, ``used_bytes`` must equal the recounted data-file bytes of its
    replicas, and its node's ``disk_used_bytes`` must equal those plus each replica's
    checksum file.  ``total_stored_bytes()`` must equal the sum over datanodes.
    """
    total = 0
    for datanode_id, datanode in sorted(hdfs.datanodes.items()):
        sizes = [
            _recount_payload_bytes(datanode.replica(block_id).payload)
            for block_id in datanode.block_ids()
        ]
        assert datanode.used_bytes == sum(sizes), f"datanode {datanode_id}"
        assert datanode.node.disk_used_bytes == sum(
            size + checksum_file_size(size) for size in sizes
        ), f"node {datanode_id}"
        total += datanode.used_bytes
    assert hdfs.total_stored_bytes() == total
    return total
