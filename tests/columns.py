"""A trace's write and node columns for tests, each constant expanded.

A trace keeps an all-write or all-read flag as `write`, and one node as
`node`, with no column; these give the column such a trace would hold."""
from array import array


def write_column(trace) -> bytearray:
    """The trace's write flags, one byte of 0/1 an access."""
    if trace.write is None:
        return trace.writes
    return bytearray([trace.write]) * len(trace.vpages)


def node_column(trace) -> array:
    """The trace's accessor nodes, an array('H') of one node id an access."""
    if trace.node is None:
        return trace.nodes
    return array("H", [trace.node]) * len(trace.vpages)
