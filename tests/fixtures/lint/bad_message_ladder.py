"""Lint fixture: must trigger the ``message-ladder`` rule."""

from repro.core.messages import Delete, Insert, RangeDelete


def value_after(msg, old):
    if isinstance(msg, Insert):
        return msg.value
    if isinstance(msg, (Delete, RangeDelete)):
        return None
    return old
