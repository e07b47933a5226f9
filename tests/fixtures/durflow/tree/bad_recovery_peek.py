"""recovery-reads-durable fixture: recovery peeks at volatile state."""

from typing import List


class BlockDevice:
    def unflushed(self) -> List[bytes]:
        raise NotImplementedError


class BeTree:
    def put(self, key: bytes, value: bytes) -> None:
        raise NotImplementedError


class RecoveringEnv:
    def __init__(self, device: BlockDevice, tree: BeTree) -> None:
        self.device = device
        self.tree = tree

    def _replay_log(self) -> None:
        for data in self.device.unflushed():  # line 22: volatile read
            self.tree.put(data, data)  # recovery re-apply: no write-ahead
