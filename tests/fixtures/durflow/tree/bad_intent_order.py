"""intent-protocol fixture: coordinator out of declared order."""

from typing import List


class Southbound:
    def sync(self, name: str) -> None:
        raise NotImplementedError


class WriteAheadLog:
    def __init__(self, storage: Southbound) -> None:
        self.storage = storage

    def append(self, op: int, key: bytes, value: bytes) -> int:
        raise NotImplementedError

    def flush(self, durable: bool = True) -> None:
        if durable:
            self.storage.sync("log")


class BeTree:
    def put(self, key: bytes, value: bytes) -> None:
        raise NotImplementedError

    def delete(self, key: bytes) -> None:
        raise NotImplementedError


class KVEnv:
    def __init__(self, storage: Southbound) -> None:
        self.wal = WriteAheadLog(storage)
        self.tree = BeTree(storage)

    def insert(self, key: bytes, value: bytes, log: bool = True) -> None:
        if log:
            self.wal.append(1, key, value)
        self.tree.put(key, value)

    def delete(self, key: bytes, log: bool = True) -> None:
        if log:
            self.wal.append(2, key, b"")
        self.tree.delete(key)

    def sync(self) -> None:
        self.wal.flush(durable=True)


def pack_intent(key: bytes, value: bytes) -> bytes:
    raise NotImplementedError


class Coordinator:
    def __init__(self, envs: List[KVEnv]) -> None:
        self.envs = envs

    def two_phase(self, key: bytes, value: bytes) -> None:
        payload = pack_intent(key, value)
        coord = self.envs[0]
        coord.insert(key, payload)
        for env in self.envs:  # unsorted fan-out
            env.insert(key, value)  # line 63: apply before durable intent
            env.sync()  # line 64: unsorted fan-out sync
        coord.delete(key)

    def fire_and_forget(self, key: bytes, value: bytes) -> None:  # line 67
        payload = pack_intent(key, value)
        self.envs[0].insert(key, payload)

    def retire_early(self, key: bytes, value: bytes) -> None:
        payload = pack_intent(key, value)
        coord = self.envs[0]
        coord.insert(key, payload)
        coord.sync()
        for i in sorted([0, 1]):
            self.envs[i].insert(key, value)
            self.envs[i].sync()
        for i in sorted([1]):
            self.envs[i].delete(key)
        coord.delete(key)  # line 81: retired before the source delete is synced
