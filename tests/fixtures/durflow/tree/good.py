"""Clean fixture: every discipline followed — zero findings."""

class BlockDevice:
    def flush(self) -> None:
        raise NotImplementedError


class Southbound:
    def __init__(self, device: BlockDevice) -> None:
        self.device = device

    def write(self, name: str, off: int, data: bytes) -> None:
        raise NotImplementedError

    def sync(self, name: str) -> None:
        self.device.flush()


class WriteAheadLog:
    def __init__(self, storage: Southbound) -> None:
        self.storage = storage

    def append(self, op: int, key: bytes, value: bytes) -> int:
        raise NotImplementedError

    def flush(self, durable: bool = True) -> None:
        self.storage.write("log", 0, b"")
        if durable:
            self.storage.sync("log")


class BeTree:
    def __init__(self, storage: Southbound) -> None:
        self.storage = storage

    def put(self, key: bytes, value: bytes) -> None:
        raise NotImplementedError

    def delete(self, key: bytes) -> None:
        raise NotImplementedError

    def write_dirty_nodes(self) -> None:
        self.storage.write("data.db", 0, b"")


class KVEnv:
    def __init__(self, storage: Southbound) -> None:
        self.storage = storage
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

    def checkpoint(self) -> None:
        self.tree.write_dirty_nodes()
        self.storage.sync("data.db")
        self.storage.write("superblock", 0, b"")
        self.storage.sync("superblock")
