"""Cross-layer property tests (hypothesis).

1. The KV environment recovers to a state consistent with its model
   after a crash at an arbitrary point: everything before the last
   sync must survive.
2. The VFS over BetrFS behaves like an in-memory model filesystem
   under random operation sequences.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.env import META
from repro.device.clock import SimClock
from repro.model.costs import CostModel
from tests.conftest import make_env, reopen, small_cfg


def tight_cfg():
    """A cache small enough that the crash property sees evictions."""
    return small_cfg(cache_bytes=256 * 1024)


crash_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "range_delete", "sync", "checkpoint"]),
        st.integers(0, 40),
        st.integers(0, 40),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=25, deadline=None)
@given(crash_ops)
def test_crash_recovery_preserves_synced_prefix(op_list):
    env, device = make_env(tight_cfg())
    model = {}
    synced_model = {}
    for n, (op, x, y) in enumerate(op_list):
        k = b"k%02d" % x
        if op == "insert":
            v = b"v%02d-%d" % (y, n)
            env.insert(META, k, v)
            model[k] = v
        elif op == "delete":
            env.delete(META, k)
            model.pop(k, None)
        elif op == "range_delete":
            lo, hi = sorted((x, y))
            klo, khi = b"k%02d" % lo, b"k%02d" % hi
            if klo < khi:
                env.range_delete(META, klo, khi)
                for dead in [kk for kk in model if klo <= kk < khi]:
                    del model[dead]
        elif op == "sync":
            env.sync()
            synced_model = dict(model)
        else:
            env.checkpoint()
            synced_model = dict(model)
    # Crash now, reopen, and verify every synced key/tombstone.
    env2 = reopen(device, tight_cfg())
    for k, v in synced_model.items():
        got = env2.get(META, k)
        # Post-sync (unsynced) ops may or may not have reached the
        # device; the recovered value is either the synced one or a
        # newer (volatile-at-crash) one — never anything else.
        acceptable = {v, model.get(k)}
        assert got in acceptable, (k, got, acceptable)
    for k in synced_model:
        if k not in model and env2.get(META, k) is not None:
            # Deleted after sync but resurrected? Only legal if the
            # value matches the synced state.
            assert env2.get(META, k) == synced_model[k]


# ----------------------------------------------------------------------
# Crash-prefix property: any durable prefix of the volatile write
# cache recovers a state the crash oracle accepts (synced data intact,
# unsynced ops as an atomic prefix).
# ----------------------------------------------------------------------
crashmc_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "delete", "wflush", "sync"]),
        st.integers(0, 15),
        st.integers(0, 15),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=10, deadline=None)
@given(crashmc_ops)
def test_any_cache_prefix_recovers_oracle_consistent(op_list):
    from repro.crashmc import CrashPlan, Op, Oracle, run_case
    from repro.crashmc.explore import VIOLATION, _Stack

    stack = _Stack()
    oracle = Oracle()
    safe_epoch = 0  # epochs >= this were sealed after the last sync ack
    for kind, x, y in op_list:
        if kind == "insert":
            op = Op("insert", META, b"k%02d" % x, b"v%02d" % y)
        elif kind == "delete":
            op = Op("delete", META, b"k%02d" % x)
        else:
            op = Op(kind)
        oracle.begin(op)
        stack.apply(op)
        oracle.commit(op)
        if kind == "sync":
            safe_epoch = stack.device.sealed_epochs()
    # Crash with every in-order prefix of the unflushed commands (the
    # states an ordered cache drain can leave behind), plus every
    # everything-lost rollback to a barrier epoch sealed since the
    # last acknowledged sync (earlier rollbacks would lose data the
    # oracle rightly believes durable — not a reachable crash state).
    seqs = [r.seq for r in stack.device.unflushed()]
    plans = [CrashPlan(selected=tuple(seqs[:i])) for i in range(len(seqs) + 1)]
    plans += [
        CrashPlan(selected=(), epoch=e)
        for e in range(safe_epoch, stack.device.sealed_epochs())
    ]
    for plan in plans:
        result = run_case(stack, oracle, plan)
        assert result.status != VIOLATION, (
            plan.describe(), result.stage, result.detail,
        )


# ----------------------------------------------------------------------
# VFS-vs-model filesystem property
# ----------------------------------------------------------------------
from repro.betrfs.filesystem import MountOptions, make_betrfs  # noqa: E402
from repro.vfs.vfs import FSError  # noqa: E402
from tests.test_tree import assert_kept_sizes_are_current  # noqa: E402

vfs_ops = st.lists(
    st.tuples(
        st.sampled_from(["create", "write", "unlink", "rename", "mkdir", "rmdir", "sync"]),
        st.integers(0, 12),
        st.integers(0, 12),
        st.integers(0, 3000),
    ),
    max_size=50,
)


@settings(max_examples=20, deadline=None)
@given(vfs_ops, st.sampled_from(["BetrFS v0.4", "BetrFS v0.6"]))
def test_vfs_matches_model_filesystem(op_list, version):
    fs = make_betrfs(version, MountOptions(scale=1 / 32))
    v = fs.vfs
    files = {}  # path -> bytes
    dirs = {"/"}
    for op, x, y, size in op_list:
        fpath = f"/f{x:02d}"
        dpath = f"/d{x:02d}"
        try:
            if op == "create":
                v.create(fpath)
                assert fpath not in files
                files[fpath] = b""
            elif op == "write":
                data = bytes([y % 251]) * (size % 3000 + 1)
                v.write(fpath, y * 100, data)
                assert fpath in files
                base = files[fpath]
                end = y * 100 + len(data)
                if len(base) < end:
                    base = base + b"\x00" * (end - len(base))
                files[fpath] = base[: y * 100] + data + base[end:]
            elif op == "unlink":
                v.unlink(fpath)
                assert fpath in files
                del files[fpath]
            elif op == "rename":
                dst = f"/f{y:02d}"
                v.rename(fpath, dst)
                assert fpath in files  # onto itself: a no-op, as on Linux
                files[dst] = files.pop(fpath)
            elif op == "mkdir":
                v.mkdir(dpath)
                assert dpath not in dirs
                dirs.add(dpath)
            elif op == "rmdir":
                v.rmdir(dpath)
                assert dpath in dirs
                dirs.discard(dpath)
            else:
                v.sync()
        except FSError:
            # The model must agree the operation was illegal.
            if op == "create":
                assert fpath in files
            elif op == "write":
                assert fpath not in files
            elif op == "unlink":
                assert fpath not in files
            elif op == "rename":
                assert fpath not in files
            elif op == "mkdir":
                assert dpath in dirs
            elif op == "rmdir":
                assert dpath not in dirs
        # Under the whole stack — by-ref page messages, blind patches
        # into sealed frames, copying inserts (v0.4), unlink's range
        # deletes — every size a message or node keeps is a recount.
        assert_kept_sizes_are_current(fs.env)
    # Final state equivalence.
    for path, body in files.items():
        assert v.read(path, 0, len(body) + 16) == body
    root_names = set(v.readdir("/"))
    expected = {p[1:] for p in files} | {d[1:] for d in dirs if d != "/"}
    assert root_names == expected


# ----------------------------------------------------------------------
# Page cache vs brute-force scans of its own page map
# ----------------------------------------------------------------------
from repro.check.errors import CacheInvariantError  # noqa: E402
from repro.check.sanitize import SanitizerSuite  # noqa: E402
from repro.core.messages import PageFrame  # noqa: E402
from repro.vfs.pagecache import PAGE_SIZE, Mapping, PageCache  # noqa: E402

pagecache_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["write"] * 4
            + ["insert_clean", "mark_clean", "lookup", "fit", "fit", "drop_file", "drop_all"]
            + ["rename"] * 2
        ),
        st.integers(0, 5),
        st.integers(0, 7),
    ),
    max_size=120,
)


def scan_fit(pc):
    """What ``evict_to_fit`` must do, by the walk over every key it
    used to make: ``(need_writeback, victims)``."""
    need, victims = [], []
    used = len(pc._pages) * PAGE_SIZE
    for key in list(pc._pages):
        if used <= pc.budget:
            break
        if pc._pages[key].dirty:
            need.append((key[0].path, key[1], pc._pages[key]))
            continue
        victims.append(key)
        used -= PAGE_SIZE
    return need, victims


@settings(max_examples=60, deadline=None)
@given(pagecache_ops)
def test_pagecache_index_matches_scans_of_the_page_map(op_list):
    pc = PageCache(SimClock(), CostModel(), 12 * PAGE_SIZE, 6 * PAGE_SIZE)
    check = SanitizerSuite.check_pagecache
    for op, f, idx in op_list:
        path = f"/f{f}"
        if op == "write":
            pc.write(path, idx, idx, b"w" * (f + 1))
        elif op == "insert_clean":
            pc.insert_clean(path, idx, PageFrame(bytes(PAGE_SIZE)))
        elif op == "mark_clean":
            pc.mark_clean(path, idx, shared=bool(f % 2))
        elif op == "lookup":
            pc.lookup(path, idx)
        elif op == "drop_file":
            pc.drop_file(path)
            assert not any(m.path == path for m, _i in pc._pages)
        elif op == "rename":
            # As the VFS does it: the target's own pages go first.
            dst = f"/f{idx % 6}"
            if dst != path:
                pc.drop_file(dst)
                order = list(pc._pages.values())
                pc.rename_file(path, dst)
                assert list(pc._pages.values()) == order  # LRU places kept
                assert path not in pc._files
        elif op == "drop_all":
            pc.drop_all()
            assert not pc._pages and pc.dirty_bytes == 0
        else:
            need, victims = scan_fit(pc)
            before, evictions = list(pc._pages), pc.evictions
            assert pc.evict_to_fit() == need
            assert list(pc._pages) == [k for k in before if k not in victims]
            assert pc.evictions == evictions + len(victims)
        check(pc)
        by_scan = [(m.path, i, pg) for (m, i), pg in pc._pages.items() if pg.dirty]
        assert pc.dirty_pages() == by_scan
        mine = [t for t in by_scan if t[0] == path]
        assert sorted(pc.dirty_pages(path), key=lambda t: t[1]) == sorted(
            mine, key=lambda t: t[1]
        )
    pc._files["/ghost"] = Mapping("/ghost")
    with pytest.raises(CacheInvariantError):
        check(pc)
