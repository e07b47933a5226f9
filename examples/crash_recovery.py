#!/usr/bin/env python3
"""Crash-consistency demo: pull the plug mid-workload and reboot.

Shows the durability contract the paper describes (§2.2): after a
crash, the state is consistent with a prefix of the log; everything up
to the last fsync survives.

Run:  python examples/crash_recovery.py
"""

from repro.betrfs import make_betrfs
from repro.betrfs.filesystem import MountOptions


def main() -> None:
    fs = make_betrfs("BetrFS v0.6", MountOptions(scale=1 / 16))
    v = fs.vfs

    # Durable phase: written and fsynced.
    v.mkdir("/mail")
    for i in range(50):
        path = f"/mail/msg{i:03d}"
        v.create(path)
        v.write(path, 0, b"Subject: %03d\r\n\r\nbody\r\n" % i)
    v.sync()
    print("synced 50 messages")

    # Volatile phase: written but never synced.
    for i in range(50, 60):
        path = f"/mail/msg{i:03d}"
        v.create(path)
        v.write(path, 0, b"volatile")
    print("wrote 10 more messages WITHOUT sync ... pulling the plug")

    # Crash: snapshot exactly what reached the device, then re-mount
    # that image — the same assembly as above, recovering instead of
    # formatting — and look through the recovered file system.
    fs2 = fs.crash()
    print(f"recovery replayed {fs2.env.recovered_entries} log entries "
          f"({fs2.env.recovery_lost} lost)")

    names = set(fs2.vfs.readdir("/mail"))
    durable = sum(1 for i in range(50) if f"msg{i:03d}" in names)
    volatile = sum(1 for i in range(50, 60) if f"msg{i:03d}" in names)
    print(f"after reboot: {durable}/50 synced messages survived "
          f"(must be 50), {volatile}/10 unsynced survived (may be 0-10)")
    assert durable == 50


if __name__ == "__main__":
    main()
