"""The signature record: digests of settled files, kept with their stat signatures.

A work dir's ``signatures.json`` maps the name of each corpus part and
work-dir file whose digest a run took from its contents to that digest and
the signature of the file stat it was taken under. While the signature
stays, a later run takes the recorded digest without opening the file. An
entry is recorded only once its files have settled (``SETTLE_NS``), so that
any later change of a file changes its signature. A file hashed before it
settled keeps its name with ``UNSETTLED``'s fields, of the same length, and
every run rewrites the record: so the bytes a run writes depend on which
files it hashed, not on how old they were.
"""

import hashlib
import os
import stat
import struct
import time
from collections import Counter
from collections.abc import Callable

from .corpus import open_file

# A file's signature vouches for its digest only once the file has settled:
# when its bytes are hashed, its mtime and ctime are at least this much older
# than the wall clock. Any later change of the file then moves one of them
# past the recorded value, on filesystems with 1-s or 2-s timestamps and
# under the kernel's coarse clock too.
SETTLE_NS = 2_000_000_000

_STAT = struct.Struct("<QQIqqq")

# The entry of a file hashed before it settled; no signature is all zeros.
UNSETTLED = {"digest": "0" * 64, "signature": "0" * 64}


def stat_field(st: os.stat_result | None) -> bytes:
    """The fields of ``st`` that every change of its file changes: device,
    inode, mode, size, mtime and ctime; one byte for a file that is missing
    or not regular (``st`` None or not a regular file's)."""
    if st is None or not stat.S_ISREG(st.st_mode):
        return b"\0"
    return b"\1" + _STAT.pack(st.st_dev, st.st_ino, st.st_mode, st.st_size,
                              st.st_mtime_ns, st.st_ctime_ns)


def signature(st: os.stat_result) -> str:
    """The signature of the one file whose stat is ``st``."""
    return hashlib.sha256(stat_field(st)).hexdigest()


def changed(st: os.stat_result) -> int:
    """The newer of the file's mtime and ctime, in ns."""
    return max(st.st_mtime_ns, st.st_ctime_ns)


def sha256(path) -> tuple[str, str, int]:
    """sha256 of the file at ``path``, read in 1 MiB pieces; the signature
    of the ``fstat`` taken before the first; and its :func:`changed`."""
    h = hashlib.sha256()
    fh, st = open_file(path)
    with fh:
        while piece := fh.read(1 << 20):
            h.update(piece)
    return h.hexdigest(), signature(st), changed(st)


def valid_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("signature"), str)
            and isinstance(entry.get("digest"), str))


class Contradicted(Exception):
    """The contents of the corpus part or work-dir file named by the first
    argument disagree with the digest that the record gave for them."""


class Record:
    """One run's view of the record: its ``entries`` as read and as the run
    updates them, the names whose digest the run took from the record
    (``trusted``), and how it took each digest (``how``): ``signature``, or
    why it read the contents."""

    def __init__(self, entries: dict | None):
        self.entries: dict[str, dict[str, str]] = dict(entries or {})
        self.trusted: set[str] = set()
        self.how: dict[str, str] = {}

    def verified(self, name: str, signature: Callable[[], str],
                 content: Callable[[], tuple[str, str, int]], why: str | None = None) -> str:
        """The digest of ``name``: the recorded one while ``signature()``, its
        files' stat signature now, is the one recorded with it; otherwise
        (and always when ``why`` says why the contents are read anyway) the
        digest of ``content()``, which returns the contents' digest, their
        signature and their :func:`changed`, as :meth:`hashed` takes it."""
        entry = self.entries.get(name, UNSETTLED)
        if why is None and entry != UNSETTLED and entry["signature"] == signature():
            self.trusted.add(name)
            self.how[name] = "signature"
            return entry["digest"]
        now = time.time_ns()
        return self.hashed(name, now, *content(), why)

    def hashed(self, name: str, now: int, digest: str, signature: str, changed: int,
               why: str | None) -> str:
        """Return ``digest``, just taken from ``name``'s contents under file
        ``signature``, after recording the two if the newest change of its
        files, ``changed``, is ``SETTLE_NS`` older than ``now`` (the wall
        clock before their ``fstat``), and else recording ``UNSETTLED``; raise
        Contradicted if the record holds another digest under the same
        signature."""
        entry = self.entries.get(name, UNSETTLED)
        settled = changed <= now - SETTLE_NS
        if entry == UNSETTLED:
            self.how[name] = "no entry" if settled else "too recent to settle"
        elif entry["signature"] != signature:
            self.how[name] = "signature changed"
        elif entry["digest"] != digest:
            raise Contradicted(name)
        else:
            self.how[name] = why or "signature changed"
        self.entries[name] = (
            {"digest": digest, "signature": signature} if settled else UNSETTLED)
        return digest

    def forget(self, name: str) -> None:
        """Drop ``name``'s entry: a stage has replaced the file."""
        self.entries.pop(name, None)
        self.trusted.discard(name)

    def discard(self) -> None:
        """Drop every entry, read or recorded, and all trust in them."""
        self.entries = {}
        self.trusted.clear()

    def summary(self) -> str:
        """How many corpus parts (names with a space) and work-dir files the
        record verified, and how many were hashed, by reason."""
        counts = Counter((" " in name, how) for name, how in self.how.items())

        def tally(part: bool, noun: str) -> str:
            reasons = sorted((how, n) for (p, how), n in counts.items()
                             if p == part and how != "signature")
            why = ", ".join(f"{n} {how}" for how, n in reasons)
            return f"{sum(n for _, n in reasons)} {noun}" + (f" ({why})" if why else "")

        return (f"digests: {counts[True, 'signature']} corpus parts and "
                f"{counts[False, 'signature']} work-dir files verified by signature; "
                f"hashed {tally(True, 'corpus parts')} and {tally(False, 'work-dir files')}")
