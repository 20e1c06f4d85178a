"""Same-instant ordering helpers shared by the core and property tests.

* :func:`recorder_digest` pins a run's records byte for byte, in the
  order they were appended; :func:`order_free_digest` pins only which
  records exist.  A change that merely reorders completions sharing a
  simulated instant moves the first and must leave the second alone.
* :func:`shuffle_ties` makes an environment break same-``(time,
  priority)`` ties in a seeded random order instead of FIFO, so a test
  can check what must hold under every legal same-instant order.
"""

import hashlib
import itertools
import random


def record_rows(recorder) -> list[tuple]:
    """Every record's observable fields (floats in exact hex form)."""
    return [(r.task_kind, r.outcome, r.user, r.start_s.hex(),
             r.end_s.hex(), r.correct) for r in recorder.records]


def recorder_digest(recorder) -> str:
    """A byte-exact fingerprint of the records, in append order."""
    return hashlib.sha256(repr(record_rows(recorder)).encode()).hexdigest()


def order_free_digest(recorder) -> str:
    """:func:`recorder_digest` over the *sorted* rows: pins which
    records exist, not the order same-instant completions append in."""
    return hashlib.sha256(
        repr(sorted(record_rows(recorder))).encode()).hexdigest()


def shuffle_ties(env, seed: int) -> None:
    """Make ``env`` pop same-``(time, priority)`` entries in random order.

    A queue entry is ``(time, priority, seq, event)``, and the kernel
    takes each ``seq`` from ``env._seq`` and advances it with ``+ 1``
    (``Environment.schedule`` and the schedule inlined in
    ``Process._resume`` alike).  Here ``_seq`` becomes an ``int`` whose
    ``+ 1`` is a fresh seeded random key, so every tie scheduled from now
    on is permuted on the real queue path.  A counter in the low bits
    keeps keys unique: two entries never fall through to comparing
    their events.
    """
    rng = random.Random(seed)
    count = itertools.count()

    class ShuffledSeq(int):
        __slots__ = ()

        def __add__(self, other):
            return ShuffledSeq(rng.getrandbits(64) << 64 | next(count))

    env._seq = ShuffledSeq(env._seq) + 1
