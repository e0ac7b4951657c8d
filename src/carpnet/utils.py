"""Small shared helpers: deterministic parallel mapping, atomic writes, hashing."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

T = TypeVar("T")
U = TypeVar("U")


def ordered_map(fn: Callable[[T], U], items: Iterable[T], threads: int = 1) -> list[U]:
    """Apply ``fn`` to ``items`` and return results in input order.

    With ``threads > 1`` the calls run in a thread pool, but the result list
    is always assembled in input order, so the output never depends on how
    the pool schedules the work.
    """
    work: Sequence[T] = list(items)
    if threads <= 1 or len(work) <= 1:
        return [fn(x) for x in work]
    from concurrent.futures import ThreadPoolExecutor  # only here: the import costs every process ~8 ms

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, work))


@contextmanager
def atomic_open(path: str | os.PathLike) -> Iterator[TextIO]:
    """Open a UTF-8 text handle on a temp file next to ``path``; rename it onto ``path`` on a clean exit.

    The handle writes newlines untranslated. Readers never observe a partially
    written file: any exception inside the block, interrupts included, deletes
    the temp file and leaves an existing ``path`` untouched.
    """
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write a finished ``text`` to ``path`` through :func:`atomic_open`."""
    with atomic_open(path) as handle:
        handle.write(text)


def sha256_file(path: str | os.PathLike) -> str:
    """Hex sha256 digest of a file, streamed in chunks."""
    import hashlib  # only here: it loads OpenSSL, which loading inputs never needs

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
