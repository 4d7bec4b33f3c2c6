"""The fork path of ``verify.verify_grid``.

``verify_grid`` imports this module only when it deals its rows to more
than one share, so a serial grid compiles none of it and loads neither
``pickle`` nor ``signal``. Each share but the grid's own runs in a forked
child, which inherits the grid's store and pickles its reports into a
pipe; ``_collect`` brings each share back.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import IO, Sequence

from .verify import VerificationReport, _row_reports


def _fork_share(share: range, ns: range, route_names: Sequence[str]) -> tuple[int, IO[bytes]] | None:
    """Fork a child that pickles the ``{k: reports}`` of the rows of
    ``share`` into a pipe, or exits having sent nothing; returns its pid and
    the read end of the pipe, or None, with no descriptor left open, when
    the pipe or the child cannot be made."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        # the child never returns into the caller and never flushes the
        # stdio buffers it inherited: it leaves through os._exit only
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                pickle.dump(_row_reports(share, ns, route_names), out, pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)
    # closed before the next fork, so only this child holds the write end
    # and the pipe reads EOF as soon as it exits
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _collect(
    child: tuple[int, IO[bytes]] | None, share: range, ns: range, route_names: Sequence[str]
) -> dict[int, list[VerificationReport]]:
    """The reports of ``share``, the one place a forked share comes back:
    those the child sent; otherwise the rows verified here, so that an
    exception is raised by this process as at ``jobs=1``."""
    try:
        if child:
            return pickle.load(child[1])
    except (EOFError, pickle.UnpicklingError):
        pass
    return _row_reports(share, ns, route_names)


def _terminate(signum: int, frame: object) -> None:
    # SIGTERM while a grid has children: leave by its kill path, with the
    # status 128 + SIGTERM that a shell reports for the signal
    raise SystemExit(128 + signum)


def verify_shares(
    shares: Sequence[range], own: range, ns: range, route_names: Sequence[str]
) -> dict[int, list[VerificationReport]]:
    """The ``{k: reports}`` of the rows of every share of ``shares`` and of
    ``own``: one child is forked per share of ``shares``, this process
    verifies ``own``, and then ``_collect`` brings back each other share.
    If it raises, it kills every child before waiting for it; while it has
    children, a SIGTERM raises ``SystemExit(143)`` here, and so takes that
    path. It puts back the SIGTERM handler it found, and sets none outside
    the main thread."""
    children = []
    previous = False  # the SIGTERM handler to put back, once one is set
    try:
        try:
            previous = signal.signal(signal.SIGTERM, _terminate)
        except ValueError:
            pass  # only the main thread can set a handler
        for share in shares:
            children.append((_fork_share(share, ns, route_names), share))
        by_k = _row_reports(own, ns, route_names)
        for child, share in children:
            by_k.update(_collect(child, share, ns, route_names))
    except BaseException:
        # an interrupt or a SIGTERM, say: no child's share is needed any more
        for pid, _ in (child for child, _ in children if child):
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if previous is not False:
            signal.signal(signal.SIGTERM, previous)
        for pid, reader in (child for child, _ in children if child):
            reader.close()
            os.waitpid(pid, 0)
    return by_k
