"""Serve any external model as a PredictionModel that owns its child process.

Wire protocol (newline-delimited UTF-8 on stdin/stdout):

  handshake   child emits one line: {"protocol": 1, "features": [...]}, or
              {"protocol": 2, "id": 0, "features": [...]}
  request     parent sends {"n": N} (protocol 2: {"n": N, "id": k}, k = 1,
              2, ... over the child's life) then N CSV rows, columns in the
              handshake feature order; categorical values travel as level
              labels, never as indices
  response    child answers N lines, one decimal prediction per line, in
              row order; under protocol 2 the line {"id": k} comes first

``_grid`` sends one request per grid point, the batch with the point
pinned, holding the model's lock for its slab; the engine's threads queue at
the lock. The text of the unpinned columns is formatted once per slab. All
of a slab's requests are in flight: they are written one after another into
the child's non-blocking stdin (POSIX) as fast as the pipe takes them, and
the answers are read on the caller's thread as they arrive, matched to
requests in request order. The pipes cannot deadlock: one poll waits for
room in the child's input and for its output together, so the child can
always finish writing an answer and read on. A daemon thread drains the
child's stderr, which only feeds error messages.

``timeout`` bounds each request. Its clock starts at the later of the start
of its write and the arrival of the previous request's last answer, so a
request is given as long as when it was sent alone, and covers the rest of
its write and all of its answers. After a timeout or a protocol error the
pairing of lines to requests is lost, so the child is killed and every
later request fails with BridgeError. Output that is not UTF-8 is a
protocol error too.

A line already in the pipe when a slab starts answers no request, so it is
a protocol error. Under protocol 1 a stray line that arrives later cannot be
told apart from an answer. Protocol 2 closes that gap: each request's
answers start with its id, so a stray line is a protocol error wherever it
arrives.
"""

from __future__ import annotations

import codecs
import collections
import contextlib
import csv
import io
import itertools
import json
import os
import select
import shlex
import subprocess
import threading
import time

import numpy as np

from .data import Dataset
from .errors import BridgeError, BridgeTimeoutError, ParameterError, ProtocolError, SpawnError
from .models import PredictionModel

#: Seconds a stopped child has to exit after its input closes before it is killed.
_REAP_WAIT_S = 2.0


def _poll_ms(seconds: float) -> float:
    """A wait of ``seconds`` as a poll timeout: never negative, which would
    wait forever, and at most a day, as poll waits at most 2^31 - 1 ms."""
    return min(max(seconds, 0.0), 86400.0) * 1000


class _LineReader:
    """The lines of a pipe, read on the caller's thread one ``os.read`` chunk
    at a time and decoded as UTF-8 with universal newlines."""

    def __init__(self, fd: int):
        self.fd = fd
        self.lines: list[str] = []  # complete lines not yet taken
        self.eof = False
        self._tail: list[str] = []  # the pieces of a line still open
        self._decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(),
                                                     translate=True)
        self._poller = select.poll()
        self._poller.register(fd, select.POLLIN)

    def ready(self, wait: float) -> bool:
        """Whether a read would not block, waiting up to ``wait`` s for it."""
        return bool(self._poller.poll(_poll_ms(wait)))

    def read(self) -> None:
        """Read one chunk, waiting for it, and add the lines it completes. At
        EOF set ``eof`` and add an unterminated last line too."""
        chunk = os.read(self.fd, 65536)
        try:
            text = self._decoder.decode(chunk, final=not chunk)
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"child wrote output that is not UTF-8: {exc}") from None
        *lines, tail = text.split("\n")
        if lines:
            lines[0] = "".join(self._tail) + lines[0]
            self.lines += lines
            self._tail = []
        self._tail.append(tail)
        if not chunk:
            self.eof, last, self._tail = True, "".join(self._tail), []
            if last:
                self.lines.append(last)


def _parse_handshake(line: str) -> tuple[tuple[str, ...], int]:
    """The feature names and protocol of a handshake line, whose integers
    must be JSON integers and whose names must be distinct, or SpawnError."""
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError):  # ValueError: also an integer past the digit limit
        raise SpawnError(f"handshake line is not JSON: {line.strip()[:200]!r}") from None
    fields = doc if isinstance(doc, dict) else {}
    protocol, features = fields.get("protocol"), fields.get("features")
    if (
        type(protocol) is not int or protocol not in (1, 2)  # a bool or a float is no integer
        or protocol == 2 and (type(fields.get("id")) is not int or fields["id"] != 0)
        or not isinstance(features, list) or not features
        or not all(isinstance(f, str) for f in features)
    ):
        raise SpawnError('handshake must be {"protocol": 1, "features": [...]} or {"protocol": 2, '
                         f'"id": 0, "features": [...]}}, got {line.strip()[:200]!r}')
    # a name given twice would fill two columns of every request from one pin
    (name, times), = collections.Counter(features).most_common(1)
    if times > 1:
        raise SpawnError(f"handshake names the feature {name!r} {times} times")
    return tuple(features), protocol


class ExternalModel(PredictionModel):
    """A child process scoring batches over the line protocol. The model owns
    the child: it spawns it, reads its handshake, talks to it and stops it,
    and a failed handshake kills it. Its stdout is read through ``_reader`` on
    the caller's thread; a daemon thread keeps the last 50 lines of stderr."""

    def __init__(self, argv: list[str], timeout: float):
        self.command, self.timeout = argv, timeout
        try:
            self._process = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        except OSError as exc:
            raise SpawnError(f"cannot launch {argv}: {exc}") from None
        os.set_blocking(self._process.stdin.fileno(), False)  # no write may outlast its deadline
        self._reader = _LineReader(self._process.stdout.fileno())
        self._stderr: collections.deque[str] = collections.deque(maxlen=50)
        self._stderr_pump = threading.Thread(target=self._pump_stderr, daemon=True)
        self._stderr_pump.start()
        self._lock = threading.Lock()
        self._failure: str | None = None
        self._sent = 0  # requests so far; protocol 2 numbers them from 1
        try:
            self._names, self.protocol = self._handshake()
        except SpawnError:
            self._stop(kill=True)
            raise

    def _pump_stderr(self):
        with self._process.stderr as stream:
            for line in stream:
                self._stderr.append(line.decode(errors="replace").rstrip("\r\n"))

    def _stderr_text(self) -> str:
        return "\n".join(self._stderr)

    def _handshake(self) -> tuple[tuple[str, ...], int]:
        """Read the first line within ``timeout`` and parse it. Lines after
        it are left for the first request's stray-line check."""
        reader, deadline = self._reader, time.monotonic() + self.timeout
        try:
            while not reader.lines and not reader.eof and time.monotonic() < deadline:
                if reader.ready(deadline - time.monotonic()):
                    reader.read()
        except ProtocolError as exc:
            raise SpawnError(f"cannot read the handshake of {self.command}: {exc}") from None
        if not reader.lines and not reader.eof:
            raise SpawnError(f"no handshake within {self.timeout}s from {self.command}")
        if not reader.lines:
            self._stop()  # reap it for its exit code, and read its stderr to the end
            raise SpawnError(f"child exited (code {self._process.returncode}) before the "
                             f"handshake; stderr:\n{self._stderr_text()}")
        return _parse_handshake(reader.lines.pop(0))

    def _stop(self, kill: bool = False) -> None:
        """Close the child's input and output, reap it (killed at once if
        ``kill``, else after ``_REAP_WAIT_S``), and give the stderr thread 2 s
        to reach EOF. Closing the output before the wait makes a child that is
        still writing fail at once instead of blocking on a full pipe."""
        if kill:
            self._process.kill()
        with contextlib.suppress(OSError):  # a child that died unread leaves a broken pipe
            self._process.stdin.close()
        self._process.stdout.close()
        try:
            self._process.wait(timeout=_REAP_WAIT_S)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._stderr_pump.join(timeout=2)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self._names

    def _grid(self, batch: Dataset, cols: list[int], pinned: np.ndarray) -> np.ndarray:
        out = np.empty((len(pinned), batch.n_rows))
        with self._lock:
            if self._failure is not None:
                raise BridgeError(f"the child was stopped after an earlier failure: "
                                  f"{self._failure}")
            try:
                self._stream(batch, cols, pinned, out)
            except (BridgeTimeoutError, ProtocolError) as exc:
                self._failure = str(exc)
                self._stop(kill=True)
                raise
        return out

    def _requests(self, batch: Dataset, cols: list[int], pinned: np.ndarray):
        """Each point's request as bytes: the batch with the point pinned, the
        unpinned columns' text formatted once."""
        n = batch.n_rows
        features = [self._names[j] for j in cols]
        cells = {name: batch._text_cells(name) for name in self._names if name not in features}
        texts = [batch._text_cells(name, values) for name, values in zip(features, pinned.T)]
        for g in range(len(pinned)):
            for name, text in zip(features, texts):
                cells[name] = itertools.repeat(text[g], n)
            self._sent += 1
            header = {"n": n, "id": self._sent} if self.protocol == 2 else {"n": n}
            body = io.StringIO()
            csv.writer(body, lineterminator="\n").writerows(
                zip(*(cells[name] for name in self._names)))
            yield (json.dumps(header) + "\n" + body.getvalue()).encode()

    def _stream(self, batch: Dataset, cols: list[int], pinned: np.ndarray, out: np.ndarray):
        """Write the slab's requests as fast as the pipe takes them and read
        their answers into ``out``, in order, as they arrive."""
        (total, n), tagged = out.shape, self.protocol == 2
        reader, lines = self._reader, self._reader.lines
        if not reader.eof and reader.ready(0.0):
            reader.read()
        if lines:
            raise ProtocolError(f"child sent a line that answers no request: "
                                f"{lines[0].strip()[:200]!r}")
        first_id = self._sent + 1
        requests = self._requests(batch, cols, pinned)
        in_fd, view = self._process.stdin.fileno(), memoryview(b"")
        poller = select.poll()
        poller.register(reader.fd, select.POLLIN)  # always, so the child can always answer
        began, done = [], []  # per request: its write's start, its last answer's arrival
        g = i = 0  # the request being read, and how many of its answers are in
        header = tagged  # request g's id line is still due
        while g < total or view:
            if not view and len(began) < total:
                view = memoryview(next(requests))
                began.append(time.monotonic())
                poller.register(in_fd, select.POLLOUT)
            else:
                h = min(g, len(began) - 1) if view else g  # the earliest request still open
                deadline = max(began[h], done[h - 1] if h else 0.0) + self.timeout
                wait, held = deadline - time.monotonic(), len(lines)
                for fd, _ in poller.poll(_poll_ms(wait)):
                    if fd == in_fd:
                        try:  # each write takes what the pipe has room for
                            view = view[os.write(in_fd, view):]
                        except OSError as exc:
                            raise ProtocolError(f"child closed its input: {exc}; "
                                                f"stderr:\n{self._stderr_text()}")
                        if not view:
                            poller.unregister(in_fd)
                    else:
                        reader.read()
                if wait <= 0 and len(lines) == held and not reader.eof:  # no line came in time
                    if view and h == len(began) - 1:
                        raise BridgeTimeoutError(f"child took not all of a {n}-row request "
                                                 f"within the {self.timeout}s timeout",
                                                 received=i if h == g else n)
                    raise BridgeTimeoutError(f"child answered {i} of {n} predictions before "
                                             f"the {self.timeout}s timeout", received=i)
            pos = 0  # read the answers that are in; lines past the slab's last stay
            while g < len(began):
                if header:
                    if pos == len(lines):
                        break
                    try:
                        doc = json.loads(lines[pos])
                    except (ValueError, RecursionError):
                        doc = None
                    if doc != {"id": first_id + g}:
                        raise ProtocolError(f'expected the answer header {{"id": {first_id + g}}}'
                                            f", got {lines[pos].strip()[:200]!r}")
                    pos, header = pos + 1, False
                k = min(n - i, len(lines) - pos)
                try:
                    out[g, i:i + k] = [*map(float, lines[pos:pos + k])]
                except ValueError:
                    for j, line in enumerate(lines[pos:pos + k]):
                        try:
                            float(line)
                        except ValueError:
                            raise ProtocolError(f"response line {i + j + 1} is not a number: "
                                                f"{line.strip()!r}") from None
                i, pos = i + k, pos + k
                if i < n:
                    break
                done.append(time.monotonic())
                g, i, header = g + 1, 0, tagged
            del lines[:pos]
            if reader.eof and (g < total or view):
                raise ProtocolError(f"child ended output after {i} of {n} predictions; "
                                    f"stderr:\n{self._stderr_text()}")

    def close(self) -> None:
        self._stop()

    def __enter__(self) -> "ExternalModel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        with contextlib.suppress(Exception):  # a failed launch leaves no _process
            self.close()


def spawn_external(command, timeout: float = 30.0) -> ExternalModel:
    """Launch a child model and complete the protocol handshake.

    ``command`` is a program string (shlex rules) or an argument list;
    ``timeout``, in seconds, bounds the handshake and each request.
    """
    if not 0 < timeout <= threading.TIMEOUT_MAX:
        raise ParameterError(f"timeout must be a positive number of seconds, "
                             f"at most {threading.TIMEOUT_MAX:g}; got {timeout}")
    try:
        argv = shlex.split(command) if isinstance(command, str) else list(command)
    except ValueError as exc:  # an unterminated quote or escape
        raise SpawnError(f"cannot parse the command {command!r}: {exc}") from None
    if not argv:
        raise SpawnError("the external command is empty")
    return ExternalModel(argv, timeout)
