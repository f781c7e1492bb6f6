"""Serve any external model as a PredictionModel over a child process.

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
between writes the answers that have arrived are read, matched to requests
in request order. The pipes cannot deadlock: a thread always drains the
child's stdout, so the child can always finish writing an answer and read
on, whatever the parent is doing.

``timeout`` bounds each request. Its clock starts at the later of the start
of its write and the arrival of the previous request's last answer, so a
request is given as long as when it was sent alone, and covers the rest of
its write and all of its answers. After a timeout or a protocol error the
pairing of lines to requests is lost, so the child is killed and every
later request fails with BridgeError.

A line already queued when a slab starts answers no request, so it is a
protocol error. Under protocol 1 a stray line that arrives later cannot be
told apart from an answer. Protocol 2 closes that gap: each request's
answers start with its id, so a stray line is a protocol error wherever it
arrives.
"""

from __future__ import annotations

import bisect
import codecs
import collections
import csv
import io
import itertools
import json
import os
import queue
import select
import shlex
import subprocess
import threading
import time

import numpy as np

from .data import Dataset
from .errors import BridgeError, BridgeTimeoutError, ParameterError, ProtocolError, SpawnError
from .models import PredictionModel


class _Child:
    """A spawned child whose output pipes are drained on daemon threads.

    Stdout is read in chunks, and the complete lines of each chunk queue up
    as one (arrival time, lines) item, so reads can time out cleanly; the
    last 50 stderr lines are kept for error messages. Each thread closes its
    own pipe at EOF, which queues as None.
    """

    def __init__(self, process: subprocess.Popen):
        self.process = process
        self.stderr: collections.deque[str] = collections.deque(maxlen=50)
        self._lines: queue.Queue = queue.Queue()
        self._threads = [threading.Thread(target=pump, daemon=True)
                         for pump in (self._pump_stdout, self._pump_stderr)]
        for thread in self._threads:
            thread.start()

    def _pump_stdout(self):
        decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(),
                                               translate=True)
        tail = []  # the pieces of a line still open
        with self.process.stdout as stream:
            while chunk := os.read(stream.fileno(), 65536):
                text = decoder.decode(chunk)
                if "\n" not in text:
                    tail.append(text)
                    continue
                lines = text.split("\n")
                lines[0] = "".join(tail) + lines[0]
                tail = [lines.pop()]
                self._lines.put((time.monotonic(), lines))
            last = "".join(tail) + decoder.decode(b"", final=True)
            if last:
                self._lines.put((time.monotonic(), [last]))
        self._lines.put(None)

    def _pump_stderr(self):
        with self.process.stderr as stream:
            for line in stream:
                self.stderr.append(line.rstrip("\n"))

    def take(self, timeout: float) -> list:
        """Every queued (arrival time, lines) item, waiting up to ``timeout`` s
        for the first ([] if none comes). An EOF ends the list as None and
        stays queued."""
        try:
            first = self._lines.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            return []
        with self._lines.mutex:
            items = [first, *self._lines.queue]
            self._lines.queue.clear()
            if items[-1] is None:
                self._lines.queue.append(None)
        return items

    def unread(self, *items) -> None:
        """Put (arrival time, lines) items back at the head of the queue, in order."""
        with self._lines.mutex:
            self._lines.queue.extendleft(reversed(items))
            self._lines.not_empty.notify()

    def stderr_text(self) -> str:
        return "\n".join(self.stderr)

    def stop(self, kill: bool = False) -> None:
        """Close the child's input, reap it (killed at once if ``kill``, else
        after 2 s), and give each pipe thread 2 s to reach EOF."""
        if kill:
            self.process.kill()
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for thread in self._threads:
            thread.join(timeout=2)


class ExternalModel(PredictionModel):
    """A handshaken child process scoring batches over the line protocol."""

    def __init__(self, command, child: _Child, feature_names, timeout, protocol):
        self.command = command
        self.timeout = timeout
        self.protocol = protocol
        self._names = tuple(feature_names)
        self._child = child
        self._process = child.process
        self._lock = threading.Lock()
        self._failure: str | None = None
        self._sent = 0  # requests so far; protocol 2 numbers them from 1

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
                self._child.stop(kill=True)
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
        """Write the slab's requests as fast as the pipe takes them and, between
        writes, read the answers that have arrived into ``out``, in order."""
        child, (total, n), tagged = self._child, out.shape, self.protocol == 2
        stray = [line for item in child.take(0.0) if item for line in item[1]]
        if stray:
            raise ProtocolError(f"child sent a line that answers no request: "
                                f"{stray[0].strip()[:200]!r}")
        first_id = self._sent + 1
        requests = self._requests(batch, cols, pinned)
        fd, view = self._process.stdin.fileno(), memoryview(b"")
        poller = select.poll()
        poller.register(fd, select.POLLOUT)
        began, done = [], []  # per request: its write's start, its last answer's arrival
        g = i = 0  # the request being read, and how many of its answers are in
        header = tagged  # request g's id line is still due

        def read_answers(items):
            """Read the lines of (arrival time, lines) items into ``out``."""
            nonlocal g, i, header
            lines = [*itertools.chain.from_iterable(chunk for _, chunk in items)]
            ends = [*itertools.accumulate(len(chunk) for _, chunk in items)]
            pos = 0
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
                done.append(items[bisect.bisect(ends, pos - 1)][0])
                g, i, header = g + 1, 0, tagged
            if pos < len(lines):  # past the slab's last answer: left for the next stray check
                child.unread((items[-1][0], lines[pos:]))

        while g < total or view:
            if not view and len(began) < total:
                view = memoryview(next(requests))
                began.append(time.monotonic())
                read_answers([(began[-1], [])])  # a 0-row request under protocol 1 is answered
            h = min(g, len(began) - 1) if view else g  # the earliest request still open
            deadline = max(began[h], done[h - 1] if h else 0.0) + self.timeout
            wait = deadline - time.monotonic()
            if view:
                # poll waits at most 2^31 - 1 ms; past a day it returns to wait again
                if wait > 0 and poller.poll(min(wait, 86400.0) * 1000):
                    try:  # each write takes what the pipe has room for
                        view = view[os.write(fd, view):]
                    except OSError as exc:
                        raise ProtocolError(f"child closed its input: {exc}; "
                                            f"stderr:\n{child.stderr_text()}")
                wait = 0.0
            items = child.take(wait) if g < total else []
            read_answers(list(filter(None, items)))
            if items and items[-1] is None and g < total:
                raise ProtocolError(f"child ended output after {i} of {n} predictions; "
                                    f"stderr:\n{child.stderr_text()}")
            if not items and time.monotonic() >= deadline:
                if view and h == len(began) - 1:
                    raise BridgeTimeoutError(f"child took not all of a {n}-row request within "
                                             f"the {self.timeout}s timeout",
                                             received=i if h == g else n)
                raise BridgeTimeoutError(f"child answered {i} of {n} predictions before the "
                                         f"{self.timeout}s timeout", received=i)

    def close(self) -> None:
        self._child.stop()

    def __enter__(self) -> "ExternalModel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


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
    try:
        process = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
    except OSError as exc:
        raise SpawnError(f"cannot launch {argv}: {exc}") from None

    os.set_blocking(process.stdin.fileno(), False)  # a write must not outlast its deadline
    child = _Child(process)
    items = child.take(timeout)
    if not items:
        child.stop(kill=True)
        raise SpawnError(f"no handshake within {timeout}s from {argv}")
    if items[0] is None:
        child.stop()
        raise SpawnError(
            f"child exited (code {process.returncode}) before the handshake; "
            f"stderr:\n{child.stderr_text()}"
        )
    (arrived, (line, *lines)), *rest = items
    child.unread((arrived, lines), *filter(None, rest))  # for the first request's stray check
    try:
        doc = json.loads(line)
    except (json.JSONDecodeError, RecursionError):
        child.stop(kill=True)
        raise SpawnError(f"handshake line is not JSON: {line.strip()[:200]!r}") from None
    if (
        not isinstance(doc, dict)
        or doc.get("protocol") not in (1, 2)
        or doc["protocol"] == 2 and doc.get("id") != 0
        or not isinstance(doc.get("features"), list)
        or not all(isinstance(f, str) for f in doc["features"])
        or not doc["features"]
    ):
        child.stop(kill=True)
        raise SpawnError(
            'handshake must be {"protocol": 1, "features": [...]} or '
            f'{{"protocol": 2, "id": 0, "features": [...]}}, got {line.strip()[:200]!r}'
        )
    return ExternalModel(argv, child, doc["features"], timeout, int(doc["protocol"]))

