"""Serve any external model as a PredictionModel over a child process.

Wire protocol (version 1, newline-delimited UTF-8 on stdin/stdout):

  handshake   child emits one line: {"protocol": 1, "features": [...]}
  request     parent sends {"n": N} then N CSV rows, columns in the
              handshake feature order; categorical values travel as level
              labels, never as indices
  response    child answers N lines, one decimal prediction per line, in
              row order

Requests are strictly serialized on the model's lock: one in flight per
child, responses map to requests by order. ``_grid`` sends one request per
grid point, the batch with the point pinned (``models.pin``), holding the
lock for its slab; the engine's threads queue at the lock. A line already
queued when a request is about to be written answers no request, so it is
a protocol error. ``timeout`` bounds a request from the start of its write
to its last answer: the child's stdin is non-blocking (POSIX), and each
write waits for room in the pipe only until the deadline. After a timeout
or a protocol error the pairing of lines to requests is lost, so the child
is killed and every later request fails with BridgeError.

Protocol 1 cannot close one gap: a stray line that arrives only after the
next request was written cannot be told apart from that request's first
answer.
"""

from __future__ import annotations

import collections
import csv
import io
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
from .models import PredictionModel, pin

PROTOCOL_VERSION = 1


class _Child:
    """A spawned child whose output pipes are drained on daemon threads.

    Stdout lines queue up so reads can time out cleanly; the last 50 stderr
    lines are kept for error messages. Each thread closes its own pipe at EOF.
    """

    _EOF = object()

    def __init__(self, process: subprocess.Popen):
        self.process = process
        self.stderr: collections.deque[str] = collections.deque(maxlen=50)
        self._lines: queue.Queue = queue.Queue()
        self._threads = [threading.Thread(target=pump, daemon=True)
                         for pump in (self._pump_stdout, self._pump_stderr)]
        for thread in self._threads:
            thread.start()

    def _pump_stdout(self):
        with self.process.stdout as stream:
            for line in stream:
                self._lines.put(line)
        self._lines.put(self._EOF)

    def _pump_stderr(self):
        with self.process.stderr as stream:
            for line in stream:
                self.stderr.append(line.rstrip("\n"))

    def stray_line(self):
        """A queued stdout line that no request asked for, or None. A queued
        EOF is the last item and stays queued for the next read."""
        try:
            item = self._lines.get_nowait()
        except queue.Empty:
            return None
        if item is self._EOF:
            self._lines.put(item)
            return None
        return item

    def readline(self, deadline: float):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError
        try:
            item = self._lines.get(timeout=remaining)
        except queue.Empty:
            raise TimeoutError from None
        if item is self._EOF:
            return None
        return item

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

    def __init__(self, command, child: _Child, feature_names, timeout):
        self.command = command
        self.timeout = timeout
        self.protocol = PROTOCOL_VERSION
        self._names = tuple(feature_names)
        self._child = child
        self._process = child.process
        self._lock = threading.Lock()
        self._failure: str | None = None

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self._names

    def _grid(self, batch: Dataset, cols: list[int], pinned: np.ndarray) -> np.ndarray:
        features = [self._names[j] for j in cols]
        out = np.empty((len(pinned), batch.n_rows))
        with self._lock:
            if self._failure is not None:
                raise BridgeError(f"the child was stopped after an earlier failure: "
                                  f"{self._failure}")
            try:
                for g, point in enumerate(pinned):
                    out[g] = self._round_trip(pin(batch, features, point))
            except (BridgeTimeoutError, ProtocolError) as exc:
                self._failure = str(exc)
                self._child.stop(kill=True)
                raise
        return out

    def _round_trip(self, batch: Dataset) -> np.ndarray:
        stray = self._child.stray_line()
        if stray is not None:
            raise ProtocolError(f"child sent a line that answers no request: "
                                f"{stray.strip()[:200]!r}")
        n = batch.n_rows
        body = io.StringIO()
        csv.writer(body, lineterminator="\n").writerows(
            zip(*(batch._text_cells(name) for name in self._names)))
        payload = json.dumps({"n": n}) + "\n" + body.getvalue()
        deadline = time.monotonic() + self.timeout
        fd, view = self._process.stdin.fileno(), memoryview(payload.encode())
        poller = select.poll()
        poller.register(fd, select.POLLOUT)
        try:
            while view:  # each write takes what the pipe has room for
                if not poller.poll(max(0.0, deadline - time.monotonic()) * 1000):
                    raise BridgeTimeoutError(f"child took not all of a {n}-row request within "
                                             f"the {self.timeout}s timeout", received=0)
                view = view[os.write(fd, view):]
        except OSError as exc:
            raise ProtocolError(f"child closed its input: {exc}; "
                                f"stderr:\n{self._child.stderr_text()}")
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            try:
                line = self._child.readline(deadline)
            except TimeoutError:
                raise BridgeTimeoutError(f"child answered {i} of {n} predictions before the "
                                         f"{self.timeout}s timeout", received=i) from None
            if line is None:
                raise ProtocolError(f"child ended output after {i} of {n} predictions; "
                                    f"stderr:\n{self._child.stderr_text()}")
            text = line.strip()
            try:
                out[i] = float(text)
            except ValueError:
                raise ProtocolError(f"response line {i + 1} is not a number: {text!r}") from None
        return out

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
    deadline = time.monotonic() + timeout
    try:
        line = child.readline(deadline)
    except TimeoutError:
        child.stop(kill=True)
        raise SpawnError(f"no handshake within {timeout}s from {argv}") from None
    if line is None:
        child.stop()
        raise SpawnError(
            f"child exited (code {process.returncode}) before the handshake; "
            f"stderr:\n{child.stderr_text()}"
        )
    try:
        doc = json.loads(line)
    except (json.JSONDecodeError, RecursionError):
        child.stop(kill=True)
        raise SpawnError(f"handshake line is not JSON: {line.strip()[:200]!r}") from None
    if (
        not isinstance(doc, dict)
        or doc.get("protocol") != PROTOCOL_VERSION
        or not isinstance(doc.get("features"), list)
        or not all(isinstance(f, str) for f in doc["features"])
        or not doc["features"]
    ):
        child.stop(kill=True)
        raise SpawnError(
            f'handshake must be {{"protocol": {PROTOCOL_VERSION}, "features": [...]}}, '
            f"got {line.strip()[:200]!r}"
        )
    return ExternalModel(argv, child, doc["features"], timeout)

