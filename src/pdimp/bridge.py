"""Serve any external model as a PredictionModel over a child process.

Wire protocol (version 1, newline-delimited UTF-8 on stdin/stdout):

  handshake   child emits one line: {"protocol": 1, "features": [...]}
  request     parent sends {"n": N} then N CSV rows, columns in the
              handshake feature order; categorical values travel as level
              labels, never as indices
  response    child answers N lines, one decimal prediction per line, in
              row order

Requests are strictly serialized on the model's lock: one in flight per
child, responses map to requests by order. The engine may call
``predict`` from several threads, one grid point each; they queue at the
lock, and each thread reads the answer to its own request. After a
timeout or a protocol error the pairing of lines to requests is lost, so
the child is killed and every later request fails with BridgeError.
"""

from __future__ import annotations

import csv
import io
import json
import queue
import shlex
import subprocess
import threading
import time

import numpy as np

from .data import Dataset
from .errors import BridgeError, BridgeTimeoutError, ContractError, ProtocolError, SpawnError
from .models import PredictionModel

PROTOCOL_VERSION = 1


class _LineReader:
    """Drain a pipe on a daemon thread so reads can time out cleanly."""

    _EOF = object()

    def __init__(self, stream):
        self._queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._pump, args=(stream,), daemon=True)
        self._thread.start()

    def _pump(self, stream):
        for line in stream:
            self._queue.put(line)
        self._queue.put(self._EOF)

    def readline(self, deadline: float):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError
        try:
            item = self._queue.get(timeout=remaining)
        except queue.Empty:
            raise TimeoutError from None
        if item is self._EOF:
            return None
        return item


class _StderrTail:
    def __init__(self, stream, keep: int = 50):
        self._lines: list[str] = []
        self._keep = keep
        self._thread = threading.Thread(target=self._pump, args=(stream,), daemon=True)
        self._thread.start()

    def _pump(self, stream):
        for line in stream:
            self._lines.append(line.rstrip("\n"))
            del self._lines[: -self._keep]

    def text(self) -> str:
        return "\n".join(self._lines)


class ExternalModel(PredictionModel):
    """A handshaken child process scoring batches over the line protocol."""

    def __init__(self, command, process, feature_names, timeout, reader, stderr_tail):
        self.command = command
        self.timeout = timeout
        self.protocol = PROTOCOL_VERSION
        self._names = tuple(feature_names)
        self._process = process
        self._reader = reader
        self._stderr = stderr_tail
        self._lock = threading.Lock()
        self._failure: str | None = None

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self._names

    def _validate_batch(self, batch: Dataset) -> None:
        expected = set(self._names)
        got = set(batch.feature_names)
        if expected != got:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ContractError(
                f"batch does not match child features (missing {missing}, extra {extra})"
            )

    def _predict_checked(self, batch: Dataset) -> np.ndarray:
        with self._lock:
            if self._failure is not None:
                raise BridgeError(f"the child was stopped after an earlier failure: "
                                  f"{self._failure}")
            try:
                return self._round_trip(batch)
            except (BridgeTimeoutError, ProtocolError) as exc:
                self._failure = str(exc)
                self._process.kill()
                self._process.wait()
                raise

    def _round_trip(self, batch: Dataset) -> np.ndarray:
        n = batch.n_rows
        body = io.StringIO()
        writer = csv.writer(body, lineterminator="\n")
        decoded = []
        for name in self._names:
            feat = batch.schema_for(name)
            col = batch.column(name)
            if feat.is_continuous:
                decoded.append([repr(float(v)) for v in col])
            else:
                decoded.append([feat.levels[i] for i in col])
        for row in zip(*decoded):
            writer.writerow(row)
        payload = json.dumps({"n": n}) + "\n" + body.getvalue()
        try:
            self._process.stdin.write(payload)
            self._process.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ProtocolError(f"child closed its input: {exc}; stderr:\n{self._stderr.text()}")

        deadline = time.monotonic() + self.timeout
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            try:
                line = self._reader.readline(deadline)
            except TimeoutError:
                raise BridgeTimeoutError(
                    f"child answered {i} of {n} predictions before the "
                    f"{self.timeout}s timeout", received=i,
                ) from None
            if line is None:
                raise ProtocolError(
                    f"child ended output after {i} of {n} predictions; "
                    f"stderr:\n{self._stderr.text()}"
                )
            text = line.strip()
            try:
                out[i] = float(text)
            except ValueError:
                raise ProtocolError(
                    f"response line {i + 1} is not a number: {text!r}"
                ) from None
        return out

    def close(self) -> None:
        proc = self._process
        if proc.poll() is None:
            try:
                proc.stdin.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

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

    ``command`` is a program string (shlex rules) or an argument list.
    """
    argv = shlex.split(command) if isinstance(command, str) else list(command)
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

    reader = _LineReader(process.stdout)
    stderr_tail = _StderrTail(process.stderr)
    deadline = time.monotonic() + timeout
    try:
        line = reader.readline(deadline)
    except TimeoutError:
        process.kill()
        raise SpawnError(f"no handshake within {timeout}s from {argv}") from None
    if line is None:
        process.wait()
        raise SpawnError(
            f"child exited (code {process.returncode}) before the handshake; "
            f"stderr:\n{stderr_tail.text()}"
        )
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        process.kill()
        raise SpawnError(f"handshake line is not JSON: {line.strip()!r}") from None
    if (
        not isinstance(doc, dict)
        or doc.get("protocol") != PROTOCOL_VERSION
        or not isinstance(doc.get("features"), list)
        or not all(isinstance(f, str) for f in doc["features"])
        or not doc["features"]
    ):
        process.kill()
        raise SpawnError(
            f'handshake must be {{"protocol": {PROTOCOL_VERSION}, "features": [...]}}, '
            f"got {line.strip()!r}"
        )
    return ExternalModel(argv, process, doc["features"], timeout, reader, stderr_tail)

