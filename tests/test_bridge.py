"""External-model bridge: handshake, wire protocol, failure modes."""

import csv
import io
import json
import os
import select
import signal
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import pin

import pdimp.bridge as bridge_module
import pdimp.engine as engine_module
from pdimp import (
    BridgeError,
    BridgeTimeoutError,
    Dataset,
    FeatureSchema,
    GridStrategy,
    LinearModel,
    ParameterError,
    ProtocolError,
    SpawnError,
    build_grid,
    ice_curves,
    partial_dependence,
    spawn_external,
)
from pdimp.bridge import _LineReader, _parse_handshake
from pdimp.engine import ordered_mean

PYTHON = sys.executable


def _stub(tmp_path, body, name="child.py"):
    path = tmp_path / name
    path.write_text(body)
    return [PYTHON, str(path)]


CONSTANT_7 = """\
import json, sys
print(json.dumps({"protocol": 1, "features": ["x1", "x2"]}), flush=True)
for line in sys.stdin:
    n = json.loads(line)["n"]
    rows = [sys.stdin.readline() for _ in range(n)]
    for _ in rows:
        print("7.0")
    sys.stdout.flush()
"""

ECHO_X1 = """\
import json, sys
print(json.dumps({"protocol": 1, "features": ["x1", "x2"]}), flush=True)
for line in sys.stdin:
    n = json.loads(line)["n"]
    for _ in range(n):
        cells = sys.stdin.readline().strip().split(",")
        print(repr(float(cells[0])))
    sys.stdout.flush()
"""

LINEAR_STUB = """\
import json, sys
print(json.dumps({"protocol": 1, "features": ["x1", "x2"]}), flush=True)
for line in sys.stdin:
    n = json.loads(line)["n"]
    for _ in range(n):
        x1, x2 = map(float, sys.stdin.readline().strip().split(","))
        print("%.17g" % (1.0 + 3.0 * x1 - 5.0 * x2))
    sys.stdout.flush()
"""

SHORT_RESPONSE = """\
import json, sys
print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)
line = sys.stdin.readline()
n = json.loads(line)["n"]
for _ in range(n):
    sys.stdin.readline()
for _ in range(n - 1):
    print("1.0")
sys.stdout.flush()
"""

LABEL_AWARE = """\
import json, sys
print(json.dumps({"protocol": 1, "features": ["g", "x"]}), flush=True)
table = {"low": 10.0, "high": 20.0}
for line in sys.stdin:
    n = json.loads(line)["n"]
    for _ in range(n):
        g, x = sys.stdin.readline().strip().split(",")
        print(repr(table[g] + float(x)))
    sys.stdout.flush()
"""


class TestHandshake:
    def test_valid_handshake_stores_features(self, tmp_path):
        model = spawn_external(_stub(tmp_path, CONSTANT_7))
        try:
            assert model.feature_names == ("x1", "x2")
            assert model.protocol == 1
        finally:
            model.close()

    def test_child_exits_before_handshake(self, tmp_path):
        cmd = _stub(tmp_path, "import sys; sys.stderr.write('boom\\n'); sys.exit(3)")
        with pytest.raises(SpawnError, match="boom"):
            spawn_external(cmd)

    def test_malformed_handshake(self, tmp_path):
        cmd = _stub(tmp_path, "print('not json'); import time; time.sleep(5)")
        with pytest.raises(SpawnError, match="not JSON"):
            spawn_external(cmd)

    def test_a_handshake_that_is_not_utf8_is_a_spawn_error(self, tmp_path):
        cmd = _stub(tmp_path, "import sys, time\nsys.stdout.buffer.write(b'\\xff\\n')\n"
                              "sys.stdout.flush()\ntime.sleep(5)")
        started = time.monotonic()
        with pytest.raises(SpawnError, match="not UTF-8"):
            spawn_external(cmd)
        assert time.monotonic() - started < 4  # killed, not waited for

    def test_deeply_nested_handshake_stops_the_child(self, tmp_path):
        cmd = _stub(tmp_path, "print('[' * 100000 + ']' * 100000, flush=True)\n"
                              "import time; time.sleep(5)")
        started = time.monotonic()
        with pytest.raises(SpawnError, match="not JSON"):
            spawn_external(cmd)
        assert time.monotonic() - started < 4  # killed, not waited for

    def test_wrong_protocol_version(self, tmp_path):
        cmd = _stub(tmp_path, 'print(\'{"protocol": 2, "features": ["a"]}\')\n'
                              "import time; time.sleep(5)")
        with pytest.raises(SpawnError, match="handshake"):
            spawn_external(cmd)

    @pytest.mark.parametrize("handshake", ['{"protocol": 2.0, "id": 0, "features": ["x1"]}',
                                           '{"protocol": 1.0, "features": ["x1"]}',
                                           '{"protocol": true, "features": ["x1"]}',
                                           '{"protocol": 2, "id": false, "features": ["x1"]}',
                                           '{"protocol": 2, "id": 0.0, "features": ["x1"]}'])
    def test_protocol_and_id_must_be_json_integers(self, tmp_path, handshake):
        cmd = _stub(tmp_path, f"print({handshake!r}, flush=True)\nimport time; time.sleep(5)")
        started = time.monotonic()
        with pytest.raises(SpawnError, match="handshake must be"):
            spawn_external(cmd)
        assert time.monotonic() - started < 4  # killed, not waited for

    def test_a_feature_named_twice_is_refused_naming_it(self, tmp_path):
        # its two columns would be filled from one pinned cell iterator
        handshake = '{"protocol": 1, "features": ["x1", "x2", "x1"]}'
        cmd = _stub(tmp_path, f"print({handshake!r}, flush=True)\nimport time; time.sleep(5)")
        with pytest.raises(SpawnError, match="handshake names the feature 'x1' 2 times"):
            spawn_external(cmd)

    def test_handshake_timeout(self, tmp_path):
        cmd = _stub(tmp_path, "import time; time.sleep(60)")
        with pytest.raises(SpawnError, match="no handshake"):
            spawn_external(cmd, timeout=0.3)

    def test_unlaunchable_command(self):
        with pytest.raises(SpawnError, match="cannot launch"):
            spawn_external(["/no/such/binary-zzz"])

    @pytest.mark.parametrize("timeout", [float("inf"), 1e300, float("nan"), -1.0, 0.0])
    def test_timeout_must_be_positive_and_finite(self, tmp_path, timeout):
        marker = tmp_path / "spawned"
        with pytest.raises(ParameterError, match="timeout must be a positive number"):
            spawn_external([PYTHON, "-c", f"open({str(marker)!r}, 'w')"], timeout=timeout)
        assert not marker.exists()


class TestPredict:
    def test_constant_child(self, tmp_path):
        with spawn_external(_stub(tmp_path, CONSTANT_7)) as model:
            batch = Dataset.from_dict({"x1": [0.0, 1.0, 2.0], "x2": [5.0, 6.0, 7.0]})
            np.testing.assert_array_equal(model.predict(batch), [7.0, 7.0, 7.0])
            # again, to prove request serialization is clean
            np.testing.assert_array_equal(model.predict(batch), [7.0] * 3)

    def test_columns_are_reordered_to_handshake_order(self, tmp_path):
        with spawn_external(_stub(tmp_path, ECHO_X1)) as model:
            batch = Dataset.from_dict({"x2": [9.0, 9.0], "x1": [1.25, -3.5]})
            np.testing.assert_array_equal(model.predict(batch), [1.25, -3.5])

    def test_linear_child_matches_builtin_exactly(self, tmp_path):
        schema = (FeatureSchema("x1", "continuous"), FeatureSchema("x2", "continuous"))
        builtin = LinearModel(1.0, {"x1": 3.0, "x2": -5.0}, schema)
        rng = np.random.default_rng(0)
        batch = Dataset.from_dict({"x1": rng.uniform(size=20), "x2": rng.uniform(size=20)})
        with spawn_external(_stub(tmp_path, LINEAR_STUB)) as model:
            got = model.predict(batch)
        np.testing.assert_allclose(got, builtin.predict(batch), rtol=0, atol=0)

    def test_short_response_is_a_protocol_error(self, tmp_path):
        with spawn_external(_stub(tmp_path, SHORT_RESPONSE)) as model:
            batch = Dataset.from_dict({"x1": [1.0, 2.0, 3.0]})
            with pytest.raises(ProtocolError, match="2 of 3"):
                model.predict(batch)

    def test_non_numeric_response_line(self, tmp_path):
        body = CONSTANT_7.replace('print("7.0")', 'print("wat")')
        with spawn_external(_stub(tmp_path, body)) as model:
            batch = Dataset.from_dict({"x1": [1.0], "x2": [2.0]})
            with pytest.raises(ProtocolError, match="not a number"):
                model.predict(batch)

    def test_slow_child_times_out_with_partial_count(self, tmp_path):
        body = """\
import json, sys, time
print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)
line = sys.stdin.readline()
n = json.loads(line)["n"]
for _ in range(n):
    sys.stdin.readline()
print("1.0", flush=True)
time.sleep(60)
"""
        with spawn_external(_stub(tmp_path, body), timeout=0.5) as model:
            batch = Dataset.from_dict({"x1": [1.0, 2.0, 3.0]})
            with pytest.raises(BridgeTimeoutError) as err:
                model.predict(batch)
            assert err.value.received == 1

    def test_categorical_values_travel_as_labels(self, tmp_path):
        with spawn_external(_stub(tmp_path, LABEL_AWARE)) as model:
            batch = Dataset.from_dict({
                "g": ["low", "high", "low"],
                "x": [1.0, 2.0, 3.0],
            })
            np.testing.assert_array_equal(model.predict(batch), [11.0, 22.0, 13.0])

    def test_grid_value_that_is_no_level_code_is_refused(self, tmp_path):
        with spawn_external(_stub(tmp_path, LABEL_AWARE)) as model:
            batch = Dataset.from_dict({"g": ["low", "high", "low"], "x": [1.0, 2.0, 3.0]})
            assert model.predict_grid(batch, ["g"], [(1.0,)]).tolist() == [[21.0, 22.0, 23.0]]
            for code in (2.0, 0.5, -1.0, np.nan):
                with pytest.raises(ParameterError, match="level codes 0 to 1"):
                    model.predict_grid(batch, ["g"], [(code,)])

    def test_grid_value_that_is_not_finite_is_refused_before_any_request(self, tmp_path):
        with spawn_external(_stub(tmp_path, ECHO_X1)) as model:
            batch = Dataset.from_dict({"x1": [1.0, 2.0], "x2": [3.0, 4.0]})
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ParameterError, match=f"'x1' must be finite, got {value}"):
                    model.predict_grid(batch, ["x1"], [(0.5,), (value,)])
                with pytest.raises(ParameterError, match=f"'x2' must be finite, got {value}"):
                    model.predict_grid(batch, ["x1", "x2"], [(0.5, 1.0), (0.5, value)])
            # nothing was sent: the next request is answered in step
            assert model.predict_grid(batch, ["x1"], [(0.25,)]).tolist() == [[0.25, 0.25]]

    def test_contract_error_on_wrong_features(self, tmp_path):
        from pdimp import ContractError
        with spawn_external(_stub(tmp_path, CONSTANT_7)) as model:
            with pytest.raises(ContractError):
                model.predict(Dataset.from_dict({"x1": [1.0]}))

    def test_full_precision_round_trip(self, tmp_path):
        with spawn_external(_stub(tmp_path, ECHO_X1)) as model:
            values = np.array([0.1, 1.0 / 3.0, np.pi, 1e-300, 1.7976931348623157e308])
            batch = Dataset.from_dict({"x1": values, "x2": np.zeros(5)})
            assert np.array_equal(model.predict(batch), values)


STALLS_ON_FIRST_REQUEST = """\
import json, sys, time
print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)
request = 0
for line in sys.stdin:
    n = json.loads(line)["n"]
    rows = [float(sys.stdin.readline()) for _ in range(n)]
    request += 1
    if request == 1:
        time.sleep(1.0)  # answers, but only after the parent gave up
    for x in rows:
        print(repr(10.0 * request + x))
    sys.stdout.flush()
"""


ONE_LINE_TOO_MANY = """\
import json, sys
print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)
for line in sys.stdin:
    n = json.loads(line)["n"]
    for _ in range(n):
        print(repr(float(sys.stdin.readline())))
    print("999.0", flush=True)
"""

# the same, but the extra line comes after a pause, once the answers are read
ONE_LINE_TOO_MANY_LATER = """\
import json, sys, time
print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)
for line in sys.stdin:
    n = json.loads(line)["n"]
    for _ in range(n):
        print(repr(float(sys.stdin.readline())))
    sys.stdout.flush()
    time.sleep(0.3)
    print("999.0", flush=True)
"""

CLOSES_ITS_INPUT = """\
import json, os, time
os.close(0)
print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)
time.sleep(60)
"""


NOT_UTF8_ANSWERS = """\
import json, sys
print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)
for line in sys.stdin:
    for _ in range(json.loads(line)["n"]):
        sys.stdin.readline()
        sys.stdout.buffer.write(b"\\xff\\n")
    sys.stdout.flush()
"""


NOT_UTF8_STDERR = """\
import json, sys
print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)
for line in sys.stdin:
    rows = [float(sys.stdin.readline()) for _ in range(json.loads(line)["n"])]
    sys.stderr.buffer.write(b"\\xff oops\\n" + b"more\\n" * 40_000)
    sys.stderr.flush()
    for x in rows:
        print(repr(2.0 * x))
    sys.stdout.flush()
"""


CHATTY_AT_EXIT = """\
import json, sys
print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)
sys.stdin.read()
print("1.0\\n" * 100_000, flush=True)
"""


class TestFailedChild:
    def test_output_that_is_not_utf8_fails_at_once_and_stops_the_child(self, tmp_path):
        with spawn_external(_stub(tmp_path, NOT_UTF8_ANSWERS), timeout=3) as model:
            batch = Dataset.from_dict({"x1": [1.0, 2.0]})
            started = time.monotonic()
            with pytest.raises(ProtocolError, match="not UTF-8"):
                model.predict(batch)
            assert time.monotonic() - started < 1.5
            assert model._process.poll() is not None
            with pytest.raises(BridgeError, match="earlier failure"):
                model.predict(batch)

    def test_stderr_that_is_not_utf8_leaves_the_child_answering(self, tmp_path):
        # 200 000 bytes of stderr after the bad byte: more than a pipe holds,
        # so the child blocks, or dies of EPIPE, unless stderr is still drained
        with spawn_external(_stub(tmp_path, NOT_UTF8_STDERR), timeout=10) as model:
            batch = Dataset.from_dict({"x1": [1.0, 2.5]})
            assert model.predict(batch).tolist() == [2.0, 5.0]
            assert model.predict(batch).tolist() == [2.0, 5.0]

    def test_no_stale_answers_after_a_timeout(self, tmp_path):
        with spawn_external(_stub(tmp_path, STALLS_ON_FIRST_REQUEST), timeout=0.3) as model:
            batch = Dataset.from_dict({"x1": [1.0, 2.0]})
            with pytest.raises(BridgeTimeoutError):
                model.predict(batch)
            # the late answers to request 1 must never be read as request 2's
            with pytest.raises(BridgeError, match="earlier failure"):
                model.predict(batch)
            assert model._process.poll() is not None

    def test_protocol_error_stops_the_child(self, tmp_path):
        with spawn_external(_stub(tmp_path, SHORT_RESPONSE)) as model:
            batch = Dataset.from_dict({"x1": [1.0, 2.0, 3.0]})
            with pytest.raises(ProtocolError):
                model.predict(batch)
            with pytest.raises(BridgeError, match="earlier failure"):
                model.predict(batch)


    @pytest.mark.parametrize("body", [ONE_LINE_TOO_MANY, ONE_LINE_TOO_MANY_LATER],
                             ids=["read", "in-the-pipe"])
    def test_a_stray_line_before_a_request_is_a_protocol_error(self, tmp_path, body):
        with spawn_external(_stub(tmp_path, body)) as model:
            assert model.predict(Dataset.from_dict({"x1": [1.0, 2.0]})).tolist() == [1.0, 2.0]
            reader, deadline = model._reader, time.monotonic() + 10
            if body is ONE_LINE_TOO_MANY:
                while not reader.lines and time.monotonic() < deadline:  # a line, not a byte
                    if reader.ready(0.01):
                        reader.read()
                assert reader.lines  # the extra line is read
            else:
                assert select.select([reader.fd], [], [], 10)[0]  # it waits in the pipe
                assert not reader.lines
            # it must never be read as the first answer to the next request
            with pytest.raises(ProtocolError, match="answers no request: '999.0'"):
                model.predict(Dataset.from_dict({"x1": [3.0, 4.0]}))
            assert model._process.poll() is not None

    def test_a_child_that_closed_its_input_is_a_protocol_error(self, tmp_path):
        with spawn_external(_stub(tmp_path, CLOSES_ITS_INPUT)) as model:
            with pytest.raises(ProtocolError, match="child closed its input"):
                model.predict(Dataset.from_dict({"x1": [1.0, 2.0]}))
            assert model._process.returncode is not None  # killed and reaped

    def test_close_does_not_wait_for_a_child_writing_into_a_full_pipe(self, tmp_path):
        # 300 KB written once its input closes: past the 64 KiB a pipe holds unread
        model = spawn_external(_stub(tmp_path, CHATTY_AT_EXIT))
        started = time.monotonic()
        model.close()
        assert time.monotonic() - started < 1.5
        assert model._process.returncode is not None

    def test_close_kills_a_child_that_outlives_its_closed_input(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bridge_module, "_REAP_WAIT_S", 0.2)
        model = spawn_external(_stub(tmp_path, NEVER_READS))  # sleeps 60 s, reading nothing
        started = time.monotonic()
        model.close()
        assert time.monotonic() - started < 1.5
        assert model._process.returncode == -signal.SIGKILL

    def test_close_after_a_failure_reaps_the_child_and_closes_its_pipes(self, tmp_path):
        model = spawn_external(_stub(tmp_path, SHORT_RESPONSE))
        with pytest.raises(ProtocolError):
            model.predict(Dataset.from_dict({"x1": [1.0, 2.0, 3.0]}))
        model.close()
        process = model._process
        assert process.returncode is not None
        assert process.stdin.closed and process.stdout.closed and process.stderr.closed


NEVER_READS = """\
import json, sys, time
print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)
time.sleep(60)
"""


RECORDS_ITS_INPUT = """\
import json, sys
print(json.dumps({"protocol": 1, "features": ["g", "x"]}), flush=True)
with open(sys.argv[1], "wb") as record:
    for line in sys.stdin.buffer:
        record.write(line)
        rows = [sys.stdin.buffer.readline() for _ in range(json.loads(line)["n"])]
        record.writelines(rows)
        record.flush()
        print("\\n".join("1.0" for _ in rows), flush=True)
"""


ECHOES_AS_IT_READS = """\
import json, sys
print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)
for line in sys.stdin:
    for _ in range(json.loads(line)["n"]):
        print(sys.stdin.readline(), end="", flush=True)
"""


class TestWrites:
    def test_answers_are_read_while_the_request_is_still_being_written(self, tmp_path):
        # about 400 KB of answers, past the 64 KiB a pipe holds: the child
        # stops reading until its answers are read, before the write is done
        values = np.linspace(0.0, 1.0, 20_000)
        with spawn_external(_stub(tmp_path, ECHOES_AS_IT_READS), timeout=10) as model:
            got = model.predict(Dataset.from_dict({"x1": values}))
        assert got.tobytes() == values.tobytes()

    def test_a_write_the_child_never_reads_times_out_and_stops_it(self, tmp_path):
        # 20 000 rows are about 385 KB, past the 64 KiB a pipe holds unread
        batch = Dataset.from_dict({"x1": np.linspace(0.0, 1.0, 20_000)})
        with spawn_external(_stub(tmp_path, NEVER_READS), timeout=1) as model:
            started = time.monotonic()
            with pytest.raises(BridgeTimeoutError, match="20000-row request"):
                model.predict(batch)
            assert time.monotonic() - started < 5
            with pytest.raises(BridgeError, match="earlier failure"):
                model.predict(batch)
            with pytest.raises(BridgeError, match="earlier failure"):
                model.predict_grid(batch, ["x1"], [(0.5,)])
            assert model._process.poll() is not None

    def test_a_timeout_longer_than_poll_can_wait_for_is_kept(self, tmp_path):
        with spawn_external(_stub(tmp_path, CONSTANT_7), timeout=1e9) as model:
            assert model.predict(Dataset.from_dict({"x1": [0.0], "x2": [1.0]})).tolist() == [7.0]

    def test_the_child_receives_one_request_per_grid_point(self, tmp_path):
        record = tmp_path / "record.txt"
        batch = Dataset.from_dict({"g": ["low", "high", "low"], "x": [1.0, 0.1, -2.5]})
        cmd = _stub(tmp_path, RECORDS_ITS_INPUT) + [str(record)]
        with spawn_external(cmd) as model:
            assert model.predict(batch).tolist() == [1.0] * 3
            with pytest.raises(ParameterError, match="distinct"):  # refused before any request
                model.predict_grid(batch, ["x", "x"], [(0.5, 3.0)])
            assert model.predict_grid(batch, ["g", "x"], [(1.0, 0.5), (0.0, 3.0)]).shape == (2, 3)
            assert model.predict_grid(batch, ["x"], [(1e-300,)]).shape == (1, 3)
        assert record.read_bytes() == (
            b'{"n": 3}\nlow,1.0\nhigh,0.1\nlow,-2.5\n'
            b'{"n": 3}\nhigh,0.5\nhigh,0.5\nhigh,0.5\n'
            b'{"n": 3}\nlow,3.0\nlow,3.0\nlow,3.0\n'
            b'{"n": 3}\nlow,1e-300\nhigh,1e-300\nlow,1e-300\n')


# the same recorder, its features named on its command line after the record path
RECORDS_ITS_INPUT_FOR = RECORDS_ITS_INPUT.replace('["g", "x"]', "sys.argv[2:]")


def _requests_pinned_one_by_one(batch, names, features, points):
    """The bytes of one request per point, each built from the batch pinned
    with the reference ``pin`` and written with ``csv.writer``."""
    sent = b""
    for point in points:
        pinned = pin(batch, features, point)
        body = io.StringIO()
        csv.writer(body, lineterminator="\n").writerows(
            zip(*(pinned._text_cells(name) for name in names)))
        sent += (json.dumps({"n": pinned.n_rows}) + "\n" + body.getvalue()).encode()
    return sent


SLOW_BY_REQUEST = """\
import json, sys, time
print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)
for line in sys.stdin:
    rows = [sys.stdin.readline() for _ in range(json.loads(line)["n"])]
    time.sleep(0.6)
    print("".join(rows), end="", flush=True)
"""


STALLS_ON_SECOND_REQUEST = """\
import json, sys, time
print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)
request = 0
for line in sys.stdin:
    rows = [sys.stdin.readline() for _ in range(json.loads(line)["n"])]
    request += 1
    for row in rows:
        print(row, end="", flush=True)
        if request == 2:
            time.sleep(60)
"""


class TestSlabs:
    def test_a_many_point_slab_sends_the_bytes_of_one_pinned_batch_per_point(self, tmp_path):
        cases = [
            (Dataset.from_dict({"g": ["a,b", 'say "hi"', "plain", "a,b"],
                                "x": [1.0, 0.1, -2.5, 1e-300]}),
             [([], [()]),
              (["x"], [(0.5,), (-0.0,), (1.0 / 3.0,), (1e300,)]),
              (["g"], [(0,), (1,), (2,)]),
              (["x", "g"], [(x, g) for x in (0.25, -7.0) for g in (2, 1, 0)])]),
            # a one-feature row is its one cell, and an empty one is written ""
            (Dataset.from_dict({"g": ["", "a,b", 'say "hi"']}),
             [([], [()]), (["g"], [(0,), (1,), (2,)])]),
        ]
        for k, (batch, calls) in enumerate(cases):
            record = tmp_path / f"record-{k}.txt"
            names = list(batch.feature_names)
            with spawn_external(_stub(tmp_path, RECORDS_ITS_INPUT_FOR) + [str(record), *names]) \
                    as model:
                for features, points in calls:
                    got = model.predict_grid(batch, features, points)
                    assert got.tolist() == [[1.0] * batch.n_rows] * len(points)
            assert record.read_bytes() == b"".join(
                _requests_pinned_one_by_one(batch, names, features, points)
                for features, points in calls)

    def test_each_request_gets_the_full_timeout_after_the_one_before_it(self, tmp_path):
        # 3 requests at 0.6 s each: the last answer comes 1.8 s after the first
        # write, but each request is answered 0.6 s after the one before it
        batch = Dataset.from_dict({"x1": [0.0, 0.0]})
        with spawn_external(_stub(tmp_path, SLOW_BY_REQUEST), timeout=1) as model:
            got = model.predict_grid(batch, ["x1"], [(1.0,), (2.0,), (3.0,)])
        assert got.tolist() == [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]

    def test_a_stall_on_the_second_request_of_a_slab_times_out_and_stops_the_child(
            self, tmp_path):
        batch = Dataset.from_dict({"x1": [0.0, 0.0, 0.0]})
        with spawn_external(_stub(tmp_path, STALLS_ON_SECOND_REQUEST), timeout=0.5) as model:
            with pytest.raises(BridgeTimeoutError, match="answered 1 of 3") as err:
                model.predict_grid(batch, ["x1"], [(1.0,), (2.0,), (3.0,)])
            assert err.value.received == 1
            assert model._process.poll() is not None
            with pytest.raises(BridgeError, match="earlier failure"):
                model.predict(batch)


PROTOCOL_2_ECHO_X1 = """\
import json, sys
print(json.dumps({"protocol": 2, "id": 0, "features": ["x1", "x2"]}), flush=True)
for line in sys.stdin:
    request = json.loads(line)
    rows = [sys.stdin.readline() for _ in range(request["n"])]
    header = json.dumps({"id": request["id"]})
    if request["id"] == 2:
        pass  # FAULT
    print(header)
    for row in rows:
        print(row.split(",")[0])
    sys.stdout.flush()
"""


class TestProtocol2:
    @pytest.mark.parametrize("handshake", ['{"protocol": 3, "id": 0, "features": ["a"]}',
                                           '{"protocol": 2, "id": 1, "features": ["a"]}'])
    def test_only_protocols_1_and_2_are_spoken(self, tmp_path, handshake):
        cmd = _stub(tmp_path, f"print({handshake!r}, flush=True)\nimport time; time.sleep(5)")
        with pytest.raises(SpawnError, match="handshake must be"):
            spawn_external(cmd)

    def test_tagged_answers_are_read(self, tmp_path):
        batch = Dataset.from_dict({"x1": [0.5, -1.25], "x2": [3.0, 4.0]})
        with spawn_external(_stub(tmp_path, PROTOCOL_2_ECHO_X1)) as model:
            assert model.protocol == 2
            assert model.predict(batch).tolist() == [0.5, -1.25]
            got = model.predict_grid(batch, ["x1"], [(1.0,), (2.0,), (3.0,)])
            assert got.tolist() == [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
            assert model.predict_grid(batch, ["x2"], [(0.0,)]).tolist() == [[0.5, -1.25]]

    @pytest.mark.parametrize("fault, got", [
        # a stray line that arrives after request 2 was written, before its answers
        ("print('999.0')", "'999.0'"),
        ("header = json.dumps({'id': 7})", """'{"id": 7}'"""),
        ("header = rows.pop(0).split(',')[0]", "'1.0'"),  # no id line
        ("print('not json')", "'not json'"),
    ], ids=["stray-line", "wrong-id", "missing-id", "not-json"])
    def test_an_answer_without_its_request_id_is_a_protocol_error(self, tmp_path, fault, got):
        batch = Dataset.from_dict({"x1": [1.0, 1.0], "x2": [0.0, 0.0]})
        body = PROTOCOL_2_ECHO_X1.replace("pass  # FAULT", fault)
        with spawn_external(_stub(tmp_path, body)) as model:
            with pytest.raises(ProtocolError, match=f'expected the answer header {{"id": 2}}, '
                                                    f"got {got}"):
                model.predict_grid(batch, ["x2"], [(0.0,), (1.0,), (2.0,)])
            assert model._process.poll() is not None
            with pytest.raises(BridgeError, match="earlier failure"):
                model.predict(batch)


class TestConcurrentRequests:
    def test_each_grid_point_thread_reads_its_own_answers(self, tmp_path, monkeypatch):
        # the echo child answers x1, so an answer read by the wrong thread shows
        # up as another grid point's value in that point's ICE column
        rng = np.random.default_rng(11)
        ds = Dataset.from_dict({"x1": rng.uniform(size=30), "x2": rng.uniform(size=30)})
        monkeypatch.setattr(engine_module, "_SLAB_ELEMENTS", 30)  # one point per slab
        grid = build_grid(ds, ["x1"], GridStrategy.unique())
        values = grid.axes[0].values
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with spawn_external(_stub(tmp_path, ECHO_X1), timeout=10) as model:
                pd = partial_dependence(model, ds, grid, workers=4)
                ice = ice_curves(model, ds, grid, workers=4)
        finally:
            sys.setswitchinterval(switch)
        assert ice.curves.tobytes() == np.tile(values, (30, 1)).tobytes()
        expected = [ordered_mean(np.full(30, v)) for v in values]
        assert pd.values.tobytes() == np.array(expected).tobytes()


_LINE_TEXT = st.text(st.sampled_from("a1.,é€𝄞 "), max_size=6)  # 1- to 4-byte characters


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_LINE_TEXT, st.sampled_from(["\n", "\r\n", "\r", ""])), max_size=12),
       st.data())
def test_the_line_reader_agrees_with_universal_newline_decoding(pieces, data):
    raw = "".join(text + end for text, end in pieces).encode()
    expected = [line.removesuffix("\n") for line in
                io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=None)]
    # cuts fall anywhere: inside a UTF-8 sequence, or between a \r and its \n
    cuts = sorted({0, len(raw), *data.draw(st.lists(st.integers(0, len(raw))), label="cuts")})
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb", buffering=0) as source, open(write_fd, "wb", buffering=0) as sink:
        reader = _LineReader(source.fileno())
        for a, b in zip(cuts, cuts[1:]):
            sink.write(raw[a:b])
            reader.read()
            assert reader.lines == expected[:len(reader.lines)]
        sink.close()
        reader.read()
        assert reader.eof
    assert reader.lines == expected


def _accepted_handshake(line):
    """The handshake rule written out: (features, protocol) for a line the
    bridge must accept, None for one it must refuse."""
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict):
        return None
    protocol, ident, features = doc.get("protocol"), doc.get("id"), doc.get("features")
    if type(protocol) is not int or not (protocol == 1 or protocol == 2 and type(ident) is int
                                         and ident == 0):
        return None
    if (type(features) is not list or not features
            or any(type(name) is not str for name in features)
            or len(set(features)) < len(features)):
        return None
    return tuple(features), protocol


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
_NEAR_MISSES = st.sampled_from([0, 1, 2, 0.0, 1.0, 2.0, False, True, [], ["x1", "x1"]])


@st.composite
def _handshake_docs(draw):
    """A valid handshake with any of its fields dropped, or replaced by a
    near miss or any JSON value."""
    doc = {"protocol": draw(st.sampled_from([1, 2])), "id": 0,
           "features": draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))}
    for key in draw(st.sets(st.sampled_from(sorted(doc)))):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(_NEAR_MISSES | _JSON)
    return doc


_HANDSHAKE_LINES = st.one_of(
    _handshake_docs().map(json.dumps),
    _JSON.map(json.dumps),
    st.text(max_size=20),  # mostly not JSON
    st.sampled_from(["[" * 10**5 + "]" * 10**5,  # past the recursion limit
                     '{"protocol": ' * 10**5 + "1" + "}" * 10**5,
                     '{"protocol": ' + "1" * 5000 + "}"]),  # past int's digit limit
)


@settings(max_examples=300, deadline=None)
@given(_HANDSHAKE_LINES)
def test_a_handshake_parses_exactly_when_the_rule_accepts_it(line):
    expected = _accepted_handshake(line)
    if expected is None:
        with pytest.raises(SpawnError):
            _parse_handshake(line)
    else:
        assert _parse_handshake(line) == expected
