"""External-model bridge: handshake, wire protocol, failure modes."""

import sys

import numpy as np
import pytest

import pdimp.engine as engine_module
from pdimp import (
    BridgeError,
    BridgeTimeoutError,
    Dataset,
    FeatureSchema,
    GridStrategy,
    LinearModel,
    ProtocolError,
    SpawnError,
    build_grid,
    ice_curves,
    partial_dependence,
    spawn_external,
)
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

    def test_wrong_protocol_version(self, tmp_path):
        cmd = _stub(tmp_path, 'print(\'{"protocol": 2, "features": ["a"]}\')\n'
                              "import time; time.sleep(5)")
        with pytest.raises(SpawnError, match="handshake"):
            spawn_external(cmd)

    def test_handshake_timeout(self, tmp_path):
        cmd = _stub(tmp_path, "import time; time.sleep(60)")
        with pytest.raises(SpawnError, match="no handshake"):
            spawn_external(cmd, timeout=0.3)

    def test_unlaunchable_command(self):
        with pytest.raises(SpawnError, match="cannot launch"):
            spawn_external(["/no/such/binary-zzz"])


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


class TestFailedChild:
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


    def test_close_after_a_failure_reaps_the_child_and_closes_its_pipes(self, tmp_path):
        model = spawn_external(_stub(tmp_path, SHORT_RESPONSE))
        with pytest.raises(ProtocolError):
            model.predict(Dataset.from_dict({"x1": [1.0, 2.0, 3.0]}))
        model.close()
        process = model._process
        assert process.returncode is not None
        assert process.stdin.closed and process.stdout.closed and process.stderr.closed


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
