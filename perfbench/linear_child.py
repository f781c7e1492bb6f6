"""External linear model y = 1 + 3*x1 - 5*x2 speaking pdimp's line protocol.

The bridge-importance workload and the bridge throughput probe launch it
with the benchmark's own interpreter.
"""

import json
import sys

print(json.dumps({"protocol": 1, "features": ["x1", "x2"]}), flush=True)
for line in sys.stdin:
    n = json.loads(line)["n"]
    for _ in range(n):
        x1, x2 = map(float, sys.stdin.readline().strip().split(","))
        print("%.17g" % (1.0 + 3.0 * x1 - 5.0 * x2))
    sys.stdout.flush()
