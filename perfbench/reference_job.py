"""A fixed job, independent of pdimp, whose wall time tracks the host's speed.

Usage: python3 perfbench/reference_job.py

The benchmark runs it right after every timed command and reports each
command's wall time as a multiple of this job's (see ``run.py``). On a
shared host the speed of the CPUs moves by tens of percent over a minute;
a job run seconds apart sees the same speed, so the ratio cancels it. The
job resembles a pdimp command: a fresh interpreter importing numpy and
scipy, interpreted Python on the main thread, and numpy work on two
threads, so it uses both CPUs of a 2-vCPU host part of the time. It reads
and writes nothing and must never change: every recorded figure is
relative to it.
"""

import threading

import numpy as np
import scipy.special  # noqa: F401  (pdimp pays this import on every command)

rng = np.random.default_rng(0)
a = rng.random(300_000)
b = rng.random(300_000)


def numpy_work():
    for _ in range(6):
        np.sort(a)
        np.sin(b).sum()
        (a * b + a).cumsum()


def python_work():
    total = 0.0
    for i in range(400_000):
        total += i * 0.5


threads = [threading.Thread(target=numpy_work) for _ in range(2)]
for t in threads:
    t.start()
python_work()
for t in threads:
    t.join()
