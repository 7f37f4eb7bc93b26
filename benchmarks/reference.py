"""Fixed reference work that measures the host's speed, not erfe's.

run.py times this script in a fresh process before every erfe command
and scales its timing metrics by the median.  The work mixes what erfe
spends its time on: interpreter start and the numpy import, a pure-Python
loop, grouped sums over a million rows, float text written and parsed
back, and thousands of small solves.  Its inputs are fixed, and it imports
nothing from erfe, so no change to erfe moves it.
"""

import numpy as np


def main():
    rng = np.random.default_rng(12345)
    values = rng.standard_normal(1_000_000)
    groups = rng.integers(0, 100_000, values.size)
    total = 0
    for i in range(600_000):
        total += i * i % 7
    for _ in range(4):
        order = np.argsort(groups, kind="stable")
        sums = np.bincount(groups, weights=values, minlength=100_000)
        centered = values - sums[groups] / 5.0
        total += float((np.where(centered > 0, 0.9, 0.1) * centered ** 2).sum())
        total += float(values[order][:10].sum())
    text = "\n".join(repr(float(v)) for v in values[:150_000])
    total += sum(float(t) for t in text.split("\n"))
    a = rng.standard_normal((4, 4))
    a = a @ a.T + 4.0 * np.eye(4)
    b = rng.standard_normal(4)
    for _ in range(8_000):
        b = np.linalg.solve(a, b) + 1.0
    return total + float(b.sum())


if __name__ == "__main__":
    main()
