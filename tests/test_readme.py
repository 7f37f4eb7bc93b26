"""The README's Python examples run against the current API and give the
values their comments state."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A line of the quickstart that states its value in its comment: the last
# decimal number of the comment, "≈" for one rounded to its digits.
_STATED = re.compile(r"^(erfe\.\w+\(.*\))\s+#(.*)$", re.M)


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_quickstart_and_monte_carlo_blocks_run():
    quickstart, montecarlo = _python_blocks(
        (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quickstart")[1])[:2]
    stated = _STATED.findall(quickstart)
    script = "\n".join([quickstart, montecarlo, "import json",
                        f"print(json.dumps([{', '.join(expr for expr, _ in stated)}]))"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    # The Monte Carlo table: a header and a row per (tau, regressor), 3 x 2.
    lines = proc.stdout.splitlines()
    assert lines[-8].startswith("tau,coefficient,")
    assert [line.split(",")[-1] for line in lines[-7:-1]] == ["0"] * 6
    got = json.loads(lines[-1])
    want = [float(re.findall(r"\d+\.\d+", comment)[-1]) for _, comment in stated]
    assert want == [2.0, 0.9, 2.5, 0.8616]
    for value, target, (_, comment) in zip(got, want, stated):
        if "≈" in comment:
            assert abs(value - target) <= 5e-5
        else:
            assert value == target
