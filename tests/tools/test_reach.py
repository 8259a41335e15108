"""Reach audit: a forked child that leaves through ``os._exit`` and a spawned
interpreter are both counted, each in a file of its own."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import reach  # noqa: E402

TOY = '''\
import os
import subprocess
import sys


def in_forked_child():
    return os.getpid()


def in_spawned_child():
    return os.getpid()


def never_called():
    return None


def main():
    pid = os.fork()
    if pid == 0:
        in_forked_child()
        os._exit(0)  # no exit hook, no flush at exit
    os.waitpid(pid, 0)
    subprocess.run([sys.executable, "-c", "import toy; toy.in_spawned_child()"], check=True)


if __name__ == "__main__":
    main()
'''


def test_the_parent_a_forked_child_and_a_spawned_child_are_all_reported(tmp_path):
    package = tmp_path / "src"
    package.mkdir()
    (package / "toy.py").write_text(TOY)
    out = tmp_path / "out"
    assert reach.trace([sys.executable, "toy.py"], package, out, cwd=package) == 0

    found = reach.functions(package)
    by_name = {name: key for key, (name, _raw) in found.items()}
    assert set(by_name) == {"in_forked_child", "in_spawned_child", "never_called", "main"}
    per_pid = reach.reached(out)
    assert len(per_pid) == 3
    owners = {name: [pid for pid, hit in per_pid.items() if key in hit] for name, key in by_name.items()}
    assert len({*owners["main"], *owners["in_forked_child"], *owners["in_spawned_child"]}) == 3
    assert owners["never_called"] == []

    text = reach.report(found, set().union(*per_pid.values()), package)
    assert text.splitlines()[0] == f"reached 3 of 4 functions under {package}"
    assert "src/toy.py: 1 unreached, 2 raw lines" in text
    assert "    never_called (line 14, 2 lines)" in text
