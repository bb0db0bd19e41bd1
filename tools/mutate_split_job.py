"""Check that the tests of the shipping protocol catch its faults.

Usage: python3 tools/mutate_split_job.py [PYTEST_ARGS...]

For each guard mutation below, copy ``src/`` to a temporary directory,
break the copy by one text substitution, and run the tests against it
(by default the six files that test shipping, ``SHIPPING_TESTS``; other
pytest arguments, such as test files, replace them).  A mutation is caught when the tests fail or
time out, and survives when they pass.  First the unbroken copy must
pass, and each substitution must find its target text, so that a
refactor of ``offload.split_job`` or of its runs cannot turn a mutation
into a no-op unnoticed.

Prints the caught/survived table and exits 1 if a mutation survives,
2 if the unbroken copy fails or a target is missing.  The standard
library and pytest only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600       # seconds for one test run; a hang counts as caught
SHIPPING_TESTS = [f"tests/test_{name}.py" for name in (
    "offload", "closure", "intervals", "ldm", "graphs", "matrices")]

# name -> [(file under src/semiralg, target text, its replacement)]
MUTATIONS = {
    "split_job does not redo the job after a failed run": [
        ("offload.py", """\
                worker.release()
                if not isinstance(exc, Exception):
                    raise
            else:
                theirs = worker.reply()
                if theirs is not None:
                    return mine + theirs
""", """\
                worker.release()
                raise
            else:
                theirs = worker.reply()
                return mine + theirs
""")],
    "a run writes the items it is given (_ldm_rows copies no row)": [
        ("ldm.py", """\
    C = [row[:] for row in C]   # the loop writes its rows in place
""", "")],
    "a stripe sends its pivot row after its own step": [
        ("closure.py", """\
            krow = C[k - lo]
            if peer is not None:
                peer.send(krow)
        else:
            krow = peer.recv()
        s = encode_one(kernel_star(d, kernels, entry(krow, k), k + 1))
        C = eliminate(C, k, s, krow)
""", """\
            krow = C[k - lo]
        else:
            krow = peer.recv()
        s = encode_one(kernel_star(d, kernels, entry(krow, k), k + 1))
        C = eliminate(C, k, s, krow)
        if peer is not None and lo <= k < hi:
            peer.send(C[k - lo])
""")],
    "split_job joins the halves as theirs + mine": [
        ("offload.py", """\
                    return mine + theirs
""", """\
                    return theirs + mine
""")],
    "_Worker.reply does not stop a lost worker": [
        ("offload.py", """\
        except (EOFError, OSError):
            self.stop()
            got = None
""", """\
        except (EOFError, OSError):
            got = None
""")],
    "_Worker.release does not restore the affinity": [
        ("offload.py", """\
            if cpus is not None:
                os.sched_setaffinity(0, cpus)
""", """\
            if cpus is not None:
                pass
""")],
}


def _copy(into, substitutions):
    """``src/`` copied under ``into``, with ``substitutions`` applied."""
    src = Path(into) / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name, target, replacement in substitutions:
        path = src / "semiralg" / name
        text = path.read_text()
        if text.count(target) != 1:
            sys.exit(f"mutate_split_job: the target text in {name} is "
                     f"found {text.count(target)} times, not once:\n{target}")
        path.write_text(text.replace(target, replacement))
    return src


def _passes(substitutions, args):
    """True when the tests pass against a copy with ``substitutions``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy(tmp, substitutions)
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *args],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return False
        return done.returncode == 0


def main(args):
    args = args or SHIPPING_TESTS
    for substitutions in MUTATIONS.values():    # every target, before any run
        with tempfile.TemporaryDirectory() as tmp:
            _copy(tmp, substitutions)
    if not _passes([], args):
        print("mutate_split_job: the tests fail on the unbroken copy")
        return 2
    survived = 0
    print(f"{'mutation':<62} result")
    for name, substitutions in MUTATIONS.items():
        caught = not _passes(substitutions, args)
        survived += not caught
        print(f"{name:<62} {'caught' if caught else 'SURVIVED'}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
