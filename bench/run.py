"""End-to-end and per-layer benchmark of the rspca CLI.

    python3 bench/run.py --workload {fisher,tall,wide} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program under test is always that
checkout's ``src/``: every command is a fresh ``python -m rspca.cli``
process with PYTHONPATH set to it, started one at a time.  The benchmark

- writes the workload's input from ``--seed`` (bench/gen.py; the program
  sees only the CSV file);
- for ``--seconds`` repeats cycles of two bare ``import rspca.cli`` probes
  and the commands ``cov``, ``pca``, ``interpret`` and ``select``, timing
  each process and taking its peak RSS from ``os.wait4``;
- checks the first output of each command against the numpy oracle
  (bench/oracle.py) and every later one by SHA-256 against the first, and
  runs ``corr`` and ``scree`` once, untimed, for correctness;
- with ``--trace 1`` follows every such cycle with one whose commands run
  under bench/tracer.py, and reports per-layer totals instead of the
  end-to-end metrics.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (environment, input hashes, every sample) and, when tracing, the
spans are written under ``.bench_work/results/``.

Self-tests: ``PYTHONPATH=src python3 -m pytest -q bench``.
"""

import argparse
import signal
import subprocess
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rspca" / "cli.py").is_file():
        print("error: no rspca source under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    # started while this process is still small: see launcher.py
    launcher = subprocess.Popen(
        [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        import harness

        signal.signal(signal.SIGALRM, harness.on_alarm)
        try:
            return harness.run(args, root, launcher)
        except harness.DeadlineExceeded:
            print(f"error: run exceeded {harness.DEADLINE_S} s", file=sys.stderr)
            return 1
    finally:
        launcher.stdin.close()
        launcher.wait()


if __name__ == "__main__":
    sys.exit(main())
