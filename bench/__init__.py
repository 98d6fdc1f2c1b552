"""The serving benchmark: five fleet workloads measured from outside.

``python3 bench/run.py --workload NAME --seed S --seconds N --trace 0|1``
is the contract command (see ``BENCHMARK.json`` and ``bench/README.md``);
nothing under ``src/`` knows this package exists.
"""
