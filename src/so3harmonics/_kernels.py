"""Name of the numeric backend, recorded in benchmark reports.

``perfbench/run.py`` reads ``BACKEND`` into each report; every numeric
kernel is plain numpy.
"""

BACKEND = "numpy"
