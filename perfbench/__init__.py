"""End-to-end and per-layer benchmark of the CERL reproduction.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
This module imports nothing, so the entry point can set the thread
environment before NumPy loads.
"""

#: BLAS/OpenMP threads the benchmark sets for itself before importing NumPy.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
