import os

# Single-threaded BLAS: these are small-matrix workloads where thread
# handoff costs dominate, and it keeps timing-sensitive suites stable.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from hypothesis import HealthCheck, settings  # noqa: E402

settings.register_profile(
    "repeatable",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repeatable")

# threadpoolctl also caps BLAS pools that were started before this file ran.
# It is optional: without it the environment variables above already pin
# BLAS to one thread, so only a missing module is tolerated here.
try:
    from threadpoolctl import threadpool_limits
except ImportError:
    pass
else:
    threadpool_limits(1)
