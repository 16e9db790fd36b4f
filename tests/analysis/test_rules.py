"""Per-rule fixture tests: one bad and one good fixture for every rule.

Fixtures are virtual modules — :class:`SourceModule` accepts the source
text directly, and the *path* controls scoping (``src/repro/serve/...``
puts a fixture in RPR002/RPR005 territory, ``src/repro/data/...`` grants
the RPR001 fixture exemption), so nothing is written to disk.
"""

from __future__ import annotations

import textwrap

from repro.analysis.core import SourceModule, guarded_attributes
from repro.analysis.rules import run_rules


def check(path: str, source: str, rules=None):
    mod = SourceModule(path, text=textwrap.dedent(source))
    return run_rules(mod, rules)


def rules_hit(path: str, source: str, rules=None):
    return sorted({f.rule for f in check(path, source, rules)})


# --------------------------------------------------------------------------- #
# RPR001 — rng-discipline
# --------------------------------------------------------------------------- #
class TestRngDiscipline:
    def test_legacy_global_state_api_flagged(self):
        findings = check(
            "src/repro/nn/fixture.py",
            """
            import numpy as np

            def draw():
                return np.random.normal(size=3)
            """,
            ["RPR001"],
        )
        assert [f.rule for f in findings] == ["RPR001"]
        assert "legacy global-state" in findings[0].message
        assert findings[0].symbol == "draw"

    def test_argless_default_rng_flagged(self):
        findings = check(
            "src/repro/nn/fixture.py",
            """
            import numpy as np

            def build(rng=None):
                return rng if rng is not None else np.random.default_rng()
            """,
            ["RPR001"],
        )
        assert len(findings) == 1
        assert "argless default_rng()" in findings[0].message

    def test_module_level_rng_flagged(self):
        findings = check(
            "src/repro/nn/fixture.py",
            """
            import numpy as np

            RNG = np.random.default_rng(1234)
            """,
            ["RPR001"],
        )
        assert len(findings) == 1
        assert "module-level RNG" in findings[0].message
        assert findings[0].symbol == "<module>"

    def test_seeded_parameter_flow_clean(self):
        assert not check(
            "src/repro/nn/fixture.py",
            """
            import numpy as np

            def build(seed):
                rng = np.random.default_rng(seed)
                return rng.normal(size=3)
            """,
            ["RPR001"],
        )

    def test_data_fixtures_exempt_from_argless(self):
        assert not check(
            "src/repro/data/fixture.py",
            """
            import numpy as np

            def sample():
                return np.random.default_rng().normal(size=3)
            """,
            ["RPR001"],
        )

    def test_from_import_alias_resolved(self):
        findings = check(
            "src/repro/nn/fixture.py",
            """
            from numpy.random import default_rng

            def build():
                return default_rng()
            """,
            ["RPR001"],
        )
        assert len(findings) == 1


# --------------------------------------------------------------------------- #
# RPR002 — wall-clock
# --------------------------------------------------------------------------- #
class TestWallClock:
    def test_time_time_in_serve_flagged(self):
        findings = check(
            "src/repro/serve/fixture.py",
            """
            import time

            def deadline():
                return time.time() + 5.0
            """,
            ["RPR002"],
        )
        assert len(findings) == 1
        assert "wall clock time.time" in findings[0].message

    def test_datetime_now_in_monitor_flagged(self):
        findings = check(
            "src/repro/monitor/fixture.py",
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            ["RPR002"],
        )
        assert len(findings) == 1

    def test_perf_counter_outside_stats_module_flagged(self):
        findings = check(
            "src/repro/serve/fixture.py",
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            ["RPR002"],
        )
        assert len(findings) == 1
        assert "stats/bench" in findings[0].message

    def test_perf_counter_in_stats_module_clean(self):
        assert not check(
            "src/repro/serve/stats.py",
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            ["RPR002"],
        )

    def test_monotonic_clean(self):
        assert not check(
            "src/repro/serve/fixture.py",
            """
            import time

            def deadline():
                return time.monotonic() + 5.0
            """,
            ["RPR002"],
        )

    def test_out_of_scope_package_silent(self):
        assert not check(
            "src/repro/nn/fixture.py",
            """
            import time

            def now():
                return time.time()
            """,
            ["RPR002"],
        )

    def test_time_time_in_slo_flagged(self):
        # The SLO harness records latency on the *injected* monotonic clock;
        # wall clock reads would make replays irreproducible.
        findings = check(
            "src/repro/slo/fixture.py",
            """
            import time

            def stamp():
                return time.time()
            """,
            ["RPR002"],
        )
        assert len(findings) == 1

    def test_monotonic_in_slo_clean(self):
        assert not check(
            "src/repro/slo/fixture.py",
            """
            import time

            def tick():
                return time.monotonic()
            """,
            ["RPR002"],
        )

    def test_perf_counter_in_slo_flagged(self):
        # slo modules are not stats/bench stems: timing belongs to the
        # injected clock protocol, never an ad-hoc perf_counter.
        findings = check(
            "src/repro/slo/fixture.py",
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            ["RPR002"],
        )
        assert len(findings) == 1

    def test_time_time_in_learner_zoo_flagged(self):
        # core/learners promises bitwise retrain determinism; a wall-clock
        # read there (e.g. a timing-based early stop) would break it.
        findings = check(
            "src/repro/core/learners.py",
            """
            import time

            def stamp():
                return time.time()
            """,
            ["RPR002"],
        )
        assert len(findings) == 1

    def test_time_time_in_estimator_api_flagged(self):
        findings = check(
            "src/repro/core/api.py",
            """
            import time

            def stamp():
                return time.time()
            """,
            ["RPR002"],
        )
        assert len(findings) == 1

    def test_rest_of_core_stays_out_of_scope(self):
        assert not check(
            "src/repro/core/classic.py",
            """
            import time

            def now():
                return time.time()
            """,
            ["RPR002"],
        )


# --------------------------------------------------------------------------- #
# RPR003 — lock-discipline
# --------------------------------------------------------------------------- #
LOCKED_CLASS = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: _lock

    def {method}
"""


class TestLockDiscipline:
    def test_annotated_attribute_outside_lock_flagged(self):
        findings = check(
            "src/repro/serve/fixture.py",
            LOCKED_CLASS.format(method="bump(self):\n        self._hits += 1"),
            ["RPR003"],
        )
        assert len(findings) == 1
        assert "with self._lock:" in findings[0].message
        assert findings[0].symbol == "Counter.bump"

    def test_access_under_lock_clean(self):
        assert not check(
            "src/repro/serve/fixture.py",
            LOCKED_CLASS.format(
                method="bump(self):\n        with self._lock:\n            self._hits += 1"
            ),
            ["RPR003"],
        )

    def test_locked_suffix_method_exempt(self):
        assert not check(
            "src/repro/serve/fixture.py",
            LOCKED_CLASS.format(method="bump_locked(self):\n        self._hits += 1"),
            ["RPR003"],
        )

    def test_heuristic_registers_counter_in_single_lock_class(self):
        source = """
        import threading

        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self.queries = 0

            def record(self):
                self.queries += 1
        """
        mod = SourceModule("src/repro/serve/fixture.py", text=textwrap.dedent(source))
        assert guarded_attributes(mod) == {"Stats": {"queries": {"_lock"}}}
        findings = run_rules(mod, ["RPR003"])
        assert len(findings) == 1 and findings[0].symbol == "Stats.record"

    def test_two_lock_class_gets_no_heuristic(self):
        assert not check(
            "src/repro/serve/fixture.py",
            """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._other = threading.Lock()
                    self.queries = 0

                def record(self):
                    self.queries += 1
            """,
            ["RPR003"],
        )

    def test_cross_object_access_checked_module_wide(self):
        source = """
        import threading

        class Shard:
            def __init__(self):
                self._lock = threading.Lock()
                self.answered = 0

        class Gateway:
            def total(self, shard):
                return shard.answered

            def total_safe(self, shard):
                with shard._lock:
                    return shard.answered
        """
        findings = check("src/repro/serve/fixture.py", source, ["RPR003"])
        assert [f.symbol for f in findings] == ["Gateway.total"]

    def test_frozen_dataclass_snapshot_exempt(self):
        assert not check(
            "src/repro/serve/fixture.py",
            """
            import threading
            from dataclasses import dataclass

            class Shard:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.answered = 0

            @dataclass(frozen=True)
            class Snapshot:
                answered: int

                @property
                def rate(self):
                    return self.answered / 2
            """,
            ["RPR003"],
        )

    def test_other_class_self_access_not_flagged(self):
        # self.answered in an unrelated class must not match Shard's registry.
        assert not check(
            "src/repro/serve/fixture.py",
            """
            import threading

            class Shard:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.answered = 0

            class Tally:
                def __init__(self):
                    self.answered = []

                def push(self, x):
                    self.answered.append(x)
            """,
            ["RPR003"],
        )


# --------------------------------------------------------------------------- #
# RPR004 — infer-purity
# --------------------------------------------------------------------------- #
class TestInferPurity:
    def test_tensor_construction_in_infer_flagged(self):
        findings = check(
            "src/repro/nn/fixture.py",
            """
            from .tensor import Tensor

            class Layer:
                def infer(self, x):
                    return self.forward(Tensor(x))
            """,
            ["RPR004"],
        )
        assert len(findings) == 1
        assert "Tensor construction" in findings[0].message

    def test_graph_attr_through_helper_closure_flagged(self):
        findings = check(
            "src/repro/nn/fixture.py",
            """
            class Layer:
                def infer(self, x):
                    return self._helper(x)

                def _helper(self, x):
                    return x._parents
            """,
            ["RPR004"],
        )
        assert len(findings) == 1
        assert "_parents" in findings[0].message
        assert findings[0].symbol == "Layer._helper"

    def test_forward_may_build_tensors(self):
        assert not check(
            "src/repro/nn/fixture.py",
            """
            from .tensor import Tensor

            class Layer:
                def forward(self, x):
                    return Tensor(x)
            """,
            ["RPR004"],
        )

    def test_tensor_module_itself_out_of_scope(self):
        assert not check(
            "src/repro/nn/tensor.py",
            """
            class Tensor:
                def infer_shape(self):
                    return self._parents
            """,
            ["RPR004"],
        )


# --------------------------------------------------------------------------- #
# RPR005 — atomic-writes
# --------------------------------------------------------------------------- #
class TestAtomicWrites:
    def test_bare_open_write_flagged(self):
        findings = check(
            "src/repro/serve/fixture.py",
            """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """,
            ["RPR005"],
        )
        assert len(findings) == 1
        assert "atomic_write" in findings[0].message

    def test_np_save_flagged(self):
        findings = check(
            "src/repro/serve/fixture.py",
            """
            import numpy as np

            def save(path, array):
                np.save(path, array)
            """,
            ["RPR005"],
        )
        assert len(findings) == 1

    def test_write_text_flagged(self):
        findings = check(
            "src/repro/serve/fixture.py",
            """
            def save(path, text):
                path.write_text(text)
            """,
            ["RPR005"],
        )
        assert len(findings) == 1

    def test_write_inside_atomic_write_clean(self):
        assert not check(
            "src/repro/serve/fixture.py",
            """
            from ..utils import atomic_write

            def save(path, text):
                with atomic_write(path) as handle:
                    handle.write(text)
            """,
            ["RPR005"],
        )

    def test_read_open_clean(self):
        assert not check(
            "src/repro/serve/fixture.py",
            """
            def load(path):
                with open(path) as handle:
                    return handle.read()
            """,
            ["RPR005"],
        )

    def test_out_of_scope_package_silent(self):
        assert not check(
            "src/repro/nn/fixture.py",
            """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """,
            ["RPR005"],
        )
