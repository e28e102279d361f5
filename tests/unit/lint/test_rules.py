"""Per-rule positive/negative AST fixtures.

Each rule gets at least one snippet that must fire and one adjacent
snippet that must stay silent, so a rule regression is pinned to the
exact pattern it stopped (or started) matching.
"""

from repro.lint import lint_source


def ids_of(source, **kwargs):
    """Rule IDs the linter emits for ``source`` (library context default)."""
    return [v.rule_id for v in lint_source(source, **kwargs)]


class TestRL001StdlibRandom:
    def test_import_random_fires(self):
        assert ids_of("import random\n") == ["RL001"]

    def test_from_random_fires(self):
        assert ids_of("from random import choice\n") == ["RL001"]

    def test_import_random_submodule_fires(self):
        assert "RL001" in ids_of("import random.shuffle\n")

    def test_local_variable_named_random_is_silent(self):
        assert ids_of("random = 3\nx = random + 1\n") == []

    def test_numpy_import_is_silent(self):
        assert ids_of("import numpy as np\n") == []


class TestRL002GlobalNumpyRng:
    def test_default_rng_fires(self):
        src = "import numpy as np\nrng = np.random.default_rng(3)\n"
        assert ids_of(src) == ["RL002"]

    def test_legacy_global_seed_fires(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert ids_of(src) == ["RL002"]

    def test_from_import_alias_fires(self):
        src = ("from numpy.random import default_rng as mk\n"
               "rng = mk(1)\n")
        assert ids_of(src) == ["RL002"]

    def test_import_numpy_random_as_fires(self):
        src = "import numpy.random as nr\nnr.shuffle(x)\n"
        assert ids_of(src) == ["RL002"]

    def test_generator_annotation_is_silent(self):
        src = ("import numpy as np\n"
               "def f(rng: np.random.Generator) -> None:\n"
               "    pass\n")
        assert ids_of(src) == []

    def test_rng_module_is_exempt(self):
        src = "import numpy as np\nrng = np.random.default_rng(3)\n"
        assert ids_of(src, path="src/repro/rng.py") == []

    def test_make_rng_is_silent(self):
        # make_rng is the sanctioned factory.
        src = ("from repro.rng import make_rng\n"
               "rng = make_rng(3)\n")
        assert ids_of(src) == []
        assert ids_of("from repro.rng import make_rng\n"
                      "def f():\n"
                      "    return make_rng(3)\n") == []


class TestRL003RngConstruction:
    def test_generator_construction_fires(self):
        src = ("import numpy as np\n"
               "rng = np.random.Generator(np.random.PCG64(1))\n")
        assert ids_of(src) == ["RL003", "RL003"]

    def test_isinstance_check_is_silent(self):
        src = ("import numpy as np\n"
               "ok = isinstance(x, np.random.Generator)\n")
        assert ids_of(src) == []

    def test_seed_sequence_is_allowed(self):
        src = ("import numpy as np\n"
               "seq = np.random.SeedSequence(entropy=(1, 2))\n")
        assert ids_of(src) == []


class TestRL004WallClock:
    def test_time_time_fires(self):
        assert ids_of("import time\nt = time.time()\n") == ["RL004"]

    def test_datetime_now_fires(self):
        src = ("from datetime import datetime\n"
               "stamp = datetime.now()\n")
        assert ids_of(src) == ["RL004"]

    def test_datetime_module_spelling_fires(self):
        src = "import datetime\nstamp = datetime.datetime.utcnow()\n"
        assert ids_of(src) == ["RL004"]

    def test_perf_counter_is_allowed(self):
        # Elapsed-time measurement is fine; only epoch stamps leak into
        # output artifacts.
        assert ids_of("import time\nt0 = time.perf_counter()\n") == []


class TestRL005UnsortedFsIteration:
    def test_os_listdir_fires(self):
        src = "import os\nnames = os.listdir('.')\n"
        assert ids_of(src) == ["RL005"]

    def test_glob_fires(self):
        src = "import glob\nfiles = glob.glob('*.py')\n"
        assert ids_of(src) == ["RL005"]

    def test_pathlib_glob_method_fires(self):
        src = "files = path.glob('*.py')\n"
        assert ids_of(src) == ["RL005"]

    def test_sorted_wrapper_is_silent(self):
        src = ("import os\n"
               "names = sorted(os.listdir('.'))\n"
               "files = sorted(path.rglob('*.py'))\n")
        assert ids_of(src) == []


class TestRL006SetIterationOrder:
    def test_for_over_set_literal_fires(self):
        assert ids_of("for x in {1, 2, 3}:\n    pass\n") == ["RL006"]

    def test_for_over_set_call_fires(self):
        assert ids_of("for x in set(items):\n    pass\n") == ["RL006"]

    def test_comprehension_over_set_fires(self):
        assert ids_of("out = [x for x in {1, 2}]\n") == ["RL006"]

    def test_list_of_set_fires(self):
        assert ids_of("out = list(set(items))\n") == ["RL006"]

    def test_sorted_set_is_silent(self):
        assert ids_of("for x in sorted(set(items)):\n    pass\n") == []

    def test_membership_test_is_silent(self):
        assert ids_of("ok = x in {1, 2, 3}\n") == []

    def test_dict_iteration_is_silent(self):
        # Python dicts preserve insertion order; they are deterministic.
        assert ids_of("for k in {'a': 1}:\n    pass\n") == []


class TestRL007FloatEquality:
    def test_float_literal_eq_fires(self):
        assert ids_of("if x == 1.5:\n    pass\n") == ["RL007"]

    def test_float_literal_ne_fires(self):
        assert ids_of("bad = x != 0.1\n") == ["RL007"]

    def test_float_cast_fires(self):
        assert ids_of("bad = float(a) == b\n") == ["RL007"]

    def test_nan_comparison_fires(self):
        src = "import numpy as np\nbad = x == np.nan\n"
        assert ids_of(src) == ["RL007"]

    def test_assert_is_exempt(self):
        # Exact-equality asserts are the repo's bit-identity currency.
        assert ids_of("assert x == 1.5\n") == []

    def test_assert_subtree_is_exempt(self):
        assert ids_of("assert all(v == 0.5 for v in vals)\n") == []

    def test_int_literal_is_silent(self):
        assert ids_of("if x == 3:\n    pass\n") == []

    def test_inequality_is_silent(self):
        assert ids_of("if x <= 1.5:\n    pass\n") == []


class TestRL008DtypeLessConstructor:
    MODULE = "repro.trace.fake"

    def test_zeros_without_dtype_fires(self):
        src = "import numpy as np\na = np.zeros(5)\n"
        assert ids_of(src, module=self.MODULE) == ["RL008"]

    def test_array_without_dtype_fires(self):
        src = "import numpy as np\na = np.array([1, 2])\n"
        assert ids_of(src, module=self.MODULE) == ["RL008"]

    def test_explicit_dtype_is_silent(self):
        src = "import numpy as np\na = np.zeros(5, dtype=np.float64)\n"
        assert ids_of(src, module=self.MODULE) == []

    def test_asarray_is_silent(self):
        # asarray preserves the input dtype; it does not invent one.
        src = "import numpy as np\na = np.asarray(b)\n"
        assert ids_of(src, module=self.MODULE) == []

    def test_outside_scoped_packages_is_silent(self):
        src = "import numpy as np\na = np.zeros(5)\n"
        assert ids_of(src, module="repro.analysis.fake") == []

    def test_test_context_is_silent(self):
        src = "import numpy as np\na = np.zeros(5)\n"
        assert ids_of(src, module=self.MODULE, context="test") == []


class TestRL009FixedWidthStrDtype:
    def test_u1_literal_fires(self):
        src = "import numpy as np\na = np.empty(3, dtype='<U1')\n"
        assert "RL009" in ids_of(src, module="repro.core.fake")

    def test_bare_width_fires(self):
        assert ids_of("kind = 'U8'\n") == ["RL009"]

    def test_bytes_width_fires(self):
        assert ids_of("kind = 'S4'\n") == ["RL009"]

    def test_plain_string_is_silent(self):
        assert ids_of("name = 'User1'\n") == []

    def test_docstring_is_silent(self):
        assert ids_of('"""U1"""\n') == []


class TestRL011BuiltinHash:
    def test_hash_call_fires(self):
        assert ids_of("key = hash(name)\n") == ["RL011"]

    def test_hashlib_is_silent(self):
        src = ("import hashlib\n"
               "key = hashlib.sha256(data).hexdigest()\n")
        assert ids_of(src) == []


class TestRL012UnstableArgsort:
    def test_np_argsort_without_kind_fires(self):
        src = "import numpy as np\norder = np.argsort(a)\n"
        assert ids_of(src) == ["RL012"]

    def test_method_argsort_without_kind_fires(self):
        assert ids_of("order = a.argsort()\n") == ["RL012"]

    def test_stable_kind_is_silent(self):
        src = "import numpy as np\norder = np.argsort(a, kind='stable')\n"
        assert ids_of(src) == []

    def test_mergesort_kind_is_silent(self):
        src = "import numpy as np\norder = np.argsort(a, kind='mergesort')\n"
        assert ids_of(src) == []

    def test_quicksort_kind_fires(self):
        src = "import numpy as np\norder = np.argsort(a, kind='quicksort')\n"
        assert ids_of(src) == ["RL012"]

    def test_np_sort_is_silent(self):
        # Sorting *values* is order-stable by definition; only index
        # permutations (argsort) expose tie-breaking.
        src = "import numpy as np\nsrt = np.sort(a)\n"
        assert ids_of(src) == []


class TestRL040BlockingInAsync:
    def test_direct_blocking_call_fires(self):
        src = "import time\nasync def tick():\n    time.sleep(0.1)\n"
        (hit,) = lint_source(src)
        assert hit.rule_id == "RL040"
        assert "time.sleep()" in hit.message
        assert "async def tick" in hit.message

    def test_blocking_builtin_fires(self):
        src = ("async def slurp(path):\n"
               "    with open(path) as stream:\n"
               "        return stream.read()\n")
        (hit,) = lint_source(src)
        assert hit.rule_id == "RL040"
        assert "open()" in hit.message

    def test_method_on_unresolved_receiver_names_the_method(self):
        src = ("class Worker:\n"
               "    async def run(self, path):\n"
               "        return path.read_text()\n")
        (hit,) = lint_source(src)
        assert hit.rule_id == "RL040"
        assert ".read_text()" in hit.message
        assert "async def Worker.run" in hit.message

    def test_async_callee_reports_only_at_the_deepest_frame(self):
        src = ("import time\n"
               "async def inner():\n"
               "    time.sleep(0.1)\n"
               "async def outer():\n"
               "    await inner()\n")
        (hit,) = lint_source(src)
        assert (hit.rule_id, hit.line) == ("RL040", 3)

    def test_inline_suppression_silences_it(self):
        src = ("import time\n"
               "async def tick():\n"
               "    time.sleep(0.1)  # reprolint: disable=RL040, fixture\n")
        assert ids_of(src) == []

    def test_sync_functions_may_block(self):
        src = "import time\ndef retry_backoff():\n    time.sleep(0.1)\n"
        assert ids_of(src) == []

    def test_sync_def_nested_in_async_def_is_silent(self):
        # The nested def runs wherever it is called (here, an executor),
        # not on the event loop at the point it is defined.
        src = ("import time\n"
               "async def handler(loop):\n"
               "    def backoff():\n"
               "        time.sleep(0.1)\n"
               "    await loop.run_in_executor(None, backoff)\n"
               "    await loop.run_in_executor(None, lambda: time.sleep(1))\n")
        assert ids_of(src) == []

    def test_test_context_is_silent(self):
        src = "import time\nasync def tick():\n    time.sleep(0.1)\n"
        assert ids_of(src, context="test") == []


class TestLocations:
    def test_line_and_column_are_precise(self):
        src = "import numpy as np\n\n\nrng = np.random.default_rng(3)\n"
        (violation,) = lint_source(src, select=["RL002"])
        assert violation.line == 4
        assert violation.col == 7
        assert "default_rng" in violation.message

    def test_render_format(self):
        src = "import time\nt = time.time()\n"
        (violation,) = lint_source(src, path="src/repro/x.py")
        assert violation.render() == (
            "src/repro/x.py:2:5: RL004 call to time.time")
