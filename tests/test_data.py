"""Dataset loading, projection, and contingency counting."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentdag import Dataset, ScoreContext, VariableMeta, count, load_dataset, project
from latentdag import data
from latentdag.data import BatchTally, row_codes


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def make_dataset(columns, names=None):
    """columns: list of integer lists; states named s0,s1,... per column."""
    arr = np.array(columns, dtype=np.int32).T
    vs = tuple(
        VariableMeta(
            names[i] if names else f"V{i}",
            tuple(f"s{j}" for j in range(int(arr[:, i].max()) + 1)),
        )
        for i in range(arr.shape[1])
    )
    return Dataset(vs, arr)


class TestVariableMeta:
    def test_cardinality(self):
        v = VariableMeta("X", ("lo", "hi"))
        assert v.cardinality == 2

    def test_rejects_duplicate_states(self):
        with pytest.raises(ValueError):
            VariableMeta("X", ("a", "a"))

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            VariableMeta("X", ())


class TestLoadDataset:
    def test_two_binary_columns(self, tmp_path):
        path = write(tmp_path, "X,Y\na,x\na,y\nb,x\nb,y\n")
        d = load_dataset(path)
        assert d.n_rows == 4
        assert d.n_variables == 2
        assert d.cardinalities == (2, 2)
        assert [v.name for v in d.variables] == ["X", "Y"]

    def test_domains_sorted_lexicographically(self, tmp_path):
        path = write(tmp_path, "X\nzebra\napple\nmango\n")
        d = load_dataset(path)
        assert d.variables[0].states == ("apple", "mango", "zebra")
        assert list(d.column(0)) == [2, 0, 1]

    def test_single_state_column_rejected(self, tmp_path):
        path = write(tmp_path, "X,Y\na,x\na,y\n")
        with pytest.raises(ValueError, match="single"):
            load_dataset(path)

    def test_header_only_rejected(self, tmp_path):
        path = write(tmp_path, "A,B\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "X,Y\na,x\nb\n")
        with pytest.raises(ValueError, match=":3: ragged"):
            load_dataset(path)

    def test_empty_cell_rejected(self, tmp_path):
        path = write(tmp_path, "X,Y\na,\nb,y\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_dataset("/nonexistent/nowhere.csv")

    def test_alternate_delimiter(self, tmp_path):
        path = write(tmp_path, "X;Y\na;x\nb;y\n")
        d = load_dataset(path, delimiter=";")
        assert d.n_variables == 2

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_bad_delimiter_is_value_error(self, tmp_path, delimiter):
        path = write(tmp_path, "X,Y\na,x\nb,y\n")
        with pytest.raises(ValueError, match="bad delimiter"):
            load_dataset(path, delimiter=delimiter)

    def test_bad_byte_offset_beyond_first_read_chunk(self, tmp_path):
        # the decoder reads in chunks; the offset counts from the file start
        path = tmp_path / "long.csv"
        path.write_bytes(b"X,Y\n" + b"a,x\nb,y\n" * 5000 + b"\xff,x\n")
        with pytest.raises(ValueError, match="byte 0xff at offset 40004"):
            load_dataset(path)

    def test_values_are_read_only(self, tmp_path):
        path = write(tmp_path, "X\na\nb\n")
        d = load_dataset(path)
        with pytest.raises(ValueError):
            d.values[0, 0] = 1


class TestStorage:
    def test_values_view_int64_columns(self):
        d = make_dataset([[0, 1, 0], [1, 0, 1]])
        assert d.values.dtype == np.int64
        assert d.values.shape == (3, 2)
        assert d.values.T.flags.c_contiguous
        assert list(d.column(1)) == [1, 0, 1]

    def test_int64_columns_are_kept_without_a_copy(self):
        # load_dataset and sample hand over (variables, rows) arrays this way
        cols = np.array([[0, 1, 1], [1, 0, 1]], dtype=np.int64)
        d = Dataset([VariableMeta(n, ("a", "b")) for n in "XY"], cols.T)
        assert np.shares_memory(d.values, cols)
        assert np.array_equal(d.values.T, cols)


class TestProject:
    def test_identity(self):
        d = make_dataset([[0, 1, 0], [1, 0, 1]])
        p = project(d, [0, 1])
        assert p.n_rows == d.n_rows
        assert np.array_equal(p.values, d.values)

    def test_drop_one_column(self):
        d = make_dataset([[0, 1, 0], [1, 0, 1], [0, 0, 1]])
        p = project(d, [0, 2])
        assert p.n_variables == 2
        assert p.n_rows == 3
        assert [v.name for v in p.variables] == ["V0", "V2"]
        assert np.array_equal(p.values, d.values[:, [0, 2]])

    def test_by_name(self):
        d = make_dataset([[0, 1], [1, 0]], names=["A", "B"])
        p = project(d, ["B"])
        assert p.n_variables == 1
        assert p.variables[0].name == "B"

    def test_unknown_id_rejected(self):
        d = make_dataset([[0, 1]])
        with pytest.raises((KeyError, ValueError, IndexError)):
            project(d, [5])

    def test_idempotent(self):
        d = make_dataset([[0, 1, 0], [1, 0, 1], [1, 1, 0]])
        once = project(d, [0, 1])
        twice = project(once, [0, 1])
        assert np.array_equal(once.values, twice.values)

    def test_commutes_with_count(self):
        rng = np.random.default_rng(42)
        cols = [list(rng.integers(0, 3, 50)), list(rng.integers(0, 2, 50)),
                list(rng.integers(0, 2, 50))]
        d = make_dataset(cols)
        direct = count(d, 0, [1])
        via_projection = count(project(d, [0, 1]), 0, [1])
        assert np.array_equal(direct, via_projection)


class TestCount:
    def test_marginal(self):
        d = make_dataset([[0, 0, 1, 1, 1]])
        t = count(d, 0, [])
        assert t.dtype == np.int64
        assert t.shape == (2, 1)
        assert list(t[:, 0]) == [2, 3]

    def test_hand_tally(self):
        # rows (x, z): (0,0) (0,0) (1,0) (1,1)
        d = make_dataset([[0, 0, 1, 1], [0, 0, 0, 1]])
        t = count(d, 0, [1])
        assert np.array_equal(t, np.array([[2, 0], [1, 1]]))
        assert list(t.sum(axis=0)) == [3, 1]

    def test_unobserved_configs_present_with_zero(self):
        # parent has 3 states but only state 0 appears
        z = [0, 0, 0]
        x = [0, 1, 0]
        vs = (VariableMeta("X", ("a", "b")), VariableMeta("Z", ("p", "q", "r")))
        d = Dataset(vs, np.array([x, z], dtype=np.int32).T)
        t = count(d, 0, [1])
        assert t.shape == (2, 3)
        assert list(t.sum(axis=0)) == [3, 0, 0]

    def test_parents_normalized_to_ascending_ids(self):
        rng = np.random.default_rng(7)
        d = make_dataset([list(rng.integers(0, 2, 30)) for _ in range(3)])
        a = count(d, 0, [2, 1])
        b = count(d, 0, [1, 2])
        assert np.array_equal(a, b)
        # parent 1 is the most significant digit of the configuration
        x, z1, z2 = d.values.T
        assert np.array_equal(a, np.bincount(x * 4 + z1 * 2 + z2, minlength=8).reshape(2, 4))

    def test_child_in_parents_rejected(self):
        d = make_dataset([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            count(d, 0, [0, 1])

    def test_conservation_on_random_data(self):
        rng = np.random.default_rng(3)
        d = make_dataset([list(rng.integers(0, 3, 200)),
                          list(rng.integers(0, 2, 200)),
                          list(rng.integers(0, 4, 200))])
        for child, parents in [(0, []), (1, [0]), (2, [0, 1]), (0, [1, 2])]:
            t = count(d, child, parents)
            assert t.shape == (d.cardinalities[child],
                               math.prod(d.cardinalities[p] for p in parents))
            assert t.sum() == 200

    def test_config_order_last_parent_fastest(self):
        # z1 in {0,1}, z2 in {0,1}; configs ordered (0,0),(0,1),(1,0),(1,1)
        x = [0, 0, 0, 0]
        z1 = [0, 0, 1, 1]
        z2 = [0, 1, 0, 1]
        d = make_dataset([x, z1, z2])
        t = count(d, 0, [1, 2])
        # x has one state in the data... use explicit metadata instead
        vs = (VariableMeta("X", ("a", "b")), VariableMeta("Z1", ("p", "q")),
              VariableMeta("Z2", ("u", "v")))
        d = Dataset(vs, np.array([x, z1, z2], dtype=np.int32).T)
        t = count(d, 0, [1, 2])
        assert list(t.sum(axis=0)) == [1, 1, 1, 1]
        assert np.array_equal(t[0], [1, 1, 1, 1])


@st.composite
def code_cases(draw):
    """Columns of 1 to 5 states and an ordered list of distinct variables
    (possibly empty)."""
    n_vars = draw(st.integers(1, 5))
    cards = draw(st.lists(st.integers(1, 5), min_size=n_vars, max_size=n_vars))
    n_rows = draw(st.integers(0, 40))
    cols = [draw(st.lists(st.integers(0, c - 1), min_size=n_rows, max_size=n_rows))
            for c in cards]
    variables = draw(st.permutations(range(n_vars)).flatmap(
        lambda p: st.integers(0, n_vars).map(lambda k: list(p[:k]))))
    return np.array(cols, dtype=np.int64).reshape(n_vars, n_rows), cards, variables


class TestRowCodes:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(code_cases())
    def test_equals_ravel_multi_index(self, case):
        cols, cards, variables = case
        code = row_codes(cols, cards, variables)
        assert code.dtype == np.int64
        if variables:
            want = np.ravel_multi_index(tuple(cols[x] for x in variables),
                                        tuple(cards[x] for x in variables))
        else:
            want = np.zeros(cols.shape[1], dtype=np.int64)
        assert np.array_equal(code, want)


@st.composite
def tally_cases(draw):
    """Columns of 2 to 6 states, an ascending base set (possibly empty), the
    ascending extra variables, and the batch cap."""
    n_vars = draw(st.integers(2, 6))
    cards = draw(st.lists(st.integers(2, 6), min_size=n_vars, max_size=n_vars))
    n_rows = draw(st.integers(1, 150))
    cols = [draw(st.lists(st.integers(0, c - 1), min_size=n_rows, max_size=n_rows))
            for c in cards]
    base = sorted(draw(st.sets(st.integers(0, n_vars - 1), max_size=n_vars - 1)))
    ys = sorted(draw(st.sets(st.sampled_from([i for i in range(n_vars) if i not in base]),
                             min_size=1)))
    cap = draw(st.sampled_from([1 << 20, 1, 9, 100]))
    return cols, cards, base, ys, cap


class TestBatchTally:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(tally_cases())
    def test_joints_are_count_tables(self, case):
        cols, cards, base, ys, cap = case
        vs = [VariableMeta(f"V{i}", tuple(f"s{j}" for j in range(c)))
              for i, c in enumerate(cards)]
        d = Dataset(vs, np.array(cols, dtype=np.int32).T)
        n_cfg = math.prod(cards[p] for p in base)

        def table(y):
            """(y, base) counts from numpy's own lexicographic index."""
            flat = np.ravel_multi_index(tuple(d.values[:, v] for v in (y, *base)),
                                        tuple(cards[v] for v in (y, *base)))
            return np.bincount(flat, minlength=cards[y] * n_cfg).reshape(cards[y], n_cfg)

        seen = []
        with mock.patch.object(data, "_BATCH_ELEMENTS", cap):
            tally = BatchTally(d)
            code = tally.code(base)
            for chunk, joint in tally.joints(code, n_cfg, ys):
                assert joint.shape == (len(chunk), n_cfg, max(cards[y] for y in chunk))
                for y, grid in zip(chunk, joint):
                    seen.append(y)
                    assert grid.sum() == d.n_rows
                    assert not grid[:, cards[y]:].any()  # padding counts zero
                    assert np.array_equal(grid.sum(axis=1),
                                          np.bincount(code, minlength=n_cfg))
                    assert np.array_equal(grid[:, :cards[y]].T, table(y))
        assert seen == ys

    def test_reads_the_dataset_columns_without_a_copy(self):
        d = make_dataset([[0, 1, 0, 1], [1, 1, 0, 0]])
        assert np.shares_memory(ScoreContext(d).tally.cols, d.values)
