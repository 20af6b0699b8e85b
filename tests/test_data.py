import re
import warnings

import numpy as np
import pytest

from maskcast import data as data_mod
from maskcast.data import (Dataset, chrono_split, dataset_paths, load_csv,
                           make_windows, prepare_splits, save_csv, stack_windows,
                           synthesize, zscore_fit_apply)
from maskcast.graph import Graph


class TestSynthesize:
    def test_seeded_bitwise_determinism(self):
        a = synthesize(8, 300, seed=5)
        b = synthesize(8, 300, seed=5)
        assert (a.values == b.values).all()
        assert a.graph.edge_set() == b.graph.edge_set()

    def test_different_seeds_differ(self):
        a = synthesize(8, 300, seed=5)
        b = synthesize(8, 300, seed=6)
        assert not np.array_equal(a.values, b.values)

    def test_edgeless_graph_rejected(self, monkeypatch):
        monkeypatch.setattr(data_mod, "gaussian_threshold_graph",
                            lambda dist, epsilon: Graph(n_nodes=len(dist), edges=[]))
        with pytest.raises(ValueError, match="could not generate a geometric graph with "
                                             "at least one edge in 10 attempts"):
            synthesize(8, 300, seed=0)

    def test_long_run_stays_bounded(self):
        ds = synthesize(5, 5000, seed=0, autoreg=0.9)
        assert np.isfinite(ds.values).all()
        assert ds.values.max() < 100.0

    def test_values_nonnegative_with_zero_min(self):
        ds = synthesize(6, 250, seed=2)
        assert ds.values.min() == 0.0

    def test_shape_and_graph_size(self):
        ds = synthesize(7, 260, seed=1)
        assert ds.values.shape == (260, 7, 1)
        assert ds.graph.n_nodes == 7
        assert ds.graph.n_edges > 0

    def test_too_few_nodes_rejected(self):
        for n_nodes in (1, 2):
            with pytest.raises(ValueError, match=f"need at least 3 nodes, got {n_nodes}"):
                synthesize(n_nodes, 300, seed=0)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            synthesize(5, 100, seed=0)


class TestZScore:
    def _dataset(self, values):
        g = Graph(n_nodes=values.shape[1], edges=[])
        return Dataset(values=values, period=300.0, graph=g)

    def test_hand_statistics(self):
        # first 6 of 10 rows train: values alternate 0, 10 -> mean 5, std 5
        values = np.tile([[0.0], [10.0]], (5, 1))[:, :, None].reshape(10, 1, 1)
        ds = self._dataset(values)
        normalized, (mean, std) = zscore_fit_apply(ds)
        assert mean[0] == 5.0 and std[0] == 5.0
        np.testing.assert_array_equal(np.unique(normalized.values), [-1.0, 1.0])

    def test_statistics_from_train_rows_only(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(100, 3, 1))
        shifted = values.copy()
        shifted[60:] += 1000.0  # only validation / test rows move
        _, stats_a = zscore_fit_apply(self._dataset(values))
        _, stats_b = zscore_fit_apply(self._dataset(shifted))
        assert (stats_a[0] == stats_b[0]).all()
        assert (stats_a[1] == stats_b[1]).all()

    def test_constant_feature_rejected(self):
        values = np.ones((50, 2, 1))
        with pytest.raises(ValueError, match="zero std"):
            zscore_fit_apply(self._dataset(values))


class TestWindows:
    def test_count_for_known_length(self):
        values = np.zeros((100, 2, 1))
        assert len(make_windows(values, 12, 12)) == 77

    def test_window_contents_and_offsets(self):
        values = np.arange(30, dtype=float).reshape(30, 1, 1)
        pairs = make_windows(values, 3, 2)
        assert len(pairs) == 26
        assert pairs[0].x.reshape(-1).tolist() == [0, 1, 2]
        assert pairs[0].y.reshape(-1).tolist() == [3, 4]
        assert pairs[-1].t0 == 25

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="length"):
            make_windows(np.zeros((10, 2, 1)), 8, 8)


class TestChronoSplit:
    def test_hundred_windows(self):
        windows = list(range(100))
        train, val, test = chrono_split(windows)
        assert (len(train), len(val), len(test)) == (60, 20, 20)
        assert train + val + test == windows  # chronological, nothing dropped

    def test_ten_windows(self):
        train, val, test = chrono_split(list(range(10)))
        assert (len(train), len(val), len(test)) == (6, 2, 2)

    def test_fewer_than_five_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            chrono_split(list(range(4)))


class TestPrepareSplits:
    def test_splits_are_chronological(self, small_splits):
        last_train = small_splits.train[-1].t0
        first_val = small_splits.val[0].t0
        first_test = small_splits.test[0].t0
        assert last_train < first_val < first_test

    def test_denormalize_round_trips(self, small_dataset, small_splits):
        xs, _ = stack_windows(small_splits.train)
        restored = small_splits.denormalize(xs[0])
        t0 = small_splits.train[0].t0
        np.testing.assert_allclose(restored, small_dataset.values[t0:t0 + 12],
                                   rtol=1e-12)

    def test_stack_shapes(self, small_splits):
        xs, ys = stack_windows(small_splits.train)
        assert xs.shape[1:] == (12, 12, 1)
        assert ys.shape[1:] == (12, 12, 1)


class TestCsvIO:
    @pytest.mark.parametrize("n_nodes, n_steps, seed", [(6, 250, 4), (200, 200, 1)],
                             ids=["6-nodes", "200-nodes"])
    def test_round_trip_bitwise(self, tmp_path, n_nodes, n_steps, seed):
        ds = synthesize(n_nodes, n_steps, seed=seed)
        paths = dataset_paths(tmp_path)
        save_csv(ds, *paths)
        loaded = load_csv(*paths)
        assert loaded.values.shape == ds.values.shape
        assert loaded.values.tobytes() == ds.values.tobytes()
        assert loaded.graph.adjacency.tobytes() == ds.graph.adjacency.tobytes()
        assert loaded.graph.edges == ds.graph.edges
        assert loaded.period == ds.period

    def test_wide_dataset_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        g = Graph(n_nodes=170, edges=[(0, 1, 1.0)])
        ds = Dataset(values=rng.normal(size=(5, 170, 1)), period=300.0, graph=g)
        paths = dataset_paths(tmp_path)
        save_csv(ds, *paths)
        loaded = load_csv(*paths)
        assert (loaded.values == ds.values).all()

    def test_column_count_mismatch_rejected(self, tmp_path):
        ds = synthesize(4, 250, seed=0)
        paths = dataset_paths(tmp_path)
        save_csv(ds, *paths)
        meta = paths[2]
        import json
        with open(meta) as fh:
            payload = json.load(fh)
        payload["n_nodes"] = 5
        with open(meta, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match="columns"):
            load_csv(*paths)

    @pytest.mark.parametrize("key, value, message", [
        ("n_nodes", "4", "n_nodes must be a positive integer, got '4'"),
        ("n_nodes", True, "n_nodes must be a positive integer, got True"),
        ("n_nodes", 0, "n_nodes must be a positive integer, got 0"),
        ("n_features", 1.0, "n_features must be a positive integer, got 1.0"),
        ("period_seconds", "300", "period_seconds must be a positive finite number, got '300'"),
        ("period_seconds", True, "period_seconds must be a positive finite number, got True"),
        ("period_seconds", -300.0, "period_seconds must be a positive finite number"),
        ("period_seconds", float("inf"), "period_seconds must be a positive finite number"),
    ])
    def test_meta_value_type_checked(self, tmp_path, key, value, message):
        import json
        paths = dataset_paths(tmp_path)
        save_csv(synthesize(4, 250, seed=0), *paths)
        with open(paths[2]) as fh:
            payload = json.load(fh)
        payload[key] = value
        with open(paths[2], "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_csv(*paths)

    def test_non_numeric_cell_located(self, tmp_path):
        ds = synthesize(3, 250, seed=0)
        paths = dataset_paths(tmp_path)
        save_csv(ds, *paths)
        with open(paths[0]) as fh:
            lines = fh.read().splitlines()
        cells = lines[2].split(",")
        cells[1] = "oops"
        lines[2] = ",".join(cells)
        with open(paths[0], "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="row 2, column 1"):
            load_csv(*paths)

    # numpy's reader skips blank lines and rejects quoted cells and digit
    # underscores; the csv loop decides those files
    @staticmethod
    def edited(tmp_path, edit_values, edit_edges=lambda text: text):
        """A saved dataset, loaded, then its values and edge files edited as
        text; csv.writer ends each line with \\r\\n."""
        paths = dataset_paths(tmp_path)
        save_csv(synthesize(3, 250, seed=0), *paths)
        before = load_csv(*paths)
        for path, edit in zip(paths, (edit_values, edit_edges)):
            with open(path, newline="") as fh:
                text = fh.read()
            with open(path, "w", newline="") as fh:
                fh.write(edit(text))
        return before, paths

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\r\n", "\n"),
        lambda text: text.removesuffix("\r\n"),
        lambda text: "".join(",".join(f'"{cell}"' for cell in line.split(",")) + "\r\n"
                             for line in text.splitlines()),
    ], ids=["lf", "no-last-newline", "quoted"])
    def test_same_values_from_another_layout(self, tmp_path, edit):
        before, paths = self.edited(tmp_path, edit, edit)
        loaded = load_csv(*paths)
        assert loaded.values.tobytes() == before.values.tobytes()
        assert loaded.graph.adjacency.tobytes() == before.graph.adjacency.tobytes()
        assert loaded.graph.edges == before.graph.edges

    @pytest.mark.parametrize("cell, value", [('"1.5"', 1.5), ("1_5", 15.0), (" 2.5 ", 2.5)],
                             ids=["quoted", "underscore", "spaces"])
    def test_cell_read_as_float_reads_it(self, tmp_path, cell, value):
        def edit(text):
            header, first, rest = text.split("\r\n", 2)
            return "\r\n".join([header, ",".join([cell] + first.split(",")[1:]), rest])

        before, paths = self.edited(tmp_path, edit)
        loaded = load_csv(*paths)
        assert loaded.values[0, 0, 0] == value
        assert loaded.values.reshape(-1)[1:].tobytes() == before.values.reshape(-1)[1:].tobytes()

    @pytest.mark.parametrize("line, message", [
        ("", "row 2 has 0 cells, expected 3"),
        ("  ", "row 2 has 1 cells, expected 3"),
        ("1.0,#2,3.0", "non-numeric cell at row 2, column 1"),
    ], ids=["blank", "spaces", "comment"])
    def test_body_line_rejected(self, tmp_path, line, message):
        def edit(text):
            header, first, rest = text.split("\r\n", 2)
            return "\r\n".join([header, first, line, rest])

        _, paths = self.edited(tmp_path, edit)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_csv(*paths)

    def test_header_only_values_file(self, tmp_path):
        _, paths = self.edited(tmp_path, lambda text: text.split("\r\n")[0] + "\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on a file with no data rows
            loaded = load_csv(*paths)
        assert loaded.values.shape == (0, 3, 1)
