"""Data layer: CSV round trips, missing-value handling, splits, windows,
normalization, graphs, and the synthetic generators."""

import numpy as np
import pytest

from flowcast import cli, data
from flowcast.errors import DataError


def _series(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    return data.SeriesSet(values=values, names=names or [f"s{i}" for i in range(values.shape[1])])


# ---------------------------------------------------------------------------
# CSV loading and saving
# ---------------------------------------------------------------------------


def test_series_csv_round_trip_is_bitwise(tmp_path, rng):
    values = rng.standard_normal((9, 3)) * np.pi
    s = _series(values, names=["a", "b", "c"])
    path = tmp_path / "series.csv"
    data.save_series(path, s)
    back = data.load_series(path)
    assert back.names == ["a", "b", "c"]
    np.testing.assert_array_equal(back.values, values)
    assert not np.isnan(back.values).any()


def test_series_csv_with_timestamps(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("time,a,b\n2024-01-01T00:00:00,1.0,2.0\n2024-01-01T01:00:00,3.0,4.0\n")
    s = data.load_series(path)
    assert s.names == ["a", "b"]
    assert s.timestamps == ["2024-01-01T00:00:00", "2024-01-01T01:00:00"]
    np.testing.assert_array_equal(s.values, [[1.0, 2.0], [3.0, 4.0]])


def test_series_csv_blank_cells_are_missing(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("a,b\n1.0,\n,4.0\n")
    s = data.load_series(path)
    np.testing.assert_array_equal(np.isnan(s.values), [[False, True], [True, False]])
    np.testing.assert_array_equal(s.values[[0, 1], [0, 1]], [1.0, 4.0])


def test_series_csv_nan_cells_are_forward_filled_like_blank_cells(tmp_path):
    blank, spelled = tmp_path / "blank.csv", tmp_path / "nan.csv"
    blank.write_text("a,b\n1.0,2.0\n,\n3.0,\n")
    spelled.write_text("a,b\n1.0,2.0\nnan,NaN\n3.0,nan\n")
    filled = data.forward_fill(data.load_series(spelled))
    np.testing.assert_array_equal(filled.values, data.forward_fill(data.load_series(blank)).values)
    np.testing.assert_array_equal(filled.values, [[1.0, 2.0], [1.0, 2.0], [3.0, 2.0]])


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
def test_series_csv_infinite_cell_raises_with_row_and_column(tmp_path, cell):
    path = tmp_path / "series.csv"
    path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n")
    with pytest.raises(DataError, match=f"^infinite value '{cell}' at row 3, column 'b'$"):
        data.load_series(path)


@pytest.mark.parametrize(
    "text",
    [
        "a,b\r\n1.5,\r\n,-0.25\r\n3.0,4e-05\r\n",
        "timestamp,a,b\r\n2024-01-01T00:00:00,,2.0\r\n2024-01-01T01:00:00,-1.0,\r\n",
    ],
    ids=["blank-cells", "timestamps"],
)
def test_series_csv_with_blank_cells_round_trips_byte_for_byte(tmp_path, text):
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_bytes(text.encode())
    data.save_series(dst, data.load_series(src))
    assert dst.read_bytes() == src.read_bytes()


def test_synth_series_csv_round_trips_byte_for_byte(tmp_path):
    assert cli.main(["synth", "--kind", "var_graph", "--n", "3", "--t", "40", "--seed", "2", "--out", str(tmp_path / "synth")]) == 0
    src, dst = tmp_path / "synth" / "series.csv", tmp_path / "back.csv"
    data.save_series(dst, data.load_series(src))
    assert dst.read_bytes() == src.read_bytes()


def test_series_csv_ragged_row_raises_with_row_number(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="row 3"):
        data.load_series(path)


def test_series_csv_non_numeric_cell_raises(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(DataError, match="row 3"):
        data.load_series(path)


def test_series_csv_missing_round_trip(tmp_path):
    s = _series([[1.0, np.nan], [np.nan, 4.0]])
    path = tmp_path / "series.csv"
    data.save_series(path, s)
    back = data.load_series(path)
    np.testing.assert_array_equal(np.isnan(back.values), np.isnan(s.values))
    assert back.values[0, 0] == 1.0 and back.values[1, 1] == 4.0


# ---------------------------------------------------------------------------
# forward fill
# ---------------------------------------------------------------------------


def test_forward_fill_fills_from_the_left():
    s = _series([[1.0, 5.0], [np.nan, 6.0], [np.nan, np.nan], [2.0, 7.0]])
    out = data.forward_fill(s)
    np.testing.assert_array_equal(out.values[:, 0], [1.0, 1.0, 1.0, 2.0])
    np.testing.assert_array_equal(out.values[:, 1], [5.0, 6.0, 6.0, 7.0])
    assert not np.isnan(out.values).any()


def test_forward_fill_leading_missing_raises_with_series_name():
    s = _series([[np.nan, 1.0], [2.0, 2.0]], names=["alpha", "beta"])
    with pytest.raises(DataError, match="alpha"):
        data.forward_fill(s)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_100_steps_is_70_10_20(rng):
    s = _series(rng.standard_normal((100, 2)))
    tr, va, te = data.chronological_split(s)
    assert (tr.n_steps, va.n_steps, te.n_steps) == (70, 10, 20)
    # order preserved, no overlap
    np.testing.assert_array_equal(np.vstack([tr.values, va.values, te.values]), s.values)


def test_split_small_lengths_floor_the_boundaries(rng):
    s = _series(rng.standard_normal((10, 1)))
    tr, va, te = data.chronological_split(s)
    assert (tr.n_steps, va.n_steps, te.n_steps) == (7, 1, 2)


def test_split_rejects_fractions_not_summing_to_one(rng):
    s = _series(rng.standard_normal((10, 1)))
    with pytest.raises(DataError):
        data.chronological_split(s, (0.5, 0.2, 0.2))


def test_split_enforces_minimum_segment_length(rng):
    s = _series(rng.standard_normal((50, 1)))
    with pytest.raises(DataError):
        data.chronological_split(s, min_length=20)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_standardize_round_trip(rng):
    s = _series(rng.standard_normal((30, 3)) * 5 + 2)
    out, stats = data.standardize(s)
    back = data.destandardize(out.values, stats)
    np.testing.assert_allclose(back, s.values, rtol=1e-12)


def test_standardize_scalar_mode_uses_global_moments(rng):
    vals = rng.standard_normal((40, 2)) * 3 + 1
    s = _series(vals)
    out, stats = data.standardize(s, per_series=False)
    assert stats.mean.shape == () or stats.mean.size == 1
    np.testing.assert_allclose(out.values.mean(), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.values.std(), 1.0, rtol=1e-10)


def test_standardize_per_series_mode(rng):
    vals = np.column_stack([rng.standard_normal(50) * 10, rng.standard_normal(50) * 0.1])
    s = _series(vals)
    out, stats = data.standardize(s, per_series=True)
    np.testing.assert_allclose(out.values.mean(axis=0), [0.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(out.values.std(axis=0), [1.0, 1.0], rtol=1e-10)


def test_standardize_applies_existing_stats(rng):
    s1 = _series(rng.standard_normal((20, 2)) + 5)
    s2 = _series(rng.standard_normal((20, 2)) + 5)
    _, stats = data.standardize(s1)
    out, stats2 = data.standardize(s2, stats=stats)
    assert stats2 is stats
    np.testing.assert_allclose(out.values, (s2.values - stats.mean) / stats.std, rtol=1e-12)


def test_standardize_constant_series_raises():
    s = _series(np.ones((10, 1)))
    with pytest.raises(DataError):
        data.standardize(s)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


def test_window_count_and_contents(rng):
    vals = rng.standard_normal((30, 2))
    s = _series(vals)
    wins = data.make_windows(s, p_steps=12, q_steps=12)
    assert len(wins) == 30 - 12 - 12 + 1  # 7
    w0 = wins[0]
    np.testing.assert_array_equal(w0.y_past, vals[:12])
    np.testing.assert_array_equal(w0.y_future, vals[12:24])
    assert w0.window_id == 0
    np.testing.assert_array_equal(wins[6].y_future, vals[18:30])


def test_window_ids_respect_global_offset(rng):
    s = _series(rng.standard_normal((26, 1)))
    wins = data.make_windows(s, 12, 12, start_offset=100)
    assert [w.window_id for w in wins] == [100, 101, 102]


def test_windows_need_complete_data():
    s = _series([[1.0], [np.nan], [3.0]] * 10)
    with pytest.raises(DataError):
        data.make_windows(s, 2, 2)


def test_window_time_covariates_follow_the_clock(rng):
    s = _series(rng.standard_normal((26, 1)))
    wins = data.make_windows(s, 12, 12, period=24, start_offset=50)
    w = wins[1]
    assert w.z.shape == (24, 2)
    t0 = 51  # window start in global time
    phase = 2 * np.pi * (np.arange(t0, t0 + 24) % 24) / 24
    want = np.column_stack([np.sin(phase), np.cos(phase)])
    np.testing.assert_allclose(w.z, want, rtol=1e-12, atol=1e-15)


def test_too_short_series_yields_no_windows(rng):
    s = _series(rng.standard_normal((20, 1)))
    assert data.make_windows(s, 12, 12) == []


# ---------------------------------------------------------------------------
# graph CSV
# ---------------------------------------------------------------------------


def test_graph_csv_round_trip(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("src,dst,weight\n0,1,2.0\n")
    g = data.load_graph(path, n_nodes=2)
    np.testing.assert_array_equal(g.weights, [[0.0, 2.0], [0.0, 0.0]])
    # row 0 normalizes over its single edge; isolated row 1 self-loops
    np.testing.assert_allclose(g.normalized, [[0.0, 1.0], [0.0, 1.0]])
    out = tmp_path / "graph_out.csv"
    data.save_graph(out, g)
    g2 = data.load_graph(out, n_nodes=2)
    np.testing.assert_array_equal(g2.weights, g.weights)


def test_graph_csv_duplicate_edges_accumulate(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("src,dst,weight\n0,1,1.0\n0,1,0.5\n")
    g = data.load_graph(path, n_nodes=2)
    assert g.weights[0, 1] == 1.5


def test_graph_csv_bad_rows_raise(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("src,dst,weight\n0,9,1.0\n")
    with pytest.raises(DataError, match="row 2"):
        data.load_graph(path, n_nodes=2)
    path.write_text("src,dst,weight\n0,1,-3.0\n")
    with pytest.raises(DataError):
        data.load_graph(path, n_nodes=2)
    path.write_text("src,dst,weight\n0,1\n")
    with pytest.raises(DataError):
        data.load_graph(path, n_nodes=2)


@pytest.mark.parametrize("weight", ["inf", "nan", "-inf"])
def test_graph_csv_non_finite_weight_names_the_row(tmp_path, weight):
    path = tmp_path / "graph.csv"
    path.write_text(f"src,dst,weight\n0,1,1.0\n1,0,{weight}\n")
    with pytest.raises(DataError, match=f"^graph row 3: non-finite weight {weight}$"):
        data.load_graph(path, n_nodes=2)


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


def test_synth_linear_gaussian_shapes_and_determinism():
    r1 = data.synth_generate("linear_gaussian", (3, 4), 50, seed=7)
    r2 = data.synth_generate("linear_gaussian", (3, 4), 50, seed=7)
    assert r1.series.values.shape == (50, 3)
    assert r1.oracle.F.shape == (4, 4)
    assert r1.oracle.H.shape == (3, 4)
    np.testing.assert_array_equal(r1.series.values, r2.series.values)
    r3 = data.synth_generate("linear_gaussian", (3, 4), 50, seed=8)
    assert not np.array_equal(r1.series.values, r3.series.values)


def test_synth_transition_is_stable():
    for seed in range(5):
        r = data.synth_generate("linear_gaussian", (2, 6), 10, seed=seed)
        radius = np.abs(np.linalg.eigvals(r.oracle.F)).max()
        assert radius <= 0.95


def test_synth_var_graph_couples_series_along_edges():
    r = data.synth_generate("var_graph", 5, 30, seed=3)
    assert r.graph is not None
    assert r.series.values.shape == (30, 5)
    np.testing.assert_array_equal(r.oracle.H, np.eye(5))
    # transition support is the graph's edge pattern: influence j -> i
    # appears at F[i, j]
    support = (r.graph.weights.T != 0) | np.eye(5, dtype=bool)
    assert np.all(support[np.abs(r.oracle.F) > 1e-12])
    radius = np.abs(np.linalg.eigvals(r.oracle.F)).max()
    assert radius <= 0.98  # stable, but slow-mixing by design


def test_synth_var_graph_every_node_has_incoming_edges():
    r = data.synth_generate("var_graph", 6, 10, seed=1)
    in_degree = (r.graph.weights != 0).sum(axis=0)
    assert np.all(in_degree >= 1)


def test_synth_unknown_kind_raises():
    with pytest.raises(DataError):
        data.synth_generate("mystery", (2, 2), 10, seed=0)


def test_synth_states_match_oracle_dimensions():
    r = data.synth_generate("linear_gaussian", (2, 3), 15, seed=0)
    assert r.states.shape == (15, 3)
    # observations are H x + noise: residuals should have roughly the
    # configured observation noise scale
    resid = r.series.values - r.states @ r.oracle.H.T
    assert 0.01 < resid.std() < 0.3
