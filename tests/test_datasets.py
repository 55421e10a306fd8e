import numpy as np
import pytest

from samecluster.datasets import DatasetError, DatasetSpec, load, write_csv
from samecluster.synthgen import SynthConfig, generate


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoad:
    def test_two_point_standardization(self, tmp_path):
        p = write(tmp_path, "0,a\n2,a\n")
        ps, mapping = load(DatasetSpec(p))
        np.testing.assert_allclose(ps.points.ravel(), [-1.0, 1.0])
        assert mapping == {"a": 1}

    def test_zero_column_dropped(self, tmp_path):
        p = write(tmp_path, "0,1,x\n0,2,x\n0,3,y\n")
        ps, _ = load(DatasetSpec(p))
        assert ps.points.shape == (3, 1)

    @pytest.mark.parametrize("n", [10, 1000, 12345])
    def test_constant_column_with_inexact_mean_dropped(self, tmp_path, n):
        # A column of 0.1 has a float mean that is not 0.1, hence a tiny
        # std; it is still constant, and is dropped.
        x = np.round(np.random.default_rng(n).normal(size=n), 6)
        p = write(tmp_path, "".join(f"{v:.6f},0.1,{1 + i % 2}\n" for i, v in enumerate(x)))
        ps, _ = load(DatasetSpec(p))
        assert ps.points.shape == (n, 1)
        np.testing.assert_allclose(ps.points[:, 0], (x - x.mean()) / x.std(),
                                   rtol=1e-12, atol=1e-12)

    def test_dense_label_ids_first_occurrence(self, tmp_path):
        p = write(tmp_path, "1.0,A\n2.0,B\n3.0,A\n")
        ps, mapping = load(DatasetSpec(p))
        assert mapping == {"A": 1, "B": 2}
        np.testing.assert_array_equal(ps.labels, [1, 2, 1])

    def test_normalized_moments(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(loc=3.0, scale=2.5, size=(200, 4))
        labs = rng.integers(1, 4, size=200)
        p = tmp_path / "gen.csv"
        write_csv(p, pts, labs)
        ps, _ = load(DatasetSpec(p))
        assert np.abs(ps.points.mean(axis=0)).max() < 1e-9
        assert np.abs(ps.points.std(axis=0) - 1.0).max() < 1e-9

    def test_counts_preserved(self, tmp_path):
        pts, _ = generate(SynthConfig(n=300, K=4, d=3, seed=2))
        p = tmp_path / "synth.csv"
        write_csv(p, pts.points, pts.labels)
        ps, _ = load(DatasetSpec(p, normalize=False))
        assert len(ps) == 300
        np.testing.assert_array_equal(np.bincount(ps.labels), np.bincount(pts.labels))

    def test_unnormalized_round_trip(self, tmp_path):
        pts, _ = generate(SynthConfig(n=120, K=3, d=5, seed=4))
        p = tmp_path / "rt.csv"
        write_csv(p, pts.points, pts.labels)
        ps, _ = load(DatasetSpec(p, normalize=False))
        np.testing.assert_array_equal(ps.points, pts.points)

    def test_header_and_named_label_column(self, tmp_path):
        p = write(tmp_path, "f0,cls,f1\n1,a,9\n2,b,8\n3,a,7\n")
        ps, mapping = load(DatasetSpec(p, label_column="cls", has_header=True))
        assert ps.points.shape == (3, 2)
        assert mapping == {"a": 1, "b": 2}

    def test_bad_row_reports_line(self, tmp_path):
        p = write(tmp_path, "1,a\nnope,b\n")
        with pytest.raises(DatasetError, match=":2"):
            load(DatasetSpec(p))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        # Its column's std would be NaN, and the column dropped as constant.
        p = write(tmp_path, f"0,1,a\n1,{value},a\n5,2,b\n6,inf,b\n")
        with pytest.raises(DatasetError, match=rf"data\.csv:2: non-finite numeric value \({value}\)"):
            load(DatasetSpec(p))

    def test_all_constant_rejected(self, tmp_path):
        p = write(tmp_path, "5,a\n5,b\n")
        with pytest.raises(DatasetError, match="constant"):
            load(DatasetSpec(p))

    def test_ragged_row_rejected(self, tmp_path):
        p = write(tmp_path, "1,2,a\n1,b\n")
        with pytest.raises(DatasetError, match="expected 3 fields"):
            load(DatasetSpec(p))

    def test_errors_cite_the_file_line(self, tmp_path):
        # Blank lines and a header still count as lines of the file.
        p = write(tmp_path, "1,a\n\n\nnope,b\n")
        with pytest.raises(DatasetError, match=r"data\.csv:4:"):
            load(DatasetSpec(p))
        p = write(tmp_path, "f,cls\n\n1,a\n\n2,3,b\n")
        with pytest.raises(DatasetError, match=r"data\.csv:5: expected 2 fields"):
            load(DatasetSpec(p, has_header=True))

    @pytest.mark.parametrize("column", [3, 5, -4, -7])
    def test_label_column_outside_the_row_rejected(self, tmp_path, column):
        p = write(tmp_path, "1,2,a\n3,4,b\n")
        with pytest.raises(DatasetError, match="outside a 3-field row"):
            load(DatasetSpec(p, label_column=column))

    @pytest.mark.parametrize("column", [1, -2])
    def test_label_column_inside_the_row(self, tmp_path, column):
        p = write(tmp_path, "1,a,2\n3,b,5\n4,a,7\n")
        ps, mapping = load(DatasetSpec(p, label_column=column))
        assert mapping == {"a": 1, "b": 2}
        np.testing.assert_array_equal(ps.labels, [1, 2, 1])
