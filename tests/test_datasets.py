"""Bundle IO, SBM generation and node splits."""

import math

import numpy as np
import pytest

from graphclean import datasets
from graphclean.datasets import (
    BundleFormatError,
    Dataset,
    SbmParams,
    Split,
    check_fractions,
    generate_sbm,
    load_bundle,
    load_splits,
    save_bundle,
    split_nodes,
)
from graphclean.operators import WeightVector, pair_count, pair_index
from graphclean.rng import SplitMix64


def loop_features(lines):
    """Oracle: features.csv parsed value by value with float(), each row
    checked for non-finite values as it is parsed, raising what load_bundle
    raises."""
    rows = []
    dim = None
    for ln, line in enumerate(lines, start=1):
        parts = line.split(",")
        if dim is None:
            dim = len(parts)
        elif len(parts) != dim:
            raise BundleFormatError(
                f"features.csv row {ln}: expected {dim} fields, got {len(parts)}")
        row = []
        for text in parts:
            try:
                row.append(float(text))
            except ValueError:
                raise BundleFormatError(
                    f"features.csv row {ln}: not a decimal number: {text!r}") from None
        if not all(math.isfinite(x) for x in row):
            raise BundleFormatError(f"features.csv row {ln}: non-finite feature value")
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


def rewrite_edges(bundle, rows):
    (bundle / "edges.csv").write_text(
        "src,dst,weight\n" + "".join(r + "\n" for r in rows), encoding="utf-8")


class TestLoadBundle:
    def test_round_trip_identity(self, tmp_path, small_dataset, bundle_dir):
        loaded = load_bundle(bundle_dir)
        save_bundle(loaded, tmp_path / "again")
        reloaded = load_bundle(tmp_path / "again")
        np.testing.assert_array_equal(loaded.features, reloaded.features)
        np.testing.assert_array_equal(loaded.labels, reloaded.labels)
        np.testing.assert_array_equal(loaded.graph.values, reloaded.graph.values)
        assert loaded.num_classes == reloaded.num_classes

    @pytest.mark.parametrize("threshold", [-1.0, -1e-300, math.nan, math.inf])
    def test_save_refuses_a_threshold_that_writes_what_load_refuses(
            self, tmp_path, small_dataset, threshold):
        with pytest.raises(ValueError, match="weight threshold must be finite and >= 0"):
            save_bundle(small_dataset, tmp_path / "out", weight_threshold=threshold)
        assert not (tmp_path / "out").exists()

    def test_loads_expected_stats(self, bundle_dir):
        ds = load_bundle(bundle_dir)
        assert ds.n == 6
        assert ds.feature_dim == 2
        assert ds.num_classes == 2
        assert ds.graph.edge_count == 7

    def test_missing_file(self, bundle_dir):
        (bundle_dir / "labels.csv").unlink()
        with pytest.raises(BundleFormatError, match="labels.csv"):
            load_bundle(bundle_dir)

    def test_self_loop_reports_row(self, bundle_dir):
        rewrite_edges(bundle_dir, ["0,1,1.0", "5,5,1.0"])
        with pytest.raises(BundleFormatError, match="row 3.*self-loop"):
            load_bundle(bundle_dir)

    def test_duplicate_edge_reports_row(self, bundle_dir):
        rewrite_edges(bundle_dir, ["0,1,1.0", "0,1,2.0"])
        with pytest.raises(BundleFormatError, match="row 3.*duplicate"):
            load_bundle(bundle_dir)

    def test_endpoint_out_of_range(self, bundle_dir):
        rewrite_edges(bundle_dir, ["0,9,1.0"])
        with pytest.raises(BundleFormatError, match="row 2.*out of range"):
            load_bundle(bundle_dir)

    def test_reversed_endpoints_rejected(self, bundle_dir):
        rewrite_edges(bundle_dir, ["3,1,1.0"])
        with pytest.raises(BundleFormatError, match="row 2.*src < dst"):
            load_bundle(bundle_dir)

    def test_malformed_weight(self, bundle_dir):
        rewrite_edges(bundle_dir, ["0,1,heavy"])
        with pytest.raises(BundleFormatError, match="row 2"):
            load_bundle(bundle_dir)

    def test_nonpositive_weight(self, bundle_dir):
        rewrite_edges(bundle_dir, ["0,1,0.0"])
        with pytest.raises(BundleFormatError, match="row 2.*> 0"):
            load_bundle(bundle_dir)

    def test_label_missing_node(self, bundle_dir):
        (bundle_dir / "labels.csv").write_text(
            "node,label\n0,0\n1,0\n2,0\n3,1\n4,1\n", encoding="utf-8")
        with pytest.raises(BundleFormatError, match="no label"):
            load_bundle(bundle_dir)

    def test_label_twice_reports_row(self, bundle_dir):
        (bundle_dir / "labels.csv").write_text(
            "node,label\n0,0\n1,0\n2,0\n1,1\n4,1\n5,1\n", encoding="utf-8")
        with pytest.raises(BundleFormatError, match="^labels.csv row 5: node 1 labeled twice$"):
            load_bundle(bundle_dir)

    def test_ragged_features(self, bundle_dir):
        (bundle_dir / "features.csv").write_text(
            "1.0,2.0\n3.0\n" + "0.0,0.0\n" * 4, encoding="utf-8")
        with pytest.raises(BundleFormatError, match="features.csv row 2"):
            load_bundle(bundle_dir)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_row(self, tmp_path, value):
        params = SbmParams(nodes_per_block=150, blocks=2, p_in=0.05, p_out=0.005,
                           feature_dim=4, feature_signal=1.0, feature_noise=0.5)
        bundle = tmp_path / "bundle"
        save_bundle(generate_sbm(params, 17), bundle)
        lines = (bundle / "features.csv").read_text(encoding="utf-8").split("\n")
        cells = lines[216].split(",")
        cells[2] = value
        lines[216] = ",".join(cells)
        (bundle / "features.csv").write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(BundleFormatError, match="features.csv row 217: non-finite"):
            load_bundle(bundle)

    @pytest.mark.parametrize("seed, dim, signal", [(1, 4, 1.0), (2, 3, 3.5), (3, 30, 0.0)])
    def test_features_match_loop_parse(self, tmp_path, seed, dim, signal):
        params = SbmParams(nodes_per_block=40, blocks=3, p_in=0.1, p_out=0.01,
                           feature_dim=dim, feature_signal=signal, feature_noise=0.7)
        save_bundle(generate_sbm(params, seed), tmp_path)
        lines = (tmp_path / "features.csv").read_text(encoding="utf-8").split("\n")[:-1]
        loaded = load_bundle(tmp_path).features
        assert loaded.tobytes() == loop_features(lines).tobytes()

    @pytest.mark.parametrize("text", [
        "1,0\n0,1\n1e-3,-0\n 2.5 ,\t+7\n.5,1.\n1E300,-2.2250738585072014e-308",
        "0.1\n0.2\n0.30000000000000004",
        "1_0,2\n3,4",  # float() reads 1_0 as 10.0; loadtxt refuses it
        "1,2\n3,\u0664",
        # 0/1 texts that the byte read hands on to loadtxt
        "0,1\r\n1,0\r\n0,0",
        "1.0,0\n0,1",
        " 1,0\n0,1",
        "01,0\n1,0",
        "2,0\n1,0",
    ], ids=["syntax", "one-column", "underscore", "arabic-indic-digit",
            "binary-crlf", "binary-1.0", "binary-space", "binary-01", "binary-2"])
    def test_accepted_syntax_matches_loop_parse(self, bundle_dir, text):
        (bundle_dir / "features.csv").write_text(text + "\n", encoding="utf-8")
        (bundle_dir / "labels.csv").write_text(
            "node,label\n" + "".join(f"{i},0\n" for i in range(text.count("\n") + 1)),
            encoding="utf-8")
        rewrite_edges(bundle_dir, [])
        loaded = load_bundle(bundle_dir).features
        assert loaded.tobytes() == loop_features(text.split("\n")).tobytes()

    @pytest.mark.parametrize("text", [
        "1.0,2.0\n3.0\n" + "0.0,0.0\n" * 4,
        "1.0,2.0\n3.0,x\n" + "0.0,0.0\n" * 4,
        "1.0,2.0\n3.0,\n" + "0.0,0.0\n" * 4,
        "1.0,2.0\n\n" + "0.0,0.0\n" * 4,
        "1.0\n\n" + "0.0\n" * 4,
        "\n" * 6,
        "1.0,2.0\n3.0,4.0 # note\n" + "0.0,0.0\n" * 4,
        "1.0,2.0\n#3.0,4.0\n" + "0.0,0.0\n" * 4,
        "1.0,2.0\n3.0,4.0\n" + "0.0,nan\n" * 4,
        "1.0,2.0\n3.0,1e999\n" + "0.0,0.0\n" * 4,
        "1.0,2.0\n0x1p3,4.0\n" + "0.0,0.0\n" * 4,
        # 0/1 texts that the byte read hands on to loadtxt and the row loop
        "0,1,\n1,0,\n",
        "0,1\n\n1,0\n",
        "0,1\n1,0,1\n",
        "\ufeff0,1\n1,0\n",
    ], ids=["ragged", "word", "empty-value", "blank-line", "blank-line-one-column",
            "only-blank-lines", "comment", "comment-line", "nan",
            "overflow", "hex", "binary-trailing-comma", "binary-blank-line",
            "binary-ragged", "binary-bom"])
    def test_bad_features_give_the_loop_parse_message(self, bundle_dir, text):
        (bundle_dir / "features.csv").write_text(text, encoding="utf-8")
        lines = text.split("\n")[:-1]
        with pytest.raises(BundleFormatError) as expected:
            loop_features(lines)
        with pytest.raises(BundleFormatError) as raised:
            load_bundle(bundle_dir)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("data", [
        b"0,1\r\n1,0\r\n", b"0,1\n1,0", b"0,1,\n1,0,\n", b"1.0,0\n0,1\n",
        b" 1,0\n0,1\n", b"01,0\n1,0\n", b"2,0\n1,0\n", b"0,1\n\n1,0\n", b"0,1\n",
        b"1\n", b"0,1\n1,0,1\n", b"0,1\n1\n", b"\xef\xbb\xbf0,1\n1,0\n", b"",
        b"\n\n", b"0;1\n1;0\n", b"0,1\n1,0\r",
    ], ids=["crlf", "no-final-newline", "trailing-comma", "1.0", "space", "01", "2",
            "blank-line", "single-row", "single-row-one-column", "long-row",
            "short-row", "bom", "empty", "only-blank-lines", "semicolon",
            "lone-cr"])
    def test_byte_read_hands_on_any_other_text(self, data):
        assert datasets._binary_features(data) is None

    @pytest.mark.parametrize("text", ["0,1\n", "1\n", "1"])
    def test_single_binary_row_needs_two_nodes(self, bundle_dir, text):
        (bundle_dir / "features.csv").write_text(text, encoding="utf-8")
        with pytest.raises(BundleFormatError,
                           match="^features.csv: need at least 2 nodes, got 1$"):
            load_bundle(bundle_dir)

    def test_binary_text_without_final_newline_matches_loop_parse(self, bundle_dir):
        text = "0,1,1\n1,0,0\n0,0,1"
        (bundle_dir / "features.csv").write_text(text, encoding="utf-8")
        (bundle_dir / "labels.csv").write_text("node,label\n0,0\n1,0\n2,1\n",
                                               encoding="utf-8")
        rewrite_edges(bundle_dir, [])
        loaded = load_bundle(bundle_dir).features
        assert loaded.tobytes() == loop_features(text.split("\n")).tobytes()

    @pytest.mark.parametrize("n, d, ones", [(2, 1, 0.5), (7, 1, 0.5), (40, 30, 0.1),
                                            (25, 300, 0.02)])
    def test_byte_read_matches_loop_parse(self, tmp_path, monkeypatch, n, d, ones):
        """A bare 0/1 file, as Planetoid exports and the benchmark writes,
        is read from its bytes and never reaches np.loadtxt."""
        X = (SplitMix64(n * d).uniforms(n * d).reshape(n, d) < ones).astype(np.float64)
        text = "".join(",".join("01"[int(x)] for x in row) + "\n" for row in X)
        assert datasets._binary_features(text.encode()) is not None
        (tmp_path / "features.csv").write_text(text, encoding="utf-8")
        (tmp_path / "labels.csv").write_text(
            "node,label\n" + "".join(f"{i},0\n" for i in range(n)), encoding="utf-8")
        rewrite_edges(tmp_path, ["0,1,1.0"])
        loadtxt = np.loadtxt
        read = []

        def spy(rows, *args, **kwargs):
            read.append(list(rows))
            return loadtxt(rows, *args, **kwargs)
        monkeypatch.setattr(np, "loadtxt", spy)
        loaded = load_bundle(tmp_path).features
        assert loaded.tobytes() == loop_features(text.split("\n")[:-1]).tobytes()
        np.testing.assert_array_equal(loaded, X)
        # loadtxt reads the labels and edges only
        assert read == [[f"{i},0" for i in range(n)], ["0,1,1.0"]]

    @pytest.mark.parametrize("negative_zero", [False, True])
    def test_saved_binary_features_take_the_byte_read(self, tmp_path, negative_zero):
        """save_bundle writes 0/1 features as bare digits, which load_bundle
        reads from their bytes; a -0.0 keeps repr, so it reloads bit for bit."""
        n, d = 40, 30
        X = (SplitMix64(95).uniforms(n * d).reshape(n, d) < 0.1).astype(np.float64)
        X[0, np.flatnonzero(X[0] == 0.0)[0]] = -0.0 if negative_zero else 0.0
        save_bundle(Dataset(features=X, labels=np.zeros(n, dtype=np.int64),
                            graph=WeightVector(n=n, values=np.ones(pair_count(n))),
                            num_classes=1), tmp_path)
        data = (tmp_path / "features.csv").read_bytes()
        assert (datasets._binary_features(data) is None) == negative_zero
        assert load_bundle(tmp_path).features.tobytes() == X.tobytes()

    def test_plain_labels_and_edges_skip_the_row_loop(self, tmp_path, monkeypatch):
        """loadtxt reads the ids through int() and the weights, and they are
        checked as arrays; the row loop's parser is never called."""
        params = SbmParams(nodes_per_block=30, blocks=3, p_in=0.2, p_out=0.02)
        expected = generate_sbm(params, 5)
        save_bundle(expected, tmp_path)

        def refuse(line, kinds):
            raise AssertionError(f"row loop reached at {line!r}")
        monkeypatch.setattr(datasets, "_row", refuse)
        loaded = load_bundle(tmp_path)
        np.testing.assert_array_equal(loaded.labels, expected.labels)
        assert loaded.graph.values.tobytes() == expected.graph.values.tobytes()

    @pytest.mark.parametrize("name, rows, message", [
        ("labels.csv", ["0,0", "1,0", "2.0,1", "3,1", "4,1", "5,1"],
         "labels.csv row 4: not an integer: '2.0'"),
        ("labels.csv", ["0,0", "1,0", "2,1e0", "3,1", "4,1", "5,1"],
         "labels.csv row 4: not an integer: '1e0'"),
        ("edges.csv", ["0,1,1.0", "1e0,2,1.0"], "edges.csv row 3: not an integer: '1e0'"),
        ("edges.csv", ["0,1,1.0", "1,2.,1.0"], "edges.csv row 3: not an integer: '2.'"),
        ("edges.csv", ["0,1,1.0", "1,2,1.0", "1,2,"], "edges.csv row 4: not a decimal"),
        ("labels.csv", ["0,0\r1,0", "2,0", "3,1", "4,1", "5,1"],
         "labels.csv row 2: expected 2 fields"),
        ("edges.csv", ["0,1,1.0\r2,3,1.0", "1,2,1.0"], "edges.csv row 2: expected 3 fields"),
        ("labels.csv", ["0,0", "", "1,0", "2,0", "3,1", "4,1", "5,1"],
         "labels.csv row 3: expected 2 fields"),
        ("edges.csv", ["0,1,1.0", "", "1,2,1.0"], "edges.csv row 3: expected 3 fields"),
        ("edges.csv", ["0,1,1.0", "-1,2,1.0"], r"edges.csv row 3: endpoint out of range \(n=6\)"),
        ("edges.csv", ["0,1,1.0", "1,2,inf"], "edges.csv row 3: weight must be > 0, got inf"),
        ("edges.csv", ["0,1,nan", "1,2,1.0"], "edges.csv row 2: weight must be > 0, got nan"),
        ("edges.csv", ["0,1,1.0", f"{10**400},2,1.0"],
         f"edges.csv row 3: require src < dst, got {10**400},2$"),
        # float64 rounds each pair of ids alike
        ("edges.csv", ["0,1,1.0", "1152921504606846977,1152921504606846976,1.0"],
         "edges.csv row 3: require src < dst, got 1152921504606846977,1152921504606846976$"),
        ("edges.csv", ["0,1,1.0", f"{2**60},{2**60 + 1},1.0"],
         r"edges.csv row 3: endpoint out of range \(n=6\)$"),
        ("edges.csv", ["0,1,1.0", f"{2**53},{2**53 + 1},1.0"],
         r"edges.csv row 3: endpoint out of range \(n=6\)$"),
        ("edges.csv", ["0,1,1.0", f"-{2**60 + 1},-{2**60},1.0"],
         r"edges.csv row 3: endpoint out of range \(n=6\)$"),
        ("labels.csv", ["0,0", "1,0", f"{2**60 + 1},1", f"{2**60},1", "4,1", "5,1"],
         f"labels.csv row 4: node {2**60 + 1} out of range$"),
    ], ids=["label-node-2.0", "label-1e0", "edge-1e0", "edge-2.", "edge-no-weight",
            "label-lone-cr", "edge-lone-cr", "label-blank-row", "edge-blank-row",
            "edge-negative-src", "edge-inf-weight", "edge-nan-weight", "edge-beyond-float64",
            "edge-beyond-2**53-descending", "edge-beyond-2**53-ascending",
            "edge-at-2**53", "edge-below-minus-2**53", "label-beyond-2**53"])
    def test_rows_the_array_parse_refuses_name_the_row(self, bundle_dir, name, rows, message):
        """A float reads 2.0 and 1e0 as whole numbers, where int() refuses
        them; a lone CR stays inside its row."""
        header = {"labels.csv": "node,label", "edges.csv": "src,dst,weight"}[name]
        (bundle_dir / name).write_text(
            header + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(BundleFormatError, match=f"^{message}"):
            load_bundle(bundle_dir)

    @pytest.mark.parametrize("name, text, message", [
        ("labels.csv", "node,label\n0,0\n9,0\n2,0\nx,1\n4,1\n5,1\n",
         "labels.csv row 3: node 9 out of range"),
        ("edges.csv", "src,dst,weight\n0,1,1.0\n0,1,2.0\n1,2,1.0\n\n",
         "edges.csv row 3: duplicate edge 0,1"),
        ("features.csv", "1.0,2.0\nnan,4.0\n0.0,0.0\nx,0.0\n0.0,0.0\n0.0,0.0\n",
         "features.csv row 2: non-finite feature value"),
    ], ids=["labels", "edges", "features"])
    def test_first_bad_row_wins(self, bundle_dir, name, text, message):
        """A row that fails a check comes before a later row that does not
        parse, and the error names the earlier one."""
        (bundle_dir / name).write_text(text, encoding="utf-8")
        with pytest.raises(BundleFormatError, match=f"^{message}$"):
            load_bundle(bundle_dir)

    @pytest.mark.parametrize("label_rows, edge_rows", [
        (["0,1", " 1,0", "+2,1", "3 ,0", "4,0_1"], ["0,1,1.0"]),
        (["0,1", "1,0", "2,1", "3,0", "4,\u0661"], ["0,1,1.0"]),
        (["0,1", "1,0", "2,1", "3,0", "4,1"], [" 0,1,1.0", "1,+2, 2.5 ", "2,3,1_0"]),
        (["0,1", "1,0", "2,1", "3,0", "4,1"], ["0,1,1e-3", "0,4,\u0663", "3,4,1\r"]),
        (["0,1", "1,0", "2,1", "3,0", "4,1"], ["0,1,1.0", "1,2,.5", "000003,4,2."]),
    ], ids=["label-syntax", "label-digit", "edge-syntax", "weight-syntax", "zeros"])
    def test_labels_and_edges_accept_what_int_and_float_accept(
            self, tmp_path, label_rows, edge_rows):
        """Whatever the array parse hands on, the row loop reads as int() and
        float() do."""
        (tmp_path / "features.csv").write_text("0,1\n1,0\n0,0\n1,1\n0,1\n",
                                               encoding="utf-8")
        (tmp_path / "labels.csv").write_text(
            "node,label\n" + "".join(r + "\n" for r in label_rows), encoding="utf-8")
        rewrite_edges(tmp_path, edge_rows)
        loaded = load_bundle(tmp_path)
        expected_labels = np.zeros(5, dtype=np.int64)
        for row in label_rows:
            node, label = row.split(",")
            expected_labels[int(node)] = int(label)
        expected_weights = np.zeros(pair_count(5))
        for row in edge_rows:
            u, v, w = row.split(",")
            k = pair_index(int(v) + 1, int(u) + 1, 5)
            expected_weights[k - 1] = float(w)
        np.testing.assert_array_equal(loaded.labels, expected_labels)
        assert loaded.graph.values.tobytes() == expected_weights.tobytes()

    def test_splits_json_round_trip(self, bundle_dir, small_dataset):
        split = Split(train=np.array([0, 3]), val=np.array([1, 4]),
                      test=np.array([2, 5]))
        save_bundle(small_dataset, bundle_dir, split=split)
        loaded = load_splits(bundle_dir, 6)
        np.testing.assert_array_equal(loaded.train, [0, 3])
        np.testing.assert_array_equal(loaded.test, [2, 5])

    def test_splits_absent_returns_none(self, bundle_dir):
        assert load_splits(bundle_dir, 6) is None

    @pytest.mark.parametrize("text, message", [
        ('{"train": [0, 1], "val": [2]', "invalid JSON"),
        ('[[0, 1], [2], [3]]', "expected an object"),
        ('{"train": [0, 1], "val": [1], "test": [3]}', "split parts must be .* disjoint"),
        ('{"train": [0, 1.7], "val": [2], "test": [3]}', "train must be .* integer node ids"),
        ('{"train": [0, 1], "val": [2], "test": [99999999999999999999]}', "Python int too large"),
        ('{"train": [0, 1], "val": [2], "test": [\xff]}', "invalid JSON: 'utf-8' codec"),
    ], ids=["invalid-json", "top-level-list", "overlapping-parts", "non-integer-id",
            "id-beyond-int64", "not-utf8"])
    def test_bad_splits_name_the_file(self, bundle_dir, text, message):
        # Latin-1 writes the ASCII cases as UTF-8 would, and "\xff" as the byte 0xff
        (bundle_dir / "splits.json").write_text(text, encoding="latin-1")
        with pytest.raises(BundleFormatError, match=f"splits.json: {message}"):
            load_splits(bundle_dir, 6)

    def test_splits_out_of_range_rejected(self, bundle_dir):
        (bundle_dir / "splits.json").write_text(
            '{"train": [0, 1], "val": [2], "test": [99]}', encoding="utf-8")
        with pytest.raises(ValueError, match="references node"):
            load_splits(bundle_dir, 6)

    @pytest.mark.parametrize("label", [6, 10**12, 10**20, pytest.param(10**400, id="10**400"),
                                       -1])
    def test_label_out_of_range_reports_row(self, bundle_dir, label):
        # a label >= n would mean more classes than the bundle's 6 nodes
        (bundle_dir / "labels.csv").write_text(
            f"node,label\n0,0\n1,0\n2,{label}\n3,1\n4,1\n5,1\n", encoding="utf-8")
        with pytest.raises(BundleFormatError,
                           match=rf"labels.csv row 4: label {label} outside \[0, 6\)"):
            load_bundle(bundle_dir)

    def test_crlf_bundle_loads_the_same_values(self, bundle_dir):
        expected = load_bundle(bundle_dir)
        for name in ("features.csv", "labels.csv", "edges.csv"):
            path = bundle_dir / name
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        loaded = load_bundle(bundle_dir)
        assert loaded.features.tobytes() == expected.features.tobytes()
        np.testing.assert_array_equal(loaded.labels, expected.labels)
        assert loaded.graph.values.tobytes() == expected.graph.values.tobytes()

    def test_lone_carriage_return_is_not_a_row_break(self, bundle_dir):
        # one column: read as a row break, "1\r2" would become two nodes
        (bundle_dir / "features.csv").write_bytes(b"1\r2\n" + b"0\n" * 5)
        with pytest.raises(BundleFormatError,
                           match=r"features.csv row 1: not a decimal number: '1\\r2'"):
            load_bundle(bundle_dir)

    @pytest.mark.parametrize("name, row", [("features.csv", 2), ("labels.csv", 0),
                                           ("edges.csv", 4)])
    def test_non_utf8_reports_row(self, bundle_dir, name, row):
        lines = (bundle_dir / name).read_bytes().split(b"\n")
        lines[row] += b"\xff"
        (bundle_dir / name).write_bytes(b"\n".join(lines))
        with pytest.raises(BundleFormatError, match=f"{name} row {row + 1}: not UTF-8 text"):
            load_bundle(bundle_dir)


def loop_sbm(params, seed):
    """Oracle: the SBM sampler one scalar draw at a time, pair Bernoullis in
    canonical pair order, then feature noise row by row."""
    n = params.nodes_per_block * params.blocks
    labels = np.arange(n, dtype=np.int64) // params.nodes_per_block
    rng = SplitMix64(seed)
    rows, cols = np.triu_indices(n, 1)
    values = np.zeros(pair_count(n), dtype=np.float64)
    for k in range(values.shape[0]):
        prob = params.p_in if labels[rows[k]] == labels[cols[k]] else params.p_out
        if rng.uniform() < prob:
            values[k] = 1.0
    features = np.zeros((n, params.feature_dim), dtype=np.float64)
    features[np.arange(n), labels] = params.feature_signal
    scale = 2.0 * params.feature_noise
    for i in range(n):
        for m in range(params.feature_dim):
            features[i, m] += scale * (rng.uniform() - 0.5)
    return Dataset(features=features, labels=labels,
                   graph=WeightVector(n=n, values=values), num_classes=params.blocks)


class TestGenerateSbm:
    def params(self, **overrides):
        base = dict(nodes_per_block=50, blocks=2, p_in=0.2, p_out=0.0,
                    feature_dim=4, feature_signal=2.0, feature_noise=0.5)
        base.update(overrides)
        return SbmParams(**base)

    def test_no_inter_edges_when_p_out_zero(self):
        ds = generate_sbm(self.params(), seed=1)
        rows, cols = np.triu_indices(ds.n, 1)
        cross = ds.labels[rows] != ds.labels[cols]
        assert np.all(ds.graph.values[cross] == 0.0)

    def test_complete_blocks_when_p_in_one(self):
        ds = generate_sbm(self.params(p_in=1.0), seed=2)
        rows, cols = np.triu_indices(ds.n, 1)
        intra = ds.labels[rows] == ds.labels[cols]
        # each 50-clique holds C(50,2) = 1225 edges
        assert int(np.count_nonzero(ds.graph.values[intra])) == 2 * 1225

    def test_intra_count_within_3_sigma(self):
        # Binomial(2450, 0.2): mean 490, sigma = sqrt(2450*0.2*0.8) ~= 19.8
        ds = generate_sbm(self.params(p_out=0.01), seed=3)
        rows, cols = np.triu_indices(ds.n, 1)
        intra = ds.labels[rows] == ds.labels[cols]
        count = int(np.count_nonzero(ds.graph.values[intra]))
        assert abs(count - 490) <= 3 * math.sqrt(2450 * 0.2 * 0.8)

    def test_labels_exactly_block_sized(self):
        ds = generate_sbm(self.params(nodes_per_block=17, blocks=3), seed=4)
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.tolist() == [17, 17, 17]

    def test_deterministic(self):
        a = generate_sbm(self.params(p_out=0.01), seed=5)
        b = generate_sbm(self.params(p_out=0.01), seed=5)
        np.testing.assert_array_equal(a.graph.values, b.graph.values)
        np.testing.assert_array_equal(a.features, b.features)

    @pytest.mark.parametrize("seed,overrides", [
        (0, {}),
        (5, {"p_out": 0.01}),
        (2**64 - 1, {"nodes_per_block": 17, "blocks": 3, "p_out": 0.05}),
        (123, {"feature_noise": 1.7, "feature_dim": 6}),
    ])
    def test_matches_scalar_loop(self, seed, overrides):
        params = self.params(**overrides)
        fast, slow = generate_sbm(params, seed), loop_sbm(params, seed)
        np.testing.assert_array_equal(fast.graph.values, slow.graph.values)
        np.testing.assert_array_equal(fast.features, slow.features)
        np.testing.assert_array_equal(fast.labels, slow.labels)

    def test_feature_centroids(self):
        ds = generate_sbm(self.params(feature_noise=0.0), seed=6)
        assert ds.features[0, 0] == 2.0
        assert ds.features[-1, 1] == 2.0
        assert ds.features[0, 1] == 0.0

    def test_degenerate_params_rejected(self):
        with pytest.raises(ValueError):
            SbmParams(nodes_per_block=0, blocks=2, p_in=0.5, p_out=0.1,
                      feature_dim=4, feature_signal=1.0, feature_noise=0.1)
        with pytest.raises(ValueError):
            self.params(p_in=0.1, p_out=0.5)


class TestSplitNodes:
    def test_exact_fractions(self):
        split = split_nodes(100, (0.8, 0.1, 0.1), seed=0)
        assert (split.train.size, split.val.size, split.test.size) == (80, 10, 10)
        combined = np.concatenate([split.train, split.val, split.test])
        assert np.unique(combined).size == 100

    def test_all_train(self):
        split = split_nodes(10, (1.0, 0.0, 0.0), seed=1)
        np.testing.assert_array_equal(split.train, np.arange(10))
        assert split.val.size == 0 and split.test.size == 0

    def test_deterministic(self):
        a = split_nodes(57, (0.6, 0.2, 0.2), seed=12)
        b = split_nodes(57, (0.6, 0.2, 0.2), seed=12)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.val, b.val)
        np.testing.assert_array_equal(a.test, b.test)

    def test_fraction_sum_above_one_rejected(self):
        with pytest.raises(ValueError):
            split_nodes(10, (0.8, 0.3, 0.1), seed=0)

    @pytest.mark.parametrize("fractions, message", [
        ((-0.1, 0.5, 0.5), "non-negative"),
        ((float("nan"), 0.5, 0.5), "non-negative"),
        ((0.5, 0.5), r"\(train, val, test\)"),
    ])
    def test_check_fractions_refuses(self, fractions, message):
        with pytest.raises(ValueError, match=message):
            check_fractions(fractions)
        with pytest.raises(ValueError, match=message):
            split_nodes(10, fractions, seed=0)

    def test_largest_remainder_rule(self):
        # recompute the documented rule independently for random inputs
        fracs = [(0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (0.33, 0.33, 0.33),
                 (0.7, 0.15, 0.1), (1.0, 0.0, 0.0)]
        for n in (7, 10, 57, 100):
            for f in fracs:
                split = split_nodes(n, f, seed=3)
                ideals = [n * x for x in f]
                sizes = [math.floor(x) for x in ideals]
                total = math.floor(n * sum(f) + 0.5)
                order = sorted(range(3), key=lambda i: (-(ideals[i] - sizes[i]), i))
                for i in order[:total - sum(sizes)]:
                    sizes[i] += 1
                got = [split.train.size, split.val.size, split.test.size]
                assert got == sizes, (n, f)

    def test_split_disjointness_enforced(self):
        with pytest.raises(ValueError):
            Split(train=np.array([0, 1]), val=np.array([1]), test=np.array([2]))


# the shape each kind takes, and what it keeps of an array of that shape
KEEPERS = {
    "Dataset": ((3, 2), lambda arr: Dataset(
        features=arr, labels=np.zeros(3, dtype=np.int64),
        graph=WeightVector(n=3, values=np.zeros(3)), num_classes=1).features),
    "WeightVector": ((3,), lambda arr: WeightVector(n=3, values=arr).values),
}


class TestDatasetFeatureCopy:
    """Dataset (its features) and WeightVector keep a read-only array that
    owns its data, and copy any array that another name could still write to."""

    @pytest.mark.parametrize("kind", KEEPERS)
    def test_read_only_owning_array_is_kept(self, kind):
        shape, keep = KEEPERS[kind]
        arr = np.ones(shape)
        arr.flags.writeable = False
        assert np.shares_memory(keep(arr), arr)

    @pytest.mark.parametrize("kind", KEEPERS)
    def test_writeable_array_is_copied(self, kind):
        shape, keep = KEEPERS[kind]
        arr = np.ones(shape)
        kept = keep(arr)
        assert not np.shares_memory(kept, arr)
        assert not kept.flags.writeable

    @pytest.mark.parametrize("kind", KEEPERS)
    def test_read_only_view_of_a_writeable_base_is_copied(self, kind):
        shape, keep = KEEPERS[kind]
        base = np.ones(shape)
        view = base[:]
        view.flags.writeable = False
        kept = keep(view)
        assert not np.shares_memory(kept, base)
        base[0] = 5.0
        assert kept.flat[0] == 1.0

    def test_load_bundle_keeps_its_byte_read_features(self, bundle_dir, monkeypatch):
        (bundle_dir / "features.csv").write_text("0,1\n1,0\n" * 3, encoding="utf-8")
        binary_features = datasets._binary_features
        parsed = []

        def parse(data):
            parsed.append(binary_features(data))
            return parsed[-1]
        monkeypatch.setattr(datasets, "_binary_features", parse)
        assert load_bundle(bundle_dir).features is parsed[0]

    def test_load_bundle_keeps_its_parsed_features(self, bundle_dir, monkeypatch):
        table = datasets._table
        parsed = []

        def parse(lines, name, *args):
            parsed.append((name, table(lines, name, *args)))
            return parsed[-1][1]
        monkeypatch.setattr(datasets, "_table", parse)
        features = load_bundle(bundle_dir).features
        assert parsed[0][0] == "features.csv"
        assert features is parsed[0][1]
