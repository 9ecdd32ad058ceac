import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from sdnfilt import io as sdnio
from sdnfilt.filters import Signal
from sdnfilt.graphs import Graph
from sdnfilt.io import (
    IngestError,
    atomic_write_text,
    read_edges_csv,
    read_filter_csv,
    read_points_csv,
    read_signal_csv,
    write_curves_csv,
    write_edges_csv,
    write_points_csv,
    write_roundlog_csv,
    write_summary_json,
)
from sdnfilt.scenarios import ScenarioConfig, run_fig1, run_time_varying
from sdnfilt.sdn import MessageLog, SdnNetwork

from conftest import dense_of, make_invertible, random_connected_graph
from filter_reference import write_filter_csv, write_signal_csv
from roundlog_reference import reference_roundlog_text
from sdn_reference import ReferenceNetwork, run_rounds


class TestPoints:
    def test_round_trip_with_values(self, tmp_path):
        path = str(tmp_path / "points.csv")
        coords = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        values = np.array([1.5, -2.25, 0.125])
        write_points_csv(path, coords, values)
        c2, v2 = read_points_csv(path)
        assert np.array_equal(coords, c2)
        assert np.array_equal(values, v2)

    def test_round_trip_without_values(self, tmp_path):
        path = str(tmp_path / "points.csv")
        coords = np.array([[0.0, 0.0], [1.0, 1.0]])
        write_points_csv(path, coords)
        c2, v2 = read_points_csv(path)
        assert np.array_equal(coords, c2)
        assert v2 is None

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.0,0.0\n")
        with pytest.raises(IngestError, match=":1"):
            read_points_csv(str(path))

    def test_bad_field_reports_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,x,y\n0,0.0,0.0\n1,oops,0.5\n")
        with pytest.raises(IngestError, match=":3"):
            read_points_csv(str(path))

    def test_gap_in_ids(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,x,y\n0,0.0,0.0\n2,1.0,1.0\n")
        with pytest.raises(IngestError, match="no gaps"):
            read_points_csv(str(path))

    @pytest.mark.parametrize("ids, line", [((0, 2), 3), ((0, 1, 1), 4),
                                           ((1, 1, 0), 3), ((2, 0, 1, 0), 5)])
    def test_id_gap_or_repeat_reports_line(self, tmp_path, ids, line):
        path = tmp_path / "p.csv"
        path.write_text("id,x,y\n" + "".join(f"{i},0.5,0.5\n" for i in ids))
        with pytest.raises(IngestError, match=rf"p\.csv:{line}: vertex id"):
            read_points_csv(str(path))

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,x,y\n0,0.0\n")
        with pytest.raises(IngestError, match=":2"):
            read_points_csv(str(path))

    @pytest.mark.parametrize("row", ["1,nan,0.5,1.0", "1,0.5,inf,1.0",
                                     "1,0.5,0.5,-inf"])
    def test_nonfinite_number_reports_line(self, tmp_path, row):
        path = tmp_path / "p.csv"
        path.write_text(f"id,x,y,value\n0,0.0,0.0,1.0\n{row}\n")
        with pytest.raises(IngestError, match=r"p\.csv:3: non-finite"):
            read_points_csv(str(path))


class TestEdges:
    def test_round_trip(self, tmp_path, rng):
        g = random_connected_graph(rng, 12)
        path = str(tmp_path / "edges.csv")
        write_edges_csv(path, g)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "i,j"
        for line in lines[1:]:
            i, j = map(int, line.split(","))
            assert i < j
        n, edges = read_edges_csv(path)
        g2 = Graph.from_edges(n, edges)
        assert g2.adjacency == g.adjacency

    def test_rejects_reversed_edge(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("i,j\n2,1\n")
        with pytest.raises(IngestError, match="i < j"):
            read_edges_csv(str(path))

    def test_rejects_negative_id(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("i,j\n0,1\n-1,1\n")
        with pytest.raises(IngestError, match=r"e\.csv:3: .*0 <= i"):
            read_edges_csv(str(path))


class TestFilterCsv:
    def test_round_trip(self, tmp_path, rng):
        g = random_connected_graph(rng, 15)
        h = make_invertible(rng, g, 2)
        path = str(tmp_path / "filter.csv")
        write_filter_csv(path, h)
        h2 = read_filter_csv(path, g)
        assert np.array_equal(dense_of(h), dense_of(h2))
        assert h2.width == h.width

    def test_header_records_n_and_width(self, tmp_path, rng):
        g = random_connected_graph(rng, 7)
        h = make_invertible(rng, g, 1)
        path = str(tmp_path / "filter.csv")
        write_filter_csv(path, h)
        with open(path) as fh:
            first = fh.readline().strip()
        assert first == f"# n=7 width={h.width}"

    def test_wrong_graph_size(self, tmp_path, rng):
        g = random_connected_graph(rng, 7)
        h = make_invertible(rng, g, 1)
        path = str(tmp_path / "filter.csv")
        write_filter_csv(path, h)
        other = random_connected_graph(rng, 9)
        with pytest.raises(IngestError, match="n=7"):
            read_filter_csv(path, other)

    @pytest.mark.parametrize("row,problem", [
        ("0,1,nan", "non-finite"),
        ("0,3,1.0", "vertex id 3 outside"),
        ("-1,0,1.0", "vertex id -1 outside"),
        ("0,0,0.25", r"duplicate entry \(0, 0\)"),
    ])
    def test_bad_entry_reports_line(self, tmp_path, row, problem):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        path = tmp_path / "f.csv"
        path.write_text(f"# n=3 width=1\ni,j,value\n0,0,1.0\n{row}\n")
        with pytest.raises(IngestError, match=rf"f\.csv:4: {problem}"):
            read_filter_csv(str(path), g)

    def test_header_only_is_the_empty_filter(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("# n=3 width=0\ni,j,value\n")
        h = read_filter_csv(str(path), Graph.from_edges(3, [(0, 1), (1, 2)]))
        assert (h.nnz, h.width) == (0, 0)

    def test_shuffled_lines_read_to_the_same_csr(self, tmp_path, rng):
        g = random_connected_graph(rng, 15)
        path = tmp_path / "f.csv"
        write_filter_csv(str(path), make_invertible(rng, g, 2))
        h = read_filter_csv(str(path), g)
        lines = path.read_text().splitlines()
        body = lines[2:]
        rng.shuffle(body)
        path.write_text("\n".join(lines[:2] + body) + "\n")
        shuffled = read_filter_csv(str(path), g)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(h.csr, name), getattr(shuffled.csr, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert shuffled.width == h.width


class TestSignalCsv:
    def test_round_trip(self, tmp_path, rng):
        g = random_connected_graph(rng, 9)
        x = Signal(g, rng.standard_normal(9))
        path = str(tmp_path / "signal.csv")
        write_signal_csv(path, x)
        x2 = read_signal_csv(path, g)
        assert np.array_equal(x.values, x2.values)

    def test_missing_rows(self, tmp_path, rng):
        g = random_connected_graph(rng, 4)
        path = tmp_path / "s.csv"
        path.write_text("id,value\n0,1.0\n")
        with pytest.raises(IngestError, match="expected 4 rows"):
            read_signal_csv(str(path), g)

    @pytest.mark.parametrize("row,problem", [
        ("1,nan", "non-finite"),
        ("-1,2.0", "vertex id -1 outside"),
        ("2,2.0", "vertex id 2 outside"),
        ("0,2.0", "duplicate vertex id 0"),
    ])
    def test_bad_row_reports_line(self, tmp_path, row, problem):
        g = Graph.from_edges(2, [(0, 1)])
        path = tmp_path / "s.csv"
        path.write_text(f"id,value\n0,1.0\n{row}\n1,3.0\n")
        with pytest.raises(IngestError, match=rf"s\.csv:3: {problem}"):
            read_signal_csv(str(path), g)


class TestRecordLines:
    """Each reader's data lines: a wrong field count is reported with its
    path:line, and of several bad lines the first in the file is, whichever
    check finds it."""

    G = Graph.from_edges(2, [(0, 1)])
    READERS = {"points": read_points_csv, "edges": read_edges_csv,
               "filter": lambda path: read_filter_csv(path, TestRecordLines.G),
               "signal": lambda path: read_signal_csv(path, TestRecordLines.G)}

    @pytest.mark.parametrize("kind,text,line,problem", [
        ("points", "id,x,y,value\n0,0.1,0.2,1.0\n\n1,0.3,0.4\n", 4,
         "expected 4 fields, got 3"),
        ("edges", "i,j\n0,1\n0,1,2\n", 3, "expected 2 fields, got 3"),
        ("filter", "# n=2 width=1\ni,j,value\n0,0,1.0\n0,1\n", 4,
         "expected 3 fields, got 2"),
        ("signal", "id,value\n0\n", 2, "expected 2 fields, got 1"),
        # a line's own check comes before the next line is read
        ("edges", "i,j\n1,0\n0,x\n", 2, "edges must satisfy 0 <= i < j"),
        ("signal", "id,value\n0,1.0\n0,2.0\n1\n", 3, "duplicate vertex id 0"),
        ("filter", "# n=2 width=1\ni,j,value\n0,2,1.0\n0,1\n", 3, "vertex id 2"),
    ])
    def test_first_bad_line_reported(self, tmp_path, kind, text, line, problem):
        path = tmp_path / "r.csv"
        path.write_text(text)
        with pytest.raises(IngestError, match=rf"r\.csv:{line}: {problem}"):
            self.READERS[kind](str(path))


class TestExperimentArtifacts:
    def test_curves_row_count(self, tmp_path):
        path = str(tmp_path / "curves.csv")
        write_curves_csv(path, {"pgda": [1.0, 0.5], "imia": [1.0, 0.25]})
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "method,m,mean_metric"
        assert len(lines) == 1 + 2 * 2

    def test_roundlog_format(self, tmp_path, rng):
        g = random_connected_graph(rng, 6)
        h = make_invertible(rng, g, 1)
        y = Signal(g, rng.standard_normal(6))
        net = SdnNetwork(g, h, y, log_messages=True)
        net.distributed_preconditioner()
        net.run_pgda()
        path = str(tmp_path / "roundlog.csv")
        write_roundlog_csv(path, [net.message_log()])
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "epoch,round,from,to,kind,value"
        assert len(lines) == 1 + net.total_messages()
        kinds = {line.split(",")[4] for line in lines[1:]}
        assert kinds == {"d", "v", "x"}

    def test_roundlog_rows_match_reference(self, tmp_path, rng):
        # the streamed columnar log equals the per-message rows of the
        # dict-loop reference, formatted as one CSV line each
        g = random_connected_graph(rng, 9)
        h = make_invertible(rng, g, 2)
        y = Signal(g, rng.standard_normal(9))
        net, ref = SdnNetwork(g, h, y, epoch=3), ReferenceNetwork(g, h, y)
        for sim in (net, ref):
            sim.distributed_preconditioner()
        run_rounds(net.run_pgda, 2)
        ref.run_pgda(2)
        expected = ["epoch,round,from,to,kind,value"]
        for index, (_, _, messages) in enumerate(ref.rounds):
            expected.extend(
                f"3,{index},{s},{t},{kind},{repr(float(v))}"
                for s, t, kind, v in messages)
        path = tmp_path / "roundlog.csv"
        write_roundlog_csv(str(path), [net.message_log()])
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_summary_json_deterministic(self, tmp_path):
        path = str(tmp_path / "summary.json")
        write_summary_json(path, {"b": 1, "a": [1, 2]})
        text1 = Path(path).read_text()
        write_summary_json(path, {"a": [1, 2], "b": 1})
        assert Path(path).read_text() == text1
        assert json.loads(text1) == {"a": [1, 2], "b": 1}


def _ids(*ids):
    return np.array(ids, dtype=np.int64)


def _log(epoch, senders, receivers, kinds, sent):
    """One network's message log: its pattern, and each round's kind and
    payload."""
    return MessageLog(epoch=epoch, senders=senders, receivers=receivers,
                      kinds=list(kinds), sent=list(sent))


class TestRoundlogWriter:
    """The streamed writer against the per-message reference writer."""

    @staticmethod
    def assert_matches_reference(tmp_path, logs):
        path = tmp_path / "roundlog.csv"
        write_roundlog_csv(str(path), logs)
        assert path.read_bytes() == reference_roundlog_text(logs).encode()

    def test_distributed_fig1_two_networks(self, tmp_path, monkeypatch):
        agg = run_fig1(ScenarioConfig(scenario="fig1", n=64, trials=1, iterations=4,
                                      methods=("pgda", "spgda"), distributed=True,
                                      roundlog=True, master_seed=5))
        # pgda's and spgda's networks: one log each, on one pattern
        pgda, spgda = agg.message_logs
        assert pgda.kinds == ["d"] + ["v", "x"] * 4 and spgda.kinds == ["x"] * 4
        assert np.array_equal(pgda.senders, spgda.senders)
        assert np.array_equal(pgda.receivers, spgda.receivers)
        # each network's sender runs are built once
        calls, real = [], sdnio._sender_runs
        monkeypatch.setattr(sdnio, "_sender_runs",
                            lambda s, t: calls.append(1) or real(s, t))
        self.assert_matches_reference(tmp_path, agg.message_logs)
        assert len(calls) == 2

    def test_time_varying_three_epochs(self, tmp_path):
        agg = run_time_varying(ScenarioConfig(scenario="time_varying", n=48, epochs=3,
                                              iterations=3, master_seed=31,
                                              roundlog=True))
        assert [log.epoch for log in agg.message_logs] == [0, 1, 2]
        self.assert_matches_reference(tmp_path, agg.message_logs)

    def test_hand_built_rounds(self, tmp_path):
        # senders not contiguous, a network that sends no message, and
        # values whose repr is easy to get wrong
        sent = np.array([-0.0, 5e-324, 1.7976931348623157e308])
        logs = [
            _log(0, _ids(0, 1, 0, 2), _ids(1, 0, 2, 0), "x", [sent]),
            _log(0, _ids(), _ids(), "v", [np.array([2.5])]),
            _log(1, _ids(0, 1, 0, 2), _ids(1, 0, 2, 0), "d", [-sent]),
            _log(1, _ids(2, 2, 1), _ids(0, 1, 2), "xd", [sent[::-1].copy(), sent]),
            # same length as the previous pattern, other pairs
            _log(1, _ids(1, 0, 0), _ids(0, 1, 2), "v", [sent]),
        ]
        self.assert_matches_reference(tmp_path, logs)
        text = (tmp_path / "roundlog.csv").read_text().splitlines()
        assert len(text) == 1 + 4 + 4 + 3 + 3 + 3
        assert text[1:5] == ["0,0,0,1,x,-0.0", "0,0,1,0,x,5e-324",
                             "0,0,0,2,x,-0.0", "0,0,2,0,x,1.7976931348623157e+308"]
        assert text[5] == "1,0,0,1,d,0.0"
        assert text[9:] == ["1,0,2,0,x,-0.0", "1,0,2,1,x,-0.0", "1,0,1,2,x,5e-324",
                            "1,1,2,0,d,1.7976931348623157e+308",
                            "1,1,2,1,d,1.7976931348623157e+308", "1,1,1,2,d,5e-324",
                            "1,0,1,0,v,5e-324", "1,0,0,1,v,-0.0", "1,0,0,2,v,-0.0"]

    def test_nonfinite_values(self, tmp_path):
        sent = np.array([np.nan, np.inf, -np.inf])
        logs = [_log(0, _ids(0, 0, 1, 2), _ids(1, 2, 0, 0), "x", [sent])]
        self.assert_matches_reference(tmp_path, logs)
        assert (tmp_path / "roundlog.csv").read_text().splitlines()[1:] == [
            "0,0,0,1,x,nan", "0,0,0,2,x,nan", "0,0,1,0,x,inf", "0,0,2,0,x,-inf"]

    def test_round_with_one_message(self, tmp_path):
        logs = [_log(2, _ids(1), _ids(0), "xv",
                     [np.array([0.5, 3.0]), np.array([0.5, -1.25])])]
        self.assert_matches_reference(tmp_path, logs)
        assert (tmp_path / "roundlog.csv").read_text() == (
            "epoch,round,from,to,kind,value\n2,0,1,0,x,3.0\n2,1,1,0,v,-1.25\n")

    def test_last_run_with_one_message(self, tmp_path):
        sent = np.array([0.1, 0.2, 0.3])
        logs = [_log(0, _ids(0, 0, 1, 2), _ids(1, 2, 2, 1), "dd",
                     [sent * (i + 1) for i in range(2)])]
        self.assert_matches_reference(tmp_path, logs)
        assert (tmp_path / "roundlog.csv").read_text().splitlines()[4] == (
            "0,0,2,1,d,0.3")

    def test_single_sender(self, tmp_path):
        logs = [_log(1, _ids(2, 2, 2), _ids(0, 1, 3), "xxx",
                     [np.array([9.0, 8.0, 0.1 * i, 6.0]) for i in range(3)])]
        self.assert_matches_reference(tmp_path, logs)
        assert (tmp_path / "roundlog.csv").read_text().splitlines()[7:] == [
            "1,2,2,0,x,0.2", "1,2,2,1,x,0.2", "1,2,2,3,x,0.2"]

    def test_logging_off_writes_no_rows(self, tmp_path):
        # a network that logged no payload keeps its pattern and kinds
        logs = [_log(0, _ids(0, 1), _ids(1, 0), "dvx", [])]
        self.assert_matches_reference(tmp_path, logs)
        assert (tmp_path / "roundlog.csv").read_text() == "epoch,round,from,to,kind,value\n"

    def test_every_zone_across_batches(self, tmp_path, monkeypatch):
        # 100 values per round, so a batch closes after 11 rounds: the
        # first network's rounds fill one batch and start a second, and
        # the next network, on another pattern, starts a batch of its own
        n = 100
        per_batch = -(-sdnio._DUMPS_VALUES // n)
        zones = [0.0, -0.0, 5e-324, -1e-300, 3.3e-10, np.nextafter(1e-9, 0), 1e-9,
                 -1.5e-6, 4.18e-5, np.nextafter(1e-4, 0), 1e-4, 0.5, -123.0, 1e15,
                 np.nextafter(1e16, 0), 1e16, -2.5e300, np.nan, np.inf, -np.inf]
        everyone = np.arange(n)

        def network(first, rounds, *offsets):
            return _log(0, np.repeat(everyone, len(offsets)),
                        np.sort((everyone[:, None] + offsets) % n, axis=1).ravel(),
                        ["xvd"[i % 3] for i in range(first, first + rounds)],
                        [np.roll(np.resize(zones, n), i)
                         for i in range(first, first + rounds)])

        logs = [network(0, per_batch + 5, 1, 2), network(per_batch + 5, 10, 3)]
        sizes, real = [], sdnio._float_texts
        monkeypatch.setattr(sdnio, "_float_texts",
                            lambda values: sizes.append(len(values)) or real(values))
        self.assert_matches_reference(tmp_path, logs)
        assert sizes == [per_batch * n, 5 * n, 10 * n]
        values = {line.rsplit(",", 1)[1] for line in
                  (tmp_path / "roundlog.csv").read_text().splitlines()[1:]}
        assert values == {repr(float(x)) for x in zones}

    def test_alternating_patterns(self, tmp_path):
        # networks on patterns A, B and A again, the last in copied arrays:
        # each network's rows come from its own pattern
        a = (_ids(0, 0, 1, 2, 2), _ids(1, 2, 0, 0, 1))
        b = (_ids(2, 1, 1), _ids(0, 0, 2))
        sent = [np.array([1.5, -2.0, 1e-300]) * (i + 1) for i in range(4)]
        logs = [_log(0, *a, "xv", sent[:2]), _log(0, *b, "d", sent[2:3]),
                _log(0, a[0].copy(), a[1].copy(), "x", sent[3:])]
        self.assert_matches_reference(tmp_path, logs)
        lines = (tmp_path / "roundlog.csv").read_text().splitlines()
        assert len(lines) == 1 + 5 + 5 + 3 + 5
        assert lines[11:14] == ["0,0,2,0,d,3e-300", "0,0,1,0,d,-6.0", "0,0,1,2,d,-6.0"]


class TestFloatTexts:
    """The round log's float text against repr(float(x)), at and around
    the edges of the zones where orjson's notation is repr's."""

    @staticmethod
    def assert_repr(values):
        values = np.asarray(values, dtype=np.float64)
        assert sdnio._float_texts(values) == [repr(x) for x in values.tolist()]

    def test_signed_zeros_subnormals_and_nonfinite(self):
        info = np.finfo(np.float64)
        tiny = [info.smallest_subnormal, 3 * info.smallest_subnormal,
                info.smallest_normal - info.smallest_subnormal, info.smallest_normal]
        self.assert_repr([0.0, -0.0, *tiny, *np.negative(tiny), np.nan, -np.nan,
                          np.inf, -np.inf])

    def test_integer_valued(self):
        values = [1.0, 2.0, 10.0, 123456789.0, 2.0 ** 52, 2.0 ** 53, 2.0 ** 53 + 2,
                  1e15, 9999999999999998.0, 1e16, 1e17, 1e22, 1e23, 2.0 ** 100,
                  np.finfo(np.float64).max]
        self.assert_repr(values + [-x for x in values])

    @pytest.mark.parametrize("edge", [1e-9, 1e-4, 1e16])
    def test_zone_edges(self, edge):
        # the edge and its three float neighbours on either side, both signs
        below = [edge]
        above = [edge]
        for _ in range(3):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        values = below[::-1] + above[1:]
        self.assert_repr(values + [-x for x in values])

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2027).integers(0, 2 ** 64, size=10 ** 5,
                                                    dtype=np.uint64)
        self.assert_repr(bits.view(np.float64))

    def test_random_magnitudes_across_the_zones(self):
        # bit patterns rarely fall near the zones; these span 1e-12..1e19
        rng = np.random.default_rng(2028)
        values = 10.0 ** rng.uniform(-12, 19, 10 ** 5)
        self.assert_repr(values * rng.choice([-1.0, 1.0], values.size))

    def test_empty(self):
        assert sdnio._float_texts(np.empty(0)) == []


def test_orjson_loaded_only_for_a_round_log(tmp_path):
    # a run without a round log loads nothing the writer imports
    code = textwrap.dedent("""
        import json, sys
        import sdnfilt.cli as cli
        print("orjson" in sys.modules)
        with open("fig1.json", "w") as fh:
            json.dump({"scenario": "fig1", "n": 32, "trials": 1, "iterations": 5,
                       "master_seed": 5}, fh)
        assert cli.main(["run", "--config", "fig1.json", "--out", "central"]) == 0
        print("orjson" in sys.modules)
        assert cli.main(["run", "--config", "fig1.json", "--out", "sdn",
                         "--distributed", "--methods", "pgda", "--roundlog"]) == 0
        print("orjson" in sys.modules)
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False", "True"]
    assert (tmp_path / "sdn" / "roundlog.csv").exists()


class TestAtomicWrite:
    def test_no_temp_files_left(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "hello\n")
        atomic_write_text(path, "world\n")
        assert Path(path).read_text() == "world\n"
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert leftovers == []


    @pytest.mark.parametrize("chunks_before_error", [0, 128])
    def test_failed_write_keeps_previous_file(self, tmp_path, chunks_before_error):
        # 128 chunks of 4 KB pass the 256 KB write buffer, so part of the
        # data has reached the temp file when the iterator raises
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "previous\n")
        written = []

        def chunks():
            for _ in range(chunks_before_error):
                yield "x" * 4096
            temps = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
            written.extend(os.path.getsize(tmp_path / f) for f in temps)
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            atomic_write_text(str(path), chunks())
        assert len(written) == 1
        assert (written[0] > 0) == (chunks_before_error > 0)
        assert path.read_bytes() == b"previous\n"
        assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_mode_of_a_plain_open(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            atomic_write_text(str(tmp_path / "text.txt"), "text\n")
            atomic_write_text(str(tmp_path / "chunks.txt"), iter(["a", "b\n"]))
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("plain\n")
        finally:
            os.umask(old)
        for name in ("text.txt", "chunks.txt", "plain.txt"):
            assert os.stat(tmp_path / name).st_mode & 0o777 == mode
