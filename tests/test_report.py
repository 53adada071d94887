"""Pipeline reports: records, summaries, failure handling, schemas."""

import json
import math
import struct
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearlab import decomposition, report
from shearlab import spiralling as SP
from shearlab import surface as S
from shearlab.constants import SHORT_CURVE_MAX, Signature
from shearlab.geom import GeometryError
from shearlab.pants import StdPants, build_pants

import report_oracle


def long_05(i):
    """Sample i of the (0,5) campaign at seed 3 with lengths in (0.01, 30).

    Sample 5 fails the develop check at seam 2 of pants 1, and the cusp
    stabilizer of sample 7's pants (16.01..., 0, 19.09...) rounds to a
    hyperbolic isometry.
    """
    sig = Signature(0, 5)
    pg, fn = S.sample_fn(sig, S.sample_seed(3, i), length_range=(0.01, 30.0))
    return sig, pg, fn


def handle_nothing(monkeypatch):
    """Patch decomposition.pants_batch to handle no triple, so that every pants
    takes the scalar route."""
    real = decomposition.pants_batch

    def batch(triples):
        out = real(triples)
        out.handled[:] = False
        return out

    monkeypatch.setattr(decomposition, "pants_batch", batch)


def row_bits(batch, r):
    """The bytes of row r of every field of a decomposition.Batch, its
    margin slice in place of margins and first."""
    return [getattr(batch, f.name)[r].tobytes()
            for f in fields(decomposition.Batch)
            if f.name not in ("margins", "first")] + [
        batch.margins[batch.first[r]:batch.first[r + 1]].tobytes()]


class TestRunSurface:
    def test_two_pants_all_slots_glued(self):
        data = {
            "signature": {"g": 2, "n": 0},
            "pants": [
                {"slots": [{"curve": 0}, {"curve": 1}, {"curve": 2}]},
                {"slots": [{"curve": 0}, {"curve": 1}, {"curve": 2}]}],
            "fn": [{"curve": 0, "length": 1.2, "twist": 0.3},
                   {"curve": 1, "length": 2.0, "twist": -0.7},
                   {"curve": 2, "length": 0.8, "twist": 1.1}],
        }
        sig, pg, fn = report.parse_surface(data)
        rec = report.run_surface(sig, pg, fn)
        assert rec["relations_ok"] and rec["bound_satisfied"]

    def test_cross_handle_variant(self):
        data = {
            "signature": {"g": 1, "n": 2},
            "pants": [
                {"slots": [{"curve": 0}, {"curve": 1}, {"cusp": 0}]},
                {"slots": [{"curve": 0}, {"curve": 1}, {"cusp": 1}]}],
            "fn": [{"curve": 0, "length": 1.5, "twist": 0.2},
                   {"curve": 1, "length": 2.2, "twist": 0.9}],
        }
        sig, pg, fn = report.parse_surface(data)
        rec = report.run_surface(sig, pg, fn)
        assert rec["relations_ok"] and rec["certified"]

    def test_parse_rejects_malformed_slot(self):
        data = {
            "signature": {"g": 0, "n": 3},
            "pants": [{"slots": [{"boundary": 0}, {"cusp": 1}, {"cusp": 2}]}],
            "fn": [],
        }
        try:
            report.parse_surface(data)
        except ValueError:
            pass
        else:
            raise AssertionError("malformed slot accepted")

    def test_kernel_errors_name_the_seam_and_records_the_edge(self):
        sig, pg, fn = long_05(5)
        sp = build_pants(*S.slot_lengths(pg, fn, 1))
        with pytest.raises(SP.DevelopError) as kernel_err:
            SP.pants_kernel(sp)
        assert kernel_err.value.edge == 2
        assert str(kernel_err.value) == (
            "edge 2: developed endpoint is not fixed by its holonomy")
        with pytest.raises(SP.DevelopError) as record_err:
            report.run_surface(sig, pg, fn)
        assert str(record_err.value) == (
            "edge (1, 2): developed endpoint is not fixed by its holonomy")

    @pytest.mark.parametrize("g, n, seed", [(2, 1, 3), (0, 5, 7), (3, 0, 11)])
    def test_record_does_not_depend_on_the_twists(self, g, n, seed):
        # a pants' results are a function of its length triple, so moving
        # every twist by 0.37 of its curve's length changes the record
        # only in the twists it echoes
        sig = Signature(g, n)
        pg, fn = S.sample_fn(sig, seed)
        moved = S.FNCoordinates(fn.lengths, {
            c: t + 0.37 * fn.lengths[c] for c, t in fn.twists.items()})
        want, got = (report.run_surface(sig, pg, f) for f in (fn, moved))
        assert got.keys() == want.keys()
        assert json.dumps({k: v for k, v in got.items() if k != "fn"}) == (
            json.dumps({k: v for k, v in want.items() if k != "fn"}))
        assert got["fn"]["lengths"] == want["fn"]["lengths"]
        assert all(got["fn"]["twists"][c] != t
                   for c, t in want["fn"]["twists"].items())

    def test_hyperbolic_cusp_stabilizer_is_named(self):
        sig, pg, fn = long_05(7)
        assert S.slot_lengths(pg, fn, 1)[1] == 0.0
        with pytest.raises(GeometryError,
                           match="^no horocycle for hyperbolic isometry$"):
            report.run_surface(sig, pg, fn)


class TestCampaign:
    def test_three_cusped_sphere_campaign(self):
        records, summary = report.run_sample_campaign(Signature(0, 3), 1, 3)
        assert summary["failures"] == 0
        for rec in records:
            assert rec["max_shear"] == 0.0 and rec["certified"]

    def test_failures_recorded_and_campaign_continues(self):
        # lengths near 40 saturate the pants trigonometry in double
        # precision: every sample errors, none aborts the run
        import csv
        import io
        records, summary = report.run_sample_campaign(
            Signature(1, 1), 5, 4, length_range=(39.0, 40.0))
        assert summary["failures"] == 4
        assert all("error" in r for r in records)
        campaign = report.sample_campaign(Signature(1, 1), 5, 4,
                                          length_range=(39.0, 40.0))
        rows = list(csv.reader(io.StringIO(report.sample_rows(campaign))))
        assert rows[0] == report.CSV_HEADER.split(",")
        assert rows[1][1] == "(1,1)"
        assert rows[1][3] == "error"

    def test_draw_errors_are_recorded_per_sample(self):
        # a range numpy cannot draw from fails every sample's draw with
        # numpy's message, and the lengths are checked before the twists;
        # with no curve nothing is drawn, so nothing is checked
        records, summary = report.run_sample_campaign(
            Signature(1, 1), 1, 3, length_range=(-1e308, 1e308))
        assert summary["failures"] == 3
        assert [r["error"] for r in records] == [
            "OverflowError: high - low range exceeds valid bounds"] * 3
        assert [r["seed"] for r in records] == [S.sample_seed(1, i)
                                                for i in range(3)]
        records, _ = report.run_sample_campaign(
            Signature(1, 1), 1, 2, length_range=(-1e308, 1e308),
            twist_range=(1.0, 0.0))
        assert {r["error"] for r in records} == {
            "OverflowError: high - low range exceeds valid bounds"}
        records, _ = report.run_sample_campaign(
            Signature(1, 1), 1, 2, twist_range=(1.0, 0.0))
        assert {r["error"] for r in records} == {"ValueError: high - low < 0"}
        records, summary = report.run_sample_campaign(
            Signature(0, 3), 1, 3, length_range=(-1e308, 1e308))
        assert summary["failures"] == 0
        assert not any("error" in r for r in records)

    def test_records_carry_hash_and_version(self):
        records, summary = report.run_sample_campaign(Signature(1, 1), 2, 2)
        rep = report.assemble({"command": "sample", "g": 1, "n": 1},
                              records, summary)
        for rec in rep["records"]:
            assert rec["config_hash"] == rep["config"]["hash"]
            assert rec["version"] == rep["config"]["version"]

    def test_summary_fields(self):
        records, summary = report.run_sample_campaign(Signature(1, 2), 9, 5)
        assert summary["samples"] == 5
        assert summary["certified"] + summary["failures"] <= 5
        assert 0 < summary["max_ratio_certified"] < 1
        assert summary["min_margin"] > 0

    def test_uncertified_samples_reported_separately(self):
        import math
        from shearlab.constants import area
        hi = 2 * math.log(4 * area(Signature(1, 2)))
        records, summary = report.run_sample_campaign(
            Signature(1, 2), 99, 8, length_range=(hi * 1.1, hi * 1.25))
        good = [r for r in records if not r.get("error")]
        assert good and summary["certified"] == 0
        assert summary["max_ratio_uncertified"] is not None
        assert summary["max_ratio_uncertified"] < 1.0
        for rec in good:
            assert rec["shears"]  # shears still reported

    @pytest.mark.parametrize("gn, count", [((0, 3), 5), ((1, 1), 30),
                                           ((5, 5), 40)])
    def test_records_are_run_surface_records(self, gn, count):
        # a campaign's record, or its error, is run_surface's on the
        # sample_fn surface of the record's seed
        sig = Signature(*gn)
        records, _ = report.run_sample_campaign(sig, 42, count)
        for rec in records:
            pg, fn = S.sample_fn(sig, rec["seed"])
            try:
                want = dict(report.run_surface(sig, pg, fn), seed=rec["seed"])
            except Exception as err:
                want = {"seed": rec["seed"],
                        "error": f"{type(err).__name__}: {err}"}
            assert report.to_json(rec) == report.to_json(want)
        if gn == (5, 5):
            assert any("error" in rec for rec in records)

    def test_json_roundtrip_stable(self):
        records, summary = report.run_sample_campaign(Signature(1, 1), 3, 2)
        rep = report.assemble({"command": "sample", "g": 1, "n": 1,
                               "seed": 3, "count": 2}, records, summary)
        text = report.to_json(rep)
        again = report.to_json(json.loads(text))
        assert text == again


class TestSampleWriter:
    """report.sample_json and report.sample_rows write, from a campaign's
    columns, the bytes of the dict route (report_oracle): the record dicts
    of run_sample_campaign, assembled and encoded by json.dumps, and the
    CSV rows and summary read from those dicts."""

    # (g, n), seed, count, length range, twist range: error records, no
    # curve, curve ids from 10 on (JSON's "10" before "2"), three blocks,
    # every sample failing, every sample's construction failing at huge
    # lengths, no sample, and the draw failing on every sample
    CAMPAIGNS = (((5, 5), 3, 300, None, (0.0, 1.0)),
                 ((0, 3), 1, 5, None, (0.0, 1.0)),
                 ((10, 0), 42, 40, None, (0.0, 1.0)),
                 ((1, 1), 2 ** 64 - 1, 600, None, (0.0, 1.0)),
                 ((2, 0), 1, 20, (0.001, 0.01), (0.0, 1.0)),
                 ((1, 1), 1, 3, (1e-300, 1e308), (0.0, 1.0)),
                 ((1, 1), 0, 0, None, (0.0, 1.0)),
                 ((1, 1), 1, 3, (-1e308, 1e308), (0.0, 1.0)),
                 ((1, 1), 1, 2, None, (1.0, 0.0)))

    @staticmethod
    def check(gn, seed, count, lengths, twists):
        """The campaign's report in both formats, checked against the
        oracle; returns the JSON text and the record dicts."""
        sig = Signature(*gn)
        config = {"command": "sample", "g": sig.g, "n": sig.n, "seed": seed,
                  "count": count,
                  "length_range": list(lengths) if lengths else None,
                  "twist_max": twists[1], "format": "json"}
        campaign = report.sample_campaign(sig, seed, count, lengths, twists)
        records, summary = report.run_sample_campaign(sig, seed, count,
                                                      lengths, twists)
        # NaN compares unequal to itself; json.dumps spells it out
        assert json.dumps(campaign.summary) == json.dumps(summary) == (
            json.dumps(report_oracle.summary(records, count)))
        text = report.sample_json(config, campaign)
        assert text == report_oracle.sample_json(config, records, summary)
        assert report.sample_rows(campaign) == report_oracle.sample_rows(
            report.assemble(config, records, summary))
        return text, records

    @pytest.mark.parametrize(
        "gn, seed, count, lengths, twists", CAMPAIGNS,
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_campaigns(self, gn, seed, count, lengths, twists):
        _, records = self.check(gn, seed, count, lengths, twists)
        if gn == (5, 5):
            assert any("error" in rec for rec in records)
        if gn == (10, 0):
            assert list(records[0]["fn"]["lengths"])[:3] == ["0", "1", "2"]

    def test_planted_values(self, monkeypatch):
        # one pants per (1,1) sample, so batch row i is sample i: a NaN
        # shear, a NaN residual at a curve slot, a NaN least margin (no
        # margin), a -0.0 shear and an infinite shear
        real = decomposition.pants_batch

        def batch(triples):
            out = real(triples)
            out.shears[1, 0] = math.nan
            out.residuals[2, 0] = math.nan
            out.margins[out.first[3]:out.first[4]] = math.nan
            out.shears[4, 0] = -0.0
            out.shears[5, 1] = math.inf
            return out

        monkeypatch.setattr(decomposition, "pants_batch", batch)
        text, records = self.check((1, 1), 5, 8, None, (0.0, 1.0))
        assert math.isnan(records[1]["shears"]["(0, 0)"])
        assert math.isnan(records[1]["max_shear"])
        assert not records[2]["relations_ok"]
        assert records[3]["min_margin"] is None
        assert math.copysign(1.0, records[4]["shears"]["(0, 0)"]) == -1.0
        assert records[5]["max_shear"] == math.inf
        for needle in ('"max_shear": NaN', '"(0, 0)": NaN',
                       '"spiral_residual": NaN', '"relations_ok": false',
                       '"min_margin": null', '"(0, 0)": -0.0',
                       '"(0, 1)": Infinity', '"worst_spiral_residual": NaN'):
            assert needle in text, needle

    def test_cli_builds_no_record_dict(self, monkeypatch, capsys):
        # the sample command writes from the columns: _records, which
        # makes the dicts of run_surface and run_sample_campaign, is
        # never called
        from shearlab import cli
        argv = ["sample", "--g", "5", "--n", "5", "--count", "40",
                "--seed", "3", "--format"]
        want = {}
        for fmt in ("json", "csv"):
            want[fmt] = cli.main(argv + [fmt]), capsys.readouterr().out

        def refuse(*args):
            raise AssertionError("built a record dict")

        monkeypatch.setattr(report, "_records", refuse)
        for fmt in ("json", "csv"):
            assert (cli.main(argv + [fmt]), capsys.readouterr().out) == (
                want[fmt])
        with pytest.raises(AssertionError, match="built a record dict"):
            report.run_sample_campaign(Signature(5, 5), 3, 2)


class TestBatchRouting:
    """Every pants of a campaign goes through decomposition.pants_batch.

    The scalar build_pants and pants_kernel are its reference: with the
    batch handling nothing, every record and summary, error strings
    included, must come out the same.
    """

    CAMPAIGNS = (((1, 1), 42, 30, None), ((0, 4), 42, 30, None),
                 ((0, 5), 42, 30, None), ((1, 2), 42, 30, None),
                 ((2, 0), 42, 30, None), ((2, 1), 42, 30, None),
                 ((5, 5), 42, 20, None), ((10, 0), 42, 20, None),
                 ((20, 4), 42, 10, None), ((3, 0), 1, 20, (0.05, 16.0)),
                 ((0, 5), 3, 200, (0.01, 30.0)), ((0, 3), 42, 30, None),
                 ((5, 5), 42, 0, None), ((50, 0), 1, 3, (0.05, 8.0)))

    # the errors the long campaigns must reach: relation and develop
    # failures of compact pants, and at (0,5) the mirrored cusp whose
    # stabilizer rounds to a hyperbolic isometry
    ERRORS = {((3, 0), (0.05, 16.0)): ("GeometryError: pants relation",
                                       "DevelopError: edge"),
              ((0, 5), (0.01, 30.0)): (
                  "GeometryError: pants relation", "DevelopError: edge",
                  "GeometryError: no horocycle for hyperbolic isometry")}

    @staticmethod
    def campaign(gn, seed, count, lengths):
        records, summary = report.run_sample_campaign(
            Signature(*gn), seed, count, length_range=lengths)
        rep = {"records": records, "summary": summary}
        text = report.to_json(rep)
        # the writer's bytes are json.dumps'
        assert text == json.dumps(rep, sort_keys=True, indent=2) + "\n"
        return records, text

    @pytest.mark.parametrize(
        "gn, seed, count, lengths", CAMPAIGNS,
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_scalar_route_gives_the_same_campaign(self, monkeypatch, gn,
                                                 seed, count, lengths):
        records, batched = self.campaign(gn, seed, count, lengths)
        handle_nothing(monkeypatch)
        _, scalar = self.campaign(gn, seed, count, lengths)
        assert batched == scalar
        # the long lengths reach the float64 failures of the sampling
        # path; the batch must leave the failing pants unhandled
        errors = " ".join(rec.get("error", "") for rec in records)
        for error in self.ERRORS.get((gn, lengths), ()):
            assert error in errors

    @staticmethod
    def routes(monkeypatch, sig, seed, count):
        """The triples a campaign batches, those the batch handles, and
        those the scalar build_pants and pants_kernel see."""
        real_batch, real_build = decomposition.pants_batch, report.build_pants
        real_kernel = SP.pants_kernel
        batched, handled, scalar = set(), set(), []

        def batch(triples):
            out = real_batch(triples)
            triples = list(map(tuple, triples.tolist()))
            batched.update(triples)
            handled.update(ls for ls, done in zip(triples, out.handled)
                           if done)
            return out

        def build(*ls):
            scalar.append(ls)
            return real_build(*ls)

        def kernel(sp):
            scalar.append(sp.lengths)
            return real_kernel(sp)

        monkeypatch.setattr(decomposition, "pants_batch", batch)
        monkeypatch.setattr(report, "build_pants", build)
        monkeypatch.setattr(SP, "pants_kernel", kernel)
        records, _ = report.run_sample_campaign(sig, seed, count)
        assert any(not rec.get("error") for rec in records)
        assert scalar and not handled & set(scalar)
        return batched, handled

    def test_batch_handles_the_thick_compact_pants(self, monkeypatch):
        # a count, not a speed: the thick compact triples the batch
        # handles never reach the scalar build_pants or pants_kernel
        batched, handled = self.routes(monkeypatch, Signature(5, 5), 11, 40)
        qualifying = {ls for ls in batched if min(ls) > SHORT_CURVE_MAX}
        assert len(handled & qualifying) >= 0.95 * len(qualifying) > 0

    def test_batch_handles_the_cusped_and_thin_pants(self, monkeypatch):
        # the pants with shear-point margins: a cusp or a short curve
        batched, handled = self.routes(monkeypatch, Signature(5, 5), 11, 40)
        for thin in ({ls for ls in batched if 0.0 in ls},
                     {ls for ls in batched
                      if 0.0 < min(ls) <= SHORT_CURVE_MAX}):
            assert len(handled & thin) >= 0.95 * len(thin) > 0

    def test_batch_rows_are_the_input_triples(self):
        # row r of the batch is triple r: a handled row has the bits of
        # a batch of its triple alone, so a repeated triple gets the same
        # bits at each of its rows; a length that is not finite,
        # negative or too long for build_pants leaves its triple
        # unhandled (the sign of a NaN the unhandled rows carry is not
        # pinned), and the arcs take no cosh of a length that long, which
        # would overflow.  The functions of one
        # length are taken once per distinct bit pattern, so a length
        # shared across slots and rows, 0.0 beside -0.0 (a cusp either
        # way) and a NaN get the bits of their row alone, in the batch
        # and in its seam-arc lengths (Batch.arcs)
        good = [(1.0, 2.0, 0.0), (0.3, 0.0, 0.0), (2.5, 1.5, 3.0),
                (0.5, 0.5, 0.5), (0.5, 2.0, 0.5), (2.0, 2.0, 1.0),
                (1.0, -0.0, 0.0), (0.0, -0.0, 0.3), (-0.0, -0.0, 2.5)]
        bad = [(math.inf, 1.0, 0.0), (math.nan, 1.0, 1.0),
               (-1.0, 2.0, 0.0), (1.0, 1.0, -math.inf),
               (0.5, math.nan, -0.0), (1500.0, 1.0, 0.0)]
        triples = [good[0], bad[0], good[1], good[0], bad[1], good[2],
                   bad[2], good[1], bad[3], good[2], *good[3:], bad[4],
                   good[6], bad[5]]
        batch = decomposition.pants_batch(triples)
        assert batch.handled.tolist() == [ls in good for ls in triples]
        for r, ls in enumerate(triples):
            assert batch.arcs[r].tobytes() == decomposition.pants_batch(
                [ls]).arcs[0].tobytes(), ls
        # the distinct values gathered back are the lengths, bit for bit,
        # though no output above depends on the sign of a zero or a NaN
        payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))
        lengths = np.array([*triples, (-math.nan, *payload, 0.5)]).T
        values, where = decomposition._distinct(lengths)
        assert len(values) < lengths.size
        assert values[where].tobytes() == lengths.tobytes()

        def bits(batch, r):
            return [getattr(batch, f.name)[r].tobytes()
                    for f in fields(decomposition.Batch)
                    if f.name not in ("margins", "first")] + [
                batch.margins[batch.first[r]:batch.first[r + 1]].tobytes()]

        for r, ls in enumerate(triples):
            alone = decomposition.pants_batch([ls])
            assert alone.handled.tolist() == [batch.handled[r]]
            if batch.handled[r]:
                assert bits(batch, r) == bits(alone, 0), ls
        assert bits(batch, 0) == bits(batch, 3)
        assert bits(batch, 5) == bits(batch, 9)
        assert bits(batch, 13) == bits(batch, 17)
        empty = decomposition.pants_batch([])
        assert empty.handled.shape == (0,) and empty.first.tolist() == [0]

    @staticmethod
    def block_triples(monkeypatch, sig, seed, count, lengths=None):
        """The triples a campaign hands to pants_batch, in its order."""
        real, seen = decomposition.pants_batch, []

        def batch(triples):
            seen.append(np.array(triples, dtype=float))
            return real(triples)

        with monkeypatch.context() as patch:
            patch.setattr(decomposition, "pants_batch", batch)
            report.run_sample_campaign(sig, seed, count, length_range=lengths)
        return np.concatenate(seen)

    def test_batch_rows_do_not_depend_on_their_neighbours(self, monkeypatch):
        # the triples of a real (5,5) block and of a (0,5) block at long
        # and short lengths, shuffled and split in halves: each row is
        # handled as in the whole batch, and a handled row gets the same
        # bits in every field and margin, wherever its neighbours' arrays
        # (stacked slots, corners and margin entries) put it
        triples = np.concatenate([
            self.block_triples(monkeypatch, Signature(5, 5), 7, 20),
            self.block_triples(monkeypatch, Signature(0, 5), 3, 200,
                               (0.01, 30.0))])
        whole = decomposition.pants_batch(triples)
        # cusped and thin corners, and failures left to the scalar route
        assert (triples == 0.0).any() and (
            (triples > 0.0) & (triples <= SHORT_CURVE_MAX)).any()
        assert 0 < whole.handled.sum() < len(triples)
        order = np.random.default_rng(7).permutation(len(triples))
        for part in np.array_split(order, 2):
            batch = decomposition.pants_batch(triples[part])
            assert batch.handled.tolist() == whole.handled[part].tolist()
            for r, row in enumerate(part.tolist()):
                if whole.handled[row]:
                    assert row_bits(batch, r) == row_bits(whole, row), row

    def test_no_finite_triple_no_numpy_work(self, monkeypatch):
        # a block in which every sample failed to draw has no triple, and
        # runs no array work
        def refuse(triples):
            raise AssertionError("batched a block with no triple")

        monkeypatch.setattr(decomposition, "pants_batch", refuse)
        records, summary = report.run_sample_campaign(
            Signature(1, 1), 42, 20, length_range=(2.0, 1.0))
        assert summary["failures"] == 20
        assert all(rec["error"].startswith("ValueError") for rec in records)

    def test_batch_route_builds_no_object_per_triple(self, monkeypatch):
        # every sample of this campaign passes, so every pants takes the
        # batch route, which reads arrays: no StdPants (build_pants) and
        # no PantsKernel is built
        built = Counter()

        def counting(cls):
            init = cls.__init__

            def counted(self, *args, **kwargs):
                built[cls.__name__] += 1
                init(self, *args, **kwargs)

            return counted

        for cls in (StdPants, SP.PantsKernel):
            monkeypatch.setattr(cls, "__init__", counting(cls))
        records, summary = report.run_sample_campaign(Signature(3, 2), 42, 20)
        assert summary["failures"] == 0
        assert built == Counter()
        # the count sees what the scalar route builds
        SP.pants_kernel(build_pants(1.0, 2.0, 0.0))
        assert built["StdPants"] and built["PantsKernel"]


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30)


class TestToJson:
    """report.to_json gives json.dumps(sort_keys=True, indent=2)'s bytes
    with a newline; the campaigns of TestBatchRouting check it too."""

    @staticmethod
    def same(value):
        want = json.dumps(value, sort_keys=True, indent=2) + "\n"
        assert report.to_json(value) == want

    def test_planted_values(self):
        self.same({
            "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
            "zero": -0.0, "mixed": [1, 1.0, -2, 2.5e-300, True, None],
            "bools": {"t": True, "f": False}, "none": None,
            "empty": {}, "nested": {"a": {}, "b": [], "c": [[], [{}]]},
            "error": "GeometryError: caf\u00e9 \u2603\n\t\x00 \"q\" \\",
            "shears": {"(10, 2)": 1.5, "(2, 0)": -0.0, "(1, 1)": math.nan},
            "list": [{"b": 1, "a": [1, {"z": []}]}, "x", [None]]})
        for value in ({}, [], [[]], [{}], math.nan, -0.0, "\u00e9", 7, None,
                      (1, (2.0, {"k": ()}))):
            self.same(value)

    def test_command_reports(self, tmp_path, capsys):
        from shearlab import cli
        from shearlab.surface import canonical_pants_graph, sample_fn
        chain = tmp_path / "chain.json"
        pg, fn = sample_fn(Signature(0, 4), 5)
        chain.write_text(json.dumps({
            "signature": {"g": 0, "n": 4},
            "pants": [{"slots": [{kind: ident} for kind, ident in slots]}
                      for slots in pg.pants],
            "fn": [{"curve": c, "length": fn.lengths[c],
                    "twist": fn.twists[c]} for c in pg.curve_ids()]}))
        surface = tmp_path / "surface.json"
        pg = canonical_pants_graph(Signature(1, 1))
        surface.write_text(json.dumps({
            "signature": {"g": 1, "n": 1},
            "pants": [{"slots": [{kind: ident} for kind, ident in slots]}
                      for slots in pg.pants],
            "fn": [{"curve": 0, "length": 1.3, "twist": 0.4}]}))
        for argv in (["constants", "--g", "2", "--n", "1"],
                     ["compute", str(surface)],
                     ["optimize", str(chain), "--budget", "20"]):
            cli.main(argv)
            text = capsys.readouterr().out
            assert text and text == json.dumps(
                json.loads(text), sort_keys=True, indent=2) + "\n"

    def test_trails(self, monkeypatch):
        # a list of lists of one length of scalars, such as optimize's
        # flip trail, is written with one encoder call (_grid); a list of
        # lists of mixed lengths, with an empty list, of tuples or of
        # nested lists takes the generic route, one _encode per item
        trail = [[i % 7, i % 3] for i in range(100)]
        cases = ((trail, 1), ([["a", 1.5, None, True]], 1),
                 ([[1, 2], [3]], 3), ([[1], []], 3),
                 ([(1, 2), (3, 4)], 3), ([[1, 2], (3, 4)], 3),
                 ([[1, [2]], [3, [4]]], 7), ([[math.nan, -0.0]] * 2, 1))
        real = report._encode
        calls = []

        def counted(value, newline):
            calls.append(value)
            return real(value, newline)

        monkeypatch.setattr(report, "_encode", counted)
        for value, encodes in cases:
            calls.clear()
            self.same(value)
            assert len(calls) == encodes, value
            self.same({"flips": value, "x": 1})

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(JSON)
    def test_search(self, value):
        self.same(value)
