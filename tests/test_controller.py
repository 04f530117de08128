import csv
import math
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from abcas import cli
from abcas.controller import AbcasState, target_multiplier

from helpers import property_settings

RING2D_CFG = Path(__file__).resolve().parents[1] / "configs" / "ring2d.cfg"


def _batch(*values):
    return np.array(values)


class TestMap:
    def test_overlapping_distributions_no_restriction(self):
        # dm <= 0 clamps to zero: r = 0, m = 1
        r, m = target_multiplier(-3.0, 4.0)
        assert r == 0.0 and m == 1.0
        r, m = target_multiplier(0.0, 4.0)
        assert r == 0.0 and m == 1.0

    def test_steady_state_dm_two(self):
        # dm = 2, beta = 4: clbr = 0.5, r = 1, m = 0.9, all exact
        r, m = target_multiplier(2.0, 4.0)
        assert r == 1.0
        assert m == 0.9

    def test_r_two(self):
        _, m = target_multiplier(8.0 / 3.0, 4.0)  # clbr = 2/3 -> r = 2
        assert abs(m - 0.81) < 1e-12

    def test_clamp_cap(self):
        r, m = target_multiplier(1e9, 4.0)
        assert r <= 49.0 + 1e-9
        assert m >= 0.0056  # 0.9 ** 49

    def test_monotone_in_dm(self):
        beta = 4.0
        grid = np.linspace(0.0, 0.98 * beta, 1000)
        rs, ms = zip(*(target_multiplier(float(d), beta) for d in grid))
        assert all(a <= b for a, b in zip(rs, rs[1:]))
        assert all(a >= b for a, b in zip(ms, ms[1:]))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
BETAS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestMapProperties:
    @property_settings(300)
    @given(beta=BETAS, a=FINITE, b=FINITE)
    def test_monotone_and_bounded(self, beta, a, b):
        # a larger dm gives an r no smaller and an m no larger, for any two
        # gaps and for adjacent floats
        for lo, hi in (sorted((a, b)), (a, math.nextafter(a, math.inf))):
            (r_lo, m_lo), (r_hi, m_hi) = target_multiplier(lo, beta), target_multiplier(hi, beta)
            assert r_lo <= r_hi and m_lo >= m_hi, (lo, hi)
            for r, m in ((r_lo, m_lo), (r_hi, m_hi)):
                assert 0.0 <= r <= 49.0
                assert 0.9 ** 49 <= m <= 1.0

    @property_settings(100)
    @given(beta=BETAS, dm=st.floats(max_value=0.0, allow_nan=False))
    def test_no_gap_means_no_restriction(self, beta, dm):
        assert target_multiplier(dm, beta) == (0.0, 1.0)

    @property_settings(50)
    @given(m0=st.floats(0.0, 1.0, exclude_min=True), beta=BETAS,
           alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           dists=st.lists(FINITE, max_size=20))
    def test_fixed_mode_keeps_m0(self, m0, beta, alpha, dists):
        state = AbcasState(beta=beta, alpha=alpha, mode="fixed", m0=m0)
        for dist in dists:
            state.observe_and_update(_batch(dist), _batch(0.0))
            assert state.last_dist == dist
            assert (state.m, state.r, state.dm) == (m0, 0.0, 0.0)


class TestObserveAndUpdate:
    # each call is one discriminator step; the training loop makes no other

    def test_negative_dist_history_keeps_m_one(self):
        st = AbcasState()
        for _ in range(5):
            st.observe_and_update(_batch(0.1), _batch(0.5))  # dist = -0.4
        assert st.r == 0.0
        assert st.m == 1.0
        assert st.dm <= 0.0

    def test_running_average_single_spike(self):
        # dm = 0 then one dist = 10 lands at the alpha-complement of 10
        st = AbcasState()
        st.observe_and_update(_batch(10.0), _batch(0.0))
        expected = 0.9999 * 0.0 + (1.0 - 0.9999) * 10.0
        assert st.dm == expected
        assert abs(st.dm - 0.001) < 1e-12

    def test_steady_state_example_values(self):
        st = AbcasState()
        st.dm = 2.0
        st.observe_and_update(_batch(2.0), _batch(0.0))  # dist = 2 keeps dm at 2 up to rounding
        assert abs(st.dm - 2.0) < 1e-12
        assert abs(st.r - 1.0) < 1e-12
        assert abs(st.m - 0.9) < 1e-12

    def test_m_always_equals_decay_power_r(self):
        rng = np.random.default_rng(0)
        st = AbcasState(beta=4.0)
        for _ in range(200):
            st.observe_and_update(rng.standard_normal(8) + 2.0, rng.standard_normal(8))
            assert st.m == 0.9 ** st.r

    def test_fixed_mode_never_updates(self):
        st = AbcasState(mode="fixed", m0=0.7)
        for _ in range(10):
            st.observe_and_update(_batch(100.0), _batch(-100.0))
        assert st.m == 0.7
        assert st.r == 0.0
        assert st.dm == 0.0
        assert st.last_dist == 200.0

    def test_initial_multiplier_is_one(self):
        assert AbcasState().m == 1.0


class TestReplay:
    def test_bitwise_replay_of_logged_dist_sequence(self):
        rng = np.random.default_rng(42)
        st = AbcasState(beta=4.0)
        logged = []
        for _ in range(1000):
            c_real = rng.standard_normal(16) + rng.uniform(0, 4)
            c_fake = rng.standard_normal(16)
            st.observe_and_update(c_real, c_fake)
            logged.append((st.last_dist, st.dm, st.r, st.m))

        # independent 64-bit replay of the recurrence
        alpha, beta = 0.9999, 4.0
        dm = 0.0
        for dist, dm_logged, r_logged, m_logged in logged:
            dm = alpha * dm + (1.0 - alpha) * dist
            clbr = min(max(dm / beta, 0.0), 0.98)
            r = clbr / (1.0 - clbr)
            assert dm == dm_logged
            assert r == r_logged
            assert 0.9 ** r == m_logged


def _ring2d_rows(tmp_path, extra_cfg, *flags):
    """metrics.csv rows of a short ring2d ``abcas train``, as floats by column."""
    cfg = tmp_path / "ring2d.cfg"
    cfg.write_text(RING2D_CFG.read_text() + extra_cfg)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out), *flags]) == 0
    with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


class TestReplayFromRun:
    def test_adaptive_run_replays_bitwise_from_its_dist_column(self, tmp_path):
        # an active controller: beta within reach of the ring2d critic gap
        alpha, beta = 0.999, 0.15
        rows = _ring2d_rows(tmp_path, f"steps = 600\nbeta = {beta}\nalpha = {alpha}\n")
        assert [row["step"] for row in rows] == list(range(601))
        assert (rows[0]["dm"], rows[0]["r"], rows[0]["m"]) == (0.0, 0.0, 1.0)
        dm = r = 0.0
        m = 1.0
        for row in rows[1:]:
            if row["step"] % 2 == 1:  # a D step: the controller sees this dist
                dm = alpha * dm + (1.0 - alpha) * row["dist"]
                r, m = target_multiplier(dm, beta)
            # a G step carries the last D step's values
            assert (row["dm"], row["r"], row["m"]) == (dm, r, m), row["step"]
        assert min(row["m"] for row in rows) < 0.95  # the bound did move

    def test_fixed_run_keeps_m(self, tmp_path):
        rows = _ring2d_rows(tmp_path, "steps = 200\n", "--mode", "fixed", "--m", "0.7")
        assert len(rows) == 201
        assert all((row["dm"], row["r"], row["m"]) == (0.0, 0.0, 0.7) for row in rows)
