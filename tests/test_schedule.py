import pytest
from hypothesis import given
from hypothesis import strategies as st

from coldstart_dynaq.schedule import StcSchedule, constant, stc_steps, stc_value

EPS_SCHED = StcSchedule(0.4, 0.1, 7500.0)
PLAN_SCHED = StcSchedule(100.0, 10.0, 5000.0)


class TestStcValue:
    def test_initial_at_zero(self):
        assert stc_value(EPS_SCHED, 0) == 0.4

    def test_formula_at_100(self):
        assert stc_value(EPS_SCHED, 100) == pytest.approx(0.4 / (1 + 10000 / 7600), abs=1e-12)

    def test_floor_binds(self):
        assert stc_value(EPS_SCHED, 10**6) == 0.1

    def test_monotone_and_bounded(self):
        values = [stc_value(EPS_SCHED, t) for t in range(0, 5000, 13)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0.1 <= v <= 0.4 for v in values)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            stc_value(EPS_SCHED, -1)


class TestStcSteps:
    def test_initial(self):
        assert stc_steps(PLAN_SCHED, 0) == 100

    def test_round_half_to_even_path(self):
        # 100 / (1 + 40000/5200) = 11.504..., rounds to 12
        assert stc_steps(PLAN_SCHED, 200) == 12

    def test_zero_floor(self):
        assert stc_steps(StcSchedule(100.0, 0.0, 1000.0), 10**5) == 0

    def test_integer_valued(self):
        assert all(isinstance(stc_steps(PLAN_SCHED, t), int) for t in range(50))


def test_constant_schedule_is_flat():
    sched = constant(0.3)
    assert all(stc_value(sched, t) == 0.3 for t in (0, 1, 100, 10**6))


def test_invalid_schedules_rejected():
    with pytest.raises(ValueError):
        StcSchedule(0.1, 0.4, 100.0)
    with pytest.raises(ValueError):
        StcSchedule(0.4, 0.1, 0.0)
    nan, inf = float("nan"), float("inf")
    for initial, floor, smoothing in [
        (1.0, nan, 1.0),  # max(x, nan) is x: a floor of 0
        (1.0, 0.0, inf),  # constant at initial
        (nan, 0.0, 1.0),
        (inf, 0.0, 1.0),
        (1.0, 0.0, nan),
    ]:
        with pytest.raises(ValueError, match="must be finite"):
            StcSchedule(initial, floor, smoothing)


@st.composite
def valid_schedules(draw):
    floor = draw(st.floats(0.0, 1e6))
    initial = draw(st.floats(floor, 1e6))
    smoothing = draw(st.floats(0.0, 1e9, exclude_min=True))
    return StcSchedule(initial, floor, smoothing)


@given(valid_schedules(), st.integers(0, 10**9))
def test_steps_never_exceed_step_zero(sched, t):
    # a learner that plans nothing at step 0 never plans, so it need not fit a model
    assert stc_steps(sched, t) <= stc_steps(sched, 0)
