"""The benchmark's tracer patches modunits callables by name: every name it patches must exist.

A module that drops such a name would otherwise pass these tests and fail
only when a traced benchmark run raises.
"""
from pathlib import Path

from modunits import classical, cusps, cycloq, qseries, thetag, units, verify

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = {
    "classical": classical, "cusps": cusps, "cycloq": cycloq, "qseries": qseries,
    "thetag": thetag, "units": units, "verify": verify,
}
CLASSES = (cycloq.Cyclotomic, qseries.PuiseuxSeries, thetag.SiegelPoint)


def test_install_and_uninstall_restore_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    before = [dict(vars(owner)) for owner in (*MODULES.values(), *CLASSES)]
    tracer = Tracer(MODULES)
    try:
        tracer.install()
        assert thetag.itertools is not before[list(MODULES).index("thetag")]["itertools"]
        thetag.theta_constant(thetag.ThetaChar((0,), (0,)), thetag.SiegelPoint([[1j]]))
        assert tracer.span_calls["thetag.theta_constant"] == 1
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in (*MODULES.values(), *CLASSES)] == before
