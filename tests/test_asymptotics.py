"""Estimate reports on a recorded run: plain Python verdicts, and vacuous
passes labelled as such."""

from fbcsf import asymptotics, oval


def test_estimate_report_on_disk_run(runs, ndisk):
    traj = runs("disk_r03_n100")
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    report = asymptotics.verify_estimates(traj, 0.25, lam0)
    assert all(type(rec.passed) is bool for rec in report.records)
    # on the disk the height-ratio defect is positive on fewer than eight
    # states, so both pinches hold outright and report the required rate
    for name in ("height_ratio_lower", "height_ratio_upper"):
        rec = report.record(name)
        assert rec.extras["vacuous"] is True
        assert rec.passed
        assert rec.fitted_rate == rec.required_rate
