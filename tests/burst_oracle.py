"""Reference oracle for SSB burst delivery and measurement.

Production delivers bursts through :meth:`Deployment._deliver_tick`,
which batches a tick's (station, user) links into one grid for
multi-mobile deployments and calls the vectorized single-link
:meth:`LinkEngine.measure_burst` for a single mobile.  This module is
the slow, obviously-correct spelling of the same thing, kept only for
the equivalence tests:

* :func:`measure_burst` — the per-dwell loop: one
  :meth:`BaseStation.tx_gain_dbi` and one :meth:`Channel.rss_dbm` call
  per transmit dwell, strict-improvement argmax over the dwells that
  clear the detection threshold;
* :func:`deliver_tick` — per-station, per-mobile delivery in
  registration order: :meth:`Mobile.begin_burst` arbitration, the
  spatial-index exclusion check, :func:`measure_burst`, then
  :meth:`Mobile.complete_burst`, with one ``bursts.<cell>`` counter
  bump per station.

:func:`install` puts :func:`deliver_tick` in place of
``Deployment._deliver_tick``; it must run before a deployment's
``start()`` binds the method into its burst scheduler.  Both paths
consume every RNG stream in the same order, so an artifact produced
under the oracle must equal the production artifact byte for byte.
"""

from typing import Optional

from repro.measure.report import RssMeasurement
from repro.net.deployment import Deployment


def measure_burst(
    links,
    station,
    mobile_id: str,
    mobile_pose,
    rx_gain_fn,
    rx_beam: int,
    time_s: float,
    detection_snr_db: Optional[float] = None,
) -> RssMeasurement:
    """Per-dwell reference for :meth:`LinkEngine.measure_burst`."""
    budget = station.link_budget
    threshold = (
        budget.detection_snr_db if detection_snr_db is None else detection_snr_db
    )
    bearing_to_mobile = station.pose.bearing_to(mobile_pose.position)
    rx_gain = rx_gain_fn(rx_beam, mobile_pose.bearing_to(station.pose.position))
    link = links.link_id(station.cell_id, mobile_id)
    best_rss = None
    best_tx = None
    for tx_beam in station.schedule.beams_in_burst():
        tx_gain = station.tx_gain_dbi(tx_beam, bearing_to_mobile)
        # Dwells within a burst are microseconds apart: geometry and
        # large-scale state are evaluated at the burst timestamp, but
        # each dwell draws its own small-scale fade.
        rss = links.channel.rss_dbm(
            link,
            time_s,
            station.pose,
            mobile_pose,
            tx_gain,
            rx_gain,
            station.tx_power_dbm,
        )
        if budget.snr_db(rss) < threshold:
            continue
        if best_rss is None or rss > best_rss:
            best_rss = rss
            best_tx = tx_beam
    if best_rss is None:
        return RssMeasurement(time_s, station.cell_id, rx_beam)
    return RssMeasurement(
        time_s,
        station.cell_id,
        rx_beam,
        tx_beam=best_tx,
        rss_dbm=best_rss,
        snr_db=budget.snr_db(best_rss),
    )


def deliver_burst(deployment, station, mobile) -> None:
    """One station's burst to one mobile, end to end."""
    now = deployment.sim.now
    rx_beam = mobile.begin_burst(station, now)
    if rx_beam is None:
        return
    if deployment._excluded(station, mobile, now):
        mobile.complete_burst(RssMeasurement(now, station.cell_id, rx_beam))
        return
    pose = mobile.pose_at(now)
    mobile.complete_burst(
        measure_burst(
            deployment.links,
            station,
            mobile.mobile_id,
            pose,
            mobile.rx_gain_fn(now, pose),
            rx_beam,
            now,
        )
    )


def deliver_tick(deployment, stations) -> None:
    """Reference for :meth:`Deployment._deliver_tick`."""
    for station in stations:
        deployment.metrics.incr(f"bursts.{station.cell_id}")
        for mobile in deployment.mobiles:
            deliver_burst(deployment, station, mobile)


def install(monkeypatch) -> None:
    """Route every deployment started afterwards through the oracle."""
    monkeypatch.setattr(Deployment, "_deliver_tick", deliver_tick)
