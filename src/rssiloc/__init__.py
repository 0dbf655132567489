"""RSSI-based localization for 802.15.4 networks under WiFi interference.

Library layout:

    geometry      points, rectangles, dBm to mW conversion
    radio         log-distance path-loss parameters, ranging
    spectrum      2.4 GHz channel geometry, interferers, packet outcomes
    channel       energy scan, channel choice, failure-ratio monitoring
    localization  least-squares lateration
    tracking      range-driven planar Kalman filter
    simulate      deployment planning and end-to-end scenario runs
    kernels       numeric cores shared by every layer
    cli           `rssiloc` command-line front end
"""

from .geometry import (
    AnchorNode,
    Dbm,
    NodeId,
    Point2D,
    Rect,
    dbm_to_milliwatts,
)
from .radio import (
    PathLossParams,
    RadioSpec,
    ShadowingModel,
    distance_from_rssi,
)
from .spectrum import (
    ChannelEnvironment,
    InterfererProfile,
    WifiChannel,
    ZigbeeChannel,
    channels_overlap,
    packet_success,
)
from .channel import (
    ChannelMonitor,
    ScanConfig,
    ScanReport,
    scan_all_channels,
    select_channel,
)
from .localization import (
    PositionEstimate,
    TrilaterationProblem,
    least_squares_multilaterate,
    trilaterate,
)
from .tracking import (
    KalmanConfig,
    KalmanState,
    RangeMeasurement,
    filter_step,
    gain,
    observation_jacobian,
    predict,
    update,
)
from .simulate import (
    DeploymentPlan,
    Metrics,
    RunResult,
    Scenario,
    compute_metrics,
    plan_square_grid_deployment,
    run_batch,
    run_scenario,
    step_errors,
    verify_three_coverage,
)

__version__ = "0.1.0"
