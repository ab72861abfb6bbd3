"""Two-view mmWave radar capture, processing, and fusion toolkit.

The pipeline runs raw chirp cubes through motion filtering, range and
Doppler FFTs, energy compensation, range gating, digital beamforming,
and velocity-ordered point selection, then aligns the two sensor
streams on a shared clock and packs fused point clouds into fixed-shape
feature tensors.
"""
from .fusion import (
    AlignedWindow,
    ClockOffset,
    PairedFrame,
    PairingResult,
    TensorFormatError,
    assemble_feature_tensor,
    calibrate_timestamps,
    cloud_feature_rows,
    gate_windows,
    merge_views,
    offset_from_clock_sample,
    pair_views,
    read_feature_tensor,
    write_feature_tensor,
)
from .io_files import (
    Capture,
    CaptureFormatError,
    dump_tensor,
    load_config,
    load_tensor,
    read_capture,
    save_config,
    write_capture,
    write_cloud_ply,
    write_clouds_csv,
    write_truth_csv,
)
from .rdmap import (
    MtiState,
    MtiStateError,
    ProcessingOptions,
    clutter_removal,
    doppler_fft,
    mti_filter,
    process_frame,
    range_fft,
)
from .simulate import (
    SceneFormatError,
    ScattererTruth,
    SimulatedSession,
    frame_count,
    load_scene,
    parse_scene,
    scatterer_truth,
    simulate_session,
    synthesize_frame,
)
from .spatial import (
    Candidates,
    beamform,
    dbf_weights,
    detect_points,
    energy_compensation,
    extract_point_cloud,
    project_to_cartesian,
    range_gate,
    select_by_velocity,
)
from .types import (
    C_LIGHT,
    ClockModel,
    ConfigError,
    FrameCube,
    PointCloud,
    RadarConfig,
    RadarPose,
    RangeDopplerMap,
    Scatterer,
    ScatterScene,
    Trajectory,
    default_pose_pair,
    mirror_pose,
    validate_config,
)

__version__ = "0.1.0"
