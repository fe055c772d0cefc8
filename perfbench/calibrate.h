// Machine-speed calibration for the end-to-end metrics (README.md, "Noise
// and bounds"). A fixed kernel that uses none of lumina-sim's code is timed
// next to every measured iteration, so that a run can be scaled to a
// reference machine speed: the host this benchmark runs on shares its
// cores with other tenants, and its speed drifts by up to 2x for minutes.
#pragma once

namespace perfbench {

/// Host ms of the calibration kernel on the reference machine. Dividing a
/// run's median calibration time by this gives how much slower the host
/// ran than the reference during that run.
inline constexpr double kReferenceCalibrationMs = 12.5;

/// Runs the calibration kernel once on each of `threads` threads at once
/// and returns the host ms of the slowest one.
double time_calibration(int threads);

}  // namespace perfbench
