// STREAM-like sustainable memory bandwidth measurement, the denominator of
// the "achieved GB/s vs peak" column: the paper's roofline argument needs a
// *measured* peak for the host, not a spec-sheet number.
//
// Four kernels over large double arrays (copy, scale, add, triad — the
// classic STREAM set), each timed over several repetitions with every CPU
// in the affinity mask driving its own contiguous slice; the best rate across
// kernels is the peak. Arrays are sized well past LLC capacity so the
// traffic is DRAM traffic. The slices run on the process's one worker pool
// (pipeline::run_tasks), like the SpMV kernels' launches.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ordo::obs::hw {

struct MembwOptions {
  /// Bytes per array (three arrays are allocated). Default 64 MiB — far
  /// past any studied LLC. ORDO_MEMBW_MIB overrides in membw_options_from_env.
  std::size_t array_bytes = std::size_t{64} << 20;
  /// Timed repetitions per kernel; the best (minimum-time) rep is reported,
  /// matching STREAM's methodology.
  int reps = 5;
  /// Threads (the caller plus pool workers, pipeline::run_tasks); 0 = one
  /// per CPU in the affinity mask.
  int threads = 0;
};

/// Reads ORDO_MEMBW_MIB (>= 1) / ORDO_MEMBW_REPS (>= 1) /
/// ORDO_MEMBW_THREADS (0 up to the CPUs in the affinity mask); anything but
/// a whole number in range throws invalid_argument_error naming the
/// variable.
MembwOptions membw_options_from_env();

struct MembwKernelResult {
  std::string name;       ///< "copy", "scale", "add", "triad"
  double bytes = 0.0;     ///< bytes moved per repetition
  double seconds = 0.0;   ///< best repetition wall time
  double gbps = 0.0;
};

struct MembwResult {
  int threads = 0;
  std::size_t array_bytes = 0;
  std::vector<MembwKernelResult> kernels;
  double peak_gbps = 0.0;  ///< best rate across kernels
};

/// Runs the sweep (takes a few seconds at the default size). Also stores
/// the peak in the `hw.peak_gbps` gauge, the one place measured_peak_gbps()
/// reads a measurement from.
MembwResult measure_membw(const MembwOptions& options = {});

/// Parses ORDO_PEAK_GBPS once (an operator relaying a previous micro_membw
/// run; unset counts as 0). A value that is not a real number >= 0 throws
/// invalid_argument_error naming the variable, so a typo aborts a run
/// before any result is written. Called from init_from_env().
void read_peak_override_from_env();

/// The peak GB/s this process knows: ORDO_PEAK_GBPS as last read by
/// read_peak_override_from_env when above 0, else the `hw.peak_gbps` gauge
/// (the last measure_membw() result), else 0 (unknown).
double measured_peak_gbps();

}  // namespace ordo::obs::hw
