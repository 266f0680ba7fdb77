// Structured logging sink for the study pipeline, replacing the bare
// `verbose` stderr flag. Three levels:
//
//   quiet    — nothing (the default);
//   progress — one line per pipeline phase (per-matrix sweep progress, cache
//              hits, file writes): what `--verbose` used to print;
//   debug    — additionally, per-phase detail (per-ordering timings, cache
//              probing).
//
// The level comes from `ORDO_LOG=quiet|progress|debug` (see
// obs::init_from_env) or set_log_level(). Lines go to stderr under a mutex
// so concurrent threads cannot interleave partial lines.
#pragma once

#include <string>

namespace ordo::obs {

enum class LogLevel { kQuiet = 0, kProgress = 1, kDebug = 2 };

LogLevel log_level();
void set_log_level(LogLevel level);

/// Parses "quiet"/"progress"/"debug" (case-insensitive; also accepts the
/// numeric levels 0/1/2). Throws invalid_argument_error on anything else.
LogLevel parse_log_level(const std::string& name);

/// Display name of a level ("quiet", "progress", "debug").
std::string log_level_name(LogLevel level);

/// True when a message at `level` would be emitted.
bool log_enabled(LogLevel level);

/// printf-style logging; a newline is appended. No-op below the current
/// level.
void logf(LogLevel level, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace ordo::obs
