// On-disk checkpoint journal for the study pipeline.
//
// Layout: one JSON document per line ("JSON Lines") in
// `<checkpoint_dir>/study_journal.jsonl`. The first line is a header binding
// the journal to a (corpus, options) fingerprint; every following line is
// one completed matrix with its full set of per-(machine, kernel) rows.
// Appends are flushed line-by-line, so a killed run loses at most the line
// being written — the loader treats an unparsable tail as the crash point
// and replays everything before it.
//
// Doubles are serialized with 17 significant digits (round-trip exact), so
// a resumed study emits byte-identical result files to an uninterrupted one.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/thread_safety.hpp"

namespace ordo::pipeline {

/// Journal file name inside a checkpoint directory.
inline constexpr const char* kJournalFilename = "study_journal.jsonl";

/// Quotes and escapes `s` as a JSON string literal (shared by the journal
/// and the failure-row writer).
std::string json_quote(const std::string& s);

/// What a journal is valid for: replaying a journal written under a
/// different corpus or different model/reorder options would silently mix
/// incompatible measurements, so both are fingerprinted into the header.
struct JournalKey {
  int matrices = 0;
  std::uint64_t fingerprint = 0;
};

/// Fingerprints the corpus identity (per-entry name/group/shape/nnz) and
/// the result-affecting options (model + reorder knobs).
JournalKey make_journal_key(const std::vector<CorpusEntry>& corpus,
                            const StudyOptions& options);

/// One journal line: a completed matrix and its rows.
struct JournalRecord {
  int index = -1;  ///< position in the corpus
  MatrixStudyRows rows;
};

/// Reads a journal and returns the records whose header matches `key`.
/// Returns empty (never throws) when the file is missing, the header
/// mismatches, or the header is corrupt; stops at the first corrupt record
/// line. Duplicate or out-of-range indices are dropped.
std::vector<JournalRecord> load_journal(const std::string& path,
                                        const JournalKey& key);

/// Rewrites the journal (header + any replayed records) and appends one
/// flushed line per completed matrix. Thread-safe.
class JournalWriter {
 public:
  /// Truncates `path` and writes the header. Throws invalid_argument_error
  /// when the file cannot be opened.
  JournalWriter(const std::string& path, const JournalKey& key);

  void append(const JournalRecord& record);

 private:
  Mutex mutex_;
  std::ofstream out_ ORDO_GUARDED_BY(mutex_);
};

}  // namespace ordo::pipeline
