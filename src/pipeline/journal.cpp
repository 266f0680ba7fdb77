#include "pipeline/journal.hpp"

#include <cstdio>
#include <utility>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "select/model.hpp"

namespace ordo::pipeline {
namespace {

// The journal speaks the shared ordo JSON subset (obs/json.hpp — hoisted
// from this file's original private parser). A parse failure anywhere
// throws invalid_argument_error, which the loader treats as the crash point
// of the interrupted run.
using obs::JsonValue;
using obs::append_json_string;

void append_double(std::string& out, double v) {
  obs::append_json_double(out, v);  // %.17g — round-trip exact
}

// ---------------------------------------------------------------------------
// Fingerprint (FNV-1a over the result-affecting inputs).
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t fnv1a_str(std::uint64_t hash, const std::string& s) {
  return fnv1a(hash, s.data(), s.size());
}

template <typename T>
std::uint64_t fnv1a_pod(std::uint64_t hash, T value) {
  return fnv1a(hash, &value, sizeof(value));
}

// ---------------------------------------------------------------------------
// Record serialization.
// ---------------------------------------------------------------------------

std::string encode_record(const JournalRecord& record) {
  std::string line;
  line.reserve(4096);
  line += "{\"index\":";
  line += std::to_string(record.index);
  line += ",\"per_machine\":[";
  bool first = true;
  for (const auto& [key, row] : record.rows) {
    if (!first) line += ',';
    first = false;
    line += "{\"machine\":";
    append_json_string(line, key.first);
    line += ",\"kernel\":";
    append_json_string(line, key.second.id());
    line += ",\"group\":";
    append_json_string(line, row.group);
    line += ",\"name\":";
    append_json_string(line, row.name);
    line += ",\"rows\":" + std::to_string(row.rows);
    line += ",\"cols\":" + std::to_string(row.cols);
    line += ",\"nnz\":" + std::to_string(row.nnz);
    line += ",\"threads\":" + std::to_string(row.threads);
    line += ",\"m\":[";
    for (std::size_t k = 0; k < row.orderings.size(); ++k) {
      const OrderingMeasurement& m = row.orderings[k];
      if (k > 0) line += ',';
      line += '[';
      line += std::to_string(m.min_thread_nnz);
      line += ',';
      line += std::to_string(m.max_thread_nnz);
      line += ',';
      append_double(line, m.mean_thread_nnz);
      line += ',';
      append_double(line, m.imbalance);
      line += ',';
      append_double(line, m.seconds);
      line += ',';
      append_double(line, m.gflops_max);
      line += ',';
      append_double(line, m.gflops_mean);
      line += ',';
      line += std::to_string(m.bandwidth);
      line += ',';
      line += std::to_string(m.profile);
      line += ',';
      line += std::to_string(m.off_diagonal_nnz);
      if (m.has_hw) {
        // Host hardware-counter tail (15-tuple); absent counters keep the
        // original 10-tuple so hw-less journals stay byte-identical.
        line += ",1,";
        append_double(line, m.hw_ipc);
        line += ',';
        append_double(line, m.hw_llc_miss_rate);
        line += ',';
        append_double(line, m.hw_gbps);
        line += ',';
        append_double(line, m.hw_seconds);
      }
      line += ']';
    }
    line += ']';
    if (row.has_select) {
      // Selector annotation (--auto-order): a fixed 6-tuple per row. Rows
      // without it keep the original record shape, so journals from default
      // sweeps stay byte-identical; the header fingerprint includes the
      // auto-order mode, budget, and model fingerprint, so the two shapes
      // never mix within one journal.
      line += ",\"sel\":[";
      line += std::to_string(row.pick);
      line += ',';
      line += std::to_string(row.oracle);
      line += ',';
      append_double(line, row.regret);
      line += ',';
      append_double(line, row.pick_net_seconds);
      line += ',';
      append_double(line, row.oracle_net_seconds);
      line += ',';
      append_double(line, row.pick_amortize_calls);
      line += ']';
    }
    line += '}';
  }
  line += "]}";
  return line;
}

JournalRecord decode_record(const std::string& line) {
  const JsonValue v = obs::parse_json(line);
  JournalRecord record;
  record.index = static_cast<int>(v.at("index").as_int());
  for (const JsonValue& pm : v.at("per_machine").items) {
    MeasurementRow row;
    const std::string machine = pm.at("machine").as_string();
    // Kernels are journaled by registry id; the header fingerprint hashes
    // the sweep's kernel set, so a record can only carry ids this run
    // resolves too.
    const SpmvKernel kernel{pm.at("kernel").as_string()};
    row.group = pm.at("group").as_string();
    row.name = pm.at("name").as_string();
    row.rows = static_cast<index_t>(pm.at("rows").as_int());
    row.cols = static_cast<index_t>(pm.at("cols").as_int());
    row.nnz = pm.at("nnz").as_int();
    row.threads = static_cast<int>(pm.at("threads").as_int());
    for (const JsonValue& tuple : pm.at("m").items) {
      require(tuple.items.size() == 10 || tuple.items.size() == 15,
              "journal: bad measurement arity");
      OrderingMeasurement m;
      m.min_thread_nnz = tuple.items[0].as_int();
      m.max_thread_nnz = tuple.items[1].as_int();
      m.mean_thread_nnz = tuple.items[2].as_double();
      m.imbalance = tuple.items[3].as_double();
      m.seconds = tuple.items[4].as_double();
      m.gflops_max = tuple.items[5].as_double();
      m.gflops_mean = tuple.items[6].as_double();
      m.bandwidth = tuple.items[7].as_int();
      m.profile = tuple.items[8].as_int();
      m.off_diagonal_nnz = tuple.items[9].as_int();
      if (tuple.items.size() == 15) {
        m.has_hw = tuple.items[10].as_int() != 0;
        m.hw_ipc = tuple.items[11].as_double();
        m.hw_llc_miss_rate = tuple.items[12].as_double();
        m.hw_gbps = tuple.items[13].as_double();
        m.hw_seconds = tuple.items[14].as_double();
      }
      row.orderings.push_back(m);
    }
    if (const JsonValue* sel = pm.find("sel")) {
      require(sel->items.size() == 6, "journal: bad selection arity");
      row.has_select = true;
      row.pick = static_cast<int>(sel->items[0].as_int());
      row.oracle = static_cast<int>(sel->items[1].as_int());
      row.regret = sel->items[2].as_double();
      row.pick_net_seconds = sel->items[3].as_double();
      row.oracle_net_seconds = sel->items[4].as_double();
      row.pick_amortize_calls = sel->items[5].as_double();
    }
    record.rows.emplace(std::make_pair(machine, kernel), std::move(row));
  }
  return record;
}

std::string encode_header(const JournalKey& key) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"format\":\"ordo_study_journal\",\"version\":1,"
                "\"matrices\":%d,\"fingerprint\":\"%016llx\"}",
                key.matrices,
                static_cast<unsigned long long>(key.fingerprint));
  return buf;
}

}  // namespace

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_string(out, s);
  return out;
}

JournalKey make_journal_key(const std::vector<CorpusEntry>& corpus,
                            const StudyOptions& options) {
  JournalKey key;
  key.matrices = static_cast<int>(corpus.size());
  std::uint64_t h = 14695981039346656037ULL;
  for (const CorpusEntry& entry : corpus) {
    h = fnv1a_str(h, entry.group);
    h = fnv1a_str(h, entry.name);
    h = fnv1a_pod(h, entry.matrix.num_rows());
    h = fnv1a_pod(h, entry.matrix.num_cols());
    h = fnv1a_pod(h, entry.matrix.num_nonzeros());
  }
  h = fnv1a_pod(h, options.model.cache_scale);
  h = fnv1a_pod(h, options.model.sync_overhead_us);
  h = fnv1a_pod(h, options.reorder.gp_parts);
  h = fnv1a_pod(h, options.reorder.gp_nnz_weighted);
  h = fnv1a_pod(h, options.reorder.hp_parts);
  h = fnv1a_pod(h, options.reorder.gray_bits);
  h = fnv1a_pod(h, options.reorder.gray_dense_threshold);
  h = fnv1a_pod(h, options.reorder.nd_leaf_size);
  h = fnv1a_pod(h, options.reorder.sbd_leaf_rows);
  h = fnv1a_pod(h, options.reorder.seed);
  // The resolved kernel set is part of the sweep's identity: a journal
  // written for {csr_1d, csr_2d} must not be replayed into a sweep that
  // also expects merge rows (and vice versa).
  for (const SpmvKernel& kernel : study_kernels(options)) {
    h = fnv1a_str(h, kernel.id());
  }
  // The hw configuration is identity too: a journal written without the
  // host-measured columns must not be replayed into a run that expects
  // them, and the counter backend decides what those columns mean.
  h = fnv1a_pod(h, options.hw_counters);
  if (options.hw_counters) {
    h = fnv1a_str(h, obs::hw::config_fingerprint());
  }
  // So is the auto-order mode: its rows carry selection tuples computed by
  // a specific committed model under a specific SpMV budget, and a journal
  // written under either another model or another budget (or no selector at
  // all) must not be replayed into this run.
  h = fnv1a_pod(h, options.auto_order);
  if (options.auto_order) {
    h = fnv1a_pod(h, options.spmv_budget);
    h = fnv1a_pod(h, select::model_fingerprint());
  }
  key.fingerprint = h;
  return key;
}

std::vector<JournalRecord> load_journal(const std::string& path,
                                        const JournalKey& key) {
  std::ifstream in(path);
  if (!in.good()) return {};

  std::string line;
  if (!std::getline(in, line)) return {};
  if (line != encode_header(key)) {
    obs::logf(obs::LogLevel::kProgress,
              "journal %s does not match this corpus/options; ignoring it",
              path.c_str());
    return {};
  }

  std::vector<JournalRecord> records;
  std::vector<bool> seen(static_cast<std::size_t>(key.matrices), false);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JournalRecord record;
    try {
      record = decode_record(line);
    } catch (const std::exception& e) {
      // An unparsable line is where the previous run died mid-append.
      obs::logf(obs::LogLevel::kDebug, "journal: stopping at corrupt line: %s",
                e.what());
      break;
    }
    if (record.index < 0 || record.index >= key.matrices ||
        seen[static_cast<std::size_t>(record.index)]) {
      continue;
    }
    seen[static_cast<std::size_t>(record.index)] = true;
    records.push_back(std::move(record));
  }
  return records;
}

JournalWriter::JournalWriter(const std::string& path, const JournalKey& key) {
  out_.open(path, std::ios::trunc);
  require(out_.good(), "journal: cannot open " + path);
  out_ << encode_header(key) << '\n' << std::flush;
}

void JournalWriter::append(const JournalRecord& record) {
  MutexLock lock(mutex_);
  out_ << encode_record(record) << '\n' << std::flush;
}

}  // namespace ordo::pipeline
