// Offline viewer for the observability artifacts the bench harness
// writes: loads a `spardl-run-metrics/2` JSON (whose runs embed their
// critical-path analysis) and/or a standalone `spardl-timeseries/1`
// JSON, and renders the critical-path, what-if, per-iteration, and
// straggler tables without re-running the simulation.
//
//   $ ./build/examples/spardl-analyze --metrics metrics.json
//         [--timeseries timeseries.json]
//
// It is also the micro-bench gate: `--micro-run` reads a
// bench_micro_primitives JSON run and gates it against the committed
// `spardl-bench-micro/2` history (see MicroGate below).
//
//   $ ./build/examples/spardl-analyze --micro-run run.json
//         --micro-history BENCH_micro.json [--micro-out BENCH_micro.json]
//
// Exits 2 on a bad command line (no flag, a positional argument, an
// unknown flag, a micro flag without both inputs), and 1 when an artifact
// is missing/malformed, a run's critical-path identity is broken (the
// segments no longer sum to the end-to-end simulated time) or a kernel
// fails the micro gate, so CI can gate on it directly.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "metrics/table.h"
#include "obs/analysis.h"
#include "obs/json.h"

namespace spardl {
namespace {

constexpr const char* kUsage =
    "usage: spardl-analyze [--metrics FILE] [--timeseries FILE]\n"
    "       spardl-analyze --micro-run FILE --micro-history FILE "
    "[--micro-out FILE]\n";

[[noreturn]] void DieBadFile(const std::string& path, const std::string& why) {
  std::fprintf(stderr, "spardl-analyze: '%s' %s\n", path.c_str(), why.c_str());
  std::exit(1);
}

JsonValue LoadJsonOrDie(const std::string& path) {
  std::ifstream file(path);
  if (!file) DieBadFile(path, "cannot be opened");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::optional<JsonValue> parsed = JsonParse(buffer.str());
  if (!parsed.has_value()) DieBadFile(path, "is not valid JSON");
  return std::move(*parsed);
}

// Renders one run's embedded `spardl-analysis/1` object in the same shape
// `CriticalPathTable`/`WhatIfTable` print at record time. Returns the
// identity verdict so main can turn a broken chain into a non-zero exit.
bool PrintAnalysis(const JsonValue& analysis) {
  const JsonValue* identity = analysis.Find("identity_ok");
  const bool identity_ok =
      identity != nullptr && identity->type == JsonValue::Type::kBool &&
      identity->bool_value;
  const double makespan = analysis.NumberOr("makespan_seconds", 0.0);
  const double path = analysis.NumberOr("path_seconds", 0.0);
  std::printf(
      "critical path: makespan %.9f s, path %.9f s, %d segments, "
      "identity %s (ends on w%d)\n",
      makespan, path, static_cast<int>(analysis.NumberOr("segments", 0.0)),
      identity_ok ? "OK" : "BROKEN",
      static_cast<int>(analysis.NumberOr("end_worker", -1.0)));

  TablePrinter kinds({"kind", "seconds", "share"});
  if (const JsonValue* by_kind = analysis.Find("by_kind");
      by_kind != nullptr && by_kind->is_object()) {
    for (const auto& [kind, seconds] : by_kind->object_items) {
      if (!seconds.is_number()) continue;
      kinds.AddRow({kind, StrFormat("%.9f", seconds.number_value),
                    path > 0.0
                        ? StrFormat("%.1f%%",
                                    seconds.number_value / path * 100.0)
                        : "-"});
    }
  }
  kinds.AddRow({"total (path)", StrFormat("%.9f", path), "100.0%"});
  std::printf("%s", kinds.ToString().c_str());

  if (const JsonValue* by_link = analysis.Find("by_link");
      by_link != nullptr && by_link->is_array() &&
      !by_link->array_items.empty()) {
    std::printf("links on the critical path:\n");
    TablePrinter links(
        {"link", "queue (s)", "alpha (s)", "serialize (s)", "total (s)"});
    size_t shown = 0;
    for (const JsonValue& c : by_link->array_items) {
      if (shown++ >= 8) break;
      const double queue = c.NumberOr("queue_seconds", 0.0);
      const double alpha = c.NumberOr("alpha_seconds", 0.0);
      const double serialize = c.NumberOr("serialize_seconds", 0.0);
      links.AddRow({c.StringOr("name", "?"), StrFormat("%.9f", queue),
                    StrFormat("%.9f", alpha), StrFormat("%.9f", serialize),
                    StrFormat("%.9f", queue + alpha + serialize)});
    }
    std::printf("%s", links.ToString().c_str());
  }

  if (const JsonValue* what_if = analysis.Find("what_if");
      what_if != nullptr && what_if->is_array()) {
    std::vector<WhatIfResult> results;
    for (const JsonValue& entry : what_if->array_items) {
      WhatIfResult result;
      result.name = entry.StringOr("name", "?");
      result.path_seconds = entry.NumberOr("path_seconds", 0.0);
      result.speedup = entry.NumberOr("speedup", 1.0);
      results.push_back(std::move(result));
    }
    std::printf("%s", WhatIfTable(results).c_str());
  }
  return identity_ok;
}

// Returns the number of runs whose critical-path identity is broken.
int PrintMetricsDoc(const std::string& path) {
  const JsonValue doc = LoadJsonOrDie(path);
  const std::string schema = doc.StringOr("schema", "");
  if (schema != "spardl-run-metrics/2") {
    DieBadFile(path, "has schema '" + schema + "', want spardl-run-metrics/2");
  }
  const JsonValue* runs = doc.Find("runs");
  if (runs == nullptr || !runs->is_array()) {
    DieBadFile(path, "has no runs array");
  }
  int broken = 0;
  size_t index = 0;
  for (const JsonValue& run : runs->array_items) {
    std::printf("run %zu '%s' on %s (%s): makespan %.6fs\n", ++index,
                run.StringOr("label", "?").c_str(),
                run.StringOr("topology", "?").c_str(),
                run.StringOr("engine", "?").c_str(),
                run.NumberOr("makespan_seconds", 0.0));
    const JsonValue* analysis = run.Find("analysis");
    if (analysis == nullptr || !analysis->is_object()) {
      std::printf("(no embedded analysis)\n");
      continue;
    }
    if (!PrintAnalysis(*analysis)) ++broken;
  }
  return broken;
}

void PrintTimeSeriesDoc(const std::string& path) {
  const JsonValue doc = LoadJsonOrDie(path);
  const std::string schema = doc.StringOr("schema", "");
  if (schema != "spardl-timeseries/1") {
    DieBadFile(path, "has schema '" + schema + "', want spardl-timeseries/1");
  }
  TimeSeriesReport report;
  report.workers = static_cast<int>(doc.NumberOr("workers", 0.0));
  report.iterations = static_cast<int>(doc.NumberOr("iterations", 0.0));
  report.straggler_factor = doc.NumberOr("straggler_factor", 0.0);
  report.median_worker_wall = doc.NumberOr("median_worker_wall", 0.0);
  if (const JsonValue* series = doc.Find("series");
      series != nullptr && series->is_array()) {
    for (const JsonValue& row : series->array_items) {
      IterationStat stat;
      stat.iteration = static_cast<int>(row.NumberOr("iteration", 0.0));
      stat.wall_min = row.NumberOr("wall_min", 0.0);
      stat.wall_median = row.NumberOr("wall_median", 0.0);
      stat.wall_max = row.NumberOr("wall_max", 0.0);
      stat.wall_p99 = row.NumberOr("wall_p99", 0.0);
      stat.comm_mean = row.NumberOr("comm_mean", 0.0);
      stat.compute_mean = row.NumberOr("compute_mean", 0.0);
      report.series.push_back(std::move(stat));
    }
  }
  if (const JsonValue* stragglers = doc.Find("stragglers");
      stragglers != nullptr && stragglers->is_array()) {
    for (const JsonValue& row : stragglers->array_items) {
      StragglerEntry entry;
      entry.worker = static_cast<int>(row.NumberOr("worker", -1.0));
      entry.mean_wall = row.NumberOr("mean_wall", 0.0);
      entry.ratio = row.NumberOr("ratio", 0.0);
      report.stragglers.push_back(entry);
    }
  }
  std::printf("time series '%s': %d workers, %d iterations\n",
              doc.StringOr("label", "?").c_str(), report.workers,
              report.iterations);
  std::printf("%s", TimeSeriesTable(report).c_str());
  std::printf("%s", StragglerTable(report).c_str());
}

// ---------------------------------------------------------------------------
// MicroGate: the perf gate over bench_micro_primitives. A run's value for a
// kernel is its best items/s (the "max" aggregate over the interleaved
// repetitions). Whole-host speed phases move every kernel together, so the
// gate compares each kernel's best divided by BM_Reference's best in the same
// run with that ratio in the last committed history entry from the same host
// that has a BM_Reference value. Host-less and other-host entries are never
// compared.

constexpr const char* kMicroSchema = "spardl-bench-micro/2";
constexpr const char* kReference = "BM_Reference";
// A kernel fails when its kernel/reference ratio falls below this share of
// the baseline entry's.
constexpr double kMicroGateFloor = 0.8;

// `benchmarks` must be a non-empty object of positive numbers.
void CheckMicroBenchmarks(const std::string& path, const std::string& where,
                          const JsonValue* benchmarks) {
  if (benchmarks == nullptr || !benchmarks->is_object() ||
      benchmarks->object_items.empty()) {
    DieBadFile(path, "has no '" + where + "' benchmarks");
  }
  for (const auto& [name, value] : benchmarks->object_items) {
    if (!value.is_number() || !std::isfinite(value.number_value) ||
        value.number_value <= 0.0) {
      DieBadFile(path, where + "['" + name + "'] is not a positive number");
    }
  }
}

// Loads the committed history and checks its shape: the schema, a
// positive `latest`, and a commit and positive values in every entry.
JsonValue LoadMicroHistory(const std::string& path) {
  JsonValue doc = LoadJsonOrDie(path);
  const std::string schema = doc.StringOr("schema", "");
  if (schema != kMicroSchema) {
    DieBadFile(path, "has schema '" + schema + "', want " + kMicroSchema);
  }
  CheckMicroBenchmarks(path, "latest", doc.Find("latest"));
  const JsonValue* history = doc.Find("history");
  if (history == nullptr || !history->is_array() ||
      history->array_items.empty()) {
    DieBadFile(path, "has no 'history' entries");
  }
  for (size_t i = 0; i < history->array_items.size(); ++i) {
    const JsonValue& entry = history->array_items[i];
    const std::string where = StrFormat("history[%zu]", i);
    if (entry.StringOr("commit", "").empty()) {
      DieBadFile(path, where + " has no commit");
    }
    CheckMicroBenchmarks(path, where + ".benchmarks", entry.Find("benchmarks"));
  }
  return doc;
}

struct MicroRun {
  std::string host;
  std::map<std::string, double> best;  // kernel -> best items/s
};

// Reads google-benchmark's JSON output: every "max" aggregate, and the
// host it ran on.
MicroRun LoadMicroRun(const std::string& path) {
  const JsonValue doc = LoadJsonOrDie(path);
  MicroRun run;
  if (const JsonValue* context = doc.Find("context")) {
    run.host = context->StringOr("host_name", "");
  }
  if (const JsonValue* benchmarks = doc.Find("benchmarks");
      benchmarks != nullptr && benchmarks->is_array()) {
    for (const JsonValue& b : benchmarks->array_items) {
      const double ips = b.NumberOr("items_per_second", 0.0);
      if (b.StringOr("aggregate_name", "") == "max" && ips > 0.0 &&
          std::isfinite(ips)) {
        run.best[b.StringOr("run_name", "?")] = ips;
      }
    }
  }
  if (run.best.empty()) DieBadFile(path, "has no \"max\" aggregates");
  if (run.best.count(kReference) == 0) {
    DieBadFile(path, std::string("has no \"max\" aggregate of ") + kReference);
  }
  return run;
}

// Appends `value` in the layout BENCH_micro.json has always had (jsoncpp's
// styled writer, which CMake's string(JSON) used): two-space indent,
// "key" : , a container's bracket on a line of its own, numbers as %.17g
// with ".0" on integers. An unchanged document comes out byte for byte, so
// recording a run changes only the new entry and `latest`.
void AppendStyled(const JsonValue& v, const std::string& pad,
                  bool line_started, std::string* out) {
  const size_t n = v.is_object() ? v.object_items.size() : v.array_items.size();
  if ((v.is_object() || v.is_array()) && n > 0) {
    if (!line_started) *out += "\n" + pad;
    *out += v.is_object() ? "{" : "[";
    for (size_t i = 0; i < n; ++i) {
      *out += "\n" + pad + "  ";
      if (v.is_object()) {
        *out += "\"" + JsonEscape(v.object_items[i].first) + "\" : ";
        AppendStyled(v.object_items[i].second, pad + "  ", false, out);
      } else {
        AppendStyled(v.array_items[i], pad + "  ", true, out);
      }
      if (i + 1 < n) *out += ",";
    }
    *out += "\n" + pad + (v.is_object() ? "}" : "]");
  } else if (v.is_number()) {
    std::string number = StrFormat("%.17g", v.number_value);
    if (number.find_first_of(".e") == std::string::npos) number += ".0";
    *out += number;
  } else if (v.is_string()) {
    *out += "\"" + JsonEscape(v.string_value) + "\"";
  } else {
    *out += v.is_object()                      ? "{}"
            : v.is_array()                     ? "[]"
            : v.type == JsonValue::Type::kNull ? "null"
            : v.bool_value                     ? "true"
                                               : "false";
  }
}

// HEAD's short hash in the repository holding `path`, "unknown" outside one.
std::string ShortHeadOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  for (size_t at = 0; (at = dir.find('\'', at)) != std::string::npos; at += 4) {
    dir.replace(at, 1, "'\\''");  // close the quote, an escaped ', reopen
  }
  const std::string command =
      "git -C '" + dir + "' rev-parse --short HEAD 2>/dev/null";
  std::string commit;
  if (FILE* git = popen(command.c_str(), "r")) {
    char buffer[64];
    while (std::fgets(buffer, sizeof(buffer), git) != nullptr) commit += buffer;
    pclose(git);
  }
  commit.erase(commit.find_last_not_of(" \n") + 1);
  return commit.empty() ? "unknown" : commit;
}

// Writes the committed history with this run as its newest {commit, host}
// entry (replacing the newest entry when it has the same commit and host)
// and as `latest`. Recording the run is a copy of this file over the
// committed one.
void WriteMicroHistory(JsonValue doc, const MicroRun& run,
                       const std::string& history_path,
                       const std::string& out_path) {
  // %.17g round-trips every double, so the entry is built as JSON text.
  std::string text = "{\"benchmarks\":{";
  for (const auto& [name, ips] : run.best) {
    text += StrFormat("\"%s\":%.17g,", JsonEscape(name).c_str(), ips);
  }
  text.back() = '}';
  text += ",\"commit\":\"" + JsonEscape(ShortHeadOf(history_path)) +
          "\",\"host\":\"" + JsonEscape(run.host) + "\"}";
  JsonValue entry = JsonParse(text).value();
  // `doc` is this function's own copy, so its members may be edited.
  auto& entries = const_cast<JsonValue*>(doc.Find("history"))->array_items;
  *const_cast<JsonValue*>(doc.Find("latest")) = *entry.Find("benchmarks");
  if (!run.host.empty() && entries.back().StringOr("host", "") == run.host &&
      entries.back().StringOr("commit", "") == entry.StringOr("commit", "")) {
    entries.pop_back();
  }
  entries.push_back(std::move(entry));

  std::string out_text;
  AppendStyled(doc, "", true, &out_text);
  std::ofstream out(out_path);
  if (!(out << out_text << "\n").flush()) {
    DieBadFile(out_path, "cannot be written");
  }
  std::printf("wrote %s: %zu history entries, newest %s on '%s'\n",
              out_path.c_str(), entries.size(),
              entries.back().StringOr("commit", "?").c_str(), run.host.c_str());
}

// Returns 1 when a kernel fails the gate, 0 when every kernel passes or
// no baseline entry exists.
int GateMicroRun(const std::string& run_path, const std::string& history_path,
                 const std::optional<std::string>& out_path) {
  const JsonValue doc = LoadMicroHistory(history_path);
  const MicroRun run = LoadMicroRun(run_path);
  if (out_path.has_value()) {
    WriteMicroHistory(doc, run, history_path, *out_path);
  }

  const JsonValue* base = nullptr;
  std::string newest_same_host;
  for (const JsonValue& entry : doc.Find("history")->array_items) {
    if (run.host.empty() || entry.StringOr("host", "") != run.host) continue;
    newest_same_host = entry.StringOr("commit", "?");
    if (entry.Find("benchmarks")->Find(kReference) != nullptr) base = &entry;
  }
  if (base == nullptr) {
    std::string why = "no history entry from host '" + run.host + "'";
    if (!newest_same_host.empty()) {
      why += std::string(" has ") + kReference +
             " (newest from this host: " + newest_same_host + ")";
    }
    std::printf("%s: ratio gate skipped: %s\n", run_path.c_str(), why.c_str());
    return 0;
  }

  const std::string base_commit = base->StringOr("commit", "?");
  const JsonValue& then = *base->Find("benchmarks");
  const double ref_now = run.best.at(kReference);
  const double ref_then = then.NumberOr(kReference, 0.0);
  std::string load;
  std::getline(std::ifstream("/proc/loadavg"), load);
  TablePrinter table({"kernel", "best (M items/s)", "baseline", "raw",
                      "vs reference"});
  double log_raw = 0.0;
  int gated = 0;
  int failed = 0;
  for (const auto& [name, now] : run.best) {
    if (name == kReference) continue;
    const JsonValue* old = then.Find(name);
    if (old == nullptr) {
      std::printf("'%s' is new since %s: not gated\n", name.c_str(),
                  base_commit.c_str());
      continue;
    }
    const double raw = now / old->number_value;
    const double relative = raw / (ref_now / ref_then);
    table.AddRow({name, StrFormat("%.1f", now / 1e6),
                  StrFormat("%.1f", old->number_value / 1e6),
                  StrFormat("%.3fx", raw), StrFormat("%.3fx", relative)});
    log_raw += std::log(raw);
    ++gated;
    if (relative < kMicroGateFloor) {
      ++failed;
      std::fprintf(stderr,
                   "spardl-analyze: '%s' perf gate: '%s' kernel/reference "
                   "%.5g, baseline %.5g in %s (%.3fx, below %.2fx); "
                   "/proc/loadavg: %s\n",
                   run_path.c_str(), name.c_str(), now / ref_now,
                   old->number_value / ref_then, base_commit.c_str(),
                   relative, kMicroGateFloor, load.c_str());
    }
  }
  std::printf("%s against history entry %s (host '%s'):\n%s",
              run_path.c_str(), base_commit.c_str(), run.host.c_str(),
              table.ToString().c_str());
  std::printf("%s best %.1f M items/s, baseline %.1f (%.3fx); raw geometric "
              "mean %.3fx over %d kernels; /proc/loadavg: %s\n",
              kReference, ref_now / 1e6, ref_then / 1e6, ref_now / ref_then,
              gated > 0 ? std::exp(log_raw / gated) : 1.0, gated, load.c_str());
  if (failed > 0) return 1;
  std::printf("%s: ratio gate OK: %d kernels within %.0f%% of %s relative to "
              "%s\n",
              run_path.c_str(), gated, (1.0 - kMicroGateFloor) * 100.0,
              base_commit.c_str(), kReference);
  return 0;
}

int Main(int argc, char** argv) {
  std::optional<std::string> metrics_path;
  std::optional<std::string> timeseries_path;
  std::optional<std::string> micro_run;
  std::optional<std::string> micro_history;
  std::optional<std::string> micro_out;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto take_value = [&](const char* flag) -> std::optional<std::string> {
      const size_t len = std::strlen(flag);
      if (std::strncmp(arg, flag, len) != 0) return std::nullopt;
      if (arg[len] == '=') return std::string(arg + len + 1);
      if (arg[len] != '\0') return std::nullopt;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n%s", flag, kUsage);
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (auto v = take_value("--metrics")) {
      metrics_path = *v;
    } else if (auto ts = take_value("--timeseries")) {
      timeseries_path = *ts;
    } else if (auto run = take_value("--micro-run")) {
      micro_run = *run;
    } else if (auto history = take_value("--micro-history")) {
      micro_history = *history;
    } else if (auto out = take_value("--micro-out")) {
      micro_out = *out;
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n%s", arg, kUsage);
      std::exit(2);
    }
  }
  const bool micro = micro_run || micro_history || micro_out;
  if ((!metrics_path && !timeseries_path && !micro) ||
      (micro && (!micro_run || !micro_history))) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  int broken = 0;
  if (metrics_path.has_value()) broken = PrintMetricsDoc(*metrics_path);
  if (timeseries_path.has_value()) PrintTimeSeriesDoc(*timeseries_path);
  if (broken > 0) {
    std::fprintf(stderr,
                 "spardl-analyze: %d run(s) with a broken critical-path "
                 "identity\n",
                 broken);
    return 1;
  }
  return micro ? GateMicroRun(*micro_run, *micro_history, micro_out) : 0;
}

}  // namespace
}  // namespace spardl

int main(int argc, char** argv) { return spardl::Main(argc, argv); }
