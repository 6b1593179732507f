// Offline viewer for the observability artifacts the bench harness
// writes: loads a `spardl-run-metrics/2` JSON (whose runs embed their
// critical-path analysis) and/or a standalone `spardl-timeseries/1`
// JSON, and renders the critical-path, what-if, per-iteration, and
// straggler tables without re-running the simulation.
//
//   $ ./build/examples/spardl-analyze --metrics metrics.json
//         [--timeseries timeseries.json]
//
// Exits 2 on a bad command line (no flag, a positional argument, an
// unknown flag), and 1 when an artifact is missing/malformed or a run's
// critical-path identity is broken (the segments no longer sum to the
// end-to-end simulated time), so CI can gate on it directly.

#include <cstdio>
#include <cstring>
#include <fstream>
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
    "usage: spardl-analyze [--metrics FILE] [--timeseries FILE]\n";

JsonValue LoadJsonOrDie(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "spardl-analyze: cannot open '%s'\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::optional<JsonValue> parsed = JsonParse(buffer.str());
  if (!parsed.has_value()) {
    std::fprintf(stderr, "spardl-analyze: '%s' is not valid JSON\n",
                 path.c_str());
    std::exit(1);
  }
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
    std::fprintf(stderr,
                 "spardl-analyze: '%s' has schema '%s', want "
                 "spardl-run-metrics/2\n",
                 path.c_str(), schema.c_str());
    std::exit(1);
  }
  const JsonValue* runs = doc.Find("runs");
  if (runs == nullptr || !runs->is_array()) {
    std::fprintf(stderr, "spardl-analyze: '%s' has no runs array\n",
                 path.c_str());
    std::exit(1);
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
    std::fprintf(stderr,
                 "spardl-analyze: '%s' has schema '%s', want "
                 "spardl-timeseries/1\n",
                 path.c_str(), schema.c_str());
    std::exit(1);
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

int Main(int argc, char** argv) {
  std::optional<std::string> metrics_path;
  std::optional<std::string> timeseries_path;
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
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n%s", arg, kUsage);
      std::exit(2);
    }
  }
  if (!metrics_path.has_value() && !timeseries_path.has_value()) {
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
  return 0;
}

}  // namespace
}  // namespace spardl

int main(int argc, char** argv) { return spardl::Main(argc, argv); }
