// Shared helpers for the experiment benchmarks: each bench binary prints
// a paper-vs-measured table for its figure before running the
// google-benchmark timing loops, so `./bench_*` regenerates both the
// qualitative result and its compile-time cost. The table owns the exit
// code: a bench exits 1 when any of its gate rows fails.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "src/service/json.h"

namespace cssame::benchutil {

/// printf into a std::string, for preformatted table cells.
[[gnu::format(printf, 1, 2)]] inline std::string fmt(const char* format,
                                                     ...) {
  va_list args;
  va_start(args, format);
  va_list sizing;
  va_copy(sizing, args);
  std::string out(static_cast<std::size_t>(
                      std::vsnprintf(nullptr, 0, format, sizing)),
                  '\0');
  va_end(sizing);
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

/// This machine's hardware threads, at least 1. Every BENCH file records
/// it, so thread-parallel numbers are read against the host they ran on.
inline int hardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// The paper-vs-measured table. A gate row prints yes/NO and a NO makes
/// finish() return 1; a note row prints its value and `-` in place of a
/// verdict. Measured cells are JSON scalars: strings print as they are,
/// integers in decimal, booleans as 1/0. A row given a `key` also records
/// its measured value under that key in json(), so a metric that is both
/// a row and a BENCH field is named once.
class Table {
 public:
  explicit Table(const char* title) {
    static const char* const kDashes =
        "--------------------------------------------";
    std::printf("== %s ==\n", title);
    std::printf("%-44s | %-18s | %-18s | %s\n", "metric", "paper",
                "measured", "ok");
    std::printf("%.44s-+-%.18s-+-%.18s-+---\n", kDashes, kDashes, kDashes);
  }

  void gate(const std::string& metric, const char* paper,
            const service::Json& measured, bool ok,
            const char* key = nullptr) {
    row(metric, paper, measured, ok ? "yes" : "NO", key);
    failed_ = failed_ || !ok;
  }

  void note(const std::string& metric, const char* paper,
            const service::Json& measured, const char* key = nullptr) {
    row(metric, paper, measured, "-", key);
  }

  /// The BENCH fields: the keyed rows in row order, plus whatever the
  /// bench sets in between.
  [[nodiscard]] service::Json& json() { return json_; }

  /// Runs the google-benchmark loops; returns 1 if any gate failed.
  int finish(int argc, char** argv) {
    std::printf("\n");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return failed_ ? 1 : 0;
  }

 private:
  void row(const std::string& metric, const char* paper,
           const service::Json& measured, const char* verdict,
           const char* key) {
    const std::string cell =
        measured.isString() ? measured.stringValue()
        : measured.isBool() ? (measured.boolValue() ? "1" : "0")
                            : measured.write();
    std::printf("%-44s | %-18s | %-18s | %s\n", metric.c_str(), paper,
                cell.c_str(), verdict);
    if (key != nullptr) json_.set(key, measured);
  }

  service::Json json_ = service::Json::object();
  bool failed_ = false;
};

namespace detail {

/// Indented rendering; doubles keep an ostream's six significant digits.
inline void appendPretty(const service::Json& v, int indent,
                         std::string& out) {
  if (v.kind() == service::Json::Kind::Double) {
    out += fmt("%g", v.doubleValue());
    return;
  }
  if (!v.isObject() && !v.isArray()) {
    out += v.write();
    return;
  }
  const bool object = v.isObject();
  const std::size_t n = object ? v.members().size() : v.items().size();
  out += object ? "{\n" : "[\n";
  for (std::size_t i = 0; i < n; ++i) {
    out.append(static_cast<std::size_t>(indent) + 2, ' ');
    if (object) out += service::Json(v.members()[i].first).write() + ": ";
    appendPretty(object ? v.members()[i].second : v.items()[i], indent + 2,
                 out);
    out += i + 1 < n ? ",\n" : "\n";
  }
  out.append(static_cast<std::size_t>(indent), ' ');
  out += object ? "}" : "]";
}

}  // namespace detail

/// Writes one BENCH file: an object that opens with `experiment` and
/// `hardware_threads`, followed by the members of `fields`.
inline void writeBenchJson(const char* path, const char* experiment,
                           const service::Json& fields) {
  service::Json doc = service::Json::object();
  doc.set("experiment", experiment).set("hardware_threads", hardwareThreads());
  for (const auto& [key, value] : fields.members()) doc.set(key, value);
  std::string text;
  detail::appendPretty(doc, 0, text);
  std::ofstream out(path);
  if (!(out << text << '\n')) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::printf("  wrote %s\n", path);
}

}  // namespace cssame::benchutil
