// In-memory spans for the traced run (README.md, "Traced run"). The
// benchmark opens one span around each call into a library layer; spans
// nest by call order, carry the iteration or campaign-run index as their
// id, and are written out once, when the benchmark ends.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  long id = 0;      ///< Iteration or campaign-run index.
  int parent = -1;  ///< Index of the enclosing span; -1 for a root.
  double start_ms = 0;
  double end_ms = 0;

  double duration_ms() const { return end_ms - start_ms; }
};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span as a child of the innermost open span.
  int begin(std::string name, long id);
  void end(int span);

  /// Self time of every span (its duration minus the time its direct
  /// children cover), grouped by span name.
  std::map<std::string, std::vector<double>> self_ms_by_name() const;
  /// Chrome trace-event JSON (chrome://tracing, Perfetto). False on an
  /// I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<double> self_ms() const;
  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
