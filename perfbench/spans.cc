#include "spans.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

int SpanLog::begin(std::string name, long id) {
  Span span;
  span.name = std::move(name);
  span.id = id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ms = now_ms();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::end(int span) {
  // Spans close in LIFO order: `span` is the innermost open one.
  spans_[span].end_ms = now_ms();
  open_.pop_back();
}

std::vector<double> SpanLog::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].duration_ms();
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= spans_[i].duration_ms();
    }
  }
  return self;
}

std::map<std::string, std::vector<double>> SpanLog::self_ms_by_name() const {
  std::map<std::string, std::vector<double>> out;
  const std::vector<double> self = self_ms();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(self[i]);
  }
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  out << "{\"traceEvents\":[\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"id\":%ld,\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name.c_str(), s.start_ms * 1e3,
                  s.duration_ms() * 1e3, i, s.id, s.parent);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
