#include "span_fold.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

namespace tickbench {

void FoldSelfTimes(std::vector<Span>& spans, SelfTimes& out) {
  // Parents sort before their children: earlier start first, then the
  // longer span, then the later-closed one.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.start_ns != b.start_ns) {
      return a.start_ns < b.start_ns;
    }
    if (a.dur_ns != b.dur_ns) {
      return a.dur_ns > b.dur_ns;
    }
    return a.seq > b.seq;
  });
  std::vector<uint64_t> child_ns(spans.size(), 0);
  std::vector<size_t> open;  // Indices of the spans enclosing the current one.
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    while (!open.empty()) {
      const Span& top = spans[open.back()];
      if (top.start_ns + top.dur_ns > s.start_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) {
      child_ns[open.back()] += s.dur_ns;
    }
    open.push_back(i);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    SelfTime& acc = out[spans[i].name];
    ++acc.calls;
    acc.total_ns += spans[i].dur_ns;
    acc.self_ns += spans[i].dur_ns - std::min(child_ns[i], spans[i].dur_ns);
  }
}

int SelfTest() {
  // tick [0,100) holds update [10,40) (which holds query [20,30)) and
  // step [50,90) (which holds two circuit calls [55,65) and [70,85)); a
  // second tick [100,120) starts exactly where the first ends, and an
  // empty sample [120,120) sits after it. Given out of order on purpose.
  std::vector<Span> spans = {
      {"circuit", 70, 15, 4}, {"tick", 100, 20, 8}, {"query", 20, 10, 0},
      {"step", 50, 40, 5},    {"circuit", 55, 10, 3}, {"update", 10, 30, 1},
      {"sample", 120, 0, 9},  {"tick", 0, 100, 6},
  };
  SelfTimes folded;
  FoldSelfTimes(spans, folded);
  struct Want {
    const char* name;
    uint64_t calls;
    uint64_t total_ns;
    uint64_t self_ns;
  };
  const Want wants[] = {
      {"tick", 2, 120, 50},   // 100 - 30 - 40, plus 20.
      {"update", 1, 30, 20},  // 30 - 10.
      {"query", 1, 10, 10},
      {"step", 1, 40, 15},    // 40 - 10 - 15.
      {"circuit", 2, 25, 25},
      {"sample", 1, 0, 0},
  };
  int failures = 0;
  for (const Want& want : wants) {
    const SelfTime& got = folded[want.name];
    if (got.calls != want.calls || got.total_ns != want.total_ns ||
        got.self_ns != want.self_ns) {
      std::fprintf(stderr,
                   "self-test: %s calls=%llu total=%llu self=%llu, want %llu/%llu/%llu\n",
                   want.name, static_cast<unsigned long long>(got.calls),
                   static_cast<unsigned long long>(got.total_ns),
                   static_cast<unsigned long long>(got.self_ns),
                   static_cast<unsigned long long>(want.calls),
                   static_cast<unsigned long long>(want.total_ns),
                   static_cast<unsigned long long>(want.self_ns));
      ++failures;
    }
  }
  if (folded.size() != std::size(wants)) {
    std::fprintf(stderr, "self-test: %zu names folded, want %zu\n", folded.size(),
                 std::size(wants));
    ++failures;
  }
  return failures;
}

}  // namespace tickbench
