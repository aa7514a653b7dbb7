// Folds a flat list of timed spans into per-name self time by nesting: a
// span's self time is its duration minus the time its direct children
// cover. The tick benchmark records its own spans around public calls and
// merges them with the program's obs::Tracer spans before folding.
#ifndef TICKBENCH_SPAN_FOLD_H_
#define TICKBENCH_SPAN_FOLD_H_

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

namespace tickbench {

// One closed span. `name` must outlive the fold (string literals, or the
// program's static span names). `seq` breaks ties between spans that share
// both start and duration: the later-closed (higher seq) one is the parent.
struct Span {
  std::string_view name;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t seq = 0;
};

struct SelfTime {
  uint64_t calls = 0;
  uint64_t total_ns = 0;  // Sum of durations, children included.
  uint64_t self_ns = 0;   // Sum of durations minus direct children.
};

using SelfTimes = std::map<std::string_view, SelfTime>;

// Adds the spans' calls, totals and self times into `out`. Spans must be
// properly nested (a child lies within its parent); `spans` is reordered.
void FoldSelfTimes(std::vector<Span>& spans, SelfTimes& out);

// Folds a hand-built nested list whose self times are known; returns the
// number of mismatches (0 = pass) and prints each one to stderr.
int SelfTest();

}  // namespace tickbench

#endif  // TICKBENCH_SPAN_FOLD_H_
