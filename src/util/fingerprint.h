// Order-sensitive 64-bit mixing for run fingerprints: the soak, crash and
// fuzz harnesses fold every field of a report into one word with these, so
// a changed fingerprint means a changed run. Changing either function
// changes every pinned fingerprint.
#ifndef SRC_UTIL_FINGERPRINT_H_
#define SRC_UTIL_FINGERPRINT_H_

#include <cstdint>
#include <cstring>

namespace sdb {

inline uint64_t MixU64(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

// Mixes the exact bit pattern of `v` (so -0.0 and 0.0 differ).
inline uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return MixU64(h, bits);
}

}  // namespace sdb

#endif  // SRC_UTIL_FINGERPRINT_H_
