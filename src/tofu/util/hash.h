// FNV-1a folding (64-bit offset basis / prime), the one mixer behind every structural
// fingerprint: GraphSignature (graph/graph.h), the DP's step-cache key (partition/dp.cc)
// and PlanDigest (partition/plan_io.h). Tests and the checked-in baselines pin the
// signatures and digests, so the byte order below is part of their contract.
#ifndef TOFU_UTIL_HASH_H_
#define TOFU_UTIL_HASH_H_

#include <cstdint>
#include <string>

namespace tofu {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
// The seed of the step-cache key and of PlanDigest: the decimal offset basis with its
// last digit dropped. Not the standard basis, but every pinned plan digest was recorded
// with it, so it stays.
inline constexpr std::uint64_t kFnvDigestSeed = 1469598103934665603ull;

inline void FnvMixByte(std::uint64_t* h, unsigned char byte) {
  *h ^= byte;
  *h *= kFnvPrime;
}

// Folds the eight bytes of `v`, least significant first.
inline void FnvMix(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    FnvMixByte(h, static_cast<unsigned char>(v >> (8 * i)));
  }
}

// Length-prefixed, so adjacent strings cannot alias ("ab" + "c" vs "a" + "bc").
inline void FnvMixString(std::uint64_t* h, const std::string& s) {
  FnvMix(h, s.size());
  for (char c : s) {
    FnvMixByte(h, static_cast<unsigned char>(c));
  }
}

}  // namespace tofu

#endif  // TOFU_UTIL_HASH_H_
