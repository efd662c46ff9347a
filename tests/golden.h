/**
 * @file
 * Whether this build may check golden float-bit digests.
 *
 * Which multiply-adds the compiler fuses into FMAs depends on the
 * target ISA and on instrumentation, so a digest over float bits holds
 * for one compiled instance only. The goldens are pinned for the
 * uninstrumented x86-64-v3 build the top-level CMakeLists.txt selects
 * on an AVX2 + FMA host, recognised here by the compiler's own target
 * macros (the ones the kernels test): x86-64 with AVX2 and FMA, but no
 * AVX-512 build-wide, and no sanitizer. Any other build (default
 * target, ASan or TSan) computes other, equally deterministic bits and
 * skips the golden fixtures; the bit-identity tests that compare two
 * paths inside one build (BitIdentical.*, TapePool.*) run everywhere.
 */
#pragma once

namespace tlp::test {

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__) &&         \
    !defined(__AVX512F__) && !defined(__SANITIZE_ADDRESS__) &&              \
    !defined(__SANITIZE_THREAD__)
inline constexpr bool kGoldenBits = true;
#else
inline constexpr bool kGoldenBits = false;
#endif

} // namespace tlp::test
