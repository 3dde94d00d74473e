// Process-wide allocation probe for bench_dtucker and trace_test:
// alloc_probe.cpp replaces the global operator new/delete so BM_ModeGram
// can assert that a kernel never materializes an unfolding-sized copy, and
// the tracer tests that a span records without allocating. The
// replacements live in their own translation unit, so no caller sees a
// malloc-backed new inlined beside a free-backed delete.
#ifndef DTUCKER_BENCH_ALLOC_PROBE_H_
#define DTUCKER_BENCH_ALLOC_PROBE_H_

#include <cstddef>

namespace dtucker {

// Bytes requested through operator new / new[] so far, on every thread.
// Deliberately counts every allocation in the binary: the probe brackets a
// single kernel call on a quiet process.
std::size_t AllocatedBytes();

}  // namespace dtucker

#endif  // DTUCKER_BENCH_ALLOC_PROBE_H_
