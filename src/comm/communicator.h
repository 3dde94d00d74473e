// Communicator: a deterministic all-reduce across the threads of one
// process.
//
// D-Tucker does not use it: its slice sums run as one fork-join over the
// chunk grid (comm/sharding.h). This is a small group collective for the
// benchmark's collective-latency probe: `size` communicators, one per
// thread, each calling
//
//   AllReduceSum   elementwise sum with a *deterministic* binomial tree
//
// Determinism contract: contributions combine through a fixed binomial
// tree over rank indices — at distance d = 1, 2, 4, ..., rank r with
// r % 2d == d sends its accumulator to rank r - d, which adds it on top of
// its own (receiver += sender, in ascending-distance order) — and rank 0's
// sum is then broadcast. The addition order depends only on the group size,
// never on timing, so repeated runs are bitwise identical.
//
// Transport: the ranks share an address space; rendezvous is a lock-free
// seqlock-style mailbox exchange per ordered pair of ranks.
//
// Waiting: every blocking wait spins (cpu-relax), then yields, then sleeps
// for exponentially growing short intervals, and gives up after a
// communicator-level timeout (default 120 s), so a peer that never arrives
// surfaces as kUnavailable instead of a deadlock.
#ifndef DTUCKER_COMM_COMMUNICATOR_H_
#define DTUCKER_COMM_COMMUNICATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "linalg/matrix.h"

namespace dtucker {

class Communicator {
 public:
  // Shared rendezvous table of a group; opaque outside the implementation
  // file.
  struct State;

  Communicator(State* state, int rank, int size)
      : state_(state), rank_(rank), size_(size) {}

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int rank() const { return rank_; }
  int size() const { return size_; }

  // Upper bound on any single blocking wait (seconds). A peer that never
  // shows up turns into kUnavailable after this long. Default 120 s.
  void set_timeout_seconds(double seconds) { timeout_seconds_ = seconds; }

  // In-place elementwise sum over ranks, deterministic binomial tree (see
  // file comment); every rank exits with the identical summed buffer.
  Status AllReduceSum(double* data, std::size_t n);
  Status AllReduceSum(Matrix* m) { return AllReduceSum(m->data(), m->size()); }

 private:
  // One blocking wait: spin, then yield, then sleep (1 µs doubling to
  // 100 µs), failing with kUnavailable past the timeout. Use as
  //
  //   Timer timer;
  //   for (std::uint64_t polls = 0; !condition; ++polls)
  //     DT_RETURN_NOT_OK(WaitStep(timer, polls, &sleep_us));
  Status WaitStep(const Timer& timer, std::uint64_t poll, unsigned* sleep_us);

  // Point-to-point rendezvous. `tag` is a monotonically increasing
  // operation sequence number; a (tag, peer) pair identifies one exchange.
  // SendTo publishes data[0, n) to `peer` and blocks until the peer has
  // consumed it; RecvFrom blocks for the matching publish and copies
  // (add == false) or accumulates (add == true) it into `data`.
  Status SendTo(int peer, std::uint64_t tag, const double* data,
                std::size_t n);
  Status RecvFrom(int peer, std::uint64_t tag, double* data, std::size_t n,
                  bool add);

  // Replicates rank 0's data[0, n) into every rank's buffer.
  Status Broadcast(double* data, std::size_t n);

  State* state_;
  int rank_;
  int size_;
  double timeout_seconds_ = 120.0;
  std::uint64_t next_tag_ = 0;
};

// `size` communicators sharing one rendezvous table, one per rank thread.
// The group object owns the shared state and must outlive every rank.
class InProcessGroup {
 public:
  // `size` >= 1. The returned communicators index ranks 0..size-1.
  static std::shared_ptr<InProcessGroup> Create(int size);

  // Communicator for `rank`; each may be used by exactly one thread at a
  // time. Valid for the group's lifetime.
  Communicator* comm(int rank);

  ~InProcessGroup();

 private:
  InProcessGroup() = default;
  Communicator::State* state_ = nullptr;
  std::vector<std::unique_ptr<Communicator>> comms_;
};

}  // namespace dtucker

#endif  // DTUCKER_COMM_COMMUNICATOR_H_
