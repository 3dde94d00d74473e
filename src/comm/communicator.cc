#include "comm/communicator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.h"

namespace dtucker {

namespace {

// One spin iteration that tells the core we are in a spin-wait loop
// without giving up the timeslice (the sub-microsecond phase of the
// adaptive wait).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Adaptive wait phases: pure spinning covers rendezvous latencies in the
// hundreds of nanoseconds (peers already in the collective), yielding
// covers peers descheduled on a busy box, and the exponential sleep bounds
// CPU burn when a peer is genuinely slow. The timeout check runs at most
// every kCheckMask+1 spins so the hot phase stays cheap.
constexpr std::uint64_t kSpinPolls = 4096;
constexpr std::uint64_t kYieldPolls = 256;
constexpr std::uint64_t kCheckMask = 63;
constexpr unsigned kMaxSleepUs = 100;

}  // namespace

// One rendezvous slot per ordered (sender, receiver) pair. The protocol is
// a seqlock-style handshake on two atomics: the sender publishes its
// buffer pointer and stores tag+1 into `post` (release); the receiver
// spins for the matching post (acquire), consumes the data, and stores
// tag+1 into `ack` (release); the sender spins for the ack (acquire) and
// clears `post` for the next operation on this pair. Lock-free: no mutex,
// no allocation, one cache line per pair.
struct alignas(64) InProcessSlot {
  std::atomic<std::uint64_t> post{0};
  std::atomic<std::uint64_t> ack{0};
  const double* data = nullptr;
  std::size_t n = 0;
};

struct Communicator::State {
  int size = 0;
  std::vector<InProcessSlot> slots;  // size * size, sender-major.
  InProcessSlot& slot(int sender, int receiver) {
    return slots[static_cast<std::size_t>(sender) *
                     static_cast<std::size_t>(size) +
                 static_cast<std::size_t>(receiver)];
  }
};

Status Communicator::WaitStep(const Timer& timer, std::uint64_t poll,
                              unsigned* sleep_us) {
  if (poll < kSpinPolls && (poll & kCheckMask) != kCheckMask) {
    CpuRelax();
    return Status::OK();
  }
  if (timer.Seconds() > timeout_seconds_) {
    return Status::Unavailable(
        "communicator: peer did not arrive within " +
        std::to_string(timeout_seconds_) + "s (rank " + std::to_string(rank_) +
        " of " + std::to_string(size_) + ")");
  }
  if (poll < kSpinPolls) {
    CpuRelax();
  } else if (poll < kSpinPolls + kYieldPolls) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(*sleep_us));
    *sleep_us = std::min(kMaxSleepUs, *sleep_us * 2);
  }
  return Status::OK();
}

Status Communicator::SendTo(int peer, std::uint64_t tag, const double* data,
                            std::size_t n) {
  InProcessSlot& s = state_->slot(rank_, peer);
  s.data = data;
  s.n = n;
  s.post.store(tag + 1, std::memory_order_release);
  Timer timer;
  unsigned sleep_us = 1;
  for (std::uint64_t poll = 0; s.ack.load(std::memory_order_acquire) != tag + 1;
       ++poll) {
    DT_RETURN_NOT_OK(WaitStep(timer, poll, &sleep_us));
  }
  s.post.store(0, std::memory_order_relaxed);
  return Status::OK();
}

Status Communicator::RecvFrom(int peer, std::uint64_t tag, double* data,
                              std::size_t n, bool add) {
  InProcessSlot& s = state_->slot(peer, rank_);
  Timer timer;
  unsigned sleep_us = 1;
  for (std::uint64_t poll = 0;
       s.post.load(std::memory_order_acquire) != tag + 1; ++poll) {
    DT_RETURN_NOT_OK(WaitStep(timer, poll, &sleep_us));
  }
  DT_CHECK_EQ(s.n, n) << "in-process rendezvous size mismatch";
  if (add) {
    for (std::size_t i = 0; i < n; ++i) data[i] += s.data[i];
  } else {
    std::memcpy(data, s.data, n * sizeof(double));
  }
  s.ack.store(tag + 1, std::memory_order_release);
  return Status::OK();
}

Status Communicator::Broadcast(double* data, std::size_t n) {
  const std::uint64_t op = next_tag_++;
  int step = 0;
  // Iterative doubling: after the step at distance d, ranks [0, 2d) hold
  // the data.
  for (int d = 1; d < size_; d *= 2, ++step) {
    const std::uint64_t tag = op * 64 + static_cast<std::uint64_t>(step);
    if (rank_ < d && rank_ + d < size_) {
      DT_RETURN_NOT_OK(SendTo(rank_ + d, tag, data, n));
    } else if (rank_ >= d && rank_ < 2 * d) {
      DT_RETURN_NOT_OK(RecvFrom(rank_ - d, tag, data, n, /*add=*/false));
    }
  }
  return Status::OK();
}

Status Communicator::AllReduceSum(double* data, std::size_t n) {
  if (size_ == 1) return Status::OK();
  // Binomial reduce to rank 0 (see the file comment), then a broadcast.
  const std::uint64_t op = next_tag_++;
  int step = 0;
  for (int d = 1; d < size_; d *= 2, ++step) {
    const std::uint64_t tag = op * 64 + static_cast<std::uint64_t>(step);
    if ((rank_ % (2 * d)) == d) {
      DT_RETURN_NOT_OK(SendTo(rank_ - d, tag, data, n));
      break;
    }
    if ((rank_ % (2 * d)) == 0 && rank_ + d < size_) {
      DT_RETURN_NOT_OK(RecvFrom(rank_ + d, tag, data, n, /*add=*/true));
    }
  }
  return Broadcast(data, n);
}

std::shared_ptr<InProcessGroup> InProcessGroup::Create(int size) {
  DT_CHECK_GE(size, 1) << "in-process group needs at least one rank";
  auto group = std::shared_ptr<InProcessGroup>(new InProcessGroup());
  group->state_ = new Communicator::State();
  group->state_->size = size;
  group->state_->slots =
      std::vector<InProcessSlot>(static_cast<std::size_t>(size) *
                                 static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    group->comms_.emplace_back(
        std::make_unique<Communicator>(group->state_, r, size));
  }
  return group;
}

Communicator* InProcessGroup::comm(int rank) {
  DT_CHECK(rank >= 0 && rank < static_cast<int>(comms_.size()))
      << "rank out of range";
  return comms_[static_cast<std::size_t>(rank)].get();
}

InProcessGroup::~InProcessGroup() {
  comms_.clear();
  delete state_;
}

}  // namespace dtucker
